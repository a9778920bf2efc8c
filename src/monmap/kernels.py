"""Involution-orbit kernels.

Every structural query on a map reduces to a handful of orbit traversals
over one, two or three fixed-point-free involutions given as index arrays
(sequences p with p[p[i]] == i).  These four functions are the innermost
loops of all exhaustive scans.

All functions return orbit ids numbered in first-visit order (scanning
indices upward), which makes the output deterministic.
"""


def orbit_ids2(p, q):
    """Orbit id per index under the group generated by p and q."""
    n = len(p)
    ids = [-1] * n
    count = 0
    for s in range(n):
        if ids[s] >= 0:
            continue
        ids[s] = count
        stack = [s]
        while stack:
            x = stack.pop()
            y = p[x]
            if ids[y] < 0:
                ids[y] = count
                stack.append(y)
            y = q[x]
            if ids[y] < 0:
                ids[y] = count
                stack.append(y)
        count += 1
    return ids, count


def orbit_ids3(p, q, r):
    """Orbit id per index under the group generated by p, q and r."""
    n = len(p)
    ids = [-1] * n
    count = 0
    for s in range(n):
        if ids[s] >= 0:
            continue
        ids[s] = count
        stack = [s]
        while stack:
            x = stack.pop()
            y = p[x]
            if ids[y] < 0:
                ids[y] = count
                stack.append(y)
            y = q[x]
            if ids[y] < 0:
                ids[y] = count
                stack.append(y)
            y = r[x]
            if ids[y] < 0:
                ids[y] = count
                stack.append(y)
        count += 1
    return ids, count


def face_data(beta, omega):
    """Face id and boundary 2-coloring per index.

    The union of two fixed-point-free involutions is a 2-regular multigraph,
    so each orbit of <beta, omega> is a single cycle with edge types
    alternating beta/omega; walking it and flipping a bit per step yields
    the unique bipartition of the cycle (the two boundary directions).
    """
    n = len(beta)
    ids = [-1] * n
    cols = [0] * n
    count = 0
    for s in range(n):
        if ids[s] >= 0:
            continue
        x = s
        c = 0
        use_beta = True
        while ids[x] < 0:
            ids[x] = count
            cols[x] = c
            x = beta[x] if use_beta else omega[x]
            use_beta = not use_beta
            c ^= 1
        count += 1
    return ids, cols, count


def bipartite3(p, q, r):
    """True iff the multigraph with adjacencies p, q, r is bipartite."""
    n = len(p)
    col = [-1] * n
    for s in range(n):
        if col[s] >= 0:
            continue
        col[s] = 0
        stack = [s]
        while stack:
            x = stack.pop()
            cx = col[x] ^ 1
            for y in (p[x], q[x], r[x]):
                if col[y] < 0:
                    col[y] = cx
                    stack.append(y)
                elif col[y] != cx:
                    return False
    return True
