"""Involution-orbit kernels.

Every structural query on a map reduces to orbit traversals over two or
three fixed-point-free involutions given as index arrays (sequences p with
p[p[i]] == i).  Two traversals give every orbit:

* Two such involutions generate orbits that are single alternating cycles,
  so one cycle walk (:func:`face_data`) gives the faces <beta, omega>, the
  black vertices <beta, eps> and the white vertices <omega, eps>.
* The components <beta, omega, eps> need a general traversal
  (:func:`orbit_ids3`); orientability is the bipartiteness of the same label
  graph, so that traversal 2-colours the labels as it goes.

Both functions return orbit ids numbered in first-visit order (scanning
indices upward), which makes the output deterministic.

A third kernel, :func:`removal_counts`, weighs a whole removal history.  It
needs no orbit ids: an edge's kind depends only on the one face through
its first side, so a walk of that face classifies it, and removing the edge
re-pairs two partners in place, so no residual map is built.
"""


def orbit_ids3(p, q, r):
    """Orbit id per index under <p, q, r>, the orbit count, and bipartiteness.

    Each newly reached index gets the colour opposite to the index it was
    reached from; the graph with adjacencies p, q, r is bipartite iff no
    adjacency joins two indices of the same colour.
    """
    n = len(p)
    ids = [-1] * n
    cols = [0] * n
    count = 0
    bipartite = True
    for s in range(n):
        if ids[s] >= 0:
            continue
        ids[s] = count
        stack = [s]
        while stack:
            x = stack.pop()
            c = cols[x] ^ 1
            for y in (p[x], q[x], r[x]):
                if ids[y] < 0:
                    ids[y] = count
                    cols[y] = c
                    stack.append(y)
                elif cols[y] != c:
                    bipartite = False
        count += 1
    return ids, count, bipartite


def face_data(p, q):
    """Orbit id and alternating 2-colouring per index under <p, q>.

    The union of two fixed-point-free involutions is a 2-regular multigraph,
    so each orbit of <p, q> is a single cycle with edge types alternating
    p/q; walking it and flipping a bit per step yields the unique
    bipartition of the cycle.  For (beta, omega) the orbits are the faces
    and the colours their two boundary directions.
    """
    n = len(p)
    ids = [-1] * n
    cols = [0] * n
    count = 0
    for s in range(n):
        if ids[s] >= 0:
            continue
        x = s
        c = 0
        use_p = True
        while ids[x] < 0:
            ids[x] = count
            cols[x] = c
            x = p[x] if use_p else q[x]
            use_p = not use_p
            c ^= 1
        count += 1
    return ids, cols, count


def removal_counts(p, q, order):
    """(twisted, interface) counts of removing edges one after another.

    ``order`` lists each edge as the index pair (i, j) of its two sides.
    The edge is classified in the current map by walking its face from i,
    alternating p and q: it is interface if the walk comes back to i
    without meeting j, twisted if j is an even number of steps away (the
    two sides have the same :func:`face_data` colour) and straight if odd.
    Removing it pairs r[i] with r[j] for r in (p, q), unless r[i] == j;
    the copies of p and q are updated in place and nothing is renumbered.
    """
    p = list(p)
    q = list(q)
    twisted = interface = 0
    for i, j in order:
        x = p[i]
        odd = True
        while x != i and x != j:
            x = q[x] if odd else p[x]
            odd = not odd
        if x == i:
            interface += 1
        elif not odd:
            twisted += 1
        for r in (p, q):
            a = r[i]
            if a != j:
                b = r[j]
                r[a] = b
                r[b] = a
    return twisted, interface
