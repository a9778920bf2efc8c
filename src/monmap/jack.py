"""Desk-scale Jack symmetric functions and character evaluation.

The deformed power-sum inner product <p_lam, p_mu> = delta * z_lam *
alpha^{l(lam)} makes the Jack basis the unique orthogonal family that is
dominance-triangular over the monomial basis, so Gram-Schmidt along any
linear extension of dominance produces it; it runs in lexicographic order,
which refines dominance.  Coefficients are kept in the
power-sum basis throughout; theta_{1^n} = 1 fixes the normalization.  Each
starting m_lam is written in that basis by back substitution: the
coefficient of m_lam in p_mu counts the ways to fill the rows of lam with
the parts of mu, and these counts are triangular for dominance.

The Gram-Schmidt itself runs over Python ints: its norms are all b^d
times the true ones (alpha = a/b), and every vector is a nonzero integer
multiple of the rational one.  Neither scaling moves a projection, so the
theta tables are exactly the rational ones (see ``_jack_family``).
``jack_inner_product`` stays over Fraction, an independent check of the
orthogonality.

This module also carries the independent alpha = 1 oracle (symmetric-group
characters via Murnaghan-Nakayama), a literal transcription of the closed
multirectangular polynomials for the first three characters, and the
special-value identities at alpha in {1, 2, 1/2} that tie characters to
map sums.  The closed forms are never expanded into monomials: they are
evaluated at one point.  ``ch_stanley`` evaluates them over the integers,
at the numerators of the point over one common denominator D, and
separates the homogeneous parts by their powers of D.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import Sequence, Union

from .algebra import SQRT2, Sqrt2, _as_fraction
from .diagrams import Partition, _class_sums, _class_table, _diagram_list
from .enumeration import FORCE_HINT, conservative_maps
from .maps import _CACHES, bicolored_graph
from .oriented import (OrientedMap, bicolored_graph_oriented,
                       cycle_type_permutation, partitions_of, z_of)

Scalar = Union[Fraction, Sqrt2]

JACK_SIZE_GUARD = 6


class JackGuardError(ValueError):
    pass


def _fillings(parts: tuple[int, ...], rows: tuple[int, ...]) -> int:
    """R(mu, lam): the ways to put the parts of mu into rows of lengths lam
    so that every row is filled exactly, i.e. the coefficient of m_lam in p_mu.

    Parts are placed one at a time; rows of equal remaining length are
    interchangeable, so each length is tried once and counted with its
    multiplicity.  |mu| = |lam| is assumed.
    """
    if not parts:
        return 1
    first, rest = parts[0], parts[1:]
    total = 0
    for r in set(rows):
        if r >= first:
            left = list(rows)
            left.remove(r)
            if r > first:
                left.append(r - first)
            total += rows.count(r) * _fillings(rest, tuple(left))
    return total


@lru_cache(maxsize=None)
def _m_to_p(d: int) -> dict[tuple[int, ...], dict[tuple[int, ...], Fraction]]:
    """Expansion of each monomial symmetric function in the p basis.

    p_mu = sum of R(mu, lam) m_lam over the lam dominating mu (Macdonald
    I.6), and lexicographic order refines dominance.  So, going from (d)
    down in reverse lexicographic order, m_mu = (p_mu - sum over lam >lex mu
    of R(mu, lam) m_lam) / R(mu, mu) uses only expansions already found:
    exact back substitution on a triangular matrix of counts.
    """
    out: dict[tuple[int, ...], dict[tuple[int, ...], Fraction]] = {}
    for mu in partitions_of(d):
        m_mu = {mu: Fraction(1)}
        for lam, m_lam in out.items():
            r = _fillings(mu, lam)
            if r:
                for nu, c in m_lam.items():
                    m_mu[nu] = m_mu.get(nu, 0) - r * c
        diag = _fillings(mu, mu)
        out[mu] = {nu: c / diag for nu, c in m_mu.items() if c}
    return out


def _inner(f: dict, g: dict, norms: dict) -> int:
    """<f, g> of two integer p-expansions, with <p_mu, p_mu> = norms[mu]."""
    return sum(c * g[mu] * norms[mu] for mu, c in f.items() if mu in g)


@lru_cache(maxsize=None)
def _jack_family(d: int, alpha: Fraction):
    """theta tables for all |lam| = d at a fixed alpha: {lam: {mu: theta}}.

    Fraction-free Gram-Schmidt over Python ints, along the lexicographic
    order of the partitions (which refines dominance).  With alpha = a/b, each
    <p_mu, p_mu> = z_mu alpha^l(mu) is replaced by z_mu a^l(mu) b^(d-l(mu)),
    its b^d multiple; each m_lam starts as its p-expansion times the lcm of
    its denominators; and each projection is v <- <u,u> v - <v,u> u, after
    which v is divided by the gcd of its entries (without it the entries
    grow so fast that d = 7 takes minutes).  Every step scales all norms by
    one constant or a basis vector by a nonzero integer, which leaves every
    projection unchanged, so each final v is a multiple of the rational
    Gram-Schmidt vector, and dividing by v[1^d] at the end (one Fraction
    per entry) gives the same table entry for entry.
    """
    if alpha <= 0:
        raise JackGuardError("alpha must be positive")
    a, b = alpha.numerator, alpha.denominator
    order = sorted(partitions_of(d))
    m_in_p = _m_to_p(d)
    p_norms = {mu: z_of(mu) * a ** len(mu) * b ** (d - len(mu))
               for mu in order}
    basis: list[tuple[dict[tuple[int, ...], int], int]] = []
    out = {}
    ones = (1,) * d
    for lam in order:
        m_lam = m_in_p[lam]
        scale = math.lcm(*(c.denominator for c in m_lam.values()))
        v = {mu: c.numerator * (scale // c.denominator)
             for mu, c in m_lam.items()}
        for u, uu in basis:
            vu = _inner(v, u, p_norms)
            if vu:
                v = {mu: uu * x for mu, x in v.items()}
                for mu, x in u.items():
                    v[mu] = v.get(mu, 0) - vu * x
                v = {mu: x for mu, x in v.items() if x}
                g = math.gcd(*v.values())
                v = {mu: x // g for mu, x in v.items()}
        basis.append((v, _inner(v, v, p_norms)))
        top = v[ones]
        out[lam] = {mu: Fraction(x, top) for mu, x in v.items()}
    return out


def _check_size(size: int, force: bool) -> None:
    if size > JACK_SIZE_GUARD and not force:
        raise JackGuardError(f"|lambda| = {size} exceeds the guard "
                             f"({JACK_SIZE_GUARD}); {FORCE_HINT}")


def jack_in_p(lam, alpha,
              force: bool = False) -> dict[tuple[int, ...], Fraction]:
    """All theta coefficients of one Jack function: J_lam = sum theta_mu p_mu.

    The table covers every partition mu of |lam|, explicit zeros included.
    """
    lam = Partition(lam).parts
    alpha = _as_fraction(alpha)
    _check_size(sum(lam), force)
    sparse = _jack_family(sum(lam), alpha)[lam]
    return {mu: sparse.get(mu, Fraction(0))
            for mu in partitions_of(sum(lam))}


def jack_inner_product(f: dict, g: dict, alpha) -> Fraction:
    """<f, g> of two p-expansions, <p_mu, p_mu> = z_mu alpha^l(mu).

    Exact over Fraction, independently of the integer Gram-Schmidt."""
    alpha = _as_fraction(alpha)
    if alpha <= 0:
        raise JackGuardError("alpha must be positive")
    return sum((c * g[mu] * z_of(mu) * alpha ** len(mu)
                for mu, c in f.items() if mu in g), Fraction(0))


def alpha_of(a: Scalar) -> Fraction:
    """alpha = A^2 of a scale A, rational or in Q[sqrt2]; A = 0 is refused."""
    alpha = a * a if isinstance(a, Sqrt2) else _as_fraction(a) ** 2
    if isinstance(alpha, Sqrt2):
        alpha = alpha.to_fraction()
    if alpha <= 0:
        raise JackGuardError("alpha must be positive")
    return alpha


def ch(pi, lam, a: Scalar, force: bool = False) -> Scalar:
    """Normalized Jack character Ch_pi(lambda) at the scale A, alpha = A^2.

    A^{l(pi)-|pi|} * binom(|lam|-|pi|+m_1(pi), m_1(pi)) * z_pi *
    theta_{pi u 1^(|lam|-|pi|)}(lam); zero when |lam| < |pi|.  The A-power
    takes the sign of A.
    """
    alpha = alpha_of(a)
    if not isinstance(a, Sqrt2):
        a = Fraction(a)
    pi = Partition(pi)
    lam = Partition(lam) if not isinstance(lam, Partition) else lam
    if lam.size < pi.size:
        return a * 0
    _check_size(lam.size, force)
    rho = tuple(sorted(pi.parts + (1,) * (lam.size - pi.size), reverse=True))
    theta = _jack_family(lam.size, alpha)[lam.parts].get(rho, 0)
    m1 = pi.mult(1)
    binom = math.comb(lam.size - pi.size + m1, m1)
    return a ** (pi.length - pi.size) * (binom * pi.z * theta)


# -- independent alpha = 1 oracle: symmetric-group characters ---------------


@lru_cache(maxsize=None)
def sn_character(lam: tuple[int, ...], rho: tuple[int, ...]) -> int:
    """chi^lam(rho) by Murnaghan-Nakayama border-strip recursion."""
    lam = tuple(p for p in lam if p)
    rho = tuple(p for p in rho if p)
    if sum(lam) != sum(rho):
        raise ValueError("lambda and rho must have equal size")
    if not lam:
        return 1
    r = rho[0]
    rest = rho[1:]
    size = len(lam)
    betas = [lam[i] + (size - 1 - i) for i in range(size)]
    bset = set(betas)
    total = 0
    for b in betas:
        nb = b - r
        if nb < 0 or nb in bset:
            continue
        height = sum(1 for x in betas if nb < x < b)
        new_betas = sorted((x for x in betas if x != b), reverse=True)
        new_betas.append(nb)
        new_betas.sort(reverse=True)
        new_lam = tuple(new_betas[j] - (size - 1 - j) for j in range(size))
        total += (-1) ** height * sn_character(new_lam, rest)
    return total


_CACHES.extend((_m_to_p, _jack_family, sn_character))


def sn_dimension(lam) -> int:
    lam = Partition(lam).parts
    return sn_character(lam, (1,) * sum(lam))


def normalized_sn_character(pi, lam) -> Fraction:
    """The alpha = 1 character normalization: (n)_{|pi|} chi/dim."""
    pi = Partition(pi)
    lam = Partition(lam)
    if lam.size < pi.size:
        return Fraction(0)
    rho = tuple(sorted(pi.parts + (1,) * (lam.size - pi.size), reverse=True))
    falling = math.factorial(lam.size) // math.factorial(lam.size - pi.size)
    return Fraction(falling * sn_character(lam.parts, rho),
                    sn_dimension(lam.parts))


# -- closed multirectangular polynomials for Ch_1, Ch_2, Ch_3 ---------------


def stanley_closed_form(n: int, g, p: Sequence, q: Sequence):
    """The closed Ch_n polynomial in (gamma; p_1..p_ell; q_1..q_ell) at a point.

    Uses only +, - and * among the arguments and with integer constants, so
    it evaluates over any commutative ring whose elements support them.
    """
    if n not in (1, 2, 3):
        raise ValueError("closed form available only for n in {1, 2, 3}")
    idx = range(len(p))
    out = g * 0
    if n == 1:
        for i in idx:
            out = out + p[i] * q[i]
        return out
    if n == 2:
        for i in idx:
            out = out + p[i] * q[i] * (q[i] - p[i] + g)
        for i, j in combinations(idx, 2):
            out = out - 2 * (p[i] * p[j] * q[j])
        return out
    for i in idx:
        bracket = (q[i] * q[i] - 3 * (p[i] * q[i]) + p[i] * p[i]
                   + 3 * (g * (q[i] - p[i])) + 2 * (g * g) + 1)
        out = out + p[i] * q[i] * bracket
    for i, j in combinations(idx, 2):
        out = out - 3 * (p[i] * p[j] * q[j]
                         * ((q[i] - p[i] + g) + (q[j] - p[j] + g)))
    for i, j, k in combinations(idx, 3):
        out = out + 6 * (p[i] * p[j] * p[k] * q[k])
    return out


def ch_stanley(n: int, gamma, P: Sequence, Q: Sequence):
    """(full value, top-homogeneous value) of the closed Ch_n polynomial.

    gamma, P and Q are put over one common denominator D, and the closed
    form is evaluated once at their integer numerators (D*gamma, D*P,
    D*Q), where its degree-d part takes the factor D^d.  The top part has
    degree n + 1, and the only part below it is the degree-2 sum of
    p_i * q_i of Ch_3 (Ch_1 and Ch_2 are homogeneous), so the two parts
    are split over the integers and each is divided by its power of D.
    """
    if len(P) != len(Q):
        raise ValueError("P and Q must have the same length")
    gamma = _as_fraction(gamma)
    P = [_as_fraction(x) for x in P]
    Q = [_as_fraction(x) for x in Q]
    d = math.lcm(gamma.denominator, *(x.denominator for x in P),
                 *(x.denominator for x in Q))
    g = gamma.numerator * (d // gamma.denominator)
    p = [x.numerator * (d // x.denominator) for x in P]
    q = [x.numerator * (d // x.denominator) for x in Q]
    value = stanley_closed_form(n, g, p, q)
    low = sum(x * y for x, y in zip(p, q)) if n == 3 else 0
    top = Fraction(value - low, d ** (n + 1))
    return top + Fraction(low, d * d), top


# -- special-value identities (Stanley formulas) ----------------------------


def oriented_face_type_maps(pi):
    """All oriented maps whose faces are one fixed polygon collection.

    With the face permutation w of cycle type pi fixed, these are exactly
    the factorizations sigma2 o sigma1 = w, one map per choice of sigma1.
    """
    from itertools import permutations as iperm

    pi = Partition(pi)
    w = cycle_type_permutation(pi.parts)
    k = pi.size
    for s1 in iperm(range(k)):
        inv1 = [0] * k
        for i, v in enumerate(s1):
            inv1[v] = i
        s2 = tuple(w[inv1[i]] for i in range(k))
        yield OrientedMap(s1, s2)


def stanley_special(pi, lams, alpha, force: bool = False) -> list:
    """(character oracle value, map-sum value) at alpha in {1, 2, 1/2}, for
    each diagram of lams, in order.

    alpha = 1: signed embedding sum over oriented maps with face-type pi.
    alpha = 2 (A = sqrt2) and 1/2 (A = 1/sqrt2): weighted embedding sums
    over non-oriented conservative maps of face-type pi, computed exactly
    in Q[sqrt(2)].  The guards of every diagram run first; then the maps
    of face-type pi are counted by bicolored graph class in one table for
    all of lams, and one graph per class is embedded at each diagram.
    """
    pi = Partition(pi)
    lams = [Partition(lam) for lam in _diagram_list(lams, "stanley_special")]
    alpha = _as_fraction(alpha)
    if pi.size + pi.length > 6 and not force:
        raise JackGuardError(
            f"|pi| + l(pi) exceeds the guard (6); {FORCE_HINT}")
    if any(lam.size > JACK_SIZE_GUARD for lam in lams) and not force:
        raise JackGuardError(f"|lambda| exceeds the guard (6); {FORCE_HINT}")
    if alpha == 1:
        a = base = Fraction(1)
        table = _class_table((bicolored_graph_oriented(om), 1)
                             for om in oriented_face_type_maps(pi))
    else:
        if alpha == 2:
            a = SQRT2
            base = Sqrt2(0, Fraction(-1, 2))  # -1/sqrt2
        elif alpha == Fraction(1, 2):
            a = Sqrt2(0, Fraction(1, 2))  # 1/sqrt2
            base = Sqrt2(0, Fraction(1, 2))
        else:
            raise ValueError("alpha must be one of 1, 2, 1/2")
        table = _class_table((bicolored_graph(m), 1)
                             for m in conservative_maps(pi.parts))
    sign = -1 if pi.length % 2 else 1
    values = []
    for lam in lams:
        oracle = ch(pi.parts, lam, a, force=force)
        mapsum = sign * _class_sums([table], lam, a, base,
                                    pi.size + pi.length)[0]
        if isinstance(oracle, Sqrt2) and not isinstance(mapsum, Sqrt2):
            mapsum = Sqrt2.of(mapsum)
        values.append((oracle, mapsum))
    return values
