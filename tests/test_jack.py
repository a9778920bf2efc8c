import importlib
import math
import random
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, strategies as st

from monmap.algebra import SQRT2, GammaPoly, Sqrt2, gamma_of
from monmap.diagrams import MultiRect, Partition
from monmap.jack import (JackGuardError, _jack_family, _m_to_p, alpha_of, ch,
                         ch_stanley, jack_in_p, jack_inner_product,
                         normalized_sn_character, partitions_of, sn_character,
                         sn_dimension, stanley_closed_form, stanley_special)
from monmap.oriented import z_of
from monmap.verify import _printed_grid

F = Fraction


def conjugate(parts):
    """The conjugate partition: column lengths of the Young diagram."""
    if not parts:
        return ()
    out = [0] * parts[0]
    for p in parts:
        for j in range(p):
            out[j] += 1
    return tuple(out)


def conjugate_order(d):
    """A second linear extension of dominance: by conjugate, decreasing."""
    return sorted(partitions_of(d), key=conjugate, reverse=True)


def dominance_leq(a, b):
    """True iff a is dominated by b (same size)."""
    sa = sb = 0
    for i in range(max(len(a), len(b))):
        sa += a[i] if i < len(a) else 0
        sb += b[i] if i < len(b) else 0
        if sa > sb:
            return False
    return True


def hook_length_dimension(lam):
    """Independent dimension oracle via the hook length formula."""
    lam = tuple(lam)
    conj = conjugate(lam)
    n = sum(lam)
    denom = 1
    for i, row in enumerate(lam):
        for j in range(row):
            denom *= (row - j) + (conj[j] - i) - 1
    return math.factorial(n) // denom


class TestPartitionHelpers:
    def test_partitions_of(self):
        assert len(partitions_of(5)) == 7
        assert len(partitions_of(6)) == 11
        assert partitions_of(0) == ((),)

    def test_dominance(self):
        assert dominance_leq((2, 2), (3, 1))
        assert dominance_leq((1, 1, 1), (3,))
        assert not dominance_leq((3, 1, 1, 1), (2, 2, 2))
        assert not dominance_leq((2, 2, 2), (3, 1, 1, 1))

    def test_conjugate(self):
        assert conjugate((3, 1)) == (2, 1, 1)
        assert conjugate(()) == ()


class TestMonomialToPowerSums:
    @pytest.mark.parametrize("d", range(1, 7))
    def test_expansion_evaluates_to_the_monomial(self, d):
        x = [F(i + 2, 2 * i + 3) for i in range(d)]  # d distinct rationals
        for lam, expansion in _m_to_p(d).items():
            padded = lam + (0,) * (d - len(lam))
            monomial = sum(math.prod(xi ** e for xi, e in zip(x, exps))
                           for exps in set(permutations(padded)))
            value = sum(c * math.prod(sum(xi ** part for xi in x)
                                      for part in mu)
                        for mu, c in expansion.items())
            assert value == monomial
            assert all(dominance_leq(lam, mu) for mu in expansion)


def per_term_gram_schmidt(d, alpha, order=None):
    """The Jack theta tables of degree d by Gram-Schmidt over Fraction along
    ``order`` (default: the lexicographic order), with each <p_mu, p_mu> =
    z_mu alpha^l(mu) computed afresh in every term of every inner product."""
    def inner(f, g):
        return sum((c * g[mu] * z_of(mu) * alpha ** len(mu)
                    for mu, c in f.items() if g.get(mu)), F(0))

    basis, norms = {}, {}
    for lam in order or sorted(partitions_of(d)):
        v = dict(_m_to_p(d)[lam])
        for kappa, b in basis.items():
            c = inner(v, b) / norms[kappa]
            for mu, x in b.items():
                v[mu] = v.get(mu, F(0)) - c * x
        v = {mu: c for mu, c in v.items() if c}
        basis[lam], norms[lam] = v, inner(v, v)
    ones = (1,) * d
    return {lam: {mu: c / v[ones] for mu, c in v.items()}
            for lam, v in basis.items()}


def jack_oracle_points():
    """The (n, multirectangular point) pairs that ``jack-oracle`` checks."""
    for a in (F(1), F(2), F(1, 2), F(3)):
        for d in range(1, 7):
            for lam in partitions_of(d):
                pp, qq = Partition(lam).prime_coordinates()
                mr = MultiRect.from_primes(pp, qq, a)
                for n in (1, 2, 3):
                    yield n, mr


class TestJackInP:
    def test_degree_one(self):
        assert jack_in_p((1,), F(1)) == {(1,): 1}

    def test_degree_two_closed_forms(self):
        for alpha in (F(1), F(2), F(5, 3)):
            assert jack_in_p((2,), alpha) == {(1, 1): 1, (2,): alpha}
            assert jack_in_p((1, 1), alpha) == {(1, 1): 1, (2,): -1}

    def test_normalization_law(self):
        for d in range(1, 6):
            for lam in partitions_of(d):
                theta = jack_in_p(lam, F(2))
                assert theta[(1,) * d] == 1

    def test_orthogonality(self):
        for alpha in (F(1, 2), F(3)):
            for d in (3, 4):
                fam = {lam: jack_in_p(lam, alpha) for lam in partitions_of(d)}
                for l1 in fam:
                    for l2 in fam:
                        ip = jack_inner_product(fam[l1], fam[l2], alpha)
                        assert (ip == 0) == (l1 != l2)

    def test_alpha_one_matches_character_ratios(self):
        # theta_rho(lam) at alpha=1 equals n! chi(rho) / (z_rho dim)
        for lam in ((2,), (1, 1), (2, 1), (3, 1)):
            n = sum(lam)
            theta = jack_in_p(lam, F(1))
            dim = sn_dimension(lam)
            from monmap.jack import z_of
            for rho in partitions_of(n):
                expected = F(math.factorial(n) * sn_character(lam, rho),
                             z_of(rho) * dim)
                assert theta.get(rho, F(0)) == expected

    def test_extension_independence_at_degree_six(self):
        alpha = F(3, 2)
        assert (_jack_family(6, alpha)
                == per_term_gram_schmidt(6, alpha, conjugate_order(6)))

    @pytest.mark.parametrize("alpha", [F(1, 2), F(1), F(2), F(3), F(4),
                                       F(1, 4), F(9)], ids=str)
    def test_family_matches_per_term_gram_schmidt(self, alpha):
        for d in range(1, 7):
            assert (_jack_family(d, alpha)
                    == per_term_gram_schmidt(d, alpha))

    @pytest.mark.parametrize("alpha", [F(2, 3), F(5, 3), F(1, 9)], ids=str)
    def test_family_matches_per_term_gram_schmidt_with_denominators(
            self, alpha):
        for d in range(1, 7):
            assert (_jack_family(d, alpha)
                    == per_term_gram_schmidt(d, alpha))

    @pytest.mark.parametrize("alpha", [F(1, 2), F(1), F(3), F(2, 3),
                                       F(5, 3), F(1, 9)], ids=str)
    def test_second_extension_matches_per_term_gram_schmidt(self, alpha):
        # the reference runs along the conjugate order, the family along
        # the lexicographic one
        for d in range(1, 7):
            assert (_jack_family(d, alpha)
                    == per_term_gram_schmidt(d, alpha, conjugate_order(d)))

    @pytest.mark.parametrize("alpha", [F(1, 2), F(2, 3), F(7, 4)], ids=str)
    def test_degree_seven_matches_per_term_gram_schmidt(self, alpha):
        assert _jack_family(7, alpha) == per_term_gram_schmidt(7, alpha)

    def test_guard(self):
        with pytest.raises(JackGuardError):
            jack_in_p((7,), F(1))
        with pytest.raises(JackGuardError):
            jack_in_p((2,), F(-1))

    @pytest.mark.parametrize("alpha", [F(0), F(-2), -1], ids=str)
    def test_inner_product_needs_positive_alpha(self, alpha):
        with pytest.raises(JackGuardError, match="alpha must be positive"):
            jack_inner_product({(1,): F(1)}, {(1,): F(1)}, alpha)

    def test_inner_product_weighs_shared_keys(self):
        f = {(2,): F(1), (1, 1): F(3)}
        g = {(1, 1): F(1, 2), (3,): F(5)}
        # only (1, 1) is shared: z = 2, alpha^2 = 9
        assert jack_inner_product(f, g, F(3)) == F(3, 2) * 2 * 9
        assert jack_inner_product(f, {}, F(3)) == 0


class TestCh:
    def test_zero_below_support(self):
        assert ch((3,), (2,), F(1)) == 0

    @pytest.mark.parametrize("pi", [(3,), (1,)],
                             ids=["below-support", "in-support"])
    def test_scale_zero_refused(self, pi):
        # A = 0 is refused before the zero below the support is returned
        with pytest.raises(JackGuardError, match="alpha must be positive"):
            ch(pi, (2,), F(0))

    def test_ch1_is_size(self):
        for lam in ((1,), (3,), (2, 2), (3, 2, 1)):
            for a in (F(1), F(2), F(1, 2)):
                assert ch((1,), lam, a) == sum(lam)

    def test_reference_point(self):
        assert ch((2,), (2, 2), F(2)) == 6

    def test_matches_symmetric_group_characters(self):
        # exhaustive over |lambda| <= 5 against the Murnaghan-Nakayama oracle
        for d in range(1, 6):
            for lam in partitions_of(d):
                for k in range(1, d + 1):
                    for pi in partitions_of(k):
                        assert ch(pi, lam, F(1)) \
                            == normalized_sn_character(pi, lam)

    def test_negative_branch_sign(self):
        plus = ch((2,), (2, 2), F(1))
        minus = ch((2,), (2, 2), F(-1))
        # the prefactor A^{l(pi)-|pi|} flips sign with the branch when
        # |pi| - l(pi) is odd
        assert minus == -plus

    def test_sqrt2_parameter(self):
        v = ch((2,), (2, 2), SQRT2)
        assert isinstance(v, Sqrt2)
        assert v == Sqrt2(0, 2)

    def test_equals_scaled_theta_on_the_jack_oracle_grid(self):
        # Ch_pi(lam) = A^(l(pi)-|pi|) binom(|lam|-|pi|+m_1, m_1) z_pi
        # theta_rho(lam), rho = pi u 1^(|lam|-|pi|), read through jack_in_p
        points = 0
        for a in (F(1), F(2), F(1, 2), F(3)):
            for d in range(1, 7):
                for lam in partitions_of(d):
                    for n in (1, 2, 3):
                        pi = (n,)
                        points += 1
                        if d < n:
                            assert ch(pi, lam, a) == 0
                            continue
                        rho = tuple(sorted(pi + (1,) * (d - n),
                                           reverse=True))
                        m1 = pi.count(1)
                        expected = (a ** (len(pi) - n)
                                    * math.comb(d - n + m1, m1) * z_of(pi)
                                    * jack_in_p(lam, a * a)[rho])
                        assert ch(pi, lam, a) == expected
        assert points == 348

    def test_shares_the_family_with_jack_in_p(self):
        a = F(13, 7)  # alpha = 169/49 is used by no other test
        misses = _jack_family.cache_info().misses
        jack_in_p((3, 1), a * a)
        ch((2,), (2, 1, 1), a)
        ch((2,), (2, 2), -a)
        assert _jack_family.cache_info().misses == misses + 1

    def test_guard_names_force(self):
        with pytest.raises(JackGuardError,
                           match=r"^\|lambda\| = 7 exceeds the guard \(6\); "
                                 r"pass force=True to override$"):
            ch((1,), (4, 3), F(1))
        assert ch((1,), (4, 3), F(1), force=True) == 7
        # below the support the guard is not reached
        assert ch((8,), (4, 3), F(1)) == 0


class TestMurnaghanNakayama:
    def test_s3_table(self):
        assert sn_character((3,), (1, 1, 1)) == 1
        assert sn_character((2, 1), (1, 1, 1)) == 2
        assert sn_character((2, 1), (2, 1)) == 0
        assert sn_character((2, 1), (3,)) == -1
        assert sn_character((1, 1, 1), (2, 1)) == -1

    def test_dimension_matches_hook_formula(self):
        for lam in ((3, 1), (2, 2), (3, 2, 1), (4, 2), (2, 2, 1, 1)):
            assert sn_dimension(lam) == hook_length_dimension(lam)

    def test_column_swap_sign(self):
        # conjugate representation differs by the sign character
        n = 4
        for rho in partitions_of(n):
            sign = (-1) ** (n - len(rho))
            assert sn_character((2, 2), rho) \
                == sign * sn_character(conjugate((2, 2)), rho)


class TestStanleyPolynomials:
    def test_ch1(self):
        full, top = ch_stanley(1, F(0), (F(2), F(1)), (F(3), F(1)))
        assert full == top == 7

    def test_ch2_reference_point(self):
        full, top = ch_stanley(2, F(-3, 2), (F(1),), (F(4),))
        assert full == top == 6

    def test_ch3_top_drops_only_constant_bracket_term(self):
        for q in (F(1), F(3), F(7)):
            full, top = ch_stanley(3, F(0), (F(1),), (q,))
            assert full - top == q  # the p*q * 1 term

    def test_pinned_values(self):
        # values of the expanded polynomials; the first point has three
        # rectangles, so it reaches the i < j < k term of Ch_3
        assert ch_stanley(3, F(1, 2), (1, 2, 3), (5, 3, 1)) == (-20, -34)
        assert ch_stanley(2, F(-3, 2), (1, 2), (4, 1)) == (-3, -3)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_empty_diagram(self, n):
        assert ch_stanley(n, F(5, 7), (), ()) == (0, 0)

    @given(st.sampled_from([1, 2, 3]), st.fractions(max_denominator=9),
           st.fractions(max_denominator=9),
           st.lists(st.tuples(st.fractions(max_denominator=9),
                              st.fractions(max_denominator=9)), max_size=3))
    def test_top_part_is_homogeneous(self, n, c, gamma, pq):
        P = [p for p, _ in pq]
        Q = [q for _, q in pq]
        _, top = ch_stanley(n, gamma, P, Q)
        _, scaled = ch_stanley(n, c * gamma, [c * p for p in P],
                               [c * q for q in Q])
        assert scaled == c ** (n + 1) * top

    def test_poly_degrees(self):
        # graded evaluation at a generic point: t * (gamma, P, Q) in Q[t]
        def graded(x):
            return GammaPoly((0, F(x)))

        g = graded(F(1, 3))
        p = [graded(2), graded(F(-5, 2))]
        q = [graded(7), graded(F(3, 4))]
        for n in (1, 2, 3):
            assert stanley_closed_form(n, g, p, q).degree == n + 1

    def test_only_first_three_characters(self):
        with pytest.raises(ValueError):
            ch_stanley(4, F(0), (F(1),), (F(1),))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            ch_stanley(2, F(0), (F(1),), (F(1), F(2)))

    def test_closed_form_is_the_full_value(self):
        # jack-oracle reads the closed form at its points directly
        points = list(jack_oracle_points())
        assert len(points) == 348
        for n, mr in points:
            assert (stanley_closed_form(n, mr.gamma, mr.P, mr.Q)
                    == ch_stanley(n, mr.gamma, mr.P, mr.Q)[0])

    def test_ch_matches_closed_form_on_diagrams(self):
        for a in (F(1), F(2)):
            for d in range(1, 6):
                for lam in partitions_of(d):
                    pp, qq = Partition(lam).prime_coordinates()
                    mr = MultiRect.from_primes(pp, qq, a)
                    for n in (1, 2, 3):
                        full, _ = ch_stanley(n, mr.gamma, mr.P, mr.Q)
                        assert ch((n,), lam, a) == full


def graded_ch_stanley(n, gamma, P, Q):
    """ch_stanley through Q[t]: the closed form at t * (gamma, P, Q), with
    GammaPoly as Q[t], is sum_d t^d f_d(gamma, P, Q); the full value is
    the sum of its coefficients and the top part coefficient n + 1."""
    t = GammaPoly((0, 1))
    value = stanley_closed_form(n, t * gamma, [t * x for x in P],
                                [t * x for x in Q])
    return sum(value.coeffs, F(0)), value.coefficient(n + 1)


def random_rational(rng):
    return F(rng.randint(-30, 30), rng.randint(1, 12))


class TestIntegerEvaluation:
    """ch_stanley over the integers against the graded evaluation in Q[t]."""

    @staticmethod
    def check(n, gamma, P, Q):
        got = ch_stanley(n, gamma, P, Q)
        assert got == graded_ch_stanley(n, gamma, P, Q)
        assert all(type(x) is F for x in got)

    def test_grid_points(self):
        points = [(n, MultiRect.from_primes(*pt))
                  for pt in _printed_grid() for n in (1, 2, 3)]
        points += jack_oracle_points()
        assert len(points) == 3 * 36 + 348
        for n, mr in points:
            self.check(n, mr.gamma, mr.P, mr.Q)

    def test_random_rational_points(self):
        rng = random.Random(0)
        lengths = set()
        for _ in range(3000):
            n, ell = rng.choice((1, 2, 3)), rng.randint(0, 4)
            lengths.add(ell)
            P = [random_rational(rng) for _ in range(ell)]
            Q = [random_rational(rng) for _ in range(ell)]
            self.check(n, random_rational(rng), P, Q)
        assert lengths == {0, 1, 2, 3, 4}

    def test_integer_arguments(self):
        self.check(3, 2, (1, 2, 3), (5, 3, 1))
        self.check(2, F(-3, 2), (1, 2), (F(4, 7), 1))


class TestStanleySpecial:
    def test_single_part_single_map(self):
        for alpha in (F(1), F(2), F(1, 2)):
            oracle, mapsum = stanley_special((1,), (2, 1), alpha)
            assert oracle == mapsum == 3

    def test_alpha_one_pairs(self):
        for pi in ((2,), (2, 1), (3,)):
            for lam in ((2, 1), (2, 2), (3, 1, 1)):
                oracle, mapsum = stanley_special(pi, lam, F(1))
                assert oracle == mapsum

    def test_sqrt2_cases(self):
        for alpha in (F(2), F(1, 2)):
            for pi in ((1,), (2,)):
                for lam in ((2,), (2, 2), (3, 1)):
                    oracle, mapsum = stanley_special(pi, lam, alpha)
                    assert oracle == mapsum
                    assert isinstance(oracle, Sqrt2)

    def test_values_share_one_class_table(self, monkeypatch):
        # one table per (alpha, pi), the values those of stanley_special
        jack = importlib.import_module("monmap.jack")
        lams = [(1,), (2,), (2, 1), (3, 1), (2, 2, 1)]
        for alpha in (F(1), F(2), F(1, 2)):
            for pi in ((1,), (2,)):
                expected = [stanley_special(pi, lam, alpha) for lam in lams]
                builds = []
                real = jack._class_table
                monkeypatch.setattr(jack, "_class_table", lambda pairs: (
                    builds.append(1) or real(pairs)))
                assert jack._stanley_values(pi, lams, alpha) == expected
                assert builds == [1]
                monkeypatch.undo()
        with pytest.raises(JackGuardError, match="force=True"):
            jack._stanley_values((1,), [(2,), (7,)], 1)

    @pytest.mark.parametrize("pi,lam", [((3, 1, 1), (2,)), ((1,), (7,))])
    def test_guards_name_force(self, pi, lam):
        with pytest.raises(JackGuardError, match="force=True"):
            stanley_special(pi, lam, 1)

    def test_unknown_alpha_rejected(self):
        with pytest.raises(ValueError):
            stanley_special((1,), (1,), F(3))


class TestFloatsRejected:
    @pytest.mark.parametrize("call", [
        lambda: ch_stanley(1, 0, [0.1], [1]),
        lambda: ch_stanley(1, 0.5, [1], [1]),
        lambda: jack_in_p((2,), 0.1),
        lambda: jack_inner_product({(1,): F(1)}, {(1,): F(1)}, 0.5),
        lambda: ch((2,), (2, 2), 0.5),
        lambda: ch((3,), (2,), 0.5),
        lambda: alpha_of(0.5),
        lambda: MultiRect([0.5], [2], 2),
        lambda: MultiRect.from_primes([1], [2], 0.5),
        lambda: gamma_of(0.5),
        lambda: stanley_special((1,), (2, 1), 2.0),
    ], ids=["ch_stanley-P", "ch_stanley-gamma", "jack_in_p",
            "jack_inner_product", "JackParams", "JackParams-A",
            "JackParams.from_A", "MultiRect", "MultiRect.from_primes",
            "gamma_of", "stanley_special"])
    def test_float_scalar_raises(self, call):
        with pytest.raises(TypeError, match="exact rational"):
            call()
