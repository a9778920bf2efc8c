from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from monmap.algebra import GAMMA, ONE, SQRT2, ZERO, GammaPoly, Sqrt2, gamma_of
from monmap.diagrams import MultiRect
from monmap.jack import jack_in_p

F = Fraction


class TestGammaPoly:
    def test_mon_klein_shape(self):
        p = GammaPoly((F(1, 6), 0, F(2, 3)))
        assert p.degree == 2
        assert p.coefficient(p.degree) == F(2, 3)
        assert p.coefficient(0) == F(1, 6)
        assert p.coefficient(1) == 0
        assert p.coefficient(7) == 0

    def test_zero_is_neutral(self):
        p = GammaPoly((F(1, 2), 3))
        assert ZERO + p == p
        assert p + ZERO == p
        assert ZERO * p == ZERO
        assert ZERO.degree == float("-inf")
        assert ZERO.coeffs == ()

    def test_trailing_zeros_trimmed(self):
        assert GammaPoly((1, 0, 0)) == GammaPoly((1,))
        assert GammaPoly((0, 0)) == ZERO

    @pytest.mark.parametrize("poly, scalar", [
        (GammaPoly.const(5), 5), (GammaPoly.const(F(2, 3)), F(2, 3)),
        (ZERO, 0)], ids=["5", "2/3", "zero"])
    def test_constant_hashes_as_its_scalar(self, poly, scalar):
        # equal values hash equally, so a set holds them once
        assert poly == scalar
        assert len({poly, scalar}) == 1

    def test_arithmetic(self):
        p = (ONE + GAMMA) * (ONE + GAMMA)
        assert p == GammaPoly((1, 2, 1))
        assert p - GammaPoly((1, 2, 1)) == ZERO
        assert p.scale(F(1, 2)) == GammaPoly((F(1, 2), 1, F(1, 2)))
        assert 2 * GAMMA == GammaPoly((0, 2))

    def test_evaluate(self):
        p = GammaPoly((F(1, 6), 0, F(2, 3)))
        assert p.evaluate(F(-3, 2)) == F(1, 6) + F(2, 3) * F(9, 4)
        v = p.evaluate(Sqrt2(0, 1))
        assert v == Sqrt2(F(1, 6) + F(4, 3), 0)

    @given(st.lists(st.fractions(), max_size=5),
           st.lists(st.fractions(), max_size=5), st.fractions())
    def test_evaluate_is_ring_morphism(self, a, b, x):
        p, q = GammaPoly(a), GammaPoly(b)
        assert (p + q).evaluate(x) == p.evaluate(x) + q.evaluate(x)
        assert (p * q).evaluate(x) == p.evaluate(x) * q.evaluate(x)


class TestSqrt2:
    def test_basic_arithmetic(self):
        a = Sqrt2(1, 1)
        assert a * a == Sqrt2(3, 2)
        assert a - a == Sqrt2(0, 0)
        assert SQRT2 * SQRT2 == 2
        assert (a / a) == 1

    def test_inverse_and_pow(self):
        inv_sqrt2 = 1 / SQRT2
        assert inv_sqrt2 == Sqrt2(0, F(1, 2))
        assert SQRT2 ** -2 == Sqrt2(F(1, 2), 0)
        assert SQRT2 ** 3 == Sqrt2(0, 2)
        with pytest.raises(ZeroDivisionError):
            Sqrt2(0, 0).inverse()

    def test_irrational_guard(self):
        with pytest.raises(ValueError):
            SQRT2.to_fraction()
        assert Sqrt2(F(5, 3), 0).to_fraction() == F(5, 3)

    @given(st.fractions(), st.fractions(), st.fractions(), st.fractions())
    def test_field_axioms(self, a, b, c, d):
        x, y = Sqrt2(a, b), Sqrt2(c, d)
        assert x * y == y * x
        assert x + y == y + x
        if y:
            assert (x / y) * y == x


def pair_mul(x, y):
    (a, b), (c, d) = x, y
    return a * c + 2 * b * d, a * d + b * c


def pair_inverse(x):
    a, b = x
    norm = a * a - 2 * b * b
    return a / norm, -b / norm


def pair_pow(x, k):
    base = x if k >= 0 else pair_inverse(x)
    out = (F(1), F(0))
    for _ in range(abs(k)):
        out = pair_mul(out, base)
    return out


def as_pair(x):
    assert isinstance(x, Sqrt2)
    return x.a, x.b


small_fractions = st.fractions(min_value=-20, max_value=20,
                               max_denominator=30)


class TestSqrt2Operators:
    """Each operator of Q[sqrt2] against (a, b) pairs of Fractions, with
    rational and int operands on either side."""

    @given(small_fractions, small_fractions, small_fractions,
           small_fractions, small_fractions, st.integers(-20, 20),
           st.integers(-4, 4))
    def test_match_the_pair_reference(self, a, b, c, d, r, i, k):
        x, y = Sqrt2(a, b), Sqrt2(c, d)
        assert as_pair(-x) == (-a, -b)
        assert as_pair(x - y) == (a - c, b - d)
        for s in (r, i):
            assert as_pair(x - s) == (a - s, b)
            assert as_pair(s - x) == (s - a, -b)  # __rsub__
            if s:
                assert as_pair(x / s) == (a / s, b / s)
        if y:
            assert as_pair(x / y) == pair_mul((a, b), pair_inverse((c, d)))
        if x:
            assert as_pair(x.inverse()) == pair_inverse((a, b))
            for s in (r, i):  # __rtruediv__
                assert as_pair(s / x) == pair_mul((s, 0), pair_inverse((a, b)))
            assert as_pair(x ** k) == pair_pow((a, b), k)
        elif k < 0:
            with pytest.raises(ZeroDivisionError):
                x ** k
        else:
            assert as_pair(x ** k) == ((F(1), F(0)) if k == 0 else (0, 0))


class TestGammaOf:
    def test_values(self):
        assert gamma_of(F(1)) == 0
        assert gamma_of(F(2)) == F(-3, 2)
        assert gamma_of(F(1, 2)) == F(3, 2)

    def test_antisymmetry(self):
        for a in (F(2), F(3), F(5, 7)):
            assert gamma_of(1 / a) == -gamma_of(a)

    def test_zero_rejected(self):
        with pytest.raises(ZeroDivisionError):
            gamma_of(F(0))

    def test_sqrt2_points(self):
        assert gamma_of(SQRT2) == Sqrt2(0, F(-1, 2))
        assert gamma_of(Sqrt2(0, F(1, 2))) == Sqrt2(0, F(1, 2))


class TestBoolRejected:
    """A bool is refused wherever a float is, as every exact input check
    does; comparing a value with a bool still answers."""

    @pytest.mark.parametrize("call", [
        lambda: MultiRect((True,), (1,), 1),
        lambda: GammaPoly((True,)),
        lambda: jack_in_p((2,), True),
        lambda: Sqrt2(0, False),
        lambda: gamma_of(True),
    ], ids=["MultiRect", "GammaPoly", "jack_in_p", "Sqrt2", "gamma_of"])
    def test_bool_scalar_raises(self, call):
        with pytest.raises(TypeError, match="exact rational, got bool"):
            call()

    def test_equality_with_bool(self):
        assert Sqrt2(1) == True  # noqa: E712
        assert Sqrt2(0) == False  # noqa: E712
        assert SQRT2 != True  # noqa: E712
        assert ONE == True  # noqa: E712
        assert ZERO == False  # noqa: E712
        assert GAMMA != True  # noqa: E712
