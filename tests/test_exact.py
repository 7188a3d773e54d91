"""Quadratic surd arithmetic."""

import math
import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eccspec.exact import Surd, _split_square, quadratic_roots, simplify_value
from helpers import compare_surds_by_bracketing, split_square_by_trial_division, surd_bracket


def test_normalisation_pulls_out_square_factors():
    assert Surd(0, 1, 8) == Surd(0, 2, 2)
    assert Surd(0, 1, 12) == Surd(0, 2, 3)


@settings(max_examples=200)
@given(st.integers(min_value=0, max_value=10**10))
def test_square_part_matches_trial_division(r):
    assert _split_square(r) == split_square_by_trial_division(r)


@given(st.integers(min_value=2, max_value=3000), st.integers(min_value=1, max_value=3000))
def test_square_part_of_a_square_times_a_cofactor(a, b):
    # a large square factor a*a is what the cube-root cut-off leaves to isqrt
    assert _split_square(a * a * b) == split_square_by_trial_division(a * a * b)


@pytest.mark.parametrize("p, q", [(999983, 2), (1000003, 6), (999979, 3 * 5 * 7)])
def test_square_of_a_prime_near_a_million(p, q):
    assert _split_square(p * p * q) == (p, q)
    assert _split_square(q * p) == (1, q * p)


def test_perfect_square_radicand_collapses_to_rational():
    assert Surd(1, 2, 4) == 5
    assert Surd(3, 7, 0) == 3
    assert Surd(2, 1, 1) == 3
    assert Surd(5).is_rational


def test_arithmetic_in_one_field():
    x = Surd(1, 1, 5)   # 1 + sqrt(5)
    y = Surd(1, -1, 5)  # 1 - sqrt(5)
    assert x + y == 2
    assert x * y == -4  # 1 - 5
    assert x - y == Surd(0, 2, 5)
    assert 3 * x == Surd(3, 3, 5)
    assert -x == Surd(-1, -1, 5)


def test_mixed_radicands_refuse_to_combine():
    with pytest.raises(ArithmeticError):
        Surd(0, 1, 2) + Surd(0, 1, 3)
    with pytest.raises(ArithmeticError):
        Surd(0, 1, 2) * Surd(0, 1, 3)


def test_sign_and_abs():
    assert Surd(2, -1, 7).sign() < 0          # 2 - sqrt(7) < 0
    assert Surd(3, -1, 7).sign() > 0          # 3 - sqrt(7) > 0
    assert abs(Surd(2, -1, 7)) == Surd(-2, 1, 7)
    assert Surd(0).sign() == 0


def test_comparisons():
    assert Surd(0, 1, 2) < Surd(0, 1, 3)
    assert Surd(2, 1, 7) > 4
    assert Surd(2, 1, 7) < 5
    assert Surd(1, 0, 0) <= 1
    assert float(Surd(2, 1, 7)) == pytest.approx(2 + math.sqrt(7))


ORDERED_PAIRS = [
    (Surd(2, 1, 7), 4),                      # int, Surd above
    (Surd(3), 3),                            # int, equal
    (Surd(2, -1, 7), -1),                    # int, Surd below
    (Surd(0, 1, 2), Fraction(7, 5)),         # Fraction
    (Surd(Fraction(1, 2)), Fraction(1, 2)),  # Fraction, equal
    (Surd(1, 1, 5), Surd(1, -1, 5)),         # same radicand
    (Surd(1, 1, 5), Surd(1, 1, 5)),          # same radicand, equal
    (Surd(0, 1, 2), Surd(0, 1, 3)),          # different radicands
    (Surd(3, -1, 7), Surd(0, 1, 2)),         # different radicands
    (Surd(0, 1, 2), 1.5),                    # float
    (Surd(3), 3.0),                          # float, equal
    (Surd(1), float("nan")),                 # nan: every comparison is False
]


@pytest.mark.parametrize("op", [operator.eq, operator.lt, operator.le, operator.gt, operator.ge])
@pytest.mark.parametrize("left, right", ORDERED_PAIRS)
def test_ordering_agrees_with_float_values(left, right, op):
    assert op(left, right) is op(float(left), float(right))
    assert op(right, left) is op(float(right), float(left))


COEFFS = st.fractions(min_value=-20, max_value=20, max_denominator=12)


@st.composite
def surds_over_one_radicand(draw):
    # three surds in one field Q(sqrt(r)); a square r collapses them to Q
    r = draw(st.integers(min_value=0, max_value=50))
    return [Surd(draw(COEFFS), draw(COEFFS), r) for _ in range(3)]


@given(surds_over_one_radicand())
def test_field_laws_in_one_radicand(xyz):
    x, y, z = xyz
    assert x + y == y + x and x * y == y * x
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x - x == 0
    assert (x * y).sign() == x.sign() * y.sign()


@given(surds_over_one_radicand())
def test_exact_order_agrees_with_well_separated_floats(xyz):
    x, y, _ = xyz
    fx, fy = float(x), float(y)
    if x == y:
        assert fx == fy
    if abs(fx - fy) > 1e-9 * max(abs(fx), abs(fy)):
        assert (x < y) is (fx < fy)
        assert (x == y) is False


def test_surds_over_two_close_radicands_compare_exactly():
    # sqrt(n^2 + 1) - (sqrt(n^2 + 2) - 1/(2n)) = 3/(8n^3) = 3.75e-19, far
    # below the spacing of floats near 10**6
    n = 10**6
    x, y = Surd(0, 1, n * n + 1), Surd(Fraction(-1, 2 * n), 1, n * n + 2)
    assert float(x) == float(y)
    assert x > y and x >= y and y < x and y <= x
    assert x != y and not x == y


RADICANDS = st.one_of(st.integers(0, 60), st.integers(1, 10**6).map(lambda n: n * n + 1))


@st.composite
def surd_pairs(draw):
    # x over one radicand, y over another (or the same): drawn freely, equal
    # to x but spelled with a square factor, or with its rational part
    # rounded from x - b*sqrt(s), so that x and y agree to many digits
    x = Surd(draw(COEFFS), draw(COEFFS), draw(RADICANDS))
    kind = draw(st.sampled_from(["free", "equal", "near"]))
    if kind == "equal":
        k = draw(st.integers(1, 5))
        return x, Surd(x.a, x.b / k, x.r * k * k)
    b, s = draw(COEFFS), draw(RADICANDS)
    if kind == "near":
        digits = draw(st.integers(3, 15))
        a = Fraction(float(x) - float(b) * math.sqrt(s)).limit_denominator(10**digits)
    else:
        a = draw(COEFFS)
    return x, Surd(a, b, s)


@settings(max_examples=300)
@given(surd_pairs())
def test_order_across_radicands_agrees_with_the_bracketing_oracle(xy):
    x, y = xy
    want = compare_surds_by_bracketing(x, y)
    assert (x < y, x == y, x > y) == (want < 0, want == 0, want > 0)
    assert (y < x, y == x, y > x) == (want > 0, want == 0, want < 0)
    assert (x <= y, x >= y, x != y) == (want <= 0, want >= 0, want != 0)
    for z in xy:
        assert z.sign() == compare_surds_by_bracketing(z, Surd(0))
    if x == y:
        assert hash(x) == hash(y)


def test_a_surd_compares_exactly_with_the_float_nearest_it():
    # the double nearest sqrt(2) is 1.41421356237309514..., just above it
    x, f = Surd(0, 1, 2), math.sqrt(2)
    assert x != f and not x == f
    assert x < f and f > x and not x > f
    half = Surd(Fraction(1, 2))
    assert half == 0.5 and hash(half) == hash(0.5)


FINITE_FLOATS = st.floats(allow_nan=False, allow_infinity=False)
DYADICS = st.builds(lambda k, e: k / 2**e, st.integers(-10**6, 10**6), st.integers(0, 30))


@settings(max_examples=300)
@given(surd_pairs(), st.lists(st.one_of(FINITE_FLOATS, DYADICS), max_size=3))
def test_order_against_floats_agrees_with_the_bracketing_oracle(xy, drawn):
    for x in xy:
        for f in [float(x), float(x.a), *drawn]:
            want = compare_surds_by_bracketing(x, Surd(Fraction(f)))
            assert (x < f, x == f, x > f) == (want < 0, want == 0, want > 0)
            assert (f > x, f == x, f < x) == (want < 0, want == 0, want > 0)
            if x == f:
                assert hash(x) == hash(f)
        for f in [math.inf, -math.inf, math.nan]:
            for op in (operator.eq, operator.ne, operator.lt, operator.le, operator.gt, operator.ge):
                assert op(x, f) is op(0.0, f) and op(f, x) is op(f, 0.0)


@pytest.mark.parametrize("singles", [10**3, 10**4, 10**5])
def test_float_of_a_cancelling_surd_is_within_two_ulp(singles):
    # the small root of K_{2,1,...,1}'s quotient, (s + 1 - sqrt((s+1)^2 + 8)) / 2,
    # sums two terms of opposite sign that agree to about 2 log10(s) digits
    x = Surd(Fraction(singles + 1, 2), Fraction(-1, 2), (singles + 1) ** 2 + 8)
    lo, hi = surd_bracket(x, 200)
    value = float(x)
    assert lo - 2 * Fraction(math.ulp(value)) <= Fraction(value) <= hi + 2 * Fraction(math.ulp(value))


def test_quadratic_roots_irrational():
    hi, lo = quadratic_roots(3, -2)
    assert hi == Surd(Fraction(3, 2), Fraction(1, 2), 17)
    assert hi + lo == 3
    assert hi * lo == -2
    assert float(hi) == pytest.approx((3 + math.sqrt(17)) / 2)


def test_quadratic_roots_rational():
    hi, lo = quadratic_roots(5, 6)
    assert hi == 3 and lo == 2
    hi, lo = quadratic_roots(4, 4)
    assert hi == lo == 2


def test_quadratic_roots_negative_discriminant():
    with pytest.raises(ValueError):
        quadratic_roots(1, 1)


def _fields(roots):
    return [(x.a, x.b, x.r, type(x.a), type(x.b), type(x.r)) for x in roots]


@given(st.integers(-400, 400), st.integers(-40000, 40000))
def test_quadratic_roots_take_one_path_for_int_and_fraction_input(b, c):
    if b * b < 4 * c:
        for args in ((b, c), (Fraction(b), Fraction(c))):
            with pytest.raises(ValueError):
                quadratic_roots(*args)
        return
    roots = quadratic_roots(b, c)
    assert _fields(roots) == _fields(quadratic_roots(Fraction(b), Fraction(c)))
    hi, lo = roots
    assert hi + lo == b and hi * lo == c and hi >= lo


@given(st.fractions(-50, 50, max_denominator=12), st.fractions(-50, 50, max_denominator=12))
def test_quadratic_roots_of_fractions_are_the_roots(b, c):
    if b * b < 4 * c:
        with pytest.raises(ValueError):
            quadratic_roots(b, c)
        return
    hi, lo = quadratic_roots(b, c)
    assert hi + lo == b and hi * lo == c and hi >= lo
    # the normal form: a rational root has b == r == 0, an irrational one a
    # squarefree radicand
    for root in (hi, lo):
        assert (root.b == 0) == (root.r == 0)
        assert root.r == 0 or split_square_by_trial_division(root.r) == (1, root.r) != (1, 1)


def test_simplify_value():
    assert simplify_value(Surd(3)) == 3
    assert isinstance(simplify_value(Surd(3)), int)
    assert simplify_value(Surd(Fraction(1, 2))) == Fraction(1, 2)
    surd = Surd(1, 1, 5)
    assert simplify_value(surd) is surd
    assert simplify_value(2.5) == 2.5


def test_str_reads_like_the_number():
    assert str(Surd(2, -1, 7)) == "2 - sqrt(7)"
    assert str(Surd(0, 1, 2)) == "sqrt(2)"
    assert str(Surd(0, -3, 2)) == "-3*sqrt(2)"
    assert str(Surd(6, 2, 5)) == "6 + 2*sqrt(5)"
    assert str(Surd(Fraction(5, 2), Fraction(-1, 2), 57)) == "5/2 - 1/2*sqrt(57)"
    assert str(Surd(-4)) == "-4"
