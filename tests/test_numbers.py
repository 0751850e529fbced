"""Exact arithmetic in real algebraic number fields."""

import contextlib
import importlib
import io
import math
import operator
import random
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from steinv import classify, modules, numbers
from steinv.cli import main
from steinv import (
    BoundExceeded,
    BreakpointModule,
    IntMatrix,
    DivisionByZero,
    FieldMismatch,
    MinimalPolynomial,
    MultipleRootsInInterval,
    NoRootInInterval,
    NotSquarefree,
    RealAlgebraicField,
    SlopeGroup,
    SteinError,
    SteinTriple,
    ValidationError,
    ZeroLeadingCoefficient,
    approx,
    class_of,
    coinvariants,
    rational_field,
    thompson_triple,
)
from references import (
    assert_canonical, count_fractions, gauss_jordan_reference, reference_bisect,
    reference_class, reference_coinvariant_rows, reference_count_roots_open,
    reference_interval_eval, reference_mul, reference_numbers, reference_peval, reference_pgcd,
    reference_bisection_bound, reference_pow, reference_sturm_chain, sturm_count,
)

GOLDEN = RealAlgebraicField([-1, -1, 1], (Fraction(3, 2), Fraction(5, 3)))
SQRT2M1 = RealAlgebraicField([-1, 2, 1], (Fraction(2, 5), Fraction(1, 2)))
CUBE_ROOT2 = RealAlgebraicField([-2, 0, 0, 1], (Fraction(5, 4), Fraction(4, 3)))
# (x - 1)(x^2 - 2) at sqrt 2: a quotient ring with zero divisors
REDUCIBLE = RealAlgebraicField([2, -2, -1, 1], (Fraction(7, 5), Fraction(3, 2)))
# (x - 1)(x^2 - 3) at 1, as arguments: the first bisection hits the root
ROOT_HIT = ([3, -3, -1, 1], (Fraction(1, 2), Fraction(3, 2)))


def test_minpoly_normalization():
    p = MinimalPolynomial([2, 0, -4])
    assert p.coefficients == (-1, 0, 2)  # content 2 removed, leading made positive
    assert p.degree == 2
    assert MinimalPolynomial([2, 0, -4]) == MinimalPolynomial([-1, 0, 2])


def test_minpoly_rejections():
    with pytest.raises(ZeroLeadingCoefficient):
        MinimalPolynomial([1, 0])
    with pytest.raises(ZeroLeadingCoefficient):
        MinimalPolynomial([5])
    with pytest.raises(ValidationError, match="coefficients must be integers$") as info:
        MinimalPolynomial([Fraction(1, 2), 1])
    assert not isinstance(info.value, ZeroLeadingCoefficient)
    with pytest.raises(NotSquarefree):
        MinimalPolynomial([1, -2, 1])  # (x-1)^2


def test_root_isolation_errors():
    with pytest.raises(NoRootInInterval):
        RealAlgebraicField([-2, 0, 1], (2, 3))
    with pytest.raises(MultipleRootsInInterval):
        RealAlgebraicField([-2, 0, 1], (-2, 2))  # both square roots of 2


def test_interval_refinement_keeps_initial():
    f = RealAlgebraicField([-2, 0, 1], (1, 2))
    first = f.initial_interval()
    lo0, hi0 = f.root_interval()
    f.refine_root()
    lo1, hi1 = f.root_interval()
    assert hi1 - lo1 < hi0 - lo0
    assert f.initial_interval() == first


def test_rational_field_basics():
    q = rational_field()
    assert q is rational_field()  # shared instance
    assert q.degree == 1
    x = q.from_rational(Fraction(3, 4))
    assert x.is_rational
    assert x.as_fraction() == Fraction(3, 4)
    assert str(x) == "3/4"


def test_golden_ratio_identities():
    b = GOLDEN.generator()
    assert (b * b - b - 1).is_zero()
    assert b.inverse() == b - 1
    assert b > 1
    assert b < 2
    assert b ** 2 == b + 1
    assert b ** 5 == 5 * b + 3  # Fibonacci recursion
    assert b ** -2 == 2 - b


def test_sqrt2_identities():
    a = SQRT2M1.generator()  # sqrt(2) - 1
    s = a + 1
    assert (s * s).as_fraction() == 2
    with pytest.raises(ValidationError, match="^element is irrational$"):
        s.as_fraction()
    assert a * (a + 2) == 1  # (sqrt2-1)(sqrt2+1) = 1
    assert a.inverse() == a + 2
    assert 0 < a < 1


def test_element_pads_and_rejects_long_coords():
    x = GOLDEN.element([1])
    assert x.coords == (Fraction(1), Fraction(0))
    # a shape error in the caller's data, not a mismatch of fields
    with pytest.raises(ValidationError) as info:
        GOLDEN.element([1, 2, 3])
    assert not isinstance(info.value, FieldMismatch)
    assert str(info.value) == "coordinate vector longer than degree 2"


def test_mixed_field_arithmetic_fails():
    b = GOLDEN.generator()
    a = SQRT2M1.generator()
    with pytest.raises(FieldMismatch):
        b + a
    # comparisons degrade to inequality rather than raising
    assert b != a


def test_rational_scalars_coerce():
    b = GOLDEN.generator()
    assert 1 + b == b + 1
    assert 2 * b == b + b
    assert b - Fraction(1, 2) == b + Fraction(-1, 2)
    assert (3 - b) + (b - 3) == 0
    assert (1 / (b + 1)).coords == (b ** -2).coords


def test_division():
    b = GOLDEN.generator()
    assert (b / b) == 1
    assert ((b + 1) / b) == b  # b^2 / b
    with pytest.raises(DivisionByZero):
        b / GOLDEN.zero()
    with pytest.raises(DivisionByZero, match="^division by zero$"):
        GOLDEN.zero().inverse()


def test_sign_and_ordering():
    b = GOLDEN.generator()
    assert (b - 1).sign() == 1
    assert (1 - b).sign() == -1
    assert (b * b - b - 1).sign() == 0
    assert Fraction(8, 5) < b < Fraction(13, 8)  # Fibonacci convergents
    assert b <= b
    vals = sorted([b, GOLDEN.one(), b - 1, GOLDEN.zero(), b + 1])
    assert vals == [GOLDEN.zero(), b - 1, GOLDEN.one(), b, b + 1]


def test_str_forms():
    b = GOLDEN.generator()
    assert str(b) == "a"
    assert str(b - 1) == "-1 + a"
    assert str(2 * b + Fraction(1, 2)) == "1/2 + 2*a"
    assert str(GOLDEN.zero()) == "0"


def test_approx_brackets_the_value():
    b = GOLDEN.generator()
    lo, hi = approx(b, Fraction(1, 10 ** 12))
    assert hi - lo < Fraction(1, 10 ** 12)
    truth = Fraction(1618033988749894848, 10 ** 18)  # golden ratio to 18 places
    assert lo - Fraction(1, 10 ** 15) <= truth <= hi + Fraction(1, 10 ** 15)
    # deterministic: refinement elsewhere must not change the answer
    GOLDEN.refine_root()
    assert approx(b, Fraction(1, 10 ** 12)) == (lo, hi)


def test_rational_values_are_their_own_norm_and_approximation():
    x = Fraction(-3, 4)
    assert rational_field().coerce(x).norm() == x
    for field in (rational_field(), GOLDEN):
        assert approx(field.coerce(x), Fraction(1, 10)) == (x, x)


def test_approx_does_not_depend_on_a_root_hit():
    fresh, hit = (RealAlgebraicField(*ROOT_HIT) for _ in range(2))
    hit.refine_root()
    assert hit.root_interval() == (1, 1)
    for eps in (10, 1, Fraction(1, 1000)):
        assert approx(hit.element([1, 1]), eps) == approx(fresh.element([1, 1]), eps)
    assert approx(hit.element([1, 1]), 10) == (Fraction(3, 2), Fraction(5, 2))


def test_approx_refuses_a_float_eps():
    # Fraction(0.1) is the binary value of 0.1, not 1/10
    for eps in (0.1, float("nan"), float("inf")):
        with pytest.raises(ValidationError, match="is a float"):
            approx(GOLDEN.generator(), eps)
    lo, hi = approx(GOLDEN.generator(), "1/10")
    assert hi - lo < Fraction(1, 10)


@pytest.mark.parametrize("eps", [0, -1, Fraction(-1, 3), "0"])
def test_approx_refuses_eps_at_most_zero(eps):
    for x in (GOLDEN.generator(), GOLDEN.one()):
        with pytest.raises(ValidationError, match="eps must be positive"):
            approx(x, eps)


def test_hash_consistent_with_eq():
    b = GOLDEN.generator()
    assert hash(b + 1) == hash(1 + b)
    seen = {b, b + 1, b, GOLDEN.one()}
    assert len(seen) == 3


def random_element(rng, field):
    return field.element(
        [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(field.degree)]
    )


def is_zero_divisor(field, y):
    """y shares a factor with the defining polynomial (y = 0 included)."""
    if field is not REDUCIBLE:
        return y.is_zero()
    c0, c1, c2 = y.coords  # y(1) = 0, or x^2 - 2 divides y
    return c0 + c1 + c2 == 0 or (c0 + 2 * c2 == 0 and c1 == 0)


@pytest.mark.parametrize(
    "field", [GOLDEN, SQRT2M1, rational_field(), CUBE_ROOT2, REDUCIBLE]
)
def test_ring_axioms_random(field):
    rng = random.Random(101)
    for _ in range(60):
        x = random_element(rng, field)
        y = random_element(rng, field)
        z = random_element(rng, field)
        assert x + y == y + x
        assert (x + y) + z == x + (y + z)
        assert x * y == y * x
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x - x == 0
        if is_zero_divisor(field, y):
            with pytest.raises(DivisionByZero):
                y.inverse()
        else:
            assert (x / y) * y == x
            assert y * y.inverse() == 1


def test_zero_divisors_of_a_reducible_field_have_no_inverse():
    a = REDUCIBLE.generator()
    for y in (a - 1, a * a - 2, 3 * (a - 1) * (a + 5), REDUCIBLE.zero()):
        assert is_zero_divisor(REDUCIBLE, y)
        with pytest.raises(DivisionByZero):
            y.inverse()
    with pytest.raises(DivisionByZero, match="zero divisor"):
        (a - 1).inverse()
    assert (a + 1).inverse() * (a + 1) == 1


def test_zero_divisors_of_a_reducible_quadratic_have_no_inverse():
    field = RealAlgebraicField([-1, 0, 1], (0, 2))  # x^2 - 1 at the root 1
    a = field.generator()
    for y in (a - 1, a + 1):
        assert y.norm() == 0
        with pytest.raises(DivisionByZero, match="zero divisor"):
            y.inverse()
    assert (a + 2).inverse() == (2 - a) / 3
    assert (a + 2) * (a + 2).inverse() == 1


# 2x^2 + x - 5: a non-monic quadratic
NON_MONIC = RealAlgebraicField([-5, 1, 2], (1, 2))


def test_quadratic_inverse_norm_and_module_coordinates_never_eliminate(monkeypatch):
    built = [
        (BreakpointModule(GOLDEN, [1, GOLDEN.generator()]), (3, -2)),
        (BreakpointModule(SQRT2M1, [SQRT2M1.generator()], [2]), (Fraction(1, 4), 0)),
        (BreakpointModule(NON_MONIC, [Fraction(1, 3), NON_MONIC.generator()]), (3, 5)),
        (BreakpointModule(CUBE_ROOT2, [1, CUBE_ROOT2.generator()]), (1, -3)),
    ]

    def refuse(*args):
        raise AssertionError("a fast path ran the elimination")

    # the modules run it once, when they are built, and never again
    monkeypatch.setattr(numbers, "_bareiss", refuse)
    monkeypatch.setattr(modules, "_bareiss", refuse)
    for field in (GOLDEN, SQRT2M1, NON_MONIC):
        a = field.generator()
        c0, _, c2 = field.minpoly.coefficients
        assert a.norm() == Fraction(c0, c2)
        assert field.from_rational(Fraction(-2, 3)).norm() == Fraction(4, 9)
        xs = [a, a - 3, Fraction(2, 3) * a + Fraction(1, 5), 7 - Fraction(5, 2) * a]
        for x in xs:
            y = x.inverse()
            assert x * y == 1 and 1 / x == y
            assert (a / x) * x == a
            assert x.norm() * y.norm() == 1
            for z in xs:
                assert (x * z).norm() == x.norm() * z.norm()
    for module, (u, v) in built:
        b = module.basis
        point = u * b[0] + v * b[-1] if len(b) > 1 else u * b[0]
        coords = (u, v) if len(b) > 1 else (u,)
        den = math.lcm(*(Fraction(c).denominator for c in coords))
        assert module.coordinates(point) == (tuple(int(c * den) for c in coords), den)
        assert module.contains(point)
    assert not built[0][0].contains(GOLDEN.generator() / 3)
    # outside the rational span of a module of lower rank than the degree
    assert built[1][0].coordinates(1) is None
    assert built[3][0].coordinates(CUBE_ROOT2.generator() ** 2) is None
    assert not built[3][0].contains(CUBE_ROOT2.generator() ** 2)


# -- degree two: the product in closed form ----------------------------------

SQRT2 = RealAlgebraicField([-2, 0, 1], (1, 2))
# both roots of 3x^2 - 2x - 7, (1 +- sqrt 22) / 3
NON_MONIC_UPPER = RealAlgebraicField([-7, -2, 3], (1, 2))
NON_MONIC_LOWER = RealAlgebraicField([-7, -2, 3], (-2, -1))
QUADRATICS = [GOLDEN, SQRT2M1, NON_MONIC, SQRT2, NON_MONIC_UPPER, NON_MONIC_LOWER]


@st.composite
def quadratic_operands(draw):
    """(field, x, y): y an element, a rational element, an int or a
    Fraction, numerators up to 10^12 and zero included."""
    field = draw(st.sampled_from(QUADRATICS))
    big = st.integers(-10**12, 10**12)
    small = st.integers(-9, 9)

    def element():
        coords = draw(st.lists(st.one_of(small, big), min_size=2, max_size=2))
        den = draw(st.one_of(st.integers(1, 9), st.integers(1, 10**12)))
        if draw(st.integers(0, 4)) == 0:
            coords[1] = 0  # a rational element
        if draw(st.integers(0, 9)) == 0:
            coords = [0, 0]
        return field.element([Fraction(c, den) for c in coords])

    x = element()
    kind = draw(st.sampled_from(["element", "element", "int", "fraction"]))
    if kind == "int":
        return field, x, draw(st.one_of(small, big))
    if kind == "fraction":
        return field, x, Fraction(draw(big), draw(st.integers(1, 10**12)))
    return field, x, element()


@settings(max_examples=400, deadline=None)
@given(quadratic_operands(), st.integers(-3, 4))
def test_quadratic_product_matches_the_convolution(operands, n):
    field, x, y = operands
    y_in = field.coerce(y)
    for product, factors in [(x * y, (x, y_in)), (y * x, (y_in, x)), (x * x, (x, x))]:
        assert product.field is field
        assert product == reference_mul(*factors)
        assert_canonical(product)
    if y_in.is_zero():
        with pytest.raises(DivisionByZero):
            x / y
    else:
        quotient = x / y
        assert quotient == reference_mul(x, y_in.inverse())
        assert reference_mul(quotient, y_in) == x
        assert_canonical(quotient)
    if x.is_zero() and n < 0:
        with pytest.raises(DivisionByZero):
            x ** n
    else:
        power = x**n
        assert power == reference_pow(x, n)
        assert_canonical(power)


@pytest.mark.parametrize("field", QUADRATICS)
def test_quadratic_product_builds_no_fraction_and_reads_no_power_table(field):
    rng = random.Random(149)
    a = field.generator()
    xs = [a, a - 1, field.from_rational(Fraction(-2, 3)), field.zero(),
          field.element([10**12 + 1, -(10**12) + 7])]
    xs += [random_element(rng, field) for _ in range(12)]
    for x in xs:
        for y in xs:
            product, built = count_fractions(lambda: x * y)
            assert built == 0 and product == reference_mul(x, y)
            if not y.is_zero():
                quotient, built = count_fractions(lambda: x / y)
                assert built == 0 and quotient * y == x
        assert x**5 == reference_pow(x, 5)
        if not x.is_zero():
            assert x**-3 == reference_pow(x, -3)


def test_floats_are_refused_where_numbers_enter():
    for make, what in [
        (lambda: GOLDEN.element([0.5, 1]), "0.5"),
        (lambda: GOLDEN.from_rational(0.5), "0.5"),
        (lambda: MinimalPolynomial([-2.0, 0, 1.0]), "-2.0"),
        (lambda: RealAlgebraicField([-2, 0, 1], (1.4, 1.5)), "1.4"),
    ]:
        with pytest.raises(ValidationError, match=f"{what} is a float"):
            make()
    with pytest.raises(TypeError):
        GOLDEN.coerce(0.5)
    # the exact forms of the same numbers still enter
    assert GOLDEN.element([Fraction(1, 2), 1]) == GOLDEN.generator() + Fraction(1, 2)
    assert RealAlgebraicField([-2, 0, 1], ("7/5", "3/2")).generator() ** 2 == 2


@pytest.mark.parametrize("field", [GOLDEN, SQRT2M1])
def test_sign_matches_float_estimate(field):
    rng = random.Random(103)
    root = float(sum(field.root_interval())) / 2
    # refine so the float proxy below is accurate enough for the check
    for _ in range(40):
        field.refine_root()
    root = float(sum(field.root_interval())) / 2
    for _ in range(80):
        x = random_element(rng, field)
        est = sum(float(c) * root ** k for k, c in enumerate(x.coords))
        if abs(est) > 1e-6:
            assert x.sign() == (1 if est > 0 else -1)


ORDER_FIELDS = {
    "golden": ([-1, -1, 1], (Fraction(3, 2), Fraction(5, 3))),
    "rational": ([-3, 1], (2, 4)),
    "cube-root-2": ([-2, 0, 0, 1], (Fraction(5, 4), Fraction(4, 3))),
    "root-hit": ROOT_HIT,
}


@pytest.mark.parametrize("spec", ORDER_FIELDS.values(), ids=ORDER_FIELDS)
def test_total_order_random(spec):
    # _cmp decides as the sign of the difference does and refines the
    # root the same way: twin handles, one driven through each, stay equal
    by_cmp, by_sign = (RealAlgebraicField(*spec) for _ in range(2))
    rng = random.Random(107)
    for _ in range(40):
        x, y = random_element(rng, by_cmp), random_element(rng, by_cmp)
        u, v = by_sign.coerce(x), by_sign.coerce(y)
        for (p, q), (r, t) in [((x, y), (u, v)), ((x + 1, y + 1), (u + 1, v + 1)),
                               ((2 * x, 2 * y), (2 * u, 2 * v))]:
            assert p._cmp(q) == (r - t).sign()
            assert by_cmp.root_interval() == by_sign.root_interval()
        c = x._cmp(y)
        # == is structural; it decides equality only where the polynomial is irreducible
        assert (x < y) + (c == 0) + (y < x) == 1
        assert (x + 1 < y + 1) == (2 * x < 2 * y) == (c < 0)
        if spec is not ROOT_HIT:
            assert (x == y) == (c == 0)


def test_pow_edge_cases():
    b = GOLDEN.generator()
    assert b ** 0 == 1
    assert b ** 1 == b
    assert b ** -1 == b.inverse()
    with pytest.raises(DivisionByZero):
        GOLDEN.zero() ** -1
    assert GOLDEN.zero() ** 0 == 1  # convention


def test_compatible_fields_share_elements():
    other = RealAlgebraicField([-1, -1, 1], (Fraction(8, 5), Fraction(17, 10)))
    assert GOLDEN.compatible(other)
    assert GOLDEN.generator() == other.generator()
    assert GOLDEN.generator() + other.generator() == 2 * GOLDEN.generator()


# -- closed-form quadratic signs and the deferred zero test -----------------


def bracket_sign(x):
    """Sign read off approx brackets of shrinking width, None if all straddle 0."""
    for k in range(120, -1000, -40):
        lo, hi = approx(x, Fraction(2) ** k)
        if lo > 0 or hi < 0 or lo == hi:
            return (lo > 0) - (hi < 0)
    return None


@pytest.mark.parametrize("field", [GOLDEN, SQRT2M1])
def test_quadratic_sign_large_coefficients_match_approx(field):
    rng = random.Random(109)
    root = field.generator()
    for _ in range(40):
        x = field.element(
            [Fraction(rng.randint(-10 ** 30, 10 ** 30), rng.randint(1, 10 ** 12))
             for _ in range(2)]
        )
        assert x.sign() == bracket_sign(x)
        # the root less a rational just off one of its brackets: a small value
        lo, hi = approx(root, Fraction(1, rng.randint(10 ** 6, 10 ** 20)))
        y = root - Fraction(lo.numerator * 7 + 3, lo.denominator * 7)
        assert y.sign() == bracket_sign(y)


@pytest.mark.parametrize(
    "coeffs, interval",
    [
        ([-1, -1, 1], (Fraction(3, 2), Fraction(5, 3))),
        ([-1, 2, 1], (Fraction(2, 5), Fraction(1, 2))),
        ([-1, -1, 1], (-1, 0)),  # the lower root of x^2 - x - 1
        ([3, 9, 5], (Fraction(-7, 5), Fraction(-13, 10))),
    ],
)
def test_quadratic_approx_is_closed_form(coeffs, interval, monkeypatch):
    field = RealAlgebraicField(coeffs, interval)

    def no_root_counts(*args):
        raise AssertionError("approx bisected in a quadratic field")

    monkeypatch.setattr(numbers, "_count_roots_open", no_root_counts)
    rng = random.Random(113)
    for k in (0, 20, 200, 2000):
        eps = Fraction(1, 2**k)
        for _ in range(30):
            x = field.element(
                [Fraction(rng.randint(-10 ** 30, 10 ** 30), rng.randint(1, 10 ** 12))
                 for _ in range(2)]
            )
            lo, hi = approx(x, eps)
            assert 0 < hi - lo < eps
            assert lo < x < hi
    assert field.root_interval() == field.initial_interval()


def test_quadratic_sign_on_the_lower_root():
    # the root of x^2 - x - 1 in (-1, 0) is (1 - sqrt 5)/2 = -0.6180...
    psi = RealAlgebraicField([-1, -1, 1], (-1, 0)).generator()
    assert psi.sign() == -1
    assert (psi + 1).sign() == 1
    assert (psi + Fraction(618, 1000)).sign() == -1
    assert (psi + Fraction(619, 1000)).sign() == 1
    assert (psi * psi - psi - 1).sign() == 0
    assert psi * (psi - 1) == 1
    assert (2 * psi - 1) * (2 * psi - 1) == 5
    for x in [psi, psi - 1, 3 * psi + 2, 21 * psi + 13, 34 * psi + 21]:
        assert x.sign() == bracket_sign(x)


@pytest.mark.parametrize("n", [150, 600, 6500])
def test_quadratic_sign_near_zero_without_bisection(n):
    # phi*F_n - F_(n+1) = -psi^n, of sign (-1)^(n+1) and size phi^-n
    fib = [0, 1]
    while len(fib) < n + 2:
        fib.append(fib[-1] + fib[-2])
    field = RealAlgebraicField([-1, -1, 1], (Fraction(3, 2), Fraction(5, 3)))
    x = field.generator() * fib[n] - fib[n + 1]
    assert x.sign() == (-1) ** (n + 1)
    assert field.root_interval() == field.initial_interval()


def test_quadratic_sign_zero_on_a_reducible_polynomial():
    # x^2 - x = x(x - 1); the interval straddles the vertex 1/2 and holds 1
    f = RealAlgebraicField([0, -1, 1], (Fraction(1, 3), Fraction(3, 2)))
    a = f.generator()
    assert (a - 1).sign() == 0
    assert a.sign() == 1
    assert (a - 2).sign() == -1
    assert (a - Fraction(99, 100)).sign() == 1
    # the first bisection midpoint of (1/2, 3/2) is the root itself
    g = RealAlgebraicField([0, -1, 1], (Fraction(1, 2), Fraction(3, 2)))
    assert approx(g.generator() + 1, Fraction(1, 10)) == (2, 2)


def test_cubic_zero_is_found_by_the_deferred_gcd(monkeypatch):
    # (x - 1)(x^2 - 2), with only the root 1 inside (9/10, 6/5)
    f = RealAlgebraicField([2, -2, -1, 1], (Fraction(9, 10), Fraction(6, 5)))
    a = f.generator()
    calls = []
    real_pgcd = numbers._pgcd
    monkeypatch.setattr(numbers, "_pgcd", lambda *p: calls.append(p) or real_pgcd(*p))
    assert (a * a - 2).sign() == -1
    assert calls == []  # the interval alone decided it
    assert (a - 1).sign() == 0
    assert len(calls) == 1
    assert f.root_interval() == f.initial_interval()


def test_cubic_sign_skips_the_gcd_when_the_interval_decides(monkeypatch):
    f = RealAlgebraicField([-2, 0, 0, 1], (Fraction(5, 4), Fraction(4, 3)))  # 2^(1/3)
    a = f.generator()
    calls = []
    real_pgcd = numbers._pgcd
    monkeypatch.setattr(numbers, "_pgcd", lambda *p: calls.append(p) or real_pgcd(*p))
    assert (a - 1).sign() == 1
    assert (a - 2).sign() == -1
    assert calls == []
    assert (a - Fraction(126, 100)).sign() == -1  # needs refinement
    assert len(calls) == 1
    assert a * a * a == 2


def test_a_sign_decides_past_4096_bisections():
    # q*2^(1/3) - p for p = floor(q*2^(1/3)) and a 1301-digit q takes
    # about 3.3 bisections a digit; a cap of 4096 raised BoundExceeded here
    q = 10**1300 + 7
    p, hi = q, 2 * q
    while hi - p > 1:  # p = floor(q*2^(1/3)), the integer cube root of 2*q^3
        mid = (p + hi) // 2
        p, hi = (mid, hi) if mid**3 <= 2 * q**3 else (p, mid)
    f = RealAlgebraicField([-2, 0, 0, 1], (1, 2))
    x = q * f.generator() - p
    assert x.sign() == (2 * q**3 > p**3) - (2 * q**3 < p**3) == 1
    lo, hi = f.root_interval()
    assert hi - lo < Fraction(1, 2**4096)
    with pytest.raises(BoundExceeded, match="capped at degree 32"):
        MinimalPolynomial([1] + [0] * 32 + [1])
    assert issubclass(BoundExceeded, SteinError)


@st.composite
def near_zero_elements(draw):
    """(x, want) for x = (q*a - p)*a^j in degree d = 3..8, with p, q up to
    10^30 and j < d - 1, where a is the root in (0, (p + 1)/q) of
    (N*q)^d*t^d - (N*p)^d - k for N = 2^70 and |k| <= 3, and want is the
    sign of x by integers.  q*a - p is about k / (d*p^(d-1)*N^d), below
    2^-200, and an exact zero under a reducible polynomial when k = 0."""
    d = draw(st.integers(3, 8))
    p, q = draw(st.integers(1, 10**30)), draw(st.integers(1, 10**30))
    k, n = draw(st.integers(-3, 3)), 2**70
    f = RealAlgebraicField([-((n * p) ** d) - k] + [0] * (d - 1) + [(n * q) ** d],
                           (0, Fraction(p + 1, q)))
    c, m = -f.minpoly.coefficients[0], f.minpoly.coefficients[-1]
    j = draw(st.integers(0, d - 2))
    x = f.element([0] * j + [-p, q])
    return x, (c * q**d > m * p**d) - (c * q**d < m * p**d)


@settings(max_examples=40, deadline=None)
@given(near_zero_elements(), st.integers(0, 400))
def test_near_zero_signs_decide_within_the_bisection_bound(case, e):
    x, want = case
    bisections = []
    real_bisect = RealAlgebraicField._bisect

    def counted(field, lo, hi):
        bisections.append((lo, hi))
        return real_bisect(field, lo, hi)

    eps = Fraction(1, 2**e)
    tiny = Fraction(1, 2**200)
    with mock.patch.object(RealAlgebraicField, "_bisect", counted):
        assert x.sign() == want
        assert len(bisections) <= reference_bisection_bound(x)  # 0 for an exact zero
        bisections.clear()
        lo, hi = approx(x, eps)
        assert len(bisections) <= reference_bisection_bound(x, eps)
    assert hi - lo < eps and lo <= x <= hi
    assert -tiny < x < tiny


# -- products, inverses and norms against sympy ------------------------------


_coords = st.fractions(min_value=-5, max_value=5, max_denominator=4)


@st.composite
def fields_and_pairs(draw, min_degree=2):
    """Coefficients (constant first) of a degree min_degree..4 polynomial
    with a positive real root, since its value at 0 is negative and its
    leading coefficient positive, two coordinate vectors, and whether to
    make the first a zero divisor when the polynomial is reducible."""
    d = draw(st.integers(min_degree, 4))
    coeffs = (
        [draw(st.integers(-6, -1))]
        + draw(st.lists(st.integers(-6, 6), min_size=d - 1, max_size=d - 1))
        + [draw(st.integers(1, 3))]
    )
    vector = st.lists(_coords, min_size=d, max_size=d)
    return coeffs, draw(vector), draw(vector), draw(st.booleans())


@settings(max_examples=60, deadline=None)
@given(fields_and_pairs())
def test_products_inverses_and_norms_match_sympy(sympy, case):
    coeffs, xs, ys, divisor = case
    t = sympy.Symbol("t")

    def poly(cs):
        return sympy.Poly(
            [sympy.Rational(c.numerator, c.denominator) for c in reversed(cs)],
            t,
            domain="QQ",
        )

    m = poly([Fraction(c) for c in coeffs])
    assume(m.is_sqf)
    intervals = [iv for iv, _ in m.intervals() if iv[0] != iv[1]]
    assume(intervals)  # an irrational real root, isolated by sympy
    lo, hi = (Fraction(int(e.p), int(e.q)) for e in intervals[0])
    field = RealAlgebraicField(coeffs, (lo, hi))
    d = len(coeffs) - 1

    def coords(p):
        cs = [Fraction(int(c.p), int(c.q)) for c in reversed(p.rem(m).all_coeffs())]
        return tuple(cs + [Fraction(0)] * (d - len(cs)))

    factors = [f for f, _ in m.factor_list()[1] if f.degree() < d]
    if divisor and factors:
        xs = coords(factors[0] * poly(xs))
    x, y = field.element(xs), field.element(ys)
    assert (x * y).coords == coords(poly(xs) * poly(ys))
    try:
        inverse = poly(xs).invert(m)
    except sympy.polys.polyerrors.NotInvertible:
        with pytest.raises(DivisionByZero):
            x.inverse()
    else:
        assert x.inverse().coords == coords(inverse)
    columns = [coords(poly(xs) * sympy.Poly(t**j, t, domain="QQ")) for j in range(d)]
    matrix = sympy.Matrix(d, d, lambda i, j: columns[j][i])
    assert x.norm() == matrix.det()


# -- the stored form: integer numerators over one positive denominator -------


def positive_root_interval(coeffs):
    """An interval isolating a positive root of the polynomial, found by
    bisecting the Cauchy interval with the field constructor itself; None
    when the polynomial is not squarefree or every split point hits a root."""
    bound = 1 + Fraction(max(abs(c) for c in coeffs[:-1]), coeffs[-1])
    stack = [(Fraction(0), bound)]
    while stack:
        lo, hi = stack.pop()
        try:
            RealAlgebraicField(coeffs, (lo, hi))
            return lo, hi
        except NotSquarefree:
            return None
        except MultipleRootsInInterval:
            stack += [(lo, (lo + hi) / 2), ((lo + hi) / 2, hi)]
        except NoRootInInterval:
            pass
    return None


@settings(max_examples=150, deadline=None)
@given(fields_and_pairs(min_degree=1), st.data())
def test_module_coordinates_match_the_elimination(case, data):
    coeffs, xs, ys, inside = case
    interval = positive_root_interval(coeffs)
    assume(interval is not None)
    field = RealAlgebraicField(coeffs, interval)
    d = field.degree
    rank = data.draw(st.integers(1, d))
    vector = st.lists(_coords, min_size=d, max_size=d)
    more = data.draw(st.lists(vector, min_size=rank - 1, max_size=rank - 1))
    columns = [tuple(xs)] + [tuple(v) for v in more]
    assume(gauss_jordan_reference(columns)[0] == rank)
    module = BreakpointModule(field, [field.element(c) for c in columns], [2])
    t = field.element(ys)
    if inside:  # a point of the rational span
        weights = data.draw(st.lists(_coords, min_size=rank, max_size=rank))
        t = sum((w * b for w, b in zip(weights, module.basis)), field.zero())
    expected = gauss_jordan_reference(columns, t.coords)[2]
    coords = module.coordinates(t)
    if expected is None:
        assert coords is None
    else:
        nums, den = coords
        assert den > 0 and math.gcd(den, *nums) == 1
        assert tuple(Fraction(x, den) for x in nums) == expected


@settings(max_examples=150, deadline=None)
@given(fields_and_pairs(min_degree=1))
def test_elements_are_stored_canonical_over_one_denominator(case):
    coeffs, xs, ys, _ = case
    interval = positive_root_interval(coeffs)
    assume(interval is not None)
    field = RealAlgebraicField(coeffs, interval)
    x, y = field.element(xs), field.element(ys)
    for z in (x, y, x + y, x - y, -x, x * y, x * 3, x - Fraction(1, 6)):
        assert_canonical(z)
    assert (x + y).coords == tuple(a + b for a, b in zip(xs, ys))
    assert (x - y).coords == tuple(a - b for a, b in zip(xs, ys))
    assert (-x).coords == tuple(-a for a in xs)
    assert x.coords == tuple(xs)
    assert (x - x).num == (0,) * field.degree and (x - x).den == 1
    rebuilt = field.element(x.coords)
    assert x == rebuilt and hash(x) == hash(rebuilt)
    # a second handle on the same field: equal elements, equal hashes
    twin = RealAlgebraicField(coeffs, interval)
    copy = twin.element(xs)
    assert twin is not field and x == copy and hash(x) == hash(copy)
    assert (x + copy).field is field and x + copy == 2 * x


# -- degree one: closed forms on num[0] and den ------------------------------

ROOT3 = RealAlgebraicField([-3, 1], (2, 4))  # Q again, remembering the root 3
# small values meet zero and common factors often, wide ones carry big gcds
_rationals = st.fractions(min_value=-50, max_value=50, max_denominator=60) | st.fractions(
    min_value=-10**9, max_value=10**9, max_denominator=10**9
)
# operands in one handle take the same-field path, the Thompson triples'
# field against ROOT3, an int or a Fraction is coerced
_degree_one = st.sampled_from([thompson_triple(2).field, ROOT3])


@settings(max_examples=300, deadline=None)
@given(
    _degree_one, _degree_one, _rationals, _rationals, st.sampled_from(["element", int, Fraction])
)
def test_degree_one_closed_forms_match_fractions(field, other_field, p, q, kind):
    x = field.from_rational(p)
    if kind == "element":
        y = other_field.from_rational(q)
    else:
        q = Fraction(round(q)) if kind is int else q
        y = kind(q)
    pairs = [(x, y, p, q), (y, x, q, p)]  # the element on either side
    for a, b, fa, fb in pairs:
        home = a.field if isinstance(a, numbers.FieldElement) else b.field
        for op in ("__add__", "__sub__", "__mul__"):
            z = getattr(operator, op)(a, b)
            assert isinstance(z, numbers.FieldElement) and z.field is home
            assert_canonical(z)
            assert z.as_fraction() == getattr(operator, op)(fa, fb)
        if fb:
            z = a / b
            assert_canonical(z)
            assert z.as_fraction() == fa / fb
        else:
            with pytest.raises(DivisionByZero):
                a / b
        assert (a < b, a <= b, a > b, a >= b) == (fa < fb, fa <= fb, fa > fb, fa >= fb)
        assert (a == b) == (fa == fb) and (a != b) == (fa != fb)
    assert x.sign() == (p > 0) - (p < 0)
    assert (-x).sign() == -x.sign() and (x - x).sign() == 0


# -- s*t + o reduced once ---------------------------------------------------

# each handle beside a compatible one: Q remembering the root 3, and phi and
# the cube root of 2 isolated in other intervals
_AFFINE_HANDLES = [
    (thompson_triple(2).field, ROOT3),
    (GOLDEN, RealAlgebraicField([-1, -1, 1], (Fraction(8, 5), Fraction(17, 10)))),
    (CUBE_ROOT2, RealAlgebraicField([-2, 0, 0, 1], (1, 2))),
]
SQRT5 = RealAlgebraicField([-5, 0, 1], (2, 3))
_coordinates = st.lists(_rationals, min_size=3, max_size=3)
_operand_kinds = st.sampled_from(["element", "compatible", "rational of sqrt 5", int, Fraction])


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(_AFFINE_HANDLES), _coordinates, _coordinates, _coordinates,
    st.booleans(), _operand_kinds, _operand_kinds,
)
def test_affine_matches_the_operators(handles, s, t, o, zero_slope, t_kind, o_kind):
    field, compatible = handles
    d = field.degree

    def operand(coords, kind):
        if kind == "element":
            return field.element(coords[:d])
        if kind == "compatible":
            return compatible.element(coords[:d])
        if kind == "rational of sqrt 5":
            return SQRT5.from_rational(coords[0])
        return round(coords[0]) if kind is int else coords[0]

    s = field.zero() if zero_slope else field.element(s[:d])
    t, o = operand(t, t_kind), operand(o, o_kind)
    z, expected = numbers._affine(s, t, o), s * t + o
    assert z.field is field and (z.num, z.den) == (expected.num, expected.den)


def test_affine_refuses_an_irrational_of_another_field():
    sqrt5, phi, one = SQRT5.generator(), GOLDEN.generator(), rational_field().one()
    for s, t, o in [(phi, sqrt5, phi), (phi, phi, sqrt5), (one, sqrt5, one), (one, one, sqrt5)]:
        with pytest.raises(FieldMismatch):
            numbers._affine(s, t, o)


# -- fraction-free elimination against the Fraction Gauss-Jordan ------------


_entries = (
    st.integers(-6, 6)
    | st.fractions(min_value=-6, max_value=6, max_denominator=7)
    | st.integers(-(10**12), 10**12)
)


def _combination(weights, columns):
    return [sum((w * col[i] for w, col in zip(weights, columns)), Fraction(0))
            for i in range(len(columns[0]))]


@st.composite
def elimination_cases(draw):
    """Columns of an m x n matrix, m, n <= 6, square about half the time,
    with a dependent last column when asked, and no target, a drawn one
    or one in the span of the columns."""
    m = draw(st.integers(1, 6))
    n = draw(st.just(m) | st.integers(1, 6))
    vector = st.lists(_entries, min_size=m, max_size=m)
    columns = draw(st.lists(vector, min_size=n, max_size=n))
    if n > 1 and draw(st.booleans()):  # singular: the last column depends on the rest
        weights = draw(st.lists(_entries, min_size=n - 1, max_size=n - 1))
        columns[-1] = _combination(weights, columns[:-1])
    kind = draw(st.sampled_from(["none", "drawn", "span"]))
    target = None
    if kind == "drawn":
        target = draw(vector)
    elif kind == "span":
        target = _combination(draw(st.lists(_entries, min_size=n, max_size=n)), columns)
    return columns, target


@settings(max_examples=300, deadline=None)
@given(elimination_cases())
def test_bareiss_matches_the_fraction_gauss_jordan(case):
    columns, target = case
    n = len(columns)
    # the same matrix in integers: every column times one common denominator
    augmented = columns + ([target] if target is not None else [])
    den = math.lcm(*(Fraction(x).denominator for col in augmented for x in col))
    integer = [[int(x * den) for x in col] for col in augmented]
    rows = [list(row) for row in zip(*integer)]
    rank, p, det = numbers._bareiss(rows, n)
    assert all(type(x) is int for row in rows for x in row)
    ref_rank, ref_det, third = gauss_jordan_reference(integer[:n], *integer[n:])
    assert (rank, det) == (ref_rank, ref_det)
    if target is None:  # the pivot rows over p are the reduced row echelon form
        assert [[Fraction(x, p) for x in row] for row in rows] == third
    else:
        solvable = rank == n and not any(row[n] for row in rows[n:])
        solution = tuple(Fraction(row[n], p) for row in rows[:n]) if solvable else None
        assert solution == third


# -- the integer polynomial helpers against the Fraction references ---------


def scaled_by_positive(poly, reference):
    """True when the integer polynomial is a positive multiple of the
    reference."""
    if not reference:
        return not poly
    k = Fraction(poly[-1]) / reference[-1]
    return k > 0 and len(poly) == len(reference) and all(
        x == k * y for x, y in zip(poly, reference))


_coefficient = st.integers(-9, 9)
_interval_end = st.fractions(min_value=-4, max_value=4, max_denominator=12)


def product(u, v):
    out = [0] * (len(u) + len(v) - 1)
    for i, x in enumerate(u):
        for j, y in enumerate(v):
            out[i + j] += x * y
    return tuple(out)


@st.composite
def integer_polynomials(draw, max_degree=8):
    """A nonzero integer polynomial of degree at most max_degree; half of
    them are products with a factor of degree one or two, at times
    squared, so that rational and repeated roots occur."""
    def poly(degree):
        cs = draw(st.lists(_coefficient, min_size=degree + 1, max_size=degree + 1))
        return tuple(cs[:-1]) + (cs[-1] or 1,)

    if draw(st.booleans()):
        return poly(draw(st.integers(0, max_degree)))
    u = poly(draw(st.integers(1, 2)))
    rest = max_degree + 1 - len(u)
    if rest >= len(u) - 1 and draw(st.booleans()):
        return product(u, u)
    return product(u, poly(draw(st.integers(0, rest))))


_intervals = st.lists(_interval_end, min_size=2, max_size=2, unique=True).map(sorted)


@settings(max_examples=300, deadline=None)
@given(integer_polynomials(), _intervals)
def test_integer_interval_horner_is_the_fraction_enclosure_scaled(poly, interval):
    lo, hi = interval
    v_lo, v_hi, scale = numbers._interval_eval(poly, lo, hi)
    assert all(type(x) is int for x in (v_lo, v_hi, scale)) and scale > 0
    assert (Fraction(v_lo, scale), Fraction(v_hi, scale)) == reference_interval_eval(poly, lo, hi)
    p, q = lo.numerator, lo.denominator
    assert numbers._peval(poly, p, q) == reference_peval(poly, lo) * q ** (len(poly) - 1)


@settings(max_examples=300, deadline=None)
@given(integer_polynomials(), integer_polynomials(6), integer_polynomials(2), _intervals)
def test_integer_sturm_chain_and_gcd_match_the_fraction_ones(f, u, v, interval):
    lo, hi = interval
    g = product(u, v)
    chain, reference = numbers._sturm_chain(f), reference_sturm_chain(f)
    assert len(chain) == len(reference)
    assert all(scaled_by_positive(c, r) for c, r in zip(chain, reference))
    assert numbers._count_roots_open(chain, lo, hi) == reference_count_roots_open(
        reference, lo, hi)
    for a, b in ((f, g), (product(f, v), g)):  # the second with a common factor
        h = numbers._pgcd(a, b)
        assert tuple(Fraction(c, h[-1]) for c in h) == reference_pgcd(a, b)
    repeated = len(reference_pgcd(f, numbers._pderiv(f))) > 1
    assert (len(numbers._pgcd(f, numbers._pderiv(f))) > 1) == repeated
    if len(f) > 3:  # degree 2 has the discriminant test
        if repeated:
            with pytest.raises(NotSquarefree):
                MinimalPolynomial(f)
        else:
            assert MinimalPolynomial(f).degree == len(f) - 1


@st.composite
def refinement_cases(draw):
    """A cubic or quartic and an interval; half of them have a rational
    root r in the interval that a bisection midpoint hits."""
    degree = draw(st.sampled_from([3, 4]))
    if draw(st.booleans()):
        f = draw(integer_polynomials(degree).filter(lambda f: len(f) == degree + 1))
        return f, draw(_intervals)
    r = draw(_interval_end)
    rest = draw(integer_polynomials(degree - 1).filter(lambda f: len(f) == degree))
    delta = Fraction(1, draw(st.integers(1, 8)))
    # r is the midpoint after j halvings of (r - delta, r + (2^j - 1)*delta)
    ends = [r - delta, r + (2 ** draw(st.integers(1, 3)) - 1) * delta]
    if draw(st.booleans()):
        ends = [2 * r - x for x in reversed(ends)]
    return product((-r.numerator, r.denominator), rest), ends


@settings(max_examples=150, deadline=None)
@given(refinement_cases())
def test_cubic_and_quartic_refinement_and_approx_match_the_fraction_references(case):
    f, (lo, hi) = case
    assume(len(reference_pgcd(f, numbers._pderiv(f))) == 1)
    minpoly = MinimalPolynomial(f)
    n = sturm_count(minpoly, lo, hi)
    if n != 1:
        with pytest.raises(NoRootInInterval if n == 0 else MultipleRootsInInterval):
            RealAlgebraicField(minpoly, (lo, hi))
        return
    field = RealAlgebraicField(minpoly, (lo, hi))
    for _ in range(6):
        field.refine_root()
        if lo != hi:
            lo, hi = reference_bisect(minpoly, lo, hi)
        assert field.root_interval() == (lo, hi)
    assert (field._exact_root is not None) == (lo == hi)
    a = field.generator()
    x, eps = a * a - 2 * a + Fraction(1, 3), Fraction(1, 1000)
    shipped = approx(x, eps)
    with pytest.MonkeyPatch.context() as m:
        reference_numbers(m)
        assert approx(x, eps) == shipped


_shift = st.fractions(min_value=-1, max_value=1, max_denominator=6)


@st.composite
def compatibility_cases(draw):
    """A squarefree polynomial of degree 3 to 8 and three intervals, the
    second a shift of the first; in half of them the polynomial has a
    rational root r that a bisection midpoint of the first interval hits."""
    degree = draw(st.integers(3, 8))

    def poly(degree):
        cs = draw(st.lists(_coefficient, min_size=degree + 1, max_size=degree + 1))
        return tuple(cs[:-1]) + (cs[-1] or 1,)

    if draw(st.booleans()):
        f, first = poly(degree), draw(_intervals)
    else:
        r = draw(_interval_end)
        f = product((-r.numerator, r.denominator), poly(degree - 1))
        delta = Fraction(1, draw(st.integers(1, 8)))
        first = [r - delta, r + (2 ** draw(st.integers(1, 3)) - 1) * delta]
    assume(len(reference_pgcd(f, numbers._pderiv(f))) == 1)
    second = sorted({first[0] + draw(_shift), first[1] + draw(_shift)})
    assume(len(second) == 2)
    return f, [tuple(first), tuple(second), tuple(draw(_intervals))]


@settings(max_examples=100, deadline=None)
@given(compatibility_cases(), st.lists(st.integers(0, 2), max_size=12))
# (t - 1)(t^2 - 3): the first midpoint of (1/2, 3/2) is the root 1, which
# (0, 3/2) holds too and (3/2, 2) does not
@example(([3, -3, -1, 1], [(Fraction(1, 2), Fraction(3, 2)), (0, Fraction(3, 2)),
                           (Fraction(3, 2), 2)]), [0, 1, 0, 2, 0])
def test_compatibility_in_degree_three_and_up_is_the_sturm_overlap(case, refinements):
    f, intervals = case
    minpoly = MinimalPolynomial(f)
    chain = reference_sturm_chain(minpoly.coefficients)
    handles = [
        (RealAlgebraicField(minpoly, (lo, hi)), (lo, hi))
        for lo, hi in intervals
        if reference_count_roots_open(chain, lo, hi) == 1
    ]
    assume(len(handles) >= 2)
    expected = {}
    for i, (_, (lo1, hi1)) in enumerate(handles):
        for j, (_, (lo2, hi2)) in enumerate(handles):
            # the Sturm-overlap rule: one root in the common part
            lo, hi = max(lo1, lo2), min(hi1, hi2)
            expected[i, j] = lo < hi and reference_count_roots_open(chain, lo, hi) == 1
    for k in [None, *refinements]:  # refining either handle changes no answer
        if k is not None:
            handles[k % len(handles)][0].refine_root()
        for (i, j), same in expected.items():
            assert handles[i][0].compatible(handles[j][0]) == same


# -- degree two: root location in closed form, not by Sturm chains ----------


def sturm_branch(minpoly, lo, hi):
    """The branch e of the root (-c1 + e*sqrt(D)) / (2*c2) in (lo, hi), as
    the Sturm-chain construction chose it: -1 below the vertex."""
    c0, c1, c2 = minpoly.coefficients
    vertex = Fraction(-c1, 2 * c2)
    below = hi <= vertex or (lo < vertex and sturm_count(minpoly, lo, vertex) == 1)
    return -1 if below else 1


_ends = st.fractions(min_value=-12, max_value=12, max_denominator=8)


@st.composite
def quadratic_cases(draw):
    """A squarefree quadratic, non-monic at times, and two intervals; for a
    square discriminant the ends fall on or next to the rational roots."""
    if draw(st.booleans()):
        # (q1*t - p1)(q2*t - p2) with distinct roots p1/q1 and p2/q2
        r1, r2 = draw(st.lists(_ends, min_size=2, max_size=2, unique=True))
        (p1, q1), (p2, q2) = (r1.numerator, r1.denominator), (r2.numerator, r2.denominator)
        coeffs = [p1 * p2, -(q1 * p2 + q2 * p1), q1 * q2]
        near = st.sampled_from([r1, r2, r1 - 1, r1 + 1, r2 - 1, r2 + 1, (r1 + r2) / 2]) | _ends
    else:
        coeffs = [draw(st.integers(-30, 30)), draw(st.integers(-30, 30)), draw(st.integers(1, 9))]
        assume(coeffs[1] ** 2 != 4 * coeffs[0] * coeffs[2])
        near = _ends
    ends = st.lists(near, min_size=2, max_size=2, unique=True).map(sorted)
    return coeffs, [tuple(draw(ends)) for _ in range(2)]


@settings(max_examples=200, deadline=None)
@given(quadratic_cases())
def test_quadratic_root_location_matches_sturm(case):
    coeffs, intervals = case
    minpoly = MinimalPolynomial(coeffs)
    c0, c1, c2 = minpoly.coefficients
    handles = []
    for lo, hi in intervals:
        n = sturm_count(minpoly, lo, hi)
        if n == 0:
            with pytest.raises(NoRootInInterval, match="no root inside the interval"):
                RealAlgebraicField(minpoly, (lo, hi))
            continue
        if n > 1:
            with pytest.raises(MultipleRootsInInterval, match="2 roots inside the interval"):
                RealAlgebraicField(minpoly, (lo, hi))
            continue
        field = RealAlgebraicField(minpoly, (lo, hi))
        e = sturm_branch(minpoly, lo, hi)
        assert field._quadratic == (c1, c2, e, c1 * c1 - 4 * c0 * c2)
        assert field._sturm is None
        handles.append(field)
    if len(handles) == 2:
        # the Sturm-overlap rule: one root in the common part of the intervals
        (f, g), ((lo1, hi1), (lo2, hi2)) = handles, intervals
        lo, hi = max(lo1, lo2), min(hi1, hi2)
        overlap = lo < hi and sturm_count(minpoly, lo, hi) == 1
        assert f.compatible(g) == g.compatible(f) == overlap
    for field in handles:
        lo, hi = field.root_interval()
        for _ in range(6):
            field.refine_root()
            if lo != hi:
                lo, hi = reference_bisect(minpoly, lo, hi)
            assert field.root_interval() == (lo, hi)
        assert (field._exact_root is not None) == (lo == hi)


@given(st.integers(-12, 12), st.integers(-12, 12), st.integers(1, 12))
def test_quadratic_squarefree_test_is_the_discriminant(c0, c1, c2):
    cs = (c0, c1, c2)
    repeated = len(reference_pgcd(cs, numbers._pderiv(cs))) > 1
    assert repeated == (c1 * c1 == 4 * c0 * c2)
    if repeated:
        with pytest.raises(NotSquarefree):
            MinimalPolynomial([c0, c1, c2])
    else:
        MinimalPolynomial([c0, c1, c2])


def test_degree_two_handles_build_no_sturm_chain(monkeypatch):
    def refuse(*args):
        raise AssertionError("a degree-two handle ran a Sturm chain")

    for name in ("_sturm_chain", "_count_roots_open", "_pgcd"):
        monkeypatch.setattr(numbers, name, refuse)
    with pytest.raises(NotSquarefree):
        MinimalPolynomial([1, -2, 1])
    other_roots = {GOLDEN: (-1, 0), SQRT2M1: (-3, -2), NON_MONIC: (-2, -1)}
    for field, other in other_roots.items():
        twin = RealAlgebraicField(field.minpoly, field.initial_interval())
        conjugate = RealAlgebraicField(field.minpoly, other)
        assert twin.compatible(field) and field.compatible(twin)
        assert not conjugate.compatible(field) and not twin.compatible(conjugate)
        assert twin.generator() + field.generator() == 2 * field.generator()
        with pytest.raises(MultipleRootsInInterval, match="2 roots"):
            RealAlgebraicField(field.minpoly, (-4, 4))
        with pytest.raises(NoRootInInterval):
            RealAlgebraicField(field.minpoly, (5, 6))
        a = twin.generator()
        for handle in (twin, conjugate):
            for _ in range(12):
                handle.refine_root()
            lo, hi = handle.root_interval()
            assert lo < handle.generator() < hi
        lo0, hi0 = twin.initial_interval()
        lo, hi = twin.root_interval()
        assert hi - lo == (hi0 - lo0) / 2**12  # twelve halvings, no rational root
        assert lo < a < hi


# -- degree three and up: norm and inverse on integers -----------------------

NON_MONIC_CUBIC = RealAlgebraicField([-3, 0, 0, 2], (1, 2))  # (3/2)^(1/3)
FOURTH_ROOT2 = RealAlgebraicField([-2, 0, 0, 0, 1], (1, 2))


@pytest.mark.parametrize("field", [CUBE_ROOT2, NON_MONIC_CUBIC, FOURTH_ROOT2, REDUCIBLE])
def test_norm_and_inverse_do_no_fraction_arithmetic(field):
    rng = random.Random(131)
    d = field.degree
    a = field.generator()
    xs = [a, a - 1, field.from_rational(Fraction(-2, 3))] + [
        random_element(rng, field) for _ in range(12)
    ]
    for x in xs:
        norm, built = count_fractions(x.norm)
        assert built <= d + 1
        columns, y = [], x
        for _ in range(d):
            columns.append(y.coords)
            y = a * y
        assert norm == gauss_jordan_reference(columns)[1]
        if norm:
            inverse, built = count_fractions(x.inverse)
            assert built <= d + 1
            assert x * inverse == 1
        else:  # a zero divisor of the reducible polynomial
            with pytest.raises(DivisionByZero):
                x.inverse()


@pytest.mark.parametrize("field", [CUBE_ROOT2, NON_MONIC_CUBIC, FOURTH_ROOT2, REDUCIBLE])
def test_signs_build_fractions_only_for_bisection_midpoints(field, monkeypatch):
    refines = []
    real_refine = RealAlgebraicField.refine_root
    monkeypatch.setattr(RealAlgebraicField, "refine_root",
                        lambda f: refines.append(f) or real_refine(f))
    rng = random.Random(137)
    a = field.generator()
    lo, hi = approx(a, Fraction(1, 10 ** 6))
    near = [a - lo, a - Fraction(126, 100), hi - a]  # small values
    for x in [a, a - 1, a * a - 2, a - a] + near + [random_element(rng, field) for _ in range(12)]:
        # a fresh handle, so that no earlier sign has refined its interval
        y = RealAlgebraicField(field.minpoly, field.initial_interval()).coerce(x)
        refines.clear()
        sign, built = count_fractions(y.sign)
        assert sign == x.sign()
        assert built <= 4 * len(refines)  # the midpoint of each bisection


def test_the_cubic_pair_decides_as_the_fraction_references(monkeypatch):
    # the classify-docs cubic pair, Z[1/2]<1, a, a^2> against <1, a, 3a^2>
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    workloads = importlib.import_module("workloads")
    a, b = workloads._cubic_doc("1"), workloads._cubic_doc("3")

    def run():
        outputs, calls = [], []
        for bound in ("1", "2", "3"):
            counts = {"sign": 0, "refine": 0, "gcd": 0}
            with monkeypatch.context() as m:
                for owner, name, key in [
                    (numbers, "_numerator_sign", "sign"),
                    (numbers, "_pgcd", "gcd"),
                    (RealAlgebraicField, "refine_root", "refine"),
                ]:
                    real = getattr(owner, name)

                    def counting(*args, real=real, key=key):
                        counts[key] += 1
                        return real(*args)

                    m.setattr(owner, name, counting)
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = main(["classify", a, b, "--search-bound", bound, "--json"])
            outputs.append((code, out.getvalue()))
            calls.append(counts)
        return outputs, calls

    shipped = run()
    with monkeypatch.context() as m:
        reference_numbers(m)
        reference = run()
    assert shipped == reference
    assert all(c["sign"] and c["gcd"] for c in shipped[1])


# -- module coordinates, the slope action and coinvariants on integers -------


def test_membership_coordinates_and_the_slope_action_build_no_fraction():
    a, c = SQRT2M1.generator(), CUBE_ROOT2.generator()
    cube = BreakpointModule(CUBE_ROOT2, [1, c, c * c])
    cases = [  # (module, slope group, points): torsion-only coinvariants
        (thompson_triple(3).module, SlopeGroup([3]), [Fraction(5, 9), Fraction(1, 2)]),
        (BreakpointModule(GOLDEN, [1, GOLDEN.generator()], [2]), SlopeGroup([4]),
         [GOLDEN.generator() / 8, GOLDEN.generator() / 3]),
        (BreakpointModule(SQRT2M1, [1, a]), SlopeGroup([a]), [3 - 5 * a, a / 2]),
        (cube, SlopeGroup([c - 1]), [c * c - 7, c / 2, c ** 2 + 1]),  # Z/6
    ]
    for module, slopes, points in cases:
        inv = coinvariants(SteinTriple(module, slopes))
        assert inv.invariant_factors and inv.free_rank == 0
        points = [module.field.coerce(t) for t in points]
        for mu in map(module.field.coerce, slopes.generator_values()):
            assert count_fractions(lambda: module.multiplication_matrix(mu))[1] == 0
        for t in points:
            assert count_fractions(lambda: module.contains(t))[1] == 0
            assert count_fractions(lambda: module.coordinates(t))[1] == 0
            if module.contains(t):
                assert count_fractions(lambda: class_of(t, inv, module))[1] == 0


# a field, with a unit u of Z[a] in it: a module c*Z[1/m][a] is carried onto
# itself by u times any product of inverted primes
_UNIT_FIELDS = [
    (rational_field(), lambda f: f.one()),
    (GOLDEN, lambda f: f.generator()),
    (SQRT2M1, lambda f: f.generator()),
    (CUBE_ROOT2, lambda f: f.generator() - 1),
]


@st.composite
def slope_modules(draw):
    """A module of degree 1-3 and a slope group that carries it onto
    itself: c*Z[1/m][a] with a unit times a product of inverted primes as
    slope, or any basis with products of inverted primes as slopes.  The
    basis of c*Z[a] is a random unimodular change of c*(1, a, ..., a^(d-1))."""
    field, unit = draw(st.sampled_from(_UNIT_FIELDS))
    d = field.degree
    primes = draw(st.lists(st.sampled_from([2, 3, 5]), unique=True, max_size=2))
    small = st.integers(-3, 3)

    def prime_product():
        return math.prod(Fraction(p) ** draw(st.integers(-2, 2)) for p in primes)

    rational = [g for g in (prime_product() for _ in range(draw(st.integers(1, 2)))) if g != 1]
    if d > 1 and (not rational or draw(st.booleans())):
        scale = Fraction(draw(st.integers(1, 4)), draw(st.integers(1, 4)))
        c = field.element([draw(small) for _ in range(d)]) + scale
        assume(not c.is_zero())
        rows = [[int(i == j) for j in range(d)] for i in range(d)]
        for _ in range(draw(st.integers(0, 4))):
            i, j = draw(st.permutations(range(d)))[:2]
            k = draw(small)
            rows[i] = [x + k * y for x, y in zip(rows[i], rows[j])]
        basis = [c * field.element(row) for row in rows]
        slopes = SlopeGroup([unit(field) * prime_product()])
    else:
        assume(rational)
        rank = draw(st.integers(1, d))
        basis = [field.element([draw(_coords) for _ in range(d)]) for _ in range(rank)]
        assume(gauss_jordan_reference([b.coords for b in basis])[0] == rank)
        slopes = SlopeGroup(rational, field=field)
    assume(primes or len(basis) > 1)
    assume(not slopes.is_trivial())
    return BreakpointModule(field, basis, primes), slopes


@settings(max_examples=80, deadline=None)
@given(slope_modules(), st.data())
def test_coinvariants_and_classes_match_the_fraction_column_clearing(case, data):
    module, slopes = case
    with mock.patch.object(classify, "cokernel_invariants",
                           wraps=classify.cokernel_invariants) as spy:
        inv = coinvariants(SteinTriple(module, slopes))
    assert spy.call_args.args[0] == IntMatrix(reference_coinvariant_rows(module, slopes))
    primes = module.inverted_primes
    for _ in range(4):
        weights = data.draw(st.lists(st.integers(-9, 9), min_size=module.rank(),
                                     max_size=module.rank()))
        t = sum((w * b for w, b in zip(weights, module.basis)), module.field.zero())
        t = t * math.prod(Fraction(p) ** data.draw(st.integers(-2, 2)) for p in primes)
        assert class_of(t, inv, module) == reference_class(t, inv, module)
