"""Exact arithmetic in real algebraic number fields."""

import random
from fractions import Fraction

import pytest

from steinv import numbers
from steinv import (
    BoundExceeded,
    DivisionByZero,
    FieldMismatch,
    MinimalPolynomial,
    MultipleRootsInInterval,
    NoRootInInterval,
    NotSquarefree,
    SteinError,
    ZeroLeadingCoefficient,
    approx,
    make_field,
    rational_field,
    sign_of,
)

GOLDEN = make_field([-1, -1, 1], (Fraction(3, 2), Fraction(5, 3)))
SQRT2M1 = make_field([-1, 2, 1], (Fraction(2, 5), Fraction(1, 2)))


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
    with pytest.raises(ZeroLeadingCoefficient):
        MinimalPolynomial([Fraction(1, 2), 1])
    with pytest.raises(NotSquarefree):
        MinimalPolynomial([1, -2, 1])  # (x-1)^2


def test_root_isolation_errors():
    with pytest.raises(NoRootInInterval):
        make_field([-2, 0, 1], (2, 3))
    with pytest.raises(MultipleRootsInInterval):
        make_field([-2, 0, 1], (-2, 2))  # both square roots of 2


def test_interval_refinement_keeps_initial():
    f = make_field([-2, 0, 1], (1, 2))
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
    assert a * (a + 2) == 1  # (sqrt2-1)(sqrt2+1) = 1
    assert a.inverse() == a + 2
    assert 0 < a < 1


def test_element_pads_and_rejects_long_coords():
    x = GOLDEN.element([1])
    assert x.coords == (Fraction(1), Fraction(0))
    with pytest.raises(FieldMismatch):
        GOLDEN.element([1, 2, 3])


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
    with pytest.raises(DivisionByZero):
        GOLDEN.zero().inverse()


def test_sign_and_ordering():
    b = GOLDEN.generator()
    assert sign_of(b - 1) == 1
    assert sign_of(1 - b) == -1
    assert sign_of(b * b - b - 1) == 0
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


def test_hash_consistent_with_eq():
    b = GOLDEN.generator()
    assert hash(b + 1) == hash(1 + b)
    seen = {b, b + 1, b, GOLDEN.one()}
    assert len(seen) == 3


def random_element(rng, field):
    return field.element(
        [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(field.degree)]
    )


@pytest.mark.parametrize("field", [GOLDEN, SQRT2M1, rational_field()])
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
        if not y.is_zero():
            assert (x / y) * y == x
            assert y * y.inverse() == 1


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


def test_total_order_random():
    rng = random.Random(107)
    for _ in range(40):
        x = random_element(rng, GOLDEN)
        y = random_element(rng, GOLDEN)
        assert (x < y) + (x == y) + (y < x) == 1
        if x < y:
            assert x + 1 < y + 1
            assert 2 * x < 2 * y


def test_pow_edge_cases():
    b = GOLDEN.generator()
    assert b ** 0 == 1
    assert b ** 1 == b
    assert b ** -1 == b.inverse()
    with pytest.raises(DivisionByZero):
        GOLDEN.zero() ** -1
    assert GOLDEN.zero() ** 0 == 1  # convention


def test_compatible_fields_share_elements():
    other = make_field([-1, -1, 1], (Fraction(8, 5), Fraction(17, 10)))
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


def test_quadratic_sign_on_the_lower_root():
    # the root of x^2 - x - 1 in (-1, 0) is (1 - sqrt 5)/2 = -0.6180...
    psi = make_field([-1, -1, 1], (-1, 0)).generator()
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
    field = make_field([-1, -1, 1], (Fraction(3, 2), Fraction(5, 3)))
    x = field.generator() * fib[n] - fib[n + 1]
    assert x.sign() == (-1) ** (n + 1)
    assert field.root_interval() == field.initial_interval()


def test_quadratic_sign_zero_on_a_reducible_polynomial():
    # x^2 - x = x(x - 1); the interval straddles the vertex 1/2 and holds 1
    f = make_field([0, -1, 1], (Fraction(1, 3), Fraction(3, 2)))
    a = f.generator()
    assert (a - 1).sign() == 0
    assert a.sign() == 1
    assert (a - 2).sign() == -1
    assert (a - Fraction(99, 100)).sign() == 1


def test_cubic_zero_is_found_by_the_deferred_gcd(monkeypatch):
    # (x - 1)(x^2 - 2), with only the root 1 inside (9/10, 6/5)
    f = make_field([2, -2, -1, 1], (Fraction(9, 10), Fraction(6, 5)))
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
    f = make_field([-2, 0, 0, 1], (Fraction(5, 4), Fraction(4, 3)))  # 2^(1/3)
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


def test_bounded_loops_raise_bound_exceeded(monkeypatch):
    monkeypatch.setattr(numbers, "_MAX_REFINEMENTS", 2)
    f = make_field([-2, 0, 0, 1], (Fraction(5, 4), Fraction(4, 3)))
    x = f.generator() - Fraction(126, 100)
    with pytest.raises(BoundExceeded):
        x.sign()
    with pytest.raises(BoundExceeded):
        approx(x, Fraction(1, 10 ** 9))
    assert issubclass(BoundExceeded, SteinError)
