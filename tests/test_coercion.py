"""One rule for which numbers enter a field: `RealAlgebraicField.coerce`.

Every rational lies in every field and compatible handles present one
field, so ints, Fractions, rational elements of any handle and elements
of a compatible handle enter a field; an irrational element of another
field raises FieldMismatch.  Equality follows the same rule, and hashes
agree with it.  A float enters no field: as an operand of arithmetic,
order or equality it raises ValidationError.  Nor does a value that is
no number: it raises ValidationError where it enters a field and in
order, TypeError in arithmetic, and equality calls it unequal.
"""

import gc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from steinv import (
    BreakpointModule,
    FieldMismatch,
    PLMap,
    RealAlgebraicField,
    SlopeGroup,
    SteinTriple,
    ValidationError,
    beta_expand,
    cut_point,
    golden_field,
    make_plmap,
    rational_field,
    stein_triple,
    thompson_triple,
)

# (handle, the field it presents): handles with equal labels are compatible
HANDLES = [
    (rational_field(), "Q"),
    (RealAlgebraicField([-3, 1], (2, 4)), "Q"),  # Q again, remembering the root 3
    (golden_field(), "golden"),
    (RealAlgebraicField([-1, -1, 1], (1, 2)), "golden"),
    (RealAlgebraicField([-2, 0, 1], (1, 2)), "sqrt 2"),
    (RealAlgebraicField([-2, 0, 0, 1], (1, 2)), "cube root 2"),
]


@st.composite
def numbers(draw):
    """(value, label, exact): an int, a Fraction or an element of one of
    HANDLES, with the label of its field (None for a rational) and its
    value as a Fraction or as (label, coords)."""
    kind = draw(st.sampled_from(["int", "fraction", "element", "element"]))
    small = st.integers(-6, 6)
    if kind == "int":
        x = draw(small)
        return x, None, Fraction(x)
    if kind == "fraction":
        q = Fraction(draw(small), draw(st.integers(1, 6)))
        return q, None, q
    field, label = draw(st.sampled_from(HANDLES))
    den = draw(st.integers(1, 6))
    coords = [Fraction(draw(small), den) for _ in range(field.degree)]
    if draw(st.booleans()):
        coords[1:] = [0] * (field.degree - 1)  # a rational element
    x = field.element(coords)
    if x.is_rational:
        return x, None, x.coords[0]
    return x, label, (label, x.coords)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(HANDLES), numbers())
def test_coerce_keeps_the_value_or_raises_for_a_foreign_irrational(target, number):
    field, label = target
    x, x_label, exact = number
    if x_label is not None and x_label != label:
        with pytest.raises(FieldMismatch):
            field.coerce(x)
        assert x != field.one() and field.one() != x
        return
    y = field.coerce(x)
    assert y.field is field and y == x and x == y
    if x_label is None:
        assert y.coords == (exact,) + (0,) * (field.degree - 1)
    else:
        assert y.coords == exact[1]


@settings(max_examples=300, deadline=None)
@given(numbers(), numbers())
def test_equality_is_decided_by_value_and_hashes_agree(a, b):
    (x, _, x_exact), (y, _, y_exact) = a, b
    assert (x == y) == (x_exact == y_exact)
    if x == y:
        assert hash(x) == hash(y)


def test_rationals_compare_and_hash_equal_across_handles():
    q, g = rational_field(), golden_field()
    half = Fraction(1, 2)
    assert q.one() == 1 and q.one() in {1}
    assert g.from_rational(half) == q.from_rational(half) == half
    assert {g.from_rational(half), q.from_rational(half), half} == {half}
    phi = g.generator()
    assert phi + q.from_rational(half) == phi + half
    assert (phi + q.from_rational(half)).field is g


def test_coercion_keeps_no_handle_alive():
    # compatibility is a comparison of root keys, so a handle remembers
    # none of the handles whose elements it took in
    def golden_handles_on_1_2():
        return sum(
            isinstance(o, RealAlgebraicField)
            and o.minpoly.coefficients == (-1, -1, 1)
            and o.initial_interval() == (1, 2)
            for o in gc.get_objects()
        )

    g = golden_field()
    gc.collect()
    before = golden_handles_on_1_2()
    for _ in range(1000):
        handle = RealAlgebraicField([-1, -1, 1], (1, 2))
        assert g.coerce(handle.generator() + 1) == g.generator() + 1
    del handle
    gc.collect()
    assert golden_handles_on_1_2() == before


# -- every public entry applies the rule -------------------------------------

Q, GOLDEN = rational_field(), golden_field()
SQRT2 = RealAlgebraicField([-2, 0, 1], (1, 2))
DYADIC = thompson_triple(2)
PHI = GOLDEN.generator()

# entry -> (apply, native rational, foreign rational, foreign irrational)
ON_Q = (Q.from_rational(Fraction(1, 2)), GOLDEN.from_rational(Fraction(1, 2)), PHI - 1)
ON_GOLDEN = (GOLDEN.one(), Q.one(), SQRT2.generator() + 1)
ENTRIES = {
    "FieldElement.__add__": (lambda x: Q.from_rational(Fraction(1, 4)) + x, ON_Q),
    "FieldElement.__lt__": (lambda x: Q.zero() < x, ON_Q),
    "BreakpointModule": (lambda x: BreakpointModule(Q, [x], [2]), ON_Q),
    "BreakpointModule.coordinates": (DYADIC.module.coordinates, ON_Q),
    "BreakpointModule.contains": (DYADIC.module.contains, ON_Q),
    "BreakpointModule.multiplication_matrix": (DYADIC.module.multiplication_matrix, ON_Q),
    "BreakpointModule.scaled": (DYADIC.module.scaled, ON_Q),
    "SlopeGroup": (lambda x: SlopeGroup([x], field=Q), ON_Q),
    "SteinTriple.endpoint": (lambda x: SteinTriple(DYADIC.module, DYADIC.slopes, x), ON_Q),
    "SteinTriple.slopes": (
        lambda x: SteinTriple(DYADIC.module, SlopeGroup([2 * x + 1]), 1), ON_Q
    ),
    "stein_triple": (lambda x: stein_triple([1], [2], [x], endpoint=1), ON_Q),
    "cut_point": (lambda x: cut_point(DYADIC, x, "+"), ON_Q),
    "PLMap.__call__": (lambda x: PLMap.identity(DYADIC)(x), ON_Q),
    "make_plmap": (lambda x: make_plmap(DYADIC, [(0, 1, 0), (x, 1, 0)]), ON_Q),
    "SlopeGroup.coordinates": (SlopeGroup([PHI]).coordinates, ON_GOLDEN),
    "SlopeGroup.contains": (SlopeGroup([PHI]).contains, ON_GOLDEN),
    "beta_expand": (lambda x: beta_expand(x / 2, "+"), ON_GOLDEN),
}


@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_entry_takes_a_foreign_rational_and_rejects_a_foreign_irrational(entry):
    apply, (native, foreign_rational, foreign_irrational) = ENTRIES[entry]
    assert foreign_rational.field is not native.field
    assert apply(foreign_rational) == apply(native)
    with pytest.raises(FieldMismatch):
        apply(foreign_irrational)


def test_slope_group_membership_of_a_foreign_irrational_raises():
    # it used to answer None and False: the search ran in no field at all
    group = SlopeGroup([PHI])
    assert group.coordinates(Q.one()) == (0,) and group.contains(Q.one())
    assert group.coordinates(Q.from_rational(2)) is None
    for entry in (group.coordinates, group.contains):
        with pytest.raises(FieldMismatch, match="not in"):
            entry(SQRT2.generator() + 1)


NON_NUMBER_ENTRIES = {
    "make_plmap": lambda: make_plmap(DYADIC, [("0", 1, 0)]),
    "BreakpointModule": lambda: BreakpointModule(Q, ["a"]),
    "SlopeGroup": lambda: SlopeGroup(["2"]),
}


@pytest.mark.parametrize("entry", sorted(NON_NUMBER_ENTRIES))
def test_a_non_number_entering_a_field_raises_validation_error(entry):
    # a SteinError, so the command line exits 2 instead of printing a traceback
    with pytest.raises(ValidationError, match="^str is not a number$"):
        NON_NUMBER_ENTRIES[entry]()


def test_a_non_number_operand_keeps_pythons_protocol():
    # order refuses it as it refuses a float; arithmetic and == do not coerce it
    with pytest.raises(ValidationError, match="^str is not a number$"):
        PHI < "a"
    with pytest.raises(TypeError):
        PHI + "a"
    assert PHI != "a" and not PHI == "a"


# -- a float is refused by every operator ------------------------------------

FLOAT_OPERATIONS = {
    "x + 0.5": lambda x: x + 0.5,
    "0.5 + x": lambda x: 0.5 + x,
    "x - 0.5": lambda x: x - 0.5,
    "0.5 - x": lambda x: 0.5 - x,
    "x * 0.5": lambda x: x * 0.5,
    "0.5 * x": lambda x: 0.5 * x,
    "x / 0.5": lambda x: x / 0.5,
    "0.5 / x": lambda x: 0.5 / x,
    "x == 0.5": lambda x: x == 0.5,
    "0.5 == x": lambda x: 0.5 == x,
    "x < 0.5": lambda x: x < 0.5,
    "0.5 < x": lambda x: 0.5 < x,
}


@pytest.mark.parametrize("operation", sorted(FLOAT_OPERATIONS))
@pytest.mark.parametrize("x", [Q.one(), PHI], ids=["rational", "golden"])
def test_a_float_operand_raises_validation_error(operation, x):
    # it used to raise a bare TypeError, and == answered False
    with pytest.raises(ValidationError, match="0.5 is a float"):
        FLOAT_OPERATIONS[operation](x)


@pytest.mark.parametrize("x", [PHI, PLMap.identity(DYADIC)], ids=["element", "plmap"])
def test_a_float_exponent_raises_validation_error(x):
    # it used to raise a bare TypeError; a non-number still gives TypeError
    with pytest.raises(ValidationError, match="exponent 0.5 is a float"):
        x ** 0.5
    with pytest.raises(TypeError):
        x ** "2"


@pytest.mark.parametrize(
    "group", [SlopeGroup([2]), SlopeGroup([]), SlopeGroup([PHI])],
    ids=["rational", "trivial", "irrational"],
)
def test_float_slope_group_membership_raises_validation_error(group):
    # a rational group used to raise AttributeError from the float
    for entry in (group.coordinates, group.contains):
        with pytest.raises(ValidationError, match="0.5 is a float"):
            entry(0.5)
