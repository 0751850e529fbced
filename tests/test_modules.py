"""Breakpoint modules, slope groups, and scale equivalence."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from steinv import (
    BoundExceeded,
    BreakpointModule,
    DependentBasis,
    FieldMismatch,
    RealAlgebraicField,
    SlopeGroup,
    SteinTriple,
    ValidationError,
    algebraic_triple,
    golden_field,
    golden_triple,
    rational_field,
    scale_equivalence,
    stein_triple,
    thompson_triple,
)
from steinv import modules
from steinv.modules import thompson_base
from steinv.numbers import _bareiss
from references import count_fractions, reference_carries


# -- slope groups -----------------------------------------------------------


def test_slope_group_rank():
    assert SlopeGroup([2]).rank() == 1
    assert SlopeGroup([2, 3]).rank() == 2
    assert SlopeGroup([2, 4]).rank() == 1  # 4 = 2^2
    assert SlopeGroup([4, 8]).rank() == 1  # both powers of 2
    assert SlopeGroup([Fraction(5, 2), 10]).rank() == 2
    assert SlopeGroup([6, 10, 15]).rank() == 3


def test_slope_group_contains():
    g = SlopeGroup([2, 3])
    for mu in (1, 2, 3, 6, Fraction(2, 3), Fraction(9, 8), Fraction(1, 12)):
        assert g.contains(mu)
    assert not g.contains(5)
    assert not g.contains(Fraction(5, 2))

    h = SlopeGroup([4, 8])  # = <2> since gcd of exponents is 1
    assert h.contains(2)
    assert h.contains(Fraction(1, 2))

    k = SlopeGroup([4])
    assert not k.contains(2)
    assert k.contains(16)
    # an irrational is no product of prime powers
    assert not g.contains(golden_field().generator())


def test_slope_group_equality():
    assert SlopeGroup([2, 3]).equals(SlopeGroup([6, Fraction(1, 3)]))
    assert SlopeGroup([4, 8]).equals(SlopeGroup([2]))
    # <6, 2/3> has exponent lattice of index 2 inside <2, 3>
    assert not SlopeGroup([2, 3]).equals(SlopeGroup([6, Fraction(2, 3)]))
    assert not SlopeGroup([2, 3]).equals(SlopeGroup([2, 9]))
    assert not SlopeGroup([2]).equals(SlopeGroup([3]))
    assert SlopeGroup([2, 3]) == SlopeGroup([3, 2])
    assert hash(SlopeGroup([2, 3])) == hash(SlopeGroup([6, Fraction(1, 3)]))


def test_slope_group_rejects_bad_generators():
    with pytest.raises(ValidationError, match="1 is not allowed as a generator"):
        SlopeGroup([1])
    with pytest.raises(ValidationError, match="slope generators must be positive"):
        SlopeGroup([-2])
    with pytest.raises(ValidationError, match="slope generators must be positive"):
        SlopeGroup([0])
    b = golden_field().generator()
    with pytest.raises(ValidationError, match="cannot mix rational and irrational slope"):
        SlopeGroup([b, 2])  # mixed irrational and rational
    with pytest.raises(ValidationError, match="at most one irrational slope generator"):
        SlopeGroup([b, b + 1])


def test_algebraic_slope_group_canonical_generator():
    b = golden_field().generator()
    small = SlopeGroup([b - 1])  # 1/b, canonicalized to b
    big = SlopeGroup([b])
    assert small.equals(big)
    assert big.contains(b ** 3)
    assert big.contains(b.inverse())
    assert not big.contains(2 * b)


def test_algebraic_slope_groups_incomparable_across_fields():
    b = golden_field().generator()
    a = RealAlgebraicField([-1, 2, 1], (Fraction(2, 5), Fraction(1, 2))).generator()
    assert SlopeGroup([b]).equals(SlopeGroup([a + 1])) is None
    assert SlopeGroup([b]) != SlopeGroup([a + 1])
    # mixed kinds compare cleanly as unequal
    assert not SlopeGroup([b]).equals(SlopeGroup([2]))


def test_contains_bound_exceeded(monkeypatch):
    # the cap only bites in the algebraic exponent search
    monkeypatch.setattr(modules, "_EXPONENT_CAP", 10)
    b = golden_field().generator()
    g = SlopeGroup([b])
    with pytest.raises(BoundExceeded):
        g.contains(b ** 60)
    assert g.contains(b ** 8)
    assert SlopeGroup([2]).contains(2 ** 12000)  # factored, no search


SUPPORT = (2, 3, 5, 7)


def value_of(exponents):
    """The rational with these exponents over SUPPORT, by Fraction powers."""
    value = Fraction(1)
    for p, e in zip(SUPPORT, exponents):
        value *= Fraction(p) ** e
    return value


exponent_rows = st.lists(
    st.lists(st.integers(-3, 3), min_size=4, max_size=4).filter(any), min_size=1, max_size=3
)


@given(exponent_rows, st.integers(1, 3), st.data())
def test_slope_coordinates_rebuild_the_number(rows, m, data):
    # the group of the m-th powers of the rows: its exponent lattice is m*L
    group = SlopeGroup([value_of([m * e for e in row]) for row in rows])
    gens = group.generator_values()
    for row in rows:  # each generator is rebuilt from its coordinates
        g = value_of([m * e for e in row])
        coords = group.coordinates(g)
        assert math.prod(h ** c for h, c in zip(gens, coords)) == g
    c = data.draw(st.lists(st.integers(-4, 4), min_size=len(gens), max_size=len(gens)))
    mu = math.prod((h ** k for h, k in zip(gens, c)), start=Fraction(1))
    assert group.coordinates(mu) == tuple(c)
    assert group.coordinates(mu * 11) is None  # 11 is outside the support
    support = [p for j, p in enumerate(SUPPORT) if any(row[j] for row in rows)]
    if len(rows) < len(support):  # some prime of the support is outside the span
        assert any(group.coordinates(mu * p) is None for p in support)
    for row in rows:
        # a primitive row r is not in m*L for m >= 2, since r/m is not integral
        if m > 1 and math.gcd(*row) == 1:
            assert group.coordinates(mu * value_of(row)) is None


def test_slope_coordinates_in_the_golden_group():
    b = golden_field().generator()
    for group in (SlopeGroup([b]), SlopeGroup([b - 1])):  # b - 1 = 1/b
        for k in range(-30, 31):
            assert group.coordinates(b ** k) == (k,)
        assert group.coordinates(2 * b) is None


# -- breakpoint modules -----------------------------------------------------


def test_rational_module_membership():
    m = BreakpointModule(rational_field(), [1], [2])
    assert m.contains(Fraction(3, 8))
    assert m.contains(5)
    assert not m.contains(Fraction(1, 3))
    assert m.coordinates(Fraction(3, 4)) == ((3,), 4)
    # inside the rational span but with an unsupported denominator
    assert m.coordinates(Fraction(1, 5)) == ((1,), 5)
    assert not m.contains(Fraction(1, 5))


def test_module_requires_density():
    with pytest.raises(ValidationError, match="no inverted primes is discrete"):
        BreakpointModule(rational_field(), [1], [])  # plain Z is discrete
    # rank 2 without inverted primes is fine
    f = golden_field()
    BreakpointModule(f, [f.one(), f.generator()])


def test_module_refuses_inverted_primes_that_are_not_integers():
    # only ints enter: int() would truncate 2.5 to 2 and 7/2 to 3
    for p in (2.5, Fraction(7, 2), 2.0, "3"):
        with pytest.raises(ValidationError, match="is not an integer"):
            BreakpointModule(rational_field(), [1], [p])
    with pytest.raises(ValidationError, match="4 is not prime"):
        BreakpointModule(rational_field(), [1], [4])
    assert BreakpointModule(rational_field(), [1], [3, 2, 3]).inverted_primes == (2, 3)


def test_module_rejects_dependent_basis():
    f = golden_field()
    with pytest.raises(DependentBasis):
        BreakpointModule(f, [f.one(), f.from_rational(2)])


def test_golden_module_membership():
    f = golden_field()
    b = f.generator()
    m = BreakpointModule(f, [f.one(), b])
    assert m.contains(b)
    assert m.contains(b * b)  # 1 + b
    assert m.contains(3 - 2 * b)
    assert not m.contains(b / 2)
    assert m.coordinates(b * b) == ((1, 1), 1)


def test_multiplication_matrix_columns():
    f = golden_field()
    b = f.generator()
    m = BreakpointModule(f, [f.one(), b])
    mat = m.multiplication_matrix(b)
    # column j holds the coordinates of b * basis[j]: b*1 = b, b*b = 1 + b
    assert mat == (((0, 1), 1), ((1, 1), 1))
    with pytest.raises(ValidationError, match="not closed under multiplication by 1/2"):
        m.multiplication_matrix(f.from_rational(Fraction(1, 2)))


def test_multiplication_matrix_rational_case():
    m = BreakpointModule(rational_field(), [1], [2, 5])
    assert m.multiplication_matrix(Fraction(5, 2)) == (((5,), 2),)
    with pytest.raises(ValidationError, match="not closed under multiplication by 1/3"):
        m.multiplication_matrix(Fraction(1, 3))


def test_scaled_and_same_module():
    m = BreakpointModule(rational_field(), [1], [2])
    # Z[1/2] is carried to itself by any dyadic scalar
    assert m.scaled(Fraction(1, 2)).same_module(m)
    assert m.scaled(3).same_module(m) is False
    f = golden_field()
    b = f.generator()
    golden = BreakpointModule(f, [f.one(), b])
    assert golden.scaled(b).same_module(golden)  # b is a unit of Z[b]
    assert golden.scaled(b ** -3).same_module(golden)


def test_structural_equality():
    a = BreakpointModule(rational_field(), [1], [2, 3])
    b = BreakpointModule(rational_field(), [1], [3, 2])
    assert a == b
    assert hash(a) == hash(b)
    assert a != BreakpointModule(rational_field(), [1], [2])


# -- scale equivalence ------------------------------------------------------


def test_scale_identical_modules():
    m = BreakpointModule(rational_field(), [1], [2])
    res = scale_equivalence(m, m)
    assert res.found
    assert res.scalar == 1


@pytest.mark.parametrize("bound", [1.5, "2"])
def test_scale_search_bound_that_is_not_an_int_raises_validation_error(bound):
    m = BreakpointModule(rational_field(), [1], [2])
    with pytest.raises(ValidationError, match="is not an integer"):
        scale_equivalence(m, m, bound)


def test_scale_related_rational_modules():
    m1 = BreakpointModule(rational_field(), [1], [2])
    m2 = BreakpointModule(rational_field(), [Fraction(1, 3)], [2])
    res = scale_equivalence(m1, m2)
    assert res.found
    # any dyadic multiple of 3 carries m2 onto m1
    q = res.scalar.as_fraction()
    assert (q * Fraction(1, 3)).denominator in (1, 2, 4, 8)
    assert reference_carries(res.scalar, m2, m1)


def test_scale_distinct_prime_support():
    m1 = BreakpointModule(rational_field(), [1], [2])
    m2 = BreakpointModule(rational_field(), [1], [3])
    res = scale_equivalence(m1, m2)
    assert res.outcome == "distinct"
    assert not res.found


def test_scale_golden_conjugate_modules():
    f = golden_field()
    b = f.generator()
    m1 = BreakpointModule(f, [f.one(), b])
    m2 = BreakpointModule(f, [2 * f.one(), 2 * b])
    res = scale_equivalence(m1, m2)
    assert res.found
    assert reference_carries(res.scalar, m2, m1)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_scale_shells_keep_the_sorted_box_order(n):
    # the order the box was once built and sorted in, so witnesses stay put
    for bound in range(5):
        box = itertools.product(range(-bound, bound + 1), repeat=n)
        ordered = sorted(box, key=lambda v: (max(map(abs, v)), v))[1:]
        assert [v for r in range(1, bound + 1) for v in modules._shell(n, r)] == ordered


def cube_root_two_module(rank):
    field = RealAlgebraicField([-2, 0, 0, 1], (Fraction(5, 4), Fraction(4, 3)))
    a = field.generator()
    return BreakpointModule(field, [field.one(), a, a * a][:rank])


def test_scale_different_fields_is_unknown():
    f = golden_field()
    phi_module = BreakpointModule(f, [f.one(), f.generator()])
    res = scale_equivalence(cube_root_two_module(3), phi_module)
    assert (res.outcome, res.obstruction) == ("unknown", "different fields")


def test_scale_module_ranks_differ():
    res = scale_equivalence(cube_root_two_module(3), cube_root_two_module(2))
    assert (res.outcome, res.obstruction) == ("distinct", "module ranks differ")


# -- one determinant decides every module map -------------------------------


CUBIC = cube_root_two_module(3).field
PRIME_SETS = [(), (2,), (2, 5), (2, 3, 5)]
# one factor of each kind: a unit of every Z[1/m] drawn, units of some, and
# primes no m drawn inverts
FACTORS = [1, -1, 2, Fraction(1, 2), 5, 3, Fraction(1, 3), 7]


@st.composite
def module_maps(draw, full_rank=False):
    """(s, G2, G1) with G1 the span of s0 * G2's basis under an integer
    matrix that is often invertible over Z[1/m], or of a random basis,
    and s = s0 times a rational factor; degrees 1-3, full and lower rank."""
    fields = [golden_field(), CUBIC] if full_rank else [rational_field(), golden_field(), CUBIC]
    field = draw(st.sampled_from(fields))
    d = field.degree
    primes = draw(st.sampled_from(PRIME_SETS))
    other = draw(st.sampled_from([primes] * 4 + PRIME_SETS))
    rank = d if full_rank else draw(st.integers(1, d))
    assume(rank > 1 or (primes and other))  # a rank-one module needs an inverted prime
    coord = st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 1, 2, 3, 5]))

    def element():
        return field.element(draw(st.lists(coord, min_size=d, max_size=d)))

    basis = [element() for _ in range(rank)]
    s0 = element()
    assume(not s0.is_zero())
    if draw(st.integers(0, 4)):
        points = [s0 * b for b in basis]
        for _ in range(draw(st.integers(0, 3))):  # elementary column operations
            i, j = draw(st.integers(0, rank - 1)), draw(st.integers(0, rank - 1))
            if i != j:
                points[i] = points[i] + draw(st.sampled_from([-2, -1, 1, 2])) * points[j]
        k = draw(st.integers(0, rank - 1))
        points[k] = draw(st.sampled_from(FACTORS)) * points[k]
    else:
        points = [element() for _ in range(rank)]
    try:
        g2 = BreakpointModule(field, basis, primes)
        g1 = BreakpointModule(field, points, other)
    except DependentBasis:
        assume(False)
    return s0 * draw(st.sampled_from(FACTORS)), g2, g1


@settings(max_examples=300, deadline=None)
@given(module_maps())
def test_carries_agrees_with_two_sided_membership(case):
    s, g2, g1 = case
    assert modules._carries(s, g2, g1) == reference_carries(s, g2, g1)
    assert g1.same_module(g2) == reference_carries(1, g2, g1)


def test_carries_tells_apart_what_membership_alone_cannot():
    q = rational_field()
    z10, z30 = BreakpointModule(q, [1], [2, 5]), BreakpointModule(q, [1], [2, 3, 5])
    dyadic, three = BreakpointModule(q, [1], [2]), BreakpointModule(q, [3], [2])
    # each of Z[1/10] and Z[1/30] contains the other's basis, and 3 * Z[1/2]
    # lies in Z[1/2] without being all of it
    for s, g2, g1, carried in [
        (1, z10, z30, False), (1, z30, z10, False), (3, z10, z10, False),
        (1, three, dyadic, False), (Fraction(1, 3), three, dyadic, True),
    ]:
        assert modules._carries(s, g2, g1) == reference_carries(s, g2, g1) == carried


@settings(max_examples=40, deadline=None)
@given(module_maps(full_rank=True))
def test_the_norm_prefilter_keeps_every_scalar_the_reference_accepts(case):
    _, g2, g1 = case
    assume(g1.inverted_primes == g2.inverted_primes)
    passed = []
    with pytest.MonkeyPatch.context() as patch:  # every candidate that passes the prefilter
        patch.setattr(modules, "_carries", lambda s, g2, g1: passed.append(s) and False)
        scale_equivalence(g1, g2, search_bound=2)
    for r in (1, 2):
        for coeffs in modules._shell(g1.rank(), r):
            h = sum((c * b for c, b in zip(coeffs, g1.basis)), g1.field.zero())
            s = h / g2.basis[0]
            if s.sign() > 0 and reference_carries(s, g2, g1):
                assert s in passed


def test_the_determinant_tests_build_no_fraction():
    f = golden_field()
    b = f.generator()
    g = BreakpointModule(f, [f.one(), b], [2])
    h = BreakpointModule(f, [2 * f.one(), 2 * b], [2])
    t = BreakpointModule(f, [3 * f.one(), 3 * b], [2])
    assert count_fractions(lambda: h.same_module(g)) == (True, 0)
    assert count_fractions(lambda: t.same_module(g)) == (False, 0)
    slopes = SlopeGroup([b])
    assert count_fractions(lambda: SteinTriple(g, slopes))[1] == 0
    columns = t.multiplication_matrix(3)
    assert count_fractions(lambda: t._spanned_by(columns)) == (False, 0)


@pytest.mark.parametrize("module, slope, shown", [
    (BreakpointModule(rational_field(), [1], [2]), 3, "1/3"),
    (BreakpointModule(golden_field(), [1, golden_field().generator()]), 2, "1/2"),
])
def test_a_slope_whose_inverse_leaves_the_module_is_named(module, slope, shown):
    with pytest.raises(ValidationError, match="not closed under multiplication by") as caught:
        SteinTriple(module, SlopeGroup([slope], field=module.field))
    assert str(caught.value) == f"module is not closed under multiplication by {shown}"


# -- triples ----------------------------------------------------------------


def test_triple_validates_closure():
    with pytest.raises(ValidationError, match="not closed under multiplication by 1/3"):
        stein_triple([1], [2], [3], endpoint=1)  # 3 * Z[1/2] not inside Z[1/2]


def test_triple_validates_endpoint():
    with pytest.raises(ValidationError, match="endpoint is not a module point"):
        stein_triple([1], [2], [2], endpoint=Fraction(1, 3))
    with pytest.raises(ValidationError, match="endpoint must be positive"):
        stein_triple([1], [2], [2], endpoint=0)
    with pytest.raises(ValidationError, match="endpoint must be positive"):
        stein_triple([1], [2], [2], endpoint=-1)


def test_triple_endpoint_optional():
    t = stein_triple([1], [2], [2])
    assert t.endpoint is None
    with pytest.raises(ValidationError, match="this operation needs an endpoint"):
        t.require_endpoint()


def test_thompson_builder():
    t = thompson_triple(6)
    assert t.module.inverted_primes == (2, 3)
    assert t.slopes.contains(6)
    assert not t.slopes.contains(2)
    assert t.require_endpoint() == 1
    with pytest.raises(Exception):
        thompson_triple(1)


def test_thompson_builder_refuses_what_is_not_an_integer_from_2_with_validation_error():
    for n, message in [
        ("2", "'2' is not an integer"),
        (None, "NoneType is not a number"),
        (1.5, "1.5 is a float; give an int, a Fraction or a 'p/q' string"),
        (True, "the base must be at least 2"),
        (Fraction(5, 2), "Fraction(5, 2) is not an integer"),
    ]:
        with pytest.raises(ValidationError) as info:
            thompson_triple(n)
        assert str(info.value) == message


def test_golden_builder():
    t = golden_triple()
    b = t.field.generator()
    assert t.module.contains(b)
    assert t.slopes.contains(b)
    assert t.endpoint == 1
    t2 = golden_triple(endpoint=b)
    assert t2.endpoint == b


def test_algebraic_builder():
    t = algebraic_triple([-1, 2, 1], (Fraction(2, 5), Fraction(1, 2)))
    a = t.field.generator()
    assert t.module.contains(a)
    assert t.module.contains(a * a)  # 1 - 2a stays in Z[a]
    assert t.slopes.contains(a.inverse())


def test_triple_equality_and_field_mismatch():
    t1 = thompson_triple(2)
    t2 = thompson_triple(2)
    assert t1 == t2
    assert hash(t1) == hash(t2)
    assert t1 != thompson_triple(3)
    unbounded = stein_triple([1], [2], [2])
    assert unbounded == stein_triple([1], [2], [2])
    assert t1 != unbounded and unbounded != t1  # an endpoint on one side only
    assert t1 != thompson_triple(2, 2)  # different endpoints
    f = golden_field()
    with pytest.raises(FieldMismatch):
        SteinTriple(
            BreakpointModule(rational_field(), [1], [2]),
            SlopeGroup([f.generator()]),
            1,
        )


def test_random_module_membership_is_linear():
    rng = random.Random(211)
    f = golden_field()
    b = f.generator()
    m = BreakpointModule(f, [f.one(), b], [2])
    for _ in range(60):
        x = f.element([Fraction(rng.randint(-40, 40), 2 ** rng.randint(0, 5)),
                       Fraction(rng.randint(-40, 40), 2 ** rng.randint(0, 5))])
        y = f.element([Fraction(rng.randint(-40, 40), 2 ** rng.randint(0, 5)),
                       Fraction(rng.randint(-40, 40), 2 ** rng.randint(0, 5))])
        assert m.contains(x) and m.contains(y)
        assert m.contains(x - y)
        assert m.contains(2 * x + 3 * y)
    # an uninverted prime in the denominator is fatal
    assert not m.contains(f.one() / 5)
    assert not m.contains(b / 3)


# -- the rational elimination against sympy --------------------------------


_entries = st.one_of(st.just(0), st.integers(-12, 12))


@st.composite
def systems(draw):
    """Columns of a small integer matrix, often square, with zeros and
    repeated columns so that row swaps and singular matrices occur, and
    a right-hand side."""
    rows = draw(st.integers(1, 4))
    count = draw(st.one_of(st.just(rows), st.integers(1, 4)))
    pool = st.lists(_entries, min_size=rows, max_size=rows)
    columns = draw(st.lists(pool, min_size=count, max_size=count))
    if count > 1 and draw(st.booleans()):
        columns[-1] = list(draw(st.sampled_from(columns[:-1])))
    return columns, draw(pool)


@given(systems())
def test_bareiss_matches_sympy(sympy, system):
    columns, target = system
    n = len(columns)
    a = sympy.Matrix(len(target), n, lambda i, j: columns[j][i])
    rows = [[*row, y] for row, y in zip(zip(*columns), target)]
    rank, p, det = _bareiss(rows, n)
    assert rank == a.rank()
    if a.is_square:
        assert det == a.det()
    # the pivot rows over the last pivot are the reduced row echelon form
    reduced = [[sympy.Rational(x, p) for x in row[:n]] for row in rows]
    assert reduced == a.rref()[0].tolist()
    solution = None
    if rank == n and not any(row[n] for row in rows[n:]):
        solution = [sympy.Rational(row[n], p) for row in rows[:n]]
    try:
        x, free = a.gauss_jordan_solve(sympy.Matrix(target))
    except ValueError:  # no solution
        assert solution is None
        return
    if free.shape[0]:
        assert solution is None
    else:
        assert list(solution) == list(x)


# -- Thompson-base detection -------------------------------------------------


def test_thompson_base_detection():
    assert thompson_base(thompson_triple(6)) == 6
    assert thompson_base(stein_triple([Fraction(3, 2)], [2, 3], [Fraction(1, 6)])) == 6
    assert thompson_base(thompson_triple(1000000000000000003)) == 1000000000000000003
    assert thompson_base(stein_triple([5], [2, 3], [6])) is None  # 5 is no unit
    assert thompson_base(stein_triple([1], [2, 3], [2, 3])) is None  # rank two
    assert thompson_base(stein_triple([1], [2, 3], [2])) is None  # Z[1/6], <2>
    assert thompson_base(stein_triple([1], [2, 3], [Fraction(3, 2)])) is None
    assert thompson_base(golden_triple()) is None
