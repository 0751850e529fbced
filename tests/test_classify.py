"""Coinvariant computations and the isomorphism decision procedure."""

import math
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from steinv import (
    BreakpointModule,
    SlopeGroup,
    SteinTriple,
    UnsupportedGamma,
    ValidationError,
    algebraic_triple,
    class_of,
    classify_pair,
    coinvariants,
    golden_field,
    golden_triple,
    order_embedding_exists,
    rank_one_report,
    rational_field,
    scale_equivalence,
    stein_triple,
    thompson_triple,
)
from steinv import classify, intlinalg, modules
from steinv.classify import _fundamental_unit
from steinv.modules import thompson_base
from steinv.numbers import RealAlgebraicField
import mix_count
from references import (
    check_obstruction, check_witness, presentations, printed_value, reference_carries,
    reference_endpoint_box, reference_scale_box, reference_unit_box,
)


# -- coinvariants -----------------------------------------------------------


def test_thompson_coinvariants_closed_form():
    # the quotient of Z[1/n] by (1 - n) scaling is Z/(n-1)
    for n in range(2, 13):
        inv = coinvariants(thompson_triple(n))
        if n == 2:
            assert inv.is_trivial()
        else:
            assert inv.invariant_factors == (n - 1,)
            assert inv.free_rank == 0


def test_five_halves_example():
    t = stein_triple([1], [2, 5], [Fraction(5, 2)], endpoint=1)
    assert coinvariants(t).describe() == "Z/3"


def test_golden_coinvariants_trivial():
    assert coinvariants(golden_triple()).is_trivial()


def test_sqrt2_coinvariants():
    t = algebraic_triple([-1, 2, 1], (Fraction(2, 5), Fraction(1, 2)))
    assert coinvariants(t).describe() == "Z/2"


def test_coinvariants_need_generators_when_localized():
    m = BreakpointModule(rational_field(), [1], [2])
    f = golden_field()
    free = BreakpointModule(f, [f.one(), f.generator()])
    localized = SteinTriple(m, SlopeGroup([], field=rational_field()))
    with pytest.raises(UnsupportedGamma):
        coinvariants(localized)
    # an honest free module with no scaling keeps its rank
    inv = coinvariants(SteinTriple(free, SlopeGroup([], field=f)))
    assert inv.free_rank == 2


def test_localized_pair_without_slopes_gets_a_verdict():
    # Z[1/2]^2 has no finitely generated coinvariants: both pipelines skip
    # that comparison, and the endpoints force s
    field = RealAlgebraicField([-2, 0, 1], (1, 2))
    module = BreakpointModule(field, [1, field.generator()], [2])
    a, b = (SteinTriple(module, SlopeGroup([], field=field), ell) for ell in (1, 2))
    verdict = classify_pair(a, b)
    assert verdict.witness == {"s": "1/2"}
    check_witness(a, b, verdict.witness)
    assert rank_one_report(a, b) == verdict
    a.endpoint = b.endpoint = None
    assert classify_pair(a, b).witness == {"s": "1"}
    other = SteinTriple(BreakpointModule(field, [1, field.generator()], [3]), a.slopes)
    assert classify_pair(a, other).is_not_isomorphic


def test_coinvariants_rejects_noninvariant_slopes():
    m = BreakpointModule(rational_field(), [1], [2])
    # 1/3 does not carry Z[1/2] into itself
    with pytest.raises(ValidationError, match="not closed under multiplication by 1/3"):
        SteinTriple(m, SlopeGroup([Fraction(1, 3)]))


def test_class_of_residues():
    t = thompson_triple(5)
    inv = coinvariants(t)
    assert inv.invariant_factors == (4,)
    # 1, 2, 3, 4 fall into distinct classes mod 4, and 1/5 = 5 mod 4 = 1
    c1 = class_of(1, inv, t.module)
    c2 = class_of(2, inv, t.module)
    assert c1 != c2
    assert class_of(Fraction(1, 5), inv, t.module) == c1
    assert class_of(5, inv, t.module) == c1
    assert class_of(Fraction(9, 25), inv, t.module) == c1
    with pytest.raises(ValidationError, match="is not a module point"):
        class_of(Fraction(1, 3), inv, t.module)


def test_class_of_golden():
    t = golden_triple()
    inv = coinvariants(t)
    b = t.field.generator()
    # trivial quotient: every module point lands on the zero class
    assert class_of(b, inv, t.module) == class_of(1, inv, t.module)


# -- order embeddings of slope groups ---------------------------------------


def test_order_embedding_obstruction():
    ans = order_embedding_exists(SlopeGroup([2, 3]), SlopeGroup([2, 5]))
    assert ans.answer == "No"
    assert "prime 3" in ans.obstruction


def test_order_embedding_scaling_witness():
    ans = order_embedding_exists(SlopeGroup([2, 3]), SlopeGroup([2, 9]))
    assert ans.answer == "Yes"
    assert ans.scale == 2  # squaring lands <2,3> inside <2,9> = <2, 3^2>

    back = order_embedding_exists(SlopeGroup([2, 9]), SlopeGroup([2, 3]))
    assert back.answer == "Yes"
    assert back.scale == 1  # already a subgroup


def test_order_embedding_rank_rules():
    two = SlopeGroup([2])
    big = SlopeGroup([2, 3])
    assert order_embedding_exists(two, big).answer == "Yes"
    assert order_embedding_exists(two, SlopeGroup([3])).answer == "Yes"  # 2 -> 3
    down = order_embedding_exists(big, two)
    assert down.answer == "No"
    assert "rank" in down.obstruction
    trivial = order_embedding_exists(two, SlopeGroup([]))
    assert (trivial.answer, trivial.obstruction) == ("No", "target group is trivial")


def test_order_embedding_fractional_lattice():
    # <2, 3> into <4, 9>: c = 2 works, c = 1 does not
    ans = order_embedding_exists(SlopeGroup([2, 3]), SlopeGroup([4, 9]))
    assert ans.answer == "Yes"
    assert ans.scale == 2
    # <4, 9> into <2, 3> needs no scaling at all
    ans = order_embedding_exists(SlopeGroup([4, 9]), SlopeGroup([2, 3]))
    assert ans.answer == "Yes"
    assert ans.scale == 1
    # <2, 3> vs <8, 27>: scale 3
    ans = order_embedding_exists(SlopeGroup([2, 3]), SlopeGroup([8, 27]))
    assert ans.scale == 3


def test_order_embedding_spanning_obstruction():
    # same primes, but the exponent lattices span different subspaces
    ans = order_embedding_exists(
        SlopeGroup([6, 5]), SlopeGroup([Fraction(2, 3), 5])
    )
    assert ans.answer == "No"
    assert "span" in ans.obstruction
    # cyclic groups embed into anything nontrivial, whatever the primes
    assert order_embedding_exists(SlopeGroup([6]), SlopeGroup([Fraction(2, 3)])).answer == "Yes"


# -- classification: rank one ----------------------------------------------


def test_reflexive_on_identical_input():
    for t in (thompson_triple(2), thompson_triple(3), golden_triple()):
        v = classify_pair(t, t)
        assert v.is_isomorphic
        assert v.describe() == "Isomorphic (s=1)"


def test_thompson_pairs_match_gcd_rule():
    # V(n, r) and V(n, s) agree exactly when gcd(n-1, r) = gcd(n-1, s)
    for n in range(2, 6):
        for r in range(1, 7):
            for s in range(1, 7):
                a = thompson_triple(n, endpoint=r)
                b = thompson_triple(n, endpoint=s)
                v = classify_pair(a, b)
                same = math.gcd(n - 1, r) == math.gcd(n - 1, s)
                assert not v.is_unknown, (n, r, s, v)
                assert v.is_isomorphic == same, (n, r, s, v)


def test_thompson_fractional_endpoints():
    # endpoint r/s acts through s^-1 mod (n-1)
    a = thompson_triple(4, endpoint=1)
    b = thompson_triple(4, endpoint=Fraction(1, 2))
    # gcd(3, 1) = 1, 1/2 = 2 mod 3 -> gcd(3, 2) = 1: same class
    assert classify_pair(a, b).is_isomorphic
    c = thompson_triple(4, endpoint=3)
    assert classify_pair(a, c).is_not_isomorphic


def test_different_bases_not_isomorphic():
    v = classify_pair(thompson_triple(2), thompson_triple(3))
    assert v.is_not_isomorphic
    v = classify_pair(thompson_triple(4), thompson_triple(5))
    assert v.is_not_isomorphic


def test_rank_one_prime_obstruction():
    a = stein_triple([1], [2, 3], [2, 3], endpoint=1)
    b = stein_triple([1], [2, 5], [2, 5], endpoint=1)
    v = classify_pair(a, b)
    assert v.is_not_isomorphic
    assert "prime" in v.obstruction


def test_rank_one_unknown_cases():
    a = stein_triple([1], [2, 3], [2, 3], endpoint=1)
    b = stein_triple([1], [2, 3], [2, 9], endpoint=1)
    v = classify_pair(a, b)
    assert v.is_unknown
    assert v.reason


def test_rank_one_report_direct():
    v = rank_one_report(thompson_triple(5, 1), thompson_triple(5, 2))
    assert v.is_not_isomorphic
    assert "residue" in v.obstruction or "endpoint" in v.obstruction
    v = rank_one_report(thompson_triple(5, 1), thompson_triple(5, 3))
    assert v.is_isomorphic  # gcd(4,1) = gcd(4,3) = 1


def test_rank_one_scalar_is_forced_by_the_endpoints():
    # s * 2^20 = 1 leaves one candidate, far outside any search box
    a = stein_triple([1], [2, 3], [2, 3], endpoint=1)
    b = stein_triple([1], [2, 3], [2, 3], endpoint=2**20)
    assert rank_one_report(a, b).describe() == "Isomorphic (s=1/1048576)"


@st.composite
def rank_one_pairs(draw):
    """Two base-n or two Z[1/6] <2, 3> triples at random module endpoints."""
    k = st.integers(1, 40)
    if draw(st.booleans()):
        n = draw(st.integers(2, 7))
        e = st.integers(-4, 4)
        return tuple(
            thompson_triple(n, draw(k) * Fraction(n) ** draw(e)) for _ in "ab"
        )
    e = st.integers(-8, 8)
    return tuple(
        stein_triple(
            [1], [2, 3], [2, 3], draw(k) * Fraction(2) ** draw(e) * Fraction(3) ** draw(e)
        )
        for _ in "ab"
    )


@settings(max_examples=60, deadline=None)
@given(rank_one_pairs())
def test_rank_one_outcome_does_not_depend_on_the_search_bound(pair):
    outcomes = {
        classify_pair(*pair, search_bound=bound).outcome
        for bound in (0, 1, 2, 3, 4, 16)
    }
    assert not {"Isomorphic", "NotIsomorphic"} <= outcomes


def test_rank_one_scale_is_closed_form():
    # Z[1/2] against (1/3)*Z[1/2]: s = 3 without any search box
    a = stein_triple([1], [2], [2])
    b = stein_triple([Fraction(1, 3)], [2], [2])
    assert classify_pair(a, b, search_bound=0).describe() == "Isomorphic (s=3)"


def test_base_two_all_endpoints_agree():
    # gcd(1, r) = 1 always: every V(2, r) is the same group
    for r in (1, 2, 3, 7):
        assert classify_pair(thompson_triple(2, 1), thompson_triple(2, r)).is_isomorphic


def test_slope_rank_mismatch_reported():
    a = thompson_triple(2)
    b = stein_triple([1], [2, 3], [2, 3], endpoint=1)
    v = classify_pair(a, b)
    assert v.is_not_isomorphic
    assert "rank" in v.obstruction


# -- classification: higher rank -------------------------------------------


def test_golden_endpoint_scaling():
    b = golden_field().generator()
    v = classify_pair(golden_triple(1), golden_triple(b))
    assert v.is_isomorphic
    v2 = classify_pair(golden_triple(1), golden_triple(b ** 3))
    assert v2.is_isomorphic


def test_golden_versus_sqrt2():
    g = golden_triple()
    s = algebraic_triple([-1, 2, 1], (Fraction(2, 5), Fraction(1, 2)))
    v = classify_pair(g, s)
    assert v.is_not_isomorphic


def test_coinvariant_obstruction_rank_two():
    # same slope group <5/2> but Z[1/10] vs a shifted module with extra 3s
    a = stein_triple([1], [2, 5], [Fraction(5, 2)], endpoint=1)
    b = stein_triple([1], [2, 3, 5], [Fraction(5, 2)], endpoint=1)
    v = classify_pair(a, b)
    assert v.is_not_isomorphic
    # Z/3 dies after inverting 3, so the coinvariants separate them
    assert v.obstruction == "coinvariants differ (Z/3 vs trivial)"
    check_obstruction(a, b, v.obstruction)


def test_rank_two_slope_groups_differ():
    # Z + Z*b under <b> and under <b^2>; Z[1/6]<1, sqrt 2> under <2> and <6>
    f, k = golden_field(), RealAlgebraicField([-2, 0, 1], (1, 2))
    b, r = f.generator(), k.generator()
    for a, c in [
        (stein_triple([1, b], [], [b], endpoint=1, field=f),
         stein_triple([1, b], [], [b ** 2], endpoint=1, field=f)),
        (stein_triple([1, r], [2, 3], [2], endpoint=1, field=k),
         stein_triple([1, r], [2, 3], [6], endpoint=1, field=k)),
    ]:
        v = classify_pair(a, c)
        assert v.obstruction == "slope groups differ"
        check_obstruction(a, c, v.obstruction)


def test_rank_two_coinvariants_differ():
    # Z + Z*b and Z[1/2] + Z[1/2]*b under <b^3>: 1 - b^3 = -2b has norm
    # -4, so the first quotient is Z/2 x Z/2, and inverting 2 kills it
    f = golden_field()
    b = f.generator()
    a = stein_triple([1, b], [], [b ** 3], endpoint=1, field=f)
    c = stein_triple([1, b], [2], [b ** 3], endpoint=1, field=f)
    assert a.slopes.equals(c.slopes)
    for x, y, groups in [(a, c, "Z/2 x Z/2 vs trivial"), (c, a, "trivial vs Z/2 x Z/2")]:
        v = classify_pair(x, y)
        assert v.obstruction == f"coinvariants differ ({groups})"
        check_obstruction(x, y, v.obstruction)


def test_incomparable_slopes_with_equal_coinvariants_are_unknown():
    # Z + Z*b under <b> against Z[1/2]<1, sqrt 2> under <1 + sqrt 2>: the
    # slopes live in different fields, and both quotients are trivial
    k = RealAlgebraicField([-2, 0, 1], (1, 2))
    r = k.generator()
    s = stein_triple([1, r], [2], [1 + r], endpoint=1, field=k)
    assert coinvariants(s).is_trivial() and coinvariants(golden_triple()).is_trivial()
    v = classify_pair(golden_triple(), s)
    assert v.is_unknown
    assert v.reason == "slope groups are not comparable: slope groups live in different fields"


def test_incomparable_slopes_through_both_pipelines():
    # Z + Z*b under <b> against Z + Z*a under <1/a>, a = sqrt 2 - 1:
    # 1 - 1/a = -sqrt 2 has norm -2, so only the second quotient is Z/2;
    # then against the triple of the test above, whose quotient is trivial
    k = RealAlgebraicField([-2, 0, 1], (1, 2))
    a = k.generator() - 1
    differ = stein_triple([1, a], [], [1 / a], endpoint=1, field=k)
    agree = stein_triple([1, a + 1], [2], [a + 2], endpoint=1, field=k)
    cases = [
        (differ, "NotIsomorphic: coinvariants differ (trivial vs Z/2)",
         "NotIsomorphic: coinvariants differ (trivial vs Z/2)"),
        (agree, "Unknown: slope groups are not comparable: slope groups live in different fields",
         "Unknown: no implemented invariant separates these rank-one triples"),
    ]
    for other, by_classify, by_rank_one in cases:
        assert classify_pair(golden_triple(), other).describe() == by_classify
        assert rank_one_report(golden_triple(), other).describe() == by_rank_one


def test_scale_obstruction_rank_two():
    f = golden_field()
    b = f.generator()
    # same field, same slopes, but the second module is not a scalar
    # multiple of the first: Z + Zb versus Z[1/2] + Z[1/2]b
    a = stein_triple([f.one(), b], [], [b], endpoint=1, field=f)
    c = stein_triple([f.one(), b], [2], [b], endpoint=1, field=f)
    v = classify_pair(a, c)
    assert v.is_not_isomorphic


def test_endpoint_free_comparison():
    # groupoid-level data: no endpoint on either side
    a = stein_triple([1], [2], [2])
    b = stein_triple([Fraction(1, 3)], [2], [2])
    v = classify_pair(a, b)
    assert v.is_isomorphic
    with pytest.raises(ValidationError, match="cannot compare endpoint-level with endpoint-free"):
        classify_pair(a, thompson_triple(2))


def test_search_bound_is_respected():
    t = golden_triple()
    v = classify_pair(t, t, search_bound=1)
    assert v.is_isomorphic  # s = 1 found immediately


@pytest.mark.parametrize("bound", [1.5, "2", True])
def test_search_bound_that_is_not_an_int_raises_validation_error(bound):
    # it used to raise TypeError, from range() once the box ran
    t = golden_triple()
    with pytest.raises(ValidationError, match="is not an integer"):
        classify_pair(t, t, bound)


def test_verdict_shapes():
    v = classify_pair(thompson_triple(3, 1), thompson_triple(3, 2))
    assert v.describe().startswith("NotIsomorphic: ")
    w = classify_pair(thompson_triple(3, 1), thompson_triple(3, 3))
    assert w.describe().startswith("Isomorphic")
    assert w.witness is not None


# -- the fundamental unit ---------------------------------------------------


@st.composite
def real_quadratic_fields(draw):
    """A primitive c2*x^2 + c1*x + c0 with D > 0 not a square, and an
    interval from isqrt(D) around one of its two roots."""
    c2 = draw(st.integers(1, 6))
    c1 = draw(st.integers(-12, 12))
    c0 = draw(st.integers(-12, 12))
    disc = c1 * c1 - 4 * c0 * c2
    assume(disc > 0 and math.gcd(c0, c1, c2) == 1)
    s = math.isqrt(disc)
    assume(s * s != disc)
    # the root (-c1 + e*sqrt(D)) / (2*c2) with s < sqrt(D) < s + 1
    if draw(st.booleans()):
        interval = (Fraction(-c1 + s, 2 * c2), Fraction(-c1 + s + 1, 2 * c2))
    else:
        interval = (Fraction(-c1 - s - 1, 2 * c2), Fraction(-c1 - s, 2 * c2))
    return RealAlgebraicField([c0, c1, c2], interval)


def power_module(field):
    return BreakpointModule(field, [field.one(), field.generator()])


@settings(max_examples=60, deadline=None)
@given(real_quadratic_fields())
def test_fundamental_unit_is_a_unit_of_the_multiplier_ring(field):
    module = power_module(field)
    u = _fundamental_unit(module)
    assert u is not None and u > 1
    c0, c1, c2 = field.minpoly.coefficients
    x, y = u.coords
    assert x * x - x * y * c1 / c2 + y * y * c0 / c2 in (1, -1)
    assert (2 * x - y * c1 / c2).denominator == 1
    assert reference_carries(u, module, module)
    box = reference_unit_box(field)
    if box is not None and reference_carries(box, module, module):
        assert box == u


small_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@settings(max_examples=40, deadline=None)
@given(real_quadratic_fields(), st.lists(small_fractions, min_size=4, max_size=4))
def test_fundamental_unit_stabilizes_any_module(field, entries):
    # Gamma = Z*b1 + Z*b2 for a random rational basis b1, b2
    b1, b2 = field.element(entries[:2]), field.element(entries[2:])
    assume(entries[0] * entries[3] != entries[1] * entries[2])
    module = BreakpointModule(field, [b1, b2])
    u = _fundamental_unit(module)
    assume(u is not None)  # None when the period passes the step budget
    assert u > 1
    assert u.norm() in (1, -1)
    assert reference_carries(u, module, module)


def test_fundamental_unit_exact_cases():
    f94 = RealAlgebraicField([-94, 0, 1], (9, 10))
    assert _fundamental_unit(power_module(f94)) == f94.element((2143295, 221064))
    # the box's 13 + 7a has norm -1 but is not an algebraic integer
    f = RealAlgebraicField([-5, 1, 2], (1, 2))
    assert _fundamental_unit(power_module(f)) == f.element((37, 20))
    golden = golden_field()
    assert _fundamental_unit(power_module(golden)) == golden.generator()
    # Z + Z*phi in Q(sqrt 5) is an order larger than Z[sqrt 5]: its unit
    # is phi, not phi^3 = 2 + sqrt 5
    f5 = RealAlgebraicField([-5, 0, 1], (2, 3))
    phi = f5.element((Fraction(1, 2), Fraction(1, 2)))
    assert _fundamental_unit(BreakpointModule(f5, [f5.one(), phi])) == phi
    # and the basis order does not matter
    assert _fundamental_unit(BreakpointModule(f5, [phi, f5.one()])) == phi
    cubic = RealAlgebraicField([-2, 0, 0, 1], (Fraction(5, 4), Fraction(4, 3)))
    assert _fundamental_unit(BreakpointModule(cubic, [1, cubic.generator()])) is None
    # Z[c2*t] has D = 12*3969^2, whose period passes the step budget: the
    # unit is the least power of 2 + sqrt 3 (a = -sqrt 3) in that order
    f3 = RealAlgebraicField([-3, 0, 1], (-2, Fraction(-3, 2)))
    a = f3.generator()
    basis = [Fraction(1, 3) + Fraction(21, 4) * a, Fraction(21, 4)]
    module = BreakpointModule(f3, basis)
    u = _fundamental_unit(module)
    assert u is not None and u > 1
    assert u.norm() in (1, -1)
    assert reference_carries(u, module, module)
    assert u == (2 - a) ** 2268
    for r in (2, 3, 7):  # the prime factors of 2268: no smaller power stabilizes
        assert not reference_carries((2 - a) ** (2268 // r), module, module)


def test_fundamental_unit_of_a_localized_module():
    # Z + Z*3a has D = 189 = 3^2 * 21; inverting 3 gives the ring of D = 21
    f = RealAlgebraicField([3, 9, 5], (Fraction(-7, 5), Fraction(-13, 10)))
    a = f.generator()
    assert _fundamental_unit(BreakpointModule(f, [f.one(), 3 * a])) == -53 - 120 * a
    assert _fundamental_unit(BreakpointModule(f, [f.one(), 3 * a], [3])) == -2 - 5 * a
    # Z[1/2][sqrt 5] = Z[1/2][phi]: D = 20 -> 5
    f5 = RealAlgebraicField([-5, 0, 1], (2, 3))
    phi = f5.element((Fraction(1, 2), Fraction(1, 2)))
    assert _fundamental_unit(BreakpointModule(f5, [f5.one(), f5.generator()], [2])) == phi
    # D = 12 stays: 12/4 = 3 is not a discriminant, and Z[sqrt 3] is maximal
    f3 = RealAlgebraicField([-3, 0, 1], (1, 2))
    unit = _fundamental_unit(BreakpointModule(f3, [f3.one(), f3.generator()], [2]))
    assert unit == f3.element((2, 1))


def test_fundamental_unit_gives_up_on_a_long_period():
    f = RealAlgebraicField([-1000000000007, 0, 1], (1000000, 1000001))
    start = time.perf_counter()
    assert _fundamental_unit(power_module(f)) is None
    assert time.perf_counter() - start < 1


def test_fundamental_unit_of_a_square_discriminant_is_none():
    # x^2 - 1 is reducible: t = a has D = 4, a square
    f = RealAlgebraicField([-1, 0, 1], (0, 2))
    assert _fundamental_unit(BreakpointModule(f, [1, f.generator()])) is None


def test_fundamental_unit_gives_up_when_the_factoring_budget_runs_out(monkeypatch):
    # D = 4*101*103: no period step is left, and rho cannot split 10403
    f = RealAlgebraicField([-10403, 0, 1], (101, 102))
    module = BreakpointModule(f, [1, f.generator()])
    assert _fundamental_unit(module) == 102 + f.generator()
    monkeypatch.setattr(classify, "_UNIT_STEPS", 0)
    monkeypatch.setattr(intlinalg, "_RHO_STEPS", 0)
    assert _fundamental_unit(module) is None


def test_fundamental_unit_gives_up_past_the_power_budget(monkeypatch):
    # Z + 3Z*sqrt 2 has D = 72 = 8*3^2: the unit is the least power of
    # 1 + sqrt 2 in that order, found by walking powers modulo 3
    f = RealAlgebraicField([-2, 0, 1], (1, 2))
    a = f.generator()
    module = BreakpointModule(f, [1, 3 * a])
    assert _fundamental_unit(module) == 17 + 12 * a
    monkeypatch.setattr(classify, "_UNIT_STEPS", 1)
    monkeypatch.setattr(classify, "_UNIT_POWERS", 0)
    assert _fundamental_unit(module) is None


def test_unit_beyond_the_old_box_matches_the_endpoint():
    f = RealAlgebraicField([-94, 0, 1], (9, 10))
    unit = f.element((2143295, 221064))
    module = [f.one(), f.generator()]
    a = stein_triple(module, [], [unit * unit], endpoint=1, field=f)
    b = stein_triple(module, [], [unit * unit], endpoint=unit, field=f)
    v = classify_pair(a, b)
    assert v.describe() == "Isomorphic (s=2143295 - 221064*a)"


def test_walk_steps_by_the_unit_of_the_localized_ring():
    # the unit of Z[15a] is (-2 - 5a)^3; the endpoints need -2 - 5a itself
    f = RealAlgebraicField([3, 9, 5], (Fraction(-7, 5), Fraction(-13, 10)))
    a = f.generator()
    module = BreakpointModule(f, [f.one(), 3 * a], [3])
    slopes = SlopeGroup([Fraction(3)], field=f)
    v = classify_pair(SteinTriple(module, slopes, -3 * a), SteinTriple(module, slopes, f.one()), 1)
    assert v.describe() == "Isomorphic (s=-2 - 5*a)"


# -- the endpoint orbit walk ------------------------------------------------

SQRT2_MINUS_1 = RealAlgebraicField([-1, 2, 1], (Fraction(2, 5), Fraction(1, 2)))


def sqrt2_parity(c0, c1):
    """Class of c0 + c1*a in Z[a]/(1 - a) = Z/2, a = sqrt 2 - 1.

    c0 + c1*a = (c0 - c1) + c1*sqrt 2 and 1 - a = sqrt 2 * a, so the class
    is the parity of c0 - c1.  Positive units of Z[sqrt 2] are odd, so they
    act trivially: the class decides the group.
    """
    return (c0 - c1) % 2


def sqrt2_triple(c0, c1):
    f = SQRT2_MINUS_1
    a = f.generator()
    return stein_triple([f.one(), a], [], [a], endpoint=c0 + c1 * a, field=f)


positive_coords = st.tuples(st.integers(0, 6), st.integers(0, 6)).filter(any)


@settings(max_examples=40, deadline=None)
@given(positive_coords, positive_coords)
def test_sqrt2_endpoint_verdicts_match_the_parity_oracle(e1, e2):
    v = classify_pair(sqrt2_triple(*e1), sqrt2_triple(*e2))
    assert not v.is_unknown, v
    assert v.is_isomorphic == (sqrt2_parity(*e1) == sqrt2_parity(*e2)), v


def test_other_class_names_the_orbit():
    v = classify_pair(sqrt2_triple(1, 0), sqrt2_triple(2, 0))
    assert v.describe() == (
        "NotIsomorphic: endpoint classes lie in different stabilizer orbits"
        " (orbit size 1)"
    )


SQRT5 = RealAlgebraicField([-5, 0, 1], (2, 3))


@settings(max_examples=25, deadline=None)
@given(positive_coords, positive_coords)
def test_sqrt5_and_golden_presentations_agree(e1, e2):
    # Z + Z*phi with slopes <phi^3>, written over sqrt 5 and over phi
    phi = SQRT5.element((Fraction(1, 2), Fraction(1, 2)))
    b = golden_field().generator()

    def over_sqrt5(c0, c1):
        basis = [SQRT5.one(), phi]
        return stein_triple(basis, [], [phi**3], endpoint=c0 + c1 * phi, field=SQRT5)

    def over_golden(c0, c1):
        basis = [golden_field().one(), b]
        return stein_triple(basis, [], [b**3], endpoint=c0 + c1 * b, field=golden_field())

    v5 = classify_pair(over_sqrt5(*e1), over_sqrt5(*e2))
    vg = classify_pair(over_golden(*e1), over_golden(*e2))
    assert not vg.is_unknown
    assert v5.outcome == vg.outcome, (v5, vg)
    for triple, v in [(over_sqrt5, v5), (over_golden, vg)]:
        if v.is_not_isomorphic:
            check_obstruction(triple(*e1), triple(*e2), v.obstruction)


def test_sqrt5_phi_endpoint():
    phi = SQRT5.element((Fraction(1, 2), Fraction(1, 2)))
    a, b = (
        stein_triple([SQRT5.one(), phi], [], [phi**3], endpoint=e, field=SQRT5)
        for e in (1, phi)
    )
    assert classify_pair(a, b).describe() == "Isomorphic (s=-1/2 + 1/2*a)"


def test_non_rational_s_unit_leaves_unknown():
    # Z[1/22]<1, sqrt 2> with slopes <11>: sqrt 2 / 2 carries sqrt 2 to 1
    # and stabilizes the module, so the truth is Isomorphic, but no product
    # of 1 + sqrt 2, 2 and 11 has norm -1/2
    f = RealAlgebraicField([-2, 0, 1], (1, 2))
    r = f.generator()
    a = stein_triple([f.one(), r], [2, 11], [11], endpoint=1, field=f)
    b = stein_triple([f.one(), r], [2, 11], [11], endpoint=r, field=f)
    v = classify_pair(a, b)
    assert v.is_unknown
    assert "S-units that are not rational" in v.reason
    s = r / 2
    assert reference_carries(s, b.module, a.module) and s * b.endpoint == a.endpoint


def test_exhausted_orbit_walk_is_unknown_and_quick():
    # coinvariants (Z/5003)^2, acted on by 1 + sqrt 2, 2 and 10007
    f = RealAlgebraicField([-2, 0, 1], (1, 2))
    r = f.generator()
    a = stein_triple([f.one(), r], [2, 10007], [10007], endpoint=1, field=f)
    b = stein_triple([f.one(), r], [2, 10007], [10007], endpoint=r, field=f)
    start = time.perf_counter()
    v = classify_pair(a, b)
    assert time.perf_counter() - start < 1
    assert v.reason == "stabilizer orbit walk stopped at 500 states"


def test_free_quotient_is_decided_without_walking(monkeypatch):
    def no_walk(*args):
        raise AssertionError("the orbit walk ran")

    monkeypatch.setattr(classify, "_endpoint_orbit", no_walk)
    f = RealAlgebraicField([-2, 0, 1], (1, 2))
    r = f.generator()

    def free(basis, ell):
        return stein_triple(basis, [], [], endpoint=ell, field=f)

    one = free([f.one(), r], 1)
    v = classify_pair(one, free([f.one(), r], 2))
    assert v.is_not_isomorphic
    assert "force s = 1/2" in v.obstruction
    v = classify_pair(one, free([f.one(), r], 1 + r))
    assert v.describe() == "Isomorphic (s=-1 + a)"
    assert v.witness["coinvariants"] == "Z^2"
    # 2*(Z + Z*r) at endpoint 2 is the same group as Z + Z*r at 1
    assert classify_pair(one, free([2, 2 * r], 2)).describe() == "Isomorphic (s=1/2)"


def test_degree_three_walk_lacks_units():
    # u = 1 + a + a^2 is a unit of Z[a], a = 2^(1/3), but the walk has no
    # unit steps in degree 3: the one-class orbit of 2 leaves Unknown
    f = RealAlgebraicField([-2, 0, 0, 1], (Fraction(5, 4), Fraction(4, 3)))
    a = f.generator()
    a1, a2 = (
        stein_triple([f.one(), a, a * a], [], [1 + a + a * a], endpoint=e, field=f)
        for e in (1, 2)
    )
    v = classify_pair(a1, a2)
    assert v.reason == (
        "no match in a stabilizer orbit of size 1; the walk lacks units in degree 3 and up"
    )


def test_unit_past_the_step_budget_leaves_unknown(monkeypatch):
    # D = 8 is fundamental, so no suborder rescues a unit the period misses
    monkeypatch.setattr(classify, "_UNIT_STEPS", 0)
    a, b = sqrt2_triple(1, 0), sqrt2_triple(2, 0)
    assert _fundamental_unit(b.module) is None
    v = classify_pair(a, b)
    assert v.reason == (
        "no match in a stabilizer orbit of size 1; "
        "the walk lacks the fundamental unit (period past the step budget)"
    )


def test_spent_scale_budget_names_its_radius(monkeypatch):
    # the cubic pair: 26 candidates at radius 1, then radius 2
    f = RealAlgebraicField([-2, 0, 0, 1], (Fraction(5, 4), Fraction(4, 3)))
    a = f.generator()
    one, three = (
        stein_triple([f.one(), a, c * a * a], [2], [2], endpoint=1, field=f)
        for c in (1, 3)
    )
    monkeypatch.setattr(modules, "_SCALE_CANDIDATES", 50)
    v = classify_pair(one, three, search_bound=100_000)
    assert v.reason == "module scale search failed: search budget spent at radius 2"
    v = classify_pair(one, three, search_bound=1)
    assert v.reason == "module scale search failed: no scalar within the search box"


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(2, 15), min_size=2, max_size=2, unique=True),
    st.lists(st.integers(1, 40), min_size=2, max_size=2),
    st.lists(st.integers(-3, 3), min_size=2, max_size=2),
)
def test_distinct_bases_differ_in_their_coinvariants(bases, ks, es):
    # Z[1/n]/(n-1)Z[1/n] = Z/(n-1), since gcd(n-1, n) = 1: no verdict
    # needs to compare the bases themselves
    a, b = (
        thompson_triple(n, k * Fraction(n) ** e) for n, k, e in zip(bases, ks, es)
    )
    assert [thompson_base(a), thompson_base(b)] == bases
    for v in (classify_pair(a, b), rank_one_report(a, b)):
        assert v.is_not_isomorphic
        check_obstruction(a, b, v.obstruction)


@st.composite
def quadratic_endpoint_pairs(draw):
    """Two endpoint triples on Gamma and c*Gamma in a real quadratic field,
    Gamma = Z[1/p]<1, m*a>, with slopes <p> or the unit of Gamma's ring."""
    field = draw(real_quadratic_fields())
    a = field.generator()
    primes = draw(st.sampled_from([(), (), (3,), (5,)]))
    module = BreakpointModule(field, [field.one(), draw(st.integers(1, 3)) * a], primes)
    slope = Fraction(primes[0]) if primes else _fundamental_unit(module)
    assume(slope is not None)
    slopes = SlopeGroup([slope], field=field)
    c = field.element((draw(st.integers(1, 3)), draw(st.integers(-1, 1))))
    c = c if c.sign() > 0 else -c

    def endpoint(scale):
        x, y = draw(positive_coords)
        ell = scale * (x * module.basis[0] + y * module.basis[1])
        return ell if ell.sign() > 0 else -ell

    return (
        SteinTriple(module, slopes, endpoint(1)),
        SteinTriple(module.scaled(c), slopes, endpoint(c)),
    )


@settings(max_examples=25, deadline=None)
@given(quadratic_endpoint_pairs(), st.integers(1, 16))
def test_walk_keeps_every_box_verdict(pair, bound):
    a, b = pair
    v = classify_pair(a, b, bound)
    if reference_endpoint_box(a, b, bound) is not None:
        assert v.is_isomorphic, v
    if v.is_isomorphic:
        s = printed_value(v.witness["s"], a.field)
        assert reference_carries(s, b.module, a.module)
        inv = coinvariants(a)
        assert not any(class_of(a.endpoint - s * b.endpoint, inv, a.module))
    outcomes = {classify_pair(a, b, k).outcome for k in range(1, 17)}
    assert not {"Isomorphic", "NotIsomorphic"} <= outcomes


@settings(max_examples=100, deadline=None)
@given(presentations())
def test_verdicts_do_not_depend_on_the_presentation(triples):
    # classify(a, b), classify(a, b2) and classify(b, a) describe one
    # isomorphism question: no two of them may decide it differently, and
    # a larger search bound may only turn Unknown into a decided answer
    a, b, b2 = triples
    questions = [(a, b), (a, b2), (b, a)]
    verdicts = [classify_pair(x, y, 4) for x, y in questions]
    assert not {"Isomorphic", "NotIsomorphic"} <= {v.outcome for v in verdicts}
    for (x, y), v in zip(questions, verdicts):
        if not v.is_unknown:
            assert classify_pair(x, y, 8).describe() == v.describe()
        if v.is_isomorphic:
            check_witness(x, y, v.witness)
        elif v.is_not_isomorphic:
            check_obstruction(x, y, v.obstruction)


def test_the_mix_counter_counts_and_prints_every_key(capsys):
    # tests/mix_count.py is run by hand; this keeps its API from rotting
    total = mix_count.count(20, 2)[0]
    assert (total["examples"], total["conflicts"]) == (20, 0)
    assert sum(total[k] for k in ("Isomorphic", "NotIsomorphic", "Unknown")) == 60
    mix_count.main(["--examples", "5", "--bound", "1"])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "bound 1"
    (line,) = [line for line in lines if line.lstrip().startswith("all: ")]
    assert [part.split()[0] for part in line.split(": ", 1)[1].split(", ")] == mix_count.KEYS
    assert "examples 5," in line


@settings(max_examples=40, deadline=None)
@given(presentations(), st.integers(1, 8))
def test_scale_search_finds_the_reference_scalar(triples, bound):
    a, b, b2 = triples
    for x, y in [(a, b), (a, b2), (b, a)]:
        found = scale_equivalence(x.module, y.module, bound)
        assert (found.scalar if found.found else None) == reference_scale_box(
            x.module, y.module, bound
        )
