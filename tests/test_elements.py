"""Piecewise linear right continuous bijections of [0, endpoint)."""

import math
import random
from fractions import Fraction

import pytest

from steinv import elements
from steinv.elements import Piece
from steinv import (
    BoundExceeded,
    BreakpointNotInGamma,
    ContextMismatch,
    FieldElement,
    NotAntichain,
    NotBijective,
    NotComplete,
    NotInGamma,
    OutOfDomain,
    PLMap,
    SlopeNotInLambda,
    UnorderedBreakpoints,
    UnparsableWord,
    WrongContext,
    compose,
    cut_point,
    embed_v2_element,
    from_prefix_pairs,
    generator_library,
    golden_triple,
    invert,
    make_plmap,
    prefix_exchange_convert,
    random_word,
    stein_triple,
    thompson_triple,
    to_prefix_pairs,
)

DYADIC = thompson_triple(2)
GOLDEN = golden_triple()

# the standard first generator of the dyadic group on [0, 1)
X0 = make_plmap(
    DYADIC,
    [(0, 2, 0), (Fraction(1, 4), 1, Fraction(1, 4)), (Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))],
)


def as_tuples(f):
    return [
        (str(p.start), str(p.slope), str(p.offset)) for p in f.pieces
    ]


# -- cut points -------------------------------------------------------------


def test_cut_point_order():
    q = DYADIC.field
    half_minus = cut_point(DYADIC, Fraction(1, 2), "-")
    half_plus = cut_point(DYADIC, Fraction(1, 2), "+")
    quarter = cut_point(DYADIC, Fraction(1, 4), "+")
    assert quarter < half_minus < half_plus
    assert sorted([half_plus, quarter, half_minus]) == [quarter, half_minus, half_plus]
    assert str(half_minus) == "1/2-"
    assert str(half_plus) == "1/2+"
    assert q  # silence the linter


def test_cut_point_validation():
    with pytest.raises(NotInGamma):
        cut_point(DYADIC, Fraction(1, 3), "+")
    with pytest.raises(OutOfDomain):
        cut_point(DYADIC, 0, "-")  # nothing to the left of 0
    with pytest.raises(OutOfDomain):
        cut_point(DYADIC, 1, "+")  # nothing to the right of the endpoint
    with pytest.raises(OutOfDomain):
        cut_point(DYADIC, 2, "-")
    cut_point(DYADIC, 1, "-")
    cut_point(DYADIC, 0, "+")


# -- construction and validation -------------------------------------------


def test_x0_shape():
    assert as_tuples(X0) == [
        ("0", "2", "0"),
        ("1/4", "1", "1/4"),
        ("1/2", "1/2", "1/2"),
    ]
    assert X0(Fraction(1, 8)) == Fraction(1, 4)
    assert X0(Fraction(1, 4)) == Fraction(1, 2)
    assert X0(Fraction(3, 4)) == Fraction(7, 8)


def test_make_plmap_rejects_unordered():
    with pytest.raises(UnorderedBreakpoints):
        make_plmap(DYADIC, [(Fraction(1, 2), 1, 0)])  # no piece at 0
    with pytest.raises(UnorderedBreakpoints):
        make_plmap(DYADIC, [(0, 2, 0), (0, 1, 0)])
    with pytest.raises(UnorderedBreakpoints):
        make_plmap(DYADIC, [(0, 1, 0), (2, 1, 0)])  # start beyond endpoint
    with pytest.raises(UnorderedBreakpoints):
        make_plmap(DYADIC, [])


def test_make_plmap_rejects_bad_data():
    with pytest.raises(BreakpointNotInGamma):
        make_plmap(DYADIC, [(0, 2, 0), (Fraction(1, 3), 1, 0)])
    with pytest.raises(BreakpointNotInGamma):
        make_plmap(DYADIC, [(0, 1, Fraction(1, 5))])
    with pytest.raises(SlopeNotInLambda):
        make_plmap(DYADIC, [(0, 3, 0)])
    with pytest.raises(NotBijective):
        # both halves map onto [0, 1), overlapping
        make_plmap(DYADIC, [(0, 2, 0), (Fraction(1, 2), 2, -1)])
    with pytest.raises(NotBijective):
        # leaves a gap: [0,1/2) shrinks, rest translates up
        make_plmap(DYADIC, [(0, Fraction(1, 2), 0), (Fraction(1, 2), 1, Fraction(1, 4))])


def test_identity_and_merge():
    e = PLMap.identity(DYADIC)
    assert e.is_identity()
    assert len(e.pieces) == 1
    # piecewise description of the identity collapses to one piece
    f = make_plmap(DYADIC, [(0, 1, 0), (Fraction(1, 2), 1, 0)])
    assert f == e
    assert hash(f) == hash(e)


def test_call_domain_checks():
    with pytest.raises(OutOfDomain):
        X0(Fraction(3, 2))
    with pytest.raises(OutOfDomain):
        X0(-1)
    with pytest.raises(OutOfDomain):
        X0(1)  # domain is right open


def test_compose_and_inverse():
    inv = X0.inverse()
    assert as_tuples(inv) == [
        ("0", "1/2", "0"),
        ("1/2", "1", "-1/4"),
        ("3/4", "2", "-1"),
    ]
    assert X0 * inv == PLMap.identity(DYADIC)
    assert inv * X0 == PLMap.identity(DYADIC)
    assert compose(X0, inv) == PLMap.identity(DYADIC)
    assert invert(X0) == inv
    assert ~X0 == inv


def test_compose_order_convention():
    # (f * g)(t) = f(g(t))
    f = X0
    g = X0.inverse()
    t = Fraction(3, 8)
    assert (f * f)(t) == f(f(t))
    assert (f * g)(t) == t
    h = random_word(DYADIC, 5, seed=9)
    assert (f * h)(t) == f(h(t))


def test_powers():
    assert X0 ** 0 == PLMap.identity(DYADIC)
    assert X0 ** 1 == X0
    assert X0 ** 2 == X0 * X0
    assert X0 ** -1 == X0.inverse()
    assert X0 ** -3 == (X0.inverse()) ** 3
    assert (X0 ** 3) * (X0 ** -3) == PLMap.identity(DYADIC)
    assert X0 ** 37 == X0 ** 32 * X0 ** 5
    assert X0 ** -37 == (X0 ** 37).inverse()


def test_context_mismatch():
    other = thompson_triple(3)
    g = make_plmap(
        other,
        [(0, 1, Fraction(1, 3)), (Fraction(1, 3), 1, Fraction(-1, 3)), (Fraction(2, 3), 1, 0)],
    )
    with pytest.raises(NotBijective):
        make_plmap(other, [(0, 3, 0)])
    with pytest.raises(ContextMismatch):
        X0 * g


def test_act_on_cut():
    half_plus = cut_point(DYADIC, Fraction(1, 2), "+")
    one_minus = cut_point(DYADIC, 1, "-")
    zero_plus = cut_point(DYADIC, 0, "+")
    assert X0.act_on_cut(half_plus) == cut_point(DYADIC, Fraction(3, 4), "+")
    assert X0.act_on_cut(one_minus) == one_minus
    assert X0.act_on_cut(zero_plus) == zero_plus
    # minus side uses the piece on the left
    half_minus = cut_point(DYADIC, Fraction(1, 2), "-")
    assert X0.act_on_cut(half_minus) == cut_point(DYADIC, Fraction(3, 4), "-")


def test_act_on_cut_respects_composition():
    rng = random.Random(19)
    f = random_word(DYADIC, 8, seed=3)
    g = random_word(DYADIC, 8, seed=4)
    fg = f * g
    finv = f.inverse()
    cuts = []
    for _ in range(60):
        v = Fraction(rng.randint(1, 255), 256)
        cuts.append(cut_point(DYADIC, v, rng.choice("+-")))
    for x in cuts:
        assert fg.act_on_cut(x) == f.act_on_cut(g.act_on_cut(x))
        assert finv.act_on_cut(f.act_on_cut(x)) == x
    # injective on the sample
    assert len({(tuple(y.value.coords), y.side) for y in map(f.act_on_cut, cuts)}) == len(
        {(tuple(x.value.coords), x.side) for x in cuts}
    )


# -- fixed points -----------------------------------------------------------


def test_fixed_points_of_x0():
    report = X0.fixed_point_report()
    got = [(str(fp.point), str(fp.slope), fp.attracting) for fp in report.points]
    assert got == [
        ("0+", "2", False),
        ("1-", "1/2", True),
    ]
    assert report.non_cut_values == ()


def test_fixed_points_interior():
    # the last piece t/2 + 1/4 fixes 1/2 from the right
    f = make_plmap(
        DYADIC,
        [(0, 2, 0), (Fraction(1, 4), 1, Fraction(1, 2)),
         (Fraction(1, 2), Fraction(1, 2), Fraction(1, 4))],
    )
    assert f(Fraction(1, 2)) == Fraction(1, 2)
    report = f.fixed_point_report()
    got = [(str(fp.point), str(fp.slope), fp.attracting) for fp in report.points]
    assert got == [("0+", "2", False), ("1/2+", "1/2", True)]
    assert report.non_cut_values == ()


def test_fixed_points_identity_interval():
    # identity on [3/4, 1); the middle piece fixes 3/4 from the left only
    g = make_plmap(
        DYADIC,
        [(0, Fraction(1, 2), 0), (Fraction(1, 2), 2, Fraction(-3, 4)),
         (Fraction(3, 4), 1, 0)],
    )
    report = g.fixed_point_report()
    got = [(str(fp.point), str(fp.slope), fp.attracting) for fp in report.points]
    assert got == [
        ("0+", "1/2", True),
        ("3/4-", "2", False),
        ("3/4+", "1", False),
        ("1-", "1", False),
    ]


def test_fixed_point_off_module():
    # the slope 4 piece fixes 1/3, a point of [0, 1) that is not dyadic,
    # so it is reported as a value rather than as a cut
    t = stein_triple([1], [2], [4], endpoint=1)
    f = make_plmap(
        t,
        [(0, 1, 0),
         (Fraction(1, 4), 4, Fraction(-1, 2)),
         (Fraction(5, 16), 4, -1),
         (Fraction(3, 8), Fraction(1, 4), Fraction(21, 32)),
         (Fraction(7, 8), 1, 0)],
    )
    assert f(Fraction(1, 3)) == Fraction(1, 3)
    report = f.fixed_point_report()
    assert [str(fp.point) for fp in report.points] == [
        "0+", "1/4-", "7/8-", "7/8+", "1-",
    ]
    attractor = report.points[2]
    assert str(attractor.slope) == "1/4" and attractor.attracting
    assert [str(v) for v in report.non_cut_values] == ["1/3"]


# -- libraries and random words --------------------------------------------


@pytest.mark.parametrize(
    "triple",
    [DYADIC, GOLDEN, stein_triple([1], [2, 3], [2, 3], endpoint=1)],
    ids=["dyadic", "golden", "two-three"],
)
def test_generator_library_valid(triple):
    lib = generator_library(triple)
    assert lib
    e = PLMap.identity(triple)
    for g in lib:
        assert g * g.inverse() == e
        assert not g.is_identity()


def test_random_word_deterministic():
    a = random_word(DYADIC, 12, seed=42)
    b = random_word(DYADIC, 12, seed=42)
    c = random_word(DYADIC, 12, seed=43)
    assert a == b
    assert a != c or a.is_identity()  # different seed, almost surely different


@pytest.mark.parametrize(
    "triple",
    [DYADIC, GOLDEN, stein_triple([1], [2, 3], [2, 3], endpoint=1)],
    ids=["dyadic", "golden", "two-three"],
)
def test_group_axioms_random(triple):
    e = PLMap.identity(triple)
    for seed in range(25):
        f = random_word(triple, 6, seed=seed)
        g = random_word(triple, 6, seed=seed + 1000)
        h = random_word(triple, 6, seed=seed + 2000)
        assert (f * g) * h == f * (g * h)
        assert f * e == f and e * f == f
        assert f * f.inverse() == e
        assert (f * g).inverse() == g.inverse() * f.inverse()


# -- prefix exchange form ---------------------------------------------------


def test_x0_prefix_pairs():
    assert to_prefix_pairs(X0) == [("00", "0"), ("01", "10"), ("1", "11")]


def test_prefix_pairs_round_trip():
    for seed in range(30):
        f = random_word(DYADIC, 7, seed=seed)
        pairs = to_prefix_pairs(f)
        assert from_prefix_pairs(DYADIC, pairs) == f


def test_prefix_pairs_depth_bound(monkeypatch):
    monkeypatch.setattr(elements, "_MAX_CYLINDER_DEPTH", 1)
    with pytest.raises(BoundExceeded):
        to_prefix_pairs(X0)  # needs the depth-2 cylinder "00"


def test_from_prefix_pairs_swap():
    f = from_prefix_pairs(DYADIC, [("0", "1"), ("1", "0")])
    assert as_tuples(f) == [("0", "1", "1/2"), ("1/2", "1", "-1/2")]
    assert f * f == PLMap.identity(DYADIC)


def test_prefix_pairs_in_base_three():
    t = thompson_triple(3)
    f = from_prefix_pairs(t, [("0", "2"), ("1", "0"), ("2", "1")])
    pairs = to_prefix_pairs(f)
    assert from_prefix_pairs(t, pairs) == f


def test_from_prefix_pairs_validation():
    with pytest.raises(NotAntichain):
        from_prefix_pairs(DYADIC, [("0", "0"), ("01", "1")])
    with pytest.raises(NotComplete):
        from_prefix_pairs(DYADIC, [("00", "0"), ("01", "1")])
    with pytest.raises(NotComplete):
        # right sides must also exhaust the interval
        from_prefix_pairs(DYADIC, [("0", "00"), ("1", "01")])
    with pytest.raises(UnparsableWord):
        from_prefix_pairs(DYADIC, [("0", "2"), ("1", "0")])
    with pytest.raises(NotAntichain):
        from_prefix_pairs(DYADIC, [("0", "0"), ("1", "1"), ("1", "0")])


def test_prefix_pairs_wrong_context():
    with pytest.raises(WrongContext):
        to_prefix_pairs(PLMap.identity(GOLDEN))
    t = stein_triple([1], [2, 3], [2, 3], endpoint=1)
    with pytest.raises(WrongContext):
        # slope group <2,3> is not cyclic, so no tree pair normal form
        to_prefix_pairs(PLMap.identity(t))


def test_prefix_exchange_convert_wrappers():
    pairs = prefix_exchange_convert(X0, "to_pairs")
    assert pairs == [("00", "0"), ("01", "10"), ("1", "11")]
    f = prefix_exchange_convert(pairs, "from_pairs", triple=DYADIC)
    assert f == X0
    with pytest.raises(Exception):
        prefix_exchange_convert(X0, "sideways")


def test_random_maps_preserve_module_points():
    rng = random.Random(77)
    f = random_word(DYADIC, 10, seed=5)
    for _ in range(40):
        v = Fraction(rng.randint(0, 63), 64)
        image = f(v)
        assert DYADIC.module.contains(image)


def test_golden_random_maps_close():
    # breakpoints of products stay inside Z + Zb
    f = random_word(GOLDEN, 6, seed=11)
    g = random_word(GOLDEN, 6, seed=12)
    h = f * g
    for p in h.pieces:
        assert GOLDEN.module.contains(p.start)
        assert GOLDEN.module.contains(p.offset)
        assert GOLDEN.slopes.contains(p.slope)


# -- composition against the scan-and-sort reference ------------------------

TWO_THREE = stein_triple([1], [2, 3], [2, 3], endpoint=1)


def reference_compose(f, g):
    """f after g the slow way: collect g's starts and the preimages of f's
    breakpoints in a set, sort it, and look both pieces up at every cut."""
    starts = [p.start for p in g.pieces] + [g.triple.endpoint]
    images = [
        (p.image_of(lo), p.image_of(hi)) for p, lo, hi in zip(g.pieces, starts, starts[1:])
    ]
    cuts = {p.start for p in g.pieces}
    for piece in f.pieces:
        b = piece.start
        if b.is_zero():
            continue
        for gp, (gl, gr) in zip(g.pieces, images):
            if (b - gl).sign() >= 0 and (b - gr).sign() < 0:
                cuts.add((b - gp.offset) / gp.slope)
                break
    new_pieces = []
    for u in sorted(cuts):
        gp = g._piece_at(u)
        fp = f._piece_at(gp.image_of(u))
        new_pieces.append(
            Piece(u, fp.slope * gp.slope, fp.slope * gp.offset + fp.offset)
        )
    return PLMap._trusted(f.triple, new_pieces)


def random_prefix_code(rng, k):
    """A complete binary prefix code of k words, none much deeper than needed."""
    cap = math.ceil(math.log2(k)) + 2
    words = [""]
    while len(words) < k:
        shallow = [i for i, w in enumerate(words) if len(w) < cap]
        w = words.pop(rng.choice(shallow))
        words += [w + "0", w + "1"]
    return words


def random_element(triple, rng, k):
    """A seeded element of about k pieces."""
    if triple is TWO_THREE:
        return random_word(triple, k, seed=rng.randrange(10 ** 6))
    image = random_prefix_code(rng, k)
    rng.shuffle(image)
    f = from_prefix_pairs(DYADIC, list(zip(random_prefix_code(rng, k), image)))
    return f if triple is DYADIC else embed_v2_element(f)


def exact_pieces(f):
    return [repr((p.start.coords, p.slope.coords, p.offset.coords)) for p in f.pieces]


@pytest.mark.parametrize(
    "triple", [DYADIC, GOLDEN, TWO_THREE], ids=["dyadic", "golden", "two-three"]
)
def test_compose_matches_reference(triple):
    rng = random.Random(211)
    sizes = set()
    for k_f, k_g in [(4, 4), (4, 16), (16, 4), (8, 8), (16, 16), (32, 8), (8, 32), (32, 32)]:
        f = random_element(triple, rng, k_f)
        g = random_element(triple, rng, k_g)
        sizes.update((len(f.pieces), len(g.pieces)))
        for a, b in [(f, g), (g, f), (f, f.inverse())]:
            assert exact_pieces(a * b) == exact_pieces(reference_compose(a, b))
    assert min(sizes) <= 4 and max(sizes) >= 24


@pytest.mark.parametrize("k_f, k_g", [(4, 4), (16, 16), (32, 32), (32, 4), (4, 32)])
def test_compose_sign_calls_are_near_linear(monkeypatch, k_f, k_g):
    rng = random.Random(223 + k_f + k_g)
    f = random_element(GOLDEN, rng, k_f)
    g = random_element(GOLDEN, rng, k_g)
    calls = []
    real_sign = FieldElement.sign
    monkeypatch.setattr(FieldElement, "sign", lambda x: calls.append(1) or real_sign(x))
    f * g
    p_f, p_g = len(f.pieces), len(g.pieces)
    assert len(calls) <= (p_f + p_g) * (math.ceil(math.log2(p_f)) + 2)
