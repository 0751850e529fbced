"""Piecewise linear right continuous bijections of [0, endpoint)."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from steinv import elements
from steinv import (
    BoundExceeded,
    CutPoint,
    FieldElement,
    PLMap,
    RealAlgebraicField,
    ValidationError,
    cut_point,
    embed_v2_element,
    from_prefix_pairs,
    generator_library,
    golden_triple,
    make_plmap,
    random_word,
    stein_triple,
    thompson_triple,
    to_prefix_pairs,
)
from references import (
    reference_candidate_lengths, reference_compose, reference_inverse, reference_prefix_pairs,
    reference_tiling,
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


_PHI_MINUS_1 = GOLDEN.field.generator() - 1


@pytest.mark.parametrize("triple, values", [
    (DYADIC, [Fraction(1, 4), Fraction(1, 2)]),
    (GOLDEN, [_PHI_MINUS_1 ** 2, _PHI_MINUS_1]),
], ids=["dyadic", "golden"])
def test_every_cut_point_comparison_follows_value_then_side(triple, values):
    # each value on both sides, so equal values meet with equal and with
    # different sides; the NamedTuple's own order would put "+" below "-"
    points = [cut_point(triple, v, side) for v in values for side in "-+"]
    for i, x in enumerate(points):
        for j, y in enumerate(points):
            c = x._key_cmp(y)
            assert c == (i > j) - (i < j)
            assert (x < y, x <= y, x > y, x >= y) == (c < 0, c <= 0, c > 0, c >= 0)
    plus, minus = points[1], points[0]
    assert tuple.__lt__(plus, minus) and minus < plus


def test_cut_point_validation():
    with pytest.raises(ValidationError, match="is not a point of the breakpoint module"):
        cut_point(DYADIC, Fraction(1, 3), "+")
    with pytest.raises(ValidationError, match=r"minus cut 0 is outside \(0, 1\]"):
        cut_point(DYADIC, 0, "-")  # nothing to the left of 0
    with pytest.raises(ValidationError, match=r"plus cut 1 is outside \[0, 1\)"):
        cut_point(DYADIC, 1, "+")  # nothing to the right of the endpoint
    with pytest.raises(ValidationError, match=r"minus cut 2 is outside \(0, 1\]"):
        cut_point(DYADIC, 2, "-")
    cut_point(DYADIC, 1, "-")
    cut_point(DYADIC, 0, "+")
    with pytest.raises(ValidationError, match=r"^side must be '\+' or '-', not '\*'$"):
        cut_point(DYADIC, Fraction(1, 2), "*")


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
    with pytest.raises(ValidationError, match="the first breakpoint must be 0"):
        make_plmap(DYADIC, [(Fraction(1, 2), 1, 0)])  # no piece at 0
    with pytest.raises(ValidationError, match="breakpoints must strictly increase"):
        make_plmap(DYADIC, [(0, 2, 0), (0, 1, 0)])
    with pytest.raises(ValidationError, match="breakpoints must stay below the endpoint"):
        make_plmap(DYADIC, [(0, 1, 0), (2, 1, 0)])  # start beyond endpoint
    with pytest.raises(ValidationError, match="an element needs at least one piece"):
        make_plmap(DYADIC, [])


def test_make_plmap_rejects_bad_data():
    with pytest.raises(ValidationError, match="breakpoint 1/3 is outside the module"):
        make_plmap(DYADIC, [(0, 2, 0), (Fraction(1, 3), 1, 0)])
    with pytest.raises(ValidationError, match="offset 1/5 is outside the module"):
        make_plmap(DYADIC, [(0, 1, Fraction(1, 5))])
    with pytest.raises(ValidationError, match="slope 3 is outside the slope group"):
        make_plmap(DYADIC, [(0, 3, 0)])
    # membership alone refuses a slope that is not positive, in either kind of group
    for triple, slope in [(DYADIC, -2), (DYADIC, 0), (GOLDEN, -GOLDEN.field.generator())]:
        with pytest.raises(ValidationError) as info:
            make_plmap(triple, [(0, slope, 0)])
        assert str(info.value) == f"slope {triple.field.coerce(slope)} is outside the slope group"
    with pytest.raises(ValidationError, match="image intervals do not tile the interval"):
        # both halves map onto [0, 1), overlapping
        make_plmap(DYADIC, [(0, 2, 0), (Fraction(1, 2), 2, -1)])
    with pytest.raises(ValidationError, match="image intervals do not tile the interval"):
        # leaves a gap: [0,1/2) shrinks, rest translates up
        make_plmap(DYADIC, [(0, Fraction(1, 2), 0), (Fraction(1, 2), 1, Fraction(1, 4))])


def test_make_plmap_refuses_a_piece_that_is_not_a_triple():
    for pieces in ([5], [(0, 1)], [(0, 1, 0, 0)], ["010"]):
        with pytest.raises(ValidationError, match=r"^each piece is \(start, slope, offset\)$"):
            make_plmap(DYADIC, pieces)


def test_from_prefix_pairs_refuses_a_pair_that_is_not_a_pair():
    for pairs in ([("0", "1", "2")], ["01"], [("0",)], [5]):
        with pytest.raises(ValidationError, match=r"^each pair is \(domain word, range word\)$"):
            from_prefix_pairs(DYADIC, pairs)


def test_identity_and_merge():
    e = PLMap.identity(DYADIC)
    assert e.is_identity()
    assert len(e.pieces) == 1
    # piecewise description of the identity collapses to one piece
    f = make_plmap(DYADIC, [(0, 1, 0), (Fraction(1, 2), 1, 0)])
    assert f == e
    assert hash(f) == hash(e)


def test_call_domain_checks():
    with pytest.raises(ValidationError, match=r"plus cut 3/2 is outside \[0, 1\)"):
        X0(Fraction(3, 2))
    with pytest.raises(ValidationError, match=r"plus cut -1 is outside \[0, 1\)"):
        X0(-1)
    with pytest.raises(ValidationError, match=r"plus cut 1 is outside \[0, 1\)"):
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
    with pytest.raises(ValidationError, match="images do not end at the endpoint"):
        make_plmap(other, [(0, 3, 0)])
    with pytest.raises(ValidationError, match="elements come from different triples"):
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


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([DYADIC, GOLDEN]), st.integers(0, 10**6),
    st.integers(-40, 40), st.integers(-40, 40), st.integers(1, 64),
)
def test_call_is_the_action_on_the_plus_cut(triple, seed, x, y, den):
    field = triple.field
    # a value of [0, 1), a module point or not
    t = field.coerce(Fraction(x, den)) + (0 if field.degree == 1 else y * field.generator() / den)
    assume(t.sign() >= 0 and t < 1)
    f = random_element(triple, random.Random(seed), 8)
    assert f(t) == f.act_on_cut(CutPoint(t, "+")).value


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


def power_basis_triple(d, primes=(2,), scale=1):
    """Q(2^(1/d)) with the module scale * <1, a, ..., a^(d-1)> over the
    primes and slopes <2>."""
    field = RealAlgebraicField([-2] + [0] * (d - 1) + [1], (1, 2))
    basis = [field.element([0] * j + [scale]) for j in range(d)]
    return stein_triple(basis, primes, [2], endpoint=1, field=field)


def golden_mixed_triple():
    """(-1/3, a/2, ...) over Z[1/6] in the golden field: a negative and a
    fractional basis element with two denominators."""
    field = GOLDEN.field
    a = field.generator()
    return stein_triple([field.coerce(Fraction(-1, 3)), a / 2], [2, 3], [2, 3], field=field)


@pytest.mark.parametrize(
    "triple",
    [
        DYADIC,
        GOLDEN,
        thompson_triple(6),
        stein_triple([Fraction(-3, 4)], [5], [5]),
        golden_mixed_triple(),
        power_basis_triple(3),
        power_basis_triple(3, primes=(2, 3), scale=Fraction(-2, 3)),
        power_basis_triple(4),
    ],
    ids=["dyadic", "golden", "base-six", "negative-rational", "golden-mixed", "cubic",
         "cubic-scaled", "quartic"],
)
def test_candidate_lengths_match_the_sorted_field_sums(triple):
    assert elements._candidate_lengths(triple) == reference_candidate_lengths(triple)


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


def test_no_generator_fits_a_tiny_interval():
    # (Z[1/2], <2>, 1/1024): the candidate lengths 1/4, 1/2, 1 and 2 are all
    # too long for a swap or a rescale
    tiny = stein_triple([1], [2], [2], endpoint=Fraction(1, 1024))
    with pytest.raises(ValidationError, match="^no generator shape fits inside the interval$"):
        generator_library(tiny)


def test_random_word_deterministic():
    a = random_word(DYADIC, 12, seed=42)
    b = random_word(DYADIC, 12, seed=42)
    c = random_word(DYADIC, 12, seed=43)
    assert a == b
    assert a != c or a.is_identity()  # different seed, almost surely different


def test_random_word_length_that_is_not_an_int_raises_validation_error():
    # it used to raise TypeError from range()
    with pytest.raises(ValidationError, match="2.0 is not an integer"):
        random_word(DYADIC, 2.0, 1)


def test_random_word_of_negative_length_raises_validation_error():
    with pytest.raises(ValidationError, match="^the word length -1 is negative$"):
        random_word(DYADIC, -1, 0)


def test_random_word_length_is_capped(monkeypatch):
    monkeypatch.setattr(elements, "_MAX_LETTERS", 12)
    assert random_word(DYADIC, 12, seed=42) == random_word(DYADIC, 12, seed=42)

    def refuse(*args):
        raise AssertionError("the library was built for an over-long word")

    monkeypatch.setattr(elements, "generator_library", refuse)
    with pytest.raises(BoundExceeded, match="capped at 12 letters"):
        random_word(DYADIC, 13, seed=42)


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
    pairs = to_prefix_pairs(X0)
    assert pairs == [("00", "0"), ("01", "10"), ("1", "11")]
    assert from_prefix_pairs(DYADIC, pairs) == X0


def test_prefix_pairs_round_trip():
    for seed in range(30):
        f = random_word(DYADIC, 7, seed=seed)
        pairs = to_prefix_pairs(f)
        assert from_prefix_pairs(DYADIC, pairs) == f


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
    with pytest.raises(ValidationError, match=r"^'0' is a prefix of '01'$"):
        from_prefix_pairs(DYADIC, [("0", "0"), ("01", "1")])
    with pytest.raises(ValidationError, match=r"^duplicate word '0'$"):
        from_prefix_pairs(DYADIC, [("0", "0"), ("0", "1")])
    with pytest.raises(ValidationError, match=r"^duplicate word '1'$"):
        from_prefix_pairs(DYADIC, [("0", "1"), ("1", "1")])
    with pytest.raises(ValidationError, match="cylinders cover 1/2 of the interval"):
        from_prefix_pairs(DYADIC, [("00", "0"), ("01", "1")])
    with pytest.raises(ValidationError, match="cylinders cover 1/2 of the interval"):
        # right sides must also exhaust the interval
        from_prefix_pairs(DYADIC, [("0", "00"), ("1", "01")])
    with pytest.raises(ValidationError, match="word '2' has digits outside base 2"):
        from_prefix_pairs(DYADIC, [("0", "2"), ("1", "0")])
    with pytest.raises(ValidationError, match="duplicate word '1'"):
        from_prefix_pairs(DYADIC, [("0", "0"), ("1", "1"), ("1", "0")])


@st.composite
def prefix_elements(draw):
    """An element of (Z[1/n], <n>, 1), n in 2, 3, 10, from two prefix
    codes of up to four splits each, so that slopes run from n^-4 to n^4;
    half the time a product of two of them."""
    n = draw(st.sampled_from([2, 3, 10]))
    triple = thompson_triple(n)

    def element():
        splits = draw(st.integers(1, 4))
        codes = []
        for _ in range(2):
            words = [""]
            for _ in range(splits):
                w = words.pop(draw(st.integers(0, len(words) - 1)))
                words += [w + str(d) for d in range(n)]
            codes.append(words)
        return from_prefix_pairs(triple, list(zip(codes[0], draw(st.permutations(codes[1])))))

    f = element()
    return f * element() if draw(st.booleans()) else f


# slopes 2^3, 2^2, 1, 2^-2 and 2^-3: image and domain depths differ by up to 3
@example(from_prefix_pairs(DYADIC, [("0000", "1"), ("0001", "01"), ("001", "001"),
                                    ("01", "0001"), ("1", "0000")]))
@settings(max_examples=150, deadline=None)
@given(prefix_elements())
def test_integer_prefix_walk_matches_the_fraction_walk(f):
    pairs = to_prefix_pairs(f)
    assert pairs == reference_prefix_pairs(f)
    assert from_prefix_pairs(f.triple, pairs) == f


@st.composite
def prefix_tables(draw):
    """A triple (Z[1/n], <n>, 1), n in 2, 3, 5, and a complete table of up
    to 32 pairs between two random prefix codes, in random order."""
    n = draw(st.sampled_from([2, 3, 5]))
    splits = draw(st.integers(0, 31 // (n - 1)))
    codes = []
    for _ in range(2):
        words = [""]
        for _ in range(splits):
            w = words.pop(draw(st.integers(0, len(words) - 1)))
            words += [w + str(d) for d in range(n)]
        codes.append(words)
    pairs = list(zip(codes[0], draw(st.permutations(codes[1]))))
    return thompson_triple(n), draw(st.permutations(pairs))


@settings(max_examples=150, deadline=None)
@given(prefix_tables())
def test_trusted_prefix_construction_passes_make_plmap(table):
    triple, pairs = table
    f = from_prefix_pairs(triple, pairs)
    assert f == make_plmap(triple, [tuple(p) for p in f.pieces])


def test_prefix_pairs_wrong_context():
    with pytest.raises(ValidationError, match=r"words need the triple \(Z\[1/n\], <n>, 1\)"):
        to_prefix_pairs(PLMap.identity(GOLDEN))
    t = stein_triple([1], [2, 3], [2, 3], endpoint=1)
    with pytest.raises(ValidationError, match=r"words need the triple \(Z\[1/n\], <n>, 1\)"):
        # slope group <2,3> is not cyclic, so no tree pair normal form
        to_prefix_pairs(PLMap.identity(t))


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
        for h in (f, g):
            assert exact_pieces(h.inverse()) == reference_inverse(h)
    assert min(sizes) <= 4 and max(sizes) >= 24


def count_comparisons(monkeypatch):
    """A list that grows by one at every order comparison of field elements."""
    calls = []
    real_cmp = FieldElement._cmp
    monkeypatch.setattr(FieldElement, "_cmp", lambda x, y: calls.append(1) or real_cmp(x, y))
    return calls


@pytest.mark.parametrize("k_f, k_g", [(4, 4), (16, 16), (32, 32), (32, 4), (4, 32)])
def test_compose_sign_calls_are_near_linear(monkeypatch, k_f, k_g):
    # every order decision is a sign of a difference in `_cmp`; the walk
    # along other's images makes one per step of either index
    rng = random.Random(223 + k_f + k_g)
    f = random_element(GOLDEN, rng, k_f)
    g = random_element(GOLDEN, rng, k_g)
    calls = count_comparisons(monkeypatch)
    f * g
    assert 0 < len(calls) <= len(f.pieces) + len(g.pieces)


@pytest.mark.parametrize("triple", [DYADIC, TWO_THREE], ids=["dyadic", "two-three"])
@pytest.mark.parametrize("k", [1, 4, 16, 32])
def test_make_plmap_tiling_costs_one_comparison(monkeypatch, triple, k):
    # in degree one membership compares nothing, so the count is the n - 1
    # start-order checks, the last start against the endpoint, and one
    # comparison of the last image's right end with the endpoint
    f = random_element(triple, random.Random(k), k)
    raw = [tuple(p) for p in f.pieces]
    calls = count_comparisons(monkeypatch)
    assert make_plmap(triple, raw) == f
    assert len(calls) == len(raw) + 1


# each mutation moves one piece so that its image leaves the tiling, and
# the message make_plmap raises for it; "short" lowers the slope of the
# last piece in image order, keeping its image's left end
TILING_MUTATIONS = {
    "none": None,
    "duplicate": "image intervals do not tile the interval",
    "gap": "image intervals do not tile the interval",
    "overlap": "image intervals do not tile the interval",
    "short": "images do not end at the endpoint",
}


@pytest.mark.parametrize("triple", [DYADIC, GOLDEN], ids=["dyadic", "golden"])
@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10 ** 6),
    size=st.integers(1, 12),
    mutation=st.sampled_from(sorted(TILING_MUTATIONS)),
    which=st.integers(0, 10 ** 6),
    depth=st.integers(1, 6),
)
def test_make_plmap_tiling_matches_the_sorted_check(triple, seed, size, mutation, which, depth):
    f = random_element(triple, random.Random(seed), size)
    pieces = list(f.pieces)
    n = len(pieces)
    lefts = [p.slope * p.start + p.offset for p in pieces]
    gen = triple.field.coerce(triple.slopes.generator_values()[0])
    gen = gen if gen > 1 else gen.inverse()
    i = which % n
    start, slope, offset = pieces[i]
    if mutation == "duplicate":
        assume(n > 1)
        j = (i + 1 + which // n % (n - 1)) % n
        offset = lefts[j] - slope * start
    elif mutation in ("gap", "overlap"):
        offset += gen ** -depth if mutation == "gap" else -(gen ** -depth)
    elif mutation == "short":
        i = max(range(n), key=lambda m: lefts[m])
        start, slope = pieces[i].start, pieces[i].slope / gen
        offset = lefts[i] - slope * start
    pieces[i] = elements.Piece(start, slope, offset)
    expected = reference_tiling(pieces, triple.endpoint)
    assert expected == TILING_MUTATIONS[mutation]
    if expected is None:
        assert make_plmap(triple, pieces) == f
    else:
        with pytest.raises(ValidationError) as info:
            make_plmap(triple, pieces)
        assert str(info.value) == expected
