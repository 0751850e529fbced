"""Digit streams for cut points and the base-2 to golden-base embedding."""

import random
from fractions import Fraction

import pytest

from steinv import coding
from steinv import (
    BoundExceeded,
    CutPoint,
    EmptyWord,
    EventuallyPeriodicWord,
    FieldMismatch,
    ForbiddenFactor,
    NotInGamma,
    OutOfDomain,
    PLMap,
    RealAlgebraicField,
    UnparsableWord,
    UnsupportedInput,
    WrongContext,
    beta_cut_point,
    beta_cylinder_interval,
    beta_expand,
    beta_word_value,
    cut_point,
    embed_v2_cut,
    embed_v2_element,
    golden_field,
    golden_triple,
    n_adic_expand,
    n_adic_value,
    random_word,
    rational_field,
    thompson_triple,
)

DYADIC = thompson_triple(2)
GOLDEN = golden_triple()
BETA = golden_field().generator()


# -- eventually periodic words ----------------------------------------------


def test_word_canonical_forms():
    # trailing preperiod letters that match the period fold into a rotation
    w = EventuallyPeriodicWord("011", "01")
    assert str(w) == "01(10)"
    assert str(EventuallyPeriodicWord("", "1212")) == "(12)"  # primitive period
    assert str(EventuallyPeriodicWord("10", "0")) == "1(0)"
    assert str(EventuallyPeriodicWord("1000", "0")) == "1(0)"
    assert str(EventuallyPeriodicWord("", "0")) == "(0)"
    assert EventuallyPeriodicWord("011", "01") == EventuallyPeriodicWord("01", "10")


def test_word_parsing_and_access():
    w = EventuallyPeriodicWord.from_string("10(1)")
    assert w.preperiod == "10"
    assert w.period == "1"
    assert [w.letter(i) for i in range(6)] == ["1", "0", "1", "1", "1", "1"]
    assert w.prefix(5) == "10111"
    assert EventuallyPeriodicWord.from_string("101") == EventuallyPeriodicWord("101", "0")
    with pytest.raises(UnparsableWord):
        EventuallyPeriodicWord.from_string("1(a)")
    with pytest.raises(EmptyWord):
        EventuallyPeriodicWord("1", "")


def test_word_equality_and_hash():
    a = EventuallyPeriodicWord("0", "01")
    b = EventuallyPeriodicWord("001", "01")
    assert str(b) == "0(01)" == str(a)
    assert a == b and hash(a) == hash(b)


# -- n-adic streams ---------------------------------------------------------


def test_dyadic_expansions():
    half_plus = cut_point(DYADIC, Fraction(1, 2), "+")
    half_minus = cut_point(DYADIC, Fraction(1, 2), "-")
    assert str(n_adic_expand(half_plus, 2)) == "1(0)"
    assert str(n_adic_expand(half_minus, 2)) == "0(1)"
    assert str(n_adic_expand(cut_point(DYADIC, Fraction(3, 4), "-"), 2)) == "10(1)"
    assert str(n_adic_expand(cut_point(DYADIC, 0, "+"), 2)) == "(0)"
    assert str(n_adic_expand(cut_point(DYADIC, 1, "-"), 2)) == "(1)"


def test_base_ten_expansion():
    t = thompson_triple(10)
    x = cut_point(t, Fraction(1, 8), "+")
    assert str(n_adic_expand(x, 10)) == "125(0)"
    assert str(n_adic_expand(cut_point(t, Fraction(1, 8), "-"), 10)) == "124(9)"


def test_expand_wrong_context():
    x = cut_point(thompson_triple(3), Fraction(1, 3), "+")
    with pytest.raises(WrongContext):
        n_adic_expand(x, 2)  # 1/3 is not dyadic
    with pytest.raises(Exception):
        n_adic_expand(cut_point(DYADIC, Fraction(1, 2), "+"), 1)


def test_n_adic_value_inverse():
    assert n_adic_value("1(0)", 2) == cut_point(DYADIC, Fraction(1, 2), "+")
    assert n_adic_value("0(1)", 2) == cut_point(DYADIC, Fraction(1, 2), "-")
    with pytest.raises(NotInGamma):
        n_adic_value(EventuallyPeriodicWord("0", "01"), 2)  # 1/3, not a cut stream
    with pytest.raises(UnparsableWord):
        n_adic_value("2(0)", 2)


def test_n_adic_round_trip_random():
    rng = random.Random(301)
    for n in (2, 3, 10):
        t = thompson_triple(n)
        for _ in range(120):
            num = rng.randint(0, n ** 6 - 1)
            v = Fraction(num, n ** 6)
            if v == 0:
                x = cut_point(t, 0, "+")
            else:
                x = cut_point(t, v, rng.choice("+-"))
            w = n_adic_expand(x, n)
            assert n_adic_value(w, n) == x


# -- golden-base words ------------------------------------------------------


def test_beta_word_values():
    assert beta_word_value("10") == BETA - 1
    assert beta_word_value("10") == BETA.inverse()
    assert beta_word_value("1") == BETA - 1  # same value, shallower cylinder
    assert beta_word_value("01") == (BETA - 1) ** 2
    assert beta_word_value(EventuallyPeriodicWord("", "10")) == 1
    assert beta_word_value(EventuallyPeriodicWord("", "01")) == BETA - 1
    assert beta_word_value(EventuallyPeriodicWord("", "0")) == 0


def test_beta_word_rejections():
    with pytest.raises(ForbiddenFactor):
        beta_word_value("110")
    with pytest.raises(ForbiddenFactor):
        # the forbidden factor appears when the period wraps around
        beta_word_value(EventuallyPeriodicWord("", "01011"))
    with pytest.raises(UnparsableWord):
        beta_word_value("102")


def test_beta_cylinders():
    lo, hi = beta_cylinder_interval("10")
    assert lo == CutPoint(BETA - 1, "+")
    assert hi == CutPoint(GOLDEN.field.one(), "-")
    # a trailing 1 forces the next letter to 0, deepening the cylinder
    lo1, hi1 = beta_cylinder_interval("1")
    assert lo1.value == BETA - 1
    assert hi1 == hi
    lo0, hi0 = beta_cylinder_interval("0")
    assert lo0.value == 0
    assert hi0.value == BETA - 1
    with pytest.raises(EmptyWord):
        beta_cylinder_interval("")


def test_beta_cylinders_tile():
    # level sets {00, 010, 011x -> forbidden, 10, ...}: check a partition
    words = ["00", "010", "10"]
    cuts = []
    for w in words:
        lo, hi = beta_cylinder_interval(w)
        cuts.append((lo.value, hi.value))
    cuts.sort(key=lambda p: p[0])
    cursor = GOLDEN.field.zero()
    for lo, hi in cuts:
        assert lo == cursor
        cursor = hi
    assert cursor == 1


def test_beta_expand_anchors():
    assert str(beta_expand(BETA - 1, "+")) == "1(0)"
    assert str(beta_expand(BETA - 1, "-")) == "(01)"
    assert str(beta_expand(GOLDEN.field.one(), "-")) == "(10)"
    assert str(beta_expand(GOLDEN.field.zero(), "+")) == "(0)"
    assert str(beta_expand((BETA - 1) ** 2, "+")) == "01(0)"


def test_beta_expand_round_trip():
    rng = random.Random(307)
    module = GOLDEN.module
    for _ in range(150):
        v = GOLDEN.field.element([rng.randint(-20, 20), rng.randint(-20, 20)])
        if v.sign() < 0 or (v - 1).sign() >= 0:
            continue
        assert module.contains(v)
        w = beta_expand(v, "+")
        assert beta_cut_point(w) == CutPoint(v, "+")
        if v.sign() > 0:
            wm = beta_expand(v, "-")
            assert beta_cut_point(wm) == CutPoint(v, "-")


def test_beta_expand_domain_errors():
    with pytest.raises(OutOfDomain):
        beta_expand(GOLDEN.field.one(), "+")
    with pytest.raises(OutOfDomain):
        beta_expand(GOLDEN.field.zero(), "-")
    with pytest.raises(OutOfDomain):
        beta_expand(2 - BETA + 1, "+")  # 3 - b > 1


def test_beta_expand_field_of_the_value():
    s2 = RealAlgebraicField([-2, 0, 1], (1, 2))
    for coords in ([-1, 1], [1, 1]):  # sqrt 2 - 1 is not phi - 1; sqrt 2 + 1
        for side in "+-":
            with pytest.raises(FieldMismatch):
                beta_expand(s2.element(coords), side)
    cubic = RealAlgebraicField([-2, 0, 0, 1], (Fraction(5, 4), Fraction(4, 3)))
    for field in (s2, cubic, rational_field()):
        assert str(beta_expand(field.from_rational(Fraction(1, 2)), "+")) == str(
            beta_expand(Fraction(1, 2), "+")
        )
    twin = RealAlgebraicField([-1, -1, 1], (1, 2))  # another golden handle
    assert str(beta_expand(twin.element([-1, 1]), "+")) == "1(0)"


def test_beta_expand_step_bound(monkeypatch):
    monkeypatch.setattr(coding, "_MAX_GREEDY_STEPS", 3)
    assert str(beta_expand(BETA - 1, "+")) == "1(0)"  # cycles on the third step
    with pytest.raises(BoundExceeded):
        beta_expand(2 - BETA, "+")  # 01(0) needs a fourth


def test_beta_cut_point_sides():
    from steinv import substitute_tau

    assert beta_cut_point("1(0)").side == "+"
    assert beta_cut_point(EventuallyPeriodicWord("", "10")).side == "-"
    with pytest.raises(NotInGamma):
        beta_cut_point(EventuallyPeriodicWord("", "010010"))
    # exercises the parser path too
    assert beta_cut_point("0(01)") == CutPoint((BETA - 1) ** 2, "-")
    assert substitute_tau  # imported for the tests below


# -- the substitution -------------------------------------------------------


def test_tau_forward():
    from steinv import substitute_tau

    assert substitute_tau("0") == "0"
    assert substitute_tau("1") == "10"
    assert substitute_tau("11") == "1010"
    assert substitute_tau("011") == "01010"
    w = substitute_tau(EventuallyPeriodicWord("1", "1"))
    assert str(w) == "(10)"


def test_tau_inverse():
    from steinv import substitute_tau

    assert substitute_tau("10", "inverse") == "1"
    assert substitute_tau("100", "inverse") == "10"
    assert substitute_tau("01010", "inverse") == "011"
    with pytest.raises(UnparsableWord):
        substitute_tau("1", "inverse")  # dangling 1 is not a full block
    with pytest.raises(ForbiddenFactor):
        substitute_tau("110", "inverse")
    with pytest.raises(UnsupportedInput):
        substitute_tau("10", "sideways")


def test_tau_inverse_stream():
    from steinv import substitute_tau

    w = EventuallyPeriodicWord("", "10")
    assert str(substitute_tau(w, "inverse")) == "(1)"
    v = EventuallyPeriodicWord("0", "10")
    assert str(substitute_tau(v, "inverse")) == "0(1)"
    assert str(substitute_tau(EventuallyPeriodicWord("", "0"), "inverse")) == "(0)"


def test_tau_round_trip_random():
    from steinv import substitute_tau

    rng = random.Random(311)
    for _ in range(200):
        w = "".join(rng.choice("01") for _ in range(rng.randint(1, 14)))
        assert substitute_tau(substitute_tau(w), "inverse") == w


# -- the embedding ----------------------------------------------------------


def test_embed_cut_anchors():
    x = cut_point(DYADIC, Fraction(1, 2), "+")
    y = embed_v2_cut(x)
    assert y == CutPoint(BETA - 1, "+")
    xm = cut_point(DYADIC, Fraction(1, 2), "-")
    ym = embed_v2_cut(xm)
    # 0(1) becomes 0(10), the minus cut at (b-1)^2 + (b-1)^3/(1-...)
    assert ym.side == "-"
    assert embed_v2_cut(cut_point(DYADIC, 1, "-")) == CutPoint(GOLDEN.field.one(), "-")
    assert embed_v2_cut(cut_point(DYADIC, 0, "+")) == CutPoint(GOLDEN.field.zero(), "+")


def test_embed_cut_order_preserving():
    rng = random.Random(313)
    cuts = []
    for _ in range(80):
        v = Fraction(rng.randint(1, 127), 128)
        cuts.append(cut_point(DYADIC, v, rng.choice("+-")))
    cuts.append(cut_point(DYADIC, 0, "+"))
    cuts.append(cut_point(DYADIC, 1, "-"))
    cuts.sort()
    images = [embed_v2_cut(x) for x in cuts]
    for a, b in zip(images, images[1:]):
        assert a < b or a == b
    # strictly increasing on distinct cuts
    for a, b, x, y in zip(images, images[1:], cuts, cuts[1:]):
        if x < y:
            assert a < b


def test_embed_half_swap():
    swap = PLMap.identity(DYADIC)
    from steinv import from_prefix_pairs

    swap = from_prefix_pairs(DYADIC, [("0", "1"), ("1", "0")])
    image = embed_v2_element(swap)
    got = [(str(p.start), str(p.slope), str(p.offset)) for p in image.pieces]
    assert got == [
        ("0", "-1 + a", "-1 + a"),
        ("-1 + a", "a", "-1"),
    ]
    assert image * image == PLMap.identity(GOLDEN)


def test_embed_is_homomorphism():
    for seed in range(20):
        f = random_word(DYADIC, 5, seed=seed)
        g = random_word(DYADIC, 5, seed=seed + 500)
        assert embed_v2_element(f * g) == embed_v2_element(f) * embed_v2_element(g)


def test_embed_injective_on_sample():
    images = {}
    for seed in range(25):
        f = random_word(DYADIC, 6, seed=seed)
        key = embed_v2_element(f)
        for other, h in images.items():
            if key == h:
                assert f == other
        images[f] = key


def test_embed_intertwines_cut_action():
    rng = random.Random(317)
    for seed in range(10):
        f = random_word(DYADIC, 6, seed=seed)
        fb = embed_v2_element(f)
        for _ in range(10):
            v = Fraction(rng.randint(1, 63), 64)
            x = cut_point(DYADIC, v, rng.choice("+-"))
            assert embed_v2_cut(f.act_on_cut(x)) == fb.act_on_cut(embed_v2_cut(x))
