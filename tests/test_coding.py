"""Digit streams for cut points and the base-2 to golden-base embedding."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from steinv import coding, numbers
from steinv import (
    BoundExceeded,
    CutPoint,
    EventuallyPeriodicWord,
    FieldMismatch,
    PLMap,
    RealAlgebraicField,
    ValidationError,
    beta_cut_point,
    beta_cylinder_interval,
    beta_expand,
    beta_word_value,
    cut_point,
    embed_v2_cut,
    embed_v2_element,
    from_prefix_pairs,
    golden_field,
    golden_triple,
    n_adic_expand,
    n_adic_value,
    random_word,
    rational_field,
    thompson_triple,
)
from references import (
    assert_canonical, count_fractions, reference_beta_value, reference_canonical_word, reference_pow,
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


@settings(max_examples=200, deadline=None)
@given(
    st.text("0123", max_size=6), st.text("01", min_size=1, max_size=4) | st.text("0123", min_size=1),
    st.integers(1, 6), st.text("01", max_size=5),
)
def test_canonical_word_matches_the_divisor_loop(head, root, k, tail):
    # the period is a power of a drawn root, and the preperiod ends in
    # letters that often fold into rotations of it
    period = root * k
    preperiod = head + tail
    w = EventuallyPeriodicWord(preperiod, period)
    assert (w.preperiod, w.period) == reference_canonical_word(preperiod, period)


def test_word_parsing_and_access():
    w = EventuallyPeriodicWord.from_string("10(1)")
    assert w.preperiod == "10"
    assert w.period == "1"
    assert [w.letter(i) for i in range(6)] == ["1", "0", "1", "1", "1", "1"]
    assert w.prefix(5) == "10111"
    assert EventuallyPeriodicWord.from_string("101") == EventuallyPeriodicWord("101", "0")
    with pytest.raises(ValidationError, match="is not a digit string"):
        EventuallyPeriodicWord.from_string("1(a)")
    with pytest.raises(ValidationError, match="the period must be nonempty"):
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
    with pytest.raises(ValidationError, match="is not an n-adic rational for base 2"):
        n_adic_expand(x, 2)  # 1/3 is not dyadic
    with pytest.raises(Exception):
        n_adic_expand(cut_point(DYADIC, Fraction(1, 2), "+"), 1)


def test_n_adic_value_inverse():
    assert n_adic_value("1(0)", 2) == cut_point(DYADIC, Fraction(1, 2), "+")
    assert n_adic_value("0(1)", 2) == cut_point(DYADIC, Fraction(1, 2), "-")
    with pytest.raises(ValidationError, match="is not the stream of a base-2 cut"):
        n_adic_value(EventuallyPeriodicWord("0", "01"), 2)  # 1/3, not a cut stream
    with pytest.raises(ValidationError, match="digit 2 is outside base 2"):
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


def oracle_expand(t: Fraction, side: str, n: int):
    """n_adic_expand by Fraction long division: (error type and message)
    or (preperiod, period), with the checks in the library's order."""
    den = t.denominator
    for p in range(2, n + 1):  # strip every prime of n
        while n % p == 0 and den % p == 0:
            den //= p
    if den != 1:
        return ValidationError, f"{t} is not an n-adic rational for base {n}"
    if side == "+":
        if t < 0 or t >= 1:
            return ValidationError, f"plus cut {t} is outside [0, 1)"
        digits, r = [], t
        while r:
            r *= n
            digits.append(str(int(r)))
            r -= int(r)
        return str(EventuallyPeriodicWord("".join(digits), "0"))
    if t <= 0 or t > 1:
        return ValidationError, f"minus cut {t} is outside (0, 1]"
    digits, r = [], t
    while r:  # the plus digits of t - n^-k, then (n-1)s
        r *= n
        d = int(r) if r.denominator != 1 else int(r) - 1
        digits.append(str(d))
        r -= d
        if r == 1:
            break
    return str(EventuallyPeriodicWord("".join(digits), str(n - 1)))


def oracle_value(word: EventuallyPeriodicWord, n: int):
    """n_adic_value by summing the geometric series of the period."""
    for c in word.preperiod + word.period:
        if int(c) >= n:
            return ValidationError, f"digit {c} is outside base {n}"
    k, m = len(word.preperiod), len(word.period)
    value = Fraction(int(word.preperiod or "0", n), n**k) + Fraction(
        int(word.period, n), n**k * (n**m - 1)
    )
    sides = {"0": "+", str(n - 1): "-"}
    if word.period not in sides:
        return ValidationError, f"{word} is not the stream of a base-{n} cut"
    return value, sides[word.period]


def outcome(call, *args):
    try:
        return call(*args)
    except ValidationError as e:
        return type(e), str(e)


@st.composite
def n_adic_cuts(draw):
    """A base, a side and a value: mostly n-adic points of [0, 1] with the
    edges 0 and 1 common, sometimes outside [0, 1] or not n-adic."""
    n = draw(st.integers(2, 10))
    k = draw(st.integers(0, 6))
    num = draw(st.one_of(st.sampled_from([0, n**k]), st.integers(-(n**k), 2 * n**k)))
    den = draw(st.one_of(st.just(n**k), st.integers(1, 60)))
    return n, Fraction(num, den), draw(st.sampled_from("+-"))


@settings(max_examples=400, deadline=None)
@given(n_adic_cuts())
@example((2, Fraction(0), "+"))
@example((10, Fraction(1), "-"))
def test_n_adic_expand_matches_long_division(case):
    n, t, side = case
    x = CutPoint(rational_field().from_rational(t), side)
    got = outcome(lambda: str(n_adic_expand(x, n)))
    assert got == oracle_expand(t, side, n)
    if isinstance(got, str):
        assert n_adic_value(got, n) == x


@settings(max_examples=400, deadline=None)
@given(
    st.integers(2, 10),
    st.text("0123456789", max_size=8),
    st.one_of(st.sampled_from(["0", "9"]), st.text("0123456789", min_size=1, max_size=3)),
    st.booleans(),
)
def test_n_adic_value_matches_the_geometric_series(n, preperiod, period, top):
    digits = str(n - 1)
    if top:  # valid streams, ending in (n-1)s or in 0s
        preperiod = "".join(c if int(c) < n else digits for c in preperiod)
        period = digits if period != "0" else "0"
    word = EventuallyPeriodicWord(preperiod, period)
    got = outcome(n_adic_value, word, n)
    expected = oracle_value(word, n)
    if isinstance(got, CutPoint):
        assert (got.value.as_fraction(), got.side) == expected
        assert got.value.field is rational_field()
        assert_canonical(got.value)
    else:
        assert got == expected


def test_n_adic_edge_cuts_and_error_messages():
    q = rational_field()
    for n in range(2, 11):
        zero, one = CutPoint(q.zero(), "+"), CutPoint(q.one(), "-")
        assert str(n_adic_expand(zero, n)) == "(0)" and n_adic_value("(0)", n) == zero
        top = f"({n - 1})"
        assert str(n_adic_expand(one, n)) == top and n_adic_value(top, n) == one

    def cut(v, side):
        return CutPoint(q.from_rational(v), side)

    assert [outcome(n_adic_expand, *args) for args in [
        (cut(Fraction(1, 3), "+"), 2),
        (cut(1, "+"), 2),
        (cut(Fraction(-1, 2), "+"), 2),
        (cut(0, "-"), 3),
        (cut(Fraction(3, 2), "-"), 2),
    ]] == [
        (ValidationError, "1/3 is not an n-adic rational for base 2"),
        (ValidationError, "plus cut 1 is outside [0, 1)"),
        (ValidationError, "plus cut -1/2 is outside [0, 1)"),
        (ValidationError, "minus cut 0 is outside (0, 1]"),
        (ValidationError, "minus cut 3/2 is outside (0, 1]"),
    ]
    words = [("12(0)", 2), ("0(01)", 2), ("3(5)", 7)]
    assert [outcome(n_adic_value, w, n) for w, n in words] == [
        (ValidationError, "digit 2 is outside base 2"),
        (ValidationError, "0(01) is not the stream of a base-2 cut"),
        (ValidationError, "3(5) is not the stream of a base-7 cut"),
    ]


def test_n_adic_coding_builds_no_fraction(monkeypatch):
    q = rational_field()
    cuts = [
        (CutPoint(q.from_rational(Fraction(num, n**3)), side), n)
        for n in (2, 3, 6, 10)
        for num in (0, 1, n**3 - 1, n**3)
        for side in "+-"
        if (side == "+" and num < n**3) or (side == "-" and num > 0)
    ]

    def refuse(*args):
        raise AssertionError("the n-adic coding built a Fraction")

    assert not hasattr(coding, "Fraction")
    monkeypatch.setattr(numbers, "Fraction", refuse)
    words = [(str(n_adic_expand(x, n)), n) for x, n in cuts]
    back = [n_adic_value(w, n) for w, n in words]
    monkeypatch.undo()
    assert back == [x for x, _ in cuts]


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
    with pytest.raises(ValidationError, match="contains the forbidden factor 11"):
        beta_word_value("110")
    with pytest.raises(ValidationError, match="contains the forbidden factor 11"):
        # the forbidden factor appears when the period wraps around
        beta_word_value(EventuallyPeriodicWord("", "01011"))
    with pytest.raises(ValidationError, match="is not a binary word"):
        beta_word_value("102")


def _admissible(bits) -> str:
    """The word of the bits with every 1 that follows a 1 read as 0."""
    word = ""
    for bit in bits:
        word += "1" if bit and not word.endswith("1") else "0"
    return word


def admissible_words(max_size):
    return st.lists(st.booleans(), max_size=max_size).map(_admissible)


@settings(max_examples=60, deadline=None)
@given(admissible_words(200))
def test_beta_word_value_matches_the_power_sum(word):
    value = beta_word_value(word)
    assert_canonical(value)
    assert value == reference_beta_value(word)


@settings(max_examples=60, deadline=None)
@given(admissible_words(12), admissible_words(8))
def test_beta_stream_value_matches_the_geometric_series(pre, per):
    # pre(per) is head + beta^-k * cycle / (1 - beta^-m), k and m the lengths
    per = per or "0"
    stream = EventuallyPeriodicWord(pre, per)
    if "11" in pre + per + per:
        with pytest.raises(ValidationError, match="contains the forbidden factor 11"):
            beta_word_value(stream)
        return
    binv = BETA.inverse()
    k, m = len(pre), len(per)
    cycle = reference_beta_value(per) / (1 - reference_pow(binv, m))
    assert beta_word_value(stream) == reference_beta_value(pre) + reference_pow(binv, k) * cycle


def test_beta_word_value_builds_no_fraction():
    # one integer step per letter: a per-letter field operation would
    # build a Fraction in coerce
    word = "10" * 100
    value, built = count_fractions(lambda: beta_word_value(word))
    assert (value, built) == (reference_beta_value(word), 0)


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
    with pytest.raises(ValidationError, match="the cylinder word must be nonempty"):
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
    with pytest.raises(ValidationError, match=r"plus cut 1 is outside \[0, 1\)"):
        beta_expand(GOLDEN.field.one(), "+")
    with pytest.raises(ValidationError, match=r"minus cut 0 is outside \(0, 1\]"):
        beta_expand(GOLDEN.field.zero(), "-")
    with pytest.raises(ValidationError, match=r"plus cut 3 - a is outside \[0, 1\)"):
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
    with pytest.raises(ValidationError, match="is not the stream of a golden-base cut"):
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
    with pytest.raises(ValidationError, match="ends in the middle of a 10 block"):
        substitute_tau("1", "inverse")  # dangling 1 is not a full block
    with pytest.raises(ValidationError, match="contains the forbidden factor 11"):
        substitute_tau("110", "inverse")
    with pytest.raises(ValidationError, match="unknown direction 'sideways'"):
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
    # every binary word up to length 10, and every stream on the words up to
    # length 5, both ways: a word decodes unless it holds 11 or ends in 1
    words = ["".join(p) for n in range(11) for p in itertools.product("01", repeat=n)]
    for w in words:
        assert substitute_tau(substitute_tau(w), "inverse") == w
        if "11" in w or w.endswith("1"):
            why = "contains the forbidden factor 11" if "11" in w else "ends in the middle of a 10 block"
            with pytest.raises(ValidationError, match=f"^{w!r} {why}$"):
                substitute_tau(w, "inverse")
        else:
            assert substitute_tau(substitute_tau(w, "inverse")) == w
    short = [w for w in words if len(w) <= 5]
    for pre, per in itertools.product(short, short[1:]):
        u = EventuallyPeriodicWord(pre, per)
        assert substitute_tau(substitute_tau(u), "inverse") == u
        if "11" in pre + per + per:
            with pytest.raises(ValidationError, match="contains the forbidden factor 11"):
                substitute_tau(u, "inverse")
        else:
            assert substitute_tau(substitute_tau(u, "inverse")) == u


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


@st.composite
def prefix_codes(draw, n):
    """A complete binary prefix code of n words, split leaf by leaf."""
    code = [""]
    while len(code) < n:
        word = code.pop(draw(st.integers(0, len(code) - 1)))
        code += [word + "0", word + "1"]
    return code


@st.composite
def dyadic_tables(draw):
    """A dyadic element from a random prefix exchange table of 2 to 16 pairs."""
    n = draw(st.integers(2, 16))
    domain, codomain = draw(prefix_codes(n)), draw(prefix_codes(n))
    return from_prefix_pairs(DYADIC, list(zip(domain, draw(st.permutations(codomain)))))


@settings(max_examples=40, deadline=None)
@given(dyadic_tables(), dyadic_tables())
def test_embed_is_homomorphism_on_random_tables(f, g):
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
