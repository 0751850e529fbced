"""End-to-end acceptance checks.

Each test covers one headline capability, prints a single PASS/FAIL
line on the terminal (bypassing capture), and fails loudly with the
collected details otherwise.  Expected values come from closed forms
and from the slow, independent reference computations of
tests/references.py.
"""

import math
import random
import time
from fractions import Fraction

from steinv import (
    CutPoint,
    EventuallyPeriodicWord,
    PLMap,
    algebraic_triple,
    beta_word_value,
    classify_pair,
    coinvariants,
    cut_point,
    embed_v2_cut,
    embed_v2_element,
    from_prefix_pairs,
    generator_library,
    golden_field,
    golden_triple,
    make_plmap,
    n_adic_expand,
    n_adic_value,
    rank_one_report,
    stein_triple,
    thompson_triple,
    to_prefix_pairs,
)
from steinv.coding import beta_cut_point, beta_expand
from steinv.intlinalg import IntMatrix, hermite_normal_form, smith_normal_form
from references import minor_gcd_factors, prime_factors


def _report(capsys, num: int, label: str, failures) -> None:
    status = "PASS" if not failures else "FAIL"
    with capsys.disabled():
        print(f"[criterion {num}] {status}: {label}")
    assert not failures, f"criterion {num}: {failures[:5]}"


# -- independent reference computations -------------------------------------


def _library_words(triple, count, length, seed):
    """Random products drawn from a shared generator library."""
    lib = generator_library(triple)
    inv = [g.inverse() for g in lib]
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        acc = PLMap.identity(triple)
        for _ in range(length):
            k = rng.randrange(len(lib))
            acc = acc * (inv[k] if rng.randrange(2) else lib[k])
        out.append(acc)
    return out


def _random_admissible(rng) -> str:
    """Finite golden-base digit string with no 11 factor and some 1."""
    bits = []
    prev = "0"
    for _ in range(rng.randint(1, 10)):
        prev = "0" if prev == "1" else rng.choice("01")
        bits.append(prev)
    if "1" not in bits:
        bits.append("1")
    return "".join(bits)


# -- criteria ---------------------------------------------------------------


def test_criterion_1_fractional_slope_closed_form(capsys):
    failures = []
    start = time.perf_counter()
    for p, q in [(3, 2), (5, 2), (5, 3), (7, 4), (7, 2)]:
        primes = prime_factors(p * q)
        t = stein_triple([1], primes, [Fraction(p, q)], endpoint=1)
        inv = coinvariants(t)
        # p and q are coprime, so no inverted prime divides p - q
        want = () if p - q == 1 else (p - q,)
        if inv.invariant_factors != want or inv.free_rank != 0:
            failures.append((p, q, inv.invariant_factors, want))
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        failures.append(("runtime", elapsed))
    _report(
        capsys, 1,
        "coinvariants of scaling by p/q on Z[1/pq] equal Z/(p-q)",
        failures,
    )


def test_criterion_2_base_n_consistency(capsys):
    failures = []
    for n in range(2, 13):
        t = thompson_triple(n)
        inv = coinvariants(t)
        want = () if n == 2 else (n - 1,)
        if inv.invariant_factors != want or inv.free_rank != 0:
            failures.append((n, inv.invariant_factors))
    # base-n groups with endpoints r and s agree exactly when
    # n = m and gcd(n-1, r) = gcd(m-1, s)
    triples = {
        (n, r): thompson_triple(n, endpoint=r)
        for n in range(2, 6)
        for r in range(1, 7)
    }
    for (n, r), a in triples.items():
        for (m, s), b in triples.items():
            v = rank_one_report(a, b)
            expected = n == m and math.gcd(n - 1, r) == math.gcd(m - 1, s)
            if v.is_unknown or v.is_isomorphic != expected:
                failures.append((n, r, m, s, v.outcome))
    _report(
        capsys, 2,
        "base-n closed forms and the gcd classification of 576 pairs",
        failures,
    )


def test_criterion_3_quadratic_examples(capsys):
    failures = []
    sqrt2 = algebraic_triple([-1, 2, 1], (Fraction(2, 5), Fraction(1, 2)))
    inv_s = coinvariants(sqrt2)
    oracle_s = tuple(d for d in minor_gcd_factors([[1, -1], [-1, 3]]) if d != 1)
    if inv_s.invariant_factors != oracle_s or inv_s.invariant_factors != (2,):
        failures.append(("sqrt2-1", inv_s.invariant_factors, oracle_s))

    gold = golden_triple()
    inv_g = coinvariants(gold)
    oracle_g = tuple(d for d in minor_gcd_factors([[1, -1], [-1, 0]]) if d != 1)
    if inv_g.invariant_factors != oracle_g or not inv_g.is_trivial():
        failures.append(("golden", inv_g.invariant_factors, oracle_g))

    b = golden_field().generator()
    v = classify_pair(golden_triple(1), golden_triple(b))
    if not v.is_isomorphic:
        failures.append(("endpoint-scaling", v.outcome))
    _report(
        capsys, 3,
        "quadratic coinvariants match an independent minor-gcd oracle",
        failures,
    )


def test_criterion_4_obstruction_pair(capsys):
    failures = []
    a = stein_triple([1], [2, 3], [2, 3], endpoint=1)
    b = stein_triple([1], [2, 5], [2, 5], endpoint=1)
    v = classify_pair(a, b)
    if not v.is_not_isomorphic:
        failures.append(("2,3 vs 2,5", v.outcome))
    elif "order-preserving embedding" not in (v.obstruction or ""):
        failures.append(("2,3 vs 2,5", v.obstruction))
    c = stein_triple([1], [2, 3], [2, 9], endpoint=1)
    w = classify_pair(a, c)
    if not w.is_unknown:
        failures.append(("2,3 vs 2,9", w.outcome))
    _report(
        capsys, 4,
        "order-embedding obstruction separates <2,3> from <2,5>; <2,9> stays open",
        failures,
    )


def test_criterion_5_embedding_suite(capsys):
    failures = []
    start = time.perf_counter()
    dyadic = thompson_triple(2)
    golden = golden_triple()
    field = golden_field()
    beta = field.generator()

    # anchor streams
    if beta_word_value(EventuallyPeriodicWord("", "01")) != beta.inverse():
        failures.append(("anchor", "(01) should have value 1/beta"))
    if beta_word_value(EventuallyPeriodicWord("", "10")) != field.one():
        failures.append(("anchor", "(10) should have value 1"))

    # homomorphism on 200 seeded pairs
    words = _library_words(dyadic, 400, 4, seed=500)
    images = [embed_v2_element(w) for w in words]
    for i in range(200):
        f, g = words[2 * i], words[2 * i + 1]
        if embed_v2_element(f * g) != images[2 * i] * images[2 * i + 1]:
            failures.append(("hom", i))
            break

    # every image revalidates from scratch in the golden context
    for f, image in zip(words, images):
        data = [(p.start, p.slope, p.offset) for p in image.pieces]
        if make_plmap(golden, data) != image:
            failures.append(("revalidate", f))
            break

    # order preservation on 1000 random cut pairs
    rng = random.Random(501)
    for i in range(1000):
        x = cut_point(dyadic, Fraction(rng.randint(1, 255), 256), rng.choice("+-"))
        y = cut_point(dyadic, Fraction(rng.randint(1, 255), 256), rng.choice("+-"))
        fx, fy = embed_v2_cut(x), embed_v2_cut(y)
        if (x < y) != (fx < fy) or (y < x) != (fy < fx):
            failures.append(("order", str(x), str(y)))
            break

    elapsed = time.perf_counter() - start
    if elapsed >= 30.0:
        failures.append(("runtime", elapsed))
    _report(
        capsys, 5,
        "base-2 to golden-base embedding: homomorphism, order, anchors",
        failures,
    )


def test_criterion_6_group_axioms_and_round_trips(capsys):
    failures = []
    contexts = [
        ("dyadic", thompson_triple(2), 6),
        ("golden", golden_triple(), 3),
        ("two-three", stein_triple([1], [2, 3], [2, 3], endpoint=1), 4),
    ]
    for name, triple, length in contexts:
        e = PLMap.identity(triple)
        words = _library_words(triple, 3000, length, seed=600)
        for i in range(1000):
            f, g, h = words[3 * i], words[3 * i + 1], words[3 * i + 2]
            if (f * g) * h != f * (g * h):
                failures.append((name, "assoc", i))
                break
            if f * e != f or e * f != f:
                failures.append((name, "identity", i))
                break
            if f * f.inverse() != e:
                failures.append((name, "inverse", i))
                break

    # prefix-exchange round trips on 300 elements
    dyadic = thompson_triple(2)
    for f in _library_words(dyadic, 300, 5, seed=601):
        if from_prefix_pairs(dyadic, to_prefix_pairs(f)) != f:
            failures.append(("pairs", f))
            break

    # coding round trips on 500 cut points: 250 dyadic, 250 golden
    rng = random.Random(602)
    for _ in range(250):
        x = cut_point(dyadic, Fraction(rng.randint(1, 511), 512), rng.choice("+-"))
        if n_adic_value(n_adic_expand(x, 2), 2) != x:
            failures.append(("n-adic", str(x)))
            break
    for _ in range(125):
        v = beta_word_value(EventuallyPeriodicWord(_random_admissible(rng), "0"))
        for side in "+-":
            if beta_cut_point(beta_expand(v, side)) != CutPoint(v, side):
                failures.append(("beta", str(v), side))
                break
    _report(
        capsys, 6,
        "group axioms on 3x1000 word triples plus 500 coding round trips",
        failures,
    )


def test_criterion_7_normal_form_oracle(capsys):
    failures = []
    rng = random.Random(700)
    for i in range(500):
        m = rng.randint(1, 6)
        n = rng.randint(1, 6)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        a = IntMatrix(rows)
        h, u = hermite_normal_form(a)
        if u.det() not in (1, -1) or u @ a != h:
            failures.append(("hnf", i))
            break
        d, p, q = smith_normal_form(a)
        if p.det() not in (1, -1) or q.det() not in (1, -1) or p @ a @ q != d:
            failures.append(("snf-identity", i))
            break
        got = tuple(x for x in d.diagonal() if x)
        if got != minor_gcd_factors(rows):
            failures.append(("snf-oracle", rows))
            break
    _report(
        capsys, 7,
        "normal-form identities and minor-gcd agreement on 500 matrices",
        failures,
    )
