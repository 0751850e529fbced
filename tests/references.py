"""Independent oracles that the tests compare the library against.

Each reference is slow and plain on purpose: Fraction Gauss-Jordan in
place of the integer elimination, Fraction polynomial arithmetic in place
of the integer Sturm and Horner helpers, cofactor expansions and minor
gcds in place of the normal forms, the scan-and-sort walks that the
element code replaced, the divisor loop that once found a word's
primitive period, the scale search as a box walk with no prefilter
or budget, and certificate checks that re-derive a verdict's data
without `classify`.  It also holds `presentations()`, the strategy that
the presentation property tests and `mix_count.py` draw from, and
`cli_calls()`, the generated documents and commands that the CLI
property test and `doc_sweep.py` run through `run_cli`.  The module
holds no tests; test modules import their shared helpers from
here and from no other test module.
"""

import bisect
import contextlib
import copy
import functools
import io
import itertools
import json
import math
import re
from fractions import Fraction

from hypothesis import assume, strategies as st

from steinv import (
    BreakpointModule, PLMap, class_of, coinvariants, elements, golden_field, numbers,
    rational_field, stein_triple,
)
from steinv.classify import _fundamental_unit
from steinv.cli import main
from steinv.elements import Piece
from steinv.numbers import RealAlgebraicField


# -- linear algebra over Q --------------------------------------------------


def gauss_jordan_reference(columns, target=None):
    """Gauss-Jordan elimination over Q of the matrix with the given int or
    Fraction columns, augmented by the column target when one is given,
    pivoting on the first nonzero entry in the first len(columns) columns.

    Returns (rank, det, solution): the rank of the columns, their
    determinant (for a square matrix), and the unique rational x with
    sum x_j * columns[j] = target, or None when there is no such x or it
    is not unique.  Without a target the third value is the reduced row
    echelon form, as a list of rows."""
    n = len(columns)
    augmented = list(columns) + ([target] if target is not None else [])
    rows = [[Fraction(col[i]) for col in augmented] for i in range(len(columns[0]))]
    det = Fraction(1)
    r = 0
    for c in range(n):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            det = Fraction(0)
            continue
        if pivot != r:
            rows[r], rows[pivot] = rows[pivot], rows[r]
            det = -det
        p = rows[r][c]
        det *= p
        rows[r] = [x / p if x else x for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y if y else x for x, y in zip(rows[i], rows[r])]
        r += 1
    if target is None:
        return r, det, rows
    solution = None
    if r == n and not any(row[n] for row in rows[r:]):
        solution = tuple(row[n] for row in rows[:n])
    return r, det, solution


def reference_coordinates(module, t):
    """Basis coordinates of t as Fractions, by the Fraction Gauss-Jordan."""
    return gauss_jordan_reference([b.coords for b in module.basis], t.coords)[2]


def in_module(x, module):
    """x in Z[1/S]<basis>, by the Fraction Gauss-Jordan: the coordinates
    exist and their denominators are products of inverted primes."""
    coords = reference_coordinates(module, x)
    if coords is None:
        return False
    for c in coords:
        den = c.denominator
        for p in module.inverted_primes:
            while den % p == 0:
                den //= p
        if den != 1:
            return False
    return True


def reference_carries(s, g2, g1):
    """s * G2 = G1 by two-sided membership of the bases, each decided by
    the Fraction Gauss-Jordan, and equal inverted primes."""
    if not g1.field.compatible(g2.field) or g1.inverted_primes != g2.inverted_primes:
        return False
    return all(in_module(s * b, g1) for b in g2.basis) and all(
        in_module(b / s, g2) for b in g1.basis
    )


# -- integers ---------------------------------------------------------------


def laplace_det(rows):
    """The determinant by cofactor expansion along the first row."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        sign = -1 if j % 2 else 1
        total += sign * rows[0][j] * laplace_det(minor)
    return total


def minor_gcd_factors(rows):
    """Invariant factors d_k/d_{k-1} where d_k = gcd of all k-minors."""
    m, n = len(rows), len(rows[0])
    dets = [1]
    for k in range(1, min(m, n) + 1):
        g = 0
        for ri in itertools.combinations(range(m), k):
            for ci in itertools.combinations(range(n), k):
                sub = [[rows[i][j] for j in ci] for i in ri]
                g = math.gcd(g, abs(laplace_det(sub)))
        if g == 0:
            break
        dets.append(g)
    return tuple(dets[k] // dets[k - 1] for k in range(1, len(dets)))


def prime_factors(n):
    """The primes dividing n > 0, ascending, by trial division."""
    out = set()
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.add(d)
            n //= d
        d += 1
    if n > 1:
        out.add(n)
    return sorted(out)


# -- field elements ---------------------------------------------------------


def reference_mul(x, y):
    """x * y by the generic product: convolve the numerators, then fold
    a^d, ..., a^(2d-2) back in from a power table over lead^(d-1)."""
    f, d = x.field, x.field.degree
    *low, lead = f.minpoly.coefficients
    power = tuple(-c for c in low)  # lead * a^d
    powers = []
    for _ in range(d - 1):
        powers.append(power)
        power = tuple(lead * u + power[-1] * t for u, t in zip((0,) + power[:-1], powers[0]))
    n = len(powers)
    powers = [tuple(u * lead ** (n - 1 - k) for u in p) for k, p in enumerate(powers)]
    conv = [0] * (2 * d - 1)
    for i, u in enumerate(x.num):
        for j, v in enumerate(y.num, i):
            conv[j] += u * v
    out, high = conv[:d], conv[d:]
    out = [lead**n * u for u in out]
    for c, p in zip(high, powers):
        out = [u + c * t for u, t in zip(out, p)]
    return numbers._normalized(f, tuple(out), x.den * y.den * lead**n)


def reference_pow(x, n):
    acc = x.field.one()
    for _ in range(abs(n)):
        acc = reference_mul(acc, x if n > 0 else x.inverse())
    return acc


def reference_beta_value(word):
    """sum w_i * beta^-(i+1) over the letters of a finite golden-base word,
    each power of 1/beta built by reference_pow."""
    field = golden_field()
    binv = field.generator().inverse()
    return sum((reference_pow(binv, i + 1) for i, c in enumerate(word) if c == "1"), field.zero())


def reference_canonical_word(preperiod, period):
    """The canonical (preperiod, period) that `EventuallyPeriodicWord`
    once computed: the first divisor d of the period's length whose prefix
    repeats to the period, then every trailing preperiod letter equal to
    the period's last letter folded into a rotation."""
    m = len(period)
    for d in range(1, m):
        if m % d == 0 and period == period[:d] * (m // d):
            period = period[:d]
            break
    while preperiod and preperiod[-1] == period[-1]:
        period = period[-1] + period[:-1]
        preperiod = preperiod[:-1]
    return preperiod, period


def assert_canonical(x):
    """The stored form: int numerators, one per power of the generator,
    over a positive int denominator with which they share no factor."""
    assert all(type(c) is int for c in x.num) and type(x.den) is int
    assert x.den > 0
    assert math.gcd(x.den, *x.num) == 1
    assert len(x.num) == x.field.degree


def count_fractions(call):
    """call() and the number of Fractions built while it ran, by arithmetic
    as well as by construction."""
    real = Fraction.__dict__["__new__"]
    built = 0

    def counting(cls, *args, **kwargs):
        nonlocal built
        built += 1
        return real.__func__(cls, *args, **kwargs)

    Fraction.__new__ = staticmethod(counting)
    try:
        result = call()
    finally:
        Fraction.__new__ = real
    return result, built


# -- polynomials over Q -----------------------------------------------------


def reference_prem(a, b):
    """Remainder of the polynomial a on division by the nonzero b, over Q."""
    a = [Fraction(x) for x in a]
    inv = Fraction(1) / b[-1]
    while len(a) >= len(b):
        c = a[-1] * inv
        k = len(a) - len(b)
        for i, y in enumerate(b):
            a[k + i] -= c * y
        a.pop()
        while a and a[-1] == 0:
            a.pop()
    return tuple(a)


def reference_peval(a, x):
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * x + c
    return acc


def reference_interval_eval(a, lo, hi):
    """Horner's scheme over Fractions on the interval [lo, hi]."""
    acc_lo = acc_hi = Fraction(a[-1])
    for c in reversed(a[:-1]):
        p = (acc_lo * lo, acc_lo * hi, acc_hi * lo, acc_hi * hi)
        acc_lo, acc_hi = min(p) + c, max(p) + c
    return acc_lo, acc_hi


def reference_pgcd(a, b):
    """Euclid over Q; the result is monic (or a constant 1)."""
    a, b = numbers._trim(a), numbers._trim(b)
    while b:
        a, b = b, reference_prem(a, b)
    return tuple(Fraction(c) / a[-1] for c in a)


def reference_sturm_chain(f):
    chain = [numbers._trim(f), numbers._pderiv(f)]
    while chain[-1]:
        rem = reference_prem(chain[-2], chain[-1])
        if not rem:
            break
        chain.append(tuple(-c for c in rem))
    return tuple(chain)


def reference_variations(values):
    count = 0
    prev = 0
    for v in values:
        if v == 0:
            continue
        s = 1 if v > 0 else -1
        if prev and s != prev:
            count += 1
        prev = s
    return count


def reference_count_roots_open(chain, lo, hi):
    v_lo = reference_variations(reference_peval(p, lo) for p in chain)
    v_hi = reference_variations(reference_peval(p, hi) for p in chain)
    return v_lo - v_hi - (reference_peval(chain[0], hi) == 0)


def sturm_count(minpoly, lo, hi):
    return reference_count_roots_open(reference_sturm_chain(minpoly.coefficients), lo, hi)


def reference_bisect(minpoly, lo, hi):
    """One bisection step of the Sturm-chain construction."""
    mid = (lo + hi) / 2
    if reference_peval(minpoly.coefficients, mid) == 0:
        return mid, mid
    if sturm_count(minpoly, lo, mid) == 1:
        return lo, mid
    return mid, hi


def reference_quotient(a, b):
    """The quotient of the polynomial a by b over Q, when b divides a."""
    a, q = [Fraction(x) for x in a], []
    while len(a) >= len(b):
        c = a[-1] / b[-1]
        q.append(c)
        k = len(a) - len(b)
        for i, y in enumerate(b):
            a[k + i] -= c * y
        a.pop()
    assert not any(a), "b does not divide a"
    return tuple(reversed(q))


def reference_bisection_bound(x, eps=None):
    """The bisections of x's field's construction-time interval after which
    the integer Horner enclosure of x = P(a) / den decides its sign (eps
    None) or is narrower than eps, which bounds the bisections that
    `sign` (on a fresh handle) and `approx(x, eps)` take.

    It is the least n with w * S / 2^n < gap, for the interval's width w.
    Over an interval of width v inside [-R, R], R the larger magnitude of
    the construction-time interval's ends, Horner's scheme encloses P = sum p_k t^k
    within a width of at most v * S, S = sum_k k*|p_k|*R^(k-1): by
    induction, width(A*X + c) <= |A|*v + R*width(A), with |A| at most
    sum_(k>=j) |p_k|*R^(k-j) at step j.  For approx the gap is eps * den.
    For a sign it is a positive lower bound on |P(a)|.  Let g = f /
    gcd(f, P), f the defining polynomial, as a primitive integer
    polynomial: a is a root of g when P(a) != 0, and the resultant
    Res(g, P) = lc(g)^deg P * prod over the roots alpha of g of P(alpha)
    is a nonzero integer, so

        |P(a)| >= 1 / (|lc(g)|^deg P * prod over the other roots alpha of |P(alpha)|),

    and every root of f has |alpha| <= C = 1 + max |f_i / f_d| (Cauchy),
    so |P(alpha)| <= sum |p_k| C^k.  An exact zero, a root of gcd(f, P)
    under a reducible f, is found by the gcd and needs no bisection."""
    f = x.field.minpoly.coefficients
    p = numbers._trim(x.num)
    lo, hi = x.field.initial_interval()
    R = max(abs(lo), abs(hi))
    S = sum(k * abs(c) * R ** (k - 1) for k, c in enumerate(p) if k)
    if eps is not None:
        gap = Fraction(eps) * x.den
    else:
        h = reference_pgcd(f, p)
        if len(h) > 1 and reference_count_roots_open(reference_sturm_chain(h), lo, hi):
            return 0
        g = reference_quotient(f, h)
        scale = math.lcm(*(c.denominator for c in g))
        g = [int(c * scale) for c in g]
        g = [c // math.gcd(*g) for c in g]
        C = 1 + max(Fraction(abs(c), abs(f[-1])) for c in f[:-1])
        B = sum(abs(c) * C**k for k, c in enumerate(p))
        gap = 1 / (abs(g[-1]) ** (len(p) - 1) * B ** (len(g) - 2))
    return int((hi - lo) * S / gap).bit_length()


def reference_numbers(monkeypatch):
    """Put the Fraction references in place of the integer helpers, with
    the shipped signatures."""
    monkeypatch.setattr(numbers, "_interval_eval", lambda a, lo, hi: (
        *reference_interval_eval(a, lo, hi), 1))
    monkeypatch.setattr(numbers, "_peval", lambda a, p, q: (
        reference_peval(a, Fraction(p, q)) * Fraction(q) ** (len(a) - 1)))
    monkeypatch.setattr(numbers, "_pgcd", reference_pgcd)
    monkeypatch.setattr(numbers, "_sturm_chain", reference_sturm_chain)
    monkeypatch.setattr(numbers, "_count_roots_open", reference_count_roots_open)


# -- elements ---------------------------------------------------------------


def reference_prefix_pairs(f):
    """The cylinder walk in Fractions that the integer walk replaced, kept
    as its oracle: each cylinder's ends, the piece at its left end, and
    whether the piece carries it onto a cylinder."""
    n = elements.v2_base(f.triple)
    pieces = [
        (p.start.as_fraction(), p.slope.as_fraction(), p.offset.as_fraction())
        for p in f.pieces
    ]
    starts = [start for start, _, _ in pieces]
    ends = starts[1:] + [Fraction(1)]
    pairs = []
    stack = [(0, 0)]
    while stack:
        num, depth = stack.pop()
        width = Fraction(1, n**depth)
        left = num * width
        idx = bisect.bisect_right(starts, left) - 1
        start, slope, offset = pieces[idx]
        aligned = False
        if left + width <= ends[idx]:
            e = f.triple.slopes.coordinates(slope)[0]
            if e <= depth:
                scaled = (slope * left + offset) * n ** (depth - e)
                if scaled.denominator == 1:
                    pairs.append(
                        (elements._word_of(num, depth, n),
                         elements._word_of(scaled.numerator, depth - e, n))
                    )
                    aligned = True
        if not aligned:
            for d in reversed(range(n)):
                stack.append((num * n + d, depth + 1))
    return pairs


def reference_compose(f, g):
    """f after g the slow way: collect g's starts and the preimages of f's
    breakpoints in a set, sort it, and look both pieces up at every cut."""
    starts = [p.start for p in g.pieces] + [g.triple.endpoint]
    images = [
        (p.slope * lo + p.offset, p.slope * hi + p.offset)
        for p, lo, hi in zip(g.pieces, starts, starts[1:])
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
        fp = f._piece_at(gp.slope * u + gp.offset)
        new_pieces.append(
            Piece(u, fp.slope * gp.slope, fp.slope * gp.offset + fp.offset)
        )
    return PLMap(f.triple, elements._merge(sorted(new_pieces, key=lambda p: p.start)))


def reference_inverse(f):
    """f's inverse by the operators in Fraction coordinates: each piece
    (start, slope, offset) becomes (image of start, 1/slope, -offset/slope),
    sorted by start and merged."""
    pieces = sorted(
        ((p.slope * p.start + p.offset, 1 / p.slope, -p.offset / p.slope) for p in f.pieces),
        key=lambda p: p[0],
    )
    out = []
    for start, slope, offset in pieces:
        if not out or out[-1][1:] != (slope.coords, offset.coords):
            out.append((start.coords, slope.coords, offset.coords))
    return [repr(p) for p in out]


def reference_tiling(pieces, endpoint):
    """The tiling check that `make_plmap` once ran: sort the image
    intervals by their left ends and walk a cursor from 0 through them.
    Returns the message `make_plmap` raises, or None when the images tile
    [0, endpoint)."""
    starts = [p.start for p in pieces] + [endpoint]
    images = [
        (p.slope * lo + p.offset, p.slope * hi + p.offset)
        for p, lo, hi in zip(pieces, starts, starts[1:])
    ]
    cursor = 0
    for lo, hi in sorted(images, key=lambda iv: iv[0]):
        if lo != cursor:
            return "image intervals do not tile the interval"
        cursor = hi
    if cursor != endpoint:
        return "images do not end at the endpoint"
    return None


def reference_candidate_lengths(triple):
    """The generator library's six smallest lengths the way they were first
    found: every nonzero combination of the basis with coefficients in
    [-2, 2] summed by the field operators, the basis magnitudes over each
    inverted prime p and p^2, and a full sort."""
    module = triple.module
    values = set()
    for coeffs in itertools.product(range(-2, 3), repeat=module.rank()):
        v = sum((c * b for c, b in zip(coeffs, module.basis) if c), triple.field.zero())
        if v.sign() > 0:
            values.add(v)
    for b in module.basis:
        mag = b if b.sign() > 0 else -b
        for p in module.inverted_primes:
            values.update((mag / p, mag / (p * p)))
    return sorted(values)[:6]


# -- coinvariants and classification ----------------------------------------


def reference_coinvariant_rows(module, slopes):
    """The matrix coinvariants once built: the columns of I - M_mu from
    Fraction coordinates, each cleared of its denominators by their lcm."""
    n = module.rank()
    columns = []
    for mu in slopes.generator_values():
        for j, b in enumerate(module.basis):
            x = reference_coordinates(module, mu * b)
            column = [(i == j) - x[i] for i in range(n)]
            den = math.lcm(*(y.denominator for y in column))
            columns.append([int(y * den) for y in column])
    return [list(row) for row in zip(*columns)]


def reference_class(t, inv, module):
    """class_of as it was, reducing Fraction coordinates."""
    x = reference_coordinates(module, t)
    torsion = []
    for row, d in inv.torsion:
        y = sum(e * c for e, c in zip(row, x))
        torsion.append(y.numerator * pow(y.denominator, -1, d) % d)
    return tuple(torsion) + tuple(sum(e * c for e, c in zip(row, x)) for row in inv.free)


def reference_unit_box(field, radius=30):
    """The least unit above 1 of rational norm +-1 among a + b*g with
    |a|, |b| <= radius: the coordinate search the continued fraction
    replaced (at radius 50).  The norm a^2 - a*b*c1/c2 + b^2*c0/c2 is +-1
    exactly when the integer c2*a^2 - c1*a*b + c0*b^2 is +-c2."""
    c0, c1, c2 = field.minpoly.coefficients
    one = field.one()
    best = None
    for a in range(-radius, radius + 1):
        for b in range(-radius, radius + 1):
            if b == 0 or abs(c2 * a * a - c1 * a * b + c0 * b * b) != c2:
                continue
            u = field.element((Fraction(a), Fraction(b)))
            if (u - one).sign() <= 0:
                continue
            if best is None or (u - best).sign() < 0:
                best = u
    return best


def box(bound, n):
    """The integer vectors of [-bound, bound]^n, by max-norm and then
    lexicographically."""
    vectors = itertools.product(range(-bound, bound + 1), repeat=n)
    return sorted(vectors, key=lambda v: (max(map(abs, v), default=0), v))


def reference_scale_box(g1, g2, bound):
    """The scalar of the module scale search, or None: 1 when s = 1 carries
    G2 to G1, else the first positive s = h / b1 that does, for h over
    G1's basis with coefficients in box(bound) and b1 the first basis
    element of G2.  Every candidate goes to `reference_carries`: there is
    no norm prefilter and no candidate budget."""
    one = g1.field.one()
    if reference_carries(one, g2, g1):
        return one
    for coeffs in box(bound, g1.rank()):
        s = sum((c * x for c, x in zip(coeffs, g1.basis)), g1.field.zero()) / g2.basis[0]
        if s.sign() > 0 and reference_carries(s, g2, g1):
            return s
    return None


def reference_endpoint_box(a, b, search_bound):
    """The scalar of the endpoint test the orbit walk replaced, or None:
    the scale search's scalar times products of inverted prime powers
    (exponents up to the bound, or 5 with two primes and more) times the
    powers u^k, |k| <= bound, of the unit of Z[c2*a], where that unit
    stabilizes the module."""
    inv = coinvariants(a)
    scalar = reference_scale_box(a.module, b.module, search_bound)
    if scalar is None:
        return None
    module, field = b.module, b.module.field
    primes = module.inverted_primes
    e_bound = search_bound if len(primes) <= 1 else min(search_bound, 5)
    values = [math.prod(Fraction(p) ** e for p, e in zip(primes, vec))
              for vec in box(e_bound, len(primes))]
    power_module = BreakpointModule(field, [field.one(), field.generator()])
    unit, k_bound = _fundamental_unit(power_module), search_bound
    if unit is None or not reference_carries(unit, module, module):
        unit, k_bound = field.one(), 0
    for (k,) in box(k_bound, 1):
        for q in values:
            s = scalar * unit**k * q
            if not any(class_of(a.endpoint - s * b.endpoint, inv, a.module)):
                return s
    return None


def printed_value(text, field):
    """The field element that str() printed as text."""
    coords = [Fraction(0)] * field.degree
    for term in text.replace(" - ", " + -").split(" + "):
        coef, var, power = term.partition("a")
        coef = coef.rstrip("*") if var else coef
        coords[int(power.lstrip("^") or 1) if var else 0] = Fraction(
            {"": 1, "-": -1}.get(coef, coef)
        )
    return field.element(coords)


def check_witness(a, b, witness):
    """The Isomorphic witness of classify(a, b), checked without classify.
    A scalar s must have s > 0, s*Gamma_b = Gamma_a, and s*ell_b in the
    class of ell_a in Gamma_a / I*Gamma_a; without slopes I*Gamma_a = 0,
    so s*ell_b must be ell_a.  A base n must be that of both triples
    (Z[1/n], <n>), with one endpoint gcd."""
    if "base" in witness:
        assert _base_and_gcd(a) == _base_and_gcd(b) == (witness["base"], witness["endpoint_gcd"])
        return
    s = printed_value(witness["s"], a.field)
    assert s.sign() > 0
    assert reference_carries(s, b.module, a.module)
    if a.endpoint is None or b.endpoint is None:
        return
    if not a.slopes.generator_values():
        assert s * b.endpoint == a.endpoint
        return
    inv = coinvariants(a)
    assert class_of(s * b.endpoint, inv, a.module) == class_of(a.endpoint, inv, a.module)


def _base_and_gcd(triple):
    """n and gcd(n - 1, r mod n - 1) for the triple (Z[1/n], <n>) at
    endpoint r, whose basis is any unit of Z[1/n]."""
    (g,) = triple.slopes.generator_values()
    n = max(g, 1 / g)
    primes = triple.module.inverted_primes
    assert n.denominator == 1 and primes == tuple(prime_factors(int(n)))
    (b,) = triple.module.basis
    assert set(prime_factors(abs(b.num[0]) * b.den)) <= set(primes)
    r, m = triple.endpoint.as_fraction(), int(n) - 1
    return int(n), math.gcd(m, r.numerator * pow(r.denominator, -1, m) % m)


def _prime_support(triple):
    return {p for g in triple.slopes.generator_values()
            for p in prime_factors(g.numerator * g.denominator)}


def reference_same_slopes(a, b):
    """Whether the slope groups a and b are equal, read from their
    generator values.  Groups with one irrational generator each, g and
    h, are equal exactly when g = h or g*h = 1.  Rational groups are equal
    exactly when the exponent lattices of a, of b and of their sum have
    one rank and one gcd of maximal minors, since each lies in the sum."""
    ga, gb = a.generator_values(), b.generator_values()
    irrational = [not isinstance(g, Fraction) for g in ga + gb]
    if any(irrational):
        if not all(irrational) or len(ga) != 1 or len(gb) != 1:
            return False
        return ga[0] == gb[0] or ga[0] * gb[0] == 1
    primes = prime_factors(math.prod(g.numerator * g.denominator for g in ga + gb))

    def rank_and_index(values):
        rows = []
        for g in values:
            row = []
            for p in primes:
                num, den, e = g.numerator, g.denominator, 0
                while num % p == 0:
                    num, e = num // p, e + 1
                while den % p == 0:
                    den, e = den // p, e - 1
                row.append(e)
            rows.append(row)
        factors = minor_gcd_factors(rows) if rows else ()
        return len(factors), math.prod(factors)

    return rank_and_index(ga) == rank_and_index(gb) == rank_and_index(ga + gb)


def reference_coinvariants(triple):
    """describe() of the triple's coinvariant group, re-derived without
    `coinvariants`: the invariant factors of the rows by minor gcds, each
    with the inverted primes divided out and dropped at 1, and free rank
    the module's rank less the rows' rank."""
    module = triple.module
    rows = reference_coinvariant_rows(module, triple.slopes)
    factors = minor_gcd_factors(rows) if rows else ()
    parts = []
    for d in factors:
        for p in module.inverted_primes:
            while d % p == 0:
                d //= p
        if d > 1:
            parts.append(f"Z/{d}")
    free = module.rank() - len(factors)
    parts += ["Z"] if free == 1 else [f"Z^{free}"] if free > 1 else []
    return " x ".join(parts) or "trivial"


def check_obstruction(a, b, obstruction):
    """The data that a NotIsomorphic obstruction of classify(a, b) names,
    re-derived without classify.  An obstruction of another kind fails,
    so that a new kind is not passed unchecked."""
    differ = re.fullmatch(r"coinvariants differ \((.+) vs (.+)\)", obstruction)
    forced = re.fullmatch(
        r"the endpoints force s = (.+), which does not carry Gamma_b to Gamma_a", obstruction
    )
    residues = re.fullmatch(r"endpoint residue classes differ \(gcd (\d+) vs (\d+)\)", obstruction)
    prime = re.fullmatch(
        r"no order-preserving embedding of slope groups \(prime (\d+)\)", obstruction
    )
    orbits = re.fullmatch(
        r"endpoint classes lie in different stabilizer orbits \(orbit size (\d+)\)", obstruction
    )
    if obstruction == "slope groups differ":
        assert not reference_same_slopes(a.slopes, b.slopes)
    elif differ:
        groups = differ[1], differ[2]
        assert groups == (reference_coinvariants(a), reference_coinvariants(b))
        assert groups[0] != groups[1]
    elif forced:
        s = printed_value(forced[1], a.field)
        assert s == a.endpoint / b.endpoint
        assert not reference_carries(s, b.module, a.module)
    elif residues:
        g1, g2 = int(residues[1]), int(residues[2])
        assert (g1, g2) == (_base_and_gcd(a)[1], _base_and_gcd(b)[1]) and g1 != g2
    elif prime:
        p = int(prime[1])
        assert (p in _prime_support(a)) != (p in _prime_support(b))
    elif orbits:
        # without inverted primes the positive stabilizer of a real quadratic
        # module is generated by its fundamental unit u, so the classes of
        # u^k*s*ell_b make one cycle, which must miss the class of ell_a
        n = int(orbits[1])
        assert a.field.degree == 2
        assert not a.module.inverted_primes and not b.module.inverted_primes
        s = reference_scale_box(a.module, b.module, 16)
        u = _fundamental_unit(b.module)
        assert reference_carries(u, b.module, b.module)
        inv = coinvariants(a)
        x, cycle = s * b.endpoint, []
        for _ in range(n + 1):
            cycle.append(reference_class(x, inv, a.module))
            x = u * x
        assert cycle[n] == cycle[0] and len(set(cycle[:n])) == n
        assert reference_class(a.endpoint, inv, a.module) not in cycle
    else:
        raise AssertionError(f"no oracle checks the obstruction {obstruction!r}")


# -- presentations ----------------------------------------------------------

# (field, twin): the twin is a second handle on the same field, its root
# isolated in another interval; in degree one it is Q remembering the root 3
PRESENTATION_FIELDS = [
    (rational_field(), RealAlgebraicField([-3, 1], (2, 4))),
    (golden_field(), RealAlgebraicField([-1, -1, 1], (1, 2))),
    (RealAlgebraicField([-2, 0, 1], (1, 2)), RealAlgebraicField([-2, 0, 1], (0, 3))),
    (RealAlgebraicField([-3, 0, 1], (1, 2)), RealAlgebraicField([-3, 0, 1], (0, 2))),
    (RealAlgebraicField([-2, 0, 0, 1], (1, 2)), RealAlgebraicField([-2, 0, 0, 1], (0, 2))),
]


@st.composite
def presentations(draw):
    """(a, b, b2): one isomorphism question in three presentations.

    a and b are triples Z[1/S]<basis> with slopes <S>, which leave every
    such module invariant, and positive module endpoints: of rank one in
    Q, where S is not empty, rank two in the quadratic fields, and rank
    two or three in Q(2^(1/3)), where S is {2} or {2, 3}.  b is unrelated to a or a
    rescaled copy (s*Gamma_a, s*ell_a).  In degree two with S empty, a
    branch takes the slopes <u> for the fundamental unit u of Gamma_a's
    ring instead, and b = (s*Gamma_a, s*ell) for a second endpoint ell of
    Gamma_a, so that the stabilizer orbit walk decides.  b2 is b on a
    GL_r(Z) change of basis, over either handle of the field, with
    Lambda = <2, 3> written <6, 3> or not."""
    field, twin = draw(st.sampled_from(PRESENTATION_FIELDS))
    d = field.degree
    rank = draw(st.integers(2, 3)) if d == 3 else d
    # a rank-one module is dense only with an inverted prime
    choices = {1: [(2,), (3,), (2, 3)], 2: [(), (2,), (3,), (2, 3)], 3: [(2,), (2, 3)]}
    primes = draw(st.sampled_from(choices[d]))
    small = st.integers(-3, 3)

    def triple(basis, ell, slopes, handle=field):
        return stein_triple(basis, primes, slopes, endpoint=handle.coerce(ell), field=handle)

    def random_basis():
        basis = [field.element(draw(st.tuples(*[small] * d))) for _ in range(rank)]
        assume(gauss_jordan_reference([x.coords for x in basis])[0] == rank)
        return basis

    def random_endpoint(basis):
        ell = sum((draw(small) * x for x in basis), field.zero())
        assume(not ell.is_zero())
        return ell if ell.sign() > 0 else -ell

    basis = random_basis()
    unit = None
    if d == 2 and not primes and draw(st.booleans()):
        unit = _fundamental_unit(BreakpointModule(field, basis))
        assume(unit is not None)
    slopes = primes if unit is None else (unit,)
    a = triple(basis, random_endpoint(basis), slopes)
    if unit is None and draw(st.booleans()):
        other = random_basis()
        b = triple(other, random_endpoint(other), slopes)
    else:
        s = field.element([draw(st.integers(1, 4)), *draw(st.tuples(*[small] * (d - 1)))])
        assume(s.sign() > 0)
        ell = a.endpoint if unit is None else random_endpoint(basis)
        b = triple([s * x for x in basis], s * ell, slopes)
    # elementary moves, a reversal and a sign: a matrix of det +-1, which
    # at rank two is b1 + k*b2 and m*(b1 + k*b2) + b2, in either order
    changed = list(b.module.basis)
    for i, j in itertools.permutations(range(rank), 2):
        changed[i] = changed[i] + draw(small) * changed[j]
    if draw(st.booleans()):
        changed.reverse()
    changed[0] = -changed[0]
    handle = draw(st.sampled_from([field, twin]))
    if primes == (2, 3) and draw(st.booleans()):
        slopes = (6, 3)
    return a, b, triple(changed, b.endpoint, slopes, handle)


# -- generated documents ----------------------------------------------------

# (field, unit): monic fields of degree 1-4 as documents write them, each
# with a positive unit of Z[a] (None in degree one)
DOC_FIELDS = [
    (None, None),
    ({"minpoly": [-3, 1], "root_interval": ["2", "4"]}, None),
    ({"minpoly": [-1, -1, 1], "root_interval": ["3/2", "5/3"]}, (0, 1)),  # phi
    ({"minpoly": [-2, 0, 1], "root_interval": ["1", "2"]}, (1, 1)),  # 1 + sqrt 2
    ({"minpoly": [-3, 0, 1], "root_interval": ["1", "2"]}, (2, 1)),  # 2 + sqrt 3
    ({"minpoly": [-2, 0, 0, 1], "root_interval": ["5/4", "4/3"]}, (-1, 1, 0)),  # 2^(1/3) - 1
    ({"minpoly": [-1, -1, 0, 1], "root_interval": ["1", "2"]}, (0, 1, 0)),  # plastic number
    ({"minpoly": [-2, 0, 0, 0, 1], "root_interval": ["1", "2"]}, (-1, 1, 0, 0)),  # 2^(1/4) - 1
    ({"minpoly": [-1, -1, 0, 0, 1], "root_interval": ["1", "2"]}, (0, 1, 0, 0)),
]

# a mutation nests a value NEST_DEPTH arrays deep, past what json parses
NEST_DEPTH = 3000
NESTED = "[" * NEST_DEPTH + "]" * NEST_DEPTH
_NEST = "nested value"  # stands in the document for NESTED


@functools.cache
def _order_unit_coordinates(index: int, conductor: int) -> tuple:
    """The least power of DOC_FIELDS[index]'s unit in the order
    Z + conductor*Z[a], as document coordinates (a tuple, since a
    mutation must not reach the cached value)."""
    spec, unit = DOC_FIELDS[index]
    field = RealAlgebraicField(spec["minpoly"], [Fraction(x) for x in spec["root_interval"]])
    u = power = field.element(unit)
    while any(x % conductor for x in power.num[1:]):
        power = power * u
    return tuple(str(x) for x in power.num)


def _paths(node, path=()):
    """The paths to every value below the root of a parsed JSON value."""
    if isinstance(node, dict):
        items = node.items()
    else:
        items = enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from _paths(value, path + (key,))


@st.composite
def documents(draw, index=None):
    """JSON text of a triple (Z[1/S]*O, Lambda, ell) over DOC_FIELDS[index]
    (drawn when None): O = Z + c*Z[a] of conductor c in 1-3, up to two
    inverted primes S (at least one in degree one), slopes the primes of
    S, a unit of O or none, and ell a multiple of a basis element.  At most
    one mutation follows: a dropped key, or a value replaced by a float, a
    string, a huge int or a deep nesting."""
    if index is None:
        index = draw(st.integers(0, len(DOC_FIELDS) - 1))
    spec, unit = DOC_FIELDS[index]
    d = 1 if spec is None else len(spec["minpoly"]) - 1
    c = draw(st.integers(1, 3))
    some = 1 if d == 1 else 0  # a rank-one module is dense only with a prime
    primes = draw(st.lists(st.sampled_from([2, 3, 5]), min_size=some, max_size=2, unique=True))
    basis = [["0"] * j + [str(c if j else 1)] for j in range(d)]
    kind = draw(st.sampled_from(["primes", "unit", "none"]))
    if kind == "primes" and primes:
        chosen = draw(st.lists(st.sampled_from(primes), min_size=1, unique=True))
        generators = [str(p) for p in chosen]
    elif kind == "unit" and unit is not None:
        generators = [list(_order_unit_coordinates(index, c))]
    else:
        generators = []
    k = draw(st.integers(1, 3))
    ell = [str(k * int(x)) for x in draw(st.sampled_from(basis))]
    doc = {"gamma": {"basis": basis, "inverted_primes": primes},
           "lambda": {"generators": generators}, "ell": ell}
    if spec is not None:
        doc["field"] = copy.deepcopy(spec)
    mutation = draw(st.sampled_from([None] * 8 + ["drop", "float", "string", "huge", "nest"]))
    if mutation is not None:
        paths = [p for p in _paths(doc) if mutation != "drop" or isinstance(p[-1], str)]
        path = draw(st.sampled_from(paths))
        parent = functools.reduce(lambda node, key: node[key], path[:-1], doc)
        if mutation == "drop":
            del parent[path[-1]]
        else:
            parent[path[-1]] = {
                "float": 0.5,
                "string": draw(st.sampled_from(["", "x", "1.5", "1e3", "1/0"])),
                "huge": draw(st.sampled_from([2**127 - 1, 10**400])),
                "nest": _NEST,
            }[mutation]
    return json.dumps(doc).replace(json.dumps(_NEST), NESTED)


@st.composite
def cli_calls(draw):
    """The argv lists of one example: classify, classify-groupoid (both at
    --search-bound 1), coinvariants, obstruct and a three-letter
    element random on two generated documents, most often over one field,
    each with or without --json."""
    index = draw(st.integers(0, len(DOC_FIELDS) - 1))
    a = draw(documents(index))
    b = draw(documents(index if draw(st.integers(0, 3)) else None))
    seed = str(draw(st.integers(0, 99)))
    calls = [
        ["classify", a, b, "--search-bound", "1"],
        ["classify-groupoid", a, b, "--search-bound", "1"],
        ["coinvariants", a],
        ["obstruct", a, b],
        ["element", "random", a, "3", "--seed", seed],
    ]
    return [argv + ["--json"] * draw(st.booleans()) for argv in calls]


def run_cli(argv):
    """(exit code, stdout, stderr) of `steinv.cli.main(argv)` in process;
    a usage error's SystemExit gives its code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
    return code, out.getvalue(), err.getvalue()
