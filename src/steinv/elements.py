"""Piecewise linear right-continuous bijections of [0, endpoint).

An element is a finite list of pieces (start, slope, offset): on
[start_i, start_{i+1}) the map sends t to slope_i * t + offset_i.
Breakpoints and offsets must lie in the triple's breakpoint module and
slopes in its slope group; the pieces must permute the interval.  Maps
are stored in canonical form: pieces sorted by start with adjacent
pieces merged whenever they share slope and offset, so equal group
elements compare equal structurally.

Cut points model the doubled module points of the Cantor-like completion
of the interval: (t, "-") sits immediately below (t, "+"); the cuts
(0, "-") and (endpoint, "+") do not exist.  So a plus cut needs
0 <= t < endpoint and a minus cut 0 < t <= endpoint: `_check_cut` is the
one place that decides it.  Order between values is decided by the
comparison operators of `numbers`, never by the sign of a difference.
"""

from __future__ import annotations

import itertools
import random
from bisect import bisect_left, bisect_right
from math import gcd
from typing import Iterable, NamedTuple, Tuple

from .errors import (
    BoundExceeded,
    BreakpointNotInGamma,
    ContextMismatch,
    EmptyLibrary,
    NotAntichain,
    NotBijective,
    NotComplete,
    NotInGamma,
    OutOfDomain,
    SlopeNotInLambda,
    UnorderedBreakpoints,
    UnparsableWord,
    ValidationError,
    WrongContext,
)
from .modules import SteinTriple, _shell, thompson_base
from .numbers import FieldElement, _affine, _power, _ratio

PLUS = "+"
MINUS = "-"

# Letters of a prefix exchange form, summed over its pairs; `embed-v2` reads
# each letter once.  The rotation by 2^-k has 2^k pairs of 2k letters, and at
# k = 11 (45,056 letters) `element to-pairs` takes 0.2 s and `embed-v2` 0.5 s
# in CPython 3.11 on a 2-vCPU x86-64 host.
_MAX_PAIR_LETTERS = 50_000

# Letters in one random word: composing costs about quadratic time in the
# length, and 500 letters at seed 1 take 0.09-0.13 s on the dyadic triple
# (61 pieces) and 1.1-1.3 s on (Z[1/30], <2, 3, 5>, 1) (630 pieces) in
# CPython 3.11 on a 2-vCPU x86-64 host.
_MAX_LETTERS = 500

# Module rank r of a generator library, which walks 5^r - 1 vectors: a run of
# `element random` on x^d - 2, power basis over Z[1/2], takes 0.4-0.7 s at
# r = 5, 1.1-3.0 s at 6 and 7-8 s at 7 (d = r..32; CPython 3.11, 2 vCPUs).
_MAX_LIBRARY_RANK = 5


class CutPoint(NamedTuple("CutPoint", [("value", FieldElement), ("side", str)])):
    """A module point together with the side from which it is approached."""

    __slots__ = ()

    def __new__(cls, value: FieldElement, side: str):
        if side not in (PLUS, MINUS):
            raise OutOfDomain(f"side must be '+' or '-', not {side!r}")
        return super().__new__(cls, value, side)

    def _key_cmp(self, other: "CutPoint") -> int:
        c = self.value._cmp(other.value)
        if c:
            return c
        if self.side == other.side:
            return 0
        return -1 if self.side == MINUS else 1

    def __lt__(self, other):
        return self._key_cmp(other) < 0

    def __le__(self, other):
        return self._key_cmp(other) <= 0

    def __gt__(self, other):
        return self._key_cmp(other) > 0

    def __ge__(self, other):
        return self._key_cmp(other) >= 0

    def __str__(self):
        return f"{self.value}{self.side}"

    def __repr__(self):
        return f"CutPoint({self})"


def cut_point(triple: SteinTriple, value, side: str) -> CutPoint:
    """Validated cut point of the triple's interval."""
    endpoint = triple.require_endpoint()
    value = triple.field.coerce(value)
    if not triple.module.contains(value):
        raise NotInGamma(f"{value} is not a point of the breakpoint module")
    _check_cut(value, side, endpoint)
    return CutPoint(value, side)


def _check_cut(t: FieldElement, side: str, endpoint) -> None:
    """OutOfDomain unless (t, side) is a cut of [0, endpoint): a plus cut
    needs 0 <= t < endpoint, any other side 0 < t <= endpoint."""
    if side == PLUS:
        if t.sign() < 0 or t >= endpoint:
            raise OutOfDomain(f"plus cut {t} is outside [0, {endpoint})")
    elif t.sign() <= 0 or t > endpoint:
        raise OutOfDomain(f"minus cut {t} is outside (0, {endpoint}]")


class Piece(NamedTuple):
    start: FieldElement
    slope: FieldElement
    offset: FieldElement

    def image_of(self, t: FieldElement) -> FieldElement:
        return _affine(self.slope, t, self.offset)


class FixedPoint(NamedTuple):
    point: CutPoint
    slope: FieldElement
    attracting: bool


class FixedPointReport(NamedTuple):
    """Fixed cut points plus, separately, fixed real values that are not
    module points and therefore not cut points of the model."""

    points: Tuple[FixedPoint, ...]
    non_cut_values: Tuple[FieldElement, ...]


class PLMap:
    """Canonical piecewise linear bijection of [0, endpoint)."""

    __slots__ = ("triple", "pieces")

    def __init__(self, triple: SteinTriple, pieces: Tuple[Piece, ...]):
        self.triple = triple
        self.pieces = pieces

    # -- construction -------------------------------------------------------

    @classmethod
    def identity(cls, triple: SteinTriple) -> "PLMap":
        triple.require_endpoint()
        field = triple.field
        return cls(triple, (Piece(field.zero(), field.one(), field.zero()),))

    @classmethod
    def _trusted(cls, triple, raw_pieces) -> "PLMap":
        pieces = sorted(raw_pieces, key=lambda p: p.start)
        return cls(triple, _merge(pieces))

    def __eq__(self, other):
        if not isinstance(other, PLMap):
            return NotImplemented
        return self.triple == other.triple and self.pieces == other.pieces

    def __hash__(self):
        return hash(self.pieces)

    def __repr__(self):
        parts = "; ".join(
            f"[{p.start}, ...) -> {p.slope}*t + {p.offset}" for p in self.pieces
        )
        return f"PLMap({parts})"

    def is_identity(self) -> bool:
        p = self.pieces
        return len(p) == 1 and p[0].slope == 1 and p[0].offset.is_zero()

    # -- evaluation ---------------------------------------------------------

    def _piece_at(self, t: FieldElement) -> Piece:
        k = bisect_right(self.pieces, t, key=lambda p: p.start) - 1
        if k < 0:
            raise OutOfDomain(f"{t} is below 0")
        return self.pieces[k]

    def _piece_left_of(self, t: FieldElement) -> Piece:
        k = bisect_left(self.pieces, t, key=lambda p: p.start) - 1
        if k < 0:
            raise OutOfDomain(f"{t} has nothing to its left")
        return self.pieces[k]

    def __call__(self, t) -> FieldElement:
        t = self.triple.field.coerce(t)
        _check_cut(t, PLUS, self.triple.endpoint)
        return self._piece_at(t).image_of(t)

    def act_on_cut(self, x: CutPoint) -> CutPoint:
        t = x.value
        _check_cut(t, x.side, self.triple.endpoint)
        if x.side == PLUS:
            return CutPoint(self._piece_at(t).image_of(t), PLUS)
        return CutPoint(self._piece_left_of(t).image_of(t), MINUS)

    # -- group structure ----------------------------------------------------

    def compose(self, other: "PLMap") -> "PLMap":
        """self after other: (self.compose(other))(t) = self(other(t)).

        Walks other's pieces in domain order: a binary search finds the
        piece of self at each image's left end, and self's starts below
        its right end are pulled back, so breakpoints come out sorted.
        A piece of other is inverted once, at its first pull-back.
        """
        if self.triple is not other.triple and self.triple != other.triple:
            raise ContextMismatch("elements come from different triples")
        starts = [p.start for p in self.pieces]
        ends = [p.start for p in other.pieces[1:]] + [self.triple.endpoint]
        new_pieces = []
        for gp, end in zip(other.pieces, ends):
            k = bisect_right(starts, gp.image_of(gp.start)) - 1
            right = gp.image_of(end)
            u, inv = gp.start, None
            while True:
                fp = self.pieces[k]
                new_pieces.append(Piece(u, fp.slope * gp.slope, fp.image_of(gp.offset)))
                k += 1
                if k == len(starts) or not starts[k] < right:
                    break
                if inv is None:
                    inv = gp.slope.inverse()
                    back = -(gp.offset * inv)
                u = _affine(inv, starts[k], back)
        return PLMap(self.triple, _merge(new_pieces))

    def inverse(self) -> "PLMap":
        new_pieces = []
        for piece in self.pieces:
            inv = piece.slope.inverse()
            new_pieces.append(Piece(piece.image_of(piece.start), inv, -(piece.offset * inv)))
        return PLMap._trusted(self.triple, new_pieces)

    def __mul__(self, other):
        if not isinstance(other, PLMap):
            return NotImplemented
        return self.compose(other)

    def __invert__(self):
        return self.inverse()

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        base = self if n >= 0 else self.inverse()
        return _power(base, abs(n), PLMap.identity(self.triple))

    # -- analysis -----------------------------------------------------------

    def fixed_point_report(self) -> FixedPointReport:
        triple = self.triple
        field = triple.field
        endpoint = triple.endpoint
        one = field.one()
        seen = {}
        non_cut = []
        starts = [p.start for p in self.pieces] + [endpoint]
        for piece, t_lo, t_hi in zip(self.pieces, starts, starts[1:]):
            lam, s = piece.slope, piece.offset
            if lam == 1:
                if s.is_zero():
                    _add_fixed(seen, CutPoint(t_lo, PLUS), one)
                    _add_fixed(seen, CutPoint(t_hi, MINUS), one)
                continue
            t_star = s / (one - lam)
            above_lo, below_hi = t_star._cmp(t_lo), t_hi._cmp(t_star)
            if above_lo < 0 or below_hi < 0:
                continue
            if triple.module.contains(t_star):
                if below_hi > 0:
                    _add_fixed(seen, CutPoint(t_star, PLUS), lam)
                if above_lo > 0:
                    _add_fixed(seen, CutPoint(t_star, MINUS), lam)
            elif above_lo > 0 and below_hi > 0:
                non_cut.append(t_star)
        points = sorted(seen.values(), key=lambda fp: fp.point)
        return FixedPointReport(tuple(points), tuple(non_cut))


def _add_fixed(seen, point: CutPoint, slope: FieldElement) -> None:
    if point not in seen:
        seen[point] = FixedPoint(point, slope, slope < 1)


def _merge(pieces) -> Tuple[Piece, ...]:
    out = []
    for piece in pieces:
        if out and out[-1].slope == piece.slope and out[-1].offset == piece.offset:
            continue
        out.append(piece)
    return tuple(out)


def _image_intervals(f: PLMap):
    starts = [p.start for p in f.pieces] + [f.triple.endpoint]
    return [
        (p.image_of(lo), p.image_of(hi))
        for p, lo, hi in zip(f.pieces, starts, starts[1:])
    ]


def make_plmap(triple: SteinTriple, pieces: Iterable) -> PLMap:
    """Validating constructor from (start, slope, offset) triples.

    The first start must be 0 and starts must strictly increase below
    the endpoint; starts and offsets must be module points, slopes must
    belong to the slope group, and the resulting affine pieces must
    permute [0, endpoint).  The result is in canonical merged form.
    """
    endpoint = triple.require_endpoint()
    field = triple.field
    data = [tuple(map(field.coerce, piece)) for piece in pieces]
    if not data:
        raise UnorderedBreakpoints("an element needs at least one piece")
    if any(len(p) != 3 for p in data):
        raise UnorderedBreakpoints("each piece is (start, slope, offset)")
    built = [Piece(*p) for p in data]
    if built[0].start.sign() != 0:
        raise UnorderedBreakpoints("the first breakpoint must be 0")
    for a, b in zip(built, built[1:]):
        if b.start <= a.start:
            raise UnorderedBreakpoints("breakpoints must strictly increase")
    if built[-1].start >= endpoint:
        raise UnorderedBreakpoints("breakpoints must stay below the endpoint")
    for piece in built:
        if not triple.module.contains(piece.start):
            raise BreakpointNotInGamma(f"breakpoint {piece.start} is outside the module")
        if not triple.module.contains(piece.offset):
            raise BreakpointNotInGamma(f"offset {piece.offset} is outside the module")
        if piece.slope.sign() <= 0 or not triple.slopes.contains(piece.slope):
            raise SlopeNotInLambda(f"slope {piece.slope} is outside the slope group")
    images = sorted(
        _image_intervals(PLMap(triple, tuple(built))), key=lambda iv: iv[0]
    )
    cursor = field.zero()
    for lo, hi in images:
        if lo._cmp(cursor) != 0:
            raise NotBijective("image intervals do not tile the interval")
        cursor = hi
    if cursor._cmp(endpoint) != 0:
        raise NotBijective("images do not end at the endpoint")
    return PLMap(triple, _merge(built))


# ---------------------------------------------------------------------------
# generator library and random words


def _candidate_lengths(triple: SteinTriple):
    module = triple.module
    field = triple.field
    values = []
    seen = set()

    def push(v):
        if v.sign() > 0 and v not in seen:
            seen.add(v)
            values.append(v)

    n = module.rank()
    if n > _MAX_LIBRARY_RANK:
        raise BoundExceeded(f"a generator library is capped at module rank {_MAX_LIBRARY_RANK}")
    # the nonzero coefficient vectors of [-2, 2]^n, as scale_equivalence builds them
    for coeffs in itertools.chain(_shell(n, 1), _shell(n, 2)):
        push(sum((c * b for c, b in zip(coeffs, module.basis) if c), field.zero()))
    for b in module.basis:
        mag = b if b.sign() > 0 else -b
        for p in module.inverted_primes:
            push(mag / p)
            push(mag / (p * p))
    values.sort()
    return values[:6]


def generator_library(triple: SteinTriple):
    """A deterministic finite family of generators that fit the interval:
    adjacent interval swaps and slope rescale pairs."""
    endpoint = triple.require_endpoint()
    field = triple.field
    zero, one = field.zero(), field.one()
    lengths = _candidate_lengths(triple)
    library = []

    def emit(a, upper, middle):
        """The shape middle on [a, upper), the identity on either side."""
        head = [(zero, one, zero)] if a.sign() > 0 else []
        tail = [(upper, one, zero)] if endpoint > upper else []
        library.append(make_plmap(triple, head + middle + tail))

    def swap(a, d):
        emit(a, a + d + d, [(a, one, d), (a + d, one, -d)])

    def rescale(a, d, lam):
        mid, inv = a + d, lam.inverse()
        emit(a, mid + lam * d, [(a, lam, a - lam * a), (mid, inv, a + lam * d - mid * inv)])

    for d in lengths:
        if endpoint >= d + d:
            swap(zero, d)
        if endpoint >= d + d + d:
            swap(d, d)
    for lam in map(field.coerce, triple.slopes.generator_values()):
        for d in lengths:
            if endpoint >= d + lam * d:
                rescale(zero, d, lam)
    if not library:
        raise EmptyLibrary("no generator shape fits inside the interval")
    return library


def random_word(triple: SteinTriple, length: int, seed: int) -> PLMap:
    """Seeded random product of library generators and their inverses;
    BoundExceeded past _MAX_LETTERS letters."""
    if length < 0:
        raise ValidationError(f"the word length {length} is negative")
    if length > _MAX_LETTERS:
        raise BoundExceeded(f"a random word is capped at {_MAX_LETTERS} letters")
    rng = random.Random(seed)
    library = generator_library(triple)
    acc = PLMap.identity(triple)
    for _ in range(length):
        g = library[rng.randrange(len(library))]
        if rng.randrange(2):
            g = g.inverse()
        acc = acc * g
    return acc


# ---------------------------------------------------------------------------
# prefix exchange form in the (Z[1/n], <n>, 1) family


def v2_base(triple: SteinTriple) -> int:
    """The base n of a (Z[1/n], <n>, 1) triple; WrongContext otherwise."""
    n = thompson_base(triple)
    if n is None:
        raise WrongContext("words need the triple (Z[1/n], <n>, 1)")
    if n > 10:
        raise WrongContext("digit words support bases up to 10 only")
    if triple.require_endpoint() != 1:
        raise WrongContext("prefix words need endpoint 1")
    return n


def _word_of(num: int, depth: int, n: int) -> str:
    digits = []
    for _ in range(depth):
        num, d = divmod(num, n)
        digits.append(str(d))
    return "".join(reversed(digits))


def _n_depth(den: int, n: int):
    """The least k with den | n^k, or None when den divides no power of n."""
    # den | n^k for some k exactly when it does for k < den.bit_length()
    k, scale = 0, 1
    while scale % den:
        if k == den.bit_length():
            return None
        k, scale = k + 1, scale * n
    return k


def to_prefix_pairs(f: PLMap):
    """The complete prefix exchange form of an element of (Z[1/n], <n>, 1).

    Returns domain/image word pairs (u, v): the map carries the cylinder
    of u affinely onto the cylinder of v.  Pairs are emitted in domain
    order with the coarsest cylinders the map allows.

    A cylinder is the integer num over n^depth, walked against the piece
    starts as integers over n^top.  On a piece of slope n^e and offset
    c/n^k (k least) a cylinder inside the piece is aligned when depth >= e
    and n^(depth - e) * c/n^k is an integer, that is from depth e + k on;
    top is the deepest of these and of the starts, and no cylinder is
    deeper.  BoundExceeded past _MAX_PAIR_LETTERS letters over all pairs.
    """
    n = v2_base(f.triple)
    # the slopes are <n> with Hermite generator n, and every slope is in
    # the group: make_plmap checks it and from_prefix_pairs builds powers of n
    exps = [f.triple.slopes.coordinates(p.slope)[0] for p in f.pieces]
    align_depth = [e + _n_depth(p.offset.den, n) for e, p in zip(exps, f.pieces)]
    top = max(align_depth + [_n_depth(p.start.den, n) for p in f.pieces])
    scale = n**top
    starts = [p.start.num[0] * (scale // p.start.den) for p in f.pieces]
    ends = starts[1:] + [scale]
    # each offset c/n^k as the integer c
    offsets = [
        p.offset.num[0] * n ** (a - e) // p.offset.den
        for p, a, e in zip(f.pieces, align_depth, exps)
    ]
    pairs, letters = [], 0
    stack = [(0, 0)]
    while stack:
        num, depth = stack.pop()
        width = n ** (top - depth)
        left = num * width
        idx = bisect_right(starts, left) - 1
        if depth >= align_depth[idx] and left + width <= ends[idx]:
            letters += 2 * depth - exps[idx]
            if letters > _MAX_PAIR_LETTERS:
                raise BoundExceeded(
                    f"a prefix exchange form is capped at {_MAX_PAIR_LETTERS:,} letters"
                )
            image = num + offsets[idx] * n ** (depth - align_depth[idx])
            pairs.append((_word_of(num, depth, n), _word_of(image, depth - exps[idx], n)))
        else:
            stack.extend((num * n + d, depth + 1) for d in reversed(range(n)))
    return pairs


def _check_complete_antichain(words, n: int) -> None:
    top_digit = str(n - 1)
    for w in words:
        if w and not (w.isascii() and w.isdigit() and max(w) <= top_digit):
            raise UnparsableWord(f"word {w!r} has digits outside base {n}")
    ordered = sorted(words)
    for a, b in zip(ordered, ordered[1:]):
        if a == b:
            raise NotAntichain(f"duplicate word {a!r}")
        if b.startswith(a):
            raise NotAntichain(f"{a!r} is a prefix of {b!r}")
    top = max(map(len, words))
    covered, scale = sum(n ** (top - len(w)) for w in words), n**top
    if covered != scale:
        g = gcd(covered, scale)
        raise NotComplete(f"cylinders cover {covered // g}/{scale // g} of the interval")


def from_prefix_pairs(triple: SteinTriple, pairs) -> PLMap:
    """Element defined by a complete prefix exchange: cylinder of u maps
    affinely onto cylinder of v for each pair (u, v).

    Validity rests on the antichain checks, not on make_plmap: complete
    antichains on both sides make the pairs a bijection of [0, 1) with
    breakpoints and offsets in Z[1/n] and slopes in <n>.
    """
    n = v2_base(triple)
    pairs = [(str(u), str(v)) for u, v in pairs]
    if not pairs:
        raise NotComplete("at least one pair is required")
    _check_complete_antichain([u for u, _ in pairs], n)
    _check_complete_antichain([v for _, v in pairs], n)
    field = triple.field
    raw = []
    # the domain words are an antichain, so their order is the cylinders'
    for u, v in sorted(pairs):
        a, b = int(u, n) if u else 0, int(v, n) if v else 0
        du, dv = n ** len(u), n ** len(v)
        # u -> v carries a/du to b/dv with slope du/dv, so the offset is (b - a)/dv
        raw.append(Piece(_ratio(field, a, du), _ratio(field, du, dv), _ratio(field, b - a, dv)))
    return PLMap(triple, _merge(raw))
