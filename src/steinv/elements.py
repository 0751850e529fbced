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
(0, "-") and (endpoint, "+") do not exist.
"""

from __future__ import annotations

import itertools
import random
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Tuple

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
    WrongContext,
)
from .modules import SteinTriple
from .numbers import FieldElement

PLUS = "+"
MINUS = "-"

_MAX_CYLINDER_DEPTH = 512


@dataclass(frozen=True)
class CutPoint:
    """A module point together with the side from which it is approached."""

    value: FieldElement
    side: str

    def __post_init__(self):
        if self.side not in (PLUS, MINUS):
            raise OutOfDomain(f"side must be '+' or '-', not {self.side!r}")

    def _key_cmp(self, other: "CutPoint") -> int:
        c = (self.value - other.value).sign()
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
    if not isinstance(value, FieldElement):
        value = triple.field.from_rational(value)
    if not triple.module.contains(value):
        raise NotInGamma(f"{value} is not a point of the breakpoint module")
    s = value.sign()
    if s < 0 or (value - endpoint).sign() > 0:
        raise OutOfDomain(f"{value} lies outside [0, {endpoint}]")
    point = CutPoint(value, side)
    if s == 0 and side == MINUS:
        raise OutOfDomain("0 has no minus side")
    if (value - endpoint).sign() == 0 and side == PLUS:
        raise OutOfDomain("the endpoint has no plus side")
    return point


@dataclass(frozen=True)
class Piece:
    start: FieldElement
    slope: FieldElement
    offset: FieldElement

    def image_of(self, t: FieldElement) -> FieldElement:
        return self.slope * t + self.offset


@dataclass(frozen=True)
class FixedPoint:
    point: CutPoint
    slope: FieldElement
    attracting: bool


@dataclass(frozen=True)
class FixedPointReport:
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
        return hash(
            tuple((p.start.coords, p.slope.coords, p.offset.coords) for p in self.pieces)
        )

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
        for piece in reversed(self.pieces):
            if (t - piece.start).sign() >= 0:
                return piece
        raise OutOfDomain(f"{t} is below 0")

    def _piece_left_of(self, t: FieldElement) -> Piece:
        for piece in reversed(self.pieces):
            if (t - piece.start).sign() > 0:
                return piece
        raise OutOfDomain(f"{t} has nothing to its left")

    def __call__(self, t) -> FieldElement:
        if not isinstance(t, FieldElement):
            t = self.triple.field.from_rational(t)
        if t.sign() < 0 or (t - self.triple.endpoint).sign() >= 0:
            raise OutOfDomain(f"{t} is outside [0, {self.triple.endpoint})")
        return self._piece_at(t).image_of(t)

    def act_on_cut(self, x: CutPoint) -> CutPoint:
        t = x.value
        endpoint = self.triple.endpoint
        if x.side == PLUS:
            if t.sign() < 0 or (t - endpoint).sign() >= 0:
                raise OutOfDomain(f"{x} is outside the interval")
            return CutPoint(self._piece_at(t).image_of(t), PLUS)
        if t.sign() <= 0 or (t - endpoint).sign() > 0:
            raise OutOfDomain(f"{x} is outside the interval")
        return CutPoint(self._piece_left_of(t).image_of(t), MINUS)

    # -- group structure ----------------------------------------------------

    def compose(self, other: "PLMap") -> "PLMap":
        """self after other: (self.compose(other))(t) = self(other(t)).

        Walks other's pieces in domain order: a binary search finds the
        piece of self at each image's left end, and self's starts below
        its right end are pulled back, so breakpoints come out sorted.
        """
        if self.triple is not other.triple and self.triple != other.triple:
            raise ContextMismatch("elements come from different triples")
        starts = [p.start for p in self.pieces]
        ends = [p.start for p in other.pieces[1:]] + [self.triple.endpoint]
        new_pieces = []
        for gp, end in zip(other.pieces, ends):
            k = bisect_right(starts, gp.image_of(gp.start)) - 1
            right = gp.image_of(end)
            u = gp.start
            while True:
                fp = self.pieces[k]
                new_pieces.append(Piece(u, fp.slope * gp.slope, fp.image_of(gp.offset)))
                k += 1
                if k == len(starts) or not starts[k] < right:
                    break
                u = (starts[k] - gp.offset) / gp.slope
        return PLMap(self.triple, _merge(new_pieces))

    def inverse(self) -> "PLMap":
        new_pieces = [
            Piece(
                piece.image_of(piece.start),
                piece.slope.inverse(),
                -piece.offset / piece.slope,
            )
            for piece in self.pieces
        ]
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
        acc = PLMap.identity(self.triple)
        n = abs(n)
        while n:
            if n & 1:
                acc = acc * base
            n >>= 1
            if n:
                base = base * base
        return acc

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
            above_lo = (t_star - t_lo).sign()
            below_hi = (t_hi - t_star).sign()
            if above_lo >= 0 and below_hi > 0 and triple.module.contains(t_star):
                _add_fixed(seen, CutPoint(t_star, PLUS), lam)
            if above_lo > 0 and below_hi >= 0 and triple.module.contains(t_star):
                _add_fixed(seen, CutPoint(t_star, MINUS), lam)
            if above_lo > 0 and below_hi > 0 and not triple.module.contains(t_star):
                non_cut.append(t_star)
        points = sorted(seen.values(), key=lambda fp: fp.point)
        return FixedPointReport(tuple(points), tuple(non_cut))


def _add_fixed(seen, point: CutPoint, slope: FieldElement) -> None:
    key = (tuple(point.value.coords), point.side)
    if key not in seen:
        seen[key] = FixedPoint(point, slope, (slope - 1).sign() < 0)


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

    def coerce(x):
        return x if isinstance(x, FieldElement) else field.from_rational(x)

    data = [tuple(coerce(x) for x in piece) for piece in pieces]
    if not data:
        raise UnorderedBreakpoints("an element needs at least one piece")
    if any(len(p) != 3 for p in data):
        raise UnorderedBreakpoints("each piece is (start, slope, offset)")
    built = [Piece(*p) for p in data]
    if built[0].start.sign() != 0:
        raise UnorderedBreakpoints("the first breakpoint must be 0")
    for a, b in zip(built, built[1:]):
        if (b.start - a.start).sign() <= 0:
            raise UnorderedBreakpoints("breakpoints must strictly increase")
    if (built[-1].start - endpoint).sign() >= 0:
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
        if (lo - cursor).sign() != 0:
            raise NotBijective("image intervals do not tile the interval")
        cursor = hi
    if (cursor - endpoint).sign() != 0:
        raise NotBijective("images do not end at the endpoint")
    return PLMap(triple, _merge(built))


# ---------------------------------------------------------------------------
# generator library and random words


def _candidate_lengths(triple: SteinTriple, count: int = 6):
    module = triple.module
    field = triple.field
    values = []
    seen = set()

    def push(v):
        if v.sign() <= 0:
            return
        key = tuple(v.coords)
        if key not in seen:
            seen.add(key)
            values.append(v)

    n = module.rank()
    for coeffs in itertools.product(range(-2, 3), repeat=n):
        if any(coeffs):
            v = field.zero()
            for c, b in zip(coeffs, module.basis):
                if c:
                    v = v + c * b
            push(v)
    for b in module.basis:
        mag = b if b.sign() > 0 else -b
        for p in module.inverted_primes:
            push(mag / p)
            push(mag / (p * p))
    values.sort()
    return values[:count]


def generator_library(triple: SteinTriple):
    """A deterministic finite family of generators that fit the interval:
    adjacent interval swaps and slope rescale pairs."""
    endpoint = triple.require_endpoint()
    field = triple.field
    zero, one = field.zero(), field.one()
    lengths = _candidate_lengths(triple)
    library = []

    def emit(pieces):
        library.append(make_plmap(triple, pieces))

    def swap(a, d):
        pieces = []
        if a.sign() > 0:
            pieces.append((zero, one, zero))
        pieces.append((a, one, d))
        pieces.append((a + d, one, -d))
        upper = a + d + d
        if (endpoint - upper).sign() > 0:
            pieces.append((upper, one, zero))
        emit(pieces)

    def rescale(a, d, lam):
        pieces = []
        if a.sign() > 0:
            pieces.append((zero, one, zero))
        pieces.append((a, lam, a - lam * a))
        mid = a + d
        upper = a + d + lam * d
        inv = lam.inverse()
        pieces.append((mid, inv, a + lam * d - mid * inv))
        if (endpoint - upper).sign() > 0:
            pieces.append((upper, one, zero))
        emit(pieces)

    for d in lengths:
        if (endpoint - (d + d)).sign() >= 0:
            swap(zero, d)
        if (endpoint - (d + d + d)).sign() >= 0:
            swap(d, d)
    slope_values = []
    for mu in triple.slopes.generator_values():
        slope_values.append(
            mu if isinstance(mu, FieldElement) else field.from_rational(mu)
        )
    for lam in slope_values:
        for d in lengths:
            if (endpoint - (d + lam * d)).sign() >= 0:
                rescale(zero, d, lam)
    if not library:
        raise EmptyLibrary("no generator shape fits inside the interval")
    return library


def random_word(triple: SteinTriple, length: int, seed: int) -> PLMap:
    """Seeded random product of library generators and their inverses."""
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
    module = triple.module
    if module.field.degree != 1:
        raise WrongContext("words need a rational breakpoint module")
    slopes = triple.slopes
    if slopes.kind != "rational" or slopes.rank() != 1:
        raise WrongContext("words need a cyclic integer slope group")
    value = slopes.generator_values()[0]
    if value < 1:
        value = 1 / value
    if value.denominator != 1 or value < 2:
        raise WrongContext("the slope generator must be an integer base")
    n = int(value)
    if n > 10:
        raise WrongContext("digit words support bases up to 10 only")
    support = tuple(sorted(_prime_support(n)))
    if module.inverted_primes != support:
        raise WrongContext("the module must be exactly Z[1/n]")
    if module.rank() != 1:
        raise WrongContext("the module must be exactly Z[1/n]")
    b = module.basis[0].as_fraction()
    if not _is_power_unit(abs(b), support):
        raise WrongContext("the module must be exactly Z[1/n]")
    endpoint = triple.require_endpoint()
    if endpoint != 1:
        raise WrongContext("prefix words need endpoint 1")
    return n


def _prime_support(n: int):
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out.append(n)
    return out


def _is_power_unit(q: Fraction, primes) -> bool:
    n, d = q.numerator, q.denominator
    for p in primes:
        while n % p == 0:
            n //= p
        while d % p == 0:
            d //= p
    return n == 1 and d == 1


def _power_exponent(q: Fraction, n: int) -> int:
    e = 0
    while q > 1:
        q /= n
        e += 1
    while q < 1:
        q *= n
        e -= 1
    if q != 1:
        raise WrongContext(f"slope is not a power of {n}")
    return e


def _word_of(num: int, depth: int, n: int) -> str:
    digits = []
    for _ in range(depth):
        num, d = divmod(num, n)
        digits.append(str(d))
    return "".join(reversed(digits))


def to_prefix_pairs(f: PLMap):
    """The complete prefix exchange form of an element of (Z[1/n], <n>, 1).

    Returns domain/image word pairs (u, v): the map carries the cylinder
    of u affinely onto the cylinder of v.  Pairs are emitted in domain
    order with the coarsest cylinders the map allows.
    """
    n = v2_base(f.triple)
    pieces = [
        (p.start.as_fraction(), p.slope.as_fraction(), p.offset.as_fraction())
        for p in f.pieces
    ]
    ends = [start for start, _, _ in pieces[1:]] + [Fraction(1)]
    pairs = []
    stack = [(0, 0)]
    while stack:
        num, depth = stack.pop()
        if depth > _MAX_CYLINDER_DEPTH:
            raise BoundExceeded("cylinder refinement runaway")
        width = Fraction(1, n**depth)
        left = num * width
        right = left + width
        idx = max(i for i, (start, _, _) in enumerate(pieces) if start <= left)
        start, slope, offset = pieces[idx]
        aligned = False
        if right <= ends[idx]:
            e = _power_exponent(slope, n)
            if e <= depth:
                img_depth = depth - e
                scaled = (slope * left + offset) * n**img_depth
                if scaled.denominator == 1:
                    pairs.append(
                        (_word_of(num, depth, n), _word_of(scaled.numerator, img_depth, n))
                    )
                    aligned = True
        if not aligned:
            for d in reversed(range(n)):
                stack.append((num * n + d, depth + 1))
    return pairs


def compose(f: PLMap, g: PLMap) -> PLMap:
    """f after g."""
    return f.compose(g)


def invert(f: PLMap) -> PLMap:
    return f.inverse()


def prefix_exchange_convert(value, direction: str, triple: Optional[SteinTriple] = None):
    """Convert between an element and its prefix exchange pairs.

    direction "to_pairs" takes a PLMap; "from_pairs" takes word pairs and
    needs the target triple.
    """
    if direction == "to_pairs":
        return to_prefix_pairs(value)
    if direction == "from_pairs":
        if triple is None:
            raise WrongContext("from_pairs needs the target triple")
        return from_prefix_pairs(triple, value)
    raise WrongContext(f"unknown direction {direction!r}")


def _check_complete_antichain(words, n: int) -> None:
    for w in words:
        if any(c not in "0123456789" or int(c) >= n for c in w):
            raise UnparsableWord(f"word {w!r} has digits outside base {n}")
    ordered = sorted(words)
    for a, b in zip(ordered, ordered[1:]):
        if b.startswith(a):
            raise NotAntichain(f"{a!r} is a prefix of {b!r}")
    if len(set(ordered)) != len(ordered):
        raise NotAntichain("duplicate words")
    total = sum(Fraction(1, n ** len(w)) for w in words)
    if total != 1:
        raise NotComplete(f"cylinders cover {total} of the interval")


def from_prefix_pairs(triple: SteinTriple, pairs) -> PLMap:
    """Element defined by a complete prefix exchange: cylinder of u maps
    affinely onto cylinder of v for each pair (u, v)."""
    n = v2_base(triple)
    pairs = [(str(u), str(v)) for u, v in pairs]
    if not pairs:
        raise NotComplete("at least one pair is required")
    _check_complete_antichain([u for u, _ in pairs], n)
    _check_complete_antichain([v for _, v in pairs], n)
    raw = []
    for u, v in pairs:
        u_val = Fraction(int(u, n) if u else 0, n ** len(u))
        v_val = Fraction(int(v, n) if v else 0, n ** len(v))
        slope = Fraction(n) ** (len(u) - len(v))
        raw.append((u_val, slope, v_val - slope * u_val))
    raw.sort(key=lambda p: p[0])
    return make_plmap(triple, raw)
