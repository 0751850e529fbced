"""Breakpoint modules, slope groups, and the triples that define a group
of piecewise linear bijections.

A breakpoint module is a finitely generated dense subgroup of the reals,
stored as a Q-linearly independent basis inside a real algebraic field
together with a set of inverted primes: the module is the span of the
basis over Z[1/m], m the product of those primes.  Its coordinates, like
a field element's, are integer numerators over one positive denominator
with gcd 1, and they are read through one integer transform found by
`numbers._bareiss` at construction.  A slope group is a
finitely generated multiplicative subgroup of the positive reals, so a
free abelian group: it is stored as an exponent lattice over atoms, the
prime support of rational generators or one irrational generator, and
`SlopeGroup.coordinates` reads a number's integer coordinates over its
Hermite generators.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cache
from math import gcd, prod
from typing import NamedTuple, Optional, Sequence, Union

from .errors import BoundExceeded, DependentBasis, ValidationError
from .intlinalg import _hermite, _integer, _strip_primes, factor, is_prime
from .numbers import FieldElement, RealAlgebraicField, Rational, _bareiss, rational_field

DEFAULT_SEARCH_BOUND = 16

# Candidates one scale search may try: the default box at rank 3 holds
# 33^3 - 1, so no search at the default bound and rank 3 or below stops
# early.  A candidate costs more in degree d (0.04 ms at 3, 0.11 ms at 16,
# 0.4 ms at 32, rank two, CPython 3.11, 2-vCPU x86-64), so above 3 it is
# 9/d^2 of this.
_SCALE_CANDIDATES = 35_936

# Safety valve for the exact exponent searches in cyclic slope groups;
# the searches are monotone, so this only guards pathological inputs.
_EXPONENT_CAP = 10_000


# ---------------------------------------------------------------------------
# small exact arithmetic over Q


def _valuations(mu, primes) -> Optional[list]:
    """The exponents of mu (an int, a Fraction or an element) at the
    primes, or None when mu is not a product of their powers."""
    if isinstance(mu, FieldElement):
        if not mu.is_rational:
            return None
        num, den = mu.num[0], mu.den
    else:
        num, den = mu.numerator, mu.denominator
    if num <= 0:
        return None
    vector = []
    for p in primes:
        e = 0
        while num % p == 0:
            num, e = num // p, e + 1
        while den % p == 0:
            den, e = den // p, e - 1
        vector.append(e)
    # a cofactor left over is a prime outside the support
    return vector if num == den == 1 else None


def _determinant(columns) -> tuple:
    """The determinant of n coordinate columns (nums, den) over an
    n-element basis, as (numerator, denominator): the `_bareiss`
    determinant of the numerators over the product of the denominators."""
    rows = [list(row) for row in zip(*(nums for nums, _ in columns))]
    return _bareiss(rows, len(columns))[2], prod(den for _, den in columns)


# ---------------------------------------------------------------------------


class SlopeGroup:
    """Finitely generated subgroup of the multiplicative positive reals,
    stored as an exponent lattice over atoms.

    `atoms` is the sorted prime support of rational generators, or the
    single irrational generator g, canonicalized to be greater than 1.
    `lattice` is the tuple of nonzero Hermite rows of the generators'
    exponent vectors over the atoms: ((1,),) for g, () for the trivial
    group.  Mixed or higher rank irrational generator sets are rejected.
    """

    __slots__ = ("atoms", "lattice", "_values")

    def __init__(self, generators: Sequence[Union[Rational, FieldElement]],
                 field: Optional[RealAlgebraicField] = None):
        if field is None:
            # an irrational generator names the field; rationals lie in every field
            fields = (g.field for g in generators
                      if isinstance(g, FieldElement) and not g.is_rational)
            field = next(fields, rational_field())
        values = [field.coerce(g) for g in generators]
        rationals = [g.as_fraction() for g in values if g.is_rational]
        irrationals = [g for g in values if not g.is_rational]
        for q in rationals:
            if q <= 0:
                raise ValidationError("slope generators must be positive")
            if q == 1:
                raise ValidationError("1 is not allowed as a generator")
        if irrationals and rationals:
            raise ValidationError(
                "cannot mix rational and irrational slope generators"
            )
        if len(irrationals) > 1:
            raise ValidationError(
                "at most one irrational slope generator is supported"
            )
        if irrationals:
            g = irrationals[0]
            if g.sign() <= 0:
                raise ValidationError("slope generators must be positive")
            if g < 1:
                g = g.inverse()
            self.atoms, self.lattice, self._values = (g,), ((1,),), (g,)
            return
        self.atoms = tuple(sorted(
            {p for q in rationals for n in (q.numerator, q.denominator) for p in factor(n)}
        ))
        rows = [_valuations(q, self.atoms) for q in rationals]
        _hermite(rows, len(self.atoms))
        self.lattice = tuple(tuple(row) for row in rows if any(row))
        self._values = tuple(
            prod(Fraction(p) ** e for p, e in zip(self.atoms, row)) for row in self.lattice
        )

    def rank(self) -> int:
        return len(self.lattice)

    def is_trivial(self) -> bool:
        return not self.lattice

    def generator_values(self):
        """The Hermite generators, one per lattice row, as numbers
        (Fractions or elements)."""
        return self._values

    def coordinates(self, mu) -> Optional[tuple]:
        """Integer coordinates of mu over `generator_values()`, or None
        when mu is outside the group.

        Only the exponent read per atom depends on the atoms: primes are
        stripped from mu; for an irrational g the search over its powers
        is monotone and therefore complete, and `_EXPONENT_CAP` only caps
        the exponent magnitude as a safety valve (BoundExceeded beyond it).
        """
        atoms = self.atoms
        if atoms and isinstance(atoms[0], FieldElement):
            e = _search_exponent(atoms[0], mu)
            vector = None if e is None else [e]
        else:
            if not isinstance(mu, FieldElement):
                mu = rational_field().coerce(mu)
            vector = _valuations(mu, atoms)
        if vector is None:
            return None
        coords = []
        for row in self.lattice:
            col = next(i for i, x in enumerate(row) if x)
            # a remainder stays at col: the later pivots lie to its right
            c = vector[col] // row[col]
            coords.append(c)
            vector = [x - c * y for x, y in zip(vector, row)]
        return None if any(vector) else tuple(coords)

    def contains(self, mu) -> bool:
        """Exact membership in the group, which holds no number <= 0."""
        return self.coordinates(mu) is not None

    def equals(self, other: "SlopeGroup") -> Optional[bool]:
        """True or False, or None for groups in different fields."""
        fields = [a.field for a in self.atoms + other.atoms if isinstance(a, FieldElement)]
        if len(fields) == 2 and not fields[0].compatible(fields[1]):
            return None
        # an irrational atom never equals a prime, so a rational group is
        # never equal to an irrational one
        return self.atoms == other.atoms and self.lattice == other.lattice

    def __eq__(self, other):
        if not isinstance(other, SlopeGroup):
            return NotImplemented
        return self.equals(other) is True

    def __hash__(self):
        return hash((self.atoms, self.lattice))

    def __repr__(self):
        gens = ", ".join(str(g) for g in self.generator_values())
        return f"SlopeGroup(<{gens}>)"


def _search_exponent(g: FieldElement, mu) -> Optional[int]:
    """The k with g**k == mu for g > 1, or None: a monotone search over
    the powers of g, BoundExceeded past _EXPONENT_CAP."""
    mu = g.field.coerce(mu)
    if mu.sign() <= 0:
        return None
    c = mu._cmp(1)
    if c == 0:
        return 0
    sign = 1
    if c < 0:
        mu, sign = mu.inverse(), -1
    power = g.field.one()
    for k in range(1, _EXPONENT_CAP + 1):
        power = power * g
        c = power._cmp(mu)
        if c == 0:
            return sign * k
        if c > 0:
            return None
    raise BoundExceeded(f"exponent search exceeded {_EXPONENT_CAP}")


class BreakpointModule:
    """Z[1/m]-span of a Q-independent basis inside a real algebraic field."""

    __slots__ = ("field", "basis", "inverted_primes", "_rows", "_den")

    def __init__(self, field: RealAlgebraicField, basis, inverted_primes=()):
        primes = sorted(set(map(_integer, inverted_primes)))
        for p in primes:
            if not is_prime(p):
                raise ValidationError(f"{p} is not prime")
        elems = [field.coerce(b) for b in basis]
        if not elems:
            raise ValidationError("basis must be nonempty")
        d, n = field.degree, len(elems)
        # [B*D | I], D the basis denominators, reduces to p*[E*B*D | E] with
        # E*B*D = [I_n; 0] exactly when B is independent; then the rows of
        # D*E over p read a point's coordinates, and the rest test the span
        rows = [[*(b.num[i] for b in elems), *(int(i == j) for j in range(d))] for i in range(d)]
        rank, p, _ = _bareiss(rows, n)
        if rank != n:
            raise DependentBasis("basis is linearly dependent over Q")
        if len(elems) == 1 and not primes:
            raise ValidationError(
                "a rank-one module with no inverted primes is discrete"
            )
        self.field = field
        self.basis = tuple(elems)
        self.inverted_primes = tuple(primes)
        scales = [b.den for b in elems] + [1] * (d - n)
        transform = [[s * x for x in row[n:]] for s, row in zip(scales, rows)]
        g = gcd(p, *(x for row in transform for x in row))
        g = g if p > 0 else -g
        self._den = p // g
        self._rows = [[x // g for x in row] for row in transform]

    def rank(self) -> int:
        return len(self.basis)

    def coordinates(self, t) -> Optional[tuple]:
        """Basis coordinates of t as (nums, den), integer numerators over
        one positive denominator with gcd 1, or None when t is outside
        the rational span of the basis."""
        t = self.field.coerce(t)
        n, den = len(self.basis), self._den * t.den
        values = [sum(e * x for e, x in zip(row, t.num)) for row in self._rows]
        if any(values[n:]):
            return None
        g = gcd(den, *values[:n])
        return tuple(v // g for v in values[:n]), den // g

    def contains(self, t) -> bool:
        return self._in_module(self.coordinates(t))

    def _in_module(self, coords) -> bool:
        # coordinates name a module point when their common denominator is
        # a product of inverted primes
        return coords is not None and _strip_primes(coords[1], self.inverted_primes) == 1

    def _spanned_by(self, columns) -> bool:
        # n module points span the module exactly when their determinant is a
        # unit of Z[1/m] (Newman, Integral Matrices, 1972): their denominators
        # are products of inverted primes, so when the numerator is one too
        num = _determinant(columns)[0]
        return num != 0 and _strip_primes(abs(num), self.inverted_primes) == 1

    def multiplication_matrix(self, mu) -> tuple:
        """Multiplication by mu on the basis, as its columns: column j is
        the coordinates (nums, den) of mu * basis[j].

        Raises ValidationError when some product leaves the module.
        """
        mu = self.field.coerce(mu)
        columns = tuple(self.coordinates(mu * b) for b in self.basis)
        if not all(map(self._in_module, columns)):
            raise ValidationError(f"module is not closed under multiplication by {mu}")
        return columns

    def scaled(self, s) -> "BreakpointModule":
        s = self.field.coerce(s)
        return BreakpointModule(self.field, [s * b for b in self.basis], self.inverted_primes)

    def norm(self, s: FieldElement) -> Fraction:
        """Field norm of s; the benchmark's tracer counts the scale search's
        norm filter at this name."""
        return s.norm()

    def __eq__(self, other):
        if not isinstance(other, BreakpointModule):
            return NotImplemented
        return (
            self.field.compatible(other.field)
            and self.inverted_primes == other.inverted_primes
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.inverted_primes, self.basis))

    def same_module(self, other: "BreakpointModule") -> bool:
        """Semantic equality: the s = 1 case of `_carries`."""
        return _carries(1, other, self)

    def __repr__(self):
        basis = ", ".join(str(b) for b in self.basis)
        return f"BreakpointModule([{basis}], inverted={list(self.inverted_primes)})"


# ---------------------------------------------------------------------------


class ScaleResult(NamedTuple):
    """Outcome of a scale equivalence search.

    outcome is one of "found", "distinct", "unknown".  For "found" the
    scalar s satisfies s * G2 = G1 exactly; for "distinct" the
    obstruction names the invariant that rules every scalar out.
    """

    outcome: str
    scalar: Optional[FieldElement] = None
    obstruction: Optional[str] = None

    @property
    def found(self) -> bool:
        return self.outcome == "found"


def _carries(s, g2: BreakpointModule, g1: BreakpointModule) -> bool:
    """True when s * G2 = G1: equal inverted primes and ranks, every s*b
    of G2's basis a point of G1, and the coordinates of those points
    spanning G1.  Membership alone would call Z[1/10] and Z[1/30] equal,
    since each contains the other's basis."""
    same = g1.inverted_primes == g2.inverted_primes and g1.rank() == g2.rank()
    if not same or not g1.field.compatible(g2.field):
        return False
    # same_module reads the bases themselves, without field arithmetic
    points = g2.basis if s == 1 else [s * b for b in g2.basis]
    columns = [g1.coordinates(t) for t in points]
    return all(map(g1._in_module, columns)) and g1._spanned_by(columns)


def _shell(n: int, r: int):
    """The integer vectors of length n and max-norm r >= 1, in
    lexicographic order."""
    for x in range(-r, r + 1):
        if abs(x) == r:
            yield from ((x, *t) for t in itertools.product(range(-r, r + 1), repeat=n - 1))
        elif n > 1:
            yield from ((x, *t) for t in _shell(n - 1, r))


def scale_equivalence(
    g1: BreakpointModule, g2: BreakpointModule, search_bound: int = DEFAULT_SEARCH_BOUND
) -> ScaleResult:
    """Search for a positive s with s * G2 = G1.

    Rank one is closed form: s = |b1 / b2|.  Otherwise candidates are
    ratios h / g of a module element h of G1 (integer basis coefficients
    bounded by search_bound) against the first basis element of G2,
    filtered at full rank by the norm of s, which must make N(s) times
    the determinant of G2's basis over G1 a unit, and then verified by
    `_carries`.  The box is walked lazily, shell by shell, until the
    degree's candidate budget is spent.  Complete up to the bound and
    the budget: "unknown" only means no candidate tried worked.
    """
    if _integer(search_bound) < 0:
        raise ValidationError(f"the search bound {search_bound} is negative")
    if not g1.field.compatible(g2.field):
        return ScaleResult("unknown", obstruction="different fields")
    if g1.rank() != g2.rank():
        return ScaleResult("distinct", obstruction="module ranks differ")
    if g1.inverted_primes != g2.inverted_primes:
        return ScaleResult("distinct", obstruction="inverted primes differ")
    if g1.same_module(g2):
        return ScaleResult("found", scalar=g1.field.one())
    field = g1.field
    n = g1.rank()
    if n == 1:
        s = g1.basis[0] / g2.basis[0]
        return ScaleResult("found", scalar=s if s.sign() > 0 else -s)
    d = field.degree
    # at full rank s*G2 = G1 makes N(s) * det(M) a unit of Z[1/m], for M
    # the coordinates of G2's basis over G1's
    det = Fraction(*_determinant([g1.coordinates(b) for b in g2.basis])) if n == d else None
    budget = _SCALE_CANDIDATES if d <= 3 else _SCALE_CANDIDATES * 9 // d**2
    # s = h / g for the fixed g = g2.basis[0], so g is inverted once
    ginv = g2.basis[0].inverse()
    # by max-norm from 1 up, then lexicographically; the basis is
    # independent, so each vector gives a new nonzero h and a new s
    box = itertools.chain.from_iterable(_shell(n, r) for r in range(1, search_bound + 1))
    for tried, coeffs in enumerate(box):
        if tried == budget:
            spent = f"search budget spent at radius {max(map(abs, coeffs))}"
            return ScaleResult("unknown", obstruction=spent)
        h = sum((c * b for c, b in zip(coeffs, g1.basis) if c), field.zero())
        s = h * ginv
        if s.sign() <= 0:
            continue
        if det is not None and _valuations(abs(g1.norm(s) * det), g1.inverted_primes) is None:
            continue
        if _carries(s, g2, g1):
            return ScaleResult("found", scalar=s)
    return ScaleResult("unknown", obstruction="no scalar within the search box")


# ---------------------------------------------------------------------------


class SteinTriple:
    """A triple (breakpoint module, slope group, endpoint) defining a
    group of piecewise linear bijections of [0, endpoint).

    The endpoint is optional; without it the triple only determines the
    groupoid-level data.  Construction checks that the module is carried
    into itself by every slope generator mu, and by 1/mu through the
    determinant of mu's columns, and that the endpoint is a positive
    element of the module.  It keeps the slope action that check builds:
    `action` holds, in `generator_values()` order, the columns of
    `module.multiplication_matrix(mu)`.
    """

    __slots__ = ("module", "slopes", "endpoint", "action")

    def __init__(self, module: BreakpointModule, slopes: SlopeGroup, endpoint=None):
        action = []
        for mu in slopes.generator_values():
            columns = module.multiplication_matrix(mu)
            if not module._spanned_by(columns):  # the group holds 1/mu as well
                inverse = module.field.coerce(1 / mu)
                raise ValidationError(f"module is not closed under multiplication by {inverse}")
            action.append(columns)
        if endpoint is not None:
            endpoint = module.field.coerce(endpoint)
            if not module.contains(endpoint):
                raise ValidationError("endpoint is not a module point")
            if endpoint.sign() <= 0:
                raise ValidationError("endpoint must be positive")
        self.module = module
        self.slopes = slopes
        self.endpoint = endpoint
        self.action = tuple(action)

    def require_endpoint(self) -> FieldElement:
        if self.endpoint is None:
            raise ValidationError("this operation needs an endpoint")
        return self.endpoint

    @property
    def field(self) -> RealAlgebraicField:
        return self.module.field

    def __eq__(self, other):
        if not isinstance(other, SteinTriple):
            return NotImplemented
        if (self.endpoint is None) != (other.endpoint is None):
            return False
        if self.endpoint is not None and self.endpoint != other.endpoint:
            return False
        return self.module == other.module and self.slopes == other.slopes

    def __hash__(self):
        return hash((self.module, self.slopes))

    def __repr__(self):
        return f"SteinTriple({self.module!r}, {self.slopes!r}, {self.endpoint})"


# -- convenience builders ----------------------------------------------------


def stein_triple(
    basis,
    inverted_primes,
    slope_generators,
    endpoint=None,
    field: Optional[RealAlgebraicField] = None,
) -> SteinTriple:
    """General builder; rational data may be given as plain numbers."""
    if field is None:
        field = rational_field()
    module = BreakpointModule(field, basis, inverted_primes)
    return SteinTriple(module, SlopeGroup(slope_generators, field=field), endpoint)


def thompson_triple(n: int, endpoint: Rational = 1) -> SteinTriple:
    """(Z[1/n], <n>, endpoint): the Higman-Thompson family for n >= 2."""
    if rational_field().coerce(n) < 2:
        raise ValidationError("the base must be at least 2")
    return stein_triple([1], factor(n), [n], endpoint)


def thompson_base(triple: SteinTriple) -> Optional[int]:
    """The base n when the triple is (Z[1/n], <n>) at any endpoint, else None.

    The prime support comes from the slope group, so nothing is factored.
    """
    module, slopes = triple.module, triple.slopes
    if module.field.degree != 1 or module.rank() != 1 or slopes.rank() != 1:
        return None
    (n,) = slopes.generator_values()
    if module.inverted_primes != slopes.atoms or n.denominator != 1:
        return None
    if _valuations(abs(module.basis[0].as_fraction()), slopes.atoms) is None:
        return None
    return n.numerator


@cache
def golden_field() -> RealAlgebraicField:
    """Q(b) for the golden ratio b, the root of x^2 - x - 1 in (3/2, 5/3)."""
    return RealAlgebraicField([-1, -1, 1], (Fraction(3, 2), Fraction(5, 3)))


def golden_triple(endpoint: Union[Rational, FieldElement] = 1) -> SteinTriple:
    """(Z + Z*b, <b>, endpoint) for the golden ratio b."""
    field = golden_field()
    module = BreakpointModule(field, [field.one(), field.generator()])
    slopes = SlopeGroup([field.generator()])
    return SteinTriple(module, slopes, endpoint)


def algebraic_triple(
    minpoly, root_interval, endpoint: Union[Rational, FieldElement, None] = 1
) -> SteinTriple:
    """(Z[a], <a>, endpoint) for the root a of minpoly in the interval."""
    field = RealAlgebraicField(minpoly, root_interval)
    basis = [field.element([0] * j + [1]) for j in range(field.degree)]
    module = BreakpointModule(field, basis)
    slopes = SlopeGroup([field.generator()])
    return SteinTriple(module, slopes, endpoint)
