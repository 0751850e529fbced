"""Breakpoint modules, slope groups, and the triples that define a group
of piecewise linear bijections.

A breakpoint module is a finitely generated dense subgroup of the reals,
stored as a Q-linearly independent basis inside a real algebraic field
together with a set of inverted primes: the module is the span of the
basis over Z[1/m], m the product of those primes.  A slope group is a
finitely generated multiplicative subgroup of the positive reals, either
generated by positive rationals (stored as an exponent lattice over its
prime support) or by a single irrational algebraic number.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import lcm
from typing import NamedTuple, Optional, Sequence, Union

from .errors import (
    BoundExceeded,
    DependentBasis,
    FieldMismatch,
    InvalidEndpoint,
    NonDense,
    NotInvariant,
    UnsupportedComparison,
    UnsupportedSlopeGroup,
    ValidationError,
)
from .intlinalg import IntMatrix, _strip_primes, factor, hermite_normal_form, is_prime
from .numbers import (
    FieldElement,
    RealAlgebraicField,
    Rational,
    _eliminate,
    rational_field,
)

DEFAULT_SEARCH_BOUND = 16

# Candidates one scale search may try: the default box at rank 3 holds
# 33^3 - 1, so no search at the default bound and rank 3 or below stops
# early.
_SCALE_CANDIDATES = 35_936

# Safety valve for the exact exponent searches in cyclic slope groups;
# the searches are monotone, so this only guards pathological inputs.
_EXPONENT_CAP = 10_000


# ---------------------------------------------------------------------------
# small exact arithmetic over Q


def _factor_fraction(q: Fraction) -> dict:
    if q <= 0:
        raise ValidationError("only positive rationals have a prime support")
    out = factor(q.numerator)
    for p, e in factor(q.denominator).items():
        out[p] = out.get(p, 0) - e
    return {p: e for p, e in out.items() if e}


def _is_unit(q: Fraction, primes) -> bool:
    """True when the positive rational q is a product of powers of primes."""
    return (
        q > 0
        and _strip_primes(q.numerator, primes) == 1
        and _strip_primes(q.denominator, primes) == 1
    )


# ---------------------------------------------------------------------------


class SlopeGroup:
    """Finitely generated subgroup of the multiplicative positive reals.

    kind "rational": generated by positive rationals; canonically stored
    as the Hermite basis of the exponent lattice over the sorted prime
    support.  kind "algebraic": a single irrational algebraic generator,
    canonicalized to be greater than 1.  Mixed or higher rank irrational
    generator sets are rejected.
    """

    __slots__ = ("kind", "primes", "lattice", "generator", "field")

    def __init__(self, generators: Sequence[Union[Rational, FieldElement]],
                 field: Optional[RealAlgebraicField] = None):
        rationals = []
        irrationals = []
        for g in generators:
            if isinstance(g, FieldElement):
                if field is None:
                    field = g.field
                elif not field.compatible(g.field):
                    raise FieldMismatch("slope generators from different fields")
                if g.is_rational:
                    rationals.append(g.as_fraction())
                else:
                    irrationals.append(g)
            else:
                rationals.append(Fraction(g))
        for q in rationals:
            if q <= 0:
                raise UnsupportedSlopeGroup("slope generators must be positive")
            if q == 1:
                raise UnsupportedSlopeGroup("1 is not allowed as a generator")
        if irrationals and rationals:
            raise UnsupportedSlopeGroup(
                "cannot mix rational and irrational slope generators"
            )
        if len(irrationals) > 1:
            raise UnsupportedSlopeGroup(
                "at most one irrational slope generator is supported"
            )
        if irrationals:
            g = irrationals[0]
            if g.sign() <= 0:
                raise UnsupportedSlopeGroup("slope generators must be positive")
            if (g - 1).sign() < 0:
                g = g.inverse()  # canonical generator > 1
            self.kind = "algebraic"
            self.generator = g
            self.field = g.field
            self.primes = ()
            self.lattice = None
            return
        self.kind = "rational"
        self.generator = None
        self.field = field
        factored = [_factor_fraction(q) for q in rationals]
        support = sorted({p for f in factored for p in f})
        if support:
            vectors = [[f.get(p, 0) for p in support] for f in factored]
            h, _ = hermite_normal_form(IntMatrix(vectors))
            basis = [row for row in h.entries if any(row)]
            self.lattice = IntMatrix(basis) if basis else None
        else:
            self.lattice = None
        self.primes = tuple(support)

    # -- basic data ---------------------------------------------------------

    def rank(self) -> int:
        if self.kind == "algebraic":
            return 1
        return self.lattice.rows if self.lattice is not None else 0

    def is_trivial(self) -> bool:
        return self.rank() == 0

    def basis_vectors(self):
        """Rows of the canonical exponent lattice basis (rational kind)."""
        if self.kind != "rational":
            raise UnsupportedComparison("no exponent lattice for this kind")
        return self.lattice.entries if self.lattice is not None else ()

    def generator_values(self):
        """A canonical generating set as numbers (Fractions or elements)."""
        if self.kind == "algebraic":
            return (self.generator,)
        out = []
        for row in self.basis_vectors():
            value = Fraction(1)
            for p, e in zip(self.primes, row):
                value *= Fraction(p) ** e
            out.append(value)
        return tuple(out)

    # -- membership and equality --------------------------------------------

    def _lattice_contains(self, vector) -> bool:
        if self.lattice is None:
            return not any(vector)
        v = list(vector)
        for row in self.lattice.entries:
            col = next(i for i, x in enumerate(row) if x)
            if v[col] % row[col]:
                return False
            q = v[col] // row[col]
            v = [x - q * y for x, y in zip(v, row)]
        return not any(v)

    def contains(self, mu) -> bool:
        """Exact membership of a positive number in the group.

        For the cyclic algebraic kind the exponent search is monotone and
        therefore complete; `_EXPONENT_CAP` only caps the exponent
        magnitude as a safety valve (BoundExceeded beyond it).
        """
        if isinstance(mu, FieldElement) and not mu.is_rational:
            if self.kind == "rational":
                return False
            value = mu
        elif self.kind == "rational":
            q = mu.as_fraction() if isinstance(mu, FieldElement) else Fraction(mu)
            if q <= 0:
                return False
            num, den = q.numerator, q.denominator
            vector = []
            for p in self.primes:
                e = 0
                while num % p == 0:
                    num, e = num // p, e + 1
                while den % p == 0:
                    den, e = den // p, e - 1
                vector.append(e)
            # a cofactor left over is a prime outside the group's support
            return num == den == 1 and self._lattice_contains(vector)
        else:
            value = self.generator.field.from_rational(
                mu.as_fraction() if isinstance(mu, FieldElement) else Fraction(mu)
            )
        g = self.generator
        if not g.field.compatible(value.field):
            return False
        if value.sign() <= 0:
            return False
        if value == 1:
            return True
        if (value - 1).sign() < 0:
            value = value.inverse()
        power = g.field.one()
        for _ in range(_EXPONENT_CAP):
            power = power * g
            c = (power - value).sign()
            if c == 0:
                return True
            if c > 0:
                return False
        raise BoundExceeded(f"exponent search exceeded {_EXPONENT_CAP}")

    def equals(self, other: "SlopeGroup") -> bool:
        if self.kind == "rational" and other.kind == "rational":
            return self.primes == other.primes and self.lattice == other.lattice
        if self.kind == "algebraic" and other.kind == "algebraic":
            if not self.field.compatible(other.field):
                raise UnsupportedComparison(
                    "slope groups live in different fields"
                )
            return self.generator == other.generator
        # Mixed kinds can never be equal: an algebraic-kind group always
        # has an irrational generator, a rational-kind group has none.
        return False

    def canonical_key(self):
        if self.kind == "rational":
            entries = self.lattice.entries if self.lattice is not None else ()
            return ("rational", self.primes, entries)
        return (
            "algebraic",
            self.generator.field.minpoly.coefficients,
            tuple(self.generator.coords),
        )

    def __eq__(self, other):
        if not isinstance(other, SlopeGroup):
            return NotImplemented
        try:
            return self.equals(other)
        except UnsupportedComparison:
            return False

    def __hash__(self):
        return hash(self.canonical_key())

    def __repr__(self):
        gens = ", ".join(str(g) for g in self.generator_values())
        return f"SlopeGroup(<{gens}>)"


class BreakpointModule:
    """Z[1/m]-span of a Q-independent basis inside a real algebraic field."""

    __slots__ = ("field", "basis", "inverted_primes", "_columns", "_rows", "_den")

    def __init__(self, field: RealAlgebraicField, basis, inverted_primes=()):
        primes = sorted(set(int(p) for p in inverted_primes))
        for p in primes:
            if not is_prime(p):
                raise ValidationError(f"{p} is not prime")
        elems = []
        for b in basis:
            if isinstance(b, FieldElement):
                if not field.compatible(b.field):
                    raise FieldMismatch("basis element from a different field")
                elems.append(field.element(b.coords))
            else:
                elems.append(field.from_rational(b))
        if not elems:
            raise ValidationError("basis must be nonempty")
        columns = [b.coords for b in elems]
        d, n = field.degree, len(columns)
        # [B | I] reduces to [E*B | E], with E*B = [I_n; 0] exactly when B is independent
        identity = [[int(i == j) for i in range(d)] for j in range(d)]
        reduced = _eliminate(columns + identity)[2]
        if n > d or any(reduced[i][i] != 1 for i in range(n)):
            raise DependentBasis("basis is linearly dependent over Q")
        if len(elems) == 1 and not primes:
            raise NonDense(
                "a rank-one module with no inverted primes is discrete"
            )
        self.field = field
        self.basis = tuple(elems)
        self.inverted_primes = tuple(primes)
        self._columns = columns
        # E as integer rows over one denominator
        self._den = den = lcm(*(x.denominator for row in reduced for x in row[n:]))
        self._rows = [[x.numerator * (den // x.denominator) for x in row[n:]] for row in reduced]

    def rank(self) -> int:
        return len(self.basis)

    def coordinates(self, t) -> Optional[tuple]:
        """Rational basis coordinates of t, or None when t is outside the
        rational span of the basis."""
        if isinstance(t, FieldElement):
            if not self.field.compatible(t.field):
                raise FieldMismatch("point from a different field")
        else:
            t = self.field.from_rational(t)
        n, den = len(self.basis), self._den * t.den
        values = [sum(e * x for e, x in zip(row, t.num)) for row in self._rows]
        return None if any(values[n:]) else tuple(Fraction(v, den) for v in values[:n])

    def contains(self, t) -> bool:
        return self._in_module(self.coordinates(t))

    def _in_module(self, coords) -> bool:
        # rational coordinates name a module point when their denominators
        # are products of inverted primes
        return coords is not None and all(
            _strip_primes(x.denominator, self.inverted_primes) == 1 for x in coords
        )

    def multiplication_matrix(self, mu) -> tuple:
        """Matrix of multiplication by mu on the basis, as rows of
        Fractions: mu * basis[j] = sum_i M[i][j] * basis[i].

        Raises NotInvariant when some product leaves the module.
        """
        if not isinstance(mu, FieldElement):
            mu = self.field.from_rational(mu)
        cols = []
        for b in self.basis:
            coords = self.coordinates(mu * b)
            if not self._in_module(coords):
                raise NotInvariant(
                    f"module is not closed under multiplication by {mu}"
                )
            cols.append(coords)
        n = len(cols)
        return tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))

    def scaled(self, s) -> "BreakpointModule":
        if not isinstance(s, FieldElement):
            s = self.field.from_rational(s)
        return BreakpointModule(
            self.field, [s * b for b in self.basis], self.inverted_primes
        )

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
            and self._columns == other._columns
        )

    def __hash__(self):
        return hash((self.inverted_primes, tuple(self._columns)))

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
    """True when s * G2 = G1: equal inverted primes, then two-sided
    membership of the bases.  Membership alone would call Z[1/10] and
    Z[1/30] equal, since each contains the other's basis."""
    if not g1.field.compatible(g2.field) or g1.inverted_primes != g2.inverted_primes:
        return False
    if s == 1:  # same_module: the bases themselves, without field arithmetic
        return all(map(g1.contains, g2.basis)) and all(map(g2.contains, g1.basis))
    return all(g1.contains(s * b) for b in g2.basis) and all(
        g2.contains(b / s) for b in g1.basis
    )


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
    filtered by the field-norm/covolume identity and then verified by
    `_carries`.  The box is walked lazily, shell by shell, and the walk
    stops after _SCALE_CANDIDATES candidates.  Complete up to the bound
    and the budget: "unknown" only means no candidate tried worked.
    """
    if search_bound < 0:
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
    ratio = None
    if n == d:
        ratio = abs(_eliminate(g1._columns)[1] / _eliminate(g2._columns)[1])
    g = g2.basis[0]
    # by max-norm from 1 up, then lexicographically; the basis is
    # independent, so each vector gives a new nonzero h and a new s
    box = itertools.chain.from_iterable(_shell(n, r) for r in range(1, search_bound + 1))
    for tried, coeffs in enumerate(box):
        if tried == _SCALE_CANDIDATES:
            spent = f"search budget spent at radius {max(map(abs, coeffs))}"
            return ScaleResult("unknown", obstruction=spent)
        h = sum((c * b for c, b in zip(coeffs, g1.basis) if c), field.zero())
        s = h / g
        if s.sign() <= 0:
            continue
        if ratio is not None:
            norm_ratio = abs(g1.norm(s))
            if not _is_unit(norm_ratio / ratio, g1.inverted_primes):
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
    into itself by every slope generator and its inverse, and that the
    endpoint is a positive element of the module.
    """

    __slots__ = ("module", "slopes", "endpoint")

    def __init__(self, module: BreakpointModule, slopes: SlopeGroup, endpoint=None):
        if slopes.kind == "algebraic" and not module.field.compatible(slopes.field):
            raise FieldMismatch("slope group lives in a different field")
        for mu in slopes.generator_values():
            module.multiplication_matrix(mu)
            module.multiplication_matrix(1 / mu)
        if endpoint is not None:
            if not isinstance(endpoint, FieldElement):
                endpoint = module.field.from_rational(endpoint)
            if not module.contains(endpoint):
                raise InvalidEndpoint("endpoint is not a module point")
            if endpoint.sign() <= 0:
                raise InvalidEndpoint("endpoint must be positive")
        self.module = module
        self.slopes = slopes
        self.endpoint = endpoint

    def require_endpoint(self) -> FieldElement:
        if self.endpoint is None:
            raise InvalidEndpoint("this operation needs an endpoint")
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
    gens = [
        g if isinstance(g, FieldElement) else Fraction(g) for g in slope_generators
    ]
    slopes = SlopeGroup(gens, field=field)
    return SteinTriple(module, slopes, endpoint)


def thompson_triple(n: int, endpoint: Rational = 1) -> SteinTriple:
    """(Z[1/n], <n>, endpoint): the Higman-Thompson family for n >= 2."""
    if n < 2:
        raise ValidationError("the base must be at least 2")
    return stein_triple([1], list(factor(n)), [n], endpoint)


def thompson_base(triple: SteinTriple) -> Optional[int]:
    """The base n when the triple is (Z[1/n], <n>) at any endpoint, else None.

    The prime support comes from the slope group, so nothing is factored.
    """
    module, slopes = triple.module, triple.slopes
    if module.field.degree != 1 or module.rank() != 1:
        return None
    if slopes.kind != "rational" or slopes.rank() != 1:
        return None
    value = slopes.generator_values()[0]
    if value < 1:
        value = 1 / value
    if value.denominator != 1 or module.inverted_primes != slopes.primes:
        return None
    if not _is_unit(abs(module.basis[0].as_fraction()), slopes.primes):
        return None
    return int(value)


_GOLDEN_FIELD = None


def golden_field() -> RealAlgebraicField:
    """Q(b) for the golden ratio b, the root of x^2 - x - 1 in (3/2, 5/3)."""
    global _GOLDEN_FIELD
    if _GOLDEN_FIELD is None:
        _GOLDEN_FIELD = RealAlgebraicField([-1, -1, 1], (Fraction(3, 2), Fraction(5, 3)))
    return _GOLDEN_FIELD


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
    gen = field.generator()
    basis = []
    power = field.one()
    for _ in range(field.degree):
        basis.append(power)
        power = power * gen
    module = BreakpointModule(field, basis)
    slopes = SlopeGroup([gen])
    return SteinTriple(module, slopes, endpoint)
