"""Exact arithmetic in Q and in real algebraic number fields Q(a).

A field is described by an integer polynomial together with a rational
interval isolating exactly one real root, written `a` below.  Elements
are rational coordinate vectors over the power basis 1, a, ..., a^(d-1),
and every decision is exact.  Degree-two signs come from a closed form
for the root by comparing squares of integers.  Higher degrees bound the
value over the isolating interval, test for a symbolic zero by a gcd
only when that bound straddles zero, and then bisect the interval with
Sturm-sequence root counts until the bound excludes zero.  No floating
point is used anywhere.

A product convolves the two coordinate vectors and folds the terms of
degree d to 2d-2 back in with the coordinates of a^d, ..., a^(2d-2),
which the field computes once, so no polynomial division runs per
product.  Multiplication by x is the d x d rational matrix whose columns
are x*a^j (j < d).  The inverse of x solves that matrix against 1 and
the field norm is its determinant (Cohen, GTM 138, 4.2); both go through
`_eliminate`, the package's only rational elimination.

The defining polynomial must be squarefree but need not be irreducible.
With a reducible polynomial the coordinate arithmetic takes place in a
quotient ring that is only a product of fields; division then fails with
DivisionByZero whenever the divisor shares a factor with the polynomial.
This is a documented limitation, not an error in the caller's data.

Degree one collapses to plain rational arithmetic on Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Sequence, Union

from .errors import (
    BoundExceeded,
    DivisionByZero,
    FieldMismatch,
    MultipleRootsInInterval,
    NoRootInInterval,
    NotSquarefree,
    ZeroLeadingCoefficient,
)

Rational = Union[int, Fraction]

# Safety valve for the bisection loops; convergence is geometric, so this
# is reached only by values that 4096 halvings of the interval cannot
# separate from zero.
_MAX_REFINEMENTS = 4096


# ---------------------------------------------------------------------------
# dense polynomials over Q: coefficient tuples, constant term first


def _trim(coeffs) -> tuple:
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def _prem(a, b):
    """Remainder of the polynomial a on division by the nonzero b."""
    a = list(a)
    inv = Fraction(1, 1) / b[-1]
    while len(a) >= len(b):
        c = a[-1] * inv
        k = len(a) - len(b)
        for i, y in enumerate(b):
            a[k + i] -= c * y
        a.pop()
        while a and a[-1] == 0:
            a.pop()
    return _trim(a)


def _pderiv(a):
    return _trim(i * a[i] for i in range(1, len(a)))


def _peval(a, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * x + c
    return acc


def _interval_eval(a, lo: Fraction, hi: Fraction):
    """Exact interval extension of the polynomial by Horner's scheme."""
    if not a:
        return Fraction(0), Fraction(0)
    acc_lo = acc_hi = Fraction(a[-1])
    for c in reversed(a[:-1]):
        p = (acc_lo * lo, acc_lo * hi, acc_hi * lo, acc_hi * hi)
        acc_lo = min(p) + c
        acc_hi = max(p) + c
    return acc_lo, acc_hi


def _pgcd(a, b):
    # Euclid over Q; the result is normalized monic (or a constant 1).
    a, b = _trim(a), _trim(b)
    while b:
        a, b = b, _prem(a, b)
    if not a:
        return ()
    if len(a) == 1:
        return (Fraction(1),)
    lead = a[-1]
    return tuple(c / lead for c in a)


def _sturm_chain(f):
    chain = [_trim(f), _pderiv(f)]
    while chain[-1]:
        rem = _prem(chain[-2], chain[-1])
        if not rem:
            break
        chain.append(tuple(-c for c in rem))
    return tuple(chain)


def _variations(values) -> int:
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


def _count_roots_open(chain, lo: Fraction, hi: Fraction) -> int:
    """Number of distinct real roots of chain[0] in the open interval."""
    v_lo = _variations(_peval(p, lo) for p in chain)
    v_hi = _variations(_peval(p, hi) for p in chain)
    n = v_lo - v_hi  # roots in (lo, hi]
    if _peval(chain[0], hi) == 0:
        n -= 1
    return n


def _sign_fraction(x: Fraction) -> int:
    return (x > 0) - (x < 0)


def _quadratic_sign(quadratic, x: Fraction, y: Fraction) -> int:
    """Sign of x + y*a for the root a = (-c1 + e*sqrt(D)) / (2*c2)."""
    c1, c2, e, disc = quadratic
    # 2*c2*(x + y*a) = u + v*sqrt(D); scale both by the positive denominators
    u = 2 * c2 * x.numerator * y.denominator - c1 * y.numerator * x.denominator
    v = e * y.numerator * x.denominator
    su = (u > 0) - (u < 0)
    sv = (v > 0) - (v < 0)
    if su * sv >= 0:
        return su or sv
    d = u * u - v * v * disc  # zero only when D is a square
    return su if d > 0 else -su if d < 0 else 0


def _eliminate(columns, target=None):
    """Gauss-Jordan elimination over Q of the matrix with the given
    columns, augmented by the column target when one is given.

    Returns (rank, det, solution): the rank of the columns, their
    determinant (for a square matrix), and the unique rational x with
    sum x_j * columns[j] = target, or None when there is no such x or
    it is not unique.
    """
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
        rows[r] = [x / p for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
    solution = None
    if target is not None and r == n and not any(row[n] for row in rows[r:]):
        solution = tuple(row[n] for row in rows[:n])
    return r, det, solution


def _multiplication_columns(x: "FieldElement"):
    """Coordinates of x*a^j for j < d: the columns of the matrix of
    multiplication by x on the power basis."""
    a = x.field.generator()
    columns = [x.coords]
    for _ in range(x.field.degree - 1):
        x = a * x
        columns.append(x.coords)
    return columns


# ---------------------------------------------------------------------------


class MinimalPolynomial:
    """Integer defining polynomial, constant term first, stored primitive.

    The coefficient vector is normalized so that the coefficients have
    gcd 1 and the leading coefficient is positive.  Squarefreeness is
    verified at construction; irreducibility is not.
    """

    __slots__ = ("coefficients", "_fractions")

    def __init__(self, coefficients: Sequence[Rational]):
        cs = []
        for c in coefficients:
            f = Fraction(c)
            if f.denominator != 1:
                raise ZeroLeadingCoefficient(
                    "minimal polynomial coefficients must be integers"
                )
            cs.append(f.numerator)
        if not cs or cs[-1] == 0:
            raise ZeroLeadingCoefficient("leading coefficient must be nonzero")
        if len(cs) < 2:
            raise ZeroLeadingCoefficient("degree must be at least 1")
        g = 0
        for c in cs:
            g = gcd(g, abs(c))
        if cs[-1] < 0:
            g = -g
        cs = [c // g for c in cs]
        fr = tuple(Fraction(c) for c in cs)
        if len(cs) > 2 and len(_pgcd(fr, _pderiv(fr))) > 1:
            raise NotSquarefree("defining polynomial has a repeated root")
        self.coefficients = tuple(cs)
        self._fractions = fr

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def fractions(self):
        return self._fractions

    def evaluate(self, x: Rational) -> Fraction:
        return _peval(self._fractions, Fraction(x))

    def __eq__(self, other):
        return (
            isinstance(other, MinimalPolynomial)
            and self.coefficients == other.coefficients
        )

    def __hash__(self):
        return hash(self.coefficients)

    def __repr__(self):
        return f"MinimalPolynomial({list(self.coefficients)})"


class RealAlgebraicField:
    """Q(a) for the unique root a of `minpoly` inside the given interval.

    The isolating interval is refined lazily as comparisons demand; the
    refinement is monotone shrinking and has no user-visible effect, so
    the object behaves as immutable.
    """

    __slots__ = (
        "minpoly",
        "degree",
        "_lo",
        "_hi",
        "_lo0",
        "_hi0",
        "_sturm",
        "_exact_root",
        "_quadratic",
        "_powers",
        "_compat_true",
        "_compat_false",
    )

    def __init__(self, minpoly, root_interval):
        if not isinstance(minpoly, MinimalPolynomial):
            minpoly = MinimalPolynomial(minpoly)
        lo, hi = (Fraction(x) for x in root_interval)
        if not lo < hi:
            raise NoRootInInterval("isolating interval is empty")
        self.minpoly = minpoly
        self.degree = minpoly.degree
        self._exact_root = None
        if self.degree == 1:
            a0, a1 = minpoly.coefficients
            root = Fraction(-a0, a1)
            if not (lo < root < hi):
                raise NoRootInInterval("the rational root is outside the interval")
            self._exact_root = root
            self._sturm = None
            lo = hi = root
        else:
            self._sturm = _sturm_chain(minpoly.fractions())
            n = _count_roots_open(self._sturm, lo, hi)
            if n == 0:
                raise NoRootInInterval("no root inside the interval")
            if n > 1:
                raise MultipleRootsInInterval(f"{n} roots inside the interval")
        self._quadratic = None
        if self.degree == 2:
            # the root is (-c1 + e*sqrt(D)) / (2*c2), e = -1 below the vertex
            c0, c1, c2 = minpoly.coefficients
            vertex = Fraction(-c1, 2 * c2)
            below = hi <= vertex or (
                lo < vertex and _count_roots_open(self._sturm, lo, vertex) == 1
            )
            self._quadratic = (c1, c2, -1 if below else 1, c1 * c1 - 4 * c0 * c2)
        # coordinates of a^d, ..., a^(2d-2), the high terms of a product
        *low, lead = minpoly.coefficients
        power = tuple(Fraction(-c, lead) for c in low)  # a^d
        powers = []
        for _ in range(self.degree - 1):
            powers.append(power)
            # a * power: shift up one place, fold the top coordinate back in
            power = tuple(
                x + power[-1] * t for x, t in zip((0,) + power[:-1], powers[0])
            )
        self._powers = tuple(powers)
        self._lo = self._lo0 = lo
        self._hi = self._hi0 = hi
        self._compat_true = []
        self._compat_false = []

    # -- root bookkeeping ---------------------------------------------------

    def root_interval(self):
        return self._lo, self._hi

    def initial_interval(self):
        return self._lo0, self._hi0

    def _bisect(self, lo: Fraction, hi: Fraction):
        """One bisection step keeping the root; degenerate when it is hit."""
        mid = (lo + hi) / 2
        if self.minpoly.evaluate(mid) == 0:
            return mid, mid
        if _count_roots_open(self._sturm, lo, mid) == 1:
            return lo, mid
        return mid, hi

    def refine_root(self) -> None:
        if self._exact_root is not None:
            return
        lo, hi = self._bisect(self._lo, self._hi)
        if lo == hi:
            self._exact_root = lo
        self._lo, self._hi = lo, hi

    # -- element construction ----------------------------------------------

    @property
    def is_rational(self) -> bool:
        return self.degree == 1

    def element(self, coords) -> "FieldElement":
        cs = [Fraction(c) for c in coords]
        if len(cs) > self.degree:
            raise FieldMismatch(
                f"coordinate vector longer than degree {self.degree}"
            )
        cs += [Fraction(0)] * (self.degree - len(cs))
        return FieldElement(self, tuple(cs))

    def from_rational(self, value: Rational) -> "FieldElement":
        return self.element([Fraction(value)])

    def zero(self) -> "FieldElement":
        return self.from_rational(0)

    def one(self) -> "FieldElement":
        return self.from_rational(1)

    def generator(self) -> "FieldElement":
        """The chosen root as a field element."""
        if self.degree == 1:
            return self.from_rational(self._exact_root)
        return self.element([0, 1])

    # -- compatibility ------------------------------------------------------

    def compatible(self, other: "RealAlgebraicField") -> bool:
        """True when both handles describe the same subfield of R."""
        if other is self:
            return True
        if self.degree == 1 and other.degree == 1:
            return True  # both are plain Q; the remembered roots differ freely
        if any(f is other for f in self._compat_true):
            return True
        if any(f is other for f in self._compat_false):
            return False
        ok = self._same_root(other)
        (self._compat_true if ok else self._compat_false).append(other)
        return ok

    def _same_root(self, other) -> bool:
        if self.minpoly != other.minpoly:
            return False
        lo = max(self._lo, other._lo)
        hi = min(self._hi, other._hi)
        if self._exact_root is not None:
            return other._lo <= self._exact_root <= other._hi
        if lo >= hi:
            return False
        return _count_roots_open(self._sturm, lo, hi) == 1

    def __repr__(self):
        if self.degree == 1:
            return f"RealAlgebraicField(Q, a={self._exact_root})"
        return (
            f"RealAlgebraicField({list(self.minpoly.coefficients)}, "
            f"({self._lo0}, {self._hi0}))"
        )


_RATIONAL_FIELD = None


def rational_field() -> RealAlgebraicField:
    """The shared handle for plain Q (degree one, remembered root 0)."""
    global _RATIONAL_FIELD
    if _RATIONAL_FIELD is None:
        _RATIONAL_FIELD = RealAlgebraicField([0, 1], (-1, 1))
    return _RATIONAL_FIELD


class FieldElement:
    """An element of a RealAlgebraicField, exact and totally ordered."""

    __slots__ = ("field", "coords")

    def __init__(self, field: RealAlgebraicField, coords):
        self.field = field
        self.coords = coords

    # -- coercion -----------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.field is self.field:
                return other
            if self.field.compatible(other.field):
                return FieldElement(self.field, other.coords)
            raise FieldMismatch("operands belong to different fields")
        if isinstance(other, (int, Fraction)):
            return self.field.from_rational(other)
        return None

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElement(
            self.field, tuple(a + b for a, b in zip(self.coords, o.coords))
        )

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElement(
            self.field, tuple(a - b for a, b in zip(self.coords, o.coords))
        )

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return FieldElement(self.field, tuple(-a for a in self.coords))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        f = self.field
        d = f.degree
        if d == 1:
            return FieldElement(f, (self.coords[0] * o.coords[0],))
        conv = [Fraction(0)] * (2 * d - 1)
        for i, x in enumerate(self.coords):
            if x:
                for j, y in enumerate(o.coords):
                    conv[i + j] += x * y
        out = conv[:d]
        for c, power in zip(conv[d:], f._powers):
            if c:
                out = [x + c * t for x, t in zip(out, power)]
        return FieldElement(f, tuple(out))

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        d = self.field.degree
        if d == 1:
            if self.coords[0] == 0:
                raise DivisionByZero("division by zero")
            return FieldElement(self.field, (1 / self.coords[0],))
        if self.is_zero():
            raise DivisionByZero("division by zero")
        one = (1,) + (0,) * (d - 1)
        solution = _eliminate(_multiplication_columns(self), one)[2]
        if solution is None:
            raise DivisionByZero(
                "zero divisor: the element shares a factor with the "
                "defining polynomial"
            )
        return FieldElement(self.field, solution)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        base = self
        if n < 0:
            base = self.inverse()
            n = -n
        acc = self.field.one()
        while n:
            if n & 1:
                acc = acc * base
            base = base * base
            n >>= 1
        return acc

    # -- decisions ----------------------------------------------------------

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    @property
    def is_rational(self) -> bool:
        return self.field.degree == 1 or all(c == 0 for c in self.coords[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise ValueError("element is irrational")
        return self.coords[0]

    def sign(self) -> int:
        f = self.field
        if f._quadratic is not None:
            return _quadratic_sign(f._quadratic, *self.coords)
        poly = _trim(self.coords)
        if not poly:
            return 0
        if len(poly) == 1:
            return _sign_fraction(poly[0])
        zero_checked = False
        for _ in range(_MAX_REFINEMENTS):
            if f._exact_root is not None:
                return _sign_fraction(_peval(poly, f._exact_root))
            v_lo, v_hi = _interval_eval(poly, f._lo, f._hi)
            if v_lo > 0:
                return 1
            if v_hi < 0:
                return -1
            if not zero_checked:
                # The bound straddles zero.  A symbolic zero at the chosen
                # root is possible only when the defining polynomial is
                # reducible and the element hits a factor of it.
                zero_checked = True
                g = _pgcd(poly, f.minpoly.fractions())
                if len(g) > 1 and _count_roots_open(_sturm_chain(g), f._lo, f._hi) >= 1:
                    return 0
            f.refine_root()
        raise BoundExceeded("sign determination did not converge")

    # -- order and equality -------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.field.from_rational(other)
        if not isinstance(other, FieldElement):
            return NotImplemented
        if other.field is not self.field and not self.field.compatible(other.field):
            return False
        return _trim(self.coords) == _trim(other.coords)

    def __hash__(self):
        key = _trim(self.coords)
        if len(key) <= 1:
            return hash(key)
        return hash((key, self.field.minpoly.coefficients))

    def _cmp(self, other) -> int:
        o = self._coerce(other)
        if o is None:
            raise TypeError(f"cannot compare FieldElement with {type(other)}")
        return (self - o).sign()

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    # -- presentation -------------------------------------------------------

    def __repr__(self):
        return f"FieldElement({self})"

    def __str__(self):
        if self.is_rational:
            return str(self.coords[0] if self.coords else Fraction(0))
        terms = []
        for i, c in enumerate(self.coords):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                var = "a" if i == 1 else f"a^{i}"
                if c == 1:
                    mag = var
                elif c == -1:
                    mag = f"-{var}"
                else:
                    mag = f"{c}*{var}"
                terms.append(mag)
        out = terms[0]
        for t in terms[1:]:
            out += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
        return out


def approx(a: FieldElement, eps: Rational):
    """A rational interval of width < eps containing the element's value.

    The interval is computed from the field's construction-time isolating
    interval, so the result depends only on the inputs, never on how much
    refinement earlier comparisons happened to trigger.
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    if a.is_rational:
        v = a.coords[0] if a.coords else Fraction(0)
        return v, v
    f = a.field
    if f._exact_root is not None:
        v = _peval(_trim(a.coords), f._exact_root)
        return v, v
    poly = _trim(a.coords)
    lo, hi = f.initial_interval()
    for _ in range(_MAX_REFINEMENTS):
        v_lo, v_hi = _interval_eval(poly, lo, hi)
        if v_hi - v_lo < eps:
            return v_lo, v_hi
        lo, hi = f._bisect(lo, hi)  # a root hit gives lo == hi, width 0
    raise BoundExceeded("approximation did not converge")
