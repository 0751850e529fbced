"""Exact arithmetic in Q and in real algebraic number fields Q(a).

A field is described by an integer polynomial together with a rational
interval isolating exactly one real root, written `a` below.  An element
is a vector of integer numerators over one positive common denominator,
in the power basis 1, a, ..., a^(d-1), kept canonical (the numerators and
the denominator have gcd 1, and zero is 0/1) so that equality and
hashing compare integers (Cohen, GTM 138, 4.2).  Every decision is exact.
Since the denominator is positive, a sign is the sign of the numerator
polynomial at a.  In degree two the root is (-c1 + e*sqrt(D)) / (2*c2)
for a branch e = +-1: a handle finds e by the signs of q*a - p read from
integer squares, and its squarefree test is D != 0, so no Sturm chain is
built.  Degree-two signs come from the same closed form.  Higher degrees
bound the value over the isolating interval, test for a symbolic zero by
a gcd only when that bound straddles zero, and bisect the interval until
the bound excludes zero.  Every bisection, in any degree, evaluates the
defining polynomial f once at the midpoint and compares the sign with
the one f has between the root and the interval's end hi, which the
handle reads at construction from f(hi), or from -f'(hi) when hi is a
root.  Sturm chains run only when a handle of degree three and up is
built and in the zero test under a reducible f.  Every sign decides,
within a number of bisections fixed by the inputs: a nonzero value is
bounded away from zero (root separation; Mahler 1964) and the bound
narrows with the interval.  All of it runs on integers: Horner's scheme
over one denominator of the interval ends, and primitive
pseudo-remainder sequences (Collins and Loos, "Real zeros of
polynomials", 1982) for the gcd, the squarefree test and the Sturm
chain.  No floating point is used anywhere.

`RealAlgebraicField.coerce` is the one rule for which numbers enter a
field handle: every rational lies in every field, and compatible handles
present one field.  Two handles are compatible when their root keys are
equal; a handle fixes its key at construction from the data that locates
its root, so no handle remembers another.  An int, a Fraction, a string
of the documents' grammar `_RATIONAL`, a rational element of any handle
and any element of a compatible handle enter; an irrational element of
another field raises FieldMismatch.  Arithmetic and order coerce their
second operand by it, and equality calls a rejected value unequal, so
equal numbers compare and hash equal across handles.  A float enters
nowhere: coordinates, rationals, polynomial coefficients, interval ends
and operands of arithmetic, order and equality given as floats raise
ValidationError, since a float's binary value is rarely the number meant.
Any other string, and a value that is no number at all, raises
ValidationError where it enters a field.  As an operand, a string or any
other non-number raises ValidationError in order; arithmetic keeps
Python's protocol (TypeError), and equality calls it unequal.

Each degree d has its own closed forms.  In degree one an element is
the rational num[0]/den: sums, products, quotients and comparisons are
integer operations on num[0] and den alone, and one gcd reduces the
result.  From degree two one kernel, `_product`, forms the unreduced
numerators and denominator of a product, and `__mul__` reduces them.
`_affine(s, t, o)` forms s*t + o with one reduction in every degree: over
one denominator in degree one, and by adding o over the kernel's
denominator from degree two, where the operators would reduce twice.
In degree two, for the root a of c2*t^2 + c1*t + c0, a product folds
c2*a^2 = -c1*a - c0 into the two numerator pairs in integers,
(x1 + y1*a)(x2 + y2*a) =
(c2*x1*x2 - c0*y1*y2 + (c2*(x1*y2 + x2*y1) - c1*y1*y2)*a) / c2,
and the inverse and the norm come from the norm form in integers:
(x + y*a)^-1 = (c2*x - c1*y - c2*y*a) / (c2*x^2 - c1*x*y + c0*y^2).
From degree three a product convolves the two numerator vectors and
folds the terms of degree 2d-2 down to d back in, the top one first, by
lead*a^d = -(c0 + c1*a + ... + c_(d-1)*a^(d-1)), multiplying the rest
and the denominator by lead when lead is not 1.  The inverse and the
norm come from the d x d matrix of multiplication by x, whose columns
are x*a^j (j < d): the norm is its determinant, in degree one too, and
the inverse solves it against 1 (Cohen, GTM 138, 4.2).
The matrix is built in integers from num and den, with column j
scaled by den*lead^j, and `_bareiss`, a fraction-free Gauss-Jordan
elimination (Bareiss, Math. Comp. 22 (1968)), solves it in integers.
`_bareiss` is the package's one elimination: module bases, determinants
and exponent lattices reach it as integer rows, never as Fractions.

The defining polynomial must be squarefree but need not be irreducible.
With a reducible polynomial the coordinate arithmetic takes place in a
quotient ring that is only a product of fields; division then fails with
DivisionByZero whenever the divisor shares a factor with the polynomial.
This is a documented limitation, not an error in the caller's data.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cache
from math import gcd, isqrt, lcm
from typing import Sequence, Union

from .errors import (
    BoundExceeded, DivisionByZero, FieldMismatch, MultipleRootsInInterval, NoRootInInterval,
    NotSquarefree, ValidationError,
)

Rational = Union[int, Fraction]

# the only rational strings: Fraction("1e10000000") would take seconds
_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")

# Degree of a defining polynomial.  The squarefree gcd and the Sturm chain
# run on integers: with coefficients in [-9, 9] a field takes 2 ms to
# build at degree 32, 12 ms at 64 and 28 ms at 80 (CPython 3.11, 2-vCPU
# x86-64).  The cap fixes which documents are refused, so it stays.
_MAX_DEGREE = 32


# ---------------------------------------------------------------------------
# dense integer polynomials: coefficient tuples, constant term first


def _trim(coeffs) -> tuple:
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def _prem(a, b):
    """The remainder of the polynomial a on division by the nonzero b, in
    integers: each step multiplies by |lc(b)| and the content is divided
    out, so the result is a positive multiple of the rational remainder."""
    a, lead = list(a), b[-1]
    m, s = abs(lead), 1 if lead > 0 else -1
    while len(a) >= len(b):
        c, k = s * a[-1], len(a) - len(b)
        a = [m * x for x in a]
        for i, y in enumerate(b):
            a[k + i] -= c * y
        a.pop()
        while a and a[-1] == 0:
            a.pop()
    g = gcd(*a)
    return tuple(x // g for x in a)


def _pderiv(a):
    return _trim(i * a[i] for i in range(1, len(a)))


def _peval(a, p: int, q: int) -> int:
    """q^deg(a) * a(p/q) for q > 0, which has the sign of a(p/q)."""
    acc, scale = 0, 1
    for c in reversed(a):
        acc = acc * p + c * scale
        scale *= q
    return acc


def _interval_eval(a, lo: Fraction, hi: Fraction):
    """Horner's scheme for the nonempty polynomial a over [lo, hi], in
    integers: (v_lo, v_hi, scale) with scale > 0, where [v_lo, v_hi] / scale
    is the enclosure that the scheme gives over Q.  The ends are put over
    one denominator q, and the k-th accumulators are kept times q^k."""
    q = lcm(lo.denominator, hi.denominator)
    L = lo.numerator * (q // lo.denominator)
    H = hi.numerator * (q // hi.denominator)
    acc_lo = acc_hi = a[-1]
    scale = 1
    for c in reversed(a[:-1]):
        scale *= q
        p = (acc_lo * L, acc_lo * H, acc_hi * L, acc_hi * H)
        acc_lo = min(p) + c * scale
        acc_hi = max(p) + c * scale
    return acc_lo, acc_hi, scale


def _pgcd(a, b):
    """A gcd of a and b over Q, as an integer polynomial: Euclid by
    primitive pseudo-remainders (Collins and Loos 1982)."""
    a, b = _trim(a), _trim(b)
    while b:
        a, b = b, _prem(a, b)
    return a


def _sturm_chain(f):
    """The Sturm chain of f, each member a positive multiple of the
    rational one, so that every sign is kept."""
    chain = [_trim(f), _pderiv(f)]
    while chain[-1]:
        rem = _prem(chain[-2], chain[-1])
        if not rem:
            break
        chain.append(tuple(-c for c in rem))
    return tuple(chain)


def _variations(values) -> int:
    signs = [v > 0 for v in values if v]
    return sum(x != y for x, y in zip(signs, signs[1:]))


def _variations_at(chain, x: Fraction):
    """The chain's sign variations at x, and whether x is a root of chain[0]."""
    values = [_peval(c, x.numerator, x.denominator) for c in chain]
    return _variations(values), values[0] == 0


def _count_roots_open(chain, lo: Fraction, hi: Fraction) -> int:
    """Number of distinct real roots of chain[0] in the open interval."""
    (at_lo, _), (at_hi, hit) = _variations_at(chain, lo), _variations_at(chain, hi)
    return at_lo - at_hi - hit  # the roots in (lo, hi], less hi when it is one


def _exact(value) -> Fraction:
    """value, an int, a Fraction or a `_RATIONAL` string, as a Fraction; a
    float's binary value is refused (0.1 is 3602879701896397/36028797018963968)."""
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, float):
        raise ValidationError(f"{value!r} is a float; give an int, a Fraction or a 'p/q' string")
    match = _RATIONAL.fullmatch(value) if isinstance(value, str) else None
    if match:
        try:
            return Fraction(int(match[1]), int(match[2] or 1))
        except (ValueError, ZeroDivisionError):  # too many digits, or q = 0
            pass
    raise ValidationError(f"{value!r} is not an int, a Fraction or a 'p/q' string")


def _sign(x: Rational) -> int:
    return (x > 0) - (x < 0)


def _quadratic_sign(quadratic, x: int, y: int) -> int:
    """Sign of x + y*a for integers x, y and the root
    a = (-c1 + e*sqrt(D)) / (2*c2)."""
    c1, c2, e, disc = quadratic
    u = 2 * c2 * x - c1 * y  # 2*c2*(x + y*a) = u + v*sqrt(D)
    v = e * y
    su = (u > 0) - (u < 0)
    sv = (v > 0) - (v < 0)
    if su * sv >= 0:
        return su or sv
    d = u * u - v * v * disc  # zero only when D is a square
    return su if d > 0 else -su if d < 0 else 0


def _quadratic_roots_inside(coefficients, lo: Fraction, hi: Fraction) -> list:
    """The closed forms (c1, c2, e, D) of the roots
    a = (-c1 + e*sqrt(D)) / (2*c2) of c2*t^2 + c1*t + c0, c2 > 0, that lie
    in the open interval (lo, hi); e = -1 is the lower root."""
    c0, c1, c2 = coefficients
    disc = c1 * c1 - 4 * c0 * c2
    if disc < 0:
        return []
    # the sign of q*a - p is the sign of a - p/q
    return [
        root
        for root in ((c1, c2, e, disc) for e in (-1, 1))
        if _quadratic_sign(root, -lo.numerator, lo.denominator) > 0
        and _quadratic_sign(root, -hi.numerator, hi.denominator) < 0
    ]


def _bareiss(rows, n: int):
    """Fraction-free Gauss-Jordan elimination (Bareiss, Math. Comp. 22
    (1968)) of a list of integer rows, in place, pivoting in the first n
    columns on the first nonzero entry at or below the current row.

    Returns (rank, p, det) for the last pivot p (1 when there is none)
    and the determinant det of the first n columns (0 when one has no
    pivot).  Each pivot row ends as p times its reduced row echelon row,
    the rows below the rank are zero in the first n columns, and every
    division is exact, since every entry stays a minor of the input.
    """
    r, p, sign, full = 0, 1, 1, True
    for c in range(n):
        k = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if k is None:
            full = False
            continue
        if k != r:
            rows[r], rows[k] = rows[k], rows[r]
            sign = -sign
        top = rows[r]
        q = top[c]
        for i, row in enumerate(rows):
            if i != r:
                f = row[c]
                if f:
                    rows[i] = [(q * x - f * y) // p for x, y in zip(row, top)]
                else:
                    rows[i] = [q * x // p for x in row]
        p = q
        r += 1
    return r, p, sign * p if full else 0


def _multiplication_columns(x: "FieldElement"):
    """Integer columns den * lead^j * (x*a^j) for j < d, read from x's
    numerators over its denominator den: the matrix of multiplication by
    x on the power basis, its column j scaled by den * lead^j, so that
    its determinant is den^d * lead^(d(d-1)/2) times the norm of x."""
    *low, lead = x.field.minpoly.coefficients
    column = x.num
    columns = [column]
    for _ in range(x.field.degree - 1):
        # lead*a times the column: shift up one place, fold lead*a^d in
        top = column[-1]
        column = tuple(lead * y - top * c for y, c in zip((0,) + column[:-1], low))
        columns.append(column)
    return columns


# ---------------------------------------------------------------------------


class MinimalPolynomial:
    """Integer defining polynomial, constant term first, stored primitive.

    The coefficient vector is normalized so that the coefficients have
    gcd 1 and the leading coefficient is positive.  Squarefreeness is
    verified at construction; irreducibility is not.
    """

    __slots__ = ("coefficients",)

    def __init__(self, coefficients: Sequence[Rational]):
        cs = []
        for c in coefficients:
            f = _exact(c)
            if f.denominator != 1:
                raise ValidationError("minimal polynomial coefficients must be integers")
            cs.append(f.numerator)
        if not cs or cs[-1] == 0:
            raise ValidationError("leading coefficient must be nonzero")
        if len(cs) < 2:
            raise ValidationError("degree must be at least 1")
        if len(cs) - 1 > _MAX_DEGREE:
            raise BoundExceeded(f"a defining polynomial is capped at degree {_MAX_DEGREE}")
        g = gcd(*cs) if cs[-1] > 0 else -gcd(*cs)
        cs = tuple(c // g for c in cs)
        if len(cs) == 3:
            repeated = cs[1] * cs[1] == 4 * cs[0] * cs[2]  # D = 0
        else:
            repeated = len(cs) > 3 and len(_pgcd(cs, _pderiv(cs))) > 1
        if repeated:
            raise NotSquarefree("defining polynomial has a repeated root")
        self.coefficients = cs

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

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

    `compatible` compares root keys fixed at construction: () in degree
    one, the closed form (c1, c2, e, D) of the root in degree two, and
    from degree three the coefficients with the root's index among the
    real roots, the number of them <= the interval's lower end.
    """

    __slots__ = (
        "minpoly",
        "degree",
        "_lo",
        "_hi",
        "_lo0",
        "_hi0",
        "_right",
        "_exact_root",
        "_quadratic",
        "_root",
    )

    def __init__(self, minpoly, root_interval):
        if not isinstance(minpoly, MinimalPolynomial):
            minpoly = MinimalPolynomial(minpoly)
        lo, hi = (_exact(x) for x in root_interval)
        if not lo < hi:
            raise NoRootInInterval("isolating interval is empty")
        self.minpoly = minpoly
        self.degree = minpoly.degree
        self._exact_root = None
        self._quadratic = None
        if self.degree == 1:
            a0, a1 = minpoly.coefficients
            root = Fraction(-a0, a1)
            if not (lo < root < hi):
                raise NoRootInInterval("the rational root is outside the interval")
            self._exact_root = root
            lo = hi = root
            self._root = ()  # every degree-one handle presents Q
        else:
            if self.degree == 2:
                # located in closed form; no Sturm chain is built
                roots = _quadratic_roots_inside(minpoly.coefficients, lo, hi)
                n, self._quadratic = len(roots), roots[0] if roots else None
                self._root = self._quadratic
            else:
                chain = _sturm_chain(minpoly.coefficients)
                n = _count_roots_open(chain, lo, hi)
                # the root's index: the roots <= lo, the variations at -inf less those at lo
                at_minus_inf = _variations([c[-1] if len(c) % 2 else -c[-1] for c in chain])
                self._root = (minpoly.coefficients, at_minus_inf - _variations_at(chain, lo)[0])
            if n == 0:
                raise NoRootInInterval("no root inside the interval")
            if n > 1:
                raise MultipleRootsInInterval(f"{n} roots inside the interval")
            # the sign of f between the root and hi: of f(hi), or of -f'(hi) at a root hi
            f, p, q = minpoly.coefficients, hi.numerator, hi.denominator
            self._right = _sign(_peval(f, p, q) or -_peval(_pderiv(f), p, q))
        self._lo = self._lo0 = lo
        self._hi = self._hi0 = hi

    # -- root bookkeeping ---------------------------------------------------

    def root_interval(self):
        return self._lo, self._hi

    def initial_interval(self):
        return self._lo0, self._hi0

    def _bisect(self, lo: Fraction, hi: Fraction):
        """One bisection step keeping the root, by the rule in the module
        docstring; degenerate when it is hit."""
        mid = (lo + hi) / 2
        v = _peval(self.minpoly.coefficients, mid.numerator, mid.denominator)
        if v == 0:
            return mid, mid
        return (lo, mid) if _sign(v) == self._right else (mid, hi)

    def refine_root(self) -> None:
        if self._exact_root is not None:
            return
        lo, hi = self._bisect(self._lo, self._hi)
        if lo == hi:
            self._exact_root = lo
        self._lo, self._hi = lo, hi

    # -- element construction ----------------------------------------------

    def element(self, coords) -> "FieldElement":
        cs = [_exact(c) for c in coords]
        if len(cs) > self.degree:
            raise ValidationError(f"coordinate vector longer than degree {self.degree}")
        den = lcm(*(c.denominator for c in cs))
        num = [c.numerator * (den // c.denominator) for c in cs]
        return _normalized(self, tuple(num) + (0,) * (self.degree - len(cs)), den)

    def from_rational(self, value: Rational) -> "FieldElement":
        q = _exact(value)
        zeros = (0,) * (self.degree - 1)
        return FieldElement(self, (q.numerator,) + zeros, q.denominator)

    def coerce(self, x) -> "FieldElement":
        """x as an element of this handle, by the rule in the module
        docstring; ValidationError for a value that is not a number."""
        if isinstance(x, FieldElement):
            if x.field is self:
                return x
            if x.is_rational:
                return FieldElement(self, x.num[:1] + (0,) * (self.degree - 1), x.den)
            if self.compatible(x.field):
                return FieldElement(self, x.num, x.den)
            raise FieldMismatch(f"{x} lies in {x.field!r}, not in {self!r}")
        if not isinstance(x, (int, Fraction, float, str)):
            raise ValidationError(f"{type(x).__name__} is not a number")
        return self.from_rational(x)  # `_exact` refuses floats and non-'p/q' strings

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
        """True when both handles present the same subfield of R: their
        root keys, fixed at construction, are equal."""
        return self._root == other._root

    def __repr__(self):
        if self.degree == 1:
            return f"RealAlgebraicField(Q, a={self._exact_root})"
        return (
            f"RealAlgebraicField({list(self.minpoly.coefficients)}, "
            f"({self._lo0}, {self._hi0}))"
        )


@cache
def rational_field() -> RealAlgebraicField:
    """The shared handle for plain Q (degree one, remembered root 0)."""
    return RealAlgebraicField([0, 1], (-1, 1))


def _numerator_sign(f: RealAlgebraicField, num: tuple) -> int:
    """Sign of sum(num[i] * a^i): the sign of every element with these
    integer numerators."""
    if f._quadratic is not None:
        return _quadratic_sign(f._quadratic, *num)
    poly = _trim(num)
    if not poly:
        return 0
    zero_checked = False
    while True:
        root = f._exact_root
        if root is not None:
            return _sign(_peval(poly, root.numerator, root.denominator))
        v_lo, v_hi, _ = _interval_eval(poly, f._lo, f._hi)
        if v_lo > 0:
            return 1
        if v_hi < 0:
            return -1
        if not zero_checked:
            # The bound straddles zero.  A symbolic zero at the chosen
            # root is possible only when the defining polynomial is
            # reducible and the element hits a factor of it.
            zero_checked = True
            g = _pgcd(poly, f.minpoly.coefficients)
            if len(g) > 1 and _count_roots_open(_sturm_chain(g), f._lo, f._hi) >= 1:
                return 0
        f.refine_root()


def _norm_form(field: RealAlgebraicField, x: int, y: int) -> int:
    """c2*x^2 - c1*x*y + c0*y^2, which is c2 times the norm of x + y*a in a
    quadratic field with defining polynomial c2*t^2 + c1*t + c0."""
    c0, c1, c2 = field.minpoly.coefficients
    return c2 * x * x - c1 * x * y + c0 * y * y


def _normalized(field: RealAlgebraicField, num: tuple, den: int) -> "FieldElement":
    """The element num/den for a positive den, in canonical form."""
    g = gcd(den, *num)
    if g != 1:
        num = tuple([x // g for x in num])
        den //= g
    return FieldElement(field, num, den)


def _ratio(field: RealAlgebraicField, x: int, den: int) -> "FieldElement":
    """The degree-one element x/den for a positive den, in canonical form."""
    g = gcd(x, den)
    return FieldElement(field, (x // g,), den // g)


def _product(f: RealAlgebraicField, x: "FieldElement", y: "FieldElement"):
    """The unreduced (num, den) of x*y for elements x, y of a handle f of
    degree two or more, by the folds in the module docstring."""
    d = f.degree
    if d == 2:
        # fold c2*a^2 = -c1*a - c0 into (x1 + y1*a)(x2 + y2*a) in integers
        (x1, y1), (x2, y2) = x.num, y.num
        c0, c1, c2 = f.minpoly.coefficients
        yy = y1 * y2
        if c2 == 1:
            return (x1 * x2 - c0 * yy, x1 * y2 + x2 * y1 - c1 * yy), x.den * y.den
        return (c2 * x1 * x2 - c0 * yy, c2 * (x1 * y2 + x2 * y1) - c1 * yy), c2 * x.den * y.den
    conv = [0] * (2 * d - 1)
    for i, a in enumerate(x.num):
        if a:
            for j, b in enumerate(y.num, i):
                conv[j] += a * b
    den = x.den * y.den
    # fold the top term c*a^k back in by lead*a^d = -(c0 + ... + c_(d-1)*a^(d-1))
    *low, lead = f.minpoly.coefficients
    for k in range(2 * d - 2, d - 1, -1):
        c = conv.pop()
        if c:
            if lead != 1:
                conv = [lead * a for a in conv]
                den *= lead
            for i, t in enumerate(low, k - d):
                conv[i] -= c * t
    return tuple(conv), den


def _affine(s: "FieldElement", t, o) -> "FieldElement":
    """s*t + o, reduced once when t and o are elements of s's handle: over
    one denominator in degree one, and from degree two by adding o over the
    denominator of `_product`; otherwise s * t + o through the operators."""
    f = s.field
    if t.__class__ is o.__class__ is FieldElement and t.field is o.field is f:
        if f.degree == 1:
            st, do = s.den * t.den, o.den
            return _ratio(f, s.num[0] * t.num[0] * do + o.num[0] * st, st * do)
        num, st = _product(f, s, t)
        do = o.den
        return _normalized(f, tuple([x * do + y * st for x, y in zip(num, o.num)]), st * do)
    return s * t + o


def _power(x, n: int, one):
    """x**n, squaring and multiplying from the identity one, after
    inverting x when n < 0; the last square is never formed.  A float n
    raises ValidationError, and any other non-int gives NotImplemented."""
    if not isinstance(n, int):
        if isinstance(n, float):
            raise ValidationError(f"the exponent {n!r} is a float, not an int")
        return NotImplemented
    base, n, acc = x if n >= 0 else x.inverse(), abs(n), one
    while n:
        if n & 1:
            acc = acc * base
        n >>= 1
        if n:
            base = base * base
    return acc


class FieldElement:
    """An element of a RealAlgebraicField, exact and totally ordered.

    The value is sum(num[i] * a^i) / den with integer numerators and a
    positive integer denominator of gcd 1 with them; `field.element`
    builds one from rational coordinates.
    """

    __slots__ = ("field", "num", "den")

    def __init__(self, field: RealAlgebraicField, num: tuple, den: int):
        self.field = field
        self.num = num
        self.den = den

    @property
    def coords(self) -> tuple:
        """The rational coordinates over the power basis."""
        den = self.den
        return tuple(Fraction(x, den) for x in self.num)

    # -- coercion -----------------------------------------------------------

    def _coerce(self, other):
        """other in this element's handle, or None when it is not a number;
        `coerce` refuses a float with ValidationError."""
        if isinstance(other, (FieldElement, int, Fraction, float)):
            return self.field.coerce(other)
        return None

    # -- ring operations ----------------------------------------------------

    def __add__(self, o):
        f = self.field
        if o.__class__ is not FieldElement or o.field is not f:
            o = self._coerce(o)
            if o is None:
                return NotImplemented
        dx, dy = self.den, o.den
        if f.degree == 1:
            return _ratio(f, self.num[0] * dy + o.num[0] * dx, dx * dy)
        num = tuple(x * dy + y * dx for x, y in zip(self.num, o.num))
        return _normalized(f, num, dx * dy)

    __radd__ = __add__

    def __sub__(self, o):
        f = self.field
        if o.__class__ is not FieldElement or o.field is not f:
            o = self._coerce(o)
            if o is None:
                return NotImplemented
        dx, dy = self.den, o.den
        if f.degree == 1:
            return _ratio(f, self.num[0] * dy - o.num[0] * dx, dx * dy)
        num = tuple(x * dy - y * dx for x, y in zip(self.num, o.num))
        return _normalized(f, num, dx * dy)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return FieldElement(self.field, tuple(-x for x in self.num), self.den)

    def __mul__(self, o):
        f = self.field
        if o.__class__ is not FieldElement or o.field is not f:
            o = self._coerce(o)
            if o is None:
                return NotImplemented
        if f.degree == 1:
            return _ratio(f, self.num[0] * o.num[0], self.den * o.den)
        num, den = _product(f, self, o)
        return _normalized(f, num, den)

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        if self.is_zero():
            raise DivisionByZero("division by zero")
        f = self.field
        if f.degree == 1:
            x = self.num[0]
            return FieldElement(f, (self.den if x > 0 else -self.den,), abs(x))
        if f.degree == 2:
            # den / (x + y*a) = den*c2*(x + y*a') / n, a' = -c1/c2 - a the conjugate
            (x, y), (_, c1, c2) = self.num, f.minpoly.coefficients
            n = _norm_form(f, x, y)
            if n:
                s = self.den if n > 0 else -self.den
                return _normalized(f, (s * (c2 * x - c1 * y), -s * c2 * y), abs(n))
        else:
            # x^-1 = den * sum_j y_j * (lead*a)^j for the solution y of
            # sum_j y_j * columns[j] = 1, and y_j = rows[j][d] / p
            d, lead = f.degree, f.minpoly.coefficients[-1]
            columns = _multiplication_columns(self)
            rows = [[*row, int(i == 0)] for i, row in enumerate(zip(*columns))]
            rank, p, _ = _bareiss(rows, d)
            if rank == d:
                s = self.den if p > 0 else -self.den
                num = tuple(s * row[d] * lead**j for j, row in enumerate(rows))
                return _normalized(f, num, abs(p))
        raise DivisionByZero(
            "zero divisor: the element shares a factor with the defining polynomial"
        )

    def norm(self) -> Fraction:
        """The field norm: the determinant of multiplication by the element."""
        f = self.field
        if f.degree == 2:
            return Fraction(_norm_form(f, *self.num), f.minpoly.coefficients[2] * self.den**2)
        d, lead = f.degree, f.minpoly.coefficients[-1]
        det = _bareiss([list(row) for row in zip(*_multiplication_columns(self))], d)[2]
        return Fraction(det, self.den**d * lead ** (d * (d - 1) // 2))

    def __truediv__(self, o):
        f = self.field
        if o.__class__ is not FieldElement or o.field is not f:
            o = self._coerce(o)
            if o is None:
                return NotImplemented
        if f.degree == 1 and o.num[0]:
            x, y = self.num[0] * o.den, self.den * o.num[0]
            return _ratio(f, x, y) if y > 0 else _ratio(f, -x, -y)
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n: int):
        return _power(self, n, self.field.one())

    # -- decisions ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.num)

    @property
    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise ValidationError("element is irrational")
        return Fraction(self.num[0], self.den)

    def sign(self) -> int:
        return _numerator_sign(self.field, self.num)

    # -- order and equality -------------------------------------------------

    def __eq__(self, o):
        if o.__class__ is not FieldElement or o.field is not self.field:
            try:
                o = self._coerce(o)
            except FieldMismatch:
                return False  # an irrational of another field
            if o is None:
                return NotImplemented
        return self.den == o.den and self.num == o.num

    def __hash__(self):
        # a rational equals its Fraction, and so its int when den is 1
        if self.is_rational:
            return hash(Fraction(self.num[0], self.den))
        return hash((self.num, self.den))

    def _cmp(self, other) -> int:
        f, o = self.field, other
        if o.__class__ is not FieldElement or o.field is not f:
            o = self._coerce(other)
            if o is None:
                raise ValidationError(f"{type(other).__name__} is not a number")
        dx, dy = self.den, o.den  # the sign of the difference's numerator
        if f.degree == 1:
            return _sign(self.num[0] * dy - o.num[0] * dx)
        return _numerator_sign(f, tuple(x * dy - y * dx for x, y in zip(self.num, o.num)))

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
            return str(self.as_fraction())
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

    In degree two the interval comes from the closed form of the root and
    an integer square root; in every other degree from bisecting the
    field's construction-time isolating interval.  Either way the result depends
    only on the inputs, never on how much refinement earlier comparisons
    happened to trigger.
    """
    eps = _exact(eps)
    if eps <= 0:
        raise ValidationError(f"eps must be positive, not {eps}")
    f = a.field
    if f._quadratic is not None:
        return _quadratic_approx(f._quadratic, *a.num, a.den, eps)
    poly = _trim(a.num) or (0,)  # the value is poly(a) / den
    lo, hi = f.initial_interval()
    while True:
        v_lo, v_hi, scale = _interval_eval(poly, lo, hi)
        scale *= a.den  # the value lies in [v_lo, v_hi] / scale
        if (v_hi - v_lo) * eps.denominator < eps.numerator * scale:
            return Fraction(v_lo, scale), Fraction(v_hi, scale)
        lo, hi = f._bisect(lo, hi)  # a root hit gives lo == hi, width 0


def _quadratic_approx(quadratic, x: int, y: int, den: int, eps: Fraction):
    """approx for (x + y*a) / den and the root
    a = (-c1 + e*sqrt(D)) / (2*c2): the value is (u + v*sqrt(D)) / w."""
    c1, c2, e, disc = quadratic
    u, v, w = 2 * c2 * x - c1 * y, e * y, 2 * c2 * den
    # sqrt(D) lies in [s, s + 1] / 2^k for s = isqrt(D * 4^k), which gives
    # the value to within |v| / (w * 2^k) < eps
    k = (abs(v) * eps.denominator // (w * eps.numerator)).bit_length()
    s = isqrt(disc << 2 * k)
    high = s if s * s == disc << 2 * k else s + 1  # a square D is exact
    ends = [Fraction((u << k) + v * r, w << k) for r in (s, high)]
    return min(ends), max(ends)
