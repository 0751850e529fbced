"""Exact integer matrices, Hermite and Smith normal forms, finitely
generated abelian groups presented by them, and the primes of integers.

Entries are arbitrary precision Python ints.  The Hermite normal form
is the one unimodular elimination: its pivot is the entry of smallest
nonzero absolute value in the column, ties broken by the lowest row,
which makes it deterministic.  It follows the convention of
`numbers._bareiss`, the package's one fraction-free elimination:
`_hermite(rows, n)` pivots in the first n columns of a list of rows, and
a transform rides along as the columns past n, so a caller that never
reads it appends none.  The Smith normal form is built from Hermite
forms of [M | U] and of [M^T | V^T].  Determinants come from `_bareiss`.
Every entry is an int, and rational vectors are integer numerators over
one positive denominator, so no Fraction is built here.
"""

from __future__ import annotations

from math import gcd
from typing import Iterable, Sequence

from .errors import BoundExceeded, ValidationError
from .numbers import _bareiss


def _integer(x) -> int:
    """x itself when it is an int; ValidationError for any other value,
    so that a Fraction or a float is never truncated and a bool is never
    read as 0 or 1."""
    if not isinstance(x, int) or isinstance(x, bool):
        raise ValidationError(f"{x!r} is not an integer")
    return x


class IntMatrix:
    """Immutable integer matrix, row major."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Sequence[Sequence[int]]):
        rows = tuple(tuple(map(_integer, row)) for row in entries)
        if not rows:
            raise ValidationError("matrix needs at least one row")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ValidationError("ragged rows")
        if width == 0:
            raise ValidationError("matrix needs at least one column")
        self.entries = rows
        self.rows = len(rows)
        self.cols = width

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def __eq__(self, other):
        return isinstance(other, IntMatrix) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"IntMatrix({[list(r) for r in self.entries]})"

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != _matrix(other).rows:
            raise ValidationError("dimension mismatch in product")
        cols = list(zip(*other.entries))
        return IntMatrix(
            [
                [sum(a * b for a, b in zip(row, col)) for col in cols]
                for row in self.entries
            ]
        )

    def transpose(self) -> "IntMatrix":
        return IntMatrix(list(zip(*self.entries)))

    def diagonal(self) -> tuple:
        return tuple(self.entries[i][i] for i in range(min(self.rows, self.cols)))

    def det(self) -> int:
        """Determinant, by fraction-free (Bareiss) elimination."""
        if self.rows != self.cols:
            raise ValidationError("determinant of a non-square matrix")
        return _bareiss([list(row) for row in self.entries], self.cols)[2]


def _matrix(A) -> IntMatrix:
    """A itself when it is an IntMatrix; ValidationError otherwise."""
    if not isinstance(A, IntMatrix):
        raise ValidationError(f"{A!r} is not an IntMatrix")
    return A


# ---------------------------------------------------------------------------
# normal forms


def _hermite(rows, n: int) -> None:
    """Bring the first n columns of a list of integer rows to row Hermite
    normal form in place; every column past n rides along, so a transform
    kept there records the row operations, as in `_bareiss`."""
    r = 0
    for c in range(n):
        if r == len(rows):
            break
        while True:
            nz = [i for i in range(r, len(rows)) if rows[i][c]]
            if not nz:
                break
            best = min(nz, key=lambda i: (abs(rows[i][c]), i))
            rows[r], rows[best] = rows[best], rows[r]
            top = rows[r]
            if top[c] < 0:
                top = rows[r] = [-x for x in top]
            clean = True
            for i in range(r + 1, len(rows)):
                q = rows[i][c] // top[c]
                if q:
                    rows[i] = [x - q * y for x, y in zip(rows[i], top)]
                clean = clean and not rows[i][c]
            if clean:
                break
        if rows[r][c]:
            top = rows[r]
            for i in range(r):
                q = rows[i][c] // top[c]
                if q:
                    rows[i] = [x - q * y for x, y in zip(rows[i], top)]
            r += 1


def _augmented(entries):
    """[A | I] for the rows of A."""
    return [[*row, *(int(i == j) for j in range(len(entries)))] for i, row in enumerate(entries)]


def hermite_normal_form(A: IntMatrix):
    """Row-style Hermite normal form.

    Returns (H, U) with H = U @ A, U unimodular, H in row echelon form
    with positive pivots and the entries above each pivot reduced into
    [0, pivot).
    """
    rows = _augmented(_matrix(A).entries)
    _hermite(rows, A.cols)
    return IntMatrix([r[: A.cols] for r in rows]), IntMatrix([r[A.cols :] for r in rows])


def _smith(A: IntMatrix, vt):
    """(D, U, V^T) as row lists with D = U @ A @ V, for Smith's diagonal D.

    Hermite forms of [M | U] and of [M^T | V^T] alternate until M is
    diagonal (Kannan and Bachem, SIAM J. Comput. 8 (1979)); vt holds the
    starting rows of V^T, one per column of A, and may have width zero.
    When a diagonal entry does not divide a later one, the later column
    is added to its column and the alternation resumes; adding the row
    instead would be undone by the next row pass.  The loop stops because
    the first diagonal entry that is not yet final only ever moves to a
    proper divisor of itself: a pass replaces it by the gcd of its column
    or row, and a column addition by its gcd with the later entry.
    """
    m, n, limit = A.rows, A.cols, min(A.rows, A.cols)
    rows = _augmented(A.entries)
    while True:
        _hermite(rows, n)
        # zip stops at the shorter side: columns of M only, rows of M^T only
        t = [[*col, *v] for col, v in zip(zip(*rows), vt)]
        _hermite(t, m)
        rows = [[*col, *row[n:]] for col, row in zip(zip(*t), rows)]
        vt = [row[m:] for row in t]
        if any(x for i, row in enumerate(rows) for j, x in enumerate(row[:n]) if i != j):
            continue
        d = [rows[k][k] for k in range(limit)]
        pairs = ((i, j) for i in range(limit) for j in range(i + 1, limit))
        split = next(((i, j) for i, j in pairs if d[i] and d[j] % d[i]), None)
        if split is None:
            return [row[:n] for row in rows], [row[n:] for row in rows], vt
        i, j = split
        rows[j][i] = d[j]  # add column j to column i
        vt[i] = [x + y for x, y in zip(vt[i], vt[j])]


def smith_normal_form(A: IntMatrix):
    """Smith normal form.

    Returns (D, U, V) with D = U @ A @ V, U and V unimodular, D diagonal
    with nonnegative entries forming a divisibility chain d1 | d2 | ...
    """
    d, u, vt = _smith(A, IntMatrix.identity(_matrix(A).cols).entries)
    return IntMatrix(d), IntMatrix(u), IntMatrix(list(zip(*vt)))


# ---------------------------------------------------------------------------
# primes

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# Miller-Rabin with the bases above decides every n below this bound
# (Sorenson and Webster, Math. Comp. 86 (2017)).
_MILLER_RABIN_EXACT = 3_317_044_064_679_887_385_961_981
# Pollard rho steps one factor() call may take: about 0.04 s with
# Python 3.11 on a 2-vCPU VM, enough to split off any prime below 1e8.
_RHO_STEPS = 1 << 16
_RHO_BATCH = 64


def is_prime(n: int) -> bool:
    """Exact primality test.

    Trial division by the primes up to 41, then Miller-Rabin with those
    bases.  "Composite" is always exact; a probable prime is certified
    below 3.3e24, where the bases are deterministic, and raises
    BoundExceeded above.
    """
    if _integer(n) < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    if n < 43 * 43:
        return True
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= _MILLER_RABIN_EXACT:
        raise BoundExceeded(f"cannot certify that {n} is prime")
    return True


def _split(n: int, budget: int):
    """(d, budget left) with d a proper divisor of the odd composite n,
    by Brent's variant of Pollard rho."""
    c = 0
    while True:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            budget -= 2 * r
            if budget < 0:
                raise BoundExceeded(f"cannot factor {n} within the step budget")
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(_RHO_BATCH, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = gcd(q, n)
                k += _RHO_BATCH
            r *= 2
        if g == n:
            # the batch overshot: step through it one gcd at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if g != n:
            return g, budget


def factor(n: int) -> dict:
    """Prime factorization {p: e} of a positive integer.

    Trial division by the small primes, then Pollard rho under a fixed
    step budget; BoundExceeded when a cofactor can be neither split nor
    certified prime.
    """
    if _integer(n) < 1:
        raise ValidationError("only positive integers have a factorization")
    out = {}
    for p in _SMALL_PRIMES:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    budget = _RHO_STEPS
    pending = [n] if n > 1 else []
    while pending:
        m = pending.pop()
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
        else:
            d, budget = _split(m, budget)
            pending += [d, m // d]
    return dict(sorted(out.items()))


def _strip_primes(d: int, primes) -> int:
    """d with every prime of primes divided out: 1 exactly when the
    positive integer d is a product of those primes."""
    for p in primes:
        while d % p == 0:
            d //= p
    return d


# ---------------------------------------------------------------------------
# abelian groups presented as cokernels


class AbelianInvariants:
    """A finitely generated abelian group in invariant factor form, as a
    quotient of an ambient Z^width.

    Only the rows of the Smith transform U that `reduce` reads are kept:
    `torsion` pairs a row with its invariant factor, the factors >= 2 in
    a divisibility chain, and `free` holds the rows whose diagonal entry
    is 0.  A row whose factor is 1 names a trivial summand and is dropped.
    """

    __slots__ = ("width", "torsion", "free")

    def __init__(self, width: int, torsion, free):
        self.width = width
        self.torsion = tuple((tuple(row), d) for row, d in torsion)
        self.free = tuple(tuple(row) for row in free)
        factors = self.invariant_factors
        if any(d < 2 for d in factors) or any(b % a for a, b in zip(factors, factors[1:])):
            raise ValidationError("invariant factors must be at least 2 and form a chain")

    @property
    def invariant_factors(self) -> tuple:
        return tuple(d for _, d in self.torsion)

    @property
    def free_rank(self) -> int:
        return len(self.free)

    def same_group(self, other: "AbelianInvariants") -> bool:
        return self.invariant_factors == other.invariant_factors and self.free_rank == other.free_rank

    def is_trivial(self) -> bool:
        return not self.torsion and not self.free

    def describe(self) -> str:
        parts = [f"Z/{d}" for d in self.invariant_factors]
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        return " x ".join(parts) if parts else "trivial"

    def reduce(self, nums, den: int = 1):
        """Residues of the ambient coordinate vector nums/den, for integer
        numerators nums and a positive integer den.

        Returns (torsion, free): residues modulo each invariant factor and
        the numerators over den of the free coordinates.  A torsion
        coordinate's reduced denominator must be invertible modulo its
        factor.
        """
        nums = tuple(map(_integer, nums))
        if len(nums) != self.width:
            raise ValidationError("coordinate vector has the wrong length")
        if _integer(den) < 1:
            raise ValidationError(f"denominator {den} is not positive")
        torsion = []
        for row, d in self.torsion:
            y = sum(a * x for a, x in zip(row, nums))
            g = gcd(y, den)
            y, y_den = y // g, den // g
            if gcd(y_den, d) != 1:
                raise ValidationError(f"denominator {y_den} is not invertible modulo {d}")
            torsion.append(y * pow(y_den, -1, d) % d)
        return tuple(torsion), tuple(sum(a * x for a, x in zip(row, nums)) for row in self.free)

    def __repr__(self):
        return f"AbelianInvariants({self.describe()!r})"


def cokernel_invariants(A: IntMatrix) -> AbelianInvariants:
    """Invariants of Z^rows / (column span of A)."""
    # the column operations are never read, so V^T has width zero
    dm, u, _ = _smith(A, [()] * _matrix(A).cols)
    diag = [dm[k][k] if k < A.cols else 0 for k in range(A.rows)]
    torsion = [(row, d) for row, d in zip(u, diag) if d >= 2]
    return AbelianInvariants(A.rows, torsion, [row for row, d in zip(u, diag) if d == 0])


def localize_factors(inv: AbelianInvariants, primes: Iterable[int]) -> AbelianInvariants:
    """Kill the p-parts of the torsion for each inverted prime p.

    This is the invariant-factor effect of tensoring with Z[1/m]: each
    factor loses its inverted primes, and a pair whose factor reaches 1
    is dropped.  It is idempotent and leaves the free rows alone.
    """
    primes = sorted(set(map(_integer, primes)))
    for p in primes:
        if not is_prime(p):
            raise ValidationError(f"{p} is not prime")
    stripped = ((row, _strip_primes(d, primes)) for row, d in inv.torsion)
    return AbelianInvariants(inv.width, [(row, d) for row, d in stripped if d >= 2], inv.free)
