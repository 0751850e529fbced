"""Isomorphism invariants and three-valued verdicts for triples.

The rank-two-and-up pipeline compares slope groups, compares coinvariant
quotients, finds a module scale factor (forced by the endpoints when the
slope group is trivial, searched for otherwise), and finally walks the
endpoint class through its stabilizer orbit in the coinvariant quotient.
Rank-one modules fall outside that criterion; they run an obstruction
battery instead (a rescaling, whose scalar the endpoints force,
slope-group rank, coinvariants, an order-preserving embedding, and the
base-n closed form) and otherwise report Unknown.  Both pipelines share
one coinvariant comparison and one test of the forced scalar, and one
determinant, in `modules._carries`, decides whether a scalar carries one
module onto the other.  Every search and walk is bounded, and a decided
verdict carries an exact certificate.  The walk steps by the exact unit
of the module's multiplier ring and by the inverted primes; only in
degree two without inverted primes do these span the stabilizer, and
only there does a closed orbit give NotIsomorphic.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import NamedTuple, Optional

from .errors import BoundExceeded, UnsupportedGamma, ValidationError
from .intlinalg import (
    AbelianInvariants,
    IntMatrix,
    _integer,
    cokernel_invariants,
    factor,
    localize_factors,
)
from .modules import (
    DEFAULT_SEARCH_BOUND,
    BreakpointModule,
    SlopeGroup,
    SteinTriple,
    _carries,
    scale_equivalence,
    thompson_base,
)
from .numbers import FieldElement, _bareiss

# Partial quotients allowed in one period: no D below 2*10^5 needs more
# than 951, and longer periods (documents of a few dozen bytes) take seconds.
_UNIT_STEPS = 1000

# Powers of a larger order's unit tried for the unit of its suborder of
# conductor g; the least power that lies in the suborder is at most
# g*prod(1 + 1/p) over the primes p | g, and each try costs a few
# operations on integers below g.
_UNIT_POWERS = 10_000

# Coinvariant classes one endpoint walk may visit; spending them all takes
# about 0.4 s in CPython 3.11 with two inverted primes (six generators).
_ORBIT_STATES = 500


class Verdict(NamedTuple):
    """Three-valued answer with evidence.

    Isomorphic carries a witness dict (always the scalar under "s" when
    one exists), NotIsomorphic an obstruction string, Unknown a reason.
    """

    outcome: str
    witness: Optional[dict] = None
    obstruction: Optional[str] = None
    reason: Optional[str] = None

    @property
    def is_isomorphic(self) -> bool:
        return self.outcome == "Isomorphic"

    @property
    def is_not_isomorphic(self) -> bool:
        return self.outcome == "NotIsomorphic"

    @property
    def is_unknown(self) -> bool:
        return self.outcome == "Unknown"

    def describe(self) -> str:
        if self.outcome == "Isomorphic":
            s = (self.witness or {}).get("s")
            return f"Isomorphic (s={s})" if s is not None else "Isomorphic"
        if self.outcome == "NotIsomorphic":
            return f"NotIsomorphic: {self.obstruction}"
        return f"Unknown: {self.reason}"


# ---------------------------------------------------------------------------
# coinvariants


def coinvariants(triple: SteinTriple) -> AbelianInvariants:
    """Quotient of the module by all elements t - mu*t, mu a slope generator.

    Reads the slope action the triple built and checked: the columns
    (nums, den) of mu*b_j per generator.  Stacks the columns of
    (I - M_mu), each scaled to integers by its denominator (harmless: a
    product of inverted primes), so column j is den*e_j - nums; takes the
    integer cokernel, and localizes.
    """
    module = triple.module
    columns = [
        [den * (i == j) - x for i, x in enumerate(nums)]
        for matrix in triple.action
        for j, (nums, den) in enumerate(matrix)
    ]
    if not columns:
        if module.inverted_primes:
            raise UnsupportedGamma(
                "coinvariants of a localized module need slope generators"
            )
        columns = [[0] * module.rank()]
    inv = cokernel_invariants(IntMatrix(list(zip(*columns))))
    return localize_factors(inv, module.inverted_primes)


def class_of(t, inv: AbelianInvariants, module: BreakpointModule) -> tuple:
    """Residue vector of a module point in the coinvariant quotient:
    torsion residues followed by free coordinates."""
    coords = module.coordinates(t)
    if not module._in_module(coords):
        raise ValidationError(f"{t} is not a module point")
    torsion, free = inv.reduce(*coords)
    return torsion + tuple(Fraction(x, coords[1]) for x in free)


# ---------------------------------------------------------------------------
# the stabilizer orbit for the endpoint test


def _fundamental_unit(module: BreakpointModule) -> Optional[FieldElement]:
    """Fundamental unit of the multiplier ring of a rank-two module
    Z[1/S]*b1*(Z + Z*t) in a real quadratic field, exactly, where t = b2/b1
    is a root of the primitive c2*x^2 + c1*x + c0, of discriminant D, and S
    are the inverted primes.  That ring is Z[1/S] times the order of
    discriminant D' = D/f^2, f the largest product of primes in S with D/f^2
    still a discriminant (0 or 1 mod 4).  When the period of D' passes
    _UNIT_STEPS, the factorization of D' gives the largest g with D'/g^2
    still a discriminant, and the unit is the least power of the unit of
    the order of D'/g^2 that lies in the order of D'.  None in other
    degrees and ranks, for square D, and when the period, the
    factorization or _UNIT_POWERS runs out."""
    if module.field.degree != 2 or module.rank() != 2:
        return None
    t = module.basis[1] / module.basis[0]
    norm = t.norm()
    trace = (t + 1).norm() - norm - 1  # N(t + 1) = N(t) + Tr(t) + 1
    c2 = math.lcm(trace.denominator, norm.denominator)  # c1 = -c2*trace, c0 = c2*norm
    disc = int(c2 * c2 * (trace * trace - 4 * norm))
    root = c2 * (2 * t - trace)  # +-sqrt D
    root = root if root.sign() > 0 else -root
    disc, f = _divide_squares(disc, module.inverted_primes)  # D -> D'
    if math.isqrt(disc) ** 2 == disc:
        return None
    unit, g, k = _order_unit(disc), 1, 1
    if unit is None:
        try:
            disc, g = _divide_squares(disc, factor(disc))
        except BoundExceeded:
            return None
        unit = _order_unit(disc) if g > 1 else None
        k = None if unit is None else _suborder_exponent(unit, disc, g)
        if k is None:
            return None
    x, y = unit
    return (x + y * (disc % 2 + root / (f * g)) / 2) ** k


def _divide_squares(disc: int, primes) -> tuple:
    """(disc/f^2, f) for the largest product f of the given primes with
    disc/f^2 still a discriminant (0 or 1 mod 4)."""
    f = 1
    for p in primes:
        while disc % (f * p) ** 2 == 0 and disc // (f * p) ** 2 % 4 in (0, 1):
            f *= p
    return disc // (f * f), f


def _order_unit(disc: int) -> Optional[tuple]:
    """(x, y) with x + y*w the fundamental unit of the order of the nonsquare
    discriminant disc, w = (disc mod 2 + sqrt disc)/2.  The continued
    fraction of w returns to denominator 2 after one period, and its last
    convergent p/q gives the unit p - q*conj(w) (Cohen, GTM 138, 5.7).
    None for a period longer than _UNIT_STEPS."""
    s = math.isqrt(disc)
    sigma = disc % 2
    P, Q = sigma, 2  # the complete quotient is (P + sqrt disc) / Q
    p, p_prev, q, q_prev = 1, 0, 0, 1
    for _ in range(_UNIT_STEPS):
        a = (P + s) // Q
        p, p_prev = a * p + p_prev, p
        q, q_prev = a * q + q_prev, q
        P = a * Q - P
        Q = (disc - P * P) // Q
        if Q == 2:
            return p - q * sigma, q
    return None


def _suborder_exponent(unit: tuple, disc: int, g: int) -> Optional[int]:
    """The least k with unit^k in the order Z + g*O of discriminant disc*g^2,
    O the order of disc and unit = x + y*w in O: the w-coordinate of unit^k
    must be divisible by g.  Walks the powers modulo g, using
    w^2 = sigma*w + (disc - sigma)/4; None past _UNIT_POWERS."""
    x0, y0 = unit
    sigma = disc % 2
    n = (disc - sigma) // 4
    x, y = x0 % g, y0 % g
    for k in range(1, _UNIT_POWERS + 1):
        if y == 0:
            return k
        x, y = (x * x0 + n * y * y0) % g, (x * y0 + y * x0 + sigma * y * y0) % g
    return None


def _endpoint_orbit(
    a: SteinTriple, b: SteinTriple, s0: FieldElement, inv: AbelianInvariants
) -> Verdict:
    """Walk the classes of x = s*ell_b in Gamma/I*Gamma breadth first from
    s = s0, stepping by unit^-1, unit, then 1/p, p per inverted prime, until
    one is class(ell_a), the orbit closes, or _ORBIT_STATES are spent."""
    unit = _fundamental_unit(b.module)
    steps = [] if unit is None else [1 / unit, unit]
    for p in b.module.inverted_primes:
        steps += [Fraction(1, p), p]
    target = class_of(a.endpoint, inv, a.module)
    seen, frontier = set(), []
    # breadth first: the generator reads frontier while the loop appends to it
    neighbors = (y * g for y in frontier for g in steps)
    for x in itertools.chain([s0 * b.endpoint], neighbors):
        key = class_of(x, inv, a.module)
        if key == target:
            return _isomorphic(x / b.endpoint, inv)
        if key not in seen:
            if len(seen) == _ORBIT_STATES:
                reason = f"stabilizer orbit walk stopped at {_ORBIT_STATES} states"
                return Verdict("Unknown", reason=reason)
            seen.add(key)
            frontier.append(x)
    if b.field.degree > 2:
        gap = "units in degree 3 and up"
    elif unit is None:
        c0, c1, c2 = b.field.minpoly.coefficients
        rational = math.isqrt(disc := c1 * c1 - 4 * c0 * c2) ** 2 == disc
        gap = ("a unit: the defining polynomial has a rational root" if rational
               else "the fundamental unit (period past the step budget)")
    elif b.module.inverted_primes:
        gap = "S-units that are not rational"
    else:  # the steps span the stabilizer
        orbits = "endpoint classes lie in different stabilizer orbits"
        return Verdict("NotIsomorphic", obstruction=f"{orbits} (orbit size {len(seen)})")
    reason = f"no match in a stabilizer orbit of size {len(seen)}; the walk lacks {gap}"
    return Verdict("Unknown", reason=reason)


# ---------------------------------------------------------------------------
# order-preserving embeddings of slope groups


class EmbeddingAnswer(NamedTuple):
    answer: str  # "Yes" | "No"
    scale: Optional[Fraction] = None
    obstruction: Optional[str] = None


def order_embedding_exists(l1: SlopeGroup, l2: SlopeGroup) -> EmbeddingAnswer:
    """Decide whether a monotone homomorphism embeds l1 into l2.

    A monotone map on a dense subgroup of the reals under log is forced
    to be x -> x^c, so for rank >= 2 the question reduces to a rational
    scalar c carrying the exponent lattice of l1 into that of l2.  The
    witness is the least positive integer c that does: 1 for <4, 9> into
    <2, 3>, although 1/2 works too.  Cyclic l1 embeds into any nontrivial
    l2.
    """
    r1, r2 = l1.rank(), l2.rank()
    if r1 == 0:
        return EmbeddingAnswer("Yes", scale=Fraction(1))
    if r2 == 0:
        return EmbeddingAnswer("No", obstruction="target group is trivial")
    if r1 > r2:
        return EmbeddingAnswer(
            "No", obstruction=f"rank {r1} cannot embed in rank {r2}"
        )
    if r1 == 1:
        return EmbeddingAnswer("Yes")
    # rank two or more: both groups are rational, their atoms are primes
    primes = sorted(set(l1.atoms) | set(l2.atoms))
    # `_bareiss` on [l2^T | l1^T] leaves pivot * x in column n + k for row k
    # of l1 = sum_j x_j * (row j of l2); the Hermite rows of l2 have rank n,
    # and the exponent rows are read from the lattices, padded to all the primes
    n = len(l2.lattice)
    columns = [[dict(zip(g.atoms, row)).get(p, 0) for p in primes]
               for g in (l2, l1) for row in g.lattice]
    rows = [list(row) for row in zip(*columns)]
    pivot = abs(_bareiss(rows, n)[1])
    c = 1
    for k, row in enumerate(l1.lattice):
        if any(r[n + k] for r in rows[n:]):
            missing = next(
                (p for p, e in zip(l1.atoms, row) if e and p not in l2.atoms),
                None,
            )
            if missing is not None:
                return EmbeddingAnswer("No", obstruction=f"prime {missing}")
            return EmbeddingAnswer(
                "No", obstruction="exponent lattices span different subspaces"
            )
        # the least integer q > 0 with q*x integral
        c = math.lcm(c, pivot // math.gcd(pivot, *(r[n + k] for r in rows[:n])))
    return EmbeddingAnswer("Yes", scale=Fraction(c))


# ---------------------------------------------------------------------------
# verdict pipelines


def _isomorphic(s, inv: Optional[AbelianInvariants] = None) -> Verdict:
    """Isomorphic by the scalar s, with the coinvariants when there are some."""
    witness = {"s": str(s)}
    if inv is not None:
        witness["coinvariants"] = inv.describe()
    return Verdict("Isomorphic", witness=witness)


def _compare_coinvariants(a: SteinTriple, b: SteinTriple) -> tuple:
    """(obstruction, inv_a): a NotIsomorphic verdict when the coinvariant
    groups disagree, else None, and Gamma_a's invariants.  (None, None)
    when either side has no computable coinvariants (a localized module
    without slopes); both pipelines then skip the comparison."""
    try:
        inv_a, inv_b = coinvariants(a), coinvariants(b)
    except UnsupportedGamma:
        return None, None
    if inv_a.same_group(inv_b):
        return None, inv_a
    differ = f"coinvariants differ ({inv_a.describe()} vs {inv_b.describe()})"
    return Verdict("NotIsomorphic", obstruction=differ), inv_a


def _forced_scalar(a: SteinTriple, b: SteinTriple, inv=None) -> Optional[Verdict]:
    """Test the one rescaling both endpoints allow, s = ell_a / ell_b:
    Isomorphic when s*Gamma_b = Gamma_a (with the coinvariants inv in the
    witness), else NotIsomorphic.  None without both endpoints in one
    field.  A rescaling with equal slope groups is a conjugacy, so
    Isomorphic is sound at any rank; NotIsomorphic only rules out
    rescalings."""
    if a.endpoint is None or b.endpoint is None or not a.field.compatible(b.field):
        return None
    s = a.endpoint / b.endpoint
    if _carries(s, b.module, a.module):
        return _isomorphic(s, inv)
    forced = f"the endpoints force s = {s}, which does not carry Gamma_b to Gamma_a"
    return Verdict("NotIsomorphic", obstruction=forced)


def classify_pair(
    a: SteinTriple, b: SteinTriple, search_bound: int = DEFAULT_SEARCH_BOUND
) -> Verdict:
    """Full isomorphism verdict for two triples of module rank >= 2;
    rank-one inputs are delegated to rank_one_report."""
    if _integer(search_bound) < 0:
        raise ValidationError(f"the search bound {search_bound} is negative")
    if (a.endpoint is None) != (b.endpoint is None):
        raise ValidationError(
            "cannot compare endpoint-level with endpoint-free data"
        )
    if a.module.rank() < 2 or b.module.rank() < 2:
        return rank_one_report(a, b)
    same_slopes = a.slopes.equals(b.slopes)
    if same_slopes is False:
        return Verdict("NotIsomorphic", obstruction="slope groups differ")
    blocked, inv = _compare_coinvariants(a, b)
    if blocked is not None:
        return blocked
    if same_slopes is None:
        # groups in different fields: only the coinvariants could separate them
        reason = "slope groups are not comparable: slope groups live in different fields"
        return Verdict("Unknown", reason=reason)
    # trivial slopes: I*Gamma = 0, the classes are the endpoints, and s is forced
    forced = _forced_scalar(a, b, inv) if a.slopes.is_trivial() else None
    if forced is not None:
        return forced
    sr = scale_equivalence(a.module, b.module, search_bound)
    if sr.outcome == "distinct":
        return Verdict(
            "NotIsomorphic",
            obstruction=f"modules are not scale equivalent ({sr.obstruction})",
        )
    if sr.outcome == "unknown":
        return Verdict("Unknown", reason=f"module scale search failed: {sr.obstruction}")
    if a.endpoint is None:
        return _isomorphic(sr.scalar, inv)
    return _endpoint_orbit(a, b, sr.scalar, inv)


def _endpoint_residue_gcd(n: int, r: Fraction) -> int:
    # the class of r in Z[1/n]/(n-1) only sees gcd(n-1, r mod n-1)
    m = n - 1
    inv = pow(r.denominator % m, -1, m)
    return math.gcd(m, (r.numerator * inv) % m)


def rank_one_report(a: SteinTriple, b: SteinTriple) -> Verdict:
    """Obstruction battery for triples with rank-one modules.

    Never claims Isomorphic without a certificate: either an explicit
    rescaling (the scalar the endpoints force, or without endpoints the
    closed-form scale |b1/b2|) or the base-n closed form.
    """
    same_slopes = a.slopes == b.slopes
    if same_slopes and a.endpoint is None and b.endpoint is None:
        sr = scale_equivalence(a.module, b.module)
        if sr.found:
            return _isomorphic(sr.scalar)
    elif same_slopes:
        forced = _forced_scalar(a, b)
        if forced is not None and forced.is_isomorphic:
            return forced
    r1, r2 = a.slopes.rank(), b.slopes.rank()
    if r1 != r2:
        return Verdict(
            "NotIsomorphic",
            obstruction=f"slope-group ranks differ ({r1} vs {r2})",
        )
    blocked = _compare_coinvariants(a, b)[0]
    if blocked is not None:
        return blocked
    # with equal ranks, an embedding one way gives one the other way too
    embedding = order_embedding_exists(a.slopes, b.slopes)
    if embedding.answer == "No":
        return Verdict(
            "NotIsomorphic",
            obstruction=(
                "no order-preserving embedding of slope groups "
                f"({embedding.obstruction})"
            ),
        )
    # distinct bases n never get here: their coinvariants Z/(n-1) differ
    n = thompson_base(a)
    both_ends = a.endpoint is not None and b.endpoint is not None
    if n is not None and n == thompson_base(b) and both_ends:
        g1 = _endpoint_residue_gcd(n, a.endpoint.as_fraction())
        g2 = _endpoint_residue_gcd(n, b.endpoint.as_fraction())
        if g1 == g2:
            return Verdict("Isomorphic", witness={"base": n, "endpoint_gcd": g1})
        return Verdict(
            "NotIsomorphic",
            obstruction=f"endpoint residue classes differ (gcd {g1} vs {g2})",
        )
    return Verdict(
        "Unknown",
        reason="no implemented invariant separates these rank-one triples",
    )
