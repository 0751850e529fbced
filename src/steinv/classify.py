"""Isomorphism invariants and three-valued verdicts for triples.

The rank-two-and-up pipeline compares slope groups, compares coinvariant
quotients, searches for a module scale factor, and finally tests the
endpoint difference inside the coinvariant quotient.  Rank-one modules
fall outside that criterion; they run an obstruction battery instead
(an exact conjugacy witness, whose scalar the endpoints force, slope-group
rank, an order-preserving embedding, and the base-n closed form) and
otherwise report Unknown.
All searches are bounded, so a positive or negative verdict is always
backed by an exact certificate while exhaustion yields Unknown.  The
quadratic unit in the endpoint test is exact, from a continued fraction
under a step budget, and is not searched for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import (
    NotInGamma,
    NotInvariant,
    UnsupportedComparison,
    UnsupportedGamma,
    UnsupportedInput,
)
from .intlinalg import AbelianInvariants, IntMatrix, cokernel_invariants, localize_factors
from .modules import (
    DEFAULT_SEARCH_BOUND,
    BreakpointModule,
    SlopeGroup,
    SteinTriple,
    _box_vectors,
    scale_equivalence,
    thompson_base,
)
from .numbers import FieldElement, RealAlgebraicField, _eliminate

# Partial quotients allowed in one period: no D below 2*10^5 needs more
# than 951, and longer periods (documents of a few dozen bytes) take seconds.
_UNIT_STEPS = 1000


@dataclass(frozen=True)
class Verdict:
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


def coinvariants(module: BreakpointModule, slopes: SlopeGroup) -> AbelianInvariants:
    """Quotient of the module by all elements t - mu*t, mu a slope generator.

    Stacks the columns of (I - M_mu) over the generators, clears
    denominators columnwise (harmless: the factors are products of
    inverted primes), takes the integer cokernel, and localizes.
    """
    values = slopes.generator_values()
    for mu in values:
        if isinstance(mu, FieldElement) and not module.field.compatible(mu.field):
            raise UnsupportedGamma("slope generator lives in a different field")
    n = module.rank()
    columns = []
    try:
        for mu in values:
            m = module.multiplication_matrix(mu)
            # the group contains 1/mu as well, so demand a two-sided action
            module.multiplication_matrix(1 / mu)
            for j in range(n):
                columns.append(
                    [(1 if i == j else 0) - m[i][j] for i in range(n)]
                )
    except NotInvariant as e:
        raise UnsupportedGamma(str(e)) from e
    if not columns:
        if module.inverted_primes:
            raise UnsupportedGamma(
                "coinvariants of a localized module need slope generators"
            )
        columns = [[Fraction(0)] * n]
    int_columns = []
    for col in columns:
        den = math.lcm(*(x.denominator for x in col))
        int_columns.append([int(x * den) for x in col])
    entries = [[c[i] for c in int_columns] for i in range(n)]
    inv = cokernel_invariants(IntMatrix(entries))
    return localize_factors(inv, module.inverted_primes)


def class_of(t, inv: AbelianInvariants, module: BreakpointModule) -> tuple:
    """Residue vector of a module point in the coinvariant quotient:
    torsion residues followed by free coordinates."""
    if not module.contains(t):
        raise NotInGamma(f"{t} is not a module point")
    torsion, free = inv.reduce(module.coordinates(t))
    return tuple(torsion) + tuple(free)


# ---------------------------------------------------------------------------
# stabilizer scalars for the endpoint test


def _fundamental_unit(field: RealAlgebraicField) -> Optional[FieldElement]:
    """Fundamental unit of Z[c2*a], the multiplier ring of Z + Z*a, exactly:
    the continued fraction of w = (D mod 2 + sqrt D)/2 returns to
    denominator 2 after one period, and its last convergent p/q gives the
    unit p - q*conj(w) (Cohen, GTM 138, 5.7).  None for degree != 2, for
    square D, and for a period longer than _UNIT_STEPS."""
    if field._quadratic is None:
        return None
    c1, c2, e, disc = field._quadratic
    s = math.isqrt(disc)
    if s * s == disc:
        return None
    sigma = disc % 2
    P, Q = sigma, 2  # the complete quotient is (P + sqrt D) / Q
    p, p_prev, q, q_prev = 1, 0, 0, 1
    for _ in range(_UNIT_STEPS):
        t = (P + s) // Q
        p, p_prev = t * p + p_prev, p
        q, q_prev = t * q + q_prev, q
        P = t * Q - P
        Q = (disc - P * P) // Q
        if Q == 2:  # p - q*conj(w), with sqrt D = e*(2*c2*a + c1)
            x = Fraction(2 * p - q * sigma + q * e * c1, 2)
            return field.element((x, q * e * c2))
    return None


def _stabilizer_candidates(module: BreakpointModule, search_bound: int):
    """Positive scalars u with u * module = module, smallest first.

    Products of inverted primes always stabilize; in quadratic fields the
    powers of the fundamental unit, exact under a step budget and not
    searched, are included when the unit itself stabilizes the module.
    """
    field = module.field
    primes = module.inverted_primes
    e_bound = search_bound if len(primes) <= 1 else min(search_bound, 5)
    values = []
    for vec in _box_vectors(e_bound, len(primes)):
        q = Fraction(1)
        for p, e in zip(primes, vec):
            q *= Fraction(p) ** e
        values.append(field.from_rational(q))
    unit, k_bound = _fundamental_unit(field), search_bound
    if unit is None or not module.scaled(unit).same_module(module):
        unit, k_bound = field.one(), 0
    for (k,) in _box_vectors(k_bound, 1):
        uk = unit**k
        for q in values:
            yield uk * q


# ---------------------------------------------------------------------------
# order-preserving embeddings of slope groups


@dataclass(frozen=True)
class EmbeddingAnswer:
    answer: str  # "Yes" | "No"
    scale: Optional[Fraction] = None
    obstruction: Optional[str] = None


def order_embedding_exists(l1: SlopeGroup, l2: SlopeGroup) -> EmbeddingAnswer:
    """Decide whether a monotone homomorphism embeds l1 into l2.

    A monotone map on a dense subgroup of the reals under log is forced
    to be x -> x^c, so for rank >= 2 the question reduces to a rational
    scalar c carrying the exponent lattice of l1 into that of l2; the
    minimal c is returned as witness.  Cyclic l1 embeds into any
    nontrivial l2.
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
    primes = sorted(set(l1.primes) | set(l2.primes))
    index = {p: i for i, p in enumerate(primes)}

    def lift(group, row):
        v = [0] * len(primes)
        for p, e in zip(group.primes, row):
            v[index[p]] = e
        return v

    target_cols = [lift(l2, row) for row in l2.basis_vectors()]
    c = Fraction(1)
    for row in l1.basis_vectors():
        w = lift(l1, row)
        x = _eliminate(target_cols, w)[2]
        if x is None:
            missing = next(
                (p for p, e in zip(l1.primes, row) if e and p not in l2.primes),
                None,
            )
            if missing is not None:
                return EmbeddingAnswer("No", obstruction=f"prime {missing}")
            return EmbeddingAnswer(
                "No", obstruction="exponent lattices span different subspaces"
            )
        den = math.lcm(*(q.denominator for q in x))
        g = math.gcd(*(q.numerator * (den // q.denominator) for q in x))
        q_min = Fraction(den, g)  # least positive q with q*x integral
        c = Fraction(
            math.lcm(c.numerator, q_min.numerator),
            math.gcd(c.denominator, q_min.denominator),
        )
    return EmbeddingAnswer("Yes", scale=c)


# ---------------------------------------------------------------------------
# verdict pipelines


def _coinvariants_differ(
    inv1: AbelianInvariants, inv2: AbelianInvariants
) -> Optional[Verdict]:
    """NotIsomorphic verdict when the coinvariant groups disagree."""
    if inv1.same_group(inv2):
        return None
    return Verdict(
        "NotIsomorphic",
        obstruction=(
            f"coinvariants differ ({inv1.describe()} vs {inv2.describe()})"
        ),
    )


def _coinvariant_obstruction(a: SteinTriple, b: SteinTriple) -> Optional[Verdict]:
    """As _coinvariants_differ, and None when either side has no
    computable coinvariants."""
    try:
        inv1 = coinvariants(a.module, a.slopes)
        inv2 = coinvariants(b.module, b.slopes)
    except UnsupportedGamma:
        return None
    return _coinvariants_differ(inv1, inv2)


def classify_pair(
    a: SteinTriple, b: SteinTriple, search_bound: int = DEFAULT_SEARCH_BOUND
) -> Verdict:
    """Full isomorphism verdict for two triples of module rank >= 2;
    rank-one inputs are delegated to rank_one_report."""
    if (a.endpoint is None) != (b.endpoint is None):
        raise UnsupportedInput(
            "cannot compare endpoint-level with endpoint-free data"
        )
    if a.module.rank() < 2 or b.module.rank() < 2:
        return rank_one_report(a, b, search_bound)
    try:
        same_slopes = a.slopes.equals(b.slopes)
    except UnsupportedComparison as e:
        # incomparable slope groups: the coinvariants may still separate
        blocked = _coinvariant_obstruction(a, b)
        if blocked is not None:
            return blocked
        return Verdict("Unknown", reason=f"slope groups are not comparable: {e}")
    if not same_slopes:
        return Verdict("NotIsomorphic", obstruction="slope groups differ")
    inv1 = coinvariants(a.module, a.slopes)
    blocked = _coinvariants_differ(inv1, coinvariants(b.module, b.slopes))
    if blocked is not None:
        return blocked
    sr = scale_equivalence(a.module, b.module, search_bound)
    if sr.outcome == "distinct":
        return Verdict(
            "NotIsomorphic",
            obstruction=f"modules are not scale equivalent ({sr.obstruction})",
        )
    if sr.outcome == "unknown":
        return Verdict("Unknown", reason=f"module scale search failed: {sr.obstruction}")
    if a.endpoint is None:
        return Verdict(
            "Isomorphic",
            witness={"s": str(sr.scalar), "coinvariants": inv1.describe()},
        )
    for u in _stabilizer_candidates(b.module, search_bound):
        s = sr.scalar * u
        residues = class_of(a.endpoint - s * b.endpoint, inv1, a.module)
        if all(x == 0 for x in residues):
            return Verdict(
                "Isomorphic",
                witness={"s": str(s), "coinvariants": inv1.describe()},
            )
    return Verdict(
        "Unknown",
        reason="no admissible scalar matched the endpoint class within the bound",
    )


def _exact_conjugacy(
    a: SteinTriple, b: SteinTriple, search_bound: int
) -> Optional[Verdict]:
    """Isomorphic verdict backed by an explicit rescaling map, or None.

    Sound at any rank: equal slope groups, a scalar identifying the
    modules, and an exact endpoint match give a conjugating bijection.
    With both endpoints the scalar is forced to be their ratio, so only
    that one is tested; without them the scale search looks for one.
    """
    try:
        if not a.slopes.equals(b.slopes):
            return None
    except UnsupportedComparison:
        return None
    if a.endpoint is None and b.endpoint is None:
        sr = scale_equivalence(a.module, b.module, search_bound)
        if not sr.found:
            return None
        return Verdict("Isomorphic", witness={"s": str(sr.scalar)})
    if a.endpoint is None or b.endpoint is None:
        return None
    if not a.module.field.compatible(b.module.field):
        return None
    s = a.endpoint / b.endpoint
    if b.module.scaled(s).same_module(a.module):
        return Verdict("Isomorphic", witness={"s": str(s)})
    return None


def _endpoint_residue_gcd(n: int, r: Fraction) -> int:
    # the class of r in Z[1/n]/(n-1) only sees gcd(n-1, r mod n-1)
    if n == 2:
        return 1
    m = n - 1
    inv = pow(r.denominator % m, -1, m)
    return math.gcd(m, (r.numerator * inv) % m)


def rank_one_report(
    a: SteinTriple, b: SteinTriple, search_bound: int = DEFAULT_SEARCH_BOUND
) -> Verdict:
    """Obstruction battery for triples with rank-one modules.

    Never claims Isomorphic without a certificate: either an explicit
    conjugacy witness or the base-n closed form.
    """
    exact = _exact_conjugacy(a, b, search_bound)
    if exact is not None:
        return exact
    r1, r2 = a.slopes.rank(), b.slopes.rank()
    if r1 != r2:
        return Verdict(
            "NotIsomorphic",
            obstruction=f"slope-group ranks differ ({r1} vs {r2})",
        )
    blocked = _coinvariant_obstruction(a, b)
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
    n1 = thompson_base(a)
    n2 = thompson_base(b)
    if n1 is not None and n2 is not None:
        if n1 != n2:
            return Verdict(
                "NotIsomorphic", obstruction=f"slope bases differ ({n1} vs {n2})"
            )
        if a.endpoint is not None and b.endpoint is not None:
            g1 = _endpoint_residue_gcd(n1, a.endpoint.as_fraction())
            g2 = _endpoint_residue_gcd(n2, b.endpoint.as_fraction())
            if g1 == g2:
                return Verdict(
                    "Isomorphic",
                    witness={"base": n1, "endpoint_gcd": g1},
                )
            return Verdict(
                "NotIsomorphic",
                obstruction=f"endpoint residue classes differ (gcd {g1} vs {g2})",
            )
    return Verdict(
        "Unknown",
        reason="no implemented invariant separates these rank-one triples",
    )
