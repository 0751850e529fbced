"""Integer matrix normal forms, checked against naive reference computations.

The reference determinant is a cofactor expansion and the reference
invariant factors come from gcds of k-by-k minors, both in
tests/references.py.  Both are slow but obviously correct, which is the
point.
"""

import contextlib
import math
import random
import re
import signal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from steinv import (
    BoundExceeded,
    IntMatrix,
    ValidationError,
    cokernel_invariants,
    hermite_normal_form,
    localize_factors,
    smith_normal_form,
)
from steinv.intlinalg import factor, is_prime
from references import laplace_det, minor_gcd_factors


def random_matrix(rng, max_dim=6, lo=-9, hi=9):
    m = rng.randint(1, max_dim)
    n = rng.randint(1, max_dim)
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(m)]


def test_constructor_rejects_bad_shapes():
    with pytest.raises(ValidationError):
        IntMatrix([])
    with pytest.raises(ValidationError):
        IntMatrix([[1, 2], [3]])
    with pytest.raises(ValidationError):
        IntMatrix([[], []])


def test_constructor_refuses_entries_that_are_not_integers():
    # only ints enter: int() would truncate 5/2 to 2 (and the cokernel
    # to Z/2) and 2.9 to 2, and True would read as 1
    for entry in (Fraction(5, 2), 2.9, 2.0, Fraction(4, 1), "3", None, True):
        with pytest.raises(ValidationError, match="is not an integer"):
            IntMatrix([[1, 0], [0, entry]])


def test_matmul_and_transpose():
    a = IntMatrix([[1, 2], [3, 4]])
    b = IntMatrix([[0, 1], [1, 0]])
    assert (a @ b).entries == ((2, 1), (4, 3))
    assert a.transpose().entries == ((1, 3), (2, 4))
    assert IntMatrix.identity(3).diagonal() == (1, 1, 1)


def test_det_matches_laplace():
    rng = random.Random(11)
    for _ in range(120):
        n = rng.randint(1, 5)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        assert IntMatrix(rows).det() == laplace_det(rows)


def test_det_requires_square():
    with pytest.raises(ValidationError):
        IntMatrix([[1, 2, 3], [4, 5, 6]]).det()


def check_hnf(rows):
    a = IntMatrix(rows)
    h, u = hermite_normal_form(a)
    assert u.rows == u.cols == a.rows
    assert u.det() in (1, -1)
    assert u @ a == h
    # echelon shape: pivot columns strictly increase, zero rows at the bottom
    last_pivot = -1
    seen_zero_row = False
    for r in range(h.rows):
        row = h.entries[r]
        nz = [j for j, x in enumerate(row) if x]
        if not nz:
            seen_zero_row = True
            continue
        assert not seen_zero_row
        j = nz[0]
        assert j > last_pivot
        last_pivot = j
        piv = row[j]
        assert piv > 0
        for above in range(r):
            assert 0 <= h.entries[above][j] < piv
    return h


def test_hnf_known_example():
    h = check_hnf([[2, 4, 4], [-6, 6, 12], [10, -4, -16]])
    assert h.entries == ((2, 4, 4), (0, 6, 0), (0, 0, 12))


def test_hnf_random():
    rng = random.Random(23)
    for _ in range(150):
        check_hnf(random_matrix(rng))


@contextlib.contextmanager
def time_limit(seconds):
    """Turn a loop that does not stop into a failure instead of a hang."""

    def expire(signum, frame):
        raise TimeoutError(f"no answer within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def check_snf(rows):
    a = IntMatrix(rows)
    with time_limit(5):
        d, u, v = smith_normal_form(a)
    assert u.det() in (1, -1)
    assert v.det() in (1, -1)
    assert u @ a @ v == d
    diag = list(d.diagonal())
    # off-diagonal zero
    for i in range(d.rows):
        for j in range(d.cols):
            if i != j:
                assert d.entries[i][j] == 0
    for x in diag:
        assert x >= 0
    for x, y in zip(diag, diag[1:]):
        if x == 0:
            assert y == 0
        else:
            assert y % x == 0
    return tuple(x for x in diag if x)


def test_snf_known_example():
    rows = [[2, 4, 4], [-6, 6, 12], [10, -4, -16]]
    got = check_snf(rows)
    assert got == (2, 6, 12)
    assert got == minor_gcd_factors(rows)
    # a diagonal that is not a divisibility chain, and inputs on which
    # adding a row instead of a column to repair the chain cycles forever
    assert check_snf([[2, 0], [0, 3]]) == (1, 6)
    assert check_snf([[2, 0], [0, 1]]) == (1, 2)
    rows = [[2, 4], [-2, 3], [-6, -2]]
    assert check_snf(rows) == minor_gcd_factors(rows) == (1, 2)


def test_snf_matches_minor_gcd_oracle():
    rng = random.Random(37)
    for _ in range(150):
        rows = random_matrix(rng, max_dim=5, lo=-6, hi=6)
        assert check_snf(rows) == minor_gcd_factors(rows)


def test_snf_handles_wide_tall_and_zero():
    assert check_snf([[0, 0], [0, 0]]) == ()
    assert check_snf([[0]]) == ()
    assert check_snf([[0, 0, 0], [0, 0, 0]]) == ()
    assert check_snf([[3, 6, 9]]) == (3,)
    assert check_snf([[0, -4, 0, 6]]) == (2,)
    assert check_snf([[4], [6]]) == (2,)
    assert check_snf([[0], [-9], [0], [15]]) == (3,)


@st.composite
def sparse_matrices(draw):
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    entry = st.one_of(st.just(0), st.integers(-1000, 1000))
    rows = [[draw(entry) for _ in range(n)] for _ in range(m)]
    for i in draw(st.sets(st.integers(0, m - 1))):
        rows[i] = [0] * n
    for j in draw(st.sets(st.integers(0, n - 1))):
        for row in rows:
            row[j] = 0
    return rows


@settings(max_examples=150, deadline=5000)
@given(sparse_matrices())
def test_snf_matches_minor_gcd_oracle_on_large_entries(rows):
    assert check_snf(rows) == minor_gcd_factors(rows)


def test_cokernel_known_groups():
    # Z^2 / <(2,0),(0,3)> = Z/2 x Z/3, reported in invariant-factor form
    inv = cokernel_invariants(IntMatrix([[2, 0], [0, 3]]))
    assert inv.invariant_factors == (6,)
    assert inv.free_rank == 0
    assert inv.describe() == "Z/6"

    inv = cokernel_invariants(IntMatrix([[2, 0], [0, 2]]))
    assert inv.invariant_factors == (2, 2)
    assert inv.describe() == "Z/2 x Z/2"

    # a single zero column contributes a free summand per row
    inv = cokernel_invariants(IntMatrix([[0], [0]]))
    assert inv.invariant_factors == ()
    assert inv.free_rank == 2
    assert inv.describe() == "Z^2"

    inv = cokernel_invariants(IntMatrix([[1, 0], [0, 1]]))
    assert inv.is_trivial()
    assert inv.describe() == "trivial"


def test_cokernel_mixed_free_and_torsion():
    # Z^3 / column span of [[2,0],[0,0],[0,3]]
    inv = cokernel_invariants(IntMatrix([[2, 0], [0, 0], [0, 3]]))
    assert inv.invariant_factors == (6,)
    assert inv.free_rank == 1
    assert inv.describe() == "Z/6 x Z"


def test_same_group_ignores_presentation():
    a = cokernel_invariants(IntMatrix([[2, 0], [0, 3]]))
    b = cokernel_invariants(IntMatrix([[6, 6], [0, 6]]))
    c = cokernel_invariants(IntMatrix([[6]]))
    assert not a.same_group(b)
    assert a.same_group(c)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5).flatmap(lambda m: st.lists(
    st.lists(st.integers(-9, 9), min_size=m, max_size=m), min_size=1, max_size=5)))
def test_cokernel_reads_the_smith_form(rows):
    # the cokernel drops V and keeps the rows of the Smith form's U that
    # its diagonal reads: each torsion row with its factor, and the free rows
    a = IntMatrix(rows)
    inv = cokernel_invariants(a)
    d, u, _ = smith_normal_form(a)
    diag = list(d.diagonal()) + [0] * (a.rows - min(a.rows, a.cols))
    assert inv.width == a.rows
    assert inv.torsion == tuple((row, x) for row, x in zip(u.entries, diag) if x >= 2)
    assert inv.free == tuple(row for row, x in zip(u.entries, diag) if x == 0)
    assert inv.invariant_factors == tuple(x for x in diag if x >= 2)
    assert inv.free_rank == diag.count(0)


def test_reduce_sends_column_span_to_zero():
    rng = random.Random(53)
    for _ in range(60):
        rows = random_matrix(rng, max_dim=4, lo=-5, hi=5)
        a = IntMatrix(rows)
        inv = cokernel_invariants(a)
        # every column of A must normalize to the zero class
        for j in range(a.cols):
            col = [a.entries[i][j] for i in range(a.rows)]
            torsion, free = inv.reduce(col)
            assert all(t == 0 for t in torsion)
            assert all(f == 0 for f in free)


def test_reduce_separates_classes():
    inv = cokernel_invariants(IntMatrix([[2, 0], [0, 3]]))
    assert inv.reduce([1, 0]) != inv.reduce([0, 1])
    assert inv.reduce([1, 1]) == inv.reduce([3, 4])  # differ by (2,3)


def test_reduce_additivity():
    rng = random.Random(67)
    rows = [[2, 0, 4], [0, 6, 2], [0, 0, 10]]
    inv = cokernel_invariants(IntMatrix(rows))
    n = len(rows)
    for _ in range(80):
        x = [rng.randint(-30, 30) for _ in range(n)]
        y = [rng.randint(-30, 30) for _ in range(n)]
        tx, fx = inv.reduce(x)
        ty, fy = inv.reduce(y)
        ts, fs = inv.reduce([a + b for a, b in zip(x, y)])
        mods = inv.invariant_factors
        assert ts == tuple((a + b) % d for a, b, d in zip(tx, ty, mods))
        assert fs == tuple(a + b for a, b in zip(fx, fy))


def test_reduce_refuses_what_is_not_an_integer_vector_over_a_positive_den():
    inv = cokernel_invariants(IntMatrix([[2]]))
    assert inv.reduce([3], 5) == ((1,), ())
    with pytest.raises(ValidationError, match="not an integer"):
        inv.reduce([0.5])
    with pytest.raises(ValidationError, match="not an integer"):
        inv.reduce([1], Fraction(1, 3))
    with pytest.raises(ValidationError, match="wrong length"):
        inv.reduce([1, 0])
    for den in (0, -3):
        with pytest.raises(ValidationError, match="not positive"):
            inv.reduce([1], den)


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False), st.sets(st.sampled_from([2, 3, 5, 7])))
def test_localization_keeps_residues(rng, primes):
    inv = cokernel_invariants(IntMatrix(random_matrix(rng, max_dim=4)))
    loc = localize_factors(inv, primes)
    assert loc.width == inv.width and loc.free == inv.free
    stripped = dict(loc.torsion)  # the rows of a unimodular U are distinct
    for row, d in inv.torsion:
        # no prime divides d more than d.bit_length() times
        assert stripped.get(row, 1) == d // math.gcd(d, math.prod(primes) ** d.bit_length())
    for _ in range(10):
        x = [rng.randint(-30, 30) for _ in range(inv.width)]
        torsion, free = inv.reduce(x)
        residues = {row: t for (row, _), t in zip(inv.torsion, torsion)}
        assert loc.reduce(x) == (
            tuple(residues[row] % d for row, d in loc.torsion),
            free,
        )


def test_localize_strips_inverted_primes():
    inv = cokernel_invariants(IntMatrix([[12]]))
    assert inv.describe() == "Z/12"
    assert localize_factors(inv, [2]).describe() == "Z/3"
    assert localize_factors(inv, [2, 3]).describe() == "trivial"
    # free part survives localization
    inv = cokernel_invariants(IntMatrix([[4, 0], [0, 0]]))
    loc = localize_factors(inv, [2])
    assert loc.invariant_factors == ()
    assert loc.free_rank == 1


def test_localize_refuses_a_prime_below_two():
    # stripping 1 would loop forever, and stripping 0 divide by zero
    inv = cokernel_invariants(IntMatrix([[6]]))
    for p in (1, 0, -3):
        with pytest.raises(ValidationError, match=f"^{p} is not prime$"):
            localize_factors(inv, [p])
    # stripping a composite 6 would leave Z/4 whole, where inverting 6 kills it
    with pytest.raises(ValidationError, match="^6 is not prime$"):
        localize_factors(cokernel_invariants(IntMatrix([[4]])), [6])


def test_localize_refuses_a_prime_that_is_not_an_int():
    # int() would truncate 2.7 to 2 and turn Z/6 into Z/3
    inv = cokernel_invariants(IntMatrix([[6]]))
    for p in (2.7, 2.0, Fraction(2), True):
        with pytest.raises(ValidationError, match=f"^{re.escape(repr(p))} is not an integer$"):
            localize_factors(inv, [p])


@pytest.mark.parametrize("call", [hermite_normal_form, smith_normal_form, cokernel_invariants])
def test_normal_forms_refuse_a_matrix_that_is_not_an_intmatrix(call):
    with pytest.raises(ValidationError, match=r"^\[\[2\]\] is not an IntMatrix$"):
        call([[2]])


def test_product_refuses_a_matrix_that_is_not_an_intmatrix():
    # as the normal forms do, not AttributeError from other.rows
    with pytest.raises(ValidationError, match=r"^\[\[2\]\] is not an IntMatrix$"):
        IntMatrix([[1]]) @ [[2]]


# -- primes -----------------------------------------------------------------


def trial_division_is_prime(n):
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


@given(st.integers(min_value=-5, max_value=10**5))
def test_is_prime_matches_trial_division(n):
    assert is_prime(n) == trial_division_is_prime(n)


def test_is_prime_rejects_strong_pseudoprimes():
    # the least strong pseudoprimes to the first 1, 2, 4 and 9 prime bases
    for n in (2047, 1373653, 3215031751, 3825123056546413051):
        assert not is_prime(n)


def test_is_prime_certifies_only_below_the_deterministic_bound():
    assert is_prime(1000000000000000003)
    assert not is_prime(1000000000000000003 * 1000000000000000009)
    with pytest.raises(BoundExceeded):
        is_prime(2**89 - 1)  # a Mersenne prime above 3.3e24


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(
        st.integers(min_value=1, max_value=10**15),
        st.lists(st.sampled_from([2, 3, 43, 1009, 65537, 999983]), max_size=12).map(
            math.prod
        ),
    )
)
def test_factor_matches_sympy(sympy, n):
    factors = factor(n)
    assert math.prod(p**e for p, e in factors.items()) == n
    assert all(is_prime(p) and sympy.isprime(p) for p in factors)
    assert factors == sympy.factorint(n)


def test_is_prime_refuses_what_is_not_an_int():
    for n in (7.0, Fraction(7), True):
        with pytest.raises(ValidationError, match=f"^{re.escape(repr(n))} is not an integer$"):
            is_prime(n)


def test_factor_refuses_what_is_not_an_int():
    for n in (2.0, Fraction(6), True):
        with pytest.raises(ValidationError, match=f"^{re.escape(repr(n))} is not an integer$"):
            factor(n)


def test_factor_rejects_what_it_cannot_split():
    with pytest.raises(BoundExceeded):
        factor(1000000000000000003 * 1000000000000000009)
    with pytest.raises(ValidationError):
        factor(0)
