"""Known answers from closed forms, coded without any call into steinv.

Every expected value the benchmark checks comes from here or from an
algebraic identity checked on the program's own results (group axioms,
round trips).  Nothing in this module imports the package under test.
"""

from __future__ import annotations

import math

# A 19-digit prime.  Trial division up to its square root (about 1e9
# steps) is what makes the two deadline documents hang.
BIG_PRIME = 1000000000000000003


def prime_factors(n: int) -> list:
    """Sorted prime divisors of a small positive integer."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def strip_primes(d: int, primes) -> int:
    for p in primes:
        while d % p == 0:
            d //= p
    return d


def cyclic_factors(order: int) -> list:
    """Invariant factors of Z/order: [] for the trivial group."""
    return [] if order == 1 else [order]


def base_n_coinvariants(n: int) -> list:
    """Coinvariants of (Z[1/n], <n>) are Z/(n-1)."""
    return cyclic_factors(n - 1)


def base_n_isomorphic(n: int, r: int, m: int, s: int) -> bool:
    """Base-n groups with endpoints r and s agree exactly when n = m and
    gcd(n-1, r) = gcd(m-1, s)."""
    return n == m and math.gcd(n - 1, r) == math.gcd(m - 1, s)


def fractional_slope_coinvariants(p: int, q: int) -> list:
    """Scaling by p/q on Z[1/pq] has coinvariants Z/(p-q), inverted
    primes stripped."""
    return cyclic_factors(strip_primes(p - q, prime_factors(p * q)))


def sqrt2_class(c0: int, c1: int) -> int:
    """Class of c0 + c1*a, a = sqrt(2) - 1, in Z[a]/(1 - a)Z[a] = Z/2.

    1 - a = sqrt(2)*a and a is a unit, so the quotient is Z[sqrt 2]
    modulo sqrt(2); c0 + c1*a = (c0 - c1) + c1*sqrt(2) lands on the
    parity of c0 - c1.  Positive units of Z[sqrt 2] have odd norm and
    so act trivially on the quotient.
    """
    return (c0 - c1) % 2


def sqrt2_isomorphic(e1, e2) -> bool:
    return sqrt2_class(*e1) == sqrt2_class(*e2)


def fibonacci(n: int) -> int:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def near_zero_sign(n: int) -> int:
    """Sign of phi*F_n - F_(n+1) = -psi^n with psi = -1/phi."""
    return 1 if n % 2 else -1

