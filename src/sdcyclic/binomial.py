"""Binomial coefficients modulo an odd prime, and the signed-binomial
entries of the triangular reciprocal matrices.

Indices reach p^lam (hundreds to thousands), so coefficients are computed
by base-p digit decomposition instead of factorials (Lucas's theorem):
C(n, k) = prod_i C(n_i, k_i) mod p over the base-p digits.  A digit
binomial is n_i! / (k_i! (n_i - k_i)!), read from one cached table of the
factorials below p and their inverses.
"""

from __future__ import annotations

from functools import lru_cache

from .fieldcore import is_prime


# A command uses one prime; two tables of p entries each.
@lru_cache(maxsize=2)
def _factorials(p: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(n! mod p, (n!)^-1 mod p) for 0 <= n < p."""
    if not is_prime(p):
        raise ValueError(f"modulus must be prime, got {p}")
    fact = [1] * p
    for n in range(1, p):
        fact[n] = fact[n - 1] * n % p
    inv = [1] * p
    inv[p - 1] = pow(fact[p - 1], p - 2, p)
    for n in range(p - 1, 0, -1):
        inv[n - 1] = inv[n] * n % p
    return tuple(fact), tuple(inv)


def _lucas(n: int, k: int, p: int) -> int:
    """C(n, k) mod p for 0 <= k <= n and prime p, one digit at a time."""
    fact, inv = _factorials(p)
    out = 1
    while k:
        nd, n = n % p, n // p
        kd, k = k % p, k // p
        if kd > nd:
            return 0
        out = out * fact[nd] * inv[kd] * inv[nd - kd] % p
    return out


def binom_mod_p(n: int, k: int, p: int) -> int:
    """C(n, k) mod p via digit decomposition: the product over base-p
    digits of C(n_i, k_i), which is 0 as soon as some k_i > n_i."""
    if n < 0 or k < 0:
        raise ValueError(f"binomial arguments must be non-negative, got ({n}, {k})")
    _factorials(p)  # refuses a modulus that is not prime
    return 0 if k > n else _lucas(n, k, p)


def g_entry(p: int, lam: int, i: int, j: int) -> int:
    """Entry (i, j), 1-indexed, of the p^lam x p^lam reciprocal matrix:
    (-1)^(j-1) * C(p^lam - j, i - j) mod p, defined for 1 <= j <= i.
    The scalar reference for ``gmatrix.build_g_direct``."""
    n = p**lam
    if not 1 <= j <= i <= n:
        raise ValueError(f"need 1 <= j <= i <= {n}, got i={i}, j={j}")
    val = binom_mod_p(n - j, i - j, p)
    return val if j % 2 == 1 else (-val) % p
