"""Binomial coefficients modulo an odd prime, and the signed-binomial
entries of the triangular reciprocal matrices.

Indices reach p^lam (hundreds to thousands), so coefficients are computed
by base-p digit decomposition instead of factorials (Lucas's theorem):
C(n, k) = prod_i C(n_i, k_i) mod p over the base-p digits.  The per-digit
values come from one cached p x p Pascal table, which both the scalar
routines here and the whole-array kernel ``_binom_grid`` read.
"""

from __future__ import annotations

from functools import lru_cache

from ._numpy import np
from .fieldcore import is_prime


# A command uses one prime, and the table is 2 MB at p = 1021.
@lru_cache(maxsize=2)
def _pascal_table(p: int) -> np.ndarray:
    """C(n, k) mod p for all 0 <= n, k < p, zero above the diagonal;
    read-only, filled one row at a time, in the narrowest unsigned dtype
    that holds the sum of two entries (uint16 up to p = 32749)."""
    if not is_prime(p):
        raise ValueError(f"modulus must be prime, got {p}")
    table = np.zeros((p, p), dtype=np.min_scalar_type(2 * (p - 1)))
    table[:, 0] = 1
    for n in range(1, p):
        table[n, 1 : n + 1] = (table[n - 1, :n] + table[n - 1, 1 : n + 1]) % p
    table.setflags(write=False)
    return table


def _binom_grid(p: int, n: np.ndarray, k: np.ndarray, digits: int) -> np.ndarray:
    """C(n, k) mod p elementwise over broadcast integer arrays with
    0 <= n, k < p^digits: one gather from the Pascal table per base-p
    digit, widened to int64.  Entries with k > n come out 0, because some
    digit of k then exceeds the digit of n and the table is zero above
    its diagonal.  At digits = 1 the arguments index the table unreduced,
    so there a k in (-p, 0) reads as k + p."""
    table = _pascal_table(p)
    out = (table[n, k] if digits == 1 else table[n % p, k % p]).astype(np.int64)
    for _ in range(digits - 1):
        n, k = n // p, k // p
        out = out * table[n % p, k % p] % p
    return out


def binom_mod_p(n: int, k: int, p: int) -> int:
    """C(n, k) mod p via digit decomposition: the product over base-p
    digits of C(n_i, k_i), which is 0 as soon as some k_i > n_i."""
    if n < 0 or k < 0:
        raise ValueError(f"binomial arguments must be non-negative, got ({n}, {k})")
    if k > n:
        return 0
    table = _pascal_table(p)
    out = 1
    while n > 0:
        nd, n = n % p, n // p
        kd, k = k % p, k // p
        if kd > nd:
            return 0
        out = (out * table.item(nd, kd)) % p
    return out


def g_entry(p: int, lam: int, i: int, j: int) -> int:
    """Entry (i, j), 1-indexed, of the p^lam x p^lam reciprocal matrix:
    (-1)^(j-1) * C(p^lam - j, i - j) mod p, defined for 1 <= j <= i.
    The scalar reference for ``gmatrix.build_g_direct``."""
    n = p**lam
    if not 1 <= j <= i <= n:
        raise ValueError(f"need 1 <= j <= i <= {n}, got i={i}, j={j}")
    val = binom_mod_p(n - j, i - j, p)
    return val if j % 2 == 1 else (-val) % p
