"""Triangular reciprocal matrices over F_p.

The square matrix of order p^lam whose (i, j) entry is
``(-1)^(j-1) * C(p^lam - j, i - j)`` encodes the coefficient action of
``b(x) -> x^(-1) b(x^(-1))`` on the (x-1)-adic basis of
``F[x]/((x-1)^(p^lam))``.  This module builds it two independent ways
(entry formula vs. Kronecker recursion), truncates it to leading l x l
blocks, and slices out the odd-indexed columns of ``G_l + I_l`` whose
truncations span the fixed-point spaces of the transform
(``_solution_basis``, the one place those columns are cut).  The
Kronecker route is a row kernel, ``_g_rows``, that yields the leading
rows and columns a block of rows at a time, so a caller that consumes
the rows as they come never holds the whole matrix.

Matrices and solution bases are plain read-only ``int64`` arrays with
entries reduced into ``[0, p)``.
"""

from __future__ import annotations

from functools import lru_cache

from ._numpy import np
from .binomial import _binom_grid
from .counting import column_index_range
from .fieldcore import is_prime

# Hard stop for p^lam; full enumeration is long infeasible before this.
SIZE_CAP = 2048
# The row kernel yields at most this many rows at a time.
MATRIX_BLOCK_ROWS = 64


def _checked_order(p: int, lam: int) -> int:
    if p < 3 or not is_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")
    if lam < 0:
        raise ValueError(f"level must be >= 0, got {lam}")
    # p >= 3, so every level from the cap's bit length on exceeds it; the
    # power is built only below that level.
    n = p**lam if lam < SIZE_CAP.bit_length() else None
    if n is None or n > SIZE_CAP:
        raise ValueError(f"p**lam = {n or f'{p}**{lam}'} exceeds size cap {SIZE_CAP}")
    return n


def build_g_direct(p: int, lam: int) -> np.ndarray:
    """Order-p^lam reciprocal matrix straight from the entry formula of
    ``binomial.g_entry``, all entries at once.  Entry (i, j) is
    C(n - j, (i - j) mod n) with the sign (-1)^(j-1): above the diagonal
    (i - j) mod n = n + i - j exceeds n - j, so the binomial is 0 there."""
    n = _checked_order(p, lam)
    idx = np.arange(1, n + 1, dtype=np.int32)
    arr = _binom_grid(p, n - idx[None, :], (idx[:, None] - idx[None, :]) % n, max(lam, 1))
    arr[:, 1::2] = (p - arr[:, 1::2]) % p
    arr.setflags(write=False)
    return arr


def _g_rows(p: int, lam: int, size: int):
    """Yields ``(start, block)``: rows ``start`` to ``start + len(block)``
    of the leading ``size x size`` part of G_(p^lam), at most
    ``MATRIX_BLOCK_ROWS`` rows a block, as fresh writable int64 residues.
    The arguments must have passed ``_checked_order``, with
    ``size <= p^lam``.  At lam = 1 a block is one gather from the Pascal
    table and a sign mask.  Above, G_(p^lam) = G_p (x) G_(p^(lam-1)), so
    a block within the rows of one top digit t is
    ``G_p[t] (x) G_(p^(lam-1))[rows]``, with the small factor read from
    the cache of full matrices."""
    if lam == 0:
        yield 0, np.ones((1, 1), dtype=np.int64)
        return
    n = p**lam
    if lam == 1:
        cols = np.arange(size)
        for start in range(0, size, MATRIX_BLOCK_ROWS):
            rows = np.arange(start, min(start + MATRIX_BLOCK_ROWS, size))
            # entry (i, j), 0-based: (-1)^j C(n - 1 - j, (i - j) mod n), where
            # a negative i - j reads the table at i - j + n, as numpy indexes
            block = _binom_grid(p, n - 1 - cols, rows[:, None] - cols, 1)
            odd = block[:, 1::2]
            np.subtract(p, odd, out=odd, where=odd != 0)
            yield start, block
        return
    g_p = _g_full(p, 1)
    inner = _g_full(p, lam - 1)
    m = n // p
    digits = -(-size // m)  # top digits of the columns kept
    start = 0
    while start < size:
        t, r = divmod(start, m)
        stop = min(start + MATRIX_BLOCK_ROWS, size, (t + 1) * m)
        block = np.kron(g_p[t, :digits], inner[r : r + stop - start]) % p
        yield start, block[:, :size]
        start = stop


def build_g_kron(p: int, lam: int) -> np.ndarray:
    """Order-p^lam reciprocal matrix as the Kronecker power of the
    order-p one, filled block by block from ``_g_rows``; equals
    :func:`build_g_direct` entrywise."""
    n = _checked_order(p, lam)
    out = np.empty((n, n), dtype=np.int64)
    for start, block in _g_rows(p, lam, n):
        out[start : start + len(block)] = block
    out.setflags(write=False)
    return out


def min_level(p: int, l: int) -> int:
    """Least lam >= 1 with l <= p^lam."""
    if p < 2:
        raise ValueError(f"p must be an odd prime, got {p}")
    if l < 1:
        raise ValueError(f"length must be >= 1, got {l}")
    lam, n = 1, p
    while n < l:
        lam += 1
        n *= p
    return lam


# Every level one length under the size cap uses (3^6 <= 2048 < 3^7), so
# a stream never builds a level twice.
@lru_cache(maxsize=6)
def _g_full(p: int, lam: int) -> np.ndarray:
    """The full order-p^lam matrix, built once per level."""
    return build_g_kron(p, lam)


# Each entry is a view that keeps its full matrix alive, so this cache is
# bounded too: bounding ``_g_full`` alone would free nothing.
@lru_cache(maxsize=6)
def g_truncated(p: int, l: int) -> np.ndarray:
    """G_l: the l x l truncation of the minimal covering reciprocal matrix
    (lam recomputed as the least level with l <= p^lam).  Cached; every
    truncation is a read-only view of the one full matrix of its level."""
    return _g_full(p, min_level(p, l))[:l, :l]


def _solution_basis(p: int, l: int, delta: int) -> np.ndarray:
    """Rows delta+1..l of the odd columns 2j-1 of G_l + I_l (1-indexed),
    for every j of ``column_index_range(l, delta)``, as the columns of a
    read-only (l - delta) x dim array.  The identity adds 1 where column
    2j-1 meets its own row, which is always at or below row delta+1."""
    if not 0 <= delta < l:
        raise ValueError(f"need 0 <= delta < l, got delta={delta}, l={l}")
    g = g_truncated(p, l)  # refuses l above the size cap before any allocation
    jmin, jmax = column_index_range(l, delta)
    cols = np.arange(2 * jmin - 2, 2 * jmax - 1, 2)  # 0-based 2j-2
    out = g[delta:, cols]
    diag = cols - delta, np.arange(len(cols))
    out[diag] = (out[diag] + 1) % p
    out.setflags(write=False)
    return out


def solution_column(p: int, l: int, j: int, delta: int = 0) -> np.ndarray:
    """Rows delta+1..l of column 2j-1 of G_l + I_l: column j - jmin of
    the solution basis, read-only."""
    basis = _solution_basis(p, l, delta)
    jmin, jmax = column_index_range(l, delta)
    if not jmin <= j <= jmax:
        raise ValueError(f"need {jmin} <= j <= {jmax} for delta={delta}, l={l}, got j={j}")
    return basis[:, j - jmin]
