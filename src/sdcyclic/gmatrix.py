"""Triangular reciprocal matrices over F_p.

The square matrix of order p^lam whose (i, j) entry is
``(-1)^(j-1) * C(p^lam - j, i - j)`` encodes the coefficient action of
``b(x) -> x^(-1) b(x^(-1))`` on the (x-1)-adic basis of
``F[x]/((x-1)^(p^lam))``.  This module builds it two independent ways
(entry formula vs. Kronecker recursion), truncates it to leading l x l
blocks, and slices out the odd-indexed columns of ``G_l + I_l`` whose
truncations span the fixed-point spaces of the transform.  The
Kronecker route is a row kernel, ``_g_rows``, that yields the leading
rows and columns a block of rows at a time, so a caller that consumes
the rows as they come never holds the whole matrix.

Matrices are dense ``int64`` arrays with entries reduced into ``[0, p)``
and are immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from ._numpy import np
from .binomial import _binom_grid
from .fieldcore import is_prime

# Hard stop for p^lam; full enumeration is long infeasible before this.
DEFAULT_SIZE_CAP = 2048
# The row kernel yields at most this many rows at a time.
MATRIX_BLOCK_ROWS = 64


class MatrixFp:
    """Dense matrix over F_p; entries are int64 residues in [0, p)."""

    __slots__ = ("p", "data")

    def __init__(self, p: int, data):
        if p < 2 or not is_prime(p):
            raise ValueError(f"characteristic must be prime, got {p}")
        arr = np.array(data, dtype=np.int64)
        if arr.ndim != 2:
            raise ValueError(f"matrix data must be 2-dimensional, got shape {arr.shape}")
        arr %= p
        arr.setflags(write=False)
        self.p = p
        self.data = arr

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    @classmethod
    def _view(cls, p: int, arr: np.ndarray) -> "MatrixFp":
        """Wrap a read-only array of residues already in [0, p) without
        copying it."""
        out = cls.__new__(cls)
        out.p = p
        out.data = arr
        return out

    @classmethod
    def identity(cls, p: int, n: int) -> "MatrixFp":
        return cls(p, np.eye(n, dtype=np.int64))

    def _check_compatible(self, other: "MatrixFp") -> None:
        if not isinstance(other, MatrixFp):
            raise TypeError(f"expected MatrixFp, got {type(other).__name__}")
        if self.p != other.p:
            raise ValueError(f"mismatched characteristic: {self.p} vs {other.p}")

    def __add__(self, other: "MatrixFp") -> "MatrixFp":
        self._check_compatible(other)
        return MatrixFp(self.p, self.data + other.data)

    def __sub__(self, other: "MatrixFp") -> "MatrixFp":
        self._check_compatible(other)
        return MatrixFp(self.p, self.data - other.data)

    def __matmul__(self, other: "MatrixFp") -> "MatrixFp":
        self._check_compatible(other)
        return MatrixFp(self.p, self.data @ other.data)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, MatrixFp)
            and self.p == other.p
            and self.data.shape == other.data.shape
            and bool(np.array_equal(self.data, other.data))
        )

    __hash__ = None  # mutable-size payload; not meant for hashing

    def __repr__(self) -> str:
        return f"MatrixFp(p={self.p}, shape={self.data.shape})"


def _checked_order(p: int, lam: int, cap: int = DEFAULT_SIZE_CAP) -> int:
    if p < 3 or not is_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")
    if lam < 0:
        raise ValueError(f"level must be >= 0, got {lam}")
    n = p**lam
    if n > cap:
        raise ValueError(f"p**lam = {n} exceeds size cap {cap}")
    return n


def build_g_direct(p: int, lam: int, cap: int = DEFAULT_SIZE_CAP) -> MatrixFp:
    """Order-p^lam reciprocal matrix straight from the entry formula of
    ``binomial.g_entry``, all entries at once.  Entry (i, j) is
    C(n - j, (i - j) mod n) with the sign (-1)^(j-1): above the diagonal
    (i - j) mod n = n + i - j exceeds n - j, so the binomial is 0 there."""
    n = _checked_order(p, lam, cap)
    idx = np.arange(1, n + 1, dtype=np.int32)
    arr = _binom_grid(p, n - idx[None, :], (idx[:, None] - idx[None, :]) % n, max(lam, 1))
    arr[:, 1::2] = (p - arr[:, 1::2]) % p
    arr.setflags(write=False)
    return MatrixFp._view(p, arr)


def kron(a: MatrixFp, b: MatrixFp) -> MatrixFp:
    """Kronecker product: the block matrix (a_ij * b)."""
    a._check_compatible(b)
    return MatrixFp(a.p, np.kron(a.data, b.data))


def _g_rows(p: int, lam: int, size: int, cap: int = DEFAULT_SIZE_CAP):
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
            # entry (i, j), 0-based: (-1)^j C(n - 1 - j, (i - j) mod n)
            block = _binom_grid(p, n - 1 - cols, (rows[:, None] - cols) % n, 1)
            block[:, 1::2] = (p - block[:, 1::2]) % p
            yield start, block
        return
    g_p = _g_full(p, 1, cap).data
    inner = _g_full(p, lam - 1, cap).data
    m = n // p
    digits = -(-size // m)  # top digits of the columns kept
    start = 0
    while start < size:
        t, r = divmod(start, m)
        stop = min(start + MATRIX_BLOCK_ROWS, size, (t + 1) * m)
        block = np.kron(g_p[t, :digits], inner[r : r + stop - start]) % p
        yield start, block[:, :size]
        start = stop


def build_g_kron(p: int, lam: int, cap: int = DEFAULT_SIZE_CAP) -> MatrixFp:
    """Order-p^lam reciprocal matrix as the Kronecker power of the
    order-p one, filled block by block from ``_g_rows``; equals
    :func:`build_g_direct` entrywise."""
    n = _checked_order(p, lam, cap)
    out = np.empty((n, n), dtype=np.int64)
    for start, block in _g_rows(p, lam, n, cap):
        out[start : start + len(block)] = block
    out.setflags(write=False)
    return MatrixFp._view(p, out)


def truncate_g(g: MatrixFp, l: int) -> MatrixFp:
    """Upper-left l x l block, as a read-only view of ``g``;
    lower-triangularity is preserved."""
    if g.rows != g.cols:
        raise ValueError("truncation requires a square matrix")
    if not 1 <= l <= g.rows:
        raise ValueError(f"need 1 <= l <= {g.rows}, got {l}")
    return MatrixFp._view(g.p, g.data[:l, :l])


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
def _g_full(p: int, lam: int, cap: int) -> MatrixFp:
    """The full order-p^lam matrix, built once per level."""
    return build_g_kron(p, lam, cap=cap)


# Each entry is a view that keeps its full matrix alive, so this cache is
# bounded too: bounding ``_g_full`` alone would free nothing.
@lru_cache(maxsize=6)
def g_truncated(p: int, l: int, cap: int = DEFAULT_SIZE_CAP) -> MatrixFp:
    """G_l: the l x l truncation of the minimal covering reciprocal matrix
    (lam recomputed as the least level with l <= p^lam).  Cached; every
    truncation is a read-only view of the one full matrix of its level."""
    return truncate_g(_g_full(p, min_level(p, l), cap), l)


@dataclass(frozen=True)
class SolutionColumn:
    """One odd-indexed column of G_l + I_l, restricted to rows
    delta+1..l (1-indexed).  These slices are the basis vectors of the
    truncated fixed-point spaces of the reciprocal transform.

    values: the F_p residues, length l - delta.
    source_index: the odd column index 2j - 1 it was cut from.
    delta: truncation offset (0 when untruncated).
    l: ambient matrix size.
    """

    values: tuple[int, ...]
    source_index: int
    delta: int
    l: int

    def __post_init__(self):
        if len(self.values) != self.l - self.delta:
            raise ValueError("column slice has wrong length")
        if self.source_index % 2 != 1 or not 1 <= self.source_index <= self.l:
            raise ValueError(f"source index must be odd in [1, {self.l}], got {self.source_index}")


def column_index_range(l: int, delta: int) -> tuple[int, int]:
    """Inclusive j-range of the valid odd columns 2j-1 for a given
    truncation: ceil(delta/2) + 1 <= j <= ceil(l/2)."""
    return (delta + 1) // 2 + 1, (l + 1) // 2


def solution_column(g_l: MatrixFp, j: int, delta: int = 0) -> SolutionColumn:
    """Rows delta+1..l of column 2j-1 of G_l + I_l."""
    if g_l.rows != g_l.cols:
        raise ValueError("expected the square truncated matrix G_l")
    l = g_l.rows
    if not 0 <= delta < l:
        raise ValueError(f"need 0 <= delta < {l}, got {delta}")
    jmin, jmax = column_index_range(l, delta)
    if not jmin <= j <= jmax:
        raise ValueError(f"need {jmin} <= j <= {jmax} for delta={delta}, l={l}, got j={j}")
    col = 2 * j - 1
    vals = g_l.data[delta:, col - 1].copy()
    # the identity contribution lands on the diagonal row, always >= delta+1
    vals[col - 1 - delta] = (vals[col - 1 - delta] + 1) % g_l.p
    return SolutionColumn(tuple(vals.tolist()), col, delta, l)
