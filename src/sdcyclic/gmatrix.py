"""Triangular reciprocal matrices over F_p.

The square matrix of order p^lam whose (i, j) entry is
``(-1)^(j-1) * C(p^lam - j, i - j)`` encodes the coefficient action of
``b(x) -> x^(-1) b(x^(-1))`` on the (x-1)-adic basis of
``F[x]/((x-1)^(p^lam))``.  This module builds it three independent ways:
from the entry formula (``build_g_direct``), as the Kronecker power of the
order-p matrix (``build_g_kron``, the paper's construction), and from
signed Pascal rows (the row kernel ``_g_rows``, which the printer and the
truncations read).  It also slices out the odd-indexed columns of
``G_l + I_l`` whose truncations span the fixed-point spaces of the
transform (``_solution_basis``, the one place those columns are cut).

The row kernel rests on one identity.  In 0-based indices the entry is
``(-1)^j C(p^lam - 1 - j, i - j)``, and by Lucas's theorem
``C(p^lam - 1 - j, i - j) = (-1)^(i-j) C(i, j) mod p``, so
``G[i, j] = (-1)^i C(i, j) mod p`` at every level: row i is the i-th row
of Pascal's triangle mod p, negated when i is odd, and the level only
fixes the order.

Matrices and solution bases are tuples of row tuples of residues in
``[0, p)``.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain

from .counting import column_index_range
from .fieldcore import _unpack, is_prime

# Hard stop for p^lam; full enumeration is long infeasible before this.
SIZE_CAP = 2048
# The row kernel yields at most this many rows at a time.
MATRIX_BLOCK_ROWS = 64
# Bytes per entry of a packed kernel row; 2^15 > SIZE_CAP >= p.
ROW_SLOT_BYTES = 2


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


def build_g_direct(p: int, lam: int) -> tuple[tuple[int, ...], ...]:
    """Order-p^lam reciprocal matrix straight from the entry formula of
    ``binomial.g_entry``, one Lucas product per entry on or below the
    diagonal; the entries above it are 0."""
    from .binomial import _lucas

    n = _checked_order(p, lam)
    rows = []
    for i in range(n):  # 0-based: (-1)^j C(n - 1 - j, i - j)
        row = [_lucas(n - 1 - j, i - j, p) for j in range(i + 1)]
        row[1::2] = [(p - v) % p for v in row[1::2]]
        rows.append(tuple(row) + (0,) * (n - 1 - i))
    return tuple(rows)


class _Slots:
    """Per-slot constants for rows of ``size`` entries mod p packed in
    ``width``-byte slots (``fieldcore._pack``), with p <= 2^(8 width - 1)."""

    def __init__(self, p: int, size: int, width: int):
        bits = 8 * width
        ones = ((1 << bits * size) - 1) // ((1 << bits) - 1)
        self.p, self.bits = p, bits
        self.all_p = p * ones
        self.high = ones << bits - 1
        self.bias = ((1 << bits - 1) - p) * ones

    def reduce(self, x: int) -> int:
        """x with every slot in [0, 2p) brought into [0, p): the slots at
        or above p reach the top bit of the slot once biased by 2^(b-1) - p,
        and lose one p."""
        return x - (((x + self.bias) & self.high) >> self.bits - 1) * self.p

    def negate(self, x: int) -> int:
        return self.reduce(self.all_p - x)


def _power_rows(p: int, size: int, width: int, sign: int):
    """Yields (x + sign)^e mod p for e = 0, 1, ..., size - 1, each as its
    ``size`` coefficients, low degree first, in packed ``width``-byte
    slots: each from the one before by one shift-add and one reduction.
    Needs p <= 2^(8 width - 1)."""
    slots = _Slots(p, size, width)
    row = 1
    for e in range(size):
        yield row
        if e + 1 < size:
            shifted = row << slots.bits
            row = slots.reduce(shifted + row if sign == 1 else shifted + slots.all_p - row)


def _g_rows(p: int, size: int, shift: int = 0):
    """Yields ``(start, block)``: rows ``start`` to ``start + len(block)``
    of the leading ``size x size`` part of every G_(p^lam) with
    ``size <= p^lam``, plus ``shift`` times the identity, at most
    ``MATRIX_BLOCK_ROWS`` rows a block, as a list of packed rows in
    ``ROW_SLOT_BYTES``-byte slots: Pascal's rows mod p, the odd ones
    negated.  The arguments must have passed ``_checked_order``."""
    slots = _Slots(p, size, ROW_SLOT_BYTES)
    block: list[int] = []
    for i, row in enumerate(_power_rows(p, size, ROW_SLOT_BYTES, 1)):
        diag = p - 1 if i % 2 else 1  # (-1)^i
        if i % 2:
            row = slots.negate(row)
        block.append(row + (((diag + shift) % p - diag) << 8 * ROW_SLOT_BYTES * i))
        if len(block) == MATRIX_BLOCK_ROWS or i == size - 1:
            yield i + 1 - len(block), block
            block = []


def build_g_kron(p: int, lam: int) -> tuple[tuple[int, ...], ...]:
    """Order-p^lam reciprocal matrix as the Kronecker power of the
    order-p one, G_(p^lam) = G_p (x) G_(p^(lam-1)); equals
    :func:`build_g_direct` entrywise."""
    n = _checked_order(p, lam)
    g_p = g_truncated(p, p) if lam else ()
    out: tuple[tuple[int, ...], ...] = ((1,),)
    while len(out) < n:
        # every multiple c * row of the inner matrix, c < p, once
        scaled = [tuple(tuple(c * v % p for v in row) for row in out) for c in range(p)]
        out = tuple(
            tuple(chain.from_iterable(scaled[c][r] for c in top)) for top in g_p for r in range(len(out))
        )
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


# Each entry holds l^2 pointers, 33 MB at l = 2038.
@lru_cache(maxsize=2)
def g_truncated(p: int, l: int) -> tuple[tuple[int, ...], ...]:
    """G_l: the l x l truncation of the minimal covering reciprocal matrix
    (lam recomputed as the least level with l <= p^lam), which is the
    leading l x l block of every level, read from the row kernel.  Every
    entry is the one int object of its residue, so the matrix holds
    pointers, not ints: below 257 every residue is a cached small int
    already, above it entries are read through a table of the p ints.
    Cached."""
    _checked_order(p, min_level(p, l))
    rows = (_unpack(row, l, ROW_SLOT_BYTES) for _, block in _g_rows(p, l) for row in block)
    if p > 257:
        residues = tuple(range(p))
        rows = (map(residues.__getitem__, row) for row in rows)
    return tuple(map(tuple, rows))


def _solution_basis(p: int, l: int, delta: int) -> tuple[tuple[int, ...], ...]:
    """Rows delta+1..l of the odd columns 2j-1 of G_l + I_l (1-indexed),
    for every j of ``column_index_range(l, delta)``, as the columns of an
    (l - delta) x dim matrix.  The identity adds 1 where column 2j-1
    meets its own row, which is always at or below row delta+1."""
    if not 0 <= delta < l:
        raise ValueError(f"need 0 <= delta < l, got delta={delta}, l={l}")
    # G_l is the leading block of the whole level, which every family of
    # the level shares; the cap is checked before any allocation
    g = g_truncated(p, p ** min_level(p, l))
    jmin, jmax = column_index_range(l, delta)
    first, stop = 2 * jmin - 2, 2 * jmax - 1  # 0-based 2j-2
    rows = [row[first:stop:2] for row in g[delta:l]]
    for j, r in enumerate(range(first - delta, stop - delta, 2)):
        row = rows[r]
        rows[r] = row[:j] + ((row[j] + 1) % p,) + row[j + 1 :]
    return tuple(rows)


def solution_column(p: int, l: int, j: int, delta: int = 0) -> tuple[int, ...]:
    """Rows delta+1..l of column 2j-1 of G_l + I_l: column j - jmin of
    the solution basis."""
    basis = _solution_basis(p, l, delta)
    jmin, jmax = column_index_range(l, delta)
    if not jmin <= j <= jmax:
        raise ValueError(f"need {jmin} <= j <= {jmax} for delta={delta}, l={l}, got j={j}")
    return tuple(row[j - jmin] for row in basis)
