"""Test oracles: independent reference code that no production path uses.

* The scalar layer of R = F_q + uF_q (``r_add``, ``r_mul``, ...) and the
  Euclidean ``inner_product``, for duals by brute force at the smallest
  sizes.
* The dense verifier: every shift of each generator and of u times it,
  as 2N-dimensional (a | b) rows over F_{p^m} (``orbit_rows``),
  row-reduced exactly (``rref``).  Its reduced basis, ``canonical_form``,
  is the distinctness key of code sets, and the number of rows it keeps
  is the rank of a matrix over F_p (``rref_rank``).
* The reciprocal map twice: as the truncated matrix times the
  coefficient column (``reciprocal_transform``) and by raw polynomial
  arithmetic that never touches a matrix (``reciprocal_oracle``), with
  the fixed-point test ``is_solution`` and the brute-force
  ``kernel_oracle``.
* The solution basis cut one column at a time from the entry-formula
  matrix (``solution_columns_oracle``), every element of the span of a
  solution basis (``iter_span``), and the whole ``gmatrix`` text or json
  as one string (``matrix_text``, ``matrix_json``).
* The change of basis between (x-1)-adic and standard coefficients as a
  dense matrix of ``math.comb`` values (``change_of_basis``).

The library returns matrices as tuples of row tuples; the oracles read
them through ``np.asarray``.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Iterator

import numpy as np

from sdcyclic import (
    FieldSpec,
    FqElem,
    RElem,
    RIdealGens,
    RVector,
    XPoly,
    basis_convert,
    build_g_direct,
    cli,
    find_irreducible,
    g_truncated,
    min_level,
)
from sdcyclic.gmatrix import MATRIX_BLOCK_ROWS
from sdcyclic.reciprocal import STD_TO_XM1, XM1_TO_STD


def to_array(coeffs) -> np.ndarray:
    """Field-element tuples as an (n, m) int64 array."""
    return np.array(coeffs, dtype=np.int64).reshape(len(coeffs), -1)


def from_array(arr: np.ndarray) -> tuple[FqElem, ...]:
    return tuple(map(tuple, arr.tolist()))


def reduction_rows(field: FieldSpec) -> np.ndarray:
    """(2m-1, m) matrix expressing x^d mod the field modulus, d < 2m-1."""
    m = field.m
    rows = np.zeros((2 * m - 1, m), dtype=np.int64)
    rows[:m] = np.eye(m, dtype=np.int64)
    for t, red in enumerate(field.reduction):
        rows[m + t] = red
    return rows


def check_int64(gens: RIdealGens) -> None:
    """Refuse sizes whose products would overflow the int64 arrays of
    the dense oracle: no entry of any product exceeds n*m*(p-1)^2."""
    field = gens.field
    bound = gens.n * field.m * (field.p - 1) ** 2
    if bound >= 2**63:
        raise ValueError(
            f"verifier sums reach n*m*(p-1)^2 = {bound}, beyond int64 (n={gens.n}, p={field.p}, m={field.m})"
        )

# ---------------------------------------------------------------------------
# Scalar arithmetic in R: an element a + u*b is the pair (a, b).


def r_add(field: FieldSpec, x: RElem, y: RElem) -> RElem:
    return (field.add(x[0], y[0]), field.add(x[1], y[1]))


def r_neg(field: FieldSpec, x: RElem) -> RElem:
    return (field.neg(x[0]), field.neg(x[1]))


def r_mul(field: FieldSpec, x: RElem, y: RElem) -> RElem:
    """(a + ub)(c + ud) = ac + u(ad + bc)."""
    a, b = x
    c, d = y
    return (
        field.mul(a, c),
        field.add(field.mul(a, d), field.mul(b, c)),
    )


def r_scale(field: FieldSpec, c: RElem, vec: RVector) -> RVector:
    return tuple(r_mul(field, c, v) for v in vec)


def inner_product(field: FieldSpec, xs: RVector, ys: RVector) -> RElem:
    """Euclidean inner product sum(x_i * y_i) in R."""
    if len(xs) != len(ys):
        raise ValueError(f"length mismatch: {len(xs)} vs {len(ys)}")
    acc = (field.zero(), field.zero())
    for x, y in zip(xs, ys):
        acc = r_add(field, acc, r_mul(field, x, y))
    return acc


# ---------------------------------------------------------------------------
# The dense verifier.  Arrays of field elements have the coefficient axis
# last: shape (..., m) of int64 residues.


def mul_arrays(field: FieldSpec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Broadcast elementwise field product; shapes (.., m) x (.., m)."""
    p, m = field.p, field.m
    if m == 1:
        return (a * b) % p
    shape = np.broadcast_shapes(a.shape[:-1], b.shape[:-1])
    conv = np.zeros(shape + (2 * m - 1,), dtype=np.int64)
    for i in range(m):
        for j in range(m):
            conv[..., i + j] += a[..., i] * b[..., j]
    return (conv % p) @ reduction_rows(field) % p


def orbit_rows(gens: RIdealGens) -> np.ndarray:
    """All shifts of every generator and of u times it, split into the
    (a | b) coordinates: shape (rows, 2N, m).  Row 2i of a generator's
    block is x^i g, row 2i+1 is u x^i g; entries that wrapped past x^N
    pick up the ring sign."""
    n, sign, p = gens.n, gens.ring_sign, gens.field.p
    pos = np.arange(n)
    source = (pos[None, :] - pos[:, None]) % n  # [shift i, position j] -> j - i
    wrapped = pos[None, :] < pos[:, None]
    blocks = []
    for g in gens.generators:
        ab = np.array(g, dtype=np.int64)  # (N, 2, m)
        a, b = ab[:, 0], ab[:, 1]
        sa, sb = a[source], b[source]
        if sign == -1:
            sa[wrapped] = (-sa[wrapped]) % p
            sb[wrapped] = (-sb[wrapped]) % p
        top = np.concatenate([sa, sb], axis=1)
        bottom = np.concatenate([np.zeros_like(sa), sa], axis=1)
        blocks.append(np.stack([top, bottom], axis=1).reshape(2 * n, 2 * n, -1))
    return np.concatenate(blocks)


def rref(field: FieldSpec, rows: np.ndarray) -> np.ndarray:
    """Reduced row echelon form over F_{p^m}; returns the nonzero rows,
    pivots normalized to 1 and ordered by column."""
    rows = rows.copy()
    p = field.p
    nrows, ncols = rows.shape[0], rows.shape[1]
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        hits = np.nonzero(rows[r:, c, :].any(axis=1))[0]
        if hits.size == 0:
            continue
        pr = hits[0] + r
        if pr != r:
            rows[[r, pr]] = rows[[pr, r]]
        inv = np.array(field.inv(tuple(int(v) for v in rows[r, c])), dtype=np.int64)
        rows[r] = mul_arrays(field, rows[r], inv)
        others = np.nonzero(rows[:, c, :].any(axis=1))[0]
        others = others[others != r]
        if others.size:
            factors = rows[others, c, :]
            delta = mul_arrays(field, factors[:, None, :], rows[r][None, :, :])
            rows[others] = (rows[others] - delta) % p
        r += 1
    return rows[:r]


def rref_rank(p: int, mat: np.ndarray) -> int:
    """Rank over F_p of an integer matrix: the number of rows ``rref``
    keeps of its residues."""
    return rref(find_irreducible(p, 1), (mat % p)[:, :, None]).shape[0]


def canonical_form(gens: RIdealGens) -> tuple[tuple[FqElem, ...], ...]:
    """The reduced row-echelon basis of the 2N-dimensional expansion,
    as nested tuples.  Equal ideals give identical forms, so this is the
    distinctness key for code sets.  Refuses, like the verifier, sizes
    whose products would overflow int64."""
    check_int64(gens)
    red = rref(gens.field, orbit_rows(gens))
    return tuple(tuple(tuple(int(v) for v in entry) for entry in row) for row in red.tolist())


# ---------------------------------------------------------------------------
# The reciprocal map b(x) -> x^(-1) b(x^(-1)) mod (x-1)^l and its kernel.


def reciprocal_transform(b: XPoly) -> XPoly:
    """Coefficients of x^(-1) b(x^(-1)) mod (x-1)^l: the truncated
    reciprocal matrix applied to the coefficient column."""
    if b.l == 0:
        return b
    g = np.asarray(g_truncated(b.field.p, b.l))
    out = (g @ to_array(b.coeffs)) % b.field.p
    return XPoly(b.field, b.l, from_array(out))


def reciprocal_oracle(b: XPoly) -> XPoly:
    """Same map by direct polynomial arithmetic, independent of any
    matrix: convert to the standard basis inside F[x]/(x^n - 1) for
    n = p^lam, substitute x -> x^(n-1), multiply by x^(n-1), reduce
    mod (x-1)^l, convert back."""
    field, l = b.field, b.l
    if l == 0:
        return b
    n = field.p ** min_level(field.p, l)
    std = list(basis_convert(field, b.coeffs, XM1_TO_STD))
    std += [field.zero()] * (n - l)
    out = [field.zero()] * n
    for j, c in enumerate(std):
        if any(c):
            # x^j -> x^(j(n-1)), then the extra factor x^(n-1)
            t = ((j + 1) * (n - 1)) % n
            out[t] = field.add(out[t], c)
    back = basis_convert(field, out, STD_TO_XM1)
    return XPoly(field, l, back[:l])


def is_solution(b: XPoly, delta: int = 0) -> bool:
    """True iff b is fixed by the reciprocal transform, i.e.
    (G_l - I_l) B_l = 0, and its first delta coefficients vanish."""
    if any(any(c) for c in b.coeffs[:delta]):
        return False
    if b.l == 0:
        return True
    g = np.asarray(g_truncated(b.field.p, b.l))
    v = to_array(b.coeffs)
    return not (((g @ v) - v) % b.field.p).any()


def kernel_oracle(field: FieldSpec, l: int, guard: int = 10_000_000) -> list[tuple[FqElem, ...]]:
    """All B in F_{p^m}^l with (G_l - I_l) B = 0, found by exhausting
    every candidate vector; refuses searches beyond ``guard``
    candidates."""
    total = field.order**l
    if total > guard:
        raise ValueError(f"{total} candidates exceeds the oracle guard {guard}")
    g = np.asarray(g_truncated(field.p, l))
    gmi = (g - np.eye(l, dtype=np.int64)) % field.p
    out = []
    for combo in itertools.product(field.elements(), repeat=l):
        v = np.array(combo, dtype=np.int64)
        if not ((gmi @ v) % field.p).any():
            out.append(combo)
    return out


def iter_span(field: FieldSpec, basis) -> Iterator[tuple[FqElem, ...]]:
    """Every element of the span over ``field`` of the columns of a
    solution basis, parameters in lexicographic order; only the zero
    vector when the basis has no columns."""
    basis = np.asarray(basis, dtype=np.int64)
    for combo in itertools.product(field.elements(), repeat=basis.shape[1]):
        yield span_element(field, basis, combo)


def span_element(field: FieldSpec, basis, params) -> tuple[FqElem, ...]:
    """sum(params[t] * column t of ``basis``) over ``field``."""
    basis = np.asarray(basis, dtype=np.int64)
    arr = np.array(params, dtype=np.int64).reshape(basis.shape[1], field.m)
    return from_array(basis @ arr % field.p)


@functools.lru_cache(maxsize=2)
def _direct(p: int, lam: int) -> np.ndarray:
    return np.asarray(build_g_direct(p, lam))


def solution_columns_oracle(p: int, l: int, delta: int) -> np.ndarray:
    """The solution basis of (l, delta) one column at a time, from the
    entry-formula matrix: for each odd 1-indexed column c of G_l with
    delta < c <= l, rows delta+1..l of column c of ``build_g_direct``
    plus 1 on row c (the identity of G_l + I_l), mod p.  Returns the
    columns side by side, an (l - delta) x dim array."""
    g = _direct(p, min_level(p, l))
    columns = []
    for c in range(1, l + 1, 2):
        if c > delta:
            col = g[delta:l, c - 1].copy()
            col[c - 1 - delta] = (col[c - 1 - delta] + 1) % p
            columns.append(col)
    return np.array(columns, dtype=np.int64).reshape(len(columns), l - delta).T


@functools.lru_cache(maxsize=1)
def _comb_rows(n: int) -> tuple[tuple[int, ...], ...]:
    """Exact C(i, j) for 0 <= i, j < n, from ``math.comb``."""
    return tuple(tuple(math.comb(i, j) for j in range(n)) for i in range(n))


def change_of_basis(p: int, n: int, direction: str, top: int = 729) -> np.ndarray:
    """The n x n matrix of ``basis_convert`` on coefficient columns,
    entry by entry from ``math.comb`` (n <= top): (x-1)^j =
    sum_i C(j, i) (-1)^(j-i) x^i for 'xm1_to_std', x^j = sum_i C(j, i)
    (x-1)^i for 'std_to_xm1'."""
    sign = -1 if direction == XM1_TO_STD else 1
    comb = _comb_rows(top)
    mat = [[comb[j][i] * sign ** ((j - i) % 2) % p for j in range(n)] for i in range(n)]
    return np.array(mat, dtype=np.int64)


# ---------------------------------------------------------------------------
# gmatrix output as one string


def pack_row(row) -> int:
    """A row of residues in the 2-byte slots the gmatrix renderer reads."""
    return int.from_bytes(np.asarray(row, dtype="<u2").tobytes(), "little")


def _chunks(p: int, mat, fmt: str) -> Iterator[str]:
    """``mat``, residues mod p, through the gmatrix renderer, in blocks
    of the rows the row kernel yields at a time."""
    mat = np.asarray(mat)
    step = MATRIX_BLOCK_ROWS
    rows, cols = mat.shape
    blocks = ([pack_row(row) for row in mat[start : start + step]] for start in range(0, rows, step))
    return cli._matrix_chunks(p, rows, cols, blocks, fmt)


def matrix_text(p: int, mat) -> str:
    return "".join(_chunks(p, mat, "text"))


def matrix_json(p: int, mat) -> str:
    return "".join(_chunks(p, mat, "json"))
