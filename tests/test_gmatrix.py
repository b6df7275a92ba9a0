import random

import numpy as np
import pytest

from sdcyclic import (
    MatrixFp,
    build_g_direct,
    build_g_kron,
    g_entry,
    g_truncated,
    kron,
    min_level,
    solution_column,
    truncate_g,
)
from sdcyclic.fieldcore import is_prime
from sdcyclic.gmatrix import MATRIX_BLOCK_ROWS, _g_rows

from oracles import rref_rank

# Reference order-3 and order-9 matrices, hand-expandable from the
# entry formula; -1 written as 2.
G3_DISPLAY = [
    [1, 0, 0],
    [2, 2, 0],
    [1, 2, 1],
]
G9_DISPLAY = [
    [1, 0, 0, 0, 0, 0, 0, 0, 0],
    [2, 2, 0, 0, 0, 0, 0, 0, 0],
    [1, 2, 1, 0, 0, 0, 0, 0, 0],
    [2, 0, 0, 2, 0, 0, 0, 0, 0],
    [1, 1, 0, 1, 1, 0, 0, 0, 0],
    [2, 1, 2, 2, 1, 2, 0, 0, 0],
    [1, 0, 0, 2, 0, 0, 1, 0, 0],
    [2, 2, 0, 1, 1, 0, 2, 2, 0],
    [1, 2, 1, 2, 1, 2, 1, 2, 1],
]
# Reference 8x8 of G_8 + I_8, the plain upper-left truncation.
G8_PLUS_I_DISPLAY = [
    [2, 0, 0, 0, 0, 0, 0, 0],
    [2, 0, 0, 0, 0, 0, 0, 0],
    [1, 2, 2, 0, 0, 0, 0, 0],
    [2, 0, 0, 0, 0, 0, 0, 0],
    [1, 1, 0, 1, 2, 0, 0, 0],
    [2, 1, 2, 2, 1, 0, 0, 0],
    [1, 0, 0, 2, 0, 0, 2, 0],
    [2, 2, 0, 1, 1, 0, 2, 0],
]


def test_golden_g3():
    assert build_g_direct(3, 1) == MatrixFp(3, G3_DISPLAY)


def test_golden_g9_both_routes():
    expected = MatrixFp(3, G9_DISPLAY)
    assert build_g_direct(3, 2) == expected
    assert build_g_kron(3, 2) == expected


def test_level_zero_is_scalar_one():
    assert build_g_direct(3, 0) == MatrixFp(3, [[1]])
    assert build_g_kron(3, 0) == MatrixFp(3, [[1]])


def test_kron_identities():
    b = MatrixFp(3, [[1, 2], [0, 1]])
    assert kron(MatrixFp(3, [[1]]), b) == b
    assert kron(MatrixFp(3, np.eye(2)), MatrixFp(3, np.eye(3))) == MatrixFp(3, np.eye(6))
    assert kron(build_g_direct(3, 1), build_g_direct(3, 1)) == MatrixFp(3, G9_DISPLAY)


def test_kron_rejects_mixed_characteristic():
    with pytest.raises(ValueError):
        kron(MatrixFp(3, [[1]]), MatrixFp(5, [[1]]))


ODD_PRIMES_BELOW_60 = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]
ENTRY_RANGE = (
    [(p, 1) for p in ODD_PRIMES_BELOW_60]
    + [(3, lam) for lam in range(6)]
    + [(5, lam) for lam in range(4)]
    + [(7, 2), (1021, 1)]
)


@pytest.mark.parametrize("p,lam", ENTRY_RANGE)
def test_direct_equals_entry_formula(p, lam):
    n = p**lam
    expected = np.zeros((n, n), dtype=np.int64)
    for i in range(1, n + 1):
        for j in range(1, i + 1):
            expected[i - 1, j - 1] = g_entry(p, lam, i, j)
    g = build_g_direct(p, lam)
    assert g.data.dtype == np.int64 and not g.data.flags.writeable
    assert np.array_equal(g.data, expected)


CONSTRUCTION_RANGE = [(3, lam) for lam in range(6)] + [(5, lam) for lam in range(4)] + [(7, lam) for lam in range(4)]


@pytest.mark.parametrize("p,lam", CONSTRUCTION_RANGE)
def test_direct_equals_kron(p, lam):
    if p**lam > 343:
        pytest.skip("beyond the cross-validation range")
    assert build_g_direct(p, lam) == build_g_kron(p, lam)


@pytest.mark.parametrize("p,lam", CONSTRUCTION_RANGE)
def test_involution(p, lam):
    if p**lam > 343:
        pytest.skip("beyond the cross-validation range")
    g = build_g_kron(p, lam)
    assert g @ g == MatrixFp.identity(p, p**lam)


@pytest.mark.parametrize("p,top", [(3, 27), (5, 25)])
def test_truncated_involution(p, top):
    for l in range(1, top + 1):
        g = g_truncated(p, l)
        assert g @ g == MatrixFp.identity(p, l)


@pytest.mark.parametrize("p", [3, 5])
def test_rank_laws(p):
    for l in range(1, 41):
        g = g_truncated(p, l)
        i = MatrixFp.identity(p, l)
        assert rref_rank(g - i) == l // 2
        assert rref_rank(g + i) == (l + 1) // 2


@pytest.mark.parametrize("p,l", [(3, 8), (3, 27), (5, 17)])
def test_annihilation(p, l):
    g = g_truncated(p, l)
    i = MatrixFp.identity(p, l)
    zero = MatrixFp(p, np.zeros((l, l), dtype=np.int64))
    assert (g - i) @ (g + i) == zero


def test_kron_mixed_product_square():
    rng = random.Random(11)
    for p in (3, 5):
        for _ in range(10):
            na, nb = rng.randint(1, 4), rng.randint(1, 4)
            a = MatrixFp(p, [[rng.randrange(p) for _ in range(na)] for _ in range(na)])
            b = MatrixFp(p, [[rng.randrange(p) for _ in range(nb)] for _ in range(nb)])
            assert kron(a, b) @ kron(a, b) == kron(a @ a, b @ b)


def test_truncations():
    g9 = build_g_kron(3, 2)
    assert truncate_g(g9, 3) == MatrixFp(3, G3_DISPLAY)
    assert truncate_g(g9, 9) == g9
    g8_plus = truncate_g(g9, 8) + MatrixFp.identity(3, 8)
    assert g8_plus == MatrixFp(3, G8_PLUS_I_DISPLAY)
    # truncation is independent of which covering power was used
    assert truncate_g(build_g_kron(3, 3), 9) == g9
    with pytest.raises(ValueError):
        truncate_g(g9, 0)
    with pytest.raises(ValueError):
        truncate_g(g9, 10)


def test_g_truncated_shares_one_full_matrix_per_level():
    g20, g25 = g_truncated(3, 20), g_truncated(3, 25)
    assert np.shares_memory(g20.data, g25.data)
    assert not g20.data.flags.writeable and not g25.data.flags.writeable
    fresh = build_g_kron(3, 3)
    assert g20 == truncate_g(fresh, 20)
    assert g25 == truncate_g(fresh, 25)


def test_min_level():
    assert min_level(3, 1) == 1
    assert min_level(3, 3) == 1
    assert min_level(3, 4) == 2
    assert min_level(3, 9) == 2
    assert min_level(3, 10) == 3
    assert min_level(5, 26) == 3


def test_rank_examples():
    g8 = g_truncated(3, 8)
    i8 = MatrixFp.identity(3, 8)
    assert rref_rank(g8 + i8) == 4
    assert rref_rank(g8 - i8) == 4
    assert rref_rank(MatrixFp.identity(3, 17)) == 17


def test_size_cap_guard():
    with pytest.raises(ValueError):
        build_g_direct(3, 7)  # 2187 > 2048
    with pytest.raises(ValueError):
        build_g_kron(3, 7)
    assert build_g_kron(3, 7, cap=3000).rows == 2187


def test_solution_column_reference_values():
    g8 = g_truncated(3, 8)
    v5 = solution_column(g8, 3, delta=4)
    assert v5.values == (2, 1, 0, 1) and v5.source_index == 5
    v7 = solution_column(g8, 4, delta=4)
    assert v7.values == (0, 0, 2, 2) and v7.source_index == 7
    # untruncated first column: 2 followed by the first column of G below
    full = solution_column(g8, 1, delta=0)
    assert full.values[0] == 2
    assert full.values == (2, 2, 1, 2, 1, 2, 1, 2)
    assert len(full.values) == 8 and full.delta == 0


def test_solution_column_range_validation():
    g8 = g_truncated(3, 8)
    solution_column(g8, 3, delta=4)
    with pytest.raises(ValueError):
        solution_column(g8, 2, delta=4)  # below floor
    with pytest.raises(ValueError):
        solution_column(g8, 5, delta=4)  # above ceil(l/2)
    with pytest.raises(ValueError):
        solution_column(g8, 0, delta=0)


def test_matrix_validation():
    with pytest.raises(ValueError):
        MatrixFp(3, [1, 2, 3])
    with pytest.raises(ValueError):
        MatrixFp(6, [[1]])
    with pytest.raises(ValueError):
        MatrixFp(3, [[1]]) @ MatrixFp(5, [[1]])
    m = MatrixFp(3, [[-1, 4], [3, 5]])
    assert m.data.tolist() == [[2, 1], [0, 2]]


# -- the row kernel against the entry formula

KERNEL_RANGE = sorted(
    {(p, 1) for p in range(3, 60, 2) if is_prime(p)}
    | {(3, lam) for lam in range(7)}
    | {(5, lam) for lam in range(5)}
    | {(7, lam) for lam in range(4)}
    | {(11, 3), (43, 2)}
)


def _kernel_rows(p, lam, size):
    """The kernel's blocks stacked, after checking their shape: each
    starts where the last one stopped, is a fresh writable int64 array of
    at most MATRIX_BLOCK_ROWS rows and ``size`` columns, and keeps to the
    rows of one top digit."""
    parts, expect = [], 0
    top = p ** max(lam - 1, 0)
    for start, block in _g_rows(p, lam, size):
        assert start == expect and 1 <= len(block) <= MATRIX_BLOCK_ROWS
        assert block.shape[1] == size and block.dtype == np.int64 and block.flags.writeable
        if lam >= 2:
            assert start // top == (start + len(block) - 1) // top
        parts.append(block.copy())
        expect = start + len(block)
    assert expect == size
    return np.concatenate(parts)


@pytest.mark.parametrize("p,lam", KERNEL_RANGE)
def test_row_kernel_equals_direct(p, lam):
    n = p**lam
    direct = build_g_direct(p, lam).data
    assert np.array_equal(_kernel_rows(p, lam, n), direct)
    assert np.array_equal(build_g_kron(p, lam).data, direct)
    # leading truncations, on and next to the block and digit edges
    for size in {1, 63, 64, 65, n // p - 1, n // p, n // p + 1, n - 1}:
        if 1 <= size < n:
            assert np.array_equal(_kernel_rows(p, lam, size), direct[:size, :size]), size


def test_min_level_refuses_a_modulus_below_two():
    for p in (1, 0, -3):
        with pytest.raises(ValueError, match="odd prime"):
            min_level(p, 5)
