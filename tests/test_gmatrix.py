import itertools
import math

import numpy as np
import pytest

from sdcyclic import (
    build_g_direct,
    build_g_kron,
    classify_cases,
    find_irreducible,
    g_entry,
    g_truncated,
    min_level,
    solution_basis,
    solution_column,
)
from sdcyclic.fieldcore import is_prime
from sdcyclic.gmatrix import MATRIX_BLOCK_ROWS, _g_rows

from oracles import rref_rank, solution_columns_oracle

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


def _eye(n):
    return np.eye(n, dtype=np.int64)


def _is_immutable_matrix(mat):
    """A tuple of row tuples, so no caller can change a cached matrix or
    basis in place."""
    return type(mat) is tuple and all(type(row) is tuple for row in mat)


def test_golden_g3():
    assert np.array_equal(build_g_direct(3, 1), G3_DISPLAY)


def test_golden_g9_both_routes():
    assert np.array_equal(build_g_direct(3, 2), G9_DISPLAY)
    assert np.array_equal(build_g_kron(3, 2), G9_DISPLAY)


def test_level_zero_is_scalar_one():
    assert np.array_equal(build_g_direct(3, 0), [[1]])
    assert np.array_equal(build_g_kron(3, 0), [[1]])


def test_kron_identities():
    # the recursion the row kernel uses: G_(p^lam) = G_p (x) G_(p^(lam-1))
    g3 = build_g_direct(3, 1)
    assert np.array_equal(np.kron(g3, g3) % 3, G9_DISPLAY)
    assert np.array_equal(np.kron(g3, build_g_direct(3, 2)) % 3, build_g_direct(3, 3))
    assert np.array_equal(np.kron(build_g_direct(5, 1), build_g_direct(5, 1)) % 5, build_g_direct(5, 2))


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
    assert _is_immutable_matrix(g) and set(map(type, itertools.chain.from_iterable(g))) == {int}
    assert np.array_equal(g, expected)


CONSTRUCTION_RANGE = [(3, lam) for lam in range(6)] + [(5, lam) for lam in range(4)] + [(7, lam) for lam in range(4)]


@pytest.mark.parametrize("p,lam", CONSTRUCTION_RANGE)
def test_direct_equals_kron(p, lam):
    if p**lam > 343:
        pytest.skip("beyond the cross-validation range")
    assert np.array_equal(build_g_direct(p, lam), build_g_kron(p, lam))


@pytest.mark.parametrize("p,lam", CONSTRUCTION_RANGE)
def test_involution(p, lam):
    if p**lam > 343:
        pytest.skip("beyond the cross-validation range")
    g = np.asarray(build_g_kron(p, lam))
    assert np.array_equal(g @ g % p, _eye(p**lam))


@pytest.mark.parametrize("p,top", [(3, 27), (5, 25)])
def test_truncated_involution(p, top):
    for l in range(1, top + 1):
        g = np.asarray(g_truncated(p, l))
        assert np.array_equal(g @ g % p, _eye(l))


@pytest.mark.parametrize("p", [3, 5])
def test_rank_laws(p):
    for l in range(1, 41):
        g = g_truncated(p, l)
        assert rref_rank(p, g - _eye(l)) == l // 2
        assert rref_rank(p, g + _eye(l)) == (l + 1) // 2


@pytest.mark.parametrize("p,l", [(3, 8), (3, 27), (5, 17)])
def test_annihilation(p, l):
    g = np.asarray(g_truncated(p, l))
    assert not ((g - _eye(l)) @ (g + _eye(l)) % p).any()


def test_truncations():
    g9 = build_g_kron(3, 2)
    assert np.array_equal(g_truncated(3, 3), G3_DISPLAY)
    assert np.array_equal(g_truncated(3, 9), g9)
    assert np.array_equal((g_truncated(3, 8) + _eye(8)) % 3, G8_PLUS_I_DISPLAY)
    # truncation is independent of which covering power was used
    assert np.array_equal(np.asarray(build_g_kron(3, 3))[:9, :9], g9)
    assert np.array_equal(np.asarray(g_truncated(3, 10))[:9, :9], g9)
    with pytest.raises(ValueError):
        g_truncated(3, 0)


def test_g_truncated_is_cached_and_read_only():
    g20, g25 = g_truncated(3, 20), g_truncated(3, 25)
    assert g_truncated(3, 25) is g25
    assert _is_immutable_matrix(g20) and _is_immutable_matrix(g25)
    fresh = np.asarray(build_g_kron(3, 3))
    assert np.array_equal(g_truncated(3, 27), fresh)
    assert np.array_equal(g20, fresh[:20, :20])
    assert np.array_equal(g25, fresh[:25, :25])


@pytest.mark.parametrize(
    "p,l", [(p, p**k + d) for p, top in ((3, 4), (5, 3), (7, 2)) for k in range(1, top) for d in (-1, 0, 1)]
)
def test_g_truncated_is_the_leading_block_of_the_kronecker_power(p, l):
    """On and next to each level edge, G_l is the leading block of the
    level that covers it and of the level above."""
    lam = min_level(p, l)
    for level in (lam, lam + 1):
        kron = np.asarray(build_g_kron(p, level))
        assert np.array_equal(g_truncated(p, l), kron[:l, :l]), level


def test_min_level():
    assert min_level(3, 1) == 1
    assert min_level(3, 3) == 1
    assert min_level(3, 4) == 2
    assert min_level(3, 9) == 2
    assert min_level(3, 10) == 3
    assert min_level(5, 26) == 3


def test_rank_examples():
    g8 = g_truncated(3, 8)
    assert rref_rank(3, g8 + _eye(8)) == 4
    assert rref_rank(3, g8 - _eye(8)) == 4
    assert rref_rank(3, _eye(17)) == 17


def test_size_cap_guard():
    for build in (build_g_direct, build_g_kron):
        with pytest.raises(ValueError, match="p\\*\\*lam = 2187 exceeds size cap 2048"):
            build(3, 7)
    with pytest.raises(ValueError, match="exceeds size cap 2048"):
        g_truncated(3, 2049)


def test_size_cap_guard_never_builds_the_power():
    # 3**10000 has too many digits for the refusal to print, and
    # 3**(10**11) alone would take hours to build
    for lam in (12, 10000, 10**11):
        with pytest.raises(ValueError, match=f"p\\*\\*lam = 3\\*\\*{lam} exceeds size cap 2048"):
            build_g_direct(3, lam)
    # the solution basis checks the cap before it lists its column indices
    with pytest.raises(ValueError, match="exceeds size cap 2048"):
        solution_column(3, 10**18, 1, delta=3)


def test_solution_column_reference_values():
    assert solution_column(3, 8, 3, delta=4) == (2, 1, 0, 1)
    assert solution_column(3, 8, 4, delta=4) == (0, 0, 2, 2)
    # untruncated first column: 2 followed by the first column of G below
    assert solution_column(3, 8, 1) == (2, 2, 1, 2, 1, 2, 1, 2)


def test_solution_column_range_validation():
    solution_column(3, 8, 3, delta=4)
    with pytest.raises(ValueError):
        solution_column(3, 8, 2, delta=4)  # below floor
    with pytest.raises(ValueError):
        solution_column(3, 8, 5, delta=4)  # above ceil(l/2)
    with pytest.raises(ValueError):
        solution_column(3, 8, 0, delta=0)
    with pytest.raises(ValueError, match="need 0 <= delta < l"):
        solution_column(3, 8, 4, delta=8)


# (p, s) of the code lengths whose every family's basis is checked
_BASIS_LENGTHS = [(3, 6), (5, 3), (7, 3), (1021, 1)]


@pytest.mark.parametrize("p,s", _BASIS_LENGTHS)
def test_solution_basis_equals_the_per_column_oracle(p, s):
    """The one slice of G_l, for the (l, delta) of every family, equals
    the basis cut one column at a time from the entry-formula matrix, and
    each ``solution_column`` is the matching column of it."""
    field = find_irreducible(p, 1)
    for desc in classify_cases(p, s):
        if desc.l == 0:
            continue
        basis = solution_basis(field, desc.l, desc.delta)
        assert _is_immutable_matrix(basis) and set(map(type, itertools.chain.from_iterable(basis))) <= {int}
        oracle = solution_columns_oracle(p, desc.l, desc.delta)
        assert basis == tuple(map(tuple, oracle.tolist())), desc
        assert oracle.shape == (desc.l - desc.delta, desc.free_param_count)
        jmin, jmax = desc.j_range
        for j in {jmin, jmax} if jmin <= jmax else ():
            assert solution_column(p, desc.l, j, desc.delta) == tuple(oracle[:, j - jmin].tolist())


def _refuses_writes(mat):
    if not (type(mat) is tuple and all(type(row) in (tuple, int) for row in mat)):
        return False
    with pytest.raises(TypeError):
        mat[0] = 1
    return True


def test_every_matrix_and_basis_is_read_only(f3):
    """No caller can change a cached matrix or basis in place."""
    for p, lam in ((3, 0), (3, 1), (3, 4), (5, 3)):
        assert _refuses_writes(build_g_direct(p, lam))
        assert _refuses_writes(build_g_kron(p, lam))
    for l in (1, 2, 8, 27, 28, 650):
        assert _refuses_writes(g_truncated(3, l))
    for l, delta in ((8, 0), (8, 4), (9, 8), (650, 300), (1, 0)):
        assert _refuses_writes(solution_basis(f3, l, delta))
        assert _refuses_writes(solution_column(3, l, (delta + 1) // 2 + 1, delta))
    # an empty basis has no entry to write, but is immutable all the same
    assert solution_basis(f3, 2, 1) == ((),)


# -- the row kernel against the entry formula

KERNEL_RANGE = sorted(
    {(p, 1) for p in range(3, 60, 2) if is_prime(p)}
    | {(3, lam) for lam in range(7)}
    | {(5, lam) for lam in range(5)}
    | {(7, lam) for lam in range(4)}
    | {(11, 3), (43, 2)}
)


def _kernel_rows(p, size):
    """The kernel's blocks stacked, after checking their shape: each
    starts where the last one stopped, and is a list of at most
    MATRIX_BLOCK_ROWS rows, each packed in 2-byte slots within ``size``
    columns."""
    parts = []
    for start, block in _g_rows(p, size):
        assert start == len(parts) and 1 <= len(block) <= MATRIX_BLOCK_ROWS and type(block) is list
        assert all(0 <= row < 1 << 16 * size for row in block)
        parts += [np.frombuffer(row.to_bytes(2 * size, "little"), dtype="<u2") for row in block]
    assert len(parts) == size
    return np.array(parts, dtype=np.int64)


@pytest.mark.parametrize("p,lam", KERNEL_RANGE)
def test_row_kernel_equals_direct(p, lam):
    n = p**lam
    direct = np.asarray(build_g_direct(p, lam))
    assert np.array_equal(_kernel_rows(p, n), direct)
    assert np.array_equal(build_g_kron(p, lam), direct)
    # leading truncations, on and next to the block and digit edges
    for size in {1, 63, 64, 65, n // p - 1, n // p, n // p + 1, n - 1}:
        if 1 <= size < n:
            assert np.array_equal(_kernel_rows(p, size), direct[:size, :size]), size


@pytest.mark.parametrize("p,size", [(3, 243), (5, 125), (7, 343), (11, 121), (1021, 90)])
def test_row_kernel_is_signed_pascal(p, size):
    """G[i, j] = (-1)^i C(i, j) mod p at every level, straight from
    math.comb."""
    want = np.array([[(-1) ** i * math.comb(i, j) % p for j in range(size)] for i in range(size)], dtype=np.int64)
    assert np.array_equal(_kernel_rows(p, size), want)


def test_min_level_refuses_a_modulus_below_two():
    for p in (1, 0, -3):
        with pytest.raises(ValueError, match="odd prime"):
            min_level(p, 5)
