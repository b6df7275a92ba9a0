import itertools
import random

import numpy as np
import pytest

from sdcyclic import (
    XPoly,
    basis_convert,
    find_irreducible,
    g_truncated,
    solution_basis,
)
from sdcyclic.binomial import binom_mod_p
from sdcyclic.reciprocal import STD_TO_XM1, XM1_TO_STD

from oracles import change_of_basis, is_solution, iter_span, kernel_oracle, reciprocal_oracle, reciprocal_transform


def _poly(field, ints):
    return XPoly(field, len(ints), tuple(field.element([c] if isinstance(c, int) else c) for c in ints))


# -- basis conversion ---------------------------------------------------------

def test_basis_convert_trivial_examples(f3):
    # (x-1) in standard coordinates is (-1, 1)
    assert basis_convert(f3, ((0,), (1,)), XM1_TO_STD) == ((2,), (1,))
    assert basis_convert(f3, ((1,),), STD_TO_XM1) == ((1,),)
    assert basis_convert(f3, (), XM1_TO_STD) == ()


def test_basis_convert_round_trip_random(f9):
    rng = random.Random(5)
    elems = list(f9.elements())
    for _ in range(60):
        vec = tuple(rng.choice(elems) for _ in range(20))
        assert basis_convert(f9, basis_convert(f9, vec, XM1_TO_STD), STD_TO_XM1) == vec
        assert basis_convert(f9, basis_convert(f9, vec, STD_TO_XM1), XM1_TO_STD) == vec


def test_basis_convert_agrees_with_polynomial_expansion(f3):
    # (x-1)^2 = 1 - 2x + x^2
    out = basis_convert(f3, ((0,), (0,), (1,)), XM1_TO_STD)
    assert out == ((1,), (1,), (1,))  # -2 = 1 mod 3


def test_basis_convert_rejects_unknown_direction(f3):
    with pytest.raises(ValueError):
        basis_convert(f3, ((1,),), "sideways")


def test_basis_convert_refuses_unreduced_coefficients(f3):
    # a packed slot holds only sums of residues, so nothing else gets in
    for coeffs in (((5,),), ((1,), (1, 2)), ((-1,),)):
        with pytest.raises(ValueError, match="is not a reduced F_3\\^1 tuple"):
            basis_convert(f3, coeffs, XM1_TO_STD)


def test_pascal_cache_matches_lucas():
    """The rows of each level, which the solution bases read, are signed
    Pascal rows: (-1)^i C(i, j) mod p by Lucas's theorem."""
    for p, lam in ((3, 3), (5, 2)):
        n = p**lam
        for i, row in enumerate(g_truncated(p, n)):
            assert row == tuple((-1) ** i * binom_mod_p(i, j, p) % p for j in range(n))


@pytest.mark.parametrize("p", [3, 5, 7, 11])
@pytest.mark.parametrize("direction", [XM1_TO_STD, STD_TO_XM1])
def test_packed_change_of_basis_equals_the_dense_comb_matrix(p, direction):
    """basis_convert, a sum of packed rows, against the dense matrix of
    math.comb values, at random lengths up to 729 (every slot width the
    rows take at these primes) and at the lengths p^s, p^s +- 1."""
    rng = random.Random(f"{p}:{direction}")
    lengths = {1, 2, 729} | {p**s + d for s in range(1, 4) for d in (-1, 0, 1) if p**s + d <= 729}
    lengths |= {rng.randint(1, 729) for _ in range(4)}
    for n in sorted(lengths):
        dense = change_of_basis(p, n, direction)
        for m in (1, 2):
            field = find_irreducible(p, m)
            coeffs = tuple(tuple(rng.randrange(p) for _ in range(m)) for _ in range(n))
            want = dense @ np.array(coeffs, dtype=np.int64) % p
            assert basis_convert(field, coeffs, direction) == tuple(map(tuple, want.tolist())), (n, m)


# -- the transform and its oracle --------------------------------------------

def test_transform_of_one_mod_cube(f3):
    b = _poly(f3, [1, 0, 0])
    assert reciprocal_transform(b).coeffs == ((1,), (2,), (1,))
    assert reciprocal_oracle(b).coeffs == ((1,), (2,), (1,))


def test_transform_of_zero(f3):
    for l in (1, 2, 7):
        z = XPoly(f3, l, ((0,),) * l)
        assert reciprocal_transform(z) == z
        assert reciprocal_oracle(z) == z


def test_oracle_length_one(f3):
    b = _poly(f3, [1])
    assert reciprocal_oracle(b).coeffs == ((1,),)


def test_columns_of_g_plus_i_are_fixed_points(f3):
    g8 = g_truncated(3, 8)
    gi = (g8 + np.eye(8, dtype=np.int64)) % 3
    for col in range(8):
        b = _poly(f3, [int(v) for v in gi[:, col]])
        assert is_solution(b)
        assert reciprocal_transform(b) == b


@pytest.mark.parametrize("p,m,lmax", [(3, 1, 7), (5, 1, 5), (3, 2, 3)])
def test_transform_equals_oracle_exhaustive_small(p, m, lmax):
    field = find_irreducible(p, m)
    for l in range(1, lmax + 1):
        for combo in itertools.product(field.elements(), repeat=l):
            b = XPoly(field, l, combo)
            assert reciprocal_transform(b) == reciprocal_oracle(b)


def test_transform_equals_oracle_random_long():
    rng = random.Random(13)
    for _ in range(200):
        p = rng.choice((3, 5, 7))
        m = rng.choice((1, 2))
        field = find_irreducible(p, m)
        l = rng.randint(1, 50)
        elems = list(field.elements())
        b = XPoly(field, l, tuple(rng.choice(elems) for _ in range(l)))
        t = reciprocal_transform(b)
        assert t == reciprocal_oracle(b)
        # involution both ways
        assert reciprocal_transform(t) == b
        assert reciprocal_oracle(reciprocal_oracle(b)) == b


# -- solution bases and oracles ----------------------------------------------

def test_solution_basis_dimensions(f3):
    assert np.asarray(solution_basis(f3, 3, 0)).shape == (3, 2)
    b84 = np.asarray(solution_basis(f3, 8, 4))
    assert b84.shape == (4, 2)
    assert b84.T.tolist() == [[2, 1, 0, 1], [0, 0, 2, 2]]
    empty = solution_basis(f3, 2, 1)
    assert np.asarray(empty).shape == (1, 0)
    assert list(iter_span(f3, empty)) == [((0,),)]


def test_solution_basis_rejects_bad_delta(f3):
    with pytest.raises(ValueError):
        solution_basis(f3, 3, 3)
    with pytest.raises(ValueError):
        solution_basis(f3, 3, -1)


def test_membership_examples(f3):
    assert is_solution(XPoly(f3, 5, ((0,),) * 5))
    assert not is_solution(_poly(f3, [0, 1, 0]))  # (x-1) alone is moved
    for tail in iter_span(f3, solution_basis(f3, 8, 4)):
        embedded = XPoly(f3, 8, (f3.zero(),) * 4 + tail)
        assert is_solution(embedded, delta=4)
    # nonzero prefix disqualifies
    bad = XPoly(f3, 8, ((1,),) + ((0,),) * 7)
    assert not is_solution(bad, delta=4)


@pytest.mark.parametrize(
    "p,m,l,expected",
    [(3, 1, 3, 9), (3, 1, 1, 3), (5, 1, 4, 25)],
)
def test_kernel_oracle_counts(p, m, l, expected):
    field = find_irreducible(p, m)
    assert len(kernel_oracle(field, l)) == expected


def test_kernel_oracle_guard(f3):
    with pytest.raises(ValueError):
        kernel_oracle(f3, 20)


@pytest.mark.parametrize("p,m,lmax", [(3, 1, 6), (5, 1, 4), (3, 2, 3)])
def test_kernel_matches_basis_span(p, m, lmax):
    field = find_irreducible(p, m)
    for l in range(1, lmax + 1):
        brute = set(kernel_oracle(field, l))
        spanned = set(iter_span(field, solution_basis(field, l, 0)))
        assert spanned == brute


@pytest.mark.parametrize("p,m", [(3, 1), (3, 2), (5, 1)])
def test_truncated_cardinality_small(p, m):
    # |span| = order^dimension, checked by exhausting the span
    field = find_irreducible(p, m)
    for l in range(1, 7):
        for delta in range(l):
            basis = solution_basis(field, l, delta)
            expect = field.order ** ((l + 1) // 2 - (delta + 1) // 2)
            if expect <= 3**6:
                assert len(set(iter_span(field, basis))) == expect


def test_xpoly_validation(f3, f9):
    with pytest.raises(ValueError):
        XPoly(f3, 2, ((1,),))
    with pytest.raises(ValueError):
        XPoly(f3, 1, ((3,),))
    with pytest.raises(ValueError):
        XPoly(f9, 1, ((1,),))
    assert XPoly(f3, 0, ()).coeffs == ()
