"""Fixed-point spaces of the reciprocal transform b(x) -> x^(-1) b(x^(-1))
on F_{p^m}[x]/((x-1)^l), and the change of basis between (x-1)-adic and
standard coefficients.

Polynomials live in the (x-1)-adic basis: ``coeffs[i]`` multiplies
``(x-1)^i``.  That basis is the natural coordinate system for codes of
length p^s, since x^(p^s) - 1 = (x-1)^(p^s) in characteristic p.  The
covering level lam is always recomputed as the least power with
l <= p^lam, never carried around.

The transform acts on coefficient columns as the truncated reciprocal
matrix G_l, so its fixed points are the kernel of G_l - I_l, spanned by
the odd-indexed columns of G_l + I_l.  ``solution_basis`` returns those
columns, truncated, as one read-only array over F_p, cut from G_l by
``gmatrix._solution_basis``.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from typing import Sequence

from ._numpy import np
from .binomial import _binom_grid
from .fieldcore import FieldSpec, FqElem, _check_reduced
from .gmatrix import _solution_basis, min_level

XM1_TO_STD = "xm1_to_std"
STD_TO_XM1 = "std_to_xm1"


class XPoly(namedtuple("XPoly", "field l coeffs")):
    """Element of F_{p^m}[x]/((x-1)^l) as its (x-1)-adic coefficient
    tuple (b_0, ..., b_{l-1}), entries being field-element tuples."""

    __slots__ = ()

    def __new__(cls, field: FieldSpec, l: int, coeffs: tuple[FqElem, ...]) -> XPoly:
        if l < 0:
            raise ValueError(f"modulus exponent must be >= 0, got {l}")
        if len(coeffs) != l:
            raise ValueError(f"expected {l} coefficients, got {len(coeffs)}")
        _check_reduced(field, coeffs)
        return super().__new__(cls, field, l, coeffs)


def _to_array(coeffs: Sequence[FqElem]) -> np.ndarray:
    return np.array(coeffs, dtype=np.int64).reshape(len(coeffs), -1)

def _from_array(arr: np.ndarray) -> tuple[FqElem, ...]:
    return tuple(map(tuple, arr.tolist()))


# N x N each (32 MB at N = 2048); a command uses one length, in one or
# both directions.
@lru_cache(maxsize=2)
def _conv_matrix(p: int, size: int, direction: str) -> np.ndarray:
    """Change-of-basis matrix between the (x-1)-adic and standard
    monomial coordinates, acting on coefficient columns."""
    if direction not in (XM1_TO_STD, STD_TO_XM1):
        raise ValueError(f"unknown direction {direction!r}")
    i = np.arange(size)
    # STD_TO_XM1: b_i = sum_j C(j, i) c_j, so entry [j, i] is C(i, j) mod p
    mat = _binom_grid(p, i[None, :], i[:, None], min_level(p, size))
    if direction == XM1_TO_STD:
        # c_j = sum_i (-1)^(i-j) C(i, j) b_i
        odd = (i[None, :] - i[:, None]) % 2 == 1
        mat[odd] = (p - mat[odd]) % p
    mat.setflags(write=False)
    return mat


def basis_convert(field: FieldSpec, coeffs: Sequence[FqElem], direction: str) -> tuple[FqElem, ...]:
    """Exact linear change of basis via binomial expansion; 'xm1_to_std'
    maps (x-1)-adic coefficients to standard ones, 'std_to_xm1' back.
    Round-tripping is the identity."""
    if not coeffs:
        return ()
    mat = _conv_matrix(field.p, len(coeffs), direction)
    return _from_array((mat @ _to_array(coeffs)) % field.p)


def solution_basis(field: FieldSpec, l: int, delta: int = 0) -> np.ndarray:
    """The basis of the solutions supported on coefficients delta..l-1,
    as the columns of a read-only (l - delta) x dim int64 array over F_p,
    dim = ceil(l/2) - ceil(delta/2).  Its span over F_{p^m} has exactly
    (p^m)^dim elements; a span element is ``basis @ params % p`` for a
    (dim, m) parameter array, the zero vector when dim = 0."""
    return _solution_basis(field.p, l, delta)
