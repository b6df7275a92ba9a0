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
columns, truncated, as the columns of a matrix over F_p, cut from the
row kernel's rows of G_l + I_l by ``gmatrix._solution_basis``.

The change of basis is a sum of packed rows: the standard coefficients of
(x-1)^i, or the (x-1)-adic ones of x^j = ((x-1) + 1)^j, from the row
kernel ``gmatrix._power_rows``, each times one coefficient.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from operator import mul
from typing import Sequence

from .fieldcore import FieldSpec, FqElem, _check_reduced, _residues, _slot_bytes
from .gmatrix import _power_rows, _solution_basis

XM1_TO_STD = "xm1_to_std"
STD_TO_XM1 = "std_to_xm1"
# the x + sign whose powers each direction sums
_ROW_SIGN = {XM1_TO_STD: -1, STD_TO_XM1: 1}


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


# ``size`` rows of up to ``size`` slots each (18 MB at N = 2039); a command uses
# one length, in one or both directions.
@lru_cache(maxsize=2)
def _conv_rows(p: int, size: int, sign: int) -> tuple[int, tuple[int, ...]]:
    """(width, rows): (x + sign)^e mod p for e < size, packed in slots of
    ``width`` bytes, wide enough for a sum of ``size`` rows each times a
    residue."""
    width = _slot_bytes(max(size * (p - 1) ** 2, 2 * p))
    return width, tuple(_power_rows(p, size, width, sign))


def _combine(p: int, size: int, width: int, rows: Sequence[int], coeffs: Sequence[int]) -> list[int]:
    """sum(coeffs[i] * rows[i]) mod p, slot by slot, for rows of ``size``
    packed slots: one big-int product and sum per row, all in C."""
    return _residues(sum(map(mul, coeffs, rows)), size, width, p)


def basis_convert(field: FieldSpec, coeffs: Sequence[FqElem], direction: str) -> tuple[FqElem, ...]:
    """Exact linear change of basis via binomial expansion; 'xm1_to_std'
    maps (x-1)-adic coefficients to standard ones, 'std_to_xm1' back.
    Round-tripping is the identity.  Coefficients that are not m
    residues in [0, p) are refused with ``ValueError``."""
    if direction not in _ROW_SIGN:
        raise ValueError(f"unknown direction {direction!r}")
    if not coeffs:
        return ()
    _check_reduced(field, coeffs)  # a packed slot holds only sums of residues
    p, n = field.p, len(coeffs)
    width, rows = _conv_rows(p, n, _ROW_SIGN[direction])
    columns = [_combine(p, n, width, rows, coord) for coord in zip(*coeffs)]
    return tuple(zip(*columns))


def solution_basis(field: FieldSpec, l: int, delta: int = 0) -> tuple[tuple[int, ...], ...]:
    """The basis of the solutions supported on coefficients delta..l-1,
    as the columns of an (l - delta) x dim matrix over F_p (a tuple of
    row tuples), dim = ceil(l/2) - ceil(delta/2).  Its span over F_{p^m}
    has exactly (p^m)^dim elements; a span element is ``basis . params``
    mod p for a dim x m parameter matrix, the zero vector when dim = 0."""
    return _solution_basis(field.p, l, delta)
