"""An independent verification engine for ideals of R[x]/(x^N -+ 1),
R = F_{p^m} + u F_{p^m} (u^2 = 0).

An element a + u*b of R is the pair (a, b) of field-element tuples; a
length-N vector over R is a tuple of such pairs.  The verifier knows
nothing about how codes were produced; it works on the generators alone.

For N = p^s, x^N -+ 1 = (x -+ 1)^N in characteristic p, so
A = F_{p^m}[x]/(x^N -+ 1) is the chain ring F_{p^m}[t]/(t^N) and an ideal
is an A-submodule of A^2 through a + u*b -> (a, b), stable under u:
(a, b) -> (0, a).  Its cardinality is (p^m)^dimension, and the dimension
comes from a Hermite form over A, reduced one row per generator.  A code
is self-dual iff it is self-orthogonal and has dimension p^s, since sizes
of a code and its dual multiply to the full space.

Orthogonality is checked on generator shifts only: the inner product is
bilinear and invariant under the (nega)cyclic shift applied to both
arguments, and u-multiples only ever shrink products because u^2 = 0.
All N shifts of one generator pair come from one polynomial product.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from itertools import chain
from operator import mul
from typing import NamedTuple, Sequence, Tuple

from .fieldcore import FieldSpec, FqElem, _check_reduced, _pack, _residues, _slot_bytes, _unpack

RElem = Tuple[FqElem, FqElem]
RVector = Tuple[RElem, ...]
# A polynomial over F_{p^m} as the verifier reads it: m coordinate
# sequences of residues in [0, p), low degree first.
Coords = Sequence[Sequence[int]]


class RIdealGens(namedtuple("RIdealGens", "field ring_sign generators")):
    """Generators of an ideal of R[x]/(x^N - ring_sign), each given as a
    length-N coefficient vector over R (already reduced)."""

    __slots__ = ()

    def __new__(cls, field: FieldSpec, ring_sign: int, generators: tuple[RVector, ...]) -> RIdealGens:
        if ring_sign not in (1, -1):
            raise ValueError(f"ring sign must be +1 or -1, got {ring_sign}")
        if not generators:
            raise ValueError("at least one generator required")
        n = len(generators[0])
        if n < 1 or any(len(g) != n for g in generators):
            raise ValueError("generators must share one positive length")
        entries = list(chain.from_iterable(generators))
        if set(map(len, entries)) != {2}:
            raise ValueError("generator entries must be pairs (a, b) of field elements")
        _check_reduced(field, list(chain.from_iterable(entries)))
        return super().__new__(cls, field, ring_sign, generators)

    @property
    def n(self) -> int:
        return len(self.generators[0])


class _Rows(NamedTuple):
    """Generators in the verifier's own form, unchecked: each one the
    pair (a, b) of its main part and u-part, as ``Coords`` of one common
    positive length.  Every check below takes these in place of an
    ``RIdealGens``, so a caller that already holds coordinates (the
    CLI's ``verify``) skips the conversion."""

    field: FieldSpec
    ring_sign: int
    generators: tuple[tuple[Coords, Coords], ...]

    @property
    def n(self) -> int:
        return len(self.generators[0][0][0])


def _rows(gens: RIdealGens | _Rows) -> tuple[tuple[Coords, Coords], ...]:
    """The generators as (a, b) coordinate pairs."""
    if isinstance(gens, _Rows):
        return gens.generators
    return tuple((tuple(zip(*(c[0] for c in g))), tuple(zip(*(c[1] for c in g)))) for g in gens.generators)


# ---------------------------------------------------------------------------
# Products.  A product of two polynomials over F_{p^m} is one integer
# product (Kronecker substitution): each degree takes 2m-1 slots, so that
# partial products of different y-degrees never overlap, and each slot is
# wide enough for n*m*(p-1)^2, twice over, so that no sum of products
# carries into the next slot.  The y-degrees are folded back by the field
# modulus after unpacking.


def _width(field: FieldSpec, n: int) -> int:
    return _slot_bytes(2 * n * field.m * (field.p - 1) ** 2)


def _spread(field: FieldSpec, x: Coords, width: int, reverse: bool = False) -> int:
    """x packed with stride 2m-1 per degree, low degree first, or high
    degree first when ``reverse``."""
    step = -1 if reverse else 1
    if field.m == 1:
        return _pack(x[0][::step], width)
    stride = 2 * field.m - 1
    values = [0] * (len(x[0]) * stride)
    for t, coord in enumerate(x):
        values[t::stride] = coord[::step]
    return _pack(values, width)


@lru_cache(maxsize=8)
def _fold_weights(field: FieldSpec) -> tuple[tuple[int, ...], ...]:
    """Per coordinate t, the t-th coefficient of y^e mod the field
    modulus for e < 2m-1."""
    m = field.m
    unit = tuple(tuple(int(e == t) for e in range(m)) for t in range(m))
    return tuple(unit[t] + tuple(red[t] for red in field.reduction) for t in range(m))


def _fold(field: FieldSpec, z: int, length: int, width: int) -> list[list[int]]:
    """Degrees 0..length-1 of a packed product, reduced into F_{p^m}."""
    p, m = field.p, field.m
    slots = _unpack(z, length * (2 * m - 1), width)
    if m == 1:
        return [[v % p for v in slots]]
    columns = list(zip(*[iter(slots)] * (2 * m - 1)))
    return [[sum(map(mul, w, col)) % p for col in columns] for w in _fold_weights(field)]


def _poly_mul(field: FieldSpec, x: Coords, y: Coords, length: int) -> list[list[int]]:
    """The first ``length`` coefficients of x*y over F_{p^m}."""
    width = _width(field, max(len(x[0]), len(y[0])))
    return _fold(field, _spread(field, x, width) * _spread(field, y, width), length, width)


def _correlations(field: FieldSpec, sign: int, z: int, n: int, width: int) -> list[list[int]]:
    """c[i] = <x^i f, h> for every shift i, from the packed product
    z = h(x) * x^(n-1) f(1/x) (or a sum of such): its coefficient n-1+d
    is sum_j f_j h_(j+d), and shift i collects d = i and, wrapped past
    x^N, d = i - N, times the ring sign."""
    p = field.p
    return [
        [(v + sign * w) % p for v, w in zip(coord[n - 1 :], [0] + coord[: n - 1])]
        for coord in _fold(field, z, 2 * n - 1, width)
    ]


def _orthogonality_failure(gens: RIdealGens | _Rows) -> tuple[int, int, int, str] | None:
    """The first (shift i, generators j <= k, "main" | "u") at which
    <x^i g_j, g_k> is nonzero in that part, or None.  Pairs k < j need no
    check: <x^i g_k, g_j> = sign * <x^(N-i) g_j, g_k>."""
    field, sign, n = gens.field, gens.ring_sign, gens.n
    width = _width(field, n)
    spread = [
        (_spread(field, a, width), _spread(field, b, width), _spread(field, a, width, True), _spread(field, b, width, True))
        for a, b in _rows(gens)
    ]
    for j, (_, _, raj, rbj) in enumerate(spread):
        for k in range(j, len(spread)):
            ak, bk = spread[k][:2]
            main = _correlations(field, sign, ak * raj, n, width)
            upart = _correlations(field, sign, bk * raj + ak * rbj, n, width)
            for i, (hit_main, hit_u) in enumerate(zip(map(any, zip(*main)), map(any, zip(*upart)))):
                if hit_main or hit_u:
                    return i, j, k, "main" if hit_main else "u"
    return None


# ---------------------------------------------------------------------------
# Dimension.


@lru_cache(maxsize=4)
def _t_adic_rows(p: int, n: int, sign: int) -> tuple[int, tuple[int, ...]]:
    """(width, rows): row j holds the t-adic coefficients of x^j =
    (t + sign)^j, t = x - sign, that is C(j, k) sign^(j-k) mod p at
    slot k, packed in ``width``-byte slots wide enough for a sum of n
    rows each times a residue.  Row j+1 is t * row j + sign * row j: one
    shift and one add, then every slot in [0, 2p) drops below p by a
    biased top-bit test."""
    width = _slot_bytes(max(n * (p - 1) ** 2, 2 * p))
    bits = 8 * width
    ones = ((1 << bits * n) - 1) // ((1 << bits) - 1)
    high, bias, all_p = ones << bits - 1, ((1 << bits - 1) - p) * ones, p * ones
    rows = [1]
    for _ in range(n - 1):
        row = rows[-1]
        row = (row << bits) + (row if sign == 1 else all_p - row)
        rows.append(row - (((row + bias) & high) >> bits - 1) * p)
    return width, tuple(rows)


def _t_adic(p: int, sign: int, x: Coords) -> list[list[int]]:
    """x, standard coefficients, in powers of t = x - sign."""
    n = len(x[0])
    width, rows = _t_adic_rows(p, n, sign)
    return [_residues(sum(map(mul, coord, rows)), n, width, p) for coord in x]


def _valuation(x: Coords) -> int:
    """t-adic valuation of a polynomial; its length if zero."""
    n = len(x[0])
    return min(next((d for d, v in enumerate(coord) if v), n) for coord in x)


def _is_power_of(n: int, p: int) -> bool:
    while n % p == 0:
        n //= p
    return n == 1


def span_dimension(gens: RIdealGens | _Rows) -> int:
    """F_{p^m}-dimension d of the spanned ideal; the code has (p^m)^d
    codewords.

    For N = p^s, x^N - sign = (x - sign)^N, so F_q[x]/(x^N - sign) is
    A = F_q[t]/(t^N) with t = x - sign, and the code is the A-submodule
    of A^2 spanned by (a, b) and u(a, b) = (0, a) for each generator
    a + ub.  Its Hermite form gives d: the first coordinates span
    t^v1 A, the submodule's part with first coordinate 0 is (0, t^v2 A),
    and d = (N - v1) + (N - v2)."""
    field, n, p = gens.field, gens.n, gens.field.p
    if not _is_power_of(n, p):
        raise ValueError(f"length {n} is not a power of p = {p}")
    sign = gens.ring_sign
    rows = [(_t_adic(p, sign, a), _t_adic(p, sign, b)) for a, b in _rows(gens)]
    firsts = [_valuation(a) for a, _ in rows]
    v1 = min(firsts)
    if v1 == n:
        return n - min(_valuation(b) for _, b in rows)
    # pivot (t^v1 w, g), w a unit.  The part with first coordinate 0 is
    # spanned by the u-rows (0, a_i), least valuation v1; by
    # t^(N-v1) (t^v1 w, g) = (0, t^(N-v1) g); and, for every other row,
    # by w (a_i, b_i) - (a_i / t^v1) (t^v1 w, g) = (0, w b_i - (a_i / t^v1) g),
    # the unit multiple of a reduced row, so w is never inverted.
    piv = firsts.index(v1)
    w = [coord[v1:] for coord in rows[piv][0]]
    g = rows[piv][1]
    v2 = min(v1, n - v1 + _valuation([coord[:v1] for coord in g]))
    for i, (a, b) in enumerate(rows):
        if i != piv:
            left = _poly_mul(field, w, b, n)
            right = _poly_mul(field, [coord[v1:] for coord in a], g, n)
            v2 = min(v2, next((d for d, pair in enumerate(zip(*left, *right)) if pair[: field.m] != pair[field.m :]), n))
    return (n - v1) + (n - v2)


def is_self_orthogonal(gens: RIdealGens | _Rows) -> bool:
    """True iff [x^i g_a, g_b] = 0 for all generator pairs and shifts,
    which by bilinearity covers the whole span."""
    return _orthogonality_failure(gens) is None


def _expected_length(gens: RIdealGens | _Rows, s: int) -> int:
    n = gens.field.p**s
    if gens.n != n:
        raise ValueError(f"generators have length {gens.n}, expected p^s = {n}")
    return n


def is_self_dual(gens: RIdealGens | _Rows, s: int) -> bool:
    """Self-orthogonal and exactly half-sized: dimension p^s out of the
    ambient 2 p^s.  Over this chain ring |C| * |C-dual| = |R|^N, so the
    two conditions together give C = C-dual."""
    n = _expected_length(gens, s)
    return is_self_orthogonal(gens) and span_dimension(gens) == n


def _self_dual_failure(gens: RIdealGens | _Rows, s: int) -> str | None:
    """Why the ideal is not self-dual (the first nonzero inner product of
    generator shifts, else the wrong dimension), or None if it is."""
    n = _expected_length(gens, s)
    hit = _orthogonality_failure(gens)
    if hit is not None:
        i, j, k, part = hit
        return f"not self-orthogonal: shift {i}, generators ({j}, {k}), {part} part"
    d = span_dimension(gens)
    return None if d == n else f"dimension {d} != {n}"
