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
from typing import Tuple

from ._numpy import np
from .fieldcore import FieldSpec, FqElem, _check_reduced

RElem = Tuple[FqElem, FqElem]
RVector = Tuple[RElem, ...]


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


# ---------------------------------------------------------------------------
# Arrays of field elements have the coefficient axis last: shape (..., m)
# of int64 residues.

@lru_cache(maxsize=8)
def _reduction_rows(field: FieldSpec) -> np.ndarray:
    """(2m-1, m) matrix expressing x^d mod the field modulus, d < 2m-1."""
    m = field.m
    rows = np.zeros((2 * m - 1, m), dtype=np.int64)
    rows[:m] = np.eye(m, dtype=np.int64)
    for t, red in enumerate(field.reduction):
        rows[m + t] = red
    rows.setflags(write=False)
    return rows


def _gens_array(gens: RIdealGens) -> np.ndarray:
    """The generators as one (generators, N, 2, m) array; axis 2 holds
    the main part a and the u-part b of each coefficient."""
    size, n, m = len(gens.generators), gens.n, gens.field.m
    flat = chain.from_iterable
    values = flat(flat(flat(gens.generators)))
    return np.fromiter(values, dtype=np.int64, count=size * n * 2 * m).reshape(size, n, 2, m)


# ---------------------------------------------------------------------------
# Structured verifier.  Polynomials over F_{p^m} are (length, m) arrays,
# low degree first.  A product of two of them is one integer convolution:
# each coefficient's y-degree is spread with stride 2m-1 (Kronecker
# substitution), so partial products of different degrees never overlap,
# and the blocks are folded back with _reduction_rows.  No entry of any
# intermediate exceeds n*m*(p-1)^2, which _check_int64 bounds.


def _check_int64(gens: RIdealGens) -> None:
    field = gens.field
    bound = gens.n * field.m * (field.p - 1) ** 2
    if bound >= 2**63:
        raise ValueError(
            f"verifier sums reach n*m*(p-1)^2 = {bound}, beyond int64 (n={gens.n}, p={field.p}, m={field.m})"
        )


def _spread(x: np.ndarray, stride: int) -> np.ndarray:
    out = np.zeros((x.shape[0], stride), dtype=np.int64)
    out[:, : x.shape[1]] = x
    return out


def _poly_mul(field: FieldSpec, x: np.ndarray, y: np.ndarray, length: int) -> np.ndarray:
    """The first ``length`` coefficients of x*y over F_{p^m}."""
    p, m = field.p, field.m
    stride = 2 * m - 1
    x, y = x[:length], y[:length]
    if m > 1:
        x, y = _spread(x, stride), _spread(y, stride)
    z = np.convolve(x.ravel(), y.ravel())
    need = length * stride
    if z.size < need:
        z = np.concatenate([z, np.zeros(need - z.size, dtype=np.int64)])
    blocks = z[:need].reshape(length, stride) % p
    return blocks if m == 1 else blocks @ _reduction_rows(field) % p


def _correlation(field: FieldSpec, sign: int, f: np.ndarray, h: np.ndarray) -> np.ndarray:
    """c[i] = <x^i f, h> for every shift i at once: the coefficients of
    h(x) f(1/x) folded mod x^N - sign.  The product's coefficient N-1+d
    is sum_j f_j h_(j+d); shift i collects d = i and, wrapped, d = i - N."""
    n = f.shape[0]
    z = _poly_mul(field, h, f[::-1], 2 * n - 1)
    c = z[n - 1 :].copy()
    c[1:] += sign * z[: n - 1]
    return c % field.p


def _orthogonality_failure(gens: RIdealGens) -> tuple[int, int, int, str] | None:
    """The first (shift i, generators j <= k, "main" | "u") at which
    <x^i g_j, g_k> is nonzero in that part, or None.  Pairs k < j need no
    check: <x^i g_k, g_j> = sign * <x^(N-i) g_j, g_k>."""
    _check_int64(gens)
    field, sign, p = gens.field, gens.ring_sign, gens.field.p
    parts = _gens_array(gens).swapaxes(1, 2)  # (generators, a | b, N, m)
    for j, (aj, bj) in enumerate(parts):
        for k in range(j, len(parts)):
            ak, bk = parts[k]
            main = _correlation(field, sign, aj, ak).any(axis=1)
            upart = (_correlation(field, sign, aj, bk) + _correlation(field, sign, bj, ak)) % p
            bad = main | upart.any(axis=1)
            if bad.any():
                i = int(np.argmax(bad))
                return i, j, k, "main" if main[i] else "u"
    return None


@lru_cache(maxsize=4)
def _to_t_adic(p: int, n: int, sign: int) -> np.ndarray:
    """(n, n) change of basis from x-powers to powers of t = x - sign:
    entry [k, j] is C(j, k) sign^(j-k) mod p, the t^k coefficient of
    x^j = (t + sign)^j.  Row k+1 of C(j, k) is the exclusive cumulative
    sum of row k (hockey stick)."""
    binom = np.zeros((n, n), dtype=np.int64)
    row = np.ones(n, dtype=np.int64)
    for k in range(n):
        binom[k] = row
        row = np.concatenate(([0], np.cumsum(row[:-1]) % p))
    if sign == -1:
        pos = np.arange(n)
        odd = (pos[None, :] - pos[:, None]) % 2 == 1
        binom[odd] = (-binom[odd]) % p
    binom.setflags(write=False)
    return binom


def _valuation(x: np.ndarray) -> int:
    """t-adic valuation of a (length, m) array; its length if zero."""
    hits = np.flatnonzero(x.any(axis=1))
    return int(hits[0]) if hits.size else x.shape[0]


def _is_power_of(n: int, p: int) -> bool:
    while n % p == 0:
        n //= p
    return n == 1


def span_dimension(gens: RIdealGens) -> int:
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
    _check_int64(gens)
    m = field.m
    # one (a | b) column block per generator, converted in one product
    std = _gens_array(gens).transpose(1, 0, 2, 3).reshape(n, -1)
    tadic = _to_t_adic(p, n, gens.ring_sign) @ std % p
    a, b = tadic.reshape(n, -1, 2, m).transpose(2, 1, 0, 3)  # (generators, N, m) each
    firsts = [_valuation(x) for x in a]
    v1 = min(firsts)
    if v1 == n:
        return n - min(_valuation(y) for y in b)
    # pivot (t^v1 w, g), w a unit.  The part with first coordinate 0 is
    # spanned by the u-rows (0, a_i), least valuation v1; by
    # t^(N-v1) (t^v1 w, g) = (0, t^(N-v1) g); and, for every other row,
    # by w (a_i, b_i) - (a_i / t^v1) (t^v1 w, g) = (0, w b_i - (a_i / t^v1) g),
    # the unit multiple of a reduced row, so w is never inverted.
    piv = firsts.index(v1)
    w, g = a[piv, v1:], b[piv]
    v2 = min(v1, n - v1 + _valuation(g[:v1]))
    for i in range(len(a)):
        if i != piv:
            y = (_poly_mul(field, w, b[i], n) - _poly_mul(field, a[i, v1:], g, n)) % p
            v2 = min(v2, _valuation(y))
    return (n - v1) + (n - v2)


def is_self_orthogonal(gens: RIdealGens) -> bool:
    """True iff [x^i g_a, g_b] = 0 for all generator pairs and shifts,
    which by bilinearity covers the whole span."""
    return _orthogonality_failure(gens) is None


def _expected_length(gens: RIdealGens, s: int) -> int:
    n = gens.field.p**s
    if gens.n != n:
        raise ValueError(f"generators have length {gens.n}, expected p^s = {n}")
    return n


def is_self_dual(gens: RIdealGens, s: int) -> bool:
    """Self-orthogonal and exactly half-sized: dimension p^s out of the
    ambient 2 p^s.  Over this chain ring |C| * |C-dual| = |R|^N, so the
    two conditions together give C = C-dual."""
    n = _expected_length(gens, s)
    return is_self_orthogonal(gens) and span_dimension(gens) == n


def _self_dual_failure(gens: RIdealGens, s: int) -> str | None:
    """Why the ideal is not self-dual (the first nonzero inner product of
    generator shifts, else the wrong dimension), or None if it is."""
    n = _expected_length(gens, s)
    hit = _orthogonality_failure(gens)
    if hit is not None:
        i, j, k, part = hit
        return f"not self-orthogonal: shift {i}, generators ({j}, {k}), {part} part"
    d = span_dimension(gens)
    return None if d == n else f"dimension {d} != {n}"
