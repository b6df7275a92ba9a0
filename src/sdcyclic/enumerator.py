"""Classification, construction, enumeration, and counting of the
self-dual cyclic codes of length N = p^s over R = F_{p^m} + u F_{p^m},
plus the sign-flip carry-over to negacyclic codes.

Every self-dual code is a one- or two-generator ideal
``<(x-1)^(k+1) b(x) + u (x-1)^k, (x-1)^(N-k)>`` (single generator when
k = 0) for a torsion exponent 0 <= k <= (N-1)/2 and a polynomial b whose
(x-1)-adic coefficients are supported on [delta, l) with l = N-1-2k and
delta = (N-1)/2 - k, and are constrained to the truncated fixed-point
space of the reciprocal transform.  The cases split by N mod 4 into two
(N = 3 mod 4) or three (N = 1 mod 4) parameter families; the k values
across all families cover 0..(N-1)/2 exactly once.

Enumeration order is deterministic: families in classification order,
then free parameters in lexicographic field order, so streams are
resumable by plain index.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence

import numpy as np

from .chainring import RIdealGens, RVector
from .fieldcore import FieldSpec, FqElem, find_irreducible, is_prime
from .gmatrix import column_index_range
from .reciprocal import XM1_TO_STD, XPoly, _conv_matrix, _from_array, solution_basis

CASE_K0 = "k0"
CASE_EVEN_K = "even-k"
CASE_ODD_K = "odd-k"


@dataclass(frozen=True)
class CaseDescriptor:
    """One parameter family of self-dual codes.

    branch: p^s mod 4 (1 or 3).
    sub: which family: 'k0' (branch 1 only), 'even-k', or 'odd-k'.
    nu: the family index; k is 2*nu, 2*nu+1, or 2*nu-1 depending on sub.
    delta / l: support window [delta, l) of the b coefficients.
    j_range: inclusive column-index bounds (lo > hi when empty).
    free_param_count: number of free field parameters, may be 0.
    t: width p^s - 2k of the torsion gap.
    """

    p: int
    s: int
    branch: int
    sub: str
    nu: int
    k: int
    delta: int
    l: int
    j_range: tuple[int, int]
    free_param_count: int
    t: int


def _descriptor(p: int, s: int, sub: str, nu: int, k: int) -> CaseDescriptor:
    n = p**s
    l = n - 1 - 2 * k
    delta = (n - 1) // 2 - k
    jmin, jmax = column_index_range(l, delta) if l > 0 else (1, 0)
    free = max(0, jmax - jmin + 1)
    return CaseDescriptor(p, s, n % 4, sub, nu, k, delta, l, (jmin, jmax), free, n - 2 * k)


def _validate_ps(p: int, s: int) -> None:
    if p < 3 or not is_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s}")


def classify_cases(p: int, s: int) -> list[CaseDescriptor]:
    """The complete, duplicate-free list of parameter families; the
    multiset of k values is exactly 0..(p^s - 1)/2."""
    _validate_ps(p, s)
    n = p**s
    if n % 4 == 3:
        top = (n + 1) // 4
        even = [_descriptor(p, s, CASE_EVEN_K, nu, 2 * nu) for nu in range(top)]
        odd = [_descriptor(p, s, CASE_ODD_K, nu, 2 * nu + 1) for nu in range(top)]
        return even + odd
    top = (n - 1) // 4
    out = [_descriptor(p, s, CASE_K0, 0, 0)]
    out += [_descriptor(p, s, CASE_EVEN_K, nu, 2 * nu) for nu in range(1, top + 1)]
    out += [_descriptor(p, s, CASE_ODD_K, nu, 2 * nu - 1) for nu in range(1, top + 1)]
    return out


@dataclass(frozen=True)
class CodeSpec:
    """One concrete self-dual cyclic code: its family, the chosen free
    parameters (ascending column index), the assembled b polynomial in
    the (x-1)-adic basis, and the generator presentation."""

    descriptor: CaseDescriptor
    params: tuple[FqElem, ...]
    b_coeffs: XPoly
    generators: RIdealGens


@dataclass(frozen=True)
class _FamilyPlan:
    """Everything ``build_code`` needs of one family that does not depend
    on the parameters, built once per family.

    cols: the (l - delta) x dim solution-basis columns over F_p, read-only.
    conv: columns [k+1+delta, k+1+l) of the (x-1)-adic -> standard
        conversion matrix, a read-only N x (l - delta) view.
    u_std: the u-part (x-1)^k in standard coordinates.
    second: the second generator (x-1)^(N-k), or None when k = 0.
    """

    cols: np.ndarray
    conv: np.ndarray
    u_std: tuple[FqElem, ...]
    second: RVector | None


def _std_image(field: FieldSpec, conv: np.ndarray, position: int) -> tuple[FqElem, ...]:
    """(x-1)^position inside F[x]/(x^n - 1), in standard coordinates."""
    return _from_array(np.outer(conv[:, position], field.one()))


# Small, so memory stays flat over long sweeps; the enumeration stream
# visits families one after another and needs one plan at a time.
@lru_cache(maxsize=4)
def _family_plan(desc: CaseDescriptor, field: FieldSpec) -> _FamilyPlan:
    n = desc.p**desc.s
    k, l, delta = desc.k, desc.l, desc.delta
    if l > 0:
        basis = solution_basis(field, l, delta)
        cols = np.array([v.values for v in basis.vectors], dtype=np.int64)
        cols = cols.reshape(basis.dimension, l - delta).T
    else:
        cols = np.zeros((0, 0), dtype=np.int64)
    cols.setflags(write=False)
    conv = _conv_matrix(field.p, n, XM1_TO_STD)
    second = None
    if k > 0:
        zero = field.zero()
        second = tuple((c, zero) for c in _std_image(field, conv, n - k))
    return _FamilyPlan(cols, conv[:, k + 1 + delta : k + 1 + l], _std_image(field, conv, k), second)


def build_code(desc: CaseDescriptor, params: Sequence[FqElem], field: FieldSpec) -> CodeSpec:
    """Assemble the code for one family and one choice of free
    parameters: b is the span element of the truncated solution basis,
    embedded at offset delta."""
    if field.p != desc.p:
        raise ValueError(f"field characteristic {field.p} does not match descriptor p={desc.p}")
    norm = tuple(field.element(a) for a in params)
    if len(norm) != desc.free_param_count:
        raise ValueError(f"expected {desc.free_param_count} parameters, got {len(norm)}")
    plan = _family_plan(desc, field)
    p = field.p
    tail = (plan.cols @ np.array(norm, dtype=np.int64).reshape(len(norm), field.m)) % p
    b = XPoly(field, desc.l, (field.zero(),) * desc.delta + _from_array(tail))
    # (x-1)^(k+1) * b(x), in standard coordinates
    g1: RVector = tuple(zip(_from_array((plan.conv @ tail) % p), plan.u_std))
    gens = (g1,) if plan.second is None else (g1, plan.second)
    return CodeSpec(desc, norm, b, RIdealGens(field=field, ring_sign=1, generators=gens))


def _param_tuples(field: FieldSpec, width: int, start: int) -> Iterator[tuple[FqElem, ...]]:
    """Parameter tuples of one family in lexicographic order, from the
    ``start``-th on: a radix-p^m odometer (Knuth, TAOCP 7.2.1.1,
    Algorithm M) whose digit d is decoded, when it changes, into the d-th
    element of ``field.elements()``: the base-p digits of d, most
    significant first.  Nothing of size p^m is built."""
    p, m = field.p, field.m
    q = p**m

    def element(d: int) -> FqElem:
        coeffs = [0] * m
        for i in reversed(range(m)):
            d, coeffs[i] = divmod(d, p)
        return tuple(coeffs)

    digits = [0] * width
    for i in reversed(range(width)):
        start, digits[i] = divmod(start, q)
    combo = [element(d) for d in digits]
    zero = field.zero()
    while True:
        yield tuple(combo)
        i = width - 1
        while i >= 0 and digits[i] == q - 1:
            digits[i] = 0
            combo[i] = zero
            i -= 1
        if i < 0:
            return
        digits[i] += 1
        combo[i] = element(digits[i])


def descriptor_codes(desc: CaseDescriptor, field: FieldSpec) -> Iterator[CodeSpec]:
    """All codes of one family, parameters in lexicographic order."""
    for combo in _param_tuples(field, desc.free_param_count, 0):
        yield build_code(desc, combo, field)


def enumerate_codes(
    p: int, m: int, s: int, field: FieldSpec | None = None, start: int = 0
) -> Iterator[CodeSpec]:
    """Every self-dual cyclic code of length p^s over F_{p^m} + u F_{p^m},
    exactly once, in deterministic order; O(1) codes held in memory.

    The stream begins at index ``start``; skipped codes are never built.
    Whole families are skipped by their exact counts, so the cost of
    reaching any index is O(#families)."""
    if field is None:
        field = find_irreducible(p, m)
    elif (field.p, field.m) != (p, m):
        raise ValueError(f"field is F_{field.p}^{field.m}, expected F_{p}^{m}")
    if start < 0:
        raise ValueError(f"start index must be >= 0, got {start}")
    for desc in classify_cases(p, s):
        size = descriptor_count(desc, m)
        if start >= size:
            start -= size
            continue
        for combo in _param_tuples(field, desc.free_param_count, start):
            yield build_code(desc, combo, field)
        start = 0


def descriptor_count(desc: CaseDescriptor, m: int) -> int:
    """Number of codes in one family: (p^m)^free_param_count."""
    return (desc.p**m) ** desc.free_param_count


def _validate_count(p: int, m: int, s: int) -> None:
    _validate_ps(p, s)
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")


def _geometric_exponent(n: int) -> tuple[int, int]:
    """(e, lead): the total for length n is
    lead * q^e + 2 * (1 + q + ... + q^(e-1))."""
    if n % 4 == 3:
        return (n + 1) // 4, 0
    return (n - 1) // 4, 1


def count_self_dual(p: int, m: int, s: int) -> int:
    """Exact closed-form total.  The geometric part is (q^e - 1)/(q - 1),
    one exact big-integer division; the largest number built, q^e, has
    at most twice the digits of the total."""
    _validate_count(p, m, s)
    e, lead = _geometric_exponent(p**s)
    if e == 1 and not lead:
        return 2  # N = 3: 2 * (q - 1)/(q - 1) for every q, so q is not built
    q = p**m
    power = q**e
    geom, rem = divmod(power - 1, q - 1)
    if rem:
        raise ArithmeticError(f"inexact geometric sum for q={q}, e={e}")
    return lead * power + 2 * geom


def _count_digits(p: int, m: int, s: int) -> float:
    """The decimal length of ``count_self_dual(p, m, s)``, estimated from
    logarithms alone, so that a caller can refuse a size before any big
    power is built: E*m*log10(p) for the total's leading power q^E, at
    most 1.5 below the true length; inf beyond 10^300 digits."""
    _validate_count(p, m, s)
    if s * math.log10(p) > 300:
        return math.inf
    e, lead = _geometric_exponent(p**s)
    top = e - 1 + lead
    if top == 0:
        return 0.0
    log_digits = math.log10(top) + math.log10(m) + math.log10(math.log10(p))
    return math.inf if log_digits > 300 else 10**log_digits


def to_negacyclic(code: CodeSpec) -> RIdealGens:
    """Image under x -> -x: odd-degree standard coefficients change
    sign, and the result generates a negacyclic (x^N + 1) ideal.  The
    map is a ring isomorphism, so it carries self-dual cyclic codes
    bijectively onto self-dual negacyclic ones."""
    field = code.generators.field
    flipped = []
    for g in code.generators.generators:
        flipped.append(
            tuple(
                (a, b) if d % 2 == 0 else (field.neg(a), field.neg(b))
                for d, (a, b) in enumerate(g)
            )
        )
    return RIdealGens(field=field, ring_sign=-1, generators=tuple(flipped))


def sample_codes(p: int, m: int, s: int, count: int, seed: int = 0) -> Iterator[CodeSpec]:
    """``count`` codes drawn uniformly at random from the full family,
    reproducibly from ``seed``.  A CLI convenience: family weights are
    exact big integers, so the draw is uniform even for huge families."""
    field = find_irreducible(p, m)
    descs = classify_cases(p, s)
    weights = [descriptor_count(d, m) for d in descs]
    total = sum(weights)
    rng = random.Random(seed)
    for _ in range(count):
        r = rng.randrange(total)
        for desc, w in zip(descs, weights):
            if r < w:
                break
            r -= w
        params = tuple(
            tuple(rng.randrange(p) for _ in range(m)) for _ in range(desc.free_param_count)
        )
        yield build_code(desc, params, field)
