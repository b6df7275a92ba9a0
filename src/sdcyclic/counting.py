"""The parameter families of the self-dual cyclic codes of length
N = p^s over F_{p^m} + u F_{p^m}, and the closed-form count: integer work
only, no matrices.

A family is one torsion exponent class ('k0', 'even-k' or 'odd-k') with
its support window [delta, l) and its number of free field parameters,
which the ``column_index_range`` of the truncated reciprocal matrix
gives.  The cases split by N mod 4 into two (N = 3 mod 4) or three
(N = 1 mod 4) families; their k values cover 0..(N-1)/2 exactly once.
``count_self_dual`` sums the family sizes in closed form.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .fieldcore import is_prime

CASE_K0 = "k0"
CASE_EVEN_K = "even-k"
CASE_ODD_K = "odd-k"


class CaseDescriptor(NamedTuple):
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


def column_index_range(l: int, delta: int) -> tuple[int, int]:
    """Inclusive j-range of the valid odd columns 2j-1 for a given
    truncation: ceil(delta/2) + 1 <= j <= ceil(l/2)."""
    return (delta + 1) // 2 + 1, (l + 1) // 2


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
