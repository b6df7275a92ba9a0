"""Exact arithmetic in the prime field F_p and its extensions F_{p^m}.

Field elements carry no wrapper object: an element of F_{p^m} is the bare
coefficient tuple ``(c_0, ..., c_{m-1})`` with entries in ``[0, p)``, low
degree first, relative to a monic irreducible modulus of degree ``m``.  A
:class:`FieldSpec` holds ``(p, m, modulus)`` and performs all arithmetic on
those tuples.  Residues live in ``[0, p)`` throughout, so ``-1`` is always
represented as ``p - 1``.

Specs and elements are immutable and every operation is a pure function;
they can be shared freely across threads.
"""

from __future__ import annotations

import itertools
import sys
from array import array
from functools import lru_cache
from typing import Iterable, Iterator, Sequence, Tuple

FqElem = Tuple[int, ...]


# Miller-Rabin with the first 13 primes as bases decides primality exactly
# below this bound, psi_13 (Sorenson and Webster, Math. Comp. 86, 2017).
MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MILLER_RABIN_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test, exact for every
    n < MILLER_RABIN_BOUND; refuses larger n with ``ValueError``."""
    if n < 2:
        return False
    if n >= MILLER_RABIN_BOUND:
        raise ValueError(f"primality is decided only below {MILLER_RABIN_BOUND}, got {n}")
    for a in MILLER_RABIN_BASES:
        if n % a == 0:
            return n == a
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in MILLER_RABIN_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# Dense polynomial helpers over F_p.  Coefficient lists, low degree first,
# trailing zeros trimmed.  Only used for modulus validation and search.

def _trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _psub(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    n = max(len(a), len(b))
    out = [0] * n
    for i in range(n):
        x = a[i] if i < len(a) else 0
        y = b[i] if i < len(b) else 0
        out[i] = (x - y) % p
    return _trim(out)


def _pmul(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            out[i : i + len(b)] = [u + x * y for u, y in zip(out[i:], b)]
    return _trim([c % p for c in out])


def _prem(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    """Remainder of a by b (b nonzero); b is normalized to monic first."""
    b = _trim(list(b))
    inv = pow(b[-1], -1, p)
    b = [(c * inv) % p for c in b]
    r = _trim(list(a))
    db = len(b) - 1
    while len(r) - 1 >= db:
        c = r[-1]
        off = len(r) - 1 - db
        r[off:] = [(u - c * v) % p for u, v in zip(r[off:], b)]
        _trim(r)  # leading term is now zero, so this strictly shrinks r
    return r


def _pgcd(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    a, b = _trim(list(a)), _trim(list(b))
    while b:
        a, b = b, _prem(a, b, p)
    return a


def _ppowmod(a: Sequence[int], e: int, f: Sequence[int], p: int) -> list[int]:
    result = [1]
    base = _prem(a, f, p)
    while e > 0:
        if e & 1:
            result = _prem(_pmul(result, base, p), f, p)
        e >>= 1
        if e:
            base = _prem(_pmul(base, base, p), f, p)
    return result


# find_irreducible's choice is tested again by FieldSpec: a hit here.
@lru_cache(maxsize=4)
def _is_irreducible(f: tuple[int, ...], p: int) -> bool:
    """Ben-Or's irreducibility test for monic f of degree m over F_p:
    f is irreducible iff gcd(x^(p^i) - x, f) is constant for every
    i <= m/2.  A reducible f has an irreducible factor of some degree
    i <= m/2, and the test stops at the first such i, so most candidates
    of a search are rejected after a few powerings."""
    m = len(f) - 1
    if m < 1:
        return False
    x = [0, 1]
    h = x
    for _ in range(m // 2):
        h = _ppowmod(h, p, f, p)  # x^(p^i) mod f
        if len(_pgcd(_psub(h, x, p), f, p)) > 1:
            return False
    return True


# ---------------------------------------------------------------------------


class FieldSpec:
    """The finite field F_{p^m} for an odd prime p.

    ``modulus`` is the monic irreducible defining polynomial as a
    coefficient list of length ``m + 1``, constant term first.  For
    ``m == 1`` the canonical modulus is plain ``x`` (coefficients
    ``(0, 1)``) and elements are the 1-tuples ``(c,)``.

    Construction verifies that ``p`` is an odd prime and that the modulus
    is monic of degree exactly ``m`` and irreducible over F_p.
    """

    __slots__ = ("p", "m", "modulus", "order", "reduction")

    def __init__(self, p: int, m: int, modulus: Sequence[int]):
        if p < 3 or not is_prime(p):
            raise ValueError(f"p must be an odd prime, got {p}")
        if m < 1:
            raise ValueError(f"extension degree must be >= 1, got {m}")
        mod = tuple(c % p for c in modulus)
        if len(mod) != m + 1 or mod[-1] != 1:
            raise ValueError(f"modulus must be monic of degree {m}, got {list(modulus)}")
        if not _is_irreducible(mod, p):
            raise ValueError(f"modulus {list(mod)} is reducible over F_{p}")
        self.p = p
        self.m = m
        self.modulus = mod
        self.order = p**m
        # reduction[t] = coefficients of x^(m+t) mod modulus, t = 0..m-2;
        # enough to fold products of degree <= 2m-2.
        reds: list[FqElem] = []
        if m > 1:
            cur = [(-c) % p for c in mod[:m]]
            reds.append(tuple(cur))
            for _ in range(m - 2):
                carry = cur[-1]
                cur = [0] + cur[:-1]
                cur = [(cur[i] + carry * reds[0][i]) % p for i in range(m)]
                reds.append(tuple(cur))
        self.reduction: tuple[FqElem, ...] = tuple(reds)

    # -- identities and coercion

    def zero(self) -> FqElem:
        return (0,) * self.m

    def one(self) -> FqElem:
        return (1,) + (0,) * (self.m - 1)

    def element(self, coeffs: Iterable[int]) -> FqElem:
        """Build an element from up to m coefficients, reducing mod p."""
        vals = [c % self.p for c in coeffs]
        if len(vals) > self.m:
            raise ValueError(f"element needs at most {self.m} coefficients, got {len(vals)}")
        return tuple(vals) + (0,) * (self.m - len(vals))

    # -- arithmetic

    def add(self, a: FqElem, b: FqElem) -> FqElem:
        p = self.p
        return tuple((x + y) % p for x, y in zip(a, b))

    def neg(self, a: FqElem) -> FqElem:
        p = self.p
        return tuple((-x) % p for x in a)

    def mul(self, a: FqElem, b: FqElem) -> FqElem:
        p, m = self.p, self.m
        if m == 1:
            return ((a[0] * b[0]) % p,)
        conv = [0] * (2 * m - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    conv[i + j] += x * y
        out = conv[:m]
        for t, red in enumerate(self.reduction):
            c = conv[m + t]
            if c:
                for i, r in enumerate(red):
                    out[i] += c * r
        return tuple(v % p for v in out)

    def pow(self, a: FqElem, e: int) -> FqElem:
        if e < 0:
            return self.pow(self.inv(a), -e)
        result = self.one()
        base = a
        while e > 0:
            if e & 1:
                result = self.mul(result, base)
            e >>= 1
            if e:
                base = self.mul(base, base)
        return result

    def inv(self, a: FqElem) -> FqElem:
        if not any(a):
            raise ZeroDivisionError("zero has no multiplicative inverse")
        return self.pow(a, self.order - 2)

    def elements(self) -> Iterator[FqElem]:
        """All p^m elements exactly once, ascending lexicographic
        coefficient order, starting at zero."""
        return itertools.product(range(self.p), repeat=self.m)

    # -- identity semantics

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FieldSpec)
            and self.p == other.p
            and self.m == other.m
            and self.modulus == other.modulus
        )

    def __hash__(self) -> int:
        return hash((self.p, self.m, self.modulus))

    def __repr__(self) -> str:
        return f"FieldSpec(p={self.p}, m={self.m}, modulus={list(self.modulus)})"


def _check_reduced(field: FieldSpec, coeffs: Sequence[FqElem]) -> None:
    """Refuse with ``ValueError``, naming the first one, coefficients that
    are not m residues in [0, p).  One pass over all entries at C speed
    collects their distinct values; the loop only runs to name the bad
    coefficient."""
    m, p = field.m, field.p
    values = set(itertools.chain.from_iterable(coeffs))
    if not (set(map(len, coeffs)) <= {m} and (not values or (min(values) >= 0 and max(values) < p))):
        for c in coeffs:
            if len(c) != m or any(not 0 <= v < p for v in c):
                raise ValueError(f"coefficient {c} is not a reduced F_{p}^{m} tuple")


# ---------------------------------------------------------------------------
# Vectors packed into one Python int: entry i fills the ``width`` bytes of
# slot i, bits [8*width*i, 8*width*(i+1)), so that a sum, a scalar
# multiple, a shift or a polynomial product (Kronecker substitution) of
# whole vectors is one int operation, done in C.  Every slot must stay in
# [0, 256^width); callers pick the width from a bound on the entries.

# array typecode of each machine width; wider slots go through bytes
_TYPECODES = {array(code).itemsize: code for code in "QLIHB"}


def _slot_bytes(bound: int) -> int:
    """The slot width, in bytes, for entries in [0, bound]: 1, 2, 4 or 8
    when one of them suffices, else the least that does."""
    need = max(1, -(-bound.bit_length() // 8))
    return next((w for w in (1, 2, 4, 8) if w >= need and w in _TYPECODES), need)


def _pack(values: Iterable[int], width: int) -> int:
    """The int whose slot i holds ``values[i]``."""
    code = _TYPECODES.get(width)
    if code is None:
        return int.from_bytes(b"".join(v.to_bytes(width, "little") for v in values), "little")
    if width > 1 and isinstance(values, (bytes, bytearray)):
        # array() would read these as raw machine words, not one value a byte
        values = list(values)
    arr = array(code, values)
    if sys.byteorder == "big":
        arr.byteswap()
    return int.from_bytes(arr.tobytes(), "little")


def _unpack(x: int, count: int, width: int) -> Sequence[int]:
    """Slots 0..count-1 of the non-negative int x; higher ones are cut."""
    size = count * width
    if x.bit_length() > 8 * size:
        x &= (1 << 8 * size) - 1
    data = x.to_bytes(size, "little")
    code = _TYPECODES.get(width)
    if code is None:
        return [int.from_bytes(data[i : i + width], "little") for i in range(0, size, width)]
    arr = array(code, data)
    if sys.byteorder == "big":
        arr.byteswap()
    return arr


def _residues(x: int, count: int, width: int, p: int) -> list[int]:
    """Slots 0..count-1 of x, each reduced mod p."""
    return [v % p for v in _unpack(x, count, width)]


@lru_cache(maxsize=4)
def _byte_tables(p: int) -> tuple[bytes, bytes, bytes]:
    """``bytes.translate`` tables for p < 256: a byte v to v mod p, to
    256 v mod p (the high byte of a 2-byte slot), and to -v mod p."""
    low = bytes(v % p for v in range(256))
    high = bytes(256 * v % p for v in range(256))
    return low, high, bytes(-v % p for v in range(256))


def _residue_bytes(x: int, count: int, width: int, p: int) -> Sequence[int]:
    """``_residues(x, count, width, p)`` as a ``bytes`` when p < 256, a
    tuple above.  For p < 128 and slots of 1 or 2 bytes it is done by
    ``bytes.translate``: a 2-byte slot's low byte lo and high byte hi
    become lo mod p and 256 hi mod p, whose sum is at most 2p - 2 < 256,
    so the two translated strings add as ints with no carry between
    slots, and the sum is translated once more."""
    if p >= 128 or width > 2:
        values = _residues(x, count, width, p)
        return bytes(values) if p < 256 else tuple(values)
    size = count * width
    if x.bit_length() > 8 * size:
        x &= (1 << 8 * size) - 1
    low, high, _ = _byte_tables(p)
    data = x.to_bytes(size, "little")
    if width == 1:
        return data.translate(low)
    total = int.from_bytes(data[::2].translate(low), "little") + int.from_bytes(data[1::2].translate(high), "little")
    return total.to_bytes(count, "little").translate(low)


# The modulus search is refused above this degree.  Its cost grows about
# as m^3 log p: at p = 2039 and m = 100 it takes about 10 s.
MAX_EXTENSION_DEGREE = 100


def find_irreducible(p: int, m: int) -> FieldSpec:
    """FieldSpec with the smallest monic irreducible modulus of degree m,
    for 1 <= m <= MAX_EXTENSION_DEGREE.

    Candidates x^m + c_{m-1} x^{m-1} + ... + c_0 are scanned in increasing
    order of the integer value sum(c_i * p^i) of the non-leading
    coefficients, so the choice is deterministic across runs and platforms.
    """
    if p < 3 or not is_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")
    if m < 1:
        raise ValueError(f"extension degree must be >= 1, got {m}")
    if m > MAX_EXTENSION_DEGREE:
        raise ValueError(
            f"extension degree {m} is above MAX_EXTENSION_DEGREE = {MAX_EXTENSION_DEGREE}, "
            "the largest m for which a modulus is searched"
        )
    # When 4 | m and p = 3 (mod 4), no x^m + c is irreducible (Lidl and
    # Niederreiter, Finite Fields, Thm 3.75), so those p candidates are
    # skipped: at a huge p the scan would never get past them.
    start = p if m % 4 == 0 and p % 4 == 3 else 0
    for value in range(start, p**m):
        coeffs = []
        v = value
        for _ in range(m):
            coeffs.append(v % p)
            v //= p
        coeffs.append(1)
        if _is_irreducible(tuple(coeffs), p):
            return FieldSpec(p, m, coeffs)
    raise AssertionError("unreachable: an irreducible polynomial of every degree exists")
