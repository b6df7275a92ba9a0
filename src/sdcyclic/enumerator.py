"""Construction and enumeration of the self-dual cyclic codes of length
N = p^s over R = F_{p^m} + u F_{p^m}, plus the sign-flip carry-over to
negacyclic codes.  The families and the closed-form count live in
``counting``, which needs no matrices; ``classify_cases``,
``count_self_dual`` and ``descriptor_count`` are re-exported here.

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

import itertools
import random
from functools import lru_cache
from operator import mul
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple, Sequence

from .counting import (  # noqa: F401  (re-exported)
    CaseDescriptor,
    _validate_ps,
    classify_cases,
    count_self_dual,
    descriptor_count,
)
from .fieldcore import FieldSpec, FqElem, _byte_tables, _pack, _residue_bytes, _slot_bytes, find_irreducible
from .gmatrix import _checked_order
from .reciprocal import XPoly, _conv_rows, solution_basis

# The verifier is imported by the functions that hand codes to it, so
# that the stream commands never run it.
if TYPE_CHECKING:
    from .chainring import RIdealGens, _Rows

# A polynomial over F_{p^m} of a block is a tuple of m coordinates, the
# residues of each coordinate low degree first: a ``bytes`` for p < 256,
# else a tuple (``fieldcore._residue_bytes``); the verifier reads them as
# they are (``_generators``).  Parameters are flat tuples, parameter j's
# coordinate t at position j*m + t.
Coords = tuple[Sequence[int], ...]


def _code_space(
    p: int, m: int, s: int, field: FieldSpec | None = None
) -> tuple[list[CaseDescriptor], FieldSpec]:
    """The families of length p^s and the field F_{p^m}, for building
    codes; every command that builds codes starts here.  The length is
    checked against the size cap before the (N - 1)/2 families are
    listed and before the modulus search, which at a large prime can
    scan about p candidates (at 4 | m and p = 3 mod 4 no x^m + c is
    irreducible).  A given ``field`` is taken as it is, with no search."""
    _validate_ps(p, s)
    _checked_order(p, s)
    if field is None:
        field = find_irreducible(p, m)
    elif (field.p, field.m) != (p, m):
        raise ValueError(f"field is F_{field.p}^{field.m}, expected F_{p}^{m}")
    return classify_cases(p, s), field


class CodeSpec(NamedTuple):
    """One concrete self-dual cyclic code: its family, the chosen free
    parameters (ascending column index), the assembled b polynomial in
    the (x-1)-adic basis, and the generator presentation."""

    descriptor: CaseDescriptor
    params: tuple[FqElem, ...]
    b_coeffs: XPoly
    generators: RIdealGens


class _FamilyPlan(NamedTuple):
    """Everything a code of one family needs that does not depend on the
    parameters, built once per family.

    cols: the dim solution-basis columns over F_p, each packed over
        l - delta slots.
    conv: the standard coefficients of (x-1)^e for e in [k+1+delta, k+1+l),
        each packed over N slots: the (x-1)-adic -> standard change of
        basis of the coefficients b_delta, ..., b_(l-1).
    widths: the slot bytes of ``cols`` and of ``conv``.
    u: the u-part (x-1)^k in standard coordinates.
    second: the second generator's main part (x-1)^(N-k), or None when
        k = 0.
    """

    cols: tuple[int, ...]
    conv: tuple[int, ...]
    widths: tuple[int, int]
    u: Coords
    second: Coords | None


def _scalar(m: int, values: Sequence[int]) -> Coords:
    """The polynomial with F_p coefficients ``values``, as coordinates of
    the type of ``values``."""
    zero = bytes(len(values)) if isinstance(values, bytes) else (0,) * len(values)
    return (values,) + (zero,) * (m - 1)


# Small, so memory stays flat over long sweeps; the enumeration stream
# visits families one after another and needs one plan at a time.
@lru_cache(maxsize=4)
def _family_plan(desc: CaseDescriptor, field: FieldSpec) -> _FamilyPlan:
    n = _checked_order(desc.p, desc.s)
    p, m, k, l, delta = field.p, field.m, desc.k, desc.l, desc.delta
    basis = solution_basis(field, l, delta) if l > 0 else ()
    col_width = _slot_bytes(max(1, desc.free_param_count) * (p - 1) ** 2)
    cols = tuple(_pack(col, col_width) for col in zip(*basis))
    conv_width, rows = _conv_rows(p, n, -1)

    def power(e: int) -> Coords:
        return _scalar(m, _residue_bytes(rows[e], n, conv_width, p))

    second = power(n - k) if k > 0 else None
    return _FamilyPlan(cols, rows[k + 1 + delta : k + 1 + l], (col_width, conv_width), power(k), second)


# Most codes one block holds, and most coefficients its first generators
# hold, so a block stays small whatever N and m are.
BLOCK_CODES = 256
BLOCK_ENTRIES = 1 << 18


class _Block(NamedTuple):
    """Up to ``BLOCK_CODES`` consecutive codes of one family over
    ``field``, in the ring x^N - ring_sign.

    params: one flat parameter tuple per code.
    a: per code, the main part of the first generator, standard
        coordinates.
    u / second: the family's parameter-free parts in the same ring: the
        first generator's u-part and the second generator's main part
        (None when k = 0).
    """

    desc: CaseDescriptor
    field: FieldSpec
    ring_sign: int
    params: tuple[tuple[int, ...], ...]
    a: tuple[Coords, ...]
    u: Coords
    second: Coords | None


def _negate_odd_degrees(poly: Coords, p: int) -> Coords:
    """The image of x -> -x on standard coefficients: every coordinate's
    odd-degree entries negated mod p, those of a ``bytes`` by one
    translation."""
    out = []
    for coord in poly:
        if isinstance(coord, bytes):
            flipped = bytearray(coord)
            flipped[1::2] = coord[1::2].translate(_byte_tables(p)[2])
            out.append(bytes(flipped))
        else:
            flipped = list(coord)
            flipped[1::2] = [(p - v) % p for v in coord[1::2]]
            out.append(tuple(flipped))
    return tuple(out)


def _b_coords(plan: _FamilyPlan, desc: CaseDescriptor, field: FieldSpec, flat: tuple[int, ...]) -> Coords:
    """The (x-1)-adic coefficients of b from delta on, per field
    coordinate: ``cols . params`` mod p, one sum of packed columns."""
    p, m = field.p, field.m
    size, width = desc.l - desc.delta, plan.widths[0]
    return tuple(_residue_bytes(sum(map(mul, flat[t::m], plan.cols)), size, width, p) for t in range(m))


def _block(desc: CaseDescriptor, field: FieldSpec, params: Sequence[tuple[int, ...]], ring_sign: int = 1) -> _Block:
    """The codes of one family for a sequence of flat parameter tuples:
    per code and field coordinate, ``b = cols . params`` and
    ``a = conv . b`` (mod p), each one sum of packed columns; for
    ring_sign = -1 every polynomial flipped by x -> -x."""
    plan = _family_plan(desc, field)
    p, n = field.p, desc.p**desc.s
    conv, width = plan.conv, plan.widths[1]
    mains = [
        tuple(_residue_bytes(sum(map(mul, b, conv)), n, width, p) for b in _b_coords(plan, desc, field, flat))
        for flat in params
    ]
    u, second = plan.u, plan.second
    if ring_sign == -1:
        mains = [_negate_odd_degrees(a, p) for a in mains]
        u = _negate_odd_degrees(u, p)
        second = None if second is None else _negate_odd_degrees(second, p)
    return _Block(desc, field, ring_sign, tuple(params), tuple(mains), u, second)


def _elements(poly: Coords) -> tuple[FqElem, ...]:
    """The coefficients of a polynomial as field-element tuples."""
    return tuple(zip(*poly))


def _generators(block: _Block) -> Iterator[_Rows]:
    """Each row's generators, in the block's ring, as the verifier reads
    them: (main part, u-part) pairs of the block's own coordinates,
    unchecked."""
    from .chainring import _Rows

    rest = () if block.second is None else ((block.second, tuple((0,) * len(c) for c in block.second)),)
    for a in block.a:
        yield _Rows(block.field, block.ring_sign, ((a, block.u),) + rest)


def _codes(block: _Block) -> Iterator[CodeSpec]:
    """The cyclic block's rows as ``CodeSpec``s, converted one at a time;
    b is computed again from each row's parameters."""
    from .chainring import RIdealGens

    desc, field = block.desc, block.field
    plan = _family_plan(desc, field)
    m = field.m
    pad = (field.zero(),) * desc.delta
    for flat, rows in zip(block.params, _generators(block)):
        b = _elements(_b_coords(plan, desc, field, flat))
        gens = tuple(tuple(zip(_elements(a), _elements(bu))) for a, bu in rows.generators)
        params = tuple(zip(*[iter(flat)] * m))
        yield CodeSpec(desc, params, XPoly(field, desc.l, pad + b), RIdealGens(field, block.ring_sign, gens))


def _checked_params(desc: CaseDescriptor, params: Sequence[FqElem], field: FieldSpec) -> tuple[tuple[int, ...]]:
    """One code's parameters as a one-code block of flat tuples, each
    normalised by ``field.element`` and their number checked."""
    if field.p != desc.p:
        raise ValueError(f"field characteristic {field.p} does not match descriptor p={desc.p}")
    norm = [field.element(a) for a in params]
    if len(norm) != desc.free_param_count:
        raise ValueError(f"expected {desc.free_param_count} parameters, got {len(norm)}")
    return (tuple(itertools.chain.from_iterable(norm)),)


def build_code(desc: CaseDescriptor, params: Sequence[FqElem], field: FieldSpec) -> CodeSpec:
    """Assemble the code for one family and one choice of free
    parameters: b is the span element of the truncated solution basis,
    embedded at offset delta.  The one-row case of the block kernel."""
    block = _block(desc, field, _checked_params(desc, params, field))
    return next(_codes(block))


def _base_p_digits(value: int, p: int, width: int) -> list[int]:
    out = [0] * width
    for i in reversed(range(width)):
        value, out[i] = divmod(value, p)
    return out


def _decode_block(field: FieldSpec, width: int, start: int, count: int) -> tuple[tuple[int, ...], ...]:
    """The parameters of in-family indices start, ..., start + count - 1,
    as flat tuples in lexicographic order: each index written in base
    q = p^m with ``width`` digits, each digit d the d-th element of
    ``field.elements()``.  Together these are the index's width*m base-p
    digits, most significant first: ``start`` is written in base p once,
    then counted up by one per code."""
    top = field.p - 1
    digits = _base_p_digits(start, field.p, width * field.m)
    out = []
    for _ in range(count):
        out.append(tuple(digits))
        i = len(digits) - 1
        while i >= 0 and digits[i] == top:
            digits[i] = 0
            i -= 1
        if i >= 0:
            digits[i] += 1
    return tuple(out)


def _block_cap(n: int, m: int) -> int:
    return max(1, min(BLOCK_CODES, BLOCK_ENTRIES // (n * m)))


def _locate(counts: Iterable[int], index: int) -> tuple[int, int]:
    """(family, in-family index) of code ``index`` of a stream whose
    families hold ``counts`` codes, read one at a time up to the family
    found; (number of families, what is left of the index) past the
    end."""
    family = 0
    for count in counts:
        if index < count:
            break
        index -= count
        family += 1
    return family, index


def _family_blocks(
    descs: Sequence[CaseDescriptor], field: FieldSpec, start: int, ring_sign: int = 1, stop: int | None = None
) -> Iterator[_Block]:
    """The enumeration stream from index ``start`` up to ``stop`` (to the
    end when None), as blocks.  Whole families before ``start`` are
    skipped by their exact counts, so no skipped code is built, and the
    last block ends at ``stop``.  Blocks grow 1, 2, 4, ... up to the cap,
    so the first code comes at once."""
    left = None if stop is None else max(0, stop - start)  # codes still to build
    first, start = _locate((descriptor_count(d, field.m) for d in descs), start)
    size = 1
    for desc in descs[first:]:
        total = descriptor_count(desc, field.m)
        cap = _block_cap(desc.p**desc.s, field.m)
        while start < total:
            if left == 0:
                return
            count = min(size, cap, total - start)
            if left is not None:
                count = min(count, left)
                left -= count
            params = _decode_block(field, desc.free_param_count, start, count)
            yield _block(desc, field, params, ring_sign)
            start += count
            size = min(2 * size, BLOCK_CODES)
        start = 0


def descriptor_codes(desc: CaseDescriptor, field: FieldSpec) -> Iterator[CodeSpec]:
    """All codes of one family, parameters in lexicographic order."""
    for block in _family_blocks([desc], field, 0):
        yield from _codes(block)


def _stream_blocks(
    p: int, m: int, s: int, field: FieldSpec | None = None, start: int = 0, ring_sign: int = 1, stop: int | None = None
) -> Iterator[_Block]:
    """The blocks of ``enumerate_codes(p, m, s, field, start)``, in the
    ring x^N - ring_sign, up to index ``stop``.  The arguments are checked
    when it is called, before the stream starts, so a window of no codes
    is refused as any other is."""
    if start < 0:
        raise ValueError(f"start index must be >= 0, got {start}")
    descs, field = _code_space(p, m, s, field)
    return _family_blocks(descs, field, start, ring_sign, stop)


def enumerate_codes(
    p: int, m: int, s: int, field: FieldSpec | None = None, start: int = 0
) -> Iterator[CodeSpec]:
    """Every self-dual cyclic code of length p^s over F_{p^m} + u F_{p^m},
    exactly once, in deterministic order; O(1) codes held in memory.

    The stream begins at index ``start``; skipped codes are never built.
    Whole families are skipped by their exact counts, so the cost of
    reaching any index is O(#families)."""
    for block in _stream_blocks(p, m, s, field, start):
        yield from _codes(block)


def to_negacyclic(code: CodeSpec) -> RIdealGens:
    """Image under x -> -x: odd-degree standard coefficients change
    sign, and the result generates a negacyclic (x^N + 1) ideal.  The
    map is a ring isomorphism, so it carries self-dual cyclic codes
    bijectively onto self-dual negacyclic ones."""
    from .chainring import RIdealGens

    field = code.generators.field
    generators = []
    for g in code.generators.generators:
        # (a | b) as 2m coordinates, one sign mask
        flipped = _negate_odd_degrees(tuple(zip(*(a + b for a, b in g))), field.p)
        generators.append(tuple(zip(_elements(flipped[: field.m]), _elements(flipped[field.m :]))))
    return RIdealGens(field, -1, tuple(generators))


def _sample_blocks(p: int, m: int, s: int, count: int, seed: int) -> Iterator[_Block]:
    """The codes of ``sample_codes`` as one-code blocks: per draw, a stream
    index below the total picks the family, then each coordinate of each
    parameter is drawn.  The arguments are checked when it is called."""
    descs, field = _code_space(p, m, s)
    weights = [descriptor_count(d, m) for d in descs]
    total = sum(weights)
    rng = random.Random(seed)

    def draw() -> _Block:
        desc = descs[_locate(weights, rng.randrange(total))[0]]
        flat = tuple(rng.randrange(p) for _ in range(desc.free_param_count * m))
        return _block(desc, field, (flat,))

    return (draw() for _ in range(count))


def sample_codes(p: int, m: int, s: int, count: int, seed: int = 0) -> Iterator[CodeSpec]:
    """``count`` codes drawn uniformly at random from the full family,
    reproducibly from ``seed``.  A CLI convenience: family weights are
    exact big integers, so the draw is uniform even for huge families."""
    for block in _sample_blocks(p, m, s, count, seed):
        yield from _codes(block)
