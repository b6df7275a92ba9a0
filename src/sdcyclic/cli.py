"""Command-line front end.

Subcommands: ``gmatrix`` (print reciprocal matrices, their +/-identity
variants, or solution-basis columns), ``count``, ``enumerate``, ``build``,
``verify``, and ``negacyclic``.  Output is plain text, JSON, or CSV
(counting tables only); no color is ever emitted, so NO_COLOR needs no
special handling.  The only randomness is ``enumerate --sample``, seeded
via ``--seed``; identical invocations produce byte-identical output.

JSON schemas (documented in the README): field elements are integer
arrays low-degree first; polynomials are {"basis": "xm1"|"std",
"coeffs": [[...], ...]}; codes are {"p", "m", "s", "case", "nu", "k",
"params", "generators", "ring_sign"}.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import math
import operator
import os
import sys
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

# Library modules are imported by the subcommands that use them, so that
# a command runs only the modules it needs.
if TYPE_CHECKING:
    from .chainring import RIdealGens
    from .enumerator import CodeSpec, Coords, _Block
    from .fieldcore import FieldSpec, FqElem


# ---------------------------------------------------------------------------
# Rendering

def _fq_str(e: FqElem) -> str:
    return ":".join(str(c) for c in e)


def _parse_fq(field: FieldSpec, text: str) -> FqElem:
    parts = text.split(":")
    if len(parts) > field.m or not all(part.isdecimal() and int(part) < field.p for part in parts):
        raise ValueError(f"--params entries must be at most m = {field.m} residues in [0, {field.p}), got {text!r}")
    return field.element(map(int, parts))


def _parse_params(field: FieldSpec, text: str) -> tuple[FqElem, ...]:
    if not text:
        return ()
    return tuple(_parse_fq(field, item) for item in text.split(","))


@functools.lru_cache(maxsize=4)
def _x_powers(n: int) -> tuple[str, ...]:
    """The monomial of each degree below n as printed: '', 'x', 'x^2', ..."""
    return ("", "x") + tuple(f"x^{d}" for d in range(2, n))


# Fields of at most this many elements print coefficients from a table.
COEFF_TABLE_MAX = 4096


@functools.lru_cache(maxsize=4)
def _coeff_texts(p: int, m: int) -> tuple[str, ...]:
    """Each element as printed in front of a power of x, in the order of
    ``FieldSpec.elements()``: the residue, or '' for 1, when m = 1; the
    colon-joined coefficients in parentheses when m > 1."""
    if m == 1:
        return ("0", "") + tuple(map(str, range(2, p)))
    return tuple(f"({':'.join(map(str, e))})" for e in itertools.product(range(p), repeat=m))


def _poly_json(poly: Coords) -> str:
    """A polynomial's coefficients as compact json: a list of lists."""
    if not poly[0]:
        return "[]"
    inner = "],[".join(map(",".join, zip(*[map(str, coord) for coord in poly])))
    return f"[[{inner}]]"


def _params_text(params: Sequence[int], m: int) -> str:
    """A flat parameter tuple as printed: elements joined by ',', each
    its colon-joined coefficients."""
    return ",".join(map(":".join, zip(*[map(str, params)] * m)))


def _poly_text(poly: Coords, p: int) -> str:
    """A polynomial given by the coordinates of its standard coefficients,
    as text: nonzero terms low degree first, joined by '+'; a coefficient
    is its colon-joined field coefficients, in parentheses when m > 1,
    and is left out when it is 1 in front of a power of x; '0' for zero.
    Up to q = 256 elements, each coefficient's position in the field's
    element order is one byte, all of them from one packed multiply-add
    over the coordinates."""
    m, n = len(poly), len(poly[0])
    q = p**m
    xs = _x_powers(n)
    if q > COEFF_TABLE_MAX:
        terms = [f"({_fq_str(c)}){xs[d]}" for d, c in enumerate(zip(*poly)) if any(c)]
        return "+".join(terms) or "0"
    if m == 1:
        index = poly[0]
    elif q <= 256:
        packed = 0
        for coord in poly:
            packed = packed * p + int.from_bytes(coord, "little")
        index = packed.to_bytes(n, "little")
    else:
        index = poly[0]
        for coord in poly[1:]:
            index = [i * p + c for i, c in zip(index, coord)]
    coeffs = map(_coeff_texts(p, m).__getitem__, filter(None, index))
    terms = "+".join(map(operator.add, coeffs, itertools.compress(xs, index)))
    if m == 1 and index[0] == 1:
        # a constant term 1 is printed; its table entry '' is for x^d
        return "1" + terms
    return terms or "0"


# Json lines of fields with one-digit residues are filled in as bytes: each
# residue as its byte value, then every byte below 10 to its digit.
_DIGITS = bytes.maketrans(bytes(range(10)), b"0123456789")


def _json_grid(n: int, m: int) -> bytes:
    """The compact json of n field elements, each a list of m zero bytes:
    coordinate t of element d sits at 2 + 2t + d(2m + 2)."""
    if not n:
        return b"[]"
    return b"[" + b",".join([b"[" + b",".join([b"\0"] * m) + b"]"] * n) + b"]"


def _json_row_filler(head: str, n_params: int, mid: str, n: int, tail: str, m: int):
    """``render(index, params, a)`` of ``_row_renderer`` for json and
    residues of one digit: the line ``head`` params ``mid`` a ``tail``
    from one byte template per family, each coordinate put in by one
    slice assignment, then one translation to text."""
    step = 2 * m + 2
    head, params, mid = head.encode(), _json_grid(n_params, m), mid.encode()
    template = head + params + mid + _json_grid(n, m) + tail.encode()
    params_at = len(head) + 2
    a_at = len(head) + len(params) + len(mid) + 2

    def render(index: int, params: Sequence[int], a: Coords) -> str:
        line = bytearray(template)
        for t in range(m):
            at = params_at + 2 * t
            line[at : at + step * n_params : step] = params[t::m]
            at = a_at + 2 * t
            line[at : at + step * n : step] = a[t]
        return line.translate(_DIGITS).decode("ascii")

    return render


def _row_renderer(block: _Block, fmt: str):
    """The line printer of one family, in the ring of ``block``: the
    family's constant pieces (label head, u-part, second generator, json
    prefix and suffix) are put together once; per code only the
    parameters and the main part ``a`` of the first generator are
    rendered.  Returns ``render(index, params, a)`` for a flat parameter
    tuple and the coordinates ``a``: the line, newline included."""
    d = block.desc
    m = block.field.m
    if fmt == "json":
        std = '{"basis":"std","coeffs":'
        head = f'{{"p":{d.p},"m":{m},"s":{d.s},"case":"{d.sub}","nu":{d.nu},"k":{d.k},"params":'
        mid = ',"generators":[{"a":' + std
        tail = '},"b":' + std + _poly_json(block.u) + "}}"
        if block.second is not None:
            zero = (bytes(len(block.second[0])),) * m
            tail += ',{"a":' + std + _poly_json(block.second) + '},"b":' + std + _poly_json(zero) + "}}"
        tail += f'],"ring_sign":{block.ring_sign}}}\n'
        if d.p < 10:
            return _json_row_filler(head, d.free_param_count, mid, len(block.u[0]), tail, m)

        def render(index: int, params: Sequence[int], a: Coords) -> str:
            return head + _poly_json(tuple(params[t::m] for t in range(m))) + mid + _poly_json(a) + tail

        return render
    head = f" case={d.sub} nu={d.nu} k={d.k} params=["
    b_str = _poly_text(block.u, d.p)
    tail = "u" if b_str == "1" else f"u*({b_str})"
    if block.second is not None:
        tail += f"; {_poly_text(block.second, d.p)}"
    tail += ">\n"

    def render(index: int, params: Sequence[int], a: Coords) -> str:
        a_str = _poly_text(a, d.p)
        joint = "" if a_str == "0" else a_str + "+"
        return f"index={index}{head}{_params_text(params, m)}] <{joint}{tail}"

    return render


def _block_lines(blocks: Iterable[_Block], fmt: str, first_index: int) -> Iterator[str]:
    """One line per code of the blocks, numbered from ``first_index``,
    newline included; each line is rendered only when it is asked for."""
    index = first_index
    desc = render = None
    for block in blocks:
        if block.desc is not desc:
            desc, render = block.desc, _row_renderer(block, fmt)
        for params, a in zip(block.params, block.a):
            yield render(index, params, a)
            index += 1


def _matrix_chunks(p: int, rows: int, cols: int, blocks: Iterable[Sequence[int]], fmt: str) -> Iterator[str]:
    """The text or json form of a ``rows x cols`` matrix of residues mod
    p, given as consecutive blocks of rows, each row packed in 2-byte
    slots (``gmatrix.ROW_SLOT_BYTES``); one piece per block, each
    rendered only when it is asked for.  Text is rows of right-aligned
    entries, all of the width of p - 1; json is the same cells with ','
    between them, each row in brackets and the padding removed.  When
    p - 1 has one digit, each slot plus a separator in its high byte is
    two bytes of the row's text after one ``bytes.translate``; else each
    cell is read from a table of the cells a slot can hold."""
    width = len(str(p - 1))
    sep = "," if fmt == "json" else " "
    if width == 1:
        seps = ord(sep) * (((1 << 16 * cols) - 1) // 0xFFFF) << 8
        digits = bytes.maketrans(bytes(range(p)), "".join(map(str, range(p))).encode())

        def cells(row: int) -> str:
            return (row + seps).to_bytes(2 * cols, "little").translate(digits).decode("ascii")
    else:
        from .fieldcore import _unpack

        texts = [f"{v}," if fmt == "json" else f"{v:>{width}} " for v in range(min(p, 1 << 16))]

        def cells(row: int) -> str:
            return "".join(map(texts.__getitem__, _unpack(row, cols, 2)))

    if fmt == "json":
        yield f'{{"p":{p},"rows":{rows},"cols":{cols},"entries":['
    done = 0
    for block in blocks:
        if fmt == "json":
            piece = "".join([f"[{cells(row)[:-1]}]," for row in block])
        else:
            piece = "".join([f"{cells(row)[:-1]}\n" for row in block])
        done += len(block)
        # the last row ends the list (json) or the output (text)
        yield piece if done < rows else piece[:-1]
    if fmt == "json":
        yield "]}"


# ---------------------------------------------------------------------------
# JSON import/export

def poly_to_obj(coeffs: Sequence[FqElem]) -> dict:
    return {"basis": "std", "coeffs": [list(c) for c in coeffs]}


def code_to_obj(code: CodeSpec, gens: RIdealGens | None = None) -> dict:
    gens = gens if gens is not None else code.generators
    field = gens.field
    d = code.descriptor
    out_gens = []
    for g in gens.generators:
        out_gens.append(
            {
                "a": poly_to_obj([v[0] for v in g]),
                "b": poly_to_obj([v[1] for v in g]),
            }
        )
    return {
        "p": d.p,
        "m": field.m,
        "s": d.s,
        "case": d.sub,
        "nu": d.nu,
        "k": d.k,
        "params": [list(a) for a in code.params],
        "generators": out_gens,
        "ring_sign": gens.ring_sign,
    }


def _json_field(obj, key: str, kind: type):
    """``obj[key]``, refused unless it is there and its type is exactly
    ``kind``, so that a json ``true`` is not taken for the integer 1."""
    if not isinstance(obj, dict) or key not in obj:
        raise ValueError(f"missing key {key!r}")
    if type(obj[key]) is not kind:
        raise ValueError(f"{key!r} must be of type {kind.__name__}, got {obj[key]!r}")
    return obj[key]


def _json_element(field: FieldSpec, value, key: str) -> FqElem:
    """An entry of the list ``obj[key]`` as a field element, refused
    unless it is written as the exporter writes it: a list of m integers
    in [0, p)."""
    if (
        type(value) is not list
        or len(value) != field.m
        or not all(type(c) is int and 0 <= c < field.p for c in value)
    ):
        raise ValueError(f"{key!r} entries must be lists of m = {field.m} integers in [0, {field.p}), got {value!r}")
    return tuple(value)


def _poly_from_obj(field: FieldSpec, obj: dict) -> tuple[FqElem, ...]:
    from .reciprocal import XM1_TO_STD, basis_convert

    coeffs = tuple(_json_element(field, c, "coeffs") for c in _json_field(obj, "coeffs", list))
    basis = _json_field(obj, "basis", str)
    if basis == "xm1":
        return basis_convert(field, coeffs, XM1_TO_STD)
    if basis != "std":
        raise ValueError(f"unknown basis {basis!r}")
    return coeffs


def obj_to_code(obj: dict) -> tuple[CodeSpec, RIdealGens]:
    """Rebuild a code from its JSON object; the stored generators are
    checked against the reconstruction.  Returns the cyclic code and the
    generators in the stored ring (cyclic or negacyclic).  A missing key,
    a value of the wrong json type, or a field element not written as
    m residues is refused with ``ValueError``."""
    from .enumerator import _code_space, build_code, to_negacyclic

    p, m, s, nu, k = (_json_field(obj, key, int) for key in ("p", "m", "s", "nu", "k"))
    case = _json_field(obj, "case", str)
    ring_sign = obj.get("ring_sign", 1)
    if type(ring_sign) is not int or ring_sign not in (1, -1):
        raise ValueError(f"ring_sign must be 1 or -1, got {ring_sign!r}")
    descs, field = _code_space(p, m, s)
    match = [d for d in descs if d.sub == case and d.nu == nu and d.k == k]
    if not match:
        raise ValueError(f"no case {case!r} with nu={nu}, k={k} for p={p}, s={s}")
    params = [_json_element(field, a, "params") for a in _json_field(obj, "params", list)]
    code = build_code(match[0], params, field)
    gens = code.generators if ring_sign == 1 else to_negacyclic(code)
    stored = []
    for g in _json_field(obj, "generators", list):
        apart = _poly_from_obj(field, _json_field(g, "a", dict))
        bpart = _poly_from_obj(field, _json_field(g, "b", dict))
        stored.append(tuple(zip(apart, bpart)))
    if tuple(stored) != gens.generators:
        raise ValueError("stored generators do not match the reconstructed code")
    return code, gens


# ---------------------------------------------------------------------------
# Subcommands

def _open_out(out: str | None):
    return open(out, "w", encoding="utf-8") if out else contextlib.nullcontext(sys.stdout)


def _write(out: str | None, pieces: Iterable[str], empty: str = "") -> int:
    """Writes each piece as soon as it exists, or ``empty`` if there is
    none.  ``out`` is opened only once the first piece exists, so a
    command refused before it leaves an existing file as it was."""
    pieces = iter(pieces)
    first = next(pieces, empty)
    with _open_out(out) as fh:
        fh.write(first)
        fh.writelines(pieces)
    return 0


def _column_pieces(p: int, l: int, delta: int, fmt: str) -> Iterator[str]:
    """The solution-basis columns of G_l for ``delta``, one piece per
    column (json adds its head and tail), ending in a newline."""
    from .gmatrix import _solution_basis, column_index_range

    basis = _solution_basis(p, l, delta)
    jmin = column_index_range(l, delta)[0]
    columns = enumerate(zip(*basis), jmin)
    if fmt == "json":
        yield f'{{"p":{p},"l":{l},"delta":{delta},"vectors":['
        for n, (j, values) in enumerate(columns):
            yield f'{"," if n else ""}{{"j":{j},"column":{2 * j - 1},"values":[{",".join(map(str, values))}]}}'
        yield "]}\n"
        return
    lines = (f"j={j} column={2 * j - 1} values=" + " ".join(map(str, values)) + "\n" for j, values in columns)
    yield next(lines, "(empty basis)\n")
    yield from lines


def _cmd_gmatrix(args) -> int:
    from .gmatrix import _checked_order, _g_rows, min_level

    p = args.p
    if args.lam is None and args.l is None:
        raise ValueError("gmatrix needs --lambda or --l")
    shift = 1 if args.plus_i else -1 if args.minus_i else 0
    if args.delta is not None:
        if args.l is None:
            raise ValueError("--delta requires --l")
        if shift:
            raise ValueError(f"--delta cannot be combined with {'--plus-i' if shift > 0 else '--minus-i'}")
        return _write(args.out, _column_pieces(p, args.l, args.delta, args.format))

    lam = args.lam if args.l is None else min_level(p, args.l)
    n = _checked_order(p, lam)
    size = n if args.l is None else args.l
    blocks = (block for _, block in _g_rows(p, size, shift))
    return _write(args.out, itertools.chain(_matrix_chunks(p, size, size, blocks, args.format), ["\n"]))


# text and json print totals estimated at up to this many decimal digits:
# enough for (3, 1, 12) (63,391 digits); CPython's int-to-str conversion
# is quadratic, and takes about 0.2 s at this length.
COUNT_DIGITS_CAP = 100_000
# csv cells stay within Python's default int-to-str limit.
CSV_CELL_DIGITS = 4300


@contextlib.contextmanager
def _int_str_unlimited():
    """Lift the int-to-str digit limit (Python >= 3.10.7) for the
    conversions inside the block, and restore it after."""
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    if get_limit is None:
        yield
        return
    old = get_limit()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def _cmd_count(args) -> int:
    from .counting import _count_digits, classify_cases, count_self_dual, descriptor_count

    digits = _count_digits(args.p, args.m, args.s)
    if digits > COUNT_DIGITS_CAP:
        size = f"about {digits:.4g}" if math.isfinite(digits) else "more than 1e+300"
        raise ValueError(f"the total has {size} decimal digits, beyond the {COUNT_DIGITS_CAP}-digit cap")
    total = count_self_dual(args.p, args.m, args.s)
    if args.format == "csv":
        if total >= 10**CSV_CELL_DIGITS:
            raise ValueError(
                f"the total has more than {CSV_CELL_DIGITS} digits, too long for a csv cell; "
                "use --format text or --format json to print it"
            )
        # no label or value holds a comma, a quote or a line break
        head = f"{args.p},{args.m},{args.s}"
        rows = [f"{head},{d.sub}:nu={d.nu}:k={d.k},{descriptor_count(d, args.m)}\n" for d in classify_cases(args.p, args.s)]
        return _write(args.out, ["p,m,s,case,count\n", *rows, f"{head},total,{total}\n"])
    with _int_str_unlimited():
        if args.format == "json":
            text = f'{{"p":{args.p},"m":{args.m},"s":{args.s},"count":{total}}}'
        else:
            text = str(total)
    return _write(args.out, [text + "\n"])


def _check_non_negative(args, *names: str) -> None:
    for name in names:
        value = getattr(args, name)
        if value is not None and value < 0:
            raise ValueError(f"--{name} must be >= 0, got {value}")


def _window_blocks(args, ring_sign: int) -> Iterator[_Block]:
    """The code blocks of the --offset/--limit window of the enumeration,
    in the ring x^N - ring_sign; -p, -m and -s are checked here, even for
    a window of no codes."""
    from .enumerator import _stream_blocks

    stop = None if args.limit is None else args.offset + args.limit
    return _stream_blocks(args.p, args.m, args.s, start=args.offset, ring_sign=ring_sign, stop=stop)


def _emit_window(args, ring_sign: int) -> int:
    """The --offset/--limit window, rendered row by row."""
    _check_non_negative(args, "offset", "limit")
    lines = _block_lines(_window_blocks(args, ring_sign), args.format, args.offset)
    return _write(args.out, lines, "(no codes)\n")


def _cmd_enumerate(args) -> int:
    if args.sample is None:
        return _emit_window(args, 1)
    from .enumerator import _sample_blocks

    _check_non_negative(args, "sample")
    if args.offset or args.limit is not None:
        raise ValueError("--sample cannot be combined with --offset/--limit")
    blocks = _sample_blocks(args.p, args.m, args.s, args.sample, args.seed)
    return _write(args.out, _block_lines(blocks, args.format, 0), "(no codes)\n")


def _cmd_negacyclic(args) -> int:
    return _emit_window(args, -1)


def _cmd_build(args) -> int:
    from .enumerator import _block, _checked_params, _code_space

    descs, field = _code_space(args.p, args.m, args.s)
    match = [d for d in descs if d.k == args.k]
    if not match:
        raise ValueError(f"no case has k={args.k} for p={args.p}, s={args.s}")
    params = _checked_params(match[0], _parse_params(field, args.params), field)
    return _write(args.out, _block_lines([_block(match[0], field, params)], args.format, 0))


def _cmd_verify(args) -> int:
    """Prints good/total; each failing code goes to stderr with the
    reason it failed."""
    from .chainring import _self_dual_failure, is_self_dual
    from .enumerator import _generators

    if args.all and (args.offset or args.limit is not None):
        raise ValueError("--all cannot be combined with --offset/--limit")
    _check_non_negative(args, "offset", "limit")  # a negative bound is named first
    if not args.all and args.limit is None:
        raise ValueError("verify needs --limit N, or --all for the complete family")
    ring_sign, ring = (-1, "negacyclic") if args.negacyclic else (1, "cyclic")
    rows = (
        (block.desc, params, gens)
        for block in _window_blocks(args, ring_sign)
        for params, gens in zip(block.params, _generators(block))
    )
    good = total = 0
    for index, (d, params, gens) in enumerate(rows, args.offset):
        total += 1
        if is_self_dual(gens, args.s):
            good += 1
            continue
        reason = _self_dual_failure(gens, args.s)
        label = f"index={index} case={d.sub} nu={d.nu} k={d.k} params=[{_params_text(params, args.m)}]"
        print(f"{label} ring={ring}: {reason}", file=sys.stderr)
    _write(args.out, [f"{good}/{total} self-dual\n"])
    return 0 if good == total else 1


# ---------------------------------------------------------------------------
# Parser

def _add_common(sub) -> None:
    sub.add_argument("-p", type=int, required=True, help="odd prime characteristic")
    sub.add_argument("-m", type=int, required=True, help="extension degree of the field")
    sub.add_argument("-s", type=int, required=True, help="length exponent: codes have length p^s")


def _add_window(sub) -> None:
    sub.add_argument("--offset", type=int, default=0, help="skip this many codes")
    sub.add_argument("--limit", type=int, default=None, help="stop after this many codes")


def _add_io(sub, formats=("text", "json")) -> None:
    sub.add_argument("--format", choices=formats, default="text", help="output format")
    sub.add_argument("--out", default=None, metavar="FILE", help="write output to FILE instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sdcyclic",
        description="Self-dual cyclic and negacyclic codes of length p^s over F_{p^m} + u F_{p^m}.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    g = subs.add_parser("gmatrix", help="print reciprocal matrices or solution-basis columns")
    g.add_argument("-p", type=int, required=True, help="odd prime characteristic")
    shape = g.add_mutually_exclusive_group()
    shape.add_argument("--lambda", dest="lam", type=int, default=None, help="print the full order-p^lambda matrix")
    shape.add_argument("--l", dest="l", type=int, default=None, help="print the l x l truncation G_l")
    g.add_argument("--delta", type=int, default=None, help="with --l: print the truncated solution-basis columns")
    shift = g.add_mutually_exclusive_group()
    shift.add_argument("--plus-i", action="store_true", help="print G + I instead of G")
    shift.add_argument("--minus-i", action="store_true", help="print G - I instead of G")
    _add_io(g)
    g.set_defaults(func=_cmd_gmatrix)

    c = subs.add_parser("count", help="exact number of self-dual cyclic codes")
    _add_common(c)
    _add_io(c, formats=("text", "json", "csv"))
    c.set_defaults(func=_cmd_count)

    e = subs.add_parser("enumerate", help="stream every self-dual cyclic code")
    _add_common(e)
    _add_window(e)
    e.add_argument("--sample", type=int, default=None, help="emit this many uniform random codes instead")
    e.add_argument("--seed", type=int, default=0, help="seed for --sample")
    _add_io(e)
    e.set_defaults(func=_cmd_enumerate)

    b = subs.add_parser("build", help="build one code from its torsion exponent and parameters")
    _add_common(b)
    b.add_argument("--k", type=int, required=True, help="torsion exponent, 0 <= k <= (p^s-1)/2")
    b.add_argument(
        "--params",
        default="",
        help="comma-separated field elements, each as colon-joined coefficients low degree first (e.g. '2,1' or '1:2,0:1')",
    )
    _add_io(b)
    b.set_defaults(func=_cmd_build)

    v = subs.add_parser("verify", help="independently verify self-duality of enumerated codes")
    _add_common(v)
    v.add_argument("--all", action="store_true", help="verify the complete family")
    _add_window(v)
    v.add_argument("--negacyclic", action="store_true", help="verify the negacyclic images instead")
    v.add_argument("--out", default=None, metavar="FILE")
    v.set_defaults(func=_cmd_verify)

    n = subs.add_parser("negacyclic", help="stream the negacyclic images of all self-dual cyclic codes")
    _add_common(n)
    _add_window(n)
    _add_io(n)
    n.set_defaults(func=_cmd_negacyclic)

    return parser


def dispatch(argv: Sequence[str] | None = None) -> int:
    """Run one CLI invocation; returns the process exit status."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        raise  # the reader went away: not a refusal, see ``main``
    except (ValueError, ZeroDivisionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    try:
        status = dispatch()
    except BrokenPipeError:
        # stdout's reader closed it (``| head``): end quietly, with fd 1 on
        # devnull so that the flush at shutdown has nothing to report, and
        # with the status a shell reports for a process killed by SIGPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 128 + 13
    sys.exit(status)


if __name__ == "__main__":
    main()
