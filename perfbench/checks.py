"""Correctness oracles, applied to each operation outside the timed region.

* ``digest``: stdout must hash to the digest recorded in ``refs.json``
  from the seed commit for the same argv (``record_refs.py``). A seeded
  subset of JSON code lines must also round-trip through
  ``sdcyclic.cli.obj_to_code`` and re-export byte-identically.
* ``count``: the total, in text, json or csv, must equal the exact
  division ``(q^e - 1) // (q - 1)`` closed form computed here; csv family
  rows must add up to it.
* ``verify``: stdout must read ``n/n self-dual`` with n taken from the
  window and the closed-form total.

A nonzero exit or a timeout fails the operation. It is a wrong answer
too, unless it is the one refusal the seed commit makes of valid input:
exit 2 on a ``count`` whose total is above Python's 4300-digit
int-to-str limit (the ``REFUSED_SLOTS``). So ``verify`` exit 1, the
status for a code that is not self-dual, is wrong whatever it prints.

A check returns an ``Outcome``.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import random
import sys
from pathlib import Path
from typing import NamedTuple

from workloads import COUNT, DIGEST, VERIFY, Op, code_total

ROUNDTRIP_LINES = 2

# Slots of valid input that the seed commit refuses with this status.
REFUSED_SLOTS = frozenset({"count:huge", "count:huge:slow"})
REFUSAL_STATUS = 2

# Counts reach tens of thousands of digits.
sys.set_int_max_str_digits(0)


def ref_key(argv) -> str:
    return json.dumps(list(argv))


def load_refs(path: Path) -> dict[str, str]:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _flag(argv, name: str, default: int) -> int:
    return int(argv[argv.index(name) + 1]) if name in argv else default


def _pms(argv) -> tuple[int, int, int]:
    return _flag(argv, "-p", 0), _flag(argv, "-m", 0), _flag(argv, "-s", 0)


class Outcome(NamedTuple):
    """The verdict on one operation."""

    codes: int  # codes emitted or verified; closed-form results count one each
    reason: str | None  # None, or why the operation failed
    wrong: bool  # failed other than by a known refusal
    lines: list[str]  # JSON lines set aside for roundtrip, run after the timed loop


def _verdict(codes: int, reason: str | None, lines: list[str] | None = None) -> Outcome:
    return Outcome(codes, reason, reason is not None, lines or [])


class Checker:
    """Holds the references and the seeded choice of round-trip lines."""

    def __init__(self, refs: dict[str, str], src: Path, seed: int):
        self.refs = refs
        self.src = src
        self.rng = random.Random(f"roundtrip:{seed}")
        self._cli = None

    def cli(self):
        """sdcyclic.cli from the checkout's src/, imported on first use."""
        if self._cli is None:
            sys.path.insert(0, str(self.src))
            from sdcyclic import cli

            self._cli = cli
        return self._cli

    def check(self, op: Op, status: int | str, stdout: bytes) -> Outcome:
        """status is the exit status, or "timeout"."""
        if status == "timeout":
            return _verdict(0, "timeout")
        if status == REFUSAL_STATUS and op.slot in REFUSED_SLOTS:
            return Outcome(0, f"refused, exit status {status}", False, [])
        if status != 0:
            return _verdict(0, f"exit status {status}")
        if op.check == DIGEST:
            return _verdict(*self._digest(op, stdout))
        if op.check == COUNT:
            return _verdict(*self._count(op, stdout))
        if op.check == VERIFY:
            return _verdict(*self._verify(op, stdout))
        raise ValueError(f"unknown check {op.check!r}")

    def _digest(self, op: Op, stdout: bytes) -> tuple[int, str | None, list[str]]:
        want = self.refs.get(ref_key(op.argv))
        if want is None:
            raise KeyError(f"no reference digest for {op.argv}; run perfbench/record_refs.py at the seed commit")
        if hashlib.sha256(stdout).hexdigest() != want:
            return 0, "stdout digest differs from the seed commit", []
        if op.argv[0] == "gmatrix":
            return 1, None, []
        lines = stdout.decode().splitlines()
        kept = self.rng.sample(lines, min(ROUNDTRIP_LINES, len(lines))) if "json" in op.argv else []
        return len(lines), None, kept

    def roundtrip(self, line: str) -> bool:
        """The code object rebuilds through obj_to_code and re-exports
        byte-identically, in the compact form the CLI prints."""
        cli = self.cli()
        try:
            code, gens = cli.obj_to_code(json.loads(line))
        except ValueError:
            return False
        return json.dumps(cli.code_to_obj(code, gens), separators=(",", ":")) == line

    def _count(self, op: Op, stdout: bytes) -> tuple[int, str | None]:
        p, m, s = _pms(op.argv)
        want = code_total(p, m, s)
        text = stdout.decode()
        try:
            if "json" in op.argv:
                got = json.loads(text)
                if got != {"p": p, "m": m, "s": s, "count": want}:
                    return 0, "json count differs from the closed form"
                return 1, None
            if "csv" in op.argv:
                rows = list(csv.reader(io.StringIO(text)))
                total = rows[-1]
                families = sum(int(r[4]) for r in rows[1:-1])
                if rows[0] != ["p", "m", "s", "case", "count"] or total[3] != "total":
                    return 0, "csv layout differs"
                if int(total[4]) != want or families != want:
                    return 0, "csv count differs from the closed form"
                return 1, None
            if int(text) != want:
                return 0, "count differs from the closed form"
        except (ValueError, IndexError, KeyError):
            return 0, "count output does not parse"
        return 1, None

    def _verify(self, op: Op, stdout: bytes) -> tuple[int, str | None]:
        p, m, s = _pms(op.argv)
        offset = _flag(op.argv, "--offset", 0)
        n = min(_flag(op.argv, "--limit", 0), code_total(p, m, s) - offset)
        if stdout != f"{n}/{n} self-dual\n".encode():
            return 0, f"verify did not report {n}/{n} self-dual"
        return n, None
