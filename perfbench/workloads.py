"""Seeded operation generators for the benchmark workloads.

A workload is a fixed set of named slots. Each slot holds a pool of CLI
argv lists of one kind and of similar cost. Operations come in rounds:
one draw from every slot, in an order the seed shuffles. A run measures
whole rounds only, so every seed runs the same mix of slots, which keeps
medians and tails steady.

The pools of ``stream`` and of the ``gmatrix`` slots of ``closed_form``
are finite, so ``refs.json`` can hold a reference digest
for every argv the generator can produce. ``count`` and ``verify`` are
checked against values the benchmark computes itself, so their pools may
be larger.

Nothing here imports ``sdcyclic``: the program sees only the argv lists.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator

# Check kinds, see checks.py.
DIGEST = "digest"
COUNT = "count"
VERIFY = "verify"


@dataclass(frozen=True)
class Op:
    """One CLI invocation and how its output is checked."""

    slot: str
    argv: tuple[str, ...]
    check: str


def _pms(p: int, m: int, s: int) -> tuple[str, ...]:
    return ("-p", str(p), "-m", str(m), "-s", str(s))


def _fam(fam: tuple[int, int, int]) -> str:
    return ",".join(map(str, fam))


# ---------------------------------------------------------------------------
# stream: prefix windows of the enumeration order

STREAM_FAMILIES = ((3, 1, 4), (3, 2, 3), (5, 1, 3))
STREAM_OFFSETS = (0, 1, 2, 4, 8, 15, 30, 60)
# Window lengths that give each family about the same work per call.
STREAM_LIMITS = {(3, 1, 4): 350, (3, 2, 3): 1000, (5, 1, 3): 240}


def _stream() -> dict[str, list[Op]]:
    slots = {}
    for cmd in ("enumerate", "negacyclic"):
        for fam in STREAM_FAMILIES:
            for fmt in ("text", "json"):
                slot = f"{cmd}:{_fam(fam)}:{fmt}"
                slots[slot] = [
                    Op(slot, (cmd, *_pms(*fam), "--offset", str(o), "--limit", str(STREAM_LIMITS[fam]), "--format", fmt), DIGEST)
                    for o in STREAM_OFFSETS
                ]
    return slots


# ---------------------------------------------------------------------------
# verify: independent verification windows

VERIFY_FAMILIES = ((3, 1, 3), (3, 2, 2), (5, 1, 2))
VERIFY_LIMIT = 40
VERIFY_MAX_OFFSET = 200


def code_total(p: int, m: int, s: int) -> int:
    """Number of self-dual cyclic codes, by exact division."""
    n, q = p**s, p**m
    e = (n + 1) // 4 if n % 4 == 3 else (n - 1) // 4
    geom, rem = divmod(q**e - 1, q - 1)
    if rem:
        raise ArithmeticError("inexact geometric sum")
    return 2 * geom if n % 4 == 3 else q**e + 2 * geom


def _verify() -> dict[str, list[Op]]:
    slots = {}
    for fam in VERIFY_FAMILIES:
        top = min(VERIFY_MAX_OFFSET, code_total(*fam) - VERIFY_LIMIT)
        for neg in (False, True):
            slot = f"verify:{_fam(fam)}" + (":neg" if neg else "")
            extra = ("--negacyclic",) if neg else ()
            slots[slot] = [
                Op(slot, ("verify", *_pms(*fam), "--offset", str(o), "--limit", str(VERIFY_LIMIT), *extra), VERIFY)
                for o in range(top + 1)
            ]
    return slots


# ---------------------------------------------------------------------------
# closed_form: counting and reciprocal-matrix printing

# Totals of 10 to 612 decimal digits, then of 783 to 3812.
COUNT_SMALL = ((3, 1, 4), (3, 2, 5), (5, 1, 4), (7, 2, 3), (3, 1, 7), (11, 1, 3), (5, 1, 5), (13, 1, 3))
COUNT_LARGE = ((3, 1, 8), (11, 3, 3), (7, 3, 4), (3, 2, 8), (3, 1, 9), (5, 1, 6), (7, 1, 5), (11, 1, 4))
# Totals of 7044 to 11435 digits: valid input, but above Python's
# default 4300-digit limit for int-to-str conversion. (3, 1, 10) costs
# about twice the others, so it has a slot of its own.
COUNT_HUGE = ((13, 1, 4), (7, 3, 5), (11, 3, 4))
COUNT_HUGE_SLOW = (3, 1, 10)
# Per-family csv tables of 0.2 to 1.3 MB.
COUNT_CSV = ((3, 1, 8), (3, 3, 7), (5, 1, 5), (13, 1, 3), (7, 1, 4), (3, 2, 7), (11, 2, 3), (5, 2, 5))
# Matrix orders 625 and 729, and truncations 550 to 700: similar output
# sizes, so that these slots form one cost class around the median.
GMATRIX_LAMBDA = ((3, 6), (5, 4))
GMATRIX_L = ((3, 600), (3, 650), (3, 700), (5, 550), (5, 600), (5, 625))
GMATRIX_PRIMES = (1009, 1013, 1019, 1021)


def _count_ops(slot: str, families, formats) -> list[Op]:
    return [Op(slot, ("count", *_pms(*fam), "--format", fmt), COUNT) for fam in families for fmt in formats]


def _closed_form() -> dict[str, list[Op]]:
    rng = random.Random("perfbench-delta-pool")
    deltas = []
    for p, l in GMATRIX_L:
        for fmt in ("text", "json"):
            d = str(rng.randrange(l))
            deltas.append(Op("gmatrix:delta", ("gmatrix", "-p", str(p), "--l", str(l), "--delta", d, "--format", fmt), DIGEST))
    return {
        "count": _count_ops("count", COUNT_SMALL + COUNT_LARGE, ("text", "json")),
        "count:huge": _count_ops("count:huge", COUNT_HUGE, ("text", "json", "csv")),
        "count:huge:slow": _count_ops("count:huge:slow", (COUNT_HUGE_SLOW,), ("text", "json", "csv")),
        "count:csv": _count_ops("count:csv", COUNT_CSV, ("csv",)),
        "gmatrix:lambda": [
            Op("gmatrix:lambda", ("gmatrix", "-p", str(p), "--lambda", str(lam), *flag), DIGEST)
            for p, lam in GMATRIX_LAMBDA
            for flag in ((), ("--plus-i",), ("--minus-i",))
        ],
        "gmatrix:truncated": [
            Op("gmatrix:truncated", ("gmatrix", "-p", str(p), "--l", str(l), flag), DIGEST)
            for p, l in GMATRIX_L
            for flag in ("--plus-i", "--minus-i")
        ],
        "gmatrix:delta": deltas,
        **{
            f"gmatrix:prime:{fmt}": [
                Op(f"gmatrix:prime:{fmt}", ("gmatrix", "-p", str(p), "--lambda", "1", "--format", fmt), DIGEST)
                for p in GMATRIX_PRIMES
            ]
            for fmt in ("text", "json")
        },
    }


WORKLOADS = {
    "stream": _stream,
    "verify": _verify,
    "closed_form": _closed_form,
}


def slots(workload: str) -> dict[str, list[Op]]:
    return WORKLOADS[workload]()


def rounds(workload: str, seed: int) -> Iterator[list[Op]]:
    """The endless, seeded sequence of rounds of a workload: one draw per
    slot, slot order shuffled per round."""
    pools = slots(workload)
    rng = random.Random(f"{workload}:{seed}")
    names = sorted(pools)
    while True:
        rng.shuffle(names)
        yield [rng.choice(pools[name]) for name in names]


def digest_pool() -> list[Op]:
    """Every argv whose output is checked against a recorded digest."""
    return [op for w in WORKLOADS for pool in slots(w).values() for op in pool if op.check == DIGEST]
