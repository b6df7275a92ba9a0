"""Seeded argv fuzz of the command line (not collected by pytest).

Usage, from the root of a checkout:

    python tests/fuzz_argv.py --seed 2019 --count 200

Draws ``--count`` argv lists over all six subcommands, valid and invalid
values mixed, every code window bounded (``--limit`` or a small
``--sample``), and runs each as ``python -m sdcyclic.cli <argv>`` in its
own child, one at a time, with a 15 s timeout and a 1 GiB address-space
limit set in the child.  An argv fails if it times out, if stderr holds a
traceback, or if the exit status is other than 0 (done), 2 (refused) or
141 (stdout closed).  ``verify`` exits 1 only for an enumerated code that
is not self-dual, a wrong answer, so 1 fails too.  A window of no codes
(``--limit 0``) fails unless it exits as its ``--limit 1`` twin does,
which is run as well: the arguments are checked whatever the window
holds.  Exits 1 if any argv failed.
"""

from __future__ import annotations

import argparse
import os
import random
import resource
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
TIMEOUT_S = 15
ADDRESS_SPACE = 1 << 30
OK_STATUSES = (0, 2, 141)

PRIMES = ("3", "5", "7", "11", "13", "43", "1021", "2039")
NOT_PRIMES = ("1", "2", "9", "15", "0", "-3", "1000000000000000003", "x")
M_VALUES = ("1", "1", "2", "3", "4", "7", "0", "-1", "101")
S_VALUES = ("1", "2", "3", "4", "6", "7", "0", "-1", "100000000000")
OFFSETS = ("0", "1", "5", "1000", "10000000000000000000000000000000000000000", "-1")
LIMITS = ("0", "1", "3", "10", "40")
FORMATS = ("text", "json", "csv", "xml")


def _choice(rng: random.Random, common, rare=(), rare_odds: float = 0.15) -> str:
    return rng.choice(rare if rare and rng.random() < rare_odds else common)


def _pms(rng: random.Random) -> list[str]:
    return ["-p", _choice(rng, PRIMES, NOT_PRIMES), "-m", rng.choice(M_VALUES), "-s", rng.choice(S_VALUES)]


def _format(rng: random.Random) -> list[str]:
    return ["--format", _choice(rng, FORMATS[:2], FORMATS[2:])] if rng.random() < 0.6 else []


def _window(rng: random.Random) -> list[str]:
    out = ["--limit", rng.choice(LIMITS)]
    if rng.random() < 0.5:
        out += ["--offset", rng.choice(OFFSETS)]
    return out


def draw(rng: random.Random) -> list[str]:
    """One argv; every code window is bounded."""
    command = rng.choice(("gmatrix", "count", "enumerate", "build", "verify", "negacyclic"))
    if command == "gmatrix":
        argv = ["gmatrix", "-p", _choice(rng, PRIMES, NOT_PRIMES)]
        if rng.random() < 0.5:
            argv += ["--lambda", rng.choice(("0", "1", "2", "3", "6", "7", "-1", "10000"))]
        else:
            argv += ["--l", rng.choice(("1", "2", "40", "650", "2048", "2049", "0"))]
            if rng.random() < 0.5:
                argv += ["--delta", rng.choice(("0", "1", "13", "300", "5000", "-1"))]
        if rng.random() < 0.3:
            argv.append(rng.choice(("--plus-i", "--minus-i")))
        return argv + _format(rng)
    if command == "count":
        return ["count", *_pms(rng), *_format(rng)]
    if command == "build":
        params = ",".join(
            ":".join(str(rng.randrange(-1, 5)) for _ in range(rng.randint(1, 2))) for _ in range(rng.randint(0, 4))
        )
        return ["build", *_pms(rng), "--k", str(rng.randrange(-1, 6)), "--params", params, *_format(rng)]
    if command == "verify":
        return ["verify", *_pms(rng), *_window(rng), *(["--negacyclic"] if rng.random() < 0.5 else [])]
    argv = [command, *_pms(rng)]
    if command == "enumerate" and rng.random() < 0.3:
        argv += ["--sample", rng.choice(("0", "1", "5", "-2")), "--seed", str(rng.randrange(100))]
    else:
        argv += _window(rng)
    return argv + _format(rng)


def _limit_child() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


def run(argv: list[str]) -> tuple[int | None, str | None]:
    """The exit status (None on a timeout), and why the argv failed or
    None."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "sdcyclic.cli", *argv],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            timeout=TIMEOUT_S,
            preexec_fn=_limit_child,
        )
    except subprocess.TimeoutExpired:
        return None, f"timed out after {TIMEOUT_S} s"
    err = proc.stderr.decode(errors="replace")
    if "Traceback (most recent call last)" in err:
        return proc.returncode, "traceback: " + err.strip().splitlines()[-1]
    if proc.returncode not in OK_STATUSES:
        return proc.returncode, f"exit status {proc.returncode}: {err.strip()[-200:]}"
    return proc.returncode, None


def check(argv: list[str]) -> str | None:
    """Why the argv, or the ``--limit 1`` twin of a window of no codes,
    failed, or None."""
    status, reason = run(argv)
    at = argv.index("--limit") + 1 if "--limit" in argv else None
    if reason is not None or at is None or argv[at] != "0":
        return reason
    twin_status, twin_reason = run(argv[:at] + ["1"] + argv[at + 1 :])
    if twin_reason is not None:
        return f"--limit 1 twin: {twin_reason}"
    if twin_status != status:
        return f"exit status {status}, its --limit 1 twin {twin_status}"
    return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=2019)
    parser.add_argument("--count", type=int, default=200)
    args = parser.parse_args()
    rng = random.Random(args.seed)
    failures = 0
    for _ in range(args.count):
        argv = draw(rng)
        reason = check(argv)
        if reason is not None:
            failures += 1
            print(f"FAIL {' '.join(argv)}: {reason}")
    print(f"{args.count - failures}/{args.count} argvs passed (seed {args.seed})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
