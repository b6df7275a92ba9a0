"""Out-of-process benchmark of the sdcyclic command line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload stream --seed 1 --seconds 25 --trace 0

Each operation is one fresh ``python -m sdcyclic.cli <argv>`` child with
``PYTHONPATH=src``. Operations run one at a time in a closed loop with a
single client, in whole rounds from the seeded generator in
``workloads.py``, until ``--seconds`` have passed. Every operation's
output is checked (``checks.py``) after the timed region.

``--trace 0`` reports the end-to-end metrics:

* ``setup_s``: median wall time of a fresh interpreter that imports
  ``sdcyclic.cli`` and exits, one try before each round, at least 7;
* ``op_s.p50``: median operation wall time, spawn to exit;
* ``op_s.tail``: a fixed high percentile per workload, ``TAIL_PERCENTILE``
  (the context line has it, the sample count, and the highest whole
  percentile with at least ten samples beyond it, with its value);
* ``ttfb_s.p50``: median time from spawn to the first stdout byte (to
  exit, for an operation that prints nothing);
* ``codes_per_s``: codes emitted (stream) or verified (verify), or
  closed-form results returned (closed_form, one per ``count`` or
  ``gmatrix`` call), over the summed operation wall time;
* ``peak_rss_mb``: the largest child ``ru_maxrss``, from ``os.wait4``;
* ``ok_ratio``: operations that succeeded over operations attempted. A
  failure is a nonzero exit status, wrong output or a timeout.
  ``fail_ratio``, its complement, is in the context line. Every failure
  but the known refusals of ``checks.REFUSED_SLOTS`` also makes the
  result's ``correct`` false.

``--trace 1`` runs each operation twice, plain and under
``tracecli.py``, and reports the per-layer metrics of ``layertrace.py``
per traced operation, plus ``trace.overhead_ratio``.

The last stdout line is the result object; the line before it holds the
context (seed, argv list, versions, sizes). A full record with every
operation goes to ``.bench_build/perfbench/``.

The seed picks the argv lists, never their mix, so every seed gives a
result of the same shape: tune a change on one seed and confirm it on a
seed held out until then.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import json
import math
import os
import platform
import selectors
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import layertrace
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"
REFS = Path(__file__).resolve().parent / "refs.json"
SETUP_TRIES = 7
# The percentile op_s.tail reads. It is fixed, so that a commit that fits
# more operations into a run still reads the same quantile. Each is the
# median, over ten 40-s runs at the seed commit, of the highest whole
# percentile with at least ten samples beyond it (closed_form: 86 of
# 63-90 samples, stream: 90 of 96-120, verify: 91.5 of 102-138), rounded
# down to a multiple of five.
TAIL_PERCENTILE = {"stream": 90, "verify": 90, "closed_form": 85}
OP_TIMEOUT_S = 60.0
CPUS = sorted(os.sched_getaffinity(0))
CHILD_ENV = {
    "PYTHONPATH": str(SRC),
    "PYTHONHASHSEED": "0",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


@dataclass
class Run:
    """One finished child process."""

    status: int | str  # exit status, or "timeout"
    wall_s: float
    ttfb_s: float
    rss_kb: int
    stdout: bytes
    stderr: bytes


def spawn(cmd: list[str], env: dict[str, str], turn: int = 0, timeout: float = OP_TIMEOUT_S) -> Run:
    """Run cmd to exit, timing from spawn to reaped exit and noting the
    first stdout byte. The child is killed at the timeout.

    The child is pinned to CPU number ``turn`` (modulo the CPUs this
    process may use). Callers count turns up, so that consecutive children
    alternate between CPUs: on a shared host each CPU goes through its
    own phases of speed, tens of seconds long, and alternating averages
    them where a single CPU would carry one phase through a whole run."""
    out_r, out_w = os.pipe()
    err_r, err_w = os.pipe()
    start = time.perf_counter()
    pid = os.posix_spawn(cmd[0], cmd, env, file_actions=[(os.POSIX_SPAWN_DUP2, out_w, 1), (os.POSIX_SPAWN_DUP2, err_w, 2)])
    try:
        os.sched_setaffinity(pid, {CPUS[turn % len(CPUS)]})
    except ProcessLookupError:  # already exited
        pass
    os.close(out_w)
    os.close(err_w)
    chunks: list[bytes] = []
    err = bytearray()
    ttfb = None
    timed_out = False
    with selectors.DefaultSelector() as sel:
        sel.register(out_r, selectors.EVENT_READ)
        sel.register(err_r, selectors.EVENT_READ)
        deadline = start + timeout
        while sel.get_map():
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                os.kill(pid, signal.SIGKILL)
                timed_out = True
                break
            for key, _ in sel.select(remaining):
                data = os.read(key.fd, 1 << 16)
                if not data:
                    sel.unregister(key.fd)
                    os.close(key.fd)
                elif key.fd == out_r:
                    if ttfb is None:
                        ttfb = time.perf_counter() - start
                    chunks.append(data)
                else:
                    err += data
        for key in list(sel.get_map().values()):
            sel.unregister(key.fd)
            os.close(key.fd)
    _, wstatus, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    status = "timeout" if timed_out else os.waitstatus_to_exitcode(wstatus)
    return Run(status, wall, wall if ttfb is None else ttfb, usage.ru_maxrss, b"".join(chunks), bytes(err))


def child_env(extra: dict[str, str] | None = None) -> dict[str, str]:
    env = dict(os.environ, **CHILD_ENV)
    env.update(extra or {})
    return env


def probe_package() -> None:
    """Refuse to run unless the checkout's src/ provides sdcyclic."""
    if not (SRC / "sdcyclic" / "cli.py").is_file():
        raise SystemExit(f"error: {SRC / 'sdcyclic'} not found; run from the root of an sdcyclic checkout")
    run = spawn([sys.executable, "-c", "import sdcyclic, sdcyclic.cli; print(sdcyclic.__file__)"], child_env())
    if run.status != 0 or Path(run.stdout.decode().strip()).resolve().parent != (SRC / "sdcyclic").resolve():
        raise SystemExit(f"error: sdcyclic does not import from {SRC}: {run.stderr.decode()[-300:]}")


def setup_probe(turn: int) -> float:
    """Wall time of a fresh interpreter that imports sdcyclic.cli."""
    run = spawn([sys.executable, "-c", "import sdcyclic.cli"], child_env(), turn)
    if run.status != 0:
        raise SystemExit(f"error: importing sdcyclic.cli failed: {run.stderr.decode()[-300:]}")
    return run.wall_s


def percentile(values: list[float], pct: int) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct * len(ordered) / 100) - 1)]


def deepest_percentile(n: int) -> int:
    """The highest whole percentile with at least ten of n samples beyond
    it; 100 if there are ten samples or fewer."""
    return 100 if n <= 10 else math.floor(100 * (n - 10) / n)


# ---------------------------------------------------------------------------
# Context


def context(workload: str, seed: int) -> dict:
    import numpy

    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, check=True
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    sources = sorted((SRC / "sdcyclic").glob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in sources:
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    init = ast.parse((SRC / "sdcyclic" / "__init__.py").read_text())
    public = next(
        len(node.value.elts)
        for node in init.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets)
    )
    return {
        "workload": workload,
        "seed": seed,
        "nproc": len(CPUS),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "public_names": public,
    }


# ---------------------------------------------------------------------------
# Measurement loops


def run_untraced(rounds, seconds: float, checker: checks.Checker, tail_pct: int) -> tuple[dict, list[dict]]:
    """Whole rounds until the time is up, with a set-up probe before each
    round, so that set-up is sampled across the run."""
    setup, records = [], []
    deadline = time.perf_counter() + seconds
    for ops in rounds:
        setup.append(setup_probe(len(setup)))
        for op in ops:
            run = spawn([sys.executable, "-m", "sdcyclic.cli", *op.argv], child_env(), len(records))
            records.append(record(op, run, checker))
        if time.perf_counter() >= deadline:
            break
    while len(setup) < SETUP_TRIES:
        setup.append(setup_probe(len(setup)))
    finish(records, checker)
    walls = [r["wall_s"] for r in records]
    deepest = deepest_percentile(len(walls))
    codes = sum(r["codes"] for r in records)
    failed = sum(r["reason"] is not None for r in records)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "op_s.p50": (statistics.median(walls), "s"),
        "op_s.tail": (percentile(walls, tail_pct), "s"),
        "ttfb_s.p50": (statistics.median(r["ttfb_s"] for r in records), "s"),
        "codes_per_s": (codes / sum(walls), "codes/s"),
        "peak_rss_mb": (max(r["rss_kb"] for r in records) / 1024, "MB"),
        "ok_ratio": ((len(records) - failed) / len(records), "1"),
    }
    extra = {
        "op_s.tail_percentile": tail_pct,
        "op_s.samples": len(records),
        "op_s.deepest_tail": {"percentile": deepest, "value": percentile(walls, deepest)},
        "fail_ratio": failed / len(records),
    }
    return {"metrics": metrics, "extra": extra}, records


def run_traced(rounds, seconds: float, checker: checks.Checker) -> tuple[dict, list[dict]]:
    OUT.mkdir(parents=True, exist_ok=True)
    spans = OUT / "spans.json"
    summary = layertrace.Summary()
    records = []
    tracecli = str(Path(__file__).resolve().parent / "tracecli.py")
    deadline = time.perf_counter() + seconds
    for ops in rounds:
        for op in ops:
            turn = len(records) // 2
            # Alternate which side goes first, so that neither always runs warm.
            for mode in ("plain", "traced") if turn % 2 == 0 else ("traced", "plain"):
                if mode == "plain":
                    run = spawn([sys.executable, "-m", "sdcyclic.cli", *op.argv], child_env(), turn)
                else:
                    spans.unlink(missing_ok=True)
                    env = child_env({"PERFBENCH_SPANS": str(spans)})
                    run = spawn([sys.executable, tracecli, *op.argv], env, turn)
                    if spans.exists():
                        summary.add(str(spans))
                records.append(dict(record(op, run, checker), mode=mode))
        if time.perf_counter() >= deadline:
            break
    spans.unlink(missing_ok=True)
    finish(records, checker)
    traced_records = [r for r in records if r["mode"] == "traced"]
    codes = sum(r["codes"] for r in traced_records)
    out_bytes = sum(r["out_bytes"] for r in traced_records)
    n = max(1, summary.ops)

    def per_op(value: float, unit: str = "s/op") -> tuple[float, str]:
        return value / n, unit

    calls, total, own, counts = summary.calls, summary.total_s, summary.self_s, summary.counts
    metrics = {
        "reciprocal.solution_basis.self_s": per_op(own["reciprocal.solution_basis"]),
        "gmatrix.solution_column.calls": per_op(calls["gmatrix.solution_column"], "calls/op"),
        "gmatrix.solution_column.s": per_op(total["gmatrix.solution_column"]),
        "reciprocal.basis_convert.calls": per_op(calls["reciprocal.basis_convert"], "calls/op"),
        "reciprocal.basis_convert.s": per_op(total["reciprocal.basis_convert"]),
        "reciprocal.basis_convert.coeffs": per_op(counts["reciprocal.basis_convert.coeffs"], "coeffs/op"),
        "enumerator.build_code.calls": per_op(calls["enumerator.build_code"], "calls/op"),
        "enumerator.build_code.self_s": per_op(own["enumerator.build_code"]),
        "enumerator.build_per_emit": (calls["enumerator.build_code"] / codes if codes else 0.0, "builds/code"),
        "cli.out_bytes": per_op(out_bytes, "B/op"),
        "cli.bytes_per_code": (out_bytes / codes if codes else 0.0, "B/code"),
        "gmatrix.g_truncated.calls": per_op(calls["gmatrix.g_truncated"], "calls/op"),
        "gmatrix.g_truncated.misses": per_op(counts["gmatrix.g_truncated.misses"], "misses/op"),
        "gmatrix.cache_bytes": per_op(counts["gmatrix.cache_bytes"], "computed-B/op"),
        "gmatrix.build_g_kron.s": per_op(total["gmatrix.build_g_kron"]),
        "gmatrix.build_g_direct.s": per_op(total["gmatrix.build_g_direct"]),
        "binomial.g_entry.calls": per_op(counts["binomial.g_entry"], "calls/op"),
        "binomial.binom_mod_p.calls": per_op(counts["binomial.binom_mod_p"], "calls/op"),
        "enumerator.count_self_dual.s": per_op(total["enumerator.count_self_dual"]),
        "enumerator.classify_cases.s": per_op(total["enumerator.classify_cases"]),
        "chainring.span_dimension.calls": per_op(calls["chainring.span_dimension"], "calls/op"),
        "chainring.span_dimension.s": per_op(total["chainring.span_dimension"]),
        "chainring.is_self_orthogonal.s": per_op(total["chainring.is_self_orthogonal"]),
        "chainring.is_self_dual.calls": per_op(calls["chainring.is_self_dual"], "calls/op"),
        "fieldcore.FieldSpec.inv.calls": per_op(counts["fieldcore.FieldSpec.inv"], "calls/op"),
        "enumerator.to_negacyclic.s": per_op(total["enumerator.to_negacyclic"]),
        "fieldcore.find_irreducible.s": per_op(total["fieldcore.find_irreducible"]),
        "trace.overhead_ratio": (
            statistics.median(r["wall_s"] for r in traced_records)
            / statistics.median(r["wall_s"] for r in records if r["mode"] == "plain"),
            "1",
        ),
    }
    for module in layertrace.MODULES:  # cli.self_s: dispatch minus its traced children
        metrics[f"{module}.self_s"] = per_op(summary.module_self_s(module))
    return {"metrics": metrics, "extra": {"traced_ops": summary.ops}}, records


def record(op: workloads.Op, run: Run, checker: checks.Checker) -> dict:
    """Check one finished operation and keep what the result needs; its
    stdout is dropped here. The benchmark process keeps little memory
    while children run, because a child spawned from it starts with its
    peak RSS: ru_maxrss carries over exec."""
    outcome = checker.check(op, run.status, run.stdout)
    return {
        "slot": op.slot,
        "argv": list(op.argv),
        "status": run.status,
        "wall_s": run.wall_s,
        "ttfb_s": run.ttfb_s,
        "rss_kb": run.rss_kb,
        "out_bytes": len(run.stdout),
        "codes": outcome.codes,
        "reason": outcome.reason,
        "wrong": outcome.wrong,
        "stderr": run.stderr.decode(errors="replace")[-200:],
        "roundtrip": outcome.lines,
    }


def finish(records: list[dict], checker: checks.Checker) -> None:
    """Round-trip the JSON lines the checks set aside. This imports
    sdcyclic into the benchmark process, so it runs after the last child."""
    for r in records:
        lines = r.pop("roundtrip")
        if r["reason"] is None and not all(checker.roundtrip(line) for line in lines):
            r["reason"] = "json line does not round-trip through obj_to_code"
            r["wrong"] = True


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    probe_package()
    checker = checks.Checker(checks.load_refs(REFS), SRC, args.seed)
    rounds = workloads.rounds(args.workload, args.seed)
    if args.trace:
        result, records = run_traced(rounds, args.seconds, checker)
    else:
        result, records = run_untraced(rounds, args.seconds, checker, TAIL_PERCENTILE[args.workload])

    ctx = dict(context(args.workload, args.seed), trace=args.trace, **result["extra"])
    ctx["argv"] = [r["argv"] for r in records if r.get("mode", "plain") == "plain"]
    failed = sum(r["reason"] is not None for r in records)
    out = {
        # Every failure but a known refusal (checks.REFUSED_SLOTS) is a
        # wrong answer; refusals count in `failed` only.
        "correct": not any(r["wrong"] for r in records),
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in result["metrics"].items()},
    }
    OUT.mkdir(parents=True, exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(OUT / name, "w", encoding="utf-8") as fh:
        json.dump({"context": ctx, "result": out, "operations": records}, fh, indent=1)
    print(json.dumps({"context": ctx}))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
