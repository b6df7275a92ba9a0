"""Smoke test of the benchmark itself (not part of the tier-1 suite).

Run from the root of the checkout:

    python3 -m pytest -q perfbench/test_smoke.py

It makes the smallest runs and checks the result schema, that every
metric named in BENCHMARK.json is emitted with its unit, that failed
operations are counted, and that every failure but a known refusal makes
the result incorrect.
"""

import json
import subprocess
import sys
from pathlib import Path

import checks
import run
import workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "0", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
        check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def _check_schema(result: dict, named: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"]
    assert {m["name"]: m["unit"] for m in named} == {k: v["unit"] for k, v in result["metrics"].items()}
    for value in result["metrics"].values():
        assert isinstance(value["value"], (int, float))


def test_end_to_end_schema():
    _check_schema(_bench("closed_form", 0), SPEC["end_to_end"])


def test_per_layer_schema():
    result = _bench("verify", 1)
    _check_schema(result, SPEC["per_layer"])
    metrics = result["metrics"]
    assert metrics["chainring.span_dimension.calls"]["value"] > 0
    assert metrics["trace.overhead_ratio"]["value"] > 0


def test_failures_are_counted():
    # At the seed commit, a count total above 4300 digits exits 2.
    huge = workloads.slots("closed_form")["count:huge:slow"][0]
    good = workloads.slots("closed_form")["count"][0]
    checker = checks.Checker(checks.load_refs(run.REFS), run.SRC, 0)
    result, records = run.run_untraced([[huge, good, huge]], 60, checker, 90)
    statuses = [r["status"] for r in records]
    failed = sum(s != 0 for s in statuses)
    assert statuses == [checks.REFUSAL_STATUS, 0, checks.REFUSAL_STATUS]
    assert [r["reason"] is not None for r in records] == [s != 0 for s in statuses]
    assert not any(r["wrong"] for r in records)
    assert result["metrics"]["ok_ratio"][0] == (len(records) - failed) / len(records)
    assert result["extra"]["fail_ratio"] == failed / len(records)


def test_wrong_output_is_caught():
    checker = checks.Checker({}, run.SRC, 0)
    op = workloads.slots("closed_form")["count"][0]
    assert checker.check(op, 0, b"1\n").wrong
    outcome = checker.check(op, 0, f"{workloads.code_total(3, 1, 4)}\n".encode())
    assert outcome.reason is None and not outcome.wrong and outcome.codes == 1


def test_only_known_refusals_are_not_wrong():
    checker = checks.Checker({}, run.SRC, 0)
    verify = workloads.slots("verify")["verify:3,1,3"][0]
    # verify exits 1 when a code in the window is not self-dual.
    assert checker.check(verify, 1, b"39/40 self-dual\n").wrong
    assert checker.check(verify, "timeout", b"").wrong
    small = workloads.slots("closed_form")["count"][0]
    assert checker.check(small, checks.REFUSAL_STATUS, b"").wrong
    huge = workloads.slots("closed_form")["count:huge"][0]
    assert checker.check(huge, 1, b"").wrong
    refused = checker.check(huge, checks.REFUSAL_STATUS, b"")
    assert refused.reason is not None and not refused.wrong
