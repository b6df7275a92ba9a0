"""Record the reference stdout digest of every argv in the digest pools.

Usage, from the root of a checkout of the seed commit:

    python3 perfbench/record_refs.py

Writes ``perfbench/refs.json``. The references pin the seed commit's
output, so they are recorded once, when a pool changes, and always from
the seed commit's source, never from a commit under test.
"""

import hashlib
import json
import sys

import checks
import run
import workloads


def main() -> None:
    run.probe_package()
    refs = {}
    for op in workloads.digest_pool():
        res = run.spawn([sys.executable, "-m", "sdcyclic.cli", *op.argv], run.child_env())
        if res.status != 0:
            raise SystemExit(f"error: {op.argv} exited {res.status}: {res.stderr.decode()[-300:]}")
        refs[checks.ref_key(op.argv)] = hashlib.sha256(res.stdout).hexdigest()
    with open(run.REFS, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"{len(refs)} references written to {run.REFS}")


if __name__ == "__main__":
    main()
