"""Run one sdcyclic CLI invocation under per-layer tracing.

Usage: PERFBENCH_SPANS=<file> python perfbench/tracecli.py <sdcyclic argv...>

Behaves like ``python -m sdcyclic.cli <argv...>``; at exit the spans and
counters go to the file named by ``PERFBENCH_SPANS``.
"""

import os
import sys

from layertrace import Tracer


def main() -> None:
    tracer = Tracer()
    tracer.install()
    from sdcyclic import cli

    try:
        status = cli.dispatch(sys.argv[1:])
    finally:
        tracer.dump(os.environ["PERFBENCH_SPANS"])
    sys.exit(status)


if __name__ == "__main__":
    main()
