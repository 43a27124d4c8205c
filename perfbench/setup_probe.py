"""Time one workload set-up in a fresh process, imports included.

    python3 perfbench/setup_probe.py WORKLOAD SEED WORKDIR

Prints {"setup_s": seconds}. run.py starts it to take the median of several
set-ups, since imports happen only once per process.
"""

from __future__ import annotations

import bootstrap  # first: pins BLAS threads before numpy loads

import json
import sys
import time
from pathlib import Path


def main(argv: list[str]) -> int:
    name, seed, workdir = argv
    bootstrap.check_environment()
    started = time.perf_counter()
    import workloads

    workloads.set_up(workloads.WORKLOADS[name], int(seed), Path(workdir), workloads.Tally())
    print(json.dumps({"setup_s": time.perf_counter() - started}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
