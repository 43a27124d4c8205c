"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload direct-32 --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout. `--trace 0` prints the end-to-end
metrics, `--trace 1` the per-layer metrics of a traced run. Standard output
ends with one JSON line: {"correct", "attempted", "failed", "metrics"}. The
exit code is 0 when every output check passed, 1 when one failed, and 2
when the benchmark refuses to run (no dvokit sources, DVO_THREADS set).
"""

from __future__ import annotations

import bootstrap  # first: pins BLAS threads before numpy loads

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# set-ups per untraced run: this process's own plus fresh processes
SETUP_REPS = 3
WORK_ROOT = bootstrap.ROOT / ".perfbench_work"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="how long the main route is measured")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_commit(root: Path) -> str | None:
    """The checkout's commit, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy
    import scipy
    from dvokit import autodiff

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(bootstrap.BLAS_THREADS),
        "checked_mode": autodiff.checked_enabled(),
        "dvo_threads": os.environ.get("DVO_THREADS"),
        "commit": git_commit(bootstrap.ROOT),
    }


def setup_in_fresh_process(workload: str, seed: int, workdir: Path) -> float:
    probe = Path(__file__).with_name("setup_probe.py")
    done = subprocess.run(
        [sys.executable, str(probe), workload, str(seed), str(workdir)],
        cwd=bootstrap.ROOT,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


def main(argv=None) -> int:
    args = parse_args(argv)
    # on SIGTERM, unwind: a running set-up process is killed and waited for,
    # and the work directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        bootstrap.check_environment()
    except bootstrap.RefusedError as e:
        print(f"perfbench: refused: {e}", file=sys.stderr)
        return 2

    started = time.perf_counter()
    import workloads  # numpy, scipy and dvokit load here: part of set-up time

    import_s = time.perf_counter() - started
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    env = environment()
    print(json.dumps({"environment": env}))

    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK_ROOT))
    try:
        others = [] if args.trace else [
            setup_in_fresh_process(args.workload, args.seed, workdir / f"setup-{i}") for i in range(SETUP_REPS - 1)
        ]
        outcome = workloads.run_workload(
            workloads.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), workdir, import_s, others
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it

    for note in outcome.notes:
        print(f"note: {note}")
    print(f"host slowdown: {outcome.slowdown:.4g} (median over units; rates are scaled by it)")
    for name, (value, unit) in outcome.metrics.items():
        print(f"{name:32s} {value:14.6g} {unit}")
    result = {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value if isinstance(value, int) else float(value), "unit": unit}
            for name, (value, unit) in outcome.metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
