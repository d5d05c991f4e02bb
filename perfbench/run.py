"""Benchmark entry point: one workload, one seed, one line of JSON.

    python3 perfbench/run.py --workload sd-bulk --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the program is imported from
``src/`` there.  The human-readable report goes to standard output
first; the last line is ``{"correct", "attempted", "failed",
"metrics"}``.  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer metrics of a traced pass (see README.md).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: (name, unit) of the end-to-end metrics reported with --trace 0
END_TO_END = [
    ("mrhs_step_s", "s"),
    ("orig_step_s", "s"),
    ("jobs_per_s", "1/s"),
    ("job_turnaround_p50_s", "s"),
    ("job_turnaround_tail_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]


def cap_threads() -> int:
    """Cap BLAS/OpenMP pools at the CPUs this process may use; must run
    before numpy is imported."""
    cap = len(os.sched_getaffinity(0))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(cap)
    return cap


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src'}", file=sys.stderr)
        return 2
    threads = cap_threads()
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import workloads
    from layers import METRICS

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of "
                     f"{sorted(workloads.WORKLOADS)}")
    work_dir = ROOT / ".perfbench"
    scratch = work_dir / f"run-{os.getpid()}"
    try:
        result = workloads.run(
            args.workload, args.seed, args.seconds, bool(args.trace), scratch
        )
        if result.trace_path is not None:
            kept = work_dir / result.trace_path.name
            shutil.move(str(result.trace_path), kept)
            result.notes.append(f"spans written to {kept.relative_to(ROOT)}")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    wanted = METRICS if args.trace else END_TO_END
    metrics = {
        name: {"value": result.metrics[name], "unit": unit}
        for name, unit in wanted
    }
    print(f"workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}, BLAS/OpenMP threads capped at {threads}")
    for note in result.notes:
        print(f"  {note}")
    for name, unit in wanted:
        print(f"  {name:32s} {result.metrics[name]:>14.6g} {unit}")
    print(f"  {'failed_frac':32s} {result.failed / result.attempted:>14.6g} "
          f"({result.failed} of {result.attempted} operations)")
    if not args.trace and args.workload.startswith("sd-"):
        speedup = result.metrics["orig_step_s"] / result.metrics["mrhs_step_s"]
        print(f"  {'mrhs.speedup':32s} {speedup:>14.6g} "
              f"(orig_step_s {result.metrics['orig_step_s']:.6g} s / "
              f"mrhs_step_s {result.metrics['mrhs_step_s']:.6g} s; not gated)")
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
