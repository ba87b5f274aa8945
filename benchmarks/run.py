"""dualda benchmark: one workload per fresh process, end-to-end metrics with
tracing off, per-layer metrics from a separate traced run.

    python3 benchmarks/run.py                      # every workload, untraced
    python3 benchmarks/run.py --workload moons_b16 --seed 3 --seconds 30 --trace 1

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The package is imported from ``src/`` next to
this directory and nowhere else; without it the benchmark exits with 2.
benchmarks/README.md describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("moons_b16", "idx_b128", "ablate_blobs")
BLAS_THREADS = 1          # at most nproc; one thread keeps runs steady


def _import_package() -> bool:
    """Import dualda from this checkout's src/ only."""
    if not (SRC / "dualda" / "__init__.py").is_file():
        return False
    sys.path[:0] = [str(SRC), str(BENCH)]
    import dualda
    return Path(dualda.__file__).resolve().is_relative_to(SRC)


def run_workload(args) -> int:
    # the BLAS reads its thread count once, when numpy is first imported
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    if not _import_package():
        print(f"error: no dualda package under {SRC}", file=sys.stderr)
        return 2
    import harness
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    tmp = OUT / f"tmp-{args.workload}-{os.getpid()}"
    tmp.mkdir()
    try:
        if args.setup_only:
            workload.setup(args.seed, tmp)
            print("ready", flush=True)
            return 0
        env = harness.environment(BLAS_THREADS)
        print(f"workload {args.workload} seed={args.seed} "
              f"seconds={args.seconds} trace={args.trace}")
        print("env " + " ".join(f"{k}={v!r}" for k, v in env.items()))
        run = harness.WorkloadRun(workload, args.seed, tmp)
        if args.trace:
            spans = OUT / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
            metrics = harness.run_traced(run, args.seconds, spans)
        else:
            time_setup = functools.partial(harness.time_setup,
                                           Path(__file__).resolve(),
                                           args.workload, args.seed)
            metrics = harness.run_untraced(run, args.seconds, time_setup)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    digest = run.first.digest
    print(f"digest {args.workload} seed={args.seed} sha256={digest}")
    for name, (value, unit) in metrics.items():
        better = harness.END_TO_END.get(name, ("", ""))[1]
        print(f"metric {name} {value!r} {unit}"
              + (f" ({better} is better)" if better else ""))
    print(f"failed_frac {run.failed / run.attempted!r} fraction "
          f"(lower is better; {run.failed} of {run.attempted} "
          f"operations failed)")
    result = {"correct": run.failed == 0, "attempted": run.attempted,
              "failed": run.failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    print(json.dumps(result), flush=True)
    return 0


def run_all(args) -> int:
    """Each workload in its own fresh process, so peak_rss_mb is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
               name, "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {proc.returncode}",
                  file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined), flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=("all",) + WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30,
                        help="how long the timed repeats run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
