"""Measuring one workload in one process: repeats, checks, metrics.

Imported by run.py after it has pinned the BLAS thread count and put the
checkout's ``src/`` on the path.

Every repeat of a workload's body is one operation. It fails when any of
its checks fails: a non-finite parameter, a parameter digest that differs
from the first repeat's (traced repeats included), predict disagreeing with
argmax of forward_path(model.invariant, x).classifier_a_probs, output files
whose bytes differ from the first repeat's, or a workload check of its own.
"""

from __future__ import annotations

import ctypes
import gc
import glob
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import dualda
from tracing import Tracer, install, layer_metrics, write_spans

# share of --seconds spent calling predict back to back after the timed
# repeats. Right after a training repeat, predict on moons_b16 ran at
# 400k-750k rows/s by the state training left behind; called back to back
# for a few seconds it settles near 1M rows/s
PREDICT_SHARE = 0.3
SETUP_SAMPLES = 7         # fresh processes timed for setup_s

# name -> (unit, which direction is better); README.md defines each
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "updates_per_s": ("1/s", "higher"),
    "update_ms_p50": ("ms", "lower"),
    "update_ms_p90": ("ms", "lower"),
    "predict_rows_per_s": ("rows/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}
# per-layer units whose values must repeat exactly between traced repeats
COUNT_UNITS = ("count", "bytes", "GFLOP_computed", "ratio")


def environment(blas_threads: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    runtime_threads = None
    for lib in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                      "numpy.libs", "*openblas*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                getter = getattr(handle, symbol)
                getter.restype = ctypes.c_int
                runtime_threads = getter()
                break
    cpu = "unknown"
    if os.path.exists("/proc/cpuinfo"):
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads,
            "blas_threads_runtime": runtime_threads,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu}


class WorkloadRun:
    """One workload in one process: its repeats, their checks and timings."""

    def __init__(self, workload, seed: int, tmp: Path):
        self.wl = workload
        self.seed = seed
        self.tmp = tmp
        self.attempted = 0
        self.failed = 0
        self.first = None          # the first repeat, reference for the rest

    def setup(self, tag: str):
        path = self.tmp / tag
        path.mkdir()
        return self.wl.setup(self.seed, path)

    def repeat(self, inputs, label: str, tracer=None):
        """Run the body once and check it; returns (wall_s, clock, Repeat)."""
        self.attempted += 1
        gc.collect()    # each repeat starts without the last one's garbage
        t0 = perf_counter()
        if tracer is None:
            clock, raw = self.wl.body(inputs, self.tmp, self.attempted)
        else:
            with install(tracer):
                clock, raw = self.wl.body(inputs, self.tmp, self.attempted)
        t1 = perf_counter()
        wall = t1 - t0
        clock.marks = [(t0, False), *clock.marks, (t1, False)]
        rep = self.wl.inspect(inputs, raw)
        if self.first is None:
            self.first = rep
        checks = dict(rep.checks)
        checks["params_finite"] = all(bool(np.isfinite(a).all())
                                      for a in rep.params.values())
        checks["predict_matches_forward_path"] = _predict_ok(rep)
        checks["digest_repeats"] = rep.digest == self.first.digest
        checks["outputs_repeat"] = rep.outputs == self.first.outputs
        bad = [name for name, ok in checks.items() if not ok]
        self.failed += bool(bad)
        print(f"repeat {self.attempted} ({label}) wall_s={wall:.4f} checks: "
              + ("ok" if not bad else "FAILED " + ",".join(bad)), flush=True)
        return wall, clock, rep


def _predict_ok(rep) -> bool:
    if rep.model is None:
        return False
    labels = dualda.predict(rep.model, rep.x_predict)
    probs = dualda.forward_path(rep.model.invariant,
                                rep.x_predict).classifier_a_probs
    return bool(np.array_equal(labels, np.argmax(probs, axis=1)))


def _time_predict(rep, seconds: float) -> tuple:
    """Call predict back to back for `seconds`; rows/s of the fastest call
    and the number of calls."""
    if rep.model is None:
        return float("nan"), 0
    times = []
    gc.collect()
    gc.freeze()         # a collection between calls then scans only their garbage
    started = perf_counter()
    while not times or perf_counter() - started < seconds:
        gc.collect()    # predict's tapes are cycles: free them call by call
        t0 = perf_counter()
        dualda.predict(rep.model, rep.x_predict)
        times.append(perf_counter() - t0)
    gc.unfreeze()
    return len(rep.x_predict) / min(times), len(times)


def time_setup(script: Path, workload: str, seed: int) -> float:
    """Seconds from spawning a fresh interpreter to its inputs being ready."""
    t0 = perf_counter()
    proc = subprocess.Popen([sys.executable, str(script), "--setup-only",
                             "--workload", workload, "--seed", str(seed)],
                            stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        ready = perf_counter()
        proc.stdout.read()
    finally:
        proc.stdout.close()
        proc.wait()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up process exited with {proc.returncode}")
    return ready - t0


def run_untraced(run: WorkloadRun, seconds: float, time_setup) -> dict:
    """End-to-end metrics: a warmup repeat, timed repeats, then predict.

    Every timed repeat runs the same segments of the body in the same order
    (the stretches between train() entries, progress callbacks and train()
    exits). wall_s is the sum of each segment's median duration over the
    timed repeats, and updates_per_s divides the updates of one repeat by
    the same sum over the segments inside train(). Likewise each step
    invocation's per-update sample is its median over the timed repeats,
    and the update percentiles are taken over these. The last
    PREDICT_SHARE of `seconds` times predict on the last repeat's model,
    whose fastest call gives predict_rows_per_s. The SETUP_SAMPLES calls
    of time_setup() are spread over the repeats, and setup_s is their
    median."""
    inputs = run.setup("inputs")
    run.repeat(inputs, "warmup")
    train_seconds = seconds * (1 - PREDICT_SHARE)
    segments, update_ms, setup_samples = [], [], []
    started = perf_counter()
    while not segments or perf_counter() - started < train_seconds:
        _, clock, rep = run.repeat(inputs, "timed")
        times, inside = zip(*clock.marks)
        segments.append(np.diff(times))
        update_ms.append(clock.update_ms)
        if perf_counter() - started >= len(setup_samples) * train_seconds / SETUP_SAMPLES:
            setup_samples.append(time_setup())
    while len(setup_samples) < SETUP_SAMPLES:
        setup_samples.append(time_setup())
    typical = np.median(segments, axis=0)
    typical_ms = np.median(update_ms, axis=0)
    values = {"wall_s": float(typical.sum()),
              "updates_per_s": clock.total_updates / float(typical[list(inside[:-1])].sum()),
              "update_ms_p50": float(np.percentile(typical_ms, 50)),
              "update_ms_p90": float(np.percentile(typical_ms, 90))}
    values["predict_rows_per_s"], calls = _time_predict(
        rep, seconds * PREDICT_SHARE)
    values["setup_s"] = statistics.median(setup_samples)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"samples: {len(segments)} timed repeats of {len(typical)} segments "
          f"and {len(typical_ms)} update samples each; {calls} predict calls; "
          f"{len(setup_samples)} set-ups")
    print(f"tgt_acc {run.first.tgt_acc!r} fraction (higher is better; "
          f"identical for every repeat of one seed)")
    return {name: (values[name], END_TO_END[name][0]) for name in END_TO_END}


def run_traced(run: WorkloadRun, seconds: float, spans_path: Path) -> dict:
    """Per-layer metrics: for `seconds`, pairs of one untraced repeat and one
    traced repeat, each traced one with its own tracer around a fresh
    set-up and the body. Counts must agree across the traced repeats; times
    are their medians, and the overhead compares the paired repeats."""
    inputs = run.setup("inputs")
    run.repeat(inputs, "warmup")
    untraced, traced, per_repeat = [], [], []
    started = perf_counter()
    while not traced or perf_counter() - started < seconds:
        untraced.append(run.repeat(inputs, "untraced")[0])
        tracer = Tracer()
        with install(tracer):
            inputs_traced = run.setup(f"inputs-traced-{len(traced)}")
        traced.append(run.repeat(inputs_traced, "traced", tracer)[0])
        per_repeat.append(layer_metrics(tracer))
        if len(traced) == 1:
            write_spans(tracer, spans_path)
            print(f"spans: {len(tracer.name)} of the first traced repeat in "
                  f"{spans_path.name}")
            layers = {}
            for span in tracer.names:
                layers.setdefault(span.split(".")[0], []).append(span)
            for layer, spans in layers.items():
                print(f"layer {layer}: " + " ".join(spans))
    metrics = {}
    for name, (value, unit) in per_repeat[0].items():
        values = [m[name][0] for m in per_repeat]
        if unit in COUNT_UNITS:
            if len(set(values)) > 1:
                run.failed += 1
                print(f"FAILED {name} differs between traced repeats: {values}")
            metrics[name] = (value, unit)
        else:
            metrics[name] = (statistics.median(values), unit)
    metrics["trace.wall_s"] = (statistics.median(traced), "s")
    metrics["trace.untraced_wall_s"] = (statistics.median(untraced), "s")
    metrics["trace.overhead_ratio"] = (
        statistics.median(traced) / statistics.median(untraced), "ratio")
    print(f"samples: {len(traced)} traced repeats, each after an untraced one")
    arrays = metrics["optim.SGD.step.arrays"][0]
    for ratio, den in (("autodiff.grads_used_ratio", "autodiff.grads_returned"),
                       ("nn.leaves_used_ratio", "nn.leaves_bound")):
        print(f"ratio {ratio} = optim.SGD.step.arrays / {den} = "
              f"{arrays} / {metrics[den][0]} = {metrics[ratio][0]:.6f}")
    return metrics
