"""Self-tests of the benchmark itself:

    python3 -m pytest benchmarks/selftest.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import dualda  # noqa: E402
from tracing import MODULES, Tracer, install, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bindings() -> dict:
    """Every attribute of the package's modules and classes, by identity."""
    out = {}
    for suffix in MODULES:
        mod = sys.modules["dualda" + suffix]
        for attr, value in vars(mod).items():
            out[(mod.__name__, attr)] = value
            if isinstance(value, type) and value.__module__.startswith("dualda"):
                for cattr, cvalue in vars(value).items():
                    out[(mod.__name__, attr, cattr)] = cvalue
    return out


def _same(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(a[k] is b[k] for k in a)


def test_wrappers_restore_originals():
    before = _bindings()
    with install(Tracer()):
        assert not _same(before, _bindings())
    assert _same(before, _bindings())


def test_wrappers_restore_originals_when_the_workload_raises():
    before = _bindings()
    source = dualda.gen_two_moons(40, 0.1, 0)
    target = dualda.domain_shift(dualda.gen_two_moons(40, 0.1, 1), 40.0)
    config = dualda.TrainConfig(variant="ours_2m", epochs=1, batch_size=64)
    with pytest.raises(dualda.ContractError):
        with install(Tracer()):
            dualda.train(config, source, target)
    assert _same(before, _bindings())


def test_traced_and_untraced_runs_give_the_same_digest(tmp_path):
    wl = WORKLOADS["moons_b16"]
    inputs = wl.setup(5, tmp_path)
    _, raw = wl.body(inputs, tmp_path, 0)
    untraced = wl.inspect(inputs, raw).digest
    tracer = Tracer()
    with install(tracer):
        _, raw = wl.body(inputs, tmp_path, 1)
    assert wl.inspect(inputs, raw).digest == untraced
    assert layer_metrics(tracer)["optim.SGD.step.arrays"][0] > 0


def test_matmul_gflop_is_2mkn_of_a_bound_stack_forward():
    # one 7->5 layer on 3 rows: the product is [3, 7] @ [5, 7].T
    stack = dualda.nn.init_stack(dualda.nn.NetworkSpec([7, 5]), 0)
    tracer = Tracer()
    with install(tracer):
        tape = dualda.autodiff.Tape()
        bound = dualda.nn.BoundStack(tape, stack)
        bound.forward(tape.leaf(np.ones((3, 7))))
    metrics = layer_metrics(tracer)
    assert metrics["autodiff.fwd.matmul.calls"][0] == 1
    assert metrics["autodiff.fwd.matmul.gflop"][0] == 2 * 3 * 7 * 5 / 1e9


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "benchmarks/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(workload, trace, section):
    proc = _run("--workload", workload, "--seed", "2", "--seconds", "0.1",
                "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in SPEC[section]}


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "moons_b16", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
