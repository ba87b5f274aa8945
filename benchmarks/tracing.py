"""Span tracing for the traced benchmark run.

The wrappers live here, outside the package: ``install`` rebinds the public
callables at every ``dualda`` module attribute (or class attribute) the
package looks them up through at call time, and restores the originals when
the ``with`` block ends, also when the workload raises. Each call through a
wrapper records one span (name, start, end, parent span) in flat in-memory
arrays; ``layer_metrics`` derives the per-layer metrics from them and
``write_spans`` writes them out once the run is over.

A span's self time is its duration minus the time its child spans cover.
Spans nest strictly (one thread), so that is the sum of the children's
durations.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import os
import statistics
from array import array
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

import dualda

# the package modules whose attributes install() rebinds (gradcheck, the
# check-grad verifier, is no layer); a span's name starts with its layer:
# data, autodiff, nn, losses, model, optim, trainer or cli
MODULES = ("", ".autodiff", ".data", ".nn", ".losses", ".model", ".optim",
           ".trainer", ".cli")

# autodiff primitive -> the op kind it records on the tape
OP_KINDS = {"matmul": "matmul", "add": "add", "sub": "sub",
            "scalar_mul": "scalar_mul", "relu": "relu", "softmax": "softmax",
            "log_softmax": "log_softmax", "mean": "mean", "tensor_sum": "sum",
            "tensor_abs": "abs", "select_columns": "select_columns",
            "grad_reverse": "grad_reverse"}
TRAIN_STEPS = ("step1_mcd", "step2_modules", "step3_dual", "compute_metrics")
VARIANTS = ("source_only", "dann", "mcd", "mcd_dann", "ours", "ours_1m",
            "ours_2m")


class Tracer:
    """Spans of one traced repeat plus the counts taken at the same wrappers."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts = Counter()
        self.samples = defaultdict(list)

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, after=None):
        """A wrapper that records one span per call; after(args, result)
        runs outside the span, so its cost is not booked to the layer."""
        nid = self.name_id(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def wrap_generator(self, name: str, fn, count: str):
        """Generator functions: one span per next(), i.e. the time the
        consumer waits for an item; count is bumped per item."""
        span = self.wrap(name, next)
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                try:
                    item = span(it)
                except StopIteration:
                    return
                counts[count] += 1
                yield item

        return wrapper

    # -- derived views ------------------------------------------------------

    def arrays(self):
        """Per span: name id, duration and self time."""
        name = np.array(self.name, dtype=np.int32)
        parent = np.array(self.parent, dtype=np.int32)
        dur = np.array(self.end) - np.array(self.start)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        return name, dur, dur - child

    def under(self, root: str) -> np.ndarray:
        """Mask of spans that are `root` spans or lie below one."""
        rid = self._ids.get(root, -2)
        mask = np.zeros(len(self.name), dtype=bool)
        for i, (nid, p) in enumerate(zip(self.name, self.parent)):
            mask[i] = nid == rid or (p >= 0 and mask[p])
        return mask


def _count_leaves(tracer: Tracer, component_keys):
    def after(args, _):
        binding = args[0]
        tracer.counts["nn.leaves_bound"] += sum(
            2 * len(getattr(binding, k).weights) for k in component_keys)
    return after


def _count_matmul(tracer: Tracer):
    """2·m·k·n for an [m, k] operand and an [m, n] product; n comes from the
    product, so it holds whether transpose_b was passed or not."""
    def after(args, result):
        m, k = args[0].data.shape
        tracer.counts["autodiff.fwd.matmul.flop"] += 2 * m * k * result.data.shape[1]
    return after


def _count_backward(tracer: Tracer):
    def after(args, grads):
        tracer.samples["autodiff.backward.records"].append(len(args[0].records))
        tracer.counts["autodiff.grads_returned"] += len(grads)
    return after


def _count_saved_bytes(tracer: Tracer):
    def after(args, _):
        tracer.counts["nn.save_params.bytes"] += os.path.getsize(args[0])
    return after


def _sgd_step(tracer: Tracer, step):
    counts = tracer.counts

    def counted(named):
        for item in named:
            counts["optim.SGD.step.arrays"] += 1
            yield item

    def step_counting(self, named, lr):
        return step(self, counted(named), lr)

    return tracer.wrap("optim.SGD.step", step_counting)


def _cli_train(tracer: Tracer, train):
    """cli.train gets one span name per variant, around the trainer span."""
    by_variant = {v: tracer.wrap(f"cli.train.{v}", train) for v in VARIANTS}

    @functools.wraps(train)
    def wrapper(config, *args, **kwargs):
        return by_variant[config.variant.value](config, *args, **kwargs)

    return wrapper


class _Patches:
    def __init__(self):
        self.modules = [importlib.import_module("dualda" + m) for m in MODULES]
        self.undo: list = []

    def function(self, original, wrapper, modules=None):
        """Rebind every module attribute that holds `original`."""
        for mod in modules or self.modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self.undo.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def attribute(self, owner, attr, wrapper):
        self.undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def restore(self):
        while self.undo:
            owner, attr, value = self.undo.pop()
            setattr(owner, attr, value)


@contextlib.contextmanager
def install(tracer: Tracer):
    """Wrap the public callables of every layer for the block's duration."""
    ad, data, nn, losses = dualda.autodiff, dualda.data, dualda.nn, dualda.losses
    model, optim, trainer, cli = dualda.model, dualda.optim, dualda.trainer, dualda.cli
    p = _Patches()
    try:
        # data
        p.function(data.batches, tracer.wrap_generator(
            "data.batches", data.batches, "data.batches.pairs"))
        p.function(data.load_idx, tracer.wrap("data.load_idx", data.load_idx))
        for gen in (data.gen_two_moons, data.domain_shift, data.gen_blob_shift):
            p.function(gen, tracer.wrap("data.gen", gen))
        # autodiff
        p.function(ad.backward, tracer.wrap("autodiff.backward", ad.backward,
                                            _count_backward(tracer)))
        p.attribute(ad.Tape, "leaf", tracer.wrap("autodiff.leaf", ad.Tape.leaf))
        for fn_name, kind in OP_KINDS.items():
            fn = getattr(ad, fn_name)
            after = _count_matmul(tracer) if kind == "matmul" else None
            p.function(fn, tracer.wrap(f"autodiff.fwd.{kind}", fn, after))
        # nn
        p.attribute(nn.BoundComponents, "__init__", tracer.wrap(
            "nn.BoundComponents", nn.BoundComponents.__init__,
            _count_leaves(tracer, nn.COMPONENT_KEYS)))
        p.attribute(nn.BoundStack, "forward", tracer.wrap(
            "nn.BoundStack.forward", nn.BoundStack.forward))
        p.function(nn.save_params, tracer.wrap(
            "nn.save_params", nn.save_params, _count_saved_bytes(tracer)))
        # losses
        for name in ("module_loss", "classifier_only_loss", "dual_loss",
                     "discrepancy"):
            fn = getattr(losses, name)
            p.function(fn, tracer.wrap(f"losses.{name}", fn))
        # optim
        p.attribute(optim.SGD, "step", _sgd_step(tracer, optim.SGD.step))
        # model
        p.function(model.predict, tracer.wrap("model.predict", model.predict))
        # trainer
        for name in TRAIN_STEPS:
            fn = getattr(trainer, name)
            p.function(fn, tracer.wrap(f"trainer.{name}", fn))
        p.function(trainer.train, tracer.wrap("trainer.train", trainer.train))
        # cli (after trainer, so cli.train wraps the trainer.train wrapper)
        for name in ("run_experiment", "parse_config", "build_datasets"):
            fn = getattr(cli, name)
            p.function(fn, tracer.wrap(f"cli.{name}", fn))
        p.function(cli.train, _cli_train(tracer, cli.train), modules=[cli])
        yield tracer
    finally:
        p.restore()


def _median(values) -> float:
    return float(statistics.median(values)) if len(values) else 0.0


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of one traced repeat: name -> (value, unit)."""
    name, dur, self_t = tracer.arrays()
    ids = tracer._ids

    def pick(span):
        return name == ids.get(span, -1)

    def calls(span):
        return int(pick(span).sum())

    def busy(span):
        return float(dur[pick(span)].sum())

    def self_s(span):
        return float(self_t[pick(span)].sum())

    c = tracer.counts
    m = {}
    # autodiff
    m["autodiff.backward.calls"] = (calls("autodiff.backward"), "count")
    m["autodiff.backward.busy_s"] = (busy("autodiff.backward"), "s")
    m["autodiff.backward.self_s"] = (self_s("autodiff.backward"), "s")
    m["autodiff.backward.records_p50"] = (
        _median(tracer.samples["autodiff.backward.records"]), "count")
    m["autodiff.grads_returned"] = (c["autodiff.grads_returned"], "count")
    m["autodiff.grads_used_ratio"] = (
        c["optim.SGD.step.arrays"] / max(c["autodiff.grads_returned"], 1), "ratio")
    m["autodiff.leaf.calls"] = (calls("autodiff.leaf"), "count")
    m["autodiff.leaf.busy_s"] = (busy("autodiff.leaf"), "s")
    for kind in OP_KINDS.values():
        m[f"autodiff.fwd.{kind}.calls"] = (calls(f"autodiff.fwd.{kind}"), "count")
        m[f"autodiff.fwd.{kind}.busy_s"] = (busy(f"autodiff.fwd.{kind}"), "s")
    gflop = c["autodiff.fwd.matmul.flop"] / 1e9
    m["autodiff.fwd.matmul.gflop"] = (gflop, "GFLOP_computed")
    m["autodiff.fwd.matmul.gflop_per_s"] = (
        gflop / max(busy("autodiff.fwd.matmul"), 1e-12), "GFLOP/s")
    # nn
    m["nn.BoundComponents.calls"] = (calls("nn.BoundComponents"), "count")
    m["nn.BoundComponents.busy_s"] = (busy("nn.BoundComponents"), "s")
    m["nn.leaves_bound"] = (c["nn.leaves_bound"], "count")
    m["nn.leaves_used_ratio"] = (
        c["optim.SGD.step.arrays"] / max(c["nn.leaves_bound"], 1), "ratio")
    m["nn.BoundStack.forward.busy_s"] = (busy("nn.BoundStack.forward"), "s")
    m["nn.save_params.calls"] = (calls("nn.save_params"), "count")
    m["nn.save_params.busy_s"] = (busy("nn.save_params"), "s")
    m["nn.save_params.bytes"] = (c["nn.save_params.bytes"], "bytes")
    # losses
    for loss in ("module_loss", "classifier_only_loss", "dual_loss"):
        m[f"losses.{loss}.busy_s"] = (busy(f"losses.{loss}"), "s")
    m["losses.discrepancy.calls"] = (calls("losses.discrepancy"), "count")
    # optim
    m["optim.SGD.step.calls"] = (calls("optim.SGD.step"), "count")
    m["optim.SGD.step.busy_s"] = (busy("optim.SGD.step"), "s")
    m["optim.SGD.step.arrays"] = (c["optim.SGD.step.arrays"], "count")
    # trainer
    for step in TRAIN_STEPS:
        span = f"trainer.{step}"
        m[f"{span}.calls"] = (calls(span), "count")
        m[f"{span}.ms_p50"] = (_median(dur[pick(span)] * 1e3), "ms")
        m[f"{span}.self_s"] = (self_s(span), "s")
    m["trainer.train.self_s"] = (self_s("trainer.train"), "s")
    # model
    m["model.predict.calls"] = (calls("model.predict"), "count")
    m["model.predict.ms_p50"] = (_median(dur[pick("model.predict")] * 1e3), "ms")
    # data
    m["data.batches.pairs"] = (c["data.batches.pairs"], "count")
    m["data.batches.wait_s"] = (busy("data.batches"), "s")
    m["data.load_idx.busy_s"] = (busy("data.load_idx"), "s")
    m["data.gen.busy_s"] = (busy("data.gen"), "s")
    # cli
    m["cli.run_experiment.calls"] = (calls("cli.run_experiment"), "count")
    m["cli.run_experiment.self_s"] = (self_s("cli.run_experiment"), "s")
    m["cli.parse_config.busy_s"] = (busy("cli.parse_config"), "s")
    m["cli.build_datasets.busy_s"] = (busy("cli.build_datasets"), "s")
    for v in VARIANTS:
        m[f"cli.train.{v}.busy_s"] = (busy(f"cli.train.{v}"), "s")
    # tracing itself
    m["trace.spans"] = (len(name), "count")
    m["trace.train_self_sum_s"] = (float(self_t[tracer.under("trainer.train")].sum()), "s")
    return m


def write_spans(tracer: Tracer, path) -> None:
    """All spans as gzip TSV: id, parent id (-1 for a root), name, start, end."""
    with gzip.open(path, "wt", compresslevel=1) as f:
        f.write("id\tparent\tname\tstart_s\tend_s\n")
        names = tracer.names
        for i, (nid, p, s, e) in enumerate(zip(tracer.name, tracer.parent,
                                               tracer.start, tracer.end)):
            f.write(f"{i}\t{p}\t{names[nid]}\t{s:.9f}\t{e:.9f}\n")
