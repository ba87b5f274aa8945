"""Minimal reverse-mode autodiff over dense float64 tensors.

A ``Tape`` records every primitive as it executes (define-by-run), so the
record list is already topologically ordered; ``backward`` replays it in
exact reverse order and accumulates gradients by summation in that fixed
order, which makes gradients bit-for-bit reproducible.

The tape owns every value. A ``Tensor`` is a handle (tape, node id,
slices) whose ``.data`` and ``.grad`` live in the tape's ``values`` and
``grads`` lists, and the records hold kernels and numpy arrays, never a
tensor. So no reference cycle forms: a tape is freed by reference
counting as soon as its last handle goes.

Graph inputs enter a tape two ways: ``Tape.leaf`` converts and checks data
(it rejects NaN/Inf), while ``Tape.param`` wraps a persistent float64
parameter array as it is, with no copy and no scan; the optimizer keeps
parameters finite instead (``optim.SGD.step`` checks after each update).

Each op checks its operands once, when it records itself, and then runs
its forward kernel: a function of the input arrays (and of the op's label
vector or reversal weights) that makes the op's numpy calls and returns
the output with the closure of its backward. ``Tape(*inputs)`` declares
step inputs: batches, a label vector, a lambda. A leaf made from one of
these objects, and a label vector or reversal weight that is one of them,
is tied to it. ``Tape.rerun(*inputs)`` refills everything tied from new
inputs of the captured shapes, checking each like its op did (NaN/Inf,
label range, lambda >= 0), and runs every kernel again in record order.
That makes the numpy calls of a fresh tape on the new inputs, so the same
bits, without building a tensor, a record or a binding. Parameters are
read in place, so a rerun sees the latest update.

``backward(tape, loss, wrt)`` with a list of tensors visits only the
records whose outputs depend on them and returns (and stores in ``.grad``)
only their gradients; without ``wrt`` every node gets a gradient, zeros
where the loss does not reach. Either way the gradients of the visited
nodes are bitwise the same. A pruned sweep also tells each record which of
its inputs are live, so a matmul skips the product for an operand nobody
reads (the data in front of a network). The tape caches each sweep's plan,
its live flags and the records it visits, per (loss, wrt), so a rerun tape
computes liveness once.

The op set is deliberately small: dense matmul (with an optional
transpose-b mode, an optional bias and an optional relu, so that a dense
layer ``relu(x @ W.T + b)`` is one record), broadcast add, sub,
scalar_mul, relu, row-wise softmax / log_softmax, full reductions mean /
sum, abs, per-row select_columns, the two loss terms ``cross_entropy``
(log_softmax, select, mean and negate) and ``mean_abs_diff`` (sub, abs,
sum and scale) as one record each, and the gradient-reversal pseudo-op
``grad_reverse`` whose forward is the identity and whose backward scales
the upstream gradient by -lambda.

Stacked slices. Structurally identical networks run as one graph: matmul
takes M weight slices ``[M, out, in]`` (biases ``[M, out]``), and a
tensor's rows then hold M slices of equal size, slice m at rows
``[m*B:(m+1)*B]`` (``Tensor.slices``). A dense record applies slice m of
its weights to slice m of its input rows, or to all of them when the input
has one slice (a batch every network reads). Row-wise ops keep the slices;
the loss terms return one value per slice, ``mean_abs_diff`` can instead
compare the two slices of one tensor, and ``grad_reverse`` can weight each
slice's gradient on its own. ``backward`` accepts such a per-slice loss
and seeds every slice with 1. Every stacked record runs the numpy calls of
its slices at once, and each slice's values, forward and backward, are
bitwise those of the unstacked record on that slice alone.

Evaluation and inference run without a tape, on the numpy functions that
the records' forward kernels call themselves, so each computation has one
owner and a tape-free forward gives the same bits: ``checked_input``
(``Tape.leaf``), ``dense`` (the matmul record, stacked slices included),
``relu_values`` (every relu: ``max(x, 0)``, no branch per element),
``row_softmax`` (softmax), and ``cross_entropy_values`` and
``mean_abs_diff_values`` (the two loss records). They keep no backward
state, so a tape-free pass frees each temporary once it is read.
"""

from __future__ import annotations

import functools
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import ContractError, DimensionError, DomainError


class Tensor:
    """A handle on one node of a tape; the tape holds its float64 data and
    gradient. Its rows hold `slices` stacked slices of equal size."""

    __slots__ = ("tape", "node_id", "slices")

    def __init__(self, tape: "Tape", node_id: int, slices: int = 1):
        self.tape = tape
        self.node_id = node_id
        self.slices = slices

    @property
    def data(self) -> np.ndarray:
        return self.tape.values[self.node_id]

    @property
    def grad(self) -> Optional[np.ndarray]:
        return self.tape.grads[self.node_id]

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self):
        return f"Tensor(id={self.node_id}, shape={list(self.shape)})"

    def __add__(self, other: "Tensor") -> "Tensor":
        return add(self, other)


# kernel(*input arrays, *args) -> (output, backward_fn, relu_in)
Kernel = Callable[..., Tuple[np.ndarray, Callable, Optional[np.ndarray]]]


class _Record:
    """One executed op: kind, wiring, its forward kernel and the arguments
    it takes after the input arrays, and the backward closure and relu
    input of the kernel's latest run.

    A pruning record's closure also takes the live flags of its inputs and
    may return None for an input that is not live. relu_in is the input of
    the relu the record applies, if any (gradient checks keep away from
    its kink).
    """

    __slots__ = ("kind", "input_ids", "output_id", "kernel", "args",
                 "backward_fn", "prunes", "relu_in")

    def __init__(self, kind: str, input_ids: List[int], output_id: int,
                 kernel: Kernel, args: list,
                 backward_fn: Callable[..., Sequence[Optional[np.ndarray]]],
                 prunes: bool, relu_in: Optional[np.ndarray]):
        self.kind = kind
        self.input_ids = input_ids
        self.output_id = output_id
        self.kernel = kernel
        self.args = args
        self.backward_fn = backward_fn
        self.prunes = prunes
        self.relu_in = relu_in


class Tape:
    """Ordered op records built during one forward pass, and the value and
    gradient of every node. inputs are the step inputs a rerun refills.

    A tape and its tensors are confined to a single thread for the
    duration of a forward+backward pass; independent tapes may run on
    independent threads.
    """

    def __init__(self, *inputs):
        self.records: List[_Record] = []
        self.values: List[np.ndarray] = []
        self.grads: List[Optional[np.ndarray]] = []
        self._inputs = inputs
        self._shapes = [np.shape(v) for v in inputs]
        # (list, slot, check, k) in capture order: a rerun stores
        # check(inputs[k]) at list[slot], a leaf's value or a record's
        # argument
        self._refills: List[Tuple[list, int, Callable, int]] = []
        self._plans: Dict[tuple, list] = {}

    def leaf(self, data) -> Tensor:
        """Wrap an array (or nested lists) as a graph input node."""
        t = self._new_tensor(checked_input(data))
        self._tie(self.values, t.node_id, checked_input, data)
        return t

    def param(self, arr: np.ndarray) -> Tensor:
        """Wrap a float64 parameter array in place: no conversion, no check."""
        return self._new_tensor(arr)

    def _new_tensor(self, data: np.ndarray, slices: int = 1) -> Tensor:
        self.values.append(data)
        self.grads.append(None)
        return Tensor(self, len(self.values) - 1, slices)

    def _tie(self, store: list, slot: int, check: Callable, value) -> None:
        """Refill store[slot] from the step input that value is, if it is
        one, passed through check."""
        for k, v in enumerate(self._inputs):
            if value is v:
                self._refills.append((store, slot, check, k))
                return

    def _emit(self, kind: str, inputs: Sequence[Tensor], kernel: Kernel,
              args: Sequence = (), check: Optional[Callable] = None,
              prunes: bool = False, slices: int = 1) -> Tensor:
        """Run kernel on the inputs' values and the arguments (each passed
        through check first) and record it."""
        ids = [t.node_id for t in inputs]
        checked = [check(a) for a in args]
        out, backward_fn, relu_in = kernel(*[self.values[i] for i in ids],
                                           *checked)
        t = self._new_tensor(out, slices)
        self.records.append(_Record(kind, ids, t.node_id, kernel, checked,
                                    backward_fn, prunes, relu_in))
        for j, a in enumerate(args):
            self._tie(checked, j, check, a)
        return t

    def fits(self, *inputs) -> bool:
        """True when inputs match the declared step inputs in number and
        shapes, so that the tape can rerun on them."""
        return [np.shape(v) for v in inputs] == self._shapes

    def rerun(self, *inputs) -> None:
        """Refill the leaves and arguments tied to the step inputs from
        inputs, checking each, and run every record's kernel again in
        order. Every declared input must have been read at capture."""
        if not self.fits(*inputs):
            raise DimensionError(
                f"rerun: inputs of shapes {[np.shape(v) for v in inputs]} "
                f"do not fit the captured {self._shapes}")
        if len({k for *_, k in self._refills}) != len(inputs):
            raise ContractError("rerun: a step input was not read at capture")
        for store, slot, check, k in self._refills:
            store[slot] = check(inputs[k])
        values = self.values
        self.grads = [None] * len(values)
        for rec in self.records:
            out, rec.backward_fn, rec.relu_in = rec.kernel(
                *[values[i] for i in rec.input_ids], *rec.args)
            values[rec.output_id] = out


def checked_input(data) -> np.ndarray:
    """data as a float64 array; NaN or Inf is a ContractError."""
    arr = np.asarray(data, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ContractError("input contains NaN or Inf")
    return arr


def _mT(a: np.ndarray) -> np.ndarray:
    """The transpose of the last two axes, as a view."""
    return a.T if a.ndim == 2 else a.swapaxes(1, 2)


def _slice_operands(x: np.ndarray, w: np.ndarray, slices: int):
    """x and w as product operands: both 2-D for one weight slice; else the
    [M, ., .] weights against x's M row slices, or against x itself when it
    has one slice (a batch every slice reads)."""
    if w.ndim == 2:
        return x, w
    m = w.shape[0]
    if m == 1:
        return x, w[0]
    return (x if slices == 1 else x.reshape(m, -1, x.shape[1])), w


def dense(x: np.ndarray, w: np.ndarray, bias: Optional[np.ndarray] = None,
          relu: bool = False, slices: int = 1,
          transpose_b: bool = True) -> np.ndarray:
    """One dense layer in numpy: x @ w.T (x @ w without transpose_b), plus
    bias, then relu when set. A 3-D w stacks M layers (bias [M, width]) by
    the slice rules of matmul: x holds `slices` row slices, 1 or M, and the
    output holds M."""
    xs, ws = _slice_operands(x, w, slices)
    out = xs @ (_mT(ws) if transpose_b else ws)
    if bias is not None:
        out += bias if ws.ndim == 2 else bias[:, None]
    if out.ndim == 3:
        out = out.reshape(-1, out.shape[2])
    return relu_values(out, out) if relu else out


def relu_values(pre: np.ndarray, out: Optional[np.ndarray] = None
                ) -> np.ndarray:
    """max(pre, 0) elementwise, into out when given: the bits of
    np.where(pre > 0, pre, 0.0), +0.0 at -0.0 included, without a branch
    per element; a NaN stays NaN."""
    return np.maximum(pre, 0.0, out=out)


def row_softmax(z: np.ndarray) -> np.ndarray:
    """Softmax of each row, numerically stabilized by the row max."""
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def _same_tape(*tensors: Tensor) -> Tape:
    tape = tensors[0].tape
    for t in tensors[1:]:
        if t.tape is not tape:
            raise ContractError("operands belong to different tapes")
    return tape


def matmul(a: Tensor, b: Tensor, transpose_b: bool = False,
           bias: Optional[Tensor] = None, relu: bool = False) -> Tensor:
    """2-D matrix product a @ b, or a @ b.T when transpose_b is set; a bias
    added to every row and a relu after it run in the same record (a dense
    layer). A 3-D b stacks M weight slices (a bias is then [M, width]):
    slice m multiplies slice m of a's rows, or all of a when a has one
    slice, and the product has M slices. A backward sweep skips the
    gradient of an operand that is not live."""
    tape = _same_tape(a, b) if bias is None else _same_tape(a, b, bias)
    x, w = a.data, b.data
    if x.ndim != 2 or w.ndim not in (2, 3):
        raise DimensionError(
            f"matmul: expected a 2-D operand and a 2-D or stacked 3-D one, "
            f"got {list(x.shape)} and {list(w.shape)}")
    m = 1 if w.ndim == 2 else w.shape[0]
    width, inner_b = w.shape[-2:] if transpose_b else w.shape[:-3:-1]
    if x.shape[1] != inner_b:
        raise DimensionError(
            f"matmul: inner dimensions differ for shapes {list(x.shape)} and "
            f"{list(w.shape)}" + (" (transpose_b)" if transpose_b else ""))
    a_slices = a.slices
    if a_slices not in (1, m):
        raise DimensionError(
            f"matmul: {a_slices} row slices do not fit {m} weight slices")
    if bias is not None and bias.shape != w.shape[:-2] + (width,):
        raise DimensionError(
            f"matmul: bias {list(bias.shape)} does not fit the product "
            f"{[x.shape[0], width]} of {m} slice(s)")

    def kernel(x, w, bias_data=None):
        out = dense(x, w, bias_data, False, a_slices, transpose_b)
        pre = None
        if relu:
            pre, mask = out, out > 0  # subgradient at 0 is 0 by convention
            out = relu_values(pre)

        def backward_fn(g, live=(True, True, True)):
            if relu:
                g = g * mask
            xs, ws = _slice_operands(x, w, a_slices)
            wt = _mT(ws)
            gs = g if m == 1 else g.reshape(m, -1, width)
            gx = gw = None
            if live[0]:
                gx = gs @ (ws if transpose_b else wt)
                if m > 1:  # a shared input collects every slice's gradient
                    gx = gx.reshape(x.shape) if a_slices == m else gx.sum(axis=0)
            if live[1]:
                gw = _mT(gs) @ xs if transpose_b else _mT(xs) @ gs
                if gw.shape != w.shape:  # one slice of a [1, ...] stack
                    gw = gw.reshape(w.shape)
            if bias_data is None:
                return gx, gw
            gb = None
            if live[2]:
                gb = gs.sum(axis=-2)
                if gb.shape != bias_data.shape:
                    gb = gb.reshape(bias_data.shape)
            return gx, gw, gb

        return out, backward_fn, pre

    inputs = [a, b] if bias is None else [a, b, bias]
    return tape._emit("matmul", inputs, kernel, prunes=True, slices=m)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; b may be 1-D and broadcast over a's leading batch dim."""
    tape = _same_tape(a, b)
    if a.shape == b.shape:
        def backward_fn(g):
            return g, g
    elif a.data.ndim == 2 and b.data.ndim == 1 and a.shape[1] == b.shape[0]:
        def backward_fn(g):
            return g, g.sum(axis=0)
    else:
        raise DimensionError(
            f"add: shapes {list(a.shape)} and {list(b.shape)} do not conform")
    return tape._emit("add", [a, b], lambda x, y: (x + y, backward_fn, None))


def sub(a: Tensor, b: Tensor) -> Tensor:
    tape = _same_tape(a, b)
    if a.shape != b.shape:
        raise DimensionError(
            f"sub: shapes {list(a.shape)} and {list(b.shape)} differ")

    def backward_fn(g):
        return g, -g

    return tape._emit("sub", [a, b], lambda x, y: (x - y, backward_fn, None))


def scalar_mul(a: Tensor, c: float) -> Tensor:
    c = float(c)

    def backward_fn(g):
        return (c * g,)

    return a.tape._emit("scalar_mul", [a], lambda x: (c * x, backward_fn, None))


def relu(a: Tensor) -> Tensor:
    def kernel(x):
        mask = x > 0  # subgradient at 0 is 0 by convention
        return relu_values(x), lambda g: (g * mask,), x

    return a.tape._emit("relu", [a], kernel, slices=a.slices)


def _check_rows(a: Tensor, op: str) -> None:
    if a.data.ndim != 2:
        raise DimensionError(f"{op}: expected a 2-D tensor, got {list(a.shape)}")
    if a.shape[1] == 0:
        raise DomainError(f"{op}: rows are empty (shape {list(a.shape)})")


def _softmax_kernel(z):
    s = row_softmax(z)

    def backward_fn(g):
        dot = (g * s).sum(axis=1, keepdims=True)
        return (s * (g - dot),)

    return s, backward_fn, None


def softmax(a: Tensor) -> Tensor:
    """Row-wise softmax, numerically stabilized by the row max."""
    _check_rows(a, "softmax")
    return a.tape._emit("softmax", [a], _softmax_kernel, slices=a.slices)


def log_softmax(a: Tensor) -> Tensor:
    _check_rows(a, "log_softmax")

    def kernel(x):
        shifted = x - x.max(axis=1, keepdims=True)
        lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        out = shifted - lse
        soft = np.exp(out)
        return out, lambda g: (g - soft * g.sum(axis=1, keepdims=True),), None

    return a.tape._emit("log_softmax", [a], kernel, slices=a.slices)


def mean(a: Tensor) -> Tensor:
    """Mean over every entry, as a shape-[1] tensor."""
    def kernel(x):
        n, shape = x.size, x.shape
        return (np.array([x.mean()]),
                lambda g: (np.full(shape, g[0] / n),), None)

    return a.tape._emit("mean", [a], kernel)


def tensor_sum(a: Tensor) -> Tensor:
    """Sum over every entry, as a shape-[1] tensor."""
    def kernel(x):
        shape = x.shape
        return np.array([x.sum()]), lambda g: (np.full(shape, g[0]),), None

    return a.tape._emit("sum", [a], kernel)


def tensor_abs(a: Tensor) -> Tensor:
    def kernel(x):
        sign = np.sign(x)  # sign(0) == 0: abs subgradient at 0 is 0
        return np.abs(x), lambda g: (g * sign,), None

    return a.tape._emit("abs", [a], kernel)


def checked_indices(op: str, rows: int, cols: int, indices) -> np.ndarray:
    """One integer column index in [0, cols) for each of `rows` rows; op
    names the operation in the error."""
    idx = np.asarray(indices)
    if idx.ndim != 1 or idx.shape[0] != rows:
        raise DimensionError(
            f"{op}: index vector length {list(idx.shape)} does not "
            f"match {rows} rows")
    if not np.issubdtype(idx.dtype, np.integer):
        raise ContractError(f"{op}: indices must be integers")
    if idx.min() < 0 or idx.max() >= cols:
        raise ContractError(f"{op}: index out of range [0, {cols})")
    return idx


def select_columns(a: Tensor, indices) -> Tensor:
    """Pick one entry per row by a constant index vector; output [rows, 1]."""
    _check_rows(a, "select_columns")
    idx = checked_indices("select_columns", a.shape[0], a.shape[1], indices)
    rows = np.arange(a.shape[0])

    def kernel(x):
        shape = x.shape

        def backward_fn(g):
            out = np.zeros(shape)
            out[rows, idx] = g[:, 0]
            return (out,)

        return x[rows, idx][:, None], backward_fn, None

    return a.tape._emit("select_columns", [a], kernel)


def cross_entropy_values(a: np.ndarray, idx: np.ndarray, slices: int = 1):
    """-mean_i log_softmax(a)[i, idx[i]] over each of a's row slices (idx:
    one label per row of a slice), one value per slice; with the
    log-probabilities and the [slices, rows] row index that backward reads."""
    shifted = a - a.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    n = len(idx)
    rows = np.arange(slices * n).reshape(slices, n)
    return -1.0 * logp[rows, idx].mean(axis=1), logp, rows


def mean_abs_diff_values(x: np.ndarray, y: np.ndarray, slices: int = 1):
    """sum|x - y| / size over each of the row slices, one value per slice;
    with the difference x - y, whose sign backward reads."""
    d = x - y
    c = 1.0 / (d.size // slices)
    return c * np.abs(d).reshape(slices, -1).sum(axis=1), d


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """-mean_i log_softmax(logits)[i, labels[i]] of each row slice, one
    value per slice (labels: one per row of a slice): the numpy calls of
    log_softmax, select_columns, mean and scalar_mul(-1), forward and
    backward, in one record."""
    m = logits.slices
    _check_rows(logits, "cross_entropy")

    def kernel(a, idx):
        loss, logp, rows = cross_entropy_values(a, idx, m)

        def backward_fn(g):
            g_logp = np.zeros(a.shape)
            g_logp[rows, idx] = ((-1.0 * g) / len(idx))[:, None]
            return (g_logp - np.exp(logp) * g_logp.sum(axis=1, keepdims=True),)

        return loss, backward_fn, None

    check = functools.partial(checked_indices, "cross_entropy",
                              logits.shape[0] // m, logits.shape[1])
    return logits.tape._emit("cross_entropy", [logits], kernel, args=(labels,),
                             check=check)


def mean_abs_diff(a: Tensor, b: Optional[Tensor] = None) -> Tensor:
    """sum|a - b| / size of each row slice, one value per slice: the numpy
    calls of sub, abs, sum and scalar_mul, forward and backward, in one
    record. Without b, a holds two slices and the one value compares them
    (slice 0 in the place of a, slice 1 in that of b)."""
    pair = b is None
    if pair:
        if a.slices != 2:
            raise DimensionError(
                f"mean_abs_diff: one operand must hold 2 slices, got "
                f"{a.slices}")
        tape, inputs, m = a.tape, [a], 1
    else:
        tape, inputs, m = _same_tape(a, b), [a, b], a.slices
        if a.shape != b.shape or a.slices != b.slices:
            raise DimensionError(
                f"mean_abs_diff: shapes {list(a.shape)} and {list(b.shape)} "
                f"({a.slices} and {b.slices} slices) differ")

    def kernel(x, y=None):
        if pair:
            half = x.shape[0] // 2
            x, y = x[:half], x[half:]
        loss, d = mean_abs_diff_values(x, y, m)
        sign = np.sign(d)  # sign(0) == 0: abs subgradient at 0 is 0
        c = 1.0 / (d.size // m)

        def backward_fn(g):
            g_d = ((c * g)[:, None] * sign.reshape(m, -1)).reshape(sign.shape)
            return (np.concatenate((g_d, -g_d)),) if pair else (g_d, -g_d)

        return loss, backward_fn, None

    return tape._emit("mean_abs_diff", inputs, kernel)


def _checked_lambda(v):
    if v is not None and float(v) < 0:
        raise ContractError(f"grad_reverse: lambda must be >= 0, got {v}")
    return v


def grad_reverse(a: Tensor, lam) -> Tensor:
    """Identity forward; backward multiplies the upstream gradient by -lam.
    lam may instead hold one entry per row slice: a lambda reverses that
    slice's gradient, None passes it on unchanged (weight +1.0)."""
    lams = list(lam) if isinstance(lam, (list, tuple)) else [lam]
    for v in lams:
        _checked_lambda(v)
    if len(lams) != 1 and (not lams or a.data.ndim == 0 or
                           a.shape[0] % len(lams)):
        raise DimensionError(
            f"grad_reverse: shape {list(a.shape)} does not split into "
            f"{len(lams)} row slices")

    def kernel(x, *lams):
        weights = [1.0 if v is None else -float(v) for v in lams]
        if len(weights) == 1:
            weight = weights[0]

            def backward_fn(g):
                return (weight * g,)
        else:
            rows = np.repeat(weights, x.shape[0] // len(weights))
            rows = rows.reshape((-1,) + (1,) * (x.ndim - 1))

            def backward_fn(g):
                return (g * rows,)

        return x.copy(), backward_fn, None

    return a.tape._emit("grad_reverse", [a], kernel, args=lams,
                        check=_checked_lambda, slices=a.slices)


def _plan(tape: Tape, loss_id: int,
          wrt_ids: Optional[Tuple[int, ...]]) -> list:
    """The records a sweep from loss_id visits, last first, each with the
    live flags of its inputs. A node is live when it depends on a wrt
    node (every node without wrt); only live nodes can pass gradient on to
    one, and a record runs when its output is live and the loss reaches
    it."""
    n = len(tape.values)
    if wrt_ids is None:
        live = [True] * n
    else:
        live = [False] * n
        for i in wrt_ids:
            live[i] = True
        for rec in tape.records:
            for iid in rec.input_ids:
                if live[iid]:
                    live[rec.output_id] = True
                    break
    reached = [False] * n
    reached[loss_id] = True
    plan = []
    for rec in reversed(tape.records):
        if reached[rec.output_id] and live[rec.output_id]:
            flags = [live[i] for i in rec.input_ids]
            plan.append((rec, flags))
            for iid, flag in zip(rec.input_ids, flags):
                reached[iid] = reached[iid] or flag
    return plan


def backward(tape: Tape, loss: Tensor,
             wrt: Optional[Sequence[Tensor]] = None) -> Dict[int, np.ndarray]:
    """Reverse sweep from a loss node: one value, or one per stacked slice,
    each seeded with 1 (for slices with disjoint parameters, each slice's
    parameters get the gradient of that slice's loss).

    Without wrt, returns a map node_id -> gradient array for every node
    (zeros for nodes the loss does not reach) and fills each tensor's
    .grad. With wrt, only the records whose outputs depend on those tensors
    run their backward, and only the wrt tensors get a gradient (zeros if
    the loss does not reach them) in the returned map and in .grad; a
    pruning record is told which of its inputs are live and skips the
    others.
    """
    if loss.tape is not tape:
        raise ContractError("backward: loss tensor is not on this tape")
    values = tape.values
    loss_data = values[loss.node_id]
    if loss_data.size != 1 and loss_data.ndim != 1:
        raise ContractError(
            f"backward: loss must be scalar or one value per slice, got "
            f"shape {list(loss_data.shape)}")
    wrt_ids = None
    if wrt is not None:
        for t in wrt:
            if t.tape is not tape:
                raise ContractError("backward: wrt tensor is not on this tape")
        wrt_ids = tuple(t.node_id for t in wrt)
    key = (loss.node_id, wrt_ids)
    plan = tape._plans.get(key)
    if plan is None:
        plan = tape._plans[key] = _plan(tape, loss.node_id, wrt_ids)
    grads: List[Optional[np.ndarray]] = [None] * len(values)
    grads[loss.node_id] = np.ones_like(loss_data)
    for rec, flags in plan:
        g_out = grads[rec.output_id]
        g_ins = (rec.backward_fn(g_out, flags) if rec.prunes
                 else rec.backward_fn(g_out))
        for iid, flag, g_in in zip(rec.input_ids, flags, g_ins):
            if flag:
                # a new array on every accumulation: a stored gradient may
                # be shared with another node (add returns g for both operands)
                g = grads[iid]
                grads[iid] = g_in if g is None else g + g_in
    result: Dict[int, np.ndarray] = {}
    for nid in (range(len(values)) if wrt_ids is None else wrt_ids):
        g = grads[nid]
        if g is None:
            g = np.zeros_like(values[nid])
        tape.grads[nid] = g
        result[nid] = g
    return result
