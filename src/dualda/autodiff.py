"""Minimal reverse-mode autodiff over dense float64 tensors.

A ``Tape`` records every primitive as it executes (define-by-run), so the
record list is already topologically ordered; ``backward`` replays it in
exact reverse order and accumulates gradients by summation in that fixed
order, which makes gradients bit-for-bit reproducible.

The tape owns every value. A ``Tensor`` is a handle (tape, node id,
slices) whose ``.data`` lives in the tape's ``values`` list, and the
records hold their arguments and numpy arrays, never a tensor. So no
reference cycle forms: a tape is freed by reference counting as soon as
its last handle goes.

Graph inputs enter a tape two ways: ``Tape.leaf`` converts and checks data
(it rejects NaN/Inf), while ``Tape.param`` wraps a persistent float64
parameter array as it is, with no copy and no scan; the optimizer keeps
parameters finite instead (``optim.SGD.step`` checks after each update).

Each op checks its operands once, when it records itself, and then runs
its one forward: the code that its kind's forward code generator writes
for the record, made once per kind, static settings and input shapes. It
makes the op's numpy calls and saves the arrays its backward reads (a relu
mask, the labels and log-probabilities of a cross-entropy, a sign, a
reversal factor) in record order. ``Tape(*inputs)`` declares step inputs:
batches, a label vector, a lambda. A leaf made from one of these objects,
and a label vector or reversal weight that is one of them, is tied to it.
The tape keeps the declared inputs only until its first rerun, and takes
no new leaf, parameter or record after it.
``Tape.rerun(*inputs)`` refills everything tied from new inputs of the
captured shapes, checking each like its op did (NaN/Inf, label range, a
finite lambda >= 0), and runs the code of the same generators for every
record in order, found on the first rerun as one straight-line function
(``_lower_forward``) with every value a local: the numpy calls of a
fresh tape on the new inputs, so the same bits, without building a
tensor, a record or a binding.

Parameters are read in place, so a rerun sees the latest update, and what
would be the same at every rerun is made once: a parameter's product
operand and bias view (transposed, sliced or broadcast) is made at the
first rerun, by the functions ``dense`` calls, and read from the tape's
consts. A parameter is never rebound, since the optimizer and
``load_state`` write into its array, so its view sees every update. The
cross-entropy row index and the loss seed of a sweep are read-only arrays
shared per shape.

Generated code is shared by tape structure for the whole process. A
tape's structure key holds what the code generators read: per record its
kind, static settings, input and output ids, saved count and number of
arguments; per value its shape and dtype; and, for a forward, per refill
its store, slot and input and which refills share one check. A tape
whose key equals an earlier tape's runs that tape's forward and sweeps,
found by one lookup, which name no tape and hold no user text; a forward
comes with the keys of its consts (``("weight", i, d)``, ``("args", j)``, a
check), which each tape resolves against itself, so every tape keeps its
own parameter views.

Every backward sweep is generated code too, on a captured tape and after
a rerun alike: ``backward(tape, loss, wrt)`` runs one function per
(loss, wrt), lowered from the backward code generators of the records it
visits for the first tape of its structure, with each gradient's
accumulation resolved when it is made, and caches it on the tape. It
visits only the records whose outputs depend on the wrt tensors and
returns their gradients as a list in wrt order, zeros where the loss
does not reach. A record's generator is told which of its
inputs are live, so a matmul makes no product for an operand nobody
reads (the data in front of a network). The sweep writes each returned
gradient into an array: a new one, or with ``into=arrays`` the given one
(an optimizer's gradient store), in place, with ``out=`` where the first
contribution is a numpy call that takes one, adding each later
contribution in place.

The op set is deliberately small: the dense product ``x @ W.T`` (with an
optional bias and an optional relu, so that a dense layer
``relu(x @ W.T + b)`` is one record), add and sub of equal shapes,
scalar_mul, relu, row-wise softmax / log_softmax, full reductions mean /
sum, abs, per-row select_columns, the two loss terms ``cross_entropy``
(log_softmax, select, mean and negate) and ``mean_abs_diff`` (sub, abs,
sum and scale) as one record each, and the gradient-reversal pseudo-op
``grad_reverse`` whose forward is the identity and whose backward scales
the upstream gradient by -lambda. A dense record with a relu saves only
its mask and runs the relu in place on its own product, so no
pre-activation is kept (``dense`` without the relu makes it again, same
bits). Training and check-grad record only matmul, add, sub, softmax,
the two loss terms and grad_reverse; the seven other kinds stay only for
the tests and the benchmark's tracer, which binds them by name.

Stacked slices. Structurally identical networks run as one graph, and so
do equal batches of D domains: matmul takes M weight slices ``[M, out,
in]`` (biases ``[M, out]``), and a tensor's rows then hold M x D slices of
B rows each, module-major, slice k = m*D + d (module m on domain d) at
rows ``[k*B:(k+1)*B]`` (``Tensor.slices``). A dense record applies weight
slice m to module m's slices of its input rows, or to every domain batch
it reads: one batch as one input, or the D batches of D domains as D
inputs of the record, which copies none of them. Each (module, domain)
slice still makes its own product, one GEMM of B rows, as a record per
domain would; one product over the joined rows of two domains would change
the bits. The weight and bias gradients add the D domains' terms in domain
order. Row-wise ops keep the slices; the loss terms return one value per
slice, ``mean_abs_diff`` can instead compare the two modules' slices of
each domain and add the D values, and ``grad_reverse`` can weight each
slice's gradient on its own. ``backward`` accepts such a per-slice loss
and seeds every slice with 1. Every stacked record runs the numpy calls of
its slices at once, and each slice's values, forward and backward, are
bitwise those of the unstacked record on that slice alone.

Evaluation and inference run without a tape, on numpy functions that the
records' generated code calls, or whose numpy calls it makes, so a
tape-free forward gives the same bits: ``checked_input`` (``Tape.leaf``),
``dense`` (the matmul record, stacked slices included), ``relu_values``
(every relu: ``max(x, 0)``, no branch per element), ``row_softmax``
(softmax), ``cross_entropy_values`` and ``mean_abs_diff_values`` (the two
loss records), and ``row_max`` (every row max: softmax, log_softmax and
the cross-entropy; it says how it gives numpy's bytes faster on tall
narrow arrays). These functions keep no backward state, so a tape-free
pass frees each temporary once it is read.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import ContractError, DimensionError, DomainError


class Tensor:
    """A handle on one node of a tape; the tape holds its float64 data. Its
    rows hold `slices` stacked slices of equal size."""

    __slots__ = ("tape", "node_id", "slices")

    def __init__(self, tape: "Tape", node_id: int, slices: int = 1):
        self.tape = tape
        self.node_id = node_id
        self.slices = slices

    @property
    def data(self) -> np.ndarray:
        return self.tape.values[self.node_id]

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


@dataclass(slots=True, eq=False)
class _Record:
    """One executed op: kind, wiring, its checked arguments (a label vector,
    reversal weights), the static settings its code generators read, and
    how many arrays its forward saves for the backward."""

    kind: str
    input_ids: Tuple[int, ...]
    output_id: int
    args: list
    static: tuple
    saved: int = 0


class Tape:
    """Ordered op records built during one forward pass, and the value of
    every node. inputs are the step inputs a rerun refills.

    A tape and its tensors are confined to a single thread for the
    duration of a forward+backward pass; independent tapes may run on
    independent threads.
    """

    def __init__(self, *inputs):
        self.records: List[_Record] = []
        self.values: List[np.ndarray] = []
        self._inputs = inputs  # read by _tie, until the first rerun
        self._shapes = [_shape(v) for v in inputs]
        # (record, slot, check, k) in capture order: a rerun stores
        # check(inputs[k]) in slot `slot` of the tape's values (record None)
        # or of record `record`'s arguments
        self._refills: List[Tuple[Optional[int], int, Callable, int]] = []
        # (loss, wrt) -> its generated sweep
        self._sweeps: Dict[tuple, Callable] = {}
        # what the code generators read of the records and values (see
        # _structure); None until asked for, and after each new value
        self._key: Optional[tuple] = None
        # the generated forward (None until the first rerun) and the
        # per-tape objects it reads; the arrays the backward reads, in
        # record order, as the latest forward saved them
        self._forward: Optional[Callable] = None
        self._consts: tuple = ()
        self._saved: Sequence = []

    def leaf(self, data) -> Tensor:
        """Wrap an array (or nested lists) as a graph input node."""
        self._refuse_after_rerun("leaf")
        t = self._new_tensor(checked_input(data))
        self._tie(None, t.node_id, checked_input, data)
        return t

    def param(self, arr: np.ndarray) -> Tensor:
        """Wrap a float64 parameter array in place: no conversion, no check."""
        self._refuse_after_rerun("param")
        return self._new_tensor(arr)

    def _refuse_after_rerun(self, what: str) -> None:
        """A tape that has rerun takes no new node: its generated forward
        would not know it."""
        if self._forward is not None:
            raise ContractError(f"{what}: a tape takes no new record once it "
                                f"has rerun")

    def _new_tensor(self, data: np.ndarray, slices: int = 1) -> Tensor:
        """Add a value. A sweep found before knows no new value, so the
        next backward looks again, under the new structure."""
        self.values.append(data)
        self._sweeps.clear()
        self._key = None
        return Tensor(self, len(self.values) - 1, slices)

    def _tie(self, record: Optional[int], slot: int, check: Callable,
             value) -> None:
        """Refill slot `slot` of the values (record None) or of record
        `record`'s arguments from the step input that value is, if it is
        one, passed through check."""
        for k, v in enumerate(self._inputs):
            if value is v:
                self._refills.append((record, slot, check, k))
                return

    def _emit(self, kind: str, inputs: Sequence[Tensor], args: Sequence = (),
              check: Optional[Callable] = None, slices: int = 1,
              static: tuple = ()) -> Tensor:
        """Record an op on the inputs, with its arguments (each passed
        through check first) and the settings its code generators read, and
        run it (_run_record)."""
        self._refuse_after_rerun(kind)
        checked = [check(a) for a in args]
        rec = _Record(kind, tuple([t.node_id for t in inputs]),
                      len(self.values), checked, static)
        out, saved = _run_record(rec, self.values)
        t = self._new_tensor(out, slices)
        self.records.append(rec)
        self._saved += saved
        for j, a in enumerate(args):
            self._tie(len(self.records) - 1, j, check, a)
        return t

    def rerun(self, *inputs) -> None:
        """Refill the leaves and arguments tied to the step inputs from
        inputs, checking each, and make every record's numpy calls again in
        order, through the tape's generated forward (found on the first
        rerun). Every declared input must have been read at capture, and
        inputs must match the declared ones in number and shapes."""
        if not self.rerun_if_fits(*inputs):
            raise DimensionError(
                f"rerun: inputs of shapes {[np.shape(v) for v in inputs]} "
                f"do not fit the captured {self._shapes}")

    def rerun_if_fits(self, *inputs) -> bool:
        """rerun(*inputs) when inputs match the declared step inputs in
        number and shapes; returns whether they do."""
        if [_shape(v) for v in inputs] != self._shapes:
            return False
        if self._forward is None:
            if len({k for *_, k in self._refills}) != len(inputs):
                raise ContractError(
                    "rerun: a step input was not read at capture")
            self._forward, self._consts = _forward_of(self)
            self._inputs = ()  # only capture reads them: let the batch go
        self._saved = self._forward(inputs, self.values, self._consts)
        return True

    def _structure(self) -> tuple:
        """What the code generators read of the records and values: per
        record its kind, static settings, input and output ids, saved count
        and number of arguments; per value its shape and dtype. Made once,
        and again after a new value."""
        if self._key is None:
            self._key = (
                tuple([(r.kind, r.static, r.input_ids, r.output_id, r.saved,
                        len(r.args)) for r in self.records]),
                tuple([(v.shape, v.dtype) for v in self.values]))
        return self._key


def _shape(v) -> tuple:
    """np.shape(v), without numpy's dispatch for an array or its conversion
    of a Python number."""
    if isinstance(v, np.ndarray):
        return v.shape
    return () if isinstance(v, (int, float)) else np.shape(v)


def checked_input(data) -> np.ndarray:
    """data as a float64 array; NaN or Inf is a ContractError."""
    arr = np.asarray(data, dtype=np.float64)
    if not np.isfinite(arr).all():
        raise ContractError("input contains NaN or Inf")
    return arr


def _mT(a: np.ndarray) -> np.ndarray:
    """The transpose of the last two axes, as a view."""
    return a.T if a.ndim == 2 else a.swapaxes(1, 2)


def _row_operand(x: np.ndarray, w: np.ndarray, slices: int) -> np.ndarray:
    """x as the left product operand: x itself against one weight slice, or
    against M slices when x has one row slice (a batch every slice reads);
    else x's M row slices, [M, rows, in], or its M x D row slices (see
    matmul), [M, D, rows, in]."""
    if w.ndim == 2 or slices == 1:
        return x
    m = w.shape[0]
    if slices == m:
        return x.reshape(m, -1, x.shape[1])
    return x.reshape(m, slices // m, -1, x.shape[1])


def _weight_operand(w: np.ndarray, domains: int) -> np.ndarray:
    """w.T as the right product operand; a [M, out, in] w of M slices as
    [M, in, out], or as a [M, 1, in, out] view against M x D row slices,
    so that one product runs per (module, domain)."""
    wt = _mT(w)
    return wt if domains == 1 else wt[:, None]


def _bias_operand(bias: np.ndarray, domains: int) -> np.ndarray:
    """bias as the term added to the product: a [M, width] bias of M
    slices as a [M, 1, width] view, or [M, 1, 1, width] against M x D row
    slices; a [width] bias as it is."""
    if bias.ndim == 1:
        return bias
    return bias[:, None] if domains == 1 else bias[:, None, None]


def _domains(w: np.ndarray, slices: int) -> int:
    """D of an input of `slices` row slices against weight w: M x D slices
    of a stacked w, else 1."""
    return 1 if w.ndim == 2 else max(1, slices // w.shape[0])


def dense(x: np.ndarray, w: np.ndarray, bias: Optional[np.ndarray] = None,
          relu: bool = False, slices: int = 1) -> np.ndarray:
    """One dense layer in numpy: x @ w.T, plus bias, then relu when set. A
    3-D w stacks M layers (bias [M, width]) by the slice rules of matmul: x
    holds `slices` row slices, 1 or M x D, and the output holds M x D."""
    domains = _domains(w, slices)
    out = _row_operand(x, w, slices) @ _weight_operand(w, domains)
    if bias is not None:
        out += _bias_operand(bias, domains)
    if out.ndim > 2:
        out = out.reshape(-1, out.shape[-1])
    return relu_values(out, out) if relu else out


def relu_values(pre: np.ndarray, out: Optional[np.ndarray] = None
                ) -> np.ndarray:
    """max(pre, 0) elementwise, into out when given: the bits of
    np.where(pre > 0, pre, 0.0), +0.0 at -0.0 included, without a branch
    per element; a NaN stays NaN."""
    return np.maximum(pre, 0.0, out=out)


def row_max(z: np.ndarray) -> np.ndarray:
    """The max of each row of a 2-D z: the bytes of
    np.maximum.reduce(z, 1, keepdims=True).

    numpy's reduce along a row costs about 50 ns per row whatever the
    width, so from 2 to 7 columns and at least 16 rows per column this
    takes a running np.maximum over whole columns instead, left to right:
    a max is exact and left to right is numpy's own order below 8 columns,
    so under numpy's AVX-512 (X86_V4) dispatch ties of signed zeros
    resolve alike. Under its AVX2 (X86_V3) code they may not: the reduce
    can return -0.0 where this returns +0.0 for a row holding both, and a
    NaN of the other sign bit; the max's value is the same. One more
    difference: where a row's first entry is a NaN, numpy's reduce of a
    contiguous row returns +NaN whatever that NaN's sign and payload, and
    this returns the entry; either way the max is NaN."""
    rows, cols = z.shape
    if not 2 <= cols < 8 or rows < 16 * cols:
        return np.maximum.reduce(z, 1, keepdims=True)
    m = np.maximum(z[:, :1], z[:, 1:2])
    for k in range(2, cols):
        np.maximum(m, z[:, k:k + 1], out=m)
    return m


def row_softmax(z: np.ndarray) -> np.ndarray:
    """Softmax of each row, numerically stabilized by the row max."""
    e = np.exp(z - row_max(z))
    return e / np.add.reduce(e, 1, keepdims=True)


def _same_tape(*tensors: Tensor) -> Tape:
    tape = tensors[0].tape
    for t in tensors[1:]:
        if t.tape is not tape:
            raise ContractError("operands belong to different tapes")
    return tape


def matmul(a: Tensor, w: Tensor, bias: Optional[Tensor] = None,
           relu: bool = False, rest: Sequence[Tensor] = ()) -> Tensor:
    """The dense product a @ w.T of a 2-D a and a weight w [width, in]; a
    bias added to every row and a relu after it run in the same record (a
    dense layer). A 3-D w stacks M weight slices (a bias is then [M,
    width]) and the product holds M x D slices, module-major: a holds M x
    D slices, and slice m*D + d multiplies weight slice m; or a holds one
    slice, which every weight slice reads (D = 1). rest holds the batches
    of D - 1 further domains, each of a's shape and one slice like a: the
    D batches are then read by every weight slice, product slice m*D + d
    from batch d. Every (module, domain) slice makes its own product, as
    one record per domain would, in one batched call. A backward sweep
    makes no product for an operand that is not live."""
    parts = [a, *rest]
    inputs = parts + ([w] if bias is None else [w, bias])
    tape = _same_tape(*inputs)
    x, w = a.data, w.data
    if x.ndim != 2 or w.ndim not in (2, 3):
        raise DimensionError(
            f"matmul: expected a 2-D operand and a 2-D or stacked 3-D one, "
            f"got {list(x.shape)} and {list(w.shape)}")
    m = 1 if w.ndim == 2 else w.shape[0]
    width, inner = w.shape[-2:]
    if x.shape[1] != inner:
        raise DimensionError(
            f"matmul: inner dimensions differ for shapes {list(x.shape)} and "
            f"{list(w.shape)}")
    a_slices = a.slices
    if rest:
        if w.ndim == 2 or any(t.slices != 1 or t.shape != x.shape
                              for t in parts):
            raise DimensionError(
                f"matmul: {len(parts)} domain batches need stacked weights "
                f"and one shape of one slice, got "
                f"{[list(t.shape) for t in parts]} against {list(w.shape)}")
    elif a_slices != 1 and (w.ndim == 2 or a_slices % m):
        raise DimensionError(
            f"matmul: {a_slices} row slices do not fit {m} weight slices")
    if bias is not None and bias.shape != w.shape[:-2] + (width,):
        raise DimensionError(
            f"matmul: bias {list(bias.shape)} does not fit the product "
            f"{[x.shape[0], width]} of {m} slice(s)")
    domains = len(parts) if rest else _domains(w, a_slices)
    return tape._emit("matmul", inputs, slices=m * domains,
                      static=(a_slices, relu, len(parts)))


# Each op kind's two code generators, forward and backward, sit beside its
# recording function; "generated code" below says what they take and return.

def _matmul_layout(rec: _Record, values) -> Tuple[int, int, int, int, bool]:
    """The record's weight slices m (1 for a 2-D weight), domains d, input
    batches (d, or 1 for one input) and product width, and whether its
    left operand is a view of its input, which the forward saves for the
    backward (r<j>_0)."""
    a_slices, _, parts = rec.static
    w = values[rec.input_ids[parts]]
    m = 1 if w.ndim == 2 else w.shape[0]
    d = parts if parts > 1 else _domains(w, a_slices)
    return m, d, parts, w.shape[-2], w.ndim == 3 and parts == 1 < a_slices


def _matmul_forward_code(rec, j, ins, out, values, const, fixed):
    """dense(): its relu runs in place on the record's own product, after
    saving the mask (the subgradient at 0 is 0 by convention); the operand
    view of a fixed weight or bias is a const, made once per tape by the
    functions dense() calls (_const). D domain batches each make their
    product into their domain's slices of one output."""
    relu = rec.static[1]
    m, d, parts, width, viewed = _matmul_layout(rec, values)
    w_id = rec.input_ids[parts]
    two_d = values[w_id].ndim == 2
    w_domains = d if parts == 1 else 1  # D batches read the 3-D view
    if fixed[parts]:
        wt = const(("weight", w_id, w_domains))
    else:
        wt = (f"{ins[parts]}.T" if two_d else f"{ins[parts]}.swapaxes(1, 2)"
              + ("[:, None]" if w_domains > 1 else ""))
    saved = 0
    if parts > 1:
        rows = values[rec.input_ids[0]].shape[0]
        lines = [f"{out} = np.empty({(m, d, rows, width)})"] + [
            f"np.matmul({x}, {wt}, out={out}[:, {k}])"
            for k, x in enumerate(ins[:parts])]
    elif viewed:
        inner = values[rec.input_ids[0]].shape[1]
        shape = (m, -1, inner) if d == 1 else (m, d, -1, inner)
        lines = [f"r{j}_0 = {ins[0]}.reshape{shape}", f"{out} = r{j}_0 @ {wt}"]
        saved = 1
    else:
        lines = [f"{out} = {ins[0]} @ {wt}"]
    if len(ins) == parts + 2:
        b_id = rec.input_ids[parts + 1]
        if fixed[parts + 1]:
            bias = const(("bias", b_id, d))
        else:
            bias = ins[parts + 1] + ("" if two_d else "[:, None]" if d == 1
                                     else "[:, None, None]")
        lines.append(f"{out} += {bias}")
    if not two_d:
        lines.append(f"{out} = {out}.reshape(-1, {width})")
    if not relu:
        return lines, saved
    return lines + [f"r{j}_{saved} = {out} > 0",
                    f"np.maximum({out}, 0.0, out={out})"], saved + 1


def _sum_code(terms: Sequence[str]) -> str:
    """The code that sums terms left to right, one np.add per term after
    the first: each takes out=."""
    code = terms[0]
    for term in terms[1:]:
        code = f"np.add({code}, {term})"
    return code


def _matmul_backward_code(rec, j, ins, out, g, live, values):
    """The gradient of each live input: the product of an operand that is
    not live is not made. The weight and bias gradients of D domains sum
    the per-domain terms in domain order."""
    a_slices, relu, _ = rec.static
    m, d, parts, width, viewed = _matmul_layout(rec, values)
    w = ins[parts]
    two_d = values[rec.input_ids[parts]].ndim == 2
    lines, grads = [], [None] * len(ins)
    if relu:
        lines.append(f"t{j}_g = {g} * r{j}_{int(viewed)}")
        g = f"t{j}_g"
    gs = g
    if not two_d:
        gs = f"t{j}_s"
        shape = (m, -1, width) if d == 1 else (m, d, -1, width)
        lines.append(f"{gs} = {g}.reshape{shape}")
    x = f"r{j}_0" if viewed else ins[0]
    if two_d:
        if live[0]:
            grads[0] = (f"np.matmul({gs}, {w})", True)
        if live[1]:
            grads[1] = (f"np.matmul({gs}.T, {x})", True)
    elif parts > 1:  # each batch collects every module's gradient
        for k in range(parts):
            if live[k]:
                grads[k] = (f"np.add.reduce({gs}[:, {k}] @ {w}, 0)", True)
        if live[parts]:
            grads[parts] = (_sum_code([
                f"np.matmul({gs}[:, {k}].swapaxes(1, 2), {ins[k]})"
                for k in range(parts)]), True)
    elif d > 1:
        if live[0]:
            grads[0] = (f"({gs} @ {w}[:, None]).reshape("
                        f"{values[rec.input_ids[0]].shape})", False)
        if live[1]:
            lines.append(f"t{j}_w = np.matmul({gs}.swapaxes(2, 3), {x})")
            grads[1] = (_sum_code([f"t{j}_w[:, {k}]" for k in range(d)]),
                        True)
    else:
        if live[0]:
            if a_slices == m:
                grads[0] = (f"({gs} @ {w}).reshape("
                            f"{values[rec.input_ids[0]].shape})", False)
            else:  # a shared input collects every slice's gradient
                grads[0] = (f"np.add.reduce({gs} @ {w}, 0)", True)
        if live[1]:
            grads[1] = (f"np.matmul({gs}.swapaxes(1, 2), {x})", True)
    if len(ins) == parts + 2 and live[parts + 1]:
        if d == 1:
            grads[parts + 1] = (f"np.add.reduce({gs}, -2)", True)
        else:
            lines.append(f"t{j}_b = np.add.reduce({gs}, -2)")
            grads[parts + 1] = (_sum_code([f"t{j}_b[:, {k}]"
                                           for k in range(d)]), True)
    return lines, grads


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum of two tensors of one shape."""
    tape = _same_tape(a, b)
    if a.shape != b.shape:
        raise DimensionError(
            f"add: shapes {list(a.shape)} and {list(b.shape)} differ")
    return tape._emit("add", [a, b])


def _binary_forward_code(rec, j, ins, out, values, const, fixed):
    """add or sub: the operator that the record's kind names."""
    op = "+" if rec.kind == "add" else "-"
    return [f"{out} = {ins[0]} {op} {ins[1]}"], 0


def _binary_backward_code(rec, j, ins, out, g, live, values):
    """add or sub: the output gradient, negated for sub's second input."""
    return [], [(g, False), (g if rec.kind == "add" else f"-{g}", False)]


def sub(a: Tensor, b: Tensor) -> Tensor:
    tape = _same_tape(a, b)
    if a.shape != b.shape:
        raise DimensionError(
            f"sub: shapes {list(a.shape)} and {list(b.shape)} differ")
    return tape._emit("sub", [a, b])


def scalar_mul(a: Tensor, c: float) -> Tensor:
    return a.tape._emit("scalar_mul", [a], args=(c,), check=float)


def _scalar_mul_forward_code(rec, j, ins, out, values, const, fixed):
    return [f"r{j}_0 = {const(('args', j))}[0]",
            f"{out} = r{j}_0 * {ins[0]}"], 1


def _scalar_mul_backward_code(rec, j, ins, out, g, live, values):
    return [], [(f"r{j}_0 * {g}", False)]


def relu(a: Tensor) -> Tensor:
    return a.tape._emit("relu", [a], slices=a.slices)


def _relu_forward_code(rec, j, ins, out, values, const, fixed):
    """relu_values, saving its mask (the subgradient at 0 is 0 by
    convention)."""
    return [f"r{j}_0 = {ins[0]} > 0", f"{out} = np.maximum({ins[0]}, 0.0)"], 1


def _relu_backward_code(rec, j, ins, out, g, live, values):
    return [], [(f"{g} * r{j}_0", False)]


def _check_rows(a: Tensor, op: str) -> None:
    if a.data.ndim != 2:
        raise DimensionError(f"{op}: expected a 2-D tensor, got {list(a.shape)}")
    if a.shape[1] == 0:
        raise DomainError(f"{op}: rows are empty (shape {list(a.shape)})")


def softmax(a: Tensor) -> Tensor:
    """Row-wise softmax, numerically stabilized by the row max."""
    _check_rows(a, "softmax")
    return a.tape._emit("softmax", [a], slices=a.slices)


def _softmax_forward_code(rec, j, ins, out, values, const, fixed):
    return [f"{out} = row_softmax({ins[0]})"], 0


def _softmax_backward_code(rec, j, ins, out, g, live, values):
    return [], [(f"{out} * ({g} - np.add.reduce({g} * {out}, 1, "
                 f"keepdims=True))", False)]


def log_softmax(a: Tensor) -> Tensor:
    _check_rows(a, "log_softmax")
    return a.tape._emit("log_softmax", [a], slices=a.slices)


def _log_softmax_forward_code(rec, j, ins, out, values, const, fixed):
    return [f"t{j}_s = {ins[0]} - row_max({ins[0]})",
            f"{out} = t{j}_s - np.log(np.exp(t{j}_s).sum(axis=1, "
            f"keepdims=True))"], 0


def _log_softmax_backward_code(rec, j, ins, out, g, live, values):
    return [], [(f"{g} - np.exp({out}) * {g}.sum(axis=1, keepdims=True)",
                 False)]


def mean(a: Tensor) -> Tensor:
    """Mean over every entry, as a shape-[1] tensor."""
    return a.tape._emit("mean", [a])


def _reduce_forward_code(rec, j, ins, out, values, const, fixed):
    """mean or sum: the array method that the record's kind names."""
    return [f"{out} = np.array([{ins[0]}.{rec.kind}()])"], 0


def _mean_backward_code(rec, j, ins, out, g, live, values):
    x = values[rec.input_ids[0]]
    return [], [(f"np.full({x.shape}, {g}[0] / {x.size})", False)]


def tensor_sum(a: Tensor) -> Tensor:
    """Sum over every entry, as a shape-[1] tensor."""
    return a.tape._emit("sum", [a])


def _sum_backward_code(rec, j, ins, out, g, live, values):
    return [], [(f"np.full({values[rec.input_ids[0]].shape}, {g}[0])", False)]


def tensor_abs(a: Tensor) -> Tensor:
    return a.tape._emit("abs", [a])


def _abs_forward_code(rec, j, ins, out, values, const, fixed):
    return [f"{out} = np.abs({ins[0]})"], 0


def _abs_backward_code(rec, j, ins, out, g, live, values):
    # sign(0) == 0: the abs subgradient at 0 is 0
    return [], [(f"{g} * np.sign({ins[0]})", False)]


def checked_indices(op: str, rows: int, cols: int, indices) -> np.ndarray:
    """One integer column index in [0, cols) for each of `rows` rows; op
    names the operation in the error."""
    idx = np.asarray(indices)
    if idx.ndim != 1 or idx.shape[0] != rows:
        raise DimensionError(
            f"{op}: index vector length {list(idx.shape)} does not "
            f"match {rows} rows")
    if idx.dtype.kind not in "iu":
        raise ContractError(f"{op}: indices must be integers")
    if rows and (np.minimum.reduce(idx) < 0 or
                 np.maximum.reduce(idx) >= cols):
        raise ContractError(f"{op}: index out of range [0, {cols})")
    return idx


def select_columns(a: Tensor, indices) -> Tensor:
    """Pick one entry per row by a constant index vector; output [rows, 1]."""
    _check_rows(a, "select_columns")
    if a.shape[0] == 0:
        raise DomainError(f"select_columns: the batch is empty (shape "
                          f"{list(a.shape)})")
    return a.tape._emit("select_columns", [a], args=(indices,),
                        check=functools.partial(checked_indices,
                                                "select_columns", *a.shape))


def _select_columns_forward_code(rec, j, ins, out, values, const, fixed):
    rows = values[rec.input_ids[0]].shape[0]
    return [f"r{j}_0 = np.arange({rows})", f"r{j}_1 = {const(('args', j))}[0]",
            f"{out} = {ins[0]}[r{j}_0, r{j}_1][:, None]"], 2


def _select_columns_backward_code(rec, j, ins, out, g, live, values):
    t = f"t{j}_c"
    return [f"{t} = np.zeros({values[rec.input_ids[0]].shape})",
            f"{t}[r{j}_0, r{j}_1] = {g}[:, 0]"], [(t, False)]


def cross_entropy_values(a: np.ndarray, idx: np.ndarray, slices: int = 1):
    """-mean_i log_softmax(a)[i, idx[i]] over each of a's row slices (idx:
    one label per row of a slice), one value per slice; with the
    log-probabilities and the [slices, rows] row index that backward reads."""
    shifted = a - row_max(a)
    logp = shifted - np.log(np.add.reduce(np.exp(shifted), 1, keepdims=True))
    n = len(idx)
    rows = _row_index(slices, n)
    return np.add.reduce(logp[rows, idx], 1) / -n, logp, rows


@functools.lru_cache(maxsize=64)
def _row_index(slices: int, n: int) -> np.ndarray:
    """The [slices, n] index of the rows of `slices` slices of n rows each,
    read-only: one array per shape, which every tape of it shares."""
    rows = np.arange(slices * n).reshape(slices, n)
    rows.flags.writeable = False
    return rows


def mean_abs_diff_values(x: np.ndarray, y: np.ndarray, slices: int = 1):
    """sum|x - y| / size over each of the row slices, one value per slice;
    with the difference x - y, whose sign backward reads."""
    d = x - y
    c = 1.0 / (d.size // slices)
    return c * np.add.reduce(np.abs(d).reshape(slices, -1), 1), d


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """-mean_i log_softmax(logits)[i, labels[i]] of each row slice, one
    value per slice (labels: one integer per row of a slice, passed on
    uncopied, so an int32 or int64 step input ties to the tape): the numpy
    calls of log_softmax, select_columns, mean and scalar_mul(-1), forward
    and backward, in one record."""
    m = logits.slices
    _check_rows(logits, "cross_entropy")
    if logits.shape[0] == 0:
        raise DomainError(f"cross_entropy: the batch is empty (shape "
                          f"{list(logits.shape)})")
    return logits.tape._emit("cross_entropy", [logits], args=(labels,),
                             check=_label_check(logits.shape[0] // m,
                                                logits.shape[1]),
                             static=(m,))


@functools.lru_cache(maxsize=None)
def _label_check(rows: int, cols: int) -> Callable:
    """The check of cross_entropy's labels for `rows` rows of `cols`
    classes: one object per shape, so that a rerun checks a label input
    that several records read once."""
    return functools.partial(checked_indices, "cross_entropy", rows, cols)


def _cross_entropy_forward_code(rec, j, ins, out, values, const, fixed):
    return [f"r{j}_0 = {const(('args', j))}[0]",
            f"{out}, r{j}_1, r{j}_2 = cross_entropy_values({ins[0]}, r{j}_0, "
            f"{rec.static[0]})"], 3


def _cross_entropy_backward_code(rec, j, ins, out, g, live, values):
    a = values[rec.input_ids[0]]
    t = f"t{j}_l"
    return [f"{t} = np.zeros({a.shape})",
            f"{t}[r{j}_2, r{j}_0] = ({g} / "
            f"-{a.shape[0] // rec.static[0]})[:, None]"], [
        (f"{t} - np.exp(r{j}_1) * np.add.reduce({t}, 1, keepdims=True)",
         False)]


def mean_abs_diff(a: Tensor, b: Optional[Tensor] = None) -> Tensor:
    """sum|a - b| / size of each row slice, one value per slice: the numpy
    calls of sub, abs, sum and scalar_mul, forward and backward, in one
    record. Without b, a holds the slices of two modules, D per module (see
    matmul), and the one value compares them: per domain d, slice d in the
    place of a and slice D + d in that of b, the D values summed in domain
    order, as add would sum them."""
    pair = b is None
    if pair:
        if a.slices % 2:
            raise DimensionError(
                f"mean_abs_diff: one operand must hold 2 slices, or 2 per "
                f"domain, got {a.slices}")
        tape, inputs, n = a.tape, [a], a.slices // 2
    else:
        tape, inputs, n = _same_tape(a, b), [a, b], a.slices
        if a.shape != b.shape or a.slices != b.slices:
            raise DimensionError(
                f"mean_abs_diff: shapes {list(a.shape)} and {list(b.shape)} "
                f"({a.slices} and {b.slices} slices) differ")
    if a.size == 0:
        raise DomainError(f"mean_abs_diff: the operands are empty (shape "
                          f"{list(a.shape)})")
    return tape._emit("mean_abs_diff", inputs, static=(pair, n))


def _mean_abs_diff_forward_code(rec, j, ins, out, values, const, fixed):
    """mean_abs_diff_values, saving the sign of the difference (sign(0) ==
    0: the abs subgradient at 0 is 0); a pair of D domains then sums its D
    values."""
    pair, n = rec.static
    if pair:
        half = values[rec.input_ids[0]].shape[0] // 2
        ins = [f"{ins[0]}[:{half}]", f"{ins[0]}[{half}:]"]
    lines = [f"{out}, t{j}_d = mean_abs_diff_values({ins[0]}, {ins[1]}, {n})",
             f"r{j}_0 = np.sign(t{j}_d)"]
    if pair and n > 1:
        lines.append(f"{out} = " + " + ".join(f"{out}[{k}:{k + 1}]"
                                               for k in range(n)))
    return lines, 1


def _mean_abs_diff_backward_code(rec, j, ins, out, g, live, values):
    pair, n = rec.static
    x = values[rec.input_ids[0]]
    shape = (x.shape[0] // 2,) + x.shape[1:] if pair else x.shape
    c = 1.0 / (math.prod(shape) // n)
    t = f"t{j}_d"
    # a pair's one gradient value is every domain's
    lines = [f"{t} = (({c!r} * {g})[:, None] * r{j}_0.reshape("
             f"{1 if pair else n}, -1)).reshape({shape})"]
    if pair:
        return lines, [(f"np.concatenate(({t}, -{t}))", False)]
    return lines, [(t, False), (f"-{t}", False)]


def _checked_lambda(v):
    if v is not None and not 0.0 <= float(v) < math.inf:
        raise ContractError(
            f"grad_reverse: lambda must be >= 0 and finite, got {v}")
    return v


def _reversal_factor(lams: Sequence, shape: tuple):
    """The factor by which a reversal scales its gradient: -lambda, or +1.0
    for None; with several lambdas an array that gives each row of a value
    of this shape its slice's factor."""
    weights = [1.0 if v is None else -float(v) for v in lams]
    if len(weights) == 1:
        return weights[0]
    return np.array(weights).repeat(shape[0] // len(weights)).reshape(
        (-1,) + (1,) * (len(shape) - 1))


def grad_reverse(a: Tensor, lam) -> Tensor:
    """Identity forward; backward multiplies the upstream gradient by -lam.
    lam may instead hold one entry per row slice: a lambda reverses that
    slice's gradient, None passes it on unchanged (weight +1.0)."""
    lams = list(lam) if isinstance(lam, (list, tuple)) else [lam]
    if len(lams) != 1 and (not lams or a.data.ndim == 0 or
                           a.shape[0] % len(lams)):
        raise DimensionError(
            f"grad_reverse: shape {list(a.shape)} does not split into "
            f"{len(lams)} row slices")
    return a.tape._emit("grad_reverse", [a], args=lams,
                        check=_checked_lambda, slices=a.slices)


def _grad_reverse_forward_code(rec, j, ins, out, values, const, fixed):
    shape = values[rec.input_ids[0]].shape
    return [f"r{j}_0 = _reversal_factor({const(('args', j))}, {shape})",
            f"{out} = {ins[0]}.copy()"], 1


def _grad_reverse_backward_code(rec, j, ins, out, g, live, values):
    if len(rec.args) == 1:
        return [], [(f"r{j}_0 * {g}", False)]
    return [], [(f"{g} * r{j}_0", False)]


def backward(tape: Tape, loss: Tensor, wrt: Sequence[Tensor],
             into: Optional[List[np.ndarray]] = None) -> List[np.ndarray]:
    """Reverse sweep from a loss node: one value, or one per stacked slice,
    each seeded with 1 (for slices with disjoint parameters, each slice's
    parameters get the gradient of that slice's loss).

    Only the records whose outputs depend on the wrt tensors run their
    backward, each told which of its inputs are live. Returns the gradient
    of each wrt tensor, in wrt order (zeros where the loss does not reach
    it): new arrays, or into itself, one array per wrt tensor, which then
    receives the gradients in place.

    The sweep runs as generated code, made once per (loss, wrt) and tape
    structure in the process, captured or re-run: the backward numpy calls
    of the records it visits, in order, with each gradient's accumulation
    resolved in advance.
    """
    if loss.tape is not tape:
        raise ContractError("backward: loss tensor is not on this tape")
    values = tape.values
    loss_data = values[loss.node_id]
    if loss_data.size != 1 and loss_data.ndim != 1:
        raise ContractError(
            f"backward: loss must be scalar or one value per slice, got "
            f"shape {list(loss_data.shape)}")
    wrt_ids = tuple([t.node_id for t in wrt if t.tape is tape])
    if len(wrt_ids) != len(wrt):
        raise ContractError("backward: wrt tensor is not on this tape")
    if into is not None and len(into) != len(wrt_ids):
        raise ContractError("backward: into needs one array per wrt tensor")
    key = (loss.node_id, wrt_ids)
    sweep = tape._sweeps.get(key)
    if sweep is None:
        shared = (tape._structure(),) + key
        sweep = _SWEEPS.get(shared)
        if sweep is None:
            sweep = _SWEEPS[shared] = _lower_backward(tape, *key)
        tape._sweeps[key] = sweep
    if into is None:
        into = [np.empty_like(values[i]) for i in wrt_ids]
    sweep(values, tape._saved, into)
    return into


# --- generated code ------------------------------------------------------------
#
# Every forward and every backward sweep runs as straight-line Python, made
# from the records by the code generators of their op kinds: one function
# per new record (its run at capture), per tape (a rerun) and per (loss,
# wrt) (a sweep).
#   forward(rec, j, ins, out, values, const, fixed) -> (lines, saved)
#   backward(rec, j, ins, out, g, live, values) -> (lines, grads)
# ins and out name the record's input and output values, g its output
# gradient; j numbers the record, so its locals are r<j>_<k> (the k-th of
# the `saved` arrays its forward keeps for the backward) and t<j>_*
# (temporaries). const(key) names a per-tape object by what it is, which
# _const resolves on each tape: ("args", j) record j's argument list,
# ("weight", i, d) or ("bias", i, d) the product operand or bias view of
# value i against d domains, ("check", r) the check of refill r. fixed
# flags the inputs that no record outputs and no rerun refills
# (parameters, untied leaves): their arrays stay for the tape's life. Each
# grad is None (not live) or (expression, whether it is a call that takes
# out=). The generators read of a tape only what its structure key holds,
# and the source names no tape and holds no user text, so one function
# serves every tape of that structure in the process: _FORWARDS keeps each
# forward with its const keys, which a tape resolves against itself, and
# _SWEEPS each sweep, which reads no const.

_CODE_GENERATORS = {
    "matmul": (_matmul_forward_code, _matmul_backward_code),
    "add": (_binary_forward_code, _binary_backward_code),
    "sub": (_binary_forward_code, _binary_backward_code),
    "softmax": (_softmax_forward_code, _softmax_backward_code),
    "cross_entropy": (_cross_entropy_forward_code,
                      _cross_entropy_backward_code),
    "mean_abs_diff": (_mean_abs_diff_forward_code,
                      _mean_abs_diff_backward_code),
    "grad_reverse": (_grad_reverse_forward_code, _grad_reverse_backward_code),
    # kinds that training never records
    "scalar_mul": (_scalar_mul_forward_code, _scalar_mul_backward_code),
    "relu": (_relu_forward_code, _relu_backward_code),
    "log_softmax": (_log_softmax_forward_code, _log_softmax_backward_code),
    "mean": (_reduce_forward_code, _mean_backward_code),
    "sum": (_reduce_forward_code, _sum_backward_code),
    "abs": (_abs_forward_code, _abs_backward_code),
    "select_columns": (_select_columns_forward_code,
                       _select_columns_backward_code),
}

# generated source -> its function, for the whole process: it also shares
# one function among the records of one kind and settings whose code names
# no shape (_RECORDS keys them apart by their input shapes)
_COMPILED: Dict[str, Callable] = {}
_RECORDS: Dict[tuple, Tuple[Callable, int]] = {}  # see _run_record
# (structure, refills) -> (forward, const keys); see _forward_of
_FORWARDS: Dict[tuple, Tuple[Callable, tuple]] = {}
# (structure, loss id, wrt ids) -> sweep; see backward
_SWEEPS: Dict[tuple, Callable] = {}


@functools.lru_cache(maxsize=None)
def _loss_seed(shape: tuple, dtype: str) -> np.ndarray:
    """np.ones(shape, dtype), read-only: the seed of every sweep from a loss
    of this shape and dtype."""
    ones = np.ones(shape, dtype)
    ones.flags.writeable = False
    return ones


def _unpack(names: Sequence[str], source: str) -> List[str]:
    """A line that unpacks source into names (none when there are none)."""
    if not names:
        return []
    return [", ".join(names) + ("," if len(names) == 1 else "") + f" = {source}"]


def _saved_names(tape: Tape) -> List[str]:
    """The locals of the arrays the records save for the backward, in the
    order of tape._saved."""
    return [f"r{j}_{k}" for j, rec in enumerate(tape.records)
            for k in range(rec.saved)]


def _function(args: str, lines: List[str]) -> Callable:
    """The function `generated(args)` with this body, compiled once per
    process."""
    source = (f"def generated({args}):\n" +
              "".join(f"    {line}\n" for line in lines))
    fn = _COMPILED.get(source)
    if fn is None:
        namespace: dict = {}
        exec(compile(source, "<dualda generated>", "exec"), globals(),
             namespace)
        fn = _COMPILED[source] = namespace["generated"]
    return fn


def _const_table() -> Tuple[Callable, list]:
    """const(key) -> the name c<k> of the per-tape object that key names,
    one per key; and the list of those keys, in name order."""
    keys: list = []
    named: Dict[tuple, str] = {}

    def const(key: tuple) -> str:
        name = named.get(key)
        if name is None:
            name = named[key] = f"c{len(keys)}"
            keys.append(key)
        return name

    return const, keys


def _const(tape: Tape, key: tuple):
    """The object of tape that a const key names (see const above)."""
    what, i, *domains = key
    if what == "args":
        return tape.records[i].args
    if what == "check":
        return tape._refills[i][2]
    operand = _weight_operand if what == "weight" else _bias_operand
    return operand(tape.values[i], *domains)


def _run_record(rec: _Record, values: List[np.ndarray]) -> tuple:
    """Run a new record on its inputs' values by the code its forward code
    generator writes for it alone, which makes a rerun's numpy calls; set
    rec.saved and return the output and the arrays the backward reads.
    With no input fixed, the code's only const is the record's arguments
    (c0), so _RECORDS keeps it, and how many arrays it saves, per kind,
    static settings and input shapes."""
    ins = [values[i] for i in rec.input_ids]
    key = (rec.kind, rec.static, tuple([a.shape for a in ins]))
    code = _RECORDS.get(key)
    if code is None:
        const, keys = _const_table()
        const(("args", 0))
        names = [f"x{k}" for k in range(len(ins))]
        lines, saved = _CODE_GENERATORS[rec.kind][0](
            rec, 0, names, "y", values, const, [False] * len(ins))
        assert len(keys) == 1, rec.kind
        saves = "".join(f"r0_{k}, " for k in range(saved))
        code = _RECORDS[key] = (_function("ins, c0", _unpack(
            names, "ins") + lines + [f"return y, ({saves})"]), saved)
    fn, rec.saved = code
    return fn(ins, rec.args)


def _forward_of(tape: Tape) -> Tuple[Callable, tuple]:
    """The tape's generated forward, lowered for the first tape of its
    structure and refills in the process, and the per-tape objects it
    reads, resolved from this tape. A refill is keyed by its store, slot
    and input, and by the first refill with the same check object, which
    says which refills share one check."""
    first: Dict[int, int] = {}  # id(check) -> the first refill with it
    refills = tuple([(record, slot, k, first.setdefault(id(check), r))
                     for r, (record, slot, check, k)
                     in enumerate(tape._refills)])
    key = (tape._structure(), refills)
    code = _FORWARDS.get(key)
    if code is None:
        code = _FORWARDS[key] = _lower_forward(tape, refills)
    fn, const_keys = code
    return fn, tuple([_const(tape, c) for c in const_keys])


def _lower_forward(tape: Tape, refills: tuple) -> Tuple[Callable, tuple]:
    """The tape's forward as generated code: refill and check each tied
    input in capture order, then each record's numpy calls in record order;
    it stores every value into the tape's list and returns the arrays the
    backward reads, as each record's forward saved them at capture.
    refills holds (record, slot, input, first refill with this check) per
    refill. Returns the function and the keys of the consts it reads."""
    const, const_keys = _const_table()
    fixed = [True] * len(tape.values)
    for record, slot, *_ in refills:
        if record is None:
            fixed[slot] = False
    for rec in tape.records:
        fixed[rec.output_id] = False
    values = [f"v{i}" for i in range(len(tape.values))]
    body = _unpack(values, "values")
    checked: Dict[tuple, str] = {}  # (check, input) -> where its result is
    for record, slot, k, first in refills:
        target = (values[slot] if record is None
                  else f"{const(('args', record))}[{slot}]")
        check = const(("check", first))
        done = checked.setdefault((check, k), target)
        body.append(f"{target} = {check}(inputs[{k}])" if done == target
                    else f"{target} = {done}")
    for j, rec in enumerate(tape.records):
        body += _CODE_GENERATORS[rec.kind][0](
            rec, j, [values[i] for i in rec.input_ids], values[rec.output_id],
            tape.values, const, [fixed[i] for i in rec.input_ids])[0]
    body.append(f"values[:] = ({', '.join(values)},)")
    body.append(f"return ({''.join(n + ', ' for n in _saved_names(tape))})")
    body = _unpack([f"c{k}" for k in range(len(const_keys))], "consts") + body
    return _function("inputs, values, consts", body), tuple(const_keys)


def _lower_backward(tape: Tape, loss_id: int,
                    wrt_ids: Tuple[int, ...]) -> Callable:
    """The sweep from loss_id as generated code that writes the gradient of
    node wrt_ids[k] into out[k]: with out= where the first contribution is
    a call that takes it, by a copy otherwise, and adds every later one in
    place; an unreached node's array is filled with zeros. Every other
    gradient is a local, bound to its first contribution and summed into a
    new array by each later one (a local may be another node's array: add
    passes its output gradient on to both inputs).

    A node is live when it depends on a wrt node; only live nodes can pass
    gradient on to one, so the sweep visits a record, last first, when its
    output is live and the loss reaches it, and tells the record's
    generator which of its inputs are live."""
    n = len(tape.values)
    live = [False] * n
    for i in wrt_ids:
        live[i] = True
    for rec in tape.records:
        if any(live[i] for i in rec.input_ids):
            live[rec.output_id] = True
    reached = [False] * n
    reached[loss_id] = True

    sinks: Dict[int, str] = {}
    body = _unpack([f"o{k}" for k in range(len(wrt_ids))], "out")
    for k, nid in enumerate(wrt_ids):
        if nid in sinks:  # a node named twice gets its gradient copied
            continue
        sinks[nid] = f"o{k}"
    body += _unpack(_saved_names(tape), "saved")
    body += _unpack([f"v{i}" for i in range(n)], "values")
    started = set()

    def accumulate(nid: int, expr: str, takes_out: bool) -> None:
        sink = sinks.get(nid)
        if sink is None:
            body.append(f"g{nid} = g{nid} + ({expr})" if nid in started
                        else f"g{nid} = {expr}")
        elif nid in started:
            body.append(f"{sink} += {expr}")
        elif takes_out:
            body.append(f"{expr[:-1]}, out={sink})")
        else:
            body.append(f"np.copyto({sink}, {expr})")
        started.add(nid)

    loss = tape.values[loss_id]
    accumulate(loss_id, f"_loss_seed({loss.shape}, {loss.dtype.str!r})", False)
    for j in range(len(tape.records) - 1, -1, -1):
        rec = tape.records[j]
        if not (reached[rec.output_id] and live[rec.output_id]):
            continue
        flags = [live[i] for i in rec.input_ids]
        lines, grads = _CODE_GENERATORS[rec.kind][1](
            rec, j, [f"v{i}" for i in rec.input_ids], f"v{rec.output_id}",
            sinks.get(rec.output_id, f"g{rec.output_id}"), flags, tape.values)
        body += lines
        for iid, flag, g in zip(rec.input_ids, flags, grads):
            if flag:
                reached[iid] = True
                accumulate(iid, *g)
    for nid, sink in sinks.items():
        if nid not in started:
            body.append(f"{sink}.fill(0.0)")
    for k, nid in enumerate(wrt_ids):
        if sinks[nid] != f"o{k}":
            body.append(f"np.copyto(o{k}, {sinks[nid]})")
    return _function("values, saved, out", body)
