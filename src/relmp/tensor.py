"""Recorded-op tensors: reverse-mode gradients plus exact FLOP accounting.

This is a small eager autodiff engine over numpy arrays. Every operation
produces a new Tensor, records how to push gradients back to its inputs, and
charges a deterministic FLOP amount to the active counter (if one is
installed). The charge conventions are fixed and documented here because
downstream cost-model tests compare instrumented totals against closed-form
expressions to the last digit:

* matmul of [m,k] by [k,n]: 2*m*n*k (one multiply-add = 2 FLOPs)
* linear, [m,k] @ [k,n] plus a [n] bias: 2*m*n*k, charged as matmul; the
  bias is not charged
* elementwise add/sub/mul/div, scalar ops, relu/gelu/sigmoid/exp/log/sqrt:
  1 FLOP per output element
* tile_rows / tile_cols (broadcast materialized as an outer product with a
  ones vector): 1 FLOP per output element
* layer_norm of [n, c] with scale and shift: the charges of the 11-op chain
  it replaces (2 mean_cols, 2 tile_cols, sub, 2 hadamard, add_scalar, sqrt,
  div and a bias add), read from its input shape: mean 2nc, tile 2nc, sub nc,
  hadamard 2nc, add n, sqrt n, div nc; the shift, a bias, is not charged
* sum over k elements: k-1 FLOPs per output element; mean: k FLOPs
* depthwise 2D convolution with a k x k kernel on [H,W,C]: 2*H*W*C*k*k
* reshape / slice / gather / concat: 0 FLOPs (memory movement)
* the graph ops of graph.py: rel_aggregate 2*|E|*C; weighted_aggregate the
  same plus the charges of the broadcast chain it replaces, read from its
  operand shapes: tile 2*R*V*C, hadamard 2*R*V*C, add (R-1)*V*C

The counter sees recorded forward ops only; the backward sweep runs raw numpy
and is not metered. The analytic layer costs exclude biases: `linear` and
`layer_norm` leave their bias uncharged, and `counting_paused()` serves the
one bias sum that is not part of an op (`layers.rgconv_forward`'s
per-relation biases).

Default element type is float32. A tensor built from data takes the element
type of the active `default_dtype` scope, whatever the data's own; verification
paths (finite-difference checks, dense oracles) switch to float64 that way.
Every op result is checked for NaN/Inf and raises NumericError on the first
non-finite value.

Dtype contract: an op result has the dtype of one of its inputs, so float32
in gives float32 out and a float32 x float64 operand pair gives float64.
`_result` raises ContractError, naming the op and the dtypes, for a result
that matches none of them. Constants that ops multiply by are Python floats:
under NumPy 2's scalar promotion (NEP 50) a NumPy float64 scalar turns a
float32 array into float64, and a Python float does not.

The tape is made of nodes, not tensors. A tensor that requires a gradient
has a node: a leaf's has no parents, and an op result's holds the op name,
its parents' nodes, its backward closure and its per-sweep gradient. A
closure captures the parent nodes it adds into and only the arrays its
formula reads: x for relu, gelu (and phi), log and the operands of hadamard,
div, matmul, depthwise_conv2d and the losses; `linear` keeps a and w,
`layer_norm` x, the row means and std and gamma; sigmoid, exp and sqrt keep
their own output; add, sub, the scalar ops, tiles, reductions, reshapes,
slices, gathers, concats and `rel_aggregate` keep no data. An op output
that no backward step reads is therefore freed as soon as the caller drops
its tensor, not when the sweep reaches it.

The backward sweep frees the tape as it consumes it: each node drops its
closure, its parents and its gradient once the closure has run, so the
arrays only that closure kept are released before the sweep ends. Read
gradients from leaves, which accumulate across sweeps. An interior
(recorded) tensor's `.grad` is None after `backward()` and holds that
sweep's gradient only under `backward(retain_graph=True)`, which also keeps
the graph for another sweep.

A leaf's gradient is its own array: it shares memory with no other gradient
and no forward data, so it may be scaled in place. Closures that pass on
their `g` or a view of it (add, reshape, slices) go through
`_Node._accumulate`, which copies a leaf's first gradient. Closures that
compute a fresh array nothing else holds (the operand gradients of `matmul`
and `linear`, the features' gradient of `rel_aggregate` and the three of
`weighted_aggregate`) go through `_Node._accumulate_owned`, which keeps it
uncopied. Closures add into nodes, never into tensors: an input whose node
is None takes no gradient. No closure writes into its `g` or into forward
data, so a retained graph sweeps to the same gradients again.

Inside a `no_grad()` scope ops record nothing: a result has no node and
`requires_grad=False`, so a forward-only pass (evaluation, the end-of-epoch
probe loss) keeps no tape alive. Charges and finiteness checks are the same
inside and outside the scope.
"""

from __future__ import annotations

import json
import math
import struct
import threading
from contextlib import contextmanager

import numpy as np
from scipy.sparse import csc_matrix

from .errors import (ConfigError, ContractError, DataError, NumericError,
                     ShapeError)

_ALLOWED_DTYPES = (np.float32, np.float64)
# Python floats, not NumPy scalars (see the dtype contract above)
_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)

_state = threading.local()


def _counter_stack():
    if not hasattr(_state, "counters"):
        _state.counters = []
    return _state.counters


def _dtype_stack():
    if not hasattr(_state, "dtypes"):
        _state.dtypes = [np.float32]
    return _state.dtypes


class OpCounter:
    """Accumulates FLOPs by op kind.

    Invariants: `total` equals the sum of `per_op` values, and both only grow.
    A counter is installed for a scope with `count_flops(counter)`; distinct
    threads keep distinct active-counter stacks, so independent contexts never
    share mutable state.
    """

    def __init__(self):
        self.per_op: dict[str, int] = {}

    @property
    def total(self) -> int:
        return sum(self.per_op.values())

    def add(self, kind: str, flops: int) -> None:
        if flops < 0:
            raise ContractError(f"negative FLOP charge for op {kind!r}")
        self.per_op[kind] = self.per_op.get(kind, 0) + int(flops)

    def snapshot(self) -> dict[str, int]:
        return dict(self.per_op)

    def __repr__(self):
        return f"OpCounter(total={self.total}, per_op={self.per_op})"


@contextmanager
def count_flops(counter: OpCounter | None = None):
    """Install `counter` (or a fresh one) as the active FLOP sink."""
    counter = counter if counter is not None else OpCounter()
    stack = _counter_stack()
    stack.append(counter)
    try:
        yield counter
    finally:
        stack.pop()


@contextmanager
def counting_paused():
    """Suspend FLOP accounting inside the scope; recording still happens."""
    stack = _counter_stack()
    stack.append(None)
    try:
        yield
    finally:
        stack.pop()


def _charge(kind: str, flops: int) -> None:
    stack = _counter_stack()
    if stack and stack[-1] is not None:
        stack[-1].add(kind, flops)


@contextmanager
def default_dtype(dtype):
    """Set the element type of every tensor created inside the scope."""
    dtype = np.dtype(dtype).type
    if dtype not in _ALLOWED_DTYPES:
        raise ConfigError(f"unsupported dtype {dtype}")
    stack = _dtype_stack()
    stack.append(dtype)
    try:
        yield
    finally:
        stack.pop()


def active_dtype():
    return _dtype_stack()[-1]


@contextmanager
def no_grad():
    """Record no gradient tape inside the scope (per thread; nests)."""
    previous = grad_enabled()
    _state.grad_enabled = False
    try:
        yield
    finally:
        _state.grad_enabled = previous


def grad_enabled() -> bool:
    return getattr(_state, "grad_enabled", True)


def _check_finite(arr: np.ndarray, op: str) -> None:
    if not np.isfinite(arr).all():
        raise NumericError(f"non-finite value produced by {op}")


class _Node:
    """One entry of the gradient tape.

    A node holds its op's name, the nodes of the inputs that take a gradient
    from it (`parents`), its backward closure and the gradient summed into it
    during a sweep. It holds no Tensor and no forward data: a closure keeps
    the parent nodes it adds into and only the arrays its formula reads. A
    leaf that requires a gradient has a node with no parents and no closure,
    whose `grad` accumulates across sweeps.
    """

    __slots__ = ("op", "dtype", "parents", "backward", "grad")

    def __init__(self, op, dtype, parents=(), backward=None):
        self.op = op
        self.dtype = dtype
        self.parents = parents
        self.backward = backward
        self.grad = None

    def _accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            # A leaf's gradient is its own buffer: its .grad is user-visible
            # and must not alias another tensor's gradient or forward data.
            # The g here may be a closure's own gradient or a view of it, so
            # a leaf copies it (`_accumulate_owned` takes fresh arrays
            # uncopied). An interior gradient is only read by the node's own
            # closure and never written, so it may alias g.
            self.grad = g.astype(self.dtype, copy=self.backward is None)
        else:
            # a float64 partner's gradient must not widen a float32 leaf
            self.grad = self.grad + g.astype(self.dtype, copy=False)

    def _accumulate_owned(self, g: np.ndarray) -> None:
        """`_accumulate` for a `g` that the calling closure has just computed
        and that nothing else holds: a leaf takes it as its buffer uncopied."""
        if self.grad is None:
            self.grad = g.astype(self.dtype, copy=False)
        else:
            self.grad = self.grad + g.astype(self.dtype, copy=False)


class Tensor:
    """A numpy array and, when it requires a gradient, its tape node.

    The flat buffer is row-major; `size(shape) == data.size` always holds.
    Results of every operation are finite or the op raises NumericError.
    """

    __slots__ = ("data", "_node")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.array(data, dtype=active_dtype())
        _check_finite(arr, "tensor construction")
        self.data = arr
        self._node = _Node("leaf", arr.dtype) if requires_grad else None

    # -- bookkeeping -----------------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self):
        return self.data.size

    @property
    def requires_grad(self) -> bool:
        return self._node is not None

    @property
    def grad(self) -> np.ndarray | None:
        return None if self._node is None else self._node.grad

    @grad.setter
    def grad(self, value) -> None:
        if self._node is None:
            raise ContractError("a tensor that requires no gradient has no .grad")
        self._node.grad = value

    def zero_grad(self) -> None:
        if self._node is not None:
            self._node.grad = None

    def __repr__(self):
        op = "untracked" if self._node is None else self._node.op
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}, op={op})"

    # -- graph plumbing ---------------------------------------------------------

    def backward(self, retain_graph: bool = False) -> None:
        """Reverse sweep from a scalar, adding d(self)/d(leaf) to each leaf's grad.

        Unless `retain_graph` is set, every recorded node drops its closure,
        parents and gradient as soon as its closure has run, so the tape is
        released during the sweep and interior `.grad` (the root's included)
        is None afterwards. With `retain_graph=True` interior gradients of
        this sweep are kept and the graph can be swept again.
        """
        if self.size != 1:
            raise ContractError("backward requires a scalar (size-1) tensor")
        root = self._node
        if root is None:
            raise ContractError("backward on a tensor with no recorded graph")
        if root.op != "leaf" and root.backward is None and not root.parents:
            raise ContractError("recorded graph already consumed; "
                                "pass retain_graph=True to reuse it")
        order: list[_Node] = []
        seen = set()
        stack = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node.parents:
                if id(p) not in seen:
                    stack.append((p, False))
        # interior grads are per-sweep scratch; only leaves accumulate across calls
        for node in order:
            if node.backward is not None:
                node.grad = None
        root._accumulate(np.ones_like(self.data))
        # Popping drops the list's reference, so a consumed node and the
        # forward data its closure kept are freed during the sweep.
        while order:
            node = order.pop()
            if node.backward is None:
                continue
            node.backward(node.grad)
            if not retain_graph:
                node.grad = None
                node.backward = None
                node.parents = ()


def _result(data, op, parents, backward):
    """The Tensor of an op's output `data`. It gets a node when recording is
    on and a parent requires a gradient; the node's parents are those
    parents' nodes, in order."""
    _check_finite(data, op)
    if data.dtype != parents[0].data.dtype:
        dtypes = sorted({str(p.data.dtype) for p in parents})
        if str(data.dtype) not in dtypes:
            raise ContractError(f"{op}: result dtype {data.dtype} matches none "
                                f"of its input dtypes ({', '.join(dtypes)})")
    out = Tensor.__new__(Tensor)
    out.data = data
    out._node = None
    if grad_enabled():
        nodes = tuple([p._node for p in parents if p._node is not None])
        if nodes:
            out._node = _Node(op, data.dtype, nodes, backward)
    return out


def _binary_shapes(a: Tensor, b: Tensor, op: str):
    """Allow identical shapes, or b as a row vector broadcast over a's rows."""
    if a.shape == b.shape:
        return "same"
    if a.data.ndim == 2 and b.data.ndim in (1, 2):
        bs = b.shape if b.data.ndim == 2 else (1,) + b.shape
        if bs == (1, a.shape[1]):
            return "row"
    raise ShapeError(f"{op}: incompatible shapes {a.shape} and {b.shape}")


# -- arithmetic -------------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    mode = _binary_shapes(a, b, "add")
    out_data = a.data + b.data if mode == "same" else a.data + b.data.reshape(1, -1)
    _charge("add", out_data.size)
    na, nb, b_shape = a._node, b._node, b.shape

    def backward(g):
        if na is not None:
            na._accumulate(g)
        if nb is not None:
            gb = g if mode == "same" else g.sum(axis=0).reshape(b_shape)
            nb._accumulate(gb)

    return _result(out_data, "add", (a, b), backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    mode = _binary_shapes(a, b, "sub")
    out_data = a.data - b.data if mode == "same" else a.data - b.data.reshape(1, -1)
    _charge("sub", out_data.size)
    na, nb, b_shape = a._node, b._node, b.shape

    def backward(g):
        if na is not None:
            na._accumulate(g)
        if nb is not None:
            gb = -g if mode == "same" else -g.sum(axis=0).reshape(b_shape)
            nb._accumulate(gb)

    return _result(out_data, "sub", (a, b), backward)


def hadamard(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product; b may be a row vector broadcast across a's rows."""
    mode = _binary_shapes(a, b, "hadamard")
    b_view = b.data if mode == "same" else b.data.reshape(1, -1)
    out_data = a.data * b_view
    _charge("hadamard", out_data.size)
    na, nb, a_data, b_shape = a._node, b._node, a.data, b.shape

    def backward(g):
        if na is not None:
            na._accumulate(g * b_view)
        if nb is not None:
            gb = g * a_data
            if mode == "row":
                gb = gb.sum(axis=0).reshape(b_shape)
            nb._accumulate(gb)

    return _result(out_data, "hadamard", (a, b), backward)


def div(a: Tensor, b: Tensor) -> Tensor:
    mode = _binary_shapes(a, b, "div")
    b_view = b.data if mode == "same" else b.data.reshape(1, -1)
    out_data = a.data / b_view
    _charge("div", out_data.size)
    na, nb, a_data, b_shape = a._node, b._node, a.data, b.shape

    def backward(g):
        if na is not None:
            na._accumulate(g / b_view)
        if nb is not None:
            gb = -g * a_data / (b_view * b_view)
            if mode == "row":
                gb = gb.sum(axis=0).reshape(b_shape)
            nb._accumulate(gb)

    return _result(out_data, "div", (a, b), backward)


def add_scalar(a: Tensor, c: float) -> Tensor:
    out_data = a.data + c
    _charge("add", out_data.size)
    node = a._node

    def backward(g):
        node._accumulate(g)

    return _result(out_data, "add_scalar", (a,), backward)


def mul_scalar(a: Tensor, c: float) -> Tensor:
    out_data = a.data * c
    _charge("hadamard", out_data.size)
    node = a._node

    def backward(g):
        node._accumulate(g * c)

    return _result(out_data, "mul_scalar", (a,), backward)


def _matmul_dims(a: Tensor, b: Tensor, op: str):
    """(m, k, n) of a strict 2-D product of [m,k] by [k,n]."""
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"{op} requires rank-2 operands")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"{op}: inner dims differ, {a.shape} @ {b.shape}")
    return a.shape[0], a.shape[1], b.shape[1]


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Strict 2-D matrix product; charges 2*m*n*k."""
    m, k, n = _matmul_dims(a, b, "matmul")
    out_data = a.data @ b.data
    _charge("matmul", 2 * m * n * k)
    na, nb, a_data, b_data = a._node, b._node, a.data, b.data

    def backward(g):
        if na is not None:
            na._accumulate_owned(g @ b_data.T)
        if nb is not None:
            nb._accumulate_owned(_weight_grad(a_data, g))

    return _result(out_data, "matmul", (a, b), backward)


def _weight_grad(a: np.ndarray, g: np.ndarray) -> np.ndarray:
    """a.T @ g, bit for bit. With one row in `a` every entry is one rounded
    product, so the broadcast product skips BLAS's slow k=1 GEMM path; adding
    0.0 turns its -0.0 (a zero times a negative) into the +0.0 that GEMM's
    zero-started sum gives, and changes no other value."""
    if a.shape[0] != 1:
        return a.T @ g
    out = a.T * g
    out += 0.0
    return out


def linear(a: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """a @ w + b for a [m,k] input, [k,n] weights and a [n] bias, as one
    recorded op. Charges the matmul's 2*m*n*k and nothing for the bias. Values
    and gradients round as matmul followed by a row-broadcast add would."""
    m, k, n = _matmul_dims(a, w, "linear")
    if b.shape != (n,):
        raise ShapeError(f"linear: bias {b.shape} is not [{n}]")
    out_data = a.data @ w.data + b.data
    _charge("matmul", 2 * m * n * k)
    na, nw, nb, a_data, w_data = a._node, w._node, b._node, a.data, w.data

    def backward(g):
        if nb is not None:
            nb._accumulate_owned(g.sum(axis=0))
        if na is not None:
            na._accumulate_owned(g @ w_data.T)
        if nw is not None:
            nw._accumulate_owned(_weight_grad(a_data, g))

    return _result(out_data, "linear", (a, w, b), backward)


# -- broadcast materialization ------------------------------------------------


def tile_rows(row: Tensor, num_rows: int) -> Tensor:
    """Materialize a row vector into `num_rows` identical rows (outer product
    with a ones column, charged 1 FLOP per output element)."""
    if row.data.ndim == 1:
        base = row.data.reshape(1, -1)
    elif row.data.ndim == 2 and row.shape[0] == 1:
        base = row.data
    else:
        raise ShapeError(f"tile_rows expects a row vector, got {row.shape}")
    out_data = np.repeat(base, num_rows, axis=0)
    _charge("tile", out_data.size)
    node, shape = row._node, row.shape

    def backward(g):
        node._accumulate(g.sum(axis=0).reshape(shape))

    return _result(out_data, "tile_rows", (row,), backward)


def tile_cols(col: Tensor, num_cols: int) -> Tensor:
    """Materialize a column vector into `num_cols` identical columns."""
    if col.data.ndim != 2 or col.shape[1] != 1:
        raise ShapeError(f"tile_cols expects an [n,1] column, got {col.shape}")
    out_data = np.repeat(col.data, num_cols, axis=1)
    _charge("tile", out_data.size)
    node = col._node

    def backward(g):
        node._accumulate(g.sum(axis=1, keepdims=True))

    return _result(out_data, "tile_cols", (col,), backward)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float) -> Tensor:
    """Per-row normalization with scale and shift: [n, c] -> [n, c].

    One recorded op for the chain mean_cols, tile_cols, sub, hadamard,
    mean_cols, add_scalar, sqrt, tile_cols, div, hadamard(gamma) and
    add(beta). The forward does the chain's arithmetic; the backward replays
    the chain's gradient steps in its order, so values and gradients round as
    the chain's did. Only x, the row means, the row std and gamma stay on
    the tape; the backward rebuilds the centered and normalized rows.
    `gamma` and `beta` are [c].
    """
    if x.data.ndim != 2:
        raise ShapeError("layer_norm expects [rows, C]")
    n, c = x.shape
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError(f"layer_norm: scale {gamma.shape} and shift "
                         f"{beta.shape} are not [{c}]")
    gamma_row = gamma.data.reshape(1, c)
    mu = x.data.mean(axis=1, keepdims=True)
    centered = x.data - mu
    std = np.sqrt((centered * centered).mean(axis=1, keepdims=True) + eps)
    # std is non-finite exactly when the variance is (an overflowing square
    # would otherwise normalize to zeros)
    _check_finite(std, "layer_norm")
    out_data = centered / std * gamma_row + beta.data.reshape(1, c)
    _charge("mean", 2 * x.size)
    _charge("tile", 2 * x.size)
    _charge("sub", x.size)
    _charge("hadamard", 2 * x.size)
    _charge("add", n)
    _charge("sqrt", n)
    _charge("div", x.size)
    nx, ngamma, nbeta = x._node, gamma._node, beta._node
    x_data, shape = x.data, x.shape

    def backward(g):
        centered = x_data - mu
        if nbeta is not None:
            nbeta._accumulate(g.sum(axis=0))
        if ngamma is not None:
            ngamma._accumulate((g * (centered / std)).sum(axis=0))
        if nx is None:
            return
        gn = g * gamma_row
        g_std = (-gn * centered / (std * std)).sum(axis=1, keepdims=True)
        g_sq = g_std * 0.5 / std / c
        # the square's two operands each pass a term into centered
        sq_term = g_sq * centered
        g_centered = gn / std + sq_term + sq_term
        nx._accumulate(g_centered)
        g_mu = (-g_centered).sum(axis=1, keepdims=True)
        nx._accumulate(np.broadcast_to(g_mu / c, shape))

    return _result(out_data, "layer_norm", (x, gamma, beta), backward)


# -- reductions ------------------------------------------------------------------


def sum_all(a: Tensor) -> Tensor:
    out_data = np.array(a.data.sum(), dtype=a.data.dtype)
    _charge("sum", max(a.size - 1, 0))
    node, shape = a._node, a.shape

    def backward(g):
        node._accumulate(np.broadcast_to(g, shape).copy())

    return _result(out_data, "sum_all", (a,), backward)


def mean_rows(a: Tensor) -> Tensor:
    """Column means: [n, c] -> [1, c]; n FLOPs per output element."""
    if a.data.ndim != 2:
        raise ShapeError("mean_rows expects a rank-2 tensor")
    n = a.shape[0]
    out_data = a.data.mean(axis=0, keepdims=True)
    _charge("mean", a.size)
    node = a._node

    def backward(g):
        node._accumulate(np.repeat(g / n, n, axis=0))

    return _result(out_data, "mean_rows", (a,), backward)


def mean_cols(a: Tensor) -> Tensor:
    """Row means: [n, c] -> [n, 1]."""
    if a.data.ndim != 2:
        raise ShapeError("mean_cols expects a rank-2 tensor")
    c = a.shape[1]
    out_data = a.data.mean(axis=1, keepdims=True)
    _charge("mean", a.size)
    node = a._node

    def backward(g):
        node._accumulate(np.repeat(g / c, c, axis=1))

    return _result(out_data, "mean_cols", (a,), backward)


# -- nonlinearities -----------------------------------------------------------------


def relu(a: Tensor) -> Tensor:
    out_data = np.maximum(a.data, 0)
    _charge("relu", a.size)
    node, a_data = a._node, a.data

    def backward(g):
        node._accumulate(g * (a_data > 0))

    return _result(out_data, "relu", (a,), backward)


def gelu(a: Tensor) -> Tensor:
    """Exact (erf-based) GELU: x * Phi(x).

    `scipy.special` loads on the first call, so runs without a GELU (the KG
    and protein models) never import it.
    """
    from scipy.special import erf

    phi = 0.5 * (1.0 + erf(a.data * _INV_SQRT2))
    out_data = a.data * phi
    _charge("gelu", a.size)
    node, a_data = a._node, a.data

    def backward(g):
        dens = _INV_SQRT2PI * np.exp(-0.5 * a_data * a_data)
        node._accumulate(g * (phi + a_data * dens))

    return _result(out_data, "gelu", (a,), backward)


def _stable_sigmoid(x: np.ndarray) -> np.ndarray:
    # Split by sign so exp never overflows: exp(-|x|) is at most 1.
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)


def sigmoid(a: Tensor) -> Tensor:
    out_data = _stable_sigmoid(a.data)
    _charge("sigmoid", a.size)
    node = a._node

    def backward(g):
        node._accumulate(g * out_data * (1.0 - out_data))

    return _result(out_data, "sigmoid", (a,), backward)


def exp(a: Tensor) -> Tensor:
    out_data = np.exp(a.data)
    _charge("exp", a.size)
    node = a._node

    def backward(g):
        node._accumulate(g * out_data)

    return _result(out_data, "exp", (a,), backward)


def log(a: Tensor) -> Tensor:
    out_data = np.log(a.data)
    _charge("log", a.size)
    node, a_data = a._node, a.data

    def backward(g):
        node._accumulate(g / a_data)

    return _result(out_data, "log", (a,), backward)


def sqrt(a: Tensor) -> Tensor:
    out_data = np.sqrt(a.data)
    _charge("sqrt", a.size)
    node = a._node

    def backward(g):
        node._accumulate(g * 0.5 / out_data)

    return _result(out_data, "sqrt", (a,), backward)


# -- shape ops (zero cost) ---------------------------------------------------------


def reshape(a: Tensor, shape) -> Tensor:
    out_data = a.data.reshape(shape)
    node, a_shape = a._node, a.shape

    def backward(g):
        node._accumulate(g.reshape(a_shape))

    return _result(out_data, "reshape", (a,), backward)


def slice_rows(a: Tensor, start: int, stop: int) -> Tensor:
    if a.data.ndim != 2:
        raise ShapeError("slice_rows expects a rank-2 tensor")
    if not (0 <= start <= stop <= a.shape[0]):
        raise IndexError(f"row slice [{start}:{stop}] out of range for {a.shape}")
    out_data = a.data[start:stop].copy()
    node, shape, dtype = a._node, a.shape, a.dtype

    def backward(g):
        full = np.zeros(shape, dtype)
        full[start:stop] = g
        node._accumulate(full)

    return _result(out_data, "slice_rows", (a,), backward)


def slice_cols(a: Tensor, start: int, stop: int) -> Tensor:
    if a.data.ndim != 2:
        raise ShapeError("slice_cols expects a rank-2 tensor")
    if not (0 <= start <= stop <= a.shape[1]):
        raise IndexError(f"column slice [{start}:{stop}] out of range for {a.shape}")
    out_data = a.data[:, start:stop].copy()
    node, shape, dtype = a._node, a.shape, a.dtype

    def backward(g):
        full = np.zeros(shape, dtype)
        full[:, start:stop] = g
        node._accumulate(full)

    return _result(out_data, "slice_cols", (a,), backward)


def gather_rows(a: Tensor, indices) -> Tensor:
    """Select rows by integer index (duplicates allowed); gradient scatter-adds.

    The backward is one product with a [rows, len(idx)] CSC scatter matrix
    whose column j holds a unit weight (in g's dtype) at row idx[j]. The
    product starts from zero and adds g's rows in index order, the order of
    `np.add.at`, and every product with 1 is exact, so each row's sum is
    rounded as a sequential scatter-add would round it.
    """
    idx = np.asarray(indices, dtype=np.int64)
    if a.data.ndim != 2 or idx.ndim != 1:
        raise ShapeError("gather_rows expects a rank-2 tensor and a 1-D index")
    if idx.size and (idx.min() < 0 or idx.max() >= a.shape[0]):
        raise IndexError("gather_rows index out of range")
    out_data = a.data[idx]
    node, rows = a._node, a.shape[0]

    def backward(g):
        scatter = csc_matrix((np.ones(idx.size, dtype=g.dtype), idx,
                              np.arange(idx.size + 1)), shape=(rows, idx.size))
        node._accumulate(scatter @ g)

    return _result(out_data, "gather_rows", (a,), backward)


def concat_rows(parts: list[Tensor]) -> Tensor:
    if not parts:
        raise ContractError("concat_rows needs at least one tensor")
    cols = parts[0].shape[1]
    for p in parts:
        if p.data.ndim != 2 or p.shape[1] != cols:
            raise ShapeError("concat_rows: column counts differ")
    out_data = np.concatenate([p.data for p in parts], axis=0)
    nodes = [(p._node, p.shape[0]) for p in parts]

    def backward(g):
        at = 0
        for node, n in nodes:
            if node is not None:
                node._accumulate(g[at:at + n])
            at += n

    return _result(out_data, "concat_rows", tuple(parts), backward)


def concat_cols(parts: list[Tensor]) -> Tensor:
    if not parts:
        raise ContractError("concat_cols needs at least one tensor")
    rows = parts[0].shape[0]
    for p in parts:
        if p.data.ndim != 2 or p.shape[0] != rows:
            raise ShapeError("concat_cols: row counts differ")
    out_data = np.concatenate([p.data for p in parts], axis=1)
    nodes = [(p._node, p.shape[1]) for p in parts]

    def backward(g):
        at = 0
        for node, n in nodes:
            if node is not None:
                node._accumulate(g[:, at:at + n])
            at += n

    return _result(out_data, "concat_cols", tuple(parts), backward)


# -- depthwise convolution ------------------------------------------------------


def depthwise_conv2d(x: Tensor, kernel: Tensor) -> Tensor:
    """Per-channel 2D convolution with same-size zero padding.

    x is [H, W, C], kernel is [k, k, C] with k odd. Each channel is convolved
    with its own k x k filter; charge is 2*H*W*C*k*k.
    """
    if x.data.ndim != 3:
        raise ShapeError(f"depthwise_conv2d expects [H,W,C] input, got {x.shape}")
    if kernel.data.ndim != 3 or kernel.shape[0] != kernel.shape[1]:
        raise ShapeError(f"depthwise_conv2d expects [k,k,C] kernel, got {kernel.shape}")
    k = kernel.shape[0]
    if k % 2 == 0:
        raise ConfigError("depthwise_conv2d kernel size must be odd")
    h, w, c = x.shape
    if kernel.shape[2] != c:
        raise ShapeError("depthwise_conv2d: channel counts differ")
    pad = k // 2
    padded_shape = (h + 2 * pad, w + 2 * pad, c)

    def padded(arr):
        out = np.zeros(padded_shape, dtype=arr.dtype)
        out[pad:pad + h, pad:pad + w] = arr
        return out

    xp = padded(x.data)
    out_data = np.zeros((h, w, c), dtype=x.data.dtype)
    for di in range(k):
        for dj in range(k):
            out_data += xp[di:di + h, dj:dj + w] * kernel.data[di, dj]
    _charge("depthwise_conv2d", 2 * h * w * c * k * k)

    # The closure re-pads x.data instead of capturing xp, so the tape does
    # not keep a second, padded copy of every convolution input alive.
    nx, nk, x_data, k_data = x._node, kernel._node, x.data, kernel.data

    def backward(g):
        if nx is not None:
            gp = np.zeros(padded_shape, dtype=x_data.dtype)
            for di in range(k):
                for dj in range(k):
                    gp[di:di + h, dj:dj + w] += g * k_data[di, dj]
            nx._accumulate(gp[pad:pad + h, pad:pad + w])
        if nk is not None:
            xp = padded(x_data)
            gk = np.zeros_like(k_data)
            for di in range(k):
                for dj in range(k):
                    gk[di, dj] = (xp[di:di + h, dj:dj + w] * g).sum(axis=(0, 1))
            nk._accumulate(gk)

    return _result(out_data, "depthwise_conv2d", (x, kernel), backward)


# -- loss primitives -----------------------------------------------------------------

# The losses are primitives (not composites of exp/log) so the stable forms
# can be used without tripping the finiteness invariant at saturated logits.


def cross_entropy_with_logits(logits: Tensor, labels) -> Tensor:
    """Mean softmax cross-entropy; labels are integer class indices.

    Charged 5 FLOPs per logit element (shift, exp, accumulate, log, pick),
    a documented convention; this op never appears in the exact-count paths.
    """
    if logits.data.ndim != 2:
        raise ShapeError("cross_entropy_with_logits expects [n, num_classes]")
    idx = np.asarray(labels, dtype=np.int64).reshape(-1)
    n, k = logits.shape
    if idx.shape[0] != n:
        raise ShapeError("label count does not match logit rows")
    if idx.min() < 0 or idx.max() >= k:
        raise IndexError("class label out of range")
    z = logits.data
    zmax = z.max(axis=1, keepdims=True)
    lse = zmax[:, 0] + np.log(np.exp(z - zmax).sum(axis=1))
    losses = lse - z[np.arange(n), idx]
    out_data = np.array(losses.mean(), dtype=z.dtype)
    _charge("cross_entropy", 5 * logits.size)
    node = logits._node

    def backward(g):
        soft = np.exp(z - zmax)
        soft /= soft.sum(axis=1, keepdims=True)
        soft[np.arange(n), idx] -= 1.0
        node._accumulate(g * soft / n)

    return _result(out_data, "cross_entropy", (logits,), backward)


def bce_with_logits(scores: Tensor, targets) -> Tensor:
    """Mean binary cross-entropy on raw scores, computed in the stable form
    max(x,0) - x*y + log1p(exp(-|x|)). Charged 4 FLOPs per score."""
    y = np.asarray(targets, dtype=scores.data.dtype)
    if y.shape != scores.shape:
        raise ShapeError("bce_with_logits: target shape differs from scores")
    x = scores.data
    losses = np.maximum(x, 0) - x * y + np.log1p(np.exp(-np.abs(x)))
    out_data = np.array(losses.mean(), dtype=x.dtype)
    _charge("bce", 4 * scores.size)
    node, size = scores._node, scores.size

    def backward(g):
        node._accumulate(g * (_stable_sigmoid(x) - y) / size)

    return _result(out_data, "bce", (scores,), backward)


# -- verification -----------------------------------------------------------------


def finite_difference_check(fn, tensors, h: float = 1e-5):
    """Compare analytic gradients of scalar fn(*) against central differences.

    `fn` maps the given tensors to a scalar Tensor. All inputs must already be
    float64 (verification runs 64-bit). Returns the worst scale-relative error
    max|analytic - numeric| / max(max|numeric|, 1e-12) across all tensors.
    """
    for t in tensors:
        if t.data.dtype != np.float64:
            raise ContractError("finite_difference_check requires float64 tensors")
        t.zero_grad()
    loss = fn()
    loss.backward()
    worst = 0.0
    for t in tensors:
        if not t.requires_grad:
            continue
        analytic = np.zeros_like(t.data) if t.grad is None else t.grad
        numeric = np.zeros_like(t.data)
        flat = t.data.reshape(-1)
        num_flat = numeric.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = float(fn().data)
            flat[i] = orig - h
            down = float(fn().data)
            flat[i] = orig
            num_flat[i] = (up - down) / (2 * h)
        scale = max(np.abs(numeric).max(initial=0.0), 1e-12)
        err = np.abs(analytic - numeric).max(initial=0.0) / scale
        worst = max(worst, err)
    return worst


# -- parameter checkpoints -----------------------------------------------------------

_CKPT_MAGIC = b"RMPC"


def save_checkpoint(path, named_tensors: dict) -> None:
    """Write named tensors as a JSON header plus flat little-endian payload.

    Header records name, dtype, shape, and byte offset of every entry; the
    payload is the concatenation of the raw buffers in header order.
    """
    entries = []
    blobs = []
    offset = 0
    for name, t in named_tensors.items():
        arr = t.data if isinstance(t, Tensor) else np.asarray(t)
        raw = arr.astype(arr.dtype.newbyteorder("<"), copy=False).tobytes()
        entries.append({
            "name": name,
            "dtype": str(arr.dtype),
            "shape": list(arr.shape),
            "offset": offset,
            "nbytes": len(raw),
        })
        blobs.append(raw)
        offset += len(raw)
    header = json.dumps({"tensors": entries}).encode("utf-8")
    with open(path, "wb") as f:
        f.write(_CKPT_MAGIC)
        f.write(struct.pack("<I", len(header)))
        f.write(header)
        for raw in blobs:
            f.write(raw)


def load_checkpoint(path) -> dict:
    """Read a checkpoint written by save_checkpoint; returns name -> ndarray.

    Raises DataError when the header is short or not JSON, when an entry's
    dtype is not float32/float64, or when its bytes disagree with its shape
    or reach past the payload.
    """
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:4] != _CKPT_MAGIC:
        raise DataError(f"{path}: not a checkpoint file")
    if len(blob) < 8:
        raise DataError(f"{path}: truncated checkpoint header")
    (hlen,) = struct.unpack_from("<I", blob, 4)
    if len(blob) < 8 + hlen:
        raise DataError(f"{path}: truncated checkpoint header")
    body = blob[8 + hlen:]
    out = {}
    try:
        for e in json.loads(blob[8:8 + hlen].decode("utf-8"))["tensors"]:
            name, shape = e["name"], tuple(int(n) for n in e["shape"])
            offset, nbytes = int(e["offset"]), int(e["nbytes"])
            if e["dtype"] not in ("float32", "float64"):
                raise DataError(f"{path}: {name}: unsupported dtype {e['dtype']!r}")
            dtype = np.dtype(e["dtype"])
            if (min(shape, default=0) < 0 or offset < 0
                    or nbytes != dtype.itemsize * int(np.prod(shape))
                    or offset + nbytes > len(body)):
                raise DataError(f"{path}: {name}: entry does not fit the payload")
            raw = body[offset:offset + nbytes]
            out[name] = np.frombuffer(raw, dtype=dtype.newbyteorder("<")
                                      ).reshape(shape).astype(dtype)
    except (ValueError, KeyError, TypeError) as exc:
        raise DataError(f"{path}: malformed checkpoint header ({exc})") from exc
    return out
