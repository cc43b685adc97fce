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
  operand shapes: tile 2*R*V*C, hadamard 2*R*V*C, add (R-1)*V*C. These are
  the unfused chain's costs: weighted_aggregate streams its relations in
  groups and never forms the [R, V, C] tiles and products it is charged for

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

Dtype contract: every operand of an op has its result's dtype, so an op
takes and gives one dtype and no gradient needs a cast back to its input's.
`_result` raises ContractError, naming the op and both dtypes, for operands
of two dtypes and for a result that an op widened. Constants that ops
multiply by are Python floats: under NumPy 2's scalar promotion (NEP 50) a
NumPy float64 scalar turns a float32 array into float64, and a Python float
does not.

The tape is made of nodes, not tensors. A tensor that requires a gradient
has a node: a leaf's has no parents, and an op result's holds the op name,
its parents' nodes, its backward closure and its per-sweep gradient.

An op states its input checks, its forward, its `_charge` and its gradient
formula: a function from the output's gradient to an input's. `_unary`
records a one-input op with a closure that adds the formula's result into
the input's node. `_binary` also owns a two-input op's shape check, forward
(a NumPy function), charge (1 FLOP per output element) and the sum of a row
operand's gradient over the rows it was broadcast across. Each axis pair
(mean, slice, concat and tile over rows or cols) runs one body given the
axis. No public op calls another, so a wrapper that counts an op's calls or
output bytes by name counts each once. `matmul`, `linear` and graph.py's
`rel_aggregate` and `weighted_aggregate` keep their own closures, since
they hand fresh arrays to `_accumulate_owned` (the helpers' `_accumulate`
would copy them for a leaf); so do `layer_norm` and `depthwise_conv2d`,
whose input gradients share intermediates.

A closure keeps the parent nodes it adds into and only the arrays its
formula reads: x for relu, gelu (and phi), log and the operands of hadamard,
div, matmul, depthwise_conv2d and the losses; `linear` keeps a and w,
`layer_norm` x, the row means and std and gamma; sigmoid, exp and sqrt keep
their own output; the rest keep no data. An op output that no backward step
reads is freed as soon as the caller drops its tensor.

The backward sweep frees the tape as it consumes it: each node drops its
closure, parents and gradient once the closure has run. Read gradients from
leaves, which accumulate across sweeps. An interior tensor's `.grad` is
None after `backward()` and holds that sweep's gradient only under
`backward(retain_graph=True)`, which also keeps the graph for another sweep.

A leaf's gradient is its own array, shared with no other gradient or
forward data, so it may be scaled in place: `_Node._accumulate` copies a
leaf's first gradient, since a formula may return `g` or a view of it, and
`_Node._accumulate_owned` keeps a fresh array uncopied. Closures add into
nodes, never into tensors: an input whose node is None takes no gradient.
No closure writes into its `g` or into forward data, so a retained graph
sweeps to the same gradients again.

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
_AXES = ("row", "column")   # what axis 0 and axis 1 of a rank-2 tensor index
# Python floats, not NumPy scalars (see the dtype contract above)
_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)


class _ThreadState(threading.local):
    """Each thread's scopes, set up on its first use: the active-counter
    stack, the default-dtype stack and whether ops record a tape."""

    def __init__(self):
        self.counters = []
        self.dtypes = [np.float32]
        self.grad_enabled = True


_state = _ThreadState()


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
    stack = _state.counters
    stack.append(counter)
    try:
        yield counter
    finally:
        stack.pop()


@contextmanager
def counting_paused():
    """Suspend FLOP accounting inside the scope; recording still happens."""
    stack = _state.counters
    stack.append(None)
    try:
        yield
    finally:
        stack.pop()


def _charge(kind: str, flops: int) -> None:
    stack = _state.counters
    if stack and stack[-1] is not None:
        stack[-1].add(kind, flops)


@contextmanager
def default_dtype(dtype):
    """Set the element type of every tensor created inside the scope."""
    dtype = np.dtype(dtype).type
    if dtype not in _ALLOWED_DTYPES:
        raise ConfigError(f"unsupported dtype {dtype}")
    stack = _state.dtypes
    stack.append(dtype)
    try:
        yield
    finally:
        stack.pop()


def active_dtype():
    return _state.dtypes[-1]


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
    return _state.grad_enabled


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

    __slots__ = ("op", "parents", "backward", "grad")

    def __init__(self, op, parents=(), backward=None):
        self.op = op
        self.parents = parents
        self.backward = backward
        self.grad = None

    def _accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            # g may be a closure's own gradient or a view of it: a leaf
            # copies it into its own buffer. An interior gradient is only
            # read by the node's own closure, so it may alias g.
            self.grad = g.copy() if self.backward is None else g
        else:
            self.grad = self.grad + g

    def _accumulate_owned(self, g: np.ndarray) -> None:
        """`_accumulate` for a `g` that the calling closure has just computed
        and that nothing else holds: a leaf takes it as its buffer uncopied."""
        self.grad = g if self.grad is None else self.grad + g


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
        self._node = _Node("leaf") if requires_grad else None

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
    parents' nodes, in order. Every parent must have the result's dtype."""
    _check_finite(data, op)
    for p in parents:
        if p.data.dtype != data.dtype:
            raise ContractError(f"{op}: a {p.data.dtype} operand for a "
                                f"{data.dtype} result")
    out = Tensor.__new__(Tensor)
    out.data = data
    out._node = None
    if grad_enabled():
        nodes = tuple([p._node for p in parents if p._node is not None])
        if nodes:
            out._node = _Node(op, nodes, backward)
    return out


def _unary(a, op, out_data, grad):
    """The result of one-input op `op`; `grad` maps the output's gradient to
    a's, which a's node adds."""
    node = a._node

    def backward(g):
        node._accumulate(grad(g))

    return _result(out_data, op, (a,), backward)


def _binary(a, b, op, forward, grad_a, grad_b):
    """The result of two-input op `op`: `forward(a.data, b.data)`, charged
    1 FLOP per output element to kind `op`. `grad_a` and `grad_b` map the
    output's gradient to each operand's. b has a's shape, or is a row ([c] or
    [1, c]) broadcast across an [n, c] a, whose gradient is summed over n."""
    b_shape = b.shape
    row = a.shape != b_shape
    if row and (a.data.ndim != 2 or b_shape not in (
            (a.shape[1],), (1, a.shape[1]))):
        raise ShapeError(f"{op}: incompatible shapes {a.shape} and {b_shape}")
    out_data = forward(a.data, b.data)
    _charge(op, out_data.size)
    na, nb = a._node, b._node

    def backward(g):
        if na is not None:
            na._accumulate(grad_a(g))
        if nb is not None:
            gb = grad_b(g)
            nb._accumulate(gb.sum(axis=0).reshape(b_shape) if row else gb)

    return _result(out_data, op, (a, b), backward)


def _span(axis: int, start: int, stop: int) -> tuple:
    """The index of [start:stop) along `axis` of a rank-2 array."""
    return (slice(None),) * axis + (slice(start, stop),)


# -- arithmetic -------------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    return _binary(a, b, "add", np.add, lambda g: g, lambda g: g)


def sub(a: Tensor, b: Tensor) -> Tensor:
    return _binary(a, b, "sub", np.subtract, lambda g: g, lambda g: -g)


def hadamard(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product; b may be a row vector broadcast across a's rows."""
    x, y = a.data, b.data
    return _binary(a, b, "hadamard", np.multiply, lambda g: g * y,
                   lambda g: g * x)


def div(a: Tensor, b: Tensor) -> Tensor:
    x, y = a.data, b.data
    return _binary(a, b, "div", np.divide, lambda g: g / y,
                   lambda g: -g * x / (y * y))


def add_scalar(a: Tensor, c: float) -> Tensor:
    out_data = a.data + c
    _charge("add", out_data.size)
    return _unary(a, "add_scalar", out_data, lambda g: g)


def mul_scalar(a: Tensor, c: float) -> Tensor:
    out_data = a.data * c
    _charge("hadamard", out_data.size)
    return _unary(a, "mul_scalar", out_data, lambda g: g * c)


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


def _tile(v: Tensor, axis: int, k: int, op: str) -> Tensor:
    """A row ([c] or [1, c]) as k rows, or an [n, 1] column as k columns: an
    outer product with a ones vector, charged 1 FLOP per output element."""
    base = v.data.reshape(1, -1) if axis == 0 and v.data.ndim == 1 else v.data
    if base.ndim != 2 or base.shape[axis] != 1:
        raise ShapeError(f"{op} expects a {_AXES[axis]} vector, got {v.shape}")
    out_data = np.repeat(base, k, axis=axis)
    _charge("tile", out_data.size)
    shape = v.shape
    return _unary(v, op, out_data, lambda g: g.sum(axis=axis).reshape(shape))


def tile_rows(row: Tensor, num_rows: int) -> Tensor:
    """Materialize a row vector into `num_rows` identical rows."""
    return _tile(row, 0, num_rows, "tile_rows")


def tile_cols(col: Tensor, num_cols: int) -> Tensor:
    """Materialize an [n, 1] column into `num_cols` identical columns."""
    return _tile(col, 1, num_cols, "tile_cols")


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
    shape = a.shape
    return _unary(a, "sum_all", out_data,
                  lambda g: np.broadcast_to(g, shape).copy())


def _mean(a: Tensor, axis: int, op: str) -> Tensor:
    """Means of a rank-2 tensor along `axis`, kept as a size-1 axis; k FLOPs
    per output element for the k entries averaged."""
    if a.data.ndim != 2:
        raise ShapeError(f"{op} expects a rank-2 tensor")
    k = a.shape[axis]
    out_data = a.data.mean(axis=axis, keepdims=True)
    _charge("mean", a.size)
    return _unary(a, op, out_data, lambda g: np.repeat(g / k, k, axis=axis))


def mean_rows(a: Tensor) -> Tensor:
    """Column means: [n, c] -> [1, c]."""
    return _mean(a, 0, "mean_rows")


def mean_cols(a: Tensor) -> Tensor:
    """Row means: [n, c] -> [n, 1]."""
    return _mean(a, 1, "mean_cols")


# -- nonlinearities -----------------------------------------------------------------


def relu(a: Tensor) -> Tensor:
    out_data = np.maximum(a.data, 0)
    _charge("relu", a.size)
    x = a.data
    return _unary(a, "relu", out_data, lambda g: g * (x > 0))


def gelu(a: Tensor) -> Tensor:
    """Exact (erf-based) GELU: x * Phi(x).

    `scipy.special` loads on the first call, so runs without a GELU (the KG
    and protein models) never import it.
    """
    from scipy.special import erf

    x = a.data
    phi = 0.5 * (1.0 + erf(x * _INV_SQRT2))
    out_data = x * phi
    _charge("gelu", a.size)

    def grad(g):
        dens = _INV_SQRT2PI * np.exp(-0.5 * x * x)
        return g * (phi + x * dens)

    return _unary(a, "gelu", out_data, grad)


def _stable_sigmoid(x: np.ndarray) -> np.ndarray:
    # Split by sign so exp never overflows: exp(-|x|) is at most 1.
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)


def sigmoid(a: Tensor) -> Tensor:
    out_data = _stable_sigmoid(a.data)
    _charge("sigmoid", a.size)
    return _unary(a, "sigmoid", out_data,
                  lambda g: g * out_data * (1.0 - out_data))


def exp(a: Tensor) -> Tensor:
    out_data = np.exp(a.data)
    _charge("exp", a.size)
    return _unary(a, "exp", out_data, lambda g: g * out_data)


def log(a: Tensor) -> Tensor:
    out_data = np.log(a.data)
    _charge("log", a.size)
    x = a.data
    return _unary(a, "log", out_data, lambda g: g / x)


def sqrt(a: Tensor) -> Tensor:
    out_data = np.sqrt(a.data)
    _charge("sqrt", a.size)
    return _unary(a, "sqrt", out_data, lambda g: g * 0.5 / out_data)


# -- shape ops (zero cost) ---------------------------------------------------------


def reshape(a: Tensor, shape) -> Tensor:
    a_shape = a.shape
    return _unary(a, "reshape", a.data.reshape(shape),
                  lambda g: g.reshape(a_shape))


def _slice(a: Tensor, axis: int, start: int, stop: int, op: str) -> Tensor:
    """Entries [start:stop) along `axis` of a rank-2 tensor, copied."""
    if a.data.ndim != 2:
        raise ShapeError(f"{op} expects a rank-2 tensor")
    if not (0 <= start <= stop <= a.shape[axis]):
        raise IndexError(f"{_AXES[axis]} slice [{start}:{stop}] out of range "
                         f"for {a.shape}")
    span = _span(axis, start, stop)
    shape, dtype = a.shape, a.dtype

    def grad(g):
        full = np.zeros(shape, dtype)
        full[span] = g
        return full

    return _unary(a, op, a.data[span].copy(), grad)


def slice_rows(a: Tensor, start: int, stop: int) -> Tensor:
    return _slice(a, 0, start, stop, "slice_rows")


def slice_cols(a: Tensor, start: int, stop: int) -> Tensor:
    return _slice(a, 1, start, stop, "slice_cols")


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
    rows = a.shape[0]

    def grad(g):
        scatter = csc_matrix((np.ones(idx.size, dtype=g.dtype), idx,
                              np.arange(idx.size + 1)), shape=(rows, idx.size))
        return scatter @ g

    return _unary(a, "gather_rows", a.data[idx], grad)


def _concat(parts: list[Tensor], axis: int, op: str) -> Tensor:
    """Rank-2 tensors joined along `axis`; each takes its span of g."""
    if not parts:
        raise ContractError(f"{op} needs at least one tensor")
    for p in parts:
        if p.data.ndim != 2 or p.shape[1 - axis] != parts[0].shape[1 - axis]:
            raise ShapeError(f"{op}: {_AXES[1 - axis]} counts differ")
    out_data = np.concatenate([p.data for p in parts], axis=axis)
    nodes = [(p._node, p.shape[axis]) for p in parts]

    def backward(g):
        at = 0
        for node, n in nodes:
            if node is not None:
                node._accumulate(g[_span(axis, at, at + n)])
            at += n

    return _result(out_data, op, tuple(parts), backward)


def concat_rows(parts: list[Tensor]) -> Tensor:
    return _concat(parts, 0, "concat_rows")


def concat_cols(parts: list[Tensor]) -> Tensor:
    return _concat(parts, 1, "concat_cols")


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

    def grad(g):
        soft = np.exp(z - zmax)
        soft /= soft.sum(axis=1, keepdims=True)
        soft[np.arange(n), idx] -= 1.0
        return g * soft / n

    return _unary(logits, "cross_entropy", out_data, grad)


def bce_with_logits(scores: Tensor, targets) -> Tensor:
    """Mean binary cross-entropy on raw scores, computed in the stable form
    max(x,0) - x*y + log1p(exp(-|x|)). Charged 4 FLOPs per score."""
    y = np.asarray(targets, dtype=scores.data.dtype)
    if y.shape != scores.shape:
        raise ShapeError("bce_with_logits: target shape differs from scores")
    x, size = scores.data, scores.size
    losses = np.maximum(x, 0) - x * y + np.log1p(np.exp(-np.abs(x)))
    out_data = np.array(losses.mean(), dtype=x.dtype)
    _charge("bce", 4 * size)
    return _unary(scores, "bce", out_data,
                  lambda g: g * (_stable_sigmoid(x) - y) / size)


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

    Raises DataError when the header is short or not JSON, when a name
    repeats, when an entry's shape, offset or byte count is not made of JSON
    integers or its dtype is not float32/float64, or when its bytes disagree
    with its shape or reach past the payload.
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
            name, shape, offset, nbytes = (e[k] for k in
                                           ("name", "shape", "offset", "nbytes"))
            if name in out:
                raise DataError(f"{path}: {name}: entry named twice")
            # JSON integers only: int() would truncate 2.5 and take true as 1
            if type(shape) is not list or any(
                    type(n) is not int for n in (*shape, offset, nbytes)):
                raise DataError(f"{path}: {name}: shape, offset and nbytes "
                                "must be integers")
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
