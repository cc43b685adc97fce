"""Relational message-passing layers and the surrounding block machinery.

Two layers share the aggregation substrate:

* `rgconv_forward`: per-relation dense transforms. Each node's relation slots
  (mean-pooled neighbor features) are concatenated and pushed through a single
  stacked [R*C, C] matrix, then added to the self transform. Cost grows with
  R*C^2: every extra relation buys a full matrix.

* `grmp_forward`: one shared input transform, per-relation channel weights
  (a Hadamard with a learned [R*C] vector), learned per-node relation scores
  (no normalization across relations), one shared output transform, and a
  multiplicative gate against the self transform. Cost grows with R*C: every
  extra relation buys a vector.

The forward paths are staged exactly as the cost model's step decomposition so
an OpCounter wrapped around a call reproduces the closed-form totals digit for
digit. Two bookkeeping rules make that work: biases are never charged (the
analytic counts exclude them), and every broadcast is charged 1 FLOP per
output element, just as the formulas assume. A linear map with a bias is one
`tensor.linear` op, which charges only its matmul; the relational
convolution adds its biases inside `counting_paused()`. No broadcast is
materialized: the gated layer's mean aggregation and channel weights (step
2) and its per-node relation weighting and sum (step 3) are one
`graph.weighted_aggregate` op, which takes the layer's features and a [V, R]
score tensor (the constant 1/R in the uniform ablation) and keeps no [V*R, C]
slot matrix on the tape, and layer norm is one `tensor.layer_norm` op. Each
charges the tile, hadamard and other amounts of the op chain it replaces from
its operand shapes.

Parameters are plain dataclasses of Tensors, and a layer reads its width,
relation count and structure from them. Weight matrices right-multiply
row-vector features: a math-convention map W acting on column vectors appears
here as its transpose. Weights and kernels are drawn by `trunc_normal`, biases
start at zero and scales at one, all in the dtype of the active
`tensor.default_dtype` scope: float32 unless a caller switches to float64.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .costmodel import FFN_EXPANSION
from .errors import ConfigError, ContractError, ShapeError
from .graph import RelGraph, rel_aggregate, weighted_aggregate
from .tensor import (Tensor, add, concat_cols, counting_paused,
                     depthwise_conv2d, gather_rows, gelu, hadamard, linear,
                     matmul, mean_rows, mul_scalar, reshape)
from .tensor import layer_norm as _layer_norm


INIT_STD = 0.02     # std of every truncated-normal weight draw


def trunc_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """Normal draws at INIT_STD, redrawn outside two standard deviations.

    Draw contract: `rng.normal(0.0, INIT_STD)` of the whole shape, then one
    call per round for exactly as many values as are still out of range,
    written to those positions in ascending C-order index order. These are
    the calls, sizes and order of a loop that rescans the whole array after
    each round, so a seeded generator gives the same values and is left in
    the same state. Only the first scan covers the whole array; each later
    round tests only the positions it redrew.
    """
    vals = rng.normal(0.0, INIT_STD, size=shape)
    bound = 2 * INIT_STD
    flat = vals.reshape(-1)
    idx = np.flatnonzero((flat > bound) | (flat < -bound))
    while idx.size:
        redraw = rng.normal(0.0, INIT_STD, size=idx.size)
        flat[idx] = redraw
        idx = idx[(redraw > bound) | (redraw < -bound)]
    return vals


def _param(data) -> Tensor:
    return Tensor(data, requires_grad=True)


class Params:
    """Base of the parameter groups. Each group's `tensors()` fixes the
    checkpoint names and order of its parameters."""

    def param_count(self) -> int:
        return sum(t.size for t in self.tensors().values())


def _named(obj, names) -> dict[str, Tensor]:
    out = {}
    for n in names:
        t = getattr(obj, n)
        if t is not None:
            out[n] = t
    return out


# -- relational convolution ------------------------------------------------------


@dataclass
class RGConvParams(Params):
    """Per-relation matrices stacked as [R*C, C] plus the self transform.

    `w_stack` rows r*C..(r+1)*C hold relation r's matrix. Each relation matrix
    carries a bias (applied once per node after the stacked transform, which is
    equivalent to applying it inside the mean since the weights sum to one),
    and the self transform carries its own. C is the width of `w_self` and R
    the row count of `b_stack`.
    """
    w_stack: Tensor
    b_stack: Tensor   # [R, C], row r is relation r's bias
    w_self: Tensor
    b_self: Tensor

    @classmethod
    def init(cls, rng: np.random.Generator, num_relations: int,
             channels: int) -> "RGConvParams":
        if num_relations < 0 or channels < 1:
            raise ConfigError("bad relation or channel count")
        return cls(
            w_stack=_param(trunc_normal(rng, (num_relations * channels, channels))),
            b_stack=_param(np.zeros((num_relations, channels))),
            w_self=_param(trunc_normal(rng, (channels, channels))),
            b_self=_param(np.zeros(channels)),
        )

    def tensors(self) -> dict[str, Tensor]:
        return _named(self, ("w_stack", "b_stack", "w_self", "b_self"))


def rgconv_forward(graph: RelGraph, z: Tensor, params: RGConvParams) -> Tensor:
    """Relational convolution over mean-pooled neighborhoods.

    z is [V, C]; the result is [V, C]. An empty graph degenerates to the self
    transform plus biases.
    """
    v_count, c = _check_features(graph, z, params.w_self.shape[0])
    r_count = params.b_stack.shape[0]
    if graph.num_relations != r_count:
        raise ShapeError("relation count of graph and parameters differ")
    # step 1: mean-pooled slots, node-major [V*R, C]
    slots = rel_aggregate(graph, z)
    # step 2: concatenate each node's slots and apply the stacked transform
    aggregated = None
    if r_count > 0:
        wide = reshape(slots, (v_count, r_count * c))
        aggregated = matmul(wide, params.w_stack)
    # step 3: self transform plus aggregation
    out = matmul(z, params.w_self)
    if aggregated is not None:
        out = add(out, aggregated)
    with counting_paused():
        out = add(out, params.b_self)
        if r_count > 0:
            # the per-relation biases enter once per node: sum of b_stack rows
            total = mul_scalar(mean_rows(params.b_stack), float(r_count))
            out = add(out, total)
    return out


# -- gated message passing ----------------------------------------------------------


@dataclass
class GRMPVariant:
    """Structural switches for the gated layer: `GRMPParams.init` keeps the
    gating mode and allocates only the tensors the others call for.

    gating: "multiplicative" (default) or "additive" self update.
    alpha: "learned" per-node relation scores or "uniform" (constant 1/R).
    use_w_in / use_w_out: drop the shared input/output transforms entirely
    (their parameters are not allocated, so parameter counts shift by C^2+C).
    """
    gating: str = "multiplicative"
    alpha: str = "learned"
    use_w_in: bool = True
    use_w_out: bool = True

    def validate(self):
        if self.gating not in ("multiplicative", "additive"):
            raise ConfigError(f"unknown gating mode {self.gating!r}")
        if self.alpha not in ("learned", "uniform"):
            raise ConfigError(f"unknown alpha mode {self.alpha!r}")


@dataclass
class GRMPParams(Params):
    """Gated-layer parameters.

    w_channel is the concatenated per-relation channel-weight vector [1, R*C]
    (relation r occupies columns r*C..(r+1)*C); it carries no bias. w_alpha
    maps node features to R unnormalized relation scores. Only w_in, w_out and
    w_alpha carry biases; the self transform has none. C is the width of
    `w_self` and R*C that of `w_channel`. A layer without w_in or w_out skips
    that transform, and one without w_alpha scores every relation 1/R.
    """
    w_self: Tensor
    w_channel: Tensor
    w_in: Tensor | None
    b_in: Tensor | None
    w_out: Tensor | None
    b_out: Tensor | None
    w_alpha: Tensor | None
    b_alpha: Tensor | None
    gating: str

    @classmethod
    def init(cls, rng: np.random.Generator, num_relations: int, channels: int,
             variant: GRMPVariant | None = None) -> "GRMPParams":
        if num_relations < 1:
            raise ContractError("gated layer requires at least one relation")
        if channels < 1:
            raise ConfigError("bad channel count")
        variant = variant or GRMPVariant()
        variant.validate()
        # seeded checkpoints depend on the draw order: w_self, w_in, w_out,
        # w_alpha
        w_self = _param(trunc_normal(rng, (channels, channels)))
        w_in = b_in = w_out = b_out = w_alpha = b_alpha = None
        if variant.use_w_in:
            w_in = _param(trunc_normal(rng, (channels, channels)))
            b_in = _param(np.zeros(channels))
        if variant.use_w_out:
            w_out = _param(trunc_normal(rng, (channels, channels)))
            b_out = _param(np.zeros(channels))
        if variant.alpha == "learned":
            w_alpha = _param(trunc_normal(rng, (channels, num_relations)))
            b_alpha = _param(np.zeros(num_relations))
        return cls(w_self=w_self,
                   w_channel=_param(np.ones((1, num_relations * channels))),
                   w_in=w_in, b_in=b_in, w_out=w_out, b_out=b_out,
                   w_alpha=w_alpha, b_alpha=b_alpha, gating=variant.gating)

    def tensors(self) -> dict[str, Tensor]:
        return _named(self, ("w_self", "w_channel", "w_in", "b_in",
                             "w_out", "b_out", "w_alpha", "b_alpha"))


def _check_features(graph: RelGraph, z: Tensor, channels: int):
    if z.data.ndim != 2:
        raise ShapeError("layer input must be [num_nodes, C]")
    if z.shape[0] != graph.num_nodes:
        raise ShapeError(f"feature rows {z.shape[0]} != num_nodes {graph.num_nodes}")
    if z.shape[1] != channels:
        raise ShapeError(f"feature width {z.shape[1]} != channels {channels}")
    return z.shape


def grmp_forward(graph: RelGraph, z: Tensor, params: GRMPParams) -> Tensor:
    """Gated relational message passing.

    Five stages: shared input transform, mean aggregation with per-relation
    channel weights, per-node relation weighting (scores are unnormalized),
    shared output transform, multiplicative (or additive) self update.
    An isolated node's aggregated message is exactly the output bias.
    """
    _, c = _check_features(graph, z, params.w_self.shape[0])
    r_count = params.w_channel.shape[1] // c
    if graph.num_relations != r_count:
        raise ShapeError("relation count of graph and parameters differ")

    # step 1: shared input transform
    z_in = z if params.w_in is None else linear(z, params.w_in, params.b_in)

    # steps 2-3, one op: mean aggregation per relation, per-relation channel
    # weights, then the relation scores ([V, R], learned or the constant
    # 1/R) weight each mean; each node's R weighted means are then summed
    if params.w_alpha is None:
        scores = Tensor(np.full((graph.num_nodes, r_count), 1.0 / r_count))
    else:
        scores = linear(z, params.w_alpha, params.b_alpha)
    acc = weighted_aggregate(graph, z_in, scores, params.w_channel)

    # step 4: shared output transform
    aggregated = (acc if params.w_out is None
                  else linear(acc, params.w_out, params.b_out))

    # step 5: self transform and gate
    self_part = matmul(z, params.w_self)
    if params.gating == "multiplicative":
        return hadamard(self_part, aggregated)
    return add(self_part, aggregated)


# -- layer normalization --------------------------------------------------------------


# added to each row's variance before the square root
LAYER_NORM_EPS = 1e-5


@dataclass
class LayerNormParams(Params):
    gamma: Tensor
    beta: Tensor

    @classmethod
    def init(cls, channels: int) -> "LayerNormParams":
        return cls(gamma=_param(np.ones(channels)),
                   beta=_param(np.zeros(channels)))

    def tensors(self) -> dict[str, Tensor]:
        return _named(self, ("gamma", "beta"))


def layer_norm(x: Tensor, params: LayerNormParams) -> Tensor:
    """Per-row normalization over the channel axis with learned scale/shift.

    One recorded op; the shift is a bias and, as elsewhere, not charged.
    """
    return _layer_norm(x, params.gamma, params.beta, LAYER_NORM_EPS)


# -- feed-forward block -----------------------------------------------------------------


@dataclass
class FFNParams(Params):
    """Two-layer feed-forward, FFN_EXPANSION times as wide inside, with GELU
    between."""
    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor

    @classmethod
    def init(cls, rng: np.random.Generator, channels: int) -> "FFNParams":
        hidden = channels * FFN_EXPANSION
        return cls(
            w1=_param(trunc_normal(rng, (channels, hidden))),
            b1=_param(np.zeros(hidden)),
            w2=_param(trunc_normal(rng, (hidden, channels))),
            b2=_param(np.zeros(channels)),
        )

    def tensors(self) -> dict[str, Tensor]:
        return _named(self, ("w1", "b1", "w2", "b2"))


def ffn_forward(x: Tensor, params: FFNParams) -> Tensor:
    h = gelu(linear(x, params.w1, params.b1))
    return linear(h, params.w2, params.b2)


# -- virtual-node features ------------------------------------------------------------


# side of each depthwise kernel of a context stack, in the order applied:
# three 3x3 kernels, an accumulative receptive field of 7
CONTEXT_KERNEL_SIZES = (3, 3, 3)


@dataclass
class ContextStackParams(Params):
    """Depthwise kernels of CONTEXT_KERNEL_SIZES applied in sequence with
    GELU after each."""
    kernels: list[Tensor]

    @classmethod
    def init(cls, rng: np.random.Generator, channels: int) -> "ContextStackParams":
        return cls(kernels=[_param(trunc_normal(rng, (k, k, channels)))
                            for k in CONTEXT_KERNEL_SIZES])

    def tensors(self) -> dict[str, Tensor]:
        return {f"kernel{i}": k for i, k in enumerate(self.kernels)}


def context_stack_features(z: Tensor, height: int, width: int,
                           params: ContextStackParams) -> Tensor:
    """Per-node context summaries from stacked depthwise convolutions.

    z is [H*W, C] in row-major grid order; the result is [H*W, C], where row i
    summarizes the neighborhood of grid cell i.
    """
    if z.data.ndim != 2 or z.shape[0] != height * width:
        raise ShapeError("context stack input must be [H*W, C] matching the grid")
    c = z.shape[1]
    x = reshape(z, (height, width, c))
    for kern in params.kernels:
        x = depthwise_conv2d(x, kern)
        x = gelu(x)
    return reshape(x, (height * width, c))


# -- patch merging ---------------------------------------------------------------------


@dataclass
class PatchMergeParams(Params):
    """2x2 window concat (4C) -> normalization -> linear to 2C, no bias."""
    norm: LayerNormParams
    w_reduce: Tensor

    @classmethod
    def init(cls, rng: np.random.Generator, channels: int) -> "PatchMergeParams":
        return cls(
            norm=LayerNormParams.init(4 * channels),
            w_reduce=_param(trunc_normal(rng, (4 * channels, 2 * channels))),
        )

    def tensors(self) -> dict[str, Tensor]:
        return {"w_reduce": self.w_reduce,
                **{f"norm.{k}": v for k, v in self.norm.tensors().items()}}


def patch_merging(z: Tensor, height: int, width: int,
                  params: PatchMergeParams) -> Tensor:
    """Halve each grid side by fusing 2x2 windows.

    z is [H*W, C] with H, W even; output is [(H/2)*(W/2), 2C]. Window features
    are concatenated in order top-left, top-right, bottom-left, bottom-right.
    """
    if height % 2 or width % 2:
        raise ShapeError("patch merging requires even grid sides")
    if z.data.ndim != 2 or z.shape[0] != height * width:
        raise ShapeError("patch merging input must be [H*W, C] matching the grid")
    rows = np.arange(height).reshape(-1, 1)
    cols = np.arange(width).reshape(1, -1)
    grid = rows * width + cols
    tl = grid[0::2, 0::2].reshape(-1)
    tr = grid[0::2, 1::2].reshape(-1)
    bl = grid[1::2, 0::2].reshape(-1)
    br = grid[1::2, 1::2].reshape(-1)
    gathered = concat_cols([gather_rows(z, tl), gather_rows(z, tr),
                            gather_rows(z, bl), gather_rows(z, br)])
    return matmul(layer_norm(gathered, params.norm), params.w_reduce)
