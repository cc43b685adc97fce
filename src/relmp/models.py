"""Assembled models: hierarchical image classifier, protein encoder, KG scorer.

All three share the same gated relational message-passing layer; they differ
in how the graph is built and how node states enter and leave the network.

Image model. A 4-stage hierarchy over a patch grid. The stem embeds
non-overlapping 4x4 pixel patches; each stage rebuilds its graph once from the
stage's input representations (stage 1: the four short directions plus the two
long-range virtual relations; later stages add the medium feature-neighbor
relation), then runs depth_s pre-norm residual blocks of gated message passing
followed by pre-norm residual FFNs. Patch merging halves the grid between
stages. Virtual-node rows (one global summary plus one local-context node per
patch) are recomputed inside every block from the normalized block input and
dropped from the block output. With the default configuration the parameter
count lands near 26.3M; the reference total of 28.8M is reproduced to within
10%, the residual gap being local-context kernel bookkeeping that the source
description leaves open.

Protein encoder. Single-stage: the residue graph is built once; each layer
reattaches a mean-pooled virtual node, passes messages, then applies
normalization and ReLU (no residuals). Per-layer sum-pooled states are
concatenated into the final representation, so its width is
num_layers * hidden.

KG scorer. Entity embeddings are refined by gated layers over the fact graph
(training triples plus inverse duplicates); each layer adds its normalized,
rectified output back onto the running state, and the stack ends with one more
normalization so entity states and relation embeddings reach the scorer at
comparable scale. A triple scores through a two-layer ReLU MLP over the
concatenation [z_h ; e_r ; z_t ; z_h * e_r * z_t]. The product term matters:
it makes every multiplicative bilinear scorer linearly representable, without
which the MLP separates positives from random corruptions through marginal
statistics alone and never learns to rank (measured: a pure-concatenation
scorer plateaus at the random baseline on the bundled toy task while a
bilinear control model does not).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .builders import (
    AMINO_ACIDS,
    LONG_RELATIONS,
    PROTEIN_RELATIONS,
    SHORT_RELATIONS,
    PatchGrid,
    ProteinChain,
    build_image_graph,
    protein_edges,
)
from .errors import ConfigError, ContractError, ShapeError
from .graph import RelGraph
from .layers import (
    ContextStackParams,
    FFNParams,
    GRMPParams,
    LayerNormParams,
    Params,
    PatchMergeParams,
    _param,
    context_stack_features,
    ffn_forward,
    grmp_forward,
    layer_norm,
    patch_merging,
    trunc_normal,
)
from .tensor import (
    Tensor,
    _charge,
    _check_finite,
    _result,
    add,
    concat_cols,
    concat_rows,
    gather_rows,
    grad_enabled,
    hadamard,
    linear,
    mean_rows,
    mul_scalar,
    relu,
    slice_rows,
)


def _collect(prefix: str, tensors: dict) -> dict:
    return {f"{prefix}.{k}": v for k, v in tensors.items()}


# -- image classifier ------------------------------------------------------------------


PATCH_SIZE = 4                              # side of the stem's pixel patches
PATCH_DIM = PATCH_SIZE * PATCH_SIZE * 3     # features per patch of RGB pixels


@dataclass
class ImageModelConfig:
    """Four-stage hierarchy; channels double between stages."""
    channels: tuple = (96, 192, 384, 768)
    depths: tuple = (2, 2, 6, 2)
    k_medium: int = 12
    num_classes: int = 1000

    def validate(self) -> "ImageModelConfig":
        if len(self.channels) != 4 or len(self.depths) != 4:
            raise ConfigError("exactly four stages expected")
        for a, b in zip(self.channels, self.channels[1:]):
            if b != 2 * a:
                raise ConfigError("channels must double between stages")
        if min(self.depths) < 1 or self.k_medium < 0 or self.num_classes < 1:
            raise ConfigError("bad depth, K, or class count")
        return self

    def stage_relations(self, stage: int) -> int:
        # short + long, plus medium everywhere except the first stage
        return len(SHORT_RELATIONS) + len(LONG_RELATIONS) + (stage > 0)

    @property
    def reduction(self) -> int:
        return PATCH_SIZE * 2 ** (len(self.channels) - 1)


@dataclass
class ImageBlockParams:
    norm1: LayerNormParams
    grmp: GRMPParams
    context: ContextStackParams
    norm2: LayerNormParams
    ffn: FFNParams

    def tensors(self) -> dict:
        out = {}
        out.update(_collect("norm1", self.norm1.tensors()))
        out.update(_collect("grmp", self.grmp.tensors()))
        out.update(_collect("context", self.context.tensors()))
        out.update(_collect("norm2", self.norm2.tensors()))
        out.update(_collect("ffn", self.ffn.tensors()))
        return out


@dataclass
class ImageModelParams(Params):
    stem_w: Tensor
    stem_b: Tensor
    stem_norm: LayerNormParams
    stages: list            # list of lists of ImageBlockParams
    merges: list            # 3 PatchMergeParams between stages
    head_norm: LayerNormParams
    head_w: Tensor
    head_b: Tensor

    @classmethod
    def init(cls, rng: np.random.Generator, cfg: ImageModelConfig) -> "ImageModelParams":
        cfg.validate()
        stages = []
        for s, (c, depth) in enumerate(zip(cfg.channels, cfg.depths)):
            blocks = []
            for _ in range(depth):
                blocks.append(ImageBlockParams(
                    norm1=LayerNormParams.init(c),
                    grmp=GRMPParams.init(rng, cfg.stage_relations(s), c),
                    context=ContextStackParams.init(rng, c),
                    norm2=LayerNormParams.init(c),
                    ffn=FFNParams.init(rng, c),
                ))
            stages.append(blocks)
        merges = [PatchMergeParams.init(rng, c) for c in cfg.channels[:-1]]
        c_last = cfg.channels[-1]
        return cls(
            stem_w=_param(trunc_normal(rng, (PATCH_DIM, cfg.channels[0]))),
            stem_b=_param(np.zeros(cfg.channels[0])),
            stem_norm=LayerNormParams.init(cfg.channels[0]),
            stages=stages,
            merges=merges,
            head_norm=LayerNormParams.init(c_last),
            head_w=_param(trunc_normal(rng, (c_last, cfg.num_classes))),
            head_b=_param(np.zeros(cfg.num_classes)),
        )

    def tensors(self) -> dict:
        out = {"stem_w": self.stem_w, "stem_b": self.stem_b,
               "head_w": self.head_w, "head_b": self.head_b}
        out.update(_collect("stem_norm", self.stem_norm.tensors()))
        out.update(_collect("head_norm", self.head_norm.tensors()))
        for s, blocks in enumerate(self.stages):
            for i, block in enumerate(blocks):
                out.update(_collect(f"stage{s}.block{i}", block.tensors()))
        for s, merge in enumerate(self.merges):
            out.update(_collect(f"merge{s}", merge.tensors()))
        return out


def pixels_to_patches(pixels: np.ndarray) -> PatchGrid:
    """Flatten non-overlapping PATCH_SIZE patches into rows: row-major cells,
    then the patch's own pixels row-major with channels last."""
    pixels = np.asarray(pixels)
    if pixels.ndim != 3:
        raise ShapeError("pixels must be [H, W, C]")
    h, w, c = pixels.shape
    if h % PATCH_SIZE or w % PATCH_SIZE:
        raise ConfigError(f"image sides must be divisible by {PATCH_SIZE}")
    gh, gw = h // PATCH_SIZE, w // PATCH_SIZE
    feats = (pixels.reshape(gh, PATCH_SIZE, gw, PATCH_SIZE, c)
             .transpose(0, 2, 1, 3, 4)
             .reshape(gh * gw, PATCH_SIZE * PATCH_SIZE * c))
    return PatchGrid(gh, gw, feats)


def image_forward(pixels, params: ImageModelParams, cfg: ImageModelConfig) -> Tensor:
    """Class logits [1, num_classes] from an [H, W, C] pixel array.

    The patch grid's sides must support the full reduction (x32 with
    defaults: x4 stem then three halvings).
    """
    cfg.validate()
    x = pixels_to_patches(pixels)
    per_stage = cfg.reduction // PATCH_SIZE
    if x.height % per_stage or x.width % per_stage:
        raise ConfigError(
            f"patch grid {x.height}x{x.width} does not support "
            f"{len(cfg.channels) - 1} halvings")
    if x.channels != PATCH_DIM:
        raise ShapeError(f"expected {PATCH_DIM} features per patch")

    z = Tensor(x.features)
    z = linear(z, params.stem_w, params.stem_b)
    z = layer_norm(z, params.stem_norm)
    height, width = x.height, x.width

    for s, blocks in enumerate(params.stages):
        p = height * width
        graph, _ = build_image_graph(
            PatchGrid(height, width, z.data), cfg.k_medium,
            include_medium=(s > 0))
        for block in blocks:
            xin = layer_norm(z, block.norm1)
            ctx = context_stack_features(xin, height, width, block.context)
            full = concat_rows([xin, mean_rows(xin), ctx])
            msg = slice_rows(grmp_forward(graph, full, block.grmp), 0, p)
            z = add(z, msg)
            z = add(z, ffn_forward(layer_norm(z, block.norm2), block.ffn))
        if s < len(params.stages) - 1:
            z = patch_merging(z, height, width, params.merges[s])
            height //= 2
            width //= 2

    pooled = mean_rows(layer_norm(z, params.head_norm))
    return linear(pooled, params.head_w, params.head_b)


# -- protein encoder -------------------------------------------------------------------


@dataclass
class ProteinEncoderConfig:
    num_layers: int = 6
    hidden: int = 512
    num_tasks: int = 2

    def validate(self) -> "ProteinEncoderConfig":
        if self.num_layers < 1:
            raise ConfigError("need at least one layer")
        if self.hidden < 1 or self.num_tasks < 1:
            raise ConfigError("bad hidden size or task count")
        return self

    @property
    def representation_dim(self) -> int:
        return self.num_layers * self.hidden


@dataclass
class ProteinEncoderParams(Params):
    embed_w: Tensor
    embed_b: Tensor
    layers: list                    # (GRMPParams, LayerNormParams) pairs
    head: list                      # [(w, b), (w, b), (w, b)]

    @classmethod
    def init(cls, rng: np.random.Generator,
             cfg: ProteinEncoderConfig) -> "ProteinEncoderParams":
        cfg.validate()
        rep = cfg.representation_dim
        dims = [rep, rep, rep, cfg.num_tasks]
        head = [(_param(trunc_normal(rng, (dims[i], dims[i + 1]))),
                 _param(np.zeros(dims[i + 1]))) for i in range(3)]
        return cls(
            embed_w=_param(trunc_normal(rng, (len(AMINO_ACIDS), cfg.hidden))),
            embed_b=_param(np.zeros(cfg.hidden)),
            layers=[(GRMPParams.init(rng, len(PROTEIN_RELATIONS), cfg.hidden),
                     LayerNormParams.init(cfg.hidden))
                    for _ in range(cfg.num_layers)],
            head=head,
        )

    def tensors(self) -> dict:
        out = {"embed_w": self.embed_w, "embed_b": self.embed_b}
        for i, (g, n) in enumerate(self.layers):
            out.update(_collect(f"layer{i}.grmp", g.tensors()))
            out.update(_collect(f"layer{i}.norm", n.tensors()))
        for i, (w, b) in enumerate(self.head):
            out[f"head.w{i}"] = w
            out[f"head.b{i}"] = b
        return out


def protein_forward(chain: ProteinChain, params: ProteinEncoderParams,
                    cfg: ProteinEncoderConfig) -> tuple[Tensor, Tensor]:
    """(representation [1, num_layers*hidden], task logits [1, num_tasks]).

    The residue graph is built once. Each layer re-derives the virtual node
    as the mean of current residue states, passes messages, normalizes,
    applies ReLU, then sum-pools; the per-layer pools concatenate into the
    final representation.
    """
    cfg.validate()
    if chain.length < 1:
        raise ContractError("empty chain")
    graph, _ = protein_edges(chain)
    h = linear(Tensor(chain.one_hot()), params.embed_w, params.embed_b)
    length = chain.length
    pools = []
    for grmp_p, norm_p in params.layers:
        full = concat_rows([h, mean_rows(h)])
        y = slice_rows(grmp_forward(graph, full, grmp_p), 0, length)
        h = relu(layer_norm(y, norm_p))
        pools.append(mul_scalar(mean_rows(h), float(length)))  # sum pooling
    rep = concat_cols(pools) if len(pools) > 1 else pools[0]
    out = rep
    for i, (w, b) in enumerate(params.head):
        out = linear(out, w, b)
        if i < len(params.head) - 1:
            out = relu(out)
    return rep, out


# -- knowledge-graph triplet scorer ------------------------------------------------------


# Hidden scorer activations (queries x entities x scorer width) that one
# `kg_score_tails` sub-block holds: 1 MB in float32, four queries on 1000
# entities with 64 hidden units. `kg_evaluate` ranks whole sub-blocks in
# groups of at most a quarter as many [G, N] values (64 queries there): a
# group's score, mask and comparison rows take about eight bytes a value,
# half a float32 sub-block. On that KG (2-vCPU x86 host, one BLAS thread,
# medians of 21 alternating evaluations), a constant of 2^17 ranked 3%
# slower, 2^16 12%, 2^19 10% and 2^20 18%; 260-query groups raised peak RSS
# by 2 MB.
# The probe loss of `train_kg` scores its triples in blocks of the same size.
RANK_BLOCK_ACTIVATIONS = 1 << 18


@dataclass
class KGModelConfig:
    num_layers: int = 6
    channels: int = 32
    scorer_hidden: int = 64
    negatives: int = 32

    def validate(self) -> "KGModelConfig":
        if self.num_layers < 1 or self.channels < 1:
            raise ConfigError("bad layer or channel count")
        if self.scorer_hidden < 1 or self.negatives < 1:
            raise ConfigError("bad scorer width or negative count")
        return self


@dataclass
class KGModelParams(Params):
    entity_emb: Tensor
    relation_emb: Tensor            # includes inverse relations
    layers: list                    # (GRMPParams, LayerNormParams) per layer
    out_norm: LayerNormParams
    scorer_w1: Tensor
    scorer_b1: Tensor
    scorer_w2: Tensor
    scorer_b2: Tensor

    @classmethod
    def init(cls, rng: np.random.Generator, num_entities: int,
             num_relations: int, cfg: KGModelConfig) -> "KGModelParams":
        """Scale-preserving start: weights near 1/sqrt(C) and gate output
        biases at one, so each layer passes the self term through before
        training shapes the messages. Every weight that `GRMPParams.init`
        draws at INIT_STD is drawn again at 1/sqrt(C); the first draws are
        kept only so that the generator's stream, and so a seeded
        checkpoint, stays the same."""
        cfg.validate()
        c = cfg.channels
        w_std = float(1.0 / np.sqrt(c))
        layers = []
        for _ in range(cfg.num_layers):
            p = GRMPParams.init(rng, num_relations, c)
            for name in ("w_self", "w_in", "w_out", "w_alpha"):
                shape = getattr(p, name).shape
                setattr(p, name, _param(rng.normal(0.0, w_std, size=shape)))
            p.b_out = _param(np.ones(c))
            layers.append((p, LayerNormParams.init(c)))
        in_dim = 4 * c      # [z_h ; e_r ; z_t ; z_h * e_r * z_t]
        return cls(
            entity_emb=_param(rng.normal(0.0, 0.5, size=(num_entities, c))),
            relation_emb=_param(rng.normal(0.0, 0.5, size=(num_relations, c))),
            layers=layers,
            out_norm=LayerNormParams.init(c),
            scorer_w1=_param(rng.normal(0.0, float(1.0 / np.sqrt(in_dim)),
                                        size=(in_dim, cfg.scorer_hidden))),
            scorer_b1=_param(np.zeros(cfg.scorer_hidden)),
            scorer_w2=_param(rng.normal(0.0, float(1.0 / np.sqrt(cfg.scorer_hidden)),
                                        size=(cfg.scorer_hidden, 1))),
            scorer_b2=_param(np.zeros(1)),
        )

    def tensors(self) -> dict:
        out = {"entity_emb": self.entity_emb, "relation_emb": self.relation_emb,
               "scorer_w1": self.scorer_w1, "scorer_b1": self.scorer_b1,
               "scorer_w2": self.scorer_w2, "scorer_b2": self.scorer_b2}
        for i, (g, ln) in enumerate(self.layers):
            out.update(_collect(f"layer{i}", g.tensors()))
            out.update(_collect(f"layer{i}.norm", ln.tensors()))
        out.update(_collect("out_norm", self.out_norm.tensors()))
        return out


def kg_encode(graph: RelGraph, params: KGModelParams) -> Tensor:
    """Entity states [N, C] from the gated layers over the fact graph.

    Each layer's normalized, rectified output is added back onto the running
    state; a final normalization leaves rows at unit scale. Without the
    normalizations a stack of multiplicative gates either decays to zero or
    overflows, and without the residual the per-entity identity signal washes
    out of deep states.
    """
    h = params.entity_emb
    for layer, norm in params.layers:
        h = add(h, relu(layer_norm(grmp_forward(graph, h, layer), norm)))
    return layer_norm(h, params.out_norm)


def _check_indices(entity_states: Tensor, params: KGModelParams, *columns):
    """(head, relation, tail...) index columns as int64, checked for range."""
    columns = [np.asarray(col, dtype=np.int64) for col in columns]
    if columns[0].size == 0:
        raise ContractError("no triples to score")
    for i, col in enumerate(columns):
        bound = (params.relation_emb if i == 1 else entity_states).shape[0]
        if col.min() < 0 or col.max() >= bound:
            raise IndexError(f"{'relation' if i == 1 else 'entity'} index "
                             "out of range")
    return columns


def kg_score(entity_states: Tensor, params: KGModelParams,
             heads, rels, tails) -> Tensor:
    """Triple scores [B, 1] from the two-layer ReLU scoring MLP.

    Input features per triple: [z_h ; e_r ; z_t ; z_h * e_r * z_t].
    """
    heads, rels, tails = _check_indices(entity_states, params, heads, rels, tails)
    zh = gather_rows(entity_states, heads)
    er = gather_rows(params.relation_emb, rels)
    zt = gather_rows(entity_states, tails)
    feats = concat_cols([zh, er, zt, hadamard(hadamard(zh, er), zt)])
    hid = relu(linear(feats, params.scorer_w1, params.scorer_b1))
    return linear(hid, params.scorer_w2, params.scorer_b2)


def kg_score_tails(entity_states: Tensor, params: KGModelParams,
                   heads, rels) -> Tensor:
    """Scores [B, N] of every entity as the tail of B (head, relation)
    queries: `kg_score` of (heads[i], rels[i], t) at (i, t), first-layer sums
    reordered. Forward only: raises ContractError outside `no_grad`, and
    every parameter must have the entity states' dtype.

    With W1 split into C-row blocks W_h, W_r, W_t, W_p and q = z_h * e_r, the
    first layer of query i over every tail is [Z, 1] @ W_i, with Z the [N, C]
    entity states and W_i = [W_t + q_i[:, None] * W_p ; z_h W_h + e_r W_r + b1].
    The indices are checked and [Z, 1], W_t and W_p transposed once per call;
    the queries then run in sub-blocks of max(1, RANK_BLOCK_ACTIVATIONS //
    (N*H)), so at most that many hidden activations are held at a time.
    Charges: hadamard B*C + B*C*H, add B*C*H, relu B*N*H and matmul
    2*B*2C*H + 2*N*(C+1)*B*H + 2*B*N*H; biases are not charged, as in `linear`.
    """
    if grad_enabled():
        raise ContractError("kg_score_tails records no tape; call it under no_grad")
    heads, rels = _check_indices(entity_states, params, heads, rels)
    z, w1 = entity_states.data, params.scorer_w1.data
    (n, c), hidden, b = z.shape, w1.shape[1], heads.size
    zh, er = z[heads], params.relation_emb.data[rels]
    q = (zh * er)[:, None, :]
    last = np.matmul(np.concatenate([zh, er], axis=1)[:, None, :],
                     w1[:2 * c])[:, 0] + params.scorer_b1.data   # [B, H]
    w_t = np.ascontiguousarray(w1[2 * c:3 * c].T)  # [H, C]
    w_p = np.ascontiguousarray(w1[3 * c:].T)
    z1 = np.ones((c + 1, n), dtype=z.dtype)         # [Z, 1] transposed
    z1[:c] = z.T
    w2, b2 = params.scorer_w2.data.T, params.scorer_b2.data
    step = min(b, max(1, RANK_BLOCK_ACTIVATIONS // (n * hidden)))
    # the W_i transposed, [step, H, C+1], and the hidden activations
    # [step, H, N] of one sub-block; each step is elementwise or a stack of
    # per-query products, so no query's scores depend on its sub-block
    w_q = np.empty((step, hidden, c + 1), dtype=z.dtype)
    pre = np.empty((step, hidden, n), dtype=z.dtype)
    scores = np.empty((b, n), dtype=z.dtype)
    for lo in range(0, b, step):
        hi = min(lo + step, b)
        wq, act = w_q[:hi - lo], pre[:hi - lo]
        np.multiply(q[lo:hi], w_p, out=wq[:, :, :c])
        wq[:, :, :c] += w_t
        wq[:, :, c] = last[lo:hi]
        np.matmul(wq, z1, out=act)
        _check_finite(act, "kg_score_tails")
        np.maximum(act, 0, out=act)
        np.add(np.matmul(w2, act)[:, 0], b2, out=scores[lo:hi])
    _charge("hadamard", b * c + b * c * hidden)
    _charge("add", b * c * hidden)
    _charge("matmul", 2 * b * hidden * (2 * c + n * (c + 1) + n))
    _charge("relu", b * n * hidden)
    return _result(scores, "kg_score_tails",
                   (entity_states, params.relation_emb, params.scorer_w1,
                    params.scorer_b1, params.scorer_w2, params.scorer_b2), None)
