"""Assembled models: image hierarchy, protein encoder, KG scorer."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from relmp import graph as graph_module
from relmp import builders, layers, models
from relmp import tensor as tensor_module
from relmp.builders import (
    ProteinChain,
    TripletStore,
    build_image_graph,
    fact_graph,
    image_medium_edges,
    protein_edges,
)
from relmp.errors import ConfigError, ContractError
from relmp.graph import RelGraph, build_line_graph
from relmp.layers import GRMPParams, grmp_forward, layer_norm
from relmp.models import (
    ImageModelConfig,
    ImageModelParams,
    KGModelConfig,
    KGModelParams,
    ProteinEncoderConfig,
    ProteinEncoderParams,
    image_forward,
    kg_encode,
    kg_score,
    kg_score_tails,
    protein_forward,
)
from relmp.tensor import (
    Tensor,
    bce_with_logits,
    concat_cols,
    concat_rows,
    count_flops,
    default_dtype,
    finite_difference_check,
    hadamard,
    mean_rows,
    no_grad,
    relu,
    slice_rows,
    sum_all,
)
from relmp.training import AdamW, toy_kinship_kg
from test_layers import (chained_layer_norm, reference_trunc_normal,
                         unfused_aggregate)
from test_tensor import chained_linear

TINY = dict(channels=(8, 16, 32, 64), depths=(1, 1, 1, 1), num_classes=10,
            k_medium=3)


def tiny_image_setup(seed=0, **overrides):
    cfg = ImageModelConfig(**{**TINY, **overrides})
    rng = np.random.default_rng(seed)
    params = ImageModelParams.init(rng, cfg)
    pixels = rng.random((32, 32, 3))
    return cfg, params, pixels


# -- image model -------------------------------------------------------------------------


def test_image_config_validation():
    with pytest.raises(ConfigError):
        ImageModelConfig(channels=(8, 16, 32)).validate()
    with pytest.raises(ConfigError):
        ImageModelConfig(channels=(8, 16, 32, 48)).validate()
    with pytest.raises(ConfigError):
        ImageModelConfig(depths=(0, 1, 1, 1)).validate()
    assert ImageModelConfig().validate().reduction == 32


def test_image_default_parameter_count_near_reference():
    cfg = ImageModelConfig()
    params = ImageModelParams.init(np.random.default_rng(0), cfg)
    n = params.param_count()
    target = 28.8e6
    assert 0.9 * target <= n <= 1.1 * target
    # closed-form recount, assembled independently of the tensors() walk
    def block(c, r):
        grmp = 3 * c * c + 2 * c + (c * r + r) + r * c
        return 2 * (2 * c) + grmp + 3 * 9 * c + (8 * c * c + 5 * c)
    want = 48 * 96 + 96 + 2 * 96                        # stem and its norm
    for c, r, d in ((96, 6, 2), (192, 7, 2), (384, 7, 6), (768, 7, 2)):
        want += d * block(c, r)
    for c in (96, 192, 384):
        want += 2 * 4 * c + 4 * c * 2 * c               # merge norm + reduction
    want += 2 * 768 + 768 * 1000 + 1000                 # head norm + classifier
    assert n == want


def test_image_tiny_forward_shape_and_stage_layout(monkeypatch):
    cfg, params, pixels = tiny_image_setup()
    stages = []

    def recording_build(grid, k_medium, include_medium):
        graph, names = build_image_graph(grid, k_medium, include_medium)
        stages.append((grid.height * grid.width, names))
        return graph, names

    monkeypatch.setattr(models, "build_image_graph", recording_build)
    logits = image_forward(pixels, params, cfg)
    assert logits.shape == (1, cfg.num_classes)
    # 32x32 pixels -> 8x8 patches, halved between stages
    assert [p for p, _ in stages] == [64, 16, 4, 1]
    rels = [names for _, names in stages]
    assert len(rels[0]) == 6 and "medium" not in rels[0]
    for names in rels[1:]:
        assert len(names) == 7 and "medium" in names


def test_image_rejects_unsupported_resolutions():
    cfg, params, _ = tiny_image_setup()
    rng = np.random.default_rng(0)
    with pytest.raises(ConfigError):
        image_forward(rng.random((30, 32, 3)), params, cfg)   # not patchable
    with pytest.raises(ConfigError):
        image_forward(rng.random((40, 40, 3)), params, cfg)   # 10x10 patches


def test_image_head_permutation_permutes_logits():
    # float64: in float32 BLAS may round a logit differently by the position
    # of its column (a few ulp), which is not what this test is about
    with default_dtype(np.float64):
        cfg, params, pixels = tiny_image_setup()
        base = image_forward(pixels, params, cfg).data[0]
        perm = np.random.default_rng(3).permutation(cfg.num_classes)
        params.head_w.data = params.head_w.data[:, perm]
        params.head_b.data = params.head_b.data[perm]
        permuted = image_forward(pixels, params, cfg).data[0]
    assert np.allclose(permuted, base[perm], rtol=0, atol=1e-12)


def _scale_draws(params, std):
    """Rescale the truncated-normal draws of a fresh init from INIT_STD to
    std. Only draws vary within a tensor; biases and scales are constant."""
    for t in params.tensors().values():
        if t.data.min() != t.data.max():
            t.data = t.data * (std / layers.INIT_STD)


def _readout(num_classes):
    """A fixed seeded linear read-out of one image's logits, whose
    `sum_all(hadamard(logits, readout))` serves as a scalar loss."""
    return Tensor(np.random.default_rng(5).normal(size=(1, num_classes)))


def _jitter(params, rng):
    """Seeded N(0, 0.1) noise on every tensor. Constant inits (unit channel
    weights and scales, zero biases) would hide a gradient that drops or
    misplaces their factor."""
    for t in params.tensors().values():
        t.data = t.data + rng.normal(0.0, 0.1, size=t.shape)


def _recorded_relu_inputs(monkeypatch):
    """The list that models.relu appends a copy of each input to from now on."""
    inputs = []

    def recorded_relu(x):
        inputs.append(x.data.copy())
        return relu(x)

    monkeypatch.setattr(models, "relu", recorded_relu)
    return inputs


def check_directional_gradients(tensors, forward, directions):
    """For one seeded unit direction u per named tensor, <grad, u> against
    (f(theta + eps*u) - f(theta - eps*u)) / (2*eps).

    `forward()` runs f in float64 and returns it as a scalar Tensor, the
    magnitude sum|terms| of the terms it sums, and the arrays that fix its
    regime (ReLU input signs, built edge sets). Both perturbed forwards must
    return the same regime arrays, so f is smooth on the segment; a ReLU
    input at 0 that the step moves changes its sign there. Each
    forward rounds f to within a few float64 ulps of the magnitude of its
    terms, so the quotient carries round-off of order EPS64 * magnitude / eps.
    eps = sqrt(EPS64) leaves truncation, of order eps^2 = EPS64 times the
    third derivative, far below that. The bound allows 64 of those units.
    """
    eps64 = np.finfo(np.float64).eps
    step = np.sqrt(eps64)
    loss, magnitude, regime = forward()
    loss.backward()
    tol = 64 * eps64 * magnitude / step
    for name, t in tensors.items():
        u = directions.normal(size=t.shape)
        u /= np.linalg.norm(u)
        analytic = float(np.sum(t.grad * u))
        base = t.data
        sides = []
        with no_grad():
            for sign in (1.0, -1.0):
                t.data = base + sign * step * u
                value, _, moved = forward()
                assert len(moved) == len(regime) and all(
                    np.array_equal(a, b) for a, b in zip(moved, regime)), name
                sides.append(float(value.data))
        t.data = base
        numeric = (sides[0] - sides[1]) / (2 * step)
        assert abs(analytic - numeric) <= tol, (name, analytic, numeric, tol)


def test_image_stem_gradcheck_against_finite_differences():
    with default_dtype(np.float64):
        cfg = ImageModelConfig(channels=(4, 8, 16, 32), depths=(1, 1, 1, 1),
                               num_classes=5, k_medium=2)
        rng = np.random.default_rng(11)
        params = ImageModelParams.init(rng, cfg)
        _scale_draws(params, 0.1)
        pixels = rng.random((32, 32, 3))
        readout = _readout(cfg.num_classes)

        def loss():
            return sum_all(hadamard(image_forward(pixels, params, cfg), readout))

        err = finite_difference_check(loss, [params.stem_w], h=1e-5)
        assert err < 1e-4, err


def test_image_directional_gradients_match_central_differences(monkeypatch):
    # f is a seeded linear read-out of the logits. The medium relation
    # links each patch to its nearest patches by feature distance, so both
    # perturbed forwards must build the unperturbed medium edges. On six
    # seeds the errors reached 5.6 units of EPS64 * magnitude / eps.
    with default_dtype(np.float64):
        cfg = ImageModelConfig(channels=(4, 8, 16, 32), depths=(1, 1, 1, 1),
                               num_classes=5, k_medium=2)
        rng = np.random.default_rng(11)
        params = ImageModelParams.init(rng, cfg)
        _scale_draws(params, 0.1)
        _jitter(params, rng)
        pixels = rng.random((32, 32, 3))
        readout = _readout(cfg.num_classes)
    medium = []

    def recorded_medium_edges(grid, k, relation=0):
        medium.append(image_medium_edges(grid, k, relation))
        return medium[-1]

    monkeypatch.setattr(builders, "image_medium_edges", recorded_medium_edges)

    def forward():
        medium.clear()
        with default_dtype(np.float64):
            terms = hadamard(image_forward(pixels, params, cfg), readout)
        return sum_all(terms), float(np.abs(terms.data).sum()), list(medium)

    check_directional_gradients(params.tensors(), forward,
                                np.random.default_rng(12))
    # K = 2 sources for each of stage 1's 16 patches; stage 2's four patches
    # share one 2x2 home window, and stage 3 has one patch
    assert [len(edges) for edges in medium] == [2 * 16, 0, 0]


def _default_init(model):
    rng = np.random.default_rng(0)
    if model == "image":
        params = ImageModelParams.init(rng, ImageModelConfig())
    elif model == "protein":
        params = ProteinEncoderParams.init(rng, ProteinEncoderConfig())
    else:
        data = toy_kinship_kg(100, 0)
        params = KGModelParams.init(rng, data.num_entities,
                                    data.num_relations, KGModelConfig())
    # digests, not copies: a float64 image model holds 210 MB
    tensors = {name: (t.data.dtype, t.shape,
                      hashlib.sha256(t.data.tobytes()).hexdigest())
               for name, t in params.tensors().items()}
    return tensors, rng.bit_generator.state


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("model", ["image", "protein", "kg"])
def test_default_inits_match_the_rescanning_weight_draw(model, dtype,
                                                         monkeypatch):
    # every tensor of a seeded default model, and the generator after it,
    # are those of the mask-and-redraw loop that rescans the whole array
    with default_dtype(dtype):
        got = _default_init(model)
        monkeypatch.setattr(layers, "trunc_normal", reference_trunc_normal)
        monkeypatch.setattr(models, "trunc_normal", reference_trunc_normal)
        want = _default_init(model)
    assert list(got[0]) == list(want[0])
    differ = [name for name in want[0] if got[0][name] != want[0][name]]
    assert not differ, differ
    assert got[1] == want[1]


# -- protein encoder -----------------------------------------------------------------------


def _random_chain(rng, length):
    from relmp.builders import AMINO_ACIDS
    seq = "".join(rng.choice(list(AMINO_ACIDS), size=length))
    return ProteinChain(seq, rng.normal(size=(length, 3)) * 8.0)


def test_protein_representation_dim_law():
    rng = np.random.default_rng(5)
    for length in (1, 5, 17):
        cfg = ProteinEncoderConfig(num_layers=4, hidden=6, num_tasks=3)
        params = ProteinEncoderParams.init(rng, cfg)
        rep, logits = protein_forward(_random_chain(rng, length), params, cfg)
        assert rep.shape == (1, cfg.representation_dim) == (1, 24)
        assert logits.shape == (1, 3)


def test_protein_singleton_chain_pools_identity():
    # with one residue, sum pooling returns the residue's own state, so the
    # representation must equal the concatenated per-layer states, which we
    # recompute here by stepping the layers manually
    rng = np.random.default_rng(7)
    cfg = ProteinEncoderConfig(num_layers=3, hidden=5, num_tasks=2)
    params = ProteinEncoderParams.init(rng, cfg)
    chain = _random_chain(rng, 1)
    rep, _ = protein_forward(chain, params, cfg)

    graph, _ = protein_edges(chain)
    h = Tensor(chain.one_hot() @ params.embed_w.data
               + params.embed_b.data.reshape(1, -1))
    states = []
    for grmp_p, norm_p in params.layers:
        full = concat_rows([h, mean_rows(h)])
        y = slice_rows(grmp_forward(graph, full, grmp_p), 0, 1)
        h = relu(layer_norm(y, norm_p))
        states.append(h.data[0])
    assert np.allclose(rep.data[0], np.concatenate(states), atol=1e-12)


def test_protein_forward_deterministic():
    rng = np.random.default_rng(9)
    cfg = ProteinEncoderConfig(num_layers=2, hidden=4, num_tasks=2)
    params = ProteinEncoderParams.init(rng, cfg)
    chain = _random_chain(rng, 12)
    rep1, logits1 = protein_forward(chain, params, cfg)
    rep2, logits2 = protein_forward(chain, params, cfg)
    assert np.array_equal(rep1.data, rep2.data)
    assert np.array_equal(logits1.data, logits2.data)


def test_protein_representation_rigid_motion_invariant():
    rng = np.random.default_rng(13)
    cfg = ProteinEncoderConfig(num_layers=3, hidden=8, num_tasks=2)
    params = ProteinEncoderParams.init(rng, cfg)
    chain = _random_chain(rng, 20)
    base, _ = protein_forward(chain, params, cfg)
    scale = np.abs(base.data).max()
    for trial in range(10):
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        if trial % 2:
            q[:, 0] = -q[:, 0]
        moved = ProteinChain(chain.sequence,
                             chain.coords @ q.T + rng.normal(size=3) * 30.0)
        rep, _ = protein_forward(moved, params, cfg)
        assert np.abs(rep.data - base.data).max() <= 1e-5 * max(scale, 1.0)


def test_protein_encoder_directional_gradients_match_central_differences(
        monkeypatch):
    # f is a seeded linear read-out of the representation and the logits.
    # On six seeds the errors reached 2.1 units of EPS64 * magnitude / eps.
    with default_dtype(np.float64):
        cfg = ProteinEncoderConfig(num_layers=2, hidden=8, num_tasks=2)
        rng = np.random.default_rng(17)
        params = ProteinEncoderParams.init(rng, cfg)
        _scale_draws(params, 0.5)
        _jitter(params, rng)
        chain = _random_chain(rng, 12)
        readout = Tensor(rng.normal(size=(1, cfg.representation_dim
                                          + cfg.num_tasks)))
    relu_inputs = _recorded_relu_inputs(monkeypatch)

    def forward():
        relu_inputs.clear()
        with default_dtype(np.float64):
            rep, logits = protein_forward(chain, params, cfg)
        terms = hadamard(concat_cols([rep, logits]), readout)
        return (sum_all(terms), float(np.abs(terms.data).sum()),
                [np.sign(x) for x in relu_inputs])

    check_directional_gradients(params.tensors(), forward,
                                np.random.default_rng(18))


def test_protein_rejects_bad_config():
    with pytest.raises(ConfigError):
        ProteinEncoderConfig(num_layers=0).validate()
    with pytest.raises(ConfigError):
        ProteinEncoderConfig(hidden=0).validate()


# -- knowledge-graph scorer ------------------------------------------------------------------


def _toy_kg(seed=0, entities=5, relations=2):
    rng = np.random.default_rng(seed)
    triples = {(int(rng.integers(entities)), int(rng.integers(relations)),
                int(rng.integers(entities))) for _ in range(8)}
    store = TripletStore(entities, 2 * relations, sorted(triples))
    return store, fact_graph(store)


def test_kg_zero_scorer_head_scores_zero():
    store, graph = _toy_kg()
    cfg = KGModelConfig(num_layers=2, channels=6, scorer_hidden=4)
    params = KGModelParams.init(np.random.default_rng(1), store.num_entities,
                                store.num_relations, cfg)
    params.scorer_w2.data[:] = 0.0
    params.scorer_b2.data[:] = 0.0
    z = kg_encode(graph, params)
    h, r, t = zip(*store.triplets)
    scores = kg_score(z, params, h, r, t)
    assert np.array_equal(scores.data, np.zeros((len(store.triplets), 1)))


def test_kg_scores_deterministic():
    store, graph = _toy_kg()
    cfg = KGModelConfig(num_layers=3, channels=8)
    params = KGModelParams.init(np.random.default_rng(2), store.num_entities,
                                store.num_relations, cfg)
    h, r, t = zip(*store.triplets)
    s1 = kg_score(kg_encode(graph, params), params, h, r, t)
    s2 = kg_score(kg_encode(graph, params), params, h, r, t)
    assert np.array_equal(s1.data, s2.data)


def test_kg_rejects_out_of_range_indices():
    store, graph = _toy_kg()
    cfg = KGModelConfig(num_layers=1, channels=4)
    params = KGModelParams.init(np.random.default_rng(3), store.num_entities,
                                store.num_relations, cfg)
    z = kg_encode(graph, params)
    with pytest.raises(IndexError):
        kg_score(z, params, [99], [0], [0])
    with pytest.raises(IndexError):
        kg_score(z, params, [0], [99], [0])
    with pytest.raises(ContractError):
        kg_score(z, params, [], [], [])


# kg_score_tails reorders the first layer's sums, so its scores match
# kg_score's to a tolerance relative to the largest |score|, set from the
# dtype's precision
_TAILS_RTOL = {np.float32: 2e-6, np.float64: 1e-13}


def _tails_setup(entities, channels, hidden, seed):
    """Unit-scale entity states, as kg_encode leaves them, and a scorer."""
    rng = np.random.default_rng(seed)
    cfg = KGModelConfig(num_layers=1, channels=channels, scorer_hidden=hidden)
    params = KGModelParams.init(rng, entities, 6, cfg)
    return Tensor(rng.normal(size=(entities, channels))), params


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("entities,channels,hidden,seed", [
    (5, 4, 6, 0), (37, 8, 16, 1), (300, 32, 64, 2)])
def test_kg_score_tails_matches_kg_score(dtype, entities, channels, hidden, seed):
    with default_dtype(dtype), no_grad():
        z, params = _tails_setup(entities, channels, hidden, seed)
        rng = np.random.default_rng(seed + 10)
        heads = rng.integers(0, entities, size=7)
        rels = rng.integers(0, 6, size=7)
        got = kg_score_tails(z, params, heads, rels)
        assert got.shape == (7, entities) and got.dtype == dtype
        every = np.arange(entities)
        want = np.stack([kg_score(z, params, np.full(entities, h),
                                  np.full(entities, r), every).data[:, 0]
                         for h, r in zip(heads, rels)])
        scale = np.abs(want).max()
        assert np.abs(got.data - want).max() <= _TAILS_RTOL[dtype] * scale
        # blocks of 3, 3 and a partial 1: a query's scores do not depend on
        # the other queries it is scored with
        blocks = [kg_score_tails(z, params, heads[i:i + 3], rels[i:i + 3]).data
                  for i in range(0, 7, 3)]
        assert np.array_equal(np.concatenate(blocks), got.data)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("entities,block,queries", [
    (37, 1, 5),         # one-query sub-blocks
    (37, 3, 7),         # sub-blocks of 3, 3 and a partial 1
    (1, 4, 6),          # one entity; sub-blocks of 4 and a partial 2
    (300, 64, 9)])      # every query in one sub-block
def test_kg_score_tails_equals_one_query_calls_bitwise(monkeypatch, dtype,
                                                       entities, block, queries):
    hidden = 16
    monkeypatch.setattr(models, "RANK_BLOCK_ACTIVATIONS",
                        block * entities * hidden)
    with default_dtype(dtype), no_grad():
        z, params = _tails_setup(entities, 8, hidden, 5)
        rng = np.random.default_rng(6)
        heads = rng.integers(0, entities, size=queries)
        rels = rng.integers(0, 6, size=queries)
        got = kg_score_tails(z, params, heads, rels).data
        want = np.concatenate([kg_score_tails(z, params, [h], [r]).data
                               for h, r in zip(heads, rels)])
    assert got.dtype == want.dtype == dtype
    assert got.shape == (queries, entities)
    assert got.tobytes() == want.tobytes()


_SCORER_ARRAYS = ("relation_emb", "scorer_w1", "scorer_b1", "scorer_w2",
                  "scorer_b2")


@pytest.mark.parametrize("name", _SCORER_ARRAYS)
def test_kg_score_tails_refuses_a_parameter_of_another_dtype(name):
    # a float64 parameter among float32 states and weights was once narrowed
    # into float32 scores without a word
    with default_dtype(np.float32), no_grad():
        z, params = _tails_setup(5, 4, 6, 7)
        with default_dtype(np.float64):
            setattr(params, name, Tensor(getattr(params, name).data))
        with pytest.raises(ContractError,
                           match="kg_score_tails: a float64 operand for a "
                                 "float32 result"):
            kg_score_tails(z, params, [0, 1], [0, 1])


def test_kg_score_tails_charges_its_closed_form():
    n, c, h, b = 37, 8, 16, 5
    with no_grad():
        z, params = _tails_setup(n, c, h, 3)
        with count_flops() as counter:
            kg_score_tails(z, params, np.arange(b), np.arange(b))
    assert counter.per_op == {
        "hadamard": b * c + b * c * h,          # q, then q * W_p
        "add": b * c * h,                       # + W_t
        "matmul": (2 * b * 2 * c * h            # z_h W_h + e_r W_r
                   + 2 * n * (c + 1) * b * h    # [Z, 1] @ [W_1 .. W_B]
                   + 2 * b * n * h),            # w2 projection
        "relu": b * n * h,
    }


def test_kg_score_tails_is_forward_only_and_checks_indices():
    z, params = _tails_setup(5, 4, 6, 4)
    with pytest.raises(ContractError, match="no_grad"):
        kg_score_tails(z, params, [0], [0])
    with no_grad():
        with pytest.raises(IndexError):
            kg_score_tails(z, params, [5], [0])
        with pytest.raises(IndexError):
            kg_score_tails(z, params, [0], [6])
        with pytest.raises(ContractError):
            kg_score_tails(z, params, [], [])


def test_kg_entity_embedding_gradcheck():
    with default_dtype(np.float64):
        store, graph = _toy_kg(seed=4)
        cfg = KGModelConfig(num_layers=2, channels=4, scorer_hidden=6)
        params = KGModelParams.init(np.random.default_rng(5),
                                    store.num_entities, store.num_relations, cfg)
        h, r, t = zip(*store.triplets)
        targets = np.ones((len(store.triplets), 1))
        targets[::2] = 0.0

        def loss():
            z = kg_encode(graph, params)
            return bce_with_logits(kg_score(z, params, h, r, t), targets)

        err = finite_difference_check(loss, [params.entity_emb], h=1e-6)
        assert err < 1e-4, err


def test_kg_directional_gradients_match_central_differences(monkeypatch):
    # the step of test_kg_entity_embedding_gradcheck: f is the BCE loss of
    # the scored triples, the mean of max(x,0) - x*y + log1p(exp(-|x|)),
    # whose terms give the magnitude. On six seeds the errors reached 0.6
    # units of EPS64 * magnitude / eps.
    with default_dtype(np.float64):
        store, graph = _toy_kg(seed=4)
        cfg = KGModelConfig(num_layers=2, channels=4, scorer_hidden=6)
        rng = np.random.default_rng(5)
        params = KGModelParams.init(rng, store.num_entities,
                                    store.num_relations, cfg)
        _jitter(params, rng)
    h, r, t = store.triplets.T
    y = np.ones((len(h), 1))
    y[::2] = 0.0
    relu_inputs = _recorded_relu_inputs(monkeypatch)

    def forward():
        relu_inputs.clear()
        with default_dtype(np.float64):
            scores = kg_score(kg_encode(graph, params), params, h, r, t)
        x = scores.data
        terms = np.abs(np.maximum(x, 0)) + np.abs(x * y) + np.log1p(
            np.exp(-np.abs(x)))
        return (bce_with_logits(scores, y), float(terms.sum()) / len(x),
                [np.sign(v) for v in relu_inputs])

    check_directional_gradients(params.tensors(), forward,
                                np.random.default_rng(6))


# -- edge-level message passing over the line graph -------------------------------------------


def test_line_graph_edge_forward_smoke():
    # edge features propagated over the edge adjacency graph: shapes hold and
    # outputs stay finite; full joint training is out of scope
    rng = np.random.default_rng(6)
    chain = _random_chain(rng, 10)
    graph, _ = protein_edges(chain)
    coords = np.vstack([chain.coords, chain.coords.mean(axis=0)])
    line = build_line_graph(graph, coords, num_bins=8)
    assert isinstance(line, RelGraph)
    assert line.num_nodes == graph.num_edges
    params = GRMPParams.init(rng, line.num_relations, 4)
    _scale_draws(params, 0.1)
    feats = Tensor(rng.normal(size=(line.num_nodes, 4)))
    out = grmp_forward(line, feats, params)
    assert out.shape == (line.num_nodes, 4)
    assert np.all(np.isfinite(out.data))


# -- dtype: float32 models stay float32 --------------------------------------------------------


def _image_loss():
    cfg, params, pixels = tiny_image_setup()
    logits = image_forward(pixels, params, cfg)
    return sum_all(hadamard(logits, _readout(cfg.num_classes))), params


def _protein_loss():
    rng = np.random.default_rng(21)
    cfg = ProteinEncoderConfig(num_layers=2, hidden=6, num_tasks=3)
    params = ProteinEncoderParams.init(rng, cfg)
    _, logits = protein_forward(_random_chain(rng, 24), params, cfg)
    return bce_with_logits(logits, [[1.0, 0.0, 1.0]]), params


def _kg_loss():
    data = toy_kinship_kg(24, 0)
    cfg = KGModelConfig(num_layers=2, channels=8, scorer_hidden=6)
    params = KGModelParams.init(np.random.default_rng(22), data.num_entities,
                                data.num_relations, cfg)
    h, r, t = zip(*data.train.triplets[:16])
    scores = kg_score(kg_encode(fact_graph(data.train), params), params, h, r, t)
    targets = np.zeros((len(h), 1))
    targets[::2] = 1.0
    return bce_with_logits(scores, targets), params


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("build_loss", [_image_loss, _protein_loss, _kg_loss],
                         ids=["image", "protein", "kg"])
def test_model_ops_and_gradients_keep_the_active_dtype(build_loss, dtype,
                                                       monkeypatch):
    recorded = []
    real_result = tensor_module._result

    def spy(data, op, parents, backward):
        recorded.append((op, data.dtype))
        return real_result(data, op, parents, backward)

    monkeypatch.setattr(tensor_module, "_result", spy)
    monkeypatch.setattr(graph_module, "_result", spy)
    with default_dtype(dtype):
        loss, params = build_loss()
        leaves = {id(p) for node in _tape(loss) for p in node.parents
                  if p.op == "leaf"}
        loss.backward()
    assert recorded and all(d == dtype for _, d in recorded), \
        sorted({op for op, d in recorded if d != dtype})
    tensors = params.tensors()
    # the parameters are the tape's only leaves, and no op casts a gradient
    # to its leaf's dtype: each has it because no op mixes dtypes
    assert leaves == {id(t._node) for t in tensors.values()}
    wrong = sorted(name for name, t in tensors.items()
                   if t.grad is None or t.grad.dtype != dtype)
    assert not wrong, wrong
    # AdamW refuses a gradient whose dtype is not its parameter's
    AdamW(tensors, lr=1e-3).step()


# -- fused ops: the tape holds one node each, and the numbers of the chains -----------------


@pytest.mark.parametrize("build_loss", [_image_loss, _protein_loss, _kg_loss],
                         ids=["image", "protein", "kg"])
def test_models_match_the_unfused_op_chains_bitwise(build_loss, monkeypatch):
    # layer norm, every linear map and the gated layer's steps 2-3 as the
    # unfused forms the fused ops replace (`rel_aggregate` and a raw-NumPy
    # weighting); the residual stream makes a normalized input feed two ops
    runs = []
    for chained in (False, True):
        with monkeypatch.context() as m:
            if chained:
                m.setattr(layers, "_layer_norm", chained_layer_norm)
                m.setattr(layers, "weighted_aggregate", unfused_aggregate)
                m.setattr(layers, "linear", chained_linear)
                m.setattr(models, "linear", chained_linear)
            with count_flops() as counter:
                loss, params = build_loss()
            loss.backward()
        runs.append((loss.data, counter.per_op,
                     {name: t.grad for name, t in params.tensors().items()}))
    (loss, flops, grads), (want_loss, want_flops, want_grads) = runs
    assert np.array_equal(loss, want_loss)
    assert flops == want_flops
    assert grads.keys() == want_grads.keys()
    for name, grad in grads.items():
        assert np.array_equal(grad, want_grads[name]), name


def _tape(root, stop=None):
    """Every recorded (non-leaf) node that `root` depends on, not looking
    past the node of `stop`."""
    seen = {id(None if stop is None else stop._node)}
    stack, nodes = [root._node], []
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node.op != "leaf":
            nodes.append(node)
        stack.extend(node.parents)
    return nodes


def test_tape_holds_one_node_per_norm_and_no_broadcast_copies(monkeypatch):
    norms, gated, outputs = [], [], []
    real_norm, real_grmp = layers.layer_norm, layers.grmp_forward
    real_result = tensor_module._result

    def result_spy(data, op, parents, backward):
        outputs.append(data)
        return real_result(data, op, parents, backward)

    def norm_spy(x, p, *args):
        out = real_norm(x, p, *args)
        norms.append((x, out))
        return out

    def grmp_spy(graph, z, p):
        start = len(outputs)
        out = real_grmp(graph, z, p)
        gated.append((graph, z, out, outputs[start:]))
        return out

    monkeypatch.setattr(tensor_module, "_result", result_spy)
    monkeypatch.setattr(graph_module, "_result", result_spy)
    for module in (models, layers):  # patch_merging calls the layers name
        monkeypatch.setattr(module, "layer_norm", norm_spy)
    monkeypatch.setattr(models, "grmp_forward", grmp_spy)
    cfg, params, pixels = tiny_image_setup()
    logits = image_forward(pixels, params, cfg)
    data = toy_kinship_kg(24, 0)
    kg = KGModelParams.init(np.random.default_rng(23), data.num_entities,
                            data.num_relations,
                            KGModelConfig(num_layers=2, channels=8))
    states = kg_encode(fact_graph(data.train), kg)

    nodes = _tape(logits) + _tape(states)
    ops = [node.op for node in nodes]
    assert "tile_rows" not in ops and "tile_cols" not in ops
    # every bias rides inside its linear map: no add takes a [n] bias (a
    # residual add may still take a patch-merging matmul)
    assert "linear" in ops
    biases = {id(t._node) for p in (params, kg) for t in p.tensors().values()
              if t.data.ndim == 1}
    assert not [node for node in nodes if node.op == "add"
                and any(id(p) in biases for p in node.parents)]
    assert len(norms) == 13 + 3 and ops.count("layer_norm") == len(norms)
    for x, out in norms:
        assert out._node.op == "layer_norm" and out._node.parents[0] is x._node
    assert len(gated) == 4 + 2
    weights = {id(t.data) for p in (params, kg) for t in p.tensors().values()}
    for graph, z, out, made in gated:
        v, r, c = graph.num_nodes, graph.num_relations, z.shape[1]
        assert r > 1
        # nothing on a gated layer's tape is as wide as its [V*R, C] slots:
        # no op output, and no array a node's closure holds besides weights
        layer = _tape(out, stop=z)
        assert "weighted_aggregate" in [node.op for node in layer]
        held = [cell.cell_contents for node in layer
                for cell in node.backward.__closure__ or ()]
        wide = [a.shape for a in made + held
                if isinstance(a, np.ndarray) and a.size >= v * r * c
                and id(a) not in weights]
        assert not wide, wide


def test_gated_layers_keep_no_slots_alive_for_backward(monkeypatch):
    # a protein step traced with tracemalloc: against the gated layer's steps
    # 2-3 as `rel_aggregate` plus a raw-NumPy weighting, whose tape keeps the
    # [V*R, C] slots, the peak is lower by at least the widest layer's slots
    rng = np.random.default_rng(24)
    cfg = ProteinEncoderConfig(num_layers=2, hidden=32, num_tasks=3)
    params = ProteinEncoderParams.init(rng, cfg)
    chain = _random_chain(rng, 64)
    slot_bytes = []
    real_grmp = layers.grmp_forward

    def grmp_spy(graph, z, p):
        slot_bytes.append(graph.num_relations * z.data.nbytes)
        return real_grmp(graph, z, p)

    monkeypatch.setattr(models, "grmp_forward", grmp_spy)
    peaks = []
    for unfused in (False, True):
        with monkeypatch.context() as m:
            if unfused:
                m.setattr(layers, "weighted_aggregate", unfused_aggregate)
            tracemalloc.start()
            try:
                _, logits = protein_forward(chain, params, cfg)
                bce_with_logits(logits, [[1.0, 0.0, 1.0]]).backward()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        for t in params.tensors().values():
            t.zero_grad()
    assert peaks[1] - peaks[0] >= max(slot_bytes), (peaks, max(slot_bytes))
