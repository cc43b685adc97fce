"""Optimizer, learning-rate annealing, and KG training-loop tests.

The optimizer is checked against a hand-stepped first update and a
hundred-step independent reference implementation; its flat moments are
checked bit for bit against the per-tensor loop they replaced, and parameters
or gradients of mixed dtypes, and non-finite gradients, are refused. The rate each optimizer step runs
at is checked against the annealing endpoints exactly.
The training loop is checked for determinism, history layout, and loss
movement on a small family-forest dataset, and bit for bit against a run with
the old per-call forms of three hot spots.
"""

import csv
import math
import sys
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from scipy.sparse import csr_matrix

from relmp import graph as graph_module
from relmp import tensor as tensor_module
from relmp import models, training
from relmp.builders import KGDataset, TripletStore, fact_graph
from relmp.errors import (ConfigError, ContractError, DataError, NumericError,
                          ShapeError)
from relmp.metrics import query_ranks, rank_summary
from relmp.models import (RANK_BLOCK_ACTIVATIONS, KGModelConfig, KGModelParams,
                          kg_encode, kg_score, kg_score_tails)
from relmp.tensor import (Tensor, bce_with_logits, count_flops, default_dtype,
                          hadamard, no_grad, sum_all)
from relmp.training import (
    KINSHIP_RELATIONS,
    ADAM_BETAS,
    ADAM_EPS,
    AdamW,
    kg_evaluate,
    known_tails,
    save_metric_history,
    toy_kinship_kg,
    _annealed_rate,
    _probe_loss,
    train_kg,
)
from test_layers import reference_weighted_sum


def _param(values):
    with default_dtype(np.float64):
        return Tensor(values, requires_grad=True)


# -- optimizer -----------------------------------------------------------------------------


@pytest.mark.parametrize("bad", [-0.01, math.nan, math.inf])
def test_optimizer_rejects_bad_hyperparameters(bad):
    # a NaN fails every comparison, so a plain `lr < 0` check lets it through
    with pytest.raises(ConfigError, match="learning rate"):
        AdamW({"w": _param([1.0])}, lr=bad)


def test_first_step_matches_hand_computation():
    # One step from zero with unit gradient: bias correction makes the
    # update exactly lr * g / (|g| + eps).
    p = {"w": _param([0.0])}
    opt = AdamW(p, lr=0.1)
    p["w"].grad = np.array([1.0])
    opt.step()
    expected = -0.1 * 1.0 / (1.0 + 1e-8)
    assert abs(p["w"].data[0] - expected) < 1e-15


def test_hundred_steps_match_reference_implementation():
    rng = np.random.default_rng(5)
    shapes = {"a": (3, 4), "b": (5,), "c": (2, 2, 2)}
    start = {k: rng.normal(size=s) for k, s in shapes.items()}
    params = {k: _param(v.copy()) for k, v in start.items()}
    lr, b1, b2, eps = 3e-3, 0.9, 0.999, 1e-8
    opt = AdamW(params, lr=lr)

    theta = {k: v.copy() for k, v in start.items()}
    m = {k: np.zeros(s) for k, s in shapes.items()}
    v = {k: np.zeros(s) for k, s in shapes.items()}
    for t in range(1, 101):
        grads = {k: rng.normal(size=s) for k, s in shapes.items()}
        for k in params:
            params[k].grad = grads[k].copy()
        opt.step()
        for k in theta:
            m[k] = b1 * m[k] + (1 - b1) * grads[k]
            v[k] = b2 * v[k] + (1 - b2) * grads[k] ** 2
            m_hat = m[k] / (1 - b1 ** t)
            v_hat = v[k] / (1 - b2 ** t)
            theta[k] = theta[k] - lr * m_hat / (np.sqrt(v_hat) + eps)
    for k in theta:
        np.testing.assert_allclose(params[k].data, theta[k], rtol=0, atol=1e-10)


def test_step_runs_at_the_rate_lr_holds():
    p = {"w": _param([1.0])}
    opt = AdamW(p, lr=0.5)
    p["w"].grad = np.array([1.0])
    opt.lr = 0.0
    opt.step()
    assert p["w"].data[0] == 1.0  # zero rate: nothing moves
    opt.lr = 0.5
    opt.step()
    assert p["w"].data[0] != 1.0


def test_missing_gradient_is_treated_as_zero():
    p = {"w": _param([2.0])}
    opt = AdamW(p, lr=0.1)
    opt.step()
    assert p["w"].data[0] == 2.0


def test_gradient_shape_mismatch_is_rejected():
    p = {"w": _param([1.0, 2.0])}
    opt = AdamW(p, lr=0.1)
    p["w"].grad = np.zeros(3)
    with pytest.raises(ShapeError):
        opt.step()


@pytest.mark.parametrize("mixed", [True, False])
def test_parameters_of_mixed_dtypes_or_none_are_refused(mixed):
    p = {"a": _param([1.0]), "b": Tensor([1.0], requires_grad=True)}
    with pytest.raises(ContractError, match="parameters of one dtype"):
        AdamW(p if mixed else {}, lr=0.1)


def test_gradient_of_another_dtype_is_refused_before_anything_moves():
    # the tape casts every gradient to its node's dtype, so only a gradient
    # assigned by hand can differ
    p = {"a": _param([1.0]), "b": _param([2.0])}
    opt = AdamW(p, lr=0.1)
    p["a"].grad = np.ones(1)
    p["b"].grad = np.ones(1, dtype=np.float32)
    with pytest.raises(ContractError, match="float32 gradient"):
        opt.step()
    assert p["a"].data[0] == 1.0 and p["b"].data[0] == 2.0
    assert opt.step_count == 0 and not opt._m.any()


def test_non_finite_gradient_is_refused_before_anything_moves():
    # a finite float32 forward, a * b * b = 1e30, whose gradient for a,
    # b * b = 1e60, overflows to inf; before the check one step wrote NaN into a
    with default_dtype(np.float32):
        p = {"b": Tensor([1e30], requires_grad=True),
             "a": Tensor([1e-30], requires_grad=True)}
    loss = sum_all(hadamard(hadamard(p["a"], p["b"]), p["b"]))
    assert np.isfinite(loss.data).all()
    with np.errstate(over="ignore"):
        loss.backward()
    assert np.isinf(p["a"].grad).all() and np.isfinite(p["b"].grad).all()
    opt = AdamW(p, lr=0.1)
    with pytest.raises(NumericError, match="non-finite gradient for a$"):
        opt.step()
    assert p["a"].data[0] == np.float32(1e-30) and p["b"].data[0] == np.float32(1e30)
    assert opt.step_count == 0 and not opt._m.any() and not opt._v.any()
    p["a"].grad[0], p["b"].grad[0] = 0.0, np.nan
    with pytest.raises(NumericError, match="non-finite gradient for b$"):
        opt.step()


# calls of the old-form references below, by name
_REFERENCE_CALLS: Counter = Counter()


def _per_tensor_step(opt):
    """`AdamW.step` as one loop over the tensors, each with its own float64
    moment arrays, zero before the first step: the form that the flat moment
    buffers replaced. The moments live in `opt.loop_moments`, name -> (m, v)."""
    _REFERENCE_CALLS["step"] += 1
    lr = opt.lr
    b1, b2 = ADAM_BETAS
    opt.step_count += 1
    t = opt.step_count
    moments = vars(opt).setdefault("loop_moments", {})
    for name, p in opt.params.items():
        g = p.grad
        if g is None:
            g = np.zeros_like(p.data, dtype=np.float64)
        elif g.shape != p.data.shape:
            raise ShapeError(f"gradient shape mismatch for {name}")
        m, v = moments.get(name, (np.zeros(p.data.shape), np.zeros(p.data.shape)))
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * (g * g)
        moments[name] = m, v
        m_hat = m / (1.0 - b1 ** t)
        v_hat = v / (1.0 - b2 ** t)
        p.data -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_flat_moments_equal_the_per_tensor_loop_bitwise(dtype):
    rng = np.random.default_rng(21)
    shapes = {"a": (3, 4), "b": (5,), "c": (2, 2, 2), "idle": (4,),
              "d": (1, 6), "e": (7,)}
    start = {k: rng.normal(size=s) for k, s in shapes.items()}

    def fresh():
        with default_dtype(dtype):
            params = {k: Tensor(v, requires_grad=True) for k, v in start.items()}
        return params, AdamW(params, lr=3e-3)

    flat_params, flat = fresh()
    loop_params, loop = fresh()
    # one flat float64 buffer per moment, in parameter order
    for moment in (flat._m, flat._v):
        assert moment.dtype == np.float64
        assert moment.shape == (sum(math.prod(s) for s in shapes.values()),)
    for step in range(50):
        for name, shape in shapes.items():
            if name == "idle" or (name == "c" and step % 5 == 0):
                continue    # no gradient this step
            g = (rng.normal(size=shape) * 10.0 ** rng.integers(-4, 2)).astype(dtype)
            flat_params[name].grad, loop_params[name].grad = g.copy(), g.copy()
        if step % 4 == 0:
            flat.lr = loop.lr = 1e-3 / (1 + step)
        flat.step()
        _per_tensor_step(loop)
        for name in shapes:
            assert flat_params[name].data.dtype == loop_params[name].data.dtype
            assert flat_params[name].data.tobytes() == loop_params[name].data.tobytes()
        for i, moment in enumerate((flat._m, flat._v)):
            joined = np.concatenate([loop.loop_moments[k][i].ravel() for k in shapes])
            assert moment.tobytes() == joined.tobytes()
        flat.zero_grad()
        loop.zero_grad()


def test_zero_grad_clears_every_parameter():
    p = {"a": _param([1.0]), "b": _param([2.0])}
    for t in p.values():
        t.grad = np.ones(1)
    AdamW(p, lr=0.1).zero_grad()
    assert all(t.grad is None for t in p.values())


# -- bundled dataset -----------------------------------------------------------------------


def test_toy_dataset_shape_and_determinism():
    data = toy_kinship_kg(100, 0)
    assert len(data.entities) == 100
    assert data.relations == list(KINSHIP_RELATIONS)
    assert data.num_relations == 12  # six relations, doubled with inverses
    sizes = (len(data.train.triplets), len(data.valid.triplets),
             len(data.test.triplets))
    assert sizes == (724, 90, 90)
    for store in (data.train, data.valid, data.test):
        for h, r, t in store.triplets:
            assert 0 <= h < 100 and 0 <= t < 100 and 0 <= r < 6
    again = toy_kinship_kg(100, 0)
    assert again.train.triplets.tolist() == data.train.triplets.tolist()
    assert again.valid.triplets.tolist() == data.valid.triplets.tolist()
    other = toy_kinship_kg(100, 3)
    assert other.train.triplets.tolist() != data.train.triplets.tolist()


def test_toy_dataset_relations_are_semantically_consistent():
    data = toy_kinship_kg(100, 0)
    rel = {name: i for i, name in enumerate(KINSHIP_RELATIONS)}
    facts = {tuple(row) for store in (data.train, data.valid, data.test)
             for row in store.triplets.tolist()}
    for h, r, t in facts:
        if r == rel["parent"]:
            assert (t, rel["child"], h) in facts
        elif r == rel["spouse"]:
            assert (t, rel["spouse"], h) in facts
        elif r == rel["sibling"]:
            assert (t, rel["sibling"], h) in facts
        elif r == rel["grandparent"]:
            assert (t, rel["grandchild"], h) in facts
    # Grandparenthood is the composition of two parenthood steps.
    parents = {(h, t) for h, r, t in facts if r == rel["parent"]}
    for h, r, t in facts:
        if r == rel["grandparent"]:
            assert any((h, mid) in parents and (mid, t) in parents
                       for mid in range(100))


def test_fact_graph_doubles_every_training_triple():
    data = toy_kinship_kg(100, 0)
    graph = fact_graph(data.train)
    assert graph.num_edges == 2 * len(data.train.triplets)
    assert graph.num_relations == 12


def test_toy_dataset_rejects_tiny_populations():
    with pytest.raises(ConfigError):
        toy_kinship_kg(4, 0)


# -- training loop -------------------------------------------------------------------------

_TINY = dict(num_layers=2, channels=8, scorer_hidden=16, negatives=4)


def _tiny_data():
    return toy_kinship_kg(num_people=30, seed=1)


def test_training_rejects_bad_arguments():
    data = _tiny_data()
    with pytest.raises(ConfigError):
        train_kg(data, KGModelConfig(**_TINY), epochs=-1, seed=0)
    with pytest.raises(ConfigError):
        train_kg(data, KGModelConfig(**_TINY), epochs=1, seed=0, batch_size=0)
    empty = KGDataset(data.entities, data.relations,
                      TripletStore(data.num_entities, data.num_relations, []),
                      data.valid, data.test)
    with pytest.raises(DataError):
        train_kg(empty, KGModelConfig(**_TINY), epochs=1, seed=0)


def test_zero_epochs_reports_the_untrained_baseline():
    data = _tiny_data()
    params, history = train_kg(data, KGModelConfig(**_TINY), epochs=0, seed=0)
    assert [row[:2] for row in history] == [(0, "test")] * 5
    metrics = {row[2]: row[3] for row in history}
    assert set(metrics) == {"mr", "mrr", "hits@1", "hits@3", "hits@10"}
    assert all(np.isfinite(v) for v in metrics.values())


def test_training_is_bit_identical_under_a_fixed_seed():
    data = _tiny_data()
    run = [train_kg(data, KGModelConfig(**_TINY), epochs=2, seed=11)
           for _ in range(2)]
    assert run[0][1] == run[1][1]
    tensors = [p.tensors() for p, _ in run]
    assert tensors[0].keys() == tensors[1].keys()
    for key in tensors[0]:
        np.testing.assert_array_equal(tensors[0][key].data,
                                      tensors[1][key].data)


def _gather_rows_add_at(a, indices):
    """`gather_rows` whose backward scatter-adds with np.add.at."""
    idx = np.asarray(indices, dtype=np.int64)
    _REFERENCE_CALLS["gather_rows"] += 1
    na, shape, dtype = a._node, a.shape, a.dtype

    def backward(g):
        full = np.zeros(shape, dtype)
        np.add.at(full, idx, g)
        na._accumulate(full)

    return tensor_module._result(a.data[idx], "gather_rows", (a,), backward)


def _rel_aggregate_rebuilt(graph, z):
    """`rel_aggregate` that builds its CSR slot matrix, the transpose and the
    degree column again on every call. The slot matrix spans the R*V_dst
    slots of the nodes below `graph.num_dst`; the slots of the nodes above,
    which no edge reaches, are zero."""
    _REFERENCE_CALLS["rel_aggregate"] += 1
    v_count, r_count, c = graph.num_nodes, graph.num_relations, z.shape[1]
    v_dst = graph.num_dst
    adj = csr_matrix((np.ones(graph.num_edges, dtype=z.data.dtype), graph._src,
                      graph._indptr), shape=(r_count * v_dst, v_count))
    deg = np.maximum(graph._degrees, 1).reshape(-1, 1).astype(z.data.dtype)
    out = np.zeros((r_count, v_count, c), z.data.dtype)
    out[:, :v_dst] = ((adj @ z.data) / deg).reshape(r_count, v_dst, c)
    out = out.transpose(1, 0, 2).reshape(-1, c)
    tensor_module._charge("rel_aggregate", 2 * graph.num_edges * c)
    nz = z._node

    def backward(g):
        g_rv = g.reshape(v_count, r_count, c)[:v_dst].transpose(1, 0, 2)
        nz._accumulate(adj.T @ (g_rv.reshape(-1, c) / deg))

    return tensor_module._result(np.ascontiguousarray(out), "rel_aggregate",
                                 (z,), backward)


def _weighted_aggregate_rebuilt(graph, z, scores, channel):
    """`weighted_aggregate` as the per-call `rel_aggregate` above plus the
    raw-NumPy weighting of its slots."""
    _REFERENCE_CALLS["weighted_aggregate"] += 1
    return reference_weighted_sum(_rel_aggregate_rebuilt(graph, z), scores,
                                  channel)


@pytest.mark.parametrize("isolated", [False, True])
def test_training_equals_the_per_call_references_bitwise(monkeypatch, isolated):
    # the cached aggregation operators, the gated layer's one aggregation
    # op, the flat AdamW moments and the scatter product each promise the old
    # arithmetic bit for bit; a run with all of them swapped back for their
    # old forms must match byte for byte. An isolated entity, one that no
    # triple names, leaves the fact graph's last node without an edge
    data = toy_kinship_kg(24, 0)
    if isolated:
        n = data.num_entities + 1
        data = KGDataset(data.entities + ["p24"], data.relations,
                         *(TripletStore(n, data.num_relations, store.triplets)
                           for store in (data.train, data.valid, data.test)))
    assert (fact_graph(data.train).num_dst < data.num_entities) == isolated
    cfg = KGModelConfig(num_layers=2, channels=8, scorer_hidden=8, negatives=4)
    params, history = train_kg(data, cfg, epochs=2, seed=0)
    swaps = {tensor_module.gather_rows: _gather_rows_add_at,
             graph_module.weighted_aggregate: _weighted_aggregate_rebuilt}
    for module in [m for name, m in sys.modules.items() if name.startswith("relmp.")]:
        for attr, value in list(vars(module).items()):
            if callable(value) and value in swaps:
                monkeypatch.setattr(module, attr, swaps[value])
    monkeypatch.setattr(AdamW, "step", _per_tensor_step)
    _REFERENCE_CALLS.clear()
    ref_params, ref_history = train_kg(data, cfg, epochs=2, seed=0)
    assert set(_REFERENCE_CALLS) == {"gather_rows", "rel_aggregate",
                                     "weighted_aggregate", "step"}
    assert history == ref_history
    got, want = params.tensors(), ref_params.tensors()
    assert got.keys() == want.keys()
    for name in got:
        assert got[name].data.dtype == want[name].data.dtype
        assert got[name].data.tobytes() == want[name].data.tobytes(), name


def test_history_layout_and_loss_movement():
    data = _tiny_data()
    epochs = 4
    _, history = train_kg(data, KGModelConfig(**_TINY), epochs=epochs, seed=2)
    losses = [v for e, s, m, v in history if s == "train" and m == "loss"]
    valid = [v for e, s, m, v in history if s == "valid" and m == "mrr"]
    test_rows = [row for row in history if row[1] == "test"]
    assert len(losses) == epochs and len(valid) == epochs
    assert len(test_rows) == 5 and all(row[0] == epochs for row in test_rows)
    assert all(np.isfinite(v) for v in losses)
    assert losses[-1] < losses[0]


def test_anneal_flag_changes_the_trajectory():
    data = _tiny_data()
    cfg = KGModelConfig(**_TINY)
    _, with_anneal = train_kg(data, cfg, epochs=3, seed=4)
    _, without = train_kg(data, cfg, epochs=3, seed=4, anneal=False)
    assert with_anneal != without


def _recorded_rates(monkeypatch):
    """The list that collects the rate each `AdamW.step` runs at."""
    rates = []
    step = AdamW.step

    def recording_step(self):
        rates.append(self.lr)
        step(self)

    monkeypatch.setattr(AdamW, "step", recording_step)
    return rates


def test_annealed_rate_runs_from_lr_to_lr_over_50(monkeypatch):
    # one step per batch, constant within an epoch; the first epoch runs at
    # exactly lr and the last at exactly lr/50
    rates = _recorded_rates(monkeypatch)
    data = _tiny_data()
    lr, epochs = 5e-3, 3
    steps = math.ceil(len(data.train.triplets) / 16)
    train_kg(data, KGModelConfig(**_TINY), epochs=epochs, seed=4, lr=lr)
    assert len(rates) == epochs * steps
    first, middle, last = (set(rates[e * steps:(e + 1) * steps])
                           for e in range(epochs))
    assert first == {lr} and last == {lr / 50}
    (mid,) = middle
    assert mid == pytest.approx((lr + lr / 50) / 2, rel=1e-12)


def test_unannealed_rate_holds_lr_every_step(monkeypatch):
    rates = _recorded_rates(monkeypatch)
    data = _tiny_data()
    lr, epochs = 5e-3, 3
    steps = math.ceil(len(data.train.triplets) / 16)
    train_kg(data, KGModelConfig(**_TINY), epochs=epochs, seed=4, lr=lr,
             anneal=False)
    assert rates == [lr] * (epochs * steps)


def test_first_annealed_epoch_runs_at_exactly_lr():
    # the half-cosine at f = 0 rounds one ulp away from lr for about 2% of
    # rates; the first epoch takes lr itself, and the last meets lr/50 exactly
    # because 1 + cos(pi) is 0
    rates = np.random.default_rng(0).uniform(1e-6, 1.0, size=10_000).tolist()
    formula = [lr / 50 + 0.5 * (lr - lr / 50) * (1.0 + math.cos(0.0))
               for lr in rates]
    assert sum(f != lr for f, lr in zip(formula, rates)) > 100
    for epochs in (2, 3, 30):
        assert all(_annealed_rate(lr, 1, epochs) == lr for lr in rates)
        assert all(_annealed_rate(lr, epochs, epochs) == lr / 50 for lr in rates)


def test_single_epoch_anneal_runs_at_lr(monkeypatch):
    # one epoch has no room to anneal: it runs at the base rate, not lr/50
    rates = _recorded_rates(monkeypatch)
    data = _tiny_data()
    lr = 5e-3
    train_kg(data, KGModelConfig(**_TINY), epochs=1, seed=4, lr=lr)
    assert rates and set(rates) == {lr}


def test_metric_history_roundtrips_through_csv(tmp_path):
    rows = [(1, "train", "loss", 0.75), (1, "valid", "mrr", 0.25),
            (1, "test", "hits@10", 1.0)]
    path = tmp_path / "history.csv"
    save_metric_history(path, rows)
    with open(path, encoding="utf-8", newline="") as f:
        parsed = list(csv.reader(f))
    assert parsed[0] == ["epoch", "split", "metric", "value"]
    back = [(int(e), s, m, float(v)) for e, s, m, v in parsed[1:]]
    assert back == rows


# -- filtered evaluation -------------------------------------------------------------------


def _dense_evaluate(params, graph, data):
    """The dense algorithm kg_evaluate streams over the test split: every
    score of every query in one [Q, N] matrix (scored by kg_score_tails 50
    queries at a time, a size kg_evaluate does not use here), the full
    [Q, N] filter mask from a dict of known answers built here from the
    splits, then one query_ranks call over all of it."""
    store = data.test
    n = store.num_entities
    half = store.num_relations // 2
    known = {}
    for split in (data.train, data.valid, data.test):
        for h, r, t in split.triplets.tolist():
            known.setdefault((h, r), set()).add(t)
            known.setdefault((t, r + half), set()).add(h)
    queries = np.array([q for h, r, t in store.triplets
                        for q in ((h, r, t), (t, r + half, h))])
    with no_grad():
        z = kg_encode(graph, params)
        scores = np.concatenate([
            kg_score_tails(z, params, part[:, 0], part[:, 1]).data
            for part in np.array_split(queries, range(50, len(queries), 50))])
    mask = np.zeros((len(queries), n), dtype=bool)
    for i, (h, r, t) in enumerate(queries.tolist()):
        others = known.get((h, r), set()) - {t}
        if others:
            mask[i, sorted(others)] = True
    metrics = rank_summary(query_ranks(scores, queries[:, 2], mask))
    metrics["candidates"] = (n - mask.sum(axis=1)).tolist()
    return metrics


def _eval_setup(people):
    data = toy_kinship_kg(people, seed=0)
    params = KGModelParams.init(np.random.default_rng(3), data.num_entities,
                                data.num_relations, KGModelConfig())
    known = known_tails([data.train, data.valid, data.test])
    return params, fact_graph(data.train), data, known


def test_known_tails_marks_exactly_the_inverse_rows_of_every_store():
    # 4 entities, 2 relations and their inverses; (0, 0, 1) is in two splits
    n, r = 4, 4
    splits = [TripletStore(n, r, [(0, 0, 1), (1, 1, 2)]),
              TripletStore(n, r, [(0, 0, 1), (2, 0, 3)]),
              TripletStore(n, r, [(3, 1, 0)])]
    want = {}
    for split in splits:
        for h, rel, t in split.with_inverses().tolist():
            want.setdefault((h, rel), set()).add(t)
    known = known_tails(splits)
    assert known.dtype == bool and known.shape == (n * r, n)
    assert known.nnz == sum(len(tails) for tails in want.values()) == 8
    dense = known.toarray()
    for h in range(n):
        for rel in range(r):
            got = set(np.flatnonzero(dense[h * r + rel]).tolist())
            assert got == want.get((h, rel), set()), (h, rel)
    assert dense[0 * r + 0].tolist() == [False, True, False, False]
    assert not dense[0 * r + 1].any()       # (0, 1, ?) has no known tail


def test_evaluation_refuses_a_known_matrix_of_other_splits():
    params, graph, data, known = _eval_setup(30)
    other = toy_kinship_kg(31, seed=0)
    with pytest.raises(ShapeError, match="known-answer matrix"):
        kg_evaluate(params, graph, data.test,
                    known_tails([other.train, other.valid, other.test]))


@pytest.mark.parametrize("people", [30, 100, 1000])
def test_streamed_evaluation_equals_the_dense_reference(people):
    # at 30 people the 52 queries are one group of one sub-block; at 100 the
    # 180 queries are one group of four sub-blocks of 40 and a partial one
    # of 20; at 1000, 27 groups of 64 queries and a last one of 8, scored in
    # sub-blocks of 4
    params, graph, data, known = _eval_setup(people)
    test = data.test
    per_block = RANK_BLOCK_ACTIVATIONS // (people * params.scorer_b1.shape[0])
    if people == 100:
        assert (per_block, 2 * len(test.triplets)) == (40, 180)
    if people == 1000:
        assert per_block == 4
    got = kg_evaluate(params, graph, test, known)
    want = _dense_evaluate(params, graph, data)
    assert got == want
    assert len(got["candidates"]) == 2 * len(test.triplets)


def test_partial_last_group_and_sub_block_equal_the_dense_reference(monkeypatch):
    # sub-blocks of 3 queries and groups of 16 of them (48 queries): the 52
    # queries of the 30-person KG make one full group and a last group of 4,
    # scored as a full sub-block and a partial one of 1
    params, graph, data, known = _eval_setup(30)
    test = data.test
    entities, hidden = test.num_entities, params.scorer_b1.shape[0]
    monkeypatch.setattr(models, "RANK_BLOCK_ACTIVATIONS", 3 * entities * hidden)
    calls = []

    def counted_tails(z, params, heads, rels):
        calls.append(len(heads))
        return kg_score_tails(z, params, heads, rels)

    monkeypatch.setattr(training, "kg_score_tails", counted_tails)
    got = kg_evaluate(params, graph, test, known)
    assert calls == [48, 4]
    assert got == _dense_evaluate(params, graph, data)


def test_evaluation_meters_the_encoder_and_the_factored_scorer():
    # derived by hand from the charge conventions of tensor.py:
    # per encoder layer, the gated layer 2*E*C + 7*R*V*C + 6*V*C^2
    # (costmodel.grmp_flops with R*dbar*V = E), layer_norm 8*V*C + 2*V, relu
    # V*C and the residual add V*C; one more layer_norm at the end. Per
    # query, the scorer: q = z_h*e_r C, its W_i 2*C*H (product and sum)
    # plus 2*(2C)*H for the last row, the first layer 2*N*(C+1)*H, relu N*H
    # and the projection 2*N*H
    data = toy_kinship_kg(30, seed=0)
    cfg = KGModelConfig(num_layers=2, channels=8, scorer_hidden=16)
    params = KGModelParams.init(np.random.default_rng(5), data.num_entities,
                                data.num_relations, cfg)
    graph = fact_graph(data.train)
    known = known_tails([data.train, data.valid, data.test])
    with count_flops() as counter:
        kg_evaluate(params, graph, data.test, known)
    v, r, e = graph.num_nodes, graph.num_relations, graph.num_edges
    c, h = cfg.channels, cfg.scorer_hidden
    layer = (2 * e * c + 7 * r * v * c + 6 * v * c * c
             + 8 * v * c + 2 * v + 2 * v * c)
    encode = cfg.num_layers * layer + 8 * v * c + 2 * v
    per_query = c + 2 * c * h + 4 * c * h + 2 * v * (c + 1) * h + 3 * v * h
    queries = 2 * len(data.test.triplets)
    assert counter.total == encode + queries * per_query


def test_evaluation_memory_does_not_grow_with_queries():
    # 15k entities: the dense path's tape held 1.13 GB at 8 test triples and
    # grew with the queries; a streamed pass is bounded by one block of rows
    params, graph, data, known = _eval_setup(15000)
    test = data.test
    # the graph builds its aggregation operators once, on first use, and
    # keeps them; build them first so that neither peak counts them
    graph._aggregation_ops(params.entity_emb.data.dtype)
    peaks = []
    for triples in (8, 32):
        store = TripletStore(test.num_entities, test.num_relations,
                             test.triplets[:triples])
        tracemalloc.start()
        try:
            kg_evaluate(params, graph, store, known)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) < 128e6, peaks
    assert abs(peaks[0] - peaks[1]) < 1e6, peaks


def test_default_epoch_memory_stays_within_a_probe_block():
    # the probe bundle of the 100-person KG holds 23,892 triples; scored in
    # one call its scorer activations peaked at 36 MB, in blocks at 9 MB
    data = toy_kinship_kg(100, seed=0)
    tracemalloc.start()
    try:
        train_kg(data, KGModelConfig(), epochs=1, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6, peak


@pytest.mark.parametrize("blocks, extra", [(1, 0), (1, 1), (3, 0), (3, 1)])
def test_blocked_probe_loss_equals_one_scoring_call_bitwise(monkeypatch, blocks,
                                                            extra):
    # blocks of 16 rows: the bundle splits into `blocks` even blocks, and an
    # extra row joins one of them rather than standing alone
    data = toy_kinship_kg(24, seed=0)
    cfg = KGModelConfig(num_layers=2, channels=8, scorer_hidden=8)
    rng = np.random.default_rng(5)
    params = KGModelParams.init(rng, data.num_entities, data.num_relations, cfg)
    monkeypatch.setattr(models, "RANK_BLOCK_ACTIVATIONS", 16 * cfg.scorer_hidden)
    n = 16 * blocks + extra
    probe = np.stack([rng.integers(0, data.num_entities, n),
                      rng.integers(0, data.num_relations, n),
                      rng.integers(0, data.num_entities, n)], axis=1)
    targets = (rng.random((n, 1)) < 0.5).astype(float)
    calls = []

    def counted_score(*args):
        calls.append(len(args[2]))
        return kg_score(*args)

    with no_grad():
        z = kg_encode(fact_graph(data.train), params)
        with count_flops() as want_flops:
            want = bce_with_logits(kg_score(z, params, *probe.T), targets)
        monkeypatch.setattr(training, "kg_score", counted_score)
        with count_flops() as got_flops:
            got = _probe_loss(z, params, probe, targets)
    assert sorted(calls) == [16] * (blocks - extra) + [17] * extra
    assert got.data.tobytes() == want.data.tobytes()
    assert got_flops.per_op == want_flops.per_op
