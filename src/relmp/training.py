"""The AdamW optimizer and the desk-scale KG training loop.

The optimizer is AdamW with its decoupled weight decay fixed at zero, that
is Adam, which is how the KG task runs (learning rate 5e-3, batch size 16 by
default).

All parameters share one dtype. The moments live in one flat float64 pair
in parameter order. A step gathers the gradients into one flat array,
without a cast, and runs each moment and update expression once over it
instead of once per tensor. Every expression keeps the per-tensor operand
order, so each element is rounded exactly as a loop over the tensors would
round it. A gradient must have its parameter's dtype;
`Tensor` accumulates every gradient in that dtype.

A step runs at the rate that `AdamW.lr` holds at the time. With annealing
on, `train_kg` sets it once per epoch: epoch 1 of E runs at exactly lr and
epoch e > 1 at lr/50 + 0.5*(lr - lr/50)*(1 + cos(pi*f)), f = (e-1)/(E-1): a
half-cosine from the base rate down to lr/50, which the last epoch meets
exactly.

`train_kg` is deterministic given its seed: initialization, shuffling, and
negative sampling all draw from one generator, so reruns produce bit-identical
metric histories on the same execution context.

Forward-only passes record no gradient tape: `kg_evaluate` and the
end-of-epoch probe loss run under `no_grad`. `kg_evaluate` ranks its queries
in groups: one `kg_score_tails` call scores every tail of a group, one
filter mask and one `query_ranks` call rank it. The mask is the group's rows
of one boolean sparse matrix of known answers, built by `known_tails`. The
scorer holds at most `models.RANK_BLOCK_ACTIVATIONS` hidden activations at a
time and a group's [G, N] rows a quarter as many values, so memory is
bounded by that constant rather than by queries times entities. The probe
loss scores its bundle in row blocks under the same bound and takes one mean
over the joined logits, so it equals the loss of one `kg_score` call bit for
bit.
"""

from __future__ import annotations

import csv
import math

import numpy as np
from scipy.sparse import csr_matrix

from . import models
from .builders import KGDataset, TripletStore, fact_graph
from .errors import ConfigError, ContractError, DataError, ShapeError
from .metrics import query_ranks, rank_summary
from .models import (KGModelConfig, KGModelParams, kg_encode, kg_score,
                     kg_score_tails)
from .tensor import bce_with_logits, concat_rows, no_grad


ADAM_BETAS = (0.9, 0.999)   # AdamW's moment decay rates
ADAM_EPS = 1e-8             # keeps AdamW's update denominator positive


class AdamW:
    """AdamW with zero weight decay (Adam) over a named parameter dict.

    Parameters without a gradient at step time are treated as having a zero
    gradient (their moments decay but the adaptive update is zero, so they
    stay put). Each gradient's shape and dtype are checked before any
    parameter moves.
    """

    def __init__(self, params: dict, lr: float):
        if not 0 <= lr < math.inf:   # false for NaN, unlike lr < 0
            raise ConfigError("learning rate must be finite and non-negative, "
                              f"not {lr!r}")
        self.params = dict(params)
        dtypes = {t.data.dtype for t in self.params.values()}
        if len(dtypes) != 1:
            raise ContractError("AdamW needs parameters of one dtype, not "
                                f"{sorted(map(str, dtypes))}")
        self.lr = float(lr)
        self.step_count = 0
        # one flat float64 moment pair in parameter order; two scratch buffers
        # of the same size hold the update: allocating its temporaries afresh
        # made each step about 1.6 times as slow
        self._bounds = np.cumsum([0] + [t.data.size for t in self.params.values()])
        self._m, self._v = np.zeros(self._bounds[-1]), np.zeros(self._bounds[-1])
        self._update, self._denom = np.empty_like(self._m), np.empty_like(self._m)

    def zero_grad(self) -> None:
        for t in self.params.values():
            t.zero_grad()

    def step(self) -> None:
        lr = self.lr
        b1, b2 = ADAM_BETAS
        grads = []
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                g = np.zeros_like(p.data)
            elif g.shape != p.data.shape:
                raise ShapeError(f"gradient shape mismatch for {name}")
            elif g.dtype != p.data.dtype:
                raise ContractError(f"{g.dtype} gradient for {p.data.dtype} "
                                    f"parameter {name}")
            grads.append(g)
        self.step_count += 1
        t = self.step_count
        m, v, update, denom = self._m, self._v, self._update, self._denom
        # m = b1 * m + (1 - b1) * g and v = b2 * v + (1 - b2) * (g * g), each
        # operation rounded as in that expression, in the gradients' dtype
        g = np.concatenate([grad.ravel() for grad in grads])
        g_sq = g * g
        np.multiply(1.0 - b1, g, out=g)
        np.multiply(b1, m, out=m)
        m += g
        np.multiply(1.0 - b2, g_sq, out=g_sq)
        np.multiply(b2, v, out=v)
        v += g_sq
        # update = lr * m_hat / (np.sqrt(v_hat) + eps)
        np.divide(m, 1.0 - b1 ** t, out=update)
        np.multiply(lr, update, out=update)
        np.divide(v, 1.0 - b2 ** t, out=denom)
        np.sqrt(denom, out=denom)
        denom += ADAM_EPS
        update /= denom
        for p, lo, hi in zip(self.params.values(), self._bounds[:-1],
                             self._bounds[1:]):
            p.data -= update[lo:hi].reshape(p.data.shape)


# -- KG link-prediction training -----------------------------------------------------------


def known_tails(stores) -> csr_matrix:
    """Boolean [N*R, N] CSR matrix of the `with_inverses()` rows of every
    store (N entities, R relations with inverses): row h*R + r marks each
    known tail t of (h, r, ?)."""
    n, r = stores[0].num_entities, stores[0].num_relations
    rows = np.concatenate([store.with_inverses() for store in stores])
    return csr_matrix((np.ones(len(rows), dtype=bool),
                       (rows[:, 0] * r + rows[:, 1], rows[:, 2])),
                      shape=(n * r, n))


def kg_evaluate(params: KGModelParams, graph, eval_store: TripletStore,
                known: csr_matrix) -> dict:
    """Filtered ranking over both query directions of every triple.

    Each triple is asked twice: predict the tail of (h, r, ?) and the head of
    (?, r, t), the latter scored through the inverse relation. Known true
    answers of other triples are removed before ranking; ties take the
    optimistic-pessimistic mean rank. Also returns the per-query live
    candidate counts so callers can compute the matched random baseline.

    The pass records no tape (`no_grad`). It ranks the queries in groups of
    whole `kg_score_tails` sub-blocks: as many as keep a group's [G, N] rows
    within RANK_BLOCK_ACTIVATIONS / 4 values, and at least one. Each group
    takes one `kg_score_tails` call, one filter mask read as the group's rows
    of `known` (the matrix of `known_tails`) and one `query_ranks` call.
    Memory is bounded by one group and one scoring sub-block, and the ranks
    equal those of one dense [Q, N] `query_ranks` call.
    """
    if not len(eval_store.triplets):
        raise DataError("empty evaluation split")
    n, r = eval_store.num_entities, eval_store.num_relations
    if known.shape != (n * r, n):
        raise ShapeError(f"known-answer matrix {known.shape} does not match "
                         f"{n} entities and {r} relations")
    queries = eval_store.with_inverses()
    activations = models.RANK_BLOCK_ACTIVATIONS
    per_block = max(1, activations // (n * params.scorer_b1.shape[0]))
    per_group = per_block * max(1, activations // (4 * n * per_block))
    ranks, candidates = [], []
    with no_grad():
        z = kg_encode(graph, params)
        for start in range(0, len(queries), per_group):
            group = queries[start:start + per_group]
            rows = np.arange(len(group))
            s = kg_score_tails(z, params, group[:, 0], group[:, 1])
            mask = known[group[:, 0] * r + group[:, 1]].toarray()
            mask[rows, group[:, 2]] = False     # the query's own answer stays
            ranks.append(query_ranks(s.data, group[:, 2], mask))
            candidates.append(n - mask.sum(axis=1))
    metrics = rank_summary(np.concatenate(ranks))
    metrics["candidates"] = np.concatenate(candidates).tolist()
    return metrics


def _probe_loss(entity_states, params: KGModelParams, probe: np.ndarray,
               targets: np.ndarray):
    """Mean BCE of the (h, r, t) rows of `probe` against `targets`, under
    `no_grad`: the loss of one `kg_score` call, bit for bit.

    The n rows are scored in max(1, n // rows) even blocks, rows =
    RANK_BLOCK_ACTIVATIONS // H with H the scorer width, so a block holds
    rows to 2*rows - 1 triples (all n when n < rows). The joined logits are
    averaged once. Splitting evenly keeps one-row blocks out: BLAS scores a
    single row on its matrix-vector path, which rounds differently.
    """
    rows = max(1, models.RANK_BLOCK_ACTIVATIONS // params.scorer_b1.shape[0])
    logits = [kg_score(entity_states, params, b[:, 0], b[:, 1], b[:, 2])
              for b in np.array_split(probe, max(1, len(probe) // rows))]
    return bce_with_logits(concat_rows(logits), targets)


def _corrupt(rng, batch, negatives, num_entities):
    """Per positive, `negatives` copies with head or tail (coin flip per copy)
    replaced by a uniformly random entity."""
    corrupt = np.repeat(batch, negatives, axis=0)
    replace_head = rng.random(len(corrupt)) < 0.5
    random_entities = rng.integers(0, num_entities, size=len(corrupt))
    corrupt[replace_head, 0] = random_entities[replace_head]
    corrupt[~replace_head, 2] = random_entities[~replace_head]
    full = np.vstack([batch, corrupt])
    targets = np.zeros((len(full), 1))
    targets[:len(batch)] = 1.0
    return full, targets


def _annealed_rate(lr: float, epoch: int, epochs: int) -> float:
    """The rate of epoch `epoch` of `epochs`: exactly lr in the first, then a
    half-cosine down to lr/50, which the last epoch meets exactly."""
    if epoch == 1:
        return float(lr)    # the formula below can miss lr by an ulp here
    min_lr = lr / 50.0
    f = (epoch - 1) / (epochs - 1)
    return min_lr + 0.5 * (lr - min_lr) * (1.0 + math.cos(math.pi * f))


def train_kg(data: KGDataset, model_cfg: KGModelConfig, epochs: int, seed: int,
             lr: float = 5e-3, batch_size: int = 16,
             anneal: bool = True) -> tuple[KGModelParams, list]:
    """Negative-sampling BCE training; returns the model and metric history.

    History rows are (epoch, split, metric, value): per-epoch training loss
    and validation MRR, then the final filtered test metrics (epoch 0 when
    training is skipped, so the test rows then describe the untrained model).
    Optimization draws fresh corruptions every epoch; the logged training
    loss is measured end-of-epoch on one fixed corruption bundle, so it is a
    deterministic function of the parameters rather than of the sampling
    noise. With `anneal` the learning rate follows a half-cosine from `lr`
    in the first epoch down to lr/50 in the last, which settles the late
    epochs; both choices keep the smoothed loss curve monotone once training
    has locked in.
    """
    model_cfg.validate()
    if epochs < 0 or batch_size < 1:
        raise ConfigError("bad epoch count or batch size")
    if not len(data.train.triplets):
        raise DataError("empty training split")
    rng = np.random.default_rng(seed)
    graph = fact_graph(data.train)
    params = KGModelParams.init(rng, data.num_entities, data.num_relations,
                                model_cfg)
    opt = AdamW(params.tensors(), lr=lr)
    known = known_tails([data.train, data.valid, data.test])
    n = data.num_entities
    neg = model_cfg.negatives
    triples = data.train.triplets
    probe, probe_targets = _corrupt(rng, triples, neg, n)
    history = []
    for epoch in range(1, epochs + 1):
        if anneal:
            opt.lr = _annealed_rate(lr, epoch, epochs)
        order = rng.permutation(len(triples))
        for start in range(0, len(order), batch_size):
            batch = triples[order[start:start + batch_size]]
            full, targets = _corrupt(rng, batch, neg, n)
            opt.zero_grad()
            z = kg_encode(graph, params)
            logits = kg_score(z, params, full[:, 0], full[:, 1], full[:, 2])
            loss = bce_with_logits(logits, targets)
            loss.backward()
            opt.step()
        with no_grad():
            loss = _probe_loss(kg_encode(graph, params), params, probe,
                               probe_targets)
        history.append((epoch, "train", "loss", float(loss.data)))
        if len(data.valid.triplets):
            valid = kg_evaluate(params, graph, data.valid, known)
            history.append((epoch, "valid", "mrr", valid["mrr"]))
    if len(data.test.triplets):
        test = kg_evaluate(params, graph, data.test, known)
        for key in ("mr", "mrr", "hits@1", "hits@3", "hits@10"):
            history.append((epochs, "test", key, test[key]))
    return params, history


def save_metric_history(path, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["epoch", "split", "metric", "value"])
        for epoch, split, metric, value in rows:
            writer.writerow([epoch, split, metric, repr(float(value))])


# -- bundled toy dataset ---------------------------------------------------------------------


KINSHIP_RELATIONS = ("parent", "child", "sibling", "spouse",
                     "grandparent", "grandchild")
# shares of the shuffled facts held out for validation and for test
VALID_FRAC = 0.1
TEST_FRAC = 0.1


def toy_kinship_kg(num_people: int, seed: int) -> KGDataset:
    """Seeded family-forest dataset with composable kinship relations.

    People form generations of couples with children; facts list parenthood
    both ways, siblinghood, marriages, and grandparent composites. The split
    is a seeded shuffle into train/valid/test.
    """
    if num_people < 8:
        raise ConfigError("need at least 8 people for a family forest")
    rng = np.random.default_rng(seed)
    parents_of: dict[int, tuple[int, int]] = {}
    spouses = []
    next_person = 0

    def take(k):
        nonlocal next_person
        ids = list(range(next_person, min(next_person + k, num_people)))
        next_person += len(ids)
        return ids

    generation = take(int(num_people * 0.25) // 2 * 2)
    while next_person < num_people:
        couples = []
        rng.shuffle(generation)
        for i in range(0, len(generation) - 1, 2):
            couples.append((generation[i], generation[i + 1]))
        if not couples:
            couples = [(generation[0], take(1)[0])] if generation else \
                [(take(1)[0], take(1)[0])]
        next_gen = []
        for a, b in couples:
            spouses.append((a, b))
            kids = take(int(rng.integers(1, 4)))
            for kid in kids:
                parents_of[kid] = (a, b)
            next_gen.extend(kids)
            if next_person >= num_people:
                break
        if not next_gen:
            break
        generation = next_gen

    rel = {name: i for i, name in enumerate(KINSHIP_RELATIONS)}
    facts = set()
    for kid, (a, b) in parents_of.items():
        for p in (a, b):
            facts.add((p, rel["parent"], kid))
            facts.add((kid, rel["child"], p))
            if p in parents_of:
                for gp in parents_of[p]:
                    facts.add((gp, rel["grandparent"], kid))
                    facts.add((kid, rel["grandchild"], gp))
    kids_by_couple: dict = {}
    for kid, couple in parents_of.items():
        kids_by_couple.setdefault(couple, []).append(kid)
    for kids in kids_by_couple.values():
        for a in kids:
            for b in kids:
                if a != b:
                    facts.add((a, rel["sibling"], b))
    for a, b in spouses:
        facts.add((a, rel["spouse"], b))
        facts.add((b, rel["spouse"], a))

    triples = sorted(facts)
    rng.shuffle(triples)
    n_valid = int(len(triples) * VALID_FRAC)
    n_test = int(len(triples) * TEST_FRAC)
    splits = {"valid": triples[:n_valid],
              "test": triples[n_valid:n_valid + n_test],
              "train": triples[n_valid + n_test:]}
    num_rel = 2 * len(KINSHIP_RELATIONS)
    stores = {name: TripletStore(num_people, num_rel, rows)
              for name, rows in splits.items()}
    return KGDataset(entities=[f"p{i}" for i in range(num_people)],
                     relations=list(KINSHIP_RELATIONS),
                     train=stores["train"], valid=stores["valid"],
                     test=stores["test"])
