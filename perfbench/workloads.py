"""The four benchmark workloads: inputs from a seed, one timed iteration, checks.

Each workload is a closed loop with one caller: an iteration starts when the
previous one (and its output checks) has finished. `setup` builds everything
the timed iterations need; `iterate` runs and times one iteration;
`check` looks at its outputs after the clock has stopped and returns the
failures it found (an empty list means the iteration passed).

Timed phases are measured around calls into relmp's public functions, looked
up on their module at call time so that the traced run's wrappers are seen.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from relmp import builders, models, training
from relmp.builders import AMINO_ACIDS, ProteinChain
from relmp.costmodel import grmp_flops
from relmp.models import (ImageModelConfig, ImageModelParams, KGModelConfig,
                          KGModelParams, ProteinEncoderConfig,
                          ProteinEncoderParams)
from relmp.tensor import sum_all
from relmp.training import toy_kinship_kg

# Reference comparisons (default seed only). Losses are float32 sums, so a
# different BLAS kernel may move their last digits. A near-tie that flips one
# rank moves MR, MRR or a Hits@k by at most 1/Q over Q queries; two such flips
# are tolerated.
LOSS_RTOL = 1e-4
RANK_FLIPS = 2
RANK_KEYS = ("mr", "mrr", "hits@1", "hits@3", "hits@10")


@dataclass
class Iteration:
    """One timed iteration: phase times, the work it did, and its outputs."""
    phases: dict                  # phase name -> seconds
    items: int                    # units of work (epochs, queries, images, residues)
    output: object = None
    failures: list = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return sum(self.phases.values())


def _timed(fn, *args):
    start = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - start


def _finite_params(tensors: dict, what: str) -> list:
    bad = [n for n, t in tensors.items() if not np.all(np.isfinite(t.data))]
    return [f"{what}: non-finite parameter {n}" for n in bad[:3]]


def _finite_grads(tensors: dict) -> list:
    out = []
    for n, t in tensors.items():
        if t.grad is None:
            out.append(f"missing gradient for {n}")
        elif not np.all(np.isfinite(t.grad)):
            out.append(f"non-finite gradient for {n}")
    return out[:3]


def _clear_grads(tensors: dict) -> None:
    for t in tensors.values():
        t.zero_grad()


def check_grmp_calls(calls) -> list:
    """Each gated-layer call must meter exactly the closed-form cost of its graph."""
    failures = []
    if not calls:
        failures.append("no grmp_forward call was metered")
    for v, r, e, c, metered in calls:
        expected = grmp_flops(r, Fraction(e, r * v), v, c)
        if metered != expected:
            failures.append(f"grmp_forward on V={v} R={r} E={e} C={c}: metered "
                            f"{metered} FLOPs, cost model {expected}")
    return failures[:3]


def _ranking_sanity(metrics: dict, num_candidates: int) -> list:
    failures = []
    if not 0.0 < metrics["mrr"] <= 1.0:
        failures.append(f"mrr {metrics['mrr']} outside (0, 1]")
    hits = [metrics["hits@1"], metrics["hits@3"], metrics["hits@10"]]
    if not 0.0 <= hits[0] <= hits[1] <= hits[2] <= 1.0:
        failures.append(f"hits@1/3/10 not ordered in [0, 1]: {hits}")
    if not 1.0 <= metrics["mr"] <= num_candidates:
        failures.append(f"mean rank {metrics['mr']} outside [1, {num_candidates}]")
    return failures


def _compare_ranking(got: dict, want: dict, what: str, queries: int) -> list:
    return [f"{what} {k} = {got[k]!r}, reference {want[k]!r}"
            for k in RANK_KEYS if abs(got[k] - want[k]) > RANK_FLIPS / queries]


class KGTrain:
    """`train_kg` on the bundled toy kinship KG (data seed 0); the workload
    seed drives initialization, shuffling and negative sampling.

    One iteration is a one-epoch `train_kg` call (with its probe loss,
    validation ranking and test ranking), so a run holds a dozen or so
    samples and its median is steady on a host whose speed drifts.
    """

    name = "kg_train"
    item_unit = "epochs"

    def __init__(self, smoke: bool):
        if smoke:
            self.people, self.epochs = 24, 1
            self.cfg = KGModelConfig(num_layers=2, channels=8,
                                     scorer_hidden=8, negatives=4)
        else:
            self.people, self.epochs = 100, 1
            self.cfg = KGModelConfig()

    def setup(self, seed):
        return {"seed": seed, "data": toy_kinship_kg(self.people, seed=0)}

    def warmup(self, state):
        training.train_kg(state["data"], self.cfg, 1, state["seed"])

    def iterate(self, state, root):
        (params, history), seconds = _timed(
            training.train_kg, state["data"], self.cfg, self.epochs,
            state["seed"])
        return Iteration({"train_kg": seconds}, self.epochs, (params, history))

    def check(self, state, it, reference):
        params, history = it.output
        failures = _finite_params(params.tensors(), "trained model")
        want_rows = 2 * self.epochs + len(RANK_KEYS)
        if len(history) != want_rows:
            failures.append(f"history has {len(history)} rows, expected {want_rows}")
        if not all(math.isfinite(row[3]) for row in history):
            failures.append("non-finite value in the metric history")
        test = {row[2]: row[3] for row in history if row[1] == "test"}
        if set(test) == set(RANK_KEYS):
            failures += _ranking_sanity(test, state["data"].num_entities)
        ref = reference.get("history")
        if ref is not None and state["seed"] == reference["seed"]:
            data = state["data"]
            failures += _compare_history(history, ref, {
                "valid": 2 * len(data.valid.triplets),
                "test": 2 * len(data.test.triplets)})
        return failures

    def named(self, its):
        return {"epoch_s": ("s", [it.seconds / it.items for it in its])}


def _compare_history(history, ref, queries: dict) -> list:
    if len(history) != len(ref):
        return [f"history has {len(history)} rows, reference {len(ref)}"]
    failures = []
    for got, want in zip(history, ref):
        if list(got[:3]) != list(want[:3]):
            failures.append(f"history row {got[:3]} where reference has {want[:3]}")
            continue
        tol = (LOSS_RTOL * abs(want[3]) if got[2] == "loss"
               else RANK_FLIPS / queries[got[1]])
        if abs(got[3] - want[3]) > tol:
            failures.append(f"history {got[:3]} = {got[3]!r}, reference {want[3]!r}")
    return failures[:3]


class KGEval:
    """Filtered ranking of the test split of a 1000-person kinship KG with
    seeded, untrained parameters; the encoder runs once per evaluation."""

    name = "kg_eval"
    item_unit = "queries"

    def __init__(self, smoke: bool):
        self.people = 40 if smoke else 1000
        self.cfg = (KGModelConfig(num_layers=2, channels=8, scorer_hidden=8)
                    if smoke else KGModelConfig())

    def setup(self, seed):
        data = toy_kinship_kg(self.people, seed=0)
        params = KGModelParams.init(np.random.default_rng(seed),
                                    data.num_entities, data.num_relations,
                                    self.cfg)
        stores = [data.train, data.valid, data.test]
        return {"seed": seed, "data": data, "params": params,
                "graph": builders.fact_graph(data.train),
                "known": training.known_tails(stores),
                "filtered": _filtered_counts(stores, data.test)}

    def warmup(self, state):
        self.iterate(state, None)

    def iterate(self, state, root):
        data = state["data"]
        metrics, seconds = _timed(training.kg_evaluate, state["params"],
                                  state["graph"], data.test, state["known"])
        return Iteration({"kg_evaluate": seconds}, 2 * len(data.test.triplets),
                         metrics)

    def check(self, state, it, reference):
        metrics = it.output
        n = state["data"].num_entities
        failures = _ranking_sanity(metrics, n)
        want = [n - k for k in state["filtered"]]
        if metrics["candidates"] != want:
            failures.append("per-query candidate counts differ from the "
                            "filtered counts of the splits")
        ref = reference.get("metrics")
        if ref is not None and state["seed"] == reference["seed"]:
            failures += _compare_ranking(metrics, ref, "kg_evaluate",
                                         len(want))
        return failures

    def named(self, its):
        return {"queries_per_s": ("1/s", [it.items / it.seconds for it in its])}


def _filtered_counts(stores, split) -> list:
    """Known true answers removed from each query of `split`, both directions
    (tail of (h, r, ?), then head of (?, r, t)), counted from the raw triples."""
    tails, heads = {}, {}
    for store in stores:
        for h, r, t in store.triplets:
            tails.setdefault((h, r), set()).add(t)
            heads.setdefault((t, r), set()).add(h)
    out = []
    for h, r, t in split.triplets:
        out.append(len(tails[(h, r)] - {t}))
        out.append(len(heads[(t, r)] - {h}))
    return out


class ImageStep:
    """One seeded random image through the default image model: forward
    (stage graphs built inside), then backward from the summed logits."""

    name = "image_step"
    item_unit = "images"

    def __init__(self, smoke: bool):
        if smoke:
            self.side = 32
            self.cfg = ImageModelConfig(channels=(8, 16, 32, 64),
                                        depths=(1, 1, 1, 1), k_medium=4,
                                        num_classes=10)
        else:
            self.side = 224
            self.cfg = ImageModelConfig()

    def setup(self, seed):
        rng = np.random.default_rng(seed)
        return {"seed": seed, "pixels": rng.random((self.side, self.side, 3)),
                "params": ImageModelParams.init(rng, self.cfg)}

    def warmup(self, state):
        self.iterate(state, None)
        _clear_grads(state["params"].tensors())

    def iterate(self, state, root):
        params = state["params"]
        logits, fwd = _timed(models.image_forward, state["pixels"], params,
                             self.cfg)
        fwd_flops = root.total if root is not None else None
        loss = sum_all(logits)
        _, bwd = _timed(loss.backward)
        return Iteration({"forward": fwd, "backward": bwd}, 1,
                         (logits, fwd_flops))

    def check(self, state, it, reference):
        logits, fwd_flops = it.output
        tensors = state["params"].tensors()
        failures = []
        if logits.shape != (1, self.cfg.num_classes):
            failures.append(f"logits shape {logits.shape}")
        if not np.all(np.isfinite(logits.data)):
            failures.append("non-finite logits")
        failures += _finite_grads(tensors)
        want = reference["forward_flops"]
        if fwd_flops != want:
            failures.append(f"forward metered {fwd_flops} FLOPs, expected {want}")
        _clear_grads(tensors)
        return failures

    def named(self, its):
        return {"fwd_s": ("s", [it.phases["forward"] for it in its]),
                "bwd_s": ("s", [it.phases["backward"] for it in its])}


# Consecutive Calpha steps of a protein backbone meet at a virtual bond angle
# of about 110 degrees, so each step turns by about 70.
TURN = math.radians(70.0)
# The chain conformations are the same on every seed: the edge count, and
# with it the encoder's cost, then does not vary from seed to seed.
CONFORMATION_SEED = 0


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def globule_walk(rng, length: int) -> np.ndarray:
    """Calpha random walk with 3.8 angstrom steps that each turn by TURN about
    a random axis, kept inside a sphere the size of a globular protein of this
    length (radius of gyration 2.2 L^0.38 angstrom). A step that would leave
    the sphere is redrawn; after 50 tries the turn is dropped, and a step
    toward the centre always stays inside."""
    radius = 2.2 * length ** 0.38 * math.sqrt(5.0 / 3.0)
    coords = np.zeros((length, 3))
    u = _unit(rng.normal(size=3))
    for i in range(1, length):
        attempt = 0
        while True:
            if attempt < 50:
                w = rng.normal(size=3)
                step = math.cos(TURN) * u + math.sin(TURN) * _unit(w - (w @ u) * u)
            else:
                step = _unit(rng.normal(size=3))
            cand = coords[i - 1] + 3.8 * step
            if cand @ cand <= radius * radius:
                break
            attempt += 1
        coords[i], u = cand, step
    return coords


class ProteinEncode:
    """Encoder forward plus backward (residue graph built inside the forward)
    over a fixed mix of chain lengths.

    The conformations come from CONFORMATION_SEED. The workload seed draws
    each chain's sequence and a rigid motion (rotation or reflection, plus a
    shift), which leaves the residue graph unchanged.
    """

    name = "protein_encode"
    item_unit = "residues"

    def __init__(self, smoke: bool):
        if smoke:
            self.lengths = (16, 24)
            self.cfg = ProteinEncoderConfig(num_layers=2, hidden=16)
        else:
            self.lengths = (64, 192, 448)
            self.cfg = ProteinEncoderConfig()

    def setup(self, seed):
        rng = np.random.default_rng(seed)
        shapes = np.random.default_rng(CONFORMATION_SEED)
        standard = np.array(list(AMINO_ACIDS[:20]))
        chains = []
        for n in self.lengths:
            motion, _ = np.linalg.qr(rng.normal(size=(3, 3)))
            coords = globule_walk(shapes, n) @ motion + rng.normal(0, 20, 3)
            chains.append(ProteinChain("".join(rng.choice(standard, size=n)),
                                       coords))
        return {"seed": seed, "chains": chains,
                "params": ProteinEncoderParams.init(rng, self.cfg)}

    def warmup(self, state):
        # the longest chain leaves the allocator holding the largest buffers
        self._encode(state, state["chains"][-1], {}, [])

    def _encode(self, state, chain, phases, failures):
        params = state["params"]
        (rep, logits), fwd = _timed(models.protein_forward, chain, params,
                                    self.cfg)
        loss = sum_all(logits)
        _, bwd = _timed(loss.backward)
        phases[f"L{chain.length}"] = fwd + bwd
        # checked here, outside the two timed calls, so gradients can be cleared
        if not (np.all(np.isfinite(rep.data)) and np.all(np.isfinite(logits.data))):
            failures.append(f"non-finite encoder output at L={chain.length}")
        tensors = params.tensors()
        failures += _finite_grads(tensors)
        _clear_grads(tensors)

    def iterate(self, state, root):
        phases, failures = {}, []
        for chain in state["chains"]:
            self._encode(state, chain, phases, failures)
        return Iteration(phases, sum(self.lengths), failures=failures)

    def check(self, state, it, reference):
        return []

    def named(self, its):
        return {"residues_per_s": ("1/s", [it.items / it.seconds for it in its])}


WORKLOADS = {w.name: w for w in (KGTrain, KGEval, ImageStep, ProteinEncode)}
