"""Release-gate verification suites with machine-readable results.

Four suites, each a list of named checks:

- ``flops-exact``: instrumented operation counts of both message-passing
  layers equal the closed-form cost model to the last digit on a grid of
  regular synthetic graphs, including the per-operation-kind histogram and
  the per-step formula sums.
- ``gradcheck``: analytic gradients of both layers (all parameters and the
  input) match central finite differences in float64.
- ``e3``: protein graphs and encoder representations are unchanged under
  random rigid motions and reflections of the input coordinates.
- ``oracles``: sparse aggregation, both layer forwards, the medium-range
  edge builders, and the line-graph builder match the brute-force references
  in `relmp.oracles`, which share no code with the implementations they check.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import costmodel
from .builders import (AMINO_ACIDS, RADIUS, PatchGrid, ProteinChain,
                       image_medium_edges, protein_edges)
from .errors import ContractError
from .graph import RelGraph, build_line_graph, rel_aggregate
from .layers import (GRMPParams, RGConvParams, grmp_forward, rgconv_forward)
from .models import ProteinEncoderConfig, ProteinEncoderParams, protein_forward
from .oracles import (aggregate_oracle, grmp_oracle, knn_oracle,
                      line_graph_oracle, protein_edges_oracle, rgconv_oracle)
from .tensor import Tensor, count_flops, default_dtype, finite_difference_check, sum_all

SUITES = ("flops-exact", "gradcheck", "e3", "oracles")

FLOPS_GRID = {
    "num_relations": (1, 2, 4, 7, 9),
    "dbar": (1, 2, 4),
    "num_nodes": (8, 64),
    "channels": (4, 16, 64),
}

GRADCHECK_SEEDS = 5
GRADCHECK_TOLERANCE = 1e-5      # worst relative gradient error that passes
E3_CHAIN_LENGTH = 40
E3_TOLERANCE = 1e-5             # worst relative deviation that passes
CHAIN_MARGIN = 1e-3             # least gap to the contact radius or a rank tie
RANDOM_PARAM_STD = 0.6          # std of the random parameters the suites use


@dataclass
class Check:
    name: str
    passed: bool
    detail: str

    def __post_init__(self):
        # comparisons against array-derived scalars produce numpy bools,
        # which the JSON report encoder rejects; normalize at the boundary
        self.passed = bool(self.passed)


def _circulant_graph(num_nodes: int, num_relations: int, degree: int) -> RelGraph:
    """Ring graph where every node has exactly `degree` in-neighbors under
    every relation; the average added degree per relation is exact."""
    edges = []
    for r in range(num_relations):
        for v in range(num_nodes):
            for j in range(1, degree + 1):
                edges.append(((v + j) % num_nodes, v, r))
    return RelGraph(num_nodes, num_relations, edges)


def _random_graph(rng, num_nodes, num_relations, num_edges) -> RelGraph:
    triples = set()
    while len(triples) < num_edges:
        triples.add((int(rng.integers(num_nodes)), int(rng.integers(num_nodes)),
                     int(rng.integers(num_relations))))
    return RelGraph(num_nodes, num_relations, sorted(triples))


def _randomize(params, rng):
    for t in params.tensors().values():
        t.data = rng.normal(0.0, RANDOM_PARAM_STD, size=t.shape).astype(t.data.dtype)


# -- flops-exact -----------------------------------------------------------------------


def _expected_rgconv_kinds(r, d, v, c):
    return {"rel_aggregate": 2 * d * r * v * c,
            "matmul": 2 * (r + 1) * v * c * c,
            "add": v * c}


def _expected_grmp_kinds(r, d, v, c):
    kinds = {"rel_aggregate": 2 * d * r * v * c,
             "matmul": 6 * v * c * c + 2 * r * v * c,
             "tile": 2 * r * v * c,
             "hadamard": 2 * r * v * c + v * c}
    if r > 1:
        kinds["add"] = (r - 1) * v * c
    return kinds


def suite_flops_exact(seed: int, inject_fault: bool) -> list[Check]:
    """With `inject_fault` every check expects the gated layer to cost one
    R*V*C more than `costmodel.grmp_flops` (a per-relation coefficient of 8
    instead of 7), so the grid, step-sum and frozen-value checks must fail."""
    def grmp_total(r, d, v, c):
        return costmodel.grmp_flops(r, d, v, c) + (r * v * c if inject_fault else 0)

    rng = np.random.default_rng(seed)
    checks = []
    combos = [(r, d, v, c)
              for r in FLOPS_GRID["num_relations"]
              for d in FLOPS_GRID["dbar"]
              for v in FLOPS_GRID["num_nodes"]
              for c in FLOPS_GRID["channels"]]
    for layer, forward, make_params, total_fn, kinds_fn in (
            ("rgconv", rgconv_forward, RGConvParams.init,
             costmodel.rgconv_flops, _expected_rgconv_kinds),
            ("grmp", grmp_forward, GRMPParams.init,
             grmp_total, _expected_grmp_kinds)):
        exact = 0
        first_bad = ""
        for r, d, v, c in combos:
            graph = _circulant_graph(v, r, d)
            params = make_params(rng, r, c)
            z = Tensor(rng.normal(size=(v, c)).astype(np.float32))
            with count_flops() as counter:
                forward(graph, z, params)
            want_total = total_fn(r, d, v, c)
            want_kinds = kinds_fn(r, d, v, c)
            ok = counter.total == want_total and counter.per_op == want_kinds
            exact += ok
            if not ok and not first_bad:
                first_bad = (f" first mismatch at R={r} dbar={d} V={v} C={c}:"
                             f" counted {counter.total} ({counter.per_op}),"
                             f" formula {want_total} ({want_kinds})")
        checks.append(Check(f"{layer}-instrumented-count-grid",
                            exact == len(combos),
                            f"{exact}/{len(combos)} exact{first_bad}"))
    step_ok = all(
        sum(costmodel.rgconv_step_flops(r, d, v, c)) ==
        costmodel.rgconv_flops(r, d, v, c)
        and sum(costmodel.grmp_step_flops(r, d, v, c)) == grmp_total(r, d, v, c)
        for r, d, v, c in combos)
    checks.append(Check("per-step-formulas-sum-to-totals", step_ok,
                        f"{len(combos)} combos"))
    unit_ok = (costmodel.rgconv_flops(1, 0, 1, 1) == 5
               and costmodel.rgconv_step_flops(1, 0, 1, 1) == [0, 2, 3]
               and grmp_total(1, 0, 1, 1) == 13
               and costmodel.grmp_step_flops(1, 0, 1, 1) == [2, 2, 4, 2, 3]
               and costmodel.rgconv_flops(2, 3, 10, 4) == 1480
               and grmp_total(2, 3, 10, 4) == 2000)
    checks.append(Check("frozen-worked-values", unit_ok,
                        "unit case and 2-relation case"))
    return checks


# -- gradcheck -------------------------------------------------------------------------


def suite_gradcheck(seed: int) -> list[Check]:
    checks = []
    for layer, forward, make_params in (
            ("rgconv", rgconv_forward, RGConvParams.init),
            ("grmp", grmp_forward, GRMPParams.init)):
        worst = 0.0
        for trial in range(GRADCHECK_SEEDS):
            rng = np.random.default_rng(seed + trial)
            graph = _random_graph(rng, 6, 3, 18)
            with default_dtype(np.float64):
                params = make_params(rng, 3, 4)
                _randomize(params, rng)
                z = Tensor(rng.normal(size=(6, 4)), requires_grad=True)

                def loss():
                    return sum_all(forward(graph, z, params))

                tensors = list(params.tensors().values()) + [z]
                worst = max(worst, finite_difference_check(loss, tensors))
        checks.append(Check(f"{layer}-gradients-match-finite-differences",
                            worst < GRADCHECK_TOLERANCE,
                            f"worst relative error {worst:.3e} over "
                            f"{GRADCHECK_SEEDS} seeds "
                            f"(tolerance {GRADCHECK_TOLERANCE:g})"))
    return checks


# -- e3 ----------------------------------------------------------------------------------


def _margined_chain(rng, length: int) -> np.ndarray:
    """Random coordinates whose pairwise distances stay CHAIN_MARGIN away from
    the contact radius `builders.RADIUS` and from per-node ranking ties."""
    for _ in range(200):
        coords = rng.normal(scale=4.5, size=(length, 3))
        dist = np.linalg.norm(coords[:, None] - coords[None, :], axis=-1)
        off = dist[~np.eye(length, dtype=bool)]
        if np.abs(off - RADIUS).min() <= CHAIN_MARGIN:
            continue
        sorted_rows = np.sort(dist, axis=1)[:, 1:]  # drop the self distance
        if np.diff(sorted_rows, axis=1).min() <= CHAIN_MARGIN:
            continue
        return coords
    raise ContractError("could not sample a margin-respecting chain")


def _random_rigid_transform(rng, reflect: bool) -> tuple[np.ndarray, np.ndarray]:
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q @ np.diag(np.sign(np.diag(r)))
    if reflect != (np.linalg.det(q) < 0):
        q[:, 0] = -q[:, 0]
    return q, rng.uniform(-50.0, 50.0, size=3)


def suite_e3(seed: int, transforms: int) -> list[Check]:
    rng = np.random.default_rng(seed)
    coords = _margined_chain(rng, E3_CHAIN_LENGTH)
    # the 20 standard amino acids
    sequence = "".join(rng.choice(list(AMINO_ACIDS[:20]), size=E3_CHAIN_LENGTH))
    chain = ProteinChain(sequence, coords)
    base_edges = set(protein_edges(chain)[0].edge_list())
    cfg = ProteinEncoderConfig(num_layers=3, hidden=64, num_tasks=8)
    with default_dtype(np.float64):
        params = ProteinEncoderParams.init(np.random.default_rng(seed), cfg)
        base_rep, _ = protein_forward(chain, params, cfg)
        scale = float(np.abs(base_rep.data).max())
        graphs_equal = 0
        worst = 0.0
        for trial in range(transforms):
            rotation, shift = _random_rigid_transform(rng, reflect=trial % 2 == 1)
            moved = ProteinChain(sequence, coords @ rotation.T + shift)
            graphs_equal += set(protein_edges(moved)[0].edge_list()) == base_edges
            rep, _ = protein_forward(moved, params, cfg)
            worst = max(worst, float(np.abs(rep.data - base_rep.data).max()) / scale)
    return [
        Check("graph-identical-under-rigid-motion",
              graphs_equal == transforms,
              f"{graphs_equal}/{transforms} transforms gave the same edge set"),
        Check("representation-invariant-under-rigid-motion",
              worst < E3_TOLERANCE,
              f"worst relative deviation {worst:.3e} over {transforms} "
              f"transforms (tolerance {E3_TOLERANCE:g})"),
    ]


# -- oracles ---------------------------------------------------------------------------


def _rgconv_reference(graph: RelGraph, z: np.ndarray, p) -> np.ndarray:
    return rgconv_oracle(graph.num_nodes, graph.num_relations,
                         graph.edge_list(), z, p.w_stack.data, p.b_stack.data,
                         p.w_self.data, p.b_self.data)


def _grmp_reference(graph: RelGraph, z: np.ndarray, p) -> np.ndarray:
    return grmp_oracle(graph.num_nodes, graph.num_relations, graph.edge_list(),
                       z, p.w_self.data, p.w_channel.data, p.w_in.data,
                       p.b_in.data, p.w_out.data, p.b_out.data,
                       p.w_alpha.data, p.b_alpha.data)


def suite_oracles(seed: int) -> list[Check]:
    rng = np.random.default_rng(seed)
    checks = []

    worst = 0.0
    for _ in range(5):
        graph = _random_graph(rng, int(rng.integers(4, 17)), 3, 20)
        z = rng.normal(size=(graph.num_nodes, 5))
        with default_dtype(np.float64):
            got = rel_aggregate(graph, Tensor(z))
        want = aggregate_oracle(graph.num_nodes, graph.num_relations,
                                graph.edge_list(), z)
        worst = max(worst, float(np.abs(got.data - want).max()))
    checks.append(Check("aggregation-matches-dense-adjacency", worst < 1e-12,
                        f"worst absolute deviation {worst:.3e} (1e-12)"))

    for layer, forward, make_params, reference in (
            ("rgconv", rgconv_forward, RGConvParams.init, _rgconv_reference),
            ("grmp", grmp_forward, GRMPParams.init, _grmp_reference)):
        worst = 0.0
        for _ in range(3):
            graph = _random_graph(rng, 7, 3, 22)
            params = make_params(rng, 3, 4)
            _randomize(params, rng)
            z = rng.normal(size=(7, 4)).astype(np.float32)
            got = forward(graph, Tensor(z), params)
            want = reference(graph, z, params)
            worst = max(worst, float(np.abs(got.data - want).max()
                                     / np.abs(want).max()))
        checks.append(Check(f"{layer}-matches-per-node-loop", worst < 1e-6,
                            f"worst relative deviation {worst:.3e} (1e-6)"))

    knn_ok = True
    for height, width, k in ((4, 4, 2), (5, 6, 3), (3, 7, 4)):
        feats = rng.normal(size=(height * width, 6)).astype(np.float32)
        grid = PatchGrid(height, width, feats)
        got = {(s, d) for s, d, _ in image_medium_edges(grid, k)}
        knn_ok = knn_ok and got == set(knn_oracle(feats, height, width, k))
    flat = PatchGrid(2, 4, np.ones((8, 3), dtype=np.float32))
    tie_got = {(s, d) for s, d, _ in image_medium_edges(flat, 3)}
    knn_ok = knn_ok and tie_got == set(knn_oracle(flat.features, 2, 4, 3))
    checks.append(Check("image-medium-edges-match-brute-force", knn_ok,
                        "3 random grids + constant-feature tie grid, exact"))

    coords = rng.normal(scale=4.5, size=(30, 3))
    graph, _ = protein_edges(ProteinChain("A" * 30, coords))
    rel = {"medium_near": 6, "medium_far": 7}
    got_near = {(s, d) for s, d, r in graph.edge_list() if r == rel["medium_near"]}
    got_far = {(s, d) for s, d, r in graph.edge_list() if r == rel["medium_far"]}
    want = protein_edges_oracle(coords)
    want_near, want_far = set(want["medium_a"]), set(want["medium_b"])
    checks.append(Check("protein-medium-edges-match-brute-force",
                        got_near == want_near and got_far == want_far,
                        f"{len(want_near)} near + {len(want_far)} far edges, exact"))

    base = _random_graph(rng, 8, 2, 14)
    pts = rng.normal(scale=3.0, size=(8, 3))
    got = set(build_line_graph(base, pts, num_bins=8).edge_list())
    want = set(line_graph_oracle(base.edge_list(), pts, num_bins=8))
    checks.append(Check("line-graph-matches-pair-enumeration", got == want,
                        f"{len(want)} chained pairs, exact"))
    return checks


# -- harness ---------------------------------------------------------------------------


def run_suite(name: str, seed: int, transforms: int, inject_fault: bool) -> dict:
    if name == "flops-exact":
        checks = suite_flops_exact(seed, inject_fault)
    elif name == "gradcheck":
        checks = suite_gradcheck(seed)
    elif name == "e3":
        checks = suite_e3(seed, transforms)
    elif name == "oracles":
        checks = suite_oracles(seed)
    else:
        raise ContractError(f"unknown suite {name!r}; choose from {SUITES}")
    return {"suite": name,
            "passed": all(c.passed for c in checks),
            "checks": [asdict(c) for c in checks]}


def run_suites(names, seed: int, transforms: int, inject_fault: bool) -> dict:
    suites = [run_suite(name, seed, transforms, inject_fault) for name in names]
    return {"passed": all(s["passed"] for s in suites), "suites": suites}
