"""Property tests of the array graph builders, the aggregation and the gated
layer against the brute-force oracles and the cost model, and of checkpoint
loading against truncation.

Builder inputs are small integers, so every distance and every angle cosine
the builders compute is exact and ties are common: the ranking and binning
rules are checked at their boundaries, not only on generic inputs.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from relmp.builders import PatchGrid, image_medium_edges, image_short_edges
from relmp.costmodel import grmp_flops
from relmp.errors import DataError
from relmp.graph import RelGraph, build_line_graph, rel_aggregate
from relmp.layers import GRMPParams, GRMPVariant, grmp_forward
from relmp.oracles import (aggregate_oracle, grmp_oracle, knn_oracle,
                           line_graph_oracle)
from relmp.tensor import (Tensor, count_flops, default_dtype, load_checkpoint,
                          save_checkpoint)

from test_layers import circulant_graph, randomize

PROPERTY = settings(derandomize=True, deadline=None, max_examples=100)


@st.composite
def tie_heavy_grids(draw):
    height, width = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    channels = draw(st.integers(1, 3))
    feats = draw(hnp.arrays(np.int64, (height * width, channels),
                            elements=st.integers(0, 2)))
    return PatchGrid(height, width, feats.astype(np.float64))


@st.composite
def lattice_graphs(draw):
    num_nodes, num_relations = draw(st.integers(1, 7)), draw(st.integers(1, 3))
    triple = st.tuples(st.integers(0, num_nodes - 1), st.integers(0, num_nodes - 1),
                       st.integers(0, num_relations - 1))
    edges = sorted(draw(st.sets(triple, max_size=24)))
    coords = draw(hnp.arrays(np.int64, (num_nodes, draw(st.integers(1, 3))),
                             elements=st.integers(-2, 2)))
    return RelGraph(num_nodes, num_relations, edges), coords.astype(np.float64)


@PROPERTY
@given(grid=tie_heavy_grids(), k=st.integers(0, 12), relation=st.integers(0, 6))
def test_medium_edges_match_knn_oracle_in_rank_order(grid, k, relation):
    edges = image_medium_edges(grid, k, relation=relation)
    assert edges.dtype == np.int64 and edges.shape[1:] == (3,)
    assert (edges[:, 2] == relation).all()
    assert sorted(map(tuple, edges[:, :2].tolist())) == knn_oracle(
        grid.features, grid.height, grid.width, k)
    # each destination lists its sources nearest first, ties by ascending index
    feats = grid.features.astype(np.int64)
    for v in np.unique(edges[:, 1]):
        sources = edges[edges[:, 1] == v, 0]
        keys = [(int(((feats[u] - feats[v]) ** 2).sum()), int(u)) for u in sources]
        assert keys == sorted(keys)


@PROPERTY
@given(height=st.integers(1, 12), width=st.integers(1, 12))
def test_short_edges_count_and_in_degree(height, width):
    edges = image_short_edges(height, width)
    assert len(edges) == 2 * height * (width - 1) + 2 * width * (height - 1)
    # at most one incoming edge per (destination, relation)
    assert len(np.unique(edges[:, 1:], axis=0)) == len(edges)


@PROPERTY
@given(case=lattice_graphs(), num_bins=st.integers(1, 12))
def test_line_graph_matches_oracle_on_lattice_coordinates(case, num_bins):
    graph, coords = case
    line = build_line_graph(graph, coords, num_bins=num_bins)
    assert line.num_nodes == graph.num_edges
    assert sorted(line.edge_list()) == line_graph_oracle(
        graph.edge_list(), coords, num_bins=num_bins)


@PROPERTY
@given(case=lattice_graphs(), channels=st.integers(1, 4), seed=st.integers(0, 99))
def test_aggregation_matches_the_dense_oracle(case, channels, seed):
    graph, _ = case
    z = np.random.default_rng(seed).normal(size=(graph.num_nodes, channels))
    with default_dtype(np.float64):
        out = rel_aggregate(graph, Tensor(z))
    want = aggregate_oracle(graph.num_nodes, graph.num_relations,
                            graph.edge_list(), z)
    np.testing.assert_allclose(out.data, want, rtol=1e-12, atol=1e-12)


@PROPERTY
@given(case=lattice_graphs(), channels=st.integers(1, 4), seed=st.integers(0, 99))
def test_gated_layer_matches_the_loop_oracle(case, channels, seed):
    graph, _ = case
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(graph.num_nodes, channels))
    for alpha in ("learned", "uniform"):
        with default_dtype(np.float64):
            p = GRMPParams.init(rng, graph.num_relations, channels,
                                variant=GRMPVariant(alpha=alpha))
            randomize(p, rng)
            out = grmp_forward(graph, Tensor(z), p)
        data = {name: t.data for name, t in p.tensors().items()}
        want = grmp_oracle(graph.num_nodes, graph.num_relations,
                           graph.edge_list(), z, alpha=alpha, **data)
        np.testing.assert_allclose(out.data, want, rtol=1e-9, atol=1e-9,
                                   err_msg=alpha)


@PROPERTY
@given(num_relations=st.integers(1, 4), num_nodes=st.integers(2, 8),
       channels=st.integers(1, 5), data=st.data())
def test_metered_gated_layer_equals_the_cost_model(num_relations, num_nodes,
                                                   channels, data):
    # every node has exactly dbar in-neighbors under every relation
    dbar = data.draw(st.integers(1, num_nodes - 1))
    graph = circulant_graph(num_nodes, num_relations, dbar)
    p = GRMPParams.init(np.random.default_rng(0), num_relations, channels)
    z = Tensor(np.random.default_rng(1).normal(size=(num_nodes, channels)))
    with count_flops() as counter:
        grmp_forward(graph, z, p)
    assert counter.total == grmp_flops(num_relations, dbar, num_nodes, channels)


def test_a_checkpoint_cut_at_any_length_is_a_data_error(tmp_path):
    rng = np.random.default_rng(0)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, {"w": rng.normal(size=(3, 4)).astype(np.float32),
                           "b": rng.normal(size=5)})
    blob = path.read_bytes()
    assert set(load_checkpoint(path)) == {"w", "b"}
    for length in range(len(blob)):
        path.write_bytes(blob[:length])
        with pytest.raises(DataError):
            load_checkpoint(path)
