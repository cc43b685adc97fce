"""Property tests of the array graph builders against the brute-force oracles.

Inputs are small integers, so every distance and every angle cosine the
builders compute is exact and ties are common: the ranking and binning rules
are checked at their boundaries, not only on generic inputs.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from relmp.builders import PatchGrid, image_medium_edges, image_short_edges
from relmp.graph import RelGraph, build_line_graph
from relmp.oracles import knn_oracle, line_graph_oracle

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
