"""Relational graph structure, aggregation, line graphs, edge-list files."""

import tracemalloc

import numpy as np
import pytest
from scipy.sparse import csr_matrix

from relmp import tensor as tensor_module
from relmp.errors import DataError, GraphError, ShapeError
from relmp.graph import (RelGraph, build_line_graph, load_edge_list,
                         rel_aggregate, save_edge_list, weighted_aggregate)
from relmp.oracles import aggregate_oracle, line_graph_oracle, neighbors_of
from relmp.tensor import Tensor, default_dtype
from test_layers import reference_weighted_sum


def random_graph(rng, num_nodes, num_relations, num_edges):
    triples = set()
    while len(triples) < num_edges:
        triples.add((int(rng.integers(num_nodes)), int(rng.integers(num_nodes)),
                     int(rng.integers(num_relations))))
    return RelGraph(num_nodes, num_relations, sorted(triples))


class TestRelGraphConstruction:
    def test_rejects_out_of_range_node(self):
        for edges in ([(0, 2, 0)], np.array([[0, 2, 0]]), [(2**70, 0, 0)]):
            with pytest.raises(GraphError):
                RelGraph(2, 1, edges)

    def test_rejects_out_of_range_relation(self):
        for edges in ([(0, 1, 1)], np.array([[0, 1, 1]])):
            with pytest.raises(GraphError):
                RelGraph(2, 1, edges)

    def test_rejects_duplicate_edge(self):
        for edges in ([(0, 1, 0), (0, 1, 0)], np.array([[0, 1, 0], [0, 1, 0]])):
            with pytest.raises(GraphError):
                RelGraph(2, 1, edges)

    def test_rejects_edges_not_shaped_e_by_3(self):
        # three pairs hold six numbers but must not be re-read as two triples
        for edges in ([(0, 1)], [(0, 1), (1, 0), (0, 0)], np.zeros((2, 2), int),
                      [(0, 1, 0), (1, 0)]):
            with pytest.raises(GraphError):
                RelGraph(2, 1, edges)

    def test_rejects_non_integer_values(self):
        # int64 conversion would truncate both to the edge (0, 1, 0)
        for edges in ([(0.5, 1, 0)], np.array([[0.9, 1, 0]])):
            with pytest.raises(GraphError, match="not an integer"):
                RelGraph(2, 1, edges)
        # integral floats convert exactly and stay accepted
        assert RelGraph(2, 1, np.array([[0.0, 1.0, 0.0]])).edge_list() == [(0, 1, 0)]

    def test_empty_array_gives_edgeless_graph(self):
        g = RelGraph(3, 2, np.zeros((0, 3), dtype=np.int64))
        assert g.num_edges == 0 and g.edge_list() == []
        # every slot is empty, so every aggregated row is zero
        out = rel_aggregate(g, Tensor(np.ones((3, 4))))
        assert out.shape == (6, 4) and not out.data.any()

    def test_allows_self_loop(self):
        g = RelGraph(2, 1, [(0, 0, 0)])
        assert g.edge_list() == [(0, 0, 0)]
        assert rel_aggregate(g, Tensor([[2.0], [5.0]])).data.tolist() == [[2.0], [0.0]]

    def test_neighbors_sorted_ascending(self):
        g = RelGraph(4, 1, [(3, 0, 0), (1, 0, 0), (2, 0, 0)])
        assert g.edge_list() == [(1, 0, 0), (2, 0, 0), (3, 0, 0)]

    def test_canonical_edge_order_independent_of_input_order(self):
        edges = [(3, 0, 0), (1, 2, 1), (0, 1, 0), (2, 2, 1)]
        g1 = RelGraph(4, 2, edges)
        g2 = RelGraph(4, 2, list(reversed(edges)))
        g3 = RelGraph(4, 2, np.array(edges[::2] + edges[1::2]))
        assert g1.edge_list() == g2.edge_list() == g3.edge_list()
        assert g1.edge_list() == sorted(edges, key=lambda e: (e[2], e[1], e[0]))


class TestRelAggregate:
    def test_two_node_cycle(self):
        g = RelGraph(2, 1, [(0, 1, 0), (1, 0, 0)])
        out = rel_aggregate(g, Tensor([[1.0], [3.0]]))
        assert np.array_equal(out.data, [[3.0], [1.0]])

    def test_empty_neighborhood_gives_zero_row(self):
        g = RelGraph(3, 2, [(0, 1, 0)])
        out = rel_aggregate(g, Tensor(np.ones((3, 2))))
        # node-major rows: v*R + r; only slot (v=1, r=0) is populated
        assert np.array_equal(out.data[1 * 2 + 0], [1.0, 1.0])
        mask = np.ones(6, dtype=bool)
        mask[1 * 2 + 0] = False
        assert np.all(out.data[mask] == 0.0)

    def test_mean_normalization(self):
        g = RelGraph(4, 1, [(0, 3, 0), (1, 3, 0), (2, 3, 0)])
        with default_dtype(np.float64):
            out = rel_aggregate(g, Tensor([[1.0], [2.0], [4.0], [0.0]]))
        assert np.isclose(out.data[3, 0], 7.0 / 3.0)

    def test_against_dense_oracle(self):
        rng = np.random.default_rng(10)
        for trial in range(6):
            g = random_graph(rng, 8, 3, 30)
            z = rng.normal(size=(8, 5))
            with default_dtype(np.float64):
                out = rel_aggregate(g, Tensor(z))
            want = aggregate_oracle(8, 3, g.edge_list(), z)
            assert np.allclose(out.data, want, rtol=1e-12, atol=1e-12)

    def test_node_relabeling_permutes_slots(self):
        rng = np.random.default_rng(11)
        g = random_graph(rng, 6, 2, 14)
        z = rng.normal(size=(6, 3))
        perm = rng.permutation(6)
        relabeled = RelGraph(6, 2, [(perm[s], perm[d], r) for s, d, r in g.edge_list()])
        z_perm = np.zeros_like(z)
        z_perm[perm] = z
        with default_dtype(np.float64):
            base = rel_aggregate(g, Tensor(z)).data
            moved = rel_aggregate(relabeled, Tensor(z_perm)).data
        for v in range(6):
            for r in range(2):
                assert np.allclose(base[v * 2 + r], moved[perm[v] * 2 + r])

    def test_deterministic_bits_across_runs(self):
        rng = np.random.default_rng(14)
        edges = random_graph(rng, 30, 3, 150).edge_list()
        z = rng.normal(size=(30, 8)).astype(np.float32)
        outs = []
        for _ in range(2):
            shuffled = list(edges)
            np.random.default_rng(99).shuffle(shuffled)
            g = RelGraph(30, 3, shuffled)
            outs.append(rel_aggregate(g, Tensor(z)).data.tobytes())
        assert outs[0] == outs[1]

    def test_summation_order_pinned_bitwise(self):
        # float32 sums depend on their order: the forward adds each slot's
        # sources in ascending index order and divides by the degree; the
        # backward adds edge contributions in (rel, dst, src) order
        from relmp.tensor import hadamard, sum_all
        rng = np.random.default_rng(17)
        v_count, r_count, c = 12, 3, 6
        g = random_graph(rng, v_count, r_count, 90)
        z = Tensor(rng.normal(size=(v_count, c)).astype(np.float32), requires_grad=True)
        gy = rng.normal(size=(v_count * r_count, c)).astype(np.float32)
        y = rel_aggregate(g, z)
        sum_all(hadamard(y, Tensor(gy))).backward()
        edges = g.edge_list()
        degree = {(v, r): len(neighbors_of(edges, v, r))
                  for v in range(v_count) for r in range(r_count)}
        want_y = np.zeros((v_count * r_count, c), dtype=np.float32)
        for v in range(v_count):
            for r in range(r_count):
                for u in neighbors_of(edges, v, r):
                    want_y[v * r_count + r] += z.data[u]
                if degree[v, r]:
                    want_y[v * r_count + r] /= np.float32(degree[v, r])
        want_grad = np.zeros((v_count, c), dtype=np.float32)
        for s, d, r in sorted(edges, key=lambda e: (e[2], e[1], e[0])):
            want_grad[s] += gy[d * r_count + r] / np.float32(degree[d, r])
        assert y.data.dtype == z.grad.dtype == np.float32
        assert y.data.tobytes() == want_y.tobytes()
        assert z.grad.tobytes() == want_grad.tobytes()

    def test_operators_are_built_once_per_dtype(self, monkeypatch):
        # float32 -> float64 -> float32 on one graph must give what a freshly
        # built graph gives each time, and the repeat dtype builds nothing new
        from relmp import graph as graph_module
        from relmp.tensor import hadamard, sum_all
        built = []
        original = graph_module.csr_matrix

        def counting_csr(*args, **kwargs):
            built.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(graph_module, "csr_matrix", counting_csr)
        rng = np.random.default_rng(18)
        edges = random_graph(rng, 10, 3, 40).edge_list()
        z = rng.normal(size=(10, 4))
        gy = rng.normal(size=(30, 4))
        shared = RelGraph(10, 3, edges)

        def run(graph, dtype):
            with default_dtype(dtype):
                zt = Tensor(z, requires_grad=True)
                y = rel_aggregate(graph, zt)
                sum_all(hadamard(y, Tensor(gy))).backward()
            return y.data, zt.grad

        for dtype, builds in ((np.float32, 1), (np.float64, 1), (np.float32, 0)):
            before = len(built)
            got = run(shared, dtype)
            assert len(built) - before == builds
            want = run(RelGraph(10, 3, edges), dtype)
            for a, b in zip(got, want):
                assert a.dtype == b.dtype == dtype
                assert a.tobytes() == b.tobytes()
        assert set(shared._ops) == {np.dtype(np.float32), np.dtype(np.float64)}

    def test_row_count_mismatch(self):
        g = RelGraph(3, 1, [(0, 1, 0)])
        with pytest.raises(ShapeError):
            rel_aggregate(g, Tensor(np.ones((4, 2))))


def virtual_node_graph(p, r):
    """2p + 1 nodes with edges into the first p only, as in the image graph:
    patch v hears a patch and its context node p + 1 + v on every relation,
    and the global node p on relation 0."""
    edges = {((3 * v + k + 1) % p, v, k) for v in range(p) for k in range(r)}
    edges |= {(p + 1 + v, v, k) for v in range(p) for k in range(r)}
    edges |= {(p, v, 0) for v in range(p)}
    return RelGraph(2 * p + 1, r, sorted(edges))


def full_slot_aggregate(graph, z):
    """`rel_aggregate` over a slot for every (relation, node) pair, the slots
    of nodes that receive no edge included, as one recorded op."""
    v, r, c = graph.num_nodes, graph.num_relations, z.shape[1]
    src, dst, rel = np.array(graph.edge_list(), dtype=np.int64).reshape(-1, 3).T
    counts = np.bincount(rel * v + dst, minlength=r * v)
    adj = csr_matrix((np.ones(src.size, z.data.dtype), src,
                      np.concatenate([[0], np.cumsum(counts)])), shape=(r * v, v))
    deg = np.maximum(counts, 1).reshape(-1, 1).astype(z.data.dtype)
    out = ((adj @ z.data) / deg).reshape(r, v, c).transpose(1, 0, 2).reshape(-1, c)
    nz = z._node

    def backward(g):
        g_rv = g.reshape(v, r, c).transpose(1, 0, 2).reshape(-1, c)
        nz._accumulate(adj.T @ (g_rv / deg))

    return tensor_module._result(np.ascontiguousarray(out), "rel_aggregate",
                                 (z,), backward)


class TestDestinationRows:
    """The aggregation ops compute the rows that receive an edge, below
    `num_dst`, and write zeros in the others."""

    def test_destination_rows_end_after_the_last_edge_target(self):
        assert RelGraph(5, 2, [(4, 1, 0), (0, 2, 1)]).num_dst == 3
        assert RelGraph(5, 2, []).num_dst == 0
        assert virtual_node_graph(6, 3).num_dst == 6

    @pytest.mark.parametrize("weighted", [False, True],
                             ids=["rel_aggregate", "weighted_aggregate"])
    def test_equals_the_full_slot_matrix(self, weighted):
        from relmp.tensor import hadamard, sum_all
        rng = np.random.default_rng(50)
        g = virtual_node_graph(7, 3)
        v, r, c = g.num_nodes, g.num_relations, 5
        rows = v if weighted else v * r
        draws = [rng.normal(size=s).astype(np.float32)
                 for s in [(v, c), (v, r), (1, r * c), (rows, c)]]
        runs = []
        for full in (False, True):
            z, scores, channel = (Tensor(d, requires_grad=True) for d in draws[:3])
            aggregate = full_slot_aggregate if full else rel_aggregate
            if not weighted:
                out = aggregate(g, z)
            elif full:
                out = reference_weighted_sum(aggregate(g, z), scores, channel)
            else:
                out = weighted_aggregate(g, z, scores, channel)
            sum_all(hadamard(out, Tensor(draws[3]))).backward()
            runs.append([out.data, z.grad]
                        + ([scores.grad, channel.grad] if weighted else []))
        got, want = runs
        dst_rows = g.num_dst * (1 if weighted else r)
        assert got[0][:dst_rows].tobytes() == want[0][:dst_rows].tobytes()
        assert np.all(got[0][dst_rows:] == 0)
        for a, b in zip(got, want):
            assert a.dtype == np.float32
            assert np.array_equal(a, b)

    def test_backward_scratch_covers_destination_rows_only(self):
        # the backward's two [R, V_dst, C] buffers, not [R, V, C]: here V is
        # 2P + 1, so two buffers over all V rows alone exceed the bound
        p, r, c = 3000, 4, 16
        g = virtual_node_graph(p, r)
        v = g.num_nodes
        rng = np.random.default_rng(51)
        z, scores, channel = (Tensor(rng.normal(size=s), requires_grad=True)
                              for s in [(v, c), (v, r), (1, r * c)])
        upstream = np.ones((v, c), dtype=np.float32)
        weighted_aggregate(g, z, scores, channel)._node.backward(upstream)
        for t in (z, scores, channel):
            t.zero_grad()
        out = weighted_aggregate(g, z, scores, channel)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out._node.backward(upstream)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        item = np.dtype(np.float32).itemsize
        assert peak < (2 * r * p * c + 2 * v * c) * item, peak


class TestLineGraph:
    def test_right_angle_bin(self):
        # two chained unit steps turning 90 degrees: bin 4 of 8
        coords = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 1.0, 0.0]])
        g = RelGraph(3, 1, [(0, 1, 0), (1, 2, 0)])
        lg = build_line_graph(g, coords, num_bins=8)
        assert lg.num_nodes == 2
        assert lg.num_relations == 8
        assert lg.edge_list() == [(0, 1, 4)]

    def test_reverse_pair_falls_in_the_top_bin(self):
        coords = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        g = RelGraph(2, 1, [(0, 1, 0), (1, 0, 0)])
        lg = build_line_graph(g, coords, num_bins=8)
        assert sorted(lg.edge_list()) == [(0, 1, 7), (1, 0, 7)]

    def test_self_pair_excluded_and_zero_length_bin(self):
        # self-loop at node 0 chains into (0,1); zero-length displacement -> bin 0
        coords = np.array([[0.0, 0.0], [2.0, 0.0]])
        g = RelGraph(2, 1, [(0, 0, 0), (0, 1, 0)])
        lg = build_line_graph(g, coords, num_bins=8)
        # edge ids in canonical order: (0,0,0) is 0, (0,1,0) is 1
        assert (0, 0, 0) not in lg.edge_list()
        assert (0, 1, 0) in lg.edge_list()

    def test_against_brute_force_oracle(self):
        rng = np.random.default_rng(15)
        for trial in range(5):
            g = random_graph(rng, 7, 2, 16)
            coords = rng.normal(size=(7, 3))
            lg = build_line_graph(g, coords, num_bins=8)
            want = line_graph_oracle(g.edge_list(), coords, num_bins=8)
            assert sorted(lg.edge_list()) == want

    def test_bin_count_sets_relation_count(self):
        g = RelGraph(2, 1, [(0, 1, 0)])
        lg = build_line_graph(g, np.zeros((2, 3)), num_bins=5)
        assert lg.num_relations == 5


class TestEdgeListFiles:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(16)
        g = random_graph(rng, 9, 4, 20)
        path = tmp_path / "graph.tsv"
        save_edge_list(path, g, comments=["demo graph"])
        back = load_edge_list(path)
        assert back.num_nodes == 9 and back.num_relations == 4
        assert back.edge_list() == g.edge_list()

    def test_isolated_trailing_node_preserved(self, tmp_path):
        g = RelGraph(5, 2, [(0, 1, 0)])
        path = tmp_path / "graph.tsv"
        save_edge_list(path, g, [])
        assert load_edge_list(path).num_nodes == 5

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("0\t1\n", encoding="utf-8")
        with pytest.raises(DataError):
            load_edge_list(path)

    def test_non_integer_field_rejected(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("0\tx\t0\n", encoding="utf-8")
        with pytest.raises(DataError):
            load_edge_list(path)

    def test_non_utf8_byte_rejected_with_its_line(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_bytes(b"0\t1\t0\n\xff\n")
        with pytest.raises(DataError, match="not UTF-8") as err:
            load_edge_list(path)
        assert str(err.value).startswith(f"{path}:2: ")
