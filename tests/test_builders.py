"""Domain graph builders: patch grids, protein chains, triplet stores."""

import warnings

import numpy as np
import pytest

from relmp.builders import (
    AMINO_ACIDS,
    PROTEIN_RELATIONS,
    KGDataset,
    PatchGrid,
    ProteinChain,
    TripletStore,
    build_image_graph,
    fact_graph,
    image_medium_edges,
    image_short_edges,
    load_patch_grid,
    load_protein_chain,
    load_triplets,
    protein_edges,
    save_patch_grid,
    save_protein_chain,
    save_triplets,
)
from relmp.builders import _nearest_sources
from relmp.errors import ConfigError, DataError
from relmp.oracles import knn_oracle, neighbors_of, protein_edges_oracle


# -- patch grids and their binary format ---------------------------------------------


def test_patch_grid_shape_validation():
    with pytest.raises(DataError):
        PatchGrid(2, 2, np.zeros((3, 4)))
    with pytest.raises(DataError):
        PatchGrid(2, 2, np.full((4, 4), np.nan))


def test_patch_grid_binary_roundtrip(tmp_path):
    rng = np.random.default_rng(7)
    grid = PatchGrid(3, 5, rng.normal(size=(15, 8)).astype(np.float32))
    path = tmp_path / "grid.bin"
    save_patch_grid(path, grid)
    back = load_patch_grid(path)
    assert (back.height, back.width, back.channels) == (3, 5, 8)
    assert np.array_equal(back.features, grid.features)


def test_patch_grid_rejects_foreign_file(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 12)
    with pytest.raises(DataError):
        load_patch_grid(path)
    path.write_bytes(b"\x01\x02")
    with pytest.raises(DataError):
        load_patch_grid(path)


def test_patch_grid_rejects_truncated_payload(tmp_path):
    grid = PatchGrid(2, 2, np.zeros((4, 3), dtype=np.float32))
    path = tmp_path / "grid.bin"
    save_patch_grid(path, grid)
    data = path.read_bytes()
    path.write_bytes(data[:-4])
    with pytest.raises(DataError):
        load_patch_grid(path)


# -- short-range grid edges ------------------------------------------------------------


def test_short_edges_counts():
    # 2H(W-1) horizontal + 2W(H-1) vertical directed edges
    for h, w in [(1, 1), (1, 4), (2, 2), (4, 4), (3, 7)]:
        edges = image_short_edges(h, w)
        assert len(edges) == 2 * h * (w - 1) + 2 * w * (h - 1)


def test_short_edges_directions_on_center_patch():
    edges = set(map(tuple, image_short_edges(3, 3).tolist()))
    center = 4
    assert (1, center, 0) in edges       # message from the patch above
    assert (7, center, 1) in edges       # from below
    assert (3, center, 2) in edges       # from the left
    assert (5, center, 3) in edges       # from the right
    # corner patch 0 has only down and right sources
    incoming_to_corner = {(s, r) for (s, d, r) in edges if d == 0}
    assert incoming_to_corner == {(3, 1), (1, 3)}


def test_short_edges_in_degree_at_most_one_per_relation():
    edges = image_short_edges(5, 6)
    seen = set()
    for s, d, r in edges:
        assert (d, r) not in seen
        seen.add((d, r))


# -- medium-range feature neighbors ---------------------------------------------------


def test_medium_edges_zero_k_and_single_window():
    rng = np.random.default_rng(0)
    grid = PatchGrid(4, 4, rng.normal(size=(16, 3)))
    assert image_medium_edges(grid, 0).shape == (0, 3)
    # a 2x2 grid is one window: every candidate is excluded
    small = PatchGrid(2, 2, rng.normal(size=(4, 3)))
    assert image_medium_edges(small, 5).shape == (0, 3)
    with pytest.raises(ConfigError):
        image_medium_edges(grid, -1)


def test_medium_edges_match_bruteforce_oracle():
    rng = np.random.default_rng(11)
    cases = []
    for trial in range(5):
        h, w = rng.integers(2, 6), rng.integers(2, 6)
        cases.append((int(rng.integers(1, 6)),
                      PatchGrid(h, w, rng.normal(size=(h * w, 4)))))
    # 289 patches span two blocks of ranked destination columns; small
    # integer features give exact distances and many ties
    cases.append((4, PatchGrid(17, 17, rng.integers(0, 3, size=(289, 2)))))
    for k, grid in cases:
        edges = image_medium_edges(grid, k)
        assert np.all(np.diff(edges[:, 1]) >= 0)   # destination-major
        got = sorted((s, d) for (s, d, r) in edges.tolist())
        assert got == knn_oracle(grid.features, grid.height, grid.width, k)


def test_medium_edges_tie_break_is_ascending_index():
    # identical features make every distance tie; ranks fall back to index
    grid = PatchGrid(2, 4, np.ones((8, 3)))
    edges = image_medium_edges(grid, 3)
    by_dst = {}
    for s, d, r in edges:
        by_dst.setdefault(d, []).append(s)
    # patch 0 lives in window {0,1,4,5}; nearest allowed are 2,3,6
    assert by_dst[0] == [2, 3, 6]
    assert by_dst[2] == [0, 1, 4]


def _ranked_by_full_sort(dist, allowed, count):
    """`_nearest_sources` as one stable full sort of every column."""
    ranked = np.lexsort((dist, ~allowed), axis=0)[:count]
    dst, rank = np.nonzero(np.take_along_axis(allowed, ranked, axis=0).T)
    return rank, ranked[rank, dst], dst


def test_nearest_sources_ties_at_the_kth_distance_match_a_full_sort():
    # integer distances from integer features tie often, also at the K-th
    # distance, where a partial sort alone may pick any of the tied rows;
    # some columns have fewer allowed rows than K, and some none
    rng = np.random.default_rng(21)
    for trial in range(300):
        rows, cols = int(rng.integers(1, 25)), int(rng.integers(1, 9))
        feats = rng.integers(0, int(rng.integers(1, 4)), size=(rows + cols, 2))
        dist = ((feats[:rows, None] - feats[rows:]) ** 2).sum(axis=2).astype(float)
        allowed = rng.random((rows, cols)) < rng.random()
        for count in {1, int(rng.integers(1, rows + 1)), rows, rows + 2}:
            got = _nearest_sources(dist, allowed, count)
            want = _ranked_by_full_sort(dist, allowed, count)
            for a, b in zip(got, want):
                assert np.array_equal(a, b), (trial, count)


def test_medium_edges_k_larger_than_candidates():
    rng = np.random.default_rng(3)
    grid = PatchGrid(2, 4, rng.normal(size=(8, 2)))
    edges = image_medium_edges(grid, 100)
    by_dst = {}
    for s, d, r in edges:
        by_dst.setdefault(d, set()).add(s)
    for v in range(8):
        assert len(by_dst[v]) == 4  # 8 patches minus the 4 in v's own window


# -- the combined image graph --------------------------------------------------------


def test_build_image_graph_stage_one_layout():
    rng = np.random.default_rng(5)
    grid = PatchGrid(4, 4, rng.normal(size=(16, 6)))
    graph, names = build_image_graph(grid, k_medium=12, include_medium=False)
    assert names == ["up", "down", "left", "right", "long_global", "long_context"]
    p = 16
    assert graph.num_nodes == 2 * p + 1
    rel_global, rel_context = 4, 5
    edges = graph.edge_list()
    for v in range(p):
        assert neighbors_of(edges, v, rel_global) == [p]
        assert neighbors_of(edges, v, rel_context) == [p + 1 + v]
    # virtual nodes never receive messages
    for node in range(p, 2 * p + 1):
        for r in range(graph.num_relations):
            assert neighbors_of(edges, node, r) == []
    # short edges: 48 on a 4x4 grid, plus 16 global and 16 context
    assert graph.num_edges == 48 + 16 + 16


def test_build_image_graph_with_medium_relation():
    rng = np.random.default_rng(9)
    grid = PatchGrid(4, 4, rng.normal(size=(16, 6)))
    graph, names = build_image_graph(grid, k_medium=3, include_medium=True)
    assert names == ["up", "down", "left", "right", "medium",
                     "long_global", "long_context"]
    want = sorted((s, d) for (s, d, _) in image_medium_edges(grid, 3))
    got = sorted((s, d) for (s, d, r) in graph.edge_list() if r == 4)
    assert got == want


# -- protein chains --------------------------------------------------------------------


def _collinear_chain(length=3, spacing=3.8):
    coords = np.zeros((length, 3))
    coords[:, 0] = spacing * np.arange(length)
    return ProteinChain("A" * length, coords)


def _relation_edges(graph, rel):
    return sorted((s, d) for (s, d, r) in graph.edge_list() if r == rel)


def test_protein_chain_validation():
    with pytest.raises(DataError):
        ProteinChain("AB", np.zeros((2, 3)))  # B is not an amino-acid code
    with pytest.raises(DataError):
        ProteinChain("AA", np.zeros((3, 3)))
    with pytest.raises(DataError):
        ProteinChain("AA", np.full((2, 3), np.inf))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # finite, but a squared distance overflows: in a square, in a
        # difference, in the sum of squares
        for first, last in [([1e200, 0, 0], [0, 3, 0]),
                            ([1e308, 0, 0], [-1e308, 3, 0]),
                            ([1e154, 1e154, 1e154], [0, 3, 0])]:
            with pytest.raises(DataError, match="overflow float64"):
                ProteinChain("AGA", np.array([first, [0, 0, 0], last], float))
        wide = ProteinChain("AGA", np.array([[1e150, 0, 0], [0, 0, 0], [0, 3, 0]]))
        assert protein_edges(wide)[0].num_edges == 14
    chain = _collinear_chain()
    hot = chain.one_hot()
    assert hot.shape == (3, len(AMINO_ACIDS))
    assert np.array_equal(hot.sum(axis=1), np.ones(3))
    assert hot[0, 0] == 1.0


def test_protein_edges_three_residue_line():
    graph, names = protein_edges(_collinear_chain())
    assert names == list(PROTEIN_RELATIONS)
    assert graph.num_nodes == 4          # three residues plus the summary node
    # sequence offsets: -2 has one pair, -1 two, 0 three, +1 two, +2 one
    assert _relation_edges(graph, 0) == [(0, 2)]
    assert _relation_edges(graph, 1) == [(0, 1), (1, 2)]
    assert _relation_edges(graph, 2) == [(0, 0), (1, 1), (2, 2)]
    assert _relation_edges(graph, 3) == [(1, 0), (2, 1)]
    assert _relation_edges(graph, 4) == [(2, 0)]
    # at 3.8 A spacing every pair sits within the 10 A shell
    assert _relation_edges(graph, 5) == [(0, 1), (0, 2), (1, 0),
                                         (1, 2), (2, 0), (2, 1)]
    assert _relation_edges(graph, 6) == []
    assert _relation_edges(graph, 7) == []
    assert _relation_edges(graph, 8) == [(3, 0), (3, 1), (3, 2)]
    assert graph.num_edges == 9 + 6 + 0 + 3


def test_protein_edges_single_residue():
    graph, _ = protein_edges(_collinear_chain(length=1))
    assert graph.num_nodes == 2
    # one self edge on the offset-0 relation and one virtual edge
    assert graph.num_edges == 2
    assert _relation_edges(graph, 2) == [(0, 0)]
    assert _relation_edges(graph, 8) == [(1, 0)]


def test_protein_edges_match_bruteforce_oracle():
    rng = np.random.default_rng(21)
    chains = []
    for trial in range(5):
        length = int(rng.integers(8, 31))
        coords = rng.normal(size=(length, 3)) * 9.0
        chains.append(ProteinChain("".join(rng.choice(list(AMINO_ACIDS), size=length)),
                                   coords))
    # integer spacing puts residues v-k and v+k at exactly the same distance
    # from v, so the medium bands fall back on the index tie-break
    chains.append(_collinear_chain(length=24, spacing=4.0))
    for chain in chains:
        graph, _ = protein_edges(chain)
        want = protein_edges_oracle(chain.coords)
        key_for = {0: "seq-2", 1: "seq-1", 2: "seq+0", 3: "seq+1", 4: "seq+2",
                   5: "radius", 6: "medium_a", 7: "medium_b", 8: "virtual"}
        for rel, key in key_for.items():
            assert _relation_edges(graph, rel) == want[key], key


def test_protein_medium_bands_split_by_rank():
    # a straight chain at 6 A spacing: for residue 0 the shell candidates are
    # residues 6.. (sequence distance > 5) at 36, 42, 48, ... A, all beyond
    # the 10 A shell, so ranks follow sequence order exactly.
    graph, _ = protein_edges(_collinear_chain(length=20, spacing=6.0))
    near = {s for (s, d) in _relation_edges(graph, 6) if d == 0}
    far = {s for (s, d) in _relation_edges(graph, 7) if d == 0}
    assert near == {6, 7, 8, 9, 10}
    assert far == {11, 12, 13, 14, 15}


def test_protein_graph_rigid_motion_invariance():
    rng = np.random.default_rng(33)
    length = 25
    coords = rng.normal(size=(length, 3)) * 8.0
    seq = "".join(rng.choice(list(AMINO_ACIDS), size=length))
    base, _ = protein_edges(ProteinChain(seq, coords))
    for trial in range(10):
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        if trial % 2:
            q[:, 0] = -q[:, 0]  # include reflections
        shift = rng.normal(size=3) * 50.0
        moved, _ = protein_edges(ProteinChain(seq, coords @ q.T + shift))
        assert moved.edge_list() == base.edge_list()


def test_protein_chain_file_roundtrip(tmp_path):
    rng = np.random.default_rng(4)
    chain = ProteinChain("MKVW", rng.normal(size=(4, 3)))
    path = tmp_path / "chain.txt"
    save_protein_chain(path, chain)
    back = load_protein_chain(path)
    assert back.sequence == "MKVW"
    assert np.allclose(back.coords, chain.coords, atol=1e-5)


def test_protein_chain_file_rejects_malformed(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0 A 1.0 2.0\n")          # missing a coordinate
    with pytest.raises(DataError):
        load_protein_chain(path)
    path.write_text("1 A 1.0 2.0 3.0\n")      # indices must start at zero
    with pytest.raises(DataError):
        load_protein_chain(path)
    path.write_text("0 Z 1.0 2.0 3.0\n")      # unknown residue code
    with pytest.raises(DataError):
        load_protein_chain(path)
    path.write_text("# only a comment\n")
    with pytest.raises(DataError):
        load_protein_chain(path)


def test_protein_chain_file_rejects_non_utf8_with_its_line(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"0 A 1.0 2.0 3.0\n1 \xff 1.0 2.0 3.0\n")
    with pytest.raises(DataError, match="not UTF-8") as err:
        load_protein_chain(path)
    assert str(err.value).startswith(f"{path}:2: ")


# -- knowledge-graph triplet stores ----------------------------------------------------


def _write_tsv(path, rows):
    path.write_text("".join(f"{h}\t{r}\t{t}\n" for h, r, t in rows))


def test_load_triplets_shared_vocabulary(tmp_path):
    _write_tsv(tmp_path / "train.tsv", [("a", "likes", "b"), ("b", "likes", "c")])
    _write_tsv(tmp_path / "valid.tsv", [("c", "knows", "a")])
    _write_tsv(tmp_path / "test.tsv", [("d", "likes", "a")])
    data = load_triplets(tmp_path / "train.tsv", tmp_path / "valid.tsv",
                         tmp_path / "test.tsv")
    assert data.num_entities == 4                  # d appears only in test
    assert data.relations == ["likes", "knows"]
    assert data.num_relations == 4                 # doubled for inverses
    assert data.train.triplets.tolist() == [[0, 0, 1], [1, 0, 2]]
    assert data.valid.triplets.tolist() == [[2, 1, 0]]
    assert data.test.triplets.tolist() == [[3, 0, 0]]
    assert data.train.triplets.dtype == np.int64


def test_load_triplets_tolerates_blank_and_comment_lines(tmp_path):
    (tmp_path / "train.tsv").write_text("a\tr\tb\n\n# note\nb\tr\tc\n")
    _write_tsv(tmp_path / "valid.tsv", [("a", "r", "c")])
    _write_tsv(tmp_path / "test.tsv", [("c", "r", "a")])
    data = load_triplets(tmp_path / "train.tsv", tmp_path / "valid.tsv",
                         tmp_path / "test.tsv")
    assert len(data.train.triplets) == 2


def test_load_triplets_rejects_wrong_columns(tmp_path):
    (tmp_path / "train.tsv").write_text("a\tr\n")
    _write_tsv(tmp_path / "valid.tsv", [("a", "r", "c")])
    _write_tsv(tmp_path / "test.tsv", [("c", "r", "a")])
    with pytest.raises(DataError):
        load_triplets(tmp_path / "train.tsv", tmp_path / "valid.tsv",
                      tmp_path / "test.tsv")


def test_load_triplets_rejects_non_utf8_with_its_line(tmp_path):
    _write_tsv(tmp_path / "train.tsv", [("a", "r", "b")])
    (tmp_path / "valid.tsv").write_bytes(b"# note\na\tr\tc\nb\tr\t\xff\n")
    with pytest.raises(DataError, match="not UTF-8") as err:
        load_triplets(tmp_path / "train.tsv", tmp_path / "valid.tsv")
    assert str(err.value).startswith(f"{tmp_path / 'valid.tsv'}:3: ")


def test_load_triplets_scales_to_thousands_of_rows(tmp_path):
    rng = np.random.default_rng(17)
    rows = [(f"e{rng.integers(500)}", f"r{rng.integers(40)}",
             f"e{rng.integers(500)}") for _ in range(5000)]
    _write_tsv(tmp_path / "train.tsv", rows)
    _write_tsv(tmp_path / "valid.tsv", rows[:100])
    _write_tsv(tmp_path / "test.tsv", rows[100:200])
    data = load_triplets(tmp_path / "train.tsv", tmp_path / "valid.tsv",
                         tmp_path / "test.tsv")
    assert len(data.train.triplets) == 5000
    graph = fact_graph(data.train)
    assert graph.num_relations == data.num_relations


def test_fact_graph_adds_inverses():
    store = TripletStore(3, 4, [(0, 0, 1), (1, 1, 2)])
    # each triple, then its inverse (t, r + R/2, h)
    assert store.with_inverses().tolist() == [[0, 0, 1], [1, 2, 0],
                                              [1, 1, 2], [2, 3, 1]]
    graph = fact_graph(store)
    assert graph.num_nodes == 3 and graph.num_relations == 4
    assert graph.edge_list() == sorted({(0, 1, 0), (1, 0, 2),
                                        (1, 2, 1), (2, 1, 3)},
                                       key=lambda e: (e[2], e[1], e[0]))


def test_fact_graph_dedupes_repeated_triples():
    once = fact_graph(TripletStore(3, 2, [(0, 0, 1)]))
    twice = fact_graph(TripletStore(3, 2, [(0, 0, 1), (0, 0, 1)]))
    assert once.edge_list() == twice.edge_list()


def test_triplet_store_validates_ranges():
    with pytest.raises(DataError):
        TripletStore(2, 2, [(0, 0, 5)])
    with pytest.raises(DataError):
        TripletStore(2, 2, [(0, 1, 1)])  # relation 1 is reserved for inverses
    TripletStore(2, 6, [(0, 2, 1)])  # the last original relation is legal
    assert TripletStore(2, 2, []).triplets.shape == (0, 3)
    # the message names the first bad row
    with pytest.raises(DataError, match=r"triple \(1, 0, 2\) is out of range"):
        TripletStore(2, 2, [(0, 0, 1), (1, 0, 2), (-1, 0, 0)])
    # shapes other than (n, 3) are refused, never read three numbers at a time
    with pytest.raises(DataError, match=r"shape \(n, 3\), not \(2, 2\)"):
        TripletStore(2, 2, np.zeros((2, 2), dtype=np.int64))
    with pytest.raises(DataError, match=r"not \(6,\)"):
        TripletStore(2, 2, [0, 0, 1, 1, 0, 0])
    with pytest.raises(DataError, match="relation, tail"):
        TripletStore(2, 2, [(0, 0, 1), (1, 0)])   # ragged rows
    # a value that int64 conversion would change is refused, not truncated
    for bad, value in [([(0.5, 0, 1.9)], "0.5"), ([(0, 0, 1.9)], "1.9"),
                       ([(0, 0, np.nan)], "nan"), ([(2.0 ** 63, 0, 0)], r"9\.2"),
                       (np.array([[0, 0, 2 ** 63]], dtype=np.uint64), str(2 ** 63)),
                       ([("1", "0", "1")], "'1'")]:
        with pytest.raises(DataError, match=f"triple value {value}.* is not an "
                                            "integer in int64 range"):
            TripletStore(3, 2, bad)
    # integral floats are exact and kept
    assert TripletStore(3, 2, [(1.0, 0, 2.0)]).triplets.tolist() == [[1, 0, 2]]


def test_save_triplets_roundtrip(tmp_path):
    _write_tsv(tmp_path / "train.tsv", [("a", "likes", "b"), ("b", "likes", "c")])
    _write_tsv(tmp_path / "valid.tsv", [("a", "likes", "c")])
    _write_tsv(tmp_path / "test.tsv", [("c", "likes", "a")])
    data = load_triplets(tmp_path / "train.tsv", tmp_path / "valid.tsv",
                         tmp_path / "test.tsv")
    out = tmp_path / "copy.tsv"
    save_triplets(out, data.train, data.entities, data.relations)
    assert out.read_text() == (tmp_path / "train.tsv").read_text()
