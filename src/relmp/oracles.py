"""Independent reference implementations used to cross-check the library.

Everything here is deliberately naive: explicit Python loops and dense numpy
arrays, no shared code with the package internals. Each oracle recomputes a
quantity the library produces through a different route (sparse structures,
stacked matmuls, recorded ops), so agreement is meaningful evidence. This
module imports numpy and nothing from relmp; both `relmp verify` and the test
suite check the library against it.
"""

import numpy as np


def matmul_oracle(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n), dtype=np.float64)
    for i in range(m):
        for j in range(n):
            s = 0.0
            for t in range(k):
                s += float(a[i, t]) * float(b[t, j])
            out[i, j] = s
    return out


def depthwise_conv_oracle(x: np.ndarray, kern: np.ndarray) -> np.ndarray:
    h, w, c = x.shape
    k = kern.shape[0]
    pad = k // 2
    out = np.zeros_like(x, dtype=np.float64)
    for i in range(h):
        for j in range(w):
            for ch in range(c):
                s = 0.0
                for di in range(k):
                    for dj in range(k):
                        ii, jj = i + di - pad, j + dj - pad
                        if 0 <= ii < h and 0 <= jj < w:
                            s += float(x[ii, jj, ch]) * float(kern[di, dj, ch])
                out[i, j, ch] = s
    return out


def dense_adjacency(num_nodes: int, num_relations: int, edges) -> np.ndarray:
    """Dense mean-normalized adjacency, columns grouped node-major: column
    v*R + r weights the in-neighborhood of node v under relation r."""
    a = np.zeros((num_nodes, num_relations * num_nodes), dtype=np.float64)
    degs = {}
    for (s, d, r) in edges:
        degs[(d, r)] = degs.get((d, r), 0) + 1
    for (s, d, r) in edges:
        a[s, d * num_relations + r] = 1.0 / degs[(d, r)]
    return a


def aggregate_oracle(num_nodes, num_relations, edges, z: np.ndarray) -> np.ndarray:
    """Slot means via the dense adjacency transpose."""
    a = dense_adjacency(num_nodes, num_relations, edges)
    return a.T @ z.astype(np.float64)


def neighbors_of(edges, v, r):
    return sorted(s for (s, d, rr) in edges if d == v and rr == r)


def rgconv_oracle(num_nodes, num_relations, edges, z, w_stack, b_stack,
                  w_self, b_self) -> np.ndarray:
    """Literal per-node double loop of the relational convolution.

    w_stack rows r*C..(r+1)*C hold relation r's matrix (right-multiplying row
    features). Relation biases are added once per node, matching the layer's
    convention; the self bias likewise.
    """
    z = z.astype(np.float64)
    v_count, c = z.shape
    out = np.zeros_like(z)
    for v in range(v_count):
        acc = z[v] @ w_self.astype(np.float64) + b_self.astype(np.float64)
        for r in range(num_relations):
            w_r = w_stack[r * c:(r + 1) * c].astype(np.float64)
            nb = neighbors_of(edges, v, r)
            if nb:
                mean_msg = np.zeros(c)
                for u in nb:
                    mean_msg += z[u] @ w_r
                acc += mean_msg / len(nb)
            acc += b_stack[r].astype(np.float64)
        out[v] = acc
    return out


def grmp_oracle(num_nodes, num_relations, edges, z, w_self, w_channel,
                w_in=None, b_in=None, w_out=None, b_out=None,
                w_alpha=None, b_alpha=None,
                gating="multiplicative", alpha="learned") -> np.ndarray:
    """Literal per-node loops of the gated layer, every variant supported."""
    z = z.astype(np.float64)
    v_count, c = z.shape
    out = np.zeros_like(z)
    for v in range(v_count):
        if alpha == "learned":
            scores = z[v] @ w_alpha.astype(np.float64) + b_alpha.astype(np.float64)
        else:
            scores = np.full(num_relations, 1.0 / num_relations)
        agg = np.zeros(c)
        for r in range(num_relations):
            w_r = w_channel.reshape(-1)[r * c:(r + 1) * c].astype(np.float64)
            nb = neighbors_of(edges, v, r)
            msg = np.zeros(c)
            for u in nb:
                zin = z[u]
                if w_in is not None:
                    zin = zin @ w_in.astype(np.float64) + b_in.astype(np.float64)
                msg += w_r * zin
            if nb:
                msg /= len(nb)
            agg += scores[r] * msg
        if w_out is not None:
            agg = agg @ w_out.astype(np.float64) + b_out.astype(np.float64)
        self_part = z[v] @ w_self.astype(np.float64)
        out[v] = self_part * agg if gating == "multiplicative" else self_part + agg
    return out


def line_graph_oracle(edges, coords, num_bins=8):
    """All chained edge pairs with angle bins, by brute force over edge pairs."""
    coords = np.asarray(coords, dtype=np.float64)
    out = []
    for i, (a, b, _) in enumerate(edges):
        for j, (s2, d2, _) in enumerate(edges):
            if i == j or s2 != b:
                continue
            u = coords[b] - coords[a]
            v = coords[d2] - coords[s2]
            nu, nv = np.linalg.norm(u), np.linalg.norm(v)
            if nu == 0.0 or nv == 0.0:
                bin_id = 0
            else:
                theta = np.arccos(np.clip(np.dot(u, v) / (nu * nv), -1.0, 1.0))
                bin_id = min(int(theta / (np.pi / num_bins)), num_bins - 1)
            out.append((i, j, bin_id))
    return sorted(out)


def layer_norm_oracle(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray,
                      eps: float = 1e-5) -> np.ndarray:
    x = x.astype(np.float64)
    mu = x.mean(axis=1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * gamma + beta


def knn_oracle(features: np.ndarray, height: int, width: int, k: int):
    """Incoming nearest-neighbor edges outside each patch's 2x2 window,
    ranked by Euclidean feature distance with index tie-breaks."""
    p = height * width
    edges = []
    for v in range(p):
        vr, vc = divmod(v, width)
        cands = []
        for u in range(p):
            ur, uc = divmod(u, width)
            if (ur // 2, uc // 2) == (vr // 2, vc // 2):
                continue
            dist = float(np.linalg.norm(features[u].astype(np.float64)
                                        - features[v].astype(np.float64)))
            cands.append((dist, u))
        cands.sort()
        for _, u in cands[:k]:
            edges.append((u, v))
    return sorted(edges)


def protein_edges_oracle(coords: np.ndarray, radius=10.0, seq_window=2,
                         medium_seq_cutoff=5, medium_ranks=(5, 10)):
    """Protein relation edges by brute force; returns dict relation -> edges.

    Relation keys: 'seq{-2..+2}', 'radius', 'medium_a', 'medium_b', 'virtual'.
    Residues are 0..L-1; the virtual node is index L.
    """
    length = coords.shape[0]
    coords = coords.astype(np.float64)
    out = {f"seq{o:+d}": [] for o in range(-seq_window, seq_window + 1)}
    out["radius"] = []
    out["medium_a"] = []
    out["medium_b"] = []
    out["virtual"] = []
    for v in range(length):
        for o in range(-seq_window, seq_window + 1):
            u = v + o
            if 0 <= u < length:
                out[f"seq{o:+d}"].append((u, v))
        ranked = []
        for u in range(length):
            if u == v:
                continue
            dist = float(np.linalg.norm(coords[u] - coords[v]))
            if dist <= radius:
                out["radius"].append((u, v))
            if abs(u - v) > medium_seq_cutoff and dist > radius:
                ranked.append((dist, u))
        ranked.sort()
        for rank, (_, u) in enumerate(ranked, start=1):
            if rank <= medium_ranks[0]:
                out["medium_a"].append((u, v))
            elif rank <= medium_ranks[1]:
                out["medium_b"].append((u, v))
        out["virtual"].append((length, v))
    return {k: sorted(v) for k, v in out.items()}
