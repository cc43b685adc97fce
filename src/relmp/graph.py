"""Multi-relational directed graphs and the mean-normalized aggregation ops.

A RelGraph is built from an (E, 3) int array of (src, dst, rel) rows or from a
list of such triples; a value that int64 conversion would change (0.5, NaN,
2**63) is rejected, not truncated (`triple_rows`, which the KG triple store
shares). It stores the edges sorted by (rel, dst,
src), which is the CSR form of the relation-major slot matrix: row r*V_dst + v
lists the ascending sources N_r(v). Aggregation is one sparse product with
that matrix and its backward one product with the transpose, so the
summation order (ascending source index forward, edge storage order backward)
is fixed and the aggregation is deterministic bit-for-bit across runs.

The slot matrix has rows for the destination nodes only, v < V_dst =
`num_dst` = 1 + the largest edge target: no node above receives an edge on
any relation (the image graph's P + 1 virtual nodes, the protein graph's
one), so its means are zero. The ops compute the [R, V_dst, C] means and
write zeros in the rows above, which is what the full [R*V, V] product
would give. FLOP charges still use V, because they state the cost of the
unfused chain.

A graph never changes after it is built, so its aggregation operators (the
slot matrix, its transpose and the degree column) are built once per graph
and dtype, on first use, and reused by every later forward and backward call.

Normalization is the in-neighborhood mean. The implementation divides the
neighbor sum by the integer degree rather than multiplying by a rounded float
reciprocal.

Two ops aggregate. `rel_aggregate` returns the means in node-major row order
(row v*R + r holds the mean over N_r(v)), so the relational convolution's
"concatenate a node's relation slots" reshape is a zero-copy view.
`weighted_aggregate`, the gated layer's aggregation and weighting, keeps its
means relation-major ([R, V_dst, C]) in the CSR product's own output, scales
them in place and sums the relations in order 0..R-1. Its backward recomputes
the means (same product, same division, same bits) instead of keeping them,
node-major so that the channel gradient's sum over nodes is an outer-axis
reduction that adds the nodes in order. Its only other [R, V_dst, C] buffer
holds g * score, which the feature and channel gradients both read.
"""

from __future__ import annotations

import io

import numpy as np
from scipy.sparse import csr_matrix

from .errors import DataError, GraphError, ShapeError
from .tensor import Tensor, _charge, _result


def triple_rows(rows, bounds, error, noun, plural, fields):
    """`rows`, an (n, 3) array or a sequence of triples, as an (n, 3) int64
    array whose column j holds values in [0, bounds[j]); an empty input gives
    (0, 3). A value that int64 conversion would change, any other shape and
    a row out of range raise `error`; its messages call one row `noun`,
    several `plural`, and name the columns `fields`."""
    try:
        given = np.asarray(rows)
        with np.errstate(invalid="ignore"):
            rows = given.astype(np.int64, copy=False)
    except (TypeError, ValueError, OverflowError) as e:
        raise error(f"{plural} must be {fields} rows: {e}") from e
    inexact = rows != given
    if inexact.any():
        value = given[inexact][0].item()
        raise error(f"{noun} value {value!r} is not an integer in int64 range")
    if rows.shape == (0,):
        rows = rows.reshape(0, 3)
    if rows.ndim != 2 or rows.shape[1] != 3:
        raise error(f"{plural} must have shape (n, 3), not {rows.shape}")
    bad = ((rows < 0) | (rows >= bounds)).any(axis=1)
    if bad.any():
        raise error(f"{noun} {tuple(rows[bad.argmax()].tolist())} is out of range")
    return rows


class RelGraph:
    """Immutable multi-relational directed graph.

    Edges are triples (src, dst, rel); src is an in-neighbor of dst under rel.
    They may be given as an (E, 3) int array or as any sequence of triples.
    Duplicate triples are rejected. Canonical edge order is (rel, dst, src)
    ascending, which is also the storage order.

    Nothing changes a graph after __init__, so the aggregation operators
    built from its edges stay valid for its whole life: `_aggregation_ops`
    builds them once per dtype (float32 and float64 at most) and keeps them.
    """

    def __init__(self, num_nodes: int, num_relations: int, edges):
        if num_nodes < 0 or num_relations < 0:
            raise GraphError("node and relation counts must be non-negative")
        edges = triple_rows(edges, (num_nodes, num_nodes, num_relations),
                            GraphError, "edge", "edges", "(src, dst, rel)")
        edges = edges[np.lexsort(edges.T)]   # last key primary: (rel, dst, src)
        repeated = (edges[1:] == edges[:-1]).all(axis=1)
        if repeated.any():
            raise GraphError(f"duplicate edge {tuple(edges[repeated.argmax()].tolist())}")
        self.num_nodes = num_nodes
        self.num_relations = num_relations
        self._src, self._dst, self._rel = np.ascontiguousarray(edges.T)
        # no node from num_dst on receives an edge on any relation
        self.num_dst = int(self._dst.max()) + 1 if self._dst.size else 0
        # rows r*V_dst + v of the relation-major [R*V_dst, V] slot matrix in
        # CSR form: indptr[r*V_dst + v] bounds the sources of slot (r, v) in
        # storage order
        counts = np.bincount(self._rel * self.num_dst + self._dst,
                             minlength=num_relations * self.num_dst)
        self._indptr = np.zeros(counts.size + 1, dtype=np.int64)
        np.cumsum(counts, out=self._indptr[1:])
        self._degrees = counts.reshape(num_relations, self.num_dst)
        self._ops: dict = {}

    @property
    def num_edges(self) -> int:
        return int(self._src.size)

    def edge_list(self):
        """All edges as (src, dst, rel) triples in canonical order."""
        return list(zip(self._src.tolist(), self._dst.tolist(), self._rel.tolist()))

    def _aggregation_ops(self, dtype):
        """(slot matrix, its transpose, [R, V_dst, 1] degrees) in `dtype`,
        built once."""
        ops = self._ops.get(dtype)
        if ops is None:
            # unit weights in the features' dtype keep float32 features
            # float32; every product with 1 is exact, so each slot sums its
            # sources in storage order
            size = self.num_relations * self.num_dst
            adj = csr_matrix((np.ones(self.num_edges, dtype=dtype), self._src,
                              self._indptr), shape=(size, self.num_nodes))
            # empty slots sum to zero, so dividing them by 1 leaves zero rows
            deg = np.maximum(self._degrees, 1)[:, :, None].astype(dtype)
            ops = self._ops[dtype] = (adj, adj.T, deg)
        return ops

    def __repr__(self):
        return (f"RelGraph(nodes={self.num_nodes}, relations={self.num_relations}, "
                f"edges={self.num_edges})")


def _slot_means(graph: RelGraph, z: np.ndarray, out=None) -> np.ndarray:
    """The means of features z over the destination rows, relation-major
    [R, V_dst, C]: one CSR product, then one division by the degrees into
    `out`, or over the sums."""
    adj, _, deg = graph._aggregation_ops(z.dtype)
    sums = (adj @ z).reshape(*deg.shape[:2], z.shape[1])
    return np.divide(sums, deg, out=sums if out is None else out)


def _means_grad(graph: RelGraph, g_rv: np.ndarray) -> np.ndarray:
    """The features' [V, C] gradient from the means' [R, V_dst, C] gradient
    in their dtype, which is divided in place; the CSC transpose visits the
    slots in (rel, dst) order, i.e. edge storage order."""
    _, adj_t, deg = graph._aggregation_ops(g_rv.dtype)
    return adj_t @ np.divide(g_rv, deg, out=g_rv).reshape(deg.size, g_rv.shape[2])


def rel_aggregate(graph: RelGraph, z: Tensor) -> Tensor:
    """Mean-pooled neighbor features for every (relation, node) slot.

    Input z is [num_nodes, C]; output is [num_relations * num_nodes, C] with
    slot (r, v) stored at row v*R + r. Empty neighborhoods yield zero rows.
    Sources are summed in ascending index order and the sum is divided by the
    integer degree. Charged 2*|E|*C FLOPs (one multiply-add per edge element).
    """
    if z.data.ndim != 2:
        raise ShapeError("rel_aggregate expects [num_nodes, C] features")
    if z.shape[0] != graph.num_nodes:
        raise ShapeError(f"feature rows {z.shape[0]} != num_nodes {graph.num_nodes}")
    v_count, r_count, c = graph.num_nodes, graph.num_relations, z.shape[1]
    v_dst = graph.num_dst
    # the kept output is allocated before the temporary sums, so the freed
    # sums leave no hole under it to raise the peak RSS
    out = np.empty((v_count, r_count, c), z.data.dtype)
    # one division writes the relation-major means in node-major order v*R + r
    _slot_means(graph, z.data, out[:v_dst].transpose(1, 0, 2))
    out[v_dst:] = 0
    _charge("rel_aggregate", 2 * graph.num_edges * c)
    node, dtype = z._node, z.dtype

    def backward(g):
        g_rv = g.reshape(v_count, r_count, c)[:v_dst].transpose(1, 0, 2)
        node._accumulate_owned(_means_grad(graph, g_rv.astype(dtype, order="C")))

    return _result(out.reshape(v_count * r_count, c), "rel_aggregate", (z,), backward)


def weighted_aggregate(graph: RelGraph, z: Tensor, scores: Tensor,
                       channel: Tensor) -> Tensor:
    """Sum over r = 0..R-1 of (mean over N_r(v) * channel_r) * scores[v, r].

    z is [V, C], `scores` [V, R] and `channel` a [1, R*C] row, relation r's
    weights in columns r*C..(r+1)*C. The values and charges are those of
    `rel_aggregate` followed by the chain of tiles, hadamards and adds that
    broadcasts the weights; the tape keeps the data of z, scores and channel
    only. Rows from `graph.num_dst` on, which no edge reaches, are zero.
    """
    v_count, r_count, v_dst = graph.num_nodes, graph.num_relations, graph.num_dst
    c = z.shape[1] if z.data.ndim == 2 else 0
    if (z.shape, scores.shape, channel.shape) != \
            ((v_count, c), (v_count, r_count), (1, r_count * c)):
        raise ShapeError(f"weighted_aggregate: features {z.shape}, scores "
                         f"{scores.shape} and channel weights {channel.shape} are "
                         f"not [{v_count}, C], [{v_count}, {r_count}], [1, {r_count}*C]")
    channel_rc = channel.data.reshape(r_count, 1, c)
    scores_rv = scores.data[:v_dst].T[:, :, None]
    terms = _slot_means(graph, z.data)
    # a product whose operands' dtype is the buffer's is taken in place;
    # otherwise it is a fresh array in the wider dtype, as the chain's was
    for factor in (channel_rc, scores_rv):
        same = np.can_cast(factor.dtype, terms.dtype)
        terms = np.multiply(terms, factor, out=terms if same else None)
    out = np.zeros((v_count, c), terms.dtype)
    out[:v_dst] = terms[0]
    for k in range(1, r_count):
        out[:v_dst] += terms[k]
    _charge("rel_aggregate", 2 * graph.num_edges * c)
    _charge("tile", 2 * r_count * v_count * c)
    _charge("hadamard", 2 * r_count * v_count * c)
    if r_count > 1:
        _charge("add", (r_count - 1) * v_count * c)
    nz, nscores, nchannel, z_data = z._node, scores._node, channel._node, z.data

    def backward(g):
        # g has the result's dtype, the widest of the three operands'. Two
        # [R, V_dst, C] buffers: the means, node-major so that the channel
        # gradient's sum over nodes adds them in order, and `work`
        g_dst = g[:v_dst]
        means = np.empty((v_dst, r_count, c), z_data.dtype)
        means_rv = _slot_means(graph, z_data, means.transpose(1, 0, 2))
        work = np.empty(means_rv.shape, g.dtype)
        if nscores is not None:
            np.multiply(means_rv, channel_rc, out=work)
            np.multiply(work, g_dst, out=work)
            grad = np.zeros((v_count, r_count), g.dtype)
            np.sum(work, axis=2, out=grad[:v_dst].T)
            nscores._accumulate_owned(grad)
        if nz is None and nchannel is None:
            return
        # each term's upstream gradient g * score, read by both gradients below
        np.multiply(g_dst, scores_rv, out=work)
        if nchannel is not None:
            same = means.dtype == work.dtype
            terms = np.multiply(means, work.transpose(1, 0, 2),
                                out=means if same else None)
            nchannel._accumulate_owned(terms.reshape(v_dst, r_count * c)
                                       .sum(axis=0).reshape(1, r_count * c))
        if nz is not None:
            np.multiply(work, channel_rc, out=work)
            nz._accumulate_owned(
                _means_grad(graph, work.astype(z_data.dtype, copy=False)))

    return _result(out, "weighted_aggregate", (z, scores, channel), backward)


# -- line graphs --------------------------------------------------------------------


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products, each rounded exactly as np.dot on the two rows."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def build_line_graph(graph: RelGraph, coords: np.ndarray, num_bins: int) -> RelGraph:
    """Directed line graph with angle-bin relations.

    Nodes are the edges of `graph` in canonical order. For every chained pair
    e1 = (a, b), e2 = (b, c) a line edge e1 -> e2 is added; its relation bins
    the angle between displacements (b - a) and (c - b) into num_bins equal
    slices of [0, pi], with bin 0 when either displacement has zero length.
    The degenerate pair of an edge with itself is skipped. Reverse pairs
    (a -> b followed by b -> a), whose angle is pi, are included.
    """
    coords = np.asarray(coords, dtype=np.float64)
    if coords.ndim != 2 or coords.shape[0] != graph.num_nodes:
        raise ShapeError("coords must be [num_nodes, dim]")
    if num_bins < 1:
        raise GraphError("num_bins must be positive")
    src, dst = graph._src, graph._dst
    # edges sorted by tail: e2 follows e1 exactly when src[e2] == dst[e1]
    by_tail = np.argsort(src, kind="stable")
    tails = src[by_tail]
    first = np.searchsorted(tails, dst, side="left")
    count = np.searchsorted(tails, dst, side="right") - first
    e1 = np.repeat(np.arange(graph.num_edges), count)
    start = np.repeat(first - (np.cumsum(count) - count), count)
    e2 = by_tail[start + np.arange(e1.size)]
    keep = e1 != e2
    e1, e2 = e1[keep], e2[keep]
    u = coords[dst[e1]] - coords[src[e1]]
    v = coords[dst[e2]] - coords[src[e2]]
    nu, nv = np.sqrt(_row_dot(u, u)), np.sqrt(_row_dot(v, v))
    moving = (nu != 0.0) & (nv != 0.0)
    cos = _row_dot(u[moving], v[moving]) / (nu[moving] * nv[moving])
    theta = np.arccos(np.clip(cos, -1.0, 1.0))
    bins = np.zeros(e1.size, dtype=np.int64)
    bins[moving] = np.minimum((theta / (np.pi / num_bins)).astype(np.int64),
                              num_bins - 1)
    return RelGraph(graph.num_edges, num_bins, np.stack([e1, e2, bins], axis=1))


# -- edge-list files -----------------------------------------------------------------


def save_edge_list(path, graph: RelGraph, comments) -> None:
    """Write src<TAB>dst<TAB>rel rows; node/relation counts go in # comments."""
    with open(path, "w", encoding="utf-8") as f:
        for line in comments:
            f.write(f"# {line}\n")
        f.write(f"# nodes={graph.num_nodes} relations={graph.num_relations}\n")
        for s, d, r in graph.edge_list():
            f.write(f"{s}\t{d}\t{r}\n")


def _text_lines(path):
    """The lines of a UTF-8 text file, split as text-mode `open` splits them.

    Bytes that are not UTF-8 raise DataError naming the file and the line.
    """
    with open(path, "rb") as f:
        raw = f.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as e:
        line = raw.count(b"\n", 0, e.start) + 1
        raise DataError(f"{path}:{line}: not UTF-8 text (byte 0x{raw[e.start]:02x} "
                        f"at offset {e.start}: {e.reason})") from e
    return io.StringIO(text, newline=None)


def load_edge_list(path) -> RelGraph:
    """Read an edge-list file written by save_edge_list.

    Counts are taken from the `# nodes=... relations=...` comment when present
    and inferred from the data otherwise.
    """
    num_nodes = num_relations = None
    triples = []
    for lineno, raw in enumerate(_text_lines(path), 1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("nodes="):
                try:
                    parts = dict(p.split("=") for p in body.split())
                    num_nodes = int(parts["nodes"])
                    num_relations = int(parts["relations"])
                except (ValueError, KeyError) as e:
                    raise DataError(f"{path}:{lineno}: bad count comment") from e
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            raise DataError(f"{path}:{lineno}: expected 3 tab-separated fields")
        try:
            triples.append((int(fields[0]), int(fields[1]), int(fields[2])))
        except ValueError as e:
            raise DataError(f"{path}:{lineno}: non-integer field") from e
    if num_nodes is None:
        num_nodes = 1 + max((max(s, d) for s, d, _ in triples), default=-1)
        num_relations = 1 + max((r for _, _, r in triples), default=-1)
    try:
        return RelGraph(num_nodes, num_relations, triples)
    except GraphError as e:
        raise DataError(f"{path}: {e}") from e
