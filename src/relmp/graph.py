"""Multi-relational directed graphs and the mean-normalized aggregation ops.

A RelGraph is built from an (E, 3) int array of (src, dst, rel) rows or from a
list of such triples; a value that int64 conversion would change (0.5, NaN,
2**63) is rejected, not truncated (`triple_rows`, which the KG triple store
shares). It stores the edges sorted by (rel, dst,
src), which is the CSR form of the relation-major slot matrix: row r*V_dst + v
lists the ascending sources N_r(v). Aggregation is a sparse product with that
matrix and its backward a product with the transpose, both run by SciPy's
multivector kernels (`csr_matvecs`, `csc_matvecs`) on a range of the
matrix's rows, so the summation order (ascending source index forward, edge
storage order backward) is fixed and the aggregation is deterministic
bit-for-bit across runs.

The slot matrix has rows for the destination nodes only, v < V_dst =
`num_dst` = 1 + the largest edge target: no node above receives an edge on
any relation (the image graph's P + 1 virtual nodes, the protein graph's
one), so its means are zero. The ops compute the means of those rows and
write zeros in the rows above, which is what the full [R*V, V] product
would give. FLOP charges still use V, because they state the cost of the
unfused chain.

A graph never changes after it is built, so its aggregation operators (the
slot matrix and the degree column) are built once per graph and dtype, on
first use, and reused by every later forward and backward call.

Normalization is the in-neighborhood mean. The implementation divides the
neighbor sum by the integer degree rather than multiplying by a rounded float
reciprocal.

Two ops aggregate. `rel_aggregate` returns the means in node-major row order
(row v*R + r holds the mean over N_r(v)), so the relational convolution's
"concatenate a node's relation slots" reshape is a zero-copy view.
`weighted_aggregate`, the gated layer's aggregation and weighting, never
holds the [R, V_dst, C] means. Its forward and backward walk the relations in
consecutive groups of at most AGGREGATE_BLOCK slot values, reusing one
group's scratch buffers, as FlashAttention tiles attention so that the
score matrix never exists. The forward computes a group's means in one
buffer, scales them in place and adds them into the output, relations in
order 0..R-1. The backward recomputes each group's means (same product,
same division, same bits) into a second, node-major buffer, so that the
channel gradient's sum over nodes is an outer-axis reduction that adds the
nodes in order; the first buffer holds g * score, which the feature and
channel gradients both read. The CSC kernel adds every group's slots into
one feature gradient, so each source row sums its slots in edge storage
order however the relations are grouped. Every element goes through the
operations of the ungrouped op in the same order, so the outputs and
gradients do not depend on the group size.
"""

from __future__ import annotations

import io

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse._sparsetools import csc_matvecs, csr_matvecs

from .errors import DataError, GraphError, ShapeError
from .tensor import Tensor, _charge, _result

# The most slot values, 2**18 (1 MiB of float32, inside a core's L2 cache),
# that `weighted_aggregate` holds in one scratch buffer: it walks the
# relations in consecutive groups of at most this many slot values.
AGGREGATE_BLOCK = 2 ** 18


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
        """(slot matrix, [R, V_dst, 1] degrees) in `dtype`, built once."""
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
            ops = self._ops[dtype] = (adj, deg)
        return ops

    def __repr__(self):
        return (f"RelGraph(nodes={self.num_nodes}, relations={self.num_relations}, "
                f"edges={self.num_edges})")


def _relation_groups(r_count: int, slot_values: int) -> list:
    """Consecutive relation ranges [r0, r1) that cover 0..r_count-1 and hold
    at most AGGREGATE_BLOCK slot values each, at `slot_values` (V_dst*C) per
    relation; a relation that alone holds more is a group by itself."""
    step = max(1, AGGREGATE_BLOCK // max(slot_values, 1))
    return [(r0, min(r0 + step, r_count)) for r0 in range(0, r_count, step)]


def _slot_rows(graph: RelGraph, dtype, r0: int, r1: int):
    """(indptr, indices, data) of relations r0..r1-1's rows of the slot
    matrix in `dtype`. The indptr slice is not rebased: it indexes the whole
    matrix's indices and data, which the kernels read in place."""
    adj, _ = graph._aggregation_ops(dtype)
    v_dst = graph.num_dst
    return adj.indptr[r0 * v_dst:r1 * v_dst + 1], adj.indices, adj.data


def _group_sums(graph: RelGraph, z: np.ndarray, r0: int, r1: int,
                scratch: np.ndarray) -> np.ndarray:
    """Relations r0..r1-1's neighbor sums of features z [V, C], relation-major
    [r1 - r0, V_dst, C], in the front of the flat array `scratch`. The CSR
    kernel adds into its output, which is zeroed first; each slot adds its
    sources in storage order."""
    rows, c = (r1 - r0) * graph.num_dst, z.shape[1]
    sums = scratch[:rows * c]
    sums[...] = 0
    csr_matvecs(rows, graph.num_nodes, c, *_slot_rows(graph, z.dtype, r0, r1),
                z.ravel(), sums)
    return sums.reshape(r1 - r0, graph.num_dst, c)


def _add_group_grads(graph: RelGraph, g: np.ndarray, r0: int, r1: int,
                     out: np.ndarray) -> None:
    """Add the transposed product of g, the C-contiguous [r1 - r0, V_dst, C]
    gradient of relations r0..r1-1's slot sums, into `out`, the C-contiguous
    [V, C] feature gradient. The CSC kernel visits the slots in (rel, dst)
    order, so groups added in relation order give every source row the sum
    of its slots in edge storage order, however the relations are grouped."""
    csc_matvecs(graph.num_nodes, g.shape[0] * g.shape[1], g.shape[2],
                *_slot_rows(graph, g.dtype, r0, r1), g.ravel(), out.ravel())


def _sum_over_nodes(x: np.ndarray) -> np.ndarray:
    """The column sums of x [V_dst, k], each adding the rows in order
    v = 0, 1, ... onto 0, as NumPy's reduction over the outer axis does for
    k > 1. NumPy sums a lone column pairwise, so that one is a running sum
    instead, whose last value differs only in giving -0.0 for a column of
    -0.0, which the + 0.0 turns into the reduction's 0.0."""
    if x.shape[1] != 1 or not x.shape[0]:
        return x.sum(axis=0)
    return np.cumsum(x, axis=0)[-1] + 0.0


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
    v_dst, dtype = graph.num_dst, z.data.dtype
    _, deg = graph._aggregation_ops(dtype)
    # the kept output is allocated before the temporary sums, so the freed
    # sums leave no hole under it to raise the peak RSS
    out = np.empty((v_count, r_count, c), dtype)
    sums = _group_sums(graph, z.data, 0, r_count, np.empty(deg.size * c, dtype))
    # one division writes the relation-major means in node-major order v*R + r
    np.divide(sums, deg, out=out[:v_dst].transpose(1, 0, 2))
    out[v_dst:] = 0
    _charge("rel_aggregate", 2 * graph.num_edges * c)
    node = z._node

    def backward(g):
        _, deg = graph._aggregation_ops(g.dtype)
        g_rv = g.reshape(v_count, r_count, c)[:v_dst].transpose(1, 0, 2)
        g_rv = np.divide(g_rv, deg, out=np.empty(g_rv.shape, g.dtype))
        grad = np.zeros((v_count, c), g.dtype)
        _add_group_grads(graph, g_rv, 0, r_count, grad)
        node._accumulate_owned(grad)

    return _result(out.reshape(v_count * r_count, c), "rel_aggregate", (z,), backward)


def weighted_aggregate(graph: RelGraph, z: Tensor, scores: Tensor,
                       channel: Tensor) -> Tensor:
    """Sum over r = 0..R-1 of (mean over N_r(v) * channel_r) * scores[v, r].

    z is [V, C], `scores` [V, R] and `channel` a [1, R*C] row, relation r's
    weights in columns r*C..(r+1)*C. The values and charges are those of
    `rel_aggregate` followed by the chain of tiles, hadamards and adds that
    broadcasts the weights; the tape keeps the data of z, scores and channel
    only. Rows from `graph.num_dst` on, which no edge reaches, are zero.
    Forward and backward hold one group of relations' slot values at a time,
    at most AGGREGATE_BLOCK of them (or one relation's), in reused buffers.
    """
    v_count, r_count, v_dst = graph.num_nodes, graph.num_relations, graph.num_dst
    c = z.shape[1] if z.data.ndim == 2 else 0
    if (z.shape, scores.shape, channel.shape) != \
            ((v_count, c), (v_count, r_count), (1, r_count * c)):
        raise ShapeError(f"weighted_aggregate: features {z.shape}, scores "
                         f"{scores.shape} and channel weights {channel.shape} are "
                         f"not [{v_count}, C], [{v_count}, {r_count}], [1, {r_count}*C]")
    dtype = z.data.dtype
    _, deg = graph._aggregation_ops(dtype)
    channel_rc = channel.data.reshape(r_count, 1, c)
    scores_rv = scores.data[:v_dst].T[:, :, None]
    groups = _relation_groups(r_count, v_dst * c)
    # the first group is the largest
    scratch_size = (groups[0][1] if groups else 0) * v_dst * c
    out = np.zeros((v_count, c), dtype)
    scratch = np.empty(scratch_size, dtype)
    for r0, r1 in groups:
        # the means, scaled in place by the channel weights, then the scores
        terms = _group_sums(graph, z.data, r0, r1, scratch)
        np.divide(terms, deg[r0:r1], out=terms)
        terms *= channel_rc[r0:r1]
        terms *= scores_rv[r0:r1]
        for r, term in enumerate(terms, r0):
            if r:
                out[:v_dst] += term
            else:
                out[:v_dst] = term
    _charge("rel_aggregate", 2 * graph.num_edges * c)
    _charge("tile", 2 * r_count * v_count * c)
    _charge("hadamard", 2 * r_count * v_count * c)
    if r_count > 1:
        _charge("add", (r_count - 1) * v_count * c)
    nz, nscores, nchannel, z_data = z._node, scores._node, channel._node, z.data

    def backward(g):
        g_dst, (_, deg) = g[:v_dst], graph._aggregation_ops(g.dtype)
        grad_scores = None if nscores is None else np.zeros((v_count, r_count), g.dtype)
        grad_channel = None if nchannel is None else np.empty((1, r_count * c), g.dtype)
        grad_z = None if nz is None else np.zeros((v_count, c), g.dtype)
        # one group's scratch: `work`, relation-major, and the recomputed
        # means, node-major so that the channel gradient's sum over nodes is
        # an outer-axis reduction
        work_buf, means_buf = np.empty((2, scratch_size), g.dtype)
        for r0, r1 in groups:
            n, deg_k, channel_k = r1 - r0, deg[r0:r1], channel_rc[r0:r1]
            work = _group_sums(graph, z_data, r0, r1, work_buf)
            means = means_buf[:n * v_dst * c].reshape(v_dst, n, c)
            means_rv = np.divide(work, deg_k, out=means.transpose(1, 0, 2))
            if nscores is not None:
                np.multiply(means_rv, channel_k, out=work)
                np.multiply(work, g_dst, out=work)
                np.sum(work, axis=2, out=grad_scores[:v_dst, r0:r1].T)
            if nz is None and nchannel is None:
                continue
            # each term's upstream gradient g * score, read by both gradients below
            work = np.multiply(g_dst, scores_rv[r0:r1],
                               out=work_buf[:n * v_dst * c].reshape(n, v_dst, c))
            if nchannel is not None:
                means *= work.transpose(1, 0, 2)
                grad_channel[0, r0 * c:r1 * c] = _sum_over_nodes(
                    means.reshape(v_dst, n * c))
            if nz is not None:
                np.multiply(work, channel_k, out=work)
                np.divide(work, deg_k, out=work)
                _add_group_grads(graph, work, r0, r1, grad_z)
        for node, grad in ((nscores, grad_scores), (nchannel, grad_channel),
                           (nz, grad_z)):
            if node is not None:
                node._accumulate_owned(grad)

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
