"""Domain graph constructors: image patch grids, protein chains, triplet stores.

Three edge families, one registry convention. Every builder returns an (E, 3)
int64 array of (src, dst, rel) rows or a RelGraph together with the ordered
relation names, so callers can persist a stable name -> id registry. A
TripletStore holds KG triples the same way, as (n, 3) int64 (head, relation,
tail) rows, and `TripletStore.with_inverses` alone forms their inverse rows.
Construction is pure numpy on raw arrays: graph topology is not
differentiable and is never FLOP-counted.

Feature-space nearest-neighbor edges use unnormalized Euclidean distance on
the raw features (whether to normalize first is left open by the reference
description; this build does not).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .graph import RelGraph, _text_lines, triple_rows

SHORT_RELATIONS = ("up", "down", "left", "right")
LONG_RELATIONS = ("long_global", "long_context")
MEDIUM_RELATION = "medium"

# 20 standard amino acids plus selenocysteine (U) and pyrrolysine (O)
AMINO_ACIDS = "ACDEFGHIKLMNPQRSTVWYUO"
PROTEIN_RELATIONS = ("seq-2", "seq-1", "seq+0", "seq+1", "seq+2",
                     "radius", "medium_near", "medium_far", "virtual")
# protein_edges rules; the relation names above fix SEQ_WINDOW at 2
RADIUS = 10.0                   # contact shell, angstrom
SEQ_WINDOW = 2                  # sequence offsets -2..+2
MEDIUM_SEQ_CUTOFF = 5           # medium candidates are > 5 apart in sequence
MEDIUM_RANK_BOUNDS = (5, 10)    # near band ranks 1..5, far band 6..10


# -- image patch grids ---------------------------------------------------------------


@dataclass
class PatchGrid:
    """Row-major grid of patch feature vectors; features has H*W rows."""
    height: int
    width: int
    features: np.ndarray

    def __post_init__(self):
        self.features = np.asarray(self.features)
        if self.features.ndim != 2 or self.features.shape[0] != self.height * self.width:
            raise DataError("patch grid features must be [H*W, C]")
        if not np.all(np.isfinite(self.features)):
            raise DataError("patch grid features must be finite")

    @property
    def channels(self) -> int:
        return int(self.features.shape[1])


_GRID_MAGIC = 0x44524750  # b"PGRD" little-endian


def save_patch_grid(path, grid: PatchGrid) -> None:
    """Binary layout: magic, H, W, C as LE uint32, then H*W*C LE float32."""
    with open(path, "wb") as f:
        f.write(struct.pack("<IIII", _GRID_MAGIC, grid.height, grid.width,
                            grid.channels))
        f.write(grid.features.astype("<f4").tobytes())


def load_patch_grid(path) -> PatchGrid:
    with open(path, "rb") as f:
        head = f.read(16)
        if len(head) != 16:
            raise DataError(f"{path}: truncated patch-grid header")
        magic, h, w, c = struct.unpack("<IIII", head)
        if magic != _GRID_MAGIC:
            raise DataError(f"{path}: not a patch-grid file")
        if min(h, w, c) < 1:
            raise DataError(f"{path}: patch-grid sides and channels must be "
                            f"positive, not {h}x{w}x{c}")
        body = f.read()
    want = h * w * c * 4
    if len(body) != want:
        raise DataError(f"{path}: expected {want} payload bytes, found {len(body)}")
    feats = np.frombuffer(body, dtype="<f4").reshape(h * w, c).astype(np.float32)
    return PatchGrid(h, w, feats)


def image_short_edges(height: int, width: int) -> np.ndarray:
    """One incoming edge per existing 4-neighbor; relation picks the direction.

    Relation ids follow SHORT_RELATIONS: the "up" relation carries the message
    from the patch above. Returns 2H(W-1) + 2W(H-1) (src, dst, rel) rows.
    """
    if height < 1 or width < 1:
        raise ConfigError("grid sides must be positive")
    cell = np.arange(height * width).reshape(height, width)
    # (source cells, destination cells) for up, down, left, right
    shifts = ((cell[:-1], cell[1:]), (cell[1:], cell[:-1]),
              (cell[:, :-1], cell[:, 1:]), (cell[:, 1:], cell[:, :-1]))
    return np.concatenate([np.stack([src.ravel(), dst.ravel(),
                                     np.full(src.size, rel)], axis=1)
                           for rel, (src, dst) in enumerate(shifts)])


def _sorted_sources(dist: np.ndarray, allowed: np.ndarray, count: int):
    """Each column's first `count` rows: allowed first, nearest first, ties by
    ascending index (lexsort is stable)."""
    return np.lexsort((dist, ~allowed), axis=0)[:count]


def _nearest_sources(dist: np.ndarray, allowed: np.ndarray, count: int):
    """Rank each column's allowed rows nearest first, ties by ascending index.

    dist[u, v] and allowed[u, v] describe source u for destination v. Returns
    (rank, src, dst) arrays over the top min(count, allowed) sources of every
    destination, destination-major and nearest first within a destination.

    A partial sort picks each column's `count` nearest allowed rows, which are
    then ranked by (distance, index). A column where an unpicked row ties the
    count-th distance, or that has fewer than `count` finite allowed
    distances, is ranked by a full sort instead.
    """
    if 0 < count < dist.shape[0]:
        key = np.where(allowed, dist, np.inf)
        picked = np.argpartition(key, count - 1, axis=0)[:count]
        near = np.take_along_axis(key, picked, axis=0)
        kth = near.max(axis=0)
        tied = (key == kth).sum(axis=0) > (near == kth).sum(axis=0)
        full = tied | ~np.isfinite(kth)
        ranked = np.take_along_axis(picked, np.lexsort((picked, near), axis=0),
                                    axis=0)
        cols = np.flatnonzero(full)
        if cols.size:
            ranked[:, cols] = _sorted_sources(dist[:, cols], allowed[:, cols], count)
    else:
        ranked = _sorted_sources(dist, allowed, count)
    dst, rank = np.nonzero(np.take_along_axis(allowed, ranked, axis=0).T)
    return rank, ranked[rank, dst], dst


def image_medium_edges(grid: PatchGrid, k: int, relation: int = 0) -> np.ndarray:
    """K nearest patches by feature distance, excluding the 2x2 home window.

    Windows partition the grid into non-overlapping 2x2 blocks (smaller at odd
    boundaries). Candidates are ranked nearest first with ascending-index tie
    breaks; the top min(K, available) become incoming (src, dst, rel) rows on
    one relation, grouped by destination in rank order.
    """
    if k < 0:
        raise ConfigError("K must be non-negative")
    p = grid.height * grid.width
    if k == 0 or p == 1:
        return np.empty((0, 3), dtype=np.int64)
    # medium-range similarity is plain Euclidean distance on raw features
    feats = grid.features.astype(np.float64)
    sq = (feats * feats).sum(axis=1)
    rows = np.arange(p) // grid.width
    cols = np.arange(p) % grid.width
    window = (rows // 2) * ((grid.width + 1) // 2) + cols // 2
    # rank 256 destination columns at a time: [P, 256] arrays, not [P, P]
    parts = []
    for start in range(0, p, 256):
        cut = slice(start, start + 256)
        d2 = sq[:, None] + sq[cut] - 2.0 * (feats @ feats[cut].T)
        np.maximum(d2, 0.0, out=d2)
        _, src, dst = _nearest_sources(d2, window[:, None] != window[cut], k)
        parts.append(np.stack([src, dst + start, np.full_like(src, relation)],
                              axis=1))
    return np.concatenate(parts)


def image_patch_edges(grid: PatchGrid, k_medium: int,
                      include_medium: bool) -> tuple[np.ndarray, list[str]]:
    """Patch-to-patch (src, dst, rel) rows and their ordered relation names.

    Relation order: the four short directions, then the medium relation when
    enabled. The long relations to virtual nodes follow these in
    `build_image_graph`.
    """
    names = list(SHORT_RELATIONS)
    parts = [image_short_edges(grid.height, grid.width)]
    if include_medium:
        parts.append(image_medium_edges(grid, k_medium, relation=len(names)))
        names.append(MEDIUM_RELATION)
    return np.concatenate(parts), names


def build_image_graph(grid: PatchGrid, k_medium: int,
                      include_medium: bool) -> tuple[RelGraph, list[str]]:
    """Full per-stage graph: patches plus the long-range virtual nodes.

    Node layout: patches 0..P-1, the global node at P, context node for patch
    v at P+1+v. Relation order: the `image_patch_edges` relations, then the
    two long relations: the global node fans out to every patch on the first,
    and each context node feeds its patch on the second. Virtual-node features
    are recomputed at every layer call, so only this topology is fixed.
    """
    p = grid.height * grid.width
    rows, names = image_patch_edges(grid, k_medium, include_medium)
    patch = np.arange(p)
    rel_global = np.full_like(patch, len(names))
    names += list(LONG_RELATIONS)
    graph = RelGraph(2 * p + 1, len(names), np.concatenate([
        rows,
        np.stack([np.full_like(patch, p), patch, rel_global], axis=1),
        np.stack([p + 1 + patch, patch, rel_global + 1], axis=1)]))
    return graph, names


# -- protein chains ------------------------------------------------------------------


@dataclass
class ProteinChain:
    """Single chain: one-letter residue codes and Calpha coordinates (angstrom)."""
    sequence: str
    coords: np.ndarray

    def __post_init__(self):
        self.coords = np.asarray(self.coords, dtype=np.float64)
        if self.coords.ndim != 2 or self.coords.shape[1] != 3:
            raise DataError("coords must be [L, 3]")
        if len(self.sequence) != self.coords.shape[0]:
            raise DataError("sequence length and coordinate rows differ")
        if not np.all(np.isfinite(self.coords)):
            raise DataError("coordinates must be finite")
        if self.coords.size:
            # the squared span bounds every pairwise squared distance
            # `protein_edges` forms, so a finite bound keeps them finite
            with np.errstate(over="ignore"):
                span = self.coords.max(axis=0) - self.coords.min(axis=0)
                reach = (span * span).sum()
            if not np.isfinite(reach):
                raise DataError("coordinates span too far: squared distances "
                                "overflow float64")
        for ch in self.sequence:
            if ch not in AMINO_ACIDS:
                raise DataError(f"unknown amino-acid code {ch!r}")

    @property
    def length(self) -> int:
        return len(self.sequence)

    def one_hot(self) -> np.ndarray:
        out = np.zeros((self.length, len(AMINO_ACIDS)), dtype=np.float64)
        for i, ch in enumerate(self.sequence):
            out[i, AMINO_ACIDS.index(ch)] = 1.0
        return out


def save_protein_chain(path, chain: ProteinChain) -> None:
    """One residue per line: index, one-letter code, x, y, z."""
    with open(path, "w", encoding="utf-8") as f:
        for i, ch in enumerate(chain.sequence):
            x, y, z = chain.coords[i]
            f.write(f"{i} {ch} {x:.6f} {y:.6f} {z:.6f}\n")


def load_protein_chain(path) -> ProteinChain:
    codes = []
    coords = []
    for lineno, raw in enumerate(_text_lines(path), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 5:
            raise DataError(f"{path}:{lineno}: expected 5 fields")
        try:
            idx = int(fields[0])
            xyz = [float(v) for v in fields[2:5]]
        except ValueError as e:
            raise DataError(f"{path}:{lineno}: bad numeric field") from e
        if idx != len(codes):
            raise DataError(f"{path}:{lineno}: residue index {idx} out of order")
        codes.append(fields[1])
        coords.append(xyz)
    if not codes:
        raise DataError(f"{path}: empty chain")
    try:
        return ProteinChain("".join(codes), np.array(coords))
    except DataError as e:
        raise DataError(f"{path}: {e}") from e


def protein_edges(chain: ProteinChain) -> tuple[RelGraph, list[str]]:
    """Nine-relation residue graph plus one virtual node at index L.

    Relations, in registry order: sequence offsets -SEQ_WINDOW..+SEQ_WINDOW
    (offset 0 is the self-loop), radius contacts within RADIUS angstrom (self
    excluded), two medium bands over candidates more than MEDIUM_SEQ_CUTOFF
    apart in sequence and beyond RADIUS (ranks 1..5 and 6..10 by ascending
    distance, index tie-break; MEDIUM_RANK_BOUNDS), and the virtual relation
    from the summary node to every residue. All rules depend on distances and
    indices only, so any rigid motion or reflection of the coordinates that
    stays clear of threshold ties leaves the graph unchanged.
    """
    length = chain.length
    idx = np.arange(length)
    offsets = np.arange(-SEQ_WINDOW, SEQ_WINDOW + 1)
    src = idx[:, None] + offsets            # column j holds relation j
    v, rel = np.nonzero((src >= 0) & (src < length))
    parts = [np.stack([src[v, rel], v, rel], axis=1)]
    rel_radius = len(offsets)
    diff = chain.coords[:, None, :] - chain.coords[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=2))  # dist[u, v]: column v ranks sources u
    u, v = np.nonzero((dist <= RADIUS) & (idx[:, None] != idx))
    parts.append(np.stack([u, v, np.full_like(u, rel_radius)], axis=1))
    near, far = MEDIUM_RANK_BOUNDS
    candidate = (np.abs(idx[:, None] - idx) > MEDIUM_SEQ_CUTOFF) & (dist > RADIUS)
    rank, u, v = _nearest_sources(dist, candidate, far)
    band = np.where(rank < near, rel_radius + 1, rel_radius + 2)
    parts.append(np.stack([u, v, band], axis=1))
    parts.append(np.stack([np.full_like(idx, length), idx,
                           np.full_like(idx, rel_radius + 3)], axis=1))
    graph = RelGraph(length + 1, len(PROTEIN_RELATIONS), np.concatenate(parts))
    return graph, list(PROTEIN_RELATIONS)


# -- knowledge-graph triplets ----------------------------------------------------------


@dataclass
class TripletStore:
    """One split's (head, relation, tail) triples as an (n, 3) int64 array;
    relation r + num_relations // 2 is the inverse of relation r."""
    num_entities: int
    num_relations: int          # after doubling
    triplets: np.ndarray        # given as an array or as a list of triples

    def __post_init__(self):
        n, half = self.num_entities, self.num_relations // 2
        self.triplets = triple_rows(self.triplets, (n, half, n), DataError,
                                    "triple", "triplets", "(head, relation, tail)")

    def with_inverses(self) -> np.ndarray:
        """(2n, 3) rows: row 2i is triple i, row 2i + 1 its inverse
        (t, r + num_relations // 2, h)."""
        rows = np.repeat(self.triplets, 2, axis=0)
        rows[1::2] = self.triplets[:, ::-1] + [0, self.num_relations // 2, 0]
        return rows


@dataclass
class KGDataset:
    entities: list[str]
    relations: list[str]        # original names; inverses are implied
    train: TripletStore
    valid: TripletStore
    test: TripletStore

    @property
    def num_entities(self) -> int:
        return len(self.entities)

    @property
    def num_relations(self) -> int:
        return 2 * len(self.relations)


def _read_triplet_file(path):
    rows = []
    for lineno, raw in enumerate(_text_lines(path), 1):
        line = raw.rstrip("\n")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            raise DataError(f"{path}:{lineno}: expected head<TAB>relation<TAB>tail")
        rows.append(tuple(fields))
    return rows


def load_triplets(train_path, valid_path=None, test_path=None) -> KGDataset:
    """Read the split files and index a shared vocabulary.

    Entity and relation vocabularies cover the union of all splits (unknown
    test entities are legal); relation ids double to make room for inverses.
    A missing valid/test path yields an empty split.
    """
    raw = {"train": _read_triplet_file(train_path),
           "valid": [] if valid_path is None else _read_triplet_file(valid_path),
           "test": [] if test_path is None else _read_triplet_file(test_path)}
    entities: dict[str, int] = {}
    relations: dict[str, int] = {}
    for split_rows in raw.values():
        for h, r, t in split_rows:
            for e in (h, t):
                if e not in entities:
                    entities[e] = len(entities)
            if r not in relations:
                relations[r] = len(relations)
    stores = {}
    for split, rows in raw.items():
        trips = [(entities[h], relations[r], entities[t]) for h, r, t in rows]
        stores[split] = TripletStore(len(entities), 2 * len(relations), trips)
    return KGDataset(entities=list(entities), relations=list(relations),
                     train=stores["train"], valid=stores["valid"],
                     test=stores["test"])


def fact_graph(train: TripletStore) -> RelGraph:
    """Message-passing graph from training triples plus their inverses.

    Each triple (h, r, t) contributes the edge h -> t under r and t -> h under
    the inverse relation. Duplicates collapse, so re-adding an inverse that is
    already present leaves the graph unchanged.
    """
    edges = np.unique(train.with_inverses()[:, [0, 2, 1]], axis=0)
    return RelGraph(train.num_entities, train.num_relations, edges)


def save_triplets(path, store: TripletStore, entities, relations) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for h, r, t in store.triplets.tolist():
            f.write(f"{entities[h]}\t{relations[r]}\t{entities[t]}\n")
