"""Evaluation metrics: filtered ranking for link prediction, Fmax for multi-label.

Ranking uses the mid-rank convention for ties: a candidate tied with t others
gets the average of the best and worst positions it could occupy, so a query
whose candidates all tie scores (1 + N) / 2. Filtering removes known-true
candidates (other than the query's own answer) before ranking.
`query_ranks` ranks one block of queries; `rank_summary` turns ranks into
MR, MRR and Hits@k, so a caller may rank in blocks and summarize once, and
`ranking_metrics` does both, unfiltered, for one dense [Q, N] score matrix.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError

HITS_CUTOFFS = (1, 3, 10)

# Fmax decision thresholds: 0.01, 0.02, ..., 0.99
FMAX_THRESHOLDS = np.round(np.arange(1, 100) * 0.01, 2)


def query_ranks(scores: np.ndarray, true_idx: np.ndarray,
                filter_mask: np.ndarray | None = None) -> np.ndarray:
    """Mid-rank of each query's true candidate among the unfiltered ones.

    scores is [Q, N] (higher is better), true_idx is [Q], and filter_mask is
    an optional boolean [Q, N] marking candidates to drop before ranking; the
    true candidate itself is always kept even if marked.
    """
    scores = np.asarray(scores, dtype=np.float64)
    true_idx = np.asarray(true_idx)
    if scores.ndim != 2 or true_idx.shape != (scores.shape[0],):
        raise ContractError("scores must be [Q, N] with one true index per query")
    q, n = scores.shape
    if filter_mask is None:
        keep = np.ones((q, n), dtype=bool)
    else:
        keep = ~np.asarray(filter_mask, dtype=bool)
        if keep.shape != scores.shape:
            raise ContractError("filter mask shape must match scores")
    rows = np.arange(q)
    keep[rows, true_idx] = True
    true_scores = scores[rows, true_idx]
    better = ((scores > true_scores[:, None]) & keep).sum(axis=1)
    equal = ((scores == true_scores[:, None]) & keep).sum(axis=1) - 1
    return better + 1.0 + equal / 2.0


def ranking_metrics(scores: np.ndarray, true_idx: np.ndarray) -> dict:
    """Unfiltered MR, MRR and Hits@k over a batch of ranking queries."""
    return rank_summary(query_ranks(scores, true_idx))


def rank_summary(ranks: np.ndarray) -> dict:
    """MR, MRR and Hits@k from per-query ranks (as `query_ranks` returns).

    Callers that rank queries block by block concatenate the blocks' ranks
    and summarize once, which gives the same floats as one dense call.
    """
    ranks = np.asarray(ranks, dtype=np.float64)
    out = {"mr": float(ranks.mean()), "mrr": float((1.0 / ranks).mean())}
    for k in HITS_CUTOFFS:
        out[f"hits@{k}"] = float((ranks <= k).mean())
    return out


def random_mrr_baseline(candidate_counts) -> float:
    """Expected MRR of a uniformly random scorer.

    For a query with N live candidates the expected reciprocal rank is
    H_N / N (H_N the N-th harmonic number); the baseline averages this over
    queries, matching the filtered candidate counts actually used.
    """
    counts = np.asarray(candidate_counts, dtype=np.int64)
    if counts.size == 0 or np.any(counts < 1):
        raise ContractError("each query needs at least one candidate")
    vals = []
    for n in counts:
        harmonic = np.sum(1.0 / np.arange(1, n + 1))
        vals.append(harmonic / n)
    return float(np.mean(vals))


# -- protein-centric Fmax --------------------------------------------------------------


def fmax(scores: np.ndarray, labels: np.ndarray) -> tuple[float, float]:
    """Best harmonic mean of protein-centric precision and recall.

    scores and labels are [num_proteins, num_tasks]; scores must already be
    probabilities in [0, 1]. At each threshold t of FMAX_THRESHOLDS a task is
    predicted when its score is >= t; precision averages over proteins with at
    least one prediction, recall averages over all proteins (a protein with no
    true labels contributes recall 0). Returns (fmax, best_threshold).
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels).astype(bool)
    if scores.shape != labels.shape or scores.ndim != 2:
        raise ContractError("scores and labels must both be [proteins, tasks]")
    if scores.size and (scores.min() < 0.0 or scores.max() > 1.0):
        raise ContractError("scores must lie in [0, 1]; apply a sigmoid first")
    if scores.shape[0] == 0:
        raise ContractError("need at least one protein")
    best_f, best_t = 0.0, float(FMAX_THRESHOLDS[0])
    n_labels = labels.sum(axis=1)
    for t in FMAX_THRESHOLDS:
        pred = scores >= t
        n_pred = pred.sum(axis=1)
        tp = (pred & labels).sum(axis=1)
        covered = n_pred > 0
        if not covered.any():
            continue
        precision = float((tp[covered] / n_pred[covered]).mean())
        with np.errstate(invalid="ignore"):
            rec_terms = np.where(n_labels > 0, tp / np.maximum(n_labels, 1), 0.0)
        recall = float(rec_terms.mean())
        if precision + recall > 0.0:
            f = 2.0 * precision * recall / (precision + recall)
            if f > best_f:
                best_f, best_t = f, float(t)
    return best_f, best_t
