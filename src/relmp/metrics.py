"""Evaluation metrics: filtered ranking for link prediction.

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


def query_ranks(scores: np.ndarray, true_idx: np.ndarray,
                filter_mask: np.ndarray | None = None) -> np.ndarray:
    """Mid-rank of each query's true candidate among the unfiltered ones.

    scores is [Q, N] (higher is better), true_idx is [Q], and filter_mask is
    an optional boolean [Q, N] marking candidates to drop before ranking; the
    true candidate itself is always kept even if marked. Scores are compared
    in their own dtype: float32 scores rank exactly as their (exact, order-
    preserving) float64 casts would.
    """
    scores = np.asarray(scores)
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
