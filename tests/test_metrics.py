"""Ranking metrics against hand examples and brute-force sweeps."""

import numpy as np
import pytest

from relmp.errors import ContractError
from relmp.metrics import (
    query_ranks,
    random_mrr_baseline,
    ranking_metrics,
)


def _rank_oracle(scores_row, true_idx, keep_row):
    """Mid-rank by explicit sorting into strict tie groups."""
    pool = [(s, i) for i, (s, k) in enumerate(zip(scores_row, keep_row))
            if k or i == true_idx]
    true_score = scores_row[true_idx]
    best = 1 + sum(1 for s, i in pool if s > true_score)
    worst = best + sum(1 for s, i in pool if s == true_score) - 1
    return (best + worst) / 2.0


def test_rank_hand_example():
    scores = np.array([[0.9, 0.5, 0.5, 0.1]])
    # one stronger candidate, one exact tie: rank halfway between 2 and 3
    assert query_ranks(scores, np.array([1]))[0] == 2.5
    assert query_ranks(scores, np.array([0]))[0] == 1.0
    assert query_ranks(scores, np.array([3]))[0] == 4.0


def test_rank_all_tied_is_midpoint():
    for n in (1, 2, 5, 100):
        scores = np.full((1, n), 0.3)
        assert query_ranks(scores, np.array([0]))[0] == (1 + n) / 2.0


def test_filtering_removes_known_candidates():
    scores = np.array([[0.9, 0.5, 0.8, 0.1]])
    mask = np.zeros((1, 4), dtype=bool)
    mask[0, 0] = True  # candidate 0 is a known true answer of another query
    assert query_ranks(scores, np.array([1]), mask)[0] == 2.0
    # the query's own answer survives even if the mask marks it
    mask[0, 1] = True
    assert query_ranks(scores, np.array([1]), mask)[0] == 2.0


def test_ranks_match_sorting_oracle_with_ties():
    rng = np.random.default_rng(8)
    for trial in range(5):
        q, n = 12, 20
        scores = np.round(rng.random((q, n)), 1)  # coarse grid forces ties
        true_idx = rng.integers(0, n, size=q)
        mask = rng.random((q, n)) < 0.3
        got = query_ranks(scores, true_idx, mask)
        for i in range(q):
            want = _rank_oracle(scores[i], int(true_idx[i]), ~mask[i])
            assert got[i] == want


def test_ranking_metrics_hand_batch():
    scores = np.array([[0.9, 0.1, 0.2],   # true 0 -> rank 1
                       [0.9, 0.1, 0.2],   # true 1 -> rank 3
                       [0.5, 0.5, 0.5]])  # true 2 -> rank 2 (all tied)
    m = ranking_metrics(scores, np.array([0, 1, 2]))
    assert m["mr"] == pytest.approx(2.0)
    assert m["mrr"] == pytest.approx((1.0 + 1.0 / 3.0 + 0.5) / 3.0)
    assert m["hits@1"] == pytest.approx(1.0 / 3.0)
    assert m["hits@3"] == 1.0
    assert m["hits@10"] == 1.0


def test_hits_counts_midrank_within_cutoff():
    # rank 10.5 misses hits@10, rank exactly 10 counts
    scores = np.zeros((1, 20))
    scores[0, :10] = 1.0
    assert ranking_metrics(scores, np.array([10]))["hits@10"] == 0.0
    scores2 = np.zeros((1, 20))
    scores2[0, :9] = 1.0
    scores2[0, 19] = -1.0  # push one candidate strictly below
    m = ranking_metrics(scores2, np.array([10]))
    # nine better, ten tied (self included): rank = 9 + 1 + 9/2 = 14.5
    assert m["hits@10"] == 0.0
    scores3 = np.zeros((1, 20))
    scores3[0, :9] = 1.0
    scores3[0, 10:] = -1.0
    assert ranking_metrics(scores3, np.array([9]))["hits@10"] == 1.0


def test_random_baseline_harmonic():
    assert random_mrr_baseline([1]) == 1.0
    assert random_mrr_baseline([3]) == pytest.approx((1 + 0.5 + 1 / 3) / 3)
    h100 = sum(1.0 / k for k in range(1, 101))
    assert random_mrr_baseline([100, 100]) == pytest.approx(h100 / 100)
    with pytest.raises(ContractError):
        random_mrr_baseline([0])


def test_float32_scores_rank_as_their_float64_casts():
    # the cast to float64 is exact and keeps the order, so comparing in
    # float32 decides every > and == as the cast would; a coarse grid makes
    # ties, and the mask covers tied candidates and some true answers
    rng = np.random.default_rng(9)
    q, n = 40, 30
    scores = (np.round(rng.normal(size=(q, n)) * 2) / 3).astype(np.float32)
    true_idx = rng.integers(0, n, size=q)
    rows = np.arange(q)
    ties = scores == scores[rows, true_idx][:, None]
    assert (ties.sum(axis=1) > 1).sum() >= q // 2
    mask = rng.random((q, n)) < 0.3
    mask[::4] |= ties[::4]                  # every tie filtered
    mask[rows[::3], true_idx[::3]] = True   # the true answer filtered
    got = query_ranks(scores, true_idx, mask)
    assert got.dtype == np.float64
    assert np.array_equal(got, query_ranks(scores.astype(np.float64),
                                           true_idx, mask))
    assert np.array_equal(got[:4], [_rank_oracle(scores[i], int(true_idx[i]),
                                                 ~mask[i]) for i in range(4)])


def test_bad_shapes_rejected():
    with pytest.raises(ContractError):
        query_ranks(np.zeros(4), np.array([0]))
    with pytest.raises(ContractError):
        query_ranks(np.zeros((2, 4)), np.array([0]))
    with pytest.raises(ContractError):
        query_ranks(np.zeros((1, 4)), np.array([0]), np.zeros((2, 4), dtype=bool))
