"""Ranking metrics and Fmax against hand examples and brute-force sweeps."""

import numpy as np
import pytest

from relmp.errors import ContractError
from relmp.metrics import (
    FMAX_THRESHOLDS,
    fmax,
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


def test_bad_shapes_rejected():
    with pytest.raises(ContractError):
        query_ranks(np.zeros(4), np.array([0]))
    with pytest.raises(ContractError):
        query_ranks(np.zeros((2, 4)), np.array([0]))
    with pytest.raises(ContractError):
        query_ranks(np.zeros((1, 4)), np.array([0]), np.zeros((2, 4), dtype=bool))


# -- Fmax ------------------------------------------------------------------------------


def _fmax_oracle(scores, labels):
    best = (0.0, FMAX_THRESHOLDS[0])
    n_prot, _ = scores.shape
    for t in FMAX_THRESHOLDS:
        precisions = []
        recalls = []
        for i in range(n_prot):
            pred = {j for j, s in enumerate(scores[i]) if s >= t}
            true = {j for j, y in enumerate(labels[i]) if y}
            if pred:
                precisions.append(len(pred & true) / len(pred))
            recalls.append(len(pred & true) / len(true) if true else 0.0)
        if not precisions:
            continue
        p = sum(precisions) / len(precisions)
        r = sum(recalls) / n_prot
        if p + r > 0:
            f = 2 * p * r / (p + r)
            if f > best[0]:
                best = (f, float(t))
    return best


def test_fmax_hand_example():
    scores = np.array([[0.9, 0.2], [0.6, 0.4]])
    labels = np.array([[1, 0], [0, 1]])
    f, t = fmax(scores, labels)
    # at thresholds in (0.2, 0.4]: precision (1 + 1/2) / 2, recall 1
    assert f == pytest.approx(6.0 / 7.0)
    assert t == pytest.approx(0.21)


def test_fmax_precision_over_covered_recall_over_all():
    # above t=0.1 protein 1 makes no prediction: it must leave precision
    # alone but still drag recall down
    scores = np.array([[0.9], [0.1]])
    labels = np.array([[1], [0]])
    f, t = fmax(scores, labels)
    # t in (0.1, 0.9]: P = 1 (only protein 0 covered), R = (1 + 0) / 2;
    # t <= 0.1 scores F = 0.5, strictly worse
    assert f == pytest.approx(2 * 1.0 * 0.5 / 1.5)
    assert t == pytest.approx(0.11)


def test_fmax_zero_label_protein_contributes_zero_recall():
    scores = np.array([[0.9, 0.9], [0.9, 0.9]])
    labels = np.array([[1, 1], [0, 0]])
    f, _ = fmax(scores, labels)
    # P = (1 + 0) / 2, R = (1 + 0) / 2
    assert f == pytest.approx(0.5)


def test_fmax_matches_bruteforce_oracle():
    rng = np.random.default_rng(14)
    for trial in range(5):
        n, m = int(rng.integers(3, 10)), int(rng.integers(2, 8))
        scores = np.round(rng.random((n, m)), 2)
        labels = rng.random((n, m)) < 0.4
        assert fmax(scores, labels) == pytest.approx(_fmax_oracle(scores, labels))


def test_fmax_rejects_out_of_range_scores():
    labels = np.ones((1, 2))
    with pytest.raises(ContractError):
        fmax(np.array([[1.5, 0.2]]), labels)
    with pytest.raises(ContractError):
        fmax(np.array([[-0.1, 0.2]]), labels)
    with pytest.raises(ContractError):
        fmax(np.zeros((1, 3)), labels)
