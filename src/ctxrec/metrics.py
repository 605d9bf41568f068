"""Ranking metrics (MRR, Recall@k) and the repetition significance test.

Ranks use a deterministic total order: score descending, then item id
ascending, so tied scores place lower ids first.
"""

from __future__ import annotations

import numpy as np
from scipy.special import stdtr


def ranks_of_truth(scores: np.ndarray, true_items) -> np.ndarray:
    """Per row of a (B, V) score matrix, the 1-based rank of that row's true
    item under (score desc, id asc)."""
    scores = np.asarray(scores)
    t = np.asarray(true_items, dtype=np.intp)
    n = scores.shape[1]
    if ((t < 0) | (t >= n)).any():
        raise IndexError(f"true_item {t.tolist()} out of range for {n} items")
    s = scores[np.arange(len(t)), t][:, None]
    greater = (scores > s).sum(axis=1)
    tied_before = ((scores == s) & (np.arange(n) < t[:, None])).sum(axis=1)
    return 1 + greater + tied_before


def rank_of_truth(scores: np.ndarray, true_item: int) -> int:
    """1-based rank of the true item under (score desc, id asc)."""
    return int(ranks_of_truth(np.asarray(scores)[None], [true_item])[0])


def mrr(ranks) -> float:
    ranks = np.asarray(ranks, dtype=np.float64)
    if ranks.size == 0:
        raise ValueError("mrr of an empty rank list")
    if (ranks < 1).any():
        raise ValueError("ranks must be >= 1")
    return float((1.0 / ranks).mean())


def recall_at_k(ranks, k: int = 10) -> float:
    ranks = np.asarray(ranks, dtype=np.float64)
    if ranks.size == 0:
        raise ValueError("recall of an empty rank list")
    if (ranks < 1).any():
        raise ValueError("ranks must be >= 1")
    if k < 1:
        raise ValueError("k must be >= 1")
    return float((ranks <= k).mean())


def t_test_one_tailed(samples_a, samples_b) -> tuple[float, float]:
    """Welch two-sample one-tailed t-test of H1: mean(a) > mean(b).

    Returns (t, p) with Welch-Satterthwaite degrees of freedom and the
    p-value from the Student-t CDF. Degenerate zero-variance inputs: equal
    means give (0, 0.5); unequal means give an infinite t with p of 0 or 1.
    """
    a = np.asarray(samples_a, dtype=np.float64)
    b = np.asarray(samples_b, dtype=np.float64)
    if a.size < 2 or b.size < 2:
        raise ValueError("need at least 2 samples per group")
    ma, mb = a.mean(), b.mean()
    va, vb = a.var(ddof=1), b.var(ddof=1)
    if va == 0.0 and vb == 0.0:
        if ma == mb:
            return 0.0, 0.5
        return (np.inf, 0.0) if ma > mb else (-np.inf, 1.0)
    se2 = va / a.size + vb / b.size
    t = float((ma - mb) / np.sqrt(se2))
    df = se2 ** 2 / ((va / a.size) ** 2 / (a.size - 1)
                     + (vb / b.size) ** 2 / (b.size - 1))
    p = float(1.0 - stdtr(df, t))
    return t, p

