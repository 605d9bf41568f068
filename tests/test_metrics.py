import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ctxrec.metrics import (
    mrr,
    rank_of_truth,
    recall_at_k,
    t_test_one_tailed,
)


def _oracle_rank(scores, true_item):
    """Full-sort oracle: order by (score desc, id asc), find the true item."""
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    return order.index(true_item) + 1


class TestRankOfTruth:
    def test_unique_max_is_rank_one(self):
        assert rank_of_truth(np.array([0.1, 0.9, 0.2]), 1) == 1

    def test_uniform_ties_id_zero(self):
        assert rank_of_truth(np.full(10, 0.1), 0) == 1

    def test_uniform_ties_id_nine(self):
        assert rank_of_truth(np.full(10, 0.1), 9) == 10

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            rank_of_truth(np.array([0.5, 0.5]), 2)

    def test_matches_full_sort_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            n = int(rng.integers(2, 40))
            # quantized scores force frequent ties
            scores = rng.integers(0, 5, size=n) / 4.0
            true_item = int(rng.integers(n))
            assert rank_of_truth(scores, true_item) == _oracle_rank(scores, true_item)

    def test_invariant_under_positive_monotone_transform(self):
        rng = np.random.default_rng(1)
        scores = rng.normal(size=30)
        for true_item in range(0, 30, 7):
            base = rank_of_truth(scores, true_item)
            assert rank_of_truth(np.exp(scores), true_item) == base
            assert rank_of_truth(3.0 * scores + 11.0, true_item) == base


class TestMrr:
    def test_single_hit(self):
        assert mrr([1]) == 1.0

    def test_hand_arithmetic(self):
        assert mrr([1, 2, 4]) == pytest.approx(0.5833333333)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mrr([])

    def test_matches_brute_force_summation(self):
        rng = np.random.default_rng(2)
        ranks = rng.integers(1, 500, size=2000)
        brute = sum(1.0 / r for r in ranks) / len(ranks)
        assert mrr(ranks) == pytest.approx(brute, abs=1e-15)


class TestRecallAtK:
    def test_rank_ten_is_hit(self):
        assert recall_at_k([10], 10) == 1.0

    def test_rank_eleven_is_miss(self):
        assert recall_at_k([11], 10) == 0.0

    def test_all_rank_one(self):
        assert recall_at_k([1, 1, 1]) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            recall_at_k([], 10)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(1, 100), min_size=1, max_size=50))
    def test_monotone_in_k_and_total_recall(self, ranks):
        values = [recall_at_k(ranks, k) for k in range(1, 101)]
        assert all(a <= b for a, b in zip(values, values[1:]))
        assert recall_at_k(ranks, max(ranks)) == 1.0


class TestTTest:
    def test_identical_samples_null(self):
        t, p = t_test_one_tailed([0.5, 0.6, 0.7], [0.5, 0.6, 0.7])
        assert t == 0.0
        assert p == 0.5

    def test_extreme_separation(self):
        rng = np.random.default_rng(3)
        b = rng.normal(0.0, 1.0, size=8)
        a = b + 100.0 * b.std()
        _, p = t_test_one_tailed(a, b)
        assert p < 1e-4

    def test_zero_variance_cases(self):
        assert t_test_one_tailed([1.0, 1.0], [1.0, 1.0]) == (0.0, 0.5)
        t, p = t_test_one_tailed([2.0, 2.0], [1.0, 1.0])
        assert t == np.inf and p == 0.0
        t, p = t_test_one_tailed([1.0, 1.0], [2.0, 2.0])
        assert t == -np.inf and p == 1.0

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            t_test_one_tailed([1.0], [1.0, 2.0])

    def test_against_quadrature_oracle(self):
        # independent oracle: integrate the Student-t density with mpmath
        import mpmath

        a = [0.71, 0.69, 0.74, 0.70, 0.72]
        b = [0.66, 0.68, 0.65, 0.69, 0.67]
        t, p = t_test_one_tailed(a, b)

        va = np.var(a, ddof=1) / len(a)
        vb = np.var(b, ddof=1) / len(b)
        t_ref = (np.mean(a) - np.mean(b)) / np.sqrt(va + vb)
        df = (va + vb) ** 2 / (va ** 2 / (len(a) - 1) + vb ** 2 / (len(b) - 1))

        def density(x):
            return (mpmath.gamma((df + 1) / 2)
                    / (mpmath.sqrt(df * mpmath.pi) * mpmath.gamma(df / 2))
                    * (1 + x * x / df) ** (-(df + 1) / 2))

        p_ref = float(mpmath.quad(density, [t_ref, mpmath.inf]))
        assert t == pytest.approx(t_ref, abs=1e-12)
        assert p == pytest.approx(p_ref, abs=1e-6)

    def test_direction_is_one_tailed(self):
        a = [0.9, 0.91, 0.92]
        b = [0.1, 0.11, 0.12]
        _, p_greater = t_test_one_tailed(a, b)
        _, p_less = t_test_one_tailed(b, a)
        assert p_greater < 0.05
        assert p_less > 0.95

