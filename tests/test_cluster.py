import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ctxrec import cluster as C
from ctxrec import graph as G
from conftest import corpus_from_rows
from reference_cluster import assign_many, assign_row, label_rows, reference_labels


class TestKmeansFit:
    def test_separated_blocks(self):
        pts = np.array([[0.0, 0.0], [0.0, 1.0], [10.0, 10.0], [10.0, 11.0]])
        model = C.kmeans_fit(pts, 2, seed=0)
        groups = {frozenset(np.flatnonzero(model.labels == c))
                  for c in range(2)}
        assert groups == {frozenset({0, 1}), frozenset({2, 3})}
        centers = {tuple(c) for c in model.centers}
        assert centers == {(0.0, 0.5), (10.0, 10.5)}

    def test_k_equals_points_zero_inertia(self):
        pts = np.random.default_rng(0).normal(size=(6, 3))
        model = C.kmeans_fit(pts, 6, seed=1)
        assert model.inertia_history[-1] == 0.0
        assert sorted(model.labels) == list(range(6))

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError, match="cannot fit"):
            C.kmeans_fit(np.zeros((3, 2)), 4)

    def test_non_finite_rejected(self):
        pts = np.zeros((5, 2))
        pts[0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            C.kmeans_fit(pts, 2)

    def test_inertia_monotone_non_increasing(self):
        rng = np.random.default_rng(2)
        pts = rng.normal(size=(200, 4))
        for seed in range(3):
            model = C.kmeans_fit(pts, 7, seed=seed, n_init=1)
            hist = np.array(model.inertia_history)
            assert (np.diff(hist) <= 1e-9).all()

    def test_final_assignment_is_fixed_point(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(150, 3))
        model = C.kmeans_fit(pts, 5, seed=4)
        order = np.argsort(model.session_ids)  # identity here
        again = assign_many(model, pts)
        assert np.array_equal(model.labels[order], again)

    def test_bitwise_determinism(self):
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(80, 4))
        a = C.kmeans_fit(pts, 6, seed=9)
        b = C.kmeans_fit(pts, 6, seed=9)
        assert np.array_equal(a.centers, b.centers)
        assert np.array_equal(a.labels, b.labels)
        assert a.inertia_history == b.inertia_history

    def test_empty_cluster_repair_keeps_k_centers(self):
        # duplicate points force collisions; all centers must stay finite
        pts = np.array([[0.0, 0.0]] * 5 + [[1.0, 1.0]] * 5)
        model = C.kmeans_fit(pts, 4, seed=0)
        assert model.centers.shape == (4, 2)
        assert np.isfinite(model.centers).all()


class TestAssign:
    def _model(self):
        centers = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0],
                            [3.0, 0.0], [4.0, 0.0], [6.0, 0.0]])
        return C.ContextModel(centers=centers,
                              session_ids=np.arange(0),
                              labels=np.arange(0))

    def test_exact_center_match(self):
        model = self._model()
        assert C.assign(model, np.array([4.0, 0.0])) == 4

    def test_equidistant_tie_takes_lower_id(self):
        model = self._model()
        # halfway between centers 2 and 5: distance 2 from center 2... build an
        # exactly equidistant point between centers id 2 (at x=2) and 5 (at x=6)
        assert C.assign(model, np.array([4.0, 0.0])) == 4  # sanity: 4 is closest
        model2 = C.ContextModel(
            centers=np.array([[9.0, 9.0], [9.0, -9.0], [2.0, 0.0],
                              [9.0, 9.0], [9.0, -9.0], [6.0, 0.0]]),
            session_ids=np.arange(0), labels=np.arange(0))
        assert C.assign(model2, np.array([4.0, 0.0])) == 2

    def test_dimension_mismatch(self):
        model = self._model()
        with pytest.raises(ValueError, match="dim"):
            C.assign(model, np.array([1.0, 2.0, 3.0]))

    def test_training_points_reproduce_assignments(self):
        pts = np.random.default_rng(6).normal(size=(60, 3))
        model = C.kmeans_fit(pts, 5, seed=7)
        for k in range(60):
            assert C.assign(model, pts[k]) == model.labels[k]

    def test_relabeling_invariance_under_center_permutation(self):
        pts = np.random.default_rng(8).normal(size=(50, 3))
        model = C.kmeans_fit(pts, 4, seed=0)
        perm = np.array([2, 0, 3, 1])
        permuted = C.ContextModel(centers=model.centers[perm],
                                  session_ids=model.session_ids,
                                  labels=model.labels)
        inverse = np.argsort(perm)
        for k in range(50):
            assert C.assign(permuted, pts[k]) == inverse[C.assign(model, pts[k])]


class TestLabelAll:
    def _stack(self):
        # user 0: 10 sessions of 2 interactions; the last session (test side)
        # duplicates the items of the first one
        rows = []
        t = 0
        items = [(0, 1), (1, 2), (2, 0), (0, 2), (1, 0),
                 (2, 1), (0, 1), (1, 2), (2, 0), (0, 1)]
        for pair in items:
            t += 10_000
            rows.append((0, pair[0], t))
            rows.append((0, pair[1], t + 10))
        corpus = corpus_from_rows(rows)
        graph = G.build_graph_from_corpus(corpus)
        enc = G.SageEncoder(corpus.num_items, 4, 4,
                            rng=np.random.default_rng(0))
        emb = enc.embed_all_sessions(graph)
        model = C.kmeans_fit(emb, 3, seed=1, session_ids=graph.session_ids)
        return corpus, graph, enc, model

    def _unembeddable_stack(self):
        # a corpus whose test session uses an item unseen in training
        rows = []
        t = 0
        for k in range(19):
            t += 10_000
            rows.append((0, k % 3, t))
        t += 10_000
        rows.append((0, 3, t))  # test-only item id 3
        corpus = corpus_from_rows(rows)
        graph = G.build_graph_from_corpus(corpus)
        enc = G.SageEncoder(corpus.num_items, 4, 4,
                            rng=np.random.default_rng(1))
        emb = enc.embed_all_sessions(graph)
        model = C.kmeans_fit(emb, 2, seed=0, session_ids=graph.session_ids)
        return corpus, graph, enc, model

    def test_trainval_sessions_use_stored_assignments(self):
        corpus, graph, enc, model = self._stack()
        labels = C.label_all(model, *enc.embed_corpus(graph, corpus))
        assert np.array_equal(model.session_ids, np.sort(graph.session_ids))
        assert np.array_equal(labels[model.session_ids], model.labels)

    def test_test_session_duplicating_train_items_gets_same_label(self):
        corpus, graph, enc, model = self._stack()
        labels = C.label_all(model, *enc.embed_corpus(graph, corpus))
        # session 9 is test-only and repeats session 0's item multiset {0, 1}
        assert 9 not in graph.session_ids
        assert corpus.sessions[9].items in ((0, 1), (1, 0))
        assert labels[9] == labels[0]

    def test_unembeddable_session_left_unlabeled(self):
        corpus, graph, enc, model = self._unembeddable_stack()
        embeddings, embeddable = enc.embed_corpus(graph, corpus)
        with pytest.warns(UserWarning, match="unlabeled"):
            labels = C.label_all(model, embeddings, embeddable)
        assert labels[corpus.num_sessions - 1] == C.UNLABELED

    def test_small_stack_equals_reembedding_oracle(self, small_stack):
        s = small_stack
        expected = reference_labels(s["kmeans"], s["encoder"], s["graph"],
                                    s["corpus"])
        assert s["labels"].dtype == expected.dtype
        assert np.array_equal(s["labels"], expected)

    def test_unembeddable_equals_reembedding_oracle(self):
        corpus, graph, enc, model = self._unembeddable_stack()
        with pytest.warns(UserWarning, match="unlabeled"):
            labels = C.label_all(model, *enc.embed_corpus(graph, corpus))
        expected = reference_labels(model, enc, graph, corpus)
        assert (expected == C.UNLABELED).sum() == 1
        assert labels.dtype == expected.dtype
        assert np.array_equal(labels, expected)


class TestLabelAllOracle:
    """The one-pass ``label_all`` and ``assign`` against the per-session
    copies they replaced (``reference_cluster``), at tolerance 0."""

    def test_small_stack(self, small_stack):
        s = small_stack
        labels = C.label_all(s["kmeans"], s["embeddings"], s["embeddable"])
        expected = label_rows(s["kmeans"], s["embeddings"], s["embeddable"])
        assert labels.tobytes() == expected.tobytes()
        assert len(s["embeddings"]) > len(s["kmeans"].session_ids)

    def test_unembeddable_sessions_warn_once(self):
        centers = np.array([[0.0, 0.0], [1.0, 1.0]])
        model = C.ContextModel(centers, np.array([0]), np.array([1]))
        embeddings = np.array([[0.0, 0.0], [0.9, 1.0], [0.0, 0.0], [0.0, 0.0]])
        embeddable = np.array([True, True, False, False])
        with pytest.warns(UserWarning, match=r"2 session\(s\) .* unlabeled: \[2, 3\]"):
            labels = C.label_all(model, embeddings, embeddable)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            expected = label_rows(model, embeddings, embeddable)
        assert labels.tobytes() == expected.tobytes()
        assert labels.tolist() == [1, 1, C.UNLABELED, C.UNLABELED]

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 4), st.integers(0, 12), st.integers(0, 2**16))
    def test_grid_points_with_ties(self, k, dim, n, seed):
        # points and centers on a coarse grid, so distance ties are common
        rng = np.random.default_rng(seed)
        model = C.ContextModel(rng.integers(-1, 2, size=(k, dim)) * 0.5,
                               np.flatnonzero(rng.random(n) < 0.3),
                               np.zeros(0, dtype=np.intp))
        model.labels = rng.integers(0, k, size=len(model.session_ids))
        embeddings = rng.integers(-2, 3, size=(n, dim)) * 0.25
        embeddable = rng.random(n) < 0.8
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            labels = C.label_all(model, embeddings, embeddable)
            expected = label_rows(model, embeddings, embeddable)
        assert labels.tobytes() == expected.tobytes()
        for row in embeddings:
            assert C.assign(model, row) == assign_row(model, row)

    def test_midpoints_between_centers(self):
        # each point is equally far from two centers up to rounding, so the
        # label depends on how every distance is summed
        rng = np.random.default_rng(4)
        centers = rng.normal(size=(6, 16))
        pairs = rng.integers(0, 6, size=(500, 2))
        embeddings = (centers[pairs[:, 0]] + centers[pairs[:, 1]]) / 2
        model = C.ContextModel(centers, np.arange(0), np.zeros(0, dtype=np.intp))
        labels = C.label_all(model, embeddings, np.ones(500, dtype=bool))
        assert labels.tobytes() == label_rows(model, embeddings, np.ones(500, dtype=bool)).tobytes()


def test_clusters_csv_export(tmp_path):
    pts = np.random.default_rng(1).normal(size=(30, 3))
    model = C.kmeans_fit(pts, 3, seed=0)
    corpus = corpus_from_rows([(0, k % 2, k * 10_000) for k in range(30)])
    labels = np.array([C.assign(model, pts[s.session_id])
                       for s in corpus.sessions])
    path = tmp_path / "clusters.csv"
    C.export_clusters_csv(path, model, corpus, labels, pts)
    lines = path.read_text().splitlines()
    assert lines[0] == "session_id,context_id,distance_to_center"
    assert len(lines) == 31
