import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_graph
import reference_models
import reference_trainers
from ctxrec import predictor as P
from ctxrec.cluster import UNLABELED
from ctxrec.corpus import TRAIN, VAL
from ctxrec.nn import engine, finite_diff_check
from reference_corpus import session_split, user_session_ids
from conftest import corpus_from_rows


def _tiny_model(num_contexts=4, feat_dim=7, seed=0, **kw):
    return P.ContextPredictor(num_users=3, num_items=5,
                              num_contexts=num_contexts, feat_dim=feat_dim,
                              user_dim=4, item_dim=4, hidden=3,
                              rng=np.random.default_rng(seed), **kw)


class TestFeatures:
    def test_dimensions_and_gap_fill(self):
        corpus = corpus_from_rows([(0, k % 2, k * 10_000) for k in range(12)])
        emb = np.random.default_rng(0).normal(size=(corpus.num_sessions, 6))
        feats = P.build_session_features(corpus, emb)
        assert feats.shape == (corpus.num_sessions, 6 + 3)
        assert np.allclose(feats[:, :6], emb)
        # last session of the user has no next session: gap slot is 0
        last_sid = user_session_ids(corpus, 0)[-1]
        assert feats[last_sid, -2] == 0.0

    def test_stats_come_from_train_sessions_only(self):
        # two-item sessions whose durations grow with time, so the later
        # validation and test sessions are longer than the train ones
        corpus = corpus_from_rows([(0, item, k * 100_000 + item * 60 * (k + 1))
                                   for k in range(20) for item in (0, 1)])
        emb = np.zeros((corpus.num_sessions, 2))
        durations = P.build_session_features(corpus, emb)[:, -3]
        train = [session_split(corpus, s) == TRAIN for s in range(corpus.num_sessions)]
        assert 0 < sum(train) < corpus.num_sessions
        assert abs(durations[train].mean()) < 1e-12
        assert durations.mean() > 0.1


class TestLongTermInput:
    def _corpus(self, n_sessions, user=0):
        rows = []
        t = 0
        for k in range(n_sessions):
            t += 10_000
            rows.append((user, k % 3, t))
        return corpus_from_rows(rows)

    def test_third_session_has_two_rows(self):
        corpus = self._corpus(12)
        feats = P.build_session_features(
            corpus, np.random.default_rng(1).normal(size=(12, 4)))
        out = P.long_term_input(corpus, feats, 0, user_session_ids(corpus, 0)[2])
        assert out.shape == (2, feats.shape[1])
        assert np.array_equal(out[0], feats[user_session_ids(corpus, 0)[0]])

    def test_first_session_single_zero_row(self):
        corpus = self._corpus(12)
        feats = P.build_session_features(
            corpus, np.random.default_rng(1).normal(size=(12, 4)))
        out = P.long_term_input(corpus, feats, 0, user_session_ids(corpus, 0)[0])
        assert out.shape == (1, feats.shape[1])
        assert np.all(out == 0.0)

    def test_window_keeps_most_recent_fifty(self):
        corpus = self._corpus(60)
        feats = P.build_session_features(
            corpus, np.random.default_rng(2).normal(size=(60, 4)))
        sids = user_session_ids(corpus, 0)
        out = P.long_term_input(corpus, feats, 0, sids[59], max_len=50)
        assert out.shape == (50, feats.shape[1])
        assert np.array_equal(out, feats[sids[9:59]])

    def test_unknown_user_rejected(self):
        corpus = self._corpus(12)
        feats = P.build_session_features(corpus, np.zeros((12, 4)))
        with pytest.raises(ValueError, match="unknown user"):
            P.long_term_input(corpus, feats, 7, 0)

    @pytest.mark.parametrize("session_id", [3, 4, -1], ids=["other-user", "past-end", "negative"])
    def test_session_of_another_user_named(self, session_id):
        corpus = corpus_from_rows([(u, 0, k * 10_000) for u in (0, 1) for k in range(2)])
        feats = P.build_session_features(corpus, np.zeros((corpus.num_sessions, 4)))
        assert user_session_ids(corpus, 0) == [0, 1] and corpus.num_sessions == 4
        with pytest.raises(ValueError, match=f"session {session_id} is not a session of user 0"):
            P.long_term_input(corpus, feats, 0, session_id)


class TestPredict:
    def test_zero_head_gives_uniform(self):
        model = _tiny_model()
        model.fc1.weight.value[...] = 0.0
        model.fc1.bias.value[...] = 0.0
        hist = np.random.default_rng(0).normal(size=(3, 7))
        probs = model.predict_probs(0, [1, 2], hist)
        assert np.allclose(probs, 0.25)

    def test_deterministic_for_identical_inputs(self):
        model = _tiny_model()
        hist = np.random.default_rng(1).normal(size=(2, 7))
        a = model.predict_probs(1, [], hist)
        b = model.predict_probs(1, [], hist)
        assert np.array_equal(a, b)

    def test_valid_distribution_for_all_prefix_lengths(self):
        model = _tiny_model()
        hist = np.random.default_rng(2).normal(size=(4, 7))
        for prefix in ([], [0], [0, 3], [1, 1, 4, 2]):
            probs = model.predict_probs(2, prefix, hist)
            assert (probs > 0).all()
            assert abs(probs.sum() - 1.0) < 1e-9

    def test_frozen_short_encoder_isolates_wiring(self):
        # with the short-horizon LSTM zeroed its output is constant, so the
        # prediction must not depend on prefix content at all
        model = _tiny_model()
        for p in model.short_lstm.params():
            p.value[...] = 0.0
        hist = np.random.default_rng(3).normal(size=(3, 7))
        a = model.predict_probs(0, [1, 2, 3], hist)
        b = model.predict_probs(0, [4], hist)
        c = model.predict_probs(0, [], hist)
        assert np.array_equal(a, b)
        # empty prefix routes the aux vector through the zeroed LSTM: same z
        assert np.array_equal(a, c)

    def test_unknown_item_rejected(self):
        model = _tiny_model()
        with pytest.raises(IndexError):
            model.predict_probs(0, [99], np.zeros((1, 7)))

    def test_prefix_capped_at_max_seq_len(self):
        model = _tiny_model(max_seq_len=3)
        hist = np.zeros((1, 7))
        long_prefix = [0, 1, 2, 3, 4]
        a = model.predict_probs(0, long_prefix, hist)
        b = model.predict_probs(0, long_prefix[-3:], hist)
        assert np.array_equal(a, b)


class TestTopK:
    def test_hand_ranking_id_order(self):
        probs = np.array([0.1, 0.5, 0.2, 0.15, 0.05])
        assert P.top_k_contexts(probs, 3) == [1, 2, 3]

    def test_uniform_tie_break(self):
        assert P.top_k_contexts(np.full(5, 0.2), 3) == [0, 1, 2]

    def test_k_equals_all(self):
        assert P.top_k_contexts(np.array([0.3, 0.3, 0.4]), 3) == [0, 1, 2]

    def test_k_too_large(self):
        with pytest.raises(ValueError):
            P.top_k_contexts(np.array([0.5, 0.5]), 3)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=12),
           st.integers(1, 12))
    def test_ascending_and_sized(self, weights, k):
        probs = np.array(weights)
        if k > len(probs):
            return
        out = P.top_k_contexts(probs, k)
        assert len(out) == k
        assert all(a < b for a, b in zip(out, out[1:]))


class TestTrainContext:
    def test_memorizes_trivial_corpus(self, small_stack):
        corpus = small_stack["corpus"]
        feats = small_stack["features"]
        labels = small_stack["labels"]
        rng = np.random.default_rng(0)
        model = P.ContextPredictor(corpus.num_users, corpus.num_items, 4,
                                   feats.shape[1], user_dim=8, item_dim=8, hidden=4,
                                   rng=rng)
        history = P.train_context(model, corpus, feats, labels, rng, lr=0.01,
                                  batch_size=256, max_epochs=6, patience=3)
        assert history["train_loss"][-1] < history["train_loss"][0]

    def test_gradient_check_on_toy_corpus(self, small_stack):
        corpus = small_stack["corpus"]
        feats = small_stack["features"]
        labels = small_stack["labels"]
        model = P.ContextPredictor(corpus.num_users, corpus.num_items, 4,
                                   feats.shape[1], user_dim=4, item_dim=4, hidden=3,
                                   rng=np.random.default_rng(1))
        examples = reference_trainers.build_context_examples(corpus, labels, TRAIN)[:8]

        def build():
            losses = []
            for ex in examples:
                hist = P.long_term_input(corpus, feats, ex.user_id,
                                         ex.session_id)
                z_long = reference_models.encode_history(model, hist)
                items = corpus.sessions[ex.session_id].items
                logits = reference_models.context_logits_var(
                    model, ex.user_id, items[:ex.position], z_long)
                loss = engine.softmax_cross_entropy(logits, ex.label)
                losses.append(loss)
            return reference_graph.add_n(losses, [1.0 / len(losses)] * len(losses))

        report = finite_diff_check(build, model.params(), tolerance=1e-4,
                                   samples_per_param=3,
                                   rng=np.random.default_rng(2))
        assert report.passed, str(report)

    def _covering_batch(self, corpus, labels, max_seq_len):
        """Train examples covering an empty prefix, a prefix longer than
        ``max_seq_len`` and a first session (history = one zero row)."""
        examples = reference_trainers.build_context_examples(corpus, labels, TRAIN)
        first = {user_session_ids(corpus, u)[0] for u in range(corpus.num_users)}
        batch = [ex for ex in examples if ex.position > max_seq_len][:6]
        batch += [ex for ex in examples if ex.session_id in first][:6]
        batch += [ex for ex in examples if ex.position == 0][:6]
        assert len(batch) == 18
        return batch

    def test_batch_loss_matches_per_example_oracle(self, small_stack):
        corpus = small_stack["corpus"]
        feats = small_stack["features"]
        model = P.ContextPredictor(corpus.num_users, corpus.num_items, 4,
                                   feats.shape[1], user_dim=4, item_dim=4, hidden=3,
                                   max_seq_len=2, rng=np.random.default_rng(7))
        batch = self._covering_batch(corpus, small_stack["labels"], 2)
        results = []
        for loss_fn in (P.batch_loss, reference_models.context_batch_loss):
            for p in model.params():
                p.zero_grad()
            loss = loss_fn(model, corpus, feats, batch)
            engine.backward(loss)
            results.append((float(loss.value), [p.grad.copy() for p in model.params()]))
        (loss, grads), (ref_loss, ref_grads) = results
        assert abs(loss - ref_loss) <= 1e-10 * abs(ref_loss)
        for p, g, ref_g in zip(model.params(), grads, ref_grads):
            assert np.abs(g - ref_g).max() <= 1e-10 * np.abs(ref_g).max(), p.name

    def test_shared_source_batch_matches_per_example_oracle(self, small_stack):
        """Every train example of three users in one batch: their histories
        share per-user sources (windows from the first session) or read
        truncated windows of ``max_seq_len`` = 3, and a session's prefixes
        share one source."""
        corpus = small_stack["corpus"]
        feats = small_stack["features"]
        model = P.ContextPredictor(corpus.num_users, corpus.num_items, 4,
                                   feats.shape[1], user_dim=4, item_dim=4, hidden=3,
                                   max_seq_len=3, rng=np.random.default_rng(9))
        batch = [ex for ex in reference_trainers.build_context_examples(
                     corpus, small_stack["labels"], TRAIN) if ex.user_id < 3]
        js = [user_session_ids(corpus, ex.user_id).index(ex.session_id) for ex in batch]
        assert min(js) == 0 and max(js) > 3
        assert min(ex.position for ex in batch) == 0
        assert max(ex.position for ex in batch) > 3
        results = []
        for loss_fn in (P.batch_loss, reference_models.context_batch_loss):
            for p in model.params():
                p.zero_grad()
            loss = loss_fn(model, corpus, feats, batch)
            engine.backward(loss)
            results.append((float(loss.value), [p.grad.copy() for p in model.params()]))
        (loss, grads), (ref_loss, ref_grads) = results
        assert abs(loss - ref_loss) <= 1e-10 * abs(ref_loss)
        for p, g, ref_g in zip(model.params(), grads, ref_grads):
            assert np.abs(g - ref_g).max() <= 1e-10 * np.abs(ref_g).max(), p.name

    def test_gradient_check_on_batch_loss(self, small_stack):
        corpus = small_stack["corpus"]
        feats = small_stack["features"]
        model = P.ContextPredictor(corpus.num_users, corpus.num_items, 4,
                                   feats.shape[1], user_dim=4, item_dim=4, hidden=3,
                                   max_seq_len=2, rng=np.random.default_rng(8))
        batch = self._covering_batch(corpus, small_stack["labels"], 2)

        def build():
            return P.batch_loss(model, corpus, feats, batch)

        report = finite_diff_check(build, model.params(), tolerance=1e-4,
                                   samples_per_param=3,
                                   rng=np.random.default_rng(2))
        assert report.passed, str(report)
        assert not finite_diff_check(build, model.params(), tolerance=1e-4,
                                     samples_per_param=3,
                                     rng=np.random.default_rng(2),
                                     gradient_scale=2.0).passed

    def test_seeded_training_is_bitwise_reproducible(self, small_stack):
        corpus = small_stack["corpus"]
        feats = small_stack["features"]
        labels = small_stack["labels"]
        results = []
        for _ in range(2):
            rng = np.random.default_rng(42)
            model = P.ContextPredictor(corpus.num_users, corpus.num_items, 4,
                                       feats.shape[1], user_dim=4, item_dim=4,
                                       hidden=3, rng=rng)
            P.train_context(model, corpus, feats, labels, rng, lr=0.01,
                            batch_size=128, max_epochs=2, patience=2)
            results.append([p.value.copy() for p in model.params()])
        for a, b in zip(*results):
            assert np.array_equal(a, b)

    def test_empty_training_set_rejected(self, small_stack):
        corpus = small_stack["corpus"]
        feats = small_stack["features"]
        bad_labels = np.full(corpus.num_sessions, -1)
        model = _tiny_model(feat_dim=feats.shape[1])
        with pytest.raises(ValueError, match="no training examples"):
            P.train_context(model, corpus, feats, bad_labels,
                            np.random.default_rng(0))


def test_context_examples_match_per_interaction_oracle(small_stack):
    corpus = small_stack["corpus"]
    labels = small_stack["labels"].copy()
    labels[::3] = UNLABELED  # skipped sessions, on top of any the stack left out
    got = P.context_rows(corpus, labels)
    assert sorted(got) == [TRAIN, VAL]
    for tag in (TRAIN, VAL):
        want = reference_trainers.build_context_examples(corpus, labels, tag)
        assert len(want) > 0
        assert got[tag].dtype == np.intp
        assert got[tag].tolist() == [list(ex) for ex in want]


def test_predict_all_prefixes_covers_every_interaction(small_stack):
    corpus = small_stack["corpus"]
    feats = small_stack["features"]
    model = P.ContextPredictor(corpus.num_users, corpus.num_items, 4,
                               feats.shape[1], user_dim=4, item_dim=4, hidden=3,
                               rng=np.random.default_rng(3))
    probs = P.predict_all_prefixes(model, corpus, feats)
    assert probs.shape == (len(corpus.interactions), 4)
    assert (probs >= 0).all() and np.abs(probs.sum(axis=1) - 1).max() < 1e-12
    ids = P.top_k_rows(probs, 2)
    assert (np.diff(ids, axis=1) > 0).all()  # ascending ids


def test_predict_all_prefixes_matches_per_prefix_oracle(small_stack):
    corpus = small_stack["corpus"]
    feats = small_stack["features"]
    model = P.ContextPredictor(corpus.num_users, corpus.num_items, 4,
                               feats.shape[1], user_dim=4, item_dim=4, hidden=3,
                               max_seq_len=2, rng=np.random.default_rng(5))
    probs = P.predict_all_prefixes(model, corpus, feats)
    ids = P.top_k_rows(probs, 2)
    ref_ids, ref_probs = reference_models.predict_all_prefixes(model, corpus, feats, 2)
    assert ids.tobytes() == ref_ids.tobytes()
    assert np.abs(np.take_along_axis(probs, ids, axis=1) - ref_probs).max() < 1e-10


def test_predictions_csv_export(tmp_path, small_stack):
    corpus = small_stack["corpus"]
    feats = small_stack["features"]
    model = P.ContextPredictor(corpus.num_users, corpus.num_items, 4,
                               feats.shape[1], user_dim=4, item_dim=4, hidden=3,
                               rng=np.random.default_rng(4))
    probs = P.predict_all_prefixes(model, corpus, feats)
    ids = P.top_k_rows(probs, 2)
    path = tmp_path / "preds.csv"
    P.export_predictions_csv(path, corpus, ids, np.take_along_axis(probs, ids, axis=1))
    lines = path.read_text().splitlines()
    assert lines[0] == "session_id,prefix_len,context_0,context_1,prob_0,prob_1"
    assert len(lines) == 1 + len(corpus.interactions)
