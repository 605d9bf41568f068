import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ctxrec import graph as G
from ctxrec import pipeline
from ctxrec.config import PipelineConfig
from ctxrec.corpus import TEST
from ctxrec.nn import DenseLayer, engine, finite_diff_check
from ctxrec.synth import SynthSpec, generate
import reference_graph
from conftest import corpus_from_rows, graph_from_lists, synth_corpus


def _l2n(x):
    return x / np.linalg.norm(x)


class TestBuildGraph:
    def test_hand_counts(self):
        # sessions {A: [i1, i2], B: [i2]} over a 3-item vocabulary
        g = graph_from_lists([[1, 2], [2]], 3)
        assert g.num_session_nodes + g.num_items == 5
        assert g.num_edges == 3
        assert np.diff(g.item_off)[2] == 2

    def test_repeat_creates_parallel_edges(self):
        g = graph_from_lists([[1, 1]], 2)
        assert g.num_edges == 2
        assert np.diff(g.item_off)[1] == 2
        assert g.session_off[1] - g.session_off[0] == 2

    def test_empty_corpus(self):
        g = graph_from_lists([], 0)
        assert g.num_session_nodes + g.num_items == 0
        assert g.num_edges == 0

    def test_item_out_of_range(self):
        with pytest.raises(ValueError):
            graph_from_lists([[3]], 3)

    def test_corpus_graph_excludes_test_interactions(self):
        corpus = corpus_from_rows([(0, k % 3, k * 10) for k in range(20)])
        g = G.build_graph_from_corpus(corpus)
        visible = sum(1 for tag in corpus.splits if tag != TEST)
        assert g.num_edges == visible
        assert g.num_items == corpus.num_items


class TestTrainEncoder:
    def test_two_block_graph_separates(self):
        lists = [[0, 1], [1, 0], [0], [2, 3], [3, 2], [3]]
        g = graph_from_lists(lists, 4)
        enc, _ = G.train_encoder(g, base_dim=8, out_dim=8, epochs=40,
                                 batch_size=4, lr=0.02, seed=3)
        E = enc.embed_all_sessions(g)
        intra = np.mean([E[a] @ E[b] for a, b in
                         [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]])
        inter = np.mean([E[a] @ E[b] for a in range(3) for b in range(3, 6)])
        assert intra > inter

    def test_holdout_loss_decreases(self):
        rng = np.random.default_rng(0)
        lists = [list(rng.integers(0, 10, size=rng.integers(1, 5)))
                 for _ in range(120)]
        g = graph_from_lists(lists, 10)
        _, hist = G.train_encoder(g, base_dim=8, out_dim=8, epochs=5,
                                  batch_size=64, lr=0.01, seed=1)
        assert hist["holdout_loss"][-1] < hist["holdout_loss"][0]

    def test_single_edge_graph(self):
        g = graph_from_lists([[0]], 1)
        enc, _ = G.train_encoder(g, base_dim=4, out_dim=4, epochs=2, seed=0)
        assert np.isfinite(enc.embed_all_sessions(g)).all()

    def test_zero_edges_rejected(self):
        g = graph_from_lists([], 5)
        with pytest.raises(ValueError, match="zero edges"):
            G.train_encoder(g)

    def test_seeded_determinism(self):
        lists = [[0, 1], [1, 2], [2, 0], [1]]
        g = graph_from_lists(lists, 3)
        enc_a, _ = G.train_encoder(g, base_dim=6, out_dim=6, epochs=3, seed=9)
        enc_b, _ = G.train_encoder(g, base_dim=6, out_dim=6, epochs=3, seed=9)
        for pa, pb in zip(enc_a.params(), enc_b.params()):
            assert np.array_equal(pa.value, pb.value)


class TestEmbedSession:
    def _tiny_encoder(self):
        # 3-node path graph: session0 - item0 - session1, dims small enough to
        # hand-evaluate the two aggregation layers
        g = graph_from_lists([[0], [0]], 1)
        enc = G.SageEncoder(1, base_dim=2, out_dim=2,
                            rng=np.random.default_rng(0))
        enc.item_feat.value[...] = [[0.5, -1.0]]
        enc.session_feat.value[...] = [2.0, 1.0]
        enc.layer1.weight.value[...] = np.arange(8).reshape(2, 4) / 10.0
        enc.layer1.bias.value[...] = [0.1, -0.2]
        enc.layer2.weight.value[...] = np.arange(8)[::-1].reshape(2, 4) / 10.0
        enc.layer2.bias.value[...] = [0.0, 0.3]
        return g, enc

    def test_matches_hand_computed_two_layer_aggregation(self):
        g, enc = self._tiny_encoder()
        item, sess = np.array([0.5, -1.0]), np.array([2.0, 1.0])
        w1, b1 = enc.layer1.weight.value, enc.layer1.bias.value
        w2, b2 = enc.layer2.weight.value, enc.layer2.bias.value
        # layer 1: item node aggregates its sessions' shared feature; the
        # session node aggregates its single item's feature
        h1_item = _l2n(np.maximum(w1 @ np.concatenate([item, sess]) + b1, 0.0))
        h1_sess = _l2n(np.maximum(w1 @ np.concatenate([sess, item]) + b1, 0.0))
        expected = _l2n(w2 @ np.concatenate([h1_sess, h1_item]) + b2)
        for row in enc.embed_all_sessions(g):
            assert np.allclose(row, expected, atol=1e-12)

    def test_unit_norm(self):
        g = graph_from_lists([[0, 1, 1], [1]], 2)
        enc = G.SageEncoder(2, 4, 4, rng=np.random.default_rng(1))
        assert abs(np.linalg.norm(enc.embed_all_sessions(g)[0]) - 1.0) < 1e-9

    def test_identical_multisets_identical_embeddings(self):
        g = graph_from_lists([[0, 1], [1, 0], [1]], 2)
        enc = G.SageEncoder(2, 4, 4, rng=np.random.default_rng(2))
        full = enc.embed_all_sessions(g)
        assert np.array_equal(full[0], full[1])

    def test_unknown_session_rejected(self):
        g = graph_from_lists([[0]], 1)
        enc = G.SageEncoder(1, 2, 2, rng=np.random.default_rng(0))
        with pytest.raises(ValueError, match="no node"):
            reference_graph.embed_session(enc, g, 99)

    def test_embed_all_matches_single_calls(self):
        g = graph_from_lists([[0, 1], [1], [0, 0, 1]], 2)
        enc = G.SageEncoder(2, 4, 4, rng=np.random.default_rng(3))
        matrix = enc.embed_all_sessions(g)
        for node, sid in enumerate(g.session_ids):
            assert np.array_equal(matrix[node], reference_graph.embed_session(enc, g, sid))


class TestEmbedNewSession:
    def test_inductive_consistency_exact(self):
        g = graph_from_lists([[0, 1, 1], [1, 2], [2]], 3)
        enc = G.SageEncoder(3, 4, 4, rng=np.random.default_rng(4))
        assert np.array_equal(enc.embed_new_session(g, [1, 0, 1]),
                              enc.embed_all_sessions(g)[0])

    def test_unseen_items_dropped_with_warning(self):
        g = graph_from_lists([[0, 1], [1]], 3)  # item 2 exists but has no edges
        enc = G.SageEncoder(3, 4, 4, rng=np.random.default_rng(5))
        with pytest.warns(UserWarning, match="dropping 1"):
            z = enc.embed_new_session(g, [0, 1, 2])
        assert np.array_equal(z, enc.embed_new_session(g, [0, 1]))

    def test_all_unseen_rejected(self):
        g = graph_from_lists([[0]], 2)
        enc = G.SageEncoder(2, 4, 4, rng=np.random.default_rng(6))
        with pytest.raises(ValueError, match="outside the training vocabulary"):
            enc.embed_new_session(g, [1])

    def test_empty_list_rejected(self):
        g = graph_from_lists([[0]], 1)
        enc = G.SageEncoder(1, 2, 2, rng=np.random.default_rng(0))
        with pytest.raises(ValueError, match="empty"):
            enc.embed_new_session(g, [])

    def test_permutation_invariance(self):
        g = graph_from_lists([[0, 1, 2, 2]], 3)
        enc = G.SageEncoder(3, 4, 4, rng=np.random.default_rng(7))
        a = enc.embed_new_session(g, [0, 1, 2, 2])
        b = enc.embed_new_session(g, [2, 0, 2, 1])
        assert np.array_equal(a, b)


def _bytes_equal(a, b):
    """Equal bits: ``==`` would take -0.0 for 0.0."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _messages(call):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = call()
    return out, [str(w.message) for w in caught]


class TestBatchedEmbeddingOracle:
    """``embed_rows`` and its callers against the per-session path they
    replaced (``reference_graph``), at tolerance 0."""

    # item 5 is in the vocabulary but has no edge
    LISTS = [[0, 1, 1], [1, 2], [2], [3, 0, 2, 2, 1], [4], [1, 1, 1]]

    @staticmethod
    def _encoder(num_items, seed=3):
        return G.SageEncoder(num_items, 6, 5, rng=np.random.default_rng(seed))

    @pytest.mark.parametrize("items", [
        [1], [2, 2, 0], [4, 3, 2, 1, 0], [1, 1, 1], [0, 5], [-1, 7, 2], [5, 3, 5, 9]])
    def test_new_session(self, items):
        g, enc = graph_from_lists(self.LISTS, 6), self._encoder(6)
        got, said = _messages(lambda: enc.embed_new_session(g, items))
        ref, ref_said = _messages(lambda: reference_graph.embed_new_session(enc, g, items))
        assert _bytes_equal(got, ref)
        assert said == ref_said

    @pytest.mark.parametrize("items", [[5], [-1, 6], [5, 5]])
    def test_new_session_of_unknown_items_rejected(self, items):
        g, enc = graph_from_lists(self.LISTS, 6), self._encoder(6)
        for call in (enc.embed_new_session, lambda *a: reference_graph.embed_new_session(enc, *a)):
            with pytest.warns(UserWarning, match=f"dropping {len(items)}"):
                with pytest.raises(ValueError, match="outside the training vocabulary"):
                    call(g, items)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.lists(st.integers(0, 7), min_size=1, max_size=6),
                    min_size=1, max_size=8),
           st.integers(0, 2**16))
    def test_rows(self, runs, seed):
        enc = self._encoder(8, seed)
        off = np.cumsum([0] + [len(r) for r in runs])
        got = enc.embed_rows(np.concatenate(runs), off)
        h1 = reference_graph.item_h1(enc)
        ref = np.stack([reference_graph.embed_from_items(enc, r, h1) for r in runs])
        assert _bytes_equal(got, ref)

    def test_all_sessions(self, small_stack):
        g, enc = small_stack["graph"], small_stack["encoder"]
        assert _bytes_equal(enc.embed_all_sessions(g),
                            reference_graph.embed_all_sessions(enc, g))

    def test_corpus_with_unknown_items(self):
        # per user, 20% of the interactions are test: the last two sessions
        # of users 0 and 1, the last two of user 2's one-item sessions.
        # Items 5, 6 and 7 appear only there, so they have no edge.
        users = [[[0, 1], [1, 2], [2, 0], [0, 3]] * 2 + [[5, 5], [2, 0]],
                 [[3, 4], [4, 0], [1, 3], [3, 3]] * 2 + [[6, 1], [3, 3]],
                 [[k % 5] for k in range(8)] + [[4], [7]]]
        rows, t = [], 0
        for user, sessions in enumerate(users):
            for items in sessions:
                t += 10_000
                rows += [(user, item, t + 10 * k) for k, item in enumerate(items)]
        corpus = corpus_from_rows(rows, train_frac=0.8)
        g = G.build_graph_from_corpus(corpus)
        enc = self._encoder(corpus.num_items)
        assert corpus.num_items == 8 and g.num_session_nodes == corpus.num_sessions - 6
        (emb, ok), said = _messages(lambda: enc.embed_corpus(g, corpus))
        ref_emb, ref_ok = reference_graph.embed_corpus(enc, g, corpus)
        assert _bytes_equal(emb, ref_emb) and _bytes_equal(ok, ref_ok)
        assert said == ["dropping 4 item(s) of test-only sessions outside the "
                        "training vocabulary"]
        assert (~ok).sum() == 2 and not emb[~ok].any()

    @pytest.mark.parametrize("stack", ["small", "pinned-size"])
    def test_corpus(self, stack, small_stack, tmp_path):
        if stack == "small":
            corpus, g, enc = (small_stack[k] for k in ("corpus", "graph", "encoder"))
        else:
            corpus, *_ = synth_corpus(tmp_path, num_users=12, seed=1000)
            g = G.build_graph_from_corpus(corpus)
            enc, _ = G.train_encoder(g, base_dim=32, out_dim=32, epochs=2, seed=7)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            emb, ok = enc.embed_corpus(g, corpus)
            ref_emb, ref_ok = reference_graph.embed_corpus(enc, g, corpus)
        assert (~np.isin(np.arange(corpus.num_sessions), g.session_ids)).sum() > 0
        assert _bytes_equal(emb, ref_emb) and _bytes_equal(ok, ref_ok)


def test_run_embed_makes_one_batched_call(tmp_path, monkeypatch):
    generate(SynthSpec(num_users=8, num_contexts=3, items_per_context=6,
                       sessions_per_user=8, seed=3), tmp_path / "log.csv")
    cfg = PipelineConfig(num_contexts=3, top_k_contexts=2, session_emb_dim=4,
                         graph_base_dim=4, graph_epochs=1, graph_batch=64, seed=1)
    calls = {"embed_rows": 0}
    embed_rows = G.SageEncoder.embed_rows

    def counted(self, *args):
        calls["embed_rows"] += 1
        return embed_rows(self, *args)

    def refuse(self, *args):
        raise AssertionError("embed_new_session called")

    monkeypatch.setattr(G.SageEncoder, "embed_rows", counted)
    monkeypatch.setattr(G.SageEncoder, "embed_new_session", refuse)
    ws = pipeline.Workspace(cfg, tmp_path / "work")
    pipeline.run_ingest(ws, tmp_path / "log.csv")
    pipeline.run_embed(ws)
    _, embeddable, graph_session_ids = pipeline.load_embeddings(ws)
    assert calls == {"embed_rows": 1}
    assert embeddable.sum() > len(graph_session_ids)  # test-only sessions embedded


def _frozen_loss(enc, g, batch, negs):
    # frozen sampling: deterministic loss
    return lambda: G._edge_loss_sampled(enc, g, batch, negs, np.random.default_rng(11))


def test_sampled_training_path_gradients():
    g = graph_from_lists([[0, 1], [1], [0, 1, 1]], 2)
    enc = G.SageEncoder(2, base_dim=3, out_dim=3, fanout=(3, 3),
                        rng=np.random.default_rng(5))
    batch = g.edges
    negs = np.random.default_rng(7).choice(
        2, size=(len(batch), 2), p=G.negative_sampling_weights(g))
    report = finite_diff_check(_frozen_loss(enc, g, batch, negs), enc.params(),
                               tolerance=1e-4, rng=np.random.default_rng(2))
    assert report.passed, str(report)


def test_fused_loss_gradients_through_a_dead_relu_row():
    # session 1 holds item 2 twice (parallel edges), so every draw of its
    # own items is item 2; item 2's feature makes that session's layer-1
    # pre-activation negative in every unit, and its normalized row is the
    # clamped zero row
    g = graph_from_lists([[0, 1, 1], [2, 2], [1, 0, 3]], 4)
    enc = G.SageEncoder(4, base_dim=5, out_dim=4, fanout=(3, 2),
                        rng=np.random.default_rng(12))
    w_self, w_neigh = np.split(enc.layer1.weight.value, 2, axis=1)
    s, b1 = enc.session_feat.value, enc.layer1.bias.value
    enc.item_feat.value[2] = -3.0 * np.linalg.pinv(w_neigh) @ np.ones(4)
    assert (enc.item_feat.value[2] @ w_neigh.T + w_self @ s + b1 < -1.0).all()
    batch = g.edges
    negs = np.random.default_rng(8).integers(0, 4, size=(len(batch), 2))
    report = finite_diff_check(_frozen_loss(enc, g, batch, negs), enc.params(),
                               tolerance=1e-6, samples_per_param=20,
                               rng=np.random.default_rng(3))
    assert report.passed, str(report)
    assert not finite_diff_check(_frozen_loss(enc, g, batch, negs), enc.params(),
                                 tolerance=1e-6, rng=np.random.default_rng(3),
                                 gradient_scale=2.0).passed


class TestReferenceOperators:
    """The operators the old encoder composed, kept in ``reference_graph``."""

    def test_forward_closed_forms(self):
        x = np.array([[3.0, -4.0, 0.0], [0.0, 0.0, 0.0], [-1.0, 2.0, 2.0]])
        assert np.array_equal(reference_graph.relu(engine.constant(x)).value,
                              np.maximum(x, 0.0))
        y = reference_graph.l2_normalize_rows(engine.constant(x)).value
        assert np.allclose(y[[0, 2]], x[[0, 2]] / np.array([[5.0], [3.0]]),
                           rtol=0, atol=1e-15)
        assert np.all(y[1] == 0.0)  # the clamped zero row stays zero
        z = np.array([-800.0, 0.0, 3.0])
        ls = reference_graph.logsigmoid(engine.constant(z)).value
        assert np.allclose(ls, [-800.0, -np.log(2.0), -np.log1p(np.exp(-3.0))],
                           rtol=1e-15, atol=0)

    def test_gradient_check_with_a_clamped_row(self):
        rng = np.random.default_rng(14)
        layer = DenseLayer("d", 4, 3, rng)
        xs = rng.normal(size=(5, 4))
        # row 2's pre-activation is -5 in every unit: its ReLU output is the
        # zero row, which the normalization clamps
        xs[2] = np.linalg.pinv(layer.weight.value) @ (-5.0 - layer.bias.value)
        weights = rng.normal(size=(5, 3))

        def build():
            h = reference_graph.l2_normalize_rows(
                reference_graph.relu(layer(engine.constant(xs))))
            score = reference_graph.dot_last(h, engine.constant(weights))
            return reference_graph.vsum(reference_graph.logsigmoid(score))

        report = finite_diff_check(build, layer.params(), tolerance=1e-6,
                                   samples_per_param=15,  # every coordinate
                                   rng=np.random.default_rng(16))
        assert report.passed, str(report)
        assert not finite_diff_check(build, layer.params(), tolerance=1e-6,
                                     rng=np.random.default_rng(16),
                                     gradient_scale=2.0).passed


def _rel(a, b):
    return np.abs(np.asarray(a) - b).max() / max(np.abs(b).max(), 1e-300)


class TestNodeSetMinibatchOracle:
    """The fused node-set minibatch loss against the per-hop-row encoder that
    preceded it (``reference_graph``), with the same seed and so the same
    draws."""

    @pytest.fixture(scope="class")
    def synth_graph(self, tmp_path_factory):
        corpus, *_ = synth_corpus(tmp_path_factory.mktemp("oracle"), num_users=12)
        return G.build_graph_from_corpus(corpus)

    @staticmethod
    def _toy_graph(num_items=4):
        # repeats in sessions 0 and 2 make parallel edges; items past 3 have none
        return graph_from_lists([[0, 1, 1], [1], [0, 2, 2, 2, 1], [2, 3]], num_items)

    @staticmethod
    def _step(loss_fn, enc, g, batch, negs):
        for p in enc.params():
            p.zero_grad()
        loss = loss_fn(enc, g, batch, negs, np.random.default_rng(3))
        engine.backward(loss)
        return float(loss.value), [p.grad.copy() for p in enc.params()]

    @pytest.mark.parametrize("which", ["toy", "synth"])
    def test_one_step_loss_and_gradients(self, which, request):
        g = self._toy_graph() if which == "toy" else request.getfixturevalue("synth_graph")
        enc = G.SageEncoder(g.num_items, 8, 6, fanout=(4, 3),
                            rng=np.random.default_rng(5))
        rng = np.random.default_rng(6)
        batch = g.edges[rng.permutation(g.num_edges)[:256]]
        negs = rng.choice(g.num_items, size=(len(batch), 3),
                          p=G.negative_sampling_weights(g))
        loss, grads = self._step(G._edge_loss_sampled, enc, g, batch, negs)
        ref_loss, ref_grads = self._step(reference_graph.batch_loss, enc, g, batch, negs)
        assert _rel(loss, ref_loss) < 1e-10
        for p, a, b in zip(enc.params(), grads, ref_grads):
            assert np.abs(b).max() > 0, p.name
            assert _rel(a, b) < 1e-10, p.name

    def test_holdout_loss_matches_reference(self, synth_graph):
        g = synth_graph
        enc = G.SageEncoder(g.num_items, 8, 6, rng=np.random.default_rng(8))
        negs = np.random.default_rng(9).choice(g.num_items, size=(g.num_edges, 4))
        got = G._edge_loss_det(enc, g, g.edges, negs)
        assert _rel(got, reference_graph.edge_loss_det(enc, g, g.edges, negs)) < 1e-12
        toy = self._toy_graph(5)  # item 4 has no edges: an empty averaging row
        enc = G.SageEncoder(toy.num_items, 4, 4, rng=np.random.default_rng(1))
        negs = np.arange(toy.num_edges * 2).reshape(-1, 2) % toy.num_items
        assert _rel(G._edge_loss_det(enc, toy, toy.edges, negs),
                    reference_graph.edge_loss_det(enc, toy, toy.edges, negs)) < 1e-12

    def test_holdout_loss_bitwise_equals_per_call_matrices(self, synth_graph):
        """The graph's cached mean matrices give the holdout loss bit for bit
        as building them and the item index range on every call did."""
        g = synth_graph
        enc = G.SageEncoder(g.num_items, 8, 6, rng=np.random.default_rng(8))
        negs = np.random.default_rng(9).choice(g.num_items, size=(g.num_edges, 4))

        def per_call():
            session_mean = G._mean_matrix(g.session_adj, g.session_off, g.num_items)
            item_pre, sess_pre = G._layer1_pre(enc, np.arange(g.num_items), session_mean)
            item_h1, sess_h1 = G._relu_l2n(item_pre)[0], G._relu_l2n(sess_pre)[0]
            z_s = reference_graph.phi2_raw(enc, sess_h1, session_mean @ item_h1)
            item_mean = G._mean_matrix(g.item_adj, g.item_off, g.num_session_nodes)
            z_i = reference_graph.phi2_raw(enc, item_h1, item_mean @ sess_h1)
            score = G._edge_scores(z_s, z_i, g.edges[:, 0],
                                   np.concatenate([g.edges[:, 1], negs.reshape(-1)]))[2]
            return float(np.logaddexp(0.0, -score).sum() / len(g.edges))

        for _ in range(3):  # the weights move between holdout evaluations
            assert G._edge_loss_det(enc, g, g.edges, negs) == per_call()
            enc.item_feat.value[...] += 0.01

    def test_two_epoch_training_matches_reference(self, synth_graph):
        kwargs = dict(base_dim=8, out_dim=8, epochs=2, batch_size=128,
                      fanout=(5, 4), seed=4)
        enc, hist = G.train_encoder(synth_graph, **kwargs)
        ref_enc, ref_hist = reference_graph.train_encoder(synth_graph, **kwargs)
        assert len(hist["holdout_loss"]) == 3
        assert _rel(hist["holdout_loss"], np.array(ref_hist["holdout_loss"])) < 1e-9
        assert _rel(hist["train_loss"], np.array(ref_hist["train_loss"])) < 1e-9
        for p, q in zip(enc.params(), ref_enc.params()):
            assert _rel(p.value, q.value) < 1e-9, p.name


def test_embeddings_csv_export(tmp_path):
    corpus = corpus_from_rows([(0, k % 2, k * 10) for k in range(10)])
    g = G.build_graph_from_corpus(corpus)
    enc = G.SageEncoder(corpus.num_items, 4, 4, rng=np.random.default_rng(0))
    emb = np.zeros((corpus.num_sessions, 4))
    emb[g.session_ids] = enc.embed_all_sessions(g)
    path = tmp_path / "emb.csv"
    G.export_embeddings_csv(path, corpus, emb)
    lines = path.read_text().splitlines()
    assert lines[0] == "session_id,split,c0,c1,c2,c3"
    assert len(lines) == 1 + corpus.num_sessions
    assert np.abs(emb).max() > 0
    for s, line in zip(corpus.sessions, lines[1:]):
        sid, _, *values = line.split(",")
        assert int(sid) == s.session_id
        parsed = np.array([float(v) for v in values])
        assert parsed.tobytes() == emb[s.session_id].tobytes()
