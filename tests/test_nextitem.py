import numpy as np
import pytest

import reference_graph
import reference_models
import reference_trainers
from ctxrec import nextitem as NX
from ctxrec import predictor as P
from ctxrec.corpus import TEST, TRAIN, example_rows
from ctxrec.metrics import rank_of_truth
from ctxrec.nn import engine, finite_diff_check
from conftest import all_in_split, corpus_from_rows


def _tiny_model(mode=NX.WITH_CONTEXT, num_contexts=6, top_k=3, seed=0, **kw):
    return NX.NextItemModel(num_users=3, num_items=5, num_contexts=num_contexts,
                            user_dim=4, item_dim=4, context_dim=2, hidden=3,
                            top_k=top_k, mode=mode,
                            rng=np.random.default_rng(seed), **kw)


class TestContextBlock:
    def test_concat_layout(self):
        model = _tiny_model()
        block = reference_models.context_block(model, [1, 2, 3]).value
        assert block.shape == (6,)
        assert np.array_equal(block[:2], model.context_emb.weights.value[1])
        assert np.array_equal(block[2:4], model.context_emb.weights.value[2])

    def test_non_ascending_rejected(self):
        model = _tiny_model()
        with pytest.raises(ValueError, match="ascending"):
            reference_models.context_block(model, [0, 0, 0])
        with pytest.raises(ValueError, match="ascending"):
            reference_models.context_block(model, [3, 2, 1])

    def test_k_of_one_row_verbatim(self):
        model = _tiny_model(top_k=1)
        block = reference_models.context_block(model, [5]).value
        assert np.array_equal(block, model.context_emb.weights.value[5])

    def test_out_of_range_rejected(self):
        model = _tiny_model()
        with pytest.raises(ValueError, match="out of range"):
            reference_models.context_block(model, [1, 2, 6])

    def test_wrong_count_rejected(self):
        model = _tiny_model()
        with pytest.raises(ValueError, match="expected 3"):
            reference_models.context_block(model, [1, 2])


class TestPredictNext:
    def test_zero_head_gives_uniform(self):
        model = _tiny_model()
        model.fc2.weight.value[...] = 0.0
        model.fc2.bias.value[...] = 0.0
        probs = model.predict_probs(0, [1, 2], [0, 2, 4])
        assert np.allclose(probs, 0.2)

    def test_ablation_ignores_contexts(self):
        model = _tiny_model(mode=NX.ABLATION)
        a = model.predict_probs(1, [0, 3], [0, 1, 2])
        b = model.predict_probs(1, [0, 3], [2, 4, 5])
        c = model.predict_probs(1, [0, 3], None)
        assert np.array_equal(a, b)
        assert np.array_equal(a, c)

    def test_valid_distribution_including_empty_prefix(self):
        model = _tiny_model()
        for prefix in ([], [0], [4, 4, 1]):
            probs = model.predict_probs(2, prefix, [1, 3, 4])
            assert (probs > 0).all()
            assert abs(probs.sum() - 1.0) < 1e-9

    def test_unknown_user_rejected(self):
        model = _tiny_model()
        with pytest.raises(IndexError):
            model.predict_probs(9, [], [0, 1, 2])

    def test_unknown_item_rejected(self):
        model = _tiny_model()
        with pytest.raises(IndexError):
            model.predict_probs(0, [7], [0, 1, 2])


class TestParameterDisjointness:
    def test_no_tensor_shared_between_models(self):
        ctx = P.ContextPredictor(3, 5, 4, feat_dim=7, user_dim=4, item_dim=4,
                                 hidden=3, rng=np.random.default_rng(0))
        nxt = _tiny_model()
        ctx_ids = {id(p.value) for p in ctx.params()}
        nxt_ids = {id(p.value) for p in nxt.params()}
        assert not ctx_ids & nxt_ids
        ctx_names = {p.name for p in ctx.params()}
        nxt_names = {p.name for p in nxt.params()}
        assert not ctx_names & nxt_names


class TestTrainNext:
    def _alternating_corpus(self):
        # one user, two items alternating inside long sessions
        rows = []
        t = 0
        for s in range(6):
            t += 10_000
            for j in range(10):
                rows.append((0, j % 2, t))
                t += 5
        return corpus_from_rows(rows)

    def test_learns_alternating_pattern(self):
        # all-train corpus: with 2 items validation MRR saturates immediately,
        # which would freeze the best-checkpoint restore at an early epoch
        corpus = all_in_split(self._alternating_corpus(), TRAIN)
        rng = np.random.default_rng(0)
        model = NX.NextItemModel(corpus.num_users, corpus.num_items, 2,
                                 user_dim=4, item_dim=8, context_dim=2,
                                 hidden=6, top_k=1, mode=NX.ABLATION, rng=rng)
        NX.train_next(model, corpus, None, rng, lr=0.01, batch_size=64,
                      max_epochs=40, patience=40)
        probs = model.predict_probs(0, [0, 1, 0], None)
        assert probs[1] > 0.9
        probs = model.predict_probs(0, [1, 0, 1], None)
        assert probs[0] > 0.9

    def test_memorization_loss_drops(self):
        corpus = corpus_from_rows([(0, k % 3, k * 10) for k in range(12)])
        rng = np.random.default_rng(1)
        model = NX.NextItemModel(1, corpus.num_items, 2, user_dim=4,
                                 item_dim=6, context_dim=2, hidden=4, top_k=1,
                                 mode=NX.ABLATION, rng=rng)
        hist = NX.train_next(model, corpus, None, rng, lr=0.02, batch_size=16,
                             max_epochs=30, patience=30)
        assert hist["train_loss"][-1] < 0.1 * hist["train_loss"][0]

    def test_gradient_check_includes_context_rows(self, small_stack):
        corpus = small_stack["corpus"]
        rng = np.random.default_rng(2)
        model = NX.NextItemModel(corpus.num_users, corpus.num_items, 4,
                                 user_dim=4, item_dim=4, context_dim=2,
                                 hidden=3, top_k=2, rng=rng)
        examples = reference_trainers.build_rank_examples(corpus, "train")[:8]
        ctx_topk = np.stack([np.array([0, 2]), np.array([1, 3])] * 4)
        prefixes = {s.session_id: s.items for s in corpus.sessions}

        def build():
            losses = []
            for j, ex in enumerate(examples):
                logits = reference_models.next_logits_var(
                    model, ex.user_id, prefixes[ex.session_id][:ex.position],
                    ctx_topk[j % len(ctx_topk)])
                loss = engine.softmax_cross_entropy(logits, ex.target_item)
                losses.append(loss)
            return reference_graph.add_n(losses, [1.0 / len(losses)] * len(losses))

        report = finite_diff_check(build, model.params(), tolerance=1e-4,
                                   samples_per_param=3,
                                   rng=np.random.default_rng(3))
        assert "next.context_emb" in report.per_param
        assert report.passed, str(report)

    @staticmethod
    def _covering_batch(corpus, max_seq_len):
        """Train examples covering an empty prefix and a prefix longer than
        ``max_seq_len``, with fixed ascending top-2 context ids."""
        examples = reference_trainers.build_rank_examples(corpus, "train")
        batch = [ex for ex in examples if ex.position > max_seq_len][:8]
        batch += [ex for ex in examples if ex.position == 0][:8]
        assert len(batch) == 16
        n = len(corpus.interactions)
        first = np.arange(n) % 2
        ctx_topk = np.stack([first, first + 1 + np.arange(n) % 2], axis=1)
        return batch, ctx_topk

    @pytest.mark.parametrize("mode", [NX.WITH_CONTEXT, NX.ABLATION])
    def test_batch_loss_matches_per_example_oracle(self, small_stack, mode):
        corpus = small_stack["corpus"]
        model = NX.NextItemModel(corpus.num_users, corpus.num_items, 4,
                                 user_dim=4, item_dim=4, context_dim=2, hidden=3,
                                 top_k=2, max_seq_len=2, mode=mode,
                                 rng=np.random.default_rng(8))
        batch, ctx_topk = self._covering_batch(corpus, 2)
        if mode == NX.ABLATION:
            ctx_topk = None
        results = []
        for loss_fn in (NX.batch_loss, reference_models.next_batch_loss):
            for p in model.params():
                p.zero_grad()
            loss = loss_fn(model, corpus, ctx_topk, batch)
            engine.backward(loss)
            results.append((float(loss.value), [p.grad.copy() for p in model.params()]))
        (loss, grads), (ref_loss, ref_grads) = results
        assert abs(loss - ref_loss) <= 1e-10 * abs(ref_loss)
        for p, g, ref_g in zip(model.params(), grads, ref_grads):
            assert np.abs(g - ref_g).max() <= 1e-10 * np.abs(ref_g).max(), p.name

    def test_shared_source_batch_matches_per_example_oracle(self, small_stack):
        """Every train example of two users in one batch: a session's
        prefixes share one source, and prefixes past ``max_seq_len`` = 3
        read their own windows."""
        corpus = small_stack["corpus"]
        model = NX.NextItemModel(corpus.num_users, corpus.num_items, 4,
                                 user_dim=4, item_dim=4, context_dim=2, hidden=3,
                                 top_k=2, max_seq_len=3, rng=np.random.default_rng(9))
        batch = [ex for ex in reference_trainers.build_rank_examples(corpus, "train")
                 if ex.user_id < 2]
        assert min(ex.position for ex in batch) == 0
        assert max(ex.position for ex in batch) > 3
        _, ctx_topk = self._covering_batch(corpus, 2)
        results = []
        for loss_fn in (NX.batch_loss, reference_models.next_batch_loss):
            for p in model.params():
                p.zero_grad()
            loss = loss_fn(model, corpus, ctx_topk, batch)
            engine.backward(loss)
            results.append((float(loss.value), [p.grad.copy() for p in model.params()]))
        (loss, grads), (ref_loss, ref_grads) = results
        assert abs(loss - ref_loss) <= 1e-10 * abs(ref_loss)
        for p, g, ref_g in zip(model.params(), grads, ref_grads):
            assert np.abs(g - ref_g).max() <= 1e-10 * np.abs(ref_g).max(), p.name

    def test_gradient_check_on_batch_loss(self, small_stack):
        corpus = small_stack["corpus"]
        model = NX.NextItemModel(corpus.num_users, corpus.num_items, 4,
                                 user_dim=4, item_dim=4, context_dim=2, hidden=3,
                                 top_k=2, max_seq_len=2,
                                 rng=np.random.default_rng(9))
        batch, ctx_topk = self._covering_batch(corpus, 2)

        def build():
            return NX.batch_loss(model, corpus, ctx_topk, batch)

        report = finite_diff_check(build, model.params(), tolerance=1e-4,
                                   samples_per_param=3,
                                   rng=np.random.default_rng(3))
        assert "next.context_emb" in report.per_param
        assert report.passed, str(report)
        assert not finite_diff_check(build, model.params(), tolerance=1e-4,
                                     samples_per_param=3,
                                     rng=np.random.default_rng(3),
                                     gradient_scale=2.0).passed

    def test_with_context_requires_predictions(self):
        corpus = corpus_from_rows([(0, k % 3, k * 10) for k in range(12)])
        rng = np.random.default_rng(4)
        model = NX.NextItemModel(1, corpus.num_items, 2, user_dim=4,
                                 item_dim=4, context_dim=2, hidden=3, top_k=1,
                                 mode=NX.WITH_CONTEXT, rng=rng)
        with pytest.raises(ValueError, match="context predictions"):
            NX.train_next(model, corpus, None, rng, max_epochs=1)

    def test_empty_training_set_rejected(self):
        corpus = all_in_split(corpus_from_rows([(0, k % 3, k * 10) for k in range(12)]), TEST)
        model = _tiny_model(mode=NX.ABLATION)
        with pytest.raises(ValueError, match="no training examples"):
            NX.train_next(model, corpus, None, np.random.default_rng(0))


def test_example_rows_convert_lists_and_pass_arrays_through():
    rows = np.arange(10, dtype=np.intp).reshape(2, 5)
    assert np.shares_memory(example_rows(rows, 5), rows)
    got = example_rows([NX.RankExample(*r) for r in rows.tolist()], 5)
    assert got.dtype == np.intp and np.array_equal(got, rows)
    assert example_rows([], 5).shape == (0, 5)


def test_ranked_list_export(tmp_path):
    import json

    corpus = corpus_from_rows([(0, k % 3, k * 10) for k in range(12)])
    model = NX.NextItemModel(1, corpus.num_items, 2, user_dim=4, item_dim=4,
                             context_dim=2, hidden=3, top_k=1,
                             mode=NX.ABLATION, rng=np.random.default_rng(5))
    path = tmp_path / "ranked.jsonl"
    NX.export_ranked_lists(path, model, corpus, None, top_n=2)
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(lines) == corpus.splits.count(TEST)
    assert all(len(row["items"]) == 2 for row in lines)
    assert all(row["scores"][0] >= row["scores"][1] for row in lines)


def test_served_predictions_equal_batched_artifacts(small_stack):
    """For every interaction, the one-prefix serving path gives the top-K
    contexts of ``predict_all_prefixes`` and the rank of ``compute_ranks``.
    Both models are trained first, so no probability tie is left exact."""
    corpus = small_stack["corpus"]
    feats = small_stack["features"]
    rng = np.random.default_rng(10)
    ctx_model = P.ContextPredictor(corpus.num_users, corpus.num_items, 4,
                                   feats.shape[1], user_dim=4, item_dim=4, hidden=3,
                                   max_seq_len=3, rng=rng)
    P.train_context(ctx_model, corpus, feats, small_stack["labels"], rng,
                    lr=0.01, batch_size=128, max_epochs=2, patience=2)
    topk_ids = P.top_k_rows(P.predict_all_prefixes(ctx_model, corpus, feats), 2)
    next_model = NX.NextItemModel(corpus.num_users, corpus.num_items, 4,
                                  user_dim=4, item_dim=4, context_dim=2, hidden=3,
                                  top_k=2, max_seq_len=3, rng=rng)
    NX.train_next(next_model, corpus, topk_ids, rng, lr=0.01, batch_size=128,
                  max_epochs=2, patience=2)
    examples = [NX.RankExample(k, it.user_id, corpus.session_of[k],
                               corpus.position_of[k], it.item_id)
                for k, it in enumerate(corpus.interactions)]
    ranks = NX.compute_ranks(next_model, corpus, examples, topk_ids)
    for ex, rank in zip(examples, ranks):
        prefix = corpus.sessions[ex.session_id].items[:ex.position]
        history = P.long_term_input(corpus, feats, ex.user_id, ex.session_id,
                                    ctx_model.max_seq_len)
        ids = P.top_k_contexts(ctx_model.predict_probs(ex.user_id, prefix, history), 2)
        assert ids == topk_ids[ex.interaction_idx].tolist()
        probs = next_model.predict_probs(ex.user_id, prefix, ids)
        assert rank_of_truth(probs, ex.target_item) == rank
