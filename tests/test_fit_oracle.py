"""Differential test of the shared ``fit`` loop: driven with the
per-example oracle batch losses (``reference_models``), it reproduces the
loops it replaced (``reference_trainers``) at tolerance 0 on every parameter
and every history entry. The public trainers feed ``fit`` the batched
losses, which ``test_predictor`` and ``test_nextitem`` hold to the same
oracle at 1e-10 per batch."""

import copy

import numpy as np
import pytest

import reference_models
import reference_trainers as ref
from ctxrec import nextitem as NX
from ctxrec import predictor as P
from ctxrec.corpus import TRAIN, VAL
from ctxrec.metrics import mrr
from ctxrec.nn.optim import fit


def _all_train(corpus):
    """A copy of ``corpus`` with no validation or test interactions."""
    corpus = copy.deepcopy(corpus)
    corpus.splits[:] = [TRAIN] * len(corpus.splits)
    return corpus


def _assert_identical(model_a, hist_a, model_b, hist_b):
    assert hist_a == hist_b
    for a, b in zip(model_a.params(), model_b.params()):
        assert a.name == b.name
        assert np.array_equal(a.value, b.value), a.name


def _fit_context(model, corpus, features, labels, rng, **kw):
    """``train_context``'s use of ``fit``, with the per-example batch loss."""
    examples = P.build_context_examples(corpus, labels)
    groups = ref._group_by_session(examples[TRAIN])
    val = examples[VAL]
    history = fit(model.params(), groups,
                  lambda exs: reference_models.context_batch_loss(
                      model, corpus, features, exs),
                  rng, clip_norm=5.0, what="context",
                  val_score=(lambda: ref.evaluate_context_loss(
                      model, corpus, features, val)) if val else None, **kw)
    return {"train_loss": history["train_loss"], "val_loss": history["val_score"],
            "best_epoch": history["best_epoch"]}


def _context_run(train, corpus, stack, train_kw):
    rng = np.random.default_rng(5)
    model = P.ContextPredictor(corpus.num_users, corpus.num_items, 4,
                               stack["features"].dim, user_dim=4, item_dim=4,
                               hidden=3, rng=rng)
    history = train(model, corpus, stack["features"], stack["labels"], rng,
                    **train_kw)
    return model, history


@pytest.mark.parametrize("all_train", [False, True], ids=["val", "all-train"])
def test_train_context_matches_reference(small_stack, all_train):
    corpus = small_stack["corpus"]
    if all_train:
        corpus = _all_train(corpus)
    kw = dict(lr=0.05, batch_size=64, max_epochs=8, patience=1)
    new = _context_run(_fit_context, corpus, small_stack, kw)
    old = _context_run(ref.train_context, corpus, small_stack, kw)
    _assert_identical(*new, *old)
    if not all_train:
        assert len(new[1]["train_loss"]) < kw["max_epochs"]  # patience ended it


def _ctx_topk(corpus):
    """Fixed ascending top-2 context ids per interaction."""
    n = len(corpus.interactions)
    first = np.arange(n) % 2
    return np.stack([first, first + 1 + np.arange(n) % 2], axis=1)


def _fit_next(model, corpus, ctx_topk, rng, **kw):
    """``train_next``'s use of ``fit``, with the per-example batch loss."""
    train = NX.build_rank_examples(corpus, TRAIN)
    val = NX.build_rank_examples(corpus, VAL)
    history = fit(model.params(), [[ex] for ex in train],
                  lambda exs: reference_models.next_batch_loss(
                      model, corpus, ctx_topk, exs),
                  rng, clip_norm=5.0, what="next-item",
                  val_score=(lambda: -mrr(ref.compute_ranks(
                      model, corpus, val, ctx_topk))) if val else None, **kw)
    return {"train_loss": history["train_loss"],
            "val_mrr": [-v for v in history["val_score"]],
            "best_epoch": history["best_epoch"]}


def _next_run(train, corpus, mode, train_kw):
    rng = np.random.default_rng(6)
    model = NX.NextItemModel(corpus.num_users, corpus.num_items, 4, user_dim=4,
                             item_dim=4, context_dim=2, hidden=3, top_k=2,
                             mode=mode, rng=rng)
    ctx = _ctx_topk(corpus) if mode == NX.WITH_CONTEXT else None
    return model, train(model, corpus, ctx, rng, **train_kw)


@pytest.mark.parametrize("mode,all_train", [
    (NX.WITH_CONTEXT, False), (NX.ABLATION, False), (NX.ABLATION, True),
], ids=["with-context", "ablation", "ablation-all-train"])
def test_train_next_matches_reference(small_stack, mode, all_train):
    corpus = small_stack["corpus"]
    if all_train:
        corpus = _all_train(corpus)
    kw = dict(lr=0.05, batch_size=50, max_epochs=8, patience=1)
    new = _next_run(_fit_next, corpus, mode, kw)
    old = _next_run(ref.train_next, corpus, mode, kw)
    _assert_identical(*new, *old)
    if not all_train:
        assert len(new[1]["train_loss"]) < kw["max_epochs"]  # patience ended it


def _assert_close(model_a, hist_a, model_b, hist_b, rtol=1e-8):
    assert hist_a["best_epoch"] == hist_b["best_epoch"]
    for key in hist_b:
        if key != "best_epoch":
            assert np.allclose(hist_a[key], hist_b[key], rtol=rtol, atol=0), key
    for a, b in zip(model_a.params(), model_b.params()):
        assert np.abs(a.value - b.value).max() <= rtol * np.abs(b.value).max(), a.name


def test_public_trainers_track_the_oracle_run(small_stack):
    """The batched trainers over a whole run: the same epochs and, up to
    rounding (about 1e-15 here), the same parameters as the oracle."""
    corpus = small_stack["corpus"]
    kw = dict(lr=0.05, batch_size=64, max_epochs=8, patience=1)
    _assert_close(*_context_run(P.train_context, corpus, small_stack, kw),
                  *_context_run(_fit_context, corpus, small_stack, kw))
    kw = dict(lr=0.05, batch_size=50, max_epochs=8, patience=1)
    for mode in (NX.WITH_CONTEXT, NX.ABLATION):
        _assert_close(*_next_run(NX.train_next, corpus, mode, kw),
                      *_next_run(_fit_next, corpus, mode, kw))
