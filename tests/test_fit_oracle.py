"""Differential test: ``train_context`` and ``train_next`` on the shared
``fit`` loop against the loops they replaced (``reference_trainers``), at
tolerance 0 on every parameter and every history entry."""

import copy

import numpy as np
import pytest

import reference_trainers as ref
from ctxrec import nextitem as NX
from ctxrec import predictor as P
from ctxrec.corpus import TRAIN


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
    new = _context_run(P.train_context, corpus, small_stack, kw)
    old = _context_run(ref.train_context, corpus, small_stack, kw)
    _assert_identical(*new, *old)
    if not all_train:
        assert len(new[1]["train_loss"]) < kw["max_epochs"]  # patience ended it


def _ctx_topk(corpus):
    """Fixed ascending top-2 context ids per interaction."""
    n = len(corpus.interactions)
    first = np.arange(n) % 2
    return np.stack([first, first + 1 + np.arange(n) % 2], axis=1)


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
    new = _next_run(NX.train_next, corpus, mode, kw)
    old = _next_run(ref.train_next, corpus, mode, kw)
    _assert_identical(*new, *old)
    if not all_train:
        assert len(new[1]["train_loss"]) < kw["max_epochs"]  # patience ended it
