"""Differential test of the shared ``fit`` loop: driven with the
per-example oracle batch losses (``reference_models``), it reproduces the
loops it replaced (``reference_trainers``, with the Adam, batching and rank
examples of before) at tolerance 0 on every parameter and every history
entry. The public trainers feed ``fit`` the batched losses, which
``test_predictor`` and ``test_nextitem`` hold to the same oracle at 1e-10 per
batch. The in-place ``Adam``, the index-array batches and the column rank
examples are also held to their list-based oracles directly."""

import copy

import numpy as np
import pytest

import reference_models
import reference_trainers as ref
from ctxrec import nextitem as NX
from ctxrec import predictor as P
from ctxrec.corpus import TRAIN, VAL
from ctxrec.metrics import mrr
from ctxrec.nn.engine import Parameter
from ctxrec.nn.optim import Adam, _batches, fit


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
    groups = ref._group_by_session(ref.build_context_examples(corpus, labels, TRAIN))
    train = [ex for group in groups for ex in group]
    val = ref.build_context_examples(corpus, labels, VAL)
    history = fit(model.params(), [len(group) for group in groups],
                  lambda idx: reference_models.context_batch_loss(
                      model, corpus, features, [train[i] for i in idx]),
                  rng, clip_norm=5.0, what="context",
                  val_score=(lambda: ref.evaluate_context_loss(
                      model, corpus, features, val)) if val else None, **kw)
    return {"train_loss": history["train_loss"], "val_loss": history["val_score"],
            "best_epoch": history["best_epoch"]}


def _context_run(train, corpus, stack, train_kw):
    rng = np.random.default_rng(5)
    model = P.ContextPredictor(corpus.num_users, corpus.num_items, 4,
                               stack["features"].shape[1], user_dim=4, item_dim=4,
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
    train = ref.build_rank_examples(corpus, TRAIN)
    val = ref.build_rank_examples(corpus, VAL)
    history = fit(model.params(), [1] * len(train),
                  lambda idx: reference_models.next_batch_loss(
                      model, corpus, ctx_topk, [train[i] for i in idx]),
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


@pytest.mark.parametrize("seed", range(4))
def test_batches_match_list_oracle(seed):
    """Index-array batches hold the examples, in the order, of the list
    batches they replaced: units of one to six examples, batch sizes from
    below the smallest unit to above the whole set."""
    rng = np.random.default_rng(seed)
    sizes = rng.integers(1, 7, int(rng.integers(1, 60)))
    starts = np.cumsum(sizes) - sizes
    units = [list(range(a, a + n)) for a, n in zip(starts.tolist(), sizes.tolist())]
    order = rng.permutation(len(sizes))
    for batch_size in (1, 4, 17, int(sizes.sum()) + 3):
        got = [idx.tolist() for idx in _batches(sizes, order, batch_size)]
        assert got == [[ex for unit in batch for ex in unit]
                       for batch in ref.batches(units, order, batch_size)]


def test_adam_in_place_matches_oracle():
    """Sixty steps on parameters of three shapes, bit for bit; the oracle
    takes every other step's gradients as passed ones."""
    rng = np.random.default_rng(7)
    shapes = [(5, 3), (4,), (2, 2, 3)]
    values = [rng.normal(size=shape) for shape in shapes]
    new = [Parameter(f"p{k}", v) for k, v in enumerate(values)]
    old = [Parameter(f"p{k}", v) for k, v in enumerate(values)]
    opt, ref_opt = Adam(new, lr=0.01), ref.Adam(old, lr=0.01)
    for step in range(60):
        grads = [rng.normal(size=shape) * 10.0 ** rng.integers(-8, 3) for shape in shapes]
        for a, g in zip(new, grads):
            a.grad[...] = g
        opt.step()
        if step % 2:
            ref_opt.step(grads)
        else:
            for b, g in zip(old, grads):
                b.grad[...] = g
            ref_opt.step()
    for a, b in zip(new, old):
        assert np.array_equal(a.value, b.value)
    for got, want in zip(opt.m + opt.v, ref_opt.m + ref_opt.v):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("all_train", [False, True], ids=["splits", "all-train"])
def test_rank_examples_match_list_oracle(small_stack, all_train):
    """The rank examples of every split, from the corpus's cached arrays,
    against the per-interaction ``RankExample`` list they replaced, also
    after the split tags change."""
    corpus = small_stack["corpus"]
    if all_train:
        corpus = _all_train(corpus)
    for tag in ("train", "val", "test"):
        rows = NX.rank_rows(corpus, tag)
        assert rows.dtype == np.intp
        assert rows.tolist() == [list(ex) for ex in ref.build_rank_examples(corpus, tag)]
