"""Serving is a one-row call of the batched heads: both models'
``predict_probs``, with context and in ablation mode, against the
per-example oracle in ``reference_models`` at tolerance 0, on every
interaction of the small stack's corpus."""

import numpy as np
import pytest

import reference_models
from ctxrec import nextitem as NX
from ctxrec import predictor as P
from reference_corpus import user_session_ids

MAX_SEQ_LEN = 2


def _requests(corpus, features):
    """(user, prefix, history) of every interaction, and what they cover."""
    first = {user_session_ids(corpus, u)[0] for u in range(corpus.num_users)}
    out = []
    for k in range(len(corpus.interactions)):
        s = corpus.sessions[corpus.session_of[k]]
        out.append((s.user_id, s.items[:corpus.position_of[k]],
                    P.long_term_input(corpus, features, s.user_id, s.session_id,
                                      MAX_SEQ_LEN)))
    positions = np.asarray(corpus.position_of)
    covered = {"empty prefix": (positions == 0).any(),
               "prefix past max_seq_len": (positions > MAX_SEQ_LEN).any(),
               "first session": any(sid in first for sid in corpus.session_of),
               "history past max_seq_len": any(
                   len(user_session_ids(corpus, u)) > MAX_SEQ_LEN + 1
                   for u in range(corpus.num_users))}
    assert all(covered.values()), covered
    return out


def _context_model(corpus, features):
    return P.ContextPredictor(corpus.num_users, corpus.num_items, 4, features.shape[1],
                              user_dim=4, item_dim=4, hidden=3,
                              max_seq_len=MAX_SEQ_LEN, rng=np.random.default_rng(21))


def _next_model(corpus, mode):
    return NX.NextItemModel(corpus.num_users, corpus.num_items, 4, user_dim=4,
                            item_dim=4, context_dim=2, hidden=3, top_k=2,
                            max_seq_len=MAX_SEQ_LEN, mode=mode,
                            rng=np.random.default_rng(22))


def test_context_predict_probs_equals_oracle(small_stack):
    corpus, features = small_stack["corpus"], small_stack["features"]
    model = _context_model(corpus, features)
    for user, prefix, history in _requests(corpus, features):
        got = model.predict_probs(user, prefix, history)
        want = reference_models.context_probs(model, user, prefix, history)
        assert got.shape == want.shape and np.array_equal(got, want)


@pytest.mark.parametrize("mode", [NX.WITH_CONTEXT, NX.ABLATION])
def test_next_predict_probs_equals_oracle(small_stack, mode):
    corpus, features = small_stack["corpus"], small_stack["features"]
    model = _next_model(corpus, mode)
    for k, (user, prefix, _) in enumerate(_requests(corpus, features)):
        contexts = [k % 2, 2 + k % 2]
        got = model.predict_probs(user, prefix, contexts)
        want = reference_models.next_probs(model, user, prefix, contexts)
        assert got.shape == want.shape and np.array_equal(got, want)


def _error_type(fn, *args):
    try:
        fn(*args)
    except Exception as exc:  # the type is what is compared
        return type(exc)
    return None


@pytest.mark.parametrize("user, prefix", [
    (16, (1,)), (-1, (1,)), (0, (99,)), (0, (-1, 2)), (0, (1, 2, 99))])
def test_context_bad_requests_raise_as_before(small_stack, user, prefix):
    corpus, features = small_stack["corpus"], small_stack["features"]
    assert corpus.num_users == 16 and corpus.num_items < 99
    model = _context_model(corpus, features)
    history = np.zeros((1, features.shape[1]))
    want = _error_type(reference_models.context_probs, model, user, prefix, history)
    assert want is not None
    assert _error_type(model.predict_probs, user, prefix, history) is want


@pytest.mark.parametrize("mode", [NX.WITH_CONTEXT, NX.ABLATION])
@pytest.mark.parametrize("user, prefix, contexts", [
    (16, (1,), [0, 1]), (0, (99,), [0, 1]), (0, (), [1, 1]), (0, (), [2, 1]),
    (0, (), [0, 4]), (0, (), [-1, 0]), (0, (), [0, 1, 2]), (0, (1,), None)])
def test_next_bad_requests_raise_as_before(small_stack, mode, user, prefix, contexts):
    corpus = small_stack["corpus"]
    model = _next_model(corpus, mode)
    want = _error_type(reference_models.next_probs, model, user, prefix, contexts)
    assert _error_type(model.predict_probs, user, prefix, contexts) is want
