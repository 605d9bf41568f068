"""Serving is a one-row call of the batched heads: both models'
``predict_probs``, with context and in ablation mode, against the
per-example oracle in ``reference_models`` at tolerance 0, on every
interaction of the small stack's corpus. The context predictor's one-entry
history memo is checked against the same oracle: it is reused only for the
same history bits under the same ``long_lstm`` parameter bits."""

import numpy as np
import pytest

import reference_models
from ctxrec import nextitem as NX
from ctxrec import predictor as P
from ctxrec.nn.checkpoint import load_checkpoint, load_params, save_checkpoint
from ctxrec.nn.optim import Adam
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
        _assert_oracle(model, user, prefix, history)


@pytest.mark.parametrize("mode", [NX.WITH_CONTEXT, NX.ABLATION])
def test_next_predict_probs_equals_oracle(small_stack, mode):
    corpus, features = small_stack["corpus"], small_stack["features"]
    model = _next_model(corpus, mode)
    for k, (user, prefix, _) in enumerate(_requests(corpus, features)):
        contexts = [k % 2, 2 + k % 2]
        got = model.predict_probs(user, prefix, contexts)
        want = reference_models.next_probs(model, user, prefix, contexts)
        assert got.shape == want.shape and np.array_equal(got, want)


def _histories(corpus, features):
    """Two distinct histories of several sessions each."""
    longest = sorted(_requests(corpus, features), key=lambda r: -len(r[2]))
    a = longest[0][2]
    b = next(h for _, _, h in longest if h.shape == a.shape and not np.array_equal(h, a))
    return a, b


def _assert_oracle(model, user, prefix, history):
    got = model.predict_probs(user, prefix, history)
    want = reference_models.context_probs(model, user, prefix, history)
    assert got.shape == want.shape and np.array_equal(got, want)
    return got


def test_history_memo_alternating_histories(small_stack):
    corpus, features = small_stack["corpus"], small_stack["features"]
    model = _context_model(corpus, features)
    a, b = _histories(corpus, features)
    for history in (a, b, a, b.copy(), a.copy()):
        for prefix in ((), (1,), (1, 2, 3)):
            _assert_oracle(model, 0, prefix, history)


def test_history_memo_same_bytes_other_shape(small_stack):
    """Bytes equal to the memo's history in another shape are no hit: they
    raise as the oracle does, and the memo's history still scores right."""
    corpus, features = small_stack["corpus"], small_stack["features"]
    model = _context_model(corpus, features)
    a, _ = _histories(corpus, features)
    _assert_oracle(model, 0, (1,), a)
    for other in (a.reshape(1, -1), a.reshape(1, *a.shape), a.reshape(-1)):
        assert other.tobytes() == a.tobytes()
        want = _error_type(reference_models.context_probs, model, 0, (1,), other)
        assert want is not None
        assert _error_type(model.predict_probs, 0, (1,), other) is want
    _assert_oracle(model, 0, (1,), a)


def _adam_step(model, tmp_path):
    for p in model.params():
        p.grad[...] = np.random.default_rng(3).normal(size=p.value.shape)
    Adam(model.params(), lr=0.01).step()


def _poke_weight(model, tmp_path):
    model.long_lstm.bwd.w_rec.value[1, 2] += 0.25


def _load_other(model, tmp_path):
    other = P.ContextPredictor(model.num_users, model.num_items, model.num_contexts,
                               model.long_lstm.input_dim, user_dim=4, item_dim=4,
                               hidden=3, max_seq_len=MAX_SEQ_LEN,
                               rng=np.random.default_rng(99))
    save_checkpoint(tmp_path / "other.ckpt", {p.name: p.value for p in other.params()})
    load_params(model.params(), load_checkpoint(tmp_path / "other.ckpt"))


@pytest.mark.parametrize("change", [_poke_weight, _adam_step, _load_other],
                         ids=["weight-in-place", "adam-step", "load-params"])
def test_history_memo_never_stale(small_stack, tmp_path, change):
    """A model changed in place after a request scores the same history as
    the oracle of the changed model."""
    corpus, features = small_stack["corpus"], small_stack["features"]
    model = _context_model(corpus, features)
    a, _ = _histories(corpus, features)
    before = _assert_oracle(model, 0, (1, 2), a)
    long_before = [p.value.copy() for p in model.long_lstm.params()]
    change(model, tmp_path)
    assert any(not np.array_equal(p.value, v)
               for p, v in zip(model.long_lstm.params(), long_before))
    after = _assert_oracle(model, 0, (1, 2), a)
    assert not np.array_equal(after, before)


def test_history_memo_encode_counts(small_stack):
    """A repeated history encodes once; one cell turned from 0.0 to -0.0
    encodes again."""
    corpus, features = small_stack["corpus"], small_stack["features"]
    model = _context_model(corpus, features)
    calls = []
    encode = model.long_lstm.encode

    def counting(*args, **kwargs):
        calls.append(args[0].copy())
        return encode(*args, **kwargs)

    model.long_lstm.encode = counting
    a, _ = _histories(corpus, features)
    a = a.copy()
    a[0, 0] = 0.0
    for prefix in ((), (1,), (1, 2)):
        _assert_oracle(model, 0, prefix, a.copy())
    assert len(calls) == 1
    signed = a.copy()
    signed[0, 0] = -0.0
    assert np.array_equal(signed, a)  # equal values, different bits
    _assert_oracle(model, 0, (1,), signed)
    assert len(calls) == 2 and np.signbit(calls[1][0, 0, 0])
    _assert_oracle(model, 0, (1,), signed)
    assert len(calls) == 2


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
