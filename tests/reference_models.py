"""The per-example model paths that the batched BiLSTM kernel replaced, kept
as the differential oracle for it.

``bilstm_forward`` / ``bilstm_backward`` are the one-sequence BiLSTM as it
stood before the kernel (three ``stable_sigmoid`` calls per step), copied
unchanged apart from being module functions. ``prefix_input``,
``encode_history``, ``context_logits_var``, ``context_block`` and
``next_logits_var`` are the per-example scoring path that serving ran
before it became a one-row call of the batched heads: the removed
``layers.prefix_input`` and the removed ``ContextPredictor`` /
``NextItemModel`` methods, copied unchanged apart from being module
functions (``self`` became ``model``, and ``EmbeddingTable.row(i)`` is
``lookup(int(i))``). ``context_probs`` and ``next_probs`` are the two
``predict_probs`` of that time. The batch losses build one logits graph
per example and average their cross-entropies with ``add_n``, as the
training loop did; ``predict_all_prefixes`` scores one prefix at a time.
"""

import numpy as np

from ctxrec.nextitem import ABLATION
from ctxrec.nn import engine
from ctxrec.nn.engine import stable_sigmoid
from ctxrec.predictor import long_term_input, top_k_contexts
from reference_corpus import interaction_range
from reference_graph import add_n, broadcast_param


def _run_direction(d, xs):
    T = xs.shape[0]
    h = d.hidden_dim
    z_in = xs @ d.w_in.value.T + d.bias.value
    H_prev = np.empty((T, h))
    C_prev = np.empty((T, h))
    I = np.empty((T, h))
    F = np.empty((T, h))
    G = np.empty((T, h))
    O = np.empty((T, h))
    TC = np.empty((T, h))
    hcur = np.zeros(h)
    ccur = np.zeros(h)
    w_rec = d.w_rec.value
    for t in range(T):
        H_prev[t] = hcur
        C_prev[t] = ccur
        z = z_in[t] + w_rec @ hcur
        i = stable_sigmoid(z[:h])
        f = stable_sigmoid(z[h:2 * h])
        g = np.tanh(z[2 * h:3 * h])
        o = stable_sigmoid(z[3 * h:])
        ccur = f * ccur + i * g
        tc = np.tanh(ccur)
        hcur = o * tc
        I[t], F[t], G[t], O[t], TC[t] = i, f, g, o, tc
    return hcur, (xs, H_prev, C_prev, I, F, G, O, TC)


def _backward_direction(d, cache, dh_final):
    xs, H_prev, C_prev, I, F, G, O, TC = cache
    T = xs.shape[0]
    h = d.hidden_dim
    dZ = np.empty((T, 4 * h))
    dh = dh_final.copy()
    dc = np.zeros(h)
    w_rec_t = d.w_rec.value.T
    for t in range(T - 1, -1, -1):
        i, f, g, o, tc = I[t], F[t], G[t], O[t], TC[t]
        do = dh * tc
        dc = dc + dh * o * (1.0 - tc * tc)
        di = dc * g
        df = dc * C_prev[t]
        dg = dc * i
        dZ[t, :h] = di * i * (1.0 - i)
        dZ[t, h:2 * h] = df * f * (1.0 - f)
        dZ[t, 2 * h:3 * h] = dg * (1.0 - g * g)
        dZ[t, 3 * h:] = do * o * (1.0 - o)
        dh = w_rec_t @ dZ[t]
        dc = dc * f
    d.w_in.grad += dZ.T @ xs
    d.w_rec.grad += dZ.T @ H_prev
    d.bias.grad += dZ.sum(axis=0)
    return dZ @ d.w_in.value


def bilstm_forward(lstm, xs):
    """(output, caches) of the old one-sequence BiLSTM on a (T, d) array."""
    h_f, cache_f = _run_direction(lstm.fwd, xs)
    h_b, cache_b = _run_direction(lstm.bwd, xs[::-1])
    return np.concatenate([h_f, h_b]), (cache_f, cache_b)


def bilstm_backward(lstm, caches, g):
    """Accumulate the parameter gradients of output gradient ``g``; returns
    the input gradient."""
    h = lstm.hidden_dim
    cache_f, cache_b = caches
    dx = _backward_direction(lstm.fwd, cache_f, g[:h])
    return dx + _backward_direction(lstm.bwd, cache_b, g[h:])[::-1]


def prefix_input(table, aux, prefix_items, max_len):
    """The (T, dim) sequence of one prefix: the embedding rows of its last
    ``max_len`` items, or ``aux`` as a sequence of length one when it is
    empty."""
    items = list(prefix_items)[-max_len:]
    return table.lookup(items) if items else broadcast_param(aux, (1,))


def encode_history(model, history):
    return model.long_lstm.forward(engine.constant(history))


def context_logits_var(model, user_id, prefix_items, z_long):
    e_user = model.user_emb.lookup(int(user_id))
    z_short = model.short_lstm.forward(prefix_input(
        model.item_emb, model.aux, prefix_items, model.max_seq_len))
    return model.fc1(engine.concat([e_user, z_short, z_long]))


def context_probs(model, user_id, prefix_items, history):
    """Context probability vector for the current prefix; sums to 1."""
    with engine.no_grad():
        z_long = encode_history(model, history)
        logits = context_logits_var(model, user_id, prefix_items, z_long)
    return engine.softmax(logits.value)


def context_block(model, context_ids):
    """Concatenation of the top-K context embedding rows, id-ascending."""
    ids = model.check_context_ids(context_ids)
    return engine.reshape(model.context_emb.lookup(ids), (-1,))


def next_logits_var(model, user_id, prefix_items, context_ids):
    e_user = model.user_emb.lookup(int(user_id))
    z_item = model.item_lstm.forward(prefix_input(
        model.item_emb, model.aux, prefix_items, model.max_seq_len))
    if model.mode == ABLATION:
        return model.fc2(engine.concat([z_item, e_user]))
    return model.fc2(engine.concat([context_block(model, context_ids),
                                    z_item, e_user]))


def next_probs(model, user_id, prefix_items, context_ids):
    """Next-item probability vector over all items; sums to 1."""
    with engine.no_grad():
        logits = next_logits_var(model, user_id, prefix_items, context_ids)
    return engine.softmax(logits.value)


def context_batch_loss(model, corpus, features, examples):
    """Mean cross-entropy of context examples, one graph per example; each
    session's history is encoded once."""
    z_long = {}
    losses = []
    for ex in examples:
        if ex.session_id not in z_long:
            z_long[ex.session_id] = encode_history(model, long_term_input(
                corpus, features, ex.user_id, ex.session_id, model.max_seq_len))
        items = corpus.sessions[ex.session_id].items
        logits = context_logits_var(model, ex.user_id, items[:ex.position],
                                    z_long[ex.session_id])
        losses.append(engine.softmax_cross_entropy(logits, ex.label))
    n = len(losses)
    return add_n(losses, [1.0 / n] * n)


def next_batch_loss(model, corpus, ctx_topk, examples):
    """Mean next-item cross-entropy, one graph per example."""
    losses = []
    for ex in examples:
        contexts = None if ctx_topk is None else ctx_topk[ex.interaction_idx]
        logits = next_logits_var(
            model, ex.user_id, corpus.sessions[ex.session_id].items[:ex.position],
            contexts)
        losses.append(engine.softmax_cross_entropy(logits, ex.target_item))
    n = len(losses)
    return add_n(losses, [1.0 / n] * n)


def predict_all_prefixes(model, corpus, features, k):
    """Top-k context ids and probabilities, one prefix at a time."""
    n = len(corpus.interactions)
    topk_ids = np.zeros((n, k), dtype=np.intp)
    topk_probs = np.zeros((n, k))
    for s in corpus.sessions:
        history = long_term_input(corpus, features, s.user_id, s.session_id,
                                  model.max_seq_len)
        for idx in interaction_range(corpus, s.session_id):
            probs = context_probs(model, s.user_id, s.items[:corpus.position_of[idx]],
                                  history)
            ids = top_k_contexts(probs, k)
            topk_ids[idx] = ids
            topk_probs[idx] = probs[ids]
    return topk_ids, topk_probs
