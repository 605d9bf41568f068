"""Real-time session-context prediction.

The predictor combines three signals: a long-horizon encoding of the user's
previous sessions' feature vectors, a short-horizon encoding of the items
observed so far in the current session, and a learnable per-user embedding.
A fully connected head (``ContextPredictor.head``) maps their concatenation
to context logits. An empty prefix is encoded through the short-horizon LSTM
as a single learnable auxiliary vector shared by all sessions.

Training builds one example per observed-prefix position of every training
interaction, labeled with the session's clustered context id, and early-stops
on validation cross-entropy. A batch encodes its histories and prefixes as
shared sources (``layers.window_sources``), so each BiLSTM's forward
direction runs once per source: the history of a user's session j is the
forward state after session j-1 of that user's feature rows while j is at
most ``max_seq_len`` (later windows are their own sources), and the prefixes
of one session share that session's items. Serving
(``ContextPredictor.predict_probs``) is a one-row call of the same path: the
request's history and its prefix are each one source, scored by the same
head. Every request of a session reads the same history, so the predictor
keeps the last history's encoding in a one-entry memo keyed on the exact
bits of that history and of the long-horizon LSTM's parameters: a session's
first request encodes its history, and each later request encodes only its
prefix.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .corpus import SplitCorpus, TAGS, TRAIN, VAL, example_rows
from .cluster import UNLABELED
from .nn import engine
from .nn.engine import Parameter, Var
from .nn.layers import (EVAL_BATCH, BiLstm, DenseLayer, EmbeddingTable, prefix_sources,
                        window_sources)
from .nn.optim import fit

FEATURE_EXTRAS = 3  # duration, idle gap, item count


def build_session_features(corpus: SplitCorpus, embeddings: np.ndarray) -> np.ndarray:
    """The (num_sessions, emb_dim + 3) per-session feature vectors: the
    embedding, then normalized metadata.

    Duration and idle gap are log1p'd then z-scored with statistics from the
    train split only; item count is log1p'd. A session with no next session
    gets 0 in the gap slot (such sessions never appear as history anyway).
    """
    n = corpus.num_sessions
    start, end, gap, has_next = corpus.session_times()
    durations = (end - start).astype(np.float64)
    gaps = np.where(has_next, gap, np.nan)
    lengths = corpus.arrays.session_length.astype(np.float64)

    train_mask = corpus.session_split_codes() == TAGS.index(TRAIN)
    d_log = np.log1p(durations)
    g_log = np.log1p(gaps)

    def stats(values: np.ndarray, mask: np.ndarray) -> tuple[float, float]:
        sel = values[mask & np.isfinite(values)]
        if sel.size == 0:
            return 0.0, 1.0
        std = float(sel.std())
        return float(sel.mean()), (std if std > 1e-12 else 1.0)

    d_mu, d_sd = stats(d_log, train_mask)
    g_mu, g_sd = stats(g_log, train_mask)

    matrix = np.zeros((n, embeddings.shape[1] + FEATURE_EXTRAS))
    matrix[:, :embeddings.shape[1]] = embeddings
    matrix[:, -3] = (d_log - d_mu) / d_sd
    g_norm = np.where(np.isfinite(g_log), (g_log - g_mu) / g_sd, 0.0)
    matrix[:, -2] = g_norm
    matrix[:, -1] = np.log1p(lengths)
    return matrix


def long_term_input(corpus: SplitCorpus, features: np.ndarray,
                    user_id: int, session_id: int, max_len: int = 50) -> np.ndarray:
    """The user's up-to-``max_len`` session feature vectors preceding
    ``session_id``, oldest first; a lone all-zero row for a first session."""
    if not 0 <= user_id < corpus.num_users:
        raise ValueError(f"unknown user {user_id}")
    a = corpus.arrays
    if not (0 <= session_id < corpus.num_sessions and a.session_user[session_id] == user_id):
        raise ValueError(f"session {session_id} is not a session of user {user_id}")
    pos = a.session_rank[session_id]
    if not pos:
        return np.zeros((1, features.shape[1]))
    return features[session_id - min(pos, max_len):session_id].copy()


def top_k_rows(probs: np.ndarray, k: int) -> np.ndarray:
    """Per row of a (B, C) probability matrix, the ids of its k most
    probable contexts, ascending by id; probability ties break toward the
    lower id."""
    n = probs.shape[1]
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range for {n} contexts")
    return np.sort(np.argsort(-probs, axis=1, kind="stable")[:, :k], axis=1)


def top_k_contexts(probs: np.ndarray, k: int = 3) -> list[int]:
    """``top_k_rows`` of one probability vector, as a list."""
    return top_k_rows(np.asarray(probs)[None], k)[0].tolist()


class ContextPredictor:
    def __init__(self, num_users: int, num_items: int, num_contexts: int,
                 feat_dim: int, user_dim: int = 256, item_dim: int = 256,
                 hidden: int = 128, max_seq_len: int = 50,
                 rng: np.random.Generator | None = None):
        rng = rng or np.random.default_rng(0)
        self.num_users = num_users
        self.num_items = num_items
        self.num_contexts = num_contexts
        self.max_seq_len = max_seq_len
        self.user_emb = EmbeddingTable("ctx.user_emb", num_users, user_dim, rng)
        self.item_emb = EmbeddingTable("ctx.item_emb", num_items, item_dim, rng)
        self.short_lstm = BiLstm("ctx.short", item_dim, hidden, rng)
        self.long_lstm = BiLstm("ctx.long", feat_dim, hidden, rng)
        self.fc1 = DenseLayer(
            "ctx.fc1",
            user_dim + self.short_lstm.output_dim + self.long_lstm.output_dim,
            num_contexts, rng)
        self.aux = Parameter("ctx.aux", rng.normal(0.0, 0.1, size=item_dim))
        self._history_memo: tuple[tuple, Var] | None = None  # see _encode_history

    def params(self) -> list[Parameter]:
        return (self.user_emb.params() + self.item_emb.params()
                + self.short_lstm.params() + self.long_lstm.params()
                + self.fc1.params() + [self.aux])

    def head(self, user_ids, z_short: Var, z_long: Var) -> Var:
        """(B, C) context logits of B rows: the users' embeddings and the
        rows' short- and long-horizon encodings through ``fc1``."""
        return self.fc1(engine.concat([self.user_emb.lookup(user_ids), z_short, z_long]))

    def _encode_history(self, history: np.ndarray) -> Var:
        """``long_lstm``'s encoding of one (T, feat_dim) float64 history,
        from a one-entry memo. The entry is reused only while the history's
        shape and bytes and every ``long_lstm`` parameter's bytes equal the
        ones it was encoded from, so a weight that training, ``load_params``
        or a direct write changed in place is never read stale, and ``-0.0``
        differs from ``0.0``. The entry holds a copy of those bytes."""
        key = (history.shape, history.tobytes(),
               *(p.value.tobytes() for p in self.long_lstm.params()))
        memo = self._history_memo
        if memo is not None and memo[0] == key:
            return memo[1]
        z_long = self.long_lstm.encode(history[None], [len(history)])
        self._history_memo = (key, z_long)
        return z_long

    def predict_probs(self, user_id: int, prefix_items,
                      history: np.ndarray) -> np.ndarray:
        """Context probability vector for the current prefix; sums to 1.
        ``history`` is ``long_term_input``'s (T, feat_dim) array. One row of
        the batched path: ``history`` and the prefix are each one source.
        Requests that repeat the previous request's history reuse its
        encoding (``_encode_history``) and return the same bits."""
        history = np.asarray(history, dtype=np.float64)
        with engine.no_grad():
            z_long = self._encode_history(history)
            # one row reading all of its one source: encode's default src/ends
            prefix, lengths, _, _ = prefix_sources(
                self.item_emb, self.aux, np.asarray(prefix_items, dtype=np.intp), [0],
                [len(prefix_items)], self.max_seq_len)
            logits = self.head([user_id], self.short_lstm.encode(prefix, lengths), z_long)
        return engine.softmax(logits.value[0])


class ContextExample(NamedTuple):
    interaction_idx: int
    user_id: int
    session_id: int
    position: int  # prefix length
    label: int


def context_rows(corpus: SplitCorpus, labels: np.ndarray) -> dict[str, np.ndarray]:
    """Per split, train and validation, one example per interaction in
    corpus order, as the (N, 5) int array of ``ContextExample`` fields: its
    in-session prefix, labeled with the session's context. Unlabeled
    sessions are skipped."""
    a = corpus.arrays
    label = np.asarray(labels)[a.session_of]
    rows = np.stack([np.arange(len(label)), a.user_of, a.session_of, a.position_of, label],
                    axis=1)
    return {tag: rows[(a.split == TAGS.index(tag)) & (label != UNLABELED)]
            for tag in (TRAIN, VAL)}


def _prefix_logits(model: ContextPredictor, corpus: SplitCorpus,
                   features: np.ndarray, session_ids: np.ndarray,
                   positions: np.ndarray) -> Var:
    """(N, C) context logits for the prefix of length ``positions[j]`` of
    session ``session_ids[j]``: each distinct session's history is encoded
    once, all histories as one batch and all prefixes as another. A history
    is a window of its user's session-feature rows, so the histories of one
    user (and the prefixes of one session) share a source whose forward
    direction runs once."""
    a = corpus.arrays
    sids, inverse = np.unique(session_ids, return_inverse=True)
    ids, valid, lengths, src, ends = window_sources(
        np.arange(corpus.num_sessions), sids - a.session_rank[sids], a.session_rank[sids],
        model.max_seq_len)
    histories = np.zeros(ids.shape + (features.shape[1],))  # a first session reads a zero row
    histories[valid] = features[ids[valid]]
    # session features are data: the backward pass skips their gradient
    z_long = model.long_lstm.encode(histories, lengths, src, ends)
    z_short = model.short_lstm.encode(*prefix_sources(
        model.item_emb, model.aux, a.item_of, a.session_start[session_ids],
        positions, model.max_seq_len))
    return model.head(a.session_user[session_ids], z_short,
                      engine.index_rows(z_long, inverse))


def batch_loss(model: ContextPredictor, corpus: SplitCorpus,
               features: np.ndarray, examples) -> Var:
    """Mean cross-entropy of ``examples`` (``ContextExample`` rows or their
    int array) as one batched graph."""
    rows = example_rows(examples, len(ContextExample._fields))
    logits = _prefix_logits(model, corpus, features, rows[:, 2], rows[:, 3])
    return engine.softmax_cross_entropy(logits, rows[:, 4])


def train_context(model: ContextPredictor, corpus: SplitCorpus,
                  features: np.ndarray, labels: np.ndarray,
                  rng: np.random.Generator, lr: float = 0.001,
                  batch_size: int = 1024, max_epochs: int = 200,
                  patience: int = 10, clip_norm: float = 5.0) -> dict:
    """Cross-entropy training over per-prefix examples, Adam, early stopping
    on validation loss. A session's prefix family is one shuffle unit and
    shares one history encoding, so its BPTT runs once per batch."""
    rows = context_rows(corpus, labels)
    # the shuffle units: rows are in corpus order, so each session's examples
    # are one run, and the runs are in session order
    train = rows[TRAIN]
    sizes = np.unique(train[:, 2], return_counts=True)[1]
    val = rows[VAL]

    # no validation data (degenerate corpora): early-stop on train loss
    history = fit(model.params(), sizes,
                  lambda idx: batch_loss(model, corpus, features, train[idx]),
                  rng, lr=lr, batch_size=batch_size, max_epochs=max_epochs,
                  patience=patience, clip_norm=clip_norm, what="context",
                  val_score=(lambda: evaluate_context_loss(model, corpus, features, val))
                  if len(val) else None)
    return {"train_loss": history["train_loss"], "val_loss": history["val_score"],
            "best_epoch": history["best_epoch"]}


def evaluate_context_loss(model: ContextPredictor, corpus: SplitCorpus,
                          features: np.ndarray, examples) -> float:
    """Mean cross-entropy of ``examples`` (``ContextExample`` rows or their
    int array), in batches of at most ``EVAL_BATCH``, without gradients; NaN
    for no examples."""
    rows = example_rows(examples, len(ContextExample._fields))
    if not len(rows):
        return float("nan")
    total = 0.0
    with engine.no_grad():
        for start in range(0, len(rows), EVAL_BATCH):
            chunk = rows[start:start + EVAL_BATCH]
            total += float(batch_loss(model, corpus, features, chunk).value) * len(chunk)
    return total / len(rows)


def predict_all_prefixes(model: ContextPredictor, corpus: SplitCorpus,
                         features: np.ndarray) -> np.ndarray:
    """The (interactions, contexts) probabilities of the prefix preceding
    every interaction in the corpus."""
    a = corpus.arrays
    probs = np.zeros((corpus.num_interactions, model.num_contexts))
    with engine.no_grad():
        for start in range(0, corpus.num_interactions, EVAL_BATCH):
            rows = slice(start, start + EVAL_BATCH)
            probs[rows] = engine.softmax(_prefix_logits(
                model, corpus, features, a.session_of[rows], a.position_of[rows]).value)
    return probs


def export_predictions_csv(path, corpus: SplitCorpus, topk_ids: np.ndarray,
                           topk_probs: np.ndarray) -> None:
    """CSV (session_id, prefix_len, top-k ids, top-k probabilities)."""
    k = topk_ids.shape[1]
    header = (["session_id", "prefix_len"]
              + [f"context_{j}" for j in range(k)]
              + [f"prob_{j}" for j in range(k)])
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        a = corpus.arrays
        for idx, (sid, pos) in enumerate(zip(a.session_of.tolist(), a.position_of.tolist())):
            row = ([str(sid), str(pos)]
                   + [str(int(c)) for c in topk_ids[idx]]
                   + [repr(float(p)) for p in topk_probs[idx]])
            fh.write(",".join(row) + "\n")
