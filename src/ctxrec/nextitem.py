"""Context-conditioned next-item prediction, with an ablation variant.

The scorer concatenates three blocks: the embeddings of the top-K predicted
contexts for the current prefix (in ascending context-id order), an item-level
encoding of the observed prefix, and the user embedding. The ablation mode
drops the context block entirely, isolating the contribution of implicit
contexts; its output is literally independent of whatever context ids are
supplied. No parameter is shared with the context predictor: the two models
are trained separately and communicate only through predicted context ids.

Training, ranking and serving score through one head (``NextItemModel.head``)
over a batch of prefixes encoded as shared sources; a served request
(``NextItemModel.predict_probs``) is a one-row call of that batched path.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .corpus import SplitCorpus, TAGS, TRAIN, VAL, TEST, example_rows
from .metrics import mrr, ranks_of_truth
from .nn import engine
from .nn.engine import Parameter, Var
from .nn.layers import EVAL_BATCH, BiLstm, DenseLayer, EmbeddingTable, prefix_sources
from .nn.optim import fit

WITH_CONTEXT = "with_context"
ABLATION = "ablation"


class NextItemModel:
    def __init__(self, num_users: int, num_items: int, num_contexts: int,
                 user_dim: int = 256, item_dim: int = 256, context_dim: int = 32,
                 hidden: int = 128, top_k: int = 3, max_seq_len: int = 50,
                 mode: str = WITH_CONTEXT,
                 rng: np.random.Generator | None = None):
        if mode not in (WITH_CONTEXT, ABLATION):
            raise ValueError(f"unknown mode {mode!r}")
        rng = rng or np.random.default_rng(0)
        self.num_users = num_users
        self.num_items = num_items
        self.num_contexts = num_contexts
        self.top_k = top_k
        self.max_seq_len = max_seq_len
        self.mode = mode
        self.user_emb = EmbeddingTable("next.user_emb", num_users, user_dim, rng)
        self.item_emb = EmbeddingTable("next.item_emb", num_items, item_dim, rng)
        self.context_emb = EmbeddingTable("next.context_emb", num_contexts,
                                          context_dim, rng)
        self.item_lstm = BiLstm("next.item_lstm", item_dim, hidden, rng)
        block = top_k * context_dim if mode == WITH_CONTEXT else 0
        self.fc2 = DenseLayer("next.fc2",
                              block + self.item_lstm.output_dim + user_dim,
                              num_items, rng)
        self.aux = Parameter("next.aux", rng.normal(0.0, 0.1, size=item_dim))

    def params(self) -> list[Parameter]:
        ps = (self.user_emb.params() + self.item_emb.params()
              + self.item_lstm.params() + self.fc2.params() + [self.aux])
        if self.mode == WITH_CONTEXT:
            ps = self.context_emb.params() + ps
        return ps

    def check_context_ids(self, context_ids) -> np.ndarray:
        """``context_ids`` as an int array whose last axis holds top_k
        strictly ascending ids in range; raises ValueError otherwise."""
        ids = np.asarray(context_ids, dtype=np.intp)
        if ids.shape[-1:] != (self.top_k,):
            raise ValueError(f"expected {self.top_k} context ids, got {ids.shape}")
        if (np.diff(ids) <= 0).any():
            raise ValueError(f"context ids must be strictly ascending: {ids.tolist()}")
        if ids.min() < 0 or ids.max() >= self.num_contexts:
            raise ValueError(f"context id out of range [0, {self.num_contexts})")
        return ids

    def head(self, user_ids, z_item: Var, context_ids) -> Var:
        """(B, V) next-item logits of B rows through ``fc2``: the embedding
        rows of each row's top-K ``context_ids`` (B of them, unread in
        ablation mode), the rows' prefix encodings and their users'
        embeddings."""
        e_user = self.user_emb.lookup(user_ids)
        if self.mode == ABLATION:
            return self.fc2(engine.concat([z_item, e_user]))
        ids = self.check_context_ids(context_ids)
        block = engine.reshape(self.context_emb.lookup(ids), (len(ids), -1))
        return self.fc2(engine.concat([block, z_item, e_user]))

    def predict_probs(self, user_id: int, prefix_items, context_ids) -> np.ndarray:
        """Next-item probability vector over all items; sums to 1. One row of
        the batched path, whose prefix is one source."""
        with engine.no_grad():
            # one row reading all of its one source: encode's default src/ends
            prefix, lengths, _, _ = prefix_sources(
                self.item_emb, self.aux, np.asarray(prefix_items, dtype=np.intp), [0],
                [len(prefix_items)], self.max_seq_len)
            logits = self.head([user_id], self.item_lstm.encode(prefix, lengths),
                               [context_ids])
        return engine.softmax(logits.value[0])


class RankExample(NamedTuple):
    interaction_idx: int
    user_id: int
    session_id: int
    position: int
    target_item: int


def rank_rows(corpus: SplitCorpus, split_tag: str) -> np.ndarray:
    """One example per interaction of the split, in corpus order, as the
    (N, 5) int array of ``RankExample`` fields: predict the interaction from
    its in-session prefix (which may be empty, and may include earlier
    interactions of any split that happen to share the session)."""
    a = corpus.arrays
    idx = np.flatnonzero(a.split == TAGS.index(split_tag))
    return np.stack([idx, a.user_of[idx], a.session_of[idx], a.position_of[idx],
                     a.item_of[idx]], axis=1)


def _batch_logits(model: NextItemModel, corpus: SplitCorpus, rows: np.ndarray,
                  ctx_topk: np.ndarray | None) -> Var:
    """(N, V) next-item logits of the examples ``rows`` (the (N, 5) int
    array of ``RankExample`` fields): the prefixes through the item BiLSTM as
    one batch (the prefixes of one session share a source), one context-row
    lookup and one ``fc2`` matmul."""
    if model.mode == WITH_CONTEXT and ctx_topk is None:
        raise ValueError("with-context mode needs per-prefix context predictions")
    interactions, users, sessions, positions, _ = rows.T
    a = corpus.arrays
    z_item = model.item_lstm.encode(*prefix_sources(
        model.item_emb, model.aux, a.item_of, a.session_start[sessions], positions,
        model.max_seq_len))
    return model.head(users, z_item,
                      None if model.mode == ABLATION else ctx_topk[interactions])


def _batch_probs(model: NextItemModel, corpus: SplitCorpus, rows: np.ndarray,
                 ctx_topk: np.ndarray | None):
    """(rows, (N, V) next-item probabilities) per batch of at most
    ``EVAL_BATCH`` examples, in order."""
    for start in range(0, len(rows), EVAL_BATCH):
        batch = rows[start:start + EVAL_BATCH]
        with engine.no_grad():
            logits = _batch_logits(model, corpus, batch, ctx_topk)
        yield batch, engine.softmax(logits.value)


def batch_loss(model: NextItemModel, corpus: SplitCorpus,
               ctx_topk: np.ndarray | None, examples) -> Var:
    """Mean next-item cross-entropy of ``examples`` (``RankExample`` rows or
    their int array) as one batched graph."""
    rows = example_rows(examples, len(RankExample._fields))
    logits = _batch_logits(model, corpus, rows, ctx_topk)
    return engine.softmax_cross_entropy(logits, rows[:, 4])


def compute_ranks(model: NextItemModel, corpus: SplitCorpus, examples,
                  ctx_topk: np.ndarray | None) -> np.ndarray:
    """The rank of each example's target item (``RankExample`` rows or their
    int array) among the model's next-item probabilities."""
    rows = example_rows(examples, len(RankExample._fields))
    ranks = [ranks_of_truth(probs, batch[:, 4])
             for batch, probs in _batch_probs(model, corpus, rows, ctx_topk)]
    return np.concatenate(ranks) if ranks else np.empty(0, dtype=np.int64)


def train_next(model: NextItemModel, corpus: SplitCorpus,
               ctx_topk: np.ndarray | None, rng: np.random.Generator,
               lr: float = 0.001, batch_size: int = 1024,
               max_epochs: int = 200, patience: int = 10,
               clip_norm: float = 5.0) -> dict:
    """Cross-entropy training over every train interaction, Adam, early
    stopping on validation MRR (higher is better)."""
    train_examples = rank_rows(corpus, TRAIN)
    val_examples = rank_rows(corpus, VAL)

    # no validation data: early-stop on train loss, recorded as -loss
    history = fit(model.params(), np.ones(len(train_examples), dtype=np.intp),
                  lambda idx: batch_loss(model, corpus, ctx_topk, train_examples[idx]),
                  rng, lr=lr, batch_size=batch_size, max_epochs=max_epochs,
                  patience=patience, clip_norm=clip_norm, what="next-item",
                  val_score=(lambda: -mrr(compute_ranks(
                      model, corpus, val_examples, ctx_topk)))
                  if len(val_examples) else None)
    return {"train_loss": history["train_loss"],
            "val_mrr": [-v for v in history["val_score"]],
            "best_epoch": history["best_epoch"]}


def export_ranked_lists(path, model: NextItemModel, corpus: SplitCorpus,
                        ctx_topk: np.ndarray | None, top_n: int = 20) -> None:
    """Line-JSON dump: per test interaction, the top-N item ids and scores."""
    import json

    with open(path, "w") as fh:
        for batch, probs in _batch_probs(model, corpus, rank_rows(corpus, TEST), ctx_topk):
            for (k, _, session, position, item), row in zip(batch.tolist(), probs):
                order = np.lexsort((np.arange(len(row)), -row))[:top_n]
                fh.write(json.dumps({
                    "interaction_idx": k,
                    "session_id": session,
                    "prefix_len": position,
                    "true_item": item,
                    "items": [int(i) for i in order],
                    "scores": [float(row[i]) for i in order],
                }, sort_keys=True) + "\n")
