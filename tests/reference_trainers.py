"""The context and next-item training loops as they stood before both
moved onto ``ctxrec.nn.optim.fit``, kept as the differential oracle for it.

The code is copied unchanged except for these substitutions:
``evaluate_context_loss`` calls the local ``cross_entropy`` (the removed
``engine.cross_entropy``); the models' per-example scoring methods, which
left the package, are the functions of ``reference_models`` and
``engine.add_n`` is ``reference_graph.add_n``. ``snapshot`` and ``restore``
are the removed optimizer helpers. ``build_context_examples`` is the
per-interaction builder that the array-based
``predictor.build_context_examples`` replaced, and the oracle for it.

``Adam`` (which allocated its moments and temporaries afresh on every
step), ``batches`` (``optim._batches`` over lists of one-example lists) and
``build_rank_examples`` (the ``RankExample`` list) are copied unchanged from
before training moved onto preallocated buffers and index arrays; the
trainers below use them.
"""

import numpy as np

from ctxrec.cluster import UNLABELED
from ctxrec.corpus import SplitCorpus, TRAIN, VAL
from ctxrec.metrics import mrr, rank_of_truth
from ctxrec.nextitem import ABLATION, NextItemModel, RankExample
from ctxrec.nn import engine
from ctxrec.nn.engine import PROB_FLOOR, Parameter
from ctxrec.nn.optim import clip_global_norm
from ctxrec.predictor import (
    ContextExample,
    ContextPredictor,
    long_term_input,
)
from reference_graph import add_n
from reference_models import context_logits_var, encode_history, next_logits_var, next_probs


class Adam:
    def __init__(self, params: list[Parameter], lr: float = 0.001,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.m = [np.zeros_like(p.value) for p in self.params]
        self.v = [np.zeros_like(p.value) for p in self.params]

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def step(self, grads: list[np.ndarray] | None = None) -> None:
        """Apply one bias-corrected update from ``grads`` or the accumulated
        ``param.grad`` buffers. Raises on shape mismatch or non-finite grads."""
        if grads is None:
            grads = [p.grad for p in self.params]
        if len(grads) != len(self.params):
            raise ValueError(f"expected {len(self.params)} gradients, got {len(grads)}")
        for p, g in zip(self.params, grads):
            if g.shape != p.value.shape:
                raise ValueError(f"gradient shape {g.shape} does not match "
                                 f"parameter {p.name} shape {p.value.shape}")
            if not np.isfinite(g).all():
                raise FloatingPointError(f"non-finite gradient for {p.name}")
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1 ** t
        bc2 = 1.0 - self.beta2 ** t
        for k, (p, g) in enumerate(zip(self.params, grads)):
            self.m[k] = self.beta1 * self.m[k] + (1.0 - self.beta1) * g
            self.v[k] = self.beta2 * self.v[k] + (1.0 - self.beta2) * g * g
            m_hat = self.m[k] / bc1
            v_hat = self.v[k] / bc2
            p.value -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def batches(units: list[list], order: np.ndarray, batch_size: int):
    """Whole units in ``order``, packed until a batch holds >= batch_size
    examples; the last batch may be smaller."""
    batch: list = []
    count = 0
    for k in order:
        batch.append(units[k])
        count += len(units[k])
        if count >= batch_size:
            yield batch
            batch, count = [], 0
    if batch:
        yield batch


def build_rank_examples(corpus: SplitCorpus, split_tag: str) -> list[RankExample]:
    """One example per interaction of the split: predict it from its in-session
    prefix (which may be empty, and may include earlier interactions of any
    split that happen to share the session)."""
    return [RankExample(k, it.user_id, corpus.session_of[k],
                        corpus.position_of[k], it.item_id)
            for k, it in enumerate(corpus.interactions)
            if corpus.splits[k] == split_tag]


def cross_entropy(probabilities: np.ndarray, true_index: int) -> float:
    """Negative log-likelihood of the true class, clamped at 1e-12."""
    probabilities = np.asarray(probabilities, dtype=np.float64)
    if not 0 <= true_index < probabilities.shape[-1]:
        raise IndexError(f"true_index {true_index} out of range "
                         f"for {probabilities.shape[-1]} classes")
    return float(-np.log(max(float(probabilities[true_index]), PROB_FLOOR)))


def snapshot(params: list[Parameter]) -> list[np.ndarray]:
    return [p.value.copy() for p in params]


def restore(params: list[Parameter], values: list[np.ndarray]) -> None:
    for p, v in zip(params, values):
        p.value[...] = v


def build_context_examples(corpus: SplitCorpus, labels: np.ndarray,
                           split_tag: str) -> list[ContextExample]:
    """One example per ``split_tag`` interaction: its in-session prefix,
    labeled with the session's context. Unlabeled sessions are skipped."""
    out = []
    for k, it in enumerate(corpus.interactions):
        if corpus.splits[k] != split_tag:
            continue
        sid = corpus.session_of[k]
        if labels[sid] == UNLABELED:
            continue
        out.append(ContextExample(k, it.user_id, sid, corpus.position_of[k],
                                  int(labels[sid])))
    return out


def _group_by_session(examples: list[ContextExample]) -> list[list[ContextExample]]:
    groups: dict[int, list[ContextExample]] = {}
    for ex in examples:
        groups.setdefault(ex.session_id, []).append(ex)
    return [groups[sid] for sid in sorted(groups)]


def train_context(model: ContextPredictor, corpus: SplitCorpus,
                  features: np.ndarray, labels: np.ndarray,
                  rng: np.random.Generator, lr: float = 0.001,
                  batch_size: int = 1024, max_epochs: int = 200,
                  patience: int = 10, clip_norm: float = 5.0,
                  max_seq_len: int = 50) -> dict:
    """Cross-entropy training over per-prefix examples, Adam, early stopping
    on validation loss. Examples sharing a session share one history encoding
    per batch, so its BPTT runs once for the whole prefix family."""
    train_groups = _group_by_session(build_context_examples(corpus, labels, TRAIN))
    val_examples = build_context_examples(corpus, labels, VAL)
    if not train_groups:
        raise ValueError("no training examples")

    histories = {g[0].session_id: long_term_input(
        corpus, features, g[0].user_id, g[0].session_id, max_seq_len)
        for g in train_groups}
    prefixes = {s.session_id: s.items for s in corpus.sessions}

    opt = Adam(model.params(), lr=lr)
    history = {"train_loss": [], "val_loss": [], "best_epoch": -1}
    best_loss = np.inf
    best_params = snapshot(model.params())
    bad_epochs = 0

    def batch_iter(order):
        batch: list[list[ContextExample]] = []
        count = 0
        for gi in order:
            batch.append(train_groups[gi])
            count += len(train_groups[gi])
            if count >= batch_size:
                yield batch
                batch, count = [], 0
        if batch:
            yield batch

    for epoch in range(max_epochs):
        order = rng.permutation(len(train_groups))
        epoch_loss = 0.0
        n_seen = 0
        for batch in batch_iter(order):
            n = sum(len(g) for g in batch)
            losses = []
            for group in batch:
                sid = group[0].session_id
                z_long = encode_history(model, histories[sid])
                for ex in group:
                    logits = context_logits_var(model, ex.user_id,
                                                prefixes[sid][:ex.position], z_long)
                    loss = engine.softmax_cross_entropy(logits, ex.label)
                    losses.append(loss)
            total = add_n(losses, [1.0 / n] * len(losses))
            if not np.isfinite(total.value):
                raise FloatingPointError("non-finite context training loss")
            opt.zero_grad()
            engine.backward(total)
            clip_global_norm(model.params(), clip_norm)
            opt.step()
            epoch_loss += float(total.value) * n
            n_seen += n
        history["train_loss"].append(epoch_loss / n_seen)

        # no validation data (degenerate corpora): early-stop on train loss
        val_loss = (evaluate_context_loss(model, corpus, features, val_examples,
                                          max_seq_len)
                    if val_examples else history["train_loss"][-1])
        history["val_loss"].append(val_loss)
        if val_loss < best_loss - 1e-12:
            best_loss = val_loss
            best_params = snapshot(model.params())
            history["best_epoch"] = epoch
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= patience:
                break
    restore(model.params(), best_params)
    return history


def evaluate_context_loss(model: ContextPredictor, corpus: SplitCorpus,
                          features: np.ndarray,
                          examples: list[ContextExample],
                          max_seq_len: int = 50) -> float:
    if not examples:
        return float("nan")
    total = 0.0
    for group in _group_by_session(examples):
        sid = group[0].session_id
        hist = long_term_input(corpus, features, group[0].user_id, sid, max_seq_len)
        z_long = encode_history(model, hist)
        items = corpus.sessions[sid].items
        for ex in group:
            logits = context_logits_var(model, ex.user_id, items[:ex.position], z_long)
            probs = engine.softmax(logits.value)
            total += cross_entropy(probs, ex.label)
    return total / len(examples)


def _contexts_for(model: NextItemModel, ctx_topk: np.ndarray | None, idx: int):
    if model.mode == ABLATION:
        return None
    if ctx_topk is None:
        raise ValueError("with-context mode needs per-prefix context predictions")
    return ctx_topk[idx]


def compute_ranks(model: NextItemModel, corpus: SplitCorpus,
                  examples: list[RankExample],
                  ctx_topk: np.ndarray | None) -> np.ndarray:
    ranks = np.empty(len(examples), dtype=np.int64)
    prefixes = {s.session_id: s.items for s in corpus.sessions}
    for j, ex in enumerate(examples):
        probs = next_probs(model, ex.user_id,
                           prefixes[ex.session_id][:ex.position],
                           _contexts_for(model, ctx_topk, ex.interaction_idx))
        ranks[j] = rank_of_truth(probs, ex.target_item)
    return ranks


def train_next(model: NextItemModel, corpus: SplitCorpus,
               ctx_topk: np.ndarray | None, rng: np.random.Generator,
               lr: float = 0.001, batch_size: int = 1024,
               max_epochs: int = 200, patience: int = 10,
               clip_norm: float = 5.0) -> dict:
    """Cross-entropy training over every train interaction, Adam, early
    stopping on validation MRR (higher is better)."""
    train_examples = build_rank_examples(corpus, TRAIN)
    val_examples = build_rank_examples(corpus, VAL)
    if not train_examples:
        raise ValueError("no training examples")
    prefixes = {s.session_id: s.items for s in corpus.sessions}

    opt = Adam(model.params(), lr=lr)
    history = {"train_loss": [], "val_mrr": [], "best_epoch": -1}
    best_mrr = -np.inf
    best_params = snapshot(model.params())
    bad_epochs = 0

    for epoch in range(max_epochs):
        order = rng.permutation(len(train_examples))
        epoch_loss = 0.0
        for start in range(0, len(order), batch_size):
            batch = [train_examples[j] for j in order[start:start + batch_size]]
            losses = []
            for ex in batch:
                logits = next_logits_var(
                    model, ex.user_id, prefixes[ex.session_id][:ex.position],
                    _contexts_for(model, ctx_topk, ex.interaction_idx))
                loss = engine.softmax_cross_entropy(logits, ex.target_item)
                losses.append(loss)
            total = add_n(losses, [1.0 / len(batch)] * len(batch))
            if not np.isfinite(total.value):
                raise FloatingPointError("non-finite next-item training loss")
            opt.zero_grad()
            engine.backward(total)
            clip_global_norm(model.params(), clip_norm)
            opt.step()
            epoch_loss += float(total.value) * len(batch)
        history["train_loss"].append(epoch_loss / len(train_examples))

        if val_examples:
            val_mrr = mrr(compute_ranks(model, corpus, val_examples, ctx_topk))
        else:
            val_mrr = -history["train_loss"][-1]
        history["val_mrr"].append(val_mrr)
        if val_mrr > best_mrr + 1e-12:
            best_mrr = val_mrr
            best_params = snapshot(model.params())
            history["best_epoch"] = epoch
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= patience:
                break
    restore(model.params(), best_params)
    return history

