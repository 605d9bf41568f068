"""Adam, global-norm gradient clipping, and the early-stopping training loop."""

from __future__ import annotations

from typing import Callable

import numpy as np

from . import engine
from .engine import Parameter, Var


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


def clip_global_norm(params: list[Parameter], max_norm: float) -> float:
    """Scale all gradients in place so their global L2 norm is <= max_norm."""
    total = 0.0
    for p in params:
        total += float((p.grad * p.grad).sum())
    norm = float(np.sqrt(total))
    if norm > max_norm and norm > 0.0:
        factor = max_norm / norm
        for p in params:
            p.grad *= factor
    return norm


def adam_stepper(params: list[Parameter], lr: float, clip_norm: float,
                 what: str) -> Callable[[Var], None]:
    """A function applying one Adam update from a scalar loss node: it
    rejects a non-finite loss, backpropagates, then clips the gradients'
    global norm (summed in ``params`` order) to ``clip_norm``."""
    opt = Adam(params, lr=lr)

    def step(loss: Var) -> None:
        if not np.isfinite(loss.value):
            raise FloatingPointError(f"non-finite {what} training loss")
        opt.zero_grad()
        engine.backward(loss)
        clip_global_norm(params, clip_norm)
        opt.step()

    return step


def _batches(units: list[list], order: np.ndarray, batch_size: int):
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


def fit(params: list[Parameter], units: list[list],
        batch_loss: Callable[[list], Var], rng: np.random.Generator,
        *, lr: float, batch_size: int, max_epochs: int, patience: int,
        clip_norm: float, what: str,
        val_score: Callable[[], float] | None = None) -> dict:
    """Mini-batch Adam training with early stopping and best-epoch restore.

    ``units`` are the shuffle units, each a list of examples that always
    share a batch; ``batch_loss(examples)`` returns the mean loss node over
    a batch's examples (its units' lists, concatenated). After each epoch
    ``val_score()`` (lower is better; the epoch's mean train loss when None)
    must beat the best so far by more than 1e-12, or the epoch counts toward
    ``patience``.
    The best epoch's parameters are restored before returning the history:
    per-epoch ``train_loss`` and ``val_score``, and ``best_epoch``.
    """
    if not units:
        raise ValueError("no training examples")
    step = adam_stepper(params, lr, clip_norm, what)
    history = {"train_loss": [], "val_score": [], "best_epoch": -1}
    best = np.inf
    best_values = [p.value.copy() for p in params]
    bad_epochs = 0
    for epoch in range(max_epochs):
        epoch_loss = 0.0
        n_seen = 0
        for batch in _batches(units, rng.permutation(len(units)), batch_size):
            examples = [ex for unit in batch for ex in unit]
            n = len(examples)
            total = batch_loss(examples)
            step(total)
            epoch_loss += float(total.value) * n
            n_seen += n
        history["train_loss"].append(epoch_loss / n_seen)

        score = val_score() if val_score is not None else history["train_loss"][-1]
        history["val_score"].append(score)
        if score < best - 1e-12:
            best = score
            best_values = [p.value.copy() for p in params]
            history["best_epoch"] = epoch
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= patience:
                break
    for p, v in zip(params, best_values):
        p.value[...] = v
    return history
