"""Adam, global-norm gradient clipping, and the early-stopping training loop."""

from __future__ import annotations

from typing import Callable

import numpy as np

from . import engine
from .engine import Parameter, Var


BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class Adam:
    def __init__(self, params: list[Parameter], lr: float = 0.001):
        self.params = list(params)
        self.lr = lr
        self.step_count = 0
        self.m = [np.zeros_like(p.value) for p in self.params]
        self.v = [np.zeros_like(p.value) for p in self.params]
        # per parameter: the two work arrays of the in-place update
        self._work = [(np.empty_like(p.value), np.empty_like(p.value)) for p in self.params]

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:
        """Apply one bias-corrected update from the accumulated
        ``param.grad`` buffers. Raises on non-finite grads. The moments and
        parameters are updated in place."""
        for p in self.params:
            if not np.isfinite(p.grad).all():
                raise FloatingPointError(f"non-finite gradient for {p.name}")
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - BETA1 ** t
        bc2 = 1.0 - BETA2 ** t
        for p, m, v, (a, b) in zip(self.params, self.m, self.v, self._work):
            g = p.grad
            # m = beta1 * m + (1 - beta1) * g
            m *= BETA1
            m += np.multiply(1.0 - BETA1, g, out=a)
            # v = beta2 * v + (1 - beta2) * g * g
            v *= BETA2
            np.multiply(1.0 - BETA2, g, out=a)
            v += np.multiply(a, g, out=a)
            # value -= lr * (m / bc1) / (sqrt(v / bc2) + eps)
            np.divide(m, bc1, out=a)
            a *= self.lr
            np.divide(v, bc2, out=b)
            np.sqrt(b, out=b)
            b += EPS
            p.value -= np.divide(a, b, out=a)


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


def _batches(sizes: np.ndarray, order: np.ndarray, batch_size: int):
    """Example indices per batch: whole units in ``order``, packed until a
    batch holds >= batch_size examples; the last batch may be smaller. Unit u
    is the ``sizes[u]`` consecutive examples after those of units 0..u-1."""
    first = (np.cumsum(sizes) - sizes)[order]  # each unit's first example
    sizes = sizes[order]
    ends = np.cumsum(sizes)  # examples in the units up to each one, in order
    examples = np.repeat(first - (ends - sizes), sizes) + np.arange(ends[-1])
    cut = 0
    while cut < len(examples):
        k = np.searchsorted(ends, cut + batch_size)  # the unit that fills the batch
        end = int(ends[min(k, len(ends) - 1)])
        yield examples[cut:end]
        cut = end


def fit(params: list[Parameter], sizes: np.ndarray,
        batch_loss: Callable[[np.ndarray], Var], rng: np.random.Generator,
        *, lr: float, batch_size: int, max_epochs: int, patience: int,
        clip_norm: float, what: str,
        val_score: Callable[[], float] | None = None) -> dict:
    """Mini-batch Adam training with early stopping and best-epoch restore.

    The examples are numbered consecutively by shuffle unit: unit u is the
    next ``sizes[u]`` >= 1 examples, and a unit's examples always share a
    batch. ``batch_loss(idx)`` returns the mean loss node over the examples
    ``idx`` of a batch (its units' examples in shuffled unit order). After
    each epoch ``val_score()`` (lower is better; the epoch's mean train loss
    when None) must beat the best so far by more than 1e-12, or the epoch
    counts toward ``patience``.
    The best epoch's parameters are restored before returning the history:
    per-epoch ``train_loss`` and ``val_score``, and ``best_epoch``.
    """
    sizes = np.asarray(sizes, dtype=np.intp)
    if not len(sizes):
        raise ValueError("no training examples")
    step = adam_stepper(params, lr, clip_norm, what)
    history = {"train_loss": [], "val_score": [], "best_epoch": -1}
    best = np.inf
    best_values = [p.value.copy() for p in params]
    bad_epochs = 0
    for epoch in range(max_epochs):
        epoch_loss = 0.0
        n_seen = 0
        for idx in _batches(sizes, rng.permutation(len(sizes)), batch_size):
            n = len(idx)
            total = batch_loss(idx)
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
