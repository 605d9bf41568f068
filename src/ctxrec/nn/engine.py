"""Reverse-mode automatic differentiation over numpy arrays.

The operator set is deliberately small: exactly what the models in this
package compose. Values are float64 throughout. Trainable weights live in
``Parameter`` objects whose ``.grad`` buffers accumulate across backward
passes; intermediate nodes are ``Var`` objects forming a DAG. Recurrent
encoders register as single fused nodes (see ``layers.BiLstm``) so a pass
over a whole batch of sequences costs one node instead of one per gate, and
so does the graph encoder's batch loss (``graph._edge_loss_sampled``).
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
from scipy import sparse


class Parameter:
    """A named trainable tensor with a dense gradient accumulator."""

    __slots__ = ("name", "value", "grad")

    def __init__(self, name: str, value: np.ndarray):
        self.name = name
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = np.zeros_like(self.value)

    def zero_grad(self) -> None:
        self.grad[...] = 0.0

    def __repr__(self) -> str:
        return f"Parameter({self.name}, shape={self.value.shape})"


class Var:
    """A node in the computation record: a value plus how to push grads back."""

    __slots__ = ("value", "grad", "parents", "bwd")

    def __init__(self, value, parents=(), bwd=None):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None
        self.parents = parents
        self.bwd = bwd


def constant(value) -> Var:
    """A leaf carrying non-trainable input data."""
    return Var(value)


def _accum(var: Var, g: np.ndarray, owned: bool = False) -> None:
    """Add ``g`` to ``var.grad``. A first gradient is stored as a copy, since
    ``g`` may be shared, unless ``owned`` says the caller made it and holds
    no other reference to it."""
    if var.grad is None:
        var.grad = g if owned else np.array(g, dtype=np.float64)
    else:
        var.grad += g


def backward(root: Var) -> None:
    """Reverse-mode sweep from a scalar loss node.

    Visits each node once in reverse topological order, so shared subgraphs
    (e.g. one session encoding feeding many per-prefix losses) receive their
    full accumulated gradient before propagating further.
    """
    if root.value.ndim != 0:
        raise ValueError(f"backward requires a scalar loss, got shape {root.value.shape}")
    order: list[Var] = []
    seen: set[int] = set()
    stack: list[tuple[Var, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if id(p) not in seen:
                stack.append((p, False))
    root.grad = np.asarray(1.0)
    for node in reversed(order):
        if node.bwd is not None and node.grad is not None:
            node.bwd(node.grad)


# ---------------------------------------------------------------------------
# plain numpy helpers (also used outside the graph)

def stable_sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def softmax(logits: np.ndarray) -> np.ndarray:
    """Max-shifted softmax; entries positive and summing to 1 within 1e-12."""
    logits = np.asarray(logits, dtype=np.float64)
    if np.isnan(logits).any():
        raise ValueError("softmax received NaN logits")
    e = logits - logits.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def sum_rows(ids: np.ndarray, rows: np.ndarray, n: int) -> np.ndarray:
    """The (n, d) array whose row i sums the ``rows[j]`` with ``ids[j] == i``,
    added from 0.0 in increasing j: the sums ``np.add.at`` forms into zeros,
    bit for bit, as one CSR product."""
    indptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(ids, minlength=n), out=indptr[1:])
    return sparse.csr_array((np.ones(len(ids)), np.argsort(ids, kind="stable"), indptr),
                            shape=(n, len(ids))) @ rows


def scatter_add(target: np.ndarray, ids: np.ndarray, rows: np.ndarray) -> None:
    """``np.add.at(target, ids, rows)`` into a contiguous ``target``, bit for
    bit. While ``target`` is all zero, as a table's gradient is at its one
    lookup in a backward pass, the rows are summed by ``sum_rows``; a table
    read twice in one graph takes ``np.add.at`` from its second scatter on."""
    if target.any():
        np.add.at(target, ids, rows)
        return
    flat = target.reshape(len(target), -1)  # a view
    flat += sum_rows(ids.reshape(-1), rows.reshape(ids.size, flat.shape[1]), len(target))


PROB_FLOOR = 1e-12


_grad_enabled = True


@contextmanager
def no_grad():
    """Inference scope: ops still compute values, but layers that keep a
    backward cache (``layers.BiLstm``) skip it, and backpropagating through
    such a node raises."""
    global _grad_enabled
    prev, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = prev


def grad_enabled() -> bool:
    return _grad_enabled


# ---------------------------------------------------------------------------
# graph-building operators

def lookup(table: Parameter, ids) -> Var:
    """Gather rows of an embedding table; gradient is sparse over those rows."""
    ids = np.asarray(ids, dtype=np.intp)
    if ids.size and (ids.min() < 0 or ids.max() >= table.value.shape[0]):
        raise IndexError(f"lookup index out of range for table {table.name} "
                         f"with {table.value.shape[0]} rows")
    out = Var(table.value[ids])

    def bwd(g):
        scatter_add(table.grad, ids, g)

    out.bwd = bwd
    return out


def dense(weight: Parameter, bias: Parameter | None, x: Var) -> Var:
    """Affine map along the last axis: y = x @ W.T + b."""
    din = weight.value.shape[1]
    if x.value.shape[-1] != din:
        raise ValueError(f"dense {weight.name}: input dim {x.value.shape[-1]} "
                         f"!= expected {din}")
    y = x.value @ weight.value.T
    if bias is not None:
        y += bias.value

    def bwd(g):
        gm = g.reshape(-1, weight.value.shape[0])
        xm = x.value.reshape(-1, din)
        weight.grad += gm.T @ xm
        if bias is not None:
            bias.grad += gm.sum(axis=0)
        _accum(x, (g @ weight.value).reshape(x.value.shape), owned=True)

    return Var(y, (x,), bwd)


def concat(parts: list[Var]) -> Var:
    """Join nodes along the last axis."""
    widths = [p.value.shape[-1] for p in parts]
    out_val = np.concatenate([p.value for p in parts], axis=-1)

    def bwd(g):
        offset = 0
        for p, w in zip(parts, widths):
            _accum(p, g[..., offset:offset + w])
            offset += w

    return Var(out_val, tuple(parts), bwd)


def index_rows(x: Var, ids) -> Var:
    """Gather along axis 0 of an intermediate node (e.g. deduped embeddings)."""
    ids = np.asarray(ids, dtype=np.intp)

    def bwd(g):
        if x.grad is None:
            x.grad = np.zeros_like(x.value)
        np.add.at(x.grad, ids, g)

    return Var(x.value[ids], (x,), bwd)


def reshape(x: Var, shape) -> Var:
    def bwd(g):
        _accum(x, g.reshape(x.value.shape))

    return Var(x.value.reshape(shape), (x,), bwd)


def softmax_cross_entropy(logits: Var, targets) -> Var:
    """Fused softmax + negative log-likelihood; returns the loss node.

    A (V,) logits node with an int target gives that example's loss; a
    (B, V) node with B targets gives the mean of the B row losses.
    """
    probs = softmax(logits.value)
    rows = probs.reshape(-1, probs.shape[-1])
    t = np.asarray(targets, dtype=np.intp).reshape(-1)
    if t.shape != rows.shape[:1]:
        raise ValueError(f"{t.size} targets for {rows.shape[0]} rows of logits")
    if ((t < 0) | (t >= rows.shape[1])).any():
        raise IndexError(f"true_index {targets} out of range")
    n = len(t)
    picked = np.arange(n), t
    loss = -np.log(np.maximum(rows[picked], PROB_FLOOR)).mean()

    def bwd(g):
        d = rows.copy()
        d[picked] -= 1.0
        d *= g / n
        _accum(logits, d.reshape(probs.shape), owned=True)

    return Var(np.asarray(loss), (logits,), bwd)
