"""Trainable layers: embedding tables, dense layers, and bidirectional LSTMs.

The BiLSTM registers a whole padded batch of sequences as a single fused
graph node: the forward pass loops over time steps with every sequence of
the batch in each step's matmul and caches per-step activations; the
backward pass runs truncation-free BPTT the same way, batched over the rows.
"""

from __future__ import annotations

import numpy as np

from . import engine
from .engine import Parameter, Var, _accum

EVAL_BATCH = 1024  # sequences scored per batch when no gradient is needed


def uniform_init(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


class EmbeddingTable:
    """A rows x dim table of learnable vectors, init N(0, 0.1)."""

    def __init__(self, name: str, rows: int, dim: int, rng: np.random.Generator):
        self.rows = rows
        self.dim = dim
        self.weights = Parameter(name, rng.normal(0.0, 0.1, size=(rows, dim)))

    def lookup(self, ids) -> Var:
        return engine.lookup(self.weights, ids)

    def row(self, idx: int) -> Var:
        return self.lookup(int(idx))

    def params(self) -> list[Parameter]:
        return [self.weights]


def prefix_batch(table: EmbeddingTable, aux: Parameter, prefixes,
                 max_len: int) -> tuple[Var, np.ndarray]:
    """The padded (B, T, dim) batch a prefix encoder reads, and its row
    lengths: row b holds the embedding rows of the last ``max_len`` items of
    ``prefixes[b]``, or the learnable ``aux`` vector as a sequence of length
    one when that prefix is empty. Padding is zero."""
    cut = [list(p)[-max_len:] for p in prefixes]
    lengths = np.array([max(len(c), 1) for c in cut], dtype=np.intp)
    ids = np.zeros((len(cut), int(lengths.max())), dtype=np.intp)
    valid = np.zeros(ids.shape, dtype=bool)
    for b, c in enumerate(cut):
        ids[b, :len(c)] = c
        valid[b, :len(c)] = True
    items = ids[valid]
    if items.size and (items.min() < 0 or items.max() >= table.rows):
        raise IndexError(f"lookup index out of range for table "
                         f"{table.weights.name} with {table.rows} rows")
    empty = ~valid[:, 0]
    x = np.zeros(ids.shape + (table.dim,))
    x[valid] = table.weights.value[items]
    x[empty, 0] = aux.value

    def bwd(g):
        np.add.at(table.weights.grad, items, g[valid])
        aux.grad += g[empty, 0].sum(axis=0)

    return Var(x, (), bwd), lengths


def prefix_input(table: EmbeddingTable, aux: Parameter, prefix_items,
                 max_len: int) -> Var:
    """The (T, dim) sequence of one prefix: ``prefix_batch`` of one row."""
    seqs, _ = prefix_batch(table, aux, [prefix_items], max_len)
    return engine.reshape(seqs, seqs.value.shape[1:])


class DenseLayer:
    """Affine layer y = W x + b with uniform(+-1/sqrt(in_dim)) init."""

    def __init__(self, name: str, in_dim: int, out_dim: int, rng: np.random.Generator):
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.weight = Parameter(f"{name}.weight", uniform_init(rng, (out_dim, in_dim), in_dim))
        self.bias = Parameter(f"{name}.bias", np.zeros(out_dim))

    def __call__(self, x: Var) -> Var:
        return engine.dense(self.weight, self.bias, x)

    def params(self) -> list[Parameter]:
        return [self.weight, self.bias]


class LstmDirection:
    """One direction's fused-gate parameters, gate row order [i, f, g, o]."""

    def __init__(self, name: str, input_dim: int, hidden_dim: int,
                 rng: np.random.Generator, forget_bias: float = 1.0):
        h = hidden_dim
        self.input_dim = input_dim
        self.hidden_dim = h
        self.w_in = Parameter(f"{name}.w_in", uniform_init(rng, (4 * h, input_dim), input_dim))
        self.w_rec = Parameter(f"{name}.w_rec", uniform_init(rng, (4 * h, h), h))
        bias = np.zeros(4 * h)
        bias[h:2 * h] = forget_bias
        self.bias = Parameter(f"{name}.bias", bias)
        # tanh(z * scale) * scale + shift is sigmoid on i, f, o and tanh on g
        self.gate_scale = np.repeat([0.5, 0.5, 1.0, 0.5], h)
        self.gate_shift = np.repeat([0.5, 0.5, 0.0, 0.5], h)

    def params(self) -> list[Parameter]:
        return [self.w_in, self.w_rec, self.bias]


def _run_direction(d: LstmDirection, xs: np.ndarray, counts: list[int],
                   keep: bool):
    """Run one direction over packed time-major inputs ``xs``: step t reads
    the next ``counts[t]`` rows, which belong to batch rows ``0..counts[t]-1``
    (longest sequences first, so ``counts`` never grows). A row that stops
    keeps its state, so the returned (B, h) states are each row's final
    hidden state. The BPTT cache is returned when ``keep``, else None."""
    h = d.hidden_dim
    z_in = xs @ d.w_in.value.T + d.bias.value  # input matmul batched over all steps
    hs = np.zeros((counts[0], h))
    cs = np.zeros((counts[0], h))
    if keep:
        H_prev = np.empty((len(xs), h))
        C_prev = np.empty((len(xs), h))
        ACT = np.empty((len(xs), 4 * h))
        TC = np.empty((len(xs), h))
    w_rec_t = d.w_rec.value.T
    off = 0
    for n in counts:
        rows = slice(off, off + n)
        # all four gates [i, f, g, o] from one tanh: sigmoid(x) = (1 + tanh(x/2)) / 2
        act = np.tanh((z_in[rows] + hs[:n] @ w_rec_t) * d.gate_scale) \
            * d.gate_scale + d.gate_shift
        c = act[:, h:2 * h] * cs[:n] + act[:, :h] * act[:, 2 * h:3 * h]
        tc = np.tanh(c)
        if keep:
            H_prev[rows] = hs[:n]
            C_prev[rows] = cs[:n]
            ACT[rows] = act
            TC[rows] = tc
        hs[:n] = act[:, 3 * h:] * tc
        cs[:n] = c
        off += n
    return hs, ((xs, H_prev, C_prev, ACT, TC) if keep else None)


def _backward_direction(d: LstmDirection, cache, counts: list[int],
                        dh_final: np.ndarray) -> np.ndarray:
    """BPTT for one direction, batched over rows; accumulates parameter
    grads and returns d(packed inputs)."""
    xs, H_prev, C_prev, ACT, TC = cache
    h = d.hidden_dim
    i, f, g, o = (ACT[:, k * h:(k + 1) * h] for k in range(4))
    # d(loss)/d(gate pre-activation) is the state gradient the gate feeds
    # (dc for i, f, g; dh for o) times its partner in the cell update times
    # its activation's derivative; the last two are known before the sweep
    partner = np.empty((len(xs), 4, h))
    partner[:, 0] = g * i * (1.0 - i)
    partner[:, 1] = C_prev * f * (1.0 - f)
    partner[:, 2] = i * (1.0 - g * g)
    partner[:, 3] = TC * o * (1.0 - o)
    dc_dh = o * (1.0 - TC * TC)
    dZ = np.empty((len(xs), 4, h))
    dh = dh_final.copy()
    dc = np.zeros_like(dh)
    w_rec = d.w_rec.value
    off = len(xs)
    for n in reversed(counts):
        off -= n
        rows = slice(off, off + n)
        dcn = dc[:n] + dh[:n] * dc_dh[rows]
        dZ[rows, :3] = partner[rows, :3] * dcn[:, None]
        dZ[rows, 3] = partner[rows, 3] * dh[:n]
        dh[:n] = dZ[rows].reshape(n, 4 * h) @ w_rec
        dc[:n] = dcn * f[rows]
    dZ = dZ.reshape(len(xs), 4 * h)
    d.w_in.grad += dZ.T @ xs
    d.w_rec.grad += dZ.T @ H_prev
    d.bias.grad += dZ.sum(axis=0)
    return dZ @ d.w_in.value


class BiLstm:
    """Bidirectional LSTM summarizing a sequence as the concatenation of the
    two directions' final hidden states (output dim = 2 * hidden_dim).

    ``encode`` runs a padded batch of sequences as one graph node, looping
    over time steps only; ``forward`` is its one-sequence call. Under
    ``engine.no_grad()`` neither keeps the per-step BPTT cache."""

    def __init__(self, name: str, input_dim: int, hidden_dim: int,
                 rng: np.random.Generator):
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.fwd = LstmDirection(f"{name}.fwd", input_dim, hidden_dim, rng)
        self.bwd = LstmDirection(f"{name}.bwd", input_dim, hidden_dim, rng)

    @property
    def output_dim(self) -> int:
        return 2 * self.hidden_dim

    def forward(self, seq: Var) -> Var:
        """Encode a (T, input_dim) sequence node; T must be >= 1."""
        xs = seq.value
        if xs.ndim != 2 or xs.shape[1] != self.input_dim:
            raise ValueError(f"expected (T, {self.input_dim}) sequence, got {xs.shape}")
        if xs.shape[0] == 0:
            raise ValueError("BiLstm requires a non-empty sequence; "
                             "substitute the auxiliary vector for empty prefixes")
        out, grad_in = self._run(xs[None], None)
        return Var(out[0], (seq,), lambda g: _accum(seq, grad_in(g[None])[0]))

    def encode(self, seqs: Var, lengths) -> Var:
        """Encode a padded (B, T, input_dim) batch node into (B, 2 * hidden):
        row b's sequence is its first ``lengths[b]`` steps, 1 <= lengths[b] <= T;
        what follows is padding and gets zero gradient."""
        xs = seqs.value
        lengths = np.asarray(lengths, dtype=np.intp)
        if xs.ndim != 3 or xs.shape[2] != self.input_dim:
            raise ValueError(f"expected (B, T, {self.input_dim}) batch, got {xs.shape}")
        if lengths.shape != xs.shape[:1] or xs.shape[1] == 0 \
                or lengths.min() < 1 or lengths.max() > xs.shape[1]:
            raise ValueError(f"lengths must be B values in [1, T] for a batch "
                             f"of shape {xs.shape}")
        out, grad_in = self._run(xs, lengths)
        return Var(out, (seqs,), lambda g: _accum(seqs, grad_in(g)))

    def _run(self, xs: np.ndarray, lengths: np.ndarray | None):
        """(B, 2h) outputs and the function mapping their gradient to the
        gradient of ``xs``. ``lengths`` None means every row spans all T."""
        B, T, _ = xs.shape
        if lengths is None or (lengths == T).all():
            order = None  # every row runs every step: no packing
            counts = [B] * T
            x_f = xs.transpose(1, 0, 2).reshape(T * B, -1)
            x_b = xs[:, ::-1].transpose(1, 0, 2).reshape(T * B, -1)
        else:
            order = np.argsort(-lengths, kind="stable")
            ls = lengths[order]
            steps = np.arange(T)[:, None]
            active = steps < ls  # (T, B), time-major like the packed rows
            counts = active.sum(axis=1).tolist()
            rows = np.broadcast_to(order, (T, B))[active]
            t_f = np.broadcast_to(steps, (T, B))[active]
            t_b = (ls - 1 - steps)[active]  # the backward direction reads reversed
            x_f, x_b = xs[rows, t_f], xs[rows, t_b]
        keep = engine.grad_enabled()
        h_f, cache_f = _run_direction(self.fwd, x_f, counts, keep)
        h_b, cache_b = _run_direction(self.bwd, x_b, counts, keep)
        out = np.concatenate([h_f, h_b], axis=1)
        if order is not None:
            out[order] = out.copy()

        def grad_in(g: np.ndarray) -> np.ndarray:
            if not keep:
                raise RuntimeError("this BiLstm node was built under no_grad "
                                   "and kept no backward cache")
            if order is not None:
                g = g[order]
            h = self.hidden_dim
            d_f = _backward_direction(self.fwd, cache_f, counts, g[:, :h])
            d_b = _backward_direction(self.bwd, cache_b, counts, g[:, h:])
            if order is None:
                dx = d_f.reshape(T, B, -1) + d_b.reshape(T, B, -1)[::-1]
                return dx.transpose(1, 0, 2)
            dx = np.zeros_like(xs)
            dx[rows, t_f] = d_f
            dx[rows, t_b] += d_b
            return dx

        return out, grad_in

    def params(self) -> list[Parameter]:
        return self.fwd.params() + self.bwd.params()
