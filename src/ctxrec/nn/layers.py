"""Trainable layers: embedding tables, dense layers, and bidirectional LSTMs.

The BiLSTM registers as a single fused graph node: the forward pass caches
per-step activations and the backward pass runs truncated-free BPTT with the
gate matmuls batched over time.
"""

from __future__ import annotations

import numpy as np

from .engine import Parameter, Var, _accum, stable_sigmoid


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
        from . import engine
        return engine.lookup(self.weights, ids)

    def row(self, idx: int) -> Var:
        return self.lookup(int(idx))

    def params(self) -> list[Parameter]:
        return [self.weights]


def prefix_input(table: EmbeddingTable, aux: Parameter, prefix_items,
                 max_len: int) -> Var:
    """The (T, dim) sequence a prefix encoder reads: the embedding rows of
    the last ``max_len`` items, or the learnable ``aux`` vector as a sequence
    of length one when the prefix is empty."""
    from . import engine
    prefix = list(prefix_items)[-max_len:]
    if not prefix:
        return engine.as_row_matrix(aux)
    return table.lookup(np.asarray(prefix, dtype=np.intp))


class DenseLayer:
    """Affine layer y = W x + b with uniform(+-1/sqrt(in_dim)) init."""

    def __init__(self, name: str, in_dim: int, out_dim: int, rng: np.random.Generator):
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.weight = Parameter(f"{name}.weight", uniform_init(rng, (out_dim, in_dim), in_dim))
        self.bias = Parameter(f"{name}.bias", np.zeros(out_dim))

    def __call__(self, x: Var) -> Var:
        from . import engine
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

    def params(self) -> list[Parameter]:
        return [self.w_in, self.w_rec, self.bias]


def _run_direction(d: LstmDirection, xs: np.ndarray):
    """Run one direction over xs (T, input_dim); returns final hidden + cache."""
    T = xs.shape[0]
    h = d.hidden_dim
    z_in = xs @ d.w_in.value.T + d.bias.value  # (T, 4h), input matmul batched
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


def _backward_direction(d: LstmDirection, cache, dh_final: np.ndarray) -> np.ndarray:
    """BPTT for one direction; accumulates parameter grads, returns d(inputs)."""
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


class BiLstm:
    """Bidirectional LSTM summarizing a sequence as the concatenation of the
    two directions' final hidden states (output dim = 2 * hidden_dim)."""

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
        h = self.hidden_dim
        h_f, cache_f = _run_direction(self.fwd, xs)
        h_b, cache_b = _run_direction(self.bwd, xs[::-1])
        out = np.concatenate([h_f, h_b])

        def bwd(g):
            dx = _backward_direction(self.fwd, cache_f, g[:h])
            dx = dx + _backward_direction(self.bwd, cache_b, g[h:])[::-1]
            _accum(seq, dx)

        return Var(out, (seq,), bwd)

    def run(self, xs: np.ndarray) -> np.ndarray:
        """Inference-only encoding of a raw (T, input_dim) array."""
        return self.forward(Var(xs)).value

    def params(self) -> list[Parameter]:
        return self.fwd.params() + self.bwd.params()
