"""Trainable layers: embedding tables, dense layers, and bidirectional LSTMs.

The BiLSTM registers a whole padded batch of sequences as a single fused
graph node: the forward pass loops over time steps with every sequence of
the batch in each step's matmul and caches per-step activations; the
backward pass runs truncation-free BPTT the same way, batched over the rows.
Output rows read prefixes of shared source sequences (``window_sources``
groups them): the forward direction runs once per source and keeps its
state after every step, so a row reads the state after its own last step
and BPTT seeds a gradient at each such step; the backward direction runs
once per row over the row's reversed prefix.
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

    def params(self) -> list[Parameter]:
        return [self.weights]


def window_sources(flat, offsets, stops, max_len: int):
    """Group rows that each read a window of a sequence into the shared
    sources ``BiLstm.encode`` takes. The sequences lie end to end in the int
    array ``flat``: row b reads the last ``max_len`` ids of
    ``flat[offsets[b]:offsets[b] + stops[b]]``. Rows whose windows start at
    the same place of ``flat`` read one source, which runs to the furthest of
    their stops, and every empty window reads one shared source of length
    one whose slot holds no id. Sources are ordered by where they start, the
    empty one first.

    Returns ``(ids, valid, lengths, src, ends)``: source s holds the ids
    ``ids[s][valid[s]]`` over its ``lengths[s]`` steps, and row b is the
    first ``ends[b]`` steps of source ``src[b]``."""
    if len(stops) == 1:
        # one row is one source, built directly: a served request would
        # otherwise spend more on the grouping (np.unique alone takes ~10 us)
        # than on its lookup
        stop, offset = int(stops[0]), int(offsets[0])
        ids = (flat[offset + max(stop - max_len, 0):offset + stop] if stop > 0
               else np.zeros(1, dtype=np.intp))[None]
        lengths = np.array([ids.shape[1]], dtype=np.intp)
        return (ids, np.full(ids.shape, stop > 0), lengths, np.zeros(1, dtype=np.intp),
                lengths)
    stops = np.asarray(stops, dtype=np.intp)
    starts = np.asarray(offsets, dtype=np.intp) + np.maximum(stops - max_len, 0)
    _, first, src = np.unique(np.where(stops > 0, starts, -1), return_index=True,
                              return_inverse=True)
    ends = np.minimum(stops, max_len)
    ends[stops == 0] = 1
    lengths = np.zeros(len(first), dtype=np.intp)
    np.maximum.at(lengths, src, ends)
    valid = np.arange(int(lengths.max())) < lengths[:, None]
    valid[stops[first] == 0, 0] = False
    ids = np.zeros(valid.shape, dtype=np.intp)
    ids[valid] = flat[(starts[first, None] + np.arange(valid.shape[1]))[valid]]
    return ids, valid, lengths, src, ends


def prefix_sources(table: EmbeddingTable, aux: Parameter, flat, offsets, stops,
                   max_len: int) -> tuple[Var, np.ndarray, np.ndarray, np.ndarray]:
    """``BiLstm.encode``'s arguments for the item prefixes
    ``flat[offsets[b]:offsets[b] + stops[b]]`` (grouped by
    ``window_sources``): the padded (S, T, dim) node of source embedding
    rows, where the empty-prefix source holds the learnable ``aux`` vector,
    then lengths, src and ends. Padding slots hold id 0, so they read table
    row 0; ``encode`` never reads a step past a source's length."""
    ids, valid, lengths, src, ends = window_sources(flat, offsets, stops, max_len)
    if ids.min() < 0 or ids.max() >= table.rows:
        raise IndexError(f"lookup index out of range for table "
                         f"{table.weights.name} with {table.rows} rows")
    empty = ~valid[:, 0]
    x = table.weights.value[ids]
    x[empty, 0] = aux.value

    def bwd(g):
        engine.scatter_add(table.weights.grad, ids[valid], g[valid])
        aux.grad += g[empty, 0].sum(axis=0)

    return Var(x, (), bwd), lengths, src, ends


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
    """One direction's fused-gate parameters, gate row order [i, f, g, o];
    the forget gate's bias starts at 1."""

    def __init__(self, name: str, input_dim: int, hidden_dim: int,
                 rng: np.random.Generator):
        h = hidden_dim
        self.input_dim = input_dim
        self.hidden_dim = h
        self.w_in = Parameter(f"{name}.w_in", uniform_init(rng, (4 * h, input_dim), input_dim))
        self.w_rec = Parameter(f"{name}.w_rec", uniform_init(rng, (4 * h, h), h))
        bias = np.zeros(4 * h)
        bias[h:2 * h] = 1.0
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
    (longest sequences first, so ``counts`` never grows). Returns the hidden
    state after every packed step, (len(xs), h), and the BPTT cache when
    ``keep``, else None."""
    h = d.hidden_dim
    # the input matmul batched over all steps; each step then turns its rows
    # into that step's gate activations in place
    ACT = xs @ d.w_in.value.T + d.bias.value
    H = np.empty((len(xs), h))
    C = np.empty((len(xs), h))
    TC = np.empty((len(xs), h))
    w_rec_t = d.w_rec.value.T
    hs = cs = np.zeros((counts[0], h))
    off = 0
    for n in counts:
        rows = slice(off, off + n)
        # all four gates [i, f, g, o] from one tanh: sigmoid(x) = (1 + tanh(x/2)) / 2
        act = ACT[rows]
        act += hs[:n] @ w_rec_t
        act *= d.gate_scale
        np.tanh(act, out=act)
        act *= d.gate_scale
        act += d.gate_shift
        c = np.multiply(act[:, h:2 * h], cs[:n], out=C[rows])
        c += act[:, :h] * act[:, 2 * h:3 * h]
        hs = np.multiply(act[:, 3 * h:], np.tanh(c, out=TC[rows]), out=H[rows])
        cs = c
        off += n
    if not keep:
        return H, None
    # step t of a row continues its step t-1, counts[t-1] packed elements back
    k = np.asarray(counts)
    prev = np.arange(k[0], len(xs)) - np.repeat(k[:-1], k[1:])
    start = np.zeros((counts[0], h))
    return H, (xs, np.concatenate([start, H[prev]]), np.concatenate([start, C[prev]]),
               ACT, TC)


def _backward_direction(d: LstmDirection, cache, counts: list[int],
                        dH: np.ndarray) -> np.ndarray:
    """BPTT for one direction, batched over rows, from ``dH``, the loss
    gradient of the hidden state after every packed step (zero where no
    output reads it); accumulates parameter grads and returns d(gate
    pre-activations), whose product with ``w_in`` is d(packed inputs)."""
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
    dZ = np.empty((len(xs), 4 * h))
    dZ_gates = dZ.reshape(len(xs), 4, h)
    dh = np.zeros((counts[0], h))
    dc = np.zeros_like(dh)
    w_rec = d.w_rec.value
    off = len(xs)
    for n in reversed(counts):
        off -= n
        rows = slice(off, off + n)
        dh[:n] += dH[rows]
        dcn = dh[:n] * dc_dh[rows]
        dcn += dc[:n]
        np.multiply(partner[rows, :3], dcn[:, None], out=dZ_gates[rows, :3])
        np.multiply(partner[rows, 3], dh[:n], out=dZ_gates[rows, 3])
        np.matmul(dZ[rows], w_rec, out=dh[:n])
        np.multiply(dcn, f[rows], out=dc[:n])
    d.w_in.grad += dZ.T @ xs
    d.w_rec.grad += dZ.T @ H_prev
    d.bias.grad += dZ.sum(axis=0)
    return dZ


def _packing(lengths: np.ndarray):
    """Time-major packing of rows with ``lengths`` (each >= 1), longest
    first: step t covers the first ``counts[t]`` rows in that order, so
    ``counts`` never grows. Packed element k is step ``steps[k]`` of row
    ``rows[k]``, and step t of row r is element ``offsets[t] + rank[r]``."""
    order = np.argsort(-lengths, kind="stable")
    ls = lengths[order]
    t = np.arange(ls[0])[:, None]
    active = t < ls  # (T, B), time-major like the packed rows
    counts = active.sum(axis=1)
    rows = np.broadcast_to(order, active.shape)[active]
    steps = np.broadcast_to(t, active.shape)[active]
    offsets = np.concatenate(([0], np.cumsum(counts)))
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return counts.tolist(), rows, steps, offsets, rank


class BiLstm:
    """Bidirectional LSTM summarizing a sequence as the concatenation of the
    two directions' final hidden states (output dim = 2 * hidden_dim).

    ``encode`` runs a padded batch of source sequences as one graph node,
    looping over time steps only. Each output row reads a prefix of one
    source: the forward direction runs once per source and the row takes its
    state after the prefix's last step, while the backward direction runs
    once per row over the reversed prefix. The models call ``encode`` for
    training, batch scoring and serving alike: a served request is a batch
    of one row, which reads all of its one source. ``forward`` encodes one
    (T, input_dim) sequence the same way. Under ``engine.no_grad()``
    neither keeps the per-step BPTT cache."""

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
        out, grad_in = self._run(xs[None], np.array([xs.shape[0]]), None, None)
        return Var(out[0], (seq,), lambda g: _accum(seq, grad_in(g[None])[0]))

    def encode(self, seqs: Var | np.ndarray, lengths, src=None, ends=None) -> Var:
        """Encode prefixes of a padded (S, T, input_dim) batch of source
        sequences into (B, 2 * hidden): source s is its first ``lengths[s]``
        steps, 1 <= lengths[s] <= T, and what follows is padding with zero
        gradient. Output row b encodes the first ``ends[b]`` steps of source
        ``src[b]``, 1 <= ends[b] <= lengths[src[b]]; by default row s is all
        of source s. A batch node receives its gradient in the backward pass;
        a plain array is data, so the pass fills only the parameter
        gradients and skips the input gradient's products and scatters."""
        data = not isinstance(seqs, Var)
        xs = np.asarray(seqs, dtype=np.float64) if data else seqs.value
        lengths = np.asarray(lengths, dtype=np.intp)
        if xs.ndim != 3 or xs.shape[2] != self.input_dim:
            raise ValueError(f"expected (B, T, {self.input_dim}) batch, got {xs.shape}")
        if lengths.shape != xs.shape[:1] or xs.shape[1] == 0 \
                or lengths.min() < 1 or lengths.max() > xs.shape[1]:
            raise ValueError(f"lengths must be B values in [1, T] for a batch "
                             f"of shape {xs.shape}")
        if (src is None) != (ends is None):
            raise ValueError("src and ends must be given together")
        if src is not None:
            src = np.asarray(src, dtype=np.intp)
            ends = np.asarray(ends, dtype=np.intp)
            if src.ndim != 1 or ends.shape != src.shape or not len(src) \
                    or src.min() < 0 or src.max() >= len(lengths):
                raise ValueError(f"src must be a non-empty list of source ids in "
                                 f"[0, {len(lengths)}) with one end each")
            if ends.min() < 1 or (ends > lengths[src]).any():
                raise ValueError("ends must lie in [1, lengths[src]]")
        out, grad_in = self._run(xs, lengths, src, ends, input_grad=not data)
        if data:
            return Var(out, (), grad_in)
        return Var(out, (seqs,), lambda g: _accum(seqs, grad_in(g)))

    def _run(self, xs: np.ndarray, lengths: np.ndarray, src: np.ndarray | None,
             ends: np.ndarray | None, input_grad: bool = True):
        """(B, 2h) outputs, row b the first ``ends[b]`` steps of source
        ``src[b]`` (with ``src`` None, row s is all of source s), and the
        function that accumulates the parameter gradients from their
        gradient and returns the gradient of ``xs`` (None unless
        ``input_grad``)."""
        S, T, _ = xs.shape
        transposed = src is None and (lengths == T).all()
        if transposed:
            # every row runs every step of its own source: the packing is
            # the (T, S) transpose and needs no gather. The general packing
            # lays such rows out in the same order, so it gives the same bits
            # when a caller spells them out with src and ends.
            counts_f = counts_b = [S] * T
            x_f = xs.transpose(1, 0, 2).reshape(T * S, -1)
            x_b = xs[:, ::-1].transpose(1, 0, 2).reshape(T * S, -1)
            out_f = out_b = slice((T - 1) * S, T * S)
        else:
            if src is None:
                src, ends = np.arange(S), lengths
            counts_f, rows_f, steps_f, offsets, rank = _packing(lengths)
            out_f = offsets[ends - 1] + rank[src]
            counts_b, rows_b, steps_b, offsets, rank = _packing(ends)
            out_b = offsets[ends - 1] + rank
            src_b = src[rows_b]
            t_b = ends[rows_b] - 1 - steps_b  # the backward direction reads reversed
            x_f, x_b = xs[rows_f, steps_f], xs[src_b, t_b]
        keep = engine.grad_enabled()
        H_f, cache_f = _run_direction(self.fwd, x_f, counts_f, keep)
        H_b, cache_b = _run_direction(self.bwd, x_b, counts_b, keep)
        out = np.concatenate([H_f[out_f], H_b[out_b]], axis=1)

        def grad_in(g: np.ndarray) -> np.ndarray:
            if not keep:
                raise RuntimeError("this BiLstm node was built under no_grad "
                                   "and kept no backward cache")
            h = self.hidden_dim
            dH_f = np.zeros_like(H_f)
            np.add.at(dH_f, out_f, g[:, :h])  # rows may read one (source, end)
            dH_b = np.zeros_like(H_b)
            dH_b[out_b] = g[:, h:]
            dZ_f = _backward_direction(self.fwd, cache_f, counts_f, dH_f)
            dZ_b = _backward_direction(self.bwd, cache_b, counts_b, dH_b)
            if not input_grad:
                return None
            d_f = dZ_f @ self.fwd.w_in.value
            d_b = dZ_b @ self.bwd.w_in.value
            if transposed:
                dx = d_f.reshape(T, S, -1) + d_b.reshape(T, S, -1)[::-1]
                return dx.transpose(1, 0, 2)
            dx = np.zeros(xs.shape)
            dx[rows_f, steps_f] = d_f
            # a (source, step) cell read by one row takes its backward-direction
            # gradient by a plain scatter; only the cells that several rows read
            # sum theirs, in packed order (engine.sum_rows)
            flat = dx.reshape(S * T, -1)
            cells = src_b * T + t_b
            shared = np.bincount(cells, minlength=S * T) > 1
            several = shared[cells]
            lone = ~several
            flat[cells[lone]] += d_b[lone]
            if several.any():
                slot = np.cumsum(shared) - 1  # a shared cell's row in the sum
                flat[shared] += engine.sum_rows(slot[cells[several]], d_b[several],
                                                int(slot[-1]) + 1)
            return dx

        return out, grad_in

    def params(self) -> list[Parameter]:
        return self.fwd.params() + self.bwd.params()
