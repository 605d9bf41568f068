"""The masked (B, T) BiLSTM kernel that the prefix-state kernel replaced,
kept as the differential oracle for it, and the prefix-state kernel's
grouping and input-gradient sum as they were before both lost their loops.

``_run_direction``, ``_backward_direction`` and ``bilstm_run`` (the old
``BiLstm._run``, with ``self`` the ``BiLstm``) are copied unchanged: every
row is its own sequence, and the backward sweep seeds only each row's final
hidden state.

``window_sources`` is the per-source loop over ``(keys, seqs)`` that the
flat-array ``layers.window_sources`` replaced, and ``prefix_state_run`` the
``BiLstm._run`` whose input gradient summed every (source, step) cell as
one CSR product whenever a source had several readers; both are copied
unchanged, except that ``prefix_state_run`` multiplies the gate gradients
``layers._backward_direction`` returns by ``w_in`` itself, the product that
function used to return.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from ctxrec.nn import engine
from ctxrec.nn import layers
from ctxrec.nn.layers import LstmDirection


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


def bilstm_run(self, xs: np.ndarray, lengths: np.ndarray | None):
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


def window_sources(keys, seqs, stops, max_len: int):
    """Group rows that each read a window of a sequence into the shared
    sources ``BiLstm.encode`` takes. Row b reads the last ``max_len`` ids of
    ``seqs[b][:stops[b]]``; rows with one key (a non-negative int) read one
    sequence. Rows whose windows start at the same place of one sequence read
    one source, which runs to the furthest of their stops, and every empty
    window reads one shared source of length one whose slot holds no id.

    Returns ``(ids, valid, lengths, src, ends)``: source s holds the ids
    ``ids[s][valid[s]]`` over its ``lengths[s]`` steps, and row b is the
    first ``ends[b]`` steps of source ``src[b]``."""
    if len(stops) == 1:
        # one row is one source, built directly: a served request would
        # otherwise spend more on the grouping (np.unique alone takes ~10 us)
        # than on its lookup
        stop = int(stops[0])
        ids = np.asarray(seqs[0][max(stop - max_len, 0):stop] if stop > 0 else [0],
                         dtype=np.intp)[None]
        lengths = np.array([ids.shape[1]], dtype=np.intp)
        return (ids, np.full(ids.shape, stop > 0), lengths, np.zeros(1, dtype=np.intp),
                lengths)
    stops = np.asarray(stops, dtype=np.intp)
    starts = np.maximum(stops - max_len, 0)
    group = np.where(stops > 0, np.asarray(keys, dtype=np.intp), -1) \
        * (int(starts.max()) + 1) + starts
    _, first, src = np.unique(group, return_index=True, return_inverse=True)
    ends = np.maximum(stops - starts, 1)
    lengths = np.zeros(len(first), dtype=np.intp)
    np.maximum.at(lengths, src, ends)
    ids = np.zeros((len(first), int(lengths.max())), dtype=np.intp)
    for s, b in enumerate(first.tolist()):
        start = starts[b]
        ids[s, :lengths[s]] = seqs[b][start:start + lengths[s]] if stops[b] else 0
    valid = np.arange(ids.shape[1]) < lengths[:, None]
    valid[stops[first] == 0, 0] = False
    return ids, valid, lengths, src, ends


def prefix_state_run(self, xs: np.ndarray, lengths: np.ndarray, src: np.ndarray | None,
                     ends: np.ndarray | None):
    """(B, 2h) outputs, row b the first ``ends[b]`` steps of source
    ``src[b]`` (with ``src`` None, row s is all of source s), and the
    function mapping their gradient to the gradient of ``xs``."""
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
        counts_f, rows_f, steps_f, offsets, rank = layers._packing(lengths)
        out_f = offsets[ends - 1] + rank[src]
        counts_b, rows_b, steps_b, offsets, rank = layers._packing(ends)
        out_b = offsets[ends - 1] + rank
        src_b = src[rows_b]
        t_b = ends[rows_b] - 1 - steps_b  # the backward direction reads reversed
        x_f, x_b = xs[rows_f, steps_f], xs[src_b, t_b]
    keep = engine.grad_enabled()
    H_f, cache_f = layers._run_direction(self.fwd, x_f, counts_f, keep)
    H_b, cache_b = layers._run_direction(self.bwd, x_b, counts_b, keep)
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
        d_f = layers._backward_direction(self.fwd, cache_f, counts_f, dH_f)
        d_b = layers._backward_direction(self.bwd, cache_b, counts_b, dH_b)
        d_f, d_b = d_f @ self.fwd.w_in.value, d_b @ self.bwd.w_in.value
        if transposed:
            dx = d_f.reshape(T, S, -1) + d_b.reshape(T, S, -1)[::-1]
            return dx.transpose(1, 0, 2)
        dx = np.zeros(xs.shape)
        dx[rows_f, steps_f] = d_f
        if np.bincount(src).max() == 1:  # each (source, step) has one reader
            dx[src_b, t_b] += d_b
            return dx
        # rows that read one source: sum their backward-direction gradients
        # per (source, step) as a sparse product, several times faster than
        # np.add.at here. Building the matrix costs a few tenths of a ms,
        # so sources with one reader take the plain scatter above.
        n = len(d_b)
        dx.reshape(S * T, -1)[...] += sparse.csr_matrix(
            (np.ones(n), (src_b * T + t_b, np.arange(n))), shape=(S * T, n)) @ d_b
        return dx

    return out, grad_in
