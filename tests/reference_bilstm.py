"""The masked (B, T) BiLSTM kernel that the prefix-state kernel replaced,
kept as the differential oracle for it.

``_run_direction``, ``_backward_direction`` and ``bilstm_run`` (the old
``BiLstm._run``, with ``self`` the ``BiLstm``) are copied unchanged: every
row is its own sequence, and the backward sweep seeds only each row's final
hidden state.
"""

from __future__ import annotations

import numpy as np

from ctxrec.nn import engine
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
