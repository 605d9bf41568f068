"""The graph encoder's sampled training path as it stood before the node-set
minibatch, kept as the differential oracle for the fused batch loss
(``graph._edge_loss_sampled``) that now replaces both.

``session_z``, ``item_z``, ``phi1_var``, ``phi2_raw_var`` and
``edge_loss_det`` are copied unchanged apart from being module functions
(``self`` became ``enc``) and calling the local operators. ``mean_axis``,
``relu``, ``logsigmoid``, ``l2_normalize_rows``, ``broadcast_param``,
``dot_last``, ``vsum``, ``scale``, ``add`` and ``add_n`` are the removed
``engine`` operators of the same names, which the tests also build graphs
from. ``train_encoder`` is the trainer of that time; the batch loss it
assembled inline is ``batch_loss``, moved out unchanged so one step can be
compared. ``embed_session`` is the removed ``SageEncoder.embed_session``,
the full-neighborhood embedding of one graph session.

``phi1``, ``phi2_raw``, ``phi2``, ``item_h1``, ``embed_from_items``,
``embed_new_session``, ``embed_all_sessions`` and ``embed_corpus`` are the
per-session embedding path that ``SageEncoder.embed_rows`` replaced, copied
unchanged apart from being module functions (``self`` became ``enc``) and
reading an item's degree from ``graph.item_off``. They are the oracle for
the batched path at tolerance 0.
"""

import warnings

import numpy as np

from ctxrec.corpus import SplitCorpus
from ctxrec.graph import (
    BipartiteMultigraph,
    SageEncoder,
    _sample_neighbors,
    negative_sampling_weights,
)
from ctxrec.nn import engine
from ctxrec.nn.engine import Parameter, Var, _accum
from ctxrec.nn.optim import adam_stepper


def mean_axis(x: Var, axis: int) -> Var:
    n = x.value.shape[axis]

    def bwd(g):
        _accum(x, np.broadcast_to(np.expand_dims(g / n, axis), x.value.shape))

    return Var(x.value.mean(axis=axis), (x,), bwd)


def relu(x: Var) -> Var:
    mask = x.value > 0

    def bwd(g):
        _accum(x, g * mask)

    return Var(np.where(mask, x.value, 0.0), (x,), bwd)


def logsigmoid(x: Var) -> Var:
    y = -np.logaddexp(0.0, -x.value)

    def bwd(g):
        _accum(x, g * engine.stable_sigmoid(-x.value))

    return Var(y, (x,), bwd)


def l2_normalize_rows(x: Var, eps: float = 1e-12) -> Var:
    """Normalize along the last axis to unit L2 norm (norm clamped at eps)."""
    norms = np.linalg.norm(x.value, axis=-1, keepdims=True)
    clamped = np.maximum(norms, eps)
    y = x.value / clamped
    free = norms > eps  # where the clamp is inactive the projection term applies

    def bwd(g):
        proj = (g * y).sum(axis=-1, keepdims=True)
        _accum(x, np.where(free, (g - y * proj) / clamped, g / clamped))

    return Var(y, (x,), bwd)


def broadcast_param(param: Parameter, lead_shape: tuple) -> Var:
    """A (d,) parameter broadcast to lead_shape + (d,)."""
    out = Var(np.broadcast_to(param.value, tuple(lead_shape) + param.value.shape))

    def bwd(g):
        param.grad += g.reshape(-1, param.value.shape[0]).sum(axis=0)

    out.bwd = bwd
    return out


def dot_last(a: Var, b: Var) -> Var:
    out = (a.value * b.value).sum(axis=-1)

    def bwd(g):
        ge = np.expand_dims(g, -1)
        _accum(a, ge * b.value)
        _accum(b, ge * a.value)

    return Var(out, (a, b), bwd)


def vsum(x: Var) -> Var:
    def bwd(g):
        _accum(x, np.broadcast_to(g, x.value.shape))

    return Var(x.value.sum(), (x,), bwd)


def scale(x: Var, factor: float) -> Var:
    def bwd(g):
        _accum(x, g * factor)

    return Var(x.value * factor, (x,), bwd)


def add(a: Var, b: Var) -> Var:
    def bwd(g):
        _accum(a, g)
        _accum(b, g)

    return Var(a.value + b.value, (a, b), bwd)


def add_n(parts: list[Var], weights: list[float] | None = None) -> Var:
    """Weighted sum of scalar nodes (batch-loss assembly)."""
    w = weights if weights is not None else [1.0] * len(parts)
    total = sum(float(p.value) * wi for p, wi in zip(parts, w))

    def bwd(g):
        for p, wi in zip(parts, w):
            _accum(p, g * wi)

    return Var(np.asarray(total), tuple(parts), bwd)


def embed_session(enc: SageEncoder, graph: BipartiteMultigraph,
                  session_id: int) -> np.ndarray:
    """Deterministic full-neighborhood embedding of a training session."""
    node = int(np.searchsorted(graph.session_ids, session_id))
    if node == graph.num_session_nodes or graph.session_ids[node] != session_id:
        raise ValueError(f"session {session_id} has no node in the graph")
    items = graph.session_items(node)
    if len(items) == 0:
        raise ValueError(f"session {session_id} is isolated")
    return embed_from_items(enc, items, item_h1(enc))


def _l2n(x: np.ndarray, eps: float = 1e-12) -> np.ndarray:
    norms = np.maximum(np.linalg.norm(x, axis=-1, keepdims=True), eps)
    return x / norms


def phi1(enc: SageEncoder, self_feat: np.ndarray, neigh_mean: np.ndarray) -> np.ndarray:
    x = np.concatenate([self_feat, neigh_mean], axis=-1)
    h = x @ enc.layer1.weight.value.T + enc.layer1.bias.value
    h = np.maximum(h, 0.0)
    return _l2n(h)


def phi2_raw(enc: SageEncoder, h1_self: np.ndarray, h1_neigh_mean: np.ndarray) -> np.ndarray:
    x = np.concatenate([h1_self, h1_neigh_mean], axis=-1)
    return x @ enc.layer2.weight.value.T + enc.layer2.bias.value


def phi2(enc: SageEncoder, h1_self: np.ndarray, h1_neigh_mean: np.ndarray) -> np.ndarray:
    return _l2n(phi2_raw(enc, h1_self, h1_neigh_mean))


def item_h1(enc: SageEncoder) -> np.ndarray:
    # every session node shares one base feature, so the neighbor mean of
    # any item is exactly that vector
    tiles = np.broadcast_to(enc.session_feat.value,
                            (enc.num_items, enc.base_dim))
    return phi1(enc, enc.item_feat.value, tiles)


def embed_from_items(enc: SageEncoder, items: np.ndarray, item_h1: np.ndarray) -> np.ndarray:
    # canonical (sorted) aggregation order so identical multisets embed
    # bitwise identically regardless of how the caller ordered them
    items = np.sort(np.asarray(items, dtype=np.intp))
    feat_mean = enc.item_feat.value[items].mean(axis=0)
    h1_self = phi1(enc, enc.session_feat.value, feat_mean)
    h1_neigh = item_h1[items].mean(axis=0)
    return phi2(enc, h1_self, h1_neigh)


def embed_new_session(enc: SageEncoder, graph: BipartiteMultigraph,
                      items: list[int]) -> np.ndarray:
    """Inductive embedding for an unseen item list; the graph is unchanged.

    Items outside the training vocabulary (unknown id or degree zero) are
    dropped with a warning; an empty or fully-unseen list is an error.
    """
    if len(items) == 0:
        raise ValueError("cannot embed an empty item list")
    known = [i for i in items
             if 0 <= i < graph.num_items and graph.item_off[i + 1] > graph.item_off[i]]
    if len(known) < len(items):
        warnings.warn(f"dropping {len(items) - len(known)} item(s) outside "
                      "the training vocabulary")
    if not known:
        raise ValueError("all items are outside the training vocabulary")
    return embed_from_items(enc, np.asarray(known, dtype=np.intp), item_h1(enc))


def embed_all_sessions(enc: SageEncoder, graph: BipartiteMultigraph) -> np.ndarray:
    """(num_session_nodes, out_dim) deterministic embeddings.

    Uses the same per-session aggregation path as ``embed_new_session``,
    so a stored row matches an inductive call on its items bit for bit.
    """
    h1 = item_h1(enc)
    out = np.empty((graph.num_session_nodes, enc.out_dim))
    for node in range(graph.num_session_nodes):
        out[node] = embed_from_items(enc, graph.session_items(node), h1)
    return out


def embed_corpus(enc: SageEncoder, graph: BipartiteMultigraph,
                 corpus: SplitCorpus) -> tuple[np.ndarray, np.ndarray]:
    """Every corpus session's embedding row and whether it could be embedded.

    Graph sessions embed in full, the rest (test-only) inductively from all
    their items. A session with no in-vocabulary item keeps a zero row."""
    embeddings = np.zeros((corpus.num_sessions, enc.out_dim))
    embeddable = np.zeros(corpus.num_sessions, dtype=bool)
    embeddings[graph.session_ids] = embed_all_sessions(enc, graph)
    embeddable[graph.session_ids] = True
    a = corpus.arrays
    for sid in np.flatnonzero(~embeddable).tolist():
        first = a.session_start[sid]
        try:
            embeddings[sid] = embed_new_session(
                enc, graph, a.item_of[first:first + a.session_length[sid]].tolist())
            embeddable[sid] = True
        except ValueError:
            pass
    return embeddings, embeddable


def session_z(enc: SageEncoder, graph: BipartiteMultigraph, nodes: np.ndarray,
              rng: np.random.Generator) -> engine.Var:
    """Sampled session embeddings, pre-normalization (training loss side)."""
    f1, f2 = enc.fanout
    own = _sample_neighbors(graph.session_adj, graph.session_off, nodes, f2, rng)
    own_mean = mean_axis(engine.lookup(enc.item_feat, own), 1)
    self_feat = broadcast_param(enc.session_feat, (len(nodes),))
    h1_self = phi1_var(enc, engine.concat([self_feat, own_mean]))

    hop = _sample_neighbors(graph.session_adj, graph.session_off, nodes, f1, rng)
    hop_feat = engine.lookup(enc.item_feat, hop)      # (N, f1, b)
    hop_tile = broadcast_param(enc.session_feat, hop.shape)
    h1_items = phi1_var(enc, engine.concat([hop_feat, hop_tile]))
    return phi2_raw_var(enc, h1_self, mean_axis(h1_items, 1))


def item_z(enc: SageEncoder, graph: BipartiteMultigraph, items: np.ndarray,
           rng: np.random.Generator) -> engine.Var:
    f1, f2 = enc.fanout
    self_feat = engine.lookup(enc.item_feat, items)
    tiles = broadcast_param(enc.session_feat, (len(items),))
    h1_self = phi1_var(enc, engine.concat([self_feat, tiles]))

    sess = _sample_neighbors(graph.item_adj, graph.item_off, items, f1, rng)
    sess_items = _sample_neighbors(graph.session_adj, graph.session_off,
                                   sess.reshape(-1), f2, rng).reshape(len(items), f1, f2)
    neigh_mean = mean_axis(engine.lookup(enc.item_feat, sess_items), 2)
    sess_tile = broadcast_param(enc.session_feat, sess.shape)
    h1_sess = phi1_var(enc, engine.concat([sess_tile, neigh_mean]))
    return phi2_raw_var(enc, h1_self, mean_axis(h1_sess, 1))


def phi1_var(enc: SageEncoder, x: engine.Var) -> engine.Var:
    return l2_normalize_rows(relu(enc.layer1(x)))


def phi2_raw_var(enc: SageEncoder, h1_self: engine.Var, h1_neigh: engine.Var) -> engine.Var:
    return enc.layer2(engine.concat([h1_self, h1_neigh]))


def edge_loss_det(encoder: SageEncoder, graph: BipartiteMultigraph,
                  edges: np.ndarray, negatives: np.ndarray) -> float:
    """Holdout loss under deterministic full neighborhoods, fixed negatives.

    Computed on the same pre-normalization outputs the training loss sees.
    """
    h1_items = item_h1(encoder)
    n = graph.num_session_nodes
    feat_sum = np.zeros((n, encoder.base_dim))
    h1_sum = np.zeros((n, encoder.out_dim))
    np.add.at(feat_sum, graph.edges[:, 0], encoder.item_feat.value[graph.edges[:, 1]])
    np.add.at(h1_sum, graph.edges[:, 0], h1_items[graph.edges[:, 1]])
    deg_s = np.maximum((graph.session_off[1:] - graph.session_off[:-1]), 1)[:, None]
    h1_sess = phi1(
        encoder,
        np.broadcast_to(encoder.session_feat.value, (n, encoder.base_dim)),
        feat_sum / deg_s)
    z_s_all = phi2_raw(encoder, h1_sess, h1_sum / deg_s)
    # item-side second layer: neighbor sessions' full h1
    h1_sess_sum = np.zeros((graph.num_items, encoder.out_dim))
    np.add.at(h1_sess_sum, graph.edges[:, 1], h1_sess[graph.edges[:, 0]])
    deg_i = np.maximum((graph.item_off[1:] - graph.item_off[:-1]), 1)[:, None]
    z_i_all = phi2_raw(encoder, h1_items, h1_sess_sum / deg_i)

    z_s = z_s_all[edges[:, 0]]
    pos = (z_s * z_i_all[edges[:, 1]]).sum(axis=1)
    neg = (z_s[:, None, :] * z_i_all[negatives]).sum(axis=2)
    loss = -(np.log(engine.stable_sigmoid(pos) + 1e-300).sum()
             + np.log(engine.stable_sigmoid(-neg) + 1e-300).sum())
    return float(loss / len(edges))


def batch_loss(encoder: SageEncoder, graph: BipartiteMultigraph,
               batch: np.ndarray, negs: np.ndarray,
               rng: np.random.Generator) -> engine.Var:
    """The edge loss ``train_encoder`` assembled inline for one batch."""
    num_negatives = negs.shape[1]
    uniq_s, inv_s = np.unique(batch[:, 0], return_inverse=True)
    all_items = np.concatenate([batch[:, 1], negs.reshape(-1)])
    uniq_i, inv_i = np.unique(all_items, return_inverse=True)

    z_s = session_z(encoder, graph, uniq_s, rng)
    z_i = item_z(encoder, graph, uniq_i, rng)
    b = len(batch)
    z_s_pos = engine.index_rows(z_s, inv_s)
    z_pos = engine.index_rows(z_i, inv_i[:b])
    pos_term = vsum(logsigmoid(dot_last(z_s_pos, z_pos)))
    z_s_rep = engine.index_rows(z_s, np.repeat(inv_s, num_negatives))
    z_neg = engine.index_rows(z_i, inv_i[b:])
    neg_score = scale(dot_last(z_s_rep, z_neg), -1.0)
    neg_term = vsum(logsigmoid(neg_score))
    return scale(add(pos_term, neg_term), -1.0 / b)


def train_encoder(graph: BipartiteMultigraph, base_dim: int = 64,
                  out_dim: int = 64, epochs: int = 10, batch_size: int = 512,
                  fanout: tuple[int, int] = (10, 10), num_negatives: int = 5,
                  lr: float = 0.001, clip_norm: float = 5.0,
                  holdout_frac: float = 0.05,
                  seed: int = 0) -> tuple[SageEncoder, dict]:
    if graph.num_edges == 0:
        raise ValueError("cannot train on a graph with zero edges")
    rng = np.random.default_rng(seed)
    encoder = SageEncoder(graph.num_items, base_dim, out_dim, fanout, rng)
    weights = negative_sampling_weights(graph)

    n_hold = int(round(holdout_frac * graph.num_edges))
    if graph.num_edges - n_hold < 1:
        n_hold = 0
    perm = rng.permutation(graph.num_edges)
    hold_idx = perm[:n_hold]
    train_idx = perm[n_hold:]
    hold_edges = graph.edges[hold_idx] if n_hold else graph.edges
    hold_negs = rng.choice(graph.num_items, size=(len(hold_edges), num_negatives),
                           p=weights)

    step = adam_stepper(encoder.params(), lr, clip_norm, "graph")
    history = {"holdout_loss": [edge_loss_det(encoder, graph, hold_edges, hold_negs)],
               "train_loss": []}
    for _ in range(epochs):
        order = rng.permutation(len(train_idx))
        epoch_loss = 0.0
        for start in range(0, len(order), batch_size):
            batch = graph.edges[train_idx[order[start:start + batch_size]]]
            negs = rng.choice(graph.num_items,
                              size=(len(batch), num_negatives), p=weights)
            loss = batch_loss(encoder, graph, batch, negs, rng)
            step(loss)
            epoch_loss += float(loss.value) * len(batch)
        history["train_loss"].append(epoch_loss / max(len(train_idx), 1))
        history["holdout_loss"].append(edge_loss_det(encoder, graph, hold_edges, hold_negs))
    return encoder, history
