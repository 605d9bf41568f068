"""Session-item bipartite multigraph and an inductive neighborhood encoder.

The graph has one session node per session with at least one train-visible
interaction, one item node per vocabulary item, and one edge per interaction
occurrence (repeats create parallel edges). The encoder is a two-layer mean
aggregator with L2-normalized layer outputs, trained unsupervised: each edge
(session, item) is pushed together against degree^0.75-sampled negative
items. Every session node shares one base feature vector, so an item's
first-layer output depends on the item alone and only the session side
needs second-hop sampling. A training batch is a GraphSAGE node-set
minibatch (Hamilton et al. 2017, Alg. 2): it draws its neighbor samples
(with replacement) first, computes the first layer once per node, and takes
every neighbor mean as a sparse averaging-matrix product. The first layer is
folded through the session side's neighbor mean (see ``_layer1_pre``), and
the batch loss is one autodiff node whose backward pass is written out.
Embeddings that feed clustering come from the deterministic
full-neighborhood forward pass, so an unseen session with the same item
multiset embeds identically.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from .corpus import SplitCorpus, TAGS, TEST
from .nn import engine
from .nn.engine import Parameter
from .nn.layers import DenseLayer
from .nn.optim import adam_stepper


@dataclass
class BipartiteMultigraph:
    num_items: int
    session_ids: np.ndarray        # corpus session id per session node
    edges: np.ndarray              # (E, 2) rows (session_node, item_id)
    # CSR adjacency, one entry per edge occurrence
    session_adj: np.ndarray = field(init=False)
    session_off: np.ndarray = field(init=False)
    item_adj: np.ndarray = field(init=False)
    item_off: np.ndarray = field(init=False)

    def __post_init__(self):
        s = self.num_session_nodes
        s_counts = np.bincount(self.edges[:, 0], minlength=s)
        i_counts = np.bincount(self.edges[:, 1], minlength=self.num_items)
        self.session_off = np.concatenate([[0], np.cumsum(s_counts)]).astype(np.intp)
        self.item_off = np.concatenate([[0], np.cumsum(i_counts)]).astype(np.intp)
        order_s = np.argsort(self.edges[:, 0], kind="stable")
        order_i = np.argsort(self.edges[:, 1], kind="stable")
        self.session_adj = self.edges[order_s, 1].astype(np.intp)
        self.item_adj = self.edges[order_i, 0].astype(np.intp)

    @property
    def num_session_nodes(self) -> int:
        return len(self.session_ids)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def session_items(self, node: int) -> np.ndarray:
        """Item neighbor multiset of a session node."""
        return self.session_adj[self.session_off[node]:self.session_off[node + 1]]

    def known(self, items: np.ndarray) -> np.ndarray:
        """Per item id, whether it is a vocabulary item with an edge."""
        items = np.asarray(items, dtype=np.intp)
        inside = (items >= 0) & (items < self.num_items)
        known = np.zeros(len(items), dtype=bool)
        known[inside] = np.diff(self.item_off)[items[inside]] > 0
        return known

    @functools.cached_property
    def session_mean(self) -> sparse.csr_matrix:
        """Averages each session node's full item neighbourhood."""
        return _mean_matrix(self.session_adj, self.session_off, self.num_items)

    @functools.cached_property
    def item_mean(self) -> sparse.csr_matrix:
        """Averages each item node's full session neighbourhood."""
        return _mean_matrix(self.item_adj, self.item_off, self.num_session_nodes)


def build_graph(session_of: np.ndarray, item_of: np.ndarray,
                num_items: int) -> BipartiteMultigraph:
    """The multigraph with one edge per (session_of[e], item_of[e]) pair, so
    a session that repeats an item contributes parallel edges.

    The session nodes are the distinct ids in ``session_of``, ascending;
    every vocabulary item gets a node whether or not it appears.
    """
    item_of = np.asarray(item_of, dtype=np.intp)
    bad = (item_of < 0) | (item_of >= num_items)
    if bad.any():
        raise ValueError(f"item id {item_of[bad][0]} out of range [0, {num_items})")
    session_ids, node = np.unique(np.asarray(session_of, dtype=np.intp), return_inverse=True)
    return BipartiteMultigraph(num_items=num_items, session_ids=session_ids,
                               edges=np.stack([node, item_of], axis=1))


def build_graph_from_corpus(corpus: SplitCorpus) -> BipartiteMultigraph:
    """Graph over train+val interactions only; test targets never become edges."""
    a = corpus.arrays
    visible = a.split != TAGS.index(TEST)
    return build_graph(a.session_of[visible], a.item_of[visible], corpus.num_items)


def _sample_neighbors(adj: np.ndarray, off: np.ndarray, nodes: np.ndarray,
                      fanout: int, rng: np.random.Generator) -> np.ndarray:
    """(len(nodes), fanout) neighbor draw with replacement; degrees must be > 0."""
    deg = off[nodes + 1] - off[nodes]
    r = rng.random((len(nodes), fanout))
    idx = off[nodes, None] + np.floor(r * deg[:, None]).astype(np.intp)
    return adj[idx]


class SageEncoder:
    """Two-layer mean-aggregation encoder over the bipartite multigraph."""

    def __init__(self, num_items: int, base_dim: int = 64, out_dim: int = 64,
                 fanout: tuple[int, int] = (10, 10),
                 rng: np.random.Generator | None = None):
        rng = rng or np.random.default_rng(0)
        self.num_items = num_items
        self.base_dim = base_dim
        self.out_dim = out_dim
        self.fanout = fanout
        self.item_feat = Parameter("graph.item_feat",
                                   rng.normal(0.0, 0.1, size=(num_items, base_dim)))
        self.session_feat = Parameter("graph.session_feat",
                                      rng.normal(0.0, 0.1, size=base_dim))
        self.layer1 = DenseLayer("graph.layer1", 2 * base_dim, out_dim, rng)
        self.layer2 = DenseLayer("graph.layer2", 2 * out_dim, out_dim, rng)

    def params(self) -> list[Parameter]:
        return ([self.item_feat, self.session_feat]
                + self.layer1.params() + self.layer2.params())

    # -- deterministic full-neighborhood forward (plain numpy) ---------------

    def _item_h1(self) -> np.ndarray:
        # every session node shares one base feature, so the neighbor mean of
        # any item is exactly that vector
        tiles = np.broadcast_to(self.session_feat.value,
                                (self.num_items, self.base_dim))
        return _l2n(np.maximum(_dense(self.layer1, self.item_feat.value, tiles), 0.0))

    def embed_rows(self, items: np.ndarray, off: np.ndarray) -> np.ndarray:
        """(len(off) - 1, out_dim) embeddings of the sessions whose item
        multisets are the runs ``items[off[r]:off[r + 1]]``; no run may be empty.

        Each run is aggregated in ascending item order, so identical multisets
        embed bitwise identically however they are ordered, and row r does
        not depend on the other rows: every mean adds its items in the order
        ``F[sorted].mean(axis=0)`` does, and every session-side layer is one
        stacked one-row product.
        """
        items = np.asarray(items, dtype=np.intp)
        off = np.asarray(off, dtype=np.intp)
        counts = np.diff(off)[:, None]
        row = np.repeat(np.arange(len(counts)), counts[:, 0])
        items = items[np.lexsort((items, row))]
        total = sparse.csr_matrix((np.ones(len(items)), items, off),
                                  shape=(len(counts), self.num_items))
        feat_mean = (total @ self.item_feat.value) / counts
        h1_neigh = (total @ self._item_h1()) / counts
        own = np.broadcast_to(self.session_feat.value, (len(counts), 1, self.base_dim))
        h1_self = _l2n(np.maximum(_dense(self.layer1, own, feat_mean[:, None]), 0.0))
        return _l2n(_dense(self.layer2, h1_self, h1_neigh[:, None]))[:, 0]

    def embed_new_session(self, graph: BipartiteMultigraph,
                          items: list[int]) -> np.ndarray:
        """Inductive embedding for an unseen item list; the graph is unchanged.

        Items outside the training vocabulary (unknown id or degree zero) are
        dropped with a warning; an empty or fully-unseen list is an error.
        """
        if len(items) == 0:
            raise ValueError("cannot embed an empty item list")
        items = np.asarray(items, dtype=np.intp)
        known = items[graph.known(items)]
        if len(known) < len(items):
            warnings.warn(f"dropping {len(items) - len(known)} item(s) outside "
                          "the training vocabulary")
        if not len(known):
            raise ValueError("all items are outside the training vocabulary")
        return self.embed_rows(known, [0, len(known)])[0]

    def embed_all_sessions(self, graph: BipartiteMultigraph) -> np.ndarray:
        """(num_session_nodes, out_dim) deterministic embeddings.

        Runs ``embed_rows`` as ``embed_new_session`` does, so a stored row
        matches an inductive call on its items bit for bit.
        """
        return self.embed_rows(graph.session_adj, graph.session_off)

    def embed_corpus(self, graph: BipartiteMultigraph,
                     corpus: SplitCorpus) -> tuple[np.ndarray, np.ndarray]:
        """Every corpus session's embedding row and whether it could be embedded.

        Graph sessions embed in full, the rest (test-only) inductively from
        their items in the training vocabulary, all in one ``embed_rows``
        call; one warning counts the items dropped. A session with no
        in-vocabulary item keeps a zero row."""
        a = corpus.arrays
        new = ~np.isin(a.session_of, graph.session_ids)
        keep = graph.known(a.item_of[new])
        if not keep.all():
            warnings.warn(f"dropping {len(keep) - keep.sum()} item(s) of test-only "
                          "sessions outside the training vocabulary")
        session_of = np.concatenate([graph.session_ids[graph.edges[:, 0]],
                                     a.session_of[new][keep]])
        items = np.concatenate([graph.edges[:, 1], a.item_of[new][keep]])
        counts = np.bincount(session_of, minlength=corpus.num_sessions)
        embeddable = counts > 0
        embeddings = np.zeros((corpus.num_sessions, self.out_dim))
        embeddings[embeddable] = self.embed_rows(
            items[np.argsort(session_of, kind="stable")],
            np.concatenate([[0], np.cumsum(counts[embeddable])]))
        return embeddings, embeddable


def _l2n(x: np.ndarray, eps: float = 1e-12) -> np.ndarray:
    norms = np.maximum(np.linalg.norm(x, axis=-1, keepdims=True), eps)
    return x / norms


def _dense(layer: DenseLayer, self_part: np.ndarray,
           neigh_part: np.ndarray) -> np.ndarray:
    """The layer's affine map of [self_part ; neigh_part] along the last axis."""
    x = np.concatenate([self_part, neigh_part], axis=-1)
    return x @ layer.weight.value.T + layer.bias.value


def _mean_matrix(cols: np.ndarray, off: np.ndarray, num_cols: int) -> sparse.csr_matrix:
    """CSR matrix whose row r averages rows cols[off[r]:off[r+1]] of its operand."""
    deg = np.diff(off)
    data = np.repeat(1.0 / np.maximum(deg, 1), deg)
    return sparse.csr_matrix((data, cols, off), shape=(len(off) - 1, num_cols))


# -- training loss: layer 1 folded through the neighbor mean ----------------
#
# Layer 1 is linear before its ReLU. With W1 = [W1a | W1b] split by input
# half, a session row's pre-activation W1 [s ; mean F[I]] + b1 equals
# mean((F W1b^T)[I]) + (W1a s + b1), so the dense layer runs once over the
# vocabulary instead of once per sampled row. An item node's is
# F[i] W1a^T + (W1b s + b1), since every session shares the feature s.

def _layer1_pre(encoder: SageEncoder, items: np.ndarray | slice,
                mean: sparse.csr_matrix) -> tuple[np.ndarray, np.ndarray]:
    """Layer-1 pre-activations of the item nodes ``items`` and of the
    session rows whose item means ``mean`` takes over the vocabulary."""
    w_self, w_neigh = np.split(encoder.layer1.weight.value, 2, axis=1)
    s, b = encoder.session_feat.value, encoder.layer1.bias.value
    feat = encoder.item_feat.value
    return (feat[items] @ w_self.T + (w_neigh @ s + b),
            mean @ (feat @ w_neigh.T) + (w_self @ s + b))


def _relu_l2n(pre: np.ndarray, eps: float = 1e-12):
    """ReLU then row L2 normalization (norm clamped at eps), and its backward."""
    h = np.maximum(pre, 0.0)
    norms = np.sqrt(np.einsum("ij,ij->i", h, h))[:, None]
    clamped = np.maximum(norms, eps)
    y = h / clamped

    def bwd(dy: np.ndarray) -> np.ndarray:
        dh = dy - y * np.einsum("ij,ij->i", dy, y)[:, None]
        free = norms > eps
        if not free.all():  # a clamped row takes no projection term
            dh = np.where(free, dh, dy)
        return dh * ((pre > 0) / clamped)

    return y, bwd


def _edge_scores(z_s: np.ndarray, z_i: np.ndarray, sess_rows: np.ndarray,
                 item_rows: np.ndarray):
    """Each item slot's session row, sign and signed logit. The slots are the
    b edges' items, then their negatives row-major; ``sess_rows`` holds the b
    edges' rows of ``z_s``, ``item_rows`` every slot's row of ``z_i``. The
    loss is the sum of softplus(-score) over b."""
    b = len(sess_rows)
    k = len(item_rows) // b - 1
    pair = np.concatenate([sess_rows, np.repeat(sess_rows, k)])
    sign = np.repeat([1.0, -1.0], [b, b * k])
    return pair, sign, sign * np.einsum("ij,ij->i", z_s[pair], z_i[item_rows])


def _edge_loss_sampled(encoder: SageEncoder, graph: BipartiteMultigraph,
                       edges: np.ndarray, negatives: np.ndarray,
                       rng: np.random.Generator) -> engine.Var:
    """Mean negative-sampling loss of a batch of edges and their negatives, as
    one node whose backward is written out. The edge loss sees the
    unnormalized second-layer output: normalizing first caps the logit at
    +-1 and the loss saturates before the item features spread; every
    exported embedding is still L2-normalized."""
    f1, f2 = encoder.fanout
    uniq_s, inv_s = np.unique(edges[:, 0], return_inverse=True)
    uniq_i, inv_i = np.unique(np.concatenate([edges[:, 1], negatives.reshape(-1)]),
                              return_inverse=True)
    own = _sample_neighbors(graph.session_adj, graph.session_off, uniq_s, f2, rng)
    hop = _sample_neighbors(graph.session_adj, graph.session_off, uniq_s, f1, rng)
    sess = _sample_neighbors(graph.item_adj, graph.item_off, uniq_i, f1, rng)
    sess_items = _sample_neighbors(graph.session_adj, graph.session_off,
                                   sess.reshape(-1), f2, rng)

    # layer 1 once per node: the batch's and the hop items, then the batch
    # sessions followed by the session draws of the batch items
    nodes, col = np.unique(np.concatenate([uniq_i, hop.reshape(-1)]),
                           return_inverse=True)
    drawn = np.concatenate([own, sess_items]).reshape(-1)
    mean = _mean_matrix(drawn, np.arange(0, drawn.size + 1, f2), encoder.num_items)
    item_pre, sess_pre = _layer1_pre(encoder, nodes, mean)
    item_h1, item_bwd = _relu_l2n(item_pre)
    sess_h1, sess_bwd = _relu_l2n(sess_pre)
    n_s, n_i, o = len(uniq_s), len(uniq_i), encoder.out_dim
    hop_mean = _mean_matrix(col[n_i:], np.arange(0, hop.size + 1, f1), len(nodes))
    x_s = np.concatenate([sess_h1[:n_s], hop_mean @ item_h1], axis=1)
    x_i = np.concatenate([item_h1[col[:n_i]],
                          sess_h1[n_s:].reshape(n_i, f1, o).mean(axis=1)], axis=1)
    w2, b2 = encoder.layer2.weight.value, encoder.layer2.bias.value
    z_s, z_i = x_s @ w2.T + b2, x_i @ w2.T + b2
    pair, sign, score = _edge_scores(z_s, z_i, inv_s, inv_i)
    b = len(edges)

    def bwd(g):
        # d loss / d(z_s[pair] . z_i[inv_i]) per item slot
        d_dot = (-g / b) * sign * engine.stable_sigmoid(-score)
        d_pairs = sparse.coo_matrix((d_dot, (pair, inv_i)), shape=(n_s, n_i))
        dz_s, dz_i = d_pairs @ z_i, d_pairs.T @ z_s
        encoder.layer2.weight.grad += dz_s.T @ x_s + dz_i.T @ x_i
        encoder.layer2.bias.grad += dz_s.sum(axis=0) + dz_i.sum(axis=0)
        dx_s, dx_i = dz_s @ w2, dz_i @ w2
        d_item_h1 = hop_mean.T @ dx_s[:, o:]
        d_item_h1[col[:n_i]] += dx_i[:, :o]  # the batch items are distinct nodes
        d_item = item_bwd(d_item_h1)
        d_sess = sess_bwd(np.concatenate(
            [dx_s[:, :o], np.repeat(dx_i[:, o:] / f1, f1, axis=0)]))

        d = encoder.base_dim
        w1 = encoder.layer1.weight
        w_self, w_neigh = np.split(w1.value, 2, axis=1)
        s, feat = encoder.session_feat.value, encoder.item_feat.value
        c_item, c_sess = d_item.sum(axis=0), d_sess.sum(axis=0)
        d_proj = mean.T @ d_sess  # gradient of F W1b^T, one row per item
        w1.grad[:, :d] += d_item.T @ feat[nodes] + np.outer(c_sess, s)
        w1.grad[:, d:] += d_proj.T @ feat + np.outer(c_item, s)
        encoder.layer1.bias.grad += c_item + c_sess
        encoder.session_feat.grad += c_item @ w_neigh + c_sess @ w_self
        encoder.item_feat.grad += d_proj @ w_neigh
        encoder.item_feat.grad[nodes] += d_item @ w_self

    return engine.Var(np.logaddexp(0.0, -score).sum() / b, (), bwd)


def _edge_loss_det(encoder: SageEncoder, graph: BipartiteMultigraph,
                   edges: np.ndarray, negatives: np.ndarray) -> float:
    """Holdout loss, full neighborhoods and fixed negatives, pre-normalization."""
    item_pre, sess_pre = _layer1_pre(encoder, slice(None), graph.session_mean)
    item_h1, sess_h1 = _relu_l2n(item_pre)[0], _relu_l2n(sess_pre)[0]
    z_s = _dense(encoder.layer2, sess_h1, graph.session_mean @ item_h1)
    # item-side second layer: neighbor sessions' full h1
    z_i = _dense(encoder.layer2, item_h1, graph.item_mean @ sess_h1)
    score = _edge_scores(z_s, z_i, edges[:, 0],
                         np.concatenate([edges[:, 1], negatives.reshape(-1)]))[2]
    return float(np.logaddexp(0.0, -score).sum() / len(edges))


def negative_sampling_weights(graph: BipartiteMultigraph) -> np.ndarray:
    """Each item's negative-sampling probability: its degree to the 3/4 power."""
    deg = (graph.item_off[1:] - graph.item_off[:-1]).astype(np.float64)
    w = deg ** 0.75
    total = w.sum()
    if total <= 0:
        raise ValueError("graph has no edges to sample negatives from")
    return w / total


def train_encoder(graph: BipartiteMultigraph, base_dim: int = 64,
                  out_dim: int = 64, epochs: int = 10, batch_size: int = 512,
                  fanout: tuple[int, int] = (10, 10), num_negatives: int = 5,
                  lr: float = 0.001, clip_norm: float = 5.0,
                  seed: int = 0) -> tuple[SageEncoder, dict]:
    """Unsupervised encoder training; returns the encoder and loss history.

    history["holdout_loss"][0] is the pre-training loss on the held-out 5%
    edge sample (or on all edges when the graph is too small to hold any out).
    """
    if graph.num_edges == 0:
        raise ValueError("cannot train on a graph with zero edges")
    rng = np.random.default_rng(seed)
    encoder = SageEncoder(graph.num_items, base_dim, out_dim, fanout, rng)
    weights = negative_sampling_weights(graph)

    n_hold = int(round(0.05 * graph.num_edges))
    if graph.num_edges - n_hold < 1:
        n_hold = 0
    perm = rng.permutation(graph.num_edges)
    train_idx = perm[n_hold:]
    hold_edges = graph.edges[perm[:n_hold]] if n_hold else graph.edges
    hold_negs = rng.choice(graph.num_items, size=(len(hold_edges), num_negatives),
                           p=weights)

    step = adam_stepper(encoder.params(), lr, clip_norm, "graph")
    history = {"holdout_loss": [_edge_loss_det(encoder, graph, hold_edges, hold_negs)],
               "train_loss": []}
    for _ in range(epochs):
        order = rng.permutation(len(train_idx))
        epoch_loss = 0.0
        for start in range(0, len(order), batch_size):
            batch = graph.edges[train_idx[order[start:start + batch_size]]]
            negs = rng.choice(graph.num_items,
                              size=(len(batch), num_negatives), p=weights)
            loss = _edge_loss_sampled(encoder, graph, batch, negs, rng)
            step(loss)
            epoch_loss += float(loss.value) * len(batch)
        history["train_loss"].append(epoch_loss / max(len(train_idx), 1))
        history["holdout_loss"].append(_edge_loss_det(encoder, graph, hold_edges, hold_negs))
    return encoder, history


def export_embeddings_csv(path, corpus: SplitCorpus, embeddings: np.ndarray) -> None:
    """CSV with header session_id,split,c0..c{d-1} covering every session."""
    dim = embeddings.shape[1]
    tags = np.array(TAGS)[corpus.session_split_codes()].tolist()
    with open(path, "w") as fh:
        fh.write("session_id,split," + ",".join(f"c{k}" for k in range(dim)) + "\n")
        for sid, tag in enumerate(tags):
            row = ",".join(repr(float(v)) for v in embeddings[sid])
            fh.write(f"{sid},{tag},{row}\n")
