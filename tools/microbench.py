"""Layer microbenchmarks, kept outside tier-1 (pytest-benchmark).

    PYTHONPATH=src python -m pytest -q tools/microbench.py
    PYTHONPATH=src python -m pytest -q tools/microbench.py --benchmark-disable

The second form runs every benchmark once as a plain test, so the file
cannot rot. Pin BLAS to one thread (``OPENBLAS_NUM_THREADS=1``), as the
benchmark and CI do. Shapes use the acceptance dims (``ACC_CFG`` in
``tests/test_acceptance.py``): hidden 16, item and user dims 32, context
dim 16 with top-3 contexts, and 35-wide session features (32-dim embedding
plus 3 metadata columns).

- ``test_bilstm_own_rows``: the BiLSTM over 64 own-source rows of mixed
  lengths up to T in {1, 5, 50}, forward and backward (``train``) or
  forward under ``no_grad`` (``infer``).
- ``test_history_batch``: the ``pinned`` workload's history batch, 12 users
  with 40 sessions each. Every session's history is the window of its
  user's earlier session-feature rows (a zero row for a first session),
  encoded as shared per-user sources or as one row per session. The batch
  is a plain array, as the context predictor passes it, so ``train``
  computes the parameter gradients only.
- ``test_fc2_softmax_xent``: the next-item output layer and its softmax
  cross-entropy over a 256-row batch, forward and backward, at the pinned
  vocabulary (V = 200) and at 10 V.
- ``test_encoder_step``: one graph-encoder training step (batch loss,
  backward, clipping and Adam) on the ``pinned`` graph (``SynthSpec()`` cut
  to 12 users) with base and output dim 32, fanout (10, 10), 512 edges and
  5 negatives each. ``fused`` is ``graph._edge_loss_sampled``,
  ``reference`` the per-hop-row oracle in ``tests/reference_graph.py``, and
  ``interleaved`` runs one step of each per round, alternating which goes
  first, and records both medians in ``extra_info``: separate runs on a
  shared host can differ by more than the gap between two versions.
- ``test_lloyd``: ``cluster._lloyd`` on 480 random 32-dim points (the
  ``pinned`` session count) with 8 contexts, for 1 and for 10 iterations.
  Both include the k-means++ seeding and the final assignment pass, so one
  Lloyd iteration costs the difference over 9.
- ``test_embed_corpus``: ``SageEncoder.embed_corpus`` on the ``pinned``
  corpus and graph (480 sessions, of which about 50 are test-only and
  embed from their items) at output dim 32: the embed stage's one
  ``embed_rows`` call.
- ``test_label_all``: ``cluster.label_all`` of those 480 rows under an
  8-context fit of the graph sessions: the contextualize stage's labeling
  of every session outside the fit.
- ``test_context_topk``: the top-3 context ids and probabilities that
  ``pipeline.load_context_topk`` derives from the stored probability
  matrix, at 1,200 interactions (about the ``pinned`` corpus) by 8 and by
  20 contexts.
- ``test_ranking``: ``metrics.ranks_of_truth`` over a 1,024-row score
  matrix (one evaluation batch) at V = 200 and 10 V.
- ``test_train_step``: one next-item training step on the ``pinned``
  corpus at the acceptance dims (B = 256, V = 200, top-3 of 8 contexts):
  batch loss, backward, gradient clipping and Adam, as ``fit`` runs it.
- ``test_prefix_family``: the item BiLSTM over one next-item batch's
  prefixes (256 training examples), built by ``prefix_sources`` as
  ``nextitem`` builds them, so the prefixes of one session share a source,
  forward and backward: the forward-state and input-gradient sums and the
  item table's scatter. ``pinned`` is that corpus; ``long`` is the
  benchmark's ``long-wide`` spec (6 users, 20 sessions of ~10 items over
  2,000 items). Several rows read about half of the (row, step) input
  cells on ``pinned`` and three quarters on ``long``.
- ``test_embedding_scatter``: a table gradient's scatter-add of 700 rows
  of width 32 into 200 rows (about one next-item batch's prefix slots into
  the item table), as ``engine.scatter_add`` sums it into a zero gradient
  (``sparse``) and as ``np.add.at`` does (``add_at``).
- ``test_serve_one_request``: one served request, as the benchmark's serving
  loop makes it: ``ContextPredictor.predict_probs`` on a 20-session history,
  its top-3 contexts, then ``NextItemModel.predict_probs`` at V = 200, for
  an empty, a two-item and a 60-item prefix (longer than ``max_seq_len``
  = 50). Both are one-row calls of the batched path, so this tracks its
  per-call overhead. ``first`` is a session's first request: the calls
  alternate two histories, so each one misses the context predictor's
  one-entry history memo and encodes its history. ``next`` is a later
  request of the session: every call repeats the history and reuses its
  encoding.
- ``test_generate``: ``synth.generate`` of the ``pinned`` log and label
  sidecar (``SynthSpec()`` cut to 12 users: 480 sessions, about 1,200
  interactions).
- ``test_ingest``: the ingest stage's work on that log: ``parse_log``,
  ``build_corpus`` (user filter, sessionization, split) and
  ``save_corpus``.
- ``test_load_corpus``: ``load_corpus`` of the ``corpus.npz`` that
  ingest writes for it, which every later stage and the serving set-up
  read.
"""

from __future__ import annotations

import itertools
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import reference_graph  # noqa: E402
from ctxrec import cluster, graph, metrics, nextitem, predictor  # noqa: E402
from ctxrec.corpus import TRAIN, build_corpus, load_corpus, parse_log, save_corpus  # noqa: E402
from ctxrec.nn import engine  # noqa: E402
from ctxrec.nn.layers import (BiLstm, DenseLayer, EmbeddingTable, prefix_sources,  # noqa: E402
                              window_sources)
from ctxrec.nn.optim import adam_stepper  # noqa: E402
from ctxrec.synth import SynthSpec, generate  # noqa: E402

HIDDEN = 16
ITEM_DIM = 32
FEAT_DIM = 35
USERS, SESSIONS = 12, 40
MAX_SEQ_LEN = 50
FC2_IN = 3 * 16 + 2 * HIDDEN + 32


def _encode(lstm: BiLstm, mode: str, *args) -> None:
    if mode == "infer":
        with engine.no_grad():
            lstm.encode(*args)
        return
    for p in lstm.params():
        p.zero_grad()
    engine.backward(reference_graph.vsum(lstm.encode(*args)))


@pytest.mark.parametrize("mode", ["train", "infer"])
@pytest.mark.parametrize("T", [1, 5, 50])
def test_bilstm_own_rows(benchmark, T, mode):
    rng = np.random.default_rng(T)
    lstm = BiLstm("mb", ITEM_DIM, HIDDEN, rng)
    lengths = rng.integers(1, T + 1, size=64)
    lengths[0] = T
    seqs = engine.constant(rng.normal(size=(64, T, ITEM_DIM)))
    benchmark(_encode, lstm, mode, seqs, lengths)


def _history_inputs(layout: str):
    rng = np.random.default_rng(0)
    features = rng.normal(size=(USERS * SESSIONS, FEAT_DIM))
    users = np.repeat(np.arange(USERS), SESSIONS)
    stops = np.tile(np.arange(SESSIONS), USERS)
    if layout == "shared":  # each user's session ids once, end to end
        ids, valid, lengths, src, ends = window_sources(
            np.arange(USERS * SESSIONS), users * SESSIONS, stops, MAX_SEQ_LEN)
    else:  # every session's history its own source: a copy of its user's ids each
        flat = np.concatenate([np.arange(u * SESSIONS, (u + 1) * SESSIONS) for u in users])
        ids, valid, lengths, _, _ = window_sources(
            flat, np.arange(len(users)) * SESSIONS, stops, MAX_SEQ_LEN)
        src = ends = None
    x = np.zeros(ids.shape + (FEAT_DIM,))
    x[valid] = features[ids[valid]]
    return x, lengths, src, ends


@pytest.mark.parametrize("mode", ["train", "infer"])
@pytest.mark.parametrize("layout", ["shared", "per-row"])
def test_history_batch(benchmark, layout, mode):
    lstm = BiLstm("mb.long", FEAT_DIM, HIDDEN, np.random.default_rng(1))
    benchmark(_encode, lstm, mode, *_history_inputs(layout))


@pytest.mark.parametrize("vocab", [200, 2000], ids=["V", "10V"])
def test_fc2_softmax_xent(benchmark, vocab):
    rng = np.random.default_rng(2)
    fc2 = DenseLayer("mb.fc2", FC2_IN, vocab, rng)
    x = engine.constant(rng.normal(size=(256, FC2_IN)))
    targets = rng.integers(0, vocab, size=256)

    def step():
        for p in fc2.params():
            p.zero_grad()
        engine.backward(engine.softmax_cross_entropy(fc2(x), targets))

    benchmark(step)


@pytest.fixture(scope="module")
def pinned_log(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("pinned")
    generate(SynthSpec(num_users=USERS), tmp / "log.csv", tmp / "labels.json")
    return tmp / "log.csv"


@pytest.fixture(scope="module")
def pinned_corpus(pinned_log):
    return build_corpus(parse_log(pinned_log))


def test_generate(benchmark, tmp_path):
    benchmark(generate, SynthSpec(num_users=USERS), tmp_path / "log.csv",
              tmp_path / "labels.json")


def test_ingest(benchmark, pinned_log, tmp_path):
    benchmark(lambda: save_corpus(build_corpus(parse_log(pinned_log)),
                                  tmp_path / "corpus.npz"))


def test_load_corpus(benchmark, pinned_corpus, tmp_path):
    save_corpus(pinned_corpus, tmp_path / "corpus.npz")
    assert benchmark(load_corpus, tmp_path / "corpus.npz") == pinned_corpus


@pytest.fixture(scope="module")
def pinned_graph(pinned_corpus):
    return graph.build_graph_from_corpus(pinned_corpus)


def test_train_step(benchmark, pinned_corpus):
    corpus = pinned_corpus
    rng = np.random.default_rng(7)
    model = nextitem.NextItemModel(corpus.num_users, corpus.num_items, 8, user_dim=32,
                                   item_dim=ITEM_DIM, context_dim=16, hidden=HIDDEN,
                                   top_k=3, max_seq_len=MAX_SEQ_LEN, rng=rng)
    ctx_topk = np.sort(np.argsort(rng.random((corpus.num_interactions, 8)), axis=1)[:, :3],
                       axis=1)
    examples = nextitem.rank_rows(corpus, TRAIN)
    batch = examples[rng.permutation(len(examples))[:256]]
    step = adam_stepper(model.params(), 0.003, 5.0, "next-item")
    benchmark(lambda: step(nextitem.batch_loss(model, corpus, ctx_topk, batch)))


@pytest.fixture(scope="module")
def long_corpus(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("long")
    generate(SynthSpec(num_users=6, num_contexts=20, items_per_context=100,
                       sessions_per_user=20, mean_session_len=10), tmp / "log.csv")
    return build_corpus(parse_log(tmp / "log.csv"))


@pytest.mark.parametrize("corpus_name", ["pinned", "long"])
def test_prefix_family(benchmark, request, corpus_name):
    corpus = request.getfixturevalue(f"{corpus_name}_corpus")
    rng = np.random.default_rng(9)
    table = EmbeddingTable("mb.item_emb", corpus.num_items, ITEM_DIM, rng)
    aux = engine.Parameter("mb.aux", rng.normal(size=ITEM_DIM))
    lstm = BiLstm("mb.item_lstm", ITEM_DIM, HIDDEN, rng)
    examples = nextitem.rank_rows(corpus, TRAIN)
    _, _, sessions, positions, _ = examples[rng.permutation(len(examples))[:256]].T
    a = corpus.arrays
    params = [table.weights, aux] + lstm.params()

    def step():
        for p in params:
            p.zero_grad()
        engine.backward(reference_graph.vsum(lstm.encode(*prefix_sources(
            table, aux, a.item_of, a.session_start[sessions], positions, MAX_SEQ_LEN))))

    benchmark(step)


@pytest.mark.parametrize("impl", ["sparse", "add_at"])
def test_embedding_scatter(benchmark, impl):
    rng = np.random.default_rng(8)
    ids = rng.integers(0, 200, size=700)
    rows = rng.normal(size=(700, ITEM_DIM))
    grad = np.zeros((200, ITEM_DIM))
    scatter = engine.scatter_add if impl == "sparse" else np.add.at

    def run():
        grad[...] = 0.0
        scatter(grad, ids, rows)

    benchmark(run)


def _encoder_step(g, loss_fn):
    """One training step's closure: fixed batch, negatives and draws, so
    every call does the same work."""
    enc = graph.SageEncoder(g.num_items, 32, 32, (10, 10), np.random.default_rng(0))
    rng = np.random.default_rng(1)
    batch = g.edges[rng.permutation(g.num_edges)[:512]]
    negs = rng.choice(g.num_items, size=(len(batch), 5),
                      p=graph.negative_sampling_weights(g))
    step = adam_stepper(enc.params(), 0.003, 5.0, "graph")
    return lambda: step(loss_fn(enc, g, batch, negs, np.random.default_rng(2)))


@pytest.mark.parametrize("impl", ["fused", "reference", "interleaved"])
def test_encoder_step(benchmark, pinned_graph, impl):
    steps = {"fused": _encoder_step(pinned_graph, graph._edge_loss_sampled),
             "reference": _encoder_step(pinned_graph, reference_graph.batch_loss)}
    if impl != "interleaved":
        benchmark(steps[impl])
        return
    times = {name: [] for name in steps}

    def both():
        names = ["fused", "reference"]
        if len(times["fused"]) % 2:
            names.reverse()
        for name in names:
            t0 = time.perf_counter()
            steps[name]()
            times[name].append(time.perf_counter() - t0)

    benchmark(both)
    benchmark.extra_info.update(
        {f"{name}_median_ms": 1e3 * float(np.median(t)) for name, t in times.items()})


@pytest.mark.parametrize("iters", [1, 10])
def test_lloyd(benchmark, iters):
    points = np.random.default_rng(3).normal(size=(USERS * SESSIONS, 32))
    _, _, history = benchmark(cluster._lloyd, points, 8, iters, np.random.default_rng(4))
    assert len(history) == iters  # no early convergence: every iteration ran


@pytest.fixture(scope="module")
def pinned_encoder(pinned_graph):
    return graph.SageEncoder(pinned_graph.num_items, 32, 32, rng=np.random.default_rng(6))


def test_embed_corpus(benchmark, pinned_corpus, pinned_graph, pinned_encoder):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # items of test-only sessions outside the graph
        _, embeddable = benchmark(pinned_encoder.embed_corpus, pinned_graph, pinned_corpus)
    assert embeddable.sum() > pinned_graph.num_session_nodes


def test_label_all(benchmark, pinned_corpus, pinned_graph, pinned_encoder):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        embeddings, embeddable = pinned_encoder.embed_corpus(pinned_graph, pinned_corpus)
        model = cluster.kmeans_fit(embeddings[pinned_graph.session_ids], 8, seed=7,
                                   session_ids=pinned_graph.session_ids)
        labels = benchmark(cluster.label_all, model, embeddings, embeddable)
    assert (labels[embeddable] >= 0).all()


@pytest.mark.parametrize("contexts", [8, 20])
def test_context_topk(benchmark, contexts):
    probs = np.random.default_rng(7).dirichlet(np.ones(contexts), size=1200)

    def topk():
        ids = predictor.top_k_rows(probs, 3)
        return ids, np.take_along_axis(probs, ids, axis=1)

    ids, top = benchmark(topk)
    assert ids.shape == top.shape == (1200, 3)


@pytest.mark.parametrize("vocab", [200, 2000], ids=["V", "10V"])
def test_ranking(benchmark, vocab):
    rng = np.random.default_rng(5)
    scores = rng.random((1024, vocab))
    benchmark(metrics.ranks_of_truth, scores, rng.integers(0, vocab, size=1024))


@pytest.mark.parametrize("prefix", ["empty", "short", "long"])
@pytest.mark.parametrize("request_kind", ["first", "next"])
def test_serve_one_request(benchmark, request_kind, prefix):
    rng = np.random.default_rng(6)
    ctx = predictor.ContextPredictor(USERS, 200, 8, FEAT_DIM, user_dim=32,
                                     item_dim=ITEM_DIM, hidden=HIDDEN,
                                     max_seq_len=MAX_SEQ_LEN, rng=rng)
    nxt = nextitem.NextItemModel(USERS, 200, 8, user_dim=32, item_dim=ITEM_DIM,
                                 context_dim=16, hidden=HIDDEN, top_k=3,
                                 max_seq_len=MAX_SEQ_LEN, rng=rng)
    items = {"empty": [], "short": [3, 17],
             "long": rng.integers(0, 200, size=MAX_SEQ_LEN + 10).tolist()}[prefix]
    histories = [rng.normal(size=(SESSIONS // 2, FEAT_DIM))
                 for _ in range(2 if request_kind == "first" else 1)]
    turns = itertools.cycle(histories)

    def serve():
        ids = predictor.top_k_contexts(ctx.predict_probs(0, items, next(turns)), 3)
        return nxt.predict_probs(0, items, ids)

    probs = benchmark(serve)
    assert probs.shape == (200,)
