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
  encoded as shared per-user sources or as one row per session.
- ``test_fc2_softmax_xent``: the next-item output layer and its softmax
  cross-entropy over a 256-row batch, forward and backward, at the pinned
  vocabulary (V = 200) and at 10 V.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ctxrec.nn import engine  # noqa: E402
from ctxrec.nn.layers import BiLstm, DenseLayer, window_sources  # noqa: E402

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
    engine.backward(engine.vsum(lstm.encode(*args)))


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
    own = [range(u * SESSIONS, (u + 1) * SESSIONS) for u in users]
    if layout == "shared":
        ids, valid, lengths, src, ends = window_sources(users, own, stops, MAX_SEQ_LEN)
    else:  # every session's history its own source
        ids, valid, lengths, _, _ = window_sources(np.arange(len(users)), own, stops,
                                                   MAX_SEQ_LEN)
        src = ends = None
    x = np.zeros(ids.shape + (FEAT_DIM,))
    x[valid] = features[ids[valid]]
    return engine.constant(x), lengths, src, ends


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
        engine.backward(engine.softmax_cross_entropy(fc2(x), targets)[0])

    benchmark(step)
