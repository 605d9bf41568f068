"""In-memory span tracer that wraps ctxrec's public functions from outside.

``instrument(tracer)`` replaces module attributes and class methods of the
imported ``ctxrec`` package with timing wrappers, in every namespace that
looks them up at call time, so no file under ``src/`` changes. Each span
records (name, start, end, parent); all spans of one run share the tracer's
trace id. Spans stay in memory until ``dump`` writes them out. Span times
are process CPU time, like the end-to-end timings.

Counts that are not times (BiLSTM steps, epochs, Lloyd iterations, forward
FLOPs computed from tensor shapes) are accumulated in ``tracer.counts``.
"""

from __future__ import annotations

import functools
import json
import time
import uuid
from pathlib import Path

import numpy as np

# Span names reported as per-layer metrics, in report order.
SPANS = [
    "nn.bilstm_forward", "nn.backward", "nn.dense", "nn.softmax_xent",
    "nn.lookup", "nn.adam_step", "nn.clip",
    "nn.checkpoint.save", "nn.checkpoint.load",
    "predictor.train_context", "predictor.evaluate_context_loss",
    "predictor.predict_all_prefixes", "predictor.predict_probs",
    "nextitem.train_next", "nextitem.compute_ranks", "nextitem.predict_probs",
    "graph.train_encoder", "graph.build_graph", "graph.embed_all_sessions",
    "graph.embed_new_session",
    "cluster.kmeans_fit", "cluster.label_all",
    "corpus.parse_log", "corpus.build_corpus", "corpus.load_corpus",
    "metrics.rank_of_truth", "metrics.t_test",
    "pipeline.ingest", "pipeline.embed", "pipeline.contextualize",
    "pipeline.train_context", "pipeline.train_next", "pipeline.ablate",
    "pipeline.load",
]

# Work counts reported beside the spans.
COUNTS = [
    "nn.bilstm_forward.steps", "nn.bilstm.gflop", "nn.dense.gflop",
    "predictor.epochs", "predictor.train_examples", "nextitem.epochs",
    "cluster.lloyd_iters",
]


class Tracer:
    def __init__(self):
        self.trace_id = uuid.uuid4().hex
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self._stack: list[int] = []
        self.counts: dict[str, float] = {c: 0 for c in COUNTS}

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.process_time())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.process_time()
        self._stack.pop()

    def add(self, counter: str, amount: float) -> None:
        self.counts[counter] += amount

    def arrays(self):
        start = np.asarray(self.start)
        dur = np.asarray(self.end) - start
        parent = np.asarray(self.parent, dtype=np.int64)
        name_id = np.asarray(self.name_id, dtype=np.int64)
        return name_id, start, dur, parent

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds (inclusive
        minus the time covered by direct child spans)."""
        name_id, _, dur, parent = self.arrays()
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        k = len(self.names)
        calls = np.bincount(name_id, minlength=k)
        incl = np.bincount(name_id, weights=dur, minlength=k)
        self_s = np.bincount(name_id, weights=dur - child, minlength=k)
        return {name: {"calls": int(calls[i]), "s": float(incl[i]),
                       "self_s": float(self_s[i])}
                for i, name in enumerate(self.names)}

    def child_calls(self, parent_name: str, child_name: str) -> int:
        """Spans named ``child_name`` nested anywhere under ``parent_name``."""
        if parent_name not in self._name_ids or child_name not in self._name_ids:
            return 0
        pid, cid = self._name_ids[parent_name], self._name_ids[child_name]
        name_id, _, _, parent = self.arrays()
        under = np.zeros(len(name_id), dtype=bool)
        for i in range(len(name_id)):  # parents always precede children
            p = parent[i]
            under[i] = p >= 0 and (name_id[p] == pid or under[p])
        return int((under & (name_id == cid)).sum())

    def dump(self, path: Path) -> None:
        """Write every span (name id, start, duration, parent) as .npz plus
        the name table and trace id."""
        name_id, start, dur, parent = self.arrays()
        t0 = start.min() if len(start) else 0.0
        np.savez_compressed(path, name_id=name_id, start_s=start - t0,
                            duration_s=dur, parent=parent,
                            names=np.asarray(self.names),
                            trace_id=np.asarray(self.trace_id))


def _span(tracer: Tracer, name: str, fn, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if after is not None:
            after(out, *args, **kwargs)
        return out
    return wrapper


def _patch(tracer: Tracer, name: str, owners: list, attr: str, after=None) -> None:
    """Wrap ``owner.attr`` once and install the wrapper in every owner, so
    names imported with ``from x import y`` are covered too."""
    wrapped = _span(tracer, name, getattr(owners[0], attr), after)
    for owner in owners:
        setattr(owner, attr, wrapped)


def instrument(tracer: Tracer) -> None:
    """Install the tracing wrappers into the imported ctxrec modules."""
    import ctxrec.nn as nn_pkg
    from ctxrec import cluster, corpus, graph, metrics, nextitem, pipeline, predictor
    from ctxrec.nn import checkpoint, engine, gradcheck, layers, optim

    def bilstm_work(out, self, seq):
        t, d, h = seq.value.shape[0], self.input_dim, self.hidden_dim
        tracer.add("nn.bilstm_forward.steps", t)
        # both directions: gate matmuls over input and recurrent state
        tracer.add("nn.bilstm.gflop", 2 * t * 2 * 4 * h * (d + h) / 1e9)

    def dense_work(out, weight, bias, x):
        rows = x.value.size // weight.value.shape[1]
        tracer.add("nn.dense.gflop", 2 * rows * weight.value.size / 1e9)

    def count_epochs(counter):
        def after(history, *args, **kwargs):
            tracer.add(counter, len(history["train_loss"]))
        return after

    def count_lloyd(out, *args, **kwargs):
        tracer.add("cluster.lloyd_iters", len(out[2]))

    # nn
    _patch(tracer, "nn.bilstm_forward", [layers.BiLstm], "forward", bilstm_work)
    _patch(tracer, "nn.backward", [engine, nn_pkg, gradcheck], "backward")
    _patch(tracer, "nn.dense", [engine], "dense", dense_work)
    _patch(tracer, "nn.softmax_xent", [engine, nn_pkg], "softmax_cross_entropy")
    _patch(tracer, "nn.lookup", [engine], "lookup")
    _patch(tracer, "nn.adam_step", [optim.Adam], "step")
    _patch(tracer, "nn.clip", [optim, nn_pkg, predictor, nextitem, graph],
           "clip_global_norm")
    _patch(tracer, "nn.checkpoint.save", [checkpoint, nn_pkg, pipeline],
           "save_checkpoint")
    _patch(tracer, "nn.checkpoint.load", [checkpoint, nn_pkg, pipeline],
           "load_checkpoint")
    # predictor
    _patch(tracer, "predictor.train_context", [predictor], "train_context",
           count_epochs("predictor.epochs"))
    _patch(tracer, "predictor.evaluate_context_loss", [predictor],
           "evaluate_context_loss")
    _patch(tracer, "predictor.predict_all_prefixes", [predictor],
           "predict_all_prefixes")
    _patch(tracer, "predictor.predict_probs", [predictor.ContextPredictor],
           "predict_probs")
    # nextitem
    _patch(tracer, "nextitem.train_next", [nextitem], "train_next",
           count_epochs("nextitem.epochs"))
    _patch(tracer, "nextitem.compute_ranks", [nextitem], "compute_ranks")
    _patch(tracer, "nextitem.predict_probs", [nextitem.NextItemModel],
           "predict_probs")
    # graph
    _patch(tracer, "graph.train_encoder", [graph], "train_encoder")
    _patch(tracer, "graph.build_graph", [graph], "build_graph")
    _patch(tracer, "graph.embed_all_sessions", [graph.SageEncoder],
           "embed_all_sessions")
    _patch(tracer, "graph.embed_new_session", [graph.SageEncoder],
           "embed_new_session")
    # cluster
    _patch(tracer, "cluster.kmeans_fit", [cluster], "kmeans_fit")
    _patch(tracer, "cluster.label_all", [cluster], "label_all")
    cluster._lloyd = _span(tracer, "cluster.lloyd", cluster._lloyd, count_lloyd)
    # corpus
    _patch(tracer, "corpus.parse_log", [corpus, pipeline], "parse_log")
    _patch(tracer, "corpus.build_corpus", [corpus, pipeline], "build_corpus")
    _patch(tracer, "corpus.load_corpus", [corpus, pipeline], "load_corpus")
    # metrics
    _patch(tracer, "metrics.rank_of_truth", [metrics, nextitem], "rank_of_truth")
    _patch(tracer, "metrics.t_test", [metrics, pipeline], "t_test_one_tailed")
    # pipeline stages and artifact reloads
    for stage in ("ingest", "embed", "contextualize", "train_context",
                  "train_next", "ablate"):
        _patch(tracer, f"pipeline.{stage}", [pipeline], f"run_{stage}")
    for loader in ("load_ingested", "load_encoder", "load_contexts",
                   "load_context_predictor", "load_next_model"):
        _patch(tracer, "pipeline.load", [pipeline], loader)


def per_layer_metrics(tracer: Tracer, iterations: int) -> dict[str, tuple[float, str]]:
    """{metric name: (value, unit)} for every span in SPANS and every count,
    each per iteration of the run (every iteration does the same work)."""
    summary = tracer.summary()
    out: dict[str, tuple[float, str]] = {}
    for name in SPANS:
        row = summary.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        out[f"{name}.calls"] = (row["calls"] / iterations, "count")
        out[f"{name}.s"] = (row["s"] / iterations, "s")
        out[f"{name}.self_s"] = (row["self_s"] / iterations, "s")
    tracer.counts["predictor.train_examples"] = tracer.child_calls(
        "predictor.train_context", "nn.softmax_xent")
    for name in COUNTS:
        unit = "gflop" if name.endswith("gflop") else "count"
        out[name] = (tracer.counts[name] / iterations, unit)
    return out


def layer_self_s(summary: dict) -> dict[str, float]:
    """Self seconds per layer (the span name's first component), largest first."""
    layers: dict[str, float] = {}
    for name, row in summary.items():
        layer = name.split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + row["self_s"]
    return dict(sorted(layers.items(), key=lambda kv: -kv[1]))


def write_summary(tracer: Tracer, path: Path, workload: str) -> None:
    """Self-time table per layer and per span name."""
    summary = tracer.summary()
    payload = {"workload": workload, "trace_id": tracer.trace_id,
               "layer_self_s": layer_self_s(summary),
               "spans": dict(sorted(summary.items(),
                                    key=lambda kv: -kv[1]["self_s"])),
               "counts": tracer.counts}
    path.write_text(json.dumps(payload, indent=2) + "\n")
