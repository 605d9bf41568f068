"""One benchmark run of one workload.

Phases, in order:

1. set-up: generate the synthetic log ``SETUP_REPEATS`` times (median);
2. iterations, repeated while another fits in ``seconds`` (and at least
   ``MIN_ITERATIONS`` of them), each in a fresh workdir:

   a. the timed pipeline chain, each stage once:
      ingest -> embed -> contextualize -> train-context -> train-next -> ablate;
   b. set-up of serving: load every model through ``pipeline.load_*``;
   c. serving: a closed loop with one client and no arrival schedule that
      replays every interaction, user after user and each user's in
      timestamp order, as ``long_term_input -> ContextPredictor.predict_probs
      -> top_k_contexts -> NextItemModel.predict_probs -> top-20``, in whole
      passes until at least ``MIN_REQUESTS`` requests;
   d. output checks: served top-K context ids equal ``predictions.npz``,
      served ranks equal ``compute_ranks`` for the same interactions, and
      ``ablation.json`` holds both arms with finite metrics.

Every iteration does the same work. Stage and chain timings are medians
over the run's iterations; latency percentiles are over every request of the
run, and throughput is all requests over all serving time, so that they too
span the whole run rather than one serving loop. ``setup_s`` is the median
generation time plus the median model-load time. Every iteration must give
bit-identical quality numbers.

All calls go through module attributes so the tracer's wrappers see them.
"""

from __future__ import annotations

import json
import math
import resource
import shutil
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ctxrec import nextitem as next_mod
from ctxrec import pipeline
from ctxrec import predictor as pred_mod
from ctxrec import synth
from ctxrec.corpus import TEST
from ctxrec.metrics import rank_of_truth as _rank_of_truth  # bound before tracing

from workloads import Workload

CHAIN = ["ingest", "embed", "contextualize", "train_context", "train_next", "ablate"]
TOP_N = 20
SETUP_REPEATS = 9     # corpus generations timed for setup_s
MIN_ITERATIONS = 2    # chains per run, however short ``seconds`` is
MIN_REQUESTS = 1000   # per serving loop, so each has ten samples beyond p99


@dataclass
class RunResult:
    metrics: dict[str, tuple[float, str]]      # end to end: name -> (value, unit)
    quality: dict[str, float]                  # deterministic per program and seed
    attempted: int
    failed: int
    failures: list[str] = field(default_factory=list)
    info: dict = field(default_factory=dict)


# Every timing is CPU time of this process. The program runs single-threaded
# (BLAS pinned to one thread), so on an unshared CPU this equals wall time;
# on a shared host it leaves out the time the hypervisor gives this vCPU to
# another guest (steal time). On a 2-vCPU guest that came in stalls of up to
# 25 ms, which set the whole wall-clock p99 of 3 ms requests. Each
# iteration's wall time is recorded beside its CPU time.
clock = time.process_time


def _timed(fn, *args):
    t0 = clock()
    out = fn(*args)
    return out, clock() - t0


def _load_models(ws: pipeline.Workspace):
    corpus, _, _, embeddings, _ = pipeline.load_encoder(ws)
    features = pred_mod.build_session_features(corpus, embeddings)
    predictor, topk_ids, topk_probs = pipeline.load_context_predictor(ws)
    next_model = pipeline.load_next_model(ws)
    return corpus, features, predictor, topk_ids, topk_probs, next_model


def _serve(ws, corpus, features, predictor, next_model):
    """Closed-loop whole passes over every interaction, as few as give
    ``MIN_REQUESTS`` requests; returns per-request latencies (s), the served
    interaction ids, their top-K context ids, the top-N item lists, the true
    item's rank (taken outside the timed span) and the loop's CPU time."""
    cfg = ws.cfg
    # User after user, each user's interactions in timestamp order. In one
    # global timestamp order the history length grows with time through the
    # pass, so each latency percentile would sample only part of it.
    users = np.array([it.user_id for it in corpus.interactions])
    stamps = np.array([it.timestamp for it in corpus.interactions])
    order = np.lexsort((np.arange(len(stamps)), stamps, users))
    item_ids = np.arange(corpus.num_items)
    latencies, served, ctx_ids, tops, ranks = [], [], [], [], []
    passes = -(-MIN_REQUESTS // len(order))
    t_start = clock()
    for k in order.tolist() * passes:
        it = corpus.interactions[k]
        sid = corpus.session_of[k]
        t0 = clock()
        prefix = corpus.sessions[sid].items[:corpus.position_of[k]]
        history = pred_mod.long_term_input(corpus, features, it.user_id, sid,
                                           cfg.max_seq_len)
        ctx_probs = predictor.predict_probs(it.user_id, prefix, history)
        ids = pred_mod.top_k_contexts(ctx_probs, cfg.top_k_contexts)
        item_probs = next_model.predict_probs(it.user_id, prefix, ids)
        top = np.lexsort((item_ids, -item_probs))[:TOP_N]
        latencies.append(clock() - t0)
        served.append(k)
        ctx_ids.append(ids)
        tops.append(top)
        ranks.append(_rank_of_truth(item_probs, it.item_id))
    serve_s = clock() - t_start
    return np.array(latencies), served, ctx_ids, tops, np.array(ranks), serve_s


def _purity(labels: np.ndarray, planted: np.ndarray) -> float:
    mask = labels >= 0
    hits = sum(Counter(planted[(labels == c) & mask]).most_common(1)[0][1]
               for c in set(labels[mask]))
    return hits / int(mask.sum())


def _context_acc(corpus, labels, topk_ids, topk_probs) -> float:
    """Top-1 predicted context against the clustered label, test split."""
    hits = total = 0
    for k in range(len(corpus.interactions)):
        sid = corpus.session_of[k]
        if corpus.splits[k] != TEST or labels[sid] < 0:
            continue
        hits += int(topk_ids[k][np.argmax(topk_probs[k])] == labels[sid])
        total += 1
    return hits / total


def _check_ablation(payload: dict) -> list[str]:
    problems = []
    for arm in ("with_context", "ablation"):
        report = payload.get(arm)
        if not report:
            problems.append(f"ablation.json lacks the {arm} arm")
            continue
        values = [v for rep in report["repetitions"]
                  for v in (rep["mrr"], rep["recall_at_10"])]
        values += list(report["mean"].values())
        if not values or not all(math.isfinite(v) for v in values):
            problems.append(f"ablation.json {arm} has non-finite metrics")
    if not math.isfinite(payload.get("mrr_ratio", math.nan)):
        problems.append("ablation.json mrr_ratio is not finite")
    return problems


def run(wl: Workload, spec: synth.SynthSpec, seconds: float,
        workdir: Path) -> RunResult:
    """Run every phase in ``workdir`` (created here, removed afterwards)."""
    workdir.mkdir(parents=True)
    try:
        return _run(wl, spec, seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


@dataclass
class _Iteration:
    stage_s: dict[str, float]
    load_s: float
    latencies: np.ndarray
    serve_s: float
    served: int
    quality: dict[str, float]
    failures: list[str]
    failed: int
    corpus: dict[str, int]


def _check_served(corpus, next_model, topk_ids, served, ctx_ids, tops, ranks):
    """Served outputs against the stored artifacts; returns (failures, failed)."""
    distinct = sorted(set(served))
    examples = [next_mod.RankExample(k, corpus.interactions[k].user_id,
                                     corpus.session_of[k], corpus.position_of[k],
                                     corpus.interactions[k].item_id)
                for k in distinct]
    expected = dict(zip(distinct, next_mod.compute_ranks(
        next_model, corpus, examples, topk_ids)))
    bad_ctx = np.array([not np.array_equal(ids, topk_ids[k])
                        for k, ids in zip(served, ctx_ids)])
    bad_rank = np.array([int(r) != int(expected[k]) for k, r in zip(served, ranks)])
    bad_top = np.array([bool(r <= TOP_N) != (corpus.interactions[k].item_id in top)
                        for k, r, top in zip(served, ranks, tops)])
    failures = []
    for bad, what in ((bad_ctx, "top-K context ids differ from predictions.npz"),
                      (bad_rank, "ranks differ from compute_ranks"),
                      (bad_top, f"top-{TOP_N} lists disagree with the true item's rank")):
        if bad.any():
            failures.append(f"{int(bad.sum())}/{len(served)} served {what}")
    return failures, int((bad_ctx | bad_rank | bad_top).sum())


def _iterate(ws: pipeline.Workspace, log: Path, sidecar: dict) -> _Iteration:
    """One chain in a fresh workspace, one serving pass, and their checks."""
    stage_s = {}
    for stage in CHAIN:
        fn = getattr(pipeline, f"run_{stage}")
        _, stage_s[stage] = _timed(fn, ws, log) if stage == "ingest" else _timed(fn, ws)

    models, load_s = _timed(_load_models, ws)
    corpus, features, predictor, topk_ids, topk_probs, next_model = models
    latencies, served, ctx_ids, tops, ranks, serve_s = _serve(
        ws, corpus, features, predictor, next_model)

    failures, failed = _check_served(corpus, next_model, topk_ids, served,
                                     ctx_ids, tops, ranks)
    ablation = json.loads((ws.stage_dir("ablate") / "ablation.json").read_text())
    ablation_problems = _check_ablation(ablation)
    failures += ablation_problems
    _, labels = pipeline.load_contexts(ws)
    quality = {
        "mrr": ablation["with_context"]["mean"]["mrr"],
        "recall_at_10": ablation["with_context"]["mean"]["recall_at_10"],
        "mrr_ratio": ablation["mrr_ratio"],
        "cluster_purity": _purity(labels, synth.planted_labels(sidecar, corpus)),
        "context_acc": _context_acc(corpus, labels, topk_ids, topk_probs),
    }
    dims = {"users": corpus.num_users, "items": corpus.num_items,
            "interactions": len(corpus.interactions), "sessions": corpus.num_sessions}
    return _Iteration(stage_s, load_s, latencies, serve_s, len(served), quality,
                      failures, failed + bool(ablation_problems), dims)


def _run(wl: Workload, spec: synth.SynthSpec, seconds: float,
         workdir: Path) -> RunResult:
    cfg = wl.pipeline_config()
    log, sidecar_path = workdir / "log.csv", workdir / "labels.json"

    gen_s = []
    for _ in range(SETUP_REPEATS):
        sidecar, dt = _timed(synth.generate, spec, log, sidecar_path)
        gen_s.append(dt)

    # Iterate for ``seconds``, so that every timing spans the whole run
    # rather than one moment of it: a shared host's CPU speed can drift by
    # 1.5x or more within a minute. An iteration starts only if one more of
    # the last one's length still fits, which bounds the run's length.
    iterations: list[_Iteration] = []
    t_start = time.perf_counter()
    elapsed = last_s = 0.0
    wall_cpu = []
    while len(iterations) < MIN_ITERATIONS or elapsed + last_s <= seconds:
        t0, c0 = time.perf_counter(), clock()
        ws = pipeline.Workspace(cfg, workdir / f"it{len(iterations)}")
        iterations.append(_iterate(ws, log, sidecar))
        shutil.rmtree(ws.workdir, ignore_errors=True)
        last_s = time.perf_counter() - t0
        wall_cpu.append({"wall_s": last_s, "cpu_s": clock() - c0})
        elapsed = time.perf_counter() - t_start

    failures = [f"iteration {i}: {problem}"
                for i, it in enumerate(iterations) for problem in it.failures]
    failed = sum(it.failed for it in iterations)
    quality = iterations[0].quality
    for i, it in enumerate(iterations[1:], 1):
        differs = [k for k in quality if float(it.quality[k]).hex() != float(quality[k]).hex()]
        if differs:
            failures.append(f"iteration {i}: quality {', '.join(differs)} differs "
                            "from iteration 0")
            failed += 1

    passes = [{"serve_p50_ms": float(np.percentile(it.latencies, 50) * 1e3),
               "serve_p99_ms": float(np.percentile(it.latencies, 99) * 1e3),
               "serve_rps": it.served / it.serve_s} for it in iterations]
    lat_ms = np.concatenate([it.latencies for it in iterations]) * 1e3
    load_s = [it.load_s for it in iterations]
    metrics = {
        "setup_s": (statistics.median(gen_s) + statistics.median(load_s), "s"),
        "pipeline_s": (statistics.median(sum(it.stage_s.values()) for it in iterations),
                       "s"),
        **{f"{stage}_s": (statistics.median(it.stage_s[stage] for it in iterations), "s")
           for stage in ("embed", "train_context", "ablate")},
        "serve_p50_ms": (float(np.percentile(lat_ms, 50)), "ms"),
        "serve_p99_ms": (float(np.percentile(lat_ms, 99)), "ms"),
        "serve_rps": (len(lat_ms) / sum(it.serve_s for it in iterations), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    per_iteration = [{**it.stage_s, "load": it.load_s, "serve_requests": it.served,
                      "serve_s": it.serve_s, **p, **wc}
                     for it, p, wc in zip(iterations, passes, wall_cpu)]
    return RunResult(
        metrics=metrics, quality=quality,
        attempted=sum(len(CHAIN) + it.served for it in iterations),
        failed=failed, failures=failures,
        info={"iterations": len(iterations), "run_wall_s": elapsed,
              "per_iteration": per_iteration, "generate_s": gen_s,
              "serve_requests": len(lat_ms),
              "serve_s": sum(it.serve_s for it in iterations),
              "cpu_per_wall": sum(w["cpu_s"] for w in wall_cpu) / elapsed,
              "corpus": iterations[0].corpus})
