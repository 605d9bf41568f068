"""Stage orchestration over immutable, content-addressed artifacts.

``STAGES`` declares each stage once: the config fields it reads and the
upstream stages it loads. A stage's key hashes those fields' values and its
upstream stages' keys, so a stage is rebuilt only when something it depends on
changes. ``Workspace.run`` builds ``<workdir>/<stage>-<key[:12]>/`` in a
``.tmp-<pid>`` sibling, writes its ``meta.json`` (key, field values, upstream
keys) last and publishes it by a rename, so only a complete artifact is ever
read or reused, and a mismatched ``meta.json`` is refused.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
import shutil
from pathlib import Path
from typing import Callable

import numpy as np

from . import cluster as cluster_mod
from . import graph as graph_mod
from . import nextitem as next_mod
from . import predictor as pred_mod
from .config import PipelineConfig
from .corpus import (TAGS, TEST, ColumnSchema, SplitCorpus, build_corpus, load_corpus,
                     parse_log, save_corpus)
from .metrics import mrr, recall_at_k, t_test_one_tailed
from .nn.checkpoint import load_arrays, load_checkpoint, load_params, save_checkpoint


class PipelineError(RuntimeError):
    pass


class MissingArtifactError(PipelineError):
    def __init__(self, stage: str):
        super().__init__(f"missing artifact for stage '{stage}': run '{stage}' first")
        self.stage = stage


_TRAIN = ("num_contexts", "user_dim", "item_dim", "lstm_hidden", "max_seq_len", "lr",
          "batch", "max_epochs", "patience", "clip_norm", "seed")
# the ablation arm's model has context embeddings but reads no context
# prediction; train-context stores every context's probability, so only the
# with-context next-item stages read how many of them a prefix keeps
_ABLATION = _TRAIN + ("context_dim",)
_NEXT = _ABLATION + ("top_k_contexts",)
# stage: (the PipelineConfig fields it reads, the stages whose artifacts it
# loads), each stage after its upstream stages
STAGES = {
    "ingest": (("idle_threshold_s", "min_user_interactions"), ()),
    "embed": (("session_emb_dim", "graph_base_dim", "graph_lr", "graph_epochs",
               "graph_batch", "graph_fanout1", "graph_fanout2", "graph_negatives",
               "clip_norm", "seed"), ("ingest",)),
    "contextualize": (("num_contexts", "kmeans_max_iters", "kmeans_n_init", "seed"),
                      ("embed",)),
    "train-context": (_TRAIN, ("ingest", "embed", "contextualize")),
    "train-next": (_NEXT, ("ingest", "train-context")),
    "train-next-ablation": (_ABLATION, ("ingest",)),
    "evaluate": (_NEXT + ("repetitions",), ("ingest", "train-context", "train-next")),
    "evaluate-ablation": (_ABLATION + ("repetitions",), ("ingest", "train-next-ablation")),
    # builds or reuses both evaluate stages (and their train-next stages) itself
    "ablate": (_NEXT + ("repetitions",), ("ingest", "train-context")),
    # every sweep-<param>; it runs the full pipeline on the config per value
    "sweep": (tuple(f.name for f in dataclasses.fields(PipelineConfig)), ()),
}


class StageConfig:
    """The config fields one stage's entry declares. Reading any other field
    raises, so no stage reads a value that its key does not hash."""

    def __init__(self, stage: str, values: dict):
        vars(self).update(values, _stage=stage)

    def __getattr__(self, name: str):  # reached only for an undeclared name
        raise AttributeError(f"stage {vars(self).get('_stage')!r} reads config field "
                             f"{name!r}, which its STAGES entry does not declare")


class Workspace:
    def __init__(self, cfg: PipelineConfig, workdir: str | Path):
        cfg.validate()
        self.cfg = cfg
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self._idents: dict[str, dict] = {}
        for stage in STAGES:
            self._idents[stage] = self._identity(stage)

    @property
    def config_hash(self) -> str:
        return self.cfg.config_hash()

    def _identity(self, stage: str, inputs: dict | None = None) -> dict:
        """What ``meta.json`` records of ``stage``: the values of its fields,
        its upstream stages' keys, any non-config ``inputs``, and its key,
        the sha256 of all of these."""
        fields, upstream = STAGES["sweep" if stage.startswith("sweep-") else stage]
        ident = {"stage": stage, "fields": {f: getattr(self.cfg, f) for f in fields},
                 "upstream": {u: self._idents[u]["key"] for u in upstream}}
        if inputs is not None:
            ident["inputs"] = inputs
        ident["key"] = hashlib.sha256(json.dumps(ident, sort_keys=True).encode()).hexdigest()
        return ident

    def stage_dir(self, stage: str) -> Path:
        return self.workdir / f"{stage}-{self._idents[stage]['key'][:12]}"

    def run(self, stage: str, body: Callable[[Path, StageConfig], dict],
            inputs: dict | None = None) -> Path:
        """The published dir of ``stage``: reused if it exists, else built by
        ``body(build_dir, cfg)``, where ``cfg`` is the stage's config view and
        the return value holds the extras for ``meta.json``. The build runs in
        a ``.tmp-<pid>`` dir, which is published by a rename after
        ``meta.json`` is written, and removed if ``body`` raises. If another
        process publishes the stage first, its dir is checked and reused."""
        ident = self._idents[stage] if inputs is None else self._identity(stage, inputs)
        for upstream in ident["upstream"]:
            self.require(upstream)
        path = self.workdir / f"{stage}-{ident['key'][:12]}"
        if path.exists():
            _verify_meta(path, ident)
            return path
        _remove_dead_builds(path)
        tmp = path.with_name(f"{path.name}.tmp-{os.getpid()}")
        tmp.mkdir()
        try:
            meta = {**body(tmp, StageConfig(stage, ident["fields"])), **ident}
            (tmp / "meta.json").write_text(json.dumps(meta, sort_keys=True, indent=2) + "\n")
            try:
                os.replace(tmp, path)
            except OSError:
                # another process published this stage first: reuse its build
                if not path.is_dir():
                    raise
                _verify_meta(path, ident)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        return path

    def require(self, stage: str) -> Path:
        """The published dir of ``stage``, after checking its own ``meta.json``."""
        path = self.stage_dir(stage)
        if not path.exists():
            raise MissingArtifactError(stage)
        _verify_meta(path, self._idents[stage])
        return path


def _verify_meta(path: Path, ident: dict) -> None:
    """Refuse ``path`` unless its ``meta.json`` records ``ident``."""
    try:
        meta = json.loads((path / "meta.json").read_text())
    except (OSError, ValueError) as exc:
        raise PipelineError(f"unreadable {path / 'meta.json'}: {exc}") from exc
    for name, want in ident.items():
        if meta.get(name) != want:
            raise PipelineError(f"artifact {path} records {name} {meta.get(name)!r}, "
                                f"expected {want!r}; refusing a mismatched artifact chain")


def _remove_dead_builds(path: Path) -> None:
    """Remove the ``.tmp-<pid>`` builds of ``path`` left by this process or
    by one that is gone, such as a killed build. A sibling whose suffix is
    not a pid is not a build and is left alone."""
    for tmp in path.parent.glob(f"{path.name}.tmp-*"):
        suffix = tmp.name.removeprefix(f"{path.name}.tmp-")
        if not (suffix.isascii() and suffix.isdigit()):
            continue
        pid = int(suffix)
        try:
            if pid != os.getpid():
                os.kill(pid, 0)  # signal 0 sends nothing: it checks the pid exists
                continue
        except ProcessLookupError:
            pass
        except PermissionError:  # alive, under another user
            continue
        shutil.rmtree(tmp, ignore_errors=True)


class _NoDraws:
    """A generator stand-in for building a model whose every parameter
    ``load_params`` then overwrites: its draws are left uninitialised."""

    def normal(self, loc, scale, size):
        return np.empty(size)

    uniform = normal


def _save_model(path: Path, model, config: dict) -> None:
    """Store ``model``'s parameters and ``config``, its constructor's
    arguments but the generator."""
    save_checkpoint(path, {p.name: p.value for p in model.params()}, config)


def _load_model(path: Path, cls):
    """The ``cls`` model that ``_save_model`` stored at ``path``."""
    ck = load_checkpoint(path)
    model = cls(**ck.config, rng=_NoDraws())
    load_params(model.params(), ck)
    return model


# ---------------------------------------------------------------------------
# ingest

def run_ingest(ws: Workspace, input_path: str | Path, delimiter: str = ",",
               has_header: bool = False, on_error: str = "abort") -> Path:
    """Parse, filter, sessionize and split the log. A corpus with no train
    or no test interaction is refused before anything is published: no
    later stage could train or evaluate on it."""
    input_sha = hashlib.sha256(Path(input_path).read_bytes()).hexdigest()

    def body(path: Path, cfg: StageConfig) -> dict:
        schema = ColumnSchema(delimiter=delimiter, has_header=has_header)
        parsed = parse_log(Path(input_path), schema, on_error=on_error)
        corpus = build_corpus(parsed, idle_threshold=cfg.idle_threshold_s,
                              min_count=cfg.min_user_interactions)
        n_train, _, n_test = np.bincount(corpus.arrays.split, minlength=len(TAGS)).tolist()
        if not (n_train and n_test):
            raise PipelineError(f"{input_path}: the corpus has {n_train} train and {n_test} "
                                "test interactions after filtering; training and "
                                "evaluation need at least one of each")
        save_corpus(corpus, path / "corpus.npz")
        n_sessions = corpus.num_sessions
        avg_len = (corpus.num_interactions / n_sessions) if n_sessions else 0.0
        return {
            "input_sha256": input_sha,
            "num_users": corpus.num_users,
            "num_items": corpus.num_items,
            "num_interactions": corpus.num_interactions,
            "num_sessions": n_sessions,
            "avg_session_length": avg_len,
        }
    path = ws.run("ingest", body)
    if json.loads((path / "meta.json").read_text())["input_sha256"] != input_sha:
        raise PipelineError(f"{path} holds a corpus built from different input data; "
                            "artifacts are immutable - use a fresh workdir")
    if not (path / "corpus.npz").is_file():
        raise PipelineError(f"{path} holds no corpus.npz (an older corpus format); "
                            "artifacts are immutable - use a fresh workdir")
    return path


def load_ingested(ws: Workspace) -> SplitCorpus:
    return load_corpus(ws.require("ingest") / "corpus.npz")


# ---------------------------------------------------------------------------
# embed

def run_embed(ws: Workspace) -> Path:
    def body(path: Path, cfg: StageConfig) -> dict:
        corpus = load_ingested(ws)
        graph = graph_mod.build_graph_from_corpus(corpus)
        encoder, history = graph_mod.train_encoder(
            graph, base_dim=cfg.graph_base_dim, out_dim=cfg.session_emb_dim,
            epochs=cfg.graph_epochs, batch_size=cfg.graph_batch,
            fanout=(cfg.graph_fanout1, cfg.graph_fanout2),
            num_negatives=cfg.graph_negatives, lr=cfg.graph_lr,
            clip_norm=cfg.clip_norm, seed=cfg.seed)
        embeddings, embeddable = encoder.embed_corpus(graph, corpus)
        _save_model(path / "encoder.ckpt", encoder,
                    {"num_items": graph.num_items, "base_dim": cfg.graph_base_dim,
                     "out_dim": cfg.session_emb_dim,
                     "fanout": [cfg.graph_fanout1, cfg.graph_fanout2]})
        np.savez(path / "embeddings.npz", embeddings=embeddings,
                 embeddable=embeddable, graph_session_ids=graph.session_ids)
        return {"holdout_loss": history["holdout_loss"]}
    return ws.run("embed", body)


def load_embeddings(ws: Workspace):
    """(embeddings, embeddable, graph_session_ids) as the embed stage stored them."""
    return load_arrays(ws.require("embed") / "embeddings.npz",
                       "embeddings", "embeddable", "graph_session_ids")


def load_encoder(ws: Workspace):
    corpus = load_ingested(ws)
    encoder = _load_model(ws.require("embed") / "encoder.ckpt", graph_mod.SageEncoder)
    graph = graph_mod.build_graph_from_corpus(corpus)
    embeddings, embeddable, _ = load_embeddings(ws)
    return corpus, graph, encoder, embeddings, embeddable


# ---------------------------------------------------------------------------
# contextualize

def run_contextualize(ws: Workspace) -> Path:
    def body(path: Path, cfg: StageConfig) -> dict:
        embeddings, embeddable, graph_session_ids = load_embeddings(ws)
        model = cluster_mod.kmeans_fit(embeddings[graph_session_ids],
                                       num_contexts=cfg.num_contexts,
                                       max_iters=cfg.kmeans_max_iters,
                                       seed=cfg.seed,
                                       session_ids=graph_session_ids,
                                       n_init=cfg.kmeans_n_init)
        labels = cluster_mod.label_all(model, embeddings, embeddable)
        np.savez(path / "contexts.npz", centers=model.centers,
                 train_session_ids=model.session_ids, train_labels=model.labels,
                 labels=labels,
                 inertia_history=np.asarray(model.inertia_history))
        return {
            "inertia_first": model.inertia_history[0],
            "inertia_last": model.inertia_history[-1],
            "num_unlabeled": int((labels == cluster_mod.UNLABELED).sum()),
        }
    return ws.run("contextualize", body)


def load_contexts(ws: Workspace) -> tuple[np.ndarray, np.ndarray]:
    """(centers, labels) as the contextualize stage stored them: the
    (contexts, dim) centers and every session's context id."""
    return tuple(load_arrays(ws.require("contextualize") / "contexts.npz", "centers", "labels"))


# ---------------------------------------------------------------------------
# train-context

def run_train_context(ws: Workspace) -> Path:
    def body(path: Path, cfg: StageConfig) -> dict:
        corpus = load_ingested(ws)
        embeddings, _, _ = load_embeddings(ws)
        _, labels = load_contexts(ws)
        features = pred_mod.build_session_features(corpus, embeddings)
        rng = np.random.default_rng(cfg.seed)
        # ContextPredictor's arguments, as the checkpoint records them
        dims = {"num_users": corpus.num_users, "num_items": corpus.num_items,
                "num_contexts": cfg.num_contexts, "feat_dim": features.shape[1],
                "user_dim": cfg.user_dim, "item_dim": cfg.item_dim,
                "hidden": cfg.lstm_hidden, "max_seq_len": cfg.max_seq_len}
        model = pred_mod.ContextPredictor(**dims, rng=rng)
        history = pred_mod.train_context(
            model, corpus, features, labels, rng, lr=cfg.lr, batch_size=cfg.batch,
            max_epochs=cfg.max_epochs, patience=cfg.patience,
            clip_norm=cfg.clip_norm)
        probs = pred_mod.predict_all_prefixes(model, corpus, features)

        _save_model(path / "predictor.ckpt", model, dims)
        np.savez(path / "predictions.npz", probs=probs)
        return {
            "epochs_run": len(history["train_loss"]),
            "best_epoch": history["best_epoch"],
            "final_val_loss": history["val_loss"][-1] if history["val_loss"] else None,
        }
    return ws.run("train-context", body)


def load_context_topk(ws: Workspace) -> tuple[np.ndarray, np.ndarray]:
    """Per interaction, the ids (ascending) and probabilities of the
    ``top_k_contexts`` most probable contexts of the prefix preceding it,
    from ``predictions.npz`` alone. A cut or corrupt file is a ValueError
    naming it."""
    file = ws.require("train-context") / "predictions.npz"
    probs, = load_arrays(file, "probs")
    num_contexts = ws.cfg.num_contexts  # hashed by train-context's key
    if probs.ndim != 2 or probs.shape[1] != num_contexts or not np.isfinite(probs).all():
        raise ValueError(f"{file}: expected finite (interactions, {num_contexts}) "
                         f"context probabilities, got shape {probs.shape}")
    topk_ids = pred_mod.top_k_rows(probs, ws.cfg.top_k_contexts)
    return topk_ids, np.take_along_axis(probs, topk_ids, axis=1)


def load_context_predictor(ws: Workspace):
    """The context predictor and ``load_context_topk``'s two arrays."""
    model = _load_model(ws.require("train-context") / "predictor.ckpt",
                        pred_mod.ContextPredictor)
    return (model, *load_context_topk(ws))


# ---------------------------------------------------------------------------
# train-next / evaluate / ablate

def _train_next_once(cfg: StageConfig, corpus: SplitCorpus,
                     ctx_topk: np.ndarray | None, mode: str,
                     seed: int) -> tuple[next_mod.NextItemModel, dict, dict]:
    """The trained model, its history and its constructor's arguments."""
    rng = np.random.default_rng(seed)
    # the ablation arm's fc2 has no context block, so it reads no top-K
    dims = {"num_users": corpus.num_users, "num_items": corpus.num_items,
            "num_contexts": cfg.num_contexts, "user_dim": cfg.user_dim,
            "item_dim": cfg.item_dim, "context_dim": cfg.context_dim,
            "hidden": cfg.lstm_hidden,
            "top_k": cfg.top_k_contexts if mode == next_mod.WITH_CONTEXT else 0,
            "max_seq_len": cfg.max_seq_len, "mode": mode}
    model = next_mod.NextItemModel(**dims, rng=rng)
    history = next_mod.train_next(
        model, corpus, ctx_topk if mode == next_mod.WITH_CONTEXT else None,
        rng, lr=cfg.lr, batch_size=cfg.batch, max_epochs=cfg.max_epochs,
        patience=cfg.patience, clip_norm=cfg.clip_norm)
    return model, history, dims


def run_train_next(ws: Workspace, ablation: bool = False,
                   inputs: Callable[[], tuple[SplitCorpus, np.ndarray]] | None = None) -> Path:
    """``inputs()`` returns ``_evaluate_inputs(ws)``; ablate passes one that
    loads them once for every stage it builds."""
    mode = next_mod.ABLATION if ablation else next_mod.WITH_CONTEXT

    def body(path: Path, cfg: StageConfig) -> dict:
        corpus, ctx_topk = inputs() if inputs else _evaluate_inputs(ws, ablation)
        model, history, dims = _train_next_once(cfg, corpus, ctx_topk, mode, cfg.seed)
        _save_model(path / "nextitem.ckpt", model, dims)
        return {
            "mode": mode,
            "epochs_run": len(history["train_loss"]),
            "best_epoch": history["best_epoch"],
            "best_val_mrr": max(history["val_mrr"]) if history["val_mrr"] else None,
        }
    return ws.run("train-next-ablation" if ablation else "train-next", body)


def load_next_model(ws: Workspace, ablation: bool = False) -> next_mod.NextItemModel:
    stage = "train-next-ablation" if ablation else "train-next"
    return _load_model(ws.require(stage) / "nextitem.ckpt", next_mod.NextItemModel)


def _rep_metrics(ws: Workspace, cfg: StageConfig, corpus: SplitCorpus,
                 ctx_topk: np.ndarray | None, ablation: bool) -> dict:
    """The report that ``metrics.json`` stores: test MRR and Recall@10 per
    repetition seed, and their means. Rep 0 is the arm's published
    train-next model, and every later rep trains its own."""
    mode = next_mod.ABLATION if ablation else next_mod.WITH_CONTEXT
    examples = next_mod.rank_rows(corpus, TEST)
    if not len(examples):
        raise PipelineError("no test interactions to evaluate")
    seeds = [cfg.seed + r for r in range(cfg.repetitions)]
    mrrs: list[float] = []
    recalls: list[float] = []
    for r, seed in enumerate(seeds):
        model = (_train_next_once(cfg, corpus, ctx_topk, mode, seed)[0] if r
                 else load_next_model(ws, ablation))
        ranks = next_mod.compute_ranks(model, corpus, examples, ctx_topk)
        mrrs.append(mrr(ranks))
        recalls.append(recall_at_k(ranks, 10))
    # no config hash: evaluate-ablation's key leaves out the fields the arm
    # does not read, so a reused report would name another config; meta.json
    # records what the key covers
    return {"mode": mode, "seeds": seeds,
            "repetitions": [{"seed": s, "mrr": m, "recall_at_10": r}
                            for s, m, r in zip(seeds, mrrs, recalls)],
            "mean": {"mrr": float(np.mean(mrrs)), "recall_at_10": float(np.mean(recalls))},
            "num_eval_examples": len(examples)}


def _evaluate_inputs(ws: Workspace,
                     ablation: bool = False) -> tuple[SplitCorpus, np.ndarray | None]:
    """The corpus and the per-prefix top-k context ids that evaluation
    reads; the ablation arm reads no context ids."""
    return load_ingested(ws), None if ablation else load_context_topk(ws)[0]


def run_evaluate(ws: Workspace, ablation: bool = False,
                 inputs: Callable[[], tuple[SplitCorpus, np.ndarray]] | None = None) -> Path:
    """``inputs`` as in ``run_train_next``."""
    def body(path: Path, cfg: StageConfig) -> dict:
        corpus, ctx_topk = inputs() if inputs else _evaluate_inputs(ws, ablation)
        report = _rep_metrics(ws, cfg, corpus, ctx_topk, ablation)
        (path / "metrics.json").write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")
        return {"mean_mrr": report["mean"]["mrr"],
                "mean_recall_at_10": report["mean"]["recall_at_10"]}
    return ws.run("evaluate-ablation" if ablation else "evaluate", body)


def _ratio(num: float, den: float) -> float | None:
    """num / den, or None (JSON null) when the ablation arm scored 0."""
    return num / den if den != 0 else None


def run_ablate(ws: Workspace) -> Path:
    """Paired with/without-context repetitions plus one-tailed Welch tests,
    read from the ``evaluate`` and ``evaluate-ablation`` reports, which are
    reused or built here (with their ``train-next`` stages)."""
    def body(path: Path, cfg: StageConfig) -> dict:
        inputs = functools.cache(lambda: _evaluate_inputs(ws))
        arms = []
        for ablation in (False, True):
            run_train_next(ws, ablation, inputs)
            arms.append(json.loads(
                (run_evaluate(ws, ablation, inputs) / "metrics.json").read_text()))
        with_arm, abl_arm = arms

        def t_test(key: str) -> tuple[float, float]:
            return t_test_one_tailed(*([rep[key] for rep in arm["repetitions"]]
                                       for arm in arms))

        t_mrr, p_mrr = t_test("mrr")
        t_rec, p_rec = t_test("recall_at_10")
        payload = {
            "config_hash": ws.config_hash,
            "seeds": with_arm["seeds"],
            "with_context": with_arm,
            "ablation": abl_arm,
            "t_test": {"mrr": {"t": t_mrr, "p": p_mrr},
                       "recall_at_10": {"t": t_rec, "p": p_rec}},
            "mrr_ratio": _ratio(with_arm["mean"]["mrr"], abl_arm["mean"]["mrr"]),
            "recall_ratio": _ratio(with_arm["mean"]["recall_at_10"],
                                   abl_arm["mean"]["recall_at_10"]),
        }
        (path / "ablation.json").write_text(
            json.dumps(payload, sort_keys=True, indent=2) + "\n")
        return {"p_mrr": p_mrr, "mrr_ratio": payload["mrr_ratio"]}
    return ws.run("ablate", body)


# ---------------------------------------------------------------------------
# sweep

SWEEP_GRIDS = {
    "num_contexts": [10, 20, 40, 60, 80],
    "top_k_contexts": [1, 2, 3, 4, 5],
    "user_item_dim": [64, 128, 256, 512],
    "context_dim": [8, 16, 32, 64],
}


def run_sweep(ws: Workspace, param: str, values: list | None,
              input_path: str | Path, delimiter: str = ",",
              has_header: bool = False) -> Path:
    """Grid one hyperparameter, all others fixed: the full pipeline per value,
    which reuses every stage that does not read ``param``."""
    if values is None:
        if param not in SWEEP_GRIDS:
            raise PipelineError(f"no default grid for {param!r}; pass --values")
        values = SWEEP_GRIDS[param]

    def body(path: Path, cfg: StageConfig) -> dict:
        rows = []
        for value in values:
            overrides = ({"user_dim": value, "item_dim": value}
                         if param == "user_item_dim" else {param: value})
            # the sweep's entry declares every field, so all of ws.cfg is its to read
            sub = Workspace(ws.cfg.replace(**overrides), ws.workdir)
            evaluated = run_full_pipeline(sub, input_path, delimiter, has_header)
            metrics = json.loads((evaluated / "metrics.json").read_text())
            rows.append({"value": value, "config_hash": sub.config_hash,
                         "mean_mrr": metrics["mean"]["mrr"],
                         "mean_recall_at_10": metrics["mean"]["recall_at_10"]})
        payload = {"param": param, "values": list(values), "rows": rows,
                   "base_config_hash": ws.config_hash}
        (path / "sweep.json").write_text(
            json.dumps(payload, sort_keys=True, indent=2) + "\n")
        return {"num_values": len(values)}
    return ws.run(f"sweep-{param}", body, {"values": list(values)})


def run_full_pipeline(ws: Workspace, input_path: str | Path,
                      delimiter: str = ",", has_header: bool = False) -> Path:
    run_ingest(ws, input_path, delimiter, has_header)
    run_embed(ws)
    run_contextualize(ws)
    run_train_context(ws)
    run_train_next(ws)
    return run_evaluate(ws)
