"""Stage orchestration over immutable, content-addressed artifacts.

Every stage builds ``<workdir>/<stage>-<config_hash[:12]>/`` in a
``.tmp-<pid>`` sibling, writes its ``meta.json`` (the full config snapshot and
its hash) last and publishes it by a rename, so only a complete artifact is
ever read or reused. A stage re-run with the same config reuses the existing
artifact; it never overwrites one. Downstream stages refuse artifacts whose
recorded hash does not match the active config.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import shutil
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

import numpy as np

from . import cluster as cluster_mod
from . import graph as graph_mod
from . import nextitem as next_mod
from . import predictor as pred_mod
from .config import PipelineConfig
from .corpus import SplitCorpus, build_corpus, load_corpus, parse_log, save_corpus, ColumnSchema, TEST
from .metrics import EvalReport, mrr, recall_at_k, t_test_one_tailed
from .nn.checkpoint import load_checkpoint, load_params, save_checkpoint


class PipelineError(RuntimeError):
    pass


class MissingArtifactError(PipelineError):
    def __init__(self, stage: str):
        super().__init__(f"missing artifact for stage '{stage}': run '{stage}' first")
        self.stage = stage


class Workspace:
    def __init__(self, cfg: PipelineConfig, workdir: str | Path):
        cfg.validate()
        self.cfg = cfg
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)

    @property
    def config_hash(self) -> str:
        return self.cfg.config_hash()

    def stage_dir(self, stage: str) -> Path:
        return self.workdir / f"{stage}-{self.config_hash[:12]}"

    @contextmanager
    def begin(self, stage: str,
              reads: tuple[str, ...] = ()) -> Iterator[tuple[Path, bool]]:
        """Yields (published dir, True) to reuse, else (fresh build dir,
        False), after checking the ``meta.json`` of each upstream stage the
        stage ``reads`` (their contents are left to the build). The build
        dir does not outlive the block: ``finish`` publishes it, and a block
        left by an exception removes it."""
        for upstream in reads:
            self.require(upstream)
        path = self.stage_dir(stage)
        if path.exists():
            self._verify_meta(stage, path)
            yield path, True
            return
        tmp = path.with_name(f"{path.name}.tmp-{os.getpid()}")
        shutil.rmtree(tmp, ignore_errors=True)  # left by a killed attempt
        tmp.mkdir()
        try:
            yield tmp, False
        finally:
            shutil.rmtree(tmp, ignore_errors=True)

    def finish(self, stage: str, tmp: Path, extra: dict | None = None) -> Path:
        """Write ``meta.json`` last, then publish the build dir; returns its path."""
        meta = {"stage": stage, "config_hash": self.config_hash,
                "config": json.loads(json.dumps(dataclasses.asdict(self.cfg)))}
        if extra:
            meta.update(extra)
        (tmp / "meta.json").write_text(
            json.dumps(meta, sort_keys=True, indent=2) + "\n")
        path = self.stage_dir(stage)
        os.replace(tmp, path)
        return path

    def require(self, stage: str) -> Path:
        path = self.stage_dir(stage)
        if not path.exists():
            raise MissingArtifactError(stage)
        self._verify_meta(stage, path)
        return path

    def _verify_meta(self, stage: str, path: Path) -> None:
        meta = _read_meta(path)
        if meta.get("config_hash") != self.config_hash:
            raise PipelineError(
                f"artifact {path} was built with config hash "
                f"{meta.get('config_hash')!r}, expected {self.config_hash!r}; "
                "refusing a mismatched artifact chain")


def _read_meta(path: Path) -> dict:
    """``meta.json`` of a published stage dir, or a PipelineError naming it."""
    try:
        return json.loads((path / "meta.json").read_text())
    except (OSError, ValueError) as exc:
        raise PipelineError(f"unreadable {path / 'meta.json'}: {exc}") from exc


def _sha256_file(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# ingest

def run_ingest(ws: Workspace, input_path: str | Path, delimiter: str = ",",
               has_header: bool = False, on_error: str = "abort") -> Path:
    input_sha = _sha256_file(input_path)
    with ws.begin("ingest") as (path, reuse):
        if reuse:
            if _read_meta(path).get("input_sha256") != input_sha:
                raise PipelineError(
                    f"{path} holds a corpus built from different input data; "
                    "artifacts are immutable - use a fresh workdir")
            return path
        schema = ColumnSchema(delimiter=delimiter, has_header=has_header)
        parsed = parse_log(Path(input_path), schema, on_error=on_error)
        corpus = build_corpus(parsed, idle_threshold=ws.cfg.idle_threshold_s,
                              min_count=ws.cfg.min_user_interactions)
        save_corpus(corpus, path / "corpus.jsonl")
        n_sessions = corpus.num_sessions
        avg_len = (len(corpus.interactions) / n_sessions) if n_sessions else 0.0
        return ws.finish("ingest", path, {
            "input_sha256": input_sha,
            "num_users": corpus.num_users,
            "num_items": corpus.num_items,
            "num_interactions": len(corpus.interactions),
            "num_sessions": n_sessions,
            "avg_session_length": avg_len,
        })


def load_ingested(ws: Workspace) -> SplitCorpus:
    return load_corpus(ws.require("ingest") / "corpus.jsonl")


# ---------------------------------------------------------------------------
# embed

def run_embed(ws: Workspace) -> Path:
    with ws.begin("embed", reads=("ingest",)) as (path, reuse):
        if reuse:
            return path
        corpus = load_ingested(ws)
        cfg = ws.cfg
        graph = graph_mod.build_graph_from_corpus(corpus)
        encoder, history = graph_mod.train_encoder(
            graph, base_dim=cfg.graph_base_dim, out_dim=cfg.session_emb_dim,
            epochs=cfg.graph_epochs, batch_size=cfg.graph_batch,
            fanout=(cfg.graph_fanout1, cfg.graph_fanout2),
            num_negatives=cfg.graph_negatives, lr=cfg.graph_lr,
            clip_norm=cfg.clip_norm, seed=cfg.seed)
        embeddings, embeddable = encoder.embed_corpus(graph, corpus)
        save_checkpoint(path / "encoder.ckpt",
                        {p.name: p.value for p in encoder.params()},
                        config={"num_items": graph.num_items,
                                "base_dim": cfg.graph_base_dim,
                                "out_dim": cfg.session_emb_dim,
                                "fanout": [cfg.graph_fanout1, cfg.graph_fanout2]})
        np.savez(path / "embeddings.npz", embeddings=embeddings,
                 embeddable=embeddable, graph_session_ids=graph.session_ids)
        graph_mod.export_embeddings_csv(path / "embeddings.csv", corpus, embeddings)
        return ws.finish("embed", path, {"holdout_loss": history["holdout_loss"]})


def _load_embeddings(ws: Workspace):
    """(embeddings, embeddable, graph_session_ids) as the embed stage stored them."""
    data = np.load(ws.require("embed") / "embeddings.npz")
    return data["embeddings"], data["embeddable"], data["graph_session_ids"]


def load_encoder(ws: Workspace):
    corpus = load_ingested(ws)
    ck = load_checkpoint(ws.require("embed") / "encoder.ckpt")
    graph = graph_mod.build_graph_from_corpus(corpus)
    encoder = graph_mod.SageEncoder(
        ck.config["num_items"], ck.config["base_dim"], ck.config["out_dim"],
        tuple(ck.config["fanout"]))
    load_params(encoder.params(), ck)
    embeddings, embeddable, _ = _load_embeddings(ws)
    return corpus, graph, encoder, embeddings, embeddable


# ---------------------------------------------------------------------------
# contextualize

def run_contextualize(ws: Workspace) -> Path:
    with ws.begin("contextualize", reads=("ingest", "embed")) as (path, reuse):
        if reuse:
            return path
        corpus = load_ingested(ws)
        embeddings, embeddable, graph_session_ids = _load_embeddings(ws)
        cfg = ws.cfg
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
        cluster_mod.export_clusters_csv(path / "clusters.csv", model, corpus,
                                        labels, embeddings)
        return ws.finish("contextualize", path, {
            "inertia_first": model.inertia_history[0],
            "inertia_last": model.inertia_history[-1],
            "num_unlabeled": int((labels == cluster_mod.UNLABELED).sum()),
        })


def load_contexts(ws: Workspace):
    path = ws.require("contextualize")
    data = np.load(path / "contexts.npz")
    model = cluster_mod.ContextModel(
        centers=data["centers"], session_ids=data["train_session_ids"],
        labels=data["train_labels"],
        inertia_history=list(data["inertia_history"]))
    return model, data["labels"]


# ---------------------------------------------------------------------------
# train-context

def _predictor_ckpt_config(ws: Workspace, corpus: SplitCorpus, feat_dim: int) -> dict:
    cfg = ws.cfg
    return {"num_users": corpus.num_users, "num_items": corpus.num_items,
            "num_contexts": cfg.num_contexts, "feat_dim": feat_dim,
            "user_dim": cfg.user_dim, "item_dim": cfg.item_dim,
            "hidden": cfg.lstm_hidden, "max_seq_len": cfg.max_seq_len}


def run_train_context(ws: Workspace) -> Path:
    with ws.begin("train-context",
                  reads=("ingest", "embed", "contextualize")) as (path, reuse):
        if reuse:
            return path
        corpus = load_ingested(ws)
        embeddings, _, _ = _load_embeddings(ws)
        _, labels = load_contexts(ws)
        cfg = ws.cfg
        features = pred_mod.build_session_features(corpus, embeddings)
        rng = np.random.default_rng(cfg.seed)
        model = pred_mod.ContextPredictor(
            corpus.num_users, corpus.num_items, cfg.num_contexts, features.dim,
            cfg.user_dim, cfg.item_dim, cfg.lstm_hidden, cfg.max_seq_len, rng)
        history = pred_mod.train_context(
            model, corpus, features, labels, rng, lr=cfg.lr, batch_size=cfg.batch,
            max_epochs=cfg.max_epochs, patience=cfg.patience,
            clip_norm=cfg.clip_norm)
        topk_ids, topk_probs = pred_mod.predict_all_prefixes(
            model, corpus, features, cfg.top_k_contexts)

        save_checkpoint(path / "predictor.ckpt",
                        {p.name: p.value for p in model.params()},
                        config=_predictor_ckpt_config(ws, corpus, features.dim))
        np.savez(path / "predictions.npz", topk_ids=topk_ids, topk_probs=topk_probs)
        pred_mod.export_predictions_csv(path / "predictions.csv", corpus,
                                        topk_ids, topk_probs)
        return ws.finish("train-context", path, {
            "epochs_run": len(history["train_loss"]),
            "best_epoch": history["best_epoch"],
            "final_val_loss": history["val_loss"][-1] if history["val_loss"] else None,
        })


def load_context_predictor(ws: Workspace):
    path = ws.require("train-context")
    ck = load_checkpoint(path / "predictor.ckpt")
    c = ck.config
    model = pred_mod.ContextPredictor(
        c["num_users"], c["num_items"], c["num_contexts"], c["feat_dim"],
        c["user_dim"], c["item_dim"], c["hidden"], c["max_seq_len"])
    load_params(model.params(), ck)
    preds = np.load(path / "predictions.npz")
    return model, preds["topk_ids"], preds["topk_probs"]


# ---------------------------------------------------------------------------
# train-next / evaluate / ablate

def _next_stage_name(mode: str) -> str:
    return "train-next" if mode == next_mod.WITH_CONTEXT else "train-next-ablation"


def _build_next_model(ws: Workspace, num_users: int, num_items: int, mode: str,
                      rng: np.random.Generator) -> next_mod.NextItemModel:
    cfg = ws.cfg
    return next_mod.NextItemModel(
        num_users, num_items, cfg.num_contexts, cfg.user_dim,
        cfg.item_dim, cfg.context_dim, cfg.lstm_hidden, cfg.top_k_contexts,
        cfg.max_seq_len, mode, rng)


def _train_next_once(ws: Workspace, corpus: SplitCorpus,
                     ctx_topk: np.ndarray | None, mode: str,
                     seed: int) -> tuple[next_mod.NextItemModel, dict]:
    cfg = ws.cfg
    rng = np.random.default_rng(seed)
    model = _build_next_model(ws, corpus.num_users, corpus.num_items, mode, rng)
    history = next_mod.train_next(
        model, corpus, ctx_topk if mode == next_mod.WITH_CONTEXT else None,
        rng, lr=cfg.lr, batch_size=cfg.batch, max_epochs=cfg.max_epochs,
        patience=cfg.patience, clip_norm=cfg.clip_norm)
    return model, history


def run_train_next(ws: Workspace, ablation: bool = False) -> Path:
    mode = next_mod.ABLATION if ablation else next_mod.WITH_CONTEXT
    with ws.begin(_next_stage_name(mode),
                  reads=("ingest", "train-context")) as (path, reuse):
        if reuse:
            return path
        corpus = load_ingested(ws)
        _, ctx_topk, _ = load_context_predictor(ws)
        model, history = _train_next_once(ws, corpus, ctx_topk, mode, ws.cfg.seed)
        save_checkpoint(path / "nextitem.ckpt",
                        {p.name: p.value for p in model.params()},
                        config={"mode": mode, "num_users": corpus.num_users,
                                "num_items": corpus.num_items})
        return ws.finish(_next_stage_name(mode), path, {
            "mode": mode,
            "epochs_run": len(history["train_loss"]),
            "best_epoch": history["best_epoch"],
            "best_val_mrr": max(history["val_mrr"]) if history["val_mrr"] else None,
        })


def load_next_model(ws: Workspace, ablation: bool = False) -> next_mod.NextItemModel:
    mode = next_mod.ABLATION if ablation else next_mod.WITH_CONTEXT
    path = ws.require(_next_stage_name(mode))
    ck = load_checkpoint(path / "nextitem.ckpt")
    model = _build_next_model(ws, ck.config["num_users"], ck.config["num_items"],
                              mode, np.random.default_rng(ws.cfg.seed))
    load_params(model.params(), ck)
    return model


def _rep_metrics(ws: Workspace, corpus: SplitCorpus,
                 ctx_topk: np.ndarray | None, mode: str, seeds: list[int],
                 rep0_model: next_mod.NextItemModel) -> EvalReport:
    """Test metrics per seed; rep 0 is ``rep0_model``, trained with seeds[0]."""
    examples = next_mod.build_rank_examples(corpus, TEST)
    if not examples:
        raise PipelineError("no test interactions to evaluate")
    mrrs: list[float] = []
    recalls: list[float] = []
    for r, seed in enumerate(seeds):
        model = _train_next_once(ws, corpus, ctx_topk, mode, seed)[0] if r else rep0_model
        ranks = next_mod.compute_ranks(model, corpus, examples, ctx_topk)
        mrrs.append(mrr(ranks))
        recalls.append(recall_at_k(ranks, 10))
    return EvalReport(mode=mode, seeds=seeds, mrr_values=mrrs,
                      recall_values=recalls, num_examples=len(examples),
                      config_hash=ws.config_hash)


def run_evaluate(ws: Workspace, ablation: bool = False) -> Path:
    mode = next_mod.ABLATION if ablation else next_mod.WITH_CONTEXT
    stage = "evaluate" if mode == next_mod.WITH_CONTEXT else "evaluate-ablation"
    reads = ("ingest", "train-context", _next_stage_name(mode))
    with ws.begin(stage, reads) as (path, reuse):
        if reuse:
            return path
        corpus = load_ingested(ws)
        _, ctx_topk, _ = load_context_predictor(ws)
        rep0 = load_next_model(ws, ablation)
        seeds = [ws.cfg.seed + r for r in range(ws.cfg.repetitions)]
        report = _rep_metrics(ws, corpus, ctx_topk, mode, seeds, rep0)
        (path / "metrics.json").write_text(report.to_json())
        return ws.finish(stage, path, {"mean_mrr": report.mean_mrr,
                                       "mean_recall_at_10": report.mean_recall})


def _ratio(num: float, den: float) -> float | None:
    """num / den, or None (JSON null) when the ablation arm scored 0."""
    return num / den if den != 0 else None


def run_ablate(ws: Workspace) -> Path:
    """Paired with/without-context repetitions plus one-tailed Welch tests;
    rep 0 of each arm is its train-next stage, reused or built here."""
    with ws.begin("ablate", reads=("ingest", "train-context")) as (path, reuse):
        if reuse:
            return path
        corpus = load_ingested(ws)
        _, ctx_topk, _ = load_context_predictor(ws)
        seeds = [ws.cfg.seed + r for r in range(ws.cfg.repetitions)]
        run_train_next(ws)
        with_report = _rep_metrics(ws, corpus, ctx_topk, next_mod.WITH_CONTEXT, seeds,
                                   load_next_model(ws))
        run_train_next(ws, ablation=True)
        abl_report = _rep_metrics(ws, corpus, None, next_mod.ABLATION, seeds,
                                  load_next_model(ws, ablation=True))
        t_mrr, p_mrr = t_test_one_tailed(with_report.mrr_values, abl_report.mrr_values)
        t_rec, p_rec = t_test_one_tailed(with_report.recall_values,
                                         abl_report.recall_values)
        payload = {
            "config_hash": ws.config_hash,
            "seeds": seeds,
            "with_context": with_report.to_dict(),
            "ablation": abl_report.to_dict(),
            "t_test": {"mrr": {"t": t_mrr, "p": p_mrr},
                       "recall_at_10": {"t": t_rec, "p": p_rec}},
            "mrr_ratio": _ratio(with_report.mean_mrr, abl_report.mean_mrr),
            "recall_ratio": _ratio(with_report.mean_recall, abl_report.mean_recall),
        }
        (path / "ablation.json").write_text(
            json.dumps(payload, sort_keys=True, indent=2) + "\n")
        return ws.finish("ablate", path, {"p_mrr": p_mrr, "mrr_ratio": payload["mrr_ratio"]})


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
    """Grid one hyperparameter, all others fixed; full pipeline per value."""
    if values is None:
        if param not in SWEEP_GRIDS:
            raise PipelineError(f"no default grid for {param!r}; pass --values")
        values = SWEEP_GRIDS[param]
    with ws.begin(f"sweep-{param}") as (path, reuse):
        if reuse:
            return path
        rows = []
        for value in values:
            overrides = ({"user_dim": value, "item_dim": value}
                         if param == "user_item_dim" else {param: value})
            sub = Workspace(ws.cfg.replace(**overrides), ws.workdir)
            run_ingest(sub, input_path, delimiter, has_header)
            run_embed(sub)
            run_contextualize(sub)
            run_train_context(sub)
            run_train_next(sub)
            metrics_path = run_evaluate(sub) / "metrics.json"
            metrics = json.loads(metrics_path.read_text())
            rows.append({"value": value, "config_hash": sub.config_hash,
                         "mean_mrr": metrics["mean"]["mrr"],
                         "mean_recall_at_10": metrics["mean"]["recall_at_10"]})
        payload = {"param": param, "values": list(values), "rows": rows,
                   "base_config_hash": ws.config_hash}
        (path / "sweep.json").write_text(
            json.dumps(payload, sort_keys=True, indent=2) + "\n")
        return ws.finish(f"sweep-{param}", path, {"num_values": len(values)})


# ---------------------------------------------------------------------------
# export

def run_export(ws: Workspace, what: str, out_path: str | Path) -> Path:
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    if what == "embeddings":
        shutil.copyfile(ws.require("embed") / "embeddings.csv", out_path)
    elif what == "clusters":
        shutil.copyfile(ws.require("contextualize") / "clusters.csv", out_path)
    elif what == "context-predictions":
        shutil.copyfile(ws.require("train-context") / "predictions.csv", out_path)
    elif what == "ranked-lists":
        corpus = load_ingested(ws)
        _, ctx_topk, _ = load_context_predictor(ws)
        model = load_next_model(ws)
        next_mod.export_ranked_lists(out_path, model, corpus, ctx_topk)
    else:
        raise PipelineError(f"unknown export {what!r}")
    return out_path


def run_full_pipeline(ws: Workspace, input_path: str | Path,
                      delimiter: str = ",", has_header: bool = False) -> Path:
    run_ingest(ws, input_path, delimiter, has_header)
    run_embed(ws)
    run_contextualize(ws)
    run_train_context(ws)
    run_train_next(ws)
    return run_evaluate(ws)
