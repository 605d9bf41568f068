import dataclasses
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import reference_models
from ctxrec import nextitem as next_mod
from ctxrec import pipeline
from ctxrec import predictor as pred_mod
from ctxrec.cli import main
from ctxrec.config import (
    ConfigError,
    PipelineConfig,
    parse_config_file,
    resolve_config,
)
from ctxrec.corpus import build_corpus, parse_log
from ctxrec.nn.checkpoint import load_checkpoint, save_checkpoint
from ctxrec.synth import SynthSpec, generate, planted_labels
from conftest import nnck_checkpoint_bytes
from reference_corpus import session_split

TINY = dict(num_users=10, num_contexts=3, items_per_context=8,
            sessions_per_user=12, seed=5, mean_session_len=2.2)

TINY_CFG = dict(num_contexts=3, top_k_contexts=2, user_dim=8, item_dim=8,
                context_dim=4, session_emb_dim=8, lstm_hidden=4,
                graph_base_dim=8, graph_epochs=4, graph_batch=64,
                batch=128, max_epochs=3, patience=2, repetitions=2, seed=1)


def _tiny_cfg_flags():
    flags = []
    for key, value in TINY_CFG.items():
        flags += ["--" + key.replace("_", "-"), str(value)]
    return flags


class TestSynth:
    def test_item_ids_bounded(self, tmp_path):
        spec = SynthSpec(num_users=6, num_contexts=8, items_per_context=30,
                         sessions_per_user=8, seed=0)
        generate(spec, tmp_path / "log.csv")
        items = [int(line.split(",")[1])
                 for line in (tmp_path / "log.csv").read_text().splitlines()]
        assert max(items) < 240
        assert min(items) >= 0

    def test_byte_identical_given_seed(self, tmp_path):
        spec = SynthSpec(**TINY)
        generate(spec, tmp_path / "a.csv", tmp_path / "a.json")
        generate(spec, tmp_path / "b.csv", tmp_path / "b.json")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_sidecar_covers_every_session(self, tmp_path):
        spec = SynthSpec(**TINY)
        sidecar = generate(spec, tmp_path / "log.csv", tmp_path / "labels.json")
        assert len(sidecar["sessions"]) == spec.num_users * spec.sessions_per_user
        corpus = build_corpus(parse_log(tmp_path / "log.csv"))
        labels = planted_labels(sidecar, corpus)
        assert corpus.num_sessions == len(sidecar["sessions"])
        assert (labels >= 0).all()

    def test_sessionizer_recovers_generated_boundaries(self, tmp_path):
        spec = SynthSpec(**TINY)
        sidecar = generate(spec, tmp_path / "log.csv")
        corpus = build_corpus(parse_log(tmp_path / "log.csv"))
        lengths = [s["length"] for s in sidecar["sessions"]]
        assert sorted(s.length for s in corpus.sessions) == sorted(lengths)


class TestConfig:
    def test_defaults_match_stated_values(self):
        cfg = PipelineConfig()
        assert (cfg.idle_threshold_s, cfg.min_user_interactions) == (3600, 10)
        assert (cfg.num_contexts, cfg.top_k_contexts) == (40, 3)
        assert (cfg.user_dim, cfg.item_dim, cfg.context_dim) == (256, 256, 32)
        assert (cfg.lr, cfg.batch, cfg.max_epochs) == (0.001, 1024, 200)
        assert (cfg.max_seq_len, cfg.repetitions) == (50, 5)

    def test_file_and_overrides(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("num_contexts=12  # comment\nlr=0.01\n\n")
        cfg = resolve_config(path, {"batch": 64}, env={})
        assert cfg.num_contexts == 12
        assert cfg.lr == 0.01
        assert cfg.batch == 64

    def test_env_seed_wins(self, tmp_path):
        cfg = resolve_config(None, {"seed": 3}, env={"CTXREC_SEED": "99"})
        assert cfg.seed == 99

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("nope=1\n")
        with pytest.raises(ConfigError, match="unknown config key"):
            parse_config_file(path)

    def test_invariants_enforced(self):
        with pytest.raises(ConfigError, match="top_k_contexts"):
            PipelineConfig(num_contexts=2, top_k_contexts=3).validate()
        with pytest.raises(ConfigError, match="positive"):
            PipelineConfig(batch=0).validate()

    def test_hash_stable_and_sensitive(self):
        a = PipelineConfig().config_hash()
        b = PipelineConfig().config_hash()
        c = PipelineConfig(seed=1).config_hash()
        assert a == b
        assert a != c


@pytest.fixture(scope="module")
def tiny_pipeline(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("tiny_pipeline")
    generate(SynthSpec(**TINY), tmp / "log.csv", tmp / "labels.json")
    cfg = PipelineConfig(**TINY_CFG)
    ws = pipeline.Workspace(cfg, tmp / "work")
    pipeline.run_full_pipeline(ws, tmp / "log.csv")
    return tmp, cfg, ws


def _partial_workspace(ws_full, cfg, workdir,
                       stages=("ingest", "embed", "contextualize", "train-context")):
    """A workspace holding copies of ``ws_full``'s ``stages``, by default
    those up to train-context."""
    workdir.mkdir()
    for stage in stages:
        src = ws_full.stage_dir(stage)
        shutil.copytree(src, workdir / src.name)
    return pipeline.Workspace(cfg, workdir)


class TestPipelineMechanics:
    def test_all_stage_artifacts_exist(self, tiny_pipeline):
        _, _, ws = tiny_pipeline
        for stage, filename in [("ingest", "corpus.npz"),
                                ("embed", "embeddings.npz"),
                                ("contextualize", "contexts.npz"),
                                ("train-context", "predictions.npz"),
                                ("train-next", "nextitem.ckpt"),
                                ("evaluate", "metrics.json")]:
            assert (ws.stage_dir(stage) / filename).exists()
            assert (ws.stage_dir(stage) / "meta.json").exists()

    def test_metrics_json_shape(self, tiny_pipeline):
        _, cfg, ws = tiny_pipeline
        metrics = json.loads((ws.stage_dir("evaluate") / "metrics.json").read_text())
        assert len(metrics["repetitions"]) == cfg.repetitions
        assert metrics["seeds"] == [cfg.seed + r for r in range(cfg.repetitions)]
        assert 0.0 <= metrics["mean"]["mrr"] <= 1.0
        assert 0.0 <= metrics["mean"]["recall_at_10"] <= 1.0

    def test_metrics_json_keys_and_means(self, tiny_pipeline):
        _, _, ws = tiny_pipeline
        metrics = json.loads((ws.stage_dir("evaluate") / "metrics.json").read_text())
        assert set(metrics) == {"mode", "seeds", "repetitions", "mean", "num_eval_examples"}
        assert [rep["seed"] for rep in metrics["repetitions"]] == metrics["seeds"]
        for key in ("mrr", "recall_at_10"):
            assert metrics["mean"][key] == float(np.mean(
                [rep[key] for rep in metrics["repetitions"]]))

    def test_rerun_reuses_artifacts(self, tiny_pipeline):
        tmp, _, ws = tiny_pipeline
        marker = ws.stage_dir("embed") / "embeddings.npz"
        mtime = marker.stat().st_mtime_ns
        pipeline.run_embed(ws)  # must reuse, not rewrite
        assert marker.stat().st_mtime_ns == mtime

    def test_different_input_same_config_refused(self, tiny_pipeline, tmp_path):
        tmp, cfg, ws = tiny_pipeline
        other = tmp_path / "other.csv"
        generate(SynthSpec(**{**TINY, "seed": 6}), other)
        with pytest.raises(pipeline.PipelineError, match="different input"):
            pipeline.run_ingest(ws, other)

    def test_tampered_hash_chain_refused(self, tiny_pipeline, tmp_path):
        tmp, cfg, _ = tiny_pipeline
        workdir = tmp_path / "tampered"
        shutil.copytree(tmp / "work", workdir)
        ws = pipeline.Workspace(cfg, workdir)
        meta_path = ws.stage_dir("train-next") / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["key"] = "0" * 64
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(pipeline.PipelineError, match="mismatched"):
            pipeline.run_evaluate(ws)

    def test_tampered_upstream_key_refused(self, tiny_pipeline, tmp_path):
        tmp, cfg, _ = tiny_pipeline
        workdir = tmp_path / "tampered-upstream"
        shutil.copytree(tmp / "work", workdir)
        ws = pipeline.Workspace(cfg, workdir)
        meta_path = ws.stage_dir("evaluate") / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["upstream"]["train-next"] = "0" * 64
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(pipeline.PipelineError, match="mismatched"):
            pipeline.run_evaluate(ws)

    def test_meta_records_key_fields_and_upstream_keys(self, tiny_pipeline):
        _, cfg, ws = tiny_pipeline
        metas = {stage: json.loads((ws.stage_dir(stage) / "meta.json").read_text())
                 for stage in ("ingest", "embed", "contextualize", "train-context")}
        for stage, meta in metas.items():
            fields, upstream = pipeline.STAGES[stage]
            assert ws.stage_dir(stage).name == f"{stage}-{meta['key'][:12]}"
            assert meta["fields"] == {f: getattr(cfg, f) for f in fields}
            assert meta["upstream"] == {u: metas[u]["key"] for u in upstream}

    def test_missing_artifact_names_required_stage(self, tiny_pipeline, tmp_path):
        _, cfg, _ = tiny_pipeline
        ws = pipeline.Workspace(cfg, tmp_path / "fresh")
        with pytest.raises(pipeline.MissingArtifactError, match="ingest"):
            pipeline.run_embed(ws)

    def test_evaluate_before_train_next_names_it(self, tiny_pipeline, tmp_path):
        _, cfg, ws_full = tiny_pipeline
        ws = _partial_workspace(ws_full, cfg, tmp_path / "partial")
        with pytest.raises(pipeline.MissingArtifactError, match="train-next"):
            pipeline.run_evaluate(ws)

    def test_ablate_artifact(self, tiny_pipeline):
        _, cfg, ws = tiny_pipeline
        path = pipeline.run_ablate(ws)
        payload = json.loads((path / "ablation.json").read_text())
        assert set(payload) >= {"with_context", "ablation", "t_test",
                                "mrr_ratio", "seeds"}
        assert len(payload["with_context"]["repetitions"]) == cfg.repetitions
        assert 0.0 <= payload["t_test"]["mrr"]["p"] <= 1.0

    def test_ablate_zero_recall_arm_writes_null_ratio(self, tiny_pipeline,
                                                      tmp_path, monkeypatch):
        _, cfg, ws_full = tiny_pipeline
        ws = _partial_workspace(ws_full, cfg, tmp_path / "zero-recall")
        real = next_mod.compute_ranks

        def ranks(model, corpus, examples, ctx_topk):
            out = real(model, corpus, examples, ctx_topk)
            # the ablation arm ranks every true item just outside the top 10
            return out if model.mode == next_mod.WITH_CONTEXT else np.full_like(out, 11)

        monkeypatch.setattr(next_mod, "compute_ranks", ranks)
        path = pipeline.run_ablate(ws)
        payload = json.loads((path / "ablation.json").read_text())
        assert payload["ablation"]["mean"]["recall_at_10"] == 0.0
        assert payload["recall_ratio"] is None
        assert payload["mrr_ratio"] == (payload["with_context"]["mean"]["mrr"]
                                        / payload["ablation"]["mean"]["mrr"])

    def test_ablate_reuses_train_next_models(self, tiny_pipeline, tmp_path,
                                             monkeypatch):
        _, cfg, ws_full = tiny_pipeline
        ws = _partial_workspace(ws_full, cfg, tmp_path / "reuse", (
            "ingest", "embed", "contextualize", "train-context", "train-next",
            "evaluate"))
        real = next_mod.train_next
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[0].mode)
            return real(*args, **kwargs)

        monkeypatch.setattr(next_mod, "train_next", counting)
        path = pipeline.run_ablate(ws)
        # the with-context arm is the published evaluate report, so only the
        # ablation arm trains: its train-next model, then repetitions 1..R-1
        assert calls == [next_mod.ABLATION] * cfg.repetitions
        assert ws.stage_dir("train-next-ablation").is_dir()
        assert ws.stage_dir("evaluate-ablation").is_dir()
        payload = json.loads((path / "ablation.json").read_text())
        metrics = json.loads((ws.stage_dir("evaluate") / "metrics.json").read_text())
        assert payload["with_context"] == metrics

    def test_ablate_after_both_evaluates_trains_and_ranks_nothing(
            self, tiny_pipeline, tmp_path, monkeypatch):
        _, cfg, ws_full = tiny_pipeline
        ws = _partial_workspace(ws_full, cfg, tmp_path / "readme-order")
        first = (pipeline.run_ablate(ws) / "ablation.json").read_bytes()
        shutil.rmtree(ws.stage_dir("ablate"))
        calls = []
        for name in ("train_next", "compute_ranks"):
            monkeypatch.setattr(next_mod, name,
                                lambda *args, name=name, **kw: calls.append(name))
        assert (pipeline.run_ablate(ws) / "ablation.json").read_bytes() == first
        assert calls == []

    def test_next_model_loads_without_corpus(self, tiny_pipeline, monkeypatch):
        _, _, ws = tiny_pipeline

        def no_corpus(ws):
            raise AssertionError("load_next_model read the corpus")

        ck = load_checkpoint(ws.stage_dir("train-next") / "nextitem.ckpt")
        monkeypatch.setattr(pipeline, "load_ingested", no_corpus)
        model = pipeline.load_next_model(ws)
        for p in model.params():
            assert np.array_equal(p.value, ck.tensors[p.name])

    def test_contexts_read_stored_embeddings_only(self, tiny_pipeline, tmp_path,
                                                  monkeypatch):
        _, cfg, ws_full = tiny_pipeline
        ws = _partial_workspace(ws_full, cfg, tmp_path / "no-encoder",
                                ("ingest", "embed"))
        (ws.stage_dir("embed") / "encoder.ckpt").unlink()

        def no_graph(corpus):
            raise AssertionError("the graph was rebuilt")

        monkeypatch.setattr(pipeline.graph_mod, "build_graph_from_corpus", no_graph)
        for run, stage, name in [(pipeline.run_contextualize, "contextualize",
                                  "contexts.npz"),
                                 (pipeline.run_train_context, "train-context",
                                  "predictions.npz")]:
            got = np.load(run(ws) / name)
            want = np.load(ws_full.stage_dir(stage) / name)
            assert sorted(got.files) == sorted(want.files)
            for key in want.files:
                assert np.array_equal(got[key], want[key]), key

    def test_failed_stage_publishes_nothing(self, tiny_pipeline, tmp_path,
                                            monkeypatch):
        _, cfg, ws_full = tiny_pipeline
        ws = _partial_workspace(ws_full, cfg, tmp_path / "crash",
                                ("ingest", "embed"))
        real = pipeline.np.savez

        def write_then_crash(path, *args, **kwargs):
            real(path, *args, **kwargs)
            if Path(path).name == "contexts.npz":
                raise RuntimeError("crash after the stage's files are written")

        monkeypatch.setattr(pipeline.np, "savez", write_then_crash)
        with pytest.raises(RuntimeError, match="crash"):
            pipeline.run_contextualize(ws)
        assert not ws.stage_dir("contextualize").exists()
        assert not [p.name for p in ws.workdir.iterdir() if ".tmp-" in p.name]
        with pytest.raises(pipeline.MissingArtifactError, match="contextualize"):
            pipeline.load_contexts(ws)

        monkeypatch.undo()
        path = pipeline.run_contextualize(ws)
        assert path == ws.stage_dir("contextualize")
        assert [p.name for p in ws.workdir.iterdir()
                if p.name.startswith("contextualize")] == [path.name]
        got = np.load(path / "contexts.npz")
        want = np.load(ws_full.stage_dir("contextualize") / "contexts.npz")
        for key in want.files:
            assert np.array_equal(got[key], want[key]), key

    def test_killed_build_is_removed_on_rerun(self, tiny_pipeline, tmp_path):
        _, cfg, ws_full = tiny_pipeline
        ws = _partial_workspace(ws_full, cfg, tmp_path / "killed", ("ingest", "embed"))
        # a build dir of a live process (the parent of this one) is left alone
        live = ws.workdir / f"{ws.stage_dir('contextualize').name}.tmp-{os.getppid()}"
        live.mkdir()
        script = textwrap.dedent("""
            import json, os, signal, sys
            from ctxrec import pipeline
            from ctxrec.config import PipelineConfig
            ws = pipeline.Workspace(PipelineConfig(**json.loads(sys.argv[1])), sys.argv[2])
            real = pipeline.np.savez
            def write_then_die(path, *args, **kwargs):
                real(path, *args, **kwargs)
                if path.name == "contexts.npz":
                    os.kill(os.getpid(), signal.SIGKILL)
            pipeline.np.savez = write_then_die
            pipeline.run_contextualize(ws)
        """)
        src = str(Path(pipeline.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
        proc = subprocess.run([sys.executable, "-c", script, json.dumps(TINY_CFG),
                               str(ws.workdir)], env=env)
        assert proc.returncode == -signal.SIGKILL
        (killed,) = [p for p in ws.workdir.iterdir() if ".tmp-" in p.name and p != live]
        assert (killed / "contexts.npz").exists()
        assert not (killed / "meta.json").exists()
        assert not ws.stage_dir("contextualize").exists()

        path = pipeline.run_contextualize(ws)
        assert path == ws.stage_dir("contextualize")
        assert [p for p in ws.workdir.iterdir() if ".tmp-" in p.name] == [live]

    def test_missing_upstream_leaves_no_build_dir(self, tiny_pipeline, tmp_path):
        _, cfg, ws_full = tiny_pipeline
        ws = _partial_workspace(ws_full, cfg, tmp_path / "no-embed", ("ingest",))
        with pytest.raises(pipeline.MissingArtifactError, match="embed"):
            pipeline.run_contextualize(ws)
        assert [p.name for p in ws.workdir.iterdir()] == [ws.stage_dir("ingest").name]

    def test_reused_stages_load_no_inputs(self, tiny_pipeline, monkeypatch):
        _, _, ws = tiny_pipeline
        calls = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapper

        for name in ("load_corpus", "load_checkpoint"):
            monkeypatch.setattr(pipeline, name, counted(name, getattr(pipeline, name)))
        for run, stage in [(pipeline.run_embed, "embed"),
                           (pipeline.run_contextualize, "contextualize"),
                           (pipeline.run_train_context, "train-context"),
                           (pipeline.run_evaluate, "evaluate")]:
            assert run(ws) == ws.stage_dir(stage)
            assert calls == [], stage

    def test_truncated_meta_named(self, tiny_pipeline, tmp_path):
        _, cfg, ws_full = tiny_pipeline
        ws = _partial_workspace(ws_full, cfg, tmp_path / "truncated", ("ingest",))
        meta = ws.stage_dir("ingest") / "meta.json"
        meta.write_text(meta.read_text()[:40])
        with pytest.raises(pipeline.PipelineError, match="unreadable .*meta.json"):
            pipeline.load_ingested(ws)
        with pytest.raises(pipeline.PipelineError, match="unreadable .*meta.json"):
            pipeline.run_ingest(ws, ws_full.workdir.parent / "log.csv")

    def test_wrong_shaped_checkpoint_tensor_named(self, tiny_pipeline, tmp_path):
        tmp, cfg, _ = tiny_pipeline
        workdir = tmp_path / "reshaped"
        shutil.copytree(tmp / "work", workdir)
        ws = pipeline.Workspace(cfg, workdir)
        path = ws.stage_dir("train-next") / "nextitem.ckpt"
        ck = load_checkpoint(path)
        # one row where the model expects (num_items, in_dim): assigning it
        # in place would broadcast without an error
        ck.tensors["next.fc2.weight"] = ck.tensors["next.fc2.weight"][0]
        save_checkpoint(path, ck.tensors, ck.config)
        with pytest.raises(ValueError, match="next.fc2.weight"):
            pipeline.load_next_model(ws)

    # each stored model: its stage and file, the stages its loader reads, and
    # the loader, reduced to the model
    MODELS = [("embed", "encoder.ckpt", ("ingest", "embed"),
               lambda ws: pipeline.load_encoder(ws)[2]),
              ("train-context", "predictor.ckpt",
               ("ingest", "embed", "contextualize", "train-context"),
               lambda ws: pipeline.load_context_predictor(ws)[0]),
              ("train-next", "nextitem.ckpt", ("train-next",),
               lambda ws: pipeline.load_next_model(ws))]

    def _damage_checkpoints(self, tiny_pipeline, workdir, damage, error=""):
        """Damage each stored model's checkpoint in its own copy of the
        stages that its loader reads, and check the load names the file,
        then ``error``."""
        _, cfg, ws_full = tiny_pipeline
        for stage, name, stages, loader in self.MODELS:
            ws = _partial_workspace(ws_full, cfg, workdir / stage, stages)
            path = ws.stage_dir(stage) / name
            damage(path)
            with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {error}"):
                loader(ws)

    @pytest.mark.parametrize("cut", [2 / 3, 0.01], ids=["two-thirds", "in-header"])
    def test_cut_checkpoint_named(self, tiny_pipeline, tmp_path, cut):
        def truncate(path):
            path.write_bytes(path.read_bytes()[:int(path.stat().st_size * cut)])
        self._damage_checkpoints(tiny_pipeline, tmp_path, truncate)

    @pytest.mark.parametrize("damage", ["deleted", "payload-bit"])
    def test_lost_or_flipped_checkpoint_named(self, tiny_pipeline, tmp_path, damage):
        def flip(path):  # a bit in the middle of the file, inside the values
            data = bytearray(path.read_bytes())
            data[len(data) // 2] ^= 1
            path.write_bytes(data)
        self._damage_checkpoints(tiny_pipeline, tmp_path,
                                 Path.unlink if damage == "deleted" else flip)

    def test_older_format_checkpoint_named(self, tiny_pipeline, tmp_path):
        """A checkpoint in the NNCK container of older workdirs is named as
        an older format, with the advice to use a fresh workdir."""
        self._damage_checkpoints(tiny_pipeline, tmp_path,
                                 lambda path: path.write_bytes(nnck_checkpoint_bytes()),
                                 "unreadable older format.*use a fresh workdir$")

    def test_models_load_without_drawing_an_init(self, tiny_pipeline, monkeypatch):
        _, _, ws = tiny_pipeline

        def no_rng(*args, **kwargs):
            raise AssertionError("a generator was made to load a model")

        monkeypatch.setattr(np.random, "default_rng", no_rng)
        for stage, name, _, loader in self.MODELS:
            model = loader(ws)
            ck = load_checkpoint(ws.stage_dir(stage) / name)
            assert sorted(p.name for p in model.params()) == sorted(ck.tensors), stage
            for p in model.params():
                assert p.value.tobytes() == ck.tensors[p.name].tobytes(), p.name

    def test_stray_tmp_sibling_left_alone(self, tiny_pipeline, tmp_path):
        _, cfg, ws_full = tiny_pipeline
        ws = _partial_workspace(ws_full, cfg, tmp_path / "stray", ("ingest", "embed"))
        stray = ws.workdir / f"{ws.stage_dir('contextualize').name}.tmp-123.bak"
        stray.mkdir()
        assert pipeline.run_contextualize(ws) == ws.stage_dir("contextualize")
        assert stray.is_dir()

    @pytest.mark.parametrize("damage", ["cut", "no-probs", "one-dim", "columns", "nan"])
    def test_damaged_predictions_named(self, tiny_pipeline, tmp_path, capsys, damage):
        _, cfg, ws_full = tiny_pipeline
        ws = _partial_workspace(ws_full, cfg, tmp_path / damage)
        path = ws.stage_dir("train-context") / "predictions.npz"
        probs = np.load(path)["probs"]
        if damage == "cut":
            path.write_bytes(path.read_bytes()[:path.stat().st_size // 2])
        else:
            nan = probs.copy()
            nan[3, 1] = np.nan
            np.savez(path, **{"no-probs": {"topk_probs": probs},
                              "one-dim": {"probs": probs[:, 0]},
                              "columns": {"probs": probs[:, 1:]},
                              "nan": {"probs": nan}}[damage])
        with pytest.raises(ValueError, match=re.escape(str(path))):
            pipeline.load_context_predictor(ws)
        assert main(["export", "--workdir", str(ws.workdir), "--what", "context-predictions",
                     "--out", str(tmp_path / "preds.csv")] + _tiny_cfg_flags()) == 1
        assert str(path) in capsys.readouterr().err

    @pytest.mark.parametrize("winner", ["same-stage", "mismatched"])
    def test_lost_publish_race_reuses_a_matching_winner(self, tiny_pipeline, tmp_path,
                                                        winner):
        _, cfg, ws_full = tiny_pipeline
        ws = _partial_workspace(ws_full, cfg, tmp_path / "race", ("ingest", "embed"))
        won = ws_full.stage_dir("contextualize")
        published = ws.stage_dir("contextualize")

        def body(path, stage_cfg):
            # another process publishes the same stage while this one builds it
            shutil.copytree(won, published)
            if winner == "mismatched":
                meta = json.loads((published / "meta.json").read_text())
                meta["fields"]["seed"] += 1
                (published / "meta.json").write_text(json.dumps(meta))
            (path / "contexts.npz").write_bytes(b"the losing build")
            return {}

        if winner == "mismatched":
            with pytest.raises(pipeline.PipelineError, match="mismatched"):
                ws.run("contextualize", body)
        else:
            assert ws.run("contextualize", body) == published
            assert pipeline.load_contexts(ws)[1].tobytes() == \
                pipeline.load_contexts(ws_full)[1].tobytes()
        assert (published / "contexts.npz").read_bytes() == (won / "contexts.npz").read_bytes()
        assert not [p for p in ws.workdir.iterdir() if ".tmp-" in p.name]

    def test_stored_probabilities_match_per_prefix_oracle(self, tiny_pipeline):
        _, cfg, ws = tiny_pipeline
        corpus = pipeline.load_ingested(ws)
        features = pred_mod.build_session_features(corpus, pipeline.load_embeddings(ws)[0])
        model, topk_ids, topk_probs = pipeline.load_context_predictor(ws)
        probs = np.load(ws.stage_dir("train-context") / "predictions.npz")["probs"]
        ref_ids, ref_probs = reference_models.predict_all_prefixes(
            model, corpus, features, cfg.top_k_contexts)
        assert pred_mod.top_k_rows(probs, cfg.top_k_contexts).tobytes() == ref_ids.tobytes()
        assert topk_ids.tobytes() == ref_ids.tobytes()
        assert topk_probs.tobytes() == np.take_along_axis(probs, ref_ids, axis=1).tobytes()
        assert np.abs(topk_probs - ref_probs).max() < 1e-10

    def test_old_format_ingest_dir_refused(self, tiny_pipeline, tmp_path, capsys):
        tmp, cfg, ws_full = tiny_pipeline
        ws = _partial_workspace(ws_full, cfg, tmp_path / "old", ("ingest",))
        ingest = ws.stage_dir("ingest")
        (ingest / "corpus.npz").rename(ingest / "corpus.jsonl")
        with pytest.raises(pipeline.PipelineError,
                           match=f"{re.escape(str(ingest))} holds no corpus.npz"):
            pipeline.run_ingest(ws, tmp / "log.csv")
        with pytest.raises(ValueError, match=re.escape(str(ingest / "corpus.npz"))):
            pipeline.load_ingested(ws)
        assert main(["ingest", "--workdir", str(ws.workdir), "--input", str(tmp / "log.csv")]
                    + _tiny_cfg_flags()) == 1
        assert str(ingest) in capsys.readouterr().err
        assert sorted(p.name for p in ws.workdir.iterdir()) == [ingest.name]
        assert sorted(p.name for p in ingest.iterdir()) == ["corpus.jsonl", "meta.json"]

    @pytest.mark.parametrize("stage, name, command", [
        ("embed", "embeddings.npz", "contextualize"),
        ("contextualize", "contexts.npz", "train-context"),
    ])
    def test_cut_stage_arrays_named(self, tiny_pipeline, tmp_path, capsys, stage, name,
                                    command):
        _, cfg, ws_full = tiny_pipeline
        chain = ("ingest", "embed", "contextualize")
        ws = _partial_workspace(ws_full, cfg, tmp_path / "cut",
                                chain[:chain.index(stage) + 1])
        path = ws.stage_dir(stage) / name
        path.write_bytes(path.read_bytes()[:path.stat().st_size // 2])
        loader = {"embed": pipeline.load_embeddings, "contextualize": pipeline.load_contexts}
        with pytest.raises(ValueError, match=re.escape(str(path))):
            loader[stage](ws)
        assert main([command, "--workdir", str(ws.workdir)] + _tiny_cfg_flags()) == 1
        assert str(path) in capsys.readouterr().err

    def test_next_item_stages_build_no_context_predictor(self, tiny_pipeline, tmp_path,
                                                         monkeypatch):
        _, cfg, ws_full = tiny_pipeline
        ws = _partial_workspace(ws_full, cfg, tmp_path / "no-predictor")
        (ws.stage_dir("train-context") / "predictor.ckpt").unlink()

        def no_predictor(*args, **kwargs):
            raise AssertionError("a context predictor was built")

        monkeypatch.setattr(pred_mod.ContextPredictor, "__init__", no_predictor)
        for stage, run in [("train-next", pipeline.run_train_next),
                           ("evaluate", pipeline.run_evaluate)]:
            name = {"train-next": "nextitem.ckpt", "evaluate": "metrics.json"}[stage]
            assert (run(ws) / name).read_bytes() == \
                (ws_full.stage_dir(stage) / name).read_bytes()
        # the exports of predictions.npz read no predictor.ckpt either
        for what in ("context-predictions", "ranked-lists"):
            outs = [tmp_path / f"{what}-{side}.out" for side in ("partial", "full")]
            for workspace, out in zip((ws, ws_full), outs):
                assert main(["export", "--workdir", str(workspace.workdir), "--what", what,
                             "--out", str(out)] + _tiny_cfg_flags()) == 0
            assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_ablation_arm_builds_from_ingest_alone(self, tiny_pipeline, tmp_path):
        _, cfg, ws_full = tiny_pipeline
        pipeline.run_evaluate(ws_full, ablation=True)
        ws = _partial_workspace(ws_full, cfg, tmp_path / "ingest-only", ("ingest",))
        wd = ["--workdir", str(ws.workdir)] + _tiny_cfg_flags()
        assert main(["train-next", "--ablation"] + wd) == 0
        assert main(["evaluate", "--ablation"] + wd) == 0
        for stage, name in [("train-next-ablation", "nextitem.ckpt"),
                            ("evaluate-ablation", "metrics.json")]:
            assert (ws.stage_dir(stage) / name).read_bytes() == \
                (ws_full.stage_dir(stage) / name).read_bytes()
        assert {p.name.rsplit("-", 1)[0] for p in ws.workdir.iterdir()} == {
            "ingest", "train-next-ablation", "evaluate-ablation"}

    def test_ablation_train_and_evaluate_stages(self, tiny_pipeline):
        _, _, ws = tiny_pipeline
        pipeline.run_train_next(ws, ablation=True)
        path = pipeline.run_evaluate(ws, ablation=True)
        metrics = json.loads((path / "metrics.json").read_text())
        assert metrics["mode"] == "ablation"
        assert path.name.startswith("evaluate-ablation")


class TestStageKeys:
    @pytest.mark.parametrize("field, value, kept", [
        ("patience", 3, {"ingest", "embed", "contextualize"}),
        ("graph_epochs", 5, {"ingest", "train-next-ablation", "evaluate-ablation"}),
        ("context_dim", 6, {"ingest", "embed", "contextualize", "train-context"}),
        ("top_k_contexts", 1, {"ingest", "embed", "contextualize", "train-context",
                               "train-next-ablation", "evaluate-ablation"}),
    ])
    def test_changed_field_rekeys_only_stages_that_depend_on_it(
            self, tmp_path, field, value, kept):
        cfg = PipelineConfig(**TINY_CFG)
        a = pipeline.Workspace(cfg, tmp_path)
        b = pipeline.Workspace(cfg.replace(**{field: value}), tmp_path)
        stages = [s for s in pipeline.STAGES if s != "sweep"]
        assert {s for s in stages if a.stage_dir(s) == b.stage_dir(s)} == kept

    def test_reused_ablation_arm_names_only_the_active_config(self, tiny_pipeline, tmp_path):
        # graph_epochs rekeys the with-context arm but not the ablation arm,
        # whose report the second ablate reuses
        _, cfg, ws_full = tiny_pipeline
        first = _partial_workspace(ws_full, cfg, tmp_path / "work")
        pipeline.run_ablate(first)
        second = pipeline.Workspace(cfg.replace(graph_epochs=cfg.graph_epochs + 1),
                                    first.workdir)
        pipeline.run_embed(second)
        pipeline.run_contextualize(second)
        pipeline.run_train_context(second)
        assert second.stage_dir("evaluate-ablation") == first.stage_dir("evaluate-ablation")
        text = (pipeline.run_ablate(second) / "ablation.json").read_text()
        assert set(re.findall(r"[0-9a-f]{64}", text)) == {second.config_hash}

    def test_top_k_sweep_trains_the_context_predictor_once(self, tmp_path, monkeypatch):
        log = tmp_path / "log.csv"
        generate(SynthSpec(**TINY), log)
        ws = pipeline.Workspace(PipelineConfig(**TINY_CFG), tmp_path / "work")
        real = pipeline.pred_mod.train_context
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(pipeline.pred_mod, "train_context", counting)
        pipeline.run_sweep(ws, "top_k_contexts", [1, 2], log)
        assert len(list(ws.workdir.glob("train-context-*"))) == 1
        assert len(list(ws.workdir.glob("train-next-*"))) == 2
        assert len(calls) == 1

    def test_evaluate_and_ablate_keys_cover_every_field(self):
        # their artifacts record the full config's hash, which must not go
        # stale while their key stays the same
        def read(stage):
            fields, upstream = pipeline.STAGES[stage]
            return set(fields).union(*(read(u) for u in upstream))

        every = {f.name for f in dataclasses.fields(PipelineConfig)}
        for stage in ("evaluate", "ablate"):
            assert read(stage) == every, stage
        # the ablation arm reads no context prediction, so none of the fields
        # that only the embeddings, the contexts or the top-K ids depend on
        assert every - read("evaluate-ablation") == {
            "session_emb_dim", "graph_base_dim", "graph_lr", "graph_epochs", "graph_batch",
            "graph_fanout1", "graph_fanout2", "graph_negatives", "kmeans_max_iters",
            "kmeans_n_init", "top_k_contexts"}

    def test_undeclared_field_read_fails(self, tiny_pipeline, tmp_path, monkeypatch):
        _, cfg, ws_full = tiny_pipeline
        fields, upstream = pipeline.STAGES["embed"]
        monkeypatch.setitem(pipeline.STAGES, "embed",
                            (tuple(f for f in fields if f != "clip_norm"), upstream))
        ws = _partial_workspace(ws_full, cfg, tmp_path / "undeclared", ("ingest",))
        with pytest.raises(AttributeError, match="'embed' reads config field 'clip_norm'"):
            pipeline.run_embed(ws)
        assert [p.name for p in ws.workdir.iterdir()] == [ws.stage_dir("ingest").name]


class TestCli:
    def test_synth_and_full_chain_exit_codes(self, tmp_path, capsys):
        log = tmp_path / "log.csv"
        args = ["synth", "--out", str(log), "--sidecar", str(tmp_path / "s.json")]
        for key, value in TINY.items():
            args += ["--" + key.replace("_", "-"), str(value)]
        assert main(args) == 0

        wd = str(tmp_path / "work")
        flags = _tiny_cfg_flags()
        assert main(["ingest", "--workdir", wd, "--input", str(log)] + flags) == 0
        assert main(["embed", "--workdir", wd] + flags) == 0
        assert main(["contextualize", "--workdir", wd] + flags) == 0
        assert main(["train-context", "--workdir", wd] + flags) == 0
        assert main(["train-next", "--workdir", wd] + flags) == 0
        assert main(["evaluate", "--workdir", wd] + flags) == 0
        out = tmp_path / "emb.csv"
        assert main(["export", "--workdir", wd, "--what", "embeddings",
                     "--out", str(out)] + flags) == 0
        assert out.exists()

    def test_export_renders_csvs_from_stored_arrays(self, tiny_pipeline, tmp_path):
        _, _, ws = tiny_pipeline
        corpus = pipeline.load_ingested(ws)
        embeddings = np.load(ws.stage_dir("embed") / "embeddings.npz")["embeddings"]
        contexts = np.load(ws.stage_dir("contextualize") / "contexts.npz")
        probs = np.load(ws.stage_dir("train-context") / "predictions.npz")["probs"]

        def export(what):
            out = tmp_path / f"{what}.csv"
            assert main(["export", "--workdir", str(ws.workdir), "--what", what,
                         "--out", str(out)] + _tiny_cfg_flags()) == 0
            header, *rows = out.read_text().splitlines()
            return header.split(","), [row.split(",") for row in rows]

        def exact(text, value):
            return np.float64(float(text)).tobytes() == np.float64(value).tobytes()

        header, rows = export("embeddings")
        assert header == ["session_id", "split"] + [f"c{k}" for k in range(8)]
        assert [int(r[0]) for r in rows] == [s.session_id for s in corpus.sessions]
        for r in rows:
            sid = int(r[0])
            assert r[1] == session_split(corpus, sid)
            assert all(exact(v, e) for v, e in zip(r[2:], embeddings[sid], strict=True))

        header, rows = export("clusters")
        labels = contexts["labels"]
        assert header == ["session_id", "context_id", "distance_to_center"]
        assert [int(r[0]) for r in rows] == [s.session_id for s in corpus.sessions
                                            if labels[s.session_id] >= 0]
        for sid, c, dist in rows:
            assert int(c) == labels[int(sid)]
            want = np.linalg.norm(embeddings[int(sid)] - contexts["centers"][int(c)])
            assert exact(dist, want)

        header, rows = export("context-predictions")
        assert header == ["session_id", "prefix_len", "context_0", "context_1",
                          "prob_0", "prob_1"]
        assert [(int(r[0]), int(r[1])) for r in rows] == list(
            zip(corpus.session_of, corpus.position_of))
        for r, p in zip(rows, probs, strict=True):
            ids = np.sort(np.argsort(-p, kind="stable")[:2])
            assert [int(c) for c in r[2:4]] == ids.tolist()
            assert all(exact(v, p[c]) for v, c in zip(r[4:], ids, strict=True))

        assert not [p for p in ws.workdir.rglob("*.csv")]

    def test_evaluate_without_train_next_fails_with_name(self, tmp_path, capsys):
        log = tmp_path / "log.csv"
        generate(SynthSpec(**TINY), log)
        wd = str(tmp_path / "work")
        flags = _tiny_cfg_flags()
        for stage in ["ingest", "embed", "contextualize", "train-context"]:
            extra = ["--input", str(log)] if stage == "ingest" else []
            assert main([stage, "--workdir", wd] + extra + flags) == 0
        assert main(["evaluate", "--workdir", wd] + flags) == 1
        assert "train-next" in capsys.readouterr().err

    def test_os_errors_fail_with_one_line(self, tmp_path, capsys):
        """An input that is a directory, or a workdir under a regular file,
        exits 1 with one ``error:`` line naming the path."""
        regular = tmp_path / "file"
        regular.write_text("")
        for workdir, log, named in [(tmp_path / "work", tmp_path, tmp_path),
                                    (regular / "work", regular, regular / "work")]:
            assert main(["ingest", "--workdir", str(workdir), "--input", str(log)]
                        + _tiny_cfg_flags()) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1, err
            assert f"'{named}'" in err, err

    def test_malformed_row_names_its_file(self, tmp_path, capsys):
        """A bad row's error, and its warning under ``--on-error skip``,
        name the log beside the line."""
        generate(SynthSpec(**TINY), tmp_path / "log.csv")
        first, *rest = (tmp_path / "log.csv").read_bytes().splitlines(keepends=True)
        log = tmp_path / "bad.csv"
        log.write_bytes(b"".join([first, b"1,\xff9,4\n", *rest]))
        wd = tmp_path / "work"
        args = ["ingest", "--workdir", str(wd), "--input", str(log)] + _tiny_cfg_flags()
        assert main(args) == 1
        assert capsys.readouterr().err == f"error: {log}: line 2: byte 0xff is not UTF-8\n"
        assert not any(wd.iterdir())
        with pytest.warns(UserWarning, match=re.escape(
                f"skipping malformed row: {log}: line 2: byte 0xff is not UTF-8")):
            assert main(args + ["--on-error", "skip"]) == 0
        assert [p.name.rsplit("-", 1)[0] for p in wd.iterdir()] == ["ingest"]

    @pytest.mark.parametrize("rows, train, test", [
        ([], 0, 0),
        (["u,i,1"], 0, 1),
        # a user's second of two interactions is test and the first val
        (["a,x,1", "a,y,2", "b,x,1", "b,y,2", "c,x,5"], 0, 3),
    ], ids=["empty", "one-interaction", "no-train"])
    def test_ingest_refuses_a_corpus_with_no_train_or_test(self, tmp_path, capsys, rows,
                                                           train, test):
        log = tmp_path / "log.csv"
        log.write_text("".join(row + "\n" for row in rows))
        wd = tmp_path / "work"
        assert main(["ingest", "--workdir", str(wd), "--input", str(log),
                     "--min-user-interactions", "1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {log}: ") and err.count("\n") == 1, err
        assert f"{train} train and {test} test interactions" in err, err
        assert not any(wd.iterdir())

    def test_bad_config_fails_before_work(self, tmp_path, capsys):
        wd = tmp_path / "work"
        rc = main(["ingest", "--workdir", str(wd), "--input", "missing.csv",
                   "--num-contexts", "2", "--top-k-contexts", "5"])
        assert rc == 1
        assert "top_k_contexts" in capsys.readouterr().err
        assert not any(wd.iterdir()) if wd.exists() else True

    def test_sweep_grid_produces_one_row_per_value(self, tmp_path, monkeypatch):
        log = tmp_path / "log.csv"
        generate(SynthSpec(**TINY), log)
        wd = str(tmp_path / "work")
        sweep_cfg = []
        for key, value in {**TINY_CFG, "top_k_contexts": 1}.items():
            sweep_cfg += ["--" + key.replace("_", "-"), str(value)]
        real = pipeline.graph_mod.train_encoder
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(pipeline.graph_mod, "train_encoder", counting)
        rc = main(["sweep", "--workdir", wd, "--input", str(log),
                   "--param", "num_contexts", "--values", "2,3,4,5,6",
                   ] + sweep_cfg)
        assert rc == 0
        sweep_dirs = list((tmp_path / "work").glob("sweep-num_contexts-*"))
        assert len(sweep_dirs) == 1
        payload = json.loads((sweep_dirs[0] / "sweep.json").read_text())
        assert [row["value"] for row in payload["rows"]] == [2, 3, 4, 5, 6]
        assert len(payload["rows"]) == 5
        # no value changes what ingest and embed read: one encoder for all
        assert len(calls) == 1

        # other values are another sweep, built from the stages already there
        assert main(["sweep", "--workdir", wd, "--input", str(log),
                     "--param", "num_contexts", "--values", "3,5"] + sweep_cfg) == 0
        (other,) = set((tmp_path / "work").glob("sweep-num_contexts-*")) - set(sweep_dirs)
        rows = json.loads((other / "sweep.json").read_text())["rows"]
        assert rows == [payload["rows"][1], payload["rows"][3]]
        assert len(calls) == 1

    def _swept_values(self, tmp_path, monkeypatch, param, raw):
        """The values ``ctxrec sweep --param param --values raw`` hands the
        pipeline, or the exit code when it fails before any stage runs."""
        swept = []

        def run_sweep(ws, param, values, *rest):
            swept.append(values)
            return ws.workdir

        monkeypatch.setattr(pipeline, "run_sweep", run_sweep)
        rc = main(["sweep", "--workdir", str(tmp_path / "work"), "--input", "log.csv",
                   "--param", param, "--values", raw])
        return swept[0] if rc == 0 else rc

    def test_sweep_values_parse_like_config_values(self, tmp_path, monkeypatch):
        lr = self._swept_values(tmp_path, monkeypatch, "lr", "1e-3,0.01")
        assert lr == [1e-3, 0.01] and all(type(v) is float for v in lr)
        dims = self._swept_values(tmp_path, monkeypatch, "user_item_dim", "8,16")
        assert dims == [8, 16] and all(type(v) is int for v in dims)

    def test_float_sweep_value_of_an_int_field_fails_before_work(self, tmp_path,
                                                                 monkeypatch, capsys):
        assert self._swept_values(tmp_path, monkeypatch, "user_dim", "8.0") == 1
        err = capsys.readouterr().err
        assert "user_dim" in err and "'8.0'" in err
        assert not any((tmp_path / "work").iterdir())
