"""Command-line entry point.

Subcommands mirror the pipeline stages plus the synthetic-corpus generator:
synth, ingest, embed, contextualize, train-context, train-next, evaluate,
ablate, sweep, export. Every config key is exposed as a flag of the same
name; a config file supplies defaults below flags and CTXREC_SEED overrides
the seed above everything.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from .cluster import export_clusters_csv
from .config import ConfigError, PipelineConfig, _coerce, resolve_config
from .graph import export_embeddings_csv
from . import pipeline
from .nextitem import export_ranked_lists
from .predictor import export_predictions_csv
from .synth import SynthSpec, generate


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("config overrides")
    for f in dataclasses.fields(PipelineConfig):
        flag = "--" + f.name.replace("_", "-")
        typ = float if f.type in ("float", float) else int
        group.add_argument(flag, dest=f"cfg_{f.name}", type=typ, default=None,
                           help=f"override {f.name} (default {f.default})")
    parser.add_argument("--config", default=None,
                        help="flat key=value config file")


def _stage_parser(sub, name: str, help_text: str,
                  with_input: bool = False) -> argparse.ArgumentParser:
    p = sub.add_parser(name, help=help_text)
    p.add_argument("--workdir", required=True, help="artifact directory")
    if with_input:
        p.add_argument("--input", required=True, help="raw interaction log")
        p.add_argument("--delimiter", default=",")
        p.add_argument("--has-header", action="store_true")
        p.add_argument("--on-error", choices=["abort", "skip"], default="abort")
    _add_config_flags(p)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ctxrec",
        description="Implicit session contexts for next-item recommendation")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a planted-context corpus")
    p.add_argument("--out", required=True, help="raw log output path")
    p.add_argument("--sidecar", default=None, help="planted-label JSON path")
    for f in dataclasses.fields(SynthSpec):
        typ = float if f.type in ("float", float) else int
        p.add_argument("--" + f.name.replace("_", "-"), dest=f"synth_{f.name}",
                       type=typ, default=f.default)

    _stage_parser(sub, "ingest", "parse, filter, sessionize and split a log",
                  with_input=True)
    _stage_parser(sub, "embed", "build the session-item graph and embeddings")
    _stage_parser(sub, "contextualize", "cluster session embeddings into contexts")
    _stage_parser(sub, "train-context", "train the session-context predictor")
    p = _stage_parser(sub, "train-next", "train the next-item predictor")
    p.add_argument("--ablation", action="store_true",
                   help="train without the context block")
    p = _stage_parser(sub, "evaluate", "run the repetition evaluation protocol")
    p.add_argument("--ablation", action="store_true")
    _stage_parser(sub, "ablate", "paired with/without-context comparison")
    p = _stage_parser(sub, "sweep", "grid one hyperparameter", with_input=True)
    p.add_argument("--param", required=True,
                   help="config key to sweep (or user_item_dim for both)")
    p.add_argument("--values", default=None,
                   help="comma-separated grid; defaults depend on --param")
    p = _stage_parser(sub, "export", "render stored artifacts as CSV/JSONL")
    p.add_argument("--what", required=True,
                   choices=["embeddings", "clusters", "context-predictions",
                            "ranked-lists"])
    p.add_argument("--out", required=True)
    return parser


def _config_from_args(args) -> PipelineConfig:
    overrides = {f.name: getattr(args, f"cfg_{f.name}")
                 for f in dataclasses.fields(PipelineConfig)}
    return resolve_config(args.config, overrides)


def _parse_values(param: str, raw: str | None) -> list | None:
    """The comma-separated sweep values, each coerced as a config value of
    ``param`` is (``user_item_dim``'s as ``user_dim``'s)."""
    if raw is None:
        return None
    key = "user_dim" if param == "user_item_dim" else param
    return [_coerce(key, tok.strip()) for tok in raw.split(",")]


def _export(ws: pipeline.Workspace, what: str, out_path: str | Path) -> Path:
    """Render a CSV of the stored embeddings, clusters or context
    predictions, or the JSONL ranked lists, to ``out_path``."""
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    corpus = pipeline.load_ingested(ws)
    if what == "embeddings":
        export_embeddings_csv(out_path, corpus, pipeline.load_embeddings(ws)[0])
    elif what == "clusters":
        centers, labels = pipeline.load_contexts(ws)
        export_clusters_csv(out_path, centers, corpus, labels,
                            pipeline.load_embeddings(ws)[0])
    elif what == "context-predictions":
        export_predictions_csv(out_path, corpus, *pipeline.load_context_topk(ws))
    elif what == "ranked-lists":
        ctx_topk, _ = pipeline.load_context_topk(ws)
        export_ranked_lists(out_path, pipeline.load_next_model(ws), corpus, ctx_topk)
    else:
        raise pipeline.PipelineError(f"unknown export {what!r}")
    return out_path


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "synth":
            spec = SynthSpec(**{f.name: getattr(args, f"synth_{f.name}")
                                for f in dataclasses.fields(SynthSpec)})
            generate(spec, args.out, args.sidecar)
            print(f"wrote {args.out}")
            return 0

        cfg = _config_from_args(args)
        ws = pipeline.Workspace(cfg, args.workdir)
        if args.command == "ingest":
            path = pipeline.run_ingest(ws, args.input, args.delimiter,
                                       args.has_header, args.on_error)
        elif args.command == "sweep":
            path = pipeline.run_sweep(ws, args.param, _parse_values(args.param, args.values),
                                      args.input, args.delimiter, args.has_header)
        elif args.command == "export":
            path = _export(ws, args.what, args.out)
        else:  # a stage whose only option is --ablation, if any
            run = getattr(pipeline, "run_" + args.command.replace("-", "_"))
            path = run(ws, ablation=args.ablation) if "ablation" in args else run(ws)
        print(f"{args.command}: {path}")
        return 0
    except (ConfigError, pipeline.PipelineError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
