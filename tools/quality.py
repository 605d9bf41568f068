#!/usr/bin/env python3
"""Multi-seed quality report, and a byte-for-byte check of the artifacts.

    python3 tools/quality.py --seeds 7 1 2 3 4 --out quality.json
    python3 tools/quality.py --seeds 7 1 2 3 4 --compare HEAD~1 --out quality.json
    python3 tools/quality.py --seeds 7 4 --null 4

For each pipeline seed it runs the acceptance chain (ingest, embed,
contextualize, train-context, ablate) with the acceptance config
(``ACC_CFG`` in ``tests/test_acceptance.py``, its seed replaced) on the
pinned ``SynthSpec()`` corpus. It records the criterion 6/7 quantities:
cluster purity, top-1 context accuracy, both arms' mean MRR and Recall@10,
``mrr_ratio`` and the one-tailed p of the MRR t-test, and which bars pass.
It also records the sha256 of every file of every published stage, keyed
``<stage>/<file>`` (the stage directory's name without its key), and per
``.ckpt`` file a digest of its tensors: the sha256 of each tensor's name,
shape, dtype and bytes as that tree's ``load_checkpoint`` reads them, so
the digest does not depend on the checkpoint's container format.

``--compare REV`` exports REV's ``src/`` with ``git archive`` into a
temporary directory, runs it on the same seeds and config, and adds paired
per-seed deltas (this checkout minus REV) and, per artifact file, whether
its bytes are identical to REV's, or for a checkpoint whose bytes differ,
whether its tensors are. So ``--seeds 7 --compare REV`` shows in
one command whether a change keeps the acceptance chain byte-identical.

``--null K`` reruns each seed K more times. Run k permutes the examples
inside every training batch with ``np.random.default_rng(1000 + k)``: the
same loss in exact arithmetic, summed in another order. The spread (max -
min) of ``mrr_ratio`` and p over the K + 1 runs is that seed's float-order
noise, and each bar's margin (``mrr_ratio - 1.05``, ``0.05 - p``, of the
unpermuted run) is reported in units of it. With ``--compare`` REV's child
runs them too.

This is a report. Never use it to choose the tier-1 seed, the corpus or a
threshold. Each seed takes about a minute on one core.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import math
import subprocess
import sys
import tarfile
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIELDS = ["purity", "context_acc", "mrr_with", "mrr_ablation", "recall_with",
          "recall_ablation", "mrr_ratio", "p"]
# the bars of acceptance criteria 6 and 7
BARS = {"purity": lambda r: r["purity"] >= 0.9,
        "context_acc": lambda r: r["context_acc"] >= 0.375,
        "mrr_ratio": lambda r: r["mrr_ratio"] is not None and r["mrr_ratio"] >= 1.05,
        "p": lambda r: r["p"] < 0.05}
# criterion 7's bars as margins, positive when a value passes (--null)
MARGINS = {"mrr_ratio": lambda v: v - 1.05, "p": lambda v: 0.05 - v}


def artifact_hashes(work: Path) -> dict[str, str]:
    """sha256 of every file of every published stage (a directory with a
    ``meta.json``) under ``work``, keyed ``<stage>/<file>``."""
    hashes = {}
    for meta in sorted(work.glob("*/meta.json")):
        stage_dir = meta.parent
        stage = stage_dir.name.rsplit("-", 1)[0]
        for path in sorted(stage_dir.rglob("*")):
            if path.is_file():
                hashes[f"{stage}/{path.relative_to(stage_dir)}"] = \
                    hashlib.sha256(path.read_bytes()).hexdigest()
    return hashes


def tensor_digests(work: Path) -> dict[str, str]:
    """Per checkpoint of every published stage under ``work``, keyed as in
    ``artifact_hashes``: the sha256 of each tensor's name, shape, dtype and
    bytes, in name order, as the imported ``load_checkpoint`` reads them."""
    from ctxrec.nn.checkpoint import load_checkpoint
    digests = {}
    for meta in sorted(work.glob("*/meta.json")):
        stage = meta.parent.name.rsplit("-", 1)[0]
        for path in sorted(meta.parent.glob("*.ckpt")):
            tensors = load_checkpoint(path).tensors
            h = hashlib.sha256()
            for name in sorted(tensors):
                t = tensors[name]
                h.update(json.dumps([name, list(t.shape), t.dtype.str]).encode())
                h.update(t.tobytes())
            digests[f"{stage}/{path.name}"] = h.hexdigest()
    return digests


def compare_bytes(here: dict, there: dict) -> dict[str, str]:
    """Per artifact file of two ``measure`` rows: identical, bytes differ
    with identical tensor digests, differs, or missing on one side."""
    files, other = here["artifacts"], there["artifacts"]

    def verdict(name: str) -> str:
        if files.get(name) == other.get(name):
            return "identical"
        if name not in files or name not in other:
            return "only here" if name in files else "only in REV"
        digest = here["tensors"].get(name)
        if digest is not None and digest == there["tensors"].get(name):
            return "bytes differ, tensors identical"
        return "differs"
    return {name: verdict(name) for name in sorted(files.keys() | other.keys())}


def measure(cfg, seed: int, tmp: Path) -> dict:
    """Criterion 6/7 quantities of one pipeline seed on the pinned corpus."""
    import numpy as np
    from ctxrec import pipeline
    from ctxrec.corpus import TEST
    from ctxrec.synth import SynthSpec, generate, planted_labels

    sidecar = generate(SynthSpec(), tmp / "log.csv", tmp / "labels.json")
    ws = pipeline.Workspace(dataclasses.replace(cfg, seed=seed), tmp / "work")
    pipeline.run_ingest(ws, tmp / "log.csv")
    pipeline.run_embed(ws)
    pipeline.run_contextualize(ws)
    pipeline.run_train_context(ws)
    corpus = pipeline.load_ingested(ws)
    _, labels = pipeline.load_contexts(ws)
    planted = planted_labels(sidecar, corpus)
    mask = labels >= 0
    purity = sum(Counter(planted[(labels == c) & mask]).most_common(1)[0][1]
                 for c in set(labels[mask])) / mask.sum()

    _, topk_ids, topk_probs = pipeline.load_context_predictor(ws)
    hits = total = 0
    for k in range(len(corpus.interactions)):
        sid = corpus.session_of[k]
        if corpus.splits[k] != TEST or labels[sid] < 0:
            continue
        hits += int(topk_ids[k][np.argmax(topk_probs[k])] == labels[sid])
        total += 1

    ablation = json.loads((pipeline.run_ablate(ws) / "ablation.json").read_text())
    with_ctx, abl = ablation["with_context"]["mean"], ablation["ablation"]["mean"]
    row = {"purity": float(purity), "context_acc": hits / total,
           "mrr_with": with_ctx["mrr"], "mrr_ablation": abl["mrr"],
           "recall_with": with_ctx["recall_at_10"],
           "recall_ablation": abl["recall_at_10"],
           "mrr_ratio": ablation["mrr_ratio"], "p": ablation["t_test"]["mrr"]["p"]}
    row["passes"] = {name: bool(bar(row)) for name, bar in BARS.items()}
    row["artifacts"] = artifact_hashes(tmp / "work")
    row["tensors"] = tensor_digests(tmp / "work")
    return row


@contextlib.contextmanager
def permuted_batches(k: int):
    """Within this block ``fit`` gets the examples of every training batch
    in an order permuted by ``np.random.default_rng(1000 + k)``. ``fit``
    looks ``_batches`` up at call time, so wrapping it here is enough."""
    import numpy as np
    from ctxrec.nn import optim
    real, rng = optim._batches, np.random.default_rng(1000 + k)

    def batches(*args):
        for idx in real(*args):
            yield rng.permutation(idx)

    optim._batches = batches
    try:
        yield
    finally:
        optim._batches = real


def run_seeds(cfg, seeds: list[int], null: int = 0) -> dict:
    """``measure`` per seed; with ``null`` K, each row's ``null`` also holds
    the ``mrr_ratio`` and p of the K permuted reruns."""
    rows = {}
    for seed in seeds:
        with tempfile.TemporaryDirectory(prefix=f"quality-{seed}-") as tmp:
            row = rows[str(seed)] = measure(cfg, seed, Path(tmp))
        quality = {k: v for k, v in row.items() if k not in ("artifacts", "tensors")}
        print(f"seed {seed}: {json.dumps(quality)}", file=sys.stderr)
        if null:
            row["null"] = {name: [] for name in MARGINS}
        for k in range(1, null + 1):
            with tempfile.TemporaryDirectory(prefix=f"quality-{seed}-null{k}-") as tmp, \
                    permuted_batches(k):
                rerun = measure(cfg, seed, Path(tmp))
            for name in MARGINS:
                row["null"][name].append(rerun[name])
            print(f"seed {seed} null {k}: mrr_ratio {rerun['mrr_ratio']} p {rerun['p']}",
                  file=sys.stderr)
    return rows


def run_rev(rev: str, cfg, seeds: list[int], null: int) -> dict:
    """This script on REV's src/, in a child process, on the same config,
    seeds and ``--null``."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src"],
                         check=True, capture_output=True).stdout
    with tempfile.TemporaryDirectory(prefix="quality-rev-") as tmp:
        with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
            archive.extractall(tmp, filter="data")
        out = Path(tmp) / "rows.json"
        subprocess.run([sys.executable, __file__, "--src", str(Path(tmp) / "src"),
                        "--config", json.dumps(dataclasses.asdict(cfg)),
                        "--seeds", *map(str, seeds), "--null", str(null),
                        "--out", str(out)],
                       check=True, stdout=subprocess.DEVNULL)
        return json.loads(out.read_text())["seeds"]


def table(rows: dict, base: dict | None) -> str:
    lines = ["| seed | " + " | ".join(FIELDS) + " | bars |",
             "|---" * (len(FIELDS) + 2) + "|"]
    for seed, row in rows.items():
        cells = []
        for f in FIELDS:
            cell = f"{row[f]:.4g}" if row[f] is not None else "-"
            if base is not None and row[f] is not None and base[seed][f] is not None:
                cell += f" ({row[f] - base[seed][f]:+.3g})"
            cells.append(cell)
        bars = "pass" if all(row["passes"].values()) else "FAIL " + ",".join(
            k for k, ok in row["passes"].items() if not ok)
        lines.append(f"| {seed} | " + " | ".join(cells) + f" | {bars} |")
    return "\n".join(lines)


def null_table(rows: dict) -> str:
    """Per seed and bar: the K + 1 values (unpermuted first), their spread
    and the unpermuted run's margin to the bar in units of that spread."""
    lines = ["| seed | bar | values | spread | margin | margin / spread |",
             "|---|---|---|---|---|---|"]
    for seed, row in rows.items():
        for name, margin_of in MARGINS.items():
            values = [row[name]] + row["null"][name]
            spread = max(values) - min(values)
            margin = margin_of(row[name])
            units = margin / spread if spread else math.copysign(math.inf, margin)
            lines.append(f"| {seed} | {name} | " + ", ".join(f"{v:.4g}" for v in values)
                         + f" | {spread:.3g} | {margin:+.3g} | {units:+.2f} |")
    return "\n".join(lines)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[7, 1, 2, 3, 4])
    ap.add_argument("--compare", metavar="REV", help="git revision to pair against")
    ap.add_argument("--null", type=int, default=0, metavar="K",
                    help="rerun each seed K times with permuted batch orders")
    ap.add_argument("--out", type=Path, help="write the JSON report here")
    ap.add_argument("--src", type=Path, default=ROOT / "src", help=argparse.SUPPRESS)
    ap.add_argument("--config", help=argparse.SUPPRESS)  # the config as JSON
    args = ap.parse_args()
    sys.path.insert(0, str(args.src))
    import ctxrec
    if Path(ctxrec.__file__).resolve().parent != args.src.resolve() / "ctxrec":
        sys.exit(f"quality: imported ctxrec from {ctxrec.__file__}, not {args.src}")
    if args.config:  # a REV's child process: it does not import this checkout's tests
        from ctxrec.config import PipelineConfig
        cfg = PipelineConfig(**json.loads(args.config))
    else:
        sys.path.insert(1, str(ROOT / "tests"))
        from test_acceptance import ACC_CFG as cfg

    report = {"src": str(args.src), "seeds": run_seeds(cfg, args.seeds, args.null)}
    base = None
    if args.compare:
        base = run_rev(args.compare, cfg, args.seeds, args.null)
        report["compare"] = {
            "rev": args.compare, "seeds": base,
            "delta": {s: {f: (row[f] - base[s][f] if None not in (row[f], base[s][f])
                              else None) for f in FIELDS}
                      for s, row in report["seeds"].items()},
            # a bar that REV passes and this checkout fails
            "regressed": {s: [k for k, ok in row["passes"].items()
                              if not ok and base[s]["passes"][k]]
                          for s, row in report["seeds"].items()},
            "bytes": {s: compare_bytes(row, base[s])
                      for s, row in report["seeds"].items()}}
    if args.out:
        args.out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(table(report["seeds"], base))
    if args.null:
        print(null_table(report["seeds"]))
        if base is not None:
            print(f"{args.compare}:\n{null_table(base)}")
    for seed, files in report.get("compare", {}).get("bytes", {}).items():
        same = sum(v == "identical" for v in files.values())
        print(f"seed {seed}: {same}/{len(files)} artifact files byte-identical to "
              f"{args.compare}")
        for name, verdict in files.items():
            if verdict != "identical":
                print(f"  {verdict}: {name}")
    regressed = any(report.get("compare", {}).get("regressed", {}).values())
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
