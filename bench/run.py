#!/usr/bin/env python3
"""ctxrec benchmark.

    python3 bench/run.py --workload pinned --seed 1 --seconds 55 --trace 0
    python3 bench/run.py --workload all            # each workload in a fresh process

Builds nothing: it imports ``ctxrec`` from ``src/`` of the checkout it sits
in. Each run generates its corpus from ``--seed``, then for ``--seconds``
repeats the pipeline chain and a closed-loop pass serving every interaction,
checks the outputs, and prints one line per metric with its unit followed,
as the last line, by a JSON object ``{correct, attempted, failed, metrics}``.
With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the run wraps ctxrec's public functions in spans and reports per-layer
metrics per iteration instead, and writes the span dump and a self-time
summary.

Records go under ``.bench_out/`` in the checkout: one JSON per run with the
environment and drift record, and one quality record per (program text,
workload, seed) that every later run must match bit for bit.

The process pins OpenBLAS/OpenMP to one thread before numpy loads.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
BENCH_WORKLOADS = ["pinned", "long-wide"]


def _require_program() -> None:
    if not (SRC / "ctxrec" / "__init__.py").is_file():
        sys.exit(f"bench: no ctxrec package under {SRC}; run from a checkout "
                 "of the repository")
    sys.path.insert(0, str(SRC))
    import ctxrec
    if Path(ctxrec.__file__).resolve().parent != SRC / "ctxrec":
        sys.exit(f"bench: imported ctxrec from {ctxrec.__file__}, not {SRC}")


def _write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + f".tmp-{os.getpid()}")
    tmp.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    os.replace(tmp, path)


def _check_quality(path: Path, quality: dict, trace: int,
                   pipeline_s: float) -> tuple[list[str], float | None]:
    """Compare against the stored quality record (bitwise, via float.hex),
    creating it on first use. Returns (mismatches, untraced pipeline_s)."""
    hexed = {k: float(v).hex() for k, v in quality.items()}
    stored = json.loads(path.read_text()) if path.exists() else None
    mismatches = []
    if stored is not None:
        mismatches = [f"quality {k} {hexed[k]} != recorded {v}"
                      for k, v in stored["quality"].items() if hexed.get(k) != v]
    else:
        stored = {"quality": hexed}
    if not trace:
        stored["untraced_pipeline_s"] = pipeline_s
    if not mismatches:
        _write_json(path, stored)
    return mismatches, stored.get("untraced_pipeline_s")


def run_one(workload: str, seed: int, seconds: float, trace: int) -> int:
    _require_program()
    import envinfo
    import harness
    import tracing
    from workloads import WORKLOADS

    wl = WORKLOADS[workload]
    OUT.mkdir(parents=True, exist_ok=True)
    spec = wl.synth_spec(seed, OUT)
    config_hash = wl.config_hash(spec)
    env = envinfo.record(ROOT, workload, config_hash)
    ref_start = envinfo.reference_kernel_ms()

    tracer = None
    if trace:
        tracer = tracing.Tracer()
        tracing.instrument(tracer)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    result = harness.run(wl, spec, seconds, OUT / f"work-{os.getpid()}-{stamp}")
    ref_end = envinfo.reference_kernel_ms()

    pipeline_s = result.metrics["pipeline_s"][0]
    qpath = (OUT / "quality" /
             f"{workload}-seed{seed}-{env['src_sha256'][:16]}-{config_hash[:16]}.json")
    mismatches, untraced_s = _check_quality(qpath, result.quality, trace, pipeline_s)
    failures = result.failures + mismatches
    failed = result.failed + bool(mismatches)

    if tracer is not None:
        metrics = tracing.per_layer_metrics(tracer, result.info["iterations"])
        metrics["trace.pipeline_s"] = (pipeline_s, "s")
        metrics.update({f"quality.{k}": (v, "1") for k, v in result.quality.items()})
        base = OUT / "traces" / f"{workload}-seed{seed}-{tracer.trace_id[:12]}"
        base.parent.mkdir(parents=True, exist_ok=True)
        tracer.dump(base.with_suffix(".npz"))
        tracing.write_summary(tracer, base.with_suffix(".summary.json"), workload)
    else:
        metrics = result.metrics

    run_record = {
        "env": env, "workload": workload, "seed": seed, "generator_seed": spec.seed,
        "seconds": seconds,
        "trace": trace, "reference_kernel_ms": {"start": ref_start, "end": ref_end},
        "end_to_end": {k: {"value": v, "unit": u}
                       for k, (v, u) in result.metrics.items()},
        "per_layer": ({k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
                      if tracer is not None else None),
        "quality_hex": {k: float(v).hex() for k, v in result.quality.items()},
        "info": result.info, "failures": failures,
    }
    _write_json(OUT / "runs" / f"{workload}-seed{seed}-trace{trace}-{stamp}-"
                f"{os.getpid()}.json", run_record)

    print(f"workload {workload}  seed {seed} (generator seed {spec.seed})  "
          f"src {env['src_sha256'][:12]}  config {config_hash[:12]}  "
          f"blas {env['blas']} x{env['blas_threads']}  nproc {env['nproc']}")
    print(f"reference kernel  start {ref_start:.2f} ms  end {ref_end:.2f} ms "
          "(drift record; results are not rescaled)")
    info = result.info
    print(f"{info['iterations']} iterations in {info['run_wall_s']:.1f} s wall, "
          f"{info['cpu_per_wall']:.1%} of it on CPU; timings are CPU seconds, stage "
          f"times medians over the iterations; serving: {info['serve_requests']} "
          f"requests in {info['serve_s']:.2f} s, closed loop, 1 client")
    if tracer is not None:
        layers = tracing.layer_self_s(tracer.summary())
        print(f"self time by layer, all {info['iterations']} iterations: "
              + ", ".join(f"{k} {v:.2f} s" for k, v in layers.items()))
        if untraced_s:
            print(f"trace overhead: pipeline {pipeline_s:.2f} s traced vs "
                  f"{untraced_s:.2f} s untraced ({pipeline_s / untraced_s - 1:+.1%})")
        print(f"span dump: {base.with_suffix('.npz').relative_to(ROOT)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:>14.6g} {unit}")
    if tracer is None:
        print("quality (deterministic per program and seed; checked bit for bit "
              "against the stored record):")
        for name, value in result.quality.items():
            print(f"  {name:40s} {value:>14.6g} 1")
    for problem in failures:
        print(f"CHECK FAILED: {problem}")

    correct = not failures
    print(json.dumps({
        "correct": correct,
        "attempted": result.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Each benchmark workload in its own fresh process."""
    worst = 0
    for workload in BENCH_WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            cwd=ROOT, check=False)
        worst = max(worst, proc.returncode)
    return worst


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="pinned, long-wide, toy (self-test sizes) or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    if args.workload not in BENCH_WORKLOADS + ["toy"]:
        parser.error(f"unknown workload {args.workload!r}")
    return run_one(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
