#!/usr/bin/env python3
"""Self-test of the benchmark harness at toy sizes (a few seconds).

    python3 bench/selftest.py

Kept out of the pytest suite on purpose. It asserts that:

- an untraced run prints every end-to-end metric of BENCHMARK.json with its
  unit, and a final JSON line with exactly the contract's keys;
- a deliberately broken served output (ranks off by one) fails the run;
- a quality number that differs from the stored record fails the run;
- a traced run prints every per-layer metric of BENCHMARK.json with its unit.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys

import run  # pins BLAS threads before numpy loads

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _run(trace: int) -> tuple[int, list[str]]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(["--workload", "toy", "--seed", "3", "--seconds", "0",
                         "--trace", str(trace)])
    return code, buf.getvalue().splitlines()


def _assert_reports(lines: list[str], declared: list[dict]) -> dict:
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"result keys {sorted(result)}")
    for m in declared:
        name, unit = m["name"], m["unit"]
        if result["metrics"].get(name, {}).get("unit") != unit:
            raise AssertionError(f"{name} missing or not in {unit}: "
                                 f"{result['metrics'].get(name)}")
        if not any(line.split()[:1] == [name] and line.split()[-1] == unit
                   for line in lines[:-1]):
            raise AssertionError(f"{name} not printed with unit {unit}")
    return result


def main() -> int:
    run.OUT = run.ROOT / ".bench_out" / "selftest"
    shutil.rmtree(run.OUT, ignore_errors=True)
    try:
        code, lines = _run(trace=0)
        result = _assert_reports(lines, BENCHMARK["end_to_end"])
        assert code == 0 and result["correct"] and result["failed"] == 0, lines[-1]
        assert result["attempted"] >= 1000, result["attempted"]

        import harness
        real_rank = harness._rank_of_truth
        harness._rank_of_truth = lambda scores, item: real_rank(scores, item) + 1
        try:
            code, lines = _run(trace=0)
        finally:
            harness._rank_of_truth = real_rank
        result = json.loads(lines[-1])
        assert code != 0 and not result["correct"] and result["failed"] > 0, lines[-1]
        assert any("served ranks differ" in line for line in lines), lines

        (record,) = (run.OUT / "quality").glob("toy-seed3-*.json")
        stored = json.loads(record.read_text())
        stored["quality"]["mrr"] = (0.5).hex()
        record.write_text(json.dumps(stored))
        code, lines = _run(trace=0)
        assert code != 0 and not json.loads(lines[-1])["correct"], lines[-1]
        assert any("quality mrr" in line for line in lines), lines
        record.unlink()

        # last: instrumenting patches ctxrec for the rest of the process
        code, lines = _run(trace=1)
        result = _assert_reports(lines, BENCHMARK["per_layer"])
        assert code == 0 and result["correct"], lines[-1]
    finally:
        shutil.rmtree(run.OUT, ignore_errors=True)
    print("bench selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
