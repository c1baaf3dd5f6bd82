#!/usr/bin/env python3
"""Self-test of the benchmark: a short run of every workload, twice.

    python3 perfbench/test_bench.py [workload ...]

Run from the repository root. For each workload it runs perfbench/run.py
once untraced and once traced with the same seed and --seconds 0, so that
each run completes exactly the workload's deterministic job prefix, and
requires:

  * identical determinism digests and identical exact simulated statistics
    (sim_recovery_ticks, sim_msgs_per_task) in both runs;
  * a last line with exactly the keys correct/attempted/failed/metrics,
    with correct true,
    whose metric names and units are those BENCHMARK.json declares for
    end_to_end (untraced) and per_layer (traced);
  * no failure at all.

The outcome of rejoin_shm's known-defect job is printed as it comes.

Exit 0 when every check holds.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SEED = 5
EXACT = ("digest =", "sim_recovery_ticks =", "sim_msgs_per_task =")


def run(workload: str, trace: int) -> tuple[list[str], dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise AssertionError(f"{workload}: run.py exited {proc.returncode}: "
                             f"{proc.stderr.strip()[-1000:]}")
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def check(workload: str, spec: dict) -> list[str]:
    errors = []
    plain_lines, plain = run(workload, 0)
    traced_lines, traced = run(workload, 1)
    for lines, result, table in ((plain_lines, plain, "end_to_end"),
                                 (traced_lines, traced, "per_layer")):
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            errors.append(f"result keys {sorted(result)}")
        if result["attempted"] < 1:
            errors.append("no job attempted")
        if not result["correct"]:
            errors.append("correct is false")
        want = {m["name"]: m["unit"] for m in spec[table]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        if got != want:
            errors.append(f"{table} metrics differ from BENCHMARK.json: "
                          f"{sorted(set(got) ^ set(want))}")
        if result["failed"] != 0:
            errors.append(f"{result['failed']} jobs failed")
        for line in lines:
            if line.startswith("FAILURE"):
                errors.append(line)
            elif line.startswith("known defect:"):
                print(f"  {workload}: {line}")
    for prefix in EXACT:
        a = [l for l in plain_lines if l.startswith(prefix)]
        b = [l for l in traced_lines if l.startswith(prefix)]
        if a != b:
            errors.append(f"not deterministic: {a} vs {b}")
    if not any(l.startswith("digest =") for l in plain_lines):
        errors.append("no digest printed")
    return errors


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = sys.argv[1:] or [w["name"] for w in spec["workloads"]]
    failed = False
    for workload in names:
        errors = check(workload, spec)
        status = "ok" if not errors else "FAIL"
        print(f"{workload}: {status}")
        for error in errors:
            print(f"  {error}")
        failed |= bool(errors)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
