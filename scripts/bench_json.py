#!/usr/bin/env python3
"""Emit and check the repo's recorded perf trajectory (BENCH_PR9.json).

Emit: runs the E16 throughput + E21 sharded-engine sections of
tab_scalability (and, when present, the BM_SimThroughput /
BM_JournalRecordSharded gates plus the wire-codec benches in
micro_structures), then writes one merged JSON:

    python3 scripts/bench_json.py --bin-dir build/release --out BENCH_PR9.json

Check: compares a freshly emitted JSON against the trajectory checked into
the repo and fails (exit 1) if events/sec regressed by more than the
threshold at any machine size, or if the E21 aggregate events/sec/thread
(the sharded engine's per-worker efficiency, normalized) regressed:

    python3 scripts/bench_json.py --bin-dir build/release \
        --out /tmp/fresh.json --check BENCH_PR9.json

Machines differ, so the guard compares *normalized* throughput: events/sec
divided by a fixed pure-CPU calibration loop's rate measured in the same
binary on the same machine (normalized_events_per_mop). Raw events/sec is
recorded alongside for the trajectory table in EXPERIMENTS.md.

Each JSON holds only the live measurements; the historic baseline blocks
("baseline_pre_pr4", "baseline_prN") stay in the earlier BENCH_PR*.json
files that recorded them. The JSON also carries the E19 link-chaos table
(goodput + reclaim latency under partition-heal and gray-failure churn)
emitted by tab_scalability --perf-json, and a "wire" section with the
codec's bytes/event, bytes/msg, and encode/decode ns/msg measured by
BM_WireBytesPerEvent + BM_CodecEncode/BM_CodecDecode over the
shared-memory ring backend. PR8 adds a "recorder_overhead" section (E20):
throughput with the flight recorder off vs. on, plus the partition-heal
goodput/latency time series summary, emitted by tab_scalability. PR9 adds
the "e21_pdes" section: the sharded engine's thread-scaling curve and the
scheduler x workload matrix at 1 and 8 shards.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile

DEFAULT_DROP_THRESHOLD = 0.20  # fail if normalized events/sec drops > 20%


def run_tab_scalability(bin_dir: str, smoke: bool) -> dict:
    exe = os.path.join(bin_dir, "bench", "tab_scalability")
    if not os.path.exists(exe):
        sys.exit(f"bench binary not found: {exe} (build the release preset)")
    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as tmp:
        path = tmp.name
    try:
        cmd = [exe, "--perf-json", path] + (["--smoke"] if smoke else [])
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    finally:
        os.unlink(path)


def run_micro(bin_dir: str) -> dict:
    """BM_SimThroughput gate: google-benchmark JSON, keyed by bench name.

    Returns {} when the micro_structures binary is absent (google-benchmark
    not installed) — the gate is optional, the trajectory is not.
    """
    exe = os.path.join(bin_dir, "bench", "micro_structures")
    if not os.path.exists(exe):
        return {}
    out = subprocess.run(
        [exe, "--benchmark_filter="
              "BM_SimThroughput|BM_EventQueue|BM_Codec|BM_WireBytesPerEvent"
              "|BM_JournalRecordSharded",
         "--benchmark_min_time=0.05", "--benchmark_format=json"],
        check=True, capture_output=True, text=True).stdout
    data = json.loads(out)
    micro = {}
    counters = ("bytes_per_event", "bytes_per_msg", "encode_ns_per_msg",
                "decode_ns_per_msg", "bytes_per_second")
    for bench in data.get("benchmarks", []):
        entry = {"cpu_time_ns": bench.get("cpu_time")}
        if "items_per_second" in bench:
            entry["items_per_second"] = bench["items_per_second"]
        for key in counters:
            if key in bench:
                entry[key] = bench[key]
        micro[bench["name"]] = entry
    return micro


def wire_section(micro: dict) -> dict:
    """Distil the PR6 wire numbers: bytes/event from the shm-backend run,
    serialization ns/msg from the codec micro benches (ns/msg = 1e9 /
    messages-per-second over the representative traffic mix)."""
    wire = {}
    whole = micro.get("BM_WireBytesPerEvent")
    if whole:
        for key in ("bytes_per_event", "bytes_per_msg", "encode_ns_per_msg",
                    "decode_ns_per_msg"):
            if key in whole:
                wire[key] = round(whole[key], 3)
    for name, field in (("BM_CodecEncode", "codec_encode_ns_per_msg"),
                        ("BM_CodecDecode", "codec_decode_ns_per_msg")):
        bench = micro.get(name, {})
        if bench.get("items_per_second"):
            wire[field] = round(1e9 / bench["items_per_second"], 3)
    return wire


def e21_aggregate(data: dict):
    """Aggregate normalized events/sec/thread across every E21 cell — the
    sharded engine's per-worker efficiency. One number so the guard is not
    hostage to a single noisy cell."""
    rows = data.get("e21_pdes") or []
    vals = [row["normalized_events_per_mop"] / row["shards"]
            for row in rows if row.get("shards")]
    return sum(vals) / len(vals) if vals else None


def check(fresh: dict, baseline_path: str, threshold: float) -> int:
    with open(baseline_path, encoding="utf-8") as f:
        baseline = json.load(f)
    base_rows = {row["procs"]: row for row in baseline["throughput"]}
    failures = []
    for row in fresh["throughput"]:
        base = base_rows.get(row["procs"])
        if base is None:
            continue
        have = row["normalized_events_per_mop"]
        want = base["normalized_events_per_mop"]
        if have < want * (1.0 - threshold):
            failures.append(
                f"  {row['procs']} procs: normalized events/sec "
                f"{have:.3f} vs recorded {want:.3f} "
                f"({(1 - have / want) * 100:.0f}% drop > "
                f"{threshold * 100:.0f}% threshold)")
        else:
            print(f"  {row['procs']} procs: {have:.3f} vs recorded "
                  f"{want:.3f} normalized events/mop — ok")
    agg_have = e21_aggregate(fresh)
    agg_want = e21_aggregate(baseline)
    if agg_have is not None and agg_want is not None:
        if agg_have < agg_want * (1.0 - threshold):
            failures.append(
                f"  E21 aggregate events/sec/thread: {agg_have:.3f} vs "
                f"recorded {agg_want:.3f} "
                f"({(1 - agg_have / agg_want) * 100:.0f}% drop > "
                f"{threshold * 100:.0f}% threshold)")
        else:
            print(f"  E21 aggregate events/sec/thread: {agg_have:.3f} vs "
                  f"recorded {agg_want:.3f} normalized — ok")
    if failures:
        print("PERF REGRESSION against " + baseline_path + ":")
        print("\n".join(failures))
        return 1
    print(f"perf guard passed ({baseline_path})")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--bin-dir", default="build/release",
                        help="CMake binary dir holding bench/ executables")
    parser.add_argument("--out", default="BENCH_PR9.json",
                        help="where to write the merged JSON")
    parser.add_argument("--full", action="store_true",
                        help="run the full (non --smoke) throughput sweep")
    parser.add_argument("--check", metavar="JSON",
                        help="compare against this recorded trajectory and "
                             "fail on >threshold normalized regression")
    parser.add_argument("--threshold", type=float,
                        default=DEFAULT_DROP_THRESHOLD,
                        help="allowed fractional drop (default 0.20)")
    args = parser.parse_args()

    merged = run_tab_scalability(args.bin_dir, smoke=not args.full)
    merged["generated_by"] = "scripts/bench_json.py"
    micro = run_micro(args.bin_dir)
    if micro:
        merged["micro"] = micro
        wire = wire_section(micro)
        if wire:
            merged["wire"] = wire

    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(merged, f, indent=2, sort_keys=False)
        f.write("\n")
    print(f"wrote {args.out}")

    if args.check:
        return check(merged, args.check, args.threshold)
    return 0


if __name__ == "__main__":
    sys.exit(main())
