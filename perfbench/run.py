#!/usr/bin/env python3
"""The repository benchmark: verified-job latency on three closed-loop workloads.

    python3 perfbench/run.py --workload crash_inproc --seed 7 --seconds 10 --trace 0

Run from the repository root. The first call configures and builds
perfbench/CMakeLists.txt (splice_core, splice_noded and the splice_bench job
driver) into .bench_build/perfbench; later calls rebuild incrementally.

Each workload has one client that submits a job only after the previous
job's answer is checked, and every job is generated from --seed:

  crash_inproc     classic driver, in-process transport, one splice recovery
  rejoin_shm       one crash + warm rejoin, shm rings, recorder, store
  partition_heal   classic driver under a partition that heals

Each runs in a fresh splice_bench process. A job fails when it does not
complete, returns a wrong answer, fails recovery::RecoveryOracle, fails its
workload's mechanism guard (the proof that it exercised the layer it is
there for) or times out. Every failed job counts in `failed` and clears
`correct`.

Two warm rejoins in one job can stall it (a known defect), so rejoin_shm
crashes one processor per job. Every rejoin_shm run also replays one fixed
churn job that reproduces the stall, outside the measured loop and the
counts, and prints whether it still stalls.

--trace 0 measures the end-to-end metrics. --trace 1 is the separate traced
run: it keeps timing spans around every call into the library, runs the
same-seed differential twins (on partition_heal, the sharded engine with 3
workers and with 1), writes the spans as trace_event JSON under
.bench_build/perfbench/traces (validated with scripts/check_trace_json.py)
and reports the per-layer metrics. The rejoin_shm traced run also runs the
same program as groups of 4 splice_noded processes over TCP loopback, for
the tcp.* metrics. A per-layer metric that a workload does not exercise
reads 0 there.

Human-readable lines go to stdout first; the last line is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import random
import selectors
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD = ROOT / ".bench_build" / "perfbench"

WORKLOADS = ("crash_inproc", "rejoin_shm", "partition_heal")
# The workload whose traced run also runs the TCP groups.
TCP_WORKLOAD = "rejoin_shm"

# The job_ms_tail percentile is the highest one with at least ten jobs of
# the deterministic prefix beyond it.
TAIL_GRID = (99, 95, 90, 80, 75, 50)

END_TO_END = {
    "job_ms_p50": "ms",
    "job_ms_tail": "ms",
    "cpu_ms_per_job": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "core.run_ms": "ms",
    "core.setup_ms": "ms",
    "core.allocs_per_event": "allocs/event",
    "lang.reference_ms": "ms",
    "recovery.oracle_ms": "ms",
    "obs.export_ms": "ms",
    "sim.events_per_s": "events/s",
    "sim.events_per_task": "events/task",
    "sim.recovery_ticks": "ticks",
    "runtime.tasks_per_job": "count",
    "runtime.scans_per_task": "scans/task",
    "runtime.useful_task_ratio": "ratio",
    "checkpoint.records_per_task": "ratio",
    "checkpoint.subsumed_ratio": "ratio",
    "checkpoint.peak_entries": "count",
    "sched.remote_spawn_ratio": "ratio",
    "sched.load_updates_per_task": "ratio",
    "recovery.ms_per_job": "ms",
    "recovery.tasks_lost": "count",
    "recovery.respawned": "count",
    "recovery.twins": "count",
    "recovery.salvaged": "count",
    "recovery.cancels_per_job": "count",
    "recovery.reclaim_latency_ticks": "ticks",
    "net.msgs_per_task": "msgs/task",
    "net.error_detection_per_task": "msgs/task",
    "net.bounce_retransmits_per_job": "count",
    "net.partition_cut_per_job": "count",
    "net.link_dropped_per_job": "count",
    "net.wire_ms_per_job": "ms",
    "store.entries_logged_per_job": "count",
    "store.state_chunks_per_job": "count",
    "store.reissues_avoided": "count",
    "obs.recorder_ms_per_job": "ms",
    "obs.journal_events_per_job": "count",
    "obs.journal_dropped_ratio": "ratio",
    "obs.splj_bytes_per_event": "bytes/event",
    "engine.k3_ms_per_job": "ms",
    "engine.k1_ms_per_job": "ms",
    "engine.classic_ms_per_job": "ms",
    "engine.parallel_efficiency": "ratio",
    "engine.cpu_over_wall": "ratio",
    "tcp.ready_ms": "ms",
    "tcp.job_ms": "ms",
    "tcp.teardown_ms": "ms",
    "tcp.teardown_stall_ratio": "ratio",
    "tcp.rank_cpu_ms_per_job": "ms",
    "tcp.ctx_switches_per_job": "count",
    "trace.overhead_ms": "ms",
}

# TCP groups of the rejoin_shm traced run: rejoin_shm's program, fault-free.
TCP_GROUPS = 24
RANKS = 4
TCP_PROGRAM = "nqueens:7"
TICK_NS = 500
GROUP_TIMEOUT_S = 20.0
# Rank 0 lingers 20000 ticks (10 ms at TICK_NS) after DONE; a group still
# running after this is a teardown stall and finishes in the background.
TEARDOWN_WAIT_S = 0.1


class BenchError(Exception):
    """A failure of the benchmark itself (no result line is printed)."""


def log(msg: str) -> None:
    print(msg, flush=True)


# ---- build ------------------------------------------------------------------

def build() -> pathlib.Path:
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"no splice sources under {ROOT}; run from a "
                         "checkout of the repository")
    BUILD.mkdir(parents=True, exist_ok=True)
    build_log = BUILD / "build.log"
    with open(build_log, "w", encoding="utf-8") as out:
        if not (BUILD / "CMakeCache.txt").is_file():
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            rc = subprocess.call(
                ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD),
                 "-DCMAKE_BUILD_TYPE=Release", *generator],
                stdout=out, stderr=subprocess.STDOUT)
            if rc != 0:
                raise BenchError(f"cmake configure failed; see {build_log}")
        rc = subprocess.call(
            ["cmake", "--build", str(BUILD), "-j", "4", "--target",
             "splice_bench", "splice_noded"],
            stdout=out, stderr=subprocess.STDOUT)
    if rc != 0:
        raise BenchError(f"build failed; see {build_log}")
    return BUILD


def tool(name: str) -> pathlib.Path:
    """A built binary: splice_bench, or splice_noded from ../tools."""
    path = BUILD / name
    if name != "splice_bench":
        path = BUILD / "splice_tools" / name
    if not path.is_file():
        raise BenchError(f"{path} was not built")
    return path


# ---- statistics -------------------------------------------------------------

def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, -(-len(ordered) * pct // 100))
    return float(ordered[int(rank) - 1])


def tail_percentile(jobs: int) -> int:
    for pct in TAIL_GRID:
        if jobs * (100 - pct) // 100 >= 10:
            return pct
    return 50


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# ---- trace_event output -----------------------------------------------------

def write_trace(name: str, seed: int, spans: list[dict]) -> pathlib.Path:
    """Spans (name, start_us, end_us, parent, job) as trace_event JSON."""
    trace_dir = BUILD / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    path = trace_dir / f"{name}-seed{seed}.json"
    events = [
        {"ph": "M", "pid": 1, "name": "process_name",
         "args": {"name": f"perfbench {name} seed {seed}"}},
        {"ph": "M", "pid": 1, "tid": 1, "name": "thread_name",
         "args": {"name": "client"}},
    ]
    for i, s in enumerate(spans):
        events.append({
            "ph": "X", "pid": 1, "tid": 1, "name": s["name"],
            "ts": round(s["start_us"], 3),
            "dur": round(max(0.0, s["end_us"] - s["start_us"]), 3),
            "args": {"span": i, "parent": s["parent"], "job": s["job"]},
        })
    with open(path, "w", encoding="utf-8") as f:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, f)
    return path


def check_trace(path: pathlib.Path) -> bool:
    checker = ROOT / "scripts" / "check_trace_json.py"
    if not checker.is_file():
        log(f"trace check: {checker} missing")
        return False
    proc = subprocess.run([sys.executable, str(checker), str(path)],
                          capture_output=True, text=True, timeout=120)
    log("trace check: " + (proc.stdout.strip() or proc.stderr.strip()))
    return proc.returncode == 0


# ---- simulated workloads (splice_bench) -------------------------------------

def run_sim(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    argv = [str(tool("splice_bench")), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds),
            "--trace", "1" if trace else "0"]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=175)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"splice_bench exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def sim_summary(raw: dict, trace: bool) -> tuple[dict, dict, list[str]]:
    """(end-to-end metrics as (value, samples), per-layer metrics, failure
    reasons)."""
    jobs = raw["jobs"]
    prefix = [j for j in jobs if j["id"] < raw["prefix_jobs"]]
    # Latency and CPU are taken over the jobs that delivered a checked
    # answer; the others are counted in `failed`.
    answered = [j for j in jobs if not j["failure"]]
    failures = [f["why"] for f in raw["failures"]]
    if not raw["digest_complete"]:
        failures.append("run ended before its deterministic job prefix")
    pct = tail_percentile(raw["prefix_jobs"])
    n, setups = len(answered), raw["setups"]
    e2e = {
        "job_ms_p50": (median(j["ms"] for j in answered), n),
        "job_ms_tail": (percentile([j["ms"] for j in answered], pct), n),
        "cpu_ms_per_job": (median(j["cpu_ms"] for j in answered), n),
        "setup_s": (median(s["total_ms"] for s in setups) / 1e3, len(setups)),
        "peak_rss_mb": (median(raw["job_rss_mb"]), len(raw["job_rss_mb"])),
    }
    clean = raw["clean_makespan"]
    tasks = sum(j["tasks"] for j in prefix)
    extra = {
        "events_per_s": ratio(sum(j["events"] for j in jobs),
                              sum(j["run_ms"] for j in jobs) / 1e3),
        "sim_recovery_ticks": median(j["makespan"] - clean for j in prefix),
        "sim_msgs_per_task": ratio(sum(j["msgs"] for j in prefix), tasks),
    }
    log(f"tail percentile: p{pct}")
    log(f"events_per_s = {extra['events_per_s']:.1f} events/s (n={n}; "
        f"simulated events / wall seconds in Simulation::run)")
    log(f"sim_recovery_ticks = {extra['sim_recovery_ticks']:.1f} ticks "
        f"(n={len(prefix)}; median makespan - clean makespan {clean})")
    log(f"sim_msgs_per_task = {extra['sim_msgs_per_task']:.6f} msgs/task "
        f"(n={len(prefix)})")
    log(f"digest = {raw['digest']} (clean + first {raw['prefix_jobs']} jobs)")
    if not trace:
        return e2e, {}, failures

    traced = [j for j in answered if j["traced"]]
    untraced = [j for j in answered if not j["traced"]]
    twins: dict[str, dict[int, dict]] = {}
    for t in raw["twins"]:
        twins.setdefault(t["variant"], {})[t["job"]] = t

    def twin_ms(variant: str) -> list[float]:
        return [t["run_ms"] for t in twins.get(variant, {}).values()]

    def twin_delta(variant: str) -> float:
        base = twins.get("base", {})
        other = twins.get(variant, {})
        return median(base[k]["run_ms"] - other[k]["run_ms"]
                      for k in base if k in other)

    def per_job(key: str) -> float:
        return median(j[key] for j in prefix)

    events = sum(j["events"] for j in prefix)
    records = sum(j["records"] for j in prefix)
    subsumed = sum(j["subsumed"] for j in prefix)
    reclaimed = sum(j["reclaimed"] for j in prefix)
    journal = sum(j["journal_events"] for j in prefix)
    retained = sum(j["journal_retained"] for j in prefix)
    is_engine = "k3" in twins
    k3_ms = median(twin_ms("k3"))
    k3_twins = twins.get("k3", {}).values()
    layer = {
        "core.run_ms": median(j["run_ms"] for j in traced),
        "core.setup_ms": median(j["setup_ms"] for j in traced),
        "core.allocs_per_event": ratio(sum(j["run_allocs"] for j in jobs),
                                       sum(j["events"] for j in jobs)),
        "lang.reference_ms": median(s["reference_ms"] for s in raw["setups"]),
        "recovery.oracle_ms": median(j["oracle_ms"] for j in traced),
        "obs.export_ms": median(j["export_ms"] for j in traced),
        "sim.events_per_s": extra["events_per_s"],
        "sim.events_per_task": ratio(events, tasks),
        "sim.recovery_ticks": extra["sim_recovery_ticks"],
        "runtime.tasks_per_job": per_job("tasks"),
        "runtime.scans_per_task": ratio(sum(j["scans"] for j in prefix),
                                        tasks),
        "runtime.useful_task_ratio": ratio(
            raw["reference_calls"] * len(prefix), tasks),
        "checkpoint.records_per_task": ratio(records, tasks),
        "checkpoint.subsumed_ratio": ratio(subsumed, records + subsumed),
        "checkpoint.peak_entries": per_job("peak_entries"),
        "sched.remote_spawn_ratio": ratio(raw["probe_remote_spawns"],
                                          raw["probe_spawns"]),
        "sched.load_updates_per_task": ratio(
            sum(j["load_updates"] for j in prefix), tasks),
        "recovery.ms_per_job": twin_delta("clean"),
        "recovery.tasks_lost": per_job("lost"),
        "recovery.respawned": per_job("respawned"),
        "recovery.twins": per_job("twins"),
        "recovery.salvaged": per_job("salvaged"),
        "recovery.cancels_per_job": per_job("cancels"),
        "recovery.reclaim_latency_ticks": ratio(
            sum(j["reclaim_latency"] for j in prefix), reclaimed),
        "net.msgs_per_task": extra["sim_msgs_per_task"],
        "net.error_detection_per_task": ratio(
            sum(j["error_detection"] for j in prefix), tasks),
        "net.bounce_retransmits_per_job": per_job("bounce_retransmits"),
        "net.partition_cut_per_job": per_job("partition_cut"),
        "net.link_dropped_per_job": per_job("link_dropped"),
        "net.wire_ms_per_job": twin_delta("inproc"),
        "store.entries_logged_per_job": per_job("store_logged"),
        "store.state_chunks_per_job": per_job("state_chunks"),
        "store.reissues_avoided": per_job("reissues_avoided"),
        "obs.recorder_ms_per_job": twin_delta("recorder_off"),
        "obs.journal_events_per_job": per_job("journal_events"),
        "obs.journal_dropped_ratio": ratio(
            sum(j["journal_dropped"] for j in prefix), journal),
        "obs.splj_bytes_per_event": ratio(
            sum(j["splj_bytes"] for j in prefix), retained),
        "engine.k3_ms_per_job": k3_ms,
        "engine.k1_ms_per_job": median(twin_ms("k1")),
        "engine.classic_ms_per_job": (median(twin_ms("base"))
                                      if is_engine else 0.0),
        "engine.parallel_efficiency": ratio(median(twin_ms("k1")), 3 * k3_ms),
        "engine.cpu_over_wall": ratio(sum(t["run_cpu_ms"] for t in k3_twins),
                                      sum(t["run_ms"] for t in k3_twins)),
        "trace.overhead_ms": (median(j["ms"] for j in traced)
                              - median(j["ms"] for j in untraced)),
    }
    trace_path = write_trace(raw["workload"], raw["seed"], raw["spans"])
    if not check_trace(trace_path):
        failures.append(f"trace JSON {trace_path} failed the checker")
    return e2e, layer, failures


# ---- TCP groups: splice_noded processes over TCP loopback -------------------

def free_base_port(rng: random.Random) -> int:
    """A base port whose RANKS consecutive ports all bind right now."""
    for _ in range(200):
        base = rng.randrange(20000, 60000 - RANKS)
        socks = []
        try:
            for r in range(RANKS):
                s = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
                socks.append(s)
                s.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
                s.bind(("0.0.0.0", base + r))
            return base
        except OSError:
            continue
        finally:
            for s in socks:
                s.close()
    raise BenchError("no free base port found")


class Group:
    """One TCP group: RANKS splice_noded processes on a probed base port.
    Times are time.monotonic() seconds."""

    def __init__(self, noded: pathlib.Path, seed: int, job: int, stderr_log):
        self.job = job
        base = free_base_port(random.Random(seed * 1_000_003 + job))
        self.t_spawn = time.monotonic()
        self.procs = [subprocess.Popen(
            [str(noded), "--rank", str(r), "--ranks", str(RANKS),
             "--base-port", str(base), "--program", TCP_PROGRAM,
             "--tick-ns", str(TICK_NS), "--seed", str(seed)],
            stdout=subprocess.PIPE, stderr=stderr_log) for r in range(RANKS)]
        self.pending = {p.pid: r for r, p in enumerate(self.procs)}
        self.codes: dict[int, int] = {}
        self.usage: dict[int, object] = {}
        self.t_ready = self.t_done = self.t_exit = None
        self.answer = ""
        self.failure = ""

    def reap(self) -> bool:
        """Collect every rank that has exited; True once all have."""
        for pid in list(self.pending):
            got, status, ru = os.wait4(pid, os.WNOHANG)
            if got == pid:
                self.exited(self.pending.pop(pid), status, ru)
        if not self.pending and self.t_exit is None:
            self.t_exit = time.monotonic()
        return not self.pending

    def exited(self, rank: int, status: int, ru) -> None:
        self.codes[rank] = os.waitstatus_to_exitcode(status)
        self.usage[rank] = ru
        self.procs[rank].returncode = self.codes[rank]
        self.procs[rank].stdout.close()

    def wait_done(self) -> None:
        """Read rank output until every READY and rank 0's DONE."""
        deadline = self.t_spawn + GROUP_TIMEOUT_S
        ready: set[int] = set()
        buffers = {r: b"" for r in range(RANKS)}
        with selectors.DefaultSelector() as sel:
            for r, p in enumerate(self.procs):
                os.set_blocking(p.stdout.fileno(), False)
                sel.register(p.stdout, selectors.EVENT_READ, r)
            while self.t_done is None and sel.get_map():
                if time.monotonic() > deadline:
                    self.failure = "timed out"
                    return
                for key, _ in sel.select(timeout=0.05):
                    r = key.data
                    chunk = os.read(key.fd, 65536)
                    if not chunk:
                        sel.unregister(key.fileobj)
                        continue
                    stamp = time.monotonic()
                    *lines, buffers[r] = (buffers[r] + chunk).split(b"\n")
                    for line in lines:
                        text = line.decode(errors="replace")
                        if text.startswith("READY"):
                            ready.add(r)
                            if len(ready) == RANKS:
                                self.t_ready = stamp
                        elif text.startswith("DONE") and r == 0:
                            self.t_done = stamp
                            self.answer = text.split()[1].removeprefix(
                                "answer=")
        if self.t_ready is None:
            self.failure = "not every rank printed READY"
        elif self.t_done is None:
            self.failure = "rank 0 never printed DONE"

    def finish(self) -> None:
        """Kill whatever rank is still running, then reap every rank."""
        for pid in list(self.pending):
            os.kill(pid, signal.SIGKILL)
            self.failure = self.failure or "timed out in teardown"
            _, status, ru = os.wait4(pid, 0)
            self.exited(self.pending.pop(pid), status, ru)
        if self.t_exit is None:
            self.t_exit = time.monotonic()

    def record(self, answer: str) -> dict:
        """The group's outcome once every rank is reaped."""
        if not self.failure and self.answer != answer:
            self.failure = f"wrong answer {self.answer} (want {answer})"
        if not self.failure and any(c != 0 for c in self.codes.values()):
            self.failure = f"guard: rank exit codes {self.codes}"
        ok = not self.failure
        usage = self.usage.values()
        return {
            "id": self.job, "failure": self.failure,
            "t_spawn": self.t_spawn, "t_ready": self.t_ready or self.t_spawn,
            "t_done": self.t_done or self.t_exit, "t_exit": self.t_exit,
            "ready_ms": ((self.t_ready or self.t_exit) - self.t_spawn) * 1e3,
            "ms": (self.t_done - self.t_ready) * 1e3 if ok else 0.0,
            "teardown_ms": (self.t_exit - self.t_done) * 1e3 if ok else 0.0,
            "cpu_ms": sum((u.ru_utime + u.ru_stime) * 1e3 for u in usage),
            "ctx_switches": sum(u.ru_nvcsw + u.ru_nivcsw for u in usage),
        }


def run_tcp_groups(seed: int) -> tuple[dict, list[str], int]:
    """TCP_GROUPS groups, one after another, after one warm-up group:
    (tcp.* metrics, failure reasons, groups attempted)."""
    noded = tool("splice_noded")
    answer = subprocess.run(
        [str(tool("splice_bench")), "--reference", TCP_PROGRAM],
        capture_output=True, text=True, check=True).stdout.strip()
    failures: list[str] = []
    done: list[dict] = []
    # A group whose teardown outlasts TEARDOWN_WAIT_S keeps exiting in the
    # background while the next group runs; it is reaped (or killed after
    # GROUP_TIMEOUT_S) before this returns.
    lingering: list[Group] = []

    def collect(final: bool) -> None:
        for group in list(lingering):
            overdue = time.monotonic() > group.t_spawn + GROUP_TIMEOUT_S
            if final or overdue:
                group.finish()
            elif not group.reap():
                continue
            lingering.remove(group)
            outcome = group.record(answer)
            if group.job >= 0:
                done.append(outcome)
            elif outcome["failure"]:
                failures.append(f"tcp warmup: {outcome['failure']}")

    with open(BUILD / "noded_stderr.log", "wb") as stderr_log:
        try:
            for job in range(-1, TCP_GROUPS):
                group = Group(noded, seed, job, stderr_log)
                group.wait_done()
                deadline = time.monotonic() + TEARDOWN_WAIT_S
                while not group.reap() and time.monotonic() < deadline:
                    time.sleep(0.0002)
                lingering.append(group)
                collect(final=False)
            while lingering:
                collect(final=False)
                time.sleep(0.01)
        finally:
            collect(final=True)
    groups = sorted(done, key=lambda j: j["id"])
    failures += [f"tcp group {j['id']}: {j['failure']}" for j in groups
                 if j["failure"]]
    good = [j for j in groups if not j["failure"]]
    stalls = sum(1 for j in good if j["teardown_ms"] > TEARDOWN_WAIT_S * 1e3)
    log(f"tcp groups: {len(groups)}, teardown stalls = {stalls} "
        f"(teardown > {TEARDOWN_WAIT_S * 1e3:.0f} ms)")
    layer = {
        "tcp.ready_ms": median(j["ready_ms"] for j in good),
        "tcp.job_ms": median(j["ms"] for j in good),
        "tcp.teardown_ms": median(j["teardown_ms"] for j in good),
        "tcp.teardown_stall_ratio": ratio(stalls, len(good)),
        "tcp.rank_cpu_ms_per_job": median(j["cpu_ms"] for j in good),
        "tcp.ctx_switches_per_job": median(j["ctx_switches"] for j in good),
    }
    spans = []
    origin = groups[0]["t_spawn"] if groups else 0.0
    for j in groups:
        parent = len(spans)
        for name, start, end in (
                ("job", j["t_spawn"], j["t_exit"]),
                ("tcp.ready", j["t_spawn"], j["t_ready"]),
                ("tcp.run", j["t_ready"], j["t_done"]),
                ("tcp.teardown", j["t_done"], j["t_exit"])):
            spans.append({"name": name, "start_us": (start - origin) * 1e6,
                          "end_us": (end - origin) * 1e6,
                          "parent": -1 if name == "job" else parent,
                          "job": j["id"]})
    trace_path = write_trace(f"{TCP_WORKLOAD}-tcp", seed, spans)
    if not check_trace(trace_path):
        failures.append(f"trace JSON {trace_path} failed the checker")
    return layer, failures, len(groups)


# ---- main -------------------------------------------------------------------

def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    trace = bool(args.trace)
    try:
        build()
        raw = run_sim(args.workload, args.seed, args.seconds, trace)
        e2e, layer, failures = sim_summary(raw, trace)
        attempted = len(raw["jobs"])
        failed = raw["jobs_failed"]
        if trace and args.workload == TCP_WORKLOAD:
            tcp_layer, tcp_failures, groups = run_tcp_groups(args.seed)
            layer.update(tcp_layer)
            failures += tcp_failures
            attempted += groups
            failed += sum(1 for f in tcp_failures
                          if f.startswith("tcp group "))
    except (BenchError, subprocess.SubprocessError, OSError,
            json.JSONDecodeError) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1

    log(f"workload {args.workload} seed {args.seed}: {attempted} jobs, "
        f"{failed} failed")
    log(f"job_fail_ratio = {ratio(failed, attempted):.6f} ratio "
        f"(n={attempted})")
    for why in failures[:20]:
        log(f"FAILURE: {why}")
    if raw["known_defect_plan"]:
        log(f"known defect: {raw['known_defect']} "
            f"(not counted; plan {raw['known_defect_plan']})")
    metrics = {}
    if trace:
        for name, unit in PER_LAYER.items():
            value = float(layer.get(name, 0.0))
            metrics[name] = {"value": value, "unit": unit}
            log(f"{name} = {value:.6g} {unit}")
    else:
        for name, unit in END_TO_END.items():
            value, samples = e2e[name]
            metrics[name] = {"value": float(value), "unit": unit}
            log(f"{name} = {value:.6g} {unit} (n={samples})")
    correct = not failures
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
