// splice_bench: the closed-loop job driver behind perfbench/run.py for the
// three simulated workloads (crash_inproc, rejoin_shm, partition_heal).
//
// One client submits a job, waits until its answer is checked, then submits
// the next: build a core::Simulation for the job's (config, fault plan),
// run it, compare the answer with lang::cached_reference, run
// recovery::RecoveryOracle, export the journal where the recorder is on,
// and apply the workload's mechanism guard. Every job is generated from
// (--seed, job index), so the same seed replays the same jobs.
//
//   splice_bench --workload crash_inproc --seed 7 --seconds 10 --trace 0
//   splice_bench --reference nqueens:7      # prints the reference answer
//
// Every layer is timed from outside, around the calls this file makes into
// the library's public API; --trace 1 additionally keeps those spans and
// runs same-seed differential twins that switch one layer through a public
// SystemConfig field (transport, recorder, shard count). The result is one
// JSON object on the last line of stdout; run.py turns it into metrics.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <new>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "core/config.h"
#include "core/simulation.h"
#include "lang/interpreter.h"
#include "lang/programs.h"
#include "net/message.h"
#include "obs/journal.h"
#include "recovery/recovery_oracle.h"
#include "util/logging.h"
#include "util/rng.h"

// ---- counting allocator ----------------------------------------------------
// Every heap allocation of this process (all threads) bumps one relaxed
// counter; core.allocs_per_event divides the allocations made inside
// Simulation::run by the events it simulated.
namespace {
std::atomic<unsigned long long> g_allocs{0};
}  // namespace

__attribute__((noinline)) void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
__attribute__((noinline)) void* operator new(std::size_t n,
                                             std::align_val_t align) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  const std::size_t a = static_cast<std::size_t>(align);
  if (void* p = std::aligned_alloc(a, (n + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}
__attribute__((noinline)) void operator delete(void* p) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete(void* p,
                                               std::align_val_t) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete(void* p, std::size_t,
                                               std::align_val_t) noexcept {
  std::free(p);
}

namespace {

using namespace splice;
using Clock = std::chrono::steady_clock;

const Clock::time_point kEpoch = Clock::now();

double now_us() {
  return std::chrono::duration<double, std::micro>(Clock::now() - kEpoch)
      .count();
}

double cpu_ms() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return (static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) * 1e3) +
         (static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) /
          1e3);
}

// ---- spans -----------------------------------------------------------------
// In-memory span log: name, start, end, parent span, job id. Only filled
// while `on`; run.py writes it out as trace_event JSON at exit.
struct Span {
  std::string name;
  double start_us = 0;
  double end_us = 0;
  int parent = -1;
  long job = -1;
};

class Tracer {
 public:
  bool on = false;
  std::vector<Span> spans;

  /// Returns the span id (-1 when tracing is off).
  int open(std::string name, int parent, long job) {
    if (!on) return -1;
    spans.push_back({std::move(name), now_us(), 0, parent, job});
    return static_cast<int>(spans.size()) - 1;
  }
  void close(int id) {
    if (id >= 0) spans[static_cast<std::size_t>(id)].end_us = now_us();
  }
};

Tracer g_tracer;

/// Times one call from outside; the span is recorded when tracing is on.
template <typename Fn>
double timed(const char* name, int parent, long job, Fn&& fn) {
  const int span = g_tracer.open(name, parent, job);
  const auto t0 = Clock::now();
  fn();
  const double ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  g_tracer.close(span);
  return ms;
}

// ---- digest ----------------------------------------------------------------
// FNV-1a over every simulated statistic of a run: answer, makespan, events,
// fault/revive counts, every Counters field and every NetworkStats field.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffU;
      h_ *= 0x100000001b3ULL;
    }
  }
  void add_signed(std::int64_t v) { add(static_cast<std::uint64_t>(v)); }
  void add(const std::string& s) {
    for (unsigned char c : s) {
      h_ ^= c;
      h_ *= 0x100000001b3ULL;
    }
    add(static_cast<std::uint64_t>(s.size()));
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// `with_events` = false leaves out sim_events, which the recorder's metrics
/// sampling tick adds to without changing the protocol's course.
void digest_run(Digest& d, const core::RunResult& r, bool with_events = true) {
  d.add(r.completed ? 1U : 0U);
  d.add(r.answer.to_string());
  d.add_signed(r.makespan_ticks);
  d.add_signed(r.first_failure_ticks);
  d.add_signed(r.detection_ticks);
  d.add(r.faults_injected);
  d.add(r.nodes_revived);
  if (with_events) d.add(r.sim_events);
  d.add(r.processors_alive_at_end);
  d.add(r.stranded_tasks);
  const core::Counters& c = r.counters;
  for (std::uint64_t v :
       {c.tasks_created, c.tasks_completed, c.tasks_aborted,
        c.tasks_lost_to_crash, c.scans, c.tasks_respawned, c.twins_created,
        c.orphan_results_salvaged, c.results_relayed,
        c.duplicate_results_ignored, c.late_results_discarded,
        c.orphans_stranded, c.orphans_gced, c.cancels_sent, c.tasks_cancelled,
        c.cancels_ignored, c.cancel_retries, c.bounce_retransmits,
        c.wire_dups_discarded, c.gc_oracle_orphans, c.checkpoint_records,
        c.checkpoint_subsumed, c.checkpoint_released, c.checkpoint_taken,
        c.checkpoint_evicted, c.checkpoint_cleared, c.checkpoint_resident,
        c.checkpoint_peak_entries, c.checkpoint_peak_units, c.snapshots_taken,
        c.snapshot_units, c.restores, c.error_broadcasts, c.rejoins,
        c.store_entries_logged, c.store_entries_lost,
        c.store_records_replayed, c.state_chunks_sent,
        c.state_packets_transferred, c.state_units_transferred,
        c.stale_chunks_dropped, c.reissues_avoided, c.reissues_deferred}) {
    d.add(v);
  }
  for (std::int64_t v : {c.reclaim_latency_ticks, c.freeze_ticks,
                         c.catch_up_ticks, c.busy_ticks}) {
    d.add_signed(v);
  }
  const net::NetworkStats& n = r.net;
  for (std::size_t k = 0; k < net::kMsgKindCount; ++k) {
    d.add(n.sent[k]);
    d.add(n.delivered[k]);
  }
  for (std::uint64_t v :
       {n.dropped_dead_dest, n.dropped_dead_sender, n.failure_notices,
        n.revives, n.total_units, n.total_hop_units, n.partition_cut,
        n.link_dropped, n.gray_dropped, n.link_duplicated, n.link_reordered,
        n.link_delay_ticks}) {
    d.add(v);
  }
}

std::string hex(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// ---- JSON output -----------------------------------------------------------
class JsonObject {
 public:
  JsonObject& num(const char* key, double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return raw(key, buf);
  }
  JsonObject& num(const char* key, std::uint64_t v) {
    return raw(key, std::to_string(v));
  }
  JsonObject& num(const char* key, std::int64_t v) {
    return raw(key, std::to_string(v));
  }
  JsonObject& boolean(const char* key, bool v) {
    return raw(key, v ? "true" : "false");
  }
  JsonObject& str(const char* key, const std::string& v) {
    std::string quoted = "\"";
    for (char c : v) {
      if (c == '"' || c == '\\') quoted += '\\';
      if (static_cast<unsigned char>(c) < 0x20) {
        quoted += ' ';
        continue;
      }
      quoted += c;
    }
    quoted += '"';
    return raw(key, quoted);
  }
  JsonObject& raw(const char* key, const std::string& json) {
    body_ += body_.empty() ? "" : ",";
    body_ += '"';
    body_ += key;
    body_ += "\":";
    body_ += json;
    return *this;
  }
  [[nodiscard]] std::string text() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

std::string json_array(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ',';
    out += items[i];
  }
  return out + "]";
}

std::vector<std::string> numbers(const std::vector<double>& values) {
  std::vector<std::string> out;
  for (double v : values) out.push_back(std::to_string(v));
  return out;
}

// ---- workloads -------------------------------------------------------------
/// One workload: a program, the machine it runs on, the fault plan of job
/// `index` (scenario DSL, placed against the clean makespan), and the
/// mechanism guard that proves the job exercised the layer it is for.
struct Workload {
  const char* name;
  /// Jobs every run completes whatever --seconds says: the digest and the
  /// simulated statistics cover exactly these, so they repeat per seed.
  std::uint32_t prefix_jobs;
  std::function<lang::Program()> program;
  /// The machine. Its SystemConfig::seed stays at the library default: the
  /// run seed generates the jobs, so runs with different seeds measure
  /// different job mixes on the same machine.
  std::function<core::SystemConfig()> config;
  std::function<std::string(util::Xoshiro256& rng, std::uint64_t index,
                            std::int64_t clean)>
      plan;
  /// Empty when the guard holds, else what the job failed to exercise.
  std::function<std::string(const core::RunResult&)> guard;
  /// Differential twins (--trace 1): name + the one config switch each makes
  /// + what the switch must leave unchanged against the twin `against`.
  enum class Same : std::uint8_t {
    kAll,       // every digested statistic
    kProtocol,  // all but sim_events (recorder on/off)
    kNothing,   // a different driver; only the answer is checked
  };
  struct Variant {
    const char* name;
    Same same;
    std::function<void(core::SystemConfig&)> apply;
    const char* against = "base";
  };
  std::vector<Variant> variants;
  /// A fixed job (scenario DSL) that reproduces a known defect the
  /// workload's own jobs steer clear of. It runs once per run, outside the
  /// measured loop and the counts, and its outcome is printed.
  const char* known_defect = nullptr;
};

std::uint64_t sent(const core::RunResult& r, net::MsgKind kind) {
  return r.net.sent[static_cast<std::size_t>(kind)];
}

std::string fmt_plan(const char* format, auto... args) {
  char buf[512];
  std::snprintf(buf, sizeof buf, format, args...);
  return buf;
}

std::vector<Workload> workloads() {
  std::vector<Workload> out;

  // W1: the forward path plus one real splice recovery. Local-first keeps
  // work on the root's host (processor 0) and its neighbour processor 1, so
  // killing processor 1 loses a large subtree at any point of the run. Jobs
  // stratify the kill time over eight slices of [0.3, 0.7] x clean, so
  // every run of a few dozen jobs covers the same mix.
  out.push_back(Workload{
      "crash_inproc",
      100,
      [] { return lang::programs::tree_sum(13, 2, 60, 10); },
      [] {
        core::SystemConfig cfg;
        cfg.processors = 256;
        cfg.topology = net::TopologyKind::kTorus2D;
        cfg.scheduler.kind = core::SchedulerKind::kLocalFirst;
        cfg.recovery.kind = core::RecoveryKind::kSplice;
        return cfg;
      },
      [](util::Xoshiro256& rng, std::uint64_t index, std::int64_t clean) {
        const double slice =
            (static_cast<double>(index % 8) + rng.next_double()) / 8.0;
        const auto at = static_cast<long long>(
            static_cast<double>(clean) * (0.3 + 0.4 * slice));
        return fmt_plan("kill:1@%lld", at);
      },
      [](const core::RunResult& r) -> std::string {
        if (r.counters.tasks_lost_to_crash == 0) return "no task lost to crash";
        if (r.counters.tasks_respawned == 0) return "no task respawned";
        return {};
      },
      {}});

  // W2: one crash with warm rejoin over lossy links, every message through
  // the wire codec and shm rings, recorder and durable store on. Each job
  // kills one processor, drawn uniformly, at a time stratified over eight
  // slices of [1/6, 1) x clean; it rejoins warm after clean/16. One crash,
  // not Poisson churn: warm rejoin has a known defect, seen only in jobs
  // with two or more warm rejoins. A revived node can restore a task
  // without a result it had already received, or restore the root's host
  // as the super-root re-injects the root, and the job then stalls until
  // its deadline. Under churn of up to 24 crashes that stalled one job in
  // 200 (one in 3,000 when the root's host was spared). One crash per job
  // stalled none in 48,000. `known_defect` replays a stalled churn job to
  // keep it in view.
  constexpr std::uint32_t kRejoinProcs = 64;
  out.push_back(Workload{
      "rejoin_shm",
      200,
      [] { return lang::programs::nqueens(7); },
      [] {
        core::SystemConfig cfg;
        cfg.processors = kRejoinProcs;
        cfg.topology = net::TopologyKind::kTorus2D;
        cfg.scheduler.kind = core::SchedulerKind::kRandom;
        cfg.recovery.kind = core::RecoveryKind::kSplice;
        cfg.transport.backend = net::TransportKind::kShmRing;
        cfg.obs.recorder = true;
        cfg.store.model = store::Persistency::kLocal;
        return cfg;
      },
      [](util::Xoshiro256& rng, std::uint64_t index, std::int64_t clean) {
        const auto victim = static_cast<unsigned>(rng.next() % kRejoinProcs);
        const double slice =
            (static_cast<double>(index % 8) + rng.next_double()) / 8.0;
        const auto at = static_cast<long long>(
            static_cast<double>(clean) * (1.0 + 5.0 * slice) / 6.0);
        return fmt_plan(
            "kill:%u@%lld;rejoin:%lld,warm;"
            "link:*-*@0,drop=0.01,reorder=0.02,jitter=10;seed:%llu",
            victim, at, static_cast<long long>(clean / 16),
            static_cast<unsigned long long>(rng.next()));
      },
      [](const core::RunResult& r) -> std::string {
        if (r.faults_injected == 0) return "no crash";
        if (r.nodes_revived == 0) return "no rejoin";
        if (sent(r, net::MsgKind::kStateChunk) == 0) return "no kStateChunk";
        return {};
      },
      {{"inproc", Workload::Same::kAll,
        [](core::SystemConfig& cfg) {
          cfg.transport.backend = net::TransportKind::kInProcess;
        }},
       {"recorder_off", Workload::Same::kProtocol,
        [](core::SystemConfig& cfg) { cfg.obs.recorder = false; }}},
      // Churn of nine crashes: the root's host (processor 57 of the torus)
      // rejoins warm at tick 6151 as the super-root re-injects the root
      // elsewhere, and no result reaches a live root.
      "poisson:mean=553,start=738,stop=8860,max=24;rejoin:276,warm;"
      "link:*-*@0,drop=0.01,reorder=0.02,jitter=10;seed:2308747058327104245"});

  // W3: a partition that heals: the 2-hop neighbourhood of processor 127 is
  // cut off for clean/3 ticks, and the error-detection storm and bounce
  // retransmits run on the classic driver. Jobs stratify the cut time over
  // eight slices of [0.15, 0.35] x clean. The twins replay the jobs on the
  // sharded engine with 3 workers and with 1, which must agree exactly.
  out.push_back(Workload{
      "partition_heal",
      100,
      [] { return lang::programs::tree_sum(10, 2, 60, 10); },
      [] {
        core::SystemConfig cfg;
        cfg.processors = 128;
        cfg.topology = net::TopologyKind::kTorus2D;
        cfg.scheduler.kind = core::SchedulerKind::kGradient;
        cfg.recovery.kind = core::RecoveryKind::kSplice;
        return cfg;
      },
      [](util::Xoshiro256& rng, std::uint64_t index, std::int64_t clean) {
        const double slice =
            (static_cast<double>(index % 8) + rng.next_double()) / 8.0;
        const auto at = static_cast<long long>(
            static_cast<double>(clean) * (0.15 + 0.2 * slice));
        return fmt_plan("partition:hood(127,r2)@%lld,heal=%lld", at,
                        static_cast<long long>(clean / 3));
      },
      [](const core::RunResult& r) -> std::string {
        if (r.net.partition_cut == 0) return "no message crossed the cut";
        return {};
      },
      {{"k3", Workload::Same::kNothing,
        [](core::SystemConfig& cfg) { cfg.parallel.shards = 3; }},
       {"k1", Workload::Same::kAll,
        [](core::SystemConfig& cfg) { cfg.parallel.shards = 1; }, "k3"}}});
  return out;
}

// ---- one job ---------------------------------------------------------------
struct JobOutcome {
  core::RunResult result;
  double job_ms = 0;
  double setup_ms = 0;
  double run_ms = 0;
  double run_cpu_ms = 0;
  double oracle_ms = 0;
  double export_ms = 0;
  double cpu_ms = 0;
  unsigned long long run_allocs = 0;
  std::uint64_t journal_events = 0;
  std::uint64_t journal_dropped = 0;
  std::uint64_t journal_retained = 0;
  std::uint64_t splj_bytes = 0;
  std::uint64_t digest = 0;
  std::uint64_t protocol_digest = 0;  // digest without sim_events
  std::string failure;  // empty = the job passed every check
};

struct Context {
  const Workload* workload = nullptr;
  lang::Program program;
  core::SystemConfig config;
  std::int64_t clean_makespan = 0;
  std::uint64_t seed = 0;
};

/// A job still running at this multiple of the clean makespan has timed out
/// (the slowest completed recoveries measured stay under 10x).
constexpr std::int64_t kTimeoutMakespans = 100;

/// The job generator: (seed, index) -> the job's fault plan.
std::string plan_for(const Context& ctx, std::uint64_t seed,
                     std::uint64_t index) {
  util::Xoshiro256 rng(seed * 0x9e3779b97f4a7c15ULL + index + 1);
  return ctx.workload->plan(rng, index, ctx.clean_makespan);
}

/// Submit one job and wait for its checked answer. `plan` empty = clean run.
JobOutcome run_job(const Context& ctx, const core::SystemConfig& cfg,
                   const std::string& plan, long job, const char* span_name,
                   int parent = -1) {
  JobOutcome out;
  const int span = g_tracer.open(span_name, parent, job);
  const double cpu0 = cpu_ms();
  const auto t0 = Clock::now();
  std::unique_ptr<core::Simulation> sim;
  out.setup_ms = timed("core.setup", span, job, [&] {
    sim = std::make_unique<core::Simulation>(cfg, ctx.program);
    if (!plan.empty()) sim->set_fault_plan(core::parse_fault_plan(plan));
  });
  const unsigned long long allocs0 = g_allocs.load(std::memory_order_relaxed);
  const double run_cpu0 = cpu_ms();
  out.run_ms = timed("core.run", span, job, [&] { out.result = sim->run(); });
  out.run_cpu_ms = cpu_ms() - run_cpu0;
  out.run_allocs = g_allocs.load(std::memory_order_relaxed) - allocs0;
  const core::RunResult& r = out.result;

  bool answer_ok = false;
  timed("check.answer", span, job, [&] {
    answer_ok = r.completed &&
                r.answer == lang::cached_reference(ctx.program).answer;
  });
  recovery::OracleReport report;
  if (cfg.obs.recorder) {
    obs::Journal journal;
    std::vector<std::uint8_t> bytes;
    out.export_ms = timed("obs.export", span, job, [&] {
      journal = sim->recorder().snapshot();
      bytes = obs::serialize(journal);
    });
    out.journal_events = journal.header.total_recorded;
    out.journal_dropped = journal.header.dropped;
    out.journal_retained = journal.events.size();
    out.splj_bytes = bytes.size();
    out.oracle_ms = timed("recovery.oracle", span, job, [&] {
      report = recovery::RecoveryOracle::check(r, journal);
    });
  } else {
    out.oracle_ms = timed("recovery.oracle", span, job, [&] {
      report = recovery::RecoveryOracle::check(r);
    });
  }
  if (!r.completed) {
    out.failure = "did not complete";
  } else if (!answer_ok) {
    out.failure = "wrong answer " + r.answer.to_string();
  } else if (!report.ok()) {
    out.failure = "oracle: " + report.to_string();
  } else if (!plan.empty()) {
    out.failure = ctx.workload->guard(r);
    if (!out.failure.empty()) out.failure = "guard: " + out.failure;
  }
  Digest d;
  digest_run(d, r);
  out.digest = d.value();
  Digest p;
  digest_run(p, r, /*with_events=*/false);
  out.protocol_digest = p.value();
  out.job_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  out.cpu_ms = cpu_ms() - cpu0;
  g_tracer.close(span);
  return out;
}

std::string job_json(long id, bool traced, const JobOutcome& o) {
  const core::RunResult& r = o.result;
  const core::Counters& c = r.counters;
  JsonObject j;
  j.num("id", static_cast<std::int64_t>(id))
      .boolean("traced", traced)
      .num("ms", o.job_ms)
      .num("setup_ms", o.setup_ms)
      .num("run_ms", o.run_ms)
      .num("run_cpu_ms", o.run_cpu_ms)
      .num("oracle_ms", o.oracle_ms)
      .num("export_ms", o.export_ms)
      .num("cpu_ms", o.cpu_ms)
      .num("run_allocs", static_cast<std::uint64_t>(o.run_allocs))
      .str("failure", o.failure)
      .str("digest", hex(o.digest))
      .num("makespan", r.makespan_ticks)
      .num("events", r.sim_events)
      .num("crashes", r.faults_injected)
      .num("revived", r.nodes_revived)
      .num("tasks", c.tasks_created)
      .num("scans", c.scans)
      .num("lost", c.tasks_lost_to_crash)
      .num("respawned", c.tasks_respawned)
      .num("twins", c.twins_created)
      .num("salvaged", c.orphan_results_salvaged)
      .num("cancels", c.cancels_sent)
      .num("reclaimed", c.tasks_cancelled + c.orphans_gced)
      .num("reclaim_latency", c.reclaim_latency_ticks)
      .num("records", c.checkpoint_records)
      .num("subsumed", c.checkpoint_subsumed)
      .num("peak_entries", c.checkpoint_peak_entries)
      .num("bounce_retransmits", c.bounce_retransmits)
      .num("store_logged", c.store_entries_logged)
      .num("reissues_avoided", c.reissues_avoided)
      .num("msgs", r.net.total_sent())
      .num("error_detection", sent(r, net::MsgKind::kErrorDetection))
      .num("load_updates", sent(r, net::MsgKind::kLoadUpdate))
      .num("state_chunks", sent(r, net::MsgKind::kStateChunk))
      .num("partition_cut", r.net.partition_cut)
      .num("link_dropped", r.net.link_dropped)
      .num("journal_events", o.journal_events)
      .num("journal_dropped", o.journal_dropped)
      .num("journal_retained", o.journal_retained)
      .num("splj_bytes", o.splj_bytes);
  return j.text();
}

// ---- the run ---------------------------------------------------------------
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

/// Set-ups per run (setup_s is their median), jobs whose peak RSS is
/// probed (peak_rss_mb is their median) and jobs replayed as differential
/// twins under --trace 1. Every set-up warms up with the same job, drawn
/// from kSetupSeed, so set-up time does not depend on --seed.
constexpr int kSetupReps = 7;
constexpr std::uint64_t kSetupSeed = 0;
constexpr std::uint64_t kRssJobs = 15;
constexpr std::uint32_t kDiffJobs = 3;

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: splice_bench --workload NAME --seed N --seconds S "
               "--trace 0|1\n"
               "       splice_bench --reference nqueens:N\n");
  std::exit(2);
}

/// Peak RSS in MB of a process that has done the set-up and then runs job
/// `index`. The job runs in a forked child, which starts from the parent's
/// resident pages; wait4 reports its ru_maxrss. A process's own peak over a
/// whole run is set by the heaviest job the seed happened to draw, so the
/// median over a few such probes is the steadier figure.
double job_peak_rss_mb(const Context& ctx, std::uint64_t index) {
  std::fflush(nullptr);
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    try {
      (void)run_job(ctx, ctx.config, plan_for(ctx, ctx.seed, index),
                    static_cast<long>(index), "rss_probe");
    } catch (...) {
      std::_Exit(1);
    }
    std::_Exit(0);
  }
  int status = 0;
  rusage ru{};
  if (wait4(pid, &status, 0, &ru) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    throw std::runtime_error("peak RSS probe of job " +
                             std::to_string(index) + " failed");
  }
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

int reference_main(const std::string& spec) {
  const auto colon = spec.find(':');
  if (spec.substr(0, colon) != "nqueens" || colon == std::string::npos) {
    usage();
  }
  const lang::Program program = lang::programs::nqueens(
      static_cast<std::uint32_t>(std::atoi(spec.c_str() + colon + 1)));
  std::printf("%s\n", lang::reference_answer(program).to_string().c_str());
  return 0;
}

int bench_main(const Options& opt) {
  const std::vector<Workload> all = workloads();
  const auto it = std::find_if(all.begin(), all.end(), [&](const Workload& w) {
    return opt.workload == w.name;
  });
  if (it == all.end()) {
    std::fprintf(stderr, "unknown workload: %s\n", opt.workload.c_str());
    return 2;
  }
  const Workload& w = *it;
  const std::uint32_t prefix_jobs = w.prefix_jobs;
  g_tracer.on = opt.trace;

  // ---- set-up, repeated: program build, reference interpreter, the clean
  // twin that places faults, and one warm-up job.
  Context ctx;
  ctx.workload = &w;
  ctx.seed = opt.seed;
  std::vector<std::string> setups;
  std::uint64_t clean_digest = 0;
  std::vector<std::string> failures;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const long setup_id = -1 - rep;
    const int span = g_tracer.open("setup", -1, setup_id);
    const auto t0 = Clock::now();
    const double build_ms = timed("lang.program", span, setup_id, [&] {
      ctx.program = w.program();
      ctx.config = w.config();
    });
    const double reference_ms = timed("lang.reference", span, setup_id, [&] {
      (void)lang::cached_reference(ctx.program);
    });
    const JobOutcome clean =
        run_job(ctx, ctx.config, "", setup_id, "clean_twin", span);
    if (!clean.failure.empty()) failures.push_back("clean: " + clean.failure);
    if (rep > 0 && clean.result.makespan_ticks != ctx.clean_makespan) {
      failures.push_back("clean makespan differs between set-ups");
    }
    ctx.clean_makespan = clean.result.makespan_ticks;
    ctx.config.deadline_ticks = kTimeoutMakespans * ctx.clean_makespan;
    clean_digest = clean.digest;
    const JobOutcome warm =
        run_job(ctx, ctx.config, plan_for(ctx, kSetupSeed, 0), setup_id,
                "warmup", span);
    if (!warm.failure.empty()) failures.push_back("warmup: " + warm.failure);
    const double total_ms =
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
    g_tracer.close(span);
    setups.push_back(JsonObject()
                         .num("total_ms", total_ms)
                         .num("build_ms", build_ms)
                         .num("reference_ms", reference_ms)
                         .num("clean_ms", clean.job_ms)
                         .num("warmup_ms", warm.job_ms)
                         .text());
  }

  // ---- peak RSS probes, forked from the finished set-up before any timed
  // job has run.
  std::vector<double> rss_mb;
  for (std::uint64_t j = 0; j < kRssJobs; ++j) {
    rss_mb.push_back(job_peak_rss_mb(ctx, j));
  }

  // ---- the measured closed loop. With --trace 1 jobs are traced in
  // alternate blocks of eight (one pass over every job stratum), so the
  // same run also yields untraced jobs for the tracing overhead.
  std::vector<std::string> jobs;
  std::vector<JobOutcome> first;  // the deterministic prefix, for twins
  Digest run_digest;
  run_digest.add(clean_digest);
  std::uint64_t failed = 0;
  const auto loop0 = Clock::now();
  double elapsed = 0;
  std::uint64_t index = 0;
  // A hard cap keeps a pathologically slow machine inside the caller's
  // time limit; a run cut short reports an incomplete digest.
  const double hard_cap = std::max(opt.seconds * 4.0, 60.0);
  while ((index < prefix_jobs || elapsed < opt.seconds) &&
         elapsed < hard_cap) {
    const bool traced = opt.trace && (index / 8) % 2 == 0;
    g_tracer.on = traced;
    JobOutcome o = run_job(ctx, ctx.config, plan_for(ctx, ctx.seed, index),
                           static_cast<long>(index), "job");
    if (!o.failure.empty()) {
      ++failed;
      failures.push_back("job " + std::to_string(index) + ": " + o.failure);
    }
    if (index < prefix_jobs) run_digest.add(o.digest);
    jobs.push_back(job_json(static_cast<long>(index), traced, o));
    if (index < kDiffJobs) first.push_back(std::move(o));
    ++index;
    elapsed = std::chrono::duration<double>(Clock::now() - loop0).count();
  }
  const bool digest_complete = index >= prefix_jobs;

  // ---- the workload's known-defect job, untimed and uncounted: its
  // outcome shows whether the defect still reproduces.
  std::string known_defect;
  if (w.known_defect != nullptr) {
    g_tracer.on = false;
    const JobOutcome o =
        run_job(ctx, ctx.config, w.known_defect, -100, "known_defect");
    known_defect = o.failure.empty() ? "completes" : o.failure;
  }

  // ---- differential twins (--trace 1 only): clean twins for the recovery
  // cost, one-switch variants of the first jobs, and a journal probe that
  // keeps every event of job 0 for the spawn-placement ratio.
  std::vector<std::string> twins;
  std::uint64_t spawns = 0;
  std::uint64_t remote_spawns = 0;
  if (opt.trace) {
    g_tracer.on = true;
    for (std::size_t j = 0; j < first.size(); ++j) {
      const long id = 2000000 + static_cast<long>(j);
      const JobOutcome clean = run_job(ctx, ctx.config, "", id, "diff.clean");
      twins.push_back(JsonObject()
                          .num("job", static_cast<std::uint64_t>(j))
                          .str("variant", "clean")
                          .num("run_ms", clean.run_ms)
                          .num("run_cpu_ms", clean.run_cpu_ms)
                          .text());
      const std::string plan = plan_for(ctx, ctx.seed, j);
      const JobOutcome base = run_job(ctx, ctx.config, plan, id, "diff.base");
      twins.push_back(JsonObject()
                          .num("job", static_cast<std::uint64_t>(j))
                          .str("variant", "base")
                          .num("run_ms", base.run_ms)
                          .num("run_cpu_ms", base.run_cpu_ms)
                          .text());
      if (base.digest != first[j].digest) {
        failures.push_back("re-run of job " + std::to_string(j) +
                           " changed its digest");
      }
      // (twin name, digest, protocol digest) of this job's twins so far.
      std::vector<std::tuple<std::string, std::uint64_t, std::uint64_t>> ran{
          {"base", base.digest, base.protocol_digest}};
      for (const Workload::Variant& v : w.variants) {
        core::SystemConfig cfg = ctx.config;
        v.apply(cfg);
        const std::string span_name = std::string("diff.") + v.name;
        const JobOutcome o = run_job(ctx, cfg, plan, id, span_name.c_str());
        if (!o.failure.empty()) {
          failures.push_back(std::string(v.name) + " twin of job " +
                             std::to_string(j) + ": " + o.failure);
        }
        const auto ref = std::find_if(ran.begin(), ran.end(), [&](auto& t) {
          return std::get<0>(t) == v.against;
        });
        const bool changed =
            ref == ran.end() ||
            (v.same == Workload::Same::kAll && o.digest != std::get<1>(*ref)) ||
            (v.same == Workload::Same::kProtocol &&
             o.protocol_digest != std::get<2>(*ref));
        if (changed) {
          failures.push_back(std::string(v.name) + " twin of job " +
                             std::to_string(j) + " differs from its " +
                             v.against + " twin");
        }
        ran.emplace_back(v.name, o.digest, o.protocol_digest);
        twins.push_back(JsonObject()
                            .num("job", static_cast<std::uint64_t>(j))
                            .str("variant", v.name)
                            .num("run_ms", o.run_ms)
                            .num("run_cpu_ms", o.run_cpu_ms)
                            .text());
      }
    }
    // Journal probe: the recorder never changes the protocol's course, so
    // job 0 replays with a ring large enough to keep every event.
    core::SystemConfig cfg = ctx.config;
    cfg.obs.recorder = true;
    cfg.obs.journal_capacity = 1U << 21;
    core::Simulation sim(cfg, ctx.program);
    sim.set_fault_plan(core::parse_fault_plan(plan_for(ctx, ctx.seed, 0)));
    const core::RunResult r = sim.run();
    Digest d;
    digest_run(d, r, /*with_events=*/false);
    if (!first.empty() && d.value() != first[0].protocol_digest) {
      failures.push_back("journal probe changed the digest of job 0");
    }
    sim.recorder().for_each([&](const obs::Event& e, const std::string&) {
      if (e.kind != obs::EventKind::kSpawn) return;
      ++spawns;
      if (e.peer != e.proc) ++remote_spawns;
    });
  }

  const lang::ReferenceCache& ref = lang::cached_reference(ctx.program);
  std::vector<std::string> spans;
  spans.reserve(g_tracer.spans.size());
  for (const Span& s : g_tracer.spans) {
    spans.push_back(JsonObject()
                        .str("name", s.name)
                        .num("start_us", s.start_us)
                        .num("end_us", s.end_us)
                        .num("parent", static_cast<std::int64_t>(s.parent))
                        .num("job", static_cast<std::int64_t>(s.job))
                        .text());
  }
  std::vector<std::string> failure_json;
  for (const std::string& f : failures) {
    failure_json.push_back(JsonObject().str("why", f).text());
  }
  JsonObject result;
  result.str("workload", w.name)
      .num("seed", opt.seed)
      .num("prefix_jobs", static_cast<std::uint64_t>(prefix_jobs))
      .num("reference_calls", ref.stats.calls)
      .num("clean_makespan", ctx.clean_makespan)
      .str("digest", hex(run_digest.value()))
      .boolean("digest_complete", digest_complete)
      .num("jobs_failed", failed)
      .str("known_defect_plan", w.known_defect != nullptr ? w.known_defect : "")
      .str("known_defect", known_defect)
      .raw("job_rss_mb", json_array(numbers(rss_mb)))
      .num("probe_spawns", spawns)
      .num("probe_remote_spawns", remote_spawns)
      .raw("setups", json_array(setups))
      .raw("jobs", json_array(jobs))
      .raw("twins", json_array(twins))
      .raw("failures", json_array(failure_json))
      .raw("spans", json_array(spans));
  std::printf("%s\n", result.text().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage();
      return argv[++i];
    };
    if (arg == "--workload") {
      opt.workload = value();
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::atof(value().c_str());
    } else if (arg == "--trace") {
      opt.trace = value() != "0";
    } else if (arg == "--reference") {
      return reference_main(value());
    } else {
      usage();
    }
  }
  if (opt.workload.empty()) usage();
  util::Logger::instance().set_level(util::LogLevel::kError);
  try {
    return bench_main(opt);
  } catch (const std::exception& err) {
    std::fprintf(stderr, "splice_bench: %s\n", err.what());
    return 1;
  }
}
