// E11 — scalability: 2..256 processors across topologies under one mid-run fault, then
//       64..256 processors under recurring (Poisson) faults with repair.
// E19 — goodput + reclaim latency under link-level chaos (partition-and-heal, gray churn).
// E20 — the recovery story as a recorder time series, and the recorder's throughput tax.
// E16 — simulator throughput: events/sec, heap allocations per event (global counting
//       allocator in this binary) and peak RSS at 32..256 processors.
// E21 — sharded-engine scaling and the scheduler x workload matrix.
//
// Recovery must not destroy the scaling that makes applicative systems worth building (§1).
// Each table is a column list (header, JSON key, digits, metric) rendering both its ASCII/CSV
// rows and, under `--perf-json PATH`, its JSON objects for scripts/bench_json.py.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <new>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "bench/harness.h"
#include "sim/inplace_function.h"

// ---------------------------------------------------------------------------
// Counting allocator: every heap allocation in this binary bumps a counter,
// so the throughput table can report allocations *per simulated event* — the
// metric the allocation-free messaging work is held to.
// ---------------------------------------------------------------------------
namespace {
std::atomic<unsigned long long> g_allocs{0};
}  // namespace

// noinline: when GCC >= 12 inlines these TU-local replacements into STL
// container code it pairs the malloc in the inlined new with the free in the
// inlined delete and misreports -Wmismatched-new-delete; keeping the bodies
// opaque preserves the standard new/delete pairing the analyzer checks.
__attribute__((noinline)) void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
__attribute__((noinline)) void* operator new(std::size_t n,
                                             std::align_val_t align) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(align),
                                   (n + static_cast<std::size_t>(align) - 1) &
                                       ~(static_cast<std::size_t>(align) - 1))) {
    return p;
  }
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

using namespace splice;

namespace {

/// Machine-speed calibration: a fixed, pure-CPU integer loop whose rate
/// scales with single-core speed. The perf JSON stores events/sec both raw
/// and divided by this, so the regression guard compares machines fairly.
double calibration_mops() {
  volatile std::uint64_t sink = 0;
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  const auto t0 = std::chrono::steady_clock::now();
  constexpr std::uint64_t kIters = 60'000'000;
  for (std::uint64_t i = 0; i < kIters; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    sink = sink + x;
  }
  const auto t1 = std::chrono::steady_clock::now();
  return static_cast<double>(kIters) /
         std::chrono::duration<double>(t1 - t0).count() / 1e6;
}

[[nodiscard]] long peak_rss_kb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;
}

// ---- column-driven tables ----------------------------------------------------------------

/// A cell: a number printed with its column's digits, or text.
using Value = std::variant<double, std::string>;

/// Every numeric cell is a double.
template <typename T>
double d(T v) { return static_cast<double>(v); }

std::string ratio(long n, long of) { return std::to_string(n) + "/" + std::to_string(of); }

template <typename Row>
struct Column {
  const char* header;  // nullptr: --perf-json only
  const char* key;     // nullptr: table only
  int digits;          // decimals of a numeric value
  std::function<Value(const Row&)> metric;

  /// The rendered value; `quoted` wraps text in JSON string quotes.
  [[nodiscard]] std::string cell(const Row& row, bool quoted = false) const {
    const Value v = metric(row);
    if (const auto* text = std::get_if<std::string>(&v)) return quoted ? '"' + *text + '"' : *text;
    return util::Table::num(std::get<double>(v), digits);
  }
};

template <typename Row>
using Columns = std::vector<Column<Row>>;

/// A column over one numeric member of the row.
template <typename Row, typename T>
Column<Row> field(const char* header, T Row::*member, const char* key, int digits = 0) {
  return {header, key, digits, [member](const Row& r) -> Value { return d(r.*member); }};
}

/// Prints every `stride`-th row under the columns that have a header.
template <typename Row>
void emit_table(const char* title, const Columns<Row>& cols, const std::vector<Row>& rows,
                const bench::Options& opt, std::size_t stride = 1) {
  std::vector<std::string> headers;
  for (const auto& c : cols) {
    if (c.header != nullptr) headers.emplace_back(c.header);
  }
  util::Table table(std::move(headers));
  table.set_title(title);
  for (std::size_t i = 0; i < rows.size(); i += stride) {
    std::vector<std::string> cells;
    for (const auto& c : cols) {
      if (c.header != nullptr) cells.push_back(c.cell(rows[i]));
    }
    table.add_row(std::move(cells));
  }
  bench::emit(table, opt);
}

/// Writes `rows` as JSON array elements, one object per line, over the columns with a key.
template <typename Row>
void json_rows(std::FILE* out, const Columns<Row>& cols, const std::vector<Row>& rows) {
  for (std::size_t i = 0; i < rows.size(); ++i) {
    std::string line;
    for (const auto& c : cols) {
      if (c.key == nullptr) continue;
      line += line.empty() ? "{\"" : ", \"";
      line += c.key;
      line += "\": ";
      line += c.cell(rows[i], /*quoted=*/true);
    }
    std::fprintf(out, "    %s}%s\n", line.c_str(), i + 1 < rows.size() ? "," : "");
  }
}

// ---- replicate tables (E11, E19) ---------------------------------------------------------

using Rep = bench::Replicate;

/// One swept point: its parameters and its seeded replicates.
struct Point {
  std::uint32_t procs = 0;
  std::string label;  // topology or scenario
  double faults = 0;  // expected faults per run (recurring-fault table)
  std::vector<Rep> reps;
};

/// A column holding the replicate mean of `metric`.
Column<Point> mean(const char* header, const char* key, int digits, double (*metric)(const Rep&)) {
  return {header, key, digits,
          [metric](const Point& p) -> Value { return bench::mean_of(p.reps, metric); }};
}

const Column<Point> kProcs{"procs", "procs", 0, [](const Point& p) -> Value { return d(p.procs); }};

Column<Point> correct(const char* header) {
  return {header, nullptr, 0, [](const Point& p) -> Value {
            return ratio(bench::correct_count(p.reps), static_cast<long>(p.reps.size()));
          }};
}

double slowdown_of(const Rep& r) { return d(r.result.makespan_ticks) / d(r.clean_makespan); }
double cancelled_of(const Rep& r) { return d(r.result.counters.tasks_cancelled); }
double error_msgs_of(const Rep& r) {
  return d(r.result.net.sent[static_cast<std::size_t>(net::MsgKind::kErrorDetection)]);
}

/// E19/E20's cut: the far corner's 2-hop neighbourhood, from makespan/4 for makespan/3.
net::FaultPlan corner_partition(std::uint32_t procs, std::int64_t makespan, std::uint64_t seed) {
  return net::FaultPlan::partition(
             net::RegionSpec::neighborhood(static_cast<net::ProcId>(procs - 1), 2),
             sim::SimTime(makespan / 4), sim::SimTime(makespan / 3))
      .with_seed(seed * 31 + 7);
}

// ---- timed throughput (E20b, E16, E21) ---------------------------------------------------

/// One throughput row (E16 fills procs and the resources, E21 workload/scheduler/shards).
struct Timed {
  const char* workload = nullptr;
  const char* scheduler = nullptr;
  std::uint32_t procs = 0, shards = 0;
  double events_per_sec = 0, allocs_per_event = 0;
  std::uint64_t events = 0, checkpoint_peak = 0, eventfn_heap_fallbacks = 0;
  int correct = 0, runs = 0;
  long peak_rss_kb = 0;
};

/// `program` on `cfg`, one crash of processor procs/3 at half the fault-free makespan: after
/// a warm-up, the best events/sec of `batches` timed batches of `reps` runs seeded 71, 72, ...
/// Batches replay the same seeds, so the counts (per-run means) are the last batch's.
Timed best_of(core::SystemConfig cfg, const lang::Program& program, int batches, int reps) {
  const net::FaultPlan plan = net::FaultPlan::single(
      static_cast<net::ProcId>(cfg.processors / 3),
      sim::SimTime(core::Simulation::fault_free_makespan(cfg, program) / 2));
  (void)core::run_once(cfg, program, plan);  // warm-up
  const std::uint64_t spills0 = sim::EventFn::heap_fallbacks();
  const unsigned long long allocs0 = g_allocs.load();
  Timed best;
  for (int batch = 0; batch < batches; ++batch) {
    Timed t;
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < reps; ++i) {
      cfg.seed = 71 + static_cast<std::uint64_t>(i);
      const core::RunResult r = core::run_once(cfg, program, plan);
      t.events += r.sim_events;
      t.checkpoint_peak += r.counters.checkpoint_peak_entries;
      ++t.runs;
      if (r.completed && r.answer_correct) ++t.correct;
    }
    const std::chrono::duration<double> secs = std::chrono::steady_clock::now() - t0;
    t.events_per_sec = std::max(best.events_per_sec, d(t.events) / secs.count());
    best = t;
  }
  best.allocs_per_event = d(g_allocs.load() - allocs0) / d(batches * best.events);
  best.eventfn_heap_fallbacks = sim::EventFn::heap_fallbacks() - spills0;
  best.events /= static_cast<std::uint64_t>(reps);
  best.checkpoint_peak /= static_cast<std::uint64_t>(reps);
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Options opt = bench::Options::parse(argc, argv, /*takes_perf_json=*/true);
  double calib = 0;  // calibration_mops(), measured only for --perf-json

  const lang::Program program = lang::programs::tree_sum(6, 2, 400, 30);
  auto config_for = [&](std::uint32_t procs, net::TopologyKind topo, std::uint64_t seed) {
    core::SystemConfig cfg;
    cfg.processors = procs;
    cfg.topology = topo;
    cfg.scheduler.kind = core::SchedulerKind::kLocalFirst;
    cfg.recovery.kind = core::RecoveryKind::kSplice;
    cfg.heartbeat_interval = 2000;
    cfg.seed = seed * 41 + 29;
    return cfg;
  };

  // ---- E11: machine size x topology under one mid-run fault --------------------------------
  // Makespan is the fault-free twins'; speedup is against the one-processor machine.
  const auto serial = bench::run_replicates(
      2, program, [&](std::uint64_t s) { return config_for(1, net::TopologyKind::kComplete, s); });
  const double serial_makespan =
      bench::mean_of(serial, [](const Rep& r) { return d(r.result.makespan_ticks); });
  std::vector<Point> scale_rows;
  for (std::uint32_t procs : {2U, 4U, 8U, 16U, 32U, 64U, 128U, 256U}) {
    for (auto topo : {net::TopologyKind::kMesh2D, net::TopologyKind::kTorus2D,
                      net::TopologyKind::kHypercube}) {
      if (topo == net::TopologyKind::kHypercube && (procs & (procs - 1)) != 0) continue;
      scale_rows.push_back(
          {procs, std::string(net::to_string(topo)), 0,
           bench::run_replicates(
               opt.replicates, program, [&](std::uint64_t s) { return config_for(procs, topo, s); },
               [](const core::SystemConfig& cfg, std::int64_t makespan, std::uint64_t seed) {
                 const auto victim = static_cast<net::ProcId>((seed * 17 + 3) % cfg.processors);
                 return net::FaultPlan::single(victim, sim::SimTime(makespan / 2));
               })});
    }
  }
  const auto clean_makespan = [](const Point& p) {
    return bench::mean_of(p.reps, [](const Rep& r) { return d(r.clean_makespan); });
  };
  emit_table<Point>(
      "scalability — machine size x topology under one fault",
      {kProcs, {"topology", nullptr, 0, [](const Point& p) -> Value { return p.label; }},
       {"makespan", nullptr, 0, [&](const Point& p) -> Value { return clean_makespan(p); }},
       {"speedup", nullptr, 2,
        [&](const Point& p) -> Value { return serial_makespan / clean_makespan(p); }},
       correct("faulted correct"),
       mean("recovery latency", nullptr, 0,
            [](const Rep& r) { return d(r.result.makespan_ticks - r.clean_makespan); }),
       mean("error msgs", nullptr, 0, error_msgs_of)},
      scale_rows, opt);

  // ---- 64..256 processors under Poisson fault rates with repair ----------------------------
  // Failures arrive over the whole machine and every victim is repaired, so it hovers below
  // full strength instead of draining. The mean interval derives from the fault-free
  // makespan, so a row targets a fault *rate* (expected faults per run).
  std::vector<Point> churn_rows;
  for (std::uint32_t procs : {64U, 128U, 256U}) {
    for (double faults : opt.quick ? std::vector<double>{4} : std::vector<double>{4, 8}) {
      churn_rows.push_back(
          {procs, "", faults,
           bench::run_replicates(
               opt.replicates, program,
               [&](std::uint64_t s) { return config_for(procs, net::TopologyKind::kTorus2D, s); },
               [&](const core::SystemConfig&, std::int64_t makespan, std::uint64_t seed) {
                 return net::FaultPlan::poisson({.candidates = {},  // the whole machine
                                                 .start = sim::SimTime(makespan / 5),
                                                 .stop = sim::SimTime(makespan * 2),
                                                 .mean_interval = d(makespan) / faults,
                                                 .max_faults = 24})
                     .with_rejoin(sim::SimTime(makespan / 6))
                     .with_seed(seed * 29 + 13);
               })});
    }
  }
  emit_table<Point>(
      "large machines under recurring faults + repair",
      {kProcs, {"faults/run", nullptr, 0, [](const Point& p) -> Value { return p.faults; }},
       mean("kills", nullptr, 1, [](const Rep& r) { return d(r.result.faults_injected); }),
       mean("revived", nullptr, 1, [](const Rep& r) { return d(r.result.nodes_revived); }),
       correct("correct"),
       mean("reissued", nullptr, 1,
            [](const Rep& r) { return d(r.result.counters.tasks_respawned); }),
       mean("cancelled", nullptr, 1, cancelled_of),
       mean("cancel msgs", nullptr, 1,
            [](const Rep& r) { return d(r.result.counters.cancels_sent); }),
       mean("error msgs", nullptr, 0, error_msgs_of), mean("slowdown", nullptr, 2, slowdown_of),
       mean("alive at end", nullptr, 1,
            [](const Rep& r) { return d(r.result.processors_alive_at_end); })},
      churn_rows, opt);

  // E19/E20 grow the tree with the machine (~8+ tasks per processor): duplicate races need
  // enough concurrent subtrees per processor for a fault to actually collide.
  const auto reclaim_program_for = [](std::uint32_t procs) {
    return lang::programs::tree_sum(procs >= 256 ? 11 : procs >= 128 ? 10 : 9, 2, 400, 30);
  };
  const auto reclaim_config_for = [&](std::uint32_t procs, std::uint64_t seed) {
    core::SystemConfig cfg = config_for(procs, net::TopologyKind::kTorus2D, seed);
    cfg.reclaim.cancellation = true;
    cfg.reclaim.gc_interval = 0;  // protocol reclaim only
    return cfg;
  };

  // ---- E19: goodput + reclaim latency under link-level chaos -------------------------------
  // No processor dies. "partition-heal" cuts the far corner off, so both sides reissue each
  // other's subtrees and the cancel protocol reclaims the duplicates after the heal;
  // "gray-churn" starves one node's payload traffic (heartbeats flow: detection must stay
  // silent). Goodput is completed tasks per kilotick; reclaim latency is creation -> abort.
  std::vector<Point> e19_rows;
  for (std::uint32_t procs :
       opt.quick ? std::vector<std::uint32_t>{128U} : std::vector<std::uint32_t>{128U, 256U}) {
    for (const bool gray_mode : {false, true}) {
      e19_rows.push_back(
          {procs, gray_mode ? "gray-churn" : "partition-heal", 0,
           bench::run_replicates(
               opt.replicates, reclaim_program_for(procs),
               [&](std::uint64_t s) { return reclaim_config_for(procs, s); },
               [&](const core::SystemConfig& cfg, std::int64_t makespan, std::uint64_t seed) {
                 if (!gray_mode) return corner_partition(cfg.processors, makespan, seed);
                 // The gray node sits on a background lossy wire.
                 return net::FaultPlan::gray({.node = static_cast<net::ProcId>(cfg.processors / 2),
                                              .start = sim::SimTime(makespan / 6)})
                     .merge(net::FaultPlan::link(
                         {.drop_p = 0.02, .reorder_p = 0.04, .jitter = 10, .start = {}}))
                     .with_seed(seed * 31 + 7);
               })});
    }
  }
  const Columns<Point> e19_cols{
      kProcs,
      {"scenario", "scenario", 0, [](const Point& p) -> Value { return p.label; }},
      correct("correct"),
      {nullptr, "correct", 0,
       [](const Point& p) -> Value { return d(bench::correct_count(p.reps)); }},
      {nullptr, "runs", 0, [](const Point& p) -> Value { return d(p.reps.size()); }},
      mean("goodput/ktick", "goodput_tasks_per_ktick_mean", 2, [](const Rep& r) {
        const auto ticks = r.result.makespan_ticks;
        return ticks == 0 ? 0.0 : d(r.result.counters.tasks_completed) * 1000.0 / d(ticks);
      }),
      mean("slowdown", "slowdown_mean", 2, slowdown_of),
      mean("reclaimed", "reclaimed_mean", 1, cancelled_of),
      mean("reclaim latency", "reclaim_latency_ticks_mean", 0, [](const Rep& r) {
        const auto n = r.result.counters.tasks_cancelled;
        return n == 0 ? 0.0 : d(r.result.counters.reclaim_latency_ticks) / d(n);
      }),
      mean("msgs lost", "msgs_lost_mean", 0, [](const Rep& r) {
        const net::NetworkStats& n = r.result.net;
        return d(n.partition_cut + n.link_dropped + n.gray_dropped);
      }),
      mean("cancel msgs", "cancel_msgs_mean", 1, [](const Rep& r) {
        return d(r.result.net.sent[static_cast<std::size_t>(net::MsgKind::kCancel)]);
      })};
  emit_table("E19 goodput under link-level chaos — partition-and-heal vs. gray-failure churn "
             "(no crashes)",
             e19_cols, e19_rows, opt);

  // ---- E20: the recovery story as a time series -------------------------------------------
  // One partition-heal run with the recorder on: per-window goodput dips at the cut, reissue
  // work lands, the cancel wave follows the heal. Quantiles are spawn→complete latency.
  const std::uint32_t e20_procs = 128;
  const lang::Program e20_program = reclaim_program_for(e20_procs);
  core::SystemConfig e20_cfg = reclaim_config_for(e20_procs, 7);
  e20_cfg.obs.recorder = true;
  core::Simulation e20_sim(e20_cfg, e20_program);
  e20_sim.set_fault_plan(corner_partition(
      e20_procs, core::Simulation::fault_free_makespan(e20_cfg, e20_program), 7));
  const core::RunResult e20_result = e20_sim.run();
  if (!e20_result.completed || !e20_result.answer_correct) {
    std::fprintf(stderr, "E20 partition-heal run failed\n");
    return 1;
  }
  const std::vector<obs::TimePoint> e20_series = e20_sim.recorder().metrics().series();
  const obs::LogHistogram& e20_lat = e20_sim.recorder().metrics().latency();
  using TP = obs::TimePoint;
  const Columns<TP> window_cols{
      field("window start", &TP::window_start, "t"), field("spawned", &TP::spawned, "spawned"),
      field("completed", &TP::completed, "completed"),
      field("queue depth", &TP::queue_depth, "queue_depth"),
      field("in flight", &TP::in_flight, "in_flight"),
      field("ckpt resident", &TP::checkpoint_residency, "ckpt_resident"),
      field("p50", &TP::latency_p50, "p50"), field("p99", &TP::latency_p99, "p99"),
      field("p999", &TP::latency_p999, "p999")};
  // The table strides to ~16 rows; the perf JSON carries every window.
  emit_table("E20 partition-heal at 128 procs, recorder on — per-window goodput and "
             "spawn->complete latency quantiles (cut at makespan/4, heal +makespan/3)",
             window_cols, e20_series, opt, std::max<std::size_t>(1, e20_series.size() / 16));
  std::printf(
      "E20 whole-run spawn->complete latency: p50=%llu p99=%llu p999=%llu ticks over %llu "
      "completions\n\n",
      static_cast<unsigned long long>(e20_lat.percentile(0.5)),
      static_cast<unsigned long long>(e20_lat.percentile(0.99)),
      static_cast<unsigned long long>(e20_lat.percentile(0.999)),
      static_cast<unsigned long long>(e20_lat.count()));

  // ---- E20b: recorder overhead on the E16 workload -----------------------------------------
  // The 128-processor throughput with the recorder off (every other bench's default) and on
  // (journal + metrics, details off); the delta is the observability tax.
  const lang::Program perf_program = lang::programs::tree_sum(12, 2, 60, 10);
  double recorder_eps[2] = {0, 0};  // [0]=off, [1]=on
  for (const bool rec_on : {false, true}) {
    core::SystemConfig cfg = config_for(128, net::TopologyKind::kTorus2D, 71);
    cfg.obs.recorder = rec_on;
    const Timed t = best_of(cfg, perf_program, 2, opt.quick ? 2 : 3);
    if (t.correct != t.runs) {
      std::fprintf(stderr, "E20 overhead run failed\n");
      return 1;
    }
    recorder_eps[rec_on ? 1 : 0] = t.events_per_sec;
  }
  const double recorder_tax =
      recorder_eps[0] > 0 ? (1.0 - recorder_eps[1] / recorder_eps[0]) * 100.0 : 0.0;
  std::printf(
      "E20 recorder overhead at 128 procs: %.0f events/sec off, %.0f events/sec on (%.1f%% "
      "tax)\n\n",
      recorder_eps[0], recorder_eps[1], recorder_tax);

  // ---- E16: simulator throughput (the recorded perf trajectory) ----------------------------
  // Sequential and wall-clock timed; the 8191-task tree keeps even 256 processors busy.
  const int perf_reps = opt.quick ? 3 : 5;
  std::vector<Timed> perf_rows;
  for (std::uint32_t procs : {32U, 64U, 128U, 256U}) {
    Timed row = best_of(config_for(procs, net::TopologyKind::kTorus2D, 71), perf_program, 3,
                        perf_reps);
    if (row.correct != row.runs) {
      std::fprintf(stderr, "throughput run failed at %u procs\n", procs);
      return 1;
    }
    row.procs = procs;
    row.peak_rss_kb = peak_rss_kb();
    perf_rows.push_back(row);
  }
  const Column<Timed> normalized{  // events/sec per calibration Mop
      nullptr, "normalized_events_per_mop", 1,
      [&](const Timed& r) -> Value { return r.events_per_sec / calib; }};
  const Columns<Timed> perf_cols{
      field("procs", &Timed::procs, "procs"),
      field("events/sec", &Timed::events_per_sec, "events_per_sec"), normalized,
      field("allocs/event", &Timed::allocs_per_event, "allocs_per_event", 2),
      field("events/run", &Timed::events, "events_per_run"),
      field("peak RSS (KB)", &Timed::peak_rss_kb, "peak_rss_kb"),
      field("ckpt peak", &Timed::checkpoint_peak, "checkpoint_peak_records"),
      field("EventFn spills", &Timed::eventfn_heap_fallbacks, "eventfn_heap_fallbacks")};
  emit_table("simulator throughput — tree_sum(12,2) + one fault, sequential runs", perf_cols,
             perf_rows, opt);

  // ---- E21: sharded-engine scaling + scheduler x workload matrix ---------------------------
  // The same seeded computation at every shard count: events/sec at 1/2/4/8 worker threads,
  // and workloads x schedulers at 1 and 8 shards (every cell must stay answer-correct). On
  // one core, shards > 1 pay barrier + context-switch cost with no speedup.
  const std::pair<const char*, lang::Program> workloads[] = {
      {"tree_sum(10,2)", lang::programs::tree_sum(10, 2, 60, 10)},
      {"nqueens(6)", lang::programs::nqueens(6)}};
  const std::pair<const char*, core::SchedulerKind> scheds[] = {
      {"random", core::SchedulerKind::kRandom},
      {"local-first", core::SchedulerKind::kLocalFirst},
      {"gradient", core::SchedulerKind::kGradient}};
  std::vector<Timed> e21_rows;
  const auto run_cell = [&](const auto& workload, const auto& sched, std::uint32_t shards) {
    core::SystemConfig cfg = config_for(64, net::TopologyKind::kTorus2D, 71);
    cfg.scheduler.kind = sched.second;
    cfg.parallel.shards = shards;
    Timed row = best_of(cfg, workload.second, 2, opt.quick ? 1 : 2);
    row.workload = workload.first;
    row.scheduler = sched.first;
    row.shards = shards;
    e21_rows.push_back(row);
  };
  // Scaling curve: one workload/scheduler across the full thread sweep.
  for (std::uint32_t shards : {1U, 2U, 4U, 8U}) run_cell(workloads[0], scheds[1], shards);
  // Matrix: every workload x scheduler at the endpoints, skipping the curve's own cells.
  for (const auto& workload : workloads) {
    for (const auto& sched : scheds) {
      if (&workload == &workloads[0] && &sched == &scheds[1]) continue;
      for (std::uint32_t shards : {1U, 8U}) run_cell(workload, sched, shards);
    }
  }
  const Columns<Timed> e21_cols{
      {"workload", "workload", 0, [](const Timed& r) -> Value { return r.workload; }},
      {"scheduler", "scheduler", 0, [](const Timed& r) -> Value { return r.scheduler; }},
      field("shards", &Timed::shards, "shards"),
      field("events/sec", &Timed::events_per_sec, "events_per_sec"), normalized,
      {"events/sec/thread", "events_per_sec_per_thread", 0,
       [](const Timed& r) -> Value { return r.events_per_sec / r.shards; }},
      field(nullptr, &Timed::events, "events_per_run"),
      {"correct", nullptr, 0, [](const Timed& r) -> Value { return ratio(r.correct, r.runs); }},
      field(nullptr, &Timed::correct, "correct"), field(nullptr, &Timed::runs, "runs")};
  emit_table("E21 sharded engine — scaling curve + scheduler x workload matrix (engine(K) vs "
             "engine(1), same seeded computation)",
             e21_cols, e21_rows, opt);

  if (opt.perf_json != nullptr) {
    calib = calibration_mops();
    std::FILE* out = std::fopen(opt.perf_json, "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", opt.perf_json);
      return 1;
    }
    std::fprintf(out,
                 "{\n  \"schema_version\": 1,\n  \"workload\": \"tree_sum(12,2,60,10) torus2d "
                 "splice, one mid-run fault, %d sequential runs\",\n  \"calibration_mops\": "
                 "%.1f,\n  \"throughput\": [\n",
                 perf_reps, calib);
    json_rows(out, perf_cols, perf_rows);
    std::fprintf(out, "  ],\n  \"e19_chaos\": [\n");
    json_rows(out, e19_cols, e19_rows);
    std::fprintf(out, "  ],\n  \"e21_pdes\": [\n");
    json_rows(out, e21_cols, e21_rows);
    std::fprintf(out,
                 "  ],\n  \"recorder_overhead\": {\"procs\": 128, \"events_per_sec_off\": %.0f, "
                 "\"events_per_sec_on\": %.0f, \"overhead_pct\": %.1f},\n",
                 recorder_eps[0], recorder_eps[1], recorder_tax);
    std::fprintf(out,
                 "  \"e20_partition_heal_series\": {\"procs\": %u, \"makespan_ticks\": %lld, "
                 "\"latency_p50\": %llu, \"latency_p99\": %llu, \"latency_p999\": %llu, "
                 "\"windows\": [\n",
                 e20_procs, static_cast<long long>(e20_result.makespan_ticks),
                 static_cast<unsigned long long>(e20_lat.percentile(0.5)),
                 static_cast<unsigned long long>(e20_lat.percentile(0.99)),
                 static_cast<unsigned long long>(e20_lat.percentile(0.999)));
    json_rows(out, window_cols, e20_series);
    std::fprintf(out, "  ]}\n}\n");
    std::fclose(out);
    std::printf("perf json written to %s\n", opt.perf_json);
  }

  std::printf(
      "expected shape: speedup grows with processors until the tree's\n"
      "parallelism saturates; recovery latency stays roughly flat (only\n"
      "the dead node's resident subtree is redone) while error-broadcast\n"
      "traffic grows linearly with machine size. Under recurring faults\n"
      "with repair, large machines stay correct and near full strength at\n"
      "the end of the run; reissues scale with the fault rate, not the\n"
      "machine size. E19: with only the wire misbehaving — a\n"
      "partition that heals, or a gray node under lossy links — every run\n"
      "stays correct, goodput degrades smoothly with the loss volume, and\n"
      "cross-cut duplicates are reclaimed at protocol latency after the\n"
      "heal. Simulator throughput (E16) should stay\n"
      "flat-to-rising across machine sizes — per-event cost must not grow\n"
      "with the processor count — and allocs/event should stay near zero.\n");
  return 0;
}
