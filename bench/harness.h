// Shared experiment harness for the bench binaries.
//
// Every binary regenerates one table/figure of EXPERIMENTS.md: it sweeps a
// parameter, runs seeded replicates in parallel (simulations themselves are
// single-threaded and deterministic), and prints the aggregate rows with
// util::Table. `--quick` shrinks replicate counts for smoke runs; `--csv`
// switches output to CSV.
#pragma once

#include <algorithm>
#include <atomic>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "core/simulation.h"
#include "lang/programs.h"
#include "util/table.h"

namespace splice::bench {

struct Options {
  int replicates = 10;
  bool quick = false;
  bool csv = false;
  const char* perf_json = nullptr;  // --perf-json PATH (tab_scalability)

  /// Parses the shared bench flags. An unknown flag, a missing value or a
  /// replicate count below 1 prints the usage line and exits 2.
  static Options parse(int argc, char** argv, bool takes_perf_json = false) {
    Options opt;
    for (int i = 1; i < argc; ++i) {
      const char* arg = argv[i];
      const bool has_value = i + 1 < argc;
      if (std::strcmp(arg, "--quick") == 0 ||
          std::strcmp(arg, "--smoke") == 0) {
        opt.quick = true;
        opt.replicates = 3;
      } else if (std::strcmp(arg, "--csv") == 0) {
        opt.csv = true;
      } else if (std::strcmp(arg, "--replicates") == 0 && has_value) {
        char* end = nullptr;
        const long n = std::strtol(argv[++i], &end, 10);
        if (*end != '\0' || n < 1 || n > INT_MAX) {
          usage(argv[0], takes_perf_json);
        }
        opt.replicates = static_cast<int>(n);
      } else if (takes_perf_json && std::strcmp(arg, "--perf-json") == 0 &&
                 has_value) {
        opt.perf_json = argv[++i];
      } else {
        usage(argv[0], takes_perf_json);
      }
    }
    return opt;
  }

  [[noreturn]] static void usage(const char* prog, bool takes_perf_json) {
    std::fprintf(stderr,
                 "usage: %s [--smoke | --quick] [--csv] [--replicates N]%s\n",
                 prog, takes_perf_json ? " [--perf-json PATH]" : "");
    std::exit(2);
  }
};

/// Run body(i) for every i in [0, n) on up to hardware_concurrency threads
/// (`threads` overrides) pulling indices from one atomic counter. An
/// exception inside body terminates: simulations report failures through
/// their results, not by throwing.
inline void parallel_for(std::size_t n,
                         const std::function<void(std::size_t)>& body,
                         std::size_t threads = 0) {
  if (threads == 0) {
    threads = std::max(1U, std::thread::hardware_concurrency());
  }
  std::atomic<std::size_t> next{0};
  const auto drain = [&] {
    for (std::size_t i = next++; i < n; i = next++) body(i);
  };
  std::vector<std::thread> workers;
  for (std::size_t w = 1; w < std::min(n, threads); ++w) {
    workers.emplace_back(drain);
  }
  drain();
  for (std::thread& t : workers) t.join();
}

struct Replicate {
  core::RunResult result;
  std::int64_t clean_makespan = 0;
};

/// Run `n` seeded replicates of (config(seed), program, plan(cfg, clean
/// makespan, seed)) across hardware threads. Seeds are 1..n, so results are
/// reproducible regardless of thread interleaving.
inline std::vector<Replicate> run_replicates(
    int n, const lang::Program& program,
    const std::function<core::SystemConfig(std::uint64_t)>& make_config,
    const std::function<net::FaultPlan(const core::SystemConfig&, std::int64_t,
                                       std::uint64_t)>& make_plan = nullptr) {
  std::vector<Replicate> out(static_cast<std::size_t>(n));
  parallel_for(static_cast<std::size_t>(n), [&](std::size_t i) {
    const std::uint64_t seed = i + 1;
    core::SystemConfig cfg = make_config(seed);
    const std::int64_t makespan =
        core::Simulation::fault_free_makespan(cfg, program);
    net::FaultPlan plan;
    if (make_plan) plan = make_plan(cfg, makespan, seed);
    out[i] = Replicate{core::run_once(cfg, program, plan), makespan};
  });
  return out;
}

/// Mean of a per-replicate metric.
inline double mean_of(const std::vector<Replicate>& reps,
                      const std::function<double(const Replicate&)>& metric) {
  if (reps.empty()) return 0.0;
  double sum = 0.0;
  for (const Replicate& r : reps) sum += metric(r);
  return sum / static_cast<double>(reps.size());
}

inline int completed_count(const std::vector<Replicate>& reps) {
  int n = 0;
  for (const Replicate& r : reps) n += r.result.completed ? 1 : 0;
  return n;
}

inline int correct_count(const std::vector<Replicate>& reps) {
  int n = 0;
  for (const Replicate& r : reps) {
    n += (r.result.completed && r.result.answer_correct) ? 1 : 0;
  }
  return n;
}

inline void emit(const util::Table& table, const Options& opt) {
  if (opt.csv) {
    std::fputs(table.to_csv().c_str(), stdout);
  } else {
    std::fputs(table.to_ascii().c_str(), stdout);
  }
  std::fputs("\n", stdout);
}

}  // namespace splice::bench
