// Shared helpers for the test suite.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/config.h"
#include "core/simulation.h"
#include "lang/programs.h"
#include "net/fault_injector.h"
#include "obs/journal.h"
#include "runtime/processor.h"

namespace splice::testing {

/// Baseline configuration used across the suite: small mesh, random
/// scheduler, splice recovery, heartbeats on, recorder off.
inline core::SystemConfig base_config(std::uint32_t processors = 8,
                                      std::uint64_t seed = 1) {
  core::SystemConfig cfg;
  cfg.processors = processors;
  cfg.topology = net::TopologyKind::kMesh2D;
  cfg.scheduler.kind = core::SchedulerKind::kRandom;
  cfg.recovery.kind = core::RecoveryKind::kSplice;
  cfg.heartbeat_interval = 1500;
  cfg.seed = seed;
  return cfg;
}

/// The machine of the partition-heal tests: an 8x8 torus under the
/// gradient scheduler with splice recovery, every other setting default.
inline core::SystemConfig torus64_config() {
  core::SystemConfig cfg;
  cfg.processors = 64;
  cfg.topology = net::TopologyKind::kTorus2D;
  cfg.scheduler.kind = core::SchedulerKind::kGradient;
  cfg.recovery.kind = core::RecoveryKind::kSplice;
  return cfg;
}

/// Live processors of a finished simulation that do not hold `dead` dead.
inline std::vector<net::ProcId> unaware_of_death(core::Simulation& sim,
                                                 net::ProcId dead) {
  std::vector<net::ProcId> out;
  runtime::Runtime& rt = sim.runtime_for_test();
  for (net::ProcId p = 0; p < sim.config().processors; ++p) {
    if (p == dead || rt.processor(p).crashed()) continue;
    if (!rt.processor(p).knows_dead(dead)) out.push_back(p);
  }
  return out;
}

/// True if the run journaled an event of `kind` whose detail prose contains
/// `detail` (prose is kept only under cfg.obs.details).
inline bool journaled(const core::Simulation& sim, obs::EventKind kind,
                      std::string_view detail = {}) {
  bool found = false;
  sim.recorder().for_each([&](const obs::Event& e, const std::string& text) {
    found = found ||
            (e.kind == kind && text.find(detail) != std::string::npos);
  });
  return found;
}

/// Reference fibonacci for oracle checks.
inline std::int64_t fib_value(std::int64_t n) {
  if (n < 2) return n;
  std::int64_t a = 0, b = 1;
  for (std::int64_t i = 2; i <= n; ++i) {
    const std::int64_t c = a + b;
    a = b;
    b = c;
  }
  return b;
}

/// Reference binomial coefficient.
inline std::int64_t binom_value(std::int64_t n, std::int64_t k) {
  if (k < 0 || k > n) return 0;
  std::int64_t result = 1;
  for (std::int64_t i = 1; i <= k; ++i) {
    result = result * (n - k + i) / i;
  }
  return result;
}

/// Known n-queens solution counts.
inline std::int64_t nqueens_value(std::uint32_t n) {
  static const std::int64_t kCounts[] = {1, 1, 0, 0, 2, 10, 4, 40, 92, 352};
  return n < 10 ? kCounts[n] : -1;
}

}  // namespace splice::testing
