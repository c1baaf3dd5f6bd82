// Public API facade: build a system, run a program under a fault plan,
// collect the results.
//
// Typical use (see examples/quickstart.cpp):
//
//   core::SystemConfig cfg;
//   cfg.processors = 16;
//   cfg.recovery.kind = core::RecoveryKind::kSplice;
//   core::Simulation sim(cfg, lang::programs::fib(16, 50));
//   sim.set_fault_plan(
//       net::FaultPlan::single(/*target=*/3, sim::SimTime(20000)));
//   core::RunResult result = sim.run();
//
// Richer plans compose regional, cascading, recurring, and rejoin faults
// (net/fault_plan.h), or parse from the scenario DSL (core::parse_fault_plan).
// Every run is deterministic for a (config, program, fault plan) triple.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "core/config.h"
#include "core/metrics.h"
#include "lang/interpreter.h"
#include "lang/program.h"
#include "net/fault_injector.h"
#include "net/network.h"
#include "obs/journal.h"
#include "runtime/pdes_engine.h"
#include "runtime/runtime.h"
#include "sim/simulator.h"

namespace splice::core {

class Simulation {
 public:
  Simulation(SystemConfig config, lang::Program program);
  ~Simulation();

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  void set_fault_plan(net::FaultPlan plan) { fault_plan_ = std::move(plan); }

  /// Run to completion (or deadline). May be called once per Simulation.
  RunResult run();

  /// Fault-free reference makespan for this (config, program) pair with the
  /// same seed — computed by running a fault-free twin simulation. Used by
  /// experiments that place faults at a fraction of the makespan.
  [[nodiscard]] static std::int64_t fault_free_makespan(
      const SystemConfig& config, const lang::Program& program);

  // ---- post-run inspection --------------------------------------------------
  /// The flight recorder (journal + metrics). Valid after run().
  [[nodiscard]] const obs::Recorder& recorder() const;
  [[nodiscard]] runtime::Runtime& runtime_for_test() { return *runtime_; }
  [[nodiscard]] const lang::Program& program() const noexcept {
    return program_;
  }
  [[nodiscard]] const SystemConfig& config() const noexcept { return config_; }

 private:
  SystemConfig config_;
  lang::Program program_;
  net::FaultPlan fault_plan_;

  std::unique_ptr<sim::Simulator> sim_;
  std::unique_ptr<net::Network> network_;
  std::unique_ptr<runtime::Runtime> runtime_;
  std::unique_ptr<net::FaultInjector> injector_;
  /// The sharded (PDES) driver when config.parallel.shards >= 1, else null.
  /// Owned by network_ as its transport.
  runtime::PdesEngine* engine_ = nullptr;
  bool ran_ = false;
};

/// One-line helper for tests/benches: build, run, return.
[[nodiscard]] RunResult run_once(const SystemConfig& config,
                                 const lang::Program& program,
                                 const net::FaultPlan& plan = {});

}  // namespace splice::core
