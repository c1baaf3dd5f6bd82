#include "core/simulation.h"

#include <stdexcept>

#include "util/logging.h"

namespace splice::core {

Simulation::Simulation(SystemConfig config, lang::Program program)
    : config_(std::move(config)), program_(std::move(program)) {
  program_.validate();
}

Simulation::~Simulation() = default;

RunResult Simulation::run() {
  if (ran_) throw std::logic_error("Simulation::run may be called once");
  ran_ = true;

  sim_ = std::make_unique<sim::Simulator>();
  // The driver choice: the sharded (PDES) engine is the Network's
  // transport, and PdesEngine's validate() rejects what it cannot run.
  std::unique_ptr<net::Transport> transport;  // null = in-process default
  if (config_.parallel.engine()) {
    auto engine =
        std::make_unique<runtime::PdesEngine>(*sim_, config_, fault_plan_);
    engine_ = engine.get();
    transport = std::move(engine);
  } else {
    switch (config_.transport.backend) {
      case net::TransportKind::kInProcess:
        break;
      case net::TransportKind::kShmRing:
        transport = net::make_shm_ring_transport(
            *sim_, config_.processors, config_.transport.shm_ring_bytes);
        break;
      case net::TransportKind::kTcp:
        // TCP spans OS processes; a single-process Simulation cannot host it.
        throw std::invalid_argument(
            "Simulation::run cannot drive the tcp transport; use the "
            "splice_noded multi-process driver");
    }
  }
  network_ = std::make_unique<net::Network>(
      *sim_, net::Topology(config_.topology, config_.processors),
      config_.latency, std::move(transport));
  runtime_ = std::make_unique<runtime::Runtime>(*sim_, *network_, config_,
                                                program_);
  if (engine_ != nullptr) runtime_->set_engine(*engine_);
  runtime_->set_warm_rejoin(fault_plan_.rejoin.enabled &&
                            fault_plan_.rejoin.mode == net::RejoinMode::kWarm);
  injector_ = std::make_unique<net::FaultInjector>(
      *sim_, *network_, fault_plan_,
      [this](net::ProcId dead) { runtime_->on_kill(dead); },
      [this](net::ProcId back) { runtime_->on_revive(back); });
  injector_->set_on_heal([this](const std::vector<net::ProcId>& side) {
    runtime_->on_partition_heal(side);
  });
  if (!fault_plan_.triggered.empty()) {
    runtime_->set_trigger_sink(
        [this](const std::string& name) { injector_->fire_trigger(name); });
  }

  // Reference answer: the determinacy oracle (§2.1). Memoized per program —
  // replicate sweeps and clean-makespan twin runs share one interpreter walk.
  const lang::ReferenceCache& ref = lang::cached_reference(program_);
  const lang::EvalStats& ref_stats = ref.stats;
  const lang::Value& expected = ref.answer;

  std::int64_t deadline = config_.deadline_ticks;
  if (deadline <= 0) {
    // Generous auto-bound: sequential work, fully serialised on one node,
    // times a recovery headroom factor.
    const std::int64_t serial =
        static_cast<std::int64_t>(ref_stats.total_work) * config_.op_cost +
        static_cast<std::int64_t>(ref_stats.calls) *
            (config_.spawn_cost + 4 * config_.latency.base + 40);
    deadline = 1000000 + serial * 50;
  }

  injector_->arm();
  if (runtime_->recorder().enabled()) {
    // Journal link-level chaos milestones at the moment they bite. The
    // injector resolved partition windows (including seeded heal draws) at
    // arm() time, so these schedules are deterministic per (plan, seed) and
    // identical across transport backends.
    obs::Recorder& rec = runtime_->recorder();
    for (const auto& cut : injector_->armed_partitions()) {
      const std::vector<net::ProcId> side = cut.side;
      sim_->at(cut.start, [this, &rec, side] {
        rec.record(sim_->now(), obs::EventKind::kPartition,
                   {.proc = side.empty() ? net::kNoProc : side.front(),
                    .arg = static_cast<std::uint64_t>(side.size())},
                   [&] {
                     std::string detail =
                         "side of " + std::to_string(side.size()) + ":";
                     for (net::ProcId p : side) {
                       detail += ' ';
                       detail += std::to_string(p);
                     }
                     return detail;
                   });
      });
      if (cut.heal != sim::SimTime::max()) {
        sim_->at(cut.heal, [this, &rec, side] {
          rec.record(sim_->now(), obs::EventKind::kHeal,
                     {.proc = side.empty() ? net::kNoProc : side.front(),
                      .arg = static_cast<std::uint64_t>(side.size())},
                     [&] {
                       return "partition of " + std::to_string(side.size()) +
                              " healed";
                     });
        });
      }
    }
    for (const auto& gray : injector_->plan().grays) {
      sim_->at(gray.start, [this, &rec, gray] {
        rec.record(sim_->now(), obs::EventKind::kGray, {.proc = gray.node},
                   [&] {
                     return "payload drop " +
                            std::to_string(gray.payload_drop_p) + ", slow " +
                            std::to_string(gray.slow_factor) + "x";
                   });
      });
    }
  }
  runtime_->start();
  sim::SimTime end_time;
  std::uint64_t shard_events = 0;
  if (engine_ != nullptr) {
    engine_->run(sim::SimTime(deadline));
    engine_->merge_journals();
    end_time = engine_->horizon();
    shard_events = engine_->shard_events();
  } else {
    sim_->run_until(sim::SimTime(deadline));
    end_time = sim_->now();
  }

  RunResult result =
      runtime_->collect(end_time, injector_->kills_executed());
  result.sim_events += shard_events;
  // The injector records the first kill that actually executed — with
  // regional/cascade/recurring plans the earliest *scheduled* entry may
  // target an already-dead node and never fire.
  result.first_failure_ticks = injector_->first_kill_ticks();
  result.nodes_revived = injector_->revives_executed();
  result.answer_checked = true;
  result.answer_correct = result.completed && result.answer == expected;
  if (result.completed && !result.answer_correct) {
    SPLICE_ERROR() << "determinacy violation: got "
                   << result.answer.to_string() << " expected "
                   << expected.to_string() << " [" << config_.describe()
                   << "]";
  }
  return result;
}

std::int64_t Simulation::fault_free_makespan(const SystemConfig& config,
                                             const lang::Program& program) {
  SystemConfig clean = config;
  clean.obs.details = false;
  Simulation twin(clean, program);
  const RunResult result = twin.run();
  return result.makespan_ticks;
}

const obs::Recorder& Simulation::recorder() const {
  if (!runtime_) throw std::logic_error("recorder: run() first");
  return runtime_->recorder();
}

RunResult run_once(const SystemConfig& config, const lang::Program& program,
                   const net::FaultPlan& plan) {
  Simulation simulation(config, program);
  simulation.set_fault_plan(plan);
  return simulation.run();
}

}  // namespace splice::core
