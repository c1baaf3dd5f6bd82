#include "runtime/task.h"

#include <algorithm>
#include <cassert>
#include <memory>
#include <new>

namespace splice::runtime {

std::string_view to_string(TaskState state) noexcept {
  switch (state) {
    case TaskState::kQueued:
      return "queued";
    case TaskState::kRunning:
      return "running";
    case TaskState::kWaiting:
      return "waiting";
    case TaskState::kCompleted:
      return "completed";
    case TaskState::kAborted:
      return "aborted";
  }
  return "?";
}

ScanOutcome Task::scan(const lang::Program& program) {
  ++scans_;
  ScanOutcome outcome;
  const lang::FunctionDef& def = program.function(packet_.fn);
  RequestedSites requested;
  outcome.result = eval(program, def, def.root, outcome, requested);
  // Task setup / resume overhead: a few ticks per scan on top of prim work.
  outcome.cost += 2;
  return outcome;
}

std::optional<lang::Value> Task::eval(const lang::Program& program,
                                      const lang::FunctionDef& def,
                                      lang::ExprId expr, ScanOutcome& outcome,
                                      RequestedSites& requested) {
  const lang::ExprNode& node = def.nodes[expr];
  switch (node.kind) {
    case lang::ExprKind::kConst:
      return node.literal;
    case lang::ExprKind::kArg:
      return packet_.args[node.arg_index];
    case lang::ExprKind::kPrim: {
      // Evaluate every operand even after one suspends, so all ready calls
      // under this prim are demanded in the same scan (maximal parallelism).
      util::SmallVec<lang::Value, 4> operands;
      operands.reserve(node.children.size());
      bool complete = true;
      for (lang::ExprId child : node.children) {
        auto v = eval(program, def, child, outcome, requested);
        if (v.has_value()) {
          operands.push_back(std::move(*v));
        } else {
          complete = false;
        }
      }
      if (!complete) return std::nullopt;
      return lang::apply_prim(node.op, {operands.data(), operands.size()},
                              &outcome.cost);
    }
    case lang::ExprKind::kIf: {
      auto cond = eval(program, def, node.children[0], outcome, requested);
      if (!cond.has_value()) return std::nullopt;
      ++outcome.cost;
      const lang::ExprId branch =
          cond->truthy() ? node.children[1] : node.children[2];
      return eval(program, def, branch, outcome, requested);
    }
    case lang::ExprKind::kCall: {
      if (const CallSlot* existing = find_slot(expr);
          existing != nullptr && existing->resolved()) {
        return existing->result;
      }
      // Evaluate arguments; nested calls inside them are demanded first.
      TaskPacket::Args call_args;
      call_args.reserve(node.children.size());
      bool args_ready = true;
      for (lang::ExprId child : node.children) {
        auto v = eval(program, def, child, outcome, requested);
        if (v.has_value()) {
          call_args.push_back(std::move(*v));
        } else {
          args_ready = false;
        }
      }
      if (!args_ready) return std::nullopt;
      const CallSlot* s = find_slot(expr);
      const bool already_spawned = s != nullptr && s->spawned;
      const bool already_requested =
          std::find(requested.begin(), requested.end(), expr) !=
          requested.end();
      if (!already_spawned && !already_requested) {
        requested.push_back(expr);
        outcome.spawns.push_back(
            SpawnRequest{expr, std::move(call_args)});
      }
      return std::nullopt;  // waiting for the child's result
    }
  }
  assert(false && "bad expr kind");
  return std::nullopt;
}

void CallSlot::drop_args() noexcept {
  args.clear();
  args.shrink_to_fit();
  if (restored) {
    restored->args.clear();
    restored->args.shrink_to_fit();
  }
}

// ---------------------------------------------------------------------------
// Slot storage
// ---------------------------------------------------------------------------

SlotPool::~SlotPool() {
  for (FreeBlock* head : free_) {
    while (head != nullptr) {
      FreeBlock* next = head->next;
      ::operator delete(static_cast<void*>(head));
      head = next;
    }
  }
}

CallSlot* SlotPool::acquire(std::uint32_t capacity) {
  // Only ever as long as the largest body's call-site count.
  if (capacity >= free_.size()) free_.resize(capacity + 1, nullptr);
  if (FreeBlock* block = free_[capacity]; block != nullptr) {
    free_[capacity] = block->next;
    return reinterpret_cast<CallSlot*>(block);
  }
  return static_cast<CallSlot*>(::operator new(sizeof(CallSlot) * capacity));
}

void SlotPool::release(CallSlot* block, std::uint32_t capacity) noexcept {
  assert(capacity < free_.size());  // acquire() sized the list
  free_[capacity] = ::new (static_cast<void*>(block)) FreeBlock{free_[capacity]};
}

CallSlots::CallSlots(const CallSlots& other) : capacity_(other.capacity_) {
  if (other.data_ == nullptr) return;
  reserve(other.capacity_);
  for (const CallSlot& s : other) {
    ::new (static_cast<void*>(data_ + size_)) CallSlot(s);
    ++size_;
  }
}

CallSlots& CallSlots::operator=(const CallSlots& other) {
  if (this != &other) *this = CallSlots(other);
  return *this;
}

CallSlots::CallSlots(CallSlots&& other) noexcept
    : data_(other.data_),
      pool_(other.pool_),
      size_(other.size_),
      capacity_(other.capacity_) {
  other.data_ = nullptr;
  other.size_ = 0;
}

CallSlots& CallSlots::operator=(CallSlots&& other) noexcept {
  if (this != &other) {
    destroy();
    data_ = other.data_;
    pool_ = other.pool_;
    size_ = other.size_;
    capacity_ = other.capacity_;
    other.data_ = nullptr;
    other.size_ = 0;
  }
  return *this;
}

CallSlots::~CallSlots() { destroy(); }

void CallSlots::destroy() noexcept {
  if (data_ == nullptr) return;
  std::destroy_n(data_, size_);
  if (pool_ != nullptr) {
    pool_->release(data_, capacity_);
  } else {
    ::operator delete(static_cast<void*>(data_));
  }
  data_ = nullptr;
  size_ = 0;
}

void CallSlots::reserve(std::uint32_t capacity) {
  CallSlot* fresh = pool_ != nullptr
                        ? pool_->acquire(capacity)
                        : static_cast<CallSlot*>(
                              ::operator new(sizeof(CallSlot) * capacity));
  const std::uint32_t size = size_;
  for (std::uint32_t i = 0; i < size; ++i) {
    ::new (static_cast<void*>(fresh + i)) CallSlot(std::move(data_[i]));
  }
  destroy();
  data_ = fresh;
  size_ = size;
  capacity_ = capacity;
}

CallSlot& CallSlots::add(lang::ExprId site) {
  if (data_ == nullptr) {
    reserve(std::max<std::uint32_t>(capacity_, 1));
  } else if (size_ == capacity_) {
    reserve(capacity_ * 2);
  }
  CallSlot* slot = ::new (static_cast<void*>(data_ + size_)) CallSlot{};
  slot->site = site;
  ++size_;
  return *slot;
}

// ---------------------------------------------------------------------------
// Slot mechanics
// ---------------------------------------------------------------------------

void Task::note_spawned(lang::ExprId site, TaskPacket::Args args) {
  CallSlot& s = slot(site);
  s.spawned = true;
  s.args = std::move(args);
  s.restored = {};
}

void Task::note_restored(lang::ExprId site, const TaskPacket& packet) {
  CallSlot& s = slot(site);
  s.spawned = true;
  s.args.clear();
  s.restored = CallSlot::RestoredPacket(packet);
}

TaskPacket Task::child_packet(const CallSlot& slot,
                              const lang::Program& program, net::ProcId host,
                              std::uint32_t ancestor_depth) const {
  if (slot.restored) {
    assert(slot.restored->stamp == child_stamp(slot));
    return *slot.restored;
  }
  TaskPacket packet;
  packet.stamp = child_stamp(slot);
  packet.fn = child_fn(slot, program);
  packet.args = slot.args;
  packet.call_site = slot.site;
  packet.ancestors.push_back(TaskRef{host, uid_});
  const std::uint32_t depth = std::max<std::uint32_t>(1, ancestor_depth);
  for (const TaskRef& ref : packet_.ancestors) {
    if (packet.ancestors.size() >= depth) break;
    packet.ancestors.push_back(ref);
  }
  packet.lineage = slot.respawns;
  packet.zone = packet_.zone;
  return packet;
}

bool Task::note_ack(lang::ExprId site, TaskRef child, std::uint32_t replica,
                    std::uint32_t lineage) {
  CallSlot& s = slot(site);
  if (lineage < s.respawns) return false;  // superseded spawn generation
  if (s.child_procs.size() <= replica) {
    s.child_procs.resize(replica + 1, net::kNoProc);
    s.child_uids.resize(replica + 1, kNoTask);
  }
  s.child_procs[replica] = child.proc;
  s.child_uids[replica] = child.uid;
  return true;
}

bool Task::deliver_result(lang::ExprId site, const lang::Value& value,
                          std::uint32_t quorum) {
  CallSlot& s = slot(site);
  if (s.resolved()) return false;  // duplicate (cases 6-8): ignored
  ++s.votes;
  if (s.votes >= quorum) {
    s.result = value;
    return true;
  }
  return false;
}

void Task::prefill(lang::ExprId site, const lang::Value& value) {
  CallSlot& s = slot(site);
  if (s.resolved()) return;
  s.result = value;
}

CallSlot* Task::find_slot(lang::ExprId site) {
  for (CallSlot& s : slots_) {
    if (s.site == site) return &s;
  }
  return nullptr;
}

const CallSlot* Task::find_slot(lang::ExprId site) const {
  for (const CallSlot& s : slots_) {
    if (s.site == site) return &s;
  }
  return nullptr;
}

CallSlot& Task::slot(lang::ExprId site) {
  if (CallSlot* existing = find_slot(site)) return *existing;
  return slots_.add(site);
}

std::uint32_t Task::outstanding_children() const noexcept {
  std::uint32_t n = 0;
  for (const CallSlot& s : slots_) {
    if (s.outstanding()) ++n;
  }
  return n;
}

std::uint32_t Task::state_units(
    std::uint32_t ancestor_depth) const noexcept {
  // A child packet's units without building it (TaskPacket::size_units):
  // base + stamp + args + one per ancestor, the chain sized as
  // child_packet sizes it.
  const auto chain = static_cast<std::uint32_t>(
      std::min<std::size_t>(std::max<std::uint32_t>(1, ancestor_depth),
                            1 + packet_.ancestors.size()));
  std::uint32_t units = packet_.size_units();
  for (const CallSlot& s : slots_) {
    units += 1;
    if (s.result.has_value()) units += s.result->size_units();
    if (!s.spawned) continue;
    if (s.restored) {
      units += s.restored->size_units();
      continue;
    }
    units += 1 + 1 + chain;  // base + stamp + ancestors
    for (const lang::Value& arg : s.args) units += arg.size_units();
  }
  return units;
}

}  // namespace splice::runtime
