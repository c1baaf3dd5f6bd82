// Function definitions, whole programs, and a builder DSL.
//
// A Program is a set of named pure functions plus an entry application. Its
// distributed evaluation unfolds the paper's call tree: every Call node in a
// body spawns a child task.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "lang/expr.h"
#include "lang/value.h"

namespace splice::lang {

struct ReferenceCache;  // interpreter.h: memoized reference evaluation

struct FunctionDef {
  std::string name;
  std::uint32_t arity = 0;
  std::vector<ExprNode> nodes;  // arena; acyclic, children index lower nodes
  ExprId root = kNoExpr;

  /// Optional placement pin: when >= 0 and the scheduler honours pins, tasks
  /// of this function run on that processor. Used to script the paper's
  /// Figure 1 mapping exactly.
  std::int32_t pinned_processor = -1;

  /// Number of Call nodes in `nodes`: the most call slots a task of this
  /// function creates, so its slot storage is sized once to this. Counted
  /// by FunctionBuilder::build and Program::add_function.
  std::uint32_t call_sites = 0;
};

/// Number of Call nodes in a body.
[[nodiscard]] std::uint32_t count_call_sites(const FunctionDef& def) noexcept;

class Program {
 public:
  Program();

  [[nodiscard]] FuncId add_function(FunctionDef def);

  [[nodiscard]] const FunctionDef& function(FuncId id) const {
    return functions_.at(id);
  }
  /// Mutable access detaches the memoized reference cache *now*, at
  /// access time — so mutate through the returned reference before the
  /// next evaluation. Holding it across a run and editing afterwards
  /// would leave that run's freshly-computed cache stale.
  [[nodiscard]] FunctionDef& function_mut(FuncId id) {
    invalidate_reference();
    return functions_.at(id);
  }
  [[nodiscard]] std::size_t function_count() const noexcept {
    return functions_.size();
  }
  [[nodiscard]] std::optional<FuncId> find(const std::string& name) const;

  void set_entry(FuncId fn, std::vector<Value> args) {
    invalidate_reference();
    entry_ = fn;
    entry_args_ = std::move(args);
  }
  [[nodiscard]] FuncId entry() const noexcept { return entry_; }
  [[nodiscard]] const std::vector<Value>& entry_args() const noexcept {
    return entry_args_;
  }

  /// Structural validation: arities, arg indices, callee ids, child links,
  /// If shapes. Throws std::invalid_argument describing the first violation.
  void validate() const;

  [[nodiscard]] std::string name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  /// Memoized reference-evaluation slot (interpreter.h::cached_reference).
  /// Copies of a Program share the slot, so the determinacy oracle runs the
  /// sequential interpreter once per program, not once per replicate — a
  /// fixed per-run cost benchmarks would otherwise keep paying. Mutating
  /// the program detaches it onto a fresh, empty slot.
  [[nodiscard]] const std::shared_ptr<ReferenceCache>& reference_cache()
      const noexcept {
    return ref_cache_;
  }

 private:
  void invalidate_reference();

  std::string name_;
  std::vector<FunctionDef> functions_;
  FuncId entry_ = 0;
  std::vector<Value> entry_args_;
  std::shared_ptr<ReferenceCache> ref_cache_;
};

/// Fluent builder for one function body. Nodes are appended to an arena;
/// helpers return ExprIds to be combined.
class FunctionBuilder {
 public:
  FunctionBuilder(std::string name, std::uint32_t arity)
      : def_{std::move(name), arity, {}, kNoExpr, -1} {}

  ExprId constant(Value v);
  ExprId constant(std::int64_t v) { return constant(Value::integer(v)); }
  ExprId arg(std::uint32_t index);
  ExprId prim(Op op, std::initializer_list<ExprId> children);
  ExprId prim(Op op, std::vector<ExprId> children);
  ExprId iff(ExprId cond, ExprId then_branch, ExprId else_branch);
  ExprId call(FuncId callee, std::initializer_list<ExprId> args);
  ExprId call(FuncId callee, std::vector<ExprId> args);

  // Common shorthands.
  ExprId add(ExprId a, ExprId b) { return prim(Op::kAdd, {a, b}); }
  ExprId sub(ExprId a, ExprId b) { return prim(Op::kSub, {a, b}); }
  ExprId lt(ExprId a, ExprId b) { return prim(Op::kLt, {a, b}); }
  ExprId le(ExprId a, ExprId b) { return prim(Op::kLe, {a, b}); }
  ExprId eq(ExprId a, ExprId b) { return prim(Op::kEq, {a, b}); }
  ExprId burn(ExprId a) { return prim(Op::kBurn, {a}); }

  /// Finish: set the root expression and (optionally) a placement pin.
  [[nodiscard]] FunctionDef build(ExprId root, std::int32_t pin = -1) &&;

 private:
  ExprId push(ExprNode node);
  FunctionDef def_;
};

}  // namespace splice::lang
