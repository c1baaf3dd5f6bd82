// Expression IR of the applicative language.
//
// A function body is an arena of immutable expression nodes (index-linked,
// acyclic by construction). Node kinds:
//   Const  — literal Value
//   Arg    — i-th formal parameter
//   Prim   — strict primitive (arithmetic / logic / list ops / burn)
//   If     — lazy conditional: exactly one branch is evaluated
//   Call   — application of a program function; in the distributed runtime
//            every Call becomes a child task (the paper's call tree)
//
// Primitives carry an abstract cost (simulated ticks) so workloads have
// realistic compute/communication ratios; `burn` converts its operand into
// pure compute time, which is how synthetic trees shape per-task work.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "lang/value.h"

namespace splice::lang {

using ExprId = std::uint32_t;
using FuncId = std::uint32_t;
inline constexpr ExprId kNoExpr = UINT32_MAX;
/// Largest body (node count) Program accepts. Call-site ExprIds are the
/// digits of level stamps, which are 16-bit (runtime/level_stamp.h).
inline constexpr std::size_t kMaxBodyNodes = UINT16_MAX;

enum class Op : std::uint8_t {
  // scalar arithmetic
  kAdd, kSub, kMul, kDiv, kMod, kNeg, kMin, kMax,
  // comparison / logic (produce 0/1 integers)
  kEq, kNe, kLt, kLe, kGt, kGe, kAnd, kOr, kNot,
  // bitwise (for the n-queens bitmask formulation)
  kBAnd, kBOr, kBXor, kBNot, kShl, kShr,
  // pure compute sink: returns its argument, costs |argument| ticks
  kBurn,
  // list operations
  kLen, kHead, kTail, kTake, kDrop, kAppend, kCons, kMerge, kNth, kSum,
  kIota, kFiltLt, kFiltGe,
};

[[nodiscard]] std::string_view to_string(Op op) noexcept;
[[nodiscard]] int op_arity(Op op) noexcept;

enum class ExprKind : std::uint8_t { kConst, kArg, kPrim, kIf, kCall };

struct ExprNode {
  ExprKind kind = ExprKind::kConst;
  // kConst
  Value literal;
  // kArg
  std::uint32_t arg_index = 0;
  // kPrim
  Op op = Op::kAdd;
  // kCall
  FuncId callee = 0;
  // kPrim operands / kCall arguments / kIf {cond, then, else}
  std::vector<ExprId> children;
};

/// Apply a primitive to evaluated operands. Throws std::domain_error on type
/// mismatch; division by zero yields 0 (total semantics keep programs pure).
/// `cost_out`, when non-null, accrues the abstract tick cost of this
/// application. Span-typed so hot callers can pass stack-resident operand
/// buffers without materialising a std::vector.
[[nodiscard]] Value apply_prim(Op op, std::span<const Value> operands,
                               std::uint64_t* cost_out);

}  // namespace splice::lang
