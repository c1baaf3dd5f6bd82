#include "lang/program.h"

#include <stdexcept>
#include <string>

#include "lang/interpreter.h"

namespace splice::lang {

Program::Program() : ref_cache_(std::make_shared<ReferenceCache>()) {}

void Program::invalidate_reference() {
  // Detach onto a fresh, never-run slot; copies made earlier keep theirs.
  ref_cache_ = std::make_shared<ReferenceCache>();
}

namespace {
void check_body_size(const FunctionDef& def) {
  if (def.nodes.size() > kMaxBodyNodes) {
    throw std::invalid_argument("function " + def.name + ": body has " +
                                std::to_string(def.nodes.size()) +
                                " nodes, more than " +
                                std::to_string(kMaxBodyNodes));
  }
}
}  // namespace

std::uint32_t count_call_sites(const FunctionDef& def) noexcept {
  std::uint32_t n = 0;
  for (const ExprNode& node : def.nodes) {
    if (node.kind == ExprKind::kCall) ++n;
  }
  return n;
}

FuncId Program::add_function(FunctionDef def) {
  check_body_size(def);
  def.call_sites = count_call_sites(def);
  invalidate_reference();
  functions_.push_back(std::move(def));
  return static_cast<FuncId>(functions_.size() - 1);
}

std::optional<FuncId> Program::find(const std::string& name) const {
  for (std::size_t i = 0; i < functions_.size(); ++i) {
    if (functions_[i].name == name) return static_cast<FuncId>(i);
  }
  return std::nullopt;
}

void Program::validate() const {
  if (functions_.empty()) {
    throw std::invalid_argument("program has no functions");
  }
  if (entry_ >= functions_.size()) {
    throw std::invalid_argument("entry function id out of range");
  }
  if (entry_args_.size() != functions_[entry_].arity) {
    throw std::invalid_argument("entry argument count != entry arity");
  }
  for (std::size_t f = 0; f < functions_.size(); ++f) {
    const FunctionDef& def = functions_[f];
    check_body_size(def);  // function_mut() bypasses add_function's check
    if (def.root == kNoExpr || def.root >= def.nodes.size()) {
      throw std::invalid_argument("function " + def.name + ": bad root");
    }
    for (std::size_t n = 0; n < def.nodes.size(); ++n) {
      const ExprNode& node = def.nodes[n];
      for (ExprId child : node.children) {
        if (child >= n) {
          throw std::invalid_argument(
              "function " + def.name +
              ": child index not strictly below parent (cycle?)");
        }
      }
      switch (node.kind) {
        case ExprKind::kConst:
          break;
        case ExprKind::kArg:
          if (node.arg_index >= def.arity) {
            throw std::invalid_argument("function " + def.name +
                                        ": arg index out of range");
          }
          break;
        case ExprKind::kPrim:
          if (node.children.size() !=
              static_cast<std::size_t>(op_arity(node.op))) {
            throw std::invalid_argument("function " + def.name + ": prim " +
                                        std::string(to_string(node.op)) +
                                        " arity mismatch");
          }
          break;
        case ExprKind::kIf:
          if (node.children.size() != 3) {
            throw std::invalid_argument("function " + def.name +
                                        ": if needs 3 children");
          }
          break;
        case ExprKind::kCall: {
          if (node.callee >= functions_.size()) {
            throw std::invalid_argument("function " + def.name +
                                        ": callee out of range");
          }
          const FunctionDef& callee = functions_[node.callee];
          if (node.children.size() != callee.arity) {
            throw std::invalid_argument("function " + def.name + ": call to " +
                                        callee.name + " arity mismatch");
          }
          break;
        }
      }
    }
  }
}

ExprId FunctionBuilder::push(ExprNode node) {
  def_.nodes.push_back(std::move(node));
  return static_cast<ExprId>(def_.nodes.size() - 1);
}

ExprId FunctionBuilder::constant(Value v) {
  ExprNode node;
  node.kind = ExprKind::kConst;
  node.literal = std::move(v);
  return push(std::move(node));
}

ExprId FunctionBuilder::arg(std::uint32_t index) {
  ExprNode node;
  node.kind = ExprKind::kArg;
  node.arg_index = index;
  return push(std::move(node));
}

ExprId FunctionBuilder::prim(Op op, std::initializer_list<ExprId> children) {
  return prim(op, std::vector<ExprId>(children));
}

ExprId FunctionBuilder::prim(Op op, std::vector<ExprId> children) {
  ExprNode node;
  node.kind = ExprKind::kPrim;
  node.op = op;
  node.children = std::move(children);
  return push(std::move(node));
}

ExprId FunctionBuilder::iff(ExprId cond, ExprId then_branch,
                            ExprId else_branch) {
  ExprNode node;
  node.kind = ExprKind::kIf;
  node.children = {cond, then_branch, else_branch};
  return push(std::move(node));
}

ExprId FunctionBuilder::call(FuncId callee, std::initializer_list<ExprId> args) {
  return call(callee, std::vector<ExprId>(args));
}

ExprId FunctionBuilder::call(FuncId callee, std::vector<ExprId> args) {
  ExprNode node;
  node.kind = ExprKind::kCall;
  node.callee = callee;
  node.children = std::move(args);
  return push(std::move(node));
}

FunctionDef FunctionBuilder::build(ExprId root, std::int32_t pin) && {
  def_.root = root;
  def_.pinned_processor = pin;
  def_.call_sites = count_call_sites(def_);
  return std::move(def_);
}

}  // namespace splice::lang
