// Fast expression evaluation for the runtime's hot loops.
//
// ir::eval walks the shared expression tree -- fine for passes, too slow for
// the timing interpreter that evaluates the same handful of expressions
// millions of times. This evaluator compiles each expression once (on first
// use, cached by node pointer) into a postfix program and keeps variable
// values in a flat vector indexed by the variable's interned id, the same
// slot ir::Env uses. compile() also records each program's maximum operand
// depth, so eval() never indexes past the stack it runs on.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "ir/expr.hpp"

namespace swatop::rt {

class ExprEvaluator {
 public:
  /// Slot of a variable (its interned id), made addressable with value 0.
  int slot_of(ir::VarId v);

  /// Bind a slot's current value.
  void set(int slot, std::int64_t v) {
    values_[static_cast<std::size_t>(slot)] = v;
  }

  /// Evaluate an expression against the current bindings.
  std::int64_t eval(const ir::Expr& e);

 private:
  enum class Op : std::uint8_t {
    PushConst,
    PushVar,
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    Min,
    Max,
    Lt,
    Ge,
    Select,  ///< pops else, then, cond
  };
  struct Step {
    Op op;
    std::int64_t payload = 0;  ///< constant or slot id
  };
  using Code = std::vector<Step>;

  // The cache is keyed by node address; each entry pins the expression so
  // the allocator can never hand the same address to a different tree.
  struct Entry {
    ir::Expr pin;
    Code code;
    std::size_t depth = 0;  ///< most operands live at once
  };

  /// Programs at most this deep run on a stack local to eval(); deeper
  /// ones (long right-nested chains) on deep_stack_.
  static constexpr std::size_t kInlineDepth = 32;

  const Entry& compile(const ir::Expr& e);
  void emit(const ir::Expr& e, Code& out);

  std::unordered_map<const ir::ExprNode*, Entry> cache_;
  std::vector<std::int64_t> values_;
  std::vector<std::int64_t> deep_stack_;  ///< sized to the deepest program
};

}  // namespace swatop::rt
