#include "rt/expr_eval.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace swatop::rt {

namespace ir = swatop::ir;

int ExprEvaluator::slot_of(ir::VarId v) {
  if (v.index() >= values_.size()) values_.resize(v.index() + 1, 0);
  return static_cast<int>(v.index());
}

void ExprEvaluator::emit(const ir::Expr& e, Code& out) {
  SWATOP_CHECK(e != nullptr) << "compile of null expression";
  switch (e->kind) {
    case ir::ExprKind::Const:
      out.push_back({Op::PushConst, e->value});
      return;
    case ir::ExprKind::Var:
      out.push_back({Op::PushVar, slot_of(e->var)});
      return;
    case ir::ExprKind::Select:
      emit(e->a, out);
      emit(e->b, out);
      emit(e->c, out);
      out.push_back({Op::Select, 0});
      return;
    default:
      break;
  }
  emit(e->a, out);
  emit(e->b, out);
  switch (e->kind) {
    case ir::ExprKind::Add: out.push_back({Op::Add, 0}); return;
    case ir::ExprKind::Sub: out.push_back({Op::Sub, 0}); return;
    case ir::ExprKind::Mul: out.push_back({Op::Mul, 0}); return;
    case ir::ExprKind::FloorDiv: out.push_back({Op::Div, 0}); return;
    case ir::ExprKind::Mod: out.push_back({Op::Mod, 0}); return;
    case ir::ExprKind::Min: out.push_back({Op::Min, 0}); return;
    case ir::ExprKind::Max: out.push_back({Op::Max, 0}); return;
    case ir::ExprKind::Lt: out.push_back({Op::Lt, 0}); return;
    case ir::ExprKind::Ge: out.push_back({Op::Ge, 0}); return;
    default:
      SWATOP_UNREACHABLE("bad expr kind in compile");
  }
}

const ExprEvaluator::Entry& ExprEvaluator::compile(const ir::Expr& e) {
  auto it = cache_.find(e.get());
  if (it != cache_.end()) return it->second;
  Entry entry{e, {}, 0};
  emit(e, entry.code);
  // Replay the program's stack effect once: the peak is the stack eval()
  // needs, and a well-formed program never underflows and leaves one value.
  std::size_t top = 0;
  for (const Step& s : entry.code) {
    switch (s.op) {
      case Op::PushConst:
      case Op::PushVar: ++top; break;
      case Op::Select:
        SWATOP_CHECK(top >= 3) << "malformed compiled expression";
        top -= 2;
        break;
      default:
        SWATOP_CHECK(top >= 2) << "malformed compiled expression";
        --top;
        break;
    }
    entry.depth = std::max(entry.depth, top);
  }
  SWATOP_CHECK(top == 1) << "malformed compiled expression";
  if (entry.depth > kInlineDepth && entry.depth > deep_stack_.size())
    deep_stack_.resize(entry.depth);
  return cache_.emplace(e.get(), std::move(entry)).first->second;
}

std::int64_t ExprEvaluator::eval(const ir::Expr& e) {
  // Fast paths for the two most common shapes.
  if (e->kind == ir::ExprKind::Const) return e->value;
  const Entry& prog = compile(e);
  std::int64_t inline_stack[kInlineDepth];
  std::int64_t* const stack =
      prog.depth <= kInlineDepth ? inline_stack : deep_stack_.data();
  int top = -1;
  for (const Step& s : prog.code) {
    switch (s.op) {
      case Op::PushConst:
        stack[++top] = s.payload;
        break;
      case Op::PushVar:
        stack[++top] = values_[static_cast<std::size_t>(s.payload)];
        break;
      case Op::Add:
        --top;
        stack[top] += stack[top + 1];
        break;
      case Op::Sub:
        --top;
        stack[top] -= stack[top + 1];
        break;
      case Op::Mul:
        --top;
        stack[top] *= stack[top + 1];
        break;
      case Op::Div:
        --top;
        SWATOP_CHECK(stack[top + 1] != 0) << "division by zero";
        stack[top] /= stack[top + 1];
        break;
      case Op::Mod:
        --top;
        SWATOP_CHECK(stack[top + 1] != 0) << "mod by zero";
        stack[top] %= stack[top + 1];
        break;
      case Op::Min:
        --top;
        stack[top] = std::min(stack[top], stack[top + 1]);
        break;
      case Op::Max:
        --top;
        stack[top] = std::max(stack[top], stack[top + 1]);
        break;
      case Op::Lt:
        --top;
        stack[top] = stack[top] < stack[top + 1] ? 1 : 0;
        break;
      case Op::Ge:
        --top;
        stack[top] = stack[top] >= stack[top + 1] ? 1 : 0;
        break;
      case Op::Select:
        top -= 2;
        stack[top] = stack[top] != 0 ? stack[top + 1] : stack[top + 2];
        break;
    }
  }
  return stack[0];
}

}  // namespace swatop::rt
