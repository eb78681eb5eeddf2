#include "sched/lower.hpp"

#include "common/check.hpp"

namespace swatop::sched {

const LoopVars& loop_vars() {
  static const LoopVars vars;
  return vars;
}

ir::StmtPtr build_nest(const std::vector<LoopSpec>& loops,
                       ir::StmtPtr innermost) {
  ir::StmtPtr cur = ir::make_seq({std::move(innermost)});
  for (auto it = loops.rbegin(); it != loops.rend(); ++it) {
    cur = ir::make_seq(
        {ir::make_for(it->var, it->extent, std::move(cur), it->reduction)});
  }
  return cur;
}

std::vector<LoopSpec> order_loops(
    const std::string& order,
    const std::vector<std::pair<char, LoopSpec>>& dims) {
  std::vector<LoopSpec> out;
  out.reserve(order.size());
  for (char c : order) {
    bool found = false;
    for (const auto& [key, spec] : dims) {
      if (key == c) {
        out.push_back(spec);
        found = true;
        break;
      }
    }
    SWATOP_CHECK(found) << "loop order letter '" << c << "' not declared";
  }
  SWATOP_CHECK(out.size() == dims.size())
      << "loop order '" << order << "' does not cover all dims";
  return out;
}

}  // namespace swatop::sched
