#include "graph/memory_plan.hpp"

#include <algorithm>
#include <map>

#include "common/check.hpp"
#include "common/math_util.hpp"

namespace swatop::graph {

namespace {

/// Best-fit arena allocator over [0, inf): free blocks keyed by offset,
/// coalesced on release; allocations past every block grow the high-water
/// mark.
class Arena {
 public:
  explicit Arena(std::int64_t align) : align_(align) {}

  std::int64_t alloc(std::int64_t floats) {
    const std::int64_t need = align_up(floats, align_);
    // Best fit: the smallest free block that holds `need`.
    auto best = free_.end();
    for (auto it = free_.begin(); it != free_.end(); ++it)
      if (it->second >= need &&
          (best == free_.end() || it->second < best->second))
        best = it;
    if (best != free_.end()) {
      const std::int64_t off = best->first;
      const std::int64_t left = best->second - need;
      free_.erase(best);
      if (left > 0) free_.emplace(off + need, left);
      return off;
    }
    const std::int64_t off = top_;
    top_ += need;
    peak_ = std::max(peak_, top_);
    return off;
  }

  void release(std::int64_t off, std::int64_t floats) {
    std::int64_t size = align_up(floats, align_);
    // Coalesce with the neighbouring free blocks, and with the arena top so
    // a released tail shrinks `top_` instead of lingering as a block.
    auto next = free_.lower_bound(off);
    if (next != free_.end() && off + size == next->first) {
      size += next->second;
      next = free_.erase(next);
    }
    if (next != free_.begin()) {
      auto prev = std::prev(next);
      if (prev->first + prev->second == off) {
        off = prev->first;
        size += prev->second;
        free_.erase(prev);
      }
    }
    if (off + size == top_)
      top_ = off;
    else
      free_.emplace(off, size);
  }

  std::int64_t peak() const { return peak_; }

 private:
  std::int64_t align_;
  std::map<std::int64_t, std::int64_t> free_;  ///< offset -> size
  std::int64_t top_ = 0;
  std::int64_t peak_ = 0;
};

}  // namespace

MemoryPlan plan_memory(const Graph& g, std::int64_t batch,
                       const std::vector<Transient>& transients) {
  SWATOP_CHECK(batch >= 1) << "plan_memory batch " << batch;
  const std::vector<int> order = g.topo_order();
  const auto shapes = g.shapes();
  const int steps = static_cast<int>(order.size());

  MemoryPlan plan;

  // Lifetimes: producer step and last consumer step per tensor.
  for (const auto& [t, shape] : g.inputs())
    plan.entries[t] = {0, shape.floats(batch), -1, -1};
  for (int step = 0; step < steps; ++step) {
    const Node& n = g.nodes()[static_cast<std::size_t>(order[step])];
    plan.entries[n.output] = {0, shapes.at(n.output).floats(batch), step,
                              step};
    for (const std::string& t : n.inputs) {
      auto it = plan.entries.find(t);
      SWATOP_CHECK(it != plan.entries.end()) << "unplanned tensor " << t;
      it->second.last = std::max(it->second.last, step);
    }
  }
  // Network outputs (and an unconsumed input) survive to the end.
  for (auto& [t, e] : plan.entries)
    if (e.last < e.first || (e.first == -1 && e.last == -1)) e.last = steps;
  for (const std::string& t : g.outputs()) plan.entries[t].last = steps;

  for (const Transient& t : transients) {
    SWATOP_CHECK(t.step >= 0 && t.step < steps)
        << "transient '" << t.name << "' at step " << t.step << " of "
        << steps;
    SWATOP_CHECK(!plan.entries.count(t.name))
        << "transient '" << t.name << "' collides with a graph tensor";
    plan.entries[t.name] = {0, t.floats, t.step, t.step};
  }

  for (const auto& [t, e] : plan.entries)
    plan.naive_floats += align_up(e.floats, plan.alignment);

  // Pack: walk the schedule; before each step release everything whose
  // last use is behind, then place the tensors born at this step.
  std::vector<std::pair<std::string, PlanEntry*>> by_birth;
  for (auto& [t, e] : plan.entries) by_birth.emplace_back(t, &e);
  // Deterministic placement order: birth step, then larger first (classic
  // size-ordered packing beats insertion order), then name.
  std::sort(by_birth.begin(), by_birth.end(), [](const auto& a,
                                                 const auto& b) {
    if (a.second->first != b.second->first)
      return a.second->first < b.second->first;
    if (a.second->floats != b.second->floats)
      return a.second->floats > b.second->floats;
    return a.first < b.first;
  });

  Arena arena(plan.alignment);
  std::size_t next_birth = 0;
  for (int step = -1; step < steps; ++step) {
    for (auto& [t, e] : by_birth)
      if (e->last == step - 1 && e->first < step)
        arena.release(e->offset, e->floats);
    while (next_birth < by_birth.size() &&
           by_birth[next_birth].second->first == step) {
      PlanEntry* e = by_birth[next_birth].second;
      e->offset = arena.alloc(e->floats);
      ++next_birth;
    }
  }
  plan.peak_floats = arena.peak();
  return plan;
}

ResidencyPlan plan_residency(const Graph& g, const ResidencyOptions& o) {
  ResidencyPlan rp;
  const std::vector<int> order = g.topo_order();
  const auto shapes = g.shapes();
  const std::vector<Node>& nodes = g.nodes();

  std::unordered_map<std::string, int> consumer_count;
  for (const Node& n : nodes)
    for (const std::string& t : n.inputs) ++consumer_count[t];
  std::unordered_set<std::string> outputs;
  for (const std::string& t : g.outputs()) outputs.insert(t);

  for (std::size_t stp = 0; stp + 1 < order.size(); ++stp) {
    const Node& p = nodes[static_cast<std::size_t>(order[stp])];
    const Node& c = nodes[static_cast<std::size_t>(order[stp + 1])];
    if (outputs.count(p.output) || consumer_count[p.output] != 1) continue;
    if (std::find(c.inputs.begin(), c.inputs.end(), p.output) ==
        c.inputs.end())
      continue;
    const bool conv_edge =
        p.kind == NodeKind::Conv || c.kind == NodeKind::Conv;
    if (conv_edge) {
      // The whole tensor is pinned across both steps: it must fit the SPM
      // budget and every conv endpoint must pass the engine's gate.
      if (o.conv_budget_floats <= 0) continue;
      const TensorShape& ts = shapes.at(p.output);
      const std::int64_t slab_floats =
          ceil_div(ts.hw, std::int64_t{o.groups}) * ts.hw * ts.channels *
          o.batch;
      if (slab_floats > o.conv_budget_floats) continue;
      if (o.conv_ok) {
        if (p.kind == NodeKind::Conv && !o.conv_ok(p)) continue;
        if (c.kind == NodeKind::Conv && !o.conv_ok(c)) continue;
      }
    }
    rp.resident.insert(p.output);
    rp.resident_floats_per_image += shapes.at(p.output).floats(1);
  }
  return rp;
}

}  // namespace swatop::graph
