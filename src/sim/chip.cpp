#include "sim/chip.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace swatop::sim {

Chip::Chip(const SimConfig& cfg, int groups) : cfg_(cfg) {
  SWATOP_CHECK(groups >= 1 && groups <= 4)
      << "SW26010 has 4 core groups; asked for " << groups;
  for (int i = 0; i < groups; ++i)
    cgs_.push_back(std::make_unique<CoreGroup>(cfg_, mem_));
}

CoreGroup& Chip::cg(int i) {
  SWATOP_CHECK(i >= 0 && i < groups()) << "core group " << i << " of "
                                       << groups();
  return *cgs_[static_cast<std::size_t>(i)];
}

double Chip::elapsed() const {
  double m = 0.0;
  for (const auto& cg : cgs_) m = std::max(m, cg->now());
  return m;
}

CgStats Chip::aggregate_stats() const {
  CgStats s;
  for (const auto& cg : cgs_) s.add(cg->stats());
  return s;
}

void Chip::reset_execution() {
  for (auto& cg : cgs_) cg->reset_execution();
}

}  // namespace swatop::sim
