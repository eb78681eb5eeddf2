// The whole SW26010: four core groups on a network-on-chip. Each CG owns a
// private memory controller and DDR3 channel, so the CGs' DMA engines and
// clocks are independent; the NoC contributes a synchronization cost at
// kernel boundaries. The CGs share one address space: the chip owns a
// single MainMemory that every CG reads and writes, so a layer can split
// its output rows across CGs over one activation arena (the graph engine
// prices the rows a CG reads from another CG's share as a separate DMA).
// (The paper's absolute TFLOPS numbers -- e.g. 2.1 TFLOPS implicit CONV
// against the 3.06 TFLOPS chip peak -- are chip-level; the per-CG
// machinery in CoreGroup is where all scheduling happens.)
#pragma once

#include <memory>
#include <vector>

#include "sim/core_group.hpp"

namespace swatop::sim {

class Chip {
 public:
  explicit Chip(const SimConfig& cfg = SimConfig{}, int groups = 4);
  Chip(const Chip&) = delete;
  Chip& operator=(const Chip&) = delete;

  int groups() const { return static_cast<int>(cgs_.size()); }
  CoreGroup& cg(int i);

  /// The chip-wide main memory every core group addresses.
  MainMemory& mem() { return mem_; }

  const SimConfig& config() const { return cfg_; }

  /// Chip-level elapsed time: the slowest core group.
  double elapsed() const;

  /// NoC barrier cost charged once per kernel launch when work spans
  /// multiple groups.
  double sync_cycles() const { return 2000.0; }

  /// Chip peak throughput (all CPE clusters).
  double peak_gflops() const {
    return cfg_.peak_gflops() * static_cast<double>(groups());
  }

  /// Summed statistics across groups.
  CgStats aggregate_stats() const;

  void reset_execution();

 private:
  SimConfig cfg_;
  MainMemory mem_;  ///< declared before cgs_: the groups point into it
  std::vector<std::unique_ptr<CoreGroup>> cgs_;
};

}  // namespace swatop::sim
