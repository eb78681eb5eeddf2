// The simulated multi-chip fleet: N SW26010 chips, each a timeline of
// sub-batch executions.
//
// This generalizes the GraphEngine's multi-CG parallelism one level up:
// within a chip, each layer of a sub-batch is split across the chip's core
// groups (the engine prices that, including the halo rows and the NoC
// barriers); across chips, the fleet scheduler places whole sub-batches.
// Each chip has its own clock (`free_at_us`); placement is
// earliest-free-chip with lowest-index tie-breaking, which is both the
// natural least-loaded policy and deterministic.
#pragma once

#include <cstdint>
#include <vector>

#include "serve/request.hpp"

namespace swatop::serve {

struct FleetConfig {
  int chips = 4;
  int groups_per_chip = 4;  ///< CGs every sub-batch runs on
};

class Fleet {
 public:
  explicit Fleet(FleetConfig cfg);

  const FleetConfig& config() const { return cfg_; }
  int chips() const { return cfg_.chips; }

  /// Lowest-index chip idle at `now` (-1 when all are busy).
  int idle_chip(double now_us) const;

  /// Earliest completion time among chips still busy at `now` (+inf when
  /// every chip is idle -- there is no completion event to wait for).
  double next_free_us(double now_us) const;

  /// Earliest time any chip is (or becomes) free -- admission control's
  /// optimistic start-time estimate.
  double earliest_start_us(double now_us) const;

  /// Run `exec_us` of work on `chip` starting at `now` (the chip must be
  /// idle); returns the finish time and advances the chip's clock.
  double dispatch(int chip, double now_us, double exec_us,
                  std::int64_t images);

  /// Whether `chip` is still executing at time `t` (telemetry gauge).
  bool busy_at(int chip, double t_us) const;
  /// Number of chips still executing at time `t` (telemetry gauge).
  int busy_count(double t_us) const;

  struct ChipStats {
    double free_at_us = 0.0;
    double busy_us = 0.0;          ///< total executed work
    std::int64_t batches = 0;
    std::int64_t images = 0;
  };
  const std::vector<ChipStats>& chip_stats() const { return chips_; }

  double total_busy_us() const;

 private:
  FleetConfig cfg_;
  std::vector<ChipStats> chips_;
};

}  // namespace swatop::serve
