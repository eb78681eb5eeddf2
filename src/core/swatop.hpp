// swATOP's optimizer layer: Optimizer::optimize tunes one operator with
// the performance-model-based autotuner (plus top-k measurement when
// configured) and generates its C source for SW26010.
//
// This is an internal layer under swatop::compile() (graph/compile.hpp),
// which is how tuned code runs: CompiledOp owns the core group, tensor
// binding, input fill and observability recorder of a single operator,
// and the graph engine (graph/engine.hpp) runs tuned layers through
// OptimizedOperator::run on its own core groups.
//
//   swatop::SwatopConfig cfg;
//   swatop::ops::MatmulOp op(512, 512, 512);
//   auto compiled = swatop::compile(op, cfg);
//   auto result = compiled.run();
#pragma once

#include <memory>
#include <string>

#include "codegen/c_emitter.hpp"
#include "dsl/dsl.hpp"
#include "obs/recorder.hpp"
#include "rt/bind.hpp"
#include "rt/interpreter.hpp"
#include "sched/scheduler.hpp"
#include "tune/schedule_cache.hpp"
#include "tune/tuner.hpp"

namespace swatop {

/// The single configuration surface: machine model, scheduling and tuning
/// knobs, and observability. Every lower-level options struct
/// (sched::SchedulerOptions, the tuner's top-k) is derived from here.
struct SwatopConfig {
  sim::SimConfig machine{};

  bool prefetch = true;  ///< let the optimizer apply double buffering
  /// SPM floats kept free of tile buffers (stack/spill headroom).
  std::int64_t spm_reserve_floats = 512;
  /// Cap on schedule candidates considered (0 = the whole pruned space).
  std::int64_t max_candidates = 0;

  /// 0: pick the cost model's best candidate without measuring (the pure
  /// model-based autotuner). k >= 1: additionally measure the k
  /// model-ranked best through the timing interpreter and keep the
  /// measured winner (Sec. 4.6's "pick best (or top k)").
  int tune_top_k = 0;

  /// Run the chosen candidate through the timing interpreter and report
  /// the measured cycles (implied by tune_top_k >= 1).
  bool measure_best = false;

  /// Worker threads for tuning (lower+optimize sweep and cost-model
  /// ranking): 0 = hardware concurrency, 1 = serial. The pick is identical
  /// at any thread count.
  int tune_threads = 0;

  /// Schedule cache: when enabled, Optimizer::optimize serves a previously
  /// tuned (operator, machine, knobs) from the cache -- rebuilding only the
  /// winning strategy's IR instead of re-enumerating the space -- and banks
  /// every fresh tuning result (to `cache.path` when set, unless
  /// read-only).
  tune::CacheConfig cache{};

  /// Observability: off by default (near-zero overhead). When enabled, the
  /// tuner and every execution are profiled into RunResult::profile.
  obs::Options observability{};

  /// Tuning journal: when set (caller-owned, non-owning), every candidate
  /// the tuners consider is appended -- including cache hits, as phase
  /// "cache" -- so one journal shared across operators/layers records the
  /// whole search. See tune/journal.hpp.
  tune::Journal* journal = nullptr;

  /// The scheduler options this configuration implies.
  sched::SchedulerOptions scheduler_options() const {
    sched::SchedulerOptions s;
    s.opt.prefetch = prefetch;
    s.opt.spm_reserve_floats = spm_reserve_floats;
    s.max_candidates = max_candidates;
    s.num_threads = tune_threads;
    return s;
  }

  /// The cache-key knobs this configuration implies (anything that can
  /// change the tuner's pick).
  tune::TunerKnobs tuner_knobs() const {
    tune::TunerKnobs k;
    k.prefetch = prefetch;
    k.spm_reserve_floats = spm_reserve_floats;
    k.max_candidates = max_candidates;
    k.top_k = tune_top_k;
    return k;
  }
};

/// A tuned, code-generated operator: the winning candidate, the tuning
/// statistics and the generated C source. It holds no simulator state;
/// run() executes the schedule on a caller-owned core group and binding.
struct OptimizedOperator {
  sched::Candidate candidate;
  tune::TunerStats stats;
  double predicted_cycles = 0.0;  ///< cost-model estimate of the winner
  double measured_cycles = 0.0;   ///< 0 unless measured during tuning
  bool from_cache = false;  ///< served from the schedule cache (no search)
  std::string c_source;

  /// Run on a caller-owned core group and binding. `resident` (optional)
  /// pins operand tensors on-chip for the run -- the graph engine's
  /// inter-layer SPM residency (see rt::ResidentSet).
  rt::RunResult run(sim::CoreGroup& cg, const dsl::BoundTensors& bt,
                    sim::ExecMode mode,
                    const rt::ResidentSet* resident = nullptr) const;
};

class Optimizer {
 public:
  explicit Optimizer(SwatopConfig cfg = {});

  const sim::SimConfig& machine() const { return cfg_.machine; }
  const SwatopConfig& config() const { return cfg_; }

  /// Tune the operator with the performance-model-based autotuner (plus
  /// top-k measurement when configured) and generate its code. With the
  /// schedule cache enabled, a previously tuned (operator, machine, knobs)
  /// is served from the cache: the banked winning strategy is re-lowered
  /// directly (the schedule space is never enumerated) and the result is
  /// marked `from_cache`; fresh results are banked after tuning. `rec`
  /// (optional, caller-owned) receives the tuning counters, samples and
  /// phase spans.
  OptimizedOperator optimize(const dsl::OperatorDef& op,
                             obs::Recorder* rec = nullptr) const;

  /// The schedule cache, when enabled (for inspection / explicit save()).
  tune::ScheduleCache* schedule_cache() const { return cache_.get(); }

 private:
  SwatopConfig cfg_;
  std::shared_ptr<tune::ScheduleCache> cache_;  ///< null when disabled
};

}  // namespace swatop
