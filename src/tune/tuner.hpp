// The two autotuners of Sec. 4.6.
//
// The black-box autotuner is the baseline: it *runs* every schedule
// candidate (here: through the loop-by-loop timing interpreter, this
// reproduction's stand-in for executing on the SW26010) and keeps the
// fastest. The performance-model-based autotuner evaluates the static cost
// model on every candidate instead -- orders of magnitude cheaper per
// candidate -- and picks the predicted best. Table 3 measures the time
// ratio; Fig. 9 measures the performance the model-picked candidate leaves
// on the table.
#pragma once

#include <cstdint>
#include <vector>

#include "dsl/dsl.hpp"
#include "obs/recorder.hpp"
#include "sched/scheduler.hpp"
#include "tune/cost_model.hpp"
#include "tune/journal.hpp"

namespace swatop::tune {

struct TunerStats {
  std::int64_t space_size = 0;        ///< raw schedule-space size
  std::int64_t valid_candidates = 0;  ///< survivors of validity pruning
  double seconds = 0.0;               ///< wall-clock tuning time
};

struct Tuned {
  sched::Candidate candidate;
  double cycles = 0.0;  ///< model-predicted (ModelTuner) or measured (BlackBox)
  TunerStats stats;
};

/// Measure one candidate with the timing interpreter on a scratch core
/// group (non-materialized memory, so huge workloads cost no RAM).
double measure_candidate(const dsl::OperatorDef& op,
                         const sched::Candidate& cand,
                         const sim::SimConfig& cfg);

/// Lower + optimize one explicit strategy (how a fixed manual schedule is
/// built) and measure it. Throws CheckError if the strategy is invalid for
/// the operator.
double measure_strategy(const dsl::OperatorDef& op, const dsl::Strategy& s,
                        const sim::SimConfig& cfg, bool prefetch = true);

/// Build the optimized candidate for one explicit strategy.
sched::Candidate build_candidate(const dsl::OperatorDef& op,
                                 const dsl::Strategy& s,
                                 const sim::SimConfig& cfg,
                                 bool prefetch = true);

/// Same, with full optimizer options (the schedule-cache rebuild path must
/// replicate the scheduler's SPM reserve, not just the prefetch flag).
sched::Candidate build_candidate(const dsl::OperatorDef& op,
                                 const dsl::Strategy& s,
                                 const sim::SimConfig& cfg,
                                 const opt::OptOptions& oo);

class ModelTuner {
 public:
  explicit ModelTuner(const sim::SimConfig& cfg);

  /// Streams the scheduler's sweep: each worker lowers, optimizes,
  /// validates and estimates a candidate, then frees its program. The
  /// calling thread picks the first minimum by (estimate, index) and
  /// rebuilds only that winner with build_candidate, as a cache hit does.
  ///
  /// When `rec` is given, the tuning phases are traced (wall-clock track)
  /// and the sweep's funnel counted. When `journal` is given, every
  /// candidate is appended (phase "model"; only the pick is ever measured).
  /// Journal entries are appended from the calling thread in
  /// candidate-index order, so the log is identical at any thread count.
  Tuned tune(const dsl::OperatorDef& op,
             const sched::SchedulerOptions& opts = {},
             obs::Recorder* rec = nullptr, Journal* journal = nullptr) const;

  /// The paper's "pick best (or top k)" refinement: rank candidates with
  /// the static model (the same streamed sweep), then rebuild and *measure*
  /// the k best through the timing interpreter and keep the measured
  /// winner. k times the measurement cost buys back most of the model's
  /// residual error (Fig. 9's tail).
  Tuned tune_top_k(const dsl::OperatorDef& op, int k,
                   const sched::SchedulerOptions& opts = {},
                   obs::Recorder* rec = nullptr,
                   Journal* journal = nullptr) const;

 private:
  sim::SimConfig cfg_;
};

class BlackBoxTuner {
 public:
  explicit BlackBoxTuner(const sim::SimConfig& cfg) : cfg_(cfg) {}

  struct Result {
    Tuned best;
    /// Measured cycles per candidate, scheduler order.
    std::vector<double> all_measured;
  };
  /// When `rec` is given, black-box tuning is traced like ModelTuner's
  /// phases, so Tab. 3 comparisons are observable on both sides. The
  /// measurement fan-out runs on worker threads and the Recorder is not
  /// thread-safe, so per-candidate results are *aggregated*: workers write
  /// only their own result slots, and all spans, counters and tune samples
  /// are emitted from the calling thread after the pool joins (one
  /// "measure (parallel)" span covers the whole fan-out window).
  Result tune(const dsl::OperatorDef& op,
              const sched::SchedulerOptions& opts = {},
              obs::Recorder* rec = nullptr, Journal* journal = nullptr) const;

 private:
  sim::SimConfig cfg_;
};

/// Emit one tuner-phase span on the wall-clock track (pid 1); shared by the
/// tuners and the Optimizer's cache fast-path. `us0`/`us1` come from
/// rec->wall_us(); `count` >= 0 adds a "candidates" argument.
void tune_phase_span(obs::Recorder* rec, const char* name, double us0,
                     double us1, std::int64_t count = -1);

}  // namespace swatop::tune
