// The scheduler (Sec. 4.3): traverses the schedule space an operator
// definition declares, lowers every strategy to IR, runs the IR optimizer
// pipeline, and keeps the candidates that survive validity pruning (SPM
// budget, primitive divisibility).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "dsl/dsl.hpp"
#include "ir/node.hpp"
#include "obs/counters.hpp"
#include "opt/pass_manager.hpp"
#include "sim/config.hpp"

namespace swatop::sched {

struct Candidate {
  dsl::Strategy strategy;
  ir::StmtPtr program;     ///< optimized IR, ready for the runtime
  bool prefetch = false;   ///< double buffering applied
};

struct SchedulerOptions {
  opt::OptOptions opt;
  /// Cap on returned candidates (0 = unlimited); applied after pruning, by
  /// enumeration order, and reported so benches can note truncation.
  std::int64_t max_candidates = 0;
  /// Worker threads for the sweep (0 = hardware concurrency, 1 = serial).
  /// Results are identical at any thread count: visitors see enumeration
  /// indices, and callers reduce over index-aligned slots. A positive
  /// max_candidates forces the serial path, because its purpose is to bound
  /// the lowering work itself.
  int num_threads = 0;
};

/// Receives one surviving candidate on the worker thread that built it: the
/// strategy's enumeration index, the strategy (decoded on that worker), its
/// optimized and validated program, and whether double buffering was
/// applied. The sweep releases the strategy and the program on that worker
/// when the visitor returns, unless the visitor moved them out.
using CandidateVisitor =
    std::function<void(std::size_t index, dsl::Strategy& strategy,
                       ir::StmtPtr& program, bool prefetch)>;

/// Called once per worker, on that worker's thread, so per-worker state (a
/// CostModel and its memo) lives in the visitor it returns.
using VisitorFactory = std::function<CandidateVisitor()>;

class Scheduler {
 public:
  explicit Scheduler(const sim::SimConfig& cfg) : cfg_(cfg) {}

  /// Raw size of the operator's schedule space (before pruning).
  std::int64_t space_size(const dsl::OperatorDef& op) const;

  /// The one sweep: every index of the operator's schedule space is
  /// decoded (ScheduleSpace::at), lowered, optimized and validated on a
  /// worker, and each survivor is handed to that worker's visitor. An
  /// exception on a worker (the IR validator flags lowering or optimizer
  /// bugs) is rethrown on the calling thread; the lowest failing index
  /// wins, so the error is the one a serial sweep would raise.
  obs::SweepCounts sweep(const dsl::OperatorDef& op,
                         const SchedulerOptions& opts,
                         const VisitorFactory& make_visitor) const;

  /// All valid optimized candidates, in enumeration order: the sweep with a
  /// visitor that keeps every program.
  std::vector<Candidate> candidates(
      const dsl::OperatorDef& op,
      const SchedulerOptions& opts = SchedulerOptions{}) const;

 private:
  sim::SimConfig cfg_;
};

}  // namespace swatop::sched
