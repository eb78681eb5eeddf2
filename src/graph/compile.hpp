// swatop::compile -- the fusion-aware front door of the library. One call
// turns a thing-to-run (a single dsl::OperatorDef, or a whole
// graph::Graph) plus one SwatopConfig into a compiled handle:
//
//   auto net = swatop::compile(swatop::graph::build_net("vgg16"), cfg);
//   auto r = net.run(/*batch=*/4, opts);   // tune + plan + execute
//   std::cout << net.report();             // attribution, roofline, fusion
//   net.journal().write_jsonl("tune.jsonl");
//
//   auto op = swatop::compile(conv, cfg);  // single-operator flavour
//   auto rr = op.run();
//
// compile(graph) is where the graph-level optimizations live: epilogue
// fusion (graph/fuse.hpp) and inter-layer SPM residency
// (graph/memory_plan.hpp) run inside CompiledNet::run under
// NetOptions::fusion / NetOptions::residency, so callers of the new API
// get fused candidates and elided DMA traffic without touching the
// tuner, IR validator or fuzzer. It also spreads the net over the chip:
// with NetOptions::groups > 1 every layer splits its output rows over the
// core groups, which share one activation arena; the tuner still sees one
// core group's batch slice, and each slab runs that slice's pick.
//
// compile() is the only way to run tuned code. swatop::Optimizer
// (core/swatop.hpp) and graph::GraphEngine (graph/engine.hpp) are the
// internal layers underneath it: the optimizer tunes and generates code,
// the engine plans and runs a graph, and the handles here own the tuning
// journal, the core group the code runs on, and the report of the run.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "core/swatop.hpp"
#include "graph/engine.hpp"
#include "graph/net_report.hpp"
#include "tune/journal.hpp"

namespace swatop {

/// A compiled single operator: tuned schedule + generated code + the
/// simulated core group to run it on. Obtained from compile(op, cfg); the
/// operator definition must outlive the handle. Move-only.
class CompiledOp {
 public:
  CompiledOp(CompiledOp&&) = default;
  CompiledOp& operator=(CompiledOp&&) = default;

  /// Execute the tuned schedule. The first run creates the core group,
  /// binds the operator's tensors and fills its inputs; repeat runs reuse
  /// them, re-zeroing the outputs first so an accumulating schedule
  /// (C += A*B) starts from the same state every time -- inputs are
  /// read-only to the generated programs and keep their first fill. With
  /// observability enabled, the result's `profile` carries the counters
  /// and trace of this run plus the tuning history.
  rt::RunResult run(sim::ExecMode mode = sim::ExecMode::Functional);

  /// Max |computed - reference| over the outputs of the last run().
  /// Throws swatop::CheckError before the first run().
  double check();

  /// One-paragraph text summary: strategy, predicted/measured cycles,
  /// cache status, and the last run's numbers when available.
  std::string report() const;

  /// Every candidate the tuner considered compiling this operator (plus
  /// any the caller's own SwatopConfig::journal had recorded before).
  const tune::Journal& journal() const { return *cfg_.journal; }

  /// The tuning result: strategy, cycles, statistics, generated C source.
  const OptimizedOperator& handle() const { return opt_; }

  const SwatopConfig& config() const { return cfg_; }

 private:
  friend CompiledOp compile(const dsl::OperatorDef& op, SwatopConfig cfg);
  CompiledOp(const dsl::OperatorDef& op, SwatopConfig cfg);

  const dsl::OperatorDef* op_ = nullptr;
  SwatopConfig cfg_;  ///< cfg_.journal is owned_journal_ or the caller's
  std::unique_ptr<tune::Journal> owned_journal_;  ///< null if caller's
  std::unique_ptr<obs::Recorder> recorder_;  ///< null when obs is off
  OptimizedOperator opt_;
  std::unique_ptr<sim::CoreGroup> cg_;  ///< created by the first run()
  dsl::BoundTensors bt_;
  rt::RunResult last_{};
};

/// A compiled network: the graph, the engine that tunes/plans/executes it,
/// and the journal + last result that report() renders. Obtained from
/// compile(graph, cfg). Copyable graphs make the handle self-contained;
/// the handle itself is move-only.
class CompiledNet {
 public:
  CompiledNet(CompiledNet&&) = default;
  CompiledNet& operator=(CompiledNet&&) = default;

  /// Tune every distinct layer (through the schedule cache), run the
  /// fusion + residency passes per `opts`, plan the activation arena and
  /// execute the whole graph at `batch`, each layer's rows split over
  /// `opts.groups` core groups. The result is returned and kept for
  /// report(). Throws swatop::CheckError on an invalid graph/options.
  graph::NetRunResult run(std::int64_t batch,
                          const graph::NetOptions& opts = {});

  /// The last run's result. Throws swatop::CheckError before the first
  /// run().
  const graph::NetRunResult& result() const;

  /// The full per-layer attribution / roofline / fusion report of the
  /// last run, with this net's journal attached (text or JSON). Throws
  /// before the first run().
  std::string report(graph::NetReportOptions o = {}) const;
  std::string report_json(graph::NetReportOptions o = {}) const;

  /// Every candidate the engine's tuners considered across all runs.
  const tune::Journal& journal() const { return *journal_; }

  const graph::Graph& graph() const { return graph_; }
  const SwatopConfig& config() const { return engine_->config(); }

 private:
  friend CompiledNet compile(graph::Graph g, SwatopConfig cfg);
  CompiledNet(graph::Graph g, SwatopConfig cfg);

  graph::Graph graph_;
  std::unique_ptr<tune::Journal> owned_journal_;  ///< null if caller's
  tune::Journal* journal_ = nullptr;
  std::unique_ptr<graph::GraphEngine> engine_;
  graph::NetRunResult last_{};
  bool ran_ = false;
};

/// Compile a whole network. The graph is copied into the handle. When
/// cfg.journal is unset the handle owns a journal (journal() returns it);
/// when set, tuning appends to the caller's journal and journal() views
/// it.
CompiledNet compile(graph::Graph g, SwatopConfig cfg = {});

/// Compile a single operator: tune + codegen now, execute via run().
/// `op` must outlive the returned handle.
CompiledOp compile(const dsl::OperatorDef& op, SwatopConfig cfg = {});

}  // namespace swatop
