#include "graph/compile.hpp"

#include <cstdio>
#include <utility>

#include "common/check.hpp"

namespace swatop {

// ---------------------------------------------------------------- CompiledOp

CompiledOp::CompiledOp(const dsl::OperatorDef& op, SwatopConfig cfg)
    : op_(&op), cfg_(std::move(cfg)) {
  if (!cfg_.journal) {
    owned_journal_ = std::make_unique<tune::Journal>();
    cfg_.journal = owned_journal_.get();
  }
  if (cfg_.observability.enabled)
    recorder_ = std::make_unique<obs::Recorder>(cfg_.observability);
  opt_ = Optimizer(cfg_).optimize(op, recorder_.get());
}

rt::RunResult CompiledOp::run(sim::ExecMode mode) {
  if (!cg_) {
    cg_ = std::make_unique<sim::CoreGroup>(cfg_.machine);
    if (recorder_) cg_->attach_observer(recorder_.get());
    bt_ = rt::bind_tensors(*cg_, *op_);
    op_->fill_inputs(*cg_, bt_, opt_.candidate.strategy);
  } else if (cg_->mem().materialize()) {
    // Restore the launch-time state (outputs zeroed, as alloc left them;
    // inputs are never written by a program and keep their fill). Today's
    // generated programs zero their SPM accumulator on the first reduction
    // pass and overwrite the output tile on DmaPut, so they happen to be
    // idempotent on preserved memory -- but that is a property of the DMA
    // inference pass, not of run()'s contract; zeroing here keeps re-runs
    // correct for any accumulating schedule.
    for (const dsl::TensorSpec& t : op_->tensors())
      if (t.is_output) cg_->mem().fill(bt_.at(t.name), t.floats, 0.0f);
  }
  last_ = opt_.run(*cg_, bt_, mode);
  return last_;
}

double CompiledOp::check() {
  SWATOP_CHECK(cg_ != nullptr) << "CompiledOp::check() before the first run()";
  return op_->check_output(*cg_, bt_, opt_.candidate.strategy);
}

std::string CompiledOp::report() const {
  char buf[256];
  std::string s;
  s += "== " + op_->name() + " ==\n";
  s += "strategy:  " + opt_.candidate.strategy.serialize() + "\n";
  std::snprintf(buf, sizeof(buf), "predicted: %.0f cycles%s\n",
                opt_.predicted_cycles,
                opt_.from_cache ? "  (schedule cache hit)" : "");
  s += buf;
  if (opt_.measured_cycles > 0.0) {
    std::snprintf(buf, sizeof(buf), "measured:  %.0f cycles (tuning)\n",
                  opt_.measured_cycles);
    s += buf;
  }
  if (cg_) {
    std::snprintf(buf, sizeof(buf),
                  "last run:  %.0f cycles, %.1f GFLOPS\n", last_.cycles,
                  last_.gflops(op_->flops(), cfg_.machine));
    s += buf;
  }
  std::snprintf(buf, sizeof(buf), "journal:   %zu candidate rows\n",
                cfg_.journal->size());
  s += buf;
  return s;
}

CompiledOp compile(const dsl::OperatorDef& op, SwatopConfig cfg) {
  return CompiledOp(op, std::move(cfg));
}

// --------------------------------------------------------------- CompiledNet

CompiledNet::CompiledNet(graph::Graph g, SwatopConfig cfg)
    : graph_(std::move(g)) {
  if (!cfg.journal) {
    owned_journal_ = std::make_unique<tune::Journal>();
    cfg.journal = owned_journal_.get();
  }
  journal_ = cfg.journal;
  engine_ = std::make_unique<graph::GraphEngine>(std::move(cfg));
}

graph::NetRunResult CompiledNet::run(std::int64_t batch,
                                     const graph::NetOptions& opts) {
  last_ = engine_->run(graph_, batch, opts);
  ran_ = true;
  return last_;
}

const graph::NetRunResult& CompiledNet::result() const {
  SWATOP_CHECK(ran_) << "CompiledNet::result() before the first run()";
  return last_;
}

std::string CompiledNet::report(graph::NetReportOptions o) const {
  SWATOP_CHECK(ran_) << "CompiledNet::report() before the first run()";
  if (!o.journal) o.journal = journal_;
  return graph::net_report(last_, config().machine, o);
}

std::string CompiledNet::report_json(graph::NetReportOptions o) const {
  SWATOP_CHECK(ran_) << "CompiledNet::report_json() before the first run()";
  if (!o.journal) o.journal = journal_;
  return graph::net_report_json(last_, config().machine, o);
}

CompiledNet compile(graph::Graph g, SwatopConfig cfg) {
  return CompiledNet(std::move(g), std::move(cfg));
}

}  // namespace swatop
