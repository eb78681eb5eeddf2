// End-to-end tests: DSL -> scheduler -> IR optimizer -> runtime, checked
// functionally against naive references for every operator design.
#include <gtest/gtest.h>

#include "common/check.hpp"
#include "core/swatop.hpp"
#include "graph/compile.hpp"
#include "ir/analysis.hpp"
#include "ops/explicit_conv.hpp"
#include "ops/implicit_conv.hpp"
#include "ops/matmul.hpp"
#include "ops/winograd.hpp"
#include "rt/bind.hpp"

namespace swatop {
namespace {

constexpr double kTol = 2e-3;  // fp32 accumulation over O(10^2..10^3) terms

/// Tune, run functionally, and compare against the reference -- through
/// compile() (the compiled handle owns core group, binding and input fill).
double optimize_and_check(const dsl::OperatorDef& op) {
  CompiledOp compiled = compile(op);
  compiled.run();
  return compiled.check();
}

TEST(Integration, MatmulAlignedSmall) {
  ops::MatmulOp op(64, 64, 32);
  EXPECT_LE(optimize_and_check(op), kTol);
}

TEST(Integration, MatmulUnaligned) {
  ops::MatmulOp op(72, 56, 40);
  EXPECT_LE(optimize_and_check(op), kTol);
}

TEST(Integration, MatmulVeryUnaligned) {
  ops::MatmulOp op(50, 46, 25);
  EXPECT_LE(optimize_and_check(op), kTol);
}

TEST(Integration, MatmulTall) {
  ops::MatmulOp op(200, 40, 24);
  EXPECT_LE(optimize_and_check(op), kTol);
}

TEST(Integration, ImplicitConvBatch8) {
  ops::ConvShape s;
  s.batch = 8;
  s.ni = 32;
  s.no = 32;
  s.ri = 8;
  s.ci = 8;
  s.kr = 3;
  s.kc = 3;
  ops::ImplicitConvOp op(s);
  EXPECT_LE(optimize_and_check(op), kTol);
}

TEST(Integration, ImplicitConvBatch1) {
  // Inference case: no manual implementation exists, swATOP still covers it.
  ops::ConvShape s;
  s.batch = 1;
  s.ni = 32;
  s.no = 64;
  s.ri = 12;
  s.ci = 12;
  ops::ImplicitConvOp op(s);
  EXPECT_LE(optimize_and_check(op), kTol);
}

TEST(Integration, ImplicitConv1x1Kernel) {
  ops::ConvShape s;
  s.batch = 4;
  s.ni = 64;
  s.no = 32;
  s.ri = 6;
  s.ci = 6;
  s.kr = 1;
  s.kc = 1;
  ops::ImplicitConvOp op(s);
  EXPECT_LE(optimize_and_check(op), kTol);
}

TEST(Integration, ExplicitConvSmall) {
  ops::ConvShape s;
  s.batch = 2;
  s.ni = 16;
  s.no = 32;
  s.ri = 8;
  s.ci = 8;
  ops::ExplicitConvOp op(s);
  EXPECT_LE(optimize_and_check(op), kTol);
}

TEST(Integration, WinogradConvSmall) {
  ops::ConvShape s;
  s.batch = 2;
  s.ni = 16;
  s.no = 32;
  s.ri = 10;
  s.ci = 10;
  ops::WinogradGemmOp op(s);
  EXPECT_LE(optimize_and_check(op), 5e-3);
}

TEST(Integration, WinogradConvOddOutput) {
  ops::ConvShape s;
  s.batch = 1;
  s.ni = 8;
  s.no = 16;
  s.ri = 9;  // Ro = 7, odd: ragged Winograd tiles
  s.ci = 9;
  ops::WinogradGemmOp op(s);
  EXPECT_LE(optimize_and_check(op), 5e-3);
}

TEST(Integration, RepeatedExecuteDoesNotAccumulate) {
  // Regression: the handle reuses its core group between runs with memory
  // contents preserved, and the generated schedules *accumulate* into
  // their outputs (C += A*B). A re-run must not double the result --
  // run() re-zeroes output tensors before each re-run rather than relying
  // on every schedule's first-pass SPM zero guard.
  ops::MatmulOp op(64, 64, 32);
  CompiledOp compiled = compile(op);
  compiled.run();
  EXPECT_LE(compiled.check(), kTol);
  compiled.run();
  EXPECT_LE(compiled.check(), kTol);
  compiled.run();
  EXPECT_LE(compiled.check(), kTol);
}

TEST(Integration, RepeatedExecuteConvDoesNotAccumulate) {
  ops::ConvShape s;
  s.batch = 2;
  s.ni = 16;
  s.no = 16;
  s.ri = 6;
  s.ci = 6;
  ops::ImplicitConvOp op(s);
  CompiledOp compiled = compile(op);
  compiled.run();
  EXPECT_LE(compiled.check(), kTol);
  compiled.run();
  EXPECT_LE(compiled.check(), kTol);
}

TEST(Integration, OuterReductionReRunDoesNotAccumulate) {
  // The riskiest re-run shape: order kmn with Tk < K places the reduction
  // loop outside the C tile's scope, so the program re-fetches C from main
  // memory and accumulates partial sums into it. Even through the
  // low-level path (no run()-level re-zero), a re-run must be
  // idempotent: the first pass zeroes the SPM accumulator and the final
  // DmaPut overwrites the tile.
  ops::MatmulOp op(64, 64, 64);
  dsl::Strategy s;
  s.set_factor("Tm", 32);
  s.set_factor("Tn", 32);
  s.set_factor("Tk", 16);  // K = 64: four outer reduction passes
  s.set_choice("order", "kmn");
  s.set_choice("variant", "0");
  s.set_choice("boundary", "pad");
  const sim::SimConfig cfg;
  const sched::Candidate cand = tune::build_candidate(op, s, cfg);
  sim::CoreGroup cg(cfg);
  const dsl::BoundTensors bt = rt::bind_tensors(cg, op);
  op.fill_inputs(cg, bt, s);
  rt::Interpreter(cg, sim::ExecMode::Functional).run(cand.program, bt);
  EXPECT_LE(op.check_output(cg, bt, s), kTol);
  rt::Interpreter(cg, sim::ExecMode::Functional).run(cand.program, bt);
  EXPECT_LE(op.check_output(cg, bt, s), kTol);
}

TEST(Integration, GeneratedCodeIsNonTrivial) {
  ops::MatmulOp op(64, 64, 32);
  Optimizer optimizer;
  const OptimizedOperator tuned = optimizer.optimize(op);
  EXPECT_NE(tuned.c_source.find("spm_gemm"), std::string::npos);
  EXPECT_NE(tuned.c_source.find("swDMA"), std::string::npos);
  EXPECT_GT(tuned.stats.valid_candidates, 10);
}

}  // namespace
}  // namespace swatop

#include "ops/conv_backward.hpp"

namespace swatop {
namespace {

TEST(Integration, ConvBackwardDataTuned) {
  ops::ConvShape s;
  s.batch = 8;
  s.ni = 32;
  s.no = 32;
  s.ri = 8;
  s.ci = 8;
  ops::ConvBwdDataOp op(s);
  EXPECT_LE(optimize_and_check(op), 3e-3);
}

TEST(Integration, ConvBackwardFilterTuned) {
  ops::ConvShape s;
  s.batch = 8;
  s.ni = 32;
  s.no = 32;
  s.ri = 8;
  s.ci = 8;
  ops::ConvBwdFilterOp op(s);
  EXPECT_LE(optimize_and_check(op), 5e-3);
}

/// One 3x3 `channels` -> `channels` convolution on an hw x hw input, compiled
/// as a graph and run timing-only at `batch`, its output rows split over
/// `groups` core groups.
graph::NetRunResult run_conv_on_groups(std::int64_t hw, std::int64_t channels,
                                       std::int64_t batch, int groups) {
  graph::Graph g("conv");
  g.add_input("x", {hw, channels});
  graph::Node conv;
  conv.kind = graph::NodeKind::Conv;
  conv.name = "conv";
  conv.inputs = {"x"};
  conv.output = "y";
  conv.kernel = 3;
  conv.channels_out = channels;
  g.add(conv);
  graph::NetOptions opts;
  opts.groups = groups;
  opts.mode = sim::ExecMode::TimingOnly;
  opts.check = false;
  return compile(g).run(batch, opts);
}

TEST(Integration, ChipDataParallelScales) {
  // A training batch large enough that each group's row slab (4 of the 14
  // rows, all 128 images) keeps its GEMM efficiency.
  const auto one = run_conv_on_groups(16, 64, 128, 1);
  const auto four = run_conv_on_groups(16, 64, 128, 4);
  EXPECT_EQ(four.groups_used, 4);
  // Near-linear: four groups at least 2.5x faster than one.
  EXPECT_LT(four.cycles, one.cycles / 2.5);
  EXPECT_GT(four.gflops, one.gflops * 2.5);
}

TEST(Integration, ChipBatchOneSplitsRows) {
  // Batch 1 has no batch to slice; its 14 output rows split 4 + 4 + 4 + 2.
  const auto one = run_conv_on_groups(16, 64, 1, 1);
  const auto r = run_conv_on_groups(16, 64, 1, 4);
  EXPECT_EQ(r.groups_used, 4);
  EXPECT_LT(r.cycles, one.cycles / 2.5);
}

TEST(Integration, ChipUnevenSplit) {
  // 8 output rows over 3 groups: 3 + 3 + 2; the short slab finishes
  // early, the slowest one bounds the elapsed time, so some group idled.
  const auto r = run_conv_on_groups(10, 32, 5, 3);
  EXPECT_EQ(r.groups_used, 3);
  ASSERT_EQ(r.layers.size(), 1u);
  const graph::LayerReport& conv = r.layers[0];
  ASSERT_TRUE(conv.conv);
  ASSERT_EQ(conv.groups, 3);
  EXPECT_LT(conv.group_cycles, conv.groups * (conv.cycles - conv.sync_cycles));
}

TEST(Integration, PortsToSw26010Pro) {
  // Re-tuning the same operator against the successor machine: the 4x SPM
  // admits larger tiles, and the result must still be functionally correct
  // and strictly faster in wall-clock terms (higher clock + bandwidth).
  ops::MatmulOp op(512, 512, 256);
  const sim::SimConfig base = sim::SimConfig::sw26010();
  const sim::SimConfig pro = sim::SimConfig::sw26010pro();

  const tune::ModelTuner base_tuner(base);
  const tune::ModelTuner pro_tuner(pro);
  const auto base_pick = base_tuner.tune(op);
  const auto pro_pick = pro_tuner.tune(op);

  // The 4x SPM admits tile footprints the base machine must prune: a
  // 512x512x512 blocking fits the Pro's scratchpad only.
  {
    dsl::Strategy huge;
    huge.set_factor("Tm", 512);
    huge.set_factor("Tn", 512);
    huge.set_factor("Tk", 512);
    huge.set_choice("order", "mnk");
    huge.set_choice("variant", "0");
    huge.set_choice("boundary", "pad");
    ops::MatmulOp big(1024, 1024, 1024);
    EXPECT_THROW(tune::build_candidate(big, huge, base), CheckError);
    EXPECT_GT(tune::measure_strategy(big, huge, pro), 0.0);
  }
  (void)pro_pick;

  const double base_cycles =
      tune::measure_candidate(op, base_pick.candidate, base);
  const double pro_cycles =
      tune::measure_candidate(op, pro_pick.candidate, pro);
  const double base_s = base_cycles / base.clock_ghz;
  const double pro_s = pro_cycles / pro.clock_ghz;
  EXPECT_LT(pro_s, base_s);
}

TEST(Integration, ProTunedStillCorrect) {
  ops::MatmulOp op(72, 56, 40);
  SwatopConfig cfg;
  cfg.machine = sim::SimConfig::sw26010pro();
  CompiledOp compiled = compile(op, cfg);
  const rt::RunResult r = compiled.run();
  EXPECT_GT(r.cycles, 0.0);
  EXPECT_LE(compiled.check(), 2e-3);
}

TEST(Integration, LowLevelEntryPointsStillWork) {
  // Callers that manage the core group themselves keep working.
  ops::MatmulOp op(64, 64, 32);
  Optimizer optimizer;
  const OptimizedOperator tuned = optimizer.optimize(op);
  sim::CoreGroup cg(optimizer.machine());
  const dsl::BoundTensors bt = rt::bind_tensors(cg, op);
  op.fill_inputs(cg, bt, tuned.candidate.strategy);
  tuned.run(cg, bt, sim::ExecMode::Functional);
  EXPECT_LE(op.check_output(cg, bt, tuned.candidate.strategy), kTol);
}

}  // namespace
}  // namespace swatop
