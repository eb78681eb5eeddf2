#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "ir/printer.hpp"
#include "ops/explicit_conv.hpp"
#include "ops/implicit_conv.hpp"
#include "ops/matmul.hpp"
#include "ops/winograd.hpp"
#include "tune/cost_model.hpp"
#include "tune/gemm_model.hpp"
#include "tune/tuner.hpp"

namespace swatop::tune {
namespace {

sim::SimConfig cfg;

TEST(GemmModel, FitResidualIsSmall) {
  // Eq. (2) is a smooth surrogate for a genuinely stepped cost surface
  // (ragged register-block decomposition); a mean relative residual in the
  // low tens of percent per *single call* is expected -- what Fig. 9
  // validates is the end-to-end candidate ranking, tested separately.
  const GemmCostModel& m = gemm_cost_model(cfg);
  for (int v = 0; v < 8; ++v) {
    EXPECT_LT(m.residual(v), 0.15) << "variant " << v;
  }
}

TEST(GemmModel, PredictsMeasuredOrdering) {
  // The fitted Eq. (2) must preserve the ordering between a cheap and an
  // expensive variant at a representative shape.
  const GemmCostModel& m = gemm_cost_model(cfg);
  const auto& db = isa::kernel_cost_db(cfg);
  const double fast = db.spm_gemm_cycles(isa::KernelVariant::from_index(0),
                                         128, 128, 64);
  const double slow = db.spm_gemm_cycles(isa::KernelVariant::from_index(1),
                                         128, 128, 64);
  ASSERT_LT(fast, slow);
  EXPECT_LT(m.cycles(0, 128, 128, 64), m.cycles(1, 128, 128, 64));
}

TEST(GemmModel, GrowsWithEveryDim) {
  const GemmCostModel& m = gemm_cost_model(cfg);
  const double base = m.cycles(0, 64, 64, 32);
  EXPECT_GT(m.cycles(0, 128, 64, 32), base);
  EXPECT_GT(m.cycles(0, 64, 128, 32), base);
  EXPECT_GT(m.cycles(0, 64, 64, 64), base);
}

TEST(CostModel, TracksInterpreterWithinTolerance) {
  // The static estimate should land near the measured run for an aligned
  // shape (no boundary approximation error).
  ops::MatmulOp op(128, 128, 64);
  dsl::Strategy s;
  s.set_factor("Tm", 64);
  s.set_factor("Tn", 64);
  s.set_factor("Tk", 32);
  s.set_choice("order", "mnk");
  s.set_choice("variant", "0");
  s.set_choice("boundary", "pad");
  const auto cand = build_candidate(op, s, cfg);
  const double measured = measure_candidate(op, cand, cfg);
  const CostModel model(cfg, gemm_cost_model(cfg));
  const double predicted = model.estimate(cand.program).total();
  EXPECT_NEAR(predicted, measured, 0.35 * measured);
}

TEST(CostModel, OverlapUsesMax) {
  ops::MatmulOp op(128, 128, 64);
  dsl::Strategy s;
  s.set_factor("Tm", 64);
  s.set_factor("Tn", 64);
  s.set_factor("Tk", 32);
  s.set_choice("order", "mnk");
  s.set_choice("variant", "0");
  s.set_choice("boundary", "pad");
  const CostModel model(cfg, gemm_cost_model(cfg));
  const auto with = build_candidate(op, s, cfg, true);
  const auto without = build_candidate(op, s, cfg, false);
  const StaticCost cw = model.estimate(with.program);
  const StaticCost co = model.estimate(without.program);
  EXPECT_TRUE(cw.overlapped);
  EXPECT_FALSE(co.overlapped);
  EXPECT_LT(cw.total(), co.total());
  EXPECT_DOUBLE_EQ(cw.total(),
                   cw.dma_sync_cycles + std::max(cw.dma_overlapped_cycles,
                                                 cw.compute_cycles));
  EXPECT_DOUBLE_EQ(co.total(), co.dma_cycles() + co.compute_cycles);
}

TEST(ModelTuner, FindsACandidateAndReportsStats) {
  ops::MatmulOp op(96, 64, 40);
  const ModelTuner tuner(cfg);
  const Tuned t = tuner.tune(op);
  EXPECT_GT(t.cycles, 0.0);
  EXPECT_GT(t.stats.space_size, 0);
  EXPECT_GT(t.stats.valid_candidates, 0);
  EXPECT_LE(t.stats.valid_candidates, t.stats.space_size);
  EXPECT_GE(t.stats.seconds, 0.0);
}

TEST(BlackBoxTuner, MeasuresEveryCandidate) {
  ops::MatmulOp op(64, 64, 32);
  const BlackBoxTuner tuner(cfg);
  const auto res = tuner.tune(op);
  EXPECT_EQ(static_cast<std::int64_t>(res.all_measured.size()),
            res.best.stats.valid_candidates);
  for (double t : res.all_measured) EXPECT_GE(t, res.best.cycles);
}

TEST(BlackBoxTuner, DefaultConfigurationIsUnpruned) {
  // The default tuner measures every valid candidate: none is skipped, and
  // every measurement is a real, non-negative cycle count.
  ops::MatmulOp op(64, 64, 32);
  const BlackBoxTuner tuner(cfg);
  const auto res = tuner.tune(op);
  EXPECT_EQ(static_cast<std::int64_t>(res.all_measured.size()),
            res.best.stats.valid_candidates);
  for (double v : res.all_measured) EXPECT_GE(v, 0.0);
}

TEST(Tuners, ModelLossIsBounded) {
  // The paper's Fig. 9 claim at small scale: the model-picked candidate is
  // within a modest factor of the brute-force best.
  for (std::int64_t m : {64, 96}) {
    ops::MatmulOp op(m, 64, 40);
    const ModelTuner mt(cfg);
    const BlackBoxTuner bb(cfg);
    const Tuned picked = mt.tune(op);
    const auto best = bb.tune(op);
    const double measured_pick =
        measure_candidate(op, picked.candidate, cfg);
    EXPECT_LE(measured_pick, 1.25 * best.best.cycles)
        << "model pick leaves too much on the table for M=" << m;
  }
}

TEST(Tuners, ModelTunerMeasuresNothing) {
  // What makes the model tuner cheap (Tab. 3): over the same candidate set
  // it runs the interpreter zero times, the black-box tuner once per
  // candidate. The wall-clock form of this claim is
  // Tuners.ModelTunerIsMuchFaster in test_tune_timing, which runs alone.
  ops::MatmulOp op(96, 64, 40);
  obs::Options oo;
  oo.enabled = true;
  obs::Recorder model_rec(oo);
  obs::Recorder bb_rec(oo);
  const Tuned m = ModelTuner(cfg).tune(op, {}, &model_rec);
  const auto b = BlackBoxTuner(cfg).tune(op, {}, &bb_rec);
  ASSERT_GT(b.best.stats.valid_candidates, 1);
  EXPECT_EQ(m.stats.valid_candidates, b.best.stats.valid_candidates);
  EXPECT_EQ(model_rec.tune().candidates_measured, 0);
  for (const obs::TuneSample& s : model_rec.tune_samples())
    EXPECT_LT(s.measured_cycles, 0.0) << s.strategy;
  EXPECT_EQ(bb_rec.tune().candidates_measured,
            b.best.stats.valid_candidates);
  std::int64_t measured = 0;
  for (const obs::TuneSample& s : bb_rec.tune_samples())
    if (s.measured_cycles >= 0.0) ++measured;
  EXPECT_EQ(measured, b.best.stats.valid_candidates);
}

TEST(ModelTuner, ParallelPicksSameWinnerAsSerial) {
  // The worker-pool enumerate->lower->rank path must be bit-deterministic:
  // estimates are index-aligned and ties break by the first index, so any
  // thread count picks the serial winner.
  ops::ConvShape cs;
  cs.batch = 4;
  cs.ni = 32;
  cs.no = 32;
  cs.ri = 8;
  cs.ci = 8;
  ops::ImplicitConvOp conv(cs);
  ops::MatmulOp small(64, 64, 32);
  ops::MatmulOp odd(72, 56, 40);
  const dsl::OperatorDef* ops_[] = {&small, &odd, &conv};
  const ModelTuner tuner(cfg);
  for (const dsl::OperatorDef* op : ops_) {
    sched::SchedulerOptions serial;
    serial.num_threads = 1;
    sched::SchedulerOptions parallel;
    parallel.num_threads = 0;  // hardware concurrency
    const Tuned s = tuner.tune(*op, serial);
    const Tuned p = tuner.tune(*op, parallel);
    EXPECT_TRUE(p.candidate.strategy == s.candidate.strategy)
        << op->name() << ": parallel picked "
        << p.candidate.strategy.to_string() << " vs serial "
        << s.candidate.strategy.to_string();
    EXPECT_DOUBLE_EQ(p.cycles, s.cycles) << op->name();
    EXPECT_EQ(p.stats.valid_candidates, s.stats.valid_candidates);
    // Same for the top-k refinement (shortlist is rank-stable too).
    const Tuned sk = tuner.tune_top_k(*op, 4, serial);
    const Tuned pk = tuner.tune_top_k(*op, 4, parallel);
    EXPECT_TRUE(pk.candidate.strategy == sk.candidate.strategy)
        << op->name();
    EXPECT_DOUBLE_EQ(pk.cycles, sk.cycles) << op->name();
  }
}

// --- The streamed tuner against a materialized reference. ---

/// The model tuner as it was before streaming: every candidate held at
/// once, ranked serially by one CostModel, first minimum wins.
struct Reference {
  std::vector<sched::Candidate> cands;
  std::vector<double> est;
  std::size_t best = 0;
};

Reference reference(const dsl::OperatorDef& op) {
  Reference r;
  sched::SchedulerOptions serial;
  serial.num_threads = 1;
  r.cands = sched::Scheduler(cfg).candidates(op, serial);
  const CostModel model(cfg, gemm_cost_model(cfg));
  for (const sched::Candidate& c : r.cands)
    r.est.push_back(model.estimate(c.program).total());
  for (std::size_t i = 1; i < r.est.size(); ++i)
    if (r.est[i] < r.est[r.best]) r.best = i;
  return r;
}

/// Candidate indices by (estimate, index).
std::vector<std::size_t> by_estimate(const Reference& r) {
  std::vector<std::size_t> order(r.est.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a,
                                                   std::size_t b) {
    return r.est[a] < r.est[b];
  });
  return order;
}

/// The journal the reference tuner writes for `op` (`measured` empty for
/// the "model" phase).
std::string reference_jsonl(const dsl::OperatorDef& op, const Reference& r,
                            const char* phase,
                            const std::vector<double>& measured,
                            std::size_t chosen) {
  const std::vector<std::size_t> order = by_estimate(r);
  std::vector<std::int64_t> rank(order.size());
  for (std::size_t q = 0; q < order.size(); ++q)
    rank[order[q]] = static_cast<std::int64_t>(q);
  Journal j;
  for (std::size_t i = 0; i < r.cands.size(); ++i)
    j.append({op.name(), phase, r.cands[i].strategy.to_string(),
              static_cast<std::int64_t>(i), rank[i], r.est[i],
              measured.empty() ? -1.0 : measured[i], i == chosen});
  return j.to_jsonl();
}

sched::SchedulerOptions threads(int n) {
  sched::SchedulerOptions o;
  o.num_threads = n;
  return o;
}

ops::ConvShape stream_shape() {
  ops::ConvShape s;
  s.batch = 4;
  s.ni = 32;
  s.no = 32;
  s.ri = 10;
  s.ci = 10;
  return s;
}

/// A fused implicit conv (bias+relu: its lowering rejects the rcuvio/rouvci
/// orders), an explicit conv, winograd and a ragged matmul.
std::vector<std::unique_ptr<dsl::OperatorDef>> stream_ops() {
  dsl::EpilogueSpec epi;
  epi.bias = true;
  epi.relu = true;
  std::vector<std::unique_ptr<dsl::OperatorDef>> ops_;
  ops_.push_back(std::make_unique<ops::ImplicitConvOp>(stream_shape(), epi));
  ops_.push_back(std::make_unique<ops::ExplicitConvOp>(stream_shape()));
  ops_.push_back(std::make_unique<ops::WinogradGemmOp>(stream_shape()));
  ops_.push_back(std::make_unique<ops::MatmulOp>(72, 56, 40));
  return ops_;
}

TEST(StreamedTuner, MatchesMaterializedReference) {
  const ModelTuner tuner(cfg);
  for (const auto& op : stream_ops()) {
    const Reference ref = reference(*op);
    ASSERT_GT(ref.cands.size(), 1u) << op->name();
    const sched::Candidate& pick = ref.cands[ref.best];
    for (int n : {1, 2, 4}) {
      SCOPED_TRACE(op->name() + " at " + std::to_string(n) + " threads");
      Journal j;
      const Tuned t = tuner.tune(*op, threads(n), nullptr, &j);
      EXPECT_EQ(t.candidate.strategy, pick.strategy)
          << t.candidate.strategy.to_string() << " vs "
          << pick.strategy.to_string();
      EXPECT_EQ(t.cycles, ref.est[ref.best]);
      EXPECT_EQ(t.candidate.prefetch, pick.prefetch);
      // The rebuilt winner is the program the sweep ranked.
      EXPECT_EQ(ir::print(t.candidate.program), ir::print(pick.program));
      EXPECT_EQ(t.stats.valid_candidates,
                static_cast<std::int64_t>(ref.cands.size()));
      EXPECT_EQ(j.to_jsonl(),
                reference_jsonl(*op, ref, "model", {}, ref.best));
      const obs::SweepCounts& sw = j.sweep();
      EXPECT_EQ(sw.enumerated,
                static_cast<std::int64_t>(op->space().enumerate().size()));
      EXPECT_EQ(sw.kept, static_cast<std::int64_t>(ref.cands.size()));
      EXPECT_EQ(sw.lowered - sw.dropped, sw.kept);
    }
  }
}

TEST(StreamedTuner, FusedConvPrunesReductionOutsideOrders) {
  // A reduction loop outside C's scope would store partial sums through
  // the fused epilogue. The lowering rejects those orders before building
  // anything, so nothing the sweep lowers is dropped by the optimizer.
  const auto all = stream_ops();
  const dsl::OperatorDef& fused = *all.front();
  std::int64_t reduction_outside = 0;
  for (const dsl::Strategy& s : fused.space().enumerate()) {
    if (s.choice("order") == "rcuvio" || s.choice("order") == "rouvci") {
      ++reduction_outside;
      EXPECT_EQ(fused.lower(s), nullptr) << s.to_string();
    }
  }
  ASSERT_GT(reduction_outside, 0);
  Journal j;
  (void)ModelTuner(cfg).tune(fused, threads(2), nullptr, &j);
  const obs::SweepCounts& sw = j.sweep();
  EXPECT_EQ(sw.dropped, 0);
  EXPECT_EQ(sw.lowered, sw.kept);
  EXPECT_GE(sw.enumerated - sw.lowered, reduction_outside);
  for (const JournalEntry& e : j.entries()) {
    EXPECT_EQ(e.strategy.find("rcuvio"), std::string::npos) << e.strategy;
    EXPECT_EQ(e.strategy.find("rouvci"), std::string::npos) << e.strategy;
  }
}

TEST(StreamedTuner, TopKMatchesReference) {
  constexpr std::size_t kK = 4;
  const ModelTuner tuner(cfg);
  for (const auto& op : stream_ops()) {
    const Reference ref = reference(*op);
    const std::vector<std::size_t> order = by_estimate(ref);
    std::vector<double> measured(ref.cands.size(), -1.0);
    std::size_t winner = order.front();
    for (std::size_t q = 0; q < std::min(kK, order.size()); ++q) {
      const std::size_t i = order[q];
      measured[i] = measure_candidate(*op, ref.cands[i], cfg);
      if (measured[i] < measured[winner]) winner = i;
    }
    for (int n : {1, 2, 4}) {
      SCOPED_TRACE(op->name() + " at " + std::to_string(n) + " threads");
      Journal j;
      const Tuned t = tuner.tune_top_k(*op, static_cast<int>(kK),
                                       threads(n), nullptr, &j);
      EXPECT_EQ(t.candidate.strategy, ref.cands[winner].strategy);
      EXPECT_EQ(t.cycles, measured[winner]);
      EXPECT_EQ(j.to_jsonl(),
                reference_jsonl(*op, ref, "top-k", measured, winner));
    }
  }
}

TEST(StreamedTuner, EqualEstimatesBreakTowardsLowestIndex) {
  // An aligned matmul whose estimates tie in groups (loop orders the model
  // prices alike): among equal estimates, the lower enumeration index ranks
  // first, and a tie at the minimum picks the lowest index.
  ops::MatmulOp op(64, 64, 32);
  const Reference ref = reference(op);
  std::size_t ties = 0;
  for (std::size_t i = 0; i < ref.est.size(); ++i)
    for (std::size_t k = i + 1; k < ref.est.size(); ++k)
      if (ref.est[i] == ref.est[k]) ++ties;
  ASSERT_GT(ties, 0u) << "the shape no longer has tied estimates";
  std::size_t tied_at_min = 0;
  for (double e : ref.est)
    if (e == ref.est[ref.best]) ++tied_at_min;
  EXPECT_GT(tied_at_min, 1u) << "the minimum is no longer tied";
  for (int n : {1, 4}) {
    Journal j;
    const Tuned t = ModelTuner(cfg).tune(op, threads(n), nullptr, &j);
    EXPECT_EQ(t.candidate.strategy, ref.cands[ref.best].strategy);
    ASSERT_EQ(j.size(), ref.est.size());
    for (std::size_t i = 0; i < ref.est.size(); ++i) {
      for (std::size_t k = i + 1; k < ref.est.size(); ++k) {
        if (ref.est[i] == ref.est[k]) {
          EXPECT_LT(j.entries()[i].rank, j.entries()[k].rank);
        }
      }
    }
  }
}

TEST(BlackBoxTuner, RecordsTuningTrace) {
  // Black-box tuning is observable like ModelTuner (Tab. 3 both sides):
  // phases are spans on the tuner track, per-candidate results become tune
  // samples, all emitted after the measurement pool joins.
  ops::MatmulOp op(64, 64, 32);
  const BlackBoxTuner tuner(cfg);
  obs::Options oo;
  oo.enabled = true;
  obs::Recorder rec(oo);
  const auto res = tuner.tune(op, {}, &rec);
  EXPECT_EQ(rec.tune().candidates_measured,
            res.best.stats.valid_candidates);
  EXPECT_EQ(rec.tune().space_size, res.best.stats.space_size);
  EXPECT_GT(rec.tune().seconds, 0.0);
  EXPECT_EQ(static_cast<std::int64_t>(rec.tune_samples().size()),
            res.best.stats.valid_candidates);
  for (const obs::TuneSample& s : rec.tune_samples()) {
    EXPECT_LT(s.predicted_cycles, 0.0);  // no model estimate in black-box
    EXPECT_GT(s.measured_cycles, 0.0);
  }
  bool saw_enum = false, saw_measure = false;
  for (const obs::TraceEvent& ev : rec.buffer().snapshot()) {
    if (ev.name == "enumerate+lower") saw_enum = true;
    if (ev.name == "measure (parallel)") saw_measure = true;
  }
  EXPECT_TRUE(saw_enum);
  EXPECT_TRUE(saw_measure);
}

TEST(MeasureStrategy, ThrowsOnInvalidStrategy) {
  ops::MatmulOp op(64, 64, 32);
  dsl::Strategy s;
  s.set_factor("Tm", 64);
  s.set_factor("Tn", 64);
  s.set_factor("Tk", 32);
  s.set_choice("order", "mnk");
  s.set_choice("variant", "0");
  s.set_choice("boundary", "switch");  // aligned: switch is a no-op, invalid
  EXPECT_THROW(measure_strategy(op, s, cfg), CheckError);
}

}  // namespace
}  // namespace swatop::tune

namespace swatop::tune {
namespace {

TEST(ModelTuner, TopKNeverWorseThanTopOne) {
  ops::MatmulOp op(96, 64, 40);
  const ModelTuner tuner(cfg);
  const Tuned one = tuner.tune(op);
  const Tuned topk = tuner.tune_top_k(op, 8);
  const double measured_one = measure_candidate(op, one.candidate, cfg);
  // top-k returns a *measured* winner among the model's shortlist, which
  // includes the model's single pick.
  EXPECT_LE(topk.cycles, measured_one + 1e-6);
}

TEST(ModelTuner, TopKHandlesOversizedK) {
  ops::MatmulOp op(64, 64, 32);
  const ModelTuner tuner(cfg);
  const Tuned t = tuner.tune_top_k(op, 1 << 20);
  EXPECT_GT(t.cycles, 0.0);
  EXPECT_THROW(tuner.tune_top_k(op, 0), CheckError);
}

TEST(ModelTuner, TopKApproachesBruteForce) {
  ops::MatmulOp op(72, 56, 40);
  const ModelTuner tuner(cfg);
  const BlackBoxTuner bb(cfg);
  const auto best = bb.tune(op);
  const Tuned topk = tuner.tune_top_k(op, 16);
  EXPECT_LE(topk.cycles, 1.1 * best.best.cycles);
}

}  // namespace
}  // namespace swatop::tune

#include "ops/implicit_conv.hpp"

namespace swatop::tune {
namespace {

TEST(CostModel, PenalizesSynchronousAccumulatorTraffic) {
  // Regression for the Fig. 9 worst case: a schedule that places reduction
  // loops outside the output tile's scope re-fetches C synchronously every
  // pass; the model must price that above the overlap-friendly order.
  ops::ConvShape s;
  s.batch = 32;
  s.ni = 128;
  s.no = 128;
  s.ri = 18;
  s.ci = 18;
  ops::ImplicitConvOp op(s);
  auto strat = [](const char* order) {
    dsl::Strategy st;
    st.set_factor("Tno", 64);
    st.set_factor("Tni", 64);
    st.set_factor("Tco", 8);
    st.set_choice("wlayout", "ni_major");
    st.set_choice("order", order);
    st.set_choice("variant", "7");
    st.set_choice("boundary", "pad");
    return st;
  };
  const CostModel model(cfg, gemm_cost_model(cfg));
  const auto good = build_candidate(op, strat("rcouvi"), cfg);
  const auto bad = build_candidate(op, strat("rcuvio"), cfg);
  const StaticCost cg_ = model.estimate(good.program);
  const StaticCost cb = model.estimate(bad.program);
  // The reduction-outside order carries far more synchronous DMA...
  EXPECT_GT(cb.dma_sync_cycles, 2.0 * cg_.dma_sync_cycles);
  // ...and both the model and the interpreter agree on the ordering.
  EXPECT_GT(cb.total(), cg_.total());
  EXPECT_GT(measure_candidate(op, bad, cfg),
            measure_candidate(op, good, cfg));
}

}  // namespace
}  // namespace swatop::tune
