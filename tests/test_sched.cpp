#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "ir/analysis.hpp"
#include "ops/matmul.hpp"
#include "sched/lower.hpp"
#include "sched/scheduler.hpp"

namespace swatop::sched {
namespace {

sim::SimConfig cfg;

TEST(Lower, BuildNestOrdersLoops) {
  std::vector<LoopSpec> loops = {{ir::VarId("a"), ir::cst(2), false},
                                 {ir::VarId("b"), ir::cst(3), true}};
  auto prog = build_nest(loops, ir::make_comment("body"));
  ASSERT_EQ(prog->kind, ir::StmtKind::Seq);
  const auto& outer = prog->body[0];
  EXPECT_EQ(outer->var.name(), "a");
  EXPECT_FALSE(outer->reduction);
  const auto& inner = outer->for_body->body[0];
  EXPECT_EQ(inner->var.name(), "b");
  EXPECT_TRUE(inner->reduction);
}

TEST(Lower, OrderLoopsPermutes) {
  const std::vector<std::pair<char, LoopSpec>> dims = {
      {'m', {ir::VarId("m"), ir::cst(1), false}},
      {'n', {ir::VarId("n"), ir::cst(1), false}},
      {'k', {ir::VarId("k"), ir::cst(1), true}},
  };
  const auto out = order_loops("knm", dims);
  EXPECT_EQ(out[0].var.name(), "k");
  EXPECT_EQ(out[1].var.name(), "n");
  EXPECT_EQ(out[2].var.name(), "m");
}

TEST(Lower, OrderLoopsRejectsBadStrings) {
  const std::vector<std::pair<char, LoopSpec>> dims = {
      {'m', {ir::VarId("m"), ir::cst(1), false}},
      {'n', {ir::VarId("n"), ir::cst(1), false}},
  };
  EXPECT_THROW(order_loops("mx", dims), CheckError);
  EXPECT_THROW(order_loops("m", dims), CheckError);
}

TEST(Scheduler, ProducesValidOptimizedCandidates) {
  ops::MatmulOp op(64, 64, 32);
  Scheduler sched(cfg);
  const auto cands = sched.candidates(op);
  ASSERT_FALSE(cands.empty());
  EXPECT_LT(static_cast<std::int64_t>(cands.size()), sched.space_size(op));
  for (const auto& c : cands) {
    // Every candidate went through DMA inference and fits the SPM.
    EXPECT_TRUE(ir::contains_kind(c.program, ir::StmtKind::DmaGet));
    EXPECT_LE(ir::spm_footprint(c.program), cfg.spm_floats());
  }
}

TEST(Scheduler, SpaceSizeMatchesDsl) {
  ops::MatmulOp op(64, 64, 32);
  Scheduler sched(cfg);
  EXPECT_EQ(sched.space_size(op), op.space().size());
}

TEST(Scheduler, MaxCandidatesCaps) {
  ops::MatmulOp op(64, 64, 32);
  Scheduler sched(cfg);
  SchedulerOptions opts;
  opts.max_candidates = 5;
  EXPECT_EQ(sched.candidates(op, opts).size(), 5u);
}

TEST(Scheduler, AlignedShapeDropsSwitchCandidates) {
  // With no ragged dims, boundary="switch" lowers to nullptr and only the
  // pad variants remain -- the space halves.
  ops::MatmulOp op(64, 64, 32);
  Scheduler sched(cfg);
  const auto cands = sched.candidates(op);
  for (const auto& c : cands)
    EXPECT_EQ(c.strategy.choice("boundary"), "pad");
}

TEST(Scheduler, UnalignedShapeKeepsLegalSwitch) {
  // 192 % 128 = 64: switch-legal remainder, both strategies survive.
  ops::MatmulOp op(192, 64, 32);
  Scheduler sched(cfg);
  const auto cands = sched.candidates(op);
  bool has_switch = false, has_pad = false;
  for (const auto& c : cands) {
    has_switch = has_switch || c.strategy.choice("boundary") == "switch";
    has_pad = has_pad || c.strategy.choice("boundary") == "pad";
  }
  EXPECT_TRUE(has_switch);
  EXPECT_TRUE(has_pad);
}

// --- The sweep. ---

SchedulerOptions threads(int n) {
  SchedulerOptions o;
  o.num_threads = n;
  return o;
}

TEST(Sweep, CountsTheFunnel) {
  ops::MatmulOp op(72, 56, 40);
  const Scheduler sched(cfg);
  const std::vector<dsl::Strategy> all = op.space().enumerate();
  for (int n : {1, 4}) {
    const obs::SweepCounts c = sched.sweep(op, threads(n), [] {
      return [](std::size_t, dsl::Strategy&, ir::StmtPtr&, bool) {};
    });
    EXPECT_EQ(c.enumerated, static_cast<std::int64_t>(all.size()));
    EXPECT_GT(c.lowered, 0);
    EXPECT_LE(c.lowered, c.enumerated);
    EXPECT_EQ(c.lowered - c.dropped, c.kept);
    EXPECT_EQ(c.kept,
              static_cast<std::int64_t>(sched.candidates(op).size()));
  }
}

TEST(Sweep, ReleasesProgramsTheVisitorDoesNotTake) {
  // A visitor that does not take the program leaves it to the sweep, which
  // releases it before the worker moves on: nothing outlives the sweep.
  ops::MatmulOp op(72, 56, 40);
  const std::vector<dsl::Strategy> all = op.space().enumerate();
  std::vector<std::weak_ptr<ir::Stmt>> seen(all.size());
  const obs::SweepCounts c = Scheduler(cfg).sweep(op, threads(4), [&] {
    return [&](std::size_t i, dsl::Strategy&, ir::StmtPtr& prog, bool) {
      seen[i] = prog;
    };
  });
  EXPECT_GT(c.kept, 0);
  for (const auto& w : seen) EXPECT_TRUE(w.expired());
}

TEST(Sweep, HandsEachSurvivorItsDecodedStrategy) {
  // Workers decode the strategies themselves: the visitor at index i sees
  // the space's i-th assignment, at any thread count.
  ops::MatmulOp op(72, 56, 40);
  const std::vector<dsl::Strategy> all = op.space().enumerate();
  for (int n : {1, 4}) {
    std::vector<std::optional<dsl::Strategy>> seen(all.size());
    const obs::SweepCounts c = Scheduler(cfg).sweep(op, threads(n), [&] {
      return [&](std::size_t i, dsl::Strategy& s, ir::StmtPtr&, bool) {
        seen[i] = std::move(s);
      };
    });
    std::int64_t visited = 0;
    for (std::size_t i = 0; i < all.size(); ++i) {
      if (!seen[i]) continue;
      ++visited;
      EXPECT_EQ(*seen[i], all[i]) << i;
    }
    EXPECT_EQ(visited, c.kept);
  }
}

/// A matmul whose lowered programs wait on a reply slot no DMA issues: the
/// IR validator rejects every survivor, naming a slot that depends on the
/// strategy, so the first failing candidate is identifiable.
class BrokenWaitOp : public ops::MatmulOp {
 public:
  BrokenWaitOp() : ops::MatmulOp(72, 56, 40) {}
  ir::StmtPtr lower(const dsl::Strategy& s) const override {
    ir::StmtPtr prog = ops::MatmulOp::lower(s);
    if (prog == nullptr) return prog;
    const std::int64_t slot = 100 + s.factor("Tm") / 8 + s.factor("Tk") / 8;
    ir::seq_push(prog, ir::make_dma_wait(ir::cst(slot)));
    return prog;
  }
};

TEST(Sweep, WorkerValidationErrorIsRethrownOnCaller) {
  BrokenWaitOp op;
  const Scheduler sched(cfg);
  std::string serial;
  try {
    sched.candidates(op, threads(1));
  } catch (const CheckError& e) {
    serial = e.what();
  }
  ASSERT_NE(serial.find("IR validation failed"), std::string::npos)
      << serial;
  for (int n : {2, 4}) {
    try {
      sched.candidates(op, threads(n));
      ADD_FAILURE() << "no exception at " << n << " threads";
    } catch (const CheckError& e) {
      // The lowest failing index wins, as in the serial sweep.
      EXPECT_EQ(e.what(), serial) << n << " threads";
    }
  }
}

}  // namespace
}  // namespace swatop::sched
