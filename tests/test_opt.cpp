#include <gtest/gtest.h>

#include "common/check.hpp"
#include "ir/analysis.hpp"
#include "ir/mutator.hpp"
#include "ir/printer.hpp"
#include "opt/boundary.hpp"
#include "opt/coalesce.hpp"
#include "opt/dma_inference.hpp"
#include "opt/double_buffer.hpp"
#include "opt/pass_manager.hpp"
#include "ops/matmul.hpp"

namespace swatop::opt {
namespace {

sim::SimConfig cfg;

dsl::Strategy matmul_strategy(std::int64_t tm, std::int64_t tn,
                              std::int64_t tk, const std::string& order,
                              const std::string& variant = "0",
                              const std::string& boundary = "pad") {
  dsl::Strategy s;
  s.set_factor("Tm", tm);
  s.set_factor("Tn", tn);
  s.set_factor("Tk", tk);
  s.set_choice("order", order);
  s.set_choice("variant", variant);
  s.set_choice("boundary", boundary);
  return s;
}

TEST(TiledDim, EvenSplit) {
  const TiledDim d = make_tiled(ir::VarId("i"), 128, 32);
  EXPECT_EQ(d.count, 4);
  EXPECT_FALSE(d.ragged);
  EXPECT_TRUE(ir::is_const(d.valid()));
  EXPECT_EQ(ir::as_cst(d.valid()), 32);
  EXPECT_EQ(ir::eval(d.base(), {{"i", 3}}), 96);
}

TEST(TiledDim, RaggedSplit) {
  const TiledDim d = make_tiled(ir::VarId("i"), 100, 32);
  EXPECT_EQ(d.count, 4);
  EXPECT_TRUE(d.ragged);
  EXPECT_EQ(d.remainder(), 4);
  EXPECT_EQ(ir::eval(d.valid(), {{"i", 0}}), 32);
  EXPECT_EQ(ir::eval(d.valid(), {{"i", 3}}), 4);
}

TEST(TiledDim, SwitchLegality) {
  // Remainder 64: divisible by 8, 64/8 = 8 divisible by 4 -> legal.
  EXPECT_TRUE(switch_legal(make_tiled(ir::VarId("i"), 192, 128), 8, 4));
  // Remainder 4: not divisible by mesh 8.
  EXPECT_FALSE(switch_legal(make_tiled(ir::VarId("i"), 100, 32), 8, 1));
  // Remainder 8: 8/8 = 1, not a multiple of 4 when vectorized.
  EXPECT_FALSE(switch_legal(make_tiled(ir::VarId("i"), 40, 32), 8, 4));
  EXPECT_TRUE(switch_legal(make_tiled(ir::VarId("i"), 40, 32), 8, 1));
  // Even splits are always legal.
  EXPECT_TRUE(switch_legal(make_tiled(ir::VarId("i"), 64, 32), 8, 4));
}

TEST(DmaInference, InjectsAllocsGetsAndPuts) {
  ops::MatmulOp op(128, 128, 64);
  auto prog = op.lower(matmul_strategy(64, 64, 32, "mnk"));
  ASSERT_NE(prog, nullptr);
  ASSERT_TRUE(infer_dma(prog, cfg));
  const auto dmas = ir::find_dmas(prog);
  // A get, B get, C put.
  int gets = 0, puts = 0;
  for (const auto* d : dmas) {
    if (d->kind == ir::StmtKind::DmaGet) ++gets;
    if (d->kind == ir::StmtKind::DmaPut) ++puts;
  }
  EXPECT_EQ(gets, 2);
  EXPECT_EQ(puts, 1);
  EXPECT_TRUE(ir::contains_kind(prog, ir::StmtKind::SpmAlloc));
  EXPECT_TRUE(ir::contains_kind(prog, ir::StmtKind::DmaWait));
  // Gemm is now bound to SPM buffers.
  const auto* g = ir::find_gemms(prog)[0];
  EXPECT_EQ(g->gemm.a_buf, "spm_A");
  EXPECT_EQ(g->gemm.c_buf, "spm_C");
}

TEST(DmaInference, HoistsInvariantTransfers) {
  // Order mnk: A depends on (m_o, k_o), B on (k_o, n_o), C on (m_o, n_o).
  // C's put must sit outside the k loop; A and B gets inside it.
  ops::MatmulOp op(128, 128, 64);
  auto prog = op.lower(matmul_strategy(64, 64, 32, "mnk"));
  ASSERT_TRUE(infer_dma(prog, cfg));
  const std::string text = ir::print(prog);
  // C put appears after the k loop closes: find positions.
  const auto kpos = text.find("for k_o");
  const auto cput = text.find("dma_put C");
  ASSERT_NE(kpos, std::string::npos);
  ASSERT_NE(cput, std::string::npos);
  EXPECT_GT(cput, kpos);
  // The C accumulator zero precedes the k loop.
  EXPECT_LT(text.find("spm_zero spm_C"), kpos);
}

TEST(DmaInference, OuterReductionRefetchesC) {
  // Order kmn: the reduction loop is outermost; C must be re-fetched and
  // accumulated on every pass after the first.
  ops::MatmulOp op(128, 128, 64);
  auto prog = op.lower(matmul_strategy(64, 64, 32, "kmn"));
  ASSERT_TRUE(infer_dma(prog, cfg));
  const std::string text = ir::print(prog);
  EXPECT_NE(text.find("dma_get C"), std::string::npos);
  EXPECT_NE(text.find("if ((k_o < 1))"), std::string::npos);
}

TEST(DmaInference, BoundaryZeroGuardsOnlyWhenRagged) {
  ops::MatmulOp aligned(128, 128, 64);
  auto p1 = aligned.lower(matmul_strategy(64, 64, 32, "mnk"));
  ASSERT_TRUE(infer_dma(p1, cfg));
  EXPECT_FALSE(ir::contains_kind(p1, ir::StmtKind::If));

  ops::MatmulOp ragged(100, 128, 64);
  auto p2 = ragged.lower(matmul_strategy(64, 64, 32, "mnk"));
  ASSERT_TRUE(infer_dma(p2, cfg));
  EXPECT_TRUE(ir::contains_kind(p2, ir::StmtKind::If));
}

TEST(DmaInference, RejectsInvalidPaddedDims) {
  // Tile N = 16 with a vec-N variant: 16/8 = 2, not a multiple of 4.
  ops::MatmulOp op(64, 16, 32);
  auto prog = op.lower(matmul_strategy(64, 16, 32, "mnk", "4"));
  ASSERT_NE(prog, nullptr);
  EXPECT_FALSE(infer_dma(prog, cfg));
}

TEST(DmaInference, RowMajorOperandSwapsDistribution) {
  // Variant 1: A row-major -- its DMA view is transposed and distributed
  // with view rows mapped to column ids.
  ops::MatmulOp op(64, 64, 32);
  auto prog = op.lower(matmul_strategy(64, 64, 32, "mnk", "1"));
  ASSERT_TRUE(infer_dma(prog, cfg));
  bool saw_swapped = false;
  ir::visit(prog, [&](const ir::StmtPtr& n) {
    if (n->kind == ir::StmtKind::DmaGet && n->dma.spm_buf == "spm_A")
      saw_swapped = !n->dma.rows_to_rid;
  });
  EXPECT_TRUE(saw_swapped);
}

TEST(DoubleBuffer, TransformsInnermostGetLoop) {
  ops::MatmulOp op(128, 128, 128);
  auto prog = op.lower(matmul_strategy(64, 64, 32, "mnk"));
  ASSERT_TRUE(infer_dma(prog, cfg));
  ASSERT_TRUE(apply_double_buffer(prog));
  const std::string text = ir::print(prog);
  EXPECT_NE(text.find("// prefetched"), std::string::npos);
  // A and B allocations doubled; C not.
  int doubled = 0;
  ir::visit(prog, [&](const ir::StmtPtr& n) {
    if (n->kind == ir::StmtKind::SpmAlloc && n->double_buffered) ++doubled;
  });
  EXPECT_EQ(doubled, 2);
  // Prefetch guard on the next iteration.
  EXPECT_NE(text.find("((k_o + 1) < 4)"), std::string::npos);
  // Gemm reads the current parity.
  EXPECT_NE(text.find("A=spm_A+((k_o%2)*"), std::string::npos);
}

TEST(DoubleBuffer, NoGetsNoTransform) {
  auto prog = ir::make_seq({ir::make_for(
      ir::VarId("i"), ir::cst(4),
      ir::make_seq({ir::make_comment("empty")}))});
  EXPECT_FALSE(apply_double_buffer(prog));
}

TEST(Coalesce, MovesAllocsToTopAndSumsFootprint) {
  auto inner = ir::make_seq({ir::make_spm_alloc("b1", 100),
                             ir::make_comment("x")});
  auto prog = ir::make_seq(
      {ir::make_for(ir::VarId("i"), ir::cst(2), inner),
       ir::make_spm_alloc("b2", 50)});
  const auto total = coalesce_spm(prog);
  EXPECT_EQ(total, ir::spm_footprint(prog));
  EXPECT_EQ(prog->body[0]->kind, ir::StmtKind::SpmAlloc);
  EXPECT_EQ(prog->body[1]->kind, ir::StmtKind::SpmAlloc);
  // The loop body no longer allocates.
  EXPECT_FALSE(ir::contains_kind(prog->body[2], ir::StmtKind::SpmAlloc));
}

TEST(Coalesce, RejectsDuplicateBuffers) {
  auto prog = ir::make_seq(
      {ir::make_spm_alloc("b", 10), ir::make_spm_alloc("b", 20)});
  EXPECT_THROW(coalesce_spm(prog), CheckError);
}

TEST(Coalesce, FitsSpmBudget) {
  auto small = ir::make_seq({ir::make_spm_alloc("b", 1000)});
  EXPECT_TRUE(fits_spm(small, cfg));
  auto big = ir::make_seq({ir::make_spm_alloc("b", cfg.spm_floats())});
  EXPECT_FALSE(fits_spm(big, cfg));
}

TEST(PassManager, PrunesOverBudgetCandidates) {
  // 512x512 A/B/C tiles + double buffering cannot fit in 64 KB.
  ops::MatmulOp op(1024, 1024, 1024);
  auto prog = op.lower(matmul_strategy(512, 512, 512, "mnk"));
  ASSERT_NE(prog, nullptr);
  EXPECT_FALSE(optimize(prog, cfg));
}

TEST(PassManager, PrefetchCanBeDisabled) {
  ops::MatmulOp op(128, 128, 128);
  auto prog = op.lower(matmul_strategy(64, 64, 32, "mnk"));
  OptOptions o;
  o.prefetch = false;
  ASSERT_TRUE(optimize(prog, cfg, o));
  bool prefetched = false;
  ir::visit(prog, [&](const ir::StmtPtr& n) {
    prefetched = prefetched || n->prefetched;
  });
  EXPECT_FALSE(prefetched);
}

}  // namespace
}  // namespace swatop::opt

#include "opt/simplify.hpp"

namespace swatop::opt {
namespace {

TEST(Simplify, RemovesUnitLoopsAndSubstitutes) {
  // for i in [0,1): for j in [0,4): zero(buf + i*100 + j)
  auto inner = ir::make_seq({ir::make_spm_zero(
      "b",
      ir::add(ir::mul(ir::var(ir::VarId("i")), ir::cst(100)),
              ir::var(ir::VarId("j"))),
      ir::cst(8))});
  auto j = ir::make_for(ir::VarId("j"), ir::cst(4), inner);
  auto i = ir::make_for(ir::VarId("i"), ir::cst(1), ir::make_seq({j}));
  auto root = ir::make_seq({ir::make_spm_alloc("b", 64), i});
  eliminate_unit_loops(root);
  // The i loop is gone; j remains; the offset folded i = 0.
  const auto vars = ir::loop_vars(root);
  ASSERT_EQ(vars.size(), 1u);
  EXPECT_EQ(vars[0].name(), "j");
  bool found = false;
  ir::visit(root, [&](const ir::StmtPtr& n) {
    if (n->kind == ir::StmtKind::SpmZero) {
      found = true;
      EXPECT_FALSE(ir::uses_var(n->zero_off, ir::VarId("i")));
      EXPECT_EQ(ir::eval(n->zero_off, {{"j", 3}}), 3);
    }
  });
  EXPECT_TRUE(found);
}

TEST(Simplify, FlattensNestedSeqs) {
  auto root = ir::make_seq(
      {ir::make_for(ir::VarId("u"), ir::cst(1),
                    ir::make_seq({ir::make_comment("a"),
                                  ir::make_comment("b")})),
       ir::make_comment("c")});
  eliminate_unit_loops(root);
  ASSERT_EQ(root->kind, ir::StmtKind::Seq);
  EXPECT_EQ(root->body.size(), 3u);
  for (const auto& c : root->body)
    EXPECT_EQ(c->kind, ir::StmtKind::Comment);
}

TEST(Simplify, KeepsMultiIterationLoops) {
  auto root = ir::make_seq({ir::make_for(
      ir::VarId("i"), ir::cst(2), ir::make_seq({ir::make_comment("x")}))});
  eliminate_unit_loops(root);
  EXPECT_EQ(ir::loop_vars(root).size(), 1u);
}

TEST(DoubleBuffer, MultiLevelPrefetch) {
  // Order kmn puts the k reduction outermost: A's get lands in the m loop,
  // B's in the n loop -- both levels must be double-buffered.
  ops::MatmulOp op(256, 256, 128);
  dsl::Strategy s;
  s.set_factor("Tm", 64);
  s.set_factor("Tn", 64);
  s.set_factor("Tk", 32);
  s.set_choice("order", "kmn");
  s.set_choice("variant", "0");
  s.set_choice("boundary", "pad");
  auto prog = op.lower(s);
  ASSERT_TRUE(infer_dma(prog, cfg));
  eliminate_unit_loops(prog);
  ASSERT_TRUE(apply_double_buffer(prog));
  int prefetched_loops = 0;
  ir::visit(prog, [&](const ir::StmtPtr& n) {
    if (n->kind == ir::StmtKind::For && n->prefetched) ++prefetched_loops;
  });
  EXPECT_GE(prefetched_loops, 2);
}

}  // namespace
}  // namespace swatop::opt
