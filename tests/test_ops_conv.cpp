#include <gtest/gtest.h>

#include "common/check.hpp"
#include "ops/explicit_conv.hpp"
#include "ops/implicit_conv.hpp"
#include "ops/reference.hpp"
#include "ops/tensor.hpp"
#include "ops/winograd.hpp"
#include "rt/bind.hpp"
#include "rt/interpreter.hpp"
#include "tune/tuner.hpp"

namespace swatop::ops {
namespace {

sim::SimConfig cfg;

ConvShape small_shape(std::int64_t batch = 4, std::int64_t ni = 32,
                      std::int64_t no = 32, std::int64_t hw = 8,
                      std::int64_t k = 3) {
  ConvShape s;
  s.batch = batch;
  s.ni = ni;
  s.no = no;
  s.ri = hw + k - 1;
  s.ci = hw + k - 1;
  s.kr = k;
  s.kc = k;
  return s;
}

double run_and_check(const dsl::OperatorDef& op, const dsl::Strategy& s) {
  const auto cand = tune::build_candidate(op, s, cfg);
  sim::CoreGroup cg(cfg);
  const auto bt = rt::bind_tensors(cg, op);
  op.fill_inputs(cg, bt, s);
  rt::Interpreter interp(cg, sim::ExecMode::Functional);
  interp.run(cand.program, bt);
  return op.check_output(cg, bt, s);
}

dsl::Strategy implicit_strategy(std::int64_t tno, std::int64_t tni,
                                std::int64_t tco, const std::string& layout,
                                const std::string& order,
                                const std::string& variant) {
  dsl::Strategy s;
  s.set_factor("Tno", tno);
  s.set_factor("Tni", tni);
  s.set_factor("Tco", tco);
  s.set_choice("wlayout", layout);
  s.set_choice("order", order);
  s.set_choice("variant", variant);
  s.set_choice("boundary", "pad");
  return s;
}

TEST(ConvShape, Geometry) {
  const ConvShape s = small_shape(2, 16, 32, 10, 3);
  EXPECT_EQ(s.ro(), 10);
  EXPECT_EQ(s.co(), 10);
  EXPECT_EQ(s.flops(), 2 * 2 * 16 * 32 * 10 * 10 * 9);
  EXPECT_FALSE(s.to_string().empty());
}

TEST(ImplicitConv, Applicability) {
  EXPECT_TRUE(ImplicitConvOp::applicable(small_shape(1, 32, 32, 8)));
  EXPECT_FALSE(ImplicitConvOp::applicable(small_shape(1, 3, 64, 8)));
}

class ImplicitConvOrders : public ::testing::TestWithParam<const char*> {};

TEST_P(ImplicitConvOrders, AllOrdersCorrect) {
  ImplicitConvOp op(small_shape());
  EXPECT_LE(run_and_check(op, implicit_strategy(32, 32, 8, "no_major",
                                                GetParam(), "6")),
            2e-3);
}

INSTANTIATE_TEST_SUITE_P(Orders, ImplicitConvOrders,
                         ::testing::Values("rcouvi", "rcoiuv", "rcuvio",
                                           "rouvci"));

TEST(ImplicitConv, BothWeightLayoutsCorrect) {
  ImplicitConvOp op(small_shape());
  EXPECT_LE(run_and_check(op, implicit_strategy(32, 32, 8, "no_major",
                                                "rcouvi", "6")),
            2e-3);
  EXPECT_LE(run_and_check(op, implicit_strategy(32, 32, 8, "ni_major",
                                                "rcouvi", "6")),
            2e-3);
}

class ImplicitConvVariants : public ::testing::TestWithParam<int> {};

TEST_P(ImplicitConvVariants, SampleVariantsCorrect) {
  ImplicitConvOp op(small_shape(8, 32, 32, 8));
  EXPECT_LE(run_and_check(
                op, implicit_strategy(32, 32, 4, "no_major", "rcouvi",
                                      std::to_string(GetParam()))),
            2e-3);
}

INSTANTIATE_TEST_SUITE_P(Variants, ImplicitConvVariants,
                         ::testing::Values(0, 2, 4, 6, 7));

TEST(ImplicitConv, ColumnFusionEnlargesGemm) {
  // Tco = 4 fuses four output columns with the batch into one GEMM N dim.
  ImplicitConvOp op(small_shape(8, 32, 32, 8));
  EXPECT_LE(run_and_check(op, implicit_strategy(32, 32, 4, "no_major",
                                                "rcouvi", "6")),
            2e-3);
}

TEST(ImplicitConv, RaggedChannelsAndColumns) {
  ConvShape s = small_shape(8, 48, 48, 7);  // Ni/No not multiples of 32
  ImplicitConvOp op(s);
  EXPECT_LE(run_and_check(op, implicit_strategy(32, 32, 4, "no_major",
                                                "rcouvi", "6")),
            2e-3);
}

TEST(ImplicitConv, SpaceRespectsBatchConstraint) {
  // Batch 1: Tco * 1 must be a multiple of 8.
  ImplicitConvOp op(small_shape(1, 32, 32, 16));
  const dsl::ScheduleSpace sp = op.space();
  for (const auto& f : sp.factors()) {
    if (f.name != "Tco") continue;
    for (std::int64_t c : f.candidates) EXPECT_EQ(c % 8, 0);
  }
}

dsl::EpilogueSpec full_epilogue() {
  dsl::EpilogueSpec epi;
  epi.bias = true;
  epi.residual = true;
  epi.relu = true;
  return epi;
}

TEST(FusedImplicitConv, BiasReluMatchesReference) {
  dsl::EpilogueSpec epi;
  epi.bias = true;
  epi.relu = true;
  ImplicitConvOp op(small_shape(8, 32, 32, 8), epi);
  EXPECT_NE(op.name().find("+epi["), std::string::npos);
  EXPECT_LE(run_and_check(op, implicit_strategy(32, 32, 4, "no_major",
                                                "rcouvi", "6")),
            2e-3);
}

TEST(FusedImplicitConv, ResidualAddMatchesReference) {
  ImplicitConvOp op(small_shape(8, 32, 32, 8), full_epilogue());
  EXPECT_LE(run_and_check(op, implicit_strategy(32, 32, 4, "no_major",
                                                "rcouvi", "6")),
            2e-3);
}

TEST(FusedImplicitConv, VecMVariantSwapsTileOrientation) {
  // Variant 0 vectorizes M, so the C tile lands transposed in SPM; the
  // epilogue must follow the swapped orientation (channels on columns).
  ImplicitConvOp op(small_shape(8, 32, 32, 8), full_epilogue());
  EXPECT_LE(run_and_check(op, implicit_strategy(32, 32, 4, "no_major",
                                                "rcouvi", "0")),
            2e-3);
}

TEST(FusedImplicitConv, RaggedChannelsAndColumns) {
  // Ni/No not multiples of 32: bias channel0 and the residual view must
  // track the ragged tile bases.
  ImplicitConvOp op(small_shape(8, 48, 48, 7), full_epilogue());
  EXPECT_LE(run_and_check(op, implicit_strategy(32, 32, 4, "no_major",
                                                "rcouvi", "6")),
            2e-3);
}

TEST(FusedImplicitConv, OutPadInteriorMatchesReference) {
  dsl::EpilogueSpec epi;
  epi.bias = true;
  epi.relu = true;
  epi.out_pad = 1;  // absorbed downstream Pad: interior written at offset
  ImplicitConvOp op(small_shape(8, 32, 32, 8), epi);
  EXPECT_LE(run_and_check(op, implicit_strategy(32, 32, 4, "no_major",
                                                "rcouvi", "6")),
            2e-3);
}

TEST(FusedImplicitConv, OutPadWithResidualMatchesReference) {
  dsl::EpilogueSpec epi = full_epilogue();
  epi.out_pad = 1;
  ImplicitConvOp op(small_shape(8, 32, 32, 8), epi);
  EXPECT_LE(run_and_check(op, implicit_strategy(32, 32, 4, "no_major",
                                                "rcouvi", "6")),
            2e-3);
}

TEST(FusedImplicitConv, ReductionOutsideStoreScopePruned) {
  // rcuvio keeps the r/c reduction loops outside the C tile's store scope,
  // so the put drains partial sums -- a compute epilogue there would apply
  // relu to an unfinished accumulator. DMA inference must prune it.
  ImplicitConvOp op(small_shape(8, 32, 32, 8), full_epilogue());
  EXPECT_THROW(tune::build_candidate(
                   op, implicit_strategy(32, 32, 8, "no_major", "rcuvio", "6"),
                   cfg),
               swatop::CheckError);
}

TEST(FusedImplicitConv, SpaceCarriesEpilogue) {
  ImplicitConvOp op(small_shape(8, 32, 32, 8), full_epilogue());
  const std::vector<dsl::Strategy> all = op.space().enumerate();
  ASSERT_FALSE(all.empty());
  for (const dsl::Strategy& s : all) EXPECT_EQ(s.epilogue(), op.epilogue());
}

TEST(ExplicitConv, Im2colMatchesDefinition) {
  const ConvShape s = small_shape(2, 4, 8, 4);
  sim::CoreGroup cg;
  const std::int64_t in_floats = s.ri * s.ni * s.ci * s.batch;
  const auto in = cg.mem().alloc(in_floats);
  Prng rng(3);
  for (std::int64_t i = 0; i < in_floats; ++i) cg.mem().write(in + i, rng.next());
  const std::int64_t K = s.ni * 9, N = s.batch * s.ro() * s.co();
  const auto dcol = cg.mem().alloc(K * N);
  ExplicitConvOp::im2col(cg, in, dcol, s);
  // Row panels [ro][K][co][b]. Spot-check: element (kr=1, kc=2, ni=3) of
  // pixel (b=1, ro=2, co=1).
  const std::int64_t kk = (1 * 3 + 2) * s.ni + 3;
  const std::int64_t at = ((2 * K + kk) * s.co() + 1) * s.batch + 1;
  const float expect =
      cg.mem().read(in + (((2 + 1) * s.ni + 3) * s.ci + (1 + 2)) * s.batch + 1);
  EXPECT_FLOAT_EQ(cg.mem().read(dcol + at), expect);
}

TEST(ExplicitConv, PrePostCostGrowsWithKernelArea) {
  // im2col is the only pass around the GEMM.
  const double c3 =
      ExplicitConvOp::im2col_cycles(small_shape(4, 32, 32, 8, 3), cfg);
  ConvShape s1 = small_shape(4, 32, 32, 8, 1);
  const double c1 = ExplicitConvOp::im2col_cycles(s1, cfg);
  EXPECT_GT(c3, 2.0 * c1);  // 9x the im2col volume
}

TEST(Winograd, PlanGeometry) {
  const WinogradPlan p(small_shape(2, 16, 16, 8));
  EXPECT_EQ(p.tiles_r, 4);
  EXPECT_EQ(p.tiles_c, 4);
  EXPECT_EQ(p.P, 2 * 16);
  EXPECT_LT(p.gemm_flops(), p.shape.flops());  // arithmetic saving
}

TEST(Winograd, NotApplicableToOtherKernels) {
  EXPECT_FALSE(WinogradPlan::applicable(small_shape(1, 8, 8, 8, 1)));
  EXPECT_TRUE(WinogradPlan::applicable(small_shape(1, 8, 8, 8, 3)));
}

TEST(Winograd, TransformsInvertOnSingleTile) {
  // A full Winograd pass (transform, elementwise multiply via reference
  // GEMM per t, inverse) must equal the direct convolution on one tile.
  const ConvShape s = small_shape(1, 2, 2, 2);  // one 4x4 tile
  const WinogradPlan p(s);
  sim::CoreGroup cg;
  const auto in = cg.mem().alloc(s.ri * s.ni * s.ci * s.batch);
  const auto w = cg.mem().alloc(9 * s.ni * s.no);
  Prng rng(5);
  for (std::int64_t i = 0; i < cg.mem().size(); ++i) {}
  for (std::int64_t i = 0; i < s.ri * s.ni * s.ci; ++i)
    cg.mem().write(in + i, rng.next());
  for (std::int64_t i = 0; i < 9 * s.ni * s.no; ++i)
    cg.mem().write(w + i, rng.next());

  const auto U = cg.mem().alloc(16 * s.no * s.ni);
  const auto V = cg.mem().alloc(16 * s.ni * p.P);
  const auto Mt = cg.mem().alloc(16 * s.no * p.P);
  const auto out = cg.mem().alloc(s.ro() * s.no * s.co() * s.batch);
  WinogradGemmOp::transform_input(cg, in, V, p);
  WinogradGemmOp::transform_filter(cg, w, U, p);
  for (int t = 0; t < 16; ++t) {
    std::vector<float> u(static_cast<std::size_t>(s.no * s.ni));
    std::vector<float> v(static_cast<std::size_t>(s.ni * p.P));
    std::vector<float> m(static_cast<std::size_t>(s.no * p.P));
    cg.mem().copy_out(U + t * s.no * s.ni, u);
    cg.mem().copy_out(V + t * s.ni * p.P, v);
    reference_gemm(u.data(), v.data(), m.data(), s.no, p.P, s.ni);
    cg.mem().copy_in(Mt + t * s.no * p.P, m);
  }
  WinogradGemmOp::inverse_transform(cg, Mt, out, p);

  std::vector<float> hin(static_cast<std::size_t>(s.ri * s.ni * s.ci));
  std::vector<float> hw(static_cast<std::size_t>(9 * s.ni * s.no));
  cg.mem().copy_out(in, hin);
  cg.mem().copy_out(w, hw);
  std::vector<float> ref(static_cast<std::size_t>(s.ro() * s.no * s.co()));
  reference_conv(hin.data(), hw.data(), ref.data(), s);
  std::vector<float> got(ref.size());
  cg.mem().copy_out(out, got);
  EXPECT_LE(max_abs_diff(got.data(), ref.data(),
                         static_cast<std::int64_t>(ref.size())),
            1e-4);
}

TEST(Winograd, GemmOpSpaceAndTensors) {
  WinogradGemmOp op(small_shape(2, 32, 32, 8));
  const auto ts = op.tensors();
  ASSERT_EQ(ts.size(), 3u);
  EXPECT_EQ(ts[0].name, "U");
  EXPECT_GT(op.space().size(), 50);
}

TEST(Winograd, PrePostCyclesPositiveAndScale) {
  const WinogradPlan p1(small_shape(1, 16, 16, 8));
  const WinogradPlan p2(small_shape(4, 16, 16, 8));
  const double c1 = WinogradGemmOp::pre_post_cycles(p1, cfg);
  const double c2 = WinogradGemmOp::pre_post_cycles(p2, cfg);
  EXPECT_GT(c1, 0.0);
  EXPECT_GT(c2, 2.0 * c1);
}

}  // namespace
}  // namespace swatop::ops

#include "ops/conv_backward.hpp"

namespace swatop::ops {
namespace {

TEST(ConvBackward, ReferencesAgreeWithFiniteDifferenceIdentity) {
  // Chain-rule sanity: sum(dout * conv(in, w)) ==
  //   sum(din * in) == sum(dw * w) for the same dout.
  const ConvShape s = small_shape(2, 8, 8, 4);
  std::vector<float> in(static_cast<std::size_t>(s.ri * s.ni * s.ci *
                                                 s.batch));
  std::vector<float> w(static_cast<std::size_t>(9 * s.ni * s.no));
  std::vector<float> dout(static_cast<std::size_t>(s.ro() * s.no * s.co() *
                                                   s.batch));
  Prng rng(77);
  for (float& x : in) x = rng.next();
  for (float& x : w) x = rng.next();
  for (float& x : dout) x = rng.next();

  std::vector<float> out(dout.size());
  reference_conv(in.data(), w.data(), out.data(), s);
  std::vector<float> din(in.size());
  reference_conv_bwd_data(dout.data(), w.data(), din.data(), s);
  std::vector<float> dw(w.size());
  reference_conv_bwd_filter(in.data(), dout.data(), dw.data(), s);

  double e_out = 0, e_din = 0, e_dw = 0;
  for (std::size_t i = 0; i < out.size(); ++i)
    e_out += static_cast<double>(out[i]) * dout[i];
  for (std::size_t i = 0; i < in.size(); ++i)
    e_din += static_cast<double>(din[i]) * in[i];
  for (std::size_t i = 0; i < w.size(); ++i)
    e_dw += static_cast<double>(dw[i]) * w[i];
  EXPECT_NEAR(e_din, e_out, 1e-2 * std::abs(e_out) + 1e-3);
  EXPECT_NEAR(e_dw, e_out, 1e-2 * std::abs(e_out) + 1e-3);
}

TEST(ConvBackward, BwdDataTunedMatchesReference) {
  ConvShape s = small_shape(8, 32, 32, 6);
  ConvBwdDataOp op(s);
  dsl::Strategy st;
  st.set_factor("Tm", 32);
  st.set_factor("Tk", 32);
  st.set_factor("Tc", 4);
  st.set_choice("order", "rcmuvk");
  st.set_choice("variant", "6");
  st.set_choice("boundary", "pad");
  EXPECT_LE(run_and_check(op, st), 3e-3);
}

TEST(ConvBackward, BwdDataReductionOutsideOrder) {
  ConvShape s = small_shape(8, 32, 32, 6);
  ConvBwdDataOp op(s);
  dsl::Strategy st;
  st.set_factor("Tm", 32);
  st.set_factor("Tk", 32);
  st.set_factor("Tc", 4);
  st.set_choice("order", "rcuvkm");  // reductions outside the M tile loop
  st.set_choice("variant", "6");
  st.set_choice("boundary", "pad");
  EXPECT_LE(run_and_check(op, st), 3e-3);
}

TEST(ConvBackward, BwdFilterTunedMatchesReference) {
  ConvShape s = small_shape(8, 32, 32, 6);
  ConvBwdFilterOp op(s);
  dsl::Strategy st;
  st.set_factor("Tni", 32);
  st.set_factor("Tno", 32);
  st.set_factor("Tc", 4);
  st.set_choice("order", "uvmnrc");
  st.set_choice("variant", "6");
  st.set_choice("boundary", "pad");
  EXPECT_LE(run_and_check(op, st), 5e-3);
}

TEST(ConvBackward, BwdFilterBigReductionOrder) {
  ConvShape s = small_shape(4, 32, 32, 8);
  ConvBwdFilterOp op(s);
  dsl::Strategy st;
  st.set_factor("Tni", 32);
  st.set_factor("Tno", 32);
  st.set_factor("Tc", 2);
  st.set_choice("order", "uvrcmn");  // r, c reductions outside m, n
  st.set_choice("variant", "6");
  st.set_choice("boundary", "pad");
  EXPECT_LE(run_and_check(op, st), 5e-3);
}

}  // namespace
}  // namespace swatop::ops

namespace swatop::ops {
namespace {

TEST(StridedConv, GeometryAndToString) {
  ConvShape s = small_shape(2, 16, 16, 13);
  s.stride = 2;
  s.ri = 15;
  s.ci = 15;
  EXPECT_EQ(s.ro(), 7);
  EXPECT_EQ(s.co(), 7);
  EXPECT_NE(s.to_string().find("s2"), std::string::npos);
}

TEST(StridedConv, ImplicitMatchesReference) {
  ConvShape s;
  s.batch = 8;
  s.ni = 32;
  s.no = 32;
  s.ri = 13;
  s.ci = 13;
  s.stride = 2;  // Ro = Co = 6
  ImplicitConvOp op(s);
  // Tco is locked to 1 when strided, so N = batch; use a vec-M variant.
  EXPECT_LE(run_and_check(op, implicit_strategy(32, 32, 1, "no_major",
                                                "rcouvi", "0")),
            2e-3);
}

TEST(StridedConv, SpaceRestrictsColumnFusion) {
  ConvShape s;
  s.batch = 8;
  s.ni = 32;
  s.no = 32;
  s.ri = 13;
  s.ci = 13;
  s.stride = 2;
  ImplicitConvOp op(s);
  const dsl::ScheduleSpace sp = op.space();
  for (const auto& f : sp.factors()) {
    if (f.name != "Tco") continue;
    EXPECT_EQ(f.candidates, (std::vector<std::int64_t>{1}));
  }
}

TEST(StridedConv, ExplicitIm2colMatchesReference) {
  ConvShape s;
  s.batch = 2;
  s.ni = 16;
  s.no = 32;
  s.ri = 9;
  s.ci = 9;
  s.stride = 2;
  ExplicitConvOp op(s);
  // im2col absorbs the stride: the GEMM is a stride-1 1x1 conv over the
  // 4x4-pixel column matrix (K = 144, ragged against Tni = 64).
  const dsl::Strategy st =
      implicit_strategy(32, 64, 4, "ni_major", "rcoiuv", "0");
  ASSERT_TRUE(op.space().contains(st));
  EXPECT_LE(run_and_check(op, st), 2e-3);
}

TEST(StridedConv, WinogradNotApplicable) {
  ConvShape s = small_shape(1, 8, 8, 8, 3);
  s.stride = 2;
  EXPECT_FALSE(WinogradPlan::applicable(s));
}

}  // namespace
}  // namespace swatop::ops

namespace swatop::ops {
namespace {

TEST(WinogradF4, PlanGeometry) {
  const WinogradPlan p(small_shape(2, 16, 16, 8), 4);
  EXPECT_EQ(p.tile(), 6);
  EXPECT_EQ(p.T(), 36);
  EXPECT_EQ(p.tiles_r, 2);
  EXPECT_EQ(p.P, 2 * 4);
  // F(4x4) does fewer GEMM flops per output than F(2x2).
  const WinogradPlan p2(small_shape(2, 16, 16, 8), 2);
  EXPECT_LT(p.gemm_flops(), p2.gemm_flops());
}

TEST(WinogradF4, TransformsInvertOnSingleTile) {
  const ConvShape s = small_shape(1, 2, 2, 4);  // one 6x6 tile
  const WinogradPlan p(s, 4);
  sim::CoreGroup cg;
  const auto in = cg.mem().alloc(s.ri * s.ni * s.ci * s.batch);
  const auto w = cg.mem().alloc(9 * s.ni * s.no);
  Prng rng(5);
  for (std::int64_t i = 0; i < s.ri * s.ni * s.ci; ++i)
    cg.mem().write(in + i, rng.next());
  for (std::int64_t i = 0; i < 9 * s.ni * s.no; ++i)
    cg.mem().write(w + i, rng.next());

  const auto U = cg.mem().alloc(p.T() * s.no * s.ni);
  const auto V = cg.mem().alloc(p.T() * s.ni * p.P);
  const auto Mt = cg.mem().alloc(p.T() * s.no * p.P);
  const auto out = cg.mem().alloc(s.ro() * s.no * s.co() * s.batch);
  WinogradGemmOp::transform_input(cg, in, V, p);
  WinogradGemmOp::transform_filter(cg, w, U, p);
  for (std::int64_t t = 0; t < p.T(); ++t) {
    std::vector<float> u(static_cast<std::size_t>(s.no * s.ni));
    std::vector<float> v(static_cast<std::size_t>(s.ni * p.P));
    std::vector<float> m(static_cast<std::size_t>(s.no * p.P));
    cg.mem().copy_out(U + t * s.no * s.ni, u);
    cg.mem().copy_out(V + t * s.ni * p.P, v);
    reference_gemm(u.data(), v.data(), m.data(), s.no, p.P, s.ni);
    cg.mem().copy_in(Mt + t * s.no * p.P, m);
  }
  WinogradGemmOp::inverse_transform(cg, Mt, out, p);

  std::vector<float> hin(static_cast<std::size_t>(s.ri * s.ni * s.ci));
  std::vector<float> hw(static_cast<std::size_t>(9 * s.ni * s.no));
  cg.mem().copy_out(in, hin);
  cg.mem().copy_out(w, hw);
  std::vector<float> ref(static_cast<std::size_t>(s.ro() * s.no * s.co()));
  reference_conv(hin.data(), hw.data(), ref.data(), s);
  std::vector<float> got(ref.size());
  cg.mem().copy_out(out, got);
  // F(4x4)'s larger transform constants lose more fp32 bits than F(2x2).
  EXPECT_LE(max_abs_diff(got.data(), ref.data(),
                         static_cast<std::int64_t>(ref.size())),
            1e-3);
}

TEST(WinogradF4, TunedEndToEndMatchesReference) {
  ConvShape s = small_shape(2, 16, 32, 8);
  WinogradGemmOp op(s, 4);
  dsl::Strategy st;
  st.set_factor("Tm", 32);
  st.set_factor("Tn", 32);
  st.set_factor("Tk", 16);
  st.set_choice("order", "mnk");
  st.set_choice("variant", "0");
  st.set_choice("boundary", "pad");
  EXPECT_LE(run_and_check(op, st), 1e-2);
}

TEST(WinogradF4, FewerGemmCallsThanDirectWork) {
  // The arithmetic saving must survive tiling: F(4x4) gemm flops < direct.
  const ConvShape s = small_shape(8, 64, 64, 16);
  const WinogradPlan p4(s, 4);
  EXPECT_LT(p4.gemm_flops(), s.flops());
  EXPECT_LT(static_cast<double>(p4.gemm_flops()),
            0.55 * static_cast<double>(s.flops()));
}

}  // namespace
}  // namespace swatop::ops
