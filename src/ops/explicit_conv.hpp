// Explicit-GEMM convolution (Fig. 2 left): im2col expands the input into a
// column matrix and the convolution becomes GEMM over it,
//   out (No x B*Ro*Co) = wmat (No x K) x dcol (K x B*Ro*Co),  K = Ni*Kr*Kc.
//
// The column matrix is laid out as row panels, `dcol [ro][K][co][b]`: for
// each output row a K x (Co*B) panel whose fused (co, b) columns are
// contiguous. That is the input layout of a 1x1, stride-1 implicit-GEMM
// convolution with Ni = K over Ro x Co pixels, so the GEMM is exactly that
// operator (`panel_shape`): its schedule space, its lowering and its
// store straight into the canonical `out [ro][no][co][b]` tensor. Weights
// are the canonical `[kr][kc][ni][no]` order, which is already `[K][no]`
// (or its `ni_major` transpose). im2col absorbs the stride and the taps;
// it is priced from its real DMA descriptors, outside the tuned GEMM.
#pragma once

#include "dsl/dsl.hpp"
#include "ops/conv_common.hpp"
#include "ops/implicit_conv.hpp"

namespace swatop::ops {

class ExplicitConvOp : public dsl::OperatorDef {
 public:
  explicit ExplicitConvOp(const ConvShape& shape);

  static bool applicable(const ConvShape&) { return true; }

  /// The GEMM over the column matrix, as the 1x1 convolution it is: Ni = K,
  /// Ri = Ro, Ci = Co, stride 1, at the same batch and No.
  static ConvShape panel_shape(const ConvShape& s);

  std::string name() const override;
  dsl::ScheduleSpace space() const override { return gemm_.space(); }
  ir::StmtPtr lower(const dsl::Strategy& s) const override {
    return gemm_.lower(s);
  }
  /// "in" (the column matrix), "w" and "out", as the GEMM binds them.
  std::vector<dsl::TensorSpec> tensors() const override {
    return gemm_.tensors();
  }
  std::int64_t flops() const override { return shape_.flops(); }

  /// Fills "in" with the im2col of the seeded canonical input, and "w" in
  /// the strategy's weight layout.
  void fill_inputs(sim::CoreGroup& cg, const dsl::BoundTensors& bt,
                   const dsl::Strategy& s) const override;
  /// Compares "out" with the direct convolution of the seeded input.
  double check_output(sim::CoreGroup& cg, const dsl::BoundTensors& bt,
                      const dsl::Strategy& s) const override;

  const ConvShape& shape() const { return shape_; }

  /// Functional im2col: expand `in` ([ri][ni][ci][b]) into the row-panel
  /// column matrix at `dcol` ([ro][K][co][b]), host-side loops on the arena.
  static void im2col(sim::CoreGroup& cg, sim::MainMemory::Addr in,
                     sim::MainMemory::Addr dcol, const ConvShape& s);

  /// Charge im2col's DMA to `cg`'s clock, priced at transaction granularity
  /// from the real addresses: per output row and K index, one read of
  /// Co*B contiguous floats (stride 1) or of Co runs of B floats at pitch
  /// S*B (stride S > 1); the column matrix is written contiguously.
  static void charge_im2col(sim::CoreGroup& cg, sim::MainMemory::Addr in,
                            sim::MainMemory::Addr dcol, const ConvShape& s);

  /// Convenience: im2col cycles on a scratch clock, from tensors at
  /// address 0.
  static double im2col_cycles(const ConvShape& s, const sim::SimConfig& cfg);

 private:
  ConvShape shape_;
  ImplicitConvOp gemm_;
};

}  // namespace swatop::ops
