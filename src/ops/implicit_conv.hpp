// Implicit-GEMM convolution (Alg. 2 / Fig. 2 right): the direct convolution
// loop nest with the innermost loops replaced by GEMM micro-kernels. Per
// output row and kernel offset, a (No x Ni) weight slice multiplies a
// (Ni x Tco*B) input slice -- the batch dimension and a tile of output
// columns fuse into the GEMM N dimension (the paper's loop fusion that
// enlarges a GEMM dim), which is what makes the channel-major interleaved
// layouts below affine and DMA-friendly.
//
// Tensor layouts:
//   in  [ri][ni][ci][b]                (ci and b adjacent => N fusion)
//   w   [kr][kc][ni][no]  ("no_major") or [kr][kc][no][ni] ("ni_major"),
//                                       a layout-transformation choice
//   out [ro][no][co][b]
#pragma once

#include "dsl/dsl.hpp"
#include "ops/conv_common.hpp"

namespace swatop::ops {

class ImplicitConvOp : public dsl::OperatorDef {
 public:
  /// `epi` fuses an elementwise tail (bias / residual-add / relu, applied
  /// in that order) into the C store path and/or stores into a
  /// zero-padded output border (`out_pad`). Extra tensors: "bias" (No
  /// floats) when epi.bias, "res" (unpadded output size) when
  /// epi.residual; "out" grows to the padded extent when epi.out_pad > 0.
  /// The padded border itself is owned by the caller (pre-zeroed once);
  /// the schedule only writes the interior.
  explicit ImplicitConvOp(const ConvShape& shape,
                          dsl::EpilogueSpec epi = {});

  /// Implicit CONV needs enough input channels to feed the K dimension
  /// (the paper excludes each network's first layer for this reason). A
  /// strided conv fuses no output columns (Tco = 1), so its GEMM columns
  /// are the batch alone and must fill the 8-wide vector granularity.
  static bool applicable(const ConvShape& s) {
    return s.ni >= 32 && (s.stride == 1 || s.batch % 8 == 0);
  }

  std::string name() const override;
  dsl::ScheduleSpace space() const override;
  ir::StmtPtr lower(const dsl::Strategy& s) const override;
  std::vector<dsl::TensorSpec> tensors() const override;
  std::int64_t flops() const override { return shape_.flops(); }
  void fill_inputs(sim::CoreGroup& cg, const dsl::BoundTensors& bt,
                   const dsl::Strategy& s) const override;
  double check_output(sim::CoreGroup& cg, const dsl::BoundTensors& bt,
                      const dsl::Strategy& s) const override;

  const ConvShape& shape() const { return shape_; }
  const dsl::EpilogueSpec& epilogue() const { return epi_; }

 private:
  /// Padded output spatial dims (identical to the raw dims without pad).
  std::int64_t ro_p() const { return shape_.ro() + 2 * epi_.out_pad; }
  std::int64_t co_p() const { return shape_.co() + 2 * epi_.out_pad; }

  ConvShape shape_;
  dsl::EpilogueSpec epi_;
};

}  // namespace swatop::ops
