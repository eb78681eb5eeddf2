// The manual explicit-GEMM convolution baseline of Fig. 7: what a
// hand-written im2col plus one call into the hand-tuned GEMM library
// (xMath) pays on the resulting (No) x (Ni*Kr*Kc) x (B*Ro*Co) problem. xMath
// takes dense column-major operands, so the column matrix has K = Ni*Kr*Kc
// as its leading dimension and the GEMM result needs a re-layout pass into
// the canonical [ro][no][co][b] output.
#pragma once

#include "baseline/xmath_gemm.hpp"
#include "ops/conv_common.hpp"

namespace swatop::baseline {

class ManualExplicitConv {
 public:
  explicit ManualExplicitConv(const sim::SimConfig& cfg) : cfg_(cfg) {}

  double cycles(const ops::ConvShape& s) const;

  /// The column-major im2col plus the output re-layout: the passes around
  /// the library GEMM.
  static double pre_post_cycles(const ops::ConvShape& s,
                                const sim::SimConfig& cfg);

 private:
  sim::SimConfig cfg_;
};

}  // namespace swatop::baseline
