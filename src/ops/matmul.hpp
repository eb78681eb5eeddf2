// Matrix multiplication operator: C = A x B with column-major operands.
// The schedule space covers the split factors of all three dims, four loop
// orders, the eight kernel variants, and both boundary strategies -- the
// Listing 2 / Table 2 workload of the paper.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dsl/dsl.hpp"

namespace swatop::ops {

class MatmulOp : public dsl::OperatorDef {
 public:
  MatmulOp(std::int64_t M, std::int64_t N, std::int64_t K);

  std::string name() const override;
  dsl::ScheduleSpace space() const override;
  ir::StmtPtr lower(const dsl::Strategy& s) const override;
  std::vector<dsl::TensorSpec> tensors() const override;
  std::int64_t flops() const override { return 2 * M_ * N_ * K_; }
  void fill_inputs(sim::CoreGroup& cg, const dsl::BoundTensors& bt,
                   const dsl::Strategy& s) const override;
  double check_output(sim::CoreGroup& cg, const dsl::BoundTensors& bt,
                      const dsl::Strategy& s) const override;

  std::int64_t m() const { return M_; }
  std::int64_t n() const { return N_; }
  std::int64_t k() const { return K_; }

  /// Tile-factor menu for an extent: entries of `menu` no larger than the
  /// extent rounded up to `align`; guaranteed non-empty.
  static std::vector<std::int64_t> tile_candidates(
      std::int64_t extent, std::int64_t align,
      const std::vector<std::int64_t>& menu);

 private:
  std::int64_t M_, N_, K_;
};

}  // namespace swatop::ops
