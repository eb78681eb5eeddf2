#include "baseline/manual_explicit.hpp"

#include <algorithm>

#include "common/math_util.hpp"
#include "sim/core_group.hpp"

namespace swatop::baseline {

double ManualExplicitConv::pre_post_cycles(const ops::ConvShape& s,
                                           const sim::SimConfig& cfg) {
  sim::CoreGroup cg(cfg);
  const std::int64_t txn =
      static_cast<std::int64_t>(cfg.dram_transaction_bytes);
  auto charge = [&](std::int64_t requested, std::int64_t transactions) {
    sim::DmaCost c;
    c.latency_cycles = cfg.dma_latency_cycles;
    c.bytes_requested = requested;
    c.transactions = transactions;
    c.bytes_wasted = std::max<std::int64_t>(0, transactions * txn - requested);
    c.transfer_cycles =
        static_cast<double>(transactions * txn) / cfg.dma_bytes_per_cycle();
    cg.charge_dma_cost_sync(c);
  };
  const std::int64_t B = s.batch;
  const std::int64_t K = s.ni * s.kr * s.kc;
  const std::int64_t N = B * s.ro() * s.co();
  // Every strided access moves runs of B contiguous floats.
  const std::int64_t tx_per_run = ceil_div(B * 4 + txn / 2, txn);
  // im2col reads the input Kr*Kc times in runs of B, and writes the
  // column-major K x N matrix contiguously.
  charge(2 * K * N * 4, K * N / B * tx_per_run + ceil_div(K * N * 4, txn));
  // Output re-layout: read the GEMM result contiguously, write the
  // canonical output tensor in runs of B.
  const std::int64_t out_floats = s.no * N;
  charge(2 * out_floats * 4,
         ceil_div(out_floats * 4, txn) + out_floats / B * tx_per_run);
  return cg.now();
}

double ManualExplicitConv::cycles(const ops::ConvShape& s) const {
  const XMathGemm gemm(cfg_);
  return pre_post_cycles(s, cfg_) +
         gemm.cycles(s.no, s.batch * s.ro() * s.co(), s.ni * s.kr * s.kc);
}

}  // namespace swatop::baseline
