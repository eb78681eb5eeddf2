// Compare the three convolution designs (implicit / Winograd / explicit
// GEMM) on one layer across batch sizes -- the method-selection decision the
// paper's Fig. 8 informs.
//
//   $ ./compare_methods [ni no out_hw]
#include <cstdio>
#include <cstdlib>

#include "graph/compile.hpp"
#include "ops/explicit_conv.hpp"
#include "ops/implicit_conv.hpp"
#include "ops/winograd.hpp"
#include "sim/config.hpp"

using namespace swatop;

namespace {

double tuned(const dsl::OperatorDef& op, const sim::SimConfig& machine) {
  SwatopConfig c;
  c.machine = machine;
  c.measure_best = true;
  return compile(op, c).handle().measured_cycles;
}

}  // namespace

int main(int argc, char** argv) {
  const sim::SimConfig cfg;
  const std::int64_t ni = argc > 1 ? std::atoll(argv[1]) : 128;
  const std::int64_t no = argc > 2 ? std::atoll(argv[2]) : 128;
  const std::int64_t hw = argc > 3 ? std::atoll(argv[3]) : 28;

  std::printf("%-8s%-14s%-14s%-14s\n", "batch", "implicit", "winograd",
              "explicit");
  for (const std::int64_t b : {1, 8, 32}) {
    ops::ConvShape s;
    s.batch = b;
    s.ni = ni;
    s.no = no;
    s.ri = hw + 2;
    s.ci = hw + 2;

    double t_imp = -1, t_win = -1, t_exp = -1;
    if (ops::ImplicitConvOp::applicable(s))
      t_imp = tuned(ops::ImplicitConvOp(s), cfg);
    if (ops::WinogradPlan::applicable(s)) {
      const ops::WinogradPlan plan(s);
      t_win = tuned(ops::WinogradGemmOp(s), cfg) +
              ops::WinogradGemmOp::pre_post_cycles(plan, cfg);
    }
    t_exp = tuned(ops::ExplicitConvOp(s), cfg) +
            ops::ExplicitConvOp::im2col_cycles(s, cfg);

    auto gf = [&](double cyc) {
      return cyc > 0 ? static_cast<double>(s.flops()) / cyc * cfg.clock_ghz
                     : 0.0;
    };
    std::printf("%-8lld%-14s%-14s%-14s\n", static_cast<long long>(b),
                t_imp > 0 ? (std::to_string(static_cast<int>(gf(t_imp))) +
                             " GFLOPS")
                                .c_str()
                          : "n/a",
                t_win > 0 ? (std::to_string(static_cast<int>(gf(t_win))) +
                             " GFLOPS")
                                .c_str()
                          : "n/a",
                (std::to_string(static_cast<int>(gf(t_exp))) + " GFLOPS")
                    .c_str());
  }
  std::printf("\nWinograd can exceed direct-conv peak (it does less "
              "arithmetic); explicit pays the im2col memory passes.\n");
  return 0;
}
