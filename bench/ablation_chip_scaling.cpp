// Ablation: chip-level scaling -- a one-convolution graph compiled and run
// with its output rows split over 1..4 core groups. Each CG owns its memory
// channel, so training batches scale near-linearly toward the chip-level
// TFLOPS the paper reports (its 2.1 TFLOPS implicit CONV is a 4-CG figure;
// everything else in this repo is per-CG); inference (batch 1) splits too,
// with the halo rows and the NoC barrier as its overhead.
#include <cstdio>

#include "bench_util.hpp"
#include "graph/compile.hpp"

using namespace swatop;

int main() {
  const sim::SimConfig cfg;
  bench::print_title("Ablation -- row-split scaling over core groups");
  bench::BenchJson bj("ablation_chip_scaling");
  std::printf("chip peak (4 CGs): %.2f TFLOPS\n",
              4.0 * cfg.peak_gflops() / 1000.0);

  // 3x3, 256 -> 256 channels on a 30x30 input (28x28 output).
  graph::Graph g("chip_scaling");
  g.add_input("x", {30, 256});
  graph::Node conv;
  conv.kind = graph::NodeKind::Conv;
  conv.name = "conv";
  conv.inputs = {"x"};
  conv.output = "y";
  conv.kernel = 3;
  conv.channels_out = 256;
  g.add(conv);
  CompiledNet net = compile(g);

  bench::print_row({"batch", "groups", "used", "GFLOPS", "chip-eff"});
  for (const std::int64_t batch : {1, 32, 128}) {
    for (int groups : {1, 2, 4}) {
      graph::NetOptions opts;
      opts.groups = groups;
      opts.mode = sim::ExecMode::TimingOnly;
      opts.check = false;
      const graph::NetRunResult r = net.run(batch, opts);
      // Efficiency against the peak of every group asked for, idle or not.
      const double eff = r.gflops / (groups * cfg.peak_gflops());
      bench::print_row({std::to_string(batch), std::to_string(groups),
                        std::to_string(r.groups_used),
                        bench::fmt(r.gflops, 1),
                        bench::fmt(eff * 100.0, 1) + "%"});
      bj.add("b" + std::to_string(batch) + "/g" + std::to_string(groups),
             {{"batch", std::to_string(batch)},
              {"groups", std::to_string(groups)},
              {"groups_used", std::to_string(r.groups_used)}},
             {{"gflops", r.gflops}, {"chip_efficiency", eff}},
             r.cycles);
    }
  }
  std::printf("\nlarge batches scale near-linearly (private memory channels "
              "per CG); batch 1 splits its rows too\n");
  return 0;
}
