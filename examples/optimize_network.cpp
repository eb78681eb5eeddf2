// swATOP as a whole-network compiler: hand the network to
// swatop::compile(), which fuses conv epilogues (bias / residual-add /
// relu / pad folded into the conv store path), pins qualifying
// inter-layer tensors in SPM, deduplicates the distinct (shape, epilogue)
// keys, tunes each once into the persistent schedule cache, plans the
// activation arena and executes end-to-end on the simulated chip with
// each layer's output rows split across core groups.
//
//   $ ./optimize_network [vgg16|resnet|yolo] [batch] [groups]
//
// The second run -- and any later process pointed at the same cache file --
// serves every schedule from the cache instead of re-tuning.
#include <cstdio>
#include <string>

#include "graph/build.hpp"
#include "graph/compile.hpp"

using namespace swatop;

int main(int argc, char** argv) {
  const std::string net = argc > 1 ? argv[1] : "vgg16";
  const std::int64_t batch = argc > 2 ? std::atoll(argv[2]) : 32;
  const int groups = argc > 3 ? std::atoi(argv[3]) : 4;

  SwatopConfig cfg;
  cfg.cache.enabled = true;
  cfg.cache.path = "optimize_network.cache";

  CompiledNet compiled = compile(graph::build_net(net), cfg);
  std::printf("%s: %zu nodes, %lld tuned conv layers (batch %lld over %d "
              "core groups)\n\n",
              net.c_str(), compiled.graph().nodes().size(),
              static_cast<long long>(compiled.graph().conv_count()),
              static_cast<long long>(batch), groups);

  graph::NetOptions opts;
  opts.groups = groups;
  opts.mode = sim::ExecMode::TimingOnly;
  const graph::NetRunResult r = compiled.run(batch, opts);

  std::printf("%-14s%-10s%-12s%-10s\n", "layer", "method", "GFLOPS",
              "ms/layer");
  for (const auto& l : r.layers) {
    if (!l.conv) continue;
    std::printf("%-14s%-10s%-12.1f%-10.3f%s%s\n", l.name.c_str(),
                l.kind.c_str(), l.gflops,
                l.cycles / compiled.config().machine.clock_ghz / 1e6,
                l.fused ? "(fused)" : "", l.from_cache ? "(cached)" : "");
  }

  std::printf("\nfusion: %d conv(s) absorbed their elementwise tails; "
              "residency pinned %lld tensor(s), eliding %.1f MB of DMA\n",
              r.fusion.convs_fused,
              static_cast<long long>(r.resident_tensors),
              static_cast<double>(r.dma_bytes_elided) / (1024.0 * 1024.0));
  std::printf("schedules: %lld distinct, %lld served from cache; tuning "
              "%.2fs\n",
              static_cast<long long>(r.shapes_tuned),
              static_cast<long long>(r.cache_hits), r.tune_seconds);
  std::printf("activation arena: %.1f MB planned peak vs %.1f MB no-reuse\n",
              static_cast<double>(r.planned_peak_floats) * 4.0 / 1e6,
              static_cast<double>(r.naive_floats) * 4.0 / 1e6);
  std::printf("chip (%d CGs): %.1f GFLOPS (%.1f%% of peak), %.2f ms/batch, "
              "%.2f ms/image\n",
              r.groups_used, r.gflops, 100.0 * r.efficiency, r.ms_per_batch,
              r.ms_per_image);

  // Re-run: every distinct schedule now comes out of the warmed cache.
  const graph::NetRunResult again = compiled.run(batch, opts);
  std::printf("\nsecond run: %lld/%lld schedules from cache, tuning %.2fs\n",
              static_cast<long long>(again.cache_hits),
              static_cast<long long>(again.shapes_tuned), again.tune_seconds);
  return 0;
}
