// Serving front-end benchmark: the dynamic batcher + SLO-aware fleet
// scheduler (src/serve/) on a 4-chip fleet with engine-priced costs.
//
// Four scenarios share one EngineCostProvider (one schedule cache, one
// memo), all driven by fixed-seed synthetic traffic over a resnet+yolo mix:
//   poisson_dynamic      -- dynamic batching + admission (the CI headline)
//   poisson_fifo         -- the *same trace* with coalescing off (batch-1
//                           FIFO): the dynamic-batching ablation
//   bursty_dynamic       -- square-wave bursts at the same mean load
//   bursty_no_admission  -- admission off on the bursty trace: p99 blows up
//                           instead of shedding
//
// Every reported metric is simulated (trace + cycle simulator), so the
// whole BENCH_serving.json is byte-identical run to run and CI diffs it
// against bench/baselines/ exactly like the cycle benches. The run itself
// is also a gate: it exits non-zero if dynamic batching sustains < 2x the
// FIFO image throughput, if an admission-on scenario completes a request
// past its SLO, or if the no-admission ablation sheds anything.
//
// Quick mode serves a 4 s arrival window; SWATOP_FULL=1 serves 12 s.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "serve/server.hpp"
#include "serve/traffic.hpp"

using namespace swatop;

namespace {

serve::TrafficConfig base_traffic() {
  serve::TrafficConfig t;
  t.seed = 7;
  t.duration_s = bench::full_scale() ? 12.0 : 4.0;
  t.rate_rps = 280.0;  // ~650 img/s offered: well past FIFO capacity
                       // (~220 img/s), under the dynamic-batching capacity
  t.mix = {{"resnet", 2.0, 150.0}, {"yolo", 1.0, 250.0}};
  t.sizes = {1, 2, 4};
  t.size_weights = {1.0, 1.0, 1.0};
  return t;
}

serve::ServerConfig base_server() {
  serve::ServerConfig s;
  s.fleet.chips = 4;
  s.fleet.groups_per_chip = 4;
  s.batcher.max_batch = 8;
  s.batcher.max_wait_us = 2000.0;
  return s;
}

void add_case(bench::BenchJson& bj, const std::string& name,
              const serve::TrafficConfig& t, const serve::ServingReport& r) {
  bj.add(name,
         {{"pattern", arrival_pattern_name(t.pattern)},
          {"rate_rps", bench::fmt(t.rate_rps, 0)},
          {"duration_s", bench::fmt(t.duration_s, 0)},
          {"chips", "4"},
          {"seed", std::to_string(t.seed)}},
         {{"offered", static_cast<double>(r.offered)},
          {"completed", static_cast<double>(r.completed)},
          {"shed_rate", r.shed_rate},
          {"p50_ms", r.p50_ms},
          {"p99_ms", r.p99_ms},
          {"throughput_rps", r.throughput_rps},
          {"throughput_ips", r.throughput_ips},
          {"slo_violations", static_cast<double>(r.slo_violations)},
          {"mean_batch_images", r.mean_batch_images},
          {"utilization", r.utilization}},
         0.0);
  bench::print_row({name, std::to_string(r.offered),
                    std::to_string(r.completed), bench::fmt(r.shed_rate, 3),
                    bench::fmt(r.p50_ms, 2), bench::fmt(r.p99_ms, 2),
                    bench::fmt(r.throughput_ips, 1),
                    std::to_string(r.slo_violations)});
}

}  // namespace

int main() {
  const serve::TrafficConfig poisson = base_traffic();
  serve::TrafficConfig bursty = base_traffic();
  bursty.pattern = serve::ArrivalPattern::Bursty;
  // Same *mean* load as the Poisson scenario:
  // rate * (1 + (factor-1) * fraction) = rate_rps.
  bursty.burst_factor = 6.0;
  bursty.burst_fraction = 0.25;
  bursty.rate_rps = poisson.rate_rps / 2.25;

  bench::print_title(
      "serving: dynamic batching + SLO admission, 4-chip fleet (" +
      std::string(bench::full_scale() ? "12" : "4") + " s window)");
  bench::BenchJson bj("serving");
  bench::print_row({"scenario", "offered", "done", "shed", "p50ms", "p99ms",
                    "img/s", "late"});

  // One engine across all scenarios: every (net, ladder size) prices once.
  serve::EngineCostProvider cost(SwatopConfig{});

  const std::vector<serve::Request> ptrace = serve::generate_trace(poisson);
  const std::vector<serve::Request> btrace = serve::generate_trace(bursty);

  serve::ServerConfig dyn = base_server();
  const serve::ServingReport rd = serve::Server(dyn, cost).run(ptrace);
  add_case(bj, "poisson_dynamic", poisson, rd);

  serve::ServerConfig fifo = base_server();
  fifo.batcher.coalesce = false;
  const serve::ServingReport rf = serve::Server(fifo, cost).run(ptrace);
  add_case(bj, "poisson_fifo", poisson, rf);

  const serve::ServingReport rb = serve::Server(dyn, cost).run(btrace);
  add_case(bj, "bursty_dynamic", bursty, rb);

  // Admission ablation on the *bursty* trace, whose peaks overload the
  // fleet: with admission on it sheds through the bursts and p99 stays
  // inside the SLO; with it off everything completes, however late.
  serve::ServerConfig noadm = base_server();
  noadm.admission.enabled = false;
  const serve::ServingReport rn = serve::Server(noadm, cost).run(btrace);
  add_case(bj, "bursty_no_admission", bursty, rn);

  const double speedup =
      rf.throughput_ips > 0.0 ? rd.throughput_ips / rf.throughput_ips : 0.0;
  const serve::CostProviderStats cs = cost.stats();
  bj.add("summary", {{"chips", "4"}},
         {{"dynamic_over_fifo_ips", speedup},
          {"profiles", static_cast<double>(cs.profiles)},
          {"memo_hits", static_cast<double>(cs.memo_hits)},
          {"shapes_tuned", static_cast<double>(cs.shapes_tuned)},
          {"schedule_cache_hits", static_cast<double>(cs.cache_hits)}},
         0.0);
  std::printf("\ndynamic over FIFO sustained throughput: %.2fx "
              "(%.1f vs %.1f img/s); %lld profiles, %lld memo hits\n",
              speedup, rd.throughput_ips, rf.throughput_ips,
              static_cast<long long>(cs.profiles),
              static_cast<long long>(cs.memo_hits));

  // Self-gates: these are the serving subsystem's contract, not tolerances.
  int failures = 0;
  if (speedup < 2.0) {
    std::fprintf(stderr,
                 "FAIL: dynamic batching sustained only %.2fx FIFO "
                 "throughput (contract: >= 2x)\n",
                 speedup);
    ++failures;
  }
  for (const auto* r : {&rd, &rf, &rb}) {
    if (r->slo_violations != 0) {
      std::fprintf(stderr,
                   "FAIL: %lld completed requests missed their SLO with "
                   "admission control on\n",
                   static_cast<long long>(r->slo_violations));
      ++failures;
    }
  }
  if (rn.rejected + rn.shed != 0) {
    std::fprintf(stderr,
                 "FAIL: no-admission ablation shed %lld requests\n",
                 static_cast<long long>(rn.rejected + rn.shed));
    ++failures;
  }
  return failures == 0 ? 0 : 1;
}
