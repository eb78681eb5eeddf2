// serve_mix: open loop on the simulated clock. Poisson arrivals of the
// resnet+yolo SLO mix at a fixed ladder of rates around 120 req/s, served
// by the dynamic batcher and SLO admission on a 4-chip fleet. Arrivals are
// due on the simulated clock, so the generator can never run late. Set-up
// prices every (net, sub-batch) pair through the engine, so serving passes
// are only the event loop and memo lookups. It is the only workload that
// uses the engine across the whole batch ladder (1..8).
//
// compile_s here is one pricing of the ladder on a fresh engine (cold
// compiles of every pair), run_s one serving pass over all rates; the
// timed loop alternates the two. The simulated per-image metrics come from
// an untimed companion at batch 8, the top of the ladder.
#include <cstdio>
#include <memory>

#include "bench.hpp"
#include "serve/cost.hpp"
#include "serve/server.hpp"
#include "serve/traffic.hpp"

namespace perfbench {

using namespace swatop;

namespace {

/// The offered-load ladder, req/s; kNominalRps is where latency is reported.
const std::vector<double> kRatesRps = {60,  80,  100, 120, 140,
                                       160, 190, 220, 260};
constexpr double kNominalRps = 120.0;
/// Requests offered at every rate: >= 1000 leaves >= 10 beyond p99.
constexpr double kRequestsPerRate = 16000.0;
/// A rate is sustained when at most this share of its requests is refused
/// (rejected on arrival or shed). Admission guarantees every completed
/// request meets its SLO, so a refused request is one that misses it.
constexpr double kMaxRefused = 0.01;
const std::vector<std::int64_t> kLadder = {1, 2, 4, 8};
const std::vector<std::string> kNets = {"resnet", "yolo"};
/// The held-out traffic seed is derived from the run's seed.
constexpr std::uint64_t kHeldOut = 0x9e3779b97f4a7c15ULL;

serve::TrafficConfig traffic(std::uint64_t seed, double rate) {
  serve::TrafficConfig t;
  t.seed = seed;
  t.rate_rps = rate;
  t.duration_s = kRequestsPerRate / rate;
  t.mix = {{"resnet", 2.0, 150.0}, {"yolo", 1.0, 250.0}};
  t.sizes = {1, 2, 4};
  t.size_weights = {1.0, 1.0, 1.0};
  return t;
}

serve::ServerConfig server_config() {
  serve::ServerConfig s;
  s.fleet.chips = 4;
  s.fleet.groups_per_chip = kGroups;
  s.batcher.max_batch = kLadder.back();
  s.batcher.ladder = kLadder;
  s.batcher.max_wait_us = 2000.0;
  return s;
}

double refused(const serve::ServingReport& r) {
  return static_cast<double>(r.rejected + r.shed) /
         static_cast<double>(r.offered);
}

/// Highest ladder rate at or below which every rate is sustained.
double max_sustained_rps(const std::vector<serve::ServingReport>& reports) {
  double best = 0.0;
  for (std::size_t i = 0; i < reports.size(); ++i) {
    if (refused(reports[i]) > kMaxRefused) break;
    best = kRatesRps[i];
  }
  return best;
}

/// Serve every rate's trace once; checks conservation and SLOs.
std::vector<serve::ServingReport> serve_all(
    Result& out, serve::CostProvider& cost,
    const std::vector<std::vector<serve::Request>>& traces, Tracer& tr) {
  std::vector<serve::ServingReport> reports;
  for (std::size_t i = 0; i < traces.size(); ++i) {
    out.attempt();
    serve::ServingReport r;
    {
      auto s = tr.span("serve.loop");
      r = serve::Server(server_config(), cost).run(traces[i]);
    }
    // The report carries the provider's cumulative counters; the caller
    // compares per-pass memo hits instead.
    r.cost = serve::CostProviderStats{};
    if (r.offered != static_cast<std::int64_t>(traces[i].size()) ||
        r.offered != r.completed + r.rejected + r.shed)
      out.fail("rate " + std::to_string(kRatesRps[i]) +
               ": offered != completed + rejected + shed");
    if (r.slo_violations != 0)
      out.fail("rate " + std::to_string(kRatesRps[i]) + ": " +
               std::to_string(r.slo_violations) +
               " completed requests missed their SLO");
    reports.push_back(std::move(r));
  }
  return reports;
}

std::vector<std::vector<serve::Request>> make_traces(std::uint64_t seed) {
  std::vector<std::vector<serve::Request>> traces;
  for (double rate : kRatesRps)
    traces.push_back(serve::generate_trace(traffic(seed, rate)));
  return traces;
}

std::int64_t offered(const std::vector<std::vector<serve::Request>>& traces) {
  std::int64_t n = 0;
  for (const auto& t : traces) n += static_cast<std::int64_t>(t.size());
  return n;
}

std::size_t nominal_index() {
  for (std::size_t i = 0; i < kRatesRps.size(); ++i)
    if (kRatesRps[i] == kNominalRps) return i;
  return 0;
}

/// A fresh engine (cold schedule cache) with every (net, sub-batch) pair
/// priced; the prices go into `fp`.
std::unique_ptr<serve::EngineCostProvider> price_all(Tracer& tr,
                                                     Fingerprint& fp) {
  auto cost = std::make_unique<serve::EngineCostProvider>(base_config());
  for (const std::string& net : kNets)
    for (std::int64_t images : kLadder) {
      auto p = tr.span("serve.price");
      fp["price." + net + "." + std::to_string(images)] =
          exact(cost->cost(net, images).cycles);
    }
  return cost;
}

/// Serving passes over the whole rate ladder. Every pass must serve
/// exactly as the first one did (reports and memo hits) and price nothing
/// outside set-up.
struct Passes {
  std::vector<serve::ServingReport> first;
  std::vector<std::string> first_json;
  std::int64_t memo_hits = 0;
  std::vector<double> seconds;  ///< host time of each pass

  void serve(Result& out, serve::CostProvider& cost,
             const std::vector<std::vector<serve::Request>>& traces,
             int passes, Tracer& tr) {
    const std::int64_t profiles = cost.stats().profiles;
    for (int i = 0; i < passes; ++i) {
      const std::int64_t hits0 = cost.stats().memo_hits;
      const Clock::time_point t0 = Clock::now();
      std::vector<serve::ServingReport> reports =
          serve_all(out, cost, traces, tr);
      seconds.push_back(seconds_since(t0));
      const std::int64_t hits = cost.stats().memo_hits - hits0;
      if (first.empty()) {
        memo_hits = hits;
        for (const auto& r : reports) first_json.push_back(r.json());
        first = std::move(reports);
        continue;
      }
      bool same = hits == memo_hits;
      for (std::size_t k = 0; k < reports.size(); ++k)
        same = same && reports[k].json() == first_json[k];
      if (!same)
        out.fail("serving pass " + std::to_string(seconds.size()) +
                 " served differently from the first");
    }
    if (cost.stats().profiles != profiles)
      out.fail("a serving pass priced a sub-batch outside set-up");
  }

  /// The end-to-end serving metrics; `offered` is requests per pass.
  void report(Result& out, std::int64_t offered) const {
    const serve::ServingReport& nom = first[nominal_index()];
    out.metric("serve_p50_ms", nom.p50_ms, "sim_ms");
    out.metric("serve_p99_ms", nom.p99_ms, "sim_ms");
    out.metric("serve_max_rps", max_sustained_rps(first), "sim_req/s");
    out.metric("serve_host_us_per_req",
               median(seconds) * 1e6 / static_cast<double>(offered), "us");
  }
};

/// Serving passes after each pricing in serve_mix's timed loop.
constexpr int kPassesPerPricing = 8;

}  // namespace

void run_serve_mix(const Args& a, Tracer& tr, Result& out) {
  // Set-up: the run's traffic, and every (net, sub-batch) pair priced on a
  // fresh engine (cold schedule cache). Repeated; setup_s is the median,
  // and each pricing is also a compile_s sample.
  std::vector<std::vector<serve::Request>> traces;
  std::unique_ptr<serve::EngineCostProvider> cost;
  std::vector<double> setup, compile_s;
  Fingerprint prices_first;
  auto price = [&](int rep) {
    const Clock::time_point t0 = Clock::now();
    Fingerprint fp;
    cost = price_all(tr, fp);
    compile_s.push_back(seconds_since(t0));
    out.attempt();
    if (rep == 0)
      prices_first = fp;
    else if (fp != prices_first)
      out.fail("pricing is not deterministic");
  };
  for (int rep = 0; rep < a.setup_reps; ++rep) {
    auto s = tr.span("setup");
    const Clock::time_point t0 = Clock::now();
    traces = make_traces(a.seed);
    price(rep);
    setup.push_back(seconds_since(t0));
  }

  // Timed loop: serve the ladder kPassesPerPricing times (run_s samples),
  // then price again on a fresh engine (a compile_s sample).
  Passes passes;
  const Clock::time_point start = Clock::now();
  for (int it = 0; it == 0 || seconds_since(start) < a.seconds; ++it) {
    if (it > 0) price(a.setup_reps + it);
    passes.serve(out, *cost, traces, kPassesPerPricing, tr);
  }
  print_samples("compile_s", compile_s);
  print_samples("run_s", passes.seconds);
  const std::size_t pricings = compile_s.size();

  // The held-out seed: same checks, reported alongside.
  Tracer untraced(false);
  Passes held;
  held.serve(out, *cost, make_traces(a.seed ^ kHeldOut), 1, untraced);

  const serve::ServingReport& nom = passes.first[nominal_index()];
  for (std::size_t i = 0; i < passes.first.size(); ++i)
    std::fprintf(stderr,
                 "  %5.0f req/s: refused %.4f (held-out %.4f)  p50 %.2f  "
                 "p99 %.2f ms\n",
                 kRatesRps[i], refused(passes.first[i]),
                 refused(held.first[i]), passes.first[i].p50_ms,
                 passes.first[i].p99_ms);

  out.fingerprint = prices_first;
  for (std::size_t i = 0; i < passes.first_json.size(); ++i)
    out.fingerprint["report." + std::to_string(kRatesRps[i])] =
        passes.first_json[i];
  out.fingerprint["memo_hits"] = std::to_string(passes.memo_hits);

  if (a.trace) {
    out.metric("serve.price_s",
               Tracer::of(tr.total_seconds(), "serve.price") /
                   static_cast<double>(pricings),
               "s");
    out.metric("serve.loop_s", median(passes.seconds), "s");
    out.metric("serve.memo_hits", static_cast<double>(passes.memo_hits),
               "count");
    out.metric("serve.shed_frac", refused(nom), "ratio");
    out.metric("serve.mean_batch_images", nom.mean_batch_images, "images");
    out.metric("serve.utilization", nom.utilization, "ratio");
    out.metric("serve.heldout_p99_ms", held.first[nominal_index()].p99_ms,
               "sim_ms");
    out.metric("serve.heldout_max_rps", max_sustained_rps(held.first),
               "sim_req/s");
    return;
  }
  out.metric("setup_s", median(setup), "s");
  out.metric("compile_s", median(compile_s), "s");
  out.metric("run_s", median(passes.seconds), "s");
  passes.report(out, offered(traces));
  // The nets at the top of the batch ladder, untimed: the simulated
  // metrics, as cold_compile_b8 reports them.
  sim_metrics(out, sim_companion({"vgg16", "resnet", "yolo"}, kLadder.back(),
                                 out.fingerprint));
}

struct ServeCompanion::State {
  explicit State(Result& o) : out(o) {}
  Result& out;
  Tracer untraced{false};
  Fingerprint prices;
  std::unique_ptr<serve::EngineCostProvider> cost;
  std::vector<std::vector<serve::Request>> traces;
  Passes passes;
};

ServeCompanion::ServeCompanion(const Args& a, Result& out)
    : s_(std::make_unique<State>(out)) {
  s_->cost = price_all(s_->untraced, s_->prices);
  out.attempt();
  s_->traces = make_traces(a.seed);
}

ServeCompanion::~ServeCompanion() = default;

void ServeCompanion::pass() {
  s_->passes.serve(s_->out, *s_->cost, s_->traces, 1, s_->untraced);
}

void ServeCompanion::report() {
  print_samples("serve pass s", s_->passes.seconds);
  s_->passes.report(s_->out, offered(s_->traces));
  s_->out.fingerprint.insert(s_->prices.begin(), s_->prices.end());
}

}  // namespace perfbench
