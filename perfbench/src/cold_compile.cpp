// cold_compile_b8: closed loop, one client. Every iteration cold-compiles
// VGG16, ResNet and YOLO (fresh handle, so an empty schedule cache that is
// written and never read) and runs each once TimingOnly at batch 8 on the
// four core groups. Host time here is the tuner's IR lowering; the
// simulated cycles are the DMA-bound batch-8 numbers.
//
// A serving companion (see serve_mix.cpp) adds the serving metrics: one
// untimed pricing before the loop, then serving passes after every
// compile.
//
// The traced run decomposes the same compile, serially, into the library
// calls the scheduler makes -- space/lower (dsl, ir), optimize (opt),
// validate_ir (check), CostModel::estimate (tune), emit_c (codegen),
// fuse_epilogues/plan_memory (graph) -- and checks that its cost-model
// argmin is the engine's pick for every distinct layer.
#include <algorithm>
#include <cstdio>
#include <limits>

#include "bench.hpp"
#include "check/validate_ir.hpp"
#include "codegen/c_emitter.hpp"
#include "graph/build.hpp"
#include "graph/compile.hpp"
#include "opt/pass_manager.hpp"
#include "tune/cost_model.hpp"
#include "tune/gemm_model.hpp"

namespace perfbench {

using namespace swatop;

namespace {

constexpr std::int64_t kBatch = 8;

graph::NetOptions timing_options() {
  graph::NetOptions o;
  o.groups = kGroups;
  o.mode = sim::ExecMode::TimingOnly;
  return o;
}

/// Extra TimingOnly runs of each compiled net per iteration: a run takes
/// tens of milliseconds, so run_s needs more samples than compiles give.
constexpr int kReruns = 4;
/// Serving passes after each compile: one pass takes about 0.1 s, and
/// serve_host_us_per_req needs a few dozen samples per run.
constexpr int kServePasses = 2;

/// One cold compile + TimingOnly run of a net, plus `reruns` runs of the
/// compiled handle (their schedules come from the handle's in-memory cache,
/// whose rebuild time is excluded like the first run's tuning).
struct NetPass {
  graph::NetRunResult r;
  double compile_s = 0.0;  ///< compile() + the first run's tuning phase
  /// Each run's rest of run() after tuning: plan + simulate.
  std::vector<double> run_s;
  bool reruns_match = true;  ///< every re-run simulated the same cycles
  std::map<std::string, std::string> chosen;
};

NetPass cold_pass(const graph::Graph& g, int threads, int reruns) {
  NetPass p;
  const Clock::time_point t0 = Clock::now();
  CompiledNet net = swatop::compile(g, base_config(threads));
  const double construct_s = seconds_since(t0);
  for (int i = 0; i <= reruns; ++i) {
    const Clock::time_point t1 = Clock::now();
    graph::NetRunResult r = net.run(kBatch, timing_options());
    p.run_s.push_back(seconds_since(t1) - r.tune_seconds);
    if (i == 0) {
      p.compile_s = construct_s + r.tune_seconds;
      p.r = std::move(r);
    } else if (r.cycles != p.r.cycles) {
      p.reruns_match = false;
    }
  }
  p.chosen = chosen_strategies(net.journal());
  return p;
}

/// The nets, in compile order. The order is fixed: the heap each compile
/// leaves behind moves the host times of what follows it.
const std::vector<std::string> kNets = {"vgg16", "resnet", "yolo"};

/// Everything of one pass that must repeat exactly, plus the cold-cache
/// check (a cold compile never reads the schedule cache).
Fingerprint check_pass(Result& out, const std::string& net,
                       const NetPass& p) {
  Fingerprint fp;
  fingerprint_net(fp, net, p.r);
  for (const auto& [op, s] : p.chosen) fp["chosen." + op] = s;
  if (p.r.cache_hits != 0)
    out.fail(net + ": cold compile read " + std::to_string(p.r.cache_hits) +
             " schedules from the cache");
  if (!p.reruns_match)
    out.fail(net + ": re-running the compiled net changed its cycles");
  if (p.chosen.size() != static_cast<std::size_t>(p.r.shapes_tuned))
    out.fail(net + ": journal holds " + std::to_string(p.chosen.size()) +
             " picks for " + std::to_string(p.r.shapes_tuned) + " layers");
  return fp;
}

// --- Traced decomposition of one cold compile. ---

struct DecompCounts {
  std::int64_t strategies = 0, lowered = 0, kept = 0;
};

/// Compile `g` the way the engine does, one library call per layer, each
/// inside its span; returns op name -> cost-model argmin.
std::map<std::string, std::string> decompose(const graph::Graph& g,
                                             const SwatopConfig& cfg,
                                             Tracer& tr, Result& out,
                                             DecompCounts& counts,
                                             std::int64_t* planned_peak) {
  const sim::SimConfig& m = cfg.machine;
  const LayerOps layers = layer_ops(g, kBatch, tr);
  *planned_peak = layers.planned_peak_floats;

  std::map<std::string, std::string> picks;
  const tune::GemmCostModel& gm = tune::gemm_cost_model(m);
  for (const auto& op : layers.ops) {
    std::vector<dsl::Strategy> strategies;
    {
      auto s = tr.span("dsl.space");
      strategies = op->space().enumerate();
    }
    std::vector<ir::StmtPtr> progs(strategies.size());
    {
      auto s = tr.span("dsl.lower");
      for (std::size_t i = 0; i < strategies.size(); ++i)
        progs[i] = op->lower(strategies[i]);
    }
    std::vector<std::size_t> kept;
    {
      auto s = tr.span("opt.optimize");
      for (std::size_t i = 0; i < strategies.size(); ++i) {
        if (progs[i] == nullptr) continue;
        ++counts.lowered;
        opt::OptOptions o = cfg.scheduler_options().opt;
        o.prefetch = o.prefetch && op->prefetch_enabled(strategies[i]);
        if (opt::optimize(progs[i], m, o)) kept.push_back(i);
      }
    }
    counts.strategies += static_cast<std::int64_t>(strategies.size());
    counts.kept += static_cast<std::int64_t>(kept.size());
    {
      auto s = tr.span("check.validate");
      for (std::size_t i : kept)
        if (!check::validate_ir(progs[i], m).empty())
          out.fail(op->name() + ": candidate " + strategies[i].to_string() +
                   " fails IR validation");
    }
    std::size_t best = kept.empty() ? strategies.size() : kept.front();
    {
      auto s = tr.span("tune.rank");
      const tune::CostModel model(m, gm);
      double best_cost = std::numeric_limits<double>::infinity();
      for (std::size_t i : kept) {
        const double c = model.estimate(progs[i]).total();
        if (c < best_cost) {
          best_cost = c;
          best = i;
        }
      }
    }
    if (best == strategies.size()) {
      out.fail(op->name() + ": no candidate survived");
      continue;
    }
    {
      auto s = tr.span("codegen.emit");
      codegen::EmitOptions e;
      e.kernel_name = kernel_name(op->name());
      if (codegen::emit_c(progs[best], e).empty())
        out.fail(op->name() + ": empty generated source");
    }
    picks[op->name()] = strategies[best].to_string();
    auto s = tr.span("ir.free");
    progs.clear();
  }
  return picks;
}

void traced_run(Tracer& tr, Result& out,
                const std::map<std::string, graph::Graph>& graphs) {
  const SwatopConfig serial = base_config(1);

  // Untraced serial compile + run: the reference the spans are compared
  // with, and the source of the per-layer simulated metrics.
  std::vector<graph::NetRunResult> runs;
  std::vector<std::map<std::string, std::string>> engine_picks;
  double compile_s = 0.0, run_s = 0.0, overhead_run_s = 0.0;
  std::int64_t hits = 0, misses = 0, measured = 0;
  Fingerprint fp;
  for (const std::string& n : kNets) {
    const Clock::time_point t0 = Clock::now();
    CompiledNet net = swatop::compile(graphs.at(n), serial);
    const double construct_s = seconds_since(t0);
    const Clock::time_point t1 = Clock::now();
    graph::NetRunResult r = net.run(kBatch, timing_options());
    const double untraced_run_s = seconds_since(t1) - r.tune_seconds;
    compile_s += construct_s + r.tune_seconds;
    run_s += untraced_run_s;
    hits += r.cache_hits;
    misses += r.shapes_tuned - r.cache_hits;
    for (const tune::JournalEntry& e : net.journal().entries())
      if (e.measured >= 0.0) ++measured;
    fingerprint_net(fp, n, r);
    engine_picks.push_back(chosen_strategies(net.journal()));

    // Traced re-run of the compiled handle (its schedules are now in the
    // handle's in-memory cache): the run_s side of the tracing overhead.
    double traced_run_s = 0.0;
    {
      auto s = tr.span("rt.timing_run");
      const Clock::time_point t2 = Clock::now();
      const graph::NetRunResult r2 = net.run(kBatch, timing_options());
      traced_run_s = seconds_since(t2) - r2.tune_seconds;
      if (r2.cycles != r.cycles)
        out.fail(n + ": re-run of a compiled net changed its cycles");
    }
    overhead_run_s += traced_run_s - untraced_run_s;
    runs.push_back(std::move(r));
  }

  // Traced serial decomposition of the same compiles.
  DecompCounts counts;
  double decomposed_s = 0.0;
  for (std::size_t i = 0; i < kNets.size(); ++i) {
    const std::string& n = kNets[i];
    std::int64_t peak = 0;
    const Clock::time_point t0 = Clock::now();
    std::map<std::string, std::string> picks;
    {
      auto s = tr.span("compile");
      picks = decompose(graphs.at(n), serial, tr, out, counts, &peak);
    }
    decomposed_s += seconds_since(t0);
    out.attempt(static_cast<std::int64_t>(picks.size()));
    for (const auto& [op, strat] : picks) {
      fp["chosen." + op] = strat;
      const auto it = engine_picks[i].find(op);
      if (it == engine_picks[i].end())
        out.fail(n + ": the engine never tuned " + op);
      else if (it->second != strat)
        out.fail(n + ": " + op + " cost-model argmin " + strat +
                 " but the engine picked " + it->second);
    }
    if (picks.size() != engine_picks[i].size())
      out.fail(n + ": decomposition tuned " + std::to_string(picks.size()) +
               " layers, the engine " + std::to_string(engine_picks[i].size()));
    if (peak != runs[i].planned_peak_floats)
      out.fail(n + ": planned arena " + std::to_string(peak) +
               " floats, the engine " +
               std::to_string(runs[i].planned_peak_floats));
  }

  const std::map<std::string, double> self = tr.self_seconds();
  auto self_s = [&](const char* k) { return Tracer::of(self, k); };
  out.metric("dsl.strategies", static_cast<double>(counts.strategies),
             "count");
  out.metric("dsl.lowered", static_cast<double>(counts.lowered), "count");
  out.metric("dsl.space_s", self_s("dsl.space"), "s");
  out.metric("dsl.lower_s", self_s("dsl.lower"), "s");
  out.metric("opt.optimize_s", self_s("opt.optimize"), "s");
  out.metric("opt.kept", static_cast<double>(counts.kept), "count");
  out.metric("opt.kept_ratio",
             counts.lowered > 0 ? static_cast<double>(counts.kept) /
                                      static_cast<double>(counts.lowered)
                                : 0.0,
             "ratio");
  out.metric("check.validate_s", self_s("check.validate"), "s");
  out.metric("tune.rank_s", self_s("tune.rank"), "s");
  out.metric("tune.ranked", static_cast<double>(counts.kept), "count");
  out.metric("tune.measured", static_cast<double>(measured), "count");
  out.metric("tune.cache_hits", static_cast<double>(hits), "count");
  out.metric("tune.cache_misses", static_cast<double>(misses), "count");
  out.metric("codegen.emit_s", self_s("codegen.emit"), "s");
  out.metric("ir.free_s", self_s("ir.free"), "s");
  out.metric("graph.fuse_s", self_s("graph.fuse"), "s");
  out.metric("graph.plan_s", self_s("graph.plan"), "s");
  out.metric("rt.timing_run_s", run_s, "s");
  out.metric("trace.compile_s_serial", compile_s, "s");
  out.metric("trace.overhead_compile_s", decomposed_s - compile_s, "s");
  out.metric("trace.overhead_run_s", overhead_run_s, "s");
  const double core = self_s("dsl.lower") + self_s("opt.optimize") +
                      self_s("check.validate") + self_s("tune.rank");
  out.metric("trace.decomposed_share",
             compile_s > 0.0 ? core / compile_s : 0.0, "ratio");
  net_layer_metrics(out, runs, kNets);

  fp["dsl.strategies"] = std::to_string(counts.strategies);
  fp["dsl.lowered"] = std::to_string(counts.lowered);
  fp["opt.kept"] = std::to_string(counts.kept);
  fp["tune.measured"] = std::to_string(measured);
  out.fingerprint = fp;
}

}  // namespace

void run_cold_compile(const Args& a, Tracer& tr, Result& out) {
  // Set-up: build the graphs and warm the process with one throwaway cold
  // compile of the smallest net, so lazily built process-wide state is in
  // place before the first timed iteration. Repeated; setup_s is the
  // median.
  std::map<std::string, graph::Graph> graphs;
  std::vector<double> setup;
  Fingerprint warm_first;
  for (int rep = 0; rep < a.setup_reps; ++rep) {
    auto s = tr.span("setup");
    const Clock::time_point t0 = Clock::now();
    graphs.clear();
    for (const char* n : {"vgg16", "resnet", "yolo"})
      graphs.emplace(n, graph::build_net(n));
    const NetPass warm = cold_pass(graphs.at("yolo"), kTuneThreads, 0);
    setup.push_back(seconds_since(t0));
    Fingerprint fp;
    fingerprint_net(fp, "warmup", warm.r);
    out.attempt();
    if (rep == 0)
      warm_first = fp;
    else if (fp != warm_first)
      out.fail("set-up warm-up compile is not deterministic");
  }

  if (a.trace) {
    traced_run(tr, out, graphs);
    return;
  }

  ServeCompanion serving(a, out);
  std::map<std::string, NetPass> first;
  std::map<std::string, Fingerprint> first_fp;
  std::vector<double> compile_s;
  std::map<std::string, std::vector<double>> run_s;
  const Clock::time_point start = Clock::now();
  for (int it = 0; it == 0 || seconds_since(start) < a.seconds; ++it) {
    double c = 0.0;
    for (const std::string& n : kNets) {
      NetPass p = cold_pass(graphs.at(n), kTuneThreads, kReruns);
      for (int k = 0; k < kServePasses; ++k) serving.pass();
      c += p.compile_s;
      run_s[n].insert(run_s[n].end(), p.run_s.begin(), p.run_s.end());
      out.attempt();
      Fingerprint fp = check_pass(out, n, p);
      if (it == 0) {
        first.emplace(n, std::move(p));
        first_fp.emplace(n, std::move(fp));
      } else if (fp != first_fp.at(n)) {
        out.fail(n + ": iteration " + std::to_string(it) +
                 " differs from the first in schedules or simulated results");
      }
    }
    compile_s.push_back(c);
  }
  print_samples("compile_s", compile_s);
  // run_s: per net, the median over every run in the run; summed.
  double run_total = 0.0;
  for (const auto& [n, v] : run_s) {
    print_samples(("run_s." + n).c_str(), v);
    run_total += median(v);
  }

  std::map<std::string, graph::NetRunResult> sims;
  for (const auto& [n, p] : first) sims.emplace(n, p.r);
  sim_metrics(out, sims);
  out.metric("setup_s", median(setup), "s");
  out.metric("compile_s", median(compile_s), "s");
  out.metric("run_s", run_total, "s");
  out.fingerprint = warm_first;
  for (const auto& [n, fp] : first_fp)
    out.fingerprint.insert(fp.begin(), fp.end());
  serving.report();
}

}  // namespace perfbench
