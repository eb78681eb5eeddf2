// warm_resnet_b1: closed loop, one client. Set-up fills an on-disk
// schedule cache with ResNet's batch-1 winners; every iteration then
// warm-compiles ResNet from that cache (read, never written) and runs it
// Functional at batch 1 on a 4-CG chip. The tuner does almost nothing
// here: host time goes to the functional simulator, and the simulated
// latency is the batch-1 number that leaves 3 of the 4 core groups idle.
//
// The first and the last iteration also run the whole-net functional check
// against graph::reference_forward (outside the run_s samples). Untimed
// companions add VGG16 and YOLO at batch 1 (TimingOnly) to the simulated
// metrics, and the serving metrics (see serve_mix.cpp): one untimed
// pricing before the timed loop, then serving passes between its steps.
#include <cstdio>
#include <filesystem>
#include <optional>

#include "bench.hpp"
#include "codegen/c_emitter.hpp"
#include "graph/build.hpp"
#include "graph/compile.hpp"
#include "graph/reference.hpp"
#include "opt/pass_manager.hpp"
#include "tune/schedule_cache.hpp"

namespace perfbench {

using namespace swatop;

namespace {

constexpr std::int64_t kBatch = 1;
constexpr double kTolerance = 1e-4;
/// Extra warm compiles per iteration, each followed by a cheap TimingOnly
/// run instead of the Functional one: the warm compile takes milliseconds,
/// so compile_s needs more samples than the functional runs give.
constexpr int kExtraCompiles = 4;

graph::NetOptions run_options(sim::ExecMode mode, bool check) {
  graph::NetOptions o;
  o.groups = kGroups;
  o.mode = mode;
  o.check = check;
  o.tolerance = kTolerance;
  return o;
}

struct WarmPass {
  graph::NetRunResult r;
  double compile_s = 0.0;  ///< compile() + the run's cache-read tuning
  double run_s = 0.0;      ///< the rest of run(): plan + functional sim
  Fingerprint fp;
};

WarmPass warm_pass(Result& out, const graph::Graph& g,
                   const SwatopConfig& cfg, bool check,
                   sim::ExecMode mode = sim::ExecMode::Functional) {
  WarmPass p;
  out.attempt();
  const Clock::time_point t0 = Clock::now();
  CompiledNet net = swatop::compile(g, cfg);
  const double construct_s = seconds_since(t0);
  const Clock::time_point t1 = Clock::now();
  p.r = net.run(kBatch, run_options(mode, check));
  const double wall = seconds_since(t1);
  p.compile_s = construct_s + p.r.tune_seconds;
  p.run_s = wall - p.r.tune_seconds;
  fingerprint_net(p.fp, "resnet", p.r);
  for (const auto& [op, s] : chosen_strategies(net.journal()))
    p.fp["chosen." + op] = s;
  if (p.r.cache_hits != p.r.shapes_tuned)
    out.fail("warm compile tuned " +
             std::to_string(p.r.shapes_tuned - p.r.cache_hits) +
             " layers instead of reading them from the cache");
  if (check && !(p.r.checked && p.r.max_rel_err <= kTolerance)) {
    char buf[128];
    std::snprintf(buf, sizeof buf,
                  "functional ResNet batch 1 differs from the reference: "
                  "max relative error %.3g",
                  p.r.max_rel_err);
    out.fail(buf);
  }
  return p;
}

/// Fill the schedule cache at `path` from scratch: a cold compile of the
/// net at batch 1, run TimingOnly.
void fill_cache(const graph::Graph& g, const std::string& path,
                Fingerprint* fp) {
  std::filesystem::remove(path);
  SwatopConfig cfg = base_config();
  cfg.cache.enabled = true;
  cfg.cache.path = path;
  CompiledNet net = swatop::compile(g, cfg);
  fingerprint_net(*fp, "fill",
                  net.run(kBatch, run_options(sim::ExecMode::TimingOnly,
                                              false)));
}

/// Traced decomposition of one warm compile: cache lookup, then the
/// winner's lower, optimize and emit for every distinct layer.
void decompose_warm(const graph::Graph& g, const SwatopConfig& cfg,
                    Tracer& tr, Result& out) {
  const LayerOps layers = layer_ops(g, kBatch, tr);
  std::optional<tune::ScheduleCache> cache;
  {
    auto s = tr.span("tune.cache_load");
    cache.emplace(cfg.cache);
  }
  for (const auto& op : layers.ops) {
    std::optional<tune::CacheEntry> e;
    {
      auto s = tr.span("tune.cache_lookup");
      e = cache->lookup(tune::ScheduleCache::fingerprint(
          op->name(), cfg.machine, cfg.tuner_knobs()));
    }
    if (!e) {
      out.fail(op->name() + ": not in the warm cache");
      continue;
    }
    ir::StmtPtr prog;
    {
      auto s = tr.span("dsl.lower");
      prog = op->lower(e->strategy);
    }
    bool ok = false;
    {
      auto s = tr.span("opt.optimize");
      opt::OptOptions o = cfg.scheduler_options().opt;
      o.prefetch = e->prefetch;
      ok = prog != nullptr && opt::optimize(prog, cfg.machine, o);
    }
    if (!ok) {
      out.fail(op->name() + ": cached winner no longer lowers");
      continue;
    }
    auto s = tr.span("codegen.emit");
    codegen::EmitOptions eo;
    eo.kernel_name = kernel_name(op->name());
    if (codegen::emit_c(prog, eo).empty())
      out.fail(op->name() + ": empty generated source");
  }
}

}  // namespace

void run_warm_resnet(const Args& a, Tracer& tr, Result& out) {
  const std::string cache_path = a.state_dir + "/warm_resnet_b1.cache";
  graph::Graph g("");
  std::vector<double> setup;
  Fingerprint fill_first;
  for (int rep = 0; rep < a.setup_reps; ++rep) {
    auto s = tr.span("setup");
    const Clock::time_point t0 = Clock::now();
    g = graph::build_net("resnet");
    Fingerprint fp;
    fill_cache(g, cache_path, &fp);
    setup.push_back(seconds_since(t0));
    out.attempt();
    if (rep == 0)
      fill_first = fp;
    else if (fp != fill_first)
      out.fail("set-up cache fill is not deterministic");
  }
  const std::uintmax_t cache_bytes = std::filesystem::file_size(cache_path);

  SwatopConfig cfg = base_config();
  cfg.cache.enabled = true;
  cfg.cache.path = cache_path;
  cfg.cache.read_only = true;

  // First iteration: checked against the host reference; its compile
  // counts, its run does not.
  const WarmPass first = warm_pass(out, g, cfg, true);
  // VGG16 and YOLO at batch 1 too, untimed, so the simulated metrics cover
  // all three nets at this workload's batch.
  Fingerprint sim_fp;
  std::map<std::string, graph::NetRunResult> sims =
      sim_companion({"vgg16", "yolo"}, kBatch, sim_fp);
  sims.emplace("resnet", first.r);
  std::vector<double> compile_s = {first.compile_s}, run_s;
  std::optional<ServeCompanion> serving;
  auto same = [&](const WarmPass& p, int it) {
    if (p.fp != first.fp)
      out.fail("iteration " + std::to_string(it) +
               " differs from the first in schedules or simulated results");
  };

  if (a.trace) {
    const WarmPass plain = warm_pass(out, g, cfg, false);
    same(plain, 1);
    double traced_compile_s = 0.0, traced_run_s = 0.0;
    {
      auto s = tr.span("compile+run");
      const WarmPass p = warm_pass(out, g, cfg, false);
      same(p, 2);
      traced_compile_s = p.compile_s;
      traced_run_s = p.run_s;
    }
    {
      auto s = tr.span("compile");
      decompose_warm(g, cfg, tr, out);
    }
    {
      auto s = tr.span("graph.reference");
      graph::reference_forward(g, kBatch);
    }
    const std::map<std::string, double> self = tr.self_seconds();
    auto self_s = [&](const char* k) { return Tracer::of(self, k); };
    out.metric("tune.cache_hits", static_cast<double>(plain.r.cache_hits),
               "count");
    out.metric("tune.cache_misses",
               static_cast<double>(plain.r.shapes_tuned - plain.r.cache_hits),
               "count");
    out.metric("tune.cache_compile_s", plain.compile_s, "s");
    out.metric("tune.cache_lookup_s",
               self_s("tune.cache_load") + self_s("tune.cache_lookup"), "s");
    out.metric("dsl.lower_s", self_s("dsl.lower"), "s");
    out.metric("opt.optimize_s", self_s("opt.optimize"), "s");
    out.metric("codegen.emit_s", self_s("codegen.emit"), "s");
    out.metric("graph.fuse_s", self_s("graph.fuse"), "s");
    out.metric("graph.plan_s", self_s("graph.plan"), "s");
    out.metric("graph.reference_s", self_s("graph.reference"), "s");
    out.metric("rt.functional_run_s", plain.run_s, "s");
    out.metric("sim.mcycles_per_host_s", plain.r.cycles * 1e-6 / plain.run_s,
               "sim_Mcycles/s");
    out.metric("trace.overhead_compile_s", traced_compile_s - plain.compile_s,
               "s");
    out.metric("trace.overhead_run_s", traced_run_s - plain.run_s, "s");
    net_layer_metrics(out, {plain.r, sims.at("vgg16"), sims.at("yolo")},
                      {"resnet", "vgg16", "yolo"});
  } else {
    serving.emplace(a, out);
    const Clock::time_point start = Clock::now();
    for (int it = 1; run_s.empty() || seconds_since(start) < a.seconds; ++it) {
      const WarmPass p = warm_pass(out, g, cfg, false);
      same(p, it);
      compile_s.push_back(p.compile_s);
      run_s.push_back(p.run_s);
      for (int k = 0; k < kExtraCompiles; ++k) {
        serving->pass();
        const WarmPass t =
            warm_pass(out, g, cfg, false, sim::ExecMode::TimingOnly);
        same(t, it);
        compile_s.push_back(t.compile_s);
      }
      serving->pass();
    }
    print_samples("run_s", run_s);
  }

  // Last iteration: checked again (the traced run checks only the first).
  if (!a.trace) {
    const WarmPass last = warm_pass(out, g, cfg, true);
    same(last, static_cast<int>(compile_s.size()));
    compile_s.push_back(last.compile_s);
    print_samples("compile_s", compile_s);
  }
  if (std::filesystem::file_size(cache_path) != cache_bytes)
    out.fail("the warm schedule cache was written during the run");

  if (!a.trace) {
    out.metric("setup_s", median(setup), "s");
    out.metric("compile_s", median(compile_s), "s");
    out.metric("run_s", median(run_s), "s");
    sim_metrics(out, sims);
  }
  out.fingerprint = first.fp;
  out.fingerprint.insert(fill_first.begin(), fill_first.end());
  out.fingerprint.insert(sim_fp.begin(), sim_fp.end());
  if (serving) serving->report();
}

}  // namespace perfbench
