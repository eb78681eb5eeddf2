#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cctype>
#include <cstdio>
#include <fstream>
#include <set>

#include "common/check.hpp"
#include "graph/build.hpp"
#include "graph/compile.hpp"
#include "graph/fuse.hpp"
#include "graph/memory_plan.hpp"
#include "graph/net_report.hpp"
#include "ops/explicit_conv.hpp"
#include "ops/implicit_conv.hpp"

namespace perfbench {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

void print_samples(const char* name, const std::vector<double>& v) {
  std::fprintf(stderr, "  %s samples:", name);
  for (double x : v) std::fprintf(stderr, " %.4g", x);
  std::fprintf(stderr, "\n");
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string exact(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

void Result::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_[name] = {value, unit};
}

void Result::fail(const std::string& why) {
  ++failed_;
  std::fprintf(stderr, "FAIL: %s\n", why.c_str());
}

void Result::fill_from(const Result& other) {
  attempted_ += other.attempted_;
  failed_ += other.failed_;
  for (const auto& [k, m] : other.metrics_) metrics_.emplace(k, m);
}

Tracer::Scope::Scope(Tracer* t, const std::string& name) : t_(t) {
  if (t_ == nullptr) return;
  Span s;
  s.name = name;
  s.start_ns = t_->now_ns();
  s.parent = t_->open_.empty() ? -1 : t_->open_.back();
  t_->spans_.push_back(std::move(s));
  t_->open_.push_back(static_cast<int>(t_->spans_.size()) - 1);
}

Tracer::Scope::~Scope() {
  if (t_ == nullptr) return;
  t_->spans_[static_cast<std::size_t>(t_->open_.back())].end_ns =
      t_->now_ns();
  t_->open_.pop_back();
}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              t0_)
      .count();
}

std::map<std::string, double> Tracer::self_seconds() const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_)
    if (s.parent >= 0)
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    out[spans_[i].name] +=
        1e-9 * static_cast<double>(spans_[i].end_ns - spans_[i].start_ns -
                                   child_ns[i]);
  return out;
}

std::map<std::string, double> Tracer::total_seconds() const {
  std::map<std::string, double> out;
  for (const Span& s : spans_)
    out[s.name] += 1e-9 * static_cast<double>(s.end_ns - s.start_ns);
  return out;
}

double Tracer::of(const std::map<std::string, double>& m,
                  const std::string& name) {
  const auto it = m.find(name);
  return it == m.end() ? 0.0 : it->second;
}

bool Tracer::write_chrome(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  f << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buf[512];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                  "\"parent\":%d}}",
                  i ? "," : "", s.name.c_str(), 1e-3 * s.start_ns,
                  1e-3 * static_cast<double>(s.end_ns - s.start_ns), i,
                  s.parent);
    f << buf;
  }
  f << "\n]}\n";
  return static_cast<bool>(f);
}

swatop::SwatopConfig base_config(int tune_threads) {
  swatop::SwatopConfig cfg;
  cfg.tune_threads = tune_threads;
  return cfg;
}

void fingerprint_net(Fingerprint& fp, const std::string& prefix,
                     const swatop::graph::NetRunResult& r) {
  fp[prefix + ".cycles"] = exact(r.cycles);
  fp[prefix + ".sync_cycles"] = exact(r.sync_cycles);
  fp[prefix + ".flops"] = std::to_string(r.flops);
  fp[prefix + ".dma_bytes"] = std::to_string(r.chip_stats.dma_bytes_requested);
  fp[prefix + ".dma_wasted"] = std::to_string(r.chip_stats.dma_bytes_wasted);
  fp[prefix + ".dma_elided"] = std::to_string(r.dma_bytes_elided);
  fp[prefix + ".planned_peak"] = std::to_string(r.planned_peak_floats);
  fp[prefix + ".convs_fused"] = std::to_string(r.fusion.convs_fused);
  fp[prefix + ".resident"] = std::to_string(r.resident_tensors);
  fp[prefix + ".shapes_tuned"] = std::to_string(r.shapes_tuned);
  fp[prefix + ".cache_hits"] = std::to_string(r.cache_hits);
  for (const swatop::graph::LayerReport& lr : r.layers)
    fp[prefix + ".layer." + lr.name] = exact(lr.cycles);
}

std::map<std::string, std::string> chosen_strategies(
    const swatop::tune::Journal& j) {
  std::map<std::string, std::string> out;
  for (const swatop::tune::JournalEntry& e : j.entries())
    if (e.chosen) out[e.op] = e.strategy;
  return out;
}

std::map<std::string, swatop::graph::NetRunResult> sim_companion(
    const std::vector<std::string>& nets, std::int64_t batch,
    Fingerprint& fp) {
  using namespace swatop;
  graph::NetOptions o;
  o.groups = kGroups;
  o.mode = sim::ExecMode::TimingOnly;
  std::map<std::string, graph::NetRunResult> runs;
  for (const std::string& n : nets) {
    CompiledNet net = swatop::compile(graph::build_net(n), base_config());
    graph::NetRunResult r = net.run(batch, o);
    fingerprint_net(fp, "sim." + n + ".b" + std::to_string(batch), r);
    runs.emplace(n, std::move(r));
  }
  return runs;
}

void sim_metrics(Result& out,
                 const std::map<std::string, swatop::graph::NetRunResult>& runs) {
  double flops = 0.0, sim_s = 0.0;
  for (const auto& [n, r] : runs) {
    out.metric("sim_ms_per_image." + n, r.ms_per_image, "sim_ms");
    flops += static_cast<double>(r.flops);
    sim_s += r.ms_per_batch * 1e-3;
  }
  out.metric("sim_gflops", flops / sim_s * 1e-9, "sim_GFLOPS");
}

LayerOps layer_ops(const swatop::graph::Graph& g, std::int64_t batch,
                   Tracer& tr) {
  using namespace swatop;
  // The engine's rules: batch sliced evenly over min(groups, batch) core
  // groups; implicit GEMM wherever it applies (and only there are
  // epilogues fused), explicit GEMM with im2col transients elsewhere.
  const std::int64_t groups = std::min<std::int64_t>(kGroups, batch);
  SWATOP_CHECK(batch % groups == 0) << "uneven batch slices";
  const std::int64_t sub = batch / groups;
  LayerOps out;
  graph::Graph fg("");
  {
    auto s = tr.span("graph.fuse");
    fg = graph::fuse_epilogues(g, nullptr, [&](const graph::Node& n) {
      return ops::ImplicitConvOp::applicable(g.conv_shape(n, batch));
    });
  }
  auto s = tr.span("graph.plan");
  const std::vector<int> order = fg.topo_order();
  std::vector<graph::Transient> transients;
  std::set<std::string> seen;
  for (std::size_t step = 0; step < order.size(); ++step) {
    const graph::Node& n = fg.nodes()[static_cast<std::size_t>(order[step])];
    if (n.kind != graph::NodeKind::Conv) continue;
    const ops::ConvShape cs = fg.conv_shape(n, sub);
    std::unique_ptr<dsl::OperatorDef> op;
    if (ops::ImplicitConvOp::applicable(cs)) {
      op = std::make_unique<ops::ImplicitConvOp>(cs, n.epilogue);
    } else {
      op = std::make_unique<ops::ExplicitConvOp>(cs);
      const std::int64_t K = cs.ni * cs.kr * cs.kc;
      const std::int64_t N = cs.batch * cs.ro() * cs.co();
      const int st = static_cast<int>(step);
      transients.push_back({n.name + ":dcol", K * N, st});
      transients.push_back({n.name + ":outmat", cs.no * N, st});
    }
    if (seen.insert(op->name()).second) out.ops.push_back(std::move(op));
  }
  out.planned_peak_floats =
      groups * graph::plan_memory(fg, sub, transients).peak_floats;
  return out;
}

std::string kernel_name(const std::string& op_name) {
  std::string k = "swatop_" + op_name;
  for (char& c : k)
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  return k;
}

void net_layer_metrics(Result& out,
                       const std::vector<swatop::graph::NetRunResult>& runs,
                       const std::vector<std::string>& names) {
  using swatop::obs::AttrCat;
  double basis = 0.0;
  std::array<double, swatop::obs::kAttrCats> cat{};
  double requested = 0.0, wasted = 0.0, flops = 0.0, elided = 0.0;
  double fused = 0.0, resident = 0.0, peak_mb = 0.0, sync = 0.0;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const swatop::graph::NetRunResult& r = runs[i];
    const swatop::obs::Attribution a = swatop::graph::net_attribution(r);
    for (int c = 0; c < swatop::obs::kAttrCats; ++c) cat[c] += a.cycles[c];
    // The basis is the whole chip: core groups a small batch leaves idle
    // count as imbalance rather than shrinking the denominator.
    basis += r.cycles * kGroups;
    cat[static_cast<int>(AttrCat::Imbalance)] +=
        r.cycles * (kGroups - r.groups_used);
    requested += static_cast<double>(r.chip_stats.dma_bytes_requested);
    wasted += static_cast<double>(r.chip_stats.dma_bytes_wasted);
    flops += static_cast<double>(r.flops);
    elided += static_cast<double>(r.dma_bytes_elided);
    fused += r.fusion.convs_fused;
    resident += static_cast<double>(r.resident_tensors);
    peak_mb += static_cast<double>(r.planned_peak_floats) * 4.0 / 1048576.0;
    sync += r.sync_cycles;
    for (const swatop::graph::LayerReport& lr : r.layers)
      if (lr.conv)
        out.metric("graph.layer." + names[i] + "." + lr.name + ".cycles",
                   lr.cycles, "sim_cycles");
  }
  auto share = [&](std::initializer_list<AttrCat> cs) {
    double s = 0.0;
    for (AttrCat c : cs) s += cat[static_cast<int>(c)];
    return basis > 0.0 ? s / basis : 0.0;
  };
  out.metric("sim.kernel_share",
             share({AttrCat::KernelIssue, AttrCat::KernelRawStall,
                    AttrCat::RegComm}),
             "ratio");
  out.metric("sim.dma_wait_share", share({AttrCat::DmaWait}), "ratio");
  out.metric("sim.dma_queue_wait_share", share({AttrCat::DmaQueueWait}),
             "ratio");
  out.metric("sim.barrier_share", share({AttrCat::Barrier}), "ratio");
  out.metric("sim.imbalance_share", share({AttrCat::Imbalance}), "ratio");
  out.metric("sim.dma_bytes", requested, "bytes");
  out.metric("sim.dma_waste_ratio",
             requested + wasted > 0.0 ? wasted / (requested + wasted) : 0.0,
             "ratio");
  out.metric("sim.flop_per_byte",
             requested + wasted > 0.0 ? flops / (requested + wasted) : 0.0,
             "flop/B");
  out.metric("graph.convs_fused", fused, "count");
  out.metric("graph.resident_tensors", resident, "count");
  out.metric("graph.dma_bytes_elided", elided, "bytes");
  out.metric("graph.planned_peak_mb", peak_mb, "sim_MB");
  out.metric("graph.sync_cycles", sync, "sim_cycles");
}

}  // namespace perfbench
