// Shared pieces of the swATOP benchmark program: command-line arguments,
// the per-run result (metrics, failures, determinism fingerprint), the
// in-memory span tracer and small statistics helpers.
//
// Every metric carries its clock in its unit: host seconds/MB come from
// std::chrono::steady_clock / getrusage on the machine running the
// benchmark; "sim_*" units are simulated SW26010 time, which is
// deterministic and unvalidated against silicon.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/swatop.hpp"
#include "graph/engine.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0);
double median(std::vector<double> v);
/// Print a metric's samples to stderr (one line, for inspecting noise).
void print_samples(const char* name, const std::vector<double>& v);
/// Peak resident set size of this process so far, in MB (2^20 bytes).
double peak_rss_mb();
/// Exact text of a double (hexfloat), for bit-identity comparisons.
std::string exact(double v);

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for the warm schedule cache, traces and cross-run
  /// determinism records.
  std::string state_dir;
  /// Set-up repetitions; setup_s is their median.
  int setup_reps = 3;
};

/// Values that must repeat bit-for-bit: simulated metrics, counts and
/// chosen schedules, keyed by name.
using Fingerprint = std::map<std::string, std::string>;

class Result {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// One operation whose outputs are checked.
  void attempt(std::int64_t n = 1) { attempted_ += n; }
  /// One checked operation failed; `why` goes to stderr.
  void fail(const std::string& why);
  /// Add another run's checks, and each of its metrics this result lacks.
  void fill_from(const Result& other);

  /// The run-level fingerprint checked against earlier runs of the same
  /// binary (see main.cpp).
  Fingerprint fingerprint;

  bool correct() const { return failed_ == 0 && attempted_ > 0; }
  std::int64_t attempted() const { return attempted_; }
  std::int64_t failed() const { return failed_; }
  const std::map<std::string, std::pair<double, std::string>>& metrics()
      const {
    return metrics_;
  }

 private:
  std::map<std::string, std::pair<double, std::string>> metrics_;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
};

/// In-memory span recorder. Spans nest on one thread: each records its
/// name, start, end and the id of the span open when it began. Disabled
/// tracers record nothing and cost one branch per span.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), t0_(Clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  class Scope {
   public:
    Scope(Tracer* t, const std::string& name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* t_;
  };

  Scope span(const std::string& name) {
    return Scope(enabled_ ? this : nullptr, name);
  }

  /// Self time per span name: duration minus the part its child spans
  /// cover, summed over every span with that name.
  std::map<std::string, double> self_seconds() const;
  /// Total duration per span name.
  std::map<std::string, double> total_seconds() const;
  /// One name's entry of self_seconds() / total_seconds(); 0 if absent.
  static double of(const std::map<std::string, double>& m,
                   const std::string& name);
  /// Chrome trace JSON (complete "X" events, microseconds).
  bool write_chrome(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = -1;
    int parent = -1;
  };
  std::int64_t now_ns() const;

  bool enabled_;
  Clock::time_point t0_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// --- Configuration every workload shares. ---

/// Tuning worker threads: pinned, never "hardware concurrency", so
/// compile times do not depend on the machine's core count.
constexpr int kTuneThreads = 4;
/// Core groups of one SW26010 chip.
constexpr int kGroups = 4;

swatop::SwatopConfig base_config(int tune_threads = kTuneThreads);

/// The simulated-side facts of one whole-net run that must repeat exactly.
void fingerprint_net(Fingerprint& fp, const std::string& prefix,
                     const swatop::graph::NetRunResult& r);
/// op name -> chosen strategy, from a compiled net's tuning journal.
std::map<std::string, std::string> chosen_strategies(
    const swatop::tune::Journal& j);

/// The engine's view of a graph at a batch on kGroups core groups: the
/// distinct conv operators it tunes, in its tuning order, and its planned
/// activation arena summed over groups. Records graph.fuse and graph.plan
/// spans around the two graph passes.
struct LayerOps {
  std::vector<std::unique_ptr<swatop::dsl::OperatorDef>> ops;
  std::int64_t planned_peak_floats = 0;
};
LayerOps layer_ops(const swatop::graph::Graph& g, std::int64_t batch,
                   Tracer& tr);

/// The generated kernel's name for an operator, as the optimizer forms it.
std::string kernel_name(const std::string& op_name);

/// Cold compile + one TimingOnly run of each net at `batch` on kGroups
/// core groups, for the simulated numbers of nets a workload's timed loop
/// does not run. Deterministic; fingerprinted under "sim.<net>.b<batch>".
std::map<std::string, swatop::graph::NetRunResult> sim_companion(
    const std::vector<std::string>& nets, std::int64_t batch,
    Fingerprint& fp);

/// End-to-end simulated metrics of one whole-net run per net:
/// sim_ms_per_image.<net> and sim_gflops (total flops / total sim time).
void sim_metrics(Result& out,
                 const std::map<std::string, swatop::graph::NetRunResult>& runs);

/// Per-layer simulated metrics of a set of whole-net runs: attribution
/// shares of elapsed x the chip's kGroups core groups, DMA traffic,
/// graph-pass counts and one cycles entry per conv layer.
void net_layer_metrics(Result& out,
                       const std::vector<swatop::graph::NetRunResult>& runs,
                       const std::vector<std::string>& names);

/// Workloads. Each fills `out` with metrics and checks; `tracer` is
/// enabled only in traced runs. Untraced, each reports every end-to-end
/// metric, through the companions above where its timed loop does not
/// measure one.
void run_cold_compile(const Args& a, Tracer& tracer, Result& out);
void run_warm_resnet(const Args& a, Tracer& tracer, Result& out);
void run_serve_mix(const Args& a, Tracer& tracer, Result& out);

/// The serving end-to-end metrics (serve_p50_ms, serve_p99_ms,
/// serve_max_rps, serve_host_us_per_req) of a workload whose timed loop
/// does not serve: serve_mix's traffic at the run's seed, priced once on a
/// fresh engine when constructed (untimed), then served over the whole
/// rate ladder once per pass(). Workloads call pass() between the steps of
/// their timed loop, so the serving samples span the run.
class ServeCompanion {
 public:
  ServeCompanion(const Args& a, Result& out);
  ~ServeCompanion();
  ServeCompanion(const ServeCompanion&) = delete;
  ServeCompanion& operator=(const ServeCompanion&) = delete;

  void pass();
  /// Add the serving metrics, and the prices to the fingerprint.
  void report();

 private:
  struct State;
  std::unique_ptr<State> s_;
};

}  // namespace perfbench
