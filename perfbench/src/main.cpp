// swATOP benchmark program.
//
//   perfbench --workload <cold_compile_b8|warm_resnet_b1|serve_mix|all>
//             --seed <n> --seconds <s> --trace <0|1> --state-dir <dir>
//
// Runs one workload (or all three, in one process) for about --seconds of
// measured work, checks its outputs, and prints as the last line of stdout
// one JSON object: {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones, and the spans are written to
// <state-dir>/<workload>.trace.json. A traced run of one workload also
// runs the other workloads' traced pipelines, briefly, for the layers its
// own pipeline does not exercise. Exit status is 0 only when every check
// passed.
//
// Determinism: each workload compares every iteration's simulated results,
// counts and chosen schedules with its first iteration's, and main compares
// the run's fingerprint with the one an earlier run of the same binary
// left in <state-dir>/golden/ (serve_mix per seed, since its traffic
// depends on it).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "bench.hpp"

namespace {

using perfbench::Args;
using perfbench::Fingerprint;
using perfbench::Result;
using perfbench::Tracer;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<cold_compile_b8|warm_resnet_b1|serve_mix|all> --seed <n> "
               "--seconds <s> --trace <0|1> --state-dir <dir>\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0') usage("--seed takes an integer");
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || !(a.seconds > 0.0))
        usage("--seconds takes a positive number");
    } else if (k == "--trace") {
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      a.trace = v == "1";
    } else if (k == "--state-dir") {
      a.state_dir = v;
    } else {
      usage(("unknown argument " + k).c_str());
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (a.state_dir.empty()) usage("--state-dir is required");
  return a;
}

std::string fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : s) h = (h ^ c) * 1099511628211ULL;
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

/// Compare the run's fingerprint with an earlier run's, or record it.
void cross_run_check(const Args& a, const std::string& workload,
                     Result& out) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(a.state_dir) / "golden";
  fs::create_directories(dir);
  std::string name = workload + (a.trace ? ".trace" : "");
  if (workload == "serve_mix") name += ".seed" + std::to_string(a.seed);
  const fs::path path = dir / (name + ".txt");
  std::ostringstream now;
  for (const auto& [k, v] : out.fingerprint)
    now << k << '\t' << fnv1a(v) << '\n';
  out.attempt();
  if (fs::exists(path)) {
    std::ifstream f(path);
    std::stringstream before;
    before << f.rdbuf();
    if (before.str() != now.str())
      out.fail(workload + ": simulated results differ from an earlier run "
               "of the same binary (" + path.string() + ")");
    return;
  }
  const fs::path tmp = path.string() + ".tmp";
  std::ofstream(tmp) << now.str();
  fs::rename(tmp, path);
}

/// Run one workload's pipeline; a traced run writes its spans to
/// `trace_path`.
Result run_one(const Args& a, const std::string& workload,
               const std::string& trace_path) {
  Result out;
  Tracer tracer(a.trace);
  if (workload == "cold_compile_b8")
    perfbench::run_cold_compile(a, tracer, out);
  else if (workload == "warm_resnet_b1")
    perfbench::run_warm_resnet(a, tracer, out);
  else if (workload == "serve_mix")
    perfbench::run_serve_mix(a, tracer, out);
  else
    usage(("unknown workload " + workload).c_str());
  if (!a.trace) out.metric("peak_rss_mb", perfbench::peak_rss_mb(), "MB");
  cross_run_check(a, workload, out);
  if (a.trace && !tracer.write_chrome(trace_path))
    out.fail("cannot write " + trace_path);
  for (const auto& [k, m] : out.metrics())
    if (!std::isfinite(m.first)) out.fail(k + " is not a finite number");
  return out;
}

/// The other workloads' runs in the fill-in of a traced run are short:
/// one set-up and one timed iteration each.
constexpr double kFillSeconds = 1e-3;

/// One workload's result. A traced run first measures every layer its own
/// pipeline exercises; the layers it does not exercise are then measured
/// on the pipelines of the other workloads, short and traced, so every
/// workload reports every per-layer metric.
Result run_workload(const Args& a, const std::string& workload,
                    const std::vector<std::string>& all) {
  Result out =
      run_one(a, workload, a.state_dir + "/" + workload + ".trace.json");
  if (!a.trace || a.workload == "all") return out;
  Args fill = a;
  fill.seconds = kFillSeconds;
  fill.setup_reps = 1;
  for (const std::string& other : all) {
    if (other == workload) continue;
    out.fill_from(run_one(fill, other,
                          a.state_dir + "/" + workload + ".fill." + other +
                              ".trace.json"));
  }
  return out;
}

void print_table(const std::string& workload, const Result& r) {
  std::fprintf(stderr, "%s: %lld checked operations, %lld failed\n",
               workload.c_str(), static_cast<long long>(r.attempted()),
               static_cast<long long>(r.failed()));
  for (const auto& [k, m] : r.metrics())
    std::fprintf(stderr, "  %-44s %16.6g %s\n", k.c_str(), m.first,
                 m.second.c_str());
}

std::string json(bool correct, std::int64_t attempted, std::int64_t failed,
                 const std::vector<std::pair<std::string, const Result*>>& rs) {
  std::ostringstream o;
  o << "{\"correct\": " << (correct ? "true" : "false")
    << ", \"attempted\": " << attempted << ", \"failed\": " << failed
    << ", \"metrics\": {";
  bool first = true;
  char buf[64];
  for (const auto& [prefix, r] : rs)
    for (const auto& [k, m] : r->metrics()) {
      std::snprintf(buf, sizeof buf, "%.17g",
                    std::isfinite(m.first) ? m.first : 0.0);
      o << (first ? "" : ", ") << '"' << prefix << k << "\": {\"value\": "
        << buf << ", \"unit\": \"" << m.second << "\"}";
      first = false;
    }
  o << "}}";
  return o.str();
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse(argc, argv);
  const std::vector<std::string> all = {"cold_compile_b8", "warm_resnet_b1",
                                        "serve_mix"};
  std::vector<std::string> workloads = {a.workload};
  if (a.workload == "all") workloads = all;
  try {
    std::filesystem::create_directories(a.state_dir);
    // The inputs the numbers depend on.
    std::fprintf(stderr,
                 "perfbench: workload %s, seed %llu, %.6g s, trace %d, "
                 "tune_threads %d (1 in the traced decomposition), %d core "
                 "groups, %d set-ups\n",
                 a.workload.c_str(), static_cast<unsigned long long>(a.seed),
                 a.seconds, a.trace ? 1 : 0, perfbench::kTuneThreads,
                 perfbench::kGroups, a.setup_reps);
    std::vector<Result> results;
    for (const std::string& w : workloads) {
      results.push_back(run_workload(a, w, all));
      print_table(w, results.back());
    }
    bool correct = true;
    std::int64_t attempted = 0, failed = 0;
    std::vector<std::pair<std::string, const Result*>> rs;
    for (std::size_t i = 0; i < results.size(); ++i) {
      correct = correct && results[i].correct();
      attempted += results[i].attempted();
      failed += results[i].failed();
      rs.emplace_back(workloads.size() > 1 ? workloads[i] + "/" : "",
                      &results[i]);
    }
    std::printf("%s\n", json(correct, attempted, failed, rs).c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
