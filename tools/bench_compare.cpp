// bench_compare: diff two BENCH_<name>.json files (written by the shared
// bench_util emitter) or two directories of them, metric by metric, with a
// relative-tolerance gate. CI runs the fast benches and compares against the
// checked-in baselines under bench/baselines/ so simulator-visible
// performance regressions fail the build instead of drifting silently.
//
// Usage:
//   bench_compare <baseline.json> <current.json> [options]
//   bench_compare --dir <baseline_dir> <current_dir> [options]
// Options:
//   --tol F             default relative tolerance (default 0.05)
//   --tol-metric M=F    per-metric tolerance override (repeatable)
//   --include-time      also gate wall-clock metrics (names containing
//                       "seconds"; skipped by default -- host-time is noisy)
//
// Cases are matched by name. A case or metric present in the baseline but
// missing from the current run is a failure; extra cases/metrics in the
// current run are reported but pass (they become part of the baseline when
// it is refreshed). Exit: 0 pass, 1 regression/missing data, 2 usage/IO.
#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "cli.hpp"

namespace {

// ---------------------------------------------------------------- JSON ----
// Minimal recursive-descent parser for the BenchJson subset (objects,
// arrays, strings, numbers, true/false/null). No dependencies.
struct JsonValue {
  enum class Kind { Null, Bool, Number, String, Array, Object } kind =
      Kind::Null;
  bool b = false;
  double num = 0.0;
  std::string str;
  std::vector<JsonValue> arr;
  std::vector<std::pair<std::string, JsonValue>> obj;

  const JsonValue* find(const std::string& key) const {
    for (const auto& [k, v] : obj)
      if (k == key) return &v;
    return nullptr;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  bool parse(JsonValue& out) {
    skip_ws();
    if (!value(out)) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])))
      ++pos_;
  }
  bool literal(const char* lit) {
    const std::size_t n = std::string(lit).size();
    if (s_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }
  bool value(JsonValue& out) {
    if (pos_ >= s_.size()) return false;
    const char c = s_[pos_];
    if (c == '{') return object(out);
    if (c == '[') return array(out);
    if (c == '"') {
      out.kind = JsonValue::Kind::String;
      return string(out.str);
    }
    if (c == 't') {
      out.kind = JsonValue::Kind::Bool;
      out.b = true;
      return literal("true");
    }
    if (c == 'f') {
      out.kind = JsonValue::Kind::Bool;
      out.b = false;
      return literal("false");
    }
    if (c == 'n') {
      out.kind = JsonValue::Kind::Null;
      return literal("null");
    }
    return number(out);
  }
  bool string(std::string& out) {
    if (s_[pos_] != '"') return false;
    ++pos_;
    out.clear();
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (c == '\\' && pos_ < s_.size()) {
        const char e = s_[pos_++];
        switch (e) {
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          default: c = e; break;  // \" \\ \/ and anything else: literal
        }
      }
      out += c;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }
  bool number(JsonValue& out) {
    const std::size_t start = pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '-' || s_[pos_] == '+' || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E'))
      ++pos_;
    if (pos_ == start) return false;
    out.kind = JsonValue::Kind::Number;
    out.num = std::strtod(s_.substr(start, pos_ - start).c_str(), nullptr);
    return true;
  }
  bool array(JsonValue& out) {
    out.kind = JsonValue::Kind::Array;
    ++pos_;  // '['
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      JsonValue v;
      skip_ws();
      if (!value(v)) return false;
      out.arr.push_back(std::move(v));
      skip_ws();
      if (pos_ >= s_.size()) return false;
      if (s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (s_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }
  bool object(JsonValue& out) {
    out.kind = JsonValue::Kind::Object;
    ++pos_;  // '{'
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      std::string key;
      if (pos_ >= s_.size() || !string(key)) return false;
      skip_ws();
      if (pos_ >= s_.size() || s_[pos_] != ':') return false;
      ++pos_;
      skip_ws();
      JsonValue v;
      if (!value(v)) return false;
      out.obj.emplace_back(std::move(key), std::move(v));
      skip_ws();
      if (pos_ >= s_.size()) return false;
      if (s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (s_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

// ----------------------------------------------------------- bench data ----
struct BenchCase {
  std::map<std::string, double> metrics;  // includes "cycles" when > 0
};

struct BenchFile {
  std::string name;
  std::map<std::string, BenchCase> cases;  // by case name; ordered
};

bool load_bench(const std::string& path, BenchFile& out) {
  std::ifstream f(path);
  if (!f) {
    std::fprintf(stderr, "bench_compare: cannot open %s\n", path.c_str());
    return false;
  }
  std::ostringstream buf;
  buf << f.rdbuf();
  const std::string text = buf.str();
  JsonValue root;
  if (!JsonParser(text).parse(root) ||
      root.kind != JsonValue::Kind::Object) {
    std::fprintf(stderr, "bench_compare: %s: parse error\n", path.c_str());
    return false;
  }
  if (const JsonValue* n = root.find("name")) out.name = n->str;
  const JsonValue* cases = root.find("cases");
  if (cases == nullptr || cases->kind != JsonValue::Kind::Array) {
    std::fprintf(stderr, "bench_compare: %s: no \"cases\" array\n",
                 path.c_str());
    return false;
  }
  for (const JsonValue& c : cases->arr) {
    const JsonValue* cname = c.find("name");
    if (cname == nullptr) continue;
    BenchCase bc;
    if (const JsonValue* m = c.find("metrics"))
      for (const auto& [k, v] : m->obj)
        if (v.kind == JsonValue::Kind::Number) bc.metrics[k] = v.num;
    if (const JsonValue* cy = c.find("cycles"))
      if (cy->kind == JsonValue::Kind::Number && cy->num > 0.0)
        bc.metrics["cycles"] = cy->num;
    out.cases[cname->str] = std::move(bc);
  }
  return true;
}

// ------------------------------------------------------------- compare ----
struct Options {
  double tol = 0.05;
  std::map<std::string, double> metric_tol;
  bool include_time = false;
};

bool is_time_metric(const std::string& name) {
  return name.find("seconds") != std::string::npos;
}

double tol_for(const Options& opt, const std::string& metric) {
  const auto it = opt.metric_tol.find(metric);
  return it != opt.metric_tol.end() ? it->second : opt.tol;
}

/// Returns the number of failures (0 == pass for this pair of files).
int compare_files(const BenchFile& base, const BenchFile& cur,
                  const Options& opt) {
  int failures = 0;
  int checked = 0, skipped = 0;
  for (const auto& [case_name, bcase] : base.cases) {
    const auto cit = cur.cases.find(case_name);
    if (cit == cur.cases.end()) {
      std::printf("  FAIL %s: case missing from current run\n",
                  case_name.c_str());
      ++failures;
      continue;
    }
    for (const auto& [metric, bval] : bcase.metrics) {
      if (!opt.include_time && is_time_metric(metric)) {
        ++skipped;
        continue;
      }
      const auto mit = cit->second.metrics.find(metric);
      if (mit == cit->second.metrics.end()) {
        std::printf("  FAIL %s.%s: metric missing from current run\n",
                    case_name.c_str(), metric.c_str());
        ++failures;
        continue;
      }
      ++checked;
      const double cval = mit->second;
      const double tol = tol_for(opt, metric);
      // Non-finite values can never pass a tolerance gate silently: every
      // comparison against NaN is false, which would read as "within
      // tolerance" here.
      if (!std::isfinite(bval) || !std::isfinite(cval)) {
        std::printf("  FAIL %s.%s: non-finite value (baseline %g, "
                    "current %g)\n",
                    case_name.c_str(), metric.c_str(), bval, cval);
        ++failures;
        continue;
      }
      if (std::abs(bval) <= 1e-12) {
        // Zero-valued baseline (e.g. dma_bytes_elided in the fusion-off
        // ablation): a relative diff is meaningless -- dividing by a
        // stand-in denominator of 1.0 would compare an *absolute* diff
        // against the *relative* tolerance, silently passing huge
        // regressions on large-magnitude metrics and spuriously failing
        // tiny jitter on small ones. Gate absolutely instead: any value
        // distinguishable from zero is a change.
        if (std::abs(cval) > 1e-9) {
          std::printf("  FAIL %s.%s: zero baseline but current %g\n",
                      case_name.c_str(), metric.c_str(), cval);
          ++failures;
        }
        continue;
      }
      const double rel = (cval - bval) / std::abs(bval);
      if (std::abs(rel) > tol) {
        std::printf("  FAIL %s.%s: %g -> %g (%+.2f%%, tol %.2f%%)\n",
                    case_name.c_str(), metric.c_str(), bval, cval,
                    rel * 100.0, tol * 100.0);
        ++failures;
      }
    }
  }
  for (const auto& [case_name, ccase] : cur.cases) {
    (void)ccase;
    if (base.cases.find(case_name) == base.cases.end())
      std::printf("  note %s: new case (not in baseline)\n",
                  case_name.c_str());
  }
  std::printf("%s: %d metric(s) checked, %d time metric(s) skipped, "
              "%d failure(s)\n",
              base.name.empty() ? "(unnamed)" : base.name.c_str(), checked,
              skipped, failures);
  return failures;
}

void usage() {
  std::fprintf(
      stderr,
      "usage: bench_compare <baseline.json> <current.json> [options]\n"
      "       bench_compare --dir <baseline_dir> <current_dir> [options]\n"
      "options: --tol F | --tol-metric NAME=F | --include-time\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> positional;
  Options opt;
  bool dir_mode = false;
  swatop::cli::Args args(argc, argv, usage);
  while (args.more()) {
    const std::string a = args.pop("argument");
    if (a == "--dir") {
      dir_mode = true;
    } else if (a == "--tol") {
      opt.tol = args.real(a, args.value(a));
    } else if (a == "--tol-metric") {
      const std::string kv = args.value(a);
      const auto eq = kv.find('=');
      if (eq == std::string::npos)
        args.fail("--tol-metric expects NAME=F, got '" + kv + "'");
      opt.metric_tol[kv.substr(0, eq)] = args.real(a, kv.substr(eq + 1));
    } else if (a == "--include-time") {
      opt.include_time = true;
    } else if (!a.empty() && a[0] == '-') {
      args.fail("unknown option '" + a + "'");
    } else {
      positional.push_back(a);
    }
  }
  if (positional.size() != 2) args.fail("expected two paths");

  int failures = 0;
  if (dir_mode) {
    // Compare every BENCH_*.json in the baseline dir against its namesake
    // in the current dir. Extra files in the current dir are fine.
    namespace fs = std::filesystem;
    std::vector<std::string> names;
    for (const auto& e : fs::directory_iterator(positional[0])) {
      const std::string fn = e.path().filename().string();
      if (fn.rfind("BENCH_", 0) == 0 &&
          fn.size() > 5 && fn.substr(fn.size() - 5) == ".json")
        names.push_back(fn);
    }
    if (names.empty()) {
      std::fprintf(stderr, "bench_compare: no BENCH_*.json in %s\n",
                   positional[0].c_str());
      return 2;
    }
    std::sort(names.begin(), names.end());
    for (const std::string& fn : names) {
      BenchFile base, cur;
      if (!load_bench(positional[0] + "/" + fn, base)) return 2;
      if (!load_bench(positional[1] + "/" + fn, cur)) {
        std::printf("  FAIL %s: missing from current directory\n",
                    fn.c_str());
        ++failures;
        continue;
      }
      failures += compare_files(base, cur, opt);
    }
  } else {
    BenchFile base, cur;
    if (!load_bench(positional[0], base) || !load_bench(positional[1], cur))
      return 2;
    failures += compare_files(base, cur, opt);
  }

  if (failures > 0) {
    std::printf("bench_compare: FAIL (%d)\n", failures);
    return 1;
  }
  std::printf("bench_compare: PASS\n");
  return 0;
}
