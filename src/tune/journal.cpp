#include "tune/journal.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <numeric>
#include <sstream>

namespace swatop::tune {

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += c;
    }
  }
  return out;
}

/// Fractional (average-on-ties) ranks of `v`, 0-based.
std::vector<double> frac_ranks(const std::vector<double>& v) {
  const std::size_t n = v.size();
  std::vector<std::size_t> idx(n);
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  std::sort(idx.begin(), idx.end(),
            [&](std::size_t a, std::size_t b) { return v[a] < v[b]; });
  std::vector<double> r(n, 0.0);
  for (std::size_t i = 0; i < n;) {
    std::size_t j = i;
    while (j < n && v[idx[j]] == v[idx[i]]) ++j;
    const double avg = static_cast<double>(i + j - 1) / 2.0;
    for (std::size_t k = i; k < j; ++k) r[idx[k]] = avg;
    i = j;
  }
  return r;
}

double pearson(const std::vector<double>& a, const std::vector<double>& b) {
  const std::size_t n = a.size();
  if (n < 2) return 0.0;
  double ma = 0.0, mb = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    ma += a[i];
    mb += b[i];
  }
  ma /= static_cast<double>(n);
  mb /= static_cast<double>(n);
  double sab = 0.0, saa = 0.0, sbb = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    sab += (a[i] - ma) * (b[i] - mb);
    saa += (a[i] - ma) * (a[i] - ma);
    sbb += (b[i] - mb) * (b[i] - mb);
  }
  if (saa <= 0.0 || sbb <= 0.0) return 0.0;
  return sab / std::sqrt(saa * sbb);
}

void append_number_or_null(std::ostringstream& os, double x) {
  if (x < 0.0)
    os << "null";
  else
    os << x;
}

}  // namespace

std::string journal_entry_json(const JournalEntry& e) {
  std::ostringstream os;
  os << "{\"op\": \"" << json_escape(e.op) << "\", \"phase\": \""
     << json_escape(e.phase) << "\", \"strategy\": \""
     << json_escape(e.strategy) << "\", \"index\": " << e.index
     << ", \"rank\": " << e.rank << ", \"predicted\": ";
  append_number_or_null(os, e.predicted);
  os << ", \"measured\": ";
  append_number_or_null(os, e.measured);
  os << ", \"chosen\": " << (e.chosen ? "true" : "false") << "}";
  return os.str();
}

std::string Journal::to_jsonl() const {
  std::string out;
  for (const JournalEntry& e : entries_) {
    out += journal_entry_json(e);
    out += '\n';
  }
  return out;
}

bool Journal::write_jsonl(const std::string& path, bool append) const {
  std::ofstream f(path, append ? std::ios::app : std::ios::trunc);
  if (!f) return false;
  f << to_jsonl();
  return static_cast<bool>(f);
}

ModelErrorStats model_error_stats(const std::vector<JournalEntry>& entries) {
  ModelErrorStats s;
  std::vector<double> pred, meas;
  for (const JournalEntry& e : entries) {
    // Sign tests alone let NaN through (every NaN comparison is false),
    // which would poison the means and break frac_ranks' sort ordering;
    // require finite values explicitly.
    if (!std::isfinite(e.predicted) || !std::isfinite(e.measured)) continue;
    if (e.predicted < 0.0 || e.measured <= 0.0) continue;
    pred.push_back(e.predicted);
    meas.push_back(e.measured);
    const double rel = std::fabs(e.predicted - e.measured) / e.measured;
    s.mean_rel_err += rel;
    s.max_rel_err = std::max(s.max_rel_err, rel);
  }
  s.samples = static_cast<std::int64_t>(pred.size());
  if (s.samples > 0) s.mean_rel_err /= static_cast<double>(s.samples);
  if (s.samples >= 2) s.rank_corr = pearson(frac_ranks(pred), frac_ranks(meas));
  return s;
}

std::vector<double> regret_curve(const std::vector<JournalEntry>& entries) {
  std::vector<double> meas;
  for (const JournalEntry& e : entries)
    if (std::isfinite(e.measured) && e.measured >= 0.0)
      meas.push_back(e.measured);
  std::vector<double> curve;
  curve.reserve(meas.size());
  if (meas.empty()) return curve;
  const double best = *std::min_element(meas.begin(), meas.end());
  double so_far = meas.front();
  for (double m : meas) {
    so_far = std::min(so_far, m);
    curve.push_back(best > 0.0 ? so_far / best - 1.0 : 0.0);
  }
  return curve;
}

namespace {

struct Tallies {
  std::map<std::string, std::int64_t> by_phase;  // ordered -> deterministic
  std::int64_t measured = 0;
  std::int64_t chosen = 0;
  std::int64_t ops = 0;
};

Tallies tally(const std::vector<JournalEntry>& entries) {
  Tallies t;
  std::map<std::string, bool> ops;
  for (const JournalEntry& e : entries) {
    ++t.by_phase[e.phase];
    if (e.measured >= 0.0) ++t.measured;
    if (e.chosen) ++t.chosen;
    ops[e.op] = true;
  }
  t.ops = static_cast<std::int64_t>(ops.size());
  return t;
}

/// Index of the first regret-curve point at (numerical) zero, or -1.
std::int64_t converged_at(const std::vector<double>& curve) {
  for (std::size_t i = 0; i < curve.size(); ++i)
    if (curve[i] <= 1e-12) return static_cast<std::int64_t>(i);
  return -1;
}

}  // namespace

std::string journal_summary(const Journal& j) {
  const std::vector<JournalEntry>& es = j.entries();
  const Tallies t = tally(es);
  const ModelErrorStats err = model_error_stats(es);
  const std::vector<double> curve = regret_curve(es);
  std::ostringstream os;
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "tuning journal: %zu candidates across %lld operator(s), "
                "%lld measured, %lld chosen\n",
                es.size(), static_cast<long long>(t.ops),
                static_cast<long long>(t.measured),
                static_cast<long long>(t.chosen));
  os << buf;
  for (const auto& [phase, n] : t.by_phase) {
    std::snprintf(buf, sizeof buf, "  %-10s %10lld\n", phase.c_str(),
                  static_cast<long long>(n));
    os << buf;
  }
  const obs::SweepCounts& sw = j.sweep();
  if (sw.enumerated > 0) {
    std::snprintf(buf, sizeof buf,
                  "  sweep: %lld strategies, %lld lowered, %lld dropped by "
                  "optimize, %lld ranked\n",
                  static_cast<long long>(sw.enumerated),
                  static_cast<long long>(sw.lowered),
                  static_cast<long long>(sw.dropped),
                  static_cast<long long>(sw.kept));
    os << buf;
  }
  if (err.samples > 0) {
    std::snprintf(buf, sizeof buf,
                  "  model error: mean %.2f%%  max %.2f%%  rank corr %.3f  "
                  "(%lld samples)\n",
                  100.0 * err.mean_rel_err, 100.0 * err.max_rel_err,
                  err.rank_corr, static_cast<long long>(err.samples));
    os << buf;
  }
  if (!curve.empty()) {
    const std::int64_t conv = converged_at(curve);
    std::snprintf(buf, sizeof buf,
                  "  regret: start %.2f%%  final %.2f%%  converged at "
                  "measurement %lld/%zu\n",
                  100.0 * curve.front(), 100.0 * curve.back(),
                  static_cast<long long>(conv + 1), curve.size());
    os << buf;
  }
  return os.str();
}

std::string journal_summary_json(const Journal& j) {
  const std::vector<JournalEntry>& es = j.entries();
  const Tallies t = tally(es);
  const ModelErrorStats err = model_error_stats(es);
  const std::vector<double> curve = regret_curve(es);
  std::ostringstream os;
  os << "{\"entries\": " << es.size() << ", \"operators\": " << t.ops
     << ", \"measured\": " << t.measured << ", \"chosen\": " << t.chosen
     << ", \"phases\": {";
  bool first = true;
  for (const auto& [phase, n] : t.by_phase) {
    if (!first) os << ", ";
    first = false;
    os << '"' << json_escape(phase) << "\": " << n;
  }
  const obs::SweepCounts& sw = j.sweep();
  os << "}, \"sweep\": {\"enumerated\": " << sw.enumerated
     << ", \"lowered\": " << sw.lowered << ", \"dropped\": " << sw.dropped
     << ", \"kept\": " << sw.kept
     << "}, \"model_error\": {\"samples\": " << err.samples
     << ", \"mean_rel_err\": " << err.mean_rel_err
     << ", \"max_rel_err\": " << err.max_rel_err
     << ", \"rank_corr\": " << err.rank_corr << "}, \"regret\": [";
  first = true;
  for (double r : curve) {
    if (!first) os << ", ";
    first = false;
    os << r;
  }
  os << "], \"converged_at\": " << converged_at(curve) << "}";
  return os.str();
}

}  // namespace swatop::tune
