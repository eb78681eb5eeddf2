#include "tune/tuner.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <limits>
#include <memory>
#include <numeric>
#include <thread>

#include "common/check.hpp"
#include "rt/bind.hpp"
#include "rt/interpreter.hpp"

namespace swatop::tune {

namespace {

double now_seconds() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch())
      .count();
}

/// The surviving strategies of one sweep and their cost-model estimates.
struct Ranked {
  std::vector<dsl::Strategy> strategies;  ///< survivors, enumeration order
  std::vector<std::string> texts;  ///< their to_string(), when journaled
  std::vector<double> est;         ///< index-aligned estimates
  obs::SweepCounts counts;
};

/// The model tuner's streamed sweep. Each worker owns a CostModel (its
/// DMA-cost memo is not shareable), frees every program it built as soon as
/// the estimate is taken, and keeps only a survivor's strategy (formatted
/// there too when `texts` is set), so the calling thread only gathers.
Ranked rank_sweep(const dsl::OperatorDef& op,
                  const sched::SchedulerOptions& opts,
                  const sim::SimConfig& cfg, bool texts) {
  struct Row {
    bool kept = false;
    double est = 0.0;
    dsl::Strategy strategy;
    std::string text;
  };
  std::vector<Row> rows(static_cast<std::size_t>(op.space().size()));
  const GemmCostModel& gm = gemm_cost_model(cfg);
  Ranked r;
  r.counts = sched::Scheduler(cfg).sweep(op, opts, [&] {
    return [&rows, texts, model = std::make_shared<const CostModel>(cfg, gm)](
               std::size_t i, dsl::Strategy& s, ir::StmtPtr& prog, bool) {
      Row& row = rows[i];
      row.kept = true;
      row.est = model->estimate(prog).total();
      if (texts) row.text = s.to_string();
      row.strategy = std::move(s);
    };
  });
  SWATOP_CHECK(r.counts.kept > 0)
      << "no valid schedule candidate for " << op.name();
  const auto kept = static_cast<std::size_t>(r.counts.kept);
  r.strategies.reserve(kept);
  r.est.reserve(kept);
  if (texts) r.texts.reserve(kept);
  for (Row& row : rows) {
    if (!row.kept) continue;
    r.strategies.push_back(std::move(row.strategy));
    r.est.push_back(row.est);
    if (texts) r.texts.push_back(std::move(row.text));
  }
  return r;
}

/// Index of the first minimum: ties break towards the lower index.
std::size_t first_min(const std::vector<double>& v) {
  double best = std::numeric_limits<double>::infinity();
  std::size_t best_i = 0;
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (v[i] < best) {
      best = v[i];
      best_i = i;
    }
  }
  return best_i;
}

/// Rank positions (0 = best) implied by an index-aligned score vector;
/// ties break towards the lower index, so ranks are deterministic.
std::vector<std::int64_t> ranks_by_score(const std::vector<double>& score) {
  std::vector<std::size_t> idx(score.size());
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  std::stable_sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
    return score[a] < score[b];
  });
  std::vector<std::int64_t> rank(score.size());
  for (std::size_t r = 0; r < idx.size(); ++r)
    rank[idx[r]] = static_cast<std::int64_t>(r);
  return rank;
}

/// Append one row per candidate (in index order, from the calling thread),
/// given its strategy's to_string(). `predicted`/`measured` may be empty;
/// missing values journal as -1.
void journal_candidates(Journal* journal, const dsl::OperatorDef& op,
                        const char* phase,
                        const std::vector<std::string>& texts,
                        const std::vector<double>& predicted,
                        const std::vector<double>& measured,
                        const std::vector<std::int64_t>& rank,
                        std::size_t chosen_i) {
  const std::string name = op.name();
  for (std::size_t i = 0; i < texts.size(); ++i) {
    JournalEntry e;
    e.op = name;
    e.phase = phase;
    e.strategy = texts[i];
    e.index = static_cast<std::int64_t>(i);
    e.rank = rank[i];
    e.predicted = i < predicted.size() ? predicted[i] : -1.0;
    e.measured = i < measured.size() ? measured[i] : -1.0;
    e.chosen = i == chosen_i;
    journal->append(std::move(e));
  }
}

}  // namespace

void tune_phase_span(obs::Recorder* rec, const char* name, double us0,
                     double us1, std::int64_t count) {
  obs::TraceEvent ev;
  ev.name = name;
  ev.cat = obs::Category::Tune;
  ev.pid = 1;
  ev.tid = obs::Track::kTuner;
  ev.ts = us0;
  ev.dur = us1 > us0 ? us1 - us0 : 0.0;
  if (count >= 0) {
    ev.arg_name[0] = "candidates";
    ev.arg[0] = count;
  }
  rec->trace_event(std::move(ev));
}

double measure_candidate(const dsl::OperatorDef& op,
                         const sched::Candidate& cand,
                         const sim::SimConfig& cfg) {
  sim::CoreGroup cg(cfg);
  cg.mem().set_materialize(false);
  const dsl::BoundTensors bt = rt::bind_tensors(cg, op);
  rt::Interpreter interp(cg, sim::ExecMode::TimingOnly);
  return interp.run(cand.program, bt).cycles;
}

sched::Candidate build_candidate(const dsl::OperatorDef& op,
                                 const dsl::Strategy& s,
                                 const sim::SimConfig& cfg,
                                 const opt::OptOptions& oo) {
  ir::StmtPtr prog = op.lower(s);
  SWATOP_CHECK(prog != nullptr)
      << "strategy " << s.to_string() << " invalid for " << op.name();
  opt::OptOptions o = oo;
  o.prefetch = oo.prefetch && op.prefetch_enabled(s);
  SWATOP_CHECK(opt::optimize(prog, cfg, o))
      << "strategy " << s.to_string() << " pruned for " << op.name();
  return {s, std::move(prog), o.prefetch};
}

sched::Candidate build_candidate(const dsl::OperatorDef& op,
                                 const dsl::Strategy& s,
                                 const sim::SimConfig& cfg, bool prefetch) {
  opt::OptOptions o;
  o.prefetch = prefetch;
  return build_candidate(op, s, cfg, o);
}

double measure_strategy(const dsl::OperatorDef& op, const dsl::Strategy& s,
                        const sim::SimConfig& cfg, bool prefetch) {
  return measure_candidate(op, build_candidate(op, s, cfg, prefetch), cfg);
}

ModelTuner::ModelTuner(const sim::SimConfig& cfg) : cfg_(cfg) {}

Tuned ModelTuner::tune(const dsl::OperatorDef& op,
                       const sched::SchedulerOptions& opts,
                       obs::Recorder* rec, Journal* journal) const {
  const double t0 = now_seconds();
  const double w0 = rec ? rec->wall_us() : 0.0;
  const Ranked r = rank_sweep(op, opts, cfg_, journal != nullptr);
  const double w_sweep = rec ? rec->wall_us() : 0.0;
  const std::size_t best_i = first_min(r.est);
  // The workers freed every program; rebuild the winner here, the way a
  // schedule-cache hit does.
  Tuned out;
  out.candidate = build_candidate(op, r.strategies[best_i], cfg_, opts.opt);
  const double w_rebuild = rec ? rec->wall_us() : 0.0;
  if (journal) {
    journal_candidates(journal, op, "model", r.texts, r.est, {},
                       ranks_by_score(r.est), best_i);
    journal->add_sweep(r.counts);
  }
  out.cycles = r.est[best_i];
  out.stats.space_size = op.space().size();
  out.stats.valid_candidates = r.counts.kept;
  out.stats.seconds = now_seconds() - t0;
  if (rec) {
    tune_phase_span(rec, "sweep (lower+optimize+rank)", w0, w_sweep,
                    r.counts.kept);
    tune_phase_span(rec, "rebuild winner", w_sweep, w_rebuild, 1);
    rec->tune().space_size += out.stats.space_size;
    rec->tune().candidates_ranked += out.stats.valid_candidates;
    rec->tune().sweep += r.counts;
    rec->tune().seconds += out.stats.seconds;
    rec->record_tune_sample(
        {out.candidate.strategy.to_string(), out.cycles, -1.0});
  }
  return out;
}

Tuned ModelTuner::tune_top_k(const dsl::OperatorDef& op, int k,
                             const sched::SchedulerOptions& opts,
                             obs::Recorder* rec, Journal* journal) const {
  SWATOP_CHECK(k >= 1) << "tune_top_k with k=" << k;
  const double t0 = now_seconds();
  const double w0 = rec ? rec->wall_us() : 0.0;
  const Ranked r = rank_sweep(op, opts, cfg_, journal != nullptr);
  const std::size_t n = r.est.size();

  // Keep the k best by (estimate, index): the estimates are index-aligned,
  // so the shortlist is stable across thread counts.
  std::vector<std::pair<double, std::size_t>> ranked;
  ranked.reserve(n);
  for (std::size_t i = 0; i < n; ++i) ranked.emplace_back(r.est[i], i);
  const std::size_t keep =
      std::min<std::size_t>(static_cast<std::size_t>(k), n);
  std::partial_sort(ranked.begin(),
                    ranked.begin() + static_cast<std::ptrdiff_t>(keep),
                    ranked.end());
  const double w_sweep = rec ? rec->wall_us() : 0.0;
  if (rec)
    tune_phase_span(rec, "sweep (lower+optimize+rank)", w0, w_sweep,
                    r.counts.kept);

  // Rebuild and measure the shortlist, keeping the measured winner.
  sim::CoreGroup cg(cfg_);
  cg.mem().set_materialize(false);
  const dsl::BoundTensors bt = rt::bind_tensors(cg, op);
  rt::Interpreter interp(cg, sim::ExecMode::TimingOnly);
  std::vector<double> measured(n, -1.0);
  double best = std::numeric_limits<double>::infinity();
  std::size_t best_i = 0;
  Tuned out;
  for (std::size_t q = 0; q < keep; ++q) {
    const std::size_t i = ranked[q].second;
    const double wm0 = rec ? rec->wall_us() : 0.0;
    sched::Candidate cand =
        build_candidate(op, r.strategies[i], cfg_, opts.opt);
    const double t = interp.run(cand.program, bt).cycles;
    measured[i] = t;
    if (rec) {
      tune_phase_span(rec, "measure candidate", wm0, rec->wall_us());
      rec->record_tune_sample({cand.strategy.to_string(), ranked[q].first, t});
    }
    if (q == 0 || t < best) {
      best = t;
      best_i = i;
      out.candidate = std::move(cand);
    }
  }
  if (journal) {
    journal_candidates(journal, op, "top-k", r.texts, r.est, measured,
                       ranks_by_score(r.est), best_i);
    journal->add_sweep(r.counts);
  }
  out.cycles = best;
  out.stats.space_size = op.space().size();
  out.stats.valid_candidates = r.counts.kept;
  out.stats.seconds = now_seconds() - t0;
  if (rec) {
    rec->tune().space_size += out.stats.space_size;
    rec->tune().candidates_ranked += out.stats.valid_candidates;
    rec->tune().candidates_measured += static_cast<std::int64_t>(keep);
    rec->tune().sweep += r.counts;
    rec->tune().seconds += out.stats.seconds;
  }
  return out;
}

BlackBoxTuner::Result BlackBoxTuner::tune(const dsl::OperatorDef& op,
                                          const sched::SchedulerOptions& opts,
                                          obs::Recorder* rec,
                                          Journal* journal) const {
  const double t0 = now_seconds();
  const double w0 = rec ? rec->wall_us() : 0.0;
  const sched::Scheduler sched(cfg_);
  std::vector<sched::Candidate> cands = sched.candidates(op, opts);
  SWATOP_CHECK(!cands.empty())
      << "no valid schedule candidate for " << op.name();
  const double w_enum = rec ? rec->wall_us() : 0.0;
  if (rec)
    tune_phase_span(rec, "enumerate+lower", w0, w_enum,
                    static_cast<std::int64_t>(cands.size()));

  // Candidates are measured independently; fan out across hardware
  // threads, one scratch core group per thread. (The machine under test is
  // simulated, so concurrent measurements do not perturb each other --
  // unlike the real black-box tuner this stands in for.) Workers touch
  // only their own all_measured slots; observability is emitted after the
  // join (see the header's aggregation note).
  Result res;
  res.all_measured.resize(cands.size());
  const unsigned hw = std::thread::hardware_concurrency();
  const std::size_t nthreads = std::max<std::size_t>(
      1, std::min<std::size_t>(hw ? hw : 1, cands.size()));
  std::vector<std::thread> workers;
  std::atomic<std::size_t> next{0};
  for (std::size_t w = 0; w < nthreads; ++w) {
    workers.emplace_back([&] {
      sim::CoreGroup cg(cfg_);
      cg.mem().set_materialize(false);
      const dsl::BoundTensors bt = rt::bind_tensors(cg, op);
      rt::Interpreter interp(cg, sim::ExecMode::TimingOnly);
      for (std::size_t i = next.fetch_add(1); i < cands.size();
           i = next.fetch_add(1))
        res.all_measured[i] = interp.run(cands[i].program, bt).cycles;
    });
  }
  for (std::thread& t : workers) t.join();
  if (rec)
    tune_phase_span(rec, "measure (parallel)", w_enum, rec->wall_us(),
                    static_cast<std::int64_t>(cands.size()));

  const std::size_t best_i = first_min(res.all_measured);
  const double best = res.all_measured[best_i];
  if (rec) {
    for (std::size_t i = 0; i < cands.size(); ++i)
      rec->record_tune_sample(
          {cands[i].strategy.to_string(), -1.0, res.all_measured[i]});
  }
  if (journal) {
    // Rank by measured cycles.
    std::vector<std::string> strategies;
    strategies.reserve(cands.size());
    for (const sched::Candidate& c : cands)
      strategies.push_back(c.strategy.to_string());
    journal_candidates(journal, op, "blackbox", strategies, {},
                       res.all_measured, ranks_by_score(res.all_measured),
                       best_i);
  }
  res.best.candidate = std::move(cands[best_i]);
  res.best.cycles = best;
  res.best.stats.space_size = sched.space_size(op);
  res.best.stats.valid_candidates = static_cast<std::int64_t>(cands.size());
  res.best.stats.seconds = now_seconds() - t0;
  if (rec) {
    rec->tune().space_size += res.best.stats.space_size;
    rec->tune().candidates_measured +=
        static_cast<std::int64_t>(cands.size());
    rec->tune().seconds += res.best.stats.seconds;
  }
  return res;
}

}  // namespace swatop::tune
