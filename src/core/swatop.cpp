#include "core/swatop.hpp"

#include <cctype>
#include <chrono>

#include "common/check.hpp"
#include "tune/cost_model.hpp"

namespace swatop {

rt::RunResult OptimizedOperator::run(sim::CoreGroup& cg,
                                     const dsl::BoundTensors& bt,
                                     sim::ExecMode mode,
                                     const rt::ResidentSet* resident) const {
  rt::Interpreter interp(cg, mode);
  if (resident != nullptr && !resident->empty())
    interp.set_resident(resident);
  return interp.run(candidate.program, bt);
}

Optimizer::Optimizer(SwatopConfig cfg) : cfg_(cfg) {
  if (cfg_.cache.enabled)
    cache_ = std::make_shared<tune::ScheduleCache>(cfg_.cache);
}

OptimizedOperator Optimizer::optimize(const dsl::OperatorDef& op,
                                      obs::Recorder* rec) const {
  OptimizedOperator out;
  tune::ModelTuner tuner(cfg_.machine);
  const sched::SchedulerOptions sopts = cfg_.scheduler_options();

  // Both the cache-hit and the fresh-tuning path end here: generate the
  // kernel's C source.
  auto finish = [&] {
    codegen::EmitOptions eopts;
    eopts.kernel_name = "swatop_" + op.name();
    for (char& c : eopts.kernel_name)
      if (!isalnum(static_cast<unsigned char>(c))) c = '_';
    out.c_source = codegen::emit_c(out.candidate.program, eopts);
  };

  // Cache fast path: a banked winner is rebuilt directly (one lower +
  // optimize, no space enumeration, no ranking). The file is outside the
  // program, so a banked strategy that is not a member of the operator's
  // space (an edited or corrupt entry) is a miss, like one that no longer
  // lowers cleanly.
  const std::string cache_key =
      cache_ ? tune::ScheduleCache::fingerprint(op.name(), cfg_.machine,
                                                cfg_.tuner_knobs())
             : std::string();
  if (cache_) {
    const double w0 = rec ? rec->wall_us() : 0.0;
    const auto entry = cache_->lookup(cache_key);
    if (entry && op.space().contains(entry->strategy)) {
      try {
        const auto t0 = std::chrono::steady_clock::now();
        opt::OptOptions oo = sopts.opt;
        oo.prefetch = entry->prefetch;
        out.candidate = tune::build_candidate(op, entry->strategy,
                                              cfg_.machine, oo);
        out.predicted_cycles = entry->predicted_cycles;
        out.measured_cycles = entry->measured_cycles;
        if (cfg_.measure_best && out.measured_cycles == 0.0)
          out.measured_cycles =
              tune::measure_candidate(op, out.candidate, cfg_.machine);
        out.from_cache = true;
        out.stats.space_size = op.space().size();
        out.stats.valid_candidates = 1;
        out.stats.seconds =
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          t0)
                .count();
        if (rec) {
          rec->tune().cache_hits += 1;
          rec->tune().seconds += out.stats.seconds;
          tune::tune_phase_span(rec, "cache hit (rebuild)", w0,
                                rec->wall_us(), 1);
        }
        if (cfg_.journal) {
          tune::JournalEntry e;
          e.op = op.name();
          e.phase = "cache";
          e.strategy = out.candidate.strategy.to_string();
          e.rank = 0;
          if (out.predicted_cycles > 0.0) e.predicted = out.predicted_cycles;
          if (out.measured_cycles > 0.0) e.measured = out.measured_cycles;
          e.chosen = true;
          cfg_.journal->append(std::move(e));
        }
        finish();
        return out;
      } catch (const CheckError&) {
        // A stale entry that no longer lowers cleanly: fall through to a
        // fresh tuning run (which re-banks the key).
      }
    }
    if (rec) rec->tune().cache_misses += 1;
  }

  if (cfg_.tune_top_k >= 1) {
    tune::Tuned tuned =
        tuner.tune_top_k(op, cfg_.tune_top_k, sopts, rec, cfg_.journal);
    out.measured_cycles = tuned.cycles;
    out.stats = tuned.stats;
    out.candidate = std::move(tuned.candidate);
    // tune_top_k reports measured cycles; recover the model's estimate of
    // the winner so callers can compare.
    const tune::CostModel model(cfg_.machine, tune::gemm_cost_model(cfg_.machine));
    out.predicted_cycles = model.estimate(out.candidate.program).total();
  } else {
    tune::Tuned tuned = tuner.tune(op, sopts, rec, cfg_.journal);
    out.predicted_cycles = tuned.cycles;
    out.stats = tuned.stats;
    out.candidate = std::move(tuned.candidate);
    if (cfg_.measure_best) {
      out.measured_cycles =
          tune::measure_candidate(op, out.candidate, cfg_.machine);
      // Record the pick's model-vs-simulator sample (the "model" rows
      // above carry no measurement by construction).
      if (cfg_.journal) {
        tune::JournalEntry e;
        e.op = op.name();
        e.phase = "measure";
        e.strategy = out.candidate.strategy.to_string();
        e.rank = 0;
        e.predicted = out.predicted_cycles;
        e.measured = out.measured_cycles;
        cfg_.journal->append(std::move(e));
      }
    }
  }

  if (cache_) {
    const double w0 = rec ? rec->wall_us() : 0.0;
    tune::CacheEntry e;
    e.strategy = out.candidate.strategy;
    e.prefetch = out.candidate.prefetch;
    e.predicted_cycles = out.predicted_cycles;
    e.measured_cycles = out.measured_cycles;
    cache_->store(cache_key, e);
    if (rec) {
      rec->tune().cache_stores += 1;
      tune::tune_phase_span(rec, "cache store", w0, rec->wall_us());
    }
  }

  finish();
  return out;
}

}  // namespace swatop
