#include "sched/scheduler.hpp"

#include <atomic>
#include <exception>
#include <limits>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "check/validate_ir.hpp"

namespace swatop::sched {

namespace {

std::size_t resolve_threads(int requested, std::size_t work) {
  if (work < 2) return 1;
  std::size_t n = requested > 0
                      ? static_cast<std::size_t>(requested)
                      : static_cast<std::size_t>(
                            std::thread::hardware_concurrency());
  if (n == 0) n = 1;
  return n < work ? n : work;
}

}  // namespace

std::int64_t Scheduler::space_size(const dsl::OperatorDef& op) const {
  return op.space().size();
}

obs::SweepCounts Scheduler::sweep(const dsl::OperatorDef& op,
                                  const SchedulerOptions& opts,
                                  const VisitorFactory& make_visitor) const {
  const dsl::ScheduleSpace space = op.space();
  const auto n = static_cast<std::size_t>(space.size());
  const std::size_t nthreads =
      opts.max_candidates > 0
          ? 1  // the cap bounds lowering work: keep the early-exit loop
          : resolve_threads(opts.num_threads, n);

  obs::SweepCounts total;
  total.enumerated = static_cast<std::int64_t>(n);
  std::mutex mu;  // guards total and the first error
  std::exception_ptr error;
  // Indices above a recorded failure are skipped; lower ones still run, so
  // the rethrown error is the lowest-index one at any thread count.
  std::atomic<std::size_t> error_index{std::numeric_limits<std::size_t>::max()};
  std::atomic<std::size_t> next{0};
  auto fail = [&](std::size_t i) {
    std::lock_guard<std::mutex> lock(mu);
    if (i < error_index.load()) {
      error_index.store(i);
      error = std::current_exception();
    }
  };

  auto work = [&] {
    CandidateVisitor visit;
    try {
      visit = make_visitor();
    } catch (...) {
      fail(0);
      return;
    }
    obs::SweepCounts c;
    for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
      if (i > error_index.load()) break;
      try {
        dsl::Strategy s = space.at(i);
        ir::StmtPtr prog = op.lower(s);
        if (prog == nullptr) continue;  // structurally invalid
        ++c.lowered;
        opt::OptOptions o = opts.opt;
        o.prefetch = opts.opt.prefetch && op.prefetch_enabled(s);
        if (!opt::optimize(prog, cfg_, o)) {  // pruned
          ++c.dropped;
          continue;
        }
        // A candidate that survives pruning must be well-formed: a
        // validation failure here is a lowering or optimizer bug, not an
        // invalid strategy, so it throws instead of dropping the candidate.
        check::validate_ir_or_throw(prog, cfg_);
        visit(i, s, prog, o.prefetch);
        ++c.kept;
        if (opts.max_candidates > 0 && c.kept >= opts.max_candidates) break;
      } catch (...) {
        fail(i);
      }
    }
    std::lock_guard<std::mutex> lock(mu);
    total += c;
  };

  if (nthreads <= 1) {
    work();
  } else {
    std::vector<std::thread> workers;
    workers.reserve(nthreads);
    for (std::size_t w = 0; w < nthreads; ++w) workers.emplace_back(work);
    for (std::thread& t : workers) t.join();
  }
  if (error) std::rethrow_exception(error);
  return total;
}

std::vector<Candidate> Scheduler::candidates(
    const dsl::OperatorDef& op, const SchedulerOptions& opts) const {
  std::vector<std::optional<Candidate>> slots(
      static_cast<std::size_t>(op.space().size()));
  sweep(op, opts, [&] {
    return [&](std::size_t i, dsl::Strategy& s, ir::StmtPtr& prog,
               bool prefetch) {
      slots[i] = Candidate{std::move(s), std::move(prog), prefetch};
    };
  });
  std::vector<Candidate> out;
  for (std::optional<Candidate>& c : slots)
    if (c) out.push_back(std::move(*c));
  return out;
}

}  // namespace swatop::sched
