#include "tune/replay.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "ir/node.hpp"
#include "rt/bind.hpp"

namespace swatop::tune {

namespace {

using rt::ReplayEvent;

/// Append one double bit-exactly (hexfloat: round-trips without rounding,
/// and two doubles with equal text are the same bits up to -0.0/NaN, which
/// never appear in the serialized fields).
void key_num(std::string& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%a", v);
  out += buf;
  out += ';';
}

void key_int(std::string& out, std::int64_t v) {
  out += std::to_string(v);
  out += ';';
}

void key_str(std::string& out, const std::string& s) {
  out += s;
  out += ';';
}

void key_expr(std::string& out, const ir::Expr& e) {
  out += e ? ir::to_string(e) : "~";
  out += ';';
}

void key_view(std::string& out, const ir::ViewAttrs& v) {
  key_str(out, v.tensor);
  key_expr(out, v.base);
  key_int(out, v.stride_r);
  key_int(out, v.stride_c);
  key_expr(out, v.rows);
  key_expr(out, v.cols);
}

void key_epi(std::string& out, const ir::EpilogueAttrs& e) {
  key_int(out, (e.bias ? 1 : 0) | (e.residual ? 2 : 0) | (e.relu ? 4 : 0) |
                   (e.channels_on_rows ? 8 : 0));
  key_expr(out, e.channel0);
  key_view(out, e.res);
}

/// Canonical recursive serializer. Unlike ir::print (a human-readable
/// pretty-printer), this covers *every* field that can change what the
/// interpreter books: rows_to_rid, scatter, channels_on_rows, alpha, the
/// kernel variant, reduction/prefetched markers.
void key_stmt(std::string& out, const ir::StmtPtr& s) {
  if (s == nullptr) {
    out += "0;";
    return;
  }
  switch (s->kind) {
    case ir::StmtKind::Seq:
      out += "S(";
      for (const ir::StmtPtr& c : s->body) key_stmt(out, c);
      out += ')';
      return;
    case ir::StmtKind::For:
      out += "F(";
      key_str(out, s->var.name());
      key_expr(out, s->extent);
      key_int(out, (s->prefetched ? 1 : 0) | (s->reduction ? 2 : 0));
      key_stmt(out, s->for_body);
      out += ')';
      return;
    case ir::StmtKind::If:
      out += "I(";
      key_expr(out, s->cond);
      key_stmt(out, s->then_s);
      key_stmt(out, s->else_s);
      out += ')';
      return;
    case ir::StmtKind::SpmAlloc:
      out += "A(";
      key_str(out, s->buf_name);
      key_int(out, s->buf_floats);
      key_int(out, s->double_buffered ? 1 : 0);
      out += ')';
      return;
    case ir::StmtKind::SpmZero:
      out += "Z(";
      key_str(out, s->buf_name);
      key_expr(out, s->zero_off);
      key_expr(out, s->zero_floats);
      out += ')';
      return;
    case ir::StmtKind::DmaGet:
    case ir::StmtKind::DmaPut: {
      out += s->kind == ir::StmtKind::DmaGet ? "Dg(" : "Dp(";
      const ir::DmaAttrs& d = s->dma;
      key_view(out, d.view);
      key_expr(out, d.rows_p);
      key_expr(out, d.cols_p);
      key_str(out, d.spm_buf);
      key_expr(out, d.spm_off);
      key_expr(out, d.reply);
      key_int(out, (d.dir == ir::Direction::MemToSpm ? 1 : 0) |
                       (d.scatter ? 2 : 0) | (d.rows_to_rid ? 4 : 0));
      key_epi(out, d.epi);
      out += ')';
      return;
    }
    case ir::StmtKind::DmaWait:
      out += "W(";
      key_expr(out, s->wait_reply);
      out += ')';
      return;
    case ir::StmtKind::Gemm: {
      out += "G(";
      const ir::GemmAttrs& g = s->gemm;
      key_expr(out, g.M);
      key_expr(out, g.N);
      key_expr(out, g.K);
      key_num(out, static_cast<double>(g.alpha));
      key_int(out, g.variant);
      key_view(out, g.a);
      key_view(out, g.b);
      key_view(out, g.c);
      key_str(out, g.a_buf);
      key_str(out, g.b_buf);
      key_str(out, g.c_buf);
      key_expr(out, g.a_off);
      key_expr(out, g.b_off);
      key_expr(out, g.c_off);
      key_epi(out, g.epi);
      out += ')';
      return;
    }
    case ir::StmtKind::Comment:
      // No booking -- keep comments out of the key so annotation-only
      // differences still hit.
      return;
  }
}

}  // namespace

std::string replay_key(const ir::StmtPtr& program,
                       const dsl::BoundTensors& bt,
                       const sim::SimConfig& cfg) {
  std::string out;
  out.reserve(1024);
  // Machine: every parameter a booking can depend on.
  out += "m:";
  key_int(out, cfg.mesh_rows);
  key_int(out, cfg.mesh_cols);
  key_int(out, static_cast<std::int64_t>(cfg.spm_bytes));
  key_num(out, cfg.clock_ghz);
  key_num(out, cfg.dma_peak_bw_gbs);
  key_num(out, cfg.dma_latency_cycles);
  key_int(out, static_cast<std::int64_t>(cfg.dram_transaction_bytes));
  key_num(out, cfg.gls_bw_gbs);
  key_num(out, cfg.reg_comm_bw_gbs);
  key_int(out, cfg.vector_width);
  key_int(out, cfg.vmad_latency);
  key_int(out, cfg.vload_latency);
  key_int(out, cfg.vstore_latency);
  key_int(out, cfg.reg_comm_latency);
  key_int(out, cfg.sanitize.enabled ? 1 : 0);
  // Tensor binding: the resolved arena addresses (sorted by name -- the
  // map order is not canonical).
  out += "t:";
  std::vector<std::pair<std::string, sim::MainMemory::Addr>> sorted(
      bt.begin(), bt.end());
  std::sort(sorted.begin(), sorted.end());
  for (const auto& [name, addr] : sorted) {
    out += name;
    out += '=';
    key_int(out, addr);
  }
  // The lowered program.
  out += "p:";
  key_stmt(out, program);
  return out;
}

rt::RunResult replay_trace(const rt::ReplayTrace& t) {
  SWATOP_CHECK(t.complete) << "replay of an incomplete trace";
  // Local mirrors of the core group's clock, the DMA engine's free_at and
  // the reply table -- the replay loop performs the exact operations the
  // booking entry points perform (sim/core_group.cpp, sim/dma.cpp), in the
  // recorded order, so every double below matches bit-for-bit.
  double now = 0.0;
  double free_at = 0.0;
  sim::CgStats st;
  std::int64_t bytes_elided = 0;
  std::vector<double> reply(static_cast<std::size_t>(ir::kMaxReplySlots),
                            -1.0);

  // book_dma: queue-wait accounting, engine booking, transfer statistics.
  auto book = [&](const sim::DmaCost& c) -> double {
    st.dma_queue_wait_cycles += free_at > now ? free_at - now : 0.0;
    const double start = std::max(now, free_at);
    const double done = start + c.total_cycles();
    free_at = done;
    st.dma_bytes_requested += c.bytes_requested;
    st.dma_bytes_wasted += c.bytes_wasted;
    st.dma_transactions += c.transactions;
    st.dma_transfers += 1;
    return done;
  };
  // wait_until: stall accounting.
  auto wait_until = [&](double done) {
    if (done > now) {
      st.dma_stall_cycles += done - now;
      now = done;
    }
  };

  // Cursors over the per-kind side streams (see rt/replay_trace.hpp: the
  // base stream fixes the global order, the payloads are consumed in their
  // own streams' order).
  std::size_t dma_i = 0, elide_i = 0, gemm_i = 0;
  for (const ReplayEvent& e : t.events) {
    switch (e.kind) {
      case ReplayEvent::Kind::Compute:
        now += e.cycles;
        st.compute_cycles += e.cycles;
        break;
      case ReplayEvent::Kind::Gemm: {
        SWATOP_CHECK(gemm_i < t.gemm_extras.size())
            << "replay: gemm_extras stream exhausted";
        const rt::ReplayGemmExtra& gx = t.gemm_extras[gemm_i++];
        now += e.cycles;
        st.compute_cycles += e.cycles;
        st.gemm_calls += 1;
        st.flops += gx.flops;
        st.gemm_cycles += e.cycles;
        st.gemm_comm_cycles += gx.comm_cycles;
        st.pipe.issued_p0 += gx.pipe.issued_p0;
        st.pipe.issued_p1 += gx.pipe.issued_p1;
        st.pipe.raw_stall_cycles += gx.pipe.raw_stall_cycles;
        break;
      }
      case ReplayEvent::Kind::DmaIssue:
        SWATOP_CHECK(e.slot >= 0 && e.slot < ir::kMaxReplySlots)
            << "replay: reply slot " << e.slot << " out of range";
        SWATOP_CHECK(dma_i < t.dma_costs.size())
            << "replay: dma_costs stream exhausted";
        reply[static_cast<std::size_t>(e.slot)] = book(t.dma_costs[dma_i++]);
        break;
      case ReplayEvent::Kind::DmaElide:
        SWATOP_CHECK(e.slot >= 0 && e.slot < ir::kMaxReplySlots)
            << "replay: reply slot " << e.slot << " out of range";
        SWATOP_CHECK(elide_i < t.elided_bytes.size())
            << "replay: elided_bytes stream exhausted";
        bytes_elided += t.elided_bytes[elide_i++];
        reply[static_cast<std::size_t>(e.slot)] = now;
        break;
      case ReplayEvent::Kind::DmaSync:
        SWATOP_CHECK(dma_i < t.dma_costs.size())
            << "replay: dma_costs stream exhausted";
        wait_until(book(t.dma_costs[dma_i++]));
        break;
      case ReplayEvent::Kind::SyncElide:
        SWATOP_CHECK(elide_i < t.elided_bytes.size())
            << "replay: elided_bytes stream exhausted";
        bytes_elided += t.elided_bytes[elide_i++];
        break;
      case ReplayEvent::Kind::Wait: {
        SWATOP_CHECK(e.slot >= 0 && e.slot < ir::kMaxReplySlots)
            << "replay: reply slot " << e.slot << " out of range";
        const double done = reply[static_cast<std::size_t>(e.slot)];
        SWATOP_CHECK(done >= 0.0)
            << "replay: wait on empty reply slot " << e.slot;
        wait_until(done);
        reply[static_cast<std::size_t>(e.slot)] = -1.0;
        break;
      }
    }
  }

  rt::RunResult r;
  r.cycles = now;
  r.stats = st;
  r.bytes_elided = bytes_elided;
  return r;
}

std::string replay_diff(const rt::RunResult& a, const rt::RunResult& b) {
  std::ostringstream os;
  os.precision(17);
  auto num = [&](const char* field, double x, double y) -> bool {
    if (x == y) return false;
    os << field << ": " << x << " vs " << y;
    return true;
  };
  auto cnt = [&](const char* field, std::int64_t x, std::int64_t y) -> bool {
    if (x == y) return false;
    os << field << ": " << x << " vs " << y;
    return true;
  };
  const sim::CgStats& s = a.stats;
  const sim::CgStats& t = b.stats;
  if (num("cycles", a.cycles, b.cycles) ||
      num("compute_cycles", s.compute_cycles, t.compute_cycles) ||
      num("dma_stall_cycles", s.dma_stall_cycles, t.dma_stall_cycles) ||
      num("dma_queue_wait_cycles", s.dma_queue_wait_cycles,
          t.dma_queue_wait_cycles) ||
      cnt("dma_bytes_requested", s.dma_bytes_requested,
          t.dma_bytes_requested) ||
      cnt("dma_bytes_wasted", s.dma_bytes_wasted, t.dma_bytes_wasted) ||
      cnt("dma_transactions", s.dma_transactions, t.dma_transactions) ||
      cnt("dma_transfers", s.dma_transfers, t.dma_transfers) ||
      cnt("flops", s.flops, t.flops) ||
      cnt("gemm_calls", s.gemm_calls, t.gemm_calls) ||
      num("gemm_cycles", s.gemm_cycles, t.gemm_cycles) ||
      num("gemm_comm_cycles", s.gemm_comm_cycles, t.gemm_comm_cycles) ||
      num("pipe.issued_p0", s.pipe.issued_p0, t.pipe.issued_p0) ||
      num("pipe.issued_p1", s.pipe.issued_p1, t.pipe.issued_p1) ||
      num("pipe.raw_stall_cycles", s.pipe.raw_stall_cycles,
          t.pipe.raw_stall_cycles) ||
      cnt("bytes_elided", a.bytes_elided, b.bytes_elided)) {
    return os.str();
  }
  return std::string();
}

ReplayStats ReplayExecutor::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::int64_t ReplayExecutor::cached() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<std::int64_t>(cache_.size());
}

double ReplayExecutor::measure(const dsl::OperatorDef& op,
                               const sched::Candidate& cand,
                               const sim::SimConfig& cfg) {
  // Scratch core group on non-materialized memory, exactly like
  // tune::measure_candidate -- binding also resolves the tensor addresses
  // the key covers (arena allocation is deterministic per operator).
  sim::CoreGroup cg(cfg);
  cg.mem().set_materialize(false);
  const dsl::BoundTensors bt = rt::bind_tensors(cg, op);
  if (!opts_.enabled) {
    rt::Interpreter interp(cg, sim::ExecMode::TimingOnly);
    return interp.run(cand.program, bt).cycles;
  }

  const std::string key = replay_key(cand.program, bt, cfg);
  std::shared_ptr<const rt::ReplayTrace> trace;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = cache_.find(key);
    if (it != cache_.end()) {
      trace = it->second;
      ++stats_.hits;
    } else {
      ++stats_.misses;
    }
  }

  if (trace) {
    const rt::RunResult r = replay_trace(*trace);
    if (opts_.oracle) {
      rt::Interpreter interp(cg, sim::ExecMode::TimingOnly);
      const rt::RunResult ref = interp.run(cand.program, bt);
      const std::string diff = replay_diff(r, ref);
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.oracle_checks;
        if (!diff.empty()) ++stats_.oracle_mismatches;
      }
      SWATOP_CHECK(diff.empty())
          << "replay oracle mismatch for " << op.name() << " / "
          << cand.strategy.to_string() << ": " << diff;
    }
    return r.cycles;
  }

  // Miss: measure through the interpreter, recording the event schedule.
  auto rec = std::make_shared<rt::ReplayTrace>();
  rt::Interpreter interp(cg, sim::ExecMode::TimingOnly);
  interp.set_trace_sink(rec.get());
  const rt::RunResult run = interp.run(cand.program, bt);
  // Store-time self-check: replaying the fresh trace must reproduce the
  // recording run bit-for-bit. Costs one cheap replay per distinct key and
  // turns "replay drifted from the interpreter" into a fallback instead of
  // a wrong measurement.
  bool cacheable =
      rec->complete &&
      static_cast<std::int64_t>(rec->events.size()) <=
          opts_.max_trace_events &&
      replay_diff(replay_trace(*rec), run).empty();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (cacheable &&
        static_cast<std::int64_t>(cache_.size()) < opts_.max_cached_traces) {
      cache_.emplace(key, std::move(rec));
    } else {
      ++stats_.fallbacks;
    }
  }
  return run.cycles;
}

}  // namespace swatop::tune
