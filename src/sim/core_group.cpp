#include "sim/core_group.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace swatop::sim {

CoreGroup::CoreGroup(const SimConfig& cfg)
    : cfg_(cfg), mem_(&own_mem_), cluster_(cfg_), dma_(cfg_) {}

CoreGroup::CoreGroup(const SimConfig& cfg, MainMemory& shared)
    : cfg_(cfg), mem_(&shared), cluster_(cfg_), dma_(cfg_) {}

void CoreGroup::advance_compute(double cycles) {
  SWATOP_CHECK(cycles >= 0.0);
  now_ += cycles;
  stats_.compute_cycles += cycles;
}

double CoreGroup::book_dma(const DmaCost& c) {
  stats_.dma_queue_wait_cycles += dma_.queue_wait(now_);
  const double done = dma_.issue(now_, c);
  stats_.dma_bytes_requested += c.bytes_requested;
  stats_.dma_bytes_wasted += c.bytes_wasted;
  stats_.dma_transactions += c.transactions;
  stats_.dma_transfers += 1;
  if (obs_ != nullptr && obs_->tracing()) {
    obs::TraceEvent ev;
    ev.name = "dma";
    ev.cat = obs::Category::Dma;
    ev.tid = obs::Track::kDmaEngine;
    ev.ts = done - c.total_cycles();
    ev.dur = c.total_cycles();
    ev.arg_name[0] = "bytes";
    ev.arg[0] = c.bytes_requested;
    ev.arg_name[1] = "transactions";
    ev.arg[1] = c.transactions;
    ev.arg_name[2] = "bytes_wasted";
    ev.arg[2] = c.bytes_wasted;
    obs_->trace_event(std::move(ev));
  }
  return done;
}

CoreGroup::ReplyId CoreGroup::dma_issue(std::span<const DmaCpeDesc> descs,
                                        ExecMode mode) {
  const DmaCost c = dma_.cost(descs);
  const double done = book_dma(c);
  const ReplyId id = next_reply_++;
  inflight_[id] = done;
  if (obs_ != nullptr) {
    // Per-CPE attribution: descriptors are in mesh order (or a single
    // descriptor for CPE (0,0)-only transfers).
    for (std::size_t i = 0; i < descs.size(); ++i) {
      if (descs[i].total == 0) continue;
      obs::CpeCounters& pc = obs_->cpe(static_cast<int>(i));
      pc.dma_bytes +=
          descs[i].total * static_cast<std::int64_t>(sizeof(float));
      pc.dma_transfers += 1;
    }
  }

  if (mode == ExecMode::Functional) {
    // Descriptors are expected in mesh order: one per CPE (or a single
    // descriptor when only CPE (0,0) participates, e.g. scalars).
    const int n = static_cast<int>(descs.size());
    SWATOP_CHECK(n == cfg_.num_cpes() || n == 1)
        << "functional DMA expects 1 or " << cfg_.num_cpes()
        << " descriptors, got " << n;
    for (int i = 0; i < n; ++i) {
      const DmaCpeDesc& d = descs[static_cast<std::size_t>(i)];
      if (d.total == 0) continue;
      Spm& spm = cluster_.at(i / cfg_.mesh_cols, i % cfg_.mesh_cols).spm();
      std::int64_t remaining = d.total;
      MainMemory::Addr mem = d.mem_base;
      std::int64_t spm_at = d.spm_addr;
      while (remaining > 0) {
        const std::int64_t blk = std::min(remaining, d.block);
        if (d.dir == DmaDir::MemToSpm) {
          auto src = mem_->view(mem, blk);
          auto dst = spm.view(spm_at, blk);
          std::copy(src.begin(), src.end(), dst.begin());
        } else {
          auto src = spm.view(spm_at, blk);
          auto dst = mem_->view(mem, blk);
          std::copy(src.begin(), src.end(), dst.begin());
        }
        remaining -= blk;
        mem += d.block + d.stride;
        spm_at += blk;
      }
    }
  }
  return id;
}

double CoreGroup::dma_issue_cost_at(const DmaCost& c) { return book_dma(c); }

void CoreGroup::wait_until(double t) {
  if (t > now_) {
    stats_.dma_stall_cycles += t - now_;
    now_ = t;
  }
}

CoreGroup::ReplyId CoreGroup::dma_issue_cost(const DmaCost& c) {
  const double done = book_dma(c);
  const ReplyId id = next_reply_++;
  inflight_[id] = done;
  return id;
}

void CoreGroup::dma_wait(ReplyId id) {
  auto it = inflight_.find(id);
  SWATOP_CHECK(it != inflight_.end()) << "dma_wait on unknown reply " << id;
  if (it->second > now_) {
    stats_.dma_stall_cycles += it->second - now_;
    now_ = it->second;
  }
  inflight_.erase(it);
}

bool CoreGroup::dma_pending(ReplyId id) const {
  return inflight_.count(id) > 0;
}

void CoreGroup::charge_dma_sync(std::span<const DmaCpeDesc> descs) {
  const ReplyId id = dma_issue(descs, ExecMode::TimingOnly);
  dma_wait(id);
}

void CoreGroup::charge_dma_cost_sync(const DmaCost& c) {
  const double done = book_dma(c);
  if (done > now_) {
    stats_.dma_stall_cycles += done - now_;
    now_ = done;
  }
}

void CoreGroup::reset_execution() {
  now_ = 0.0;
  dma_.reset();
  inflight_.clear();
  stats_ = CgStats{};
  cluster_.spm_reset();
  cluster_.bus().reset();
  for (int r = 0; r < cfg_.mesh_rows; ++r)
    for (int c = 0; c < cfg_.mesh_cols; ++c)
      cluster_.at(r, c).spm().reset_access_counts();
  // Mirror the reset so an attached recorder's counters stay equal to the
  // execution statistics they are assembled from.
  if (obs_ != nullptr) obs_->reset_execution();
}

obs::Counters CoreGroup::counters_snapshot() const {
  // Start from the recorder's registry so observer-only values (per-CPE
  // attribution, pipeline estimates accumulated by the runtime) survive.
  obs::Counters c =
      obs_ != nullptr ? obs_->counters() : obs::Counters{};
  c.total_cycles = now_;
  c.compute_cycles = stats_.compute_cycles;
  c.flops = stats_.flops;
  c.gemm_calls = stats_.gemm_calls;
  c.dma.bytes_requested = stats_.dma_bytes_requested;
  c.dma.bytes_wasted = stats_.dma_bytes_wasted;
  c.dma.transactions = stats_.dma_transactions;
  c.dma.transfers = stats_.dma_transfers;
  c.dma.stall_cycles = stats_.dma_stall_cycles;
  c.dma.queue_wait_cycles = stats_.dma_queue_wait_cycles;
  c.dma.busy_cycles = dma_.busy_cycles();
  c.gemm_cycles = stats_.gemm_cycles;
  c.gemm_comm_cycles = stats_.gemm_comm_cycles;
  c.pipe = stats_.pipe;
  const RegCommBus& bus = cluster_.bus();
  c.reg_comm.row_messages = bus.row_messages();
  c.reg_comm.col_messages = bus.col_messages();
  c.reg_comm.row_bytes = bus.row_bytes();
  c.reg_comm.col_bytes = bus.col_bytes();
  c.sanitizer = stats_.sanitizer;
  c.spm_high_water_floats = cluster_.spm_high_water();
  c.spm_capacity_floats = cluster_.spm_capacity();
  c.spm_reads = 0;
  c.spm_writes = 0;
  for (int r = 0; r < cfg_.mesh_rows; ++r) {
    for (int col = 0; col < cfg_.mesh_cols; ++col) {
      const Spm& spm = cluster_.at(r, col).spm();
      c.spm_reads += spm.element_reads();
      c.spm_writes += spm.element_writes();
    }
  }
  return c;
}

void CoreGroup::reset_all() {
  reset_execution();
  mem_->reset();
}

}  // namespace swatop::sim
