#include "tune/cost_model.hpp"

#include "common/check.hpp"
#include "rt/dma_expand.hpp"

namespace swatop::tune {

namespace ir = swatop::ir;

StaticCost CostModel::estimate(const ir::StmtPtr& root) const {
  StaticCost acc;
  ir::Env env;
  walk(root, env, &acc, 1.0);
  return acc;
}

void CostModel::walk(const ir::StmtPtr& s, ir::Env& env, StaticCost* acc,
                     double scale) const {
  if (s == nullptr) return;
  switch (s->kind) {
    case ir::StmtKind::Seq:
      for (const ir::StmtPtr& c : s->body) walk(c, env, acc, scale);
      return;
    case ir::StmtKind::For: {
      const std::int64_t n = ir::eval(s->extent, env);
      if (n <= 0) return;
      if (s->prefetched) acc->overlapped = true;
      // (n-1) first-shape iterations plus the last iteration evaluated
      // separately: this prices ragged boundary tiles and the final
      // iteration's skipped prefetch exactly, while staying static.
      env.set(s->var, 0);
      walk(s->for_body, env, acc, scale * static_cast<double>(n - 1));
      if (n > 1) {
        env.set(s->var, n - 1);
        walk(s->for_body, env, acc, scale);
      } else {
        walk(s->for_body, env, acc, scale);
      }
      env.erase(s->var);
      return;
    }
    case ir::StmtKind::If:
      // Static approximation: follow the branch taken at the current
      // (first-iteration) environment.
      if (ir::eval(s->cond, env) != 0)
        walk(s->then_s, env, acc, scale);
      else
        walk(s->else_s, env, acc, scale);
      return;
    case ir::StmtKind::SpmZero: {
      const double n = static_cast<double>(ir::eval(s->zero_floats, env));
      acc->compute_cycles += scale * n / cfg_.vector_width;
      return;
    }
    case ir::StmtKind::DmaGet:
    case ir::StmtKind::DmaPut: {
      // Tensor bases are transaction-aligned; 0 is representative.
      const rt::DmaGeometry g = rt::evaluate_dma(s->dma, env, 0, cfg_);
      const double t =
          scale *
          dma_cost_cache_.get(s->dma, g, engine_, cfg_).total_cycles();
      // Double buffering remaps reply slots into [100, ...) (and makes
      // them parity expressions); anything still on a small constant slot
      // is a synchronous get;wait / put;wait the cluster stalls on.
      const bool synchronous =
          ir::is_const(s->dma.reply) && ir::as_cst(s->dma.reply) < 100;
      (synchronous ? acc->dma_sync_cycles : acc->dma_overlapped_cycles) += t;
      if (s->kind == ir::StmtKind::DmaPut && s->dma.epi.any()) {
        // Mirror the runtime's epilogue pricing: a synchronous residual
        // re-read of the same tile, plus the vector ops on the tile. The
        // once-per-run bias fetch is noise at this granularity and skipped.
        const ir::EpilogueAttrs& e = s->dma.epi;
        if (e.residual) {
          ir::DmaAttrs rd;
          rd.view = e.res;
          rd.dir = ir::Direction::MemToSpm;
          rd.scatter = s->dma.scatter;
          rd.rows_to_rid = s->dma.rows_to_rid;
          rt::DmaGeometry rg = g;
          rg.base = ir::eval(e.res.base, env);
          acc->dma_sync_cycles +=
              scale *
              dma_cost_cache_.get(rd, rg, engine_, cfg_).total_cycles();
        }
        const int nops =
            (e.bias ? 1 : 0) + (e.residual ? 1 : 0) + (e.relu ? 1 : 0);
        acc->compute_cycles += scale * static_cast<double>(nops) *
                               static_cast<double>(g.tr) *
                               static_cast<double>(g.tc) / cfg_.vector_width;
      }
      return;
    }
    case ir::StmtKind::Gemm: {
      const ir::GemmAttrs& gm = s->gemm;
      const std::int64_t M = ir::eval(gm.M, env);
      const std::int64_t N = ir::eval(gm.N, env);
      const std::int64_t K = ir::eval(gm.K, env);
      if (M > 0 && N > 0 && K > 0)
        acc->compute_cycles += scale * gm_.cycles(gm.variant, M, N, K);
      return;
    }
    case ir::StmtKind::SpmAlloc:
    case ir::StmtKind::DmaWait:
    case ir::StmtKind::Comment:
      return;
  }
  SWATOP_UNREACHABLE("bad stmt kind in cost model");
}

}  // namespace swatop::tune
