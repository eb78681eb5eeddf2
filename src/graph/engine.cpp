#include "graph/engine.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>
#include <memory>
#include <unordered_map>
#include <utility>

#include "common/check.hpp"
#include "common/math_util.hpp"
#include "graph/reference.hpp"
#include "obs/recorder.hpp"
#include "ops/explicit_conv.hpp"
#include "ops/implicit_conv.hpp"
#include "ops/reference.hpp"
#include "ops/winograd.hpp"
#include "sim/chip.hpp"

namespace swatop::graph {

const char* conv_method_name(ConvMethod m) {
  switch (m) {
    case ConvMethod::Auto: return "auto";
    case ConvMethod::Implicit: return "implicit";
    case ConvMethod::Explicit: return "explicit";
    case ConvMethod::Winograd: return "winograd";
  }
  SWATOP_UNREACHABLE("bad conv method");
}

namespace {

/// The MPE (management core) runs the elementwise passes: one core with
/// 256-bit vectors, so a handful of flops per cycle -- these passes are
/// bandwidth-bound anyway.
constexpr double kMpeFlopsPerCycle = 4.0;

/// Resolve the per-layer convolution design. Winograd is opt-in and falls
/// back to the Auto rule on layers it cannot run (non-3x3 kernels, input
/// channels not a multiple of the vector width granularity).
ConvMethod resolve_method(ConvMethod req, const ops::ConvShape& s) {
  if (req == ConvMethod::Winograd && ops::WinogradPlan::applicable(s) &&
      s.ni % 8 == 0)
    return ConvMethod::Winograd;
  if (req == ConvMethod::Implicit) {
    SWATOP_CHECK(ops::ImplicitConvOp::applicable(s))
        << "implicit CONV forced but not applicable to " << s.to_string()
        << " (needs ni >= 32, and a batch slice that is a multiple of 8 "
           "at stride > 1)";
    return ConvMethod::Implicit;
  }
  if (req == ConvMethod::Explicit) return ConvMethod::Explicit;
  return ops::ImplicitConvOp::applicable(s) ? ConvMethod::Implicit
                                            : ConvMethod::Explicit;
}

/// The operator a (method, shape, epilogue) tunes and lowers.
std::unique_ptr<dsl::OperatorDef> make_conv_op(ConvMethod m,
                                               const ops::ConvShape& s,
                                               const dsl::EpilogueSpec& epi) {
  switch (m) {
    case ConvMethod::Implicit:
      return std::make_unique<ops::ImplicitConvOp>(s, epi);
    case ConvMethod::Explicit: return std::make_unique<ops::ExplicitConvOp>(s);
    case ConvMethod::Winograd: return std::make_unique<ops::WinogradGemmOp>(s);
    case ConvMethod::Auto: break;
  }
  SWATOP_UNREACHABLE("unresolved method");
}

/// One tuned convolution, shared by every node with the same (method,
/// per-CG shape, epilogue): the tuner's pick for the per-CG shape, and the
/// programs one strategy lowers to on the layer's row slabs.
struct TunedConv {
  ConvMethod method = ConvMethod::Implicit;
  OptimizedOperator pick;
  /// Slab programs by slab input rows. All of them lower the same strategy
  /// (the pick's, or the tallest slab's own pick when the tuner's does not
  /// lower there), so the node's weights have one layout.
  std::map<std::int64_t, OptimizedOperator> slabs;

  const dsl::Strategy& strategy() const {
    return slabs.begin()->second.candidate.strategy;
  }
};

std::string shape_key(ConvMethod m, const ops::ConvShape& s,
                      const dsl::EpilogueSpec& epi = {}) {
  std::string key = std::string(conv_method_name(m)) + "|" + s.to_string();
  if (epi.any()) key += "|epi[" + epi.tag() + "]";
  return key;
}

/// One core group's share of a step: output rows [r0, r0 + rows).
struct RowSlab {
  std::int64_t r0 = 0;
  std::int64_t rows = 0;
};

/// Split `extent` output rows over `groups` core groups: contiguous slabs
/// of ceil(extent / groups) rows rounded up to a multiple of `quantum`,
/// the last one shorter. Slab i runs on core group i; an extent shorter
/// than the groups leaves the trailing groups idle.
std::vector<RowSlab> row_slabs(std::int64_t extent, int groups,
                               std::int64_t quantum = 1) {
  const std::int64_t h = align_up(ceil_div(extent, groups), quantum);
  std::vector<RowSlab> out;
  for (std::int64_t r0 = 0; r0 < extent; r0 += h)
    out.push_back({r0, std::min(h, extent - r0)});
  return out;
}

/// Winograd runs m x m output tiles: slabs of whole tile rows keep the
/// slabs' transform buffers summing to the layer's.
std::int64_t row_quantum(ConvMethod m, const ops::ConvShape& layer) {
  return m == ConvMethod::Winograd ? ops::WinogradPlan(layer).m : 1;
}

/// The convolution a row slab runs: the layer at the whole batch, cut to
/// the input rows its output rows read. The last slab keeps the layer's
/// trailing input rows, so a one-slab split is the layer itself.
ops::ConvShape slab_shape(const ops::ConvShape& layer, const RowSlab& sl) {
  ops::ConvShape s = layer;
  s.ri = sl.r0 + sl.rows == layer.ro()
             ? layer.ri - sl.r0 * layer.stride
             : (sl.rows - 1) * layer.stride + layer.kr;
  return s;
}

/// Row -> writing core group of a tensor produced slab by slab: slab i's
/// rows, shifted down by a zero `border`, belong to group i; the top border
/// to the first slab's group and the bottom border to the last's.
std::vector<int> row_owners(std::int64_t hw, const std::vector<RowSlab>& slabs,
                            std::int64_t border = 0) {
  std::vector<int> o(static_cast<std::size_t>(hw), 0);
  for (std::size_t i = 0; i < slabs.size(); ++i)
    for (std::int64_t r = 0; r < slabs[i].rows; ++r)
      o[static_cast<std::size_t>(border + slabs[i].r0 + r)] =
          static_cast<int>(i);
  for (std::int64_t r = hw - border; r < hw; ++r)
    o[static_cast<std::size_t>(r)] = static_cast<int>(slabs.size()) - 1;
  return o;
}

/// Append the rows [lo, hi) of a tensor that core group `gi` reads but
/// another group wrote, one descriptor per contiguous run of such rows.
void add_halo(std::vector<sim::DmaCpeDesc>& descs,
              const std::vector<int>& owner, int gi, std::int64_t lo,
              std::int64_t hi, sim::MainMemory::Addr base,
              std::int64_t row_floats) {
  for (std::int64_t r = lo; r < hi;) {
    if (owner[static_cast<std::size_t>(r)] == gi) {
      ++r;
      continue;
    }
    std::int64_t e = r;
    while (e < hi && owner[static_cast<std::size_t>(e)] != gi) ++e;
    sim::DmaCpeDesc d;
    d.mem_base = base + r * row_floats;
    d.block = d.total = (e - r) * row_floats;
    descs.push_back(d);
    r = e;
  }
}

/// Fetch a step's halo rows as one DMA on the reading group, priced at
/// transaction granularity (Eq. (1)) from the rows' real addresses.
/// Returns the bytes fetched.
std::int64_t charge_halo(sim::CoreGroup& cg,
                         const std::vector<sim::DmaCpeDesc>& descs) {
  if (descs.empty()) return 0;
  const sim::DmaCost c = cg.dma().cost(descs);
  cg.charge_dma_cost_sync(c);
  return c.bytes_requested;
}

/// Price an MPE-side elementwise pass: streaming DMA traffic (Eq. (1)
/// accounting, contiguous floats) plus scalar compute on the MPE.
void charge_mpe_pass(sim::CoreGroup& cg, std::int64_t read_floats,
                     std::int64_t write_floats, double ops) {
  const sim::SimConfig& cfg = cg.config();
  const std::int64_t txn =
      static_cast<std::int64_t>(cfg.dram_transaction_bytes);
  sim::DmaCost c;
  c.latency_cycles = cfg.dma_latency_cycles;
  c.bytes_requested = (read_floats + write_floats) * 4;
  c.transactions =
      ceil_div(read_floats * 4, txn) + ceil_div(write_floats * 4, txn);
  c.bytes_wasted = c.transactions * txn - c.bytes_requested;
  if (c.bytes_wasted < 0) c.bytes_wasted = 0;
  c.transfer_cycles =
      static_cast<double>(c.transactions * txn) / cfg.dma_bytes_per_cycle();
  cg.charge_dma_cost_sync(c);
  cg.advance_compute(ops / kMpeFlopsPerCycle);
}

}  // namespace

GraphEngine::GraphEngine(SwatopConfig cfg) : cfg_(std::move(cfg)) {
  cfg_.cache.enabled = true;
  optimizer_ = std::make_unique<Optimizer>(cfg_);
}

NetRunResult GraphEngine::run(const Graph& g, std::int64_t batch,
                              const NetOptions& opts) {
  SWATOP_CHECK(batch >= 1) << "GraphEngine::run batch " << batch;
  SWATOP_CHECK(opts.groups >= 1 && opts.groups <= 4)
      << "SW26010 has 4 core groups; asked for " << opts.groups;
  g.validate_or_throw();
  const bool functional = opts.mode == sim::ExecMode::Functional;

  NetRunResult res;

  res.batch = batch;
  const int G = opts.groups;
  res.groups_used = G;
  // The per-CG shape the tuner sees: ceil(batch / G) images, all rows --
  // a batch slice of the layer. The engine runs row slabs of the whole
  // batch instead, lowered from that shape's pick, so the tuning (and the
  // schedule cache) is the same whichever way the work is split. The
  // method is resolved on that shape too.
  const std::int64_t sub = ceil_div(batch, G);

  // Epilogue fusion: rewrite the graph before tuning. Only layers the
  // implicit-GEMM design applies to are fused (the in-kernel epilogue is a
  // store-path feature of that lowering); the reference check below always
  // runs on the *original* graph, so fusion is verified end-to-end.
  Graph fused_graph("");
  const Graph* gp = &g;
  if (opts.fusion) {
    const auto g_shapes = g.shapes();
    fused_graph = fuse_epilogues(g, &res.fusion, [&](const Node& n) {
      return resolve_method(opts.method,
                            Graph::conv_shape(n, g_shapes.at(n.inputs[0]),
                                              sub)) == ConvMethod::Implicit;
    });
    gp = &fused_graph;
  }
  const Graph& fg = *gp;
  const std::vector<int> order = fg.topo_order();
  const auto shapes = fg.shapes();
  const int steps = static_cast<int>(order.size());
  // A conv node's shape at a batch, from the shapes inferred once above.
  auto conv_at = [&](const Node& n, std::int64_t b) {
    return Graph::conv_shape(n, shapes.at(n.inputs[0]), b);
  };
  auto method_of = [&](const Node& n) {
    return resolve_method(opts.method, conv_at(n, sub));
  };

  // Inter-layer SPM residency: pin qualifying tensors on-chip between
  // adjacent steps. Conv-adjacent tensors must fit half a core group's
  // aggregate SPM (the other half stays with the kernels' tile buffers)
  // with a group holding its own row slab, and only implicit-GEMM layers
  // qualify -- their get/put paths are what the elision models.
  ResidencyPlan rplan;
  if (opts.residency) {
    ResidencyOptions ro;
    ro.batch = batch;
    ro.groups = G;
    ro.conv_budget_floats = cfg_.machine.spm_floats() *
                            cfg_.machine.mesh_rows *
                            cfg_.machine.mesh_cols / 2;
    ro.conv_ok = [&](const Node& n) {
      return method_of(n) == ConvMethod::Implicit;
    };
    rplan = plan_residency(fg, ro);
  }
  res.resident_tensors = static_cast<std::int64_t>(rplan.resident.size());

  // --- Tune every distinct (method, per-CG shape) exactly once, warm
  // through the schedule cache, then lower the pick on the layer's row
  // slabs. The Optimizer persists across run() calls, so shapes this
  // engine tuned for *any* earlier graph or batch are cache hits here. ---
  // The net profile's recorder exists before tuning, so it carries the
  // tuning funnel and phase spans of every layer this run tunes.
  std::unique_ptr<obs::Recorder> rec;
  if (cfg_.observability.enabled)
    rec = std::make_unique<obs::Recorder>(cfg_.observability);
  Optimizer& optimizer = *optimizer_;
  auto tune_op = [&](const dsl::OperatorDef& op) {
    OptimizedOperator h = optimizer.optimize(op, rec.get());
    if (h.from_cache) ++res.cache_hits;
    ++res.shapes_tuned;
    return h;
  };
  // Lower `from`'s strategy on every slab shape (a shape equal to
  // `from_shape` reuses its program). Slab builds add no journal row and
  // touch no cache. False, leaving `tc` as it was, when a slab does not
  // lower or its tiles do not fit SPM.
  auto lower_slabs = [&](TunedConv& tc, const OptimizedOperator& from,
                         const ops::ConvShape& from_shape,
                         const std::vector<ops::ConvShape>& slab_shapes,
                         const dsl::EpilogueSpec& epi) {
    opt::OptOptions oo = cfg_.scheduler_options().opt;
    oo.prefetch = from.candidate.prefetch;
    std::map<std::int64_t, OptimizedOperator> built;
    for (const ops::ConvShape& ss : slab_shapes) {
      if (built.count(ss.ri)) continue;
      OptimizedOperator k;
      k.from_cache = from.from_cache;
      if (ss.to_string() == from_shape.to_string()) {
        k.candidate = from.candidate;
      } else {
        try {
          k.candidate = tune::build_candidate(
              *make_conv_op(tc.method, ss, epi), from.candidate.strategy,
              cfg_.machine, oo);
        } catch (const CheckError&) {
          return false;
        }
      }
      built.emplace(ss.ri, std::move(k));
    }
    tc.slabs = std::move(built);
    return true;
  };
  std::unordered_map<std::string, TunedConv> tuned;
  const auto tune_t0 = std::chrono::steady_clock::now();
  for (int idx : order) {
    const Node& n = fg.nodes()[static_cast<std::size_t>(idx)];
    if (n.kind != NodeKind::Conv) continue;
    const ops::ConvShape s = conv_at(n, sub);
    const ConvMethod m = method_of(n);
    SWATOP_CHECK(!n.epilogue.any() || m == ConvMethod::Implicit)
        << "fused conv '" << n.name << "' resolved to "
        << conv_method_name(m);
    const std::string key = shape_key(m, s, n.epilogue);
    if (tuned.count(key)) continue;
    TunedConv tc;
    tc.method = m;
    tc.pick = tune_op(*make_conv_op(m, s, n.epilogue));
    const ops::ConvShape layer = conv_at(n, batch);
    std::vector<ops::ConvShape> slab_shapes;
    for (const RowSlab& sl : row_slabs(layer.ro(), G, row_quantum(m, layer)))
      slab_shapes.push_back(slab_shape(layer, sl));
    if (!lower_slabs(tc, tc.pick, s, slab_shapes, n.epilogue)) {
      // The per-CG pick does not lower on a slab: tune the tallest slab
      // itself and run its pick on every slab.
      const OptimizedOperator own =
          tune_op(*make_conv_op(m, slab_shapes.front(), n.epilogue));
      SWATOP_CHECK(lower_slabs(tc, own, slab_shapes.front(), slab_shapes,
                               n.epilogue))
          << "no single strategy lowers on every row slab of '" << n.name
          << "'";
    }
    tuned.emplace(key, std::move(tc));
  }
  res.tune_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    tune_t0)
          .count();

  // --- Memory plan + setup: one chip-wide arena, the weights (stored once
  // per node) and the input fill. ---
  std::vector<Transient> tr;
  for (int stp = 0; stp < steps; ++stp) {
    const Node& n = fg.nodes()[static_cast<std::size_t>(order[stp])];
    if (n.kind != NodeKind::Conv) continue;
    const ops::ConvShape s = conv_at(n, sub);
    const ConvMethod m = method_of(n);
    if (m == ConvMethod::Explicit) {
      const std::int64_t K = s.ni * s.kr * s.kc;
      const std::int64_t N = s.batch * s.ro() * s.co();
      tr.push_back({n.name + ":dcol", K * N, stp});
      // Unused: the GEMM stores straight into the layer's output. The
      // transient stays in the plan so that the arena, and the plans that
      // mirror the engine's, keep their size.
      tr.push_back({n.name + ":outmat", s.no * N, stp});
    } else if (m == ConvMethod::Winograd) {
      const ops::WinogradPlan p(s);
      tr.push_back({n.name + ":V", p.T() * s.ni * p.P, stp});
      tr.push_back({n.name + ":Mt", p.T() * s.no * p.P, stp});
    }
  }
  // The sub-batch plan scaled by the number of sub-batches that cover the
  // batch: every tensor (and every transient) is linear in the batch, so
  // scaled offsets hold the whole batch without overlap, and the arena is
  // exactly the sum of the per-CG batch-slice plans.
  MemoryPlan plan = plan_memory(fg, sub, tr);
  const std::int64_t slices = ceil_div(batch, sub);
  for (auto& [t, e] : plan.entries) {
    e.offset *= slices;
    e.floats *= slices;
  }
  plan.peak_floats *= slices;
  plan.naive_floats *= slices;
  res.planned_peak_floats = plan.peak_floats;
  res.naive_floats = plan.naive_floats;

  sim::Chip chip(cfg_.machine, G);
  sim::MainMemory& mem = chip.mem();
  if (!functional) mem.set_materialize(false);
  const sim::MainMemory::Addr arena = mem.alloc(plan.peak_floats, "net:arena");
  auto addr = [&](const std::string& t) {
    return arena + plan.entries.at(t).offset;
  };

  std::unordered_map<std::string, sim::MainMemory::Addr> waddr;
  std::unordered_map<std::string, sim::MainMemory::Addr> uaddr;  // winograd
  std::unordered_map<std::string, sim::MainMemory::Addr> baddr;  // fused bias
  for (int idx : order) {
    const Node& n = fg.nodes()[static_cast<std::size_t>(idx)];
    if (n.kind != NodeKind::Conv) continue;
    const ops::ConvShape s = conv_at(n, batch);
    const ConvMethod m = method_of(n);
    const std::int64_t Ni = s.ni, No = s.no;
    const std::int64_t K = Ni * s.kr * s.kc;
    waddr[n.name] = mem.alloc(
        K * No, n.name + (m == ConvMethod::Explicit ? ":wmat" : ":w"));
    if (m == ConvMethod::Winograd) {
      const ops::WinogradPlan p(s);
      uaddr[n.name] = mem.alloc(p.T() * No * Ni, n.name + ":U");
    }
    if (n.epilogue.bias) {
      baddr[n.name] = mem.alloc(No, n.name + ":bvec");
      // Seeded by the *folded Bias node's* name: identical to the bias
      // vector the unfused graph (and the host reference) applies.
      if (functional)
        mem.copy_in(baddr.at(n.name), make_bias(n.bias_name, No));
    }
    if (!functional) continue;
    const std::vector<float> w = make_weights(n.name, s);
    const TunedConv& tc =
        tuned.at(shape_key(m, conv_at(n, sub), n.epilogue));
    if (m != ConvMethod::Winograd) {
      // Written in the layer strategy's weight layout. Explicit GEMM is a
      // 1x1 conv over its column matrix: canonical [kr][kc][ni][no] is
      // already its [K][no], so fold the taps into the channels.
      const ops::ConvShape ws =
          m == ConvMethod::Explicit ? ops::ExplicitConvOp::panel_shape(s) : s;
      const std::int64_t wni = ws.ni;
      const dsl::Strategy& str = tc.strategy();
      const bool ni_major =
          str.has_choice("wlayout") && str.choice("wlayout") == "ni_major";
      auto v = mem.view(waddr.at(n.name), K * No);
      for (std::int64_t kr = 0; kr < ws.kr; ++kr)
        for (std::int64_t kc = 0; kc < ws.kc; ++kc)
          for (std::int64_t ni = 0; ni < wni; ++ni)
            for (std::int64_t no = 0; no < No; ++no) {
              const std::int64_t base = (kr * ws.kc + kc) * wni * No;
              const std::int64_t off =
                  ni_major ? base + no * wni + ni : base + ni * No + no;
              v[static_cast<std::size_t>(off)] =
                  w[static_cast<std::size_t>(base + ni * No + no)];
            }
    } else {
      mem.copy_in(waddr.at(n.name), w);
      ops::WinogradGemmOp::transform_filter(chip.cg(0), waddr.at(n.name),
                                            uaddr.at(n.name),
                                            ops::WinogradPlan(s));
    }
  }

  // Which core group wrote each row of each tensor. Graph inputs arrive
  // spread like a step's output: row slabs over the groups.
  std::unordered_map<std::string, std::vector<int>> owner;
  for (const auto& [t, shape] : fg.inputs()) {
    owner[t] = row_owners(shape.hw, row_slabs(shape.hw, G));
    if (functional)
      fill_input(t, shape, batch,
                 mem.view(addr(t), shape.floats(batch)).data());
  }

  // --- Execute the schedule: tensors flow through the arena, each step
  // split into row slabs over the groups; the chip timeline advances by
  // the slowest group per step plus the NoC barrier per multi-group
  // convolution launch. ---
  double net_time = 0.0;
  sim::CgStats agg;
  for (int stp = 0; stp < steps; ++stp) {
    const Node& n = fg.nodes()[static_cast<std::size_t>(order[stp])];
    const TensorShape& os = shapes.at(n.output);
    LayerReport lr;
    lr.name = n.name;
    lr.kind = node_kind_name(n.kind);
    lr.groups = G;
    std::vector<RowSlab> slabs;
    std::vector<double> cycles;
    std::int64_t border = 0;
    if (n.kind == NodeKind::Conv) {
      const ops::ConvShape layer = conv_at(n, batch);
      const ConvMethod m = method_of(n);
      const TunedConv& tc =
          tuned.at(shape_key(m, conv_at(n, sub), n.epilogue));
      lr.conv = true;
      lr.fused = n.epilogue.any();
      lr.kind = conv_method_name(m);
      lr.from_cache = tc.pick.from_cache;
      lr.shape = layer;
      lr.flops = layer.flops();
      slabs = row_slabs(layer.ro(), G, row_quantum(m, layer));
      border = n.epilogue.out_pad;
      const std::int64_t S = layer.stride;
      // Floats per tensor row at the whole batch.
      const std::int64_t in_row = layer.ni * layer.ci * batch;
      const std::int64_t out_row = layer.no * os.hw * batch;
      const std::int64_t res_row = layer.no * layer.co() * batch;
      // The accumulating implicit kernel -- explicit GEMM runs one too --
      // needs a zeroed output (and a fused out_pad its zero border):
      // written once per step, before any group stores into it.
      if (functional && m != ConvMethod::Winograd)
        mem.fill(addr(n.output), os.floats(batch), 0.0f);
      // The step's scratch buffers (explicit: dcol; Winograd: V, Mt) and
      // the floats of them earlier slabs took: each group has its own
      // share.
      const bool expl = m == ConvMethod::Explicit;
      const std::string scratch0 = n.name + (expl ? ":dcol" : ":V");
      const std::string scratch1 = n.name + (expl ? ":outmat" : ":Mt");
      std::int64_t used0 = 0, used1 = 0;
      for (std::size_t gi = 0; gi < slabs.size(); ++gi) {
        sim::CoreGroup& cg = chip.cg(static_cast<int>(gi));
        const RowSlab& sl = slabs[gi];
        const ops::ConvShape s = slab_shape(layer, sl);
        const sim::MainMemory::Addr in = addr(n.inputs[0]) + sl.r0 * S * in_row;
        const sim::MainMemory::Addr out = addr(n.output) + sl.r0 * out_row;
        dsl::BoundTensors bt;
        sim::MainMemory::Addr t0 = 0, t1 = 0;  // this slab's transients
        if (m == ConvMethod::Implicit) {
          bt = {{"in", in}, {"w", waddr.at(n.name)}, {"out", out}};
          if (n.epilogue.bias) bt["bias"] = baddr.at(n.name);
          if (n.epilogue.residual)
            bt["res"] = addr(n.inputs[1]) + sl.r0 * res_row;
        } else if (m == ConvMethod::Explicit) {
          t0 = addr(scratch0) + used0;
          used0 += s.ni * s.kr * s.kc * s.batch * s.ro() * s.co();
          if (functional) ops::ExplicitConvOp::im2col(cg, in, t0, s);
          bt = {{"in", t0}, {"w", waddr.at(n.name)}, {"out", out}};
        } else {
          const ops::WinogradPlan p(s);
          t0 = addr(scratch0) + used0;
          t1 = addr(scratch1) + used1;
          used0 += p.T() * s.ni * p.P;
          used1 += p.T() * s.no * p.P;
          if (functional) {
            ops::WinogradGemmOp::transform_input(cg, in, t0, p);
            mem.fill(t1, p.T() * s.no * p.P, 0.0f);
          }
          bt = {{"U", uaddr.at(n.name)}, {"V", t0}, {"Mt", t1}};
        }
        // Inter-layer residency: operands the plan pinned on-chip, by the
        // operator's own tensor names (implicit GEMM only -- the planner
        // gates conv edges on the method).
        rt::ResidentSet rs;
        if (m == ConvMethod::Implicit) {
          if (rplan.resident.count(n.inputs[0])) rs.tensors.insert("in");
          if (rplan.resident.count(n.output)) rs.tensors.insert("out");
          if (n.epilogue.residual && rplan.resident.count(n.inputs[1]))
            rs.tensors.insert("res");
        }
        // Interpreter::run resets the CG clock and statistics, so the
        // slab's cycles are cg.now() afterwards and the pre/post charges
        // must come after the run.
        const rt::RunResult rr = tc.slabs.at(s.ri).run(
            cg, bt, opts.mode, rs.empty() ? nullptr : &rs);
        lr.dma_bytes_elided += rr.bytes_elided;
        if (m == ConvMethod::Explicit) {
          ops::ExplicitConvOp::charge_im2col(cg, in, t0, s);
        } else if (m == ConvMethod::Winograd) {
          const ops::WinogradPlan p(s);
          if (functional)
            ops::WinogradGemmOp::inverse_transform(cg, t1, out, p);
          ops::WinogradGemmOp::charge_pre_post(cg, p);
        }
        if (border > 0) {
          // The fused kernel writes only the interior. Each group zeroes
          // the border columns of its rows, the first and last groups also
          // the top and bottom border rows (an absorbed Pad's remaining
          // cost).
          const std::int64_t edge_rows =
              (gi == 0 ? border : 0) + (gi + 1 == slabs.size() ? border : 0);
          charge_mpe_pass(
              cg, 0,
              (edge_rows * os.hw + sl.rows * 2 * border) * os.channels * batch,
              0.0);
        }
        // Input rows another group wrote: the 3x3 halo, and rows across a
        // stride or pad boundary.
        std::vector<sim::DmaCpeDesc> halo;
        add_halo(halo, owner.at(n.inputs[0]), static_cast<int>(gi),
                 sl.r0 * S, sl.r0 * S + s.ri, addr(n.inputs[0]), in_row);
        if (n.epilogue.residual)
          add_halo(halo, owner.at(n.inputs[1]), static_cast<int>(gi), sl.r0,
                   sl.r0 + sl.rows, addr(n.inputs[1]), res_row);
        lr.halo_bytes += charge_halo(cg, halo);
        cycles.push_back(cg.now());
      }
      if (m != ConvMethod::Implicit) {
        SWATOP_CHECK(used0 <= plan.entries.at(scratch0).floats &&
                     used1 <= plan.entries.at(scratch1).floats)
            << "row slabs of '" << n.name << "' overflow their scratch";
      }
    } else {
      const TensorShape& is = shapes.at(n.inputs[0]);
      const std::int64_t b = batch;
      const std::int64_t nin = is.floats(b), nout = os.floats(b);
      if (functional) {
        // The pass moves the whole tensor once; the groups' row slabs
        // below are what it costs.
        auto dst = mem.view(addr(n.output), nout);
        auto src = mem.view(addr(n.inputs[0]), nin);
        switch (n.kind) {
          case NodeKind::Bias: {
            std::copy(src.begin(), src.end(), dst.begin());
            const std::vector<float> bias = make_bias(n.name, os.channels);
            ops::reference_bias_add(dst.data(), bias.data(), os.hw,
                                    os.channels, os.hw, b);
            break;
          }
          case NodeKind::Relu:
            std::copy(src.begin(), src.end(), dst.begin());
            ops::reference_relu(dst.data(), nout);
            break;
          case NodeKind::MaxPool2x2:
            ops::reference_maxpool2x2(src.data(), dst.data(), is.hw,
                                      is.channels, is.hw, b);
            break;
          case NodeKind::Pad:
            ops::reference_pad(src.data(), dst.data(), is.hw, is.channels,
                               is.hw, b, n.pad);
            break;
          case NodeKind::Add: {
            auto b2 = mem.view(addr(n.inputs[1]), nin);
            ops::reference_eltwise_add(src.data(), b2.data(), dst.data(),
                                       nout);
            break;
          }
          case NodeKind::Conv: SWATOP_UNREACHABLE("handled above");
        }
      }
      slabs = row_slabs(os.hw, G);
      const std::int64_t out_row = os.hw * os.channels * b;
      for (std::size_t gi = 0; gi < slabs.size(); ++gi) {
        sim::CoreGroup& cg = chip.cg(static_cast<int>(gi));
        const RowSlab& sl = slabs[gi];
        const double t0 = cg.now();
        // The input rows this slab of output rows reads.
        std::int64_t lo = sl.r0, hi = sl.r0 + sl.rows;
        if (n.kind == NodeKind::MaxPool2x2) {
          lo *= 2;
          hi *= 2;
        } else if (n.kind == NodeKind::Pad) {
          lo = std::clamp<std::int64_t>(lo - n.pad, 0, is.hw);
          hi = std::clamp<std::int64_t>(hi - n.pad, 0, is.hw);
        }
        const std::int64_t write_f = sl.rows * out_row;
        std::int64_t read_f = 0;
        // SPM residency: a resident operand's reload and a resident
        // output's store never touch DRAM -- the tiles stay on-chip
        // between this pass and its neighbour.
        std::int64_t elide_read = 0, elide_write = 0;
        std::vector<sim::DmaCpeDesc> halo;
        for (const std::string& t : n.inputs) {
          const TensorShape& ts = shapes.at(t);
          const std::int64_t row = ts.hw * ts.channels * b;
          read_f += (hi - lo) * row;
          if (rplan.resident.count(t)) elide_read += (hi - lo) * row;
          add_halo(halo, owner.at(t), static_cast<int>(gi), lo, hi, addr(t),
                   row);
        }
        if (rplan.resident.count(n.output)) elide_write = write_f;
        lr.dma_bytes_elided += (elide_read + elide_write) * 4;
        const double ops = n.kind == NodeKind::MaxPool2x2 ? 3.0 * write_f
                           : n.kind == NodeKind::Pad      ? 0.0
                                                          : double(write_f);
        charge_mpe_pass(cg, read_f - elide_read, write_f - elide_write, ops);
        lr.halo_bytes += charge_halo(cg, halo);
        cycles.push_back(cg.now() - t0);
      }
    }
    double step_max = 0.0;
    for (std::size_t gi = 0; gi < slabs.size(); ++gi) {
      sim::CoreGroup& cg = chip.cg(static_cast<int>(gi));
      lr.stats.add(cg.stats());
      lr.group_cycles += cycles[gi];
      agg.add(cg.stats());
      cg.stats() = sim::CgStats{};
      if (rec && rec->tracing()) {
        obs::TraceEvent ev;
        ev.name = n.name;
        ev.cat = n.kind == NodeKind::Conv ? obs::Category::Compute
                                          : obs::Category::Run;
        ev.tid = obs::Track::kNetCg0 + static_cast<int>(gi);
        ev.ts = net_time;
        ev.dur = cycles[gi];
        ev.arg_name[0] = "rows";
        ev.arg[0] = slabs[gi].rows;
        rec->trace_event(std::move(ev));
      }
      step_max = std::max(step_max, cycles[gi]);
    }
    owner[n.output] = row_owners(os.hw, slabs, border);
    const double sync = (n.kind == NodeKind::Conv && slabs.size() > 1)
                            ? chip.sync_cycles()
                            : 0.0;
    res.sync_cycles += sync;
    net_time += step_max + sync;
    res.flops += lr.flops;
    res.halo_bytes += lr.halo_bytes;
    lr.cycles = step_max + sync;
    lr.sync_cycles = sync;
    if (lr.cycles > 0.0 && lr.flops > 0)
      lr.gflops = static_cast<double>(lr.flops) / lr.cycles *
                  cfg_.machine.clock_ghz;
    res.dma_bytes_elided += lr.dma_bytes_elided;
    res.layers.push_back(std::move(lr));
  }
  res.cycles = net_time;
  res.chip_stats = agg;

  if (res.cycles > 0.0)
    res.gflops = static_cast<double>(res.flops) / res.cycles *
                 cfg_.machine.clock_ghz;
  res.ms_per_batch = res.cycles / (cfg_.machine.clock_ghz * 1e6);
  res.ms_per_image = res.ms_per_batch / static_cast<double>(batch);
  const double peak = cfg_.machine.peak_gflops() * static_cast<double>(G);
  if (peak > 0.0) res.efficiency = res.gflops / peak;

  // --- Functional check against the naive whole-net reference. ---
  if (functional && opts.check) {
    res.checked = true;
    const auto ref = reference_forward(g, batch);
    double max_rel = 0.0;
    for (const std::string& t : g.outputs()) {
      const std::vector<float>& rv = ref.at(t);
      auto v = mem.view(addr(t), shapes.at(t).floats(batch));
      double ref_max = 0.0, diff = 0.0;
      for (std::size_t i = 0; i < rv.size(); ++i) {
        ref_max = std::max(ref_max, std::fabs(double(rv[i])));
        diff = std::max(diff, std::fabs(double(v[i]) - double(rv[i])));
      }
      max_rel = std::max(max_rel, diff / (ref_max + 1e-30));
    }
    res.max_rel_err = max_rel;
  }

  if (rec) {
    obs::Counters& c = rec->counters();
    c.total_cycles = res.cycles;
    c.compute_cycles = res.chip_stats.compute_cycles;
    c.gemm_cycles = res.chip_stats.gemm_cycles;
    c.gemm_comm_cycles = res.chip_stats.gemm_comm_cycles;
    c.pipe = res.chip_stats.pipe;
    c.flops = res.chip_stats.flops;
    c.gemm_calls = res.chip_stats.gemm_calls;
    c.dma.stall_cycles = res.chip_stats.dma_stall_cycles;
    c.dma.queue_wait_cycles = res.chip_stats.dma_queue_wait_cycles;
    c.dma.bytes_requested = res.chip_stats.dma_bytes_requested;
    c.dma.bytes_wasted = res.chip_stats.dma_bytes_wasted;
    c.dma.bytes_elided = res.dma_bytes_elided;
    c.dma.transactions = res.chip_stats.dma_transactions;
    c.dma.transfers = res.chip_stats.dma_transfers;
    c.arena_planned_bytes = res.planned_peak_floats * 4;
    c.arena_naive_bytes = res.naive_floats * 4;
    // The optimizer counted cache and replay traffic into `rec` while
    // tuning; the tuning time is the whole phase's wall clock.
    rec->tune().seconds = res.tune_seconds;
    res.profile = obs::Profile::snapshot(*rec);
  }
  return res;
}

}  // namespace swatop::graph
