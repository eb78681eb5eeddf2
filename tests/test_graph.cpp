// Graph subsystem: IR validation, network builders, the memory planner's
// packing invariants, the naive reference kernels, and the engine running
// tiny networks end-to-end (functional check, multi-CG splits, schedule
// dedup / cache reuse, Winograd).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <vector>

#include "common/check.hpp"
#include "common/math_util.hpp"
#include "graph/build.hpp"
#include "graph/compile.hpp"
#include "graph/engine.hpp"
#include "graph/fuse.hpp"
#include "graph/graph.hpp"
#include "graph/memory_plan.hpp"
#include "graph/reference.hpp"
#include "ops/implicit_conv.hpp"
#include "ops/reference.hpp"
#include "sim/chip.hpp"

namespace swatop::graph {
namespace {

Node node(NodeKind kind, std::string name, std::vector<std::string> inputs,
          std::string output) {
  Node n;
  n.kind = kind;
  n.name = std::move(name);
  n.inputs = std::move(inputs);
  n.output = std::move(output);
  return n;
}

/// pad -> conv(3x3, 8 -> 16) -> bias -> relu -> pool on an 8x8 input, then
/// `extra_convs` identical-shape 3x3 16->16 blocks on the pooled 4x4 map.
/// All extents are tiny so tuning stays fast under max_candidates.
Graph make_tiny(int extra_convs) {
  Graph g("tiny");
  g.add_input("in", {8, 8});

  Node pad1 = node(NodeKind::Pad, "pad1", {"in"}, "t:pad1");
  pad1.pad = 1;
  g.add(pad1);
  Node conv1 = node(NodeKind::Conv, "conv1", {"t:pad1"}, "t:conv1");
  conv1.kernel = 3;
  conv1.channels_out = 16;
  g.add(conv1);
  g.add(node(NodeKind::Bias, "bias1", {"t:conv1"}, "t:bias1"));
  g.add(node(NodeKind::Relu, "relu1", {"t:bias1"}, "t:relu1"));
  g.add(node(NodeKind::MaxPool2x2, "pool1", {"t:relu1"}, "t:pool1"));

  std::string prev = "t:pool1";
  for (int i = 0; i < extra_convs; ++i) {
    const std::string tag = "c" + std::to_string(i + 2);
    Node pad = node(NodeKind::Pad, "pad" + tag, {prev}, "t:pad" + tag);
    pad.pad = 1;
    g.add(pad);
    Node conv = node(NodeKind::Conv, "conv" + tag, {"t:pad" + tag},
                     "t:conv" + tag);
    conv.kernel = 3;
    conv.channels_out = 16;
    g.add(conv);
    g.add(node(NodeKind::Bias, "bias" + tag, {"t:conv" + tag}, "t:bias" + tag));
    g.add(node(NodeKind::Relu, "relu" + tag, {"t:bias" + tag}, "t:out" + tag));
    prev = "t:out" + tag;
  }
  return g;
}

SwatopConfig fast_cfg() {
  SwatopConfig cfg;
  cfg.max_candidates = 24;  // bound the schedule space for test speed
  return cfg;
}

// ---------------------------------------------------------------- IR

TEST(Graph, ValidTinyNetHasNoProblems) {
  const Graph g = make_tiny(1);
  EXPECT_TRUE(g.validate().empty());
  EXPECT_EQ(g.conv_count(), 2);
  EXPECT_EQ(g.topo_order().size(), g.nodes().size());
  const auto outs = g.outputs();
  ASSERT_EQ(outs.size(), 1u);
  EXPECT_EQ(outs[0], "t:outc2");
  const auto shapes = g.shapes();
  EXPECT_EQ(shapes.at("t:pool1"), (TensorShape{4, 16}));
  EXPECT_EQ(shapes.at("t:outc2"), (TensorShape{4, 16}));
}

TEST(Graph, UnknownInputTensorIsReported) {
  Graph g;
  g.add(node(NodeKind::Relu, "r", {"ghost"}, "out"));
  const auto problems = g.validate();
  ASSERT_FALSE(problems.empty());
  EXPECT_THROW(g.topo_order(), CheckError);
  EXPECT_THROW(g.validate_or_throw(), CheckError);
}

TEST(Graph, DoubleProducerIsReported) {
  Graph g;
  g.add_input("in", {4, 4});
  g.add(node(NodeKind::Relu, "a", {"in"}, "t"));
  g.add(node(NodeKind::Relu, "b", {"in"}, "t"));
  EXPECT_FALSE(g.validate().empty());
}

TEST(Graph, CycleIsReported) {
  Graph g;
  g.add(node(NodeKind::Relu, "a", {"y"}, "x"));
  g.add(node(NodeKind::Relu, "b", {"x"}, "y"));
  EXPECT_FALSE(g.validate().empty());
  EXPECT_THROW(g.topo_order(), CheckError);
}

TEST(Graph, AddShapeMismatchIsReported) {
  Graph g;
  g.add_input("a", {4, 8});
  g.add_input("b", {4, 16});
  g.add(node(NodeKind::Add, "sum", {"a", "b"}, "out"));
  EXPECT_FALSE(g.validate().empty());
}

TEST(Graph, OddExtentPoolIsReported) {
  Graph g;
  g.add_input("in", {5, 8});
  g.add(node(NodeKind::MaxPool2x2, "p", {"in"}, "out"));
  EXPECT_FALSE(g.validate().empty());
}

TEST(Graph, KernelLargerThanInputIsReported) {
  Graph g;
  g.add_input("in", {2, 8});
  Node c = node(NodeKind::Conv, "c", {"in"}, "out");
  c.kernel = 3;
  c.channels_out = 8;
  g.add(c);
  EXPECT_FALSE(g.validate().empty());
}

TEST(Graph, ConvShapeAtBatch) {
  const Graph g = make_tiny(0);
  const Node& conv = g.nodes()[1];
  ASSERT_EQ(conv.kind, NodeKind::Conv);
  const ops::ConvShape s = g.conv_shape(conv, 4);
  EXPECT_EQ(s.batch, 4);
  EXPECT_EQ(s.ri, 10);  // 8 + 2*pad
  EXPECT_EQ(s.ci, 10);
  EXPECT_EQ(s.ni, 8);
  EXPECT_EQ(s.no, 16);
  EXPECT_EQ(s.kr, 3);
  EXPECT_EQ(s.kc, 3);
}

// ---------------------------------------------------------------- builders

TEST(Build, EvaluationNetworksValidate) {
  for (const char* net : {"vgg16", "resnet", "yolo"}) {
    const Graph g = build_net(net);
    EXPECT_TRUE(g.validate().empty()) << net;
    EXPECT_GT(g.conv_count(), 0) << net;
    EXPECT_FALSE(g.outputs().empty()) << net;
  }
  EXPECT_EQ(build_net("vgg16").conv_count(), 13);
  EXPECT_THROW(build_net("lenet"), CheckError);
}

TEST(Build, ResnetHasResidualAdds) {
  const Graph g = build_net("resnet");
  int adds = 0;
  for (const Node& n : g.nodes())
    if (n.kind == NodeKind::Add) ++adds;
  EXPECT_GT(adds, 0);
}

// ---------------------------------------------------------------- planner

/// Any two tensors whose lifetimes intersect must not overlap in the arena.
void expect_no_live_overlap(const MemoryPlan& plan) {
  const std::vector<std::pair<std::string, PlanEntry>> v(plan.entries.begin(),
                                                         plan.entries.end());
  for (std::size_t i = 0; i < v.size(); ++i) {
    for (std::size_t j = i + 1; j < v.size(); ++j) {
      const PlanEntry& a = v[i].second;
      const PlanEntry& b = v[j].second;
      const bool live_together = a.first <= b.last && b.first <= a.last;
      if (!live_together) continue;
      const bool disjoint = a.offset + a.floats <= b.offset ||
                            b.offset + b.floats <= a.offset;
      EXPECT_TRUE(disjoint) << v[i].first << " overlaps " << v[j].first;
    }
  }
}

TEST(MemoryPlan, PacksWithoutLiveOverlap) {
  for (const char* net : {"vgg16", "resnet", "yolo"}) {
    const MemoryPlan plan = plan_memory(build_net(net), 2);
    EXPECT_GT(plan.peak_floats, 0) << net;
    EXPECT_LE(plan.peak_floats, plan.naive_floats) << net;
    expect_no_live_overlap(plan);
    for (const auto& [name, e] : plan.entries)
      EXPECT_EQ(e.offset % plan.alignment, 0) << net << " " << name;
  }
}

TEST(MemoryPlan, Vgg16ReusesWellUnderNaive) {
  // The acceptance bar: a 13-conv chain's planned peak must be at most 60%
  // of binding every inter-layer tensor separately.
  const MemoryPlan plan = plan_memory(build_net("vgg16"), 4);
  EXPECT_LE(plan.reuse_ratio(), 0.60);
}

TEST(MemoryPlan, TransientsArePlannedAtTheirStep) {
  const Graph g = make_tiny(0);
  const std::int64_t before = plan_memory(g, 1).naive_floats;
  std::vector<Transient> tr{{"conv1:dcol", 4096, 1}};
  const MemoryPlan plan = plan_memory(g, 1, tr);
  ASSERT_TRUE(plan.entries.count("conv1:dcol"));
  const PlanEntry& e = plan.entries.at("conv1:dcol");
  EXPECT_EQ(e.first, 1);
  EXPECT_EQ(e.last, 1);
  EXPECT_EQ(plan.naive_floats, before + 4096);
  expect_no_live_overlap(plan);
}

TEST(MemoryPlan, InvalidGraphThrows) {
  Graph g;
  g.add(node(NodeKind::Relu, "r", {"ghost"}, "out"));
  EXPECT_THROW(plan_memory(g, 1), CheckError);
}

// ---------------------------------------------------------------- kernels

TEST(RefKernels, BiasAddPerChannel) {
  // [rows=1][ch=2][cols=2][batch=1]
  std::vector<float> t{1.0f, 2.0f, 3.0f, 4.0f};
  const std::vector<float> bias{10.0f, 20.0f};
  ops::reference_bias_add(t.data(), bias.data(), 1, 2, 2, 1);
  EXPECT_FLOAT_EQ(t[0], 11.0f);
  EXPECT_FLOAT_EQ(t[1], 12.0f);
  EXPECT_FLOAT_EQ(t[2], 23.0f);
  EXPECT_FLOAT_EQ(t[3], 24.0f);
}

TEST(RefKernels, ReluClampsNegatives) {
  std::vector<float> t{-1.0f, 0.0f, 2.5f, -0.5f};
  ops::reference_relu(t.data(), 4);
  EXPECT_FLOAT_EQ(t[0], 0.0f);
  EXPECT_FLOAT_EQ(t[1], 0.0f);
  EXPECT_FLOAT_EQ(t[2], 2.5f);
  EXPECT_FLOAT_EQ(t[3], 0.0f);
}

TEST(RefKernels, MaxPool2x2TakesWindowMax) {
  // [rows=2][ch=1][cols=2][batch=1]: one 2x2 window.
  const std::vector<float> in{1.0f, 4.0f, 3.0f, 2.0f};
  std::vector<float> out(1, -1.0f);
  ops::reference_maxpool2x2(in.data(), out.data(), 2, 1, 2, 1);
  EXPECT_FLOAT_EQ(out[0], 4.0f);
}

TEST(RefKernels, EltwiseAdd) {
  const std::vector<float> a{1.0f, 2.0f};
  const std::vector<float> b{10.0f, 20.0f};
  std::vector<float> out(2);
  ops::reference_eltwise_add(a.data(), b.data(), out.data(), 2);
  EXPECT_FLOAT_EQ(out[0], 11.0f);
  EXPECT_FLOAT_EQ(out[1], 22.0f);
}

TEST(RefKernels, PadZeroesTheBorder) {
  // 1x1 spatial, 1 channel, batch 1, pad 1 -> 3x3 with the value centered.
  const std::vector<float> in{7.0f};
  std::vector<float> out(9, -1.0f);
  ops::reference_pad(in.data(), out.data(), 1, 1, 1, 1, 1);
  for (int i = 0; i < 9; ++i)
    EXPECT_FLOAT_EQ(out[i], i == 4 ? 7.0f : 0.0f) << i;
}

// ---------------------------------------------------------------- fusion

/// A fusible block: conv(3x3, 32 -> 32) -> bias -> relu on an 8x8 input
/// (ni = 32, so implicit GEMM applies and the engine fuses it). With
/// `residual`, a same-shape second input rides an Add between bias and
/// relu -- the resnet tail shape. With `tail_pad`, a Pad follows relu.
Graph make_fusible(bool residual, bool tail_pad = false) {
  Graph g("fusible");
  g.add_input("in", {8, 32});
  Node conv = node(NodeKind::Conv, "conv", {"in"}, "t:conv");
  conv.kernel = 3;
  conv.channels_out = 32;
  g.add(conv);
  g.add(node(NodeKind::Bias, "conv.bias", {"t:conv"}, "t:bias"));
  std::string cur = "t:bias";
  if (residual) {
    g.add_input("shortcut", {6, 32});
    g.add(node(NodeKind::Add, "conv.add", {cur, "shortcut"}, "t:sum"));
    cur = "t:sum";
  }
  g.add(node(NodeKind::Relu, "conv.relu", {cur}, "t:relu"));
  if (tail_pad) {
    Node pad = node(NodeKind::Pad, "conv.pad", {"t:relu"}, "t:pad");
    pad.pad = 1;
    g.add(pad);
  }
  return g;
}

TEST(Fuse, ChainCollapsesToSingleNode) {
  const Graph g = make_fusible(false);
  FusionStats st;
  const Graph f = fuse_epilogues(g, &st);
  EXPECT_TRUE(f.validate().empty());
  ASSERT_EQ(f.nodes().size(), 1u);
  const Node& n = f.nodes()[0];
  EXPECT_EQ(n.kind, NodeKind::Conv);
  EXPECT_TRUE(n.epilogue.bias);
  EXPECT_TRUE(n.epilogue.relu);
  EXPECT_FALSE(n.epilogue.residual);
  EXPECT_EQ(n.bias_name, "conv.bias");  // seeds the same bias vector
  EXPECT_EQ(n.output, "t:relu");        // the chain tail's tensor
  EXPECT_EQ(st.convs_fused, 1);
  EXPECT_EQ(st.bias_folded, 1);
  EXPECT_EQ(st.relu_folded, 1);
  EXPECT_EQ(st.nodes_removed(), 2);
}

TEST(Fuse, ResidualAddAndPadAreAbsorbed) {
  const Graph g = make_fusible(true, /*tail_pad=*/true);
  FusionStats st;
  const Graph f = fuse_epilogues(g, &st);
  EXPECT_TRUE(f.validate().empty());
  ASSERT_EQ(f.nodes().size(), 1u);
  const Node& n = f.nodes()[0];
  EXPECT_TRUE(n.epilogue.bias);
  EXPECT_TRUE(n.epilogue.residual);
  EXPECT_TRUE(n.epilogue.relu);
  EXPECT_EQ(n.epilogue.out_pad, 1);
  ASSERT_EQ(n.inputs.size(), 2u);
  EXPECT_EQ(n.inputs[1], "shortcut");  // the residual operand
  EXPECT_EQ(n.output, "t:pad");
  EXPECT_EQ(st.add_folded, 1);
  EXPECT_EQ(st.pad_folded, 1);
  // The padded output shape matches the unfused graph's.
  EXPECT_EQ(f.shapes().at("t:pad"), g.shapes().at("t:pad"));
}

TEST(Fuse, MultiConsumerIntermediateBlocksAbsorption) {
  // The conv output feeds bias AND a pool: absorbing bias would hide a
  // tensor the pool still needs, so nothing fuses.
  Graph g = make_fusible(false);
  g.add(node(NodeKind::MaxPool2x2, "pool", {"t:conv"}, "t:pool"));
  FusionStats st;
  const Graph f = fuse_epilogues(g, &st);
  EXPECT_TRUE(f.validate().empty());
  EXPECT_EQ(st.bias_folded, 0);
  EXPECT_EQ(st.convs_fused, 0);
  EXPECT_EQ(f.nodes().size(), g.nodes().size());
}

TEST(Fuse, PredicateGatesWhichConvsFuse) {
  const Graph g = make_fusible(false);
  FusionStats st;
  const Graph f =
      fuse_epilogues(g, &st, [](const Node&) { return false; });
  EXPECT_EQ(st.convs_fused, 0);
  EXPECT_EQ(f.nodes().size(), g.nodes().size());
}

TEST(Graph, FusedResidualShapeMismatchIsReported) {
  // A fused residual operand must match the conv's *raw* output shape
  // before the planner ever sees the graph (satellite of ISSUE 6).
  Graph g;
  g.add_input("in", {8, 32});
  g.add_input("shortcut", {4, 32});  // wrong: conv raw output is 6x6
  Node conv = node(NodeKind::Conv, "conv", {"in", "shortcut"}, "out");
  conv.kernel = 3;
  conv.channels_out = 32;
  conv.epilogue.bias = true;
  conv.epilogue.residual = true;
  conv.epilogue.relu = true;
  g.add(conv);
  const auto problems = g.validate();
  ASSERT_FALSE(problems.empty());
  EXPECT_NE(problems[0].find("residual"), std::string::npos);
  // Fixing the operand shape clears it.
  Graph ok;
  ok.add_input("in", {8, 32});
  ok.add_input("shortcut", {6, 32});
  ok.add(conv);
  EXPECT_TRUE(ok.validate().empty());
}

TEST(Residency, AdjacentMpePassesPinTheHandoverTensor) {
  // pool -> pad back to back: pool's output is consumed only by pad, so
  // the tiles hand over on-chip. Conv-adjacent edges need a budget.
  const Graph g = make_tiny(1);
  const ResidencyPlan rp = plan_residency(g);
  EXPECT_TRUE(rp.resident.count("t:pool1"));
  EXPECT_GT(rp.resident_floats_per_image, 0);
  // Conv operands stay materialized without a conv budget.
  EXPECT_FALSE(rp.resident.count("t:pad1"));
  EXPECT_FALSE(rp.resident.count("t:conv1"));
}

TEST(Residency, ConvEdgesNeedBudgetAndGate) {
  // conv -> bias adjacent edge: resident only when the tensor fits the
  // conv budget and the conv passes the gate.
  const Graph g = make_fusible(false);
  ResidencyOptions o;
  o.batch = 2;
  o.conv_budget_floats = g.shapes().at("t:conv").floats(2);
  const ResidencyPlan rp = plan_residency(g, o);
  EXPECT_TRUE(rp.resident.count("t:conv"));
  // One float short: the whole tensor no longer fits.
  o.conv_budget_floats -= 1;
  EXPECT_FALSE(plan_residency(g, o).resident.count("t:conv"));
  // The engine's gate (e.g. "implicit only") excludes the conv endpoint.
  o.conv_budget_floats += 1;
  o.conv_ok = [](const Node&) { return false; };
  EXPECT_FALSE(plan_residency(g, o).resident.count("t:conv"));
}

TEST(Engine, FusedBlockMatchesReferenceAndElidesTraffic) {
  // Functional equivalence of the fused implicit kernel against the
  // *unfused* host reference (the engine always checks the original
  // graph), plus the ablation: fusion off prices strictly more cycles.
  GraphEngine engine(fast_cfg());
  NetOptions fused;  // fusion + residency default on
  const NetRunResult r = engine.run(make_fusible(true), 2, fused);
  EXPECT_TRUE(r.checked);
  EXPECT_LT(r.max_rel_err, 1e-4);
  EXPECT_EQ(r.fusion.convs_fused, 1);
  EXPECT_EQ(r.fusion.add_folded, 1);
  ASSERT_FALSE(r.layers.empty());
  EXPECT_TRUE(r.layers[0].fused);

  NetOptions off;
  off.fusion = false;
  off.residency = false;
  const NetRunResult u = engine.run(make_fusible(true), 2, off);
  EXPECT_TRUE(u.checked);
  EXPECT_LT(u.max_rel_err, 1e-4);
  EXPECT_EQ(u.fusion.convs_fused, 0);
  EXPECT_EQ(u.dma_bytes_elided, 0);
  EXPECT_GT(u.layers.size(), r.layers.size());
  EXPECT_GT(u.cycles, r.cycles);
}

TEST(Engine, ResidencyElidesBytesOnFusibleChain) {
  // Two fusible convs back to back: the inter-conv tensor fits the SPM
  // budget, so its store + reload are elided and counted.
  Graph g("chain");
  g.add_input("in", {10, 32});
  Node c1 = node(NodeKind::Conv, "c1", {"in"}, "t:c1");
  c1.kernel = 3;
  c1.channels_out = 32;
  g.add(c1);
  g.add(node(NodeKind::Relu, "c1.relu", {"t:c1"}, "t:r1"));
  Node c2 = node(NodeKind::Conv, "c2", {"t:r1"}, "t:c2");
  c2.kernel = 3;
  c2.channels_out = 32;
  g.add(c2);

  GraphEngine engine(fast_cfg());
  const NetRunResult r = engine.run(g, 2, NetOptions{});
  EXPECT_TRUE(r.checked);
  EXPECT_LT(r.max_rel_err, 1e-4);
  EXPECT_GT(r.resident_tensors, 0);
  EXPECT_GT(r.dma_bytes_elided, 0);
  std::int64_t layer_sum = 0;
  for (const LayerReport& lr : r.layers) layer_sum += lr.dma_bytes_elided;
  EXPECT_EQ(layer_sum, r.dma_bytes_elided);

  NetOptions noresidency;
  noresidency.residency = false;
  const NetRunResult n = engine.run(g, 2, noresidency);
  EXPECT_EQ(n.dma_bytes_elided, 0);
  EXPECT_GT(n.cycles, r.cycles);  // the elided DMA was real priced time
  EXPECT_TRUE(n.checked);
  EXPECT_LT(n.max_rel_err, 1e-4);
}

// Fused-vs-unfused functional equivalence on the evaluation networks'
// real layer geometry. Full-net functional runs take minutes each, so
// tier-1 uses the tail slice of each table (the full nets run checked in
// the CI e2e smoke and bench_net_e2e); both runs are validated against
// the host reference of the *unfused* graph, which is the equivalence
// statement -- the engine never checks against its own fused execution.
void expect_fused_equivalence(const Graph& g, bool expect_elided) {
  GraphEngine engine(fast_cfg());
  const NetRunResult r = engine.run(g, 1, NetOptions{});
  EXPECT_TRUE(r.checked);
  EXPECT_LT(r.max_rel_err, 1e-4);
  EXPECT_GT(r.fusion.convs_fused, 0);
  if (expect_elided) {
    EXPECT_GT(r.dma_bytes_elided, 0);
  }

  NetOptions off;
  off.fusion = false;
  off.residency = false;
  const NetRunResult u = engine.run(g, 1, off);
  EXPECT_TRUE(u.checked);
  EXPECT_LT(u.max_rel_err, 1e-4);
  EXPECT_EQ(u.fusion.convs_fused, 0);
  EXPECT_LT(r.cycles, u.cycles);
}

TEST(Engine, Vgg16TailFusedMatchesReference) {
  const auto t = nets::vgg16();
  expect_fused_equivalence(
      build_chain("vgg16-tail", {t[t.size() - 2], t[t.size() - 1]}), true);
}

TEST(Engine, YoloTailFusedMatchesReference) {
  // conv15 (1x1) -> conv16 (3x3): the inter-layer Pad is absorbed as
  // conv15's out_pad, so this slice also covers pad folding end to end.
  const auto t = nets::yolo();
  expect_fused_equivalence(
      build_chain("yolo-tail", {t[t.size() - 2], t[t.size() - 1]}), true);
}

TEST(Engine, ResnetBottleneckTailFusedMatchesReference) {
  // The res5_3x3 tail of a ResNet-50 bottleneck at table geometry:
  // conv(3x3, 512 -> 512 @ 7) -> bias -> residual add -> relu, the
  // Conv+Bias+Add+Relu chain the fusion pass exists for.
  Graph g("res5-tail");
  g.add_input("in", {9, 512});
  g.add_input("shortcut", {7, 512});
  Node conv = node(NodeKind::Conv, "res5_3x3", {"in"}, "t:conv");
  conv.kernel = 3;
  conv.channels_out = 512;
  g.add(conv);
  g.add(node(NodeKind::Bias, "res5_3x3.bias", {"t:conv"}, "t:bias"));
  g.add(node(NodeKind::Add, "res5_add", {"t:bias", "shortcut"}, "t:sum"));
  g.add(node(NodeKind::Relu, "res5_relu", {"t:sum"}, "out"));
  expect_fused_equivalence(g, /*expect_elided=*/false);
}

// ---------------------------------------------------------------- engine

TEST(Engine, TinyNetMatchesReference) {
  GraphEngine engine(fast_cfg());
  NetOptions opts;  // functional, check on
  const NetRunResult r = engine.run(make_tiny(1), 2, opts);
  EXPECT_TRUE(r.checked);
  EXPECT_LT(r.max_rel_err, 1e-4);
  EXPECT_GT(r.cycles, 0.0);
  EXPECT_GT(r.flops, 0);
  EXPECT_EQ(r.groups_used, 1);
  EXPECT_DOUBLE_EQ(r.sync_cycles, 0.0);  // single group: no NoC barriers
  EXPECT_GT(r.planned_peak_floats, 0);
  EXPECT_LE(r.planned_peak_floats, r.naive_floats);
}

TEST(Engine, MultiGroupUnevenSplitMatchesReference) {
  // batch 3 over 2 groups: conv1's 8 output rows split 4 + 4, the 4x4
  // pool output 2 + 2, the padded 10-row input 5 + 5 -- slabs that do not
  // line up across layers, so a group reads rows the other one wrote. The
  // whole-net check covers every row, so a wrong slab offset fails.
  GraphEngine engine(fast_cfg());
  NetOptions opts;
  opts.groups = 2;
  const NetRunResult r = engine.run(make_tiny(1), 3, opts);
  EXPECT_EQ(r.groups_used, 2);
  EXPECT_TRUE(r.checked);
  EXPECT_LT(r.max_rel_err, 1e-4);
  EXPECT_GT(r.sync_cycles, 0.0);  // barriers priced per conv step
  EXPECT_LT(r.sync_cycles, r.cycles);
  EXPECT_GT(r.halo_bytes, 0);  // 3x3 halos cross the slab boundary
}

TEST(Engine, BatchOneSplitsRowsOverEveryGroup) {
  // A batch-1 request has no batch to slice: the rows are split instead,
  // so all four groups run it, correctly, and well over 2.5x faster than
  // one group.
  GraphEngine engine(fast_cfg());
  NetOptions opts;
  opts.groups = 4;
  const NetRunResult r = engine.run(make_tiny(0), 1, opts);
  EXPECT_EQ(r.groups_used, 4);
  EXPECT_TRUE(r.checked);
  EXPECT_LT(r.max_rel_err, 1e-4);

  // Timing at a size where the split has work to spread: one 3x3 64->64
  // conv on a 34x34 input (32 output rows, 8 per group).
  Graph g("one_conv");
  g.add_input("x", {34, 64});
  Node conv = node(NodeKind::Conv, "conv", {"x"}, "y");
  conv.kernel = 3;
  conv.channels_out = 64;
  g.add(conv);
  NetOptions one;
  one.mode = sim::ExecMode::TimingOnly;
  NetOptions four = one;
  four.groups = 4;
  const NetRunResult r1 = engine.run(g, 1, one);
  const NetRunResult r4 = engine.run(g, 1, four);
  EXPECT_EQ(r4.groups_used, 4);
  EXPECT_LT(r4.cycles * 2.5, r1.cycles);
}

TEST(Engine, RepeatedShapesTuneOnce) {
  // Three convs, two distinct (method, shape, sub-batch) keys: the two
  // identical 16->16 blocks share one tuned schedule.
  GraphEngine engine(fast_cfg());
  const NetRunResult r = engine.run(make_tiny(2), 1, NetOptions{});
  EXPECT_EQ(r.layers.size(), make_tiny(2).nodes().size());
  EXPECT_EQ(r.shapes_tuned, 2);
  EXPECT_LT(r.shapes_tuned, build_net("vgg16").conv_count());  // vgg dedups too
  EXPECT_TRUE(r.checked);
  EXPECT_LT(r.max_rel_err, 1e-4);
}

TEST(Engine, SecondRunHitsTheScheduleCache) {
  const char* path = "test_graph_engine.cache";
  std::remove(path);
  SwatopConfig cfg = fast_cfg();
  cfg.cache.enabled = true;
  cfg.cache.path = path;
  const Graph g = make_tiny(1);

  GraphEngine cold(cfg);
  const NetRunResult first = cold.run(g, 1, NetOptions{});
  EXPECT_EQ(first.cache_hits, 0);

  GraphEngine warm(cfg);
  const NetRunResult second = warm.run(g, 1, NetOptions{});
  EXPECT_EQ(second.shapes_tuned, first.shapes_tuned);
  EXPECT_EQ(second.cache_hits, second.shapes_tuned);
  // Identical schedules -> identical priced execution.
  EXPECT_DOUBLE_EQ(second.cycles, first.cycles);
  std::remove(path);
}

TEST(Engine, TimingOnlyMatchesFunctionalCycles) {
  GraphEngine engine(fast_cfg());
  NetOptions fun;
  const NetRunResult f = engine.run(make_tiny(1), 2, fun);
  NetOptions tim;
  tim.mode = sim::ExecMode::TimingOnly;
  const NetRunResult t = engine.run(make_tiny(1), 2, tim);
  EXPECT_FALSE(t.checked);
  EXPECT_DOUBLE_EQ(t.cycles, f.cycles);
  EXPECT_EQ(t.flops, f.flops);
}

TEST(Engine, SingleConvMatchesPerGroupTuning) {
  // The reference arithmetic of splitting one convolution's output rows
  // over core groups: the engine tunes the batch-slice shape
  // (ceil(batch / groups) images, all rows) and lowers that pick on each
  // group's slab of ceil(Ro / groups) output rows at the whole batch. A
  // group first fetches the input rows another group holds (a graph input
  // arrives in row slabs too), the slowest group bounds the step, and a
  // NoC barrier closes it when more than one group ran.
  Graph g("one_conv");
  g.add_input("x", {10, 32});
  Node conv = node(NodeKind::Conv, "conv", {"x"}, "y");
  conv.kernel = 3;
  conv.channels_out = 32;
  g.add(conv);
  const SwatopConfig cfg = fast_cfg();
  // At batch 8 every sub-batch pick lowers on the slabs (a batch-8 slab's
  // GEMM columns are a multiple of the sub-batch's), so no slab needs its
  // own tuning.
  const std::int64_t batch = 8;
  const ops::ConvShape layer = g.conv_shape(g.nodes()[0], batch);
  // One input row of the whole batch: 2560 floats, whole DRAM transactions
  // at any row offset, so the halo's price does not depend on where the
  // arena puts it.
  const std::int64_t in_row = layer.ni * layer.ci * batch;
  ASSERT_EQ(in_row % 32, 0);
  for (int groups = 1; groups <= 4; ++groups) {
    NetOptions opts;
    opts.groups = groups;
    opts.mode = sim::ExecMode::TimingOnly;
    opts.check = false;
    const NetRunResult r = compile(g, cfg).run(batch, opts);

    ops::ConvShape sub = layer;
    sub.batch = ceil_div(batch, groups);
    const ops::ImplicitConvOp sub_op(sub);
    const CompiledOp picked = compile(sub_op, cfg);
    opt::OptOptions oo = cfg.scheduler_options().opt;
    oo.prefetch = picked.handle().candidate.prefetch;

    const std::int64_t rows = ceil_div(layer.ro(), groups);
    const std::int64_t in_rows = ceil_div(layer.ri, groups);
    double slowest = 0.0;
    int slabs = 0;
    for (std::int64_t r0 = 0; r0 < layer.ro(); r0 += rows, ++slabs) {
      const std::int64_t h = std::min(rows, layer.ro() - r0);
      ops::ConvShape slab = layer;
      slab.ri = r0 + h == layer.ro() ? layer.ri - r0 : h + layer.kr - 1;
      const ops::ImplicitConvOp op(slab);
      double cycles = tune::measure_candidate(
          op,
          tune::build_candidate(op, picked.handle().candidate.strategy,
                                cfg.machine, oo),
          cfg.machine);
      std::int64_t foreign = 0;
      for (std::int64_t row = r0; row < r0 + slab.ri; ++row)
        if (row / in_rows != slabs) ++foreign;
      if (foreign > 0) {
        sim::CoreGroup fetch(cfg.machine);
        sim::DmaCpeDesc d;
        d.block = d.total = foreign * in_row;
        fetch.charge_dma_cost_sync(fetch.dma().cost(d));
        cycles += fetch.now();
      }
      slowest = std::max(slowest, cycles);
    }
    EXPECT_EQ(slabs, groups);
    const double sync =
        slabs > 1 ? sim::Chip(cfg.machine, groups).sync_cycles() : 0.0;
    EXPECT_EQ(r.cycles, slowest + sync) << groups << " groups";
    EXPECT_EQ(r.groups_used, groups);
    EXPECT_EQ(r.shapes_tuned, 1);
  }
}

/// Every place a row split can get an offset wrong, in one tiny net: an
/// unfused input pad; a 3x3 conv whose bias/relu/pad tail fuses into an
/// output border (out_pad); a 3x3 conv with a residual add of the graph
/// input; a max-pool; a 1x1 conv with a fused border; and a last 3x3 conv
/// at `stride` on 8 rows -- at stride 2, 3 output rows (fewer than four
/// groups) that leave the last input row unread. `mid` is the last conv's
/// input channels: under 32, implicit GEMM does not apply there.
Graph make_slab_net(std::int64_t mid, std::int64_t stride) {
  Graph g("slab");
  g.add_input("in", {12, 32});
  Node pad0 = node(NodeKind::Pad, "pad0", {"in"}, "t:pad0");
  pad0.pad = 1;
  g.add(pad0);
  Node a = node(NodeKind::Conv, "conv_a", {"t:pad0"}, "t:a");
  a.kernel = 3;
  a.channels_out = 32;
  g.add(a);
  g.add(node(NodeKind::Bias, "bias_a", {"t:a"}, "t:ab"));
  g.add(node(NodeKind::Relu, "relu_a", {"t:ab"}, "t:ar"));
  Node pad_a = node(NodeKind::Pad, "pad_a", {"t:ar"}, "t:ap");
  pad_a.pad = 1;
  g.add(pad_a);
  Node b = node(NodeKind::Conv, "conv_b", {"t:ap"}, "t:b");
  b.kernel = 3;
  b.channels_out = 32;
  g.add(b);
  g.add(node(NodeKind::Bias, "bias_b", {"t:b"}, "t:bb"));
  g.add(node(NodeKind::Add, "add_b", {"t:bb", "in"}, "t:sum"));
  g.add(node(NodeKind::Relu, "relu_b", {"t:sum"}, "t:br"));
  g.add(node(NodeKind::MaxPool2x2, "pool", {"t:br"}, "t:pool"));
  Node c = node(NodeKind::Conv, "conv_c", {"t:pool"}, "t:c");
  c.kernel = 1;
  c.channels_out = mid;
  g.add(c);
  g.add(node(NodeKind::Relu, "relu_c", {"t:c"}, "t:cr"));
  Node pad_c = node(NodeKind::Pad, "pad_c", {"t:cr"}, "t:cp");
  pad_c.pad = 1;
  g.add(pad_c);
  Node d = node(NodeKind::Conv, "conv_d", {"t:cp"}, "t:d");
  d.kernel = 3;
  d.channels_out = 16;
  d.stride = stride;
  g.add(d);
  g.add(node(NodeKind::Relu, "relu_d", {"t:d"}, "out"));
  return g;
}

TEST(Engine, RowSlabsMatchReferenceForEveryMethod) {
  // The whole-net functional check at 1-4 groups and batch 1 and 3, for
  // each conv method. Implicit GEMM cannot run a stride-2 conv unless the
  // batch slice is a multiple of 8 (its fused GEMM columns are the batch
  // alone): Auto gives that conv to explicit GEMM even with 32 channels,
  // and the forced-implicit net keeps the last conv at stride 1.
  for (ConvMethod m : {ConvMethod::Auto, ConvMethod::Implicit,
                       ConvMethod::Explicit, ConvMethod::Winograd}) {
    const Graph g = m == ConvMethod::Implicit ? make_slab_net(32, 1)
                    : m == ConvMethod::Auto   ? make_slab_net(32, 2)
                                              : make_slab_net(16, 2);
    GraphEngine engine(fast_cfg());
    for (const std::int64_t batch : {1, 3}) {
      for (int groups = 1; groups <= 4; ++groups) {
        NetOptions opts;
        opts.method = m;
        opts.groups = groups;
        const NetRunResult r = engine.run(g, batch, opts);
        const std::string what = std::string(conv_method_name(m)) +
                                 " batch " + std::to_string(batch) + " on " +
                                 std::to_string(groups) + " groups";
        EXPECT_EQ(r.groups_used, groups) << what;
        EXPECT_TRUE(r.checked) << what;
        EXPECT_LT(r.max_rel_err, 1e-4) << what;
        if (groups == 1) {
          EXPECT_EQ(r.halo_bytes, 0) << what;
        } else {
          EXPECT_GT(r.halo_bytes, 0) << what;
        }
        if (m == ConvMethod::Implicit || m == ConvMethod::Auto) {
          EXPECT_GT(r.fusion.pad_folded, 0) << what;
        }
      }
    }
  }
}

/// pad -> conv(3x3, 3 -> 32) -> bias -> relu -> pool on an 8x8 RGB input:
/// a network stem, which Auto gives to explicit GEMM (3 input channels
/// cannot feed implicit GEMM's K dimension).
Graph make_stem_net() {
  Graph g("stem");
  g.add_input("in", {8, 3});
  Node pad = node(NodeKind::Pad, "pad", {"in"}, "t:pad");
  pad.pad = 1;
  g.add(pad);
  Node conv = node(NodeKind::Conv, "conv", {"t:pad"}, "t:conv");
  conv.kernel = 3;
  conv.channels_out = 32;
  g.add(conv);
  g.add(node(NodeKind::Bias, "bias", {"t:conv"}, "t:bias"));
  g.add(node(NodeKind::Relu, "relu", {"t:bias"}, "t:relu"));
  g.add(node(NodeKind::MaxPool2x2, "pool", {"t:relu"}, "t:pool"));
  return g;
}

TEST(Engine, ThreeChannelStemMatchesReference) {
  // The explicit GEMM's row-panel column matrix, the folded weights and
  // the direct store into the output, checked against the host forward
  // pass on every row split.
  GraphEngine engine(fast_cfg());
  for (const std::int64_t batch : {1, 3}) {
    for (int groups = 1; groups <= 4; ++groups) {
      NetOptions opts;
      opts.groups = groups;
      const NetRunResult r = engine.run(make_stem_net(), batch, opts);
      const std::string what = "batch " + std::to_string(batch) + " on " +
                               std::to_string(groups) + " groups";
      ASSERT_GE(r.layers.size(), 2u) << what;
      EXPECT_EQ(r.layers[1].kind, "explicit") << what;
      EXPECT_FALSE(r.layers[1].fused) << what;
      EXPECT_TRUE(r.checked) << what;
      EXPECT_LT(r.max_rel_err, 1e-4) << what;
    }
  }
}

TEST(Engine, YoloStemSlabWastesUnderAQuarterOfItsDmaBytes) {
  // YOLO's first conv at batch 8 on 4 groups: four 58 x 226-row slabs of
  // a 3 -> 32 channel 3x3 conv. The row-panel column matrix gives the GEMM
  // and im2col long contiguous DMA runs: about 12% padding, where the
  // column-major layout it replaced billed 3.5x the requested bytes again.
  Graph g("yolo_stem");
  g.add_input("x", {226, 3});
  Node conv = node(NodeKind::Conv, "conv1", {"x"}, "y");
  conv.kernel = 3;
  conv.channels_out = 32;
  g.add(conv);
  GraphEngine engine;
  NetOptions opts;
  opts.groups = 4;
  opts.mode = sim::ExecMode::TimingOnly;
  const NetRunResult r = engine.run(g, 8, opts);
  ASSERT_EQ(r.layers.size(), 1u);
  const LayerReport& lr = r.layers[0];
  EXPECT_EQ(lr.kind, "explicit");
  const double requested = static_cast<double>(lr.stats.dma_bytes_requested);
  EXPECT_GT(requested, 0.0);
  EXPECT_LT(static_cast<double>(lr.stats.dma_bytes_wasted), 0.25 * requested);
}

TEST(Engine, LayerWithFewerRowsThanGroups) {
  // Two output rows over four groups: two one-row slabs, two idle groups.
  Graph g("short");
  g.add_input("x", {4, 32});
  Node conv = node(NodeKind::Conv, "conv", {"x"}, "y");
  conv.kernel = 3;
  conv.channels_out = 32;
  g.add(conv);
  GraphEngine engine(fast_cfg());
  NetOptions opts;
  opts.groups = 4;
  const NetRunResult r = engine.run(g, 3, opts);
  EXPECT_TRUE(r.checked);
  EXPECT_LT(r.max_rel_err, 1e-4);
  ASSERT_EQ(r.layers.size(), 1u);
  const LayerReport& lr = r.layers[0];
  EXPECT_EQ(lr.groups, 4);
  EXPECT_GT(lr.sync_cycles, 0.0);  // two groups ran: a barrier
  // At most two groups clocked anything.
  EXPECT_LE(lr.group_cycles, 2.0 * (lr.cycles - lr.sync_cycles));
  EXPECT_GT(lr.group_cycles, lr.cycles - lr.sync_cycles);
}

TEST(Engine, ColdRunJournalsOnePickPerTunedShape) {
  // Slab programs are lowered from a tuned pick without a journal row or a
  // cache lookup; a slab that needs its own tuning is a tuned shape. So a
  // cold run's journal holds exactly one pick per tuned shape.
  auto picks = [](const CompiledNet& net) {
    std::int64_t n = 0;
    for (const tune::JournalEntry& e : net.journal().entries())
      if (e.chosen) ++n;
    return n;
  };
  NetOptions opts;
  opts.groups = 4;
  opts.mode = sim::ExecMode::TimingOnly;
  for (const std::int64_t batch : {1, 3, 8}) {
    CompiledNet net = compile(make_slab_net(16, 2), fast_cfg());
    const NetRunResult r = net.run(batch, opts);
    EXPECT_EQ(r.cache_hits, 0) << "batch " << batch;
    EXPECT_EQ(picks(net), r.shapes_tuned) << "batch " << batch;
  }
  // One conv at batch 5 on 3 groups: the batch-2 pick (4 output columns
  // x 2 images) does not lower on the batch-5 slab (20 GEMM columns, not a
  // multiple of 8), so the slab is tuned too -- two tuned shapes, two
  // picks.
  Graph g("one_conv");
  g.add_input("x", {10, 32});
  Node conv = node(NodeKind::Conv, "conv", {"x"}, "y");
  conv.kernel = 3;
  conv.channels_out = 32;
  g.add(conv);
  opts.groups = 3;
  CompiledNet net = compile(g, fast_cfg());
  const NetRunResult r = net.run(5, opts);
  EXPECT_EQ(r.shapes_tuned, 2);
  EXPECT_EQ(r.cache_hits, 0);
  EXPECT_EQ(picks(net), r.shapes_tuned);
}

TEST(Engine, RowSplitCyclesAreInvariantToTunerThreadCount) {
  SwatopConfig one = fast_cfg();
  one.tune_threads = 1;
  SwatopConfig four = fast_cfg();
  four.tune_threads = 4;
  NetOptions opts;
  opts.groups = 4;
  opts.mode = sim::ExecMode::TimingOnly;
  CompiledNet a = compile(build_net("resnet"), one);
  CompiledNet b = compile(build_net("resnet"), four);
  const NetRunResult ra = a.run(3, opts);
  const NetRunResult rb = b.run(3, opts);
  EXPECT_EQ(ra.cycles, rb.cycles);
  EXPECT_EQ(ra.halo_bytes, rb.halo_bytes);
  ASSERT_EQ(ra.layers.size(), rb.layers.size());
  for (std::size_t i = 0; i < ra.layers.size(); ++i)
    EXPECT_EQ(ra.layers[i].cycles, rb.layers[i].cycles) << ra.layers[i].name;
  EXPECT_EQ(a.journal().to_jsonl(), b.journal().to_jsonl());
}

TEST(Engine, NetProfileCarriesTheTuningFunnel) {
  SwatopConfig cfg = fast_cfg();
  cfg.observability.enabled = true;
  CompiledNet net = compile(make_tiny(2), cfg);
  const NetRunResult r = net.run(2, NetOptions{});
  ASSERT_TRUE(r.profile.enabled);
  const obs::SweepCounts& sweep = r.profile.tune.sweep;
  const obs::SweepCounts& journaled = net.journal().sweep();
  EXPECT_GT(journaled.enumerated, 0);
  EXPECT_EQ(sweep.enumerated, journaled.enumerated);
  EXPECT_EQ(sweep.lowered, journaled.lowered);
  EXPECT_EQ(sweep.dropped, journaled.dropped);
  EXPECT_EQ(sweep.kept, journaled.kept);
  // Counted once per tuned shape, not once by the optimizer and again by
  // the engine.
  EXPECT_EQ(r.profile.tune.cache_hits, r.cache_hits);
  EXPECT_EQ(r.profile.tune.cache_misses, r.shapes_tuned - r.cache_hits);

  // Observing the tuning changes neither the cycles nor the journal.
  CompiledNet plain = compile(make_tiny(2), fast_cfg());
  const NetRunResult p = plain.run(2, NetOptions{});
  EXPECT_EQ(r.cycles, p.cycles);
  EXPECT_EQ(net.journal().to_jsonl(), plain.journal().to_jsonl());

  // A warm re-run profiles only its own (all cache-hit) tuning.
  const NetRunResult warm = net.run(2, NetOptions{});
  EXPECT_EQ(warm.cache_hits, warm.shapes_tuned);
  EXPECT_EQ(warm.profile.tune.cache_hits, warm.cache_hits);
  EXPECT_EQ(warm.profile.tune.cache_misses, 0);
  EXPECT_EQ(warm.profile.tune.sweep.enumerated, 0);
}

TEST(Engine, FusedBottleneckLowersNothingTheOptimizerDrops) {
  // A ResNet identity bottleneck, every conv fused: 1x1 reduce (bias, relu,
  // the 3x3's pad), 3x3 (bias, relu), 1x1 expand (bias, residual add,
  // relu). The lowering rejects the orders that would put partial sums
  // through an epilogue, so the optimizer drops nothing, and the survivors
  // are the 720 the optimizer used to keep out of 1440 lowered.
  Graph g("bottleneck");
  g.add_input("x", {14, 64});
  Node reduce = node(NodeKind::Conv, "reduce", {"x"}, "t:reduce");
  reduce.kernel = 1;
  reduce.channels_out = 32;
  g.add(reduce);
  g.add(node(NodeKind::Bias, "reduce.bias", {"t:reduce"}, "t:reduce.b"));
  g.add(node(NodeKind::Relu, "reduce.relu", {"t:reduce.b"}, "t:reduce.r"));
  Node pad = node(NodeKind::Pad, "mid.pad", {"t:reduce.r"}, "t:mid.p");
  pad.pad = 1;
  g.add(pad);
  Node mid = node(NodeKind::Conv, "mid", {"t:mid.p"}, "t:mid");
  mid.kernel = 3;
  mid.channels_out = 32;
  g.add(mid);
  g.add(node(NodeKind::Bias, "mid.bias", {"t:mid"}, "t:mid.b"));
  g.add(node(NodeKind::Relu, "mid.relu", {"t:mid.b"}, "t:mid.r"));
  Node expand = node(NodeKind::Conv, "expand", {"t:mid.r"}, "t:expand");
  expand.kernel = 1;
  expand.channels_out = 64;
  g.add(expand);
  g.add(node(NodeKind::Bias, "expand.bias", {"t:expand"}, "t:expand.b"));
  g.add(node(NodeKind::Add, "add", {"t:expand.b", "x"}, "t:sum"));
  g.add(node(NodeKind::Relu, "out.relu", {"t:sum"}, "out"));

  CompiledNet net = compile(g, SwatopConfig{});  // full sweep, no cap
  const NetRunResult r = net.run(4, NetOptions{});
  EXPECT_EQ(r.fusion.convs_fused, 3);
  EXPECT_TRUE(r.checked);
  EXPECT_LT(r.max_rel_err, 1e-4);
  const obs::SweepCounts& sw = net.journal().sweep();
  EXPECT_EQ(sw.enumerated, 2560);
  EXPECT_EQ(sw.dropped, 0);
  EXPECT_EQ(sw.lowered, sw.kept);
  EXPECT_EQ(sw.kept, 720);
}

TEST(Engine, WinogradRunsFunctionally) {
  // conv2's 16 input channels satisfy Winograd's ni % 8 == 0; conv1 falls
  // back. The whole-net check still has to pass end to end.
  GraphEngine engine(fast_cfg());
  NetOptions opts;
  opts.method = ConvMethod::Winograd;
  const NetRunResult r = engine.run(make_tiny(1), 1, opts);
  EXPECT_TRUE(r.checked);
  EXPECT_LT(r.max_rel_err, 1e-4);
}

TEST(Engine, RejectsBadOptions) {
  GraphEngine engine(fast_cfg());
  NetOptions opts;
  opts.groups = 5;
  EXPECT_THROW(engine.run(make_tiny(0), 1, opts), CheckError);
  EXPECT_THROW(engine.run(make_tiny(0), 0, NetOptions{}), CheckError);
}

}  // namespace
}  // namespace swatop::graph
