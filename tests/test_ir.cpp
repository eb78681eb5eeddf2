#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "codegen/c_emitter.hpp"
#include "common/check.hpp"
#include "ir/analysis.hpp"
#include "ir/mutator.hpp"
#include "ir/printer.hpp"
#include "ops/matmul.hpp"
#include "tune/tuner.hpp"

namespace swatop::ir {
namespace {

TEST(Expr, ConstantFolding) {
  EXPECT_EQ(as_cst(add(cst(2), cst(3))), 5);
  EXPECT_EQ(as_cst(mul(cst(4), cst(5))), 20);
  EXPECT_EQ(as_cst(min2(cst(7), cst(3))), 3);
  EXPECT_EQ(as_cst(max2(cst(7), cst(3))), 7);
  EXPECT_EQ(as_cst(floordiv(cst(7), cst(2))), 3);
  EXPECT_EQ(as_cst(mod(cst(7), cst(2))), 1);
  EXPECT_EQ(as_cst(lt(cst(1), cst(2))), 1);
  EXPECT_EQ(as_cst(ge(cst(1), cst(2))), 0);
}

TEST(Expr, IdentityFolding) {
  const Expr x = var(VarId("x"));
  EXPECT_EQ(add(x, cst(0)).get(), x.get());
  EXPECT_EQ(mul(x, cst(1)).get(), x.get());
  EXPECT_TRUE(is_const(mul(x, cst(0))));
  EXPECT_EQ(as_cst(mul(x, cst(0))), 0);
}

TEST(Expr, EvalWithEnvironment) {
  const Expr e = add(mul(var(VarId("i")), cst(8)), var(VarId("j")));
  Env env{{"i", 3}, {"j", 2}};
  EXPECT_EQ(eval(e, env), 26);
  env.erase(VarId("j"));
  EXPECT_THROW(eval(e, env), CheckError);
}

TEST(Expr, SelectEval) {
  const Expr e = select(lt(var(VarId("i")), cst(4)), cst(10), cst(20));
  EXPECT_EQ(eval(e, {{"i", 2}}), 10);
  EXPECT_EQ(eval(e, {{"i", 5}}), 20);
}

TEST(Expr, UsesVar) {
  const Expr e = min2(cst(64), sub(cst(100), mul(var(VarId("m")), cst(64))));
  EXPECT_TRUE(uses_var(e, VarId("m")));
  EXPECT_FALSE(uses_var(e, VarId("n")));
}

TEST(Expr, Substitute) {
  const Expr e = add(mul(var(VarId("k")), cst(32)), cst(7));
  const Expr s = substitute(e, VarId("k"), add(var(VarId("k")), cst(1)));
  EXPECT_EQ(eval(s, {{"k", 0}}), 39);
  // Substituting with a constant folds completely.
  const Expr c = substitute(e, VarId("k"), cst(2));
  EXPECT_TRUE(is_const(c));
  EXPECT_EQ(as_cst(c), 71);
}

TEST(Expr, ToStringReadable) {
  const Expr e = min2(cst(64), sub(cst(100), mul(var(VarId("m")), cst(64))));
  EXPECT_EQ(to_string(e), "min(64, (100 - (m*64)))");
}

TEST(Interner, SameNameSameId) {
  EXPECT_EQ(VarId("m_o"), VarId("m_o"));
  EXPECT_FALSE(VarId("m_o") == VarId("k_o"));
  EXPECT_TRUE(VarId("m_o"));
  EXPECT_FALSE(VarId());
  EXPECT_FALSE(VarId() == VarId("m_o"));
}

TEST(Interner, NameRoundTrips) {
  for (const char* n : {"r", "c_o", "a_name_only_this_test_interns"}) {
    EXPECT_EQ(VarId(n).name(), n);
    std::ostringstream os;
    os << VarId(n);
    EXPECT_EQ(os.str(), n);
  }
}

TEST(Interner, ConcurrentInterningGivesOneIdPerName) {
  // Sweep workers intern (once per process) and read names concurrently.
  // Four threads interning the same fresh names, each in its own order,
  // must agree on one id per name.
  constexpr int kThreads = 4, kNames = 256;
  auto name = [](int i) { return "concurrent_" + std::to_string(i); };
  std::vector<std::vector<VarId>> ids(kThreads, std::vector<VarId>(kNames));
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int k = 0; k < kNames; ++k) {
        const int i = (t % 2 == 0 ? k : kNames - 1 - k);
        ids[t][i] = VarId(name(i));
        EXPECT_EQ(ids[t][i].name(), name(i));
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int i = 0; i < kNames; ++i) {
    for (int t = 1; t < kThreads; ++t) EXPECT_EQ(ids[t][i], ids[0][i]) << i;
    if (i > 0) {
      EXPECT_FALSE(ids[0][i] == ids[0][i - 1]) << i;
    }
  }
}

TEST(Interner, UnboundVariableErrorNamesIt) {
  try {
    eval(add(var(VarId("bound_k")), var(VarId("unbound_q"))),
         {{"bound_k", 1}});
    FAIL() << "no error";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("unbound variable 'unbound_q'"),
              std::string::npos)
        << e.what();
  }
}

/// FNV-1a, a stable digest for the golden texts below.
std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

TEST(Interner, PrintAndCodegenUseNames) {
  // A ragged, double-buffered matmul candidate. Its printed IR and
  // generated C are pinned to the digests of the text emitted when
  // variables were still strings: interning changed neither.
  const ops::MatmulOp op(72, 56, 40);
  dsl::Strategy s;
  s.set_factor("Tm", 64);
  s.set_factor("Tn", 32);
  s.set_factor("Tk", 16);
  s.set_choice("order", "mkn");
  s.set_choice("variant", "0");
  s.set_choice("boundary", "pad");
  const StmtPtr prog = tune::build_candidate(op, s, sim::SimConfig{}).program;
  codegen::EmitOptions e;
  e.kernel_name = "k";
  const std::string text = print(prog), src = codegen::emit_c(prog, e);
  EXPECT_NE(text.find("for k_o in [0, 3)  // prefetched {"),
            std::string::npos);
  EXPECT_NE(src.find("for (long n_o = 0; n_o < 2L; ++n_o) {"),
            std::string::npos)
      << src;
  EXPECT_EQ(fnv1a(text), 0x40713944749f0905ull) << text;
  EXPECT_EQ(fnv1a(src), 0xb5a74c39bc265e0full) << src;
}

TEST(Stmt, BuildersValidate) {
  EXPECT_THROW(make_for(VarId(), cst(4), make_seq()), CheckError);
  EXPECT_THROW(VarId(""), CheckError);
  EXPECT_THROW(make_spm_alloc("b", 0), CheckError);
  EXPECT_THROW(make_dma(StmtKind::Gemm, DmaAttrs{}), CheckError);
}

StmtPtr sample_program() {
  GemmAttrs g;
  g.M = cst(64);
  g.N = cst(64);
  g.K = cst(32);
  g.a = {"A", var(VarId("m_o")), 1, 64, cst(64), cst(32)};
  g.b = {"B", cst(0), 1, 32, cst(32), cst(64)};
  g.c = {"C", var(VarId("m_o")), 1, 64, cst(64), cst(64)};
  auto body = make_seq({make_gemm(g)});
  auto k = make_for(VarId("k_o"), cst(4), body, /*reduction=*/true);
  auto root = make_seq({make_spm_alloc("spm_A", 256, true),
                        make_spm_alloc("spm_C", 512),
                        make_for(VarId("m_o"), cst(2), make_seq({k}))});
  return root;
}

TEST(Analysis, SpmFootprintCountsDoubleBuffers) {
  const auto p = sample_program();
  // 256 doubled = 512, plus 512 = 1024.
  EXPECT_EQ(spm_footprint(p), 1024);
}

TEST(Analysis, LoopVarsOutermostFirst) {
  const auto p = sample_program();
  EXPECT_EQ(loop_vars(p), (std::vector<VarId>{VarId("m_o"), VarId("k_o")}));
}

TEST(Analysis, FindGemmsAndStaticCount) {
  const auto p = sample_program();
  EXPECT_EQ(find_gemms(p).size(), 1u);
  EXPECT_EQ(static_gemm_count(p), 8);  // 2 * 4 iterations
}

TEST(Analysis, ContainsKind) {
  const auto p = sample_program();
  EXPECT_TRUE(contains_kind(p, StmtKind::Gemm));
  EXPECT_FALSE(contains_kind(p, StmtKind::DmaGet));
}

TEST(Mutator, DeepCopyIsIndependent) {
  const auto p = sample_program();
  const auto q = deep_copy(p);
  q->body[0]->buf_name = "renamed";
  EXPECT_EQ(p->body[0]->buf_name, "spm_A");
  EXPECT_EQ(print(p), print(deep_copy(p)));
}

TEST(Mutator, TransformDeletesInSeq) {
  auto p = sample_program();
  p = transform(p, [](StmtPtr s) -> StmtPtr {
    if (s->kind == StmtKind::SpmAlloc) return nullptr;
    return s;
  });
  EXPECT_FALSE(contains_kind(p, StmtKind::SpmAlloc));
  EXPECT_TRUE(contains_kind(p, StmtKind::Gemm));
}

TEST(Mutator, VisitReachesAllNodes) {
  int count = 0;
  visit(sample_program(), [&](const StmtPtr&) { ++count; });
  // Seq + 2 allocs + for + seq + for + seq + gemm = 8.
  EXPECT_EQ(count, 8);
}

TEST(Printer, ShowsStructure) {
  const std::string s = print(sample_program());
  EXPECT_NE(s.find("for m_o in [0, 2)"), std::string::npos);
  EXPECT_NE(s.find("double buffered"), std::string::npos);
  EXPECT_NE(s.find("gemm_op M=64"), std::string::npos);
}

}  // namespace
}  // namespace swatop::ir
