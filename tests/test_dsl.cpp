#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "dsl/dsl.hpp"

namespace swatop::dsl {
namespace {

ScheduleSpace sample_space() {
  ScheduleSpace sp;
  sp.add(FactorVar{"T", {16, 32, 64}});
  sp.add(ChoiceVar{"order", {"mnk", "nmk"}});
  sp.add(ChoiceVar{"variant", {"0", "1", "2", "3"}});
  return sp;
}

TEST(ScheduleSpace, SizeIsProduct) {
  EXPECT_EQ(sample_space().size(), 3 * 2 * 4);
}

TEST(ScheduleSpace, EnumerateCoversEverything) {
  const auto all = sample_space().enumerate();
  EXPECT_EQ(static_cast<std::int64_t>(all.size()), sample_space().size());
  // Every strategy is distinct.
  for (std::size_t i = 0; i < all.size(); ++i)
    for (std::size_t j = i + 1; j < all.size(); ++j)
      EXPECT_NE(all[i].to_string(), all[j].to_string());
}

TEST(ScheduleSpace, EnumerateWithPruning) {
  const auto pruned = sample_space().enumerate([](const Strategy& s) {
    return s.factor("T") != 32;
  });
  EXPECT_EQ(pruned.size(), 2u * 2 * 4);
  for (const auto& s : pruned) EXPECT_NE(s.factor("T"), 32);
}

/// The enumeration the recursive cartesian product used to produce:
/// factors outermost, the last choice varying fastest.
std::vector<Strategy> nested_loops(const ScheduleSpace& sp) {
  std::vector<Strategy> out;
  Strategy cur;
  cur.set_epilogue(sp.epilogue());
  std::function<void(std::size_t)> rec = [&](std::size_t d) {
    const std::size_t nf = sp.factors().size();
    if (d == nf + sp.choices().size()) {
      out.push_back(cur);
      return;
    }
    if (d < nf) {
      for (std::int64_t v : sp.factors()[d].candidates) {
        cur.set_factor(sp.factors()[d].name, v);
        rec(d + 1);
      }
    } else {
      for (const std::string& v : sp.choices()[d - nf].options) {
        cur.set_choice(sp.choices()[d - nf].name, v);
        rec(d + 1);
      }
    }
  };
  rec(0);
  return out;
}

TEST(ScheduleSpace, AtMatchesEnumerate) {
  ScheduleSpace factors_only;
  factors_only.add(FactorVar{"A", {1, 2, 3}});
  factors_only.add(FactorVar{"B", {8, 16}});
  ScheduleSpace choices_only;
  choices_only.add(ChoiceVar{"x", {"p", "q"}});
  choices_only.add(ChoiceVar{"y", {"0", "1", "2"}});
  ScheduleSpace stamped = sample_space();
  EpilogueSpec epi;
  epi.bias = true;
  epi.out_pad = 1;
  stamped.set_epilogue(epi);
  for (const ScheduleSpace& sp :
       {factors_only, choices_only, sample_space(), stamped}) {
    const std::vector<Strategy> all = sp.enumerate();
    const std::vector<Strategy> ref = nested_loops(sp);
    ASSERT_EQ(static_cast<std::int64_t>(all.size()), sp.size());
    ASSERT_EQ(all.size(), ref.size());
    for (std::size_t i = 0; i < all.size(); ++i) {
      EXPECT_EQ(sp.at(i), all[i]) << i;
      EXPECT_EQ(all[i], ref[i]) << i;
      EXPECT_EQ(sp.at(i).epilogue(), sp.epilogue());
    }
    EXPECT_THROW(sp.at(all.size()), CheckError);
  }
}

TEST(ScheduleSpace, ContainsExactlyItsAssignments) {
  ScheduleSpace sp = sample_space();
  for (const Strategy& s : sp.enumerate()) EXPECT_TRUE(sp.contains(s));

  const Strategy base = sp.at(5);
  Strategy bad_factor = base;
  bad_factor.set_factor("T", 48);
  Strategy bad_choice = base;
  bad_choice.set_choice("variant", "3x");
  Strategy extra = base;
  extra.set_choice("layout", "nhwc");
  Strategy missing;
  missing.set_factor("T", 16);
  missing.set_choice("order", "mnk");
  Strategy fused = base;
  EpilogueSpec epi;
  epi.relu = true;
  fused.set_epilogue(epi);
  for (const Strategy& s : {bad_factor, bad_choice, extra, missing, fused})
    EXPECT_FALSE(sp.contains(s)) << s.serialize();

  // The epilogue must be the space's own, not merely any epilogue.
  sp.set_epilogue(epi);
  EXPECT_TRUE(sp.contains(fused));
  EXPECT_FALSE(sp.contains(base));
}

TEST(ScheduleSpace, RejectsEmptyVariables) {
  ScheduleSpace sp;
  EXPECT_THROW(sp.add(FactorVar{"T", {}}), CheckError);
  EXPECT_THROW(sp.add(ChoiceVar{"c", {}}), CheckError);
}

TEST(Strategy, AccessorsAndErrors) {
  Strategy s;
  s.set_factor("T", 64);
  s.set_choice("order", "mnk");
  EXPECT_EQ(s.factor("T"), 64);
  EXPECT_EQ(s.choice("order"), "mnk");
  EXPECT_TRUE(s.has_factor("T"));
  EXPECT_FALSE(s.has_factor("U"));
  EXPECT_TRUE(s.has_choice("order"));
  EXPECT_THROW(s.factor("U"), CheckError);
  EXPECT_THROW(s.choice("layout"), CheckError);
}

TEST(Strategy, ToStringIsDeterministic) {
  Strategy s;
  s.set_factor("Tm", 64);
  s.set_factor("Tk", 32);
  s.set_choice("order", "mnk");
  EXPECT_EQ(s.to_string(), "Tk=32 Tm=64 order=mnk");
}

class PrefetchChoiceOp : public OperatorDef {
 public:
  std::string name() const override { return "stub"; }
  ScheduleSpace space() const override { return {}; }
  ir::StmtPtr lower(const Strategy&) const override { return nullptr; }
  std::vector<TensorSpec> tensors() const override { return {}; }
  std::int64_t flops() const override { return 0; }
};

TEST(OperatorDef, PrefetchDefaultsOnAndHonoursChoice) {
  PrefetchChoiceOp op;
  Strategy none;
  EXPECT_TRUE(op.prefetch_enabled(none));
  Strategy off;
  off.set_choice("prefetch", "off");
  EXPECT_FALSE(op.prefetch_enabled(off));
  Strategy on;
  on.set_choice("prefetch", "on");
  EXPECT_TRUE(op.prefetch_enabled(on));
}

}  // namespace
}  // namespace swatop::dsl

#include "dsl/builder.hpp"
#include "ir/node.hpp"

namespace swatop::dsl {
namespace {

TEST(GemmOpBuilder, BuildsAWorkingOperator) {
  auto op = GemmOpBuilder("built")
                .tensor("X", 128)
                .tensor("Y", 128, true)
                .factor({"T", {16, 32}})
                .flops(42)
                .lower_with([](const Strategy&) {
                  return ir::make_seq({ir::make_comment("body")});
                })
                .build();
  EXPECT_EQ(op->name(), "built");
  EXPECT_EQ(op->flops(), 42);
  EXPECT_EQ(op->tensors().size(), 2u);
  EXPECT_TRUE(op->tensors()[1].is_output);
  EXPECT_EQ(op->space().size(), 2);
  EXPECT_NE(op->lower(Strategy{}), nullptr);
}

TEST(GemmOpBuilder, ValidatesRequiredPieces) {
  EXPECT_THROW(GemmOpBuilder("x").build(), CheckError);
  EXPECT_THROW(GemmOpBuilder("x").tensor("t", 1).build(), CheckError);
}

}  // namespace
}  // namespace swatop::dsl
