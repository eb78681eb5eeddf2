// Host wall-clock comparisons of the tuners. This binary's tests are
// registered RUN_SERIAL, so a loaded machine under `ctest -j` cannot flip
// them; the deterministic form of each claim lives in test_tune.
#include <gtest/gtest.h>

#include "ops/matmul.hpp"
#include "tune/tuner.hpp"

namespace swatop::tune {
namespace {

sim::SimConfig cfg;

TEST(Tuners, ModelTunerIsMuchFaster) {
  ops::MatmulOp op(256, 256, 128);
  const ModelTuner mt(cfg);
  const BlackBoxTuner bb(cfg);
  const Tuned fast = mt.tune(op);
  const auto slow = bb.tune(op);
  EXPECT_LT(fast.stats.seconds, slow.best.stats.seconds);
}

}  // namespace
}  // namespace swatop::tune
