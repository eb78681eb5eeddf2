// Schedule-cache correctness: round-trip through memory and disk, key
// isolation across machines/shapes/knobs, version invalidation, corruption
// tolerance, thread safety, and the Optimizer's warm fast path.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "core/swatop.hpp"
#include "graph/compile.hpp"
#include "ops/explicit_conv.hpp"
#include "ops/implicit_conv.hpp"
#include "ops/matmul.hpp"
#include "rt/bind.hpp"
#include "tune/schedule_cache.hpp"

namespace swatop::tune {
namespace {

CacheConfig disk_cfg(const std::string& path, bool read_only = false) {
  CacheConfig c;
  c.enabled = true;
  c.path = path;
  c.read_only = read_only;
  return c;
}

std::string temp_cache_path(const std::string& name) {
  const std::filesystem::path p =
      std::filesystem::temp_directory_path() / ("swatop_" + name + ".cache");
  std::filesystem::remove(p);
  return p.string();
}

dsl::Strategy sample_strategy() {
  dsl::Strategy s;
  s.set_factor("Tm", 64);
  s.set_factor("Tn", 128);
  s.set_factor("Tk", 32);
  s.set_choice("order", "mnk");
  s.set_choice("variant", "0");  // numeric-looking choice: must stay a choice
  s.set_choice("boundary", "pad");
  return s;
}

TEST(StrategySerialize, RoundTripsAndKeepsKindTags) {
  const dsl::Strategy s = sample_strategy();
  const std::string text = s.serialize();
  // Deterministic, sorted, kind-tagged.
  EXPECT_EQ(text,
            "f:Tk=32 f:Tm=64 f:Tn=128 c:boundary=pad c:order=mnk "
            "c:variant=0");
  const auto back = dsl::Strategy::parse(text);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, s);
  EXPECT_EQ(back->factor("Tn"), 128);
  EXPECT_EQ(back->choice("variant"), "0");
  EXPECT_FALSE(back->has_factor("variant"));  // not demoted to a factor
}

TEST(StrategySerialize, RejectsMalformedText) {
  EXPECT_FALSE(dsl::Strategy::parse("x:Tm=64").has_value());
  EXPECT_FALSE(dsl::Strategy::parse("f:Tm").has_value());
  EXPECT_FALSE(dsl::Strategy::parse("f:=64").has_value());
  EXPECT_FALSE(dsl::Strategy::parse("f:Tm=abc").has_value());
  EXPECT_FALSE(dsl::Strategy::parse("f:Tm=64 garbage").has_value());
  EXPECT_TRUE(dsl::Strategy::parse("f:Tm=abc").value_or(dsl::Strategy{}) ==
              dsl::Strategy{});  // value_or falls back on a failed parse
}

TEST(StrategySerialize, EpilogueRoundTrips) {
  dsl::Strategy s = sample_strategy();
  dsl::EpilogueSpec epi;
  epi.bias = true;
  epi.relu = true;
  epi.residual = true;
  epi.out_pad = 1;
  s.set_epilogue(epi);
  const std::string text = s.serialize();
  EXPECT_EQ(text,
            "f:Tk=32 f:Tm=64 f:Tn=128 c:boundary=pad c:order=mnk "
            "c:variant=0 e:bias=1 e:pad=1 e:relu=1 e:res=1");
  const auto back = dsl::Strategy::parse(text);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, s);
  EXPECT_EQ(back->epilogue(), epi);
  // A partial epilogue serializes only its non-default fields.
  dsl::EpilogueSpec br;
  br.bias = true;
  br.relu = true;
  s.set_epilogue(br);
  const auto back2 = dsl::Strategy::parse(s.serialize());
  ASSERT_TRUE(back2.has_value());
  EXPECT_EQ(back2->epilogue(), br);
  EXPECT_FALSE(back2->epilogue().residual);
  EXPECT_EQ(back2->epilogue().out_pad, 0);
}

TEST(StrategySerialize, RejectsMalformedEpilogue) {
  // Unknown field, default-valued flags (never serialized), bad pad.
  EXPECT_FALSE(dsl::Strategy::parse("e:pool=1").has_value());
  EXPECT_FALSE(dsl::Strategy::parse("e:bias=0").has_value());
  EXPECT_FALSE(dsl::Strategy::parse("e:relu=2").has_value());
  EXPECT_FALSE(dsl::Strategy::parse("e:res=0").has_value());
  EXPECT_FALSE(dsl::Strategy::parse("e:pad=0").has_value());
  EXPECT_FALSE(dsl::Strategy::parse("e:pad=-1").has_value());
  EXPECT_FALSE(dsl::Strategy::parse("f:Tm=64 e:bias=yes").has_value());
}

TEST(ScheduleCache, EpilogueVersionBumpInvalidatesV1File) {
  // kVersion went 1 -> 2 when the banked strategy text gained epilogue
  // fields: a v1 cache (no e: tokens) must be ignored wholesale, never
  // reinterpreted as epilogue-free entries.
  const std::string path = temp_cache_path("v1");
  {
    std::ofstream out(path);
    out << "# swatop-schedule-cache v1\n";
    out << "v1-key\t100\t200\t1\tf:Tm=64 c:order=mnk\n";
  }
  ScheduleCache cache(disk_cfg(path));
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.lookup("v1-key").has_value());
  std::filesystem::remove(path);
}

TEST(ScheduleCache, CorruptEpilogueFieldIsSkippedNotFatal) {
  const std::string path = temp_cache_path("epi-corrupt");
  dsl::Strategy fused = sample_strategy();
  dsl::EpilogueSpec epi;
  epi.bias = true;
  epi.relu = true;
  fused.set_epilogue(epi);
  {
    std::ofstream out(path);
    out << ScheduleCache::file_header() << "\n";
    out << "fused-key\t100\t200\t1\t" << fused.serialize() << "\n";
    out << "bad-epi-name\t1\t2\t0\tf:Tm=64 e:pool=1\n";
    out << "bad-epi-flag\t1\t2\t0\tf:Tm=64 e:bias=0\n";
    out << "bad-epi-pad\t1\t2\t0\tf:Tm=64 e:pad=-3\n";
  }
  ScheduleCache cache(disk_cfg(path));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.corrupt_entries_skipped(), 3);
  const auto got = cache.lookup("fused-key");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->strategy, fused);
  EXPECT_EQ(got->strategy.epilogue(), epi);
  std::filesystem::remove(path);
}

TEST(ScheduleCache, MemoryRoundTrip) {
  ScheduleCache cache(disk_cfg(""));
  CacheEntry e;
  e.strategy = sample_strategy();
  e.prefetch = true;
  e.predicted_cycles = 12345.5;
  e.measured_cycles = 13000.25;
  cache.store("key-a", e);
  const auto got = cache.lookup("key-a");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->strategy, e.strategy);
  EXPECT_TRUE(got->prefetch);
  EXPECT_DOUBLE_EQ(got->predicted_cycles, 12345.5);
  EXPECT_DOUBLE_EQ(got->measured_cycles, 13000.25);
  EXPECT_FALSE(cache.lookup("key-b").has_value());
}

TEST(ScheduleCache, DiskRoundTripAcrossInstances) {
  const std::string path = temp_cache_path("roundtrip");
  CacheEntry e;
  e.strategy = sample_strategy();
  e.prefetch = true;
  e.predicted_cycles = 98765.0;
  e.measured_cycles = 0.0;
  {
    ScheduleCache cache(disk_cfg(path));
    cache.store("key-a", e);
    // Overwrites append; last one wins on reload.
    e.predicted_cycles = 55555.0;
    cache.store("key-a", e);
  }
  ScheduleCache reloaded(disk_cfg(path));
  EXPECT_EQ(reloaded.size(), 1u);
  EXPECT_EQ(reloaded.corrupt_entries_skipped(), 0);
  const auto got = reloaded.lookup("key-a");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->strategy, e.strategy);
  EXPECT_DOUBLE_EQ(got->predicted_cycles, 55555.0);
  std::filesystem::remove(path);
}

TEST(ScheduleCache, FingerprintIsolatesMachinesShapesAndKnobs) {
  const TunerKnobs knobs;
  const ops::MatmulOp op_a(512, 512, 512);
  const ops::MatmulOp op_b(512, 512, 256);
  const std::string base = ScheduleCache::fingerprint(
      op_a.name(), sim::SimConfig::sw26010(), knobs);
  // Same inputs -> same key.
  EXPECT_EQ(base, ScheduleCache::fingerprint(
                      op_a.name(), sim::SimConfig::sw26010(), knobs));
  // Different machine (sw26010pro: bigger SPM, faster clock) never collides.
  EXPECT_NE(base, ScheduleCache::fingerprint(
                      op_a.name(), sim::SimConfig::sw26010pro(), knobs));
  // Different dims never collide.
  EXPECT_NE(base, ScheduleCache::fingerprint(
                      op_b.name(), sim::SimConfig::sw26010(), knobs));
  // Every tuner knob participates.
  TunerKnobs k2 = knobs;
  k2.prefetch = false;
  EXPECT_NE(base, ScheduleCache::fingerprint(op_a.name(),
                                             sim::SimConfig::sw26010(), k2));
  k2 = knobs;
  k2.spm_reserve_floats = 1024;
  EXPECT_NE(base, ScheduleCache::fingerprint(op_a.name(),
                                             sim::SimConfig::sw26010(), k2));
  k2 = knobs;
  k2.top_k = 8;
  EXPECT_NE(base, ScheduleCache::fingerprint(op_a.name(),
                                             sim::SimConfig::sw26010(), k2));
}

TEST(ScheduleCache, VersionBumpInvalidatesOldFile) {
  const std::string path = temp_cache_path("version");
  {
    std::ofstream out(path);
    out << "# swatop-schedule-cache v0\n";
    out << "some-key\t1\t2\t1\tf:Tm=64\n";
  }
  ScheduleCache cache(disk_cfg(path));
  EXPECT_EQ(cache.size(), 0u);  // stale version: every entry ignored
  EXPECT_FALSE(cache.lookup("some-key").has_value());
  // The first store rewrites the file in the current format.
  CacheEntry e;
  e.strategy = sample_strategy();
  cache.store("fresh-key", e);
  std::ifstream in(path);
  std::string header;
  ASSERT_TRUE(std::getline(in, header));
  EXPECT_EQ(header, ScheduleCache::file_header());
  ScheduleCache reloaded(disk_cfg(path));
  EXPECT_EQ(reloaded.size(), 1u);
  EXPECT_FALSE(reloaded.lookup("some-key").has_value());
  EXPECT_TRUE(reloaded.lookup("fresh-key").has_value());
  std::filesystem::remove(path);
}

TEST(ScheduleCache, CorruptEntriesAreSkippedNotFatal) {
  const std::string path = temp_cache_path("corrupt");
  {
    std::ofstream out(path);
    out << ScheduleCache::file_header() << "\n";
    out << "good-key\t100\t200\t1\t" << sample_strategy().serialize()
        << "\n";
    out << "too-few-fields\t1\t2\n";
    out << "bad-double\tNOTANUMBER\t2\t0\tf:Tm=64\n";
    out << "bad-prefetch\t1\t2\t7\tf:Tm=64\n";
    out << "bad-strategy\t1\t2\t0\tf:Tm=sixty-four\n";
    out << "empty-strategy\t1\t2\t0\t\n";
    out << "\x01\x02 binary junk line without tabs\n";
  }
  ScheduleCache cache(disk_cfg(path));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.corrupt_entries_skipped(), 6);
  const auto got = cache.lookup("good-key");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->strategy, sample_strategy());
  // save() compacts: reload sees only the good entry and no corruption.
  EXPECT_TRUE(cache.save());
  ScheduleCache compacted(disk_cfg(path));
  EXPECT_EQ(compacted.size(), 1u);
  EXPECT_EQ(compacted.corrupt_entries_skipped(), 0);
  std::filesystem::remove(path);
}

TEST(ScheduleCache, NonFiniteCyclesAreRejected) {
  // strtod happily parses "nan"/"inf"; a corrupted (or hand-edited) cache
  // line must not inject non-finite cycles into the warm path, where every
  // comparison against NaN silently goes one way. Regression test for the
  // parse_double finiteness check.
  const std::string path = temp_cache_path("nonfinite");
  {
    std::ofstream out(path);
    out << ScheduleCache::file_header() << "\n";
    out << "good-key\t100\t200\t1\t" << sample_strategy().serialize()
        << "\n";
    out << "nan-pred\tnan\t200\t1\tf:Tm=64\n";
    out << "nan-meas\t100\tNaN\t0\tf:Tm=64\n";
    out << "inf-pred\tinf\t200\t1\tf:Tm=64\n";
    out << "neg-inf-meas\t100\t-inf\t0\tf:Tm=64\n";
    out << "overflow\t1e999\t200\t1\tf:Tm=64\n";
    out << "trailing-garbage\t100abc\t200\t1\tf:Tm=64\n";
  }
  ScheduleCache cache(disk_cfg(path));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.corrupt_entries_skipped(), 6);
  const auto got = cache.lookup("good-key");
  ASSERT_TRUE(got.has_value());
  EXPECT_DOUBLE_EQ(got->predicted_cycles, 100.0);
  EXPECT_FALSE(cache.lookup("nan-pred").has_value());
  EXPECT_FALSE(cache.lookup("inf-pred").has_value());
  std::filesystem::remove(path);
}

TEST(ScheduleCache, ReadOnlyNeverTouchesDisk) {
  const std::string path = temp_cache_path("readonly");
  {
    ScheduleCache writer(disk_cfg(path));
    CacheEntry e;
    e.strategy = sample_strategy();
    writer.store("banked", e);
  }
  const auto mtime = std::filesystem::last_write_time(path);
  ScheduleCache ro(
      disk_cfg(path, /*read_only=*/true));
  ASSERT_TRUE(ro.lookup("banked").has_value());
  CacheEntry e;
  e.strategy = sample_strategy();
  ro.store("new-key", e);          // updates memory...
  EXPECT_TRUE(ro.lookup("new-key").has_value());
  EXPECT_FALSE(ro.save());         // ...but never the file
  EXPECT_EQ(std::filesystem::last_write_time(path), mtime);
  ScheduleCache reloaded(disk_cfg(path));
  EXPECT_FALSE(reloaded.lookup("new-key").has_value());
  std::filesystem::remove(path);
}

TEST(ScheduleCache, ConcurrentStoreAndLookup) {
  const std::string path = temp_cache_path("threads");
  ScheduleCache cache(disk_cfg(path));
  constexpr int kThreads = 8;
  constexpr int kKeysPerThread = 25;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&cache, t] {
      for (int i = 0; i < kKeysPerThread; ++i) {
        CacheEntry e;
        e.strategy = sample_strategy();
        e.predicted_cycles = t * 1000 + i;
        cache.store("shared-key", e);  // contended key
        cache.store("key-" + std::to_string(t) + "-" + std::to_string(i),
                    e);
        (void)cache.lookup("shared-key");
        (void)cache.lookup("key-0-0");
      }
    });
  }
  for (std::thread& t : workers) t.join();
  EXPECT_EQ(cache.size(), 1u + kThreads * kKeysPerThread);
  ScheduleCache reloaded(disk_cfg(path));
  EXPECT_EQ(reloaded.size(), 1u + kThreads * kKeysPerThread);
  EXPECT_EQ(reloaded.corrupt_entries_skipped(), 0);
  std::filesystem::remove(path);
}

// The serving-path access pattern: a pool of threads hammers *warm*
// lookups (shared locks -- they must all read the same banked entry,
// concurrently) while one tuner thread keeps missing on fresh keys and
// storing the results (exclusive lock). Readers assert the warm entry's
// content on every hit, so a torn read, a rehash-under-reader or a lost
// update shows up as a value mismatch here -- and as a data race under the
// TSan CI job, which runs this test.
TEST(ScheduleCache, ConcurrentWarmLookupsWhileOneThreadStores) {
  CacheConfig cfg;
  cfg.enabled = true;  // in-memory: the contention is on the map itself
  ScheduleCache cache(cfg);

  CacheEntry warm;
  warm.strategy = sample_strategy();
  warm.prefetch = true;
  warm.predicted_cycles = 123.0;
  warm.measured_cycles = 456.0;
  cache.store("warm-key", warm);

  constexpr int kReaders = 8;
  constexpr int kWarmLookups = 4000;
  constexpr int kFreshStores = 400;
  std::atomic<std::int64_t> hits{0};
  std::atomic<bool> mismatch{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&cache, &hits, &mismatch] {
      for (int i = 0; i < kWarmLookups; ++i) {
        const std::optional<CacheEntry> got = cache.lookup("warm-key");
        if (!got || got->predicted_cycles != 123.0 ||
            got->measured_cycles != 456.0 || !got->prefetch ||
            got->strategy.serialize() != sample_strategy().serialize()) {
          mismatch.store(true);
          return;
        }
        hits.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  std::thread tuner([&cache] {
    for (int i = 0; i < kFreshStores; ++i) {
      const std::string key = "fresh-" + std::to_string(i);
      if (!cache.lookup(key)) {  // miss...
        CacheEntry e;
        e.strategy = sample_strategy();
        e.predicted_cycles = i;
        cache.store(key, e);  // ...then store, racing the warm readers
      }
    }
  });
  for (std::thread& t : readers) t.join();
  tuner.join();
  EXPECT_FALSE(mismatch.load());
  EXPECT_EQ(hits.load(), static_cast<std::int64_t>(kReaders) * kWarmLookups);
  EXPECT_EQ(cache.size(), 1u + kFreshStores);
}

}  // namespace
}  // namespace swatop::tune

namespace swatop {
namespace {

TEST(OptimizerCache, WarmHitReturnsIdenticalStrategyWithoutSearch) {
  ops::MatmulOp op(96, 64, 40);
  SwatopConfig cfg;
  cfg.cache.enabled = true;  // in-memory cache shared within the Optimizer
  cfg.observability.enabled = true;
  const Optimizer optimizer(cfg);

  const OptimizedOperator cold = optimizer.optimize(op);
  EXPECT_FALSE(cold.from_cache);
  EXPECT_GT(cold.stats.valid_candidates, 1);

  const OptimizedOperator warm = optimizer.optimize(op);
  EXPECT_TRUE(warm.from_cache);
  EXPECT_EQ(warm.candidate.strategy, cold.candidate.strategy);
  EXPECT_EQ(warm.candidate.prefetch, cold.candidate.prefetch);
  EXPECT_DOUBLE_EQ(warm.predicted_cycles, cold.predicted_cycles);
  // The warm path rebuilds exactly one candidate: the banked winner.
  EXPECT_EQ(warm.stats.valid_candidates, 1);
  EXPECT_EQ(warm.c_source, cold.c_source);
}

TEST(OptimizerCache, WarmResultIsFunctionallyCorrect) {
  ops::ConvShape s;
  s.batch = 4;
  s.ni = 32;
  s.no = 32;
  s.ri = 8;
  s.ci = 8;
  ops::ImplicitConvOp op(s);
  SwatopConfig cfg;
  cfg.cache.enabled = true;
  const Optimizer optimizer(cfg);
  (void)optimizer.optimize(op);  // cold: banks the winner
  const OptimizedOperator warm = optimizer.optimize(op);
  ASSERT_TRUE(warm.from_cache);
  sim::CoreGroup cg(optimizer.machine());
  const dsl::BoundTensors bt = rt::bind_tensors(cg, op);
  op.fill_inputs(cg, bt, warm.candidate.strategy);
  warm.run(cg, bt, sim::ExecMode::Functional);
  EXPECT_LE(op.check_output(cg, bt, warm.candidate.strategy), 2e-3);
}

TEST(OptimizerCache, PersistsAcrossOptimizers) {
  const std::string path = (std::filesystem::temp_directory_path() /
                            "swatop_optimizer_persist.cache")
                               .string();
  std::filesystem::remove(path);
  ops::MatmulOp op(72, 56, 40);
  SwatopConfig cfg;
  cfg.cache.enabled = true;
  cfg.cache.path = path;

  const OptimizedOperator cold = Optimizer(cfg).optimize(op);
  EXPECT_FALSE(cold.from_cache);

  // A brand-new Optimizer (fresh process in real deployments) reloads the
  // banked winner from disk.
  const OptimizedOperator warm = Optimizer(cfg).optimize(op);
  EXPECT_TRUE(warm.from_cache);
  EXPECT_EQ(warm.candidate.strategy, cold.candidate.strategy);

  // A different machine misses: the key isolates sw26010 from sw26010pro.
  SwatopConfig pro = cfg;
  pro.machine = sim::SimConfig::sw26010pro();
  const OptimizedOperator pro_run = Optimizer(pro).optimize(op);
  EXPECT_FALSE(pro_run.from_cache);
  std::filesystem::remove(path);
}

/// Tune `op` into a fresh recorder and run the result timing-only on a core
/// group observed by that recorder: the run's profile carries this one
/// optimize() call's tuning counters.
rt::RunResult tune_and_profile(const Optimizer& optimizer,
                               const dsl::OperatorDef& op) {
  obs::Recorder rec(optimizer.config().observability);
  const OptimizedOperator tuned = optimizer.optimize(op, &rec);
  sim::CoreGroup cg(optimizer.machine());
  cg.attach_observer(&rec);
  const dsl::BoundTensors bt = rt::bind_tensors(cg, op);
  return tuned.run(cg, bt, sim::ExecMode::TimingOnly);
}

TEST(OptimizerCache, ObservabilityCountsHitsMissesStores) {
  ops::MatmulOp op(64, 64, 32);
  SwatopConfig cfg;
  cfg.cache.enabled = true;
  cfg.observability.enabled = true;
  const Optimizer optimizer(cfg);

  const auto cold_run = tune_and_profile(optimizer, op);
  ASSERT_TRUE(cold_run.profile.enabled);
  EXPECT_EQ(cold_run.profile.tune.cache_hits, 0);
  EXPECT_EQ(cold_run.profile.tune.cache_misses, 1);
  EXPECT_EQ(cold_run.profile.tune.cache_stores, 1);

  const auto warm_run = tune_and_profile(optimizer, op);
  EXPECT_EQ(warm_run.profile.tune.cache_hits, 1);
  EXPECT_EQ(warm_run.profile.tune.cache_misses, 0);
  bool saw_hit_span = false;
  for (const auto& ev : warm_run.profile.events)
    if (ev.name == "cache hit (rebuild)") saw_hit_span = true;
  EXPECT_TRUE(saw_hit_span);
  // The report mentions the cache traffic.
  EXPECT_NE(warm_run.profile.report().find("schedule cache"),
            std::string::npos);
}

TEST(OptimizerCache, NonMemberBankedStrategyIsAMissAndRetunes) {
  // A cache file is outside the program. A banked variant edited to an
  // option the space does not declare is a corrupt entry: the warm compile
  // counts a miss and re-tunes to the cold pick. Before, "abc" and
  // "99999999999" escaped std::stoi past the CheckError handler, and "3x"
  // parsed as 3 and was served as a hit.
  const std::string path = tune::temp_cache_path("non_member");
  ops::ConvShape s;
  s.batch = 4;
  s.ni = 32;
  s.no = 32;
  s.ri = 8;
  s.ci = 8;
  const ops::ImplicitConvOp op(s);
  SwatopConfig cfg;
  cfg.cache.enabled = true;
  cfg.cache.path = path;
  cfg.observability.enabled = true;
  CompiledOp cold = compile(op, cfg);
  const double cold_cycles = cold.run(sim::ExecMode::TimingOnly).cycles;
  std::string banked;
  {
    std::ifstream in(path);
    banked.assign(std::istreambuf_iterator<char>(in),
                  std::istreambuf_iterator<char>());
  }
  const std::size_t at = banked.find("c:variant=");
  ASSERT_NE(at, std::string::npos) << banked;
  const std::size_t end = banked.find_first_of(" \n", at);
  ASSERT_NE(end, std::string::npos);
  for (const char* bad : {"abc", "99999999999", "3x"}) {
    SCOPED_TRACE(bad);
    {
      std::ofstream out(path, std::ios::trunc);
      out << banked.substr(0, at) << "c:variant=" << bad
          << banked.substr(end);
    }
    CompiledOp warm = compile(op, cfg);
    const rt::RunResult r = warm.run(sim::ExecMode::TimingOnly);
    EXPECT_FALSE(warm.handle().from_cache);
    EXPECT_EQ(warm.handle().candidate.strategy,
              cold.handle().candidate.strategy);
    EXPECT_EQ(r.cycles, cold_cycles);
    EXPECT_EQ(r.profile.tune.cache_hits, 0);
    EXPECT_EQ(r.profile.tune.cache_misses, 1);
    EXPECT_GT(warm.handle().stats.valid_candidates, 1);  // really searched
  }
  std::filesystem::remove(path);
}

TEST(OptimizerCache, PreChangeExplicitStrategyIsAMissAndRetunes) {
  // Explicit GEMM once tuned a column-major matmul (Tm/Tn/Tk) under the
  // same operator name; it now tunes the 1x1-conv nest over row panels. A
  // strategy banked in the old form is not a member of the new space, so
  // it is a miss and the shape is re-tuned.
  const std::string path = tune::temp_cache_path("pre_change_explicit");
  ops::ConvShape s;
  s.batch = 4;
  s.ni = 3;
  s.no = 32;
  s.ri = 10;
  s.ci = 10;
  const ops::ExplicitConvOp op(s);
  dsl::Strategy old;
  old.set_factor("Tm", 32);
  old.set_factor("Tn", 256);
  old.set_factor("Tk", 32);
  old.set_choice("order", "mnk");
  old.set_choice("variant", "0");
  old.set_choice("boundary", "pad");
  EXPECT_FALSE(op.space().contains(old));
  SwatopConfig cfg;
  cfg.cache.enabled = true;
  cfg.cache.path = path;
  cfg.observability.enabled = true;
  const std::string key = tune::ScheduleCache::fingerprint(
      op.name(), cfg.machine, cfg.tuner_knobs());
  {
    std::ofstream out(path);
    out << tune::ScheduleCache::file_header() << "\n"
        << key << "\t1\t2\t1\t" << old.serialize() << "\n";
  }
  // Banked and parsed: only the space rejects it.
  ASSERT_TRUE(tune::ScheduleCache(cfg.cache).lookup(key).has_value());
  CompiledOp warm = compile(op, cfg);
  const rt::RunResult r = warm.run(sim::ExecMode::Functional);
  EXPECT_FALSE(warm.handle().from_cache);
  EXPECT_TRUE(op.space().contains(warm.handle().candidate.strategy));
  EXPECT_EQ(r.profile.tune.cache_hits, 0);
  EXPECT_EQ(r.profile.tune.cache_misses, 1);
  EXPECT_GT(warm.handle().stats.valid_candidates, 1);  // really searched
  std::filesystem::remove(path);
}

TEST(OptimizerCache, CorruptBankedStrategyFallsBackToTuning) {
  // An entry that parses but no longer lowers (e.g. hand-edited file) must
  // be treated as a miss, not a crash.
  const std::string path = (std::filesystem::temp_directory_path() /
                            "swatop_corrupt_entry.cache")
                               .string();
  std::filesystem::remove(path);
  ops::MatmulOp op(64, 64, 32);
  SwatopConfig cfg;
  cfg.cache.enabled = true;
  cfg.cache.path = path;
  const std::string key = tune::ScheduleCache::fingerprint(
      op.name(), cfg.machine, cfg.tuner_knobs());
  {
    std::ofstream out(path);
    out << tune::ScheduleCache::file_header() << "\n";
    // Valid line shape, nonsense schedule: lowering will throw.
    out << key << "\t1\t2\t1\tf:Tm=3 c:order=zzz\n";
  }
  const OptimizedOperator tuned = Optimizer(cfg).optimize(op);
  EXPECT_FALSE(tuned.from_cache);
  EXPECT_GT(tuned.stats.valid_candidates, 1);  // really searched
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace swatop
