// Unit tests for the harness substrate: stats, PRNG, workload generation,
// thread coordination, table output, the idle policy.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <set>
#include <sstream>
#include <vector>

#include "src/harness/idle.hpp"
#include "src/harness/prng.hpp"
#include "src/harness/stats.hpp"
#include "src/harness/table.hpp"
#include "src/harness/thread_coord.hpp"
#include "src/harness/timing.hpp"
#include "src/harness/workload.hpp"

namespace bjrw {
namespace {

TEST(Stats, SummaryOfKnownSamples) {
  const auto s = summarize({1, 2, 3, 4, 5});
  EXPECT_EQ(s.count, 5u);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_DOUBLE_EQ(s.p50, 3.0);
  EXPECT_NEAR(s.stddev, std::sqrt(2.5), 1e-12);
}

TEST(Stats, SummaryOfEmptyAndSingleton) {
  EXPECT_EQ(summarize({}).count, 0u);
  const auto s = summarize({42.0});
  EXPECT_EQ(s.count, 1u);
  EXPECT_DOUBLE_EQ(s.mean, 42.0);
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);
  EXPECT_DOUBLE_EQ(s.p99, 42.0);
}

TEST(Stats, PercentilesAreOrderStatistics) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  const auto s = summarize(v);
  EXPECT_DOUBLE_EQ(s.p50, 50.0);
  EXPECT_DOUBLE_EQ(s.p90, 90.0);
  EXPECT_DOUBLE_EQ(s.p99, 99.0);
}

TEST(Stats, StreamingMatchesBatch) {
  Xoshiro256 rng(7);
  std::vector<double> v;
  StreamingStats st;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform01();
    v.push_back(x);
    st.add(x);
  }
  const auto s = summarize(v);
  EXPECT_EQ(st.count(), 1000u);
  EXPECT_NEAR(st.mean(), s.mean, 1e-9);
  EXPECT_NEAR(st.stddev(), s.stddev, 1e-9);
  EXPECT_DOUBLE_EQ(st.min(), s.min);
  EXPECT_DOUBLE_EQ(st.max(), s.max);
}

TEST(Stats, StreamingMergeMatchesSingleStream) {
  StreamingStats a, b, whole;
  Xoshiro256 rng(9);
  for (int i = 0; i < 500; ++i) {
    const double x = rng.uniform01();
    (i % 2 ? a : b).add(x);
    whole.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), whole.count());
  EXPECT_NEAR(a.mean(), whole.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), whole.variance(), 1e-9);
}

TEST(Prng, DeterministicAcrossInstances) {
  Xoshiro256 a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Prng, DifferentSeedsDiverge) {
  Xoshiro256 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next() == b.next());
  EXPECT_LT(same, 4);
}

#if defined(__SIZEOF_INT128__)
TEST(Prng, PortableMulhiMatchesWideMultiply) {
  // below() uses __int128 here and mulhi64 on toolchains without it; the
  // two must agree exactly or BJRW_TEST_SEED replays diverge per compiler.
  Xoshiro256 rng(2024);
  for (int i = 0; i < 10000; ++i) {
    const std::uint64_t a = rng.next(), b = rng.next();
    __extension__ using Wide = unsigned __int128;
    const auto expect =
        static_cast<std::uint64_t>((static_cast<Wide>(a) * b) >> 64);
    EXPECT_EQ(mulhi64(a, b), expect);
  }
  for (const std::uint64_t v : {0ULL, 1ULL, ~0ULL, 1ULL << 32, (1ULL << 32) - 1}) {
    __extension__ using Wide = unsigned __int128;
    EXPECT_EQ(mulhi64(v, ~0ULL),
              static_cast<std::uint64_t>((static_cast<Wide>(v) * ~0ULL) >> 64));
  }
}
#endif

TEST(Prng, BelowRespectsBound) {
  Xoshiro256 rng(5);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(rng.below(17), 17u);
}

TEST(Prng, ChanceIsRoughlyCalibrated) {
  Xoshiro256 rng(11);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.chance(1, 10);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.1, 0.01);
}

TEST(Workload, MixMatchesReadFraction) {
  WorkloadConfig cfg;
  cfg.read_fraction = 0.9;
  OpStream s(cfg, /*thread_salt=*/3, /*length=*/100000);
  EXPECT_NEAR(static_cast<double>(s.reads()) / static_cast<double>(s.size()),
              0.9, 0.01);
}

TEST(Workload, AllReadsAndAllWrites) {
  WorkloadConfig cfg;
  cfg.read_fraction = 1.0;
  EXPECT_EQ(OpStream(cfg, 0, 1000).writes(), 0u);
  cfg.read_fraction = 0.0;
  EXPECT_EQ(OpStream(cfg, 0, 1000).reads(), 0u);
}

TEST(Workload, SpinWorkDependsOnIterations) {
  EXPECT_NE(spin_work(10, 42), spin_work(11, 42));
  EXPECT_EQ(spin_work(10, 42), spin_work(10, 42));
}

// Portable env mutation (setenv/unsetenv are POSIX-only).
void set_env(const char* key, const char* value) {
#ifdef _WIN32
  _putenv_s(key, value);
#else
  setenv(key, value, 1);
#endif
}
void unset_env(const char* key) {
#ifdef _WIN32
  _putenv_s(key, "");
#else
  unsetenv(key);
#endif
}

// Helper: materialize the schedule a given base seed produces.
std::vector<OpKind> schedule_for(std::uint64_t base_seed, std::size_t len) {
  WorkloadConfig cfg;
  cfg.seed = base_seed;
  OpStream s(cfg, /*thread_salt=*/5, len);
  std::vector<OpKind> ops;
  ops.reserve(len);
  for (std::size_t i = 0; i < len; ++i) ops.push_back(s.at(i));
  return ops;
}

TEST(TestSeed, ReturnsSaltUnchangedWithoutOverride) {
  unset_env("BJRW_TEST_SEED");
  EXPECT_EQ(test_seed(0), 0u);
  EXPECT_EQ(test_seed(42), 42u);
  EXPECT_EQ(test_seed(0xDEADBEEFULL), 0xDEADBEEFULL);
}

TEST(TestSeed, IdenticalSeedsReproduceIdenticalSchedules) {
  set_env("BJRW_TEST_SEED", "12345");
  const auto seed_a = test_seed(7);
  const auto seed_b = test_seed(7);
  EXPECT_EQ(seed_a, seed_b);
  EXPECT_NE(seed_a, 7u) << "override must actually re-seed";

  // The derived seed drives identical workload schedules bit-for-bit...
  EXPECT_EQ(schedule_for(seed_a, 2000), schedule_for(seed_b, 2000));
  // ...and identical raw PRNG streams.
  Xoshiro256 ra(seed_a), rb(seed_b);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(ra.next(), rb.next());

  // Distinct salts under the same override still get distinct streams.
  EXPECT_NE(test_seed(7), test_seed(8));

  set_env("BJRW_TEST_SEED", "54321");
  EXPECT_NE(test_seed(7), seed_a) << "changing the override must change "
                                     "the schedule";
  unset_env("BJRW_TEST_SEED");
}

TEST(TestSeed, MalformedOverrideFallsBackToSalt) {
  set_env("BJRW_TEST_SEED", "not-a-number");
  EXPECT_EQ(test_seed(9), 9u);
  unset_env("BJRW_TEST_SEED");
}

TEST(ThreadCoord, RunsAllThreadsWithDistinctTids) {
  std::atomic<std::uint64_t> mask{0};
  run_threads(8, [&](std::size_t tid) { mask.fetch_or(1ULL << tid); });
  EXPECT_EQ(mask.load(), 0xFFu);
}

TEST(ThreadCoord, PropagatesWorkerException) {
  EXPECT_THROW(
      run_threads(4,
                  [&](std::size_t tid) {
                    if (tid == 2) throw std::runtime_error("boom");
                  }),
      std::runtime_error);
}

TEST(Table, PrintsAlignedHeadersAndRows) {
  Table t({"lock", "threads", "rmr"});
  t.add_row({"fig1", "8", "3.00"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("lock"), std::string::npos);
  EXPECT_NE(out.find("fig1"), std::string::npos);
  EXPECT_NE(out.find('|'), std::string::npos);
}

TEST(Table, CsvOutput) {
  Table t({"a", "b"});
  t.add_row({"1", "2"});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

TEST(Timing, StopwatchMonotone) {
  Stopwatch sw;
  volatile std::uint64_t sink = 0;
  for (std::uint64_t i = 0; i < 1000; ++i) sink = sink + i;
  EXPECT_GE(sw.elapsed_ns(), 0u);
  EXPECT_GE(sw.elapsed_s(), 0.0);
}

// IdlePolicy is fed timestamps, so these cases inject them: no sleeps, no
// clock.  The first idle probe stamps the start of the grace.

TEST(IdlePolicy, DoesNotParkBeforeTheGrace) {
  IdlePolicy idle(100);
  EXPECT_FALSE(idle.should_park(1'000));
  EXPECT_FALSE(idle.should_park(1'050));
  EXPECT_FALSE(idle.should_park(1'099));
}

TEST(IdlePolicy, ParksOnceTheGraceHasPassed) {
  IdlePolicy idle(100);
  EXPECT_FALSE(idle.should_park(1'000));
  EXPECT_TRUE(idle.should_park(1'100));
  EXPECT_TRUE(idle.should_park(5'000));  // stays parked-worthy until progress
}

TEST(IdlePolicy, ProgressStartsAFreshGrace) {
  IdlePolicy idle(100);
  EXPECT_FALSE(idle.should_park(1'000));
  EXPECT_TRUE(idle.should_park(1'200));
  idle.progressed();
  // The grace restarts at the first idle probe after the progress, not at
  // the earlier idle stretch.
  EXPECT_FALSE(idle.should_park(1'300));
  EXPECT_FALSE(idle.should_park(1'399));
  EXPECT_TRUE(idle.should_park(1'400));
}

}  // namespace
}  // namespace bjrw
