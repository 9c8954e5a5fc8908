// Tier-1 suite for the hierarchical hashed timer wheel (src/expiry/
// wheel.hpp), pinning the invariants DESIGN.md §13 documents:
//
//   conservation   scheduled == delivered + pending
//   totality       every scheduled lease is delivered exactly once, even
//                  when deadlines land beyond the top level's span (clamp
//                  + repeated cascade)
//   due order      harvest(now) never returns a lease more than one
//                  resolution early, and with enough `max` returns every
//                  pending lease with deadline <= now
//
// The wheel is driven tick-by-tick through explicit timestamps (and the
// VirtualClock seam where the test reads time), so every run is
// deterministic.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <vector>

#include "src/expiry/wheel.hpp"
#include "src/harness/prng.hpp"
#include "src/harness/timing.hpp"

namespace bjrw::expiry {
namespace {

constexpr std::uint64_t kRes = 1000;  // ns per tick; small so spans are small

WheelConfig small_cfg() {
  WheelConfig cfg;
  cfg.resolution_ns = kRes;
  cfg.slots = 4;  // tiny slots force cascades quickly
  cfg.levels = 3;
  return cfg;
}

TEST(ExpiryWheel, ConfigIsValidated) {
  WheelConfig cfg;
  cfg.resolution_ns = 0;
  EXPECT_THROW(TimerWheel(cfg, 0), std::invalid_argument);
  cfg = WheelConfig{};
  cfg.slots = 3;  // not a power of two
  EXPECT_THROW(TimerWheel(cfg, 0), std::invalid_argument);
  cfg = WheelConfig{};
  cfg.slots = 1;
  EXPECT_THROW(TimerWheel(cfg, 0), std::invalid_argument);
  cfg = WheelConfig{};
  cfg.levels = 0;
  EXPECT_THROW(TimerWheel(cfg, 0), std::invalid_argument);
  cfg = WheelConfig{};
  cfg.levels = 9;
  EXPECT_THROW(TimerWheel(cfg, 0), std::invalid_argument);
  EXPECT_NO_THROW(TimerWheel(WheelConfig{}, 0));
}

TEST(ExpiryWheel, ScheduleThenHarvestAtDeadline) {
  TimerWheel w(small_cfg(), /*start_ns=*/0);
  w.schedule(42, 1, 10 * kRes);
  std::vector<Lease> out;
  // Not due more than a resolution before the deadline.
  EXPECT_EQ(w.harvest(8 * kRes, out, 100), 0u);
  EXPECT_TRUE(out.empty());
  // Due at (or within one floor-tick of) the deadline.
  EXPECT_EQ(w.harvest(10 * kRes, out, 100), 1u);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].key, 42u);
  EXPECT_EQ(out[0].version, 1u);
  // Popped exactly once: a later harvest finds nothing.
  out.clear();
  EXPECT_EQ(w.harvest(100 * kRes, out, 100), 0u);
  const WheelStats s = w.stats();
  EXPECT_EQ(s.scheduled, 1u);
  EXPECT_EQ(s.delivered, 1u);
  EXPECT_EQ(s.pending, 0u);
}

TEST(ExpiryWheel, MaybeDueHintTracksNextDeadline) {
  TimerWheel w(small_cfg(), 0);
  EXPECT_FALSE(w.maybe_due(VirtualClock(1'000'000)));  // empty: never due
  w.schedule(1, 1, 5 * kRes);
  EXPECT_FALSE(w.maybe_due(VirtualClock(4 * kRes - 1)));
  EXPECT_TRUE(w.maybe_due(VirtualClock(5 * kRes)));
  std::vector<Lease> out;
  w.harvest(5 * kRes, out, 100);
  EXPECT_EQ(out.size(), 1u);
  EXPECT_FALSE(w.maybe_due(VirtualClock(6 * kRes)));  // drained again
}

// The sweeper's idle poll: with no lease pending, maybe_due answers from
// the watermark alone and never reads the clock.
TEST(ExpiryWheel, EmptyWheelMaybeDueReadsNoClock) {
  struct CountingClock final : ClockSource {
    mutable int reads = 0;
    std::uint64_t now_ns() const override {
      ++reads;
      return 5 * kRes;
    }
  } clock;
  TimerWheel w(small_cfg(), 0);
  EXPECT_FALSE(w.maybe_due(clock));
  EXPECT_EQ(clock.reads, 0);
  w.schedule(1, 1, 5 * kRes);
  EXPECT_TRUE(w.maybe_due(clock));
  EXPECT_EQ(clock.reads, 1);
  std::vector<Lease> out;
  EXPECT_EQ(w.harvest(5 * kRes, out, 100), 1u);
  clock.reads = 0;
  EXPECT_FALSE(w.maybe_due(clock));  // drained: back to never due
  EXPECT_EQ(clock.reads, 0);
}

// The wheel keeps no per-key index: a rescheduled key delivers both of
// its leases, each at its own deadline, and the map's compare-and-erase
// decides which one still guards the entry.
TEST(ExpiryWheel, RescheduledKeyDeliversBothLeases) {
  TimerWheel w(small_cfg(), 0);
  w.schedule(9, 1, 3 * kRes);
  w.schedule(9, 2, 8 * kRes);  // rewrite with a later deadline
  std::vector<Lease> out;
  EXPECT_EQ(w.harvest(3 * kRes, out, 100), 1u);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].version, 1u);
  WheelStats s = w.stats();
  EXPECT_EQ(s.scheduled, s.delivered + s.pending);
  EXPECT_EQ(s.pending, 1u);
  EXPECT_EQ(w.harvest(8 * kRes, out, 100), 1u);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[1].key, 9u);
  EXPECT_EQ(out[1].version, 2u);
  s = w.stats();
  EXPECT_EQ(s.scheduled, 2u);
  EXPECT_EQ(s.delivered, 2u);
  EXPECT_EQ(s.pending, 0u);
}

TEST(ExpiryWheel, MaxLimitedHarvestLeavesMeasurableBacklog) {
  TimerWheel w(small_cfg(), 0);
  for (std::uint64_t k = 0; k < 20; ++k) w.schedule(k, 1, 2 * kRes);
  std::vector<Lease> out;
  EXPECT_EQ(w.harvest(2 * kRes, out, 5), 5u);
  EXPECT_EQ(w.due_backlog(), 15u);
  EXPECT_TRUE(w.maybe_due(VirtualClock(2 * kRes)));  // leftover: due now
  EXPECT_EQ(w.harvest(2 * kRes, out, 100), 15u);
  EXPECT_EQ(w.due_backlog(), 0u);
  EXPECT_EQ(out.size(), 20u);
}

// Totality + conservation under random deadlines spanning every level,
// beyond-top-span clamps included, advancing in random strides.  This is
// the cascade correctness test: with slots=4, levels=3 the wheel covers
// 64 ticks, and deadlines are drawn up to 4x past that.
TEST(ExpiryWheel, CascadeTotalityAndConservationUnderRandomLoad) {
  TimerWheel w(small_cfg(), 0);
  Xoshiro256 rng(12345);
  constexpr std::uint64_t kLeases = 500;
  std::map<std::uint64_t, std::uint64_t> want;  // key -> deadline
  for (std::uint64_t k = 0; k < kLeases; ++k) {
    const std::uint64_t deadline = (1 + rng.below(256)) * kRes;
    w.schedule(k, 1, deadline);
    want[k] = deadline;
  }
  std::vector<Lease> out;
  std::uint64_t now = 0;
  while (!want.empty()) {
    now += (1 + rng.below(7)) * kRes;
    ASSERT_LT(now, 4000 * kRes) << "leases never delivered: " << want.size();
    out.clear();
    w.harvest(now, out, kLeases);
    for (const Lease& l : out) {
      auto it = want.find(l.key);
      ASSERT_NE(it, want.end()) << "key " << l.key << " delivered twice";
      // Due-order tolerance: never delivered more than one resolution
      // before its deadline...
      EXPECT_LE(it->second, now + kRes) << "key " << l.key << " early";
      want.erase(it);
    }
    // ...and nothing whose deadline has passed may still be pending after
    // an uncapped harvest at `now`.
    for (const auto& [key, deadline] : want)
      EXPECT_GT(deadline, now) << "key " << key << " overdue yet undelivered";
    const WheelStats s = w.stats();
    EXPECT_EQ(s.scheduled, s.delivered + s.pending);
  }
  const WheelStats s = w.stats();
  EXPECT_EQ(s.delivered, kLeases);
  EXPECT_EQ(s.pending, 0u);
  EXPECT_GT(s.cascades, 0u);  // the load actually exercised the hierarchy
}

// The same totality bar driven through the VirtualClock seam the serve
// stack uses — the wheel consumes plain timestamps, so reading them off a
// VirtualClock makes the whole choreography replayable.
TEST(ExpiryWheel, VirtualClockDrivesDeterministicHarvest) {
  VirtualClock clock(/*start_ns=*/0);
  TimerWheel w(small_cfg(), clock.now_ns());
  w.schedule(1, 1, 6 * kRes);
  w.schedule(2, 1, 20 * kRes);
  std::vector<Lease> out;
  clock.advance(6 * kRes);
  EXPECT_EQ(w.harvest(clock.now_ns(), out, 10), 1u);
  EXPECT_EQ(out[0].key, 1u);
  clock.advance(13 * kRes);  // 19 ticks: key 2 not yet due
  out.clear();
  EXPECT_EQ(w.harvest(clock.now_ns(), out, 10), 0u);
  clock.advance(1 * kRes);
  EXPECT_EQ(w.harvest(clock.now_ns(), out, 10), 1u);
  EXPECT_EQ(out[0].key, 2u);
}

// Deadlines in the past (or at the start epoch) deliver on the next
// harvest rather than getting stuck in a bucket behind the cursor.
TEST(ExpiryWheel, PastDeadlinesAreImmediatelyDue) {
  TimerWheel w(small_cfg(), /*start_ns=*/1'000'000);
  w.schedule(5, 1, 0);        // long before start
  w.schedule(6, 1, 999'999);  // just before start
  EXPECT_TRUE(w.maybe_due(VirtualClock(1'000'000)));
  std::vector<Lease> out;
  EXPECT_EQ(w.harvest(1'000'000, out, 10), 2u);
}

}  // namespace
}  // namespace bjrw::expiry
