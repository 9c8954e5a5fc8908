// Tier-1 suite for the elastic pool + admission layer (DESIGN.md §12) and
// the AdmitResult submit API:
//  * AdmitResult — the severity order worst_of aggregates by, and the
//    wire-facing names;
//  * ServeConfig — fluent setters and validate() reject nonsense geometry
//    eagerly (non-finite admission rates and int64-overflowing bucket
//    depths included); the 0-means-derived admit-burst rule;
//  * WorkerPool elasticity — workers beyond min_width park after the grace
//    period on an empty queue and submitters wake them when depth outruns
//    the awake width; a fixed-width pool never parks;
//  * KvServer admission — the per-node token bucket sheds beyond the
//    bucket depth with all-or-nothing batch charging, refusals leave
//    pending == 0 and are mirrored in submit_outcome() and the node_stats
//    counters; a full node ring is no refusal, it blocks the publisher
//    until a cell frees (choreographed deterministically by write-locking
//    the node's shards so the single worker blocks mid-request).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "src/core/locks.hpp"
#include "src/harness/spin.hpp"
#include "src/harness/topology.hpp"
#include "src/serve/config.hpp"
#include "src/serve/request.hpp"
#include "src/serve/server.hpp"
#include "src/serve/worker_pool.hpp"

namespace bjrw {
namespace {

using serve::AdmitResult;
using serve::KvServer;
using serve::Request;
using serve::RequestKind;
using serve::ServeConfig;
using serve::WorkerPool;
using serve::worst_of;

// ---- AdmitResult ------------------------------------------------------------

TEST(AdmitResult, SeverityOrderAndNames) {
  // worst_of is max over the declared severity order: accepted < shed <
  // deadline < shutdown.  Batch aggregation leans on this.
  const AdmitResult order[] = {
      AdmitResult::kAccepted, AdmitResult::kShedOverload,
      AdmitResult::kDeadlineExceeded, AdmitResult::kShutdown};
  for (const AdmitResult a : order)
    for (const AdmitResult b : order) {
      const AdmitResult w = worst_of(a, b);
      EXPECT_EQ(w, worst_of(b, a));  // symmetric
      EXPECT_TRUE(w == a || w == b);
      EXPECT_GE(static_cast<int>(w), static_cast<int>(a));
      EXPECT_GE(static_cast<int>(w), static_cast<int>(b));
    }
  EXPECT_EQ(worst_of(AdmitResult::kAccepted, AdmitResult::kAccepted),
            AdmitResult::kAccepted);
  EXPECT_EQ(worst_of(AdmitResult::kShedOverload, AdmitResult::kShutdown),
            AdmitResult::kShutdown);

  EXPECT_STREQ(to_string(AdmitResult::kAccepted), "accepted");
  EXPECT_STREQ(to_string(AdmitResult::kShedOverload), "shed_overload");
  EXPECT_STREQ(to_string(AdmitResult::kDeadlineExceeded), "deadline_exceeded");
  EXPECT_STREQ(to_string(AdmitResult::kShutdown), "shutdown");
}

// ---- ServeConfig ------------------------------------------------------------

TEST(ServeConfig, FluentSettersValidateEagerly) {
  EXPECT_THROW(ServeConfig{}.with_shards(0), std::invalid_argument);
  EXPECT_THROW(ServeConfig{}.with_workers(0), std::invalid_argument);
  EXPECT_THROW(ServeConfig{}.with_widths(0, 1), std::invalid_argument);
  EXPECT_THROW(ServeConfig{}.with_widths(3, 2), std::invalid_argument);
  EXPECT_THROW(ServeConfig{}.with_queue_capacity(1), std::invalid_argument);
  EXPECT_THROW(ServeConfig{}.with_park(0), std::invalid_argument);
  EXPECT_THROW(ServeConfig{}.with_admission(-1.0), std::invalid_argument);
  // The ring rounds its capacity up to a power of two, which overflows
  // past the largest one a size_t holds.
  constexpr std::size_t kTopPow2 = SIZE_MAX / 2 + 1;
  EXPECT_THROW(ServeConfig{}.with_queue_capacity(SIZE_MAX),
               std::invalid_argument);
  EXPECT_THROW(ServeConfig{}.with_queue_capacity(kTopPow2 + 1),
               std::invalid_argument);
  EXPECT_NO_THROW(ServeConfig{}.with_queue_capacity(kTopPow2));

  // Direct field assignment keeps working but hits the same gate at
  // validate() — the choke point every consumer runs at construction.
  ServeConfig bad;
  bad.min_width = 0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = ServeConfig{};
  bad.max_width = 0;  // < min_width
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = ServeConfig{};
  bad.park_grace_ns = 0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = ServeConfig{};
  bad.queue_capacity = SIZE_MAX;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad.queue_capacity = kTopPow2 + 1;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  // The pool runs the same gate before it spawns a worker.
  bad.pin_workers = false;
  EXPECT_THROW(WorkerPool<int>(Topology::simulated(1, 1), bad,
                               [](int, int, int*, std::size_t) {}),
               std::invalid_argument);

  const ServeConfig cfg = ServeConfig{}
                              .with_shards(4)
                              .with_widths(1, 3)
                              .with_queue_capacity(64)
                              .with_pin(false)
                              .with_dispatch(false)
                              .with_alloc(false)
                              .with_park(5'000)
                              .with_admission(1e6, 128);
  EXPECT_EQ(cfg.shards_per_node, 4u);
  EXPECT_EQ(cfg.min_width, 1);
  EXPECT_EQ(cfg.max_width, 3);
  EXPECT_EQ(cfg.queue_capacity, 64u);
  EXPECT_FALSE(cfg.pin_workers);
  EXPECT_FALSE(cfg.node_local_dispatch);
  EXPECT_FALSE(cfg.node_local_alloc);
  EXPECT_EQ(cfg.park_grace_ns, 5'000u);
  EXPECT_EQ(cfg.admit_rate, 1e6);
  EXPECT_NO_THROW(cfg.validate());
}

TEST(ServeConfig, EffectiveAdmitBurstDerivesTenMillisecondsOfRate) {
  // Explicit bucket wins.
  EXPECT_EQ(ServeConfig{}.with_admission(1e6, 128).effective_admit_burst(),
            128u);
  // Derived: 10ms of rate, floored at 64 so slow rates still batch.
  EXPECT_EQ(ServeConfig{}.with_admission(1'000.0).effective_admit_burst(),
            64u);  // 10 derived, floor wins
  EXPECT_EQ(ServeConfig{}.with_admission(1e6).effective_admit_burst(),
            10'000u);
  // A finite rate too large for the derived depth saturates at the
  // deepest bucket instead of reaching an out-of-range integer cast.
  EXPECT_EQ(ServeConfig{}.with_admission(1e300).effective_admit_burst(),
            serve::kMaxAdmitDepth);
}

TEST(ServeConfig, AdmissionRejectsNonFiniteRatesAndOversizedDepths) {
  // Infinity has no token arithmetic, NaN would compare as "off", and the
  // bucket counts tokens in an int64: a deeper bucket would wrap to a
  // negative cap that sheds every request.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(ServeConfig{}.with_admission(kInf), std::invalid_argument);
  EXPECT_THROW(ServeConfig{}.with_admission(-kInf), std::invalid_argument);
  EXPECT_THROW(ServeConfig{}.with_admission(kNaN), std::invalid_argument);
  EXPECT_THROW(ServeConfig{}.with_admission(1e6, SIZE_MAX),
               std::invalid_argument);
  EXPECT_THROW(ServeConfig{}.with_admission(1e6, serve::kMaxAdmitDepth + 1),
               std::invalid_argument);
  EXPECT_NO_THROW(ServeConfig{}.with_admission(1e6, serve::kMaxAdmitDepth));

  ServeConfig bad;
  bad.admit_rate = kInf;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad.admit_rate = kNaN;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = ServeConfig{};
  bad.admit_rate = 1e6;
  bad.admit_burst = serve::kMaxAdmitDepth + 1;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
}

// ---- WorkerPool elasticity --------------------------------------------------

// One item through the pool's only publish call; true when it published.
bool submit_one(WorkerPool<int>& pool, int node, int item) {
  return pool.submit_many(node, &item, 1) == 1;
}

TEST(WorkerPoolElasticity, WorkersParkAfterGraceAndSubmittersWakeThem) {
  const Topology topo = Topology::simulated(1, 4);
  const ServeConfig cfg = ServeConfig{}
                              .with_widths(1, 4)
                              .with_queue_capacity(128)
                              .with_pin(false)
                              .with_park(20'000);
  std::atomic<bool> gate{false};
  std::atomic<bool> wedged{false};
  std::atomic<int> executed{0};
  WorkerPool<int> pool(topo, cfg, [&](int, int, int* items, std::size_t n) {
    // A negative item wedges its worker until the gate opens, taking one
    // consumer out of play so the flood below must fan out.
    for (std::size_t i = 0; i < n; ++i)
      if (items[i] < 0) {
        wedged.store(true);
        spin_until<YieldSpin>([&] { return gate.load(); });
      }
    executed.fetch_add(static_cast<int>(n), std::memory_order_relaxed);
  });
  ASSERT_EQ(pool.workers_in_node(0), 4);
  ASSERT_EQ(pool.min_width(), 1);

  // With nothing submitted, the three elastic workers park after the grace
  // period; the committed floor keeps spinning.  A worker advertises itself
  // in parked() before its re-check and counts parks() after it, so wait
  // for both.
  spin_until<YieldSpin>([&] {
    return pool.parked(0) == 3 && pool.parks(0) >= 3;
  });
  EXPECT_GE(pool.parks(0), 3u);

  // Wedge the awake spinner, then flood: the published depth outruns the
  // awake width, so the submitter must bump the wake epoch for the queue to
  // drain at all.  The flood waits until the wedge item is running, so the
  // wedged claim holds that item alone (a claim takes up to kBurst queued
  // items).  The flood publishes in one call, so its one wake check sees
  // all 64 items queued, and a woken worker pops until the queue is empty
  // before it can park again.
  ASSERT_TRUE(submit_one(pool, 0, -1));
  spin_until<YieldSpin>([&] { return wedged.load(); });
  std::vector<int> flood;
  for (int i = 0; i < 64; ++i) flood.push_back(i);
  ASSERT_EQ(pool.submit_many(0, flood.data(), flood.size()), 64u);
  spin_until<YieldSpin>([&] {
    return executed.load(std::memory_order_relaxed) == 64;
  });
  EXPECT_GE(pool.wakes(0), 1u);

  gate.store(true);
  spin_until<YieldSpin>([&] {
    return executed.load(std::memory_order_relaxed) == 65;
  });
  pool.shutdown();
  EXPECT_EQ(pool.executed(0), 65u);
  EXPECT_EQ(pool.parked(0), 0);  // shutdown woke and joined everyone
}

TEST(WorkerPoolElasticity, FixedWidthPoolNeverParks) {
  // min_width == max_width: every worker is on the committed floor, so
  // none of them parks however long the queue stays empty.
  const Topology topo = Topology::simulated(1, 2);
  const ServeConfig cfg = ServeConfig{}
                              .with_widths(2, 2)
                              .with_pin(false)
                              .with_park(1'000);
  std::atomic<int> executed{0};
  WorkerPool<int> pool(topo, cfg, [&](int, int, int*, std::size_t n) {
    executed.fetch_add(static_cast<int>(n), std::memory_order_relaxed);
  });
  // Give idle workers many grace periods' worth of chances to park.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ASSERT_EQ(pool.workers_in_node(0), 2);
  EXPECT_EQ(pool.parked(0), 0);
  EXPECT_EQ(pool.parks(0), 0u);
  EXPECT_EQ(pool.wakes(0), 0u);
  for (int i = 0; i < 16; ++i)
    ASSERT_TRUE(submit_one(pool, 0, i));
  spin_until<YieldSpin>([&] {
    return executed.load(std::memory_order_relaxed) == 16;
  });
  pool.shutdown();
  EXPECT_EQ(pool.wakes(0), 0u);  // nobody parked, nobody to wake
}

// ---- KvServer admission -----------------------------------------------------

// A near-zero refill rate (1 token per ~17 minutes) makes the bucket a
// fixed budget for the duration of a test: exactly `bucket` ops admit, the
// rest shed, deterministically.
constexpr double kFrozenRate = 1e-3;

TEST(KvAdmission, TokenBucketShedsBeyondBurst) {
  const Topology topo = Topology::simulated(1, 2);
  KvServer<WriterPriorityLock> server(
      topo, ServeConfig{}.with_workers(1).with_pin(false).with_admission(
                kFrozenRate, 4));
  std::uint64_t key = 7;
  server.map().put(0, key, 70);  // direct preload: no tokens consumed

  for (int i = 0; i < 4; ++i) {
    Request r;
    r.kind = RequestKind::kGet;
    r.keys = &key;
    r.key_count = 1;
    ASSERT_EQ(server.submit(&r), AdmitResult::kAccepted);
    r.wait();
    EXPECT_EQ(r.submit_outcome(), AdmitResult::kAccepted);
    EXPECT_EQ(r.hits.load(), 1u);
  }

  // Bucket empty: the fifth op sheds — nothing enqueued, pending == 0, the
  // outcome mirrored into the request, and the node counter bumped.
  Request shed;
  shed.kind = RequestKind::kGet;
  shed.keys = &key;
  shed.key_count = 1;
  EXPECT_EQ(server.submit(&shed), AdmitResult::kShedOverload);
  EXPECT_EQ(shed.submit_outcome(), AdmitResult::kShedOverload);
  EXPECT_TRUE(shed.done());  // wait() would return immediately
  EXPECT_EQ(shed.hits.load(), 0u);
  EXPECT_EQ(server.node_stats(0).shed, 1u);

  // reset() clears the refusal for resubmission bookkeeping.
  shed.reset();
  EXPECT_EQ(shed.submit_outcome(), AdmitResult::kAccepted);
}

TEST(KvAdmission, BatchChargingIsPerKeyAndAllOrNothing) {
  const Topology topo = Topology::simulated(1, 2);
  KvServer<WriterPriorityLock> server(
      topo, ServeConfig{}.with_workers(1).with_pin(false).with_admission(
                kFrozenRate, 4));
  const std::vector<std::uint64_t> three{1, 2, 3};
  const std::vector<std::uint64_t> two{4, 5};
  const std::vector<std::uint64_t> one{6};

  const auto submit_keys = [&](const std::vector<std::uint64_t>& keys,
                               Request& r) {
    r.kind = RequestKind::kGetBatch;
    r.keys = keys.data();
    r.key_count = static_cast<std::uint32_t>(keys.size());
    const AdmitResult adm = server.submit(&r);
    r.wait();
    return adm;
  };

  Request a, b, c, d;
  EXPECT_EQ(submit_keys(three, a), AdmitResult::kAccepted);  // 3 of 4 tokens
  // 2 > the 1 remaining: refused whole, nothing charged (all-or-nothing).
  EXPECT_EQ(submit_keys(two, b), AdmitResult::kShedOverload);
  // The surviving token still admits a 1-key batch — proof the refusal
  // above did not partially drain the bucket.
  EXPECT_EQ(submit_keys(one, c), AdmitResult::kAccepted);
  EXPECT_EQ(submit_keys(one, d), AdmitResult::kShedOverload);
  EXPECT_EQ(server.node_stats(0).shed, 2u);
}

TEST(KvAdmission, SubmitManyMirrorsPerRequestOutcomesAndReturnsWorst) {
  const Topology topo = Topology::simulated(1, 2);
  KvServer<WriterPriorityLock> server(
      topo, ServeConfig{}.with_workers(1).with_pin(false).with_admission(
                kFrozenRate, 2));
  std::uint64_t key = 11;
  Request r[3];
  Request* reqs[3];
  for (int i = 0; i < 3; ++i) {
    r[i].kind = RequestKind::kGet;
    r[i].keys = &key;
    r[i].key_count = 1;
    reqs[i] = &r[i];
  }
  // 2 tokens: the first two admit, the third sheds; the batch reports the
  // worst outcome while the accepted prefix still executes.
  EXPECT_EQ(server.submit_many(reqs, 3), AdmitResult::kShedOverload);
  EXPECT_EQ(r[0].submit_outcome(), AdmitResult::kAccepted);
  EXPECT_EQ(r[1].submit_outcome(), AdmitResult::kAccepted);
  EXPECT_EQ(r[2].submit_outcome(), AdmitResult::kShedOverload);
  for (int i = 0; i < 3; ++i)
    r[i].wait();  // refused requests return immediately (pending == 0)
  EXPECT_EQ(server.node_stats(0).shed, 1u);
}

TEST(KvAdmission, HighRateRefillKeepsAdmitting) {
  // The inverse arm: with a generous rate the lazy refill credits tokens
  // faster than a synchronous caller can spend them, so nothing ever sheds
  // even far past the bucket depth.
  const Topology topo = Topology::simulated(1, 2);
  KvServer<WriterPriorityLock> server(
      topo, ServeConfig{}.with_workers(1).with_pin(false).with_admission(
                1e9, 8));
  std::uint64_t key = 3;
  for (int i = 0; i < 200; ++i) {
    Request r;
    r.kind = RequestKind::kGet;
    r.keys = &key;
    r.key_count = 1;
    ASSERT_EQ(server.submit(&r), AdmitResult::kAccepted) << "op " << i;
    r.wait();
  }
  EXPECT_EQ(server.node_stats(0).shed, 0u);
}

TEST(KvAdmission, HugeFiniteRateAndDeepestBucketStillRefill) {
  // Any elapsed time times a 1e300 rate owes far more tokens than an int64
  // holds: the refill must clamp to the bucket depth before the integer
  // cast (out of range it is undefined, and on x86 reads as a negative
  // credit that never refills).  The deepest bucket also must not overflow
  // the token sum when a full credit lands on a nearly full bucket.
  for (const std::size_t depth : {std::size_t{2}, serve::kMaxAdmitDepth}) {
    const Topology topo = Topology::simulated(1, 2);
    KvServer<WriterPriorityLock> server(
        topo, ServeConfig{}.with_workers(1).with_pin(false).with_admission(
                  1e300, depth));
    std::uint64_t key = 3;
    for (int i = 0; i < 20; ++i) {
      Request r;
      r.kind = RequestKind::kGet;
      r.keys = &key;
      r.key_count = 1;
      ASSERT_EQ(server.submit(&r), AdmitResult::kAccepted)
          << "depth " << depth << " op " << i;
      r.wait();
      std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
    EXPECT_EQ(server.node_stats(0).shed, 0u);
  }
}

TEST(KvAdmission, FullQueueBlocksThePublisherInsteadOfRefusing) {
  // The bucket is the only refusal: a full ring makes the submitter yield
  // (counted in backpressure) until a cell frees.  Deterministic
  // choreography: write-lock BOTH shards of the only node so the single
  // worker blocks inside its first request's read section, then fill the
  // capacity-2 ring behind it.  The bucket is deep enough that any shed
  // would be a bug.
  const Topology topo = Topology::simulated(1, 2);  // worker tid 0, ours 1
  KvServer<WriterPriorityLock> server(topo, ServeConfig{}
                                                .with_shards(2)
                                                .with_workers(1)
                                                .with_pin(false)
                                                .with_queue_capacity(2)
                                                .with_admission(kFrozenRate,
                                                                1'000));
  for (std::uint64_t k = 0; k < 16; ++k) server.map().put(0, k, 100 + k);

  auto& sub = server.map().sub_map(0);
  constexpr int kOurTid = 1;  // the worker owns pool tid 0
  sub.shard_lock(0).write_lock(kOurTid);
  sub.shard_lock(1).write_lock(kOurTid);

  std::uint64_t keys[4] = {5, 6, 7, 8};
  Request r[4];  // A, B, C, D
  for (int i = 0; i < 4; ++i) {
    r[i].kind = RequestKind::kGet;
    r[i].keys = &keys[i];
    r[i].key_count = 1;
  }

  // A admits; the worker claims it and blocks in the shard's read_lock
  // (writer-priority: readers wait behind us).
  ASSERT_EQ(server.submit(&r[0]), AdmitResult::kAccepted);
  spin_until<YieldSpin>([&] { return server.queue_depth(0) == 0; });
  // B and C fill the ring behind the wedged worker.
  ASSERT_EQ(server.submit(&r[1]), AdmitResult::kAccepted);
  ASSERT_EQ(server.submit(&r[2]), AdmitResult::kAccepted);
  ASSERT_EQ(server.queue_depth(0), 2u);

  // D finds no free cell: its submit must keep yielding, not return.
  const std::uint64_t bp0 = server.node_stats(0).backpressure;
  std::atomic<bool> d_returned{false};
  AdmitResult rd = AdmitResult::kShutdown;
  std::thread helper([&] {
    rd = server.submit(&r[3]);
    d_returned.store(true);
  });
  spin_until<YieldSpin>(
      [&] { return server.node_stats(0).backpressure >= bp0 + 8; });
  EXPECT_FALSE(d_returned.load());
  EXPECT_EQ(server.queue_depth(0), 2u);

  sub.shard_lock(1).write_unlock(kOurTid);
  sub.shard_lock(0).write_unlock(kOurTid);
  helper.join();
  EXPECT_EQ(rd, AdmitResult::kAccepted);
  for (int i = 0; i < 4; ++i) {
    r[i].wait();
    EXPECT_EQ(r[i].submit_outcome(), AdmitResult::kAccepted) << "req " << i;
    EXPECT_EQ(r[i].hits.load(), 1u) << "req " << i;
  }
  EXPECT_EQ(server.node_stats(0).shed, 0u);
}

TEST(KvAdmission, NodeStatsExposeElasticityCounters) {
  const Topology topo = Topology::simulated(1, 2);
  KvServer<WriterPriorityLock> server(
      topo, ServeConfig{}
                .with_widths(1, 2)
                .with_pin(false)
                .with_park(10'000));
  // The elastic second worker parks once the grace period lapses with no
  // traffic, and the park shows up in the stats surface the examples print
  // (parked is advertised before the pre-wait re-check, parks counted
  // after it, so wait for both).
  spin_until<YieldSpin>([&] {
    const serve::NodeServeStats s = server.node_stats(0);
    return s.parked == 1 && s.parks >= 1;
  });
  EXPECT_GE(server.node_stats(0).parks, 1u);
  server.put(1, 2);
  EXPECT_EQ(server.get(1), std::optional<std::uint64_t>(2));
  server.shutdown();
  EXPECT_EQ(server.node_stats(0).parked, 0);
}

}  // namespace
}  // namespace bjrw
