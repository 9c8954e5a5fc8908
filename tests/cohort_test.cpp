// Tier-1 suite for the topology layer (src/harness/topology.hpp) and the
// cohort transform (src/core/cohort.hpp):
//  * Topology — spec parsing, tid→node/lane mapping, detection fallbacks;
//  * CohortLock — mutual exclusion at n = 2/4/8 on a simulated 2-node
//    topology, regime fairness (WP1 through the transform, starvation
//    freedom under a reader flood), deterministic handoff/batch accounting,
//    reader preemption cutting a batch short (and never a later one), and
//    the flat per-attempt reader-RMR ceiling on the instrumented CC
//    model (the same contract rmr_regression_test pins for the paper locks).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <thread>

#include "src/core/locks.hpp"
#include "src/harness/thread_coord.hpp"
#include "src/harness/topology.hpp"
#include "src/rmr/measure.hpp"

namespace bjrw {
namespace {

// ---- Topology ---------------------------------------------------------------

TEST(Topology, SimulatedShapeAndTidMapping) {
  const Topology t = Topology::simulated(2, 4);
  EXPECT_EQ(t.node_count(), 2);
  EXPECT_EQ(t.cpu_count(), 8);
  EXPECT_EQ(t.cpus_in_node(0), 4);
  EXPECT_EQ(t.max_cpus_per_node(), 4);
  EXPECT_EQ(t.source(), "simulated");
  EXPECT_EQ(t.describe(), "2x4");

  // Block CPU numbering: tids 0..3 land on node 0, 4..7 on node 1, and the
  // mapping wraps for tids beyond the CPU count.
  for (int tid = 0; tid < 4; ++tid) EXPECT_EQ(t.node_of_tid(tid), 0);
  for (int tid = 4; tid < 8; ++tid) EXPECT_EQ(t.node_of_tid(tid), 1);
  EXPECT_EQ(t.node_of_tid(8), 0);
  EXPECT_EQ(t.lane_of_tid(0), 0);
  EXPECT_EQ(t.lane_of_tid(3), 3);
  EXPECT_EQ(t.lane_of_tid(5), 1);  // cpu 5 is node 1's second cpu
  EXPECT_EQ(t.lane_of_tid(9), 1);  // wraps to cpu 1
}

TEST(Topology, SpecParsingAcceptsWellFormedRejectsMalformed) {
  ASSERT_TRUE(Topology::from_spec("2x4").has_value());
  EXPECT_EQ(Topology::from_spec("2x4")->node_count(), 2);
  EXPECT_EQ(Topology::from_spec("2x4")->source(), "env");
  ASSERT_TRUE(Topology::from_spec("1X8").has_value());
  EXPECT_EQ(Topology::from_spec("1X8")->cpu_count(), 8);

  EXPECT_FALSE(Topology::from_spec("").has_value());
  EXPECT_FALSE(Topology::from_spec("2x").has_value());
  EXPECT_FALSE(Topology::from_spec("x4").has_value());
  EXPECT_FALSE(Topology::from_spec("0x4").has_value());
  EXPECT_FALSE(Topology::from_spec("-2x4").has_value());
  EXPECT_FALSE(Topology::from_spec("2x4x8").has_value());
  EXPECT_FALSE(Topology::from_spec("fast").has_value());
  EXPECT_FALSE(Topology::from_spec("2 x 4").has_value());
}

TEST(Topology, EnvOverrideWinsAndMalformedEnvFallsThrough) {
  ASSERT_EQ(setenv("BJRW_TOPOLOGY", "4x2", 1), 0);
  const Topology forced = Topology::detect();
  EXPECT_EQ(forced.node_count(), 4);
  EXPECT_EQ(forced.source(), "env");

  ASSERT_EQ(setenv("BJRW_TOPOLOGY", "garbage", 1), 0);
  const Topology fallback = Topology::detect();
  EXPECT_GE(fallback.node_count(), 1);
  EXPECT_NE(fallback.source(), "env");  // sysfs or flat, never the bad spec

  ASSERT_EQ(unsetenv("BJRW_TOPOLOGY"), 0);
}

TEST(Topology, DetectionAlwaysYieldsAUsableShape) {
  const Topology t = Topology::detect();
  EXPECT_GE(t.node_count(), 1);
  EXPECT_GE(t.cpu_count(), 1);
  for (int tid = 0; tid < 64; ++tid) {
    EXPECT_GE(t.node_of_tid(tid), 0);
    EXPECT_LT(t.node_of_tid(tid), t.node_count());
    EXPECT_GE(t.lane_of_tid(tid), 0);
    EXPECT_LT(t.lane_of_tid(tid), t.cpus_in_node(t.node_of_tid(tid)));
  }
}

TEST(Topology, PinningEitherSucceedsOrFailsGracefully) {
  // A 1xN simulated topology maps every tid to cpu ids that exist on any
  // host with >= 1 cpu for tid 0; wider simulated shapes may name cpus the
  // host lacks.  The contract is bool-not-crash either way.
  const Topology real = Topology::detect();
  (void)real.pin_this_thread(0);
  const Topology wide = Topology::simulated(64, 64);
  (void)wide.pin_this_thread(64 * 64 - 1);
  SUCCEED();
}

// ---- CohortLock: structure ---------------------------------------------------

TEST(CohortLock, ShapeObserversReflectTopologyAndBudget) {
  CohortStarvationFreeLock l(8, Topology::simulated(2, 4), /*budget=*/3);
  EXPECT_EQ(l.node_count(), 2);
  EXPECT_EQ(l.slots_per_node(), 4);
  EXPECT_EQ(l.handoff_budget(), 3);
  EXPECT_EQ(l.topology().describe(), "2x4");
  EXPECT_EQ(l.handoffs(), 0u);
  EXPECT_EQ(l.global_acquires(), 0u);

  // Slot cap: a huge simulated node is clamped; max_threads clamps too.
  CohortStarvationFreeLock big(2, Topology::simulated(1, 64));
  EXPECT_EQ(big.slots_per_node(), 2);  // min(64, cap 16, max_threads 2)
}

TEST(CohortLock, SingleThreadFullInterfaceOnMultiNodeTopology) {
  CohortWriterPriorityLock l(4, Topology::simulated(4, 2));
  for (int round = 0; round < 3; ++round) {
    l.read_lock(0);
    l.read_unlock(0);
    l.write_lock(0);
    l.write_unlock(0);
  }
  // No successor ever waited, so every CS was a fresh global acquisition.
  EXPECT_EQ(l.handoffs(), 0u);
  EXPECT_EQ(l.global_acquires(), 3u);
}

// ---- CohortLock: mutual exclusion -------------------------------------------

// Writers maintain a two-word invariant readers verify — any exclusion
// bug (fast-path reader overlapping a batch writer, handoff admitting two
// writers, ...) shows up as a torn read or a lost update.
template <class Lock>
void exclusion_trial(int threads) {
  Lock l(threads, Topology::simulated(2, 4));
  struct {
    std::uint64_t a = 0, b = 0;  // invariant: b == 3 * a
  } data;
  std::atomic<std::uint64_t> torn{0};
  std::atomic<std::uint64_t> writes{0};
  run_threads(static_cast<std::size_t>(threads), [&](std::size_t t) {
    const int tid = static_cast<int>(t);
    for (int i = 0; i < 400; ++i) {
      if (i % 4 == 0) {
        l.write_lock(tid);
        data.a += 1;
        std::this_thread::yield();
        data.b = 3 * data.a;
        writes.fetch_add(1);
        l.write_unlock(tid);
      } else {
        l.read_lock(tid);
        const auto a = data.a, b = data.b;
        if (b != 3 * a) torn.fetch_add(1);
        l.read_unlock(tid);
      }
    }
  });
  EXPECT_EQ(torn.load(), 0u) << "torn read at n=" << threads;
  EXPECT_EQ(data.a, writes.load()) << "lost update at n=" << threads;
}

TEST(CohortLock, MutualExclusionOnTwoNodeTopology) {
  for (const int n : {2, 4, 8}) {
    exclusion_trial<CohortStarvationFreeLock>(n);
    exclusion_trial<CohortWriterPriorityLock>(n);
  }
  exclusion_trial<CohortReaderPriorityLock>(8);
}

// ---- CohortLock: handoff accounting -----------------------------------------

TEST(CohortLock, DeterministicSingleHandoffBetweenNodeMates) {
  // tids 0 and 1 share node 0 in 2x4.  Writer 1 enqueues only once writer 0
  // provably holds the CS, and writer 0 releases only once writer 1 is
  // provably queued (writers_queued is exact here: node 0's queue can only
  // contain these two) — so the release must hand off within the node.
  CohortStarvationFreeLock l(4, Topology::simulated(2, 4));
  std::atomic<bool> holding{false};
  run_threads(2, [&](std::size_t t) {
    if (t == 0) {
      l.write_lock(0);
      holding.store(true);
      spin_until<YieldSpin>([&] { return l.writers_queued(0) == 2; });
      l.write_unlock(0);  // successor queued: this must be a handoff
    } else {
      spin_until<YieldSpin>([&] { return holding.load(); });
      l.write_lock(1);
      l.write_unlock(1);  // queue empty now: releases the global lock
    }
  });
  EXPECT_EQ(l.handoffs(), 1u);
  EXPECT_EQ(l.global_acquires(), 1u);
}

TEST(CohortLock, BudgetBoundsBatchesAndAccountingBalances) {
  // Two node-mates hammer writes.  Every CS either inherited or acquired
  // fresh (the counters partition the CS count), and a batch never exceeds
  // budget+1 CSes, so fresh acquisitions have a hard floor.
  constexpr int kBudget = 2;
  constexpr int kEach = 30;
  CohortStarvationFreeLock l(4, Topology::simulated(2, 4), kBudget);
  run_threads(2, [&](std::size_t t) {
    for (int i = 0; i < kEach; ++i) {
      l.write_lock(static_cast<int>(t));
      l.write_unlock(static_cast<int>(t));
    }
  });
  const std::uint64_t total = 2 * kEach;
  EXPECT_EQ(l.handoffs() + l.global_acquires(), total);
  EXPECT_GE(l.global_acquires(), total / (kBudget + 1));
}

TEST(CohortLock, ZeroBudgetDisablesHandoff) {
  CohortStarvationFreeLock l(4, Topology::simulated(2, 4), /*budget=*/0);
  run_threads(2, [&](std::size_t t) {
    for (int i = 0; i < 20; ++i) {
      l.write_lock(static_cast<int>(t));
      l.write_unlock(static_cast<int>(t));
    }
  });
  EXPECT_EQ(l.handoffs(), 0u);
  EXPECT_EQ(l.global_acquires(), 40u);
}

// ---- CohortLock: reader preemption -----------------------------------------

TEST(CohortLock, ReaderPreemptionEndsBatchAndCountsAbort) {
  // tids 0/1 share node 0 of 2x4; tid 2 is a reader on the same node.
  // Writer 0 holds the CS, writer 1 queues behind it, and the reader
  // arrives (gate up -> diverts into the wrapped lock, raising the
  // advisory flag).  Writer 0's release must then end the batch although
  // the budget of 8 allows a handoff: no handoff, one preempt abort.
  CohortStarvationFreeLock l(4, Topology::simulated(2, 4), /*budget=*/8);
  std::atomic<bool> holding{false};
  run_threads(3, [&](std::size_t t) {
    if (t == 0) {
      l.write_lock(0);
      holding.store(true);
      // Release only once both the successor writer and the diverted
      // reader are *provably* visible (only this unlock consumes the
      // advisory flag, so the spin is deterministic, not a grace window).
      spin_until<YieldSpin>([&] { return l.writers_queued(0) == 2; });
      spin_until<YieldSpin>([&] { return l.reader_waiting(); });
      l.write_unlock(0);
    } else if (t == 1) {
      spin_until<YieldSpin>([&] { return holding.load(); });
      l.write_lock(1);
      l.write_unlock(1);
    } else {
      spin_until<YieldSpin>([&] { return holding.load(); });
      l.read_lock(2);
      l.read_unlock(2);
    }
  });
  EXPECT_EQ(l.preempt_aborts(), 1u);
  EXPECT_EQ(l.handoffs(), 0u);
  EXPECT_EQ(l.global_acquires(), 2u);
}

TEST(CohortLock, StaleReaderFlagDoesNotPhantomPreemptTheNextBatch) {
  // A batch that ends *exhausted* while a diverted reader waits must not
  // leave the advisory flag armed: the release admits that reader, and a
  // carried-over flag would be mis-attributed as a fresh preemption by
  // the next batch's first release (a phantom abort that cuts it short).
  // Choreography on node 0 of 2x4 (tids 0..3), reader on node 1 (tid 4),
  // budget 1:
  //   w0 -> w1 handoff (batch = budget), reader raises the flag during
  //   w1's hold, w1's release ends the batch EXHAUSTED (flag must be
  //   cleared); then w2 -> w3 must be a clean handoff — not a phantom
  //   preempt abort.
  CohortStarvationFreeLock l(5, Topology::simulated(2, 4), /*budget=*/1);
  std::atomic<bool> h0{false}, h1{false}, h2{false};
  run_threads(5, [&](std::size_t t) {
    switch (t) {
      case 0:
        l.write_lock(0);
        h0.store(true);
        spin_until<YieldSpin>([&] { return l.writers_queued(0) == 2; });
        l.write_unlock(0);  // handoff to w1: batch reaches the budget
        break;
      case 1:
        spin_until<YieldSpin>([&] { return h0.load(); });
        l.write_lock(1);
        h1.store(true);
        spin_until<YieldSpin>([&] {
          return l.reader_waiting() && l.writers_queued(0) == 2;
        });
        l.write_unlock(1);  // exhausted end with the flag raised
        break;
      case 2:
        spin_until<YieldSpin>([&] { return h1.load(); });
        l.write_lock(2);
        h2.store(true);
        spin_until<YieldSpin>([&] { return l.writers_queued(0) == 2; });
        l.write_unlock(2);  // must hand off to w3, not phantom-preempt
        break;
      case 3:
        spin_until<YieldSpin>([&] { return h2.load(); });
        l.write_lock(3);
        l.write_unlock(3);
        break;
      default:  // reader: diverts during w1's hold, raising the flag
        spin_until<YieldSpin>([&] { return h1.load(); });
        l.read_lock(4);
        l.read_unlock(4);
        break;
    }
  });
  EXPECT_EQ(l.preempt_aborts(), 0u) << "stale flag phantom-preempted";
  EXPECT_EQ(l.handoffs(), 2u);         // w0->w1 and w2->w3
  EXPECT_EQ(l.global_acquires(), 2u);  // w0 and w2 leaders only
}

TEST(CohortLock, PreemptAbortsStartAtZeroAndBudgetIsConstant) {
  CohortStarvationFreeLock l(4, Topology::simulated(2, 4), /*budget=*/8);
  EXPECT_EQ(l.handoff_budget(), 8);
  EXPECT_EQ(l.preempt_aborts(), 0u);
  l.write_lock(0);
  l.write_unlock(0);
  EXPECT_EQ(l.handoff_budget(), 8);
}

// ---- CohortLock: regime fairness --------------------------------------------

// WP1 through the cohort transform: with a writer in the CS and a second
// writer waiting, a reader arriving afterwards must not overtake the
// waiting writer (it diverts into the wrapped writer-priority lock, which
// orders it behind).  tids 0/1/2 all live on node 0 of 2x4, so this also
// exercises the handoff path: writer 1 inherits writer 0's batch.
TEST(CohortLock, WriterPriorityBlocksLateReadersThroughTransform) {
  for (int round = 0; round < 10; ++round) {
    CohortWriterPriorityLock l(3, Topology::simulated(2, 4));
    std::atomic<int> phase{0};
    std::atomic<bool> reader_in{false};
    run_threads(3, [&](std::size_t tid) {
      if (tid == 0) {
        l.write_lock(0);
        phase.store(1);
        spin_until<YieldSpin>([&] { return phase.load() == 2; });
        // Release only once writer 1 is *provably* queued (both node-0
        // writers visible in the ticket window), so the handoff/WP1 path
        // under test is guaranteed regardless of scheduling.
        spin_until<YieldSpin>([&] { return l.writers_queued(0) == 2; });
        for (int i = 0; i < 300; ++i) std::this_thread::yield();
        l.write_unlock(0);
      } else if (tid == 1) {
        spin_until<YieldSpin>([&] { return phase.load() == 1; });
        phase.store(2);
        l.write_lock(1);
        EXPECT_FALSE(reader_in.load())
            << "WP1 violated through the cohort transform in round " << round;
        l.write_unlock(1);
      } else {
        spin_until<YieldSpin>([&] { return phase.load() == 2; });
        for (int i = 0; i < 100; ++i) std::this_thread::yield();
        l.read_lock(2);
        reader_in.store(true);
        l.read_unlock(2);
      }
    });
    EXPECT_TRUE(reader_in.load());
  }
}

// RP1 through the cohort transform: while a cohort leader is parked in its
// slot sweep behind a pinned fast-path reader, late readers divert to the
// wrapped reader-priority lock — which is free — and must flow past it.
TEST(CohortLock, ReaderPriorityAdmitsReadersPastSweepingWriter) {
  CohortReaderPriorityLock l(4, Topology::simulated(2, 4));
  std::atomic<int> phase{0};
  std::atomic<bool> writer_in{false};
  std::atomic<std::uint64_t> reads_while_writer_waiting{0};
  run_threads(4, [&](std::size_t tid) {
    if (tid == 0) {  // pinning reader: fast path (no writer about yet)
      l.read_lock(0);
      phase.store(1);
      spin_until<YieldSpin>([&] { return phase.load() == 2; });
      spin_until<YieldSpin>(
          [&] { return reads_while_writer_waiting.load() >= 2; });
      EXPECT_FALSE(writer_in.load());
      l.read_unlock(0);
    } else if (tid == 1) {  // writer: parks in the sweep on tid 0's slot
      spin_until<YieldSpin>([&] { return phase.load() == 1; });
      phase.store(2);
      l.write_lock(1);
      writer_in.store(true);
      l.write_unlock(1);
    } else {  // late readers: node gate is up, so they take the slow path
      spin_until<YieldSpin>([&] { return phase.load() == 2; });
      for (int i = 0; i < 150; ++i) std::this_thread::yield();
      l.read_lock(static_cast<int>(tid));
      reads_while_writer_waiting.fetch_add(1);
      l.read_unlock(static_cast<int>(tid));
    }
  });
  EXPECT_TRUE(writer_in.load());
  EXPECT_GE(reads_while_writer_waiting.load(), 2u);
}

// P7 through the cohort transform: the node-gate check precedes the slot
// touch, so a churning reader flood cannot keep a leader's sweep alive and
// the writer's 50 turns must complete.
TEST(CohortLock, StarvationFreeWriterSurvivesReaderFlood) {
  CohortStarvationFreeLock l(5, Topology::simulated(2, 4));
  std::atomic<bool> writer_done{false};
  std::atomic<std::uint64_t> reads{0};
  run_threads(5, [&](std::size_t tid) {
    if (tid == 0) {
      for (int i = 0; i < 50; ++i) {
        l.write_lock(0);
        l.write_unlock(0);
      }
      writer_done.store(true);
    } else {
      for (int i = 0; i < 20 || !writer_done.load(); ++i) {
        l.read_lock(static_cast<int>(tid));
        reads.fetch_add(1);
        l.read_unlock(static_cast<int>(tid));
      }
    }
  });
  EXPECT_TRUE(writer_done.load());
  EXPECT_GE(reads.load(), 80u);
}

// ---- CohortLock: RMR ceilings (instrumented CC model) -----------------------

using P = InstrumentedProvider;
using S = YieldSpin;

// Simulated 2-node instrumented variants constructible as Lock(n) — the
// shape measure_rmr needs.
struct Sim2CohortSf : CohortMwStarvationFreeLock<P, S> {
  explicit Sim2CohortSf(int n)
      : CohortMwStarvationFreeLock<P, S>(n, Topology::simulated(2, 4)) {}
};
struct Sim2CohortWp : CohortMwWriterPrefLock<P, S> {
  explicit Sim2CohortWp(int n)
      : CohortMwWriterPrefLock<P, S>(n, Topology::simulated(2, 4)) {}
};

// Same flat ceiling rmr_regression_test pins for the paper locks: the
// cohort read path must stay under one constant bound at every scale —
// fast attempts touch two node-local lines, diverted attempts inherit the
// wrapped lock's O(1).
constexpr std::uint64_t kFlatCeiling = 40;

TEST(CohortRmr, ReaderStaysUnderFlatCeilingOnTwoNodeTopology) {
  for (const int n : {2, 4, 8}) {
    const int writers = n < 4 ? 1 : 2;
    const auto sf = rmr::measure_rmr<Sim2CohortSf>(n - writers, writers, 40);
    EXPECT_LE(sf.reader_max, kFlatCeiling)
        << "cohort-sf read path escaped the flat ceiling at n=" << n;
    const auto wp = rmr::measure_rmr<Sim2CohortWp>(n - writers, writers, 40);
    EXPECT_LE(wp.reader_max, kFlatCeiling)
        << "cohort-wp read path escaped the flat ceiling at n=" << n;
  }
}

TEST(CohortRmr, FastPathIsLocalWhenWritersQuiescent) {
  // Readers only: every attempt is fast-path.  After the cold first attempt
  // (slot line + node gate line) an attempt touches only lines the thread
  // already owns, so the steady-state mean sits near zero.
  for (const int n : {2, 4, 8}) {
    const auto r = rmr::measure_rmr<Sim2CohortWp>(/*readers=*/n,
                                                  /*writers=*/0, 40);
    EXPECT_LE(r.reader_max, 8u)
        << "cold fast-path attempt grew a footprint at n=" << n;
    EXPECT_LE(r.reader_mean, 1.0)
        << "steady-state fast path stopped being node-local at n=" << n;
  }
}

}  // namespace
}  // namespace bjrw
