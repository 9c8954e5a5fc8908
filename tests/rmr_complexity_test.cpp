// Empirical verification of the paper's headline claim (Theorems 1, 2, 5):
// the worst-case number of RMRs a process incurs to enter and exit the CS
// once is a constant, independent of the number of processes — measured on
// the instrumented CC cache model (DESIGN.md §4).
//
// Strategy: run real threads over the instrumented locks, record RMRs per
// completed attempt per thread, and assert the *maximum* is bounded by a
// small constant that does not grow when the thread count quadruples.
// Baseline contrast: the big-reader lock's writer attempt must grow
// linearly with the reader count.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "src/baseline/big_reader.hpp"
#include "src/mutex/mcs.hpp"
#include "src/mutex/ticket.hpp"
#include "src/core/mw_transform.hpp"
#include "src/core/mw_writer_pref.hpp"
#include "src/core/sw_reader_pref.hpp"
#include "src/core/sw_writer_pref.hpp"
#include "src/harness/thread_coord.hpp"
#include "src/rmr/cache_directory.hpp"

namespace bjrw {
namespace {

using rmr::CacheDirectory;
using rmr::RmrProbe;

struct RmrRun {
  std::uint64_t max_reader_rmr = 0;
  std::uint64_t max_writer_rmr = 0;
};

// Runs `readers` reader threads (iters attempts each) plus `writers` writer
// threads, all instrumented, and returns the worst per-attempt RMR charge.
template <class Lock>
RmrRun measure_rmr(int readers, int writers, int iters) {
  const int n = readers + writers;
  CacheDirectory::instance().flush_caches();
  CacheDirectory::instance().reset_counters();
  Lock lock(n);
  std::vector<std::uint64_t> worst(static_cast<std::size_t>(n), 0);

  run_threads(static_cast<std::size_t>(n), [&](std::size_t t) {
    const int tid = static_cast<int>(t);
    rmr::ScopedTid scoped(tid);
    const bool is_writer = tid < writers;
    RmrProbe probe(tid);
    for (int i = 0; i < iters; ++i) {
      probe.rebase();
      if (is_writer) {
        lock.write_lock(tid);
        lock.write_unlock(tid);
      } else {
        lock.read_lock(tid);
        lock.read_unlock(tid);
      }
      worst[t] = std::max(worst[t], probe.sample());
    }
  });

  RmrRun r;
  for (int t = 0; t < n; ++t) {
    if (t < writers)
      r.max_writer_rmr = std::max(r.max_writer_rmr, worst[idx(t)]);
    else
      r.max_reader_rmr = std::max(r.max_reader_rmr, worst[idx(t)]);
  }
  return r;
}

// A "constant" bound for these algorithms: each attempt touches a fixed set
// of shared variables a fixed number of times, plus at most one extra miss
// per spin location per wake-up.  The paper's O(1) constants are small; we
// allow generous headroom (the bound must merely not scale with n).
constexpr std::uint64_t kConstBound = 40;

using InstSwwp = SwWriterPrefLock<InstrumentedProvider, YieldSpin>;
using InstSwrp = SwReaderPrefLock<InstrumentedProvider, YieldSpin>;
using InstMwsf = MwStarvationFreeLock<InstrumentedProvider, YieldSpin>;
using InstMwrp = MwReaderPrefLock<InstrumentedProvider, YieldSpin>;
using InstMwwp = MwWriterPrefLock<InstrumentedProvider, YieldSpin>;
using InstBrl = BigReaderLock<InstrumentedProvider, YieldSpin>;

TEST(RmrComplexity, Fig1ReaderAndWriterAreConstantAcrossScales) {
  const auto r4 = measure_rmr<InstSwwp>(/*readers=*/4, /*writers=*/1, 40);
  const auto r16 = measure_rmr<InstSwwp>(/*readers=*/16, /*writers=*/1, 40);
  EXPECT_LE(r4.max_reader_rmr, kConstBound);
  EXPECT_LE(r16.max_reader_rmr, kConstBound);
  EXPECT_LE(r4.max_writer_rmr, kConstBound);
  EXPECT_LE(r16.max_writer_rmr, kConstBound);
}

TEST(RmrComplexity, Fig2ReaderAndWriterAreConstantAcrossScales) {
  const auto r4 = measure_rmr<InstSwrp>(4, 1, 40);
  const auto r16 = measure_rmr<InstSwrp>(16, 1, 40);
  EXPECT_LE(r4.max_reader_rmr, kConstBound);
  EXPECT_LE(r16.max_reader_rmr, kConstBound);
  EXPECT_LE(r4.max_writer_rmr, kConstBound);
  EXPECT_LE(r16.max_writer_rmr, kConstBound);
}

TEST(RmrComplexity, Theorem3MultiWriterLockIsConstant) {
  const auto r = measure_rmr<InstMwsf>(8, 3, 30);
  EXPECT_LE(r.max_reader_rmr, kConstBound);
  EXPECT_LE(r.max_writer_rmr, kConstBound);
}

TEST(RmrComplexity, Theorem4MultiWriterReaderPrefIsConstant) {
  const auto r = measure_rmr<InstMwrp>(8, 3, 30);
  EXPECT_LE(r.max_reader_rmr, kConstBound);
  EXPECT_LE(r.max_writer_rmr, kConstBound);
}

TEST(RmrComplexity, Theorem5Figure4IsConstant) {
  const auto r = measure_rmr<InstMwwp>(8, 3, 30);
  EXPECT_LE(r.max_reader_rmr, kConstBound);
  EXPECT_LE(r.max_writer_rmr, kConstBound);
}

TEST(RmrComplexity, SoloAttemptCostsAreTinyAndExact) {
  // With one thread and warm caches, a full read attempt on Figure 1
  // re-touches only lines it owns, so the steady-state charge must be zero
  // extra RMRs after the first attempt — the strongest form of "local spin".
  CacheDirectory::instance().flush_caches();
  CacheDirectory::instance().reset_counters();
  InstSwwp lock(1);
  rmr::ScopedTid scoped(0);
  lock.read_lock(0);
  lock.read_unlock(0);  // warm-up
  RmrProbe probe(0);
  for (int i = 0; i < 10; ++i) {
    lock.read_lock(0);
    lock.read_unlock(0);
  }
  EXPECT_EQ(probe.sample(), 0u)
      << "a solo reader with warm cache must incur zero RMRs";
}

TEST(RmrComplexity, McsIsConstantOnDsmWhileTicketIsNot) {
  // The paper's §1 framing: MCS is O(1) RMR on DSM too ([4]); centralized
  // spins are not.  Two threads hand the lock back and forth under a fixed
  // choreography, so no charge depends on how the host schedules them: the
  // holder releases only once its peer is waiting and the peer's own RMR
  // counter (read from the directory, itself uninstrumented) has risen by
  // `rise` since the peer's attempt began.  An MCS waiter pays its enqueue
  // (tail exchange + link store) and then spins on its own node for free,
  // so the holder waits for those two RMRs plus a dwell.  A ticket waiter
  // probes the remote serving word on every spin, so the holder waits for
  // kTicketRise of its RMRs: the ticket worst case then exceeds twice any
  // MCS worst case the first assertion admits (6).
  constexpr std::uint64_t kTicketRise = 2 * 6 + 1;
  constexpr int kRounds = 30;
  auto& dir = rmr::CacheDirectory::instance();
  auto measure = [&](auto& lock, std::uint64_t rise, int dwell) {
    struct alignas(64) Side {
      std::atomic<std::uint64_t> before{0};  // RMR count as the attempt began
      std::atomic<int> started{0};           // attempts begun
      std::atomic<int> acquired{0};          // attempts that got the lock
      std::atomic<bool> done{false};
      std::uint64_t worst = 0;  // written by its own thread only
    };
    Side side[2];
    std::atomic<bool> stalled{false};  // a wait timed out: stop waiting
    dir.set_mode(rmr::Mode::kDSM);
    dir.reset_counters();
    run_threads(2, [&](std::size_t t) {
      const int tid = static_cast<int>(t);
      const int peer_tid = 1 - tid;
      Side& me = side[t];
      const Side& peer = side[idx(peer_tid)];
      rmr::ScopedTid scoped(tid);
      rmr::RmrProbe probe(tid);
      for (int i = 1; i <= kRounds; ++i) {
        probe.rebase();
        me.before.store(dir.count(tid), std::memory_order_relaxed);
        me.started.store(i, std::memory_order_release);
        lock.lock(tid);
        me.acquired.store(i, std::memory_order_release);
        // The peer cannot acquire while we hold the lock, so an attempt it
        // started and has not acquired is one it is waiting in.  The wait
        // is bounded: a waiter that stops paying RMRs (a ticket waiter no
        // longer probing remotely, an MCS enqueue cheaper than `rise`)
        // fails here with a diagnosis instead of hanging the run.
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(5);
        bool timed_out = false;
        spin_until<YieldSpin>([&] {
          if (stalled.load(std::memory_order_relaxed)) return true;
          if (peer.done.load(std::memory_order_acquire)) return true;
          if (peer.started.load(std::memory_order_acquire) >
                  peer.acquired.load(std::memory_order_acquire) &&
              dir.count(peer_tid) -
                      peer.before.load(std::memory_order_relaxed) >=
                  rise)
            return true;
          timed_out = std::chrono::steady_clock::now() > deadline;
          return timed_out;
        });
        if (timed_out) {
          stalled.store(true, std::memory_order_relaxed);
          ADD_FAILURE() << "round " << i << ": thread " << peer_tid
                        << "'s DSM RMR count never rose by " << rise
                        << " while it waited for the lock";
        }
        for (int k = 0; k < dwell; ++k) std::this_thread::yield();
        lock.unlock(tid);
        me.worst = std::max(me.worst, probe.sample());
      }
      me.done.store(true, std::memory_order_release);
    });
    dir.set_mode(rmr::Mode::kCC);
    return std::max(side[0].worst, side[1].worst);
  };
  McsLock<InstrumentedProvider, YieldSpin> mcs(2);
  TicketLock<InstrumentedProvider, YieldSpin> ticket(2);
  const auto mcs_worst = measure(mcs, /*rise=*/2, /*dwell=*/20);
  const auto ticket_worst = measure(ticket, kTicketRise, /*dwell=*/0);
  EXPECT_LE(mcs_worst, 6u) << "MCS must stay constant-RMR on DSM";
  EXPECT_GT(ticket_worst, 2 * mcs_worst)
      << "ticket waiters probe a remote word per quantum on DSM";
}

// One writer attempt with no other thread running, on a lock sized for
// `max_threads` and cold caches: the scan length is the only variable, so
// the charge does not depend on how the scheduler interleaves threads.
template <class Lock>
std::uint64_t solo_writer_rmr(int max_threads) {
  CacheDirectory::instance().flush_caches();
  CacheDirectory::instance().reset_counters();
  Lock lock(max_threads);
  rmr::ScopedTid scoped(0);
  RmrProbe probe(0);
  lock.write_lock(0);
  lock.write_unlock(0);
  return probe.sample();
}

TEST(RmrComplexity, BigReaderWriterGrowsLinearlyWithReaders) {
  // Contrast case: the O(n)-writer baseline.  The writer scans one flag per
  // reader slot, so quadrupling the reader count must raise its RMR charge
  // by roughly 4x (at least 2x is asserted to stay robust).
  const auto small = solo_writer_rmr<InstBrl>(/*readers=*/4 + /*writer=*/1);
  const auto large = solo_writer_rmr<InstBrl>(/*readers=*/16 + /*writer=*/1);
  EXPECT_GE(large, 2 * small)
      << "big-reader writer should scale with reader count";
  // ... while its readers stay local.  Measured with no writer running: a
  // reader that meets an active writer stands down and retries, paying
  // fresh misses per retry, so its charge beside a writer counts how often
  // the scheduler interleaved the two, not how many readers there are.
  const auto readers_only = measure_rmr<InstBrl>(/*readers=*/16, 0, 20);
  EXPECT_LE(readers_only.max_reader_rmr, kConstBound);
}

TEST(RmrComplexity, PaperLocksFlatWhileBaselineGrows) {
  // The E1 shape in miniature: growing n by 4x leaves the paper's lock flat
  // (within 2x noise from extra wake-ups) while the baseline grows.
  const auto f4 = measure_rmr<InstMwwp>(4, 2, 25);
  const auto f16 = measure_rmr<InstMwwp>(16, 2, 25);
  EXPECT_LE(f16.max_writer_rmr, std::max<std::uint64_t>(
                                    2 * f4.max_writer_rmr, kConstBound));
  EXPECT_LE(f16.max_reader_rmr,
            std::max<std::uint64_t>(2 * f4.max_reader_rmr, kConstBound));
}

}  // namespace
}  // namespace bjrw
