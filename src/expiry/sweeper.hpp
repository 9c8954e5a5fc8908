// ExpirySweeper: the background expiry writer.  One per NUMA node, driven
// from the WorkerPool's low-priority maintenance lane (worker_pool.hpp):
// workers call poll() when their queue runs empty and every few busy
// iterations, so sweep debt stays bounded under sustained load without a
// dedicated thread competing for CPU with the serving hot path.
//
// A poll harvests up to kSweepBatch due leases from the node's TimerWheel
// and deletes them through the map's bulk compare-and-erase — one
// shard-lock *write* epoch per distinct shard per batch (the write-side
// mirror of the cohort batch read path's ShardGroupScratch grouping), which
// is exactly the bursty background-writer pressure E22 measures against the
// writer-pref and phase-fair shard-lock regimes.  Batching is the only
// shape: per-item sweeps (one write epoch per expired key) never beat it
// (DESIGN.md §8, V2).
//
// Correctness split between the two version checks:
//   wheel-level   harvest drops leases superseded inside the wheel
//                 (rescheduled or cancelled) — they never reach the map.
//   map-level     erase_if_version drops sweeps racing a rewrite that
//                 happened after harvest — the rewrite bumped the entry's
//                 version, so the stale sweep is a no-op (`stale_skips`).
//
// Concurrency: any worker on the node may call poll(); a TTAS claim flag
// elects one sweeper at a time, so the scratch buffers are plain members
// and the wheel's harvest scan never runs concurrently with itself.
// Losers return immediately (the maintenance lane must never block).
// All shared accesses are seq_cst (SC by default, DESIGN.md §2).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/expiry/wheel.hpp"
#include "src/harness/timing.hpp"

namespace bjrw::expiry {

// Leases harvested + erased per sweep batch (one shard-group write epoch
// each).
inline constexpr std::size_t kSweepBatch = 128;
// Debt ceiling: a poll keeps draining batches while the wheel's due backlog
// exceeds this; below it, leftovers wait for the next poll so a storm
// cannot monopolize a worker.
inline constexpr std::size_t kMaxSweepDebt = 4096;

template <class SubMap>
class ExpirySweeper {
 public:
  ExpirySweeper(TimerWheel& wheel, SubMap& map, const ClockSource& clock)
      : wheel_(wheel), map_(map), clock_(clock) {}

  ExpirySweeper(const ExpirySweeper&) = delete;
  ExpirySweeper& operator=(const ExpirySweeper&) = delete;

  // Maintenance-lane entry point.  Returns true if it swept anything (the
  // pool then treats the lane as "did work" and defers parking).
  bool poll(int tid) {
    if (!wheel_.maybe_due(clock_.now_ns())) return false;
    if (claim_.test_and_set()) return false;  // another worker is sweeping
    bool worked = false;
    do {
      keys_.clear();
      versions_.clear();
      harvest_.clear();
      const std::uint64_t now = clock_.now_ns();
      if (wheel_.harvest(now, harvest_, kSweepBatch) == 0) break;
      worked = true;
      for (const Lease& l : harvest_) {
        keys_.push_back(l.key);
        versions_.push_back(l.version);
      }
      // One write-lock epoch per shard group for the whole batch.
      const std::size_t erased = map_.erase_many_if_version(
          tid, keys_.data(), versions_.data(), keys_.size());
      expired_.fetch_add(erased);
      stale_skips_.fetch_add(keys_.size() - erased);
      batches_.fetch_add(1);
    } while (wheel_.due_backlog() > kMaxSweepDebt);
    claim_.clear();
    return worked;
  }

  std::uint64_t expired() const { return expired_.load(); }
  std::uint64_t stale_skips() const { return stale_skips_.load(); }
  std::uint64_t sweep_batches() const { return batches_.load(); }

 private:
  TimerWheel& wheel_;
  SubMap& map_;
  const ClockSource& clock_;

  std::atomic_flag claim_ = ATOMIC_FLAG_INIT;
  // Scratch guarded by claim_: one sweeper at a time.
  std::vector<Lease> harvest_;
  std::vector<std::uint64_t> keys_;
  std::vector<std::uint64_t> versions_;

  std::atomic<std::uint64_t> expired_{0};
  std::atomic<std::uint64_t> stale_skips_{0};
  std::atomic<std::uint64_t> batches_{0};
};

}  // namespace bjrw::expiry
