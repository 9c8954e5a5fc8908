// Hierarchical hashed timer wheel for lease expiry (ROADMAP direction 2;
// exemplar: ndn-dpdk's container/mintmr minute-timer, generalized to L
// levels).  One wheel per NUMA node: workers on that node schedule leases
// when a TTL'd put executes, and the node's ExpirySweeper (sweeper.hpp)
// harvests due leases in batches from the WorkerPool's maintenance lane.
//
// Shape
//   - `levels` wheels of `slots` buckets each (slots is a power of two).
//     Level 0 spans slots*resolution of future time; level l spans
//     slots^(l+1)*resolution.  A lease lands in the lowest level whose
//     span covers its deadline; deadlines beyond the top span clamp into
//     the top level (they cascade down and deliver late, never never).
//   - Buckets are cache-line padded: the per-node schedule path (many
//     workers) and the harvest path (one sweeper) touch disjoint buckets
//     most of the time, and padding keeps neighbouring slots from
//     false-sharing under a storm.
//   - Lazy cascade: nothing moves between levels on schedule.  Harvest
//     advances the tick cursor to `now`; each time the level-0 cursor
//     wraps, one upper-level slot is flushed and its leases re-scheduled
//     (they fall into lower levels or straight into the due queue).  Work
//     is O(due + cascaded), independent of how far in the future the
//     remaining population sits.
//   - O(1) schedule: schedule appends to one bucket.  The wheel keeps no
//     per-key index: rescheduling a key leaves its older lease in place,
//     and harvest delivers both.  Whether a delivered lease still guards
//     its entry is the map's call alone — the sweep deletes through
//     erase_many_if_version, which skips a superseded or erased key under
//     the shard's write lock (DESIGN.md §13).
//
// Invariants (pinned by expiry_wheel_test; see DESIGN.md §13)
//   conservation   scheduled == delivered + pending()
//   totality       every scheduled lease is delivered exactly once
//   due order      harvest(now) returns no lease with deadline > now +
//                  resolution, and — given a large enough `max` — every
//                  pending lease with deadline <= now (floor-tick rounding
//                  makes delivery up to one resolution early, never more)
//
// Concurrency: all public operations are thread-safe behind one internal
// TTAS spinlock per wheel.  The repo's queue-based mutexes need caller
// tids and are overkill here — critical sections are a few appends — so
// the wheel uses a plain atomic_flag with the house YieldSpin backoff.
// All accesses are seq_cst (SC by default, DESIGN.md §2); no ledger
// entries, the wheel is not on the measured hot path.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "src/harness/spin.hpp"
#include "src/harness/timing.hpp"

namespace bjrw::expiry {

struct WheelConfig {
  std::uint64_t resolution_ns = 1'000'000;  // 1ms tick
  std::size_t slots = 256;                  // per level; power of two
  int levels = 3;
};

// One scheduled lease.  `version` is the ShardedMap lease version stamped
// by put_versioned/touch_version; the sweep deletes through
// erase_many_if_version, so a rewrite after scheduling is never
// stale-deleted.
struct Lease {
  std::uint64_t key = 0;
  std::uint64_t version = 0;
  std::uint64_t deadline_ns = 0;
};

struct WheelStats {
  std::uint64_t scheduled = 0;  // schedule() calls
  std::uint64_t delivered = 0;  // leases handed to the sweeper
  std::uint64_t cascades = 0;   // upper-level slots flushed downward
  std::uint64_t pending = 0;    // still in buckets/due queue
};

class TimerWheel {
 public:
  explicit TimerWheel(const WheelConfig& cfg, std::uint64_t start_ns)
      : resolution_ns_(cfg.resolution_ns),
        slots_(cfg.slots),
        mask_(cfg.slots - 1),
        levels_(cfg.levels),
        start_ns_(start_ns) {
    if (resolution_ns_ == 0) {
      throw std::invalid_argument("TimerWheel: resolution must be > 0");
    }
    if (slots_ < 2 || (slots_ & mask_) != 0) {
      throw std::invalid_argument("TimerWheel: slots must be a power of two >= 2");
    }
    if (levels_ < 1 || levels_ > 8) {
      throw std::invalid_argument("TimerWheel: levels must be in [1, 8]");
    }
    log2_slots_ = 0;
    for (std::size_t s = slots_; s > 1; s >>= 1) ++log2_slots_;
    if (log2_slots_ * static_cast<unsigned>(levels_) >= 63) {
      throw std::invalid_argument("TimerWheel: slots^levels overflows the tick space");
    }
    buckets_.resize(static_cast<std::size_t>(levels_) * slots_);
  }

  TimerWheel(const TimerWheel&) = delete;
  TimerWheel& operator=(const TimerWheel&) = delete;

  // Schedule a lease.  Rescheduling a key adds a second lease; the older
  // one still delivers, and the sweep's compare-and-erase skips it.
  void schedule(std::uint64_t key, std::uint64_t version,
                std::uint64_t deadline_ns) {
    LockGuard g(lock_);
    place(Lease{key, version, deadline_ns});
    ++scheduled_;
    ++pending_;
    cas_min_next_due(deadline_ns);
  }

  // Advance the wheel to `now`, cascading lazily, and append up to `max`
  // due leases to `out`.  Returns the number appended.
  std::size_t harvest(std::uint64_t now_ns, std::vector<Lease>& out,
                      std::size_t max) {
    LockGuard g(lock_);
    advance(now_ns);
    const std::size_t n = std::min(max, due_.size() - due_head_);
    const auto first = due_.begin() + static_cast<std::ptrdiff_t>(due_head_);
    out.insert(out.end(), first, first + static_cast<std::ptrdiff_t>(n));
    due_head_ += n;
    pending_ -= n;
    delivered_ += n;
    due_backlog_.store(due_.size() - due_head_);
    if (due_head_ >= due_.size()) {
      due_.clear();
      due_head_ = 0;
      // Nothing due until at least the next tick boundary; the hint keeps
      // idle maintenance polls from taking the lock more than once per tick.
      next_due_.store(pending_ == 0 ? kNever
                                    : start_ns_ + (cursor_ + 1) * resolution_ns_);
    } else {
      next_due_.store(0);  // leftover backlog: immediately due
    }
    return n;
  }

  // Lock-free hint for the sweeper's fast path: true when a harvest now
  // might deliver something.  The watermark is read first and the clock
  // only when a lease is pending, so a poll of an empty wheel is one
  // atomic load.  False negatives last at most one tick.
  bool maybe_due(const ClockSource& clock) const {
    const std::uint64_t next = next_due_.load();
    return next != kNever && next <= clock.now_ns();
  }

  // Due-but-unharvested leases left behind by a max-limited harvest.
  // The sweeper keeps draining while this exceeds its max-debt knob.
  std::size_t due_backlog() const { return due_backlog_.load(); }

  WheelStats stats() const {
    LockGuard g(lock_);
    WheelStats s;
    s.scheduled = scheduled_;
    s.delivered = delivered_;
    s.cascades = cascades_;
    s.pending = pending_;
    return s;
  }

  std::uint64_t resolution_ns() const { return resolution_ns_; }

 private:
  static constexpr std::uint64_t kNever =
      std::numeric_limits<std::uint64_t>::max();

  struct alignas(64) Bucket {
    std::vector<Lease> items;
  };

  class LockGuard {
   public:
    explicit LockGuard(std::atomic_flag& f) : f_(f) {
      while (f_.test_and_set()) YieldSpin::relax();
    }
    ~LockGuard() { f_.clear(); }

   private:
    std::atomic_flag& f_;
  };

  std::uint64_t tick_of(std::uint64_t t_ns) const {
    return t_ns <= start_ns_ ? 0 : (t_ns - start_ns_) / resolution_ns_;
  }

  Bucket& bucket(unsigned level, std::uint64_t slot) {
    return buckets_[static_cast<std::size_t>(level) * slots_ + slot];
  }

  // Place a lease relative to the current cursor.  Requires lock_.
  void place(const Lease& l) {
    const std::uint64_t tick = tick_of(l.deadline_ns);
    if (tick <= cursor_) {
      due_.push_back(l);
      due_backlog_.store(due_.size() - due_head_);
      return;
    }
    std::uint64_t delta = tick - cursor_;
    unsigned level = 0;
    while (level + 1 < static_cast<unsigned>(levels_) &&
           (delta >> (log2_slots_ * (level + 1))) != 0) {
      ++level;
    }
    // Beyond the top span the lease clamps into the top level: it will
    // cascade (possibly through several laps) and deliver late, never never.
    const std::uint64_t slot = (tick >> (log2_slots_ * level)) & mask_;
    bucket(level, slot).items.push_back(l);
  }

  // Move the cursor to tick_of(now), flushing level-0 slots into the due
  // queue and cascading one upper-level slot whenever a lower level wraps.
  // Requires lock_.
  void advance(std::uint64_t now_ns) {
    const std::uint64_t target = tick_of(now_ns);
    while (cursor_ < target) {
      ++cursor_;
      // Cascade upper levels first when their index components roll over,
      // so their leases land in level 0 before its slot is flushed.
      for (unsigned level = static_cast<unsigned>(levels_) - 1; level >= 1;
           --level) {
        if ((cursor_ & ((std::uint64_t{1} << (log2_slots_ * level)) - 1)) == 0) {
          Bucket& b = bucket(level, (cursor_ >> (log2_slots_ * level)) & mask_);
          if (!b.items.empty()) {
            ++cascades_;
            cascade_scratch_.swap(b.items);
            for (const Lease& l : cascade_scratch_) place(l);
            cascade_scratch_.clear();
          }
        }
      }
      Bucket& b0 = bucket(0, cursor_ & mask_);
      for (const Lease& l : b0.items) due_.push_back(l);
      b0.items.clear();
    }
    due_backlog_.store(due_.size() - due_head_);
  }

  void cas_min_next_due(std::uint64_t deadline_ns) {
    std::uint64_t cur = next_due_.load();
    while (deadline_ns < cur &&
           !next_due_.compare_exchange_weak(cur, deadline_ns)) {
    }
  }

  const std::uint64_t resolution_ns_;
  const std::size_t slots_;
  const std::uint64_t mask_;
  const int levels_;
  const std::uint64_t start_ns_;
  unsigned log2_slots_ = 0;

  mutable std::atomic_flag lock_ = ATOMIC_FLAG_INIT;
  std::vector<Bucket> buckets_;          // levels * slots, padded
  std::uint64_t cursor_ = 0;             // ticks advanced since start_ns_
  std::vector<Lease> due_;               // FIFO of popped-but-unreturned leases
  std::size_t due_head_ = 0;
  std::vector<Lease> cascade_scratch_;

  std::uint64_t scheduled_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t cascades_ = 0;
  std::uint64_t pending_ = 0;

  std::atomic<std::uint64_t> next_due_{kNever};
  std::atomic<std::size_t> due_backlog_{0};
};

}  // namespace bjrw::expiry
