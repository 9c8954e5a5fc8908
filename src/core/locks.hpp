// Public umbrella header for the bjrw reader-writer lock library.
//
//   #include "src/core/locks.hpp"
//
//   bjrw::WriterPriorityLock lk(kMaxThreads);
//   { bjrw::ReadGuard g(lk, tid);  ... shared section ... }
//   { bjrw::WriteGuard g(lk, tid); ... exclusive section ... }
//
// The three multi-writer multi-reader locks correspond to the paper's three
// priority regimes (Theorems 3, 4, 5).  All have O(1) RMR complexity on
// cache-coherent machines.
#pragma once

#include <concepts>

#include "src/core/cohort.hpp"
#include "src/core/dist_reader.hpp"
#include "src/core/mw_transform.hpp"
#include "src/core/mw_writer_pref.hpp"
#include "src/core/sw_reader_pref.hpp"
#include "src/core/sw_writer_pref.hpp"

namespace bjrw {

// Concept satisfied by every lock in this library: tid-parameterized
// reader/writer sections.  tid must be in [0, max_threads) given at
// construction and unique per concurrently active thread.
template <class L>
concept ReaderWriterLock = requires(L& l, int tid) {
  { l.read_lock(tid) };
  { l.read_unlock(tid) };
  { l.write_lock(tid) };
  { l.write_unlock(tid) };
};

// --- the headline locks ----------------------------------------------------
//
// All headline aliases resolve their atomics through DefaultProvider, which
// follows the build-level memory-ordering policy (DESIGN.md §2): seq_cst
// everywhere by default, or the proven hot-path weakenings under
// -DBJRW_ORDER_POLICY=hotpath.  A default (seq_cst) build is type-identical
// to the historical StdProvider aliases.

// No-priority regime: starvation-free for readers and writers (Theorem 3).
using StarvationFreeLock = MwStarvationFreeLock<DefaultProvider, YieldSpin>;

// Reader-priority regime (Theorem 4).
using ReaderPriorityLock = MwReaderPrefLock<DefaultProvider, YieldSpin>;

// Writer-priority regime (Theorem 5).
using WriterPriorityLock = MwWriterPrefLock<DefaultProvider, YieldSpin>;

static_assert(ReaderWriterLock<StarvationFreeLock>);
static_assert(ReaderWriterLock<ReaderPriorityLock>);
static_assert(ReaderWriterLock<WriterPriorityLock>);

// --- distributed-reader variants (dist_reader.hpp) ---------------------------
//
// Same three regimes with the reader count sharded across per-slot padded
// counters: the read fast path becomes a purely local operation (the
// many-core serving hot path), at the price of an O(slots) writer sweep.

using DistStarvationFreeLock = DistMwStarvationFreeLock<DefaultProvider, YieldSpin>;
using DistReaderPriorityLock = DistMwReaderPrefLock<DefaultProvider, YieldSpin>;
using DistWriterPriorityLock = DistMwWriterPrefLock<DefaultProvider, YieldSpin>;

static_assert(ReaderWriterLock<DistStarvationFreeLock>);
static_assert(ReaderWriterLock<DistReaderPriorityLock>);
static_assert(ReaderWriterLock<DistWriterPriorityLock>);

// --- topology-aware cohort variants (cohort.hpp) -----------------------------
//
// Same three regimes again, but node-aware: per-node reader-indicator
// groups (readers touch only node-local lines), per-node writer gates, and
// intra-node writer handoff over the wrapped paper lock.  Constructed with
// the detected topology (BJRW_TOPOLOGY=<nodes>x<cpus> overrides, sysfs
// NUMA layout otherwise, flat fallback); pass a Topology explicitly to
// simulate other shapes.

using CohortStarvationFreeLock =
    CohortMwStarvationFreeLock<DefaultProvider, YieldSpin>;
using CohortReaderPriorityLock =
    CohortMwReaderPrefLock<DefaultProvider, YieldSpin>;
using CohortWriterPriorityLock =
    CohortMwWriterPrefLock<DefaultProvider, YieldSpin>;

static_assert(ReaderWriterLock<CohortStarvationFreeLock>);
static_assert(ReaderWriterLock<CohortReaderPriorityLock>);
static_assert(ReaderWriterLock<CohortWriterPriorityLock>);

// --- explicit hot-path-policy variants ---------------------------------------
//
// The weakened-ordering builds of the two transforms that carry weakened
// sites, independent of the build-level default: these are what the litmus
// and stress matrices exercise in every configuration, so the hot-path
// protocol is compiled and run even when the build default is seq_cst.
// (The paper locks have no annotated sites — a HotPathProvider paper lock
// is operationally identical to the seq_cst one — so only the transforms
// get named hot aliases.)

using HotDistStarvationFreeLock =
    DistMwStarvationFreeLock<HotPathProvider, YieldSpin>;
using HotDistReaderPriorityLock =
    DistMwReaderPrefLock<HotPathProvider, YieldSpin>;
using HotDistWriterPriorityLock =
    DistMwWriterPrefLock<HotPathProvider, YieldSpin>;
using HotCohortStarvationFreeLock =
    CohortMwStarvationFreeLock<HotPathProvider, YieldSpin>;
using HotCohortReaderPriorityLock =
    CohortMwReaderPrefLock<HotPathProvider, YieldSpin>;
using HotCohortWriterPriorityLock =
    CohortMwWriterPrefLock<HotPathProvider, YieldSpin>;

static_assert(ReaderWriterLock<HotDistStarvationFreeLock>);
static_assert(ReaderWriterLock<HotDistWriterPriorityLock>);
static_assert(ReaderWriterLock<HotCohortStarvationFreeLock>);
static_assert(ReaderWriterLock<HotCohortWriterPriorityLock>);

// --- RAII guards -------------------------------------------------------------

template <ReaderWriterLock L>
class ReadGuard {
 public:
  ReadGuard(L& lock, int tid) : lock_(lock), tid_(tid) {
    lock_.read_lock(tid_);
  }
  ~ReadGuard() { lock_.read_unlock(tid_); }
  ReadGuard(const ReadGuard&) = delete;
  ReadGuard& operator=(const ReadGuard&) = delete;

 private:
  L& lock_;
  int tid_;
};

template <ReaderWriterLock L>
class WriteGuard {
 public:
  WriteGuard(L& lock, int tid) : lock_(lock), tid_(tid) {
    lock_.write_lock(tid_);
  }
  ~WriteGuard() { lock_.write_unlock(tid_); }
  WriteGuard(const WriteGuard&) = delete;
  WriteGuard& operator=(const WriteGuard&) = delete;

 private:
  L& lock_;
  int tid_;
};

// --- std::shared_mutex-style adapter ----------------------------------------
//
// Bridges a bjrw lock to the BasicSharedLockable interface so it can be used
// with std::shared_lock/std::unique_lock.  The tid is taken from a
// caller-registered thread slot (see register_this_thread); this keeps the
// adapter usable in code that cannot thread tids through its call graph.
template <ReaderWriterLock L>
class SharedMutexAdapter {
 public:
  explicit SharedMutexAdapter(int max_threads) : lock_(max_threads) {}

  // Each thread must register once before first use; slots are not recycled.
  void register_this_thread(int tid) { tls_tid() = tid; }

  void lock() { lock_.write_lock(tls_tid()); }
  void unlock() { lock_.write_unlock(tls_tid()); }
  void lock_shared() { lock_.read_lock(tls_tid()); }
  void unlock_shared() { lock_.read_unlock(tls_tid()); }

  L& underlying() { return lock_; }

 private:
  static int& tls_tid() {
    thread_local int tid = 0;
    return tid;
  }
  L lock_;
};

}  // namespace bjrw
