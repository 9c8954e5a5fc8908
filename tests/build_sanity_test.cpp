// Template-instantiation sanity net (ISSUE 1): every lock variant in the
// library must be constructible and usable through BOTH atomics providers.
// Several variants (e.g. instrumented baselines, Ttas/Ticket under
// InstrumentedProvider) are exercised by no other suite, so template rot in
// them would otherwise only surface when a future bench touches them.
#include <gtest/gtest.h>

#include "src/baseline/big_reader.hpp"
#include "src/baseline/centralized_rw.hpp"
#include "src/baseline/phase_fair.hpp"
#include "src/baseline/shared_mutex_rw.hpp"
#include "src/core/locks.hpp"
#include "src/extras/sharded_map.hpp"
#include "src/mutex/anderson.hpp"
#include "src/mutex/clh.hpp"
#include "src/mutex/mcs.hpp"
#include "src/mutex/ticket.hpp"
#include "src/mutex/ttas.hpp"
#include "src/rmr/cache_directory.hpp"

namespace bjrw {
namespace {

constexpr int kThreads = 4;

// Single-threaded smoke of the full RW interface; deadlock-free by
// construction since no other thread holds the lock.
template <class Lock>
void exercise_rw() {
  Lock lock(kThreads);
  lock.read_lock(0);
  lock.read_unlock(0);
  lock.write_lock(0);
  lock.write_unlock(0);
  static_assert(ReaderWriterLock<Lock>);
}

template <class Lock>
void exercise_mutex() {
  Lock lock(kThreads);
  lock.lock(0);
  lock.unlock(0);
}

template <class P>
void exercise_all_rw() {
  exercise_rw<SwWriterPrefLock<P, YieldSpin>>();
  exercise_rw<SwReaderPrefLock<P, YieldSpin>>();
  exercise_rw<MwStarvationFreeLock<P, YieldSpin>>();
  exercise_rw<MwReaderPrefLock<P, YieldSpin>>();
  exercise_rw<MwWriterPrefLock<P, YieldSpin>>();
  exercise_rw<DistMwStarvationFreeLock<P, YieldSpin>>();
  exercise_rw<DistMwReaderPrefLock<P, YieldSpin>>();
  exercise_rw<DistMwWriterPrefLock<P, YieldSpin>>();
  exercise_rw<CohortMwStarvationFreeLock<P, YieldSpin>>();
  exercise_rw<CohortMwReaderPrefLock<P, YieldSpin>>();
  exercise_rw<CohortMwWriterPrefLock<P, YieldSpin>>();
  exercise_rw<BigReaderLock<P, YieldSpin>>();
  exercise_rw<CentralizedReaderPrefRwLock<P, YieldSpin>>();
  exercise_rw<CentralizedWriterPrefRwLock<P, YieldSpin>>();
  exercise_rw<PhaseFairRwLock<P, YieldSpin>>();
}

template <class P>
void exercise_all_mutex() {
  exercise_mutex<AndersonLock<P, YieldSpin>>();
  exercise_mutex<McsLock<P, YieldSpin>>();
  exercise_mutex<ClhLock<P, YieldSpin>>();
  exercise_mutex<TicketLock<P, YieldSpin>>();
  exercise_mutex<TtasLock<P, YieldSpin>>();
}

TEST(BuildSanity, RwLocksUnderStdProvider) { exercise_all_rw<StdProvider>(); }

TEST(BuildSanity, RwLocksUnderInstrumentedProvider) {
  rmr::ScopedTid scoped(0);
  exercise_all_rw<InstrumentedProvider>();
}

TEST(BuildSanity, MutexesUnderStdProvider) {
  exercise_all_mutex<StdProvider>();
}

TEST(BuildSanity, MutexesUnderInstrumentedProvider) {
  rmr::ScopedTid scoped(0);
  exercise_all_mutex<InstrumentedProvider>();
}

// The ordering-policy axis (DESIGN.md §2): every variant must instantiate
// with the weak-ordering requests honored, both plain and instrumented —
// whatever BJRW_ORDER_POLICY the build itself selected.
TEST(BuildSanity, RwLocksUnderHotPathProvider) {
  exercise_all_rw<HotPathProvider>();
}

TEST(BuildSanity, MutexesUnderHotPathProvider) {
  exercise_all_mutex<HotPathProvider>();
}

TEST(BuildSanity, LocksUnderInstrumentedHotPathProvider) {
  rmr::ScopedTid scoped(0);
  exercise_all_rw<InstrumentedHotPathProvider>();
  exercise_all_mutex<InstrumentedHotPathProvider>();
}

TEST(BuildSanity, SharedMutexRwLockSmoke) {
  exercise_rw<SharedMutexRwLock>();
}

TEST(BuildSanity, SpinPolicyVariantsInstantiate) {
  exercise_rw<MwStarvationFreeLock<StdProvider, PauseSpin>>();
  exercise_rw<MwStarvationFreeLock<StdProvider, HybridSpin>>();
}

TEST(BuildSanity, GuardsAndAdapterInstantiate) {
  StarvationFreeLock lock(kThreads);
  { ReadGuard g(lock, 0); }
  { WriteGuard g(lock, 0); }

  SharedMutexAdapter<WriterPriorityLock> adapter(kThreads);
  adapter.register_this_thread(0);
  adapter.lock_shared();
  adapter.unlock_shared();
  adapter.lock();
  adapter.unlock();
}

TEST(BuildSanity, ShardedMapInstantiates) {
  ShardedMap<int, int> map(kThreads, /*shards=*/4);
  EXPECT_TRUE(map.put(0, 1, 2));
  const auto out = map.get(0, 1);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, 2);
}

TEST(BuildSanity, ShardedMapOverDistLockWithBulkAndSize) {
  // The serving configuration: dist-reader per-shard locks, bulk lookups,
  // striped size.
  ShardedMap<int, int, DistWriterPriorityLock> map(kThreads, /*shards=*/4);
  EXPECT_TRUE(map.put(0, 1, 10));
  EXPECT_TRUE(map.put(0, 2, 20));
  const auto many = map.get_many(0, {1, 2, 3});
  ASSERT_EQ(many.size(), 3u);
  EXPECT_EQ(many[0].value(), 10);
  EXPECT_EQ(many[1].value(), 20);
  EXPECT_FALSE(many[2].has_value());
  EXPECT_EQ(map.size(), 2u);
}

TEST(BuildSanity, ShardedMapOverCohortLockOnSimulatedTopology) {
  // The NUMA serving configuration: cohort per-shard locks over a simulated
  // 2-node machine, exercised through the bulk path.  ShardedMap constructs
  // shard locks as Lock(max_threads), so the topology comes from detection;
  // here the default-detected shape (flat on CI) just has to instantiate.
  ShardedMap<int, int, CohortWriterPriorityLock> map(kThreads, /*shards=*/4);
  EXPECT_TRUE(map.put(0, 7, 70));
  const auto many = map.get_many(0, {7, 8});
  ASSERT_EQ(many.size(), 2u);
  EXPECT_EQ(many[0].value(), 70);
  EXPECT_FALSE(many[1].has_value());
}

TEST(BuildSanity, DistLockObserversAndSlotCap) {
  DistWriterPriorityLock lock(kThreads, /*slots=*/2);
  EXPECT_EQ(lock.slot_count(), 2);
  EXPECT_EQ(lock.writers_pending(), 0);
  lock.read_lock(3);  // tid 3 maps onto slot 1 with the cap
  lock.read_unlock(3);
  lock.write_lock(0);
  EXPECT_EQ(lock.writers_pending(), 1);
  lock.write_unlock(0);
  EXPECT_EQ(lock.writers_pending(), 0);
}

}  // namespace
}  // namespace bjrw
