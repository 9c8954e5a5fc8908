// Tests for ShardedMap, the reader-writer-lock-backed concurrent hash map.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <string>
#include <utility>
#include <vector>

#include "src/extras/sharded_map.hpp"
#include "src/harness/prng.hpp"
#include "src/harness/thread_coord.hpp"
#include "src/harness/timing.hpp"

namespace bjrw {
namespace {

TEST(ShardedMap, BasicPutGetErase) {
  ShardedMap<int, std::string> m(1);
  EXPECT_FALSE(m.get(0, 7).has_value());
  EXPECT_TRUE(m.put(0, 7, "seven"));
  EXPECT_EQ(m.get(0, 7).value(), "seven");
  EXPECT_FALSE(m.put(0, 7, "SEVEN"));  // overwrite, not insert
  EXPECT_EQ(m.get(0, 7).value(), "SEVEN");
  EXPECT_TRUE(m.erase(0, 7));
  EXPECT_FALSE(m.erase(0, 7));
  EXPECT_FALSE(m.contains(0, 7));
}

TEST(ShardedMap, PutIfAbsentSemantics) {
  ShardedMap<std::string, int> m(1, /*shards=*/4);
  EXPECT_TRUE(m.put_if_absent(0, "a", 1));
  EXPECT_FALSE(m.put_if_absent(0, "a", 2));
  EXPECT_EQ(m.get(0, "a").value(), 1);
}

TEST(ShardedMap, UpdateCreatesAndMutatesInPlace) {
  ShardedMap<int, int> m(1);
  m.update(0, 5, [](int& v) { v += 10; });  // default 0 -> 10
  m.update(0, 5, [](int& v) { v += 10; });
  EXPECT_EQ(m.get(0, 5).value(), 20);
}

TEST(ShardedMap, SizeAndForEachCoverAllShards) {
  ShardedMap<int, int> m(1, /*shards=*/8);
  for (int k = 0; k < 100; ++k) m.put(0, k, k * k);
  EXPECT_EQ(m.size(0), 100u);
  std::uint64_t sum = 0;
  m.for_each(0, [&](int k, int v) {
    EXPECT_EQ(v, k * k);
    sum += static_cast<std::uint64_t>(v);
  });
  std::uint64_t expect = 0;
  for (int k = 0; k < 100; ++k)
    expect += static_cast<std::uint64_t>(k) * static_cast<std::uint64_t>(k);
  EXPECT_EQ(sum, expect);
}

TEST(ShardedMap, SingleShardDegenerateCaseStillCorrect) {
  ShardedMap<int, int> m(2, /*shards=*/1);
  for (int k = 0; k < 50; ++k) m.put(0, k, k);
  EXPECT_EQ(m.size(1), 50u);
}

TEST(ShardedMap, ConcurrentCountersAreExact) {
  constexpr int kThreads = 6;
  constexpr int kIncrementsEach = 2000;
  constexpr int kKeys = 10;
  ShardedMap<int, std::uint64_t> m(kThreads);
  run_threads(kThreads, [&](std::size_t tid) {
    Xoshiro256 rng(test_seed(tid + 99));
    for (int i = 0; i < kIncrementsEach; ++i) {
      const int key = static_cast<int>(rng.below(kKeys));
      m.update(static_cast<int>(tid), key, [](std::uint64_t& v) { ++v; });
    }
  });
  std::uint64_t total = 0;
  m.for_each(0, [&](int, std::uint64_t v) { total += v; });
  EXPECT_EQ(total, static_cast<std::uint64_t>(kThreads) * kIncrementsEach);
}

TEST(ShardedMap, ReadersObserveConsistentPairs) {
  // Writers keep (k, 2k) pairs; readers must never see a torn value.
  constexpr int kThreads = 4;
  ShardedMap<int, std::pair<std::uint64_t, std::uint64_t>> m(kThreads);
  std::atomic<std::uint64_t> torn{0};
  std::atomic<bool> stop{false};
  run_threads(kThreads, [&](std::size_t tid) {
    Xoshiro256 rng(test_seed(tid));
    if (tid == 0) {
      for (std::uint64_t i = 1; i <= 3000; ++i) {
        m.put(0, static_cast<int>(i % 7), {i, 2 * i});
      }
      stop.store(true);
    } else {
      while (!stop.load()) {
        const auto v = m.get(static_cast<int>(tid),
                             static_cast<int>(rng.below(7)));
        if (v && v->second != 2 * v->first) torn.fetch_add(1);
      }
    }
  });
  EXPECT_EQ(torn.load(), 0u);
}

TEST(ShardedMap, GetManyMatchesSingleGets) {
  ShardedMap<int, int> m(1, /*shards=*/8);
  for (int k = 0; k < 64; k += 2) m.put(0, k, k * 3);
  std::vector<int> keys;
  for (int k = 0; k < 64; ++k) keys.push_back(k);
  const auto many = m.get_many(0, keys);
  ASSERT_EQ(many.size(), keys.size());
  for (int k = 0; k < 64; ++k) {
    const auto single = m.get(0, k);
    ASSERT_EQ(many[static_cast<std::size_t>(k)].has_value(),
              single.has_value())
        << "key " << k;
    if (single) {
      EXPECT_EQ(*many[static_cast<std::size_t>(k)], *single);
    }
  }
  EXPECT_FALSE(m.get_many(0, {}).size());
}

TEST(ShardedMap, StripedSizeTracksEveryMutatingCall) {
  ShardedMap<int, int> m(1, /*shards=*/4);
  EXPECT_TRUE(m.put(0, 1, 10));
  EXPECT_EQ(m.size(0), 1u);
  EXPECT_FALSE(m.put(0, 1, 11));      // overwrite: no size change
  EXPECT_TRUE(m.put_if_absent(0, 2, 20));
  EXPECT_FALSE(m.put_if_absent(0, 2, 21));  // no-op
  m.update(0, 3, [](int& v) { v = 30; });   // insert via update
  m.update(0, 3, [](int& v) { v = 31; });   // in place: no size change
  EXPECT_EQ(m.size(0), 3u);
  const std::uint64_t ver = m.put_versioned(0, 4, 40, /*expire_at_ns=*/0);
  EXPECT_EQ(m.size(0), 4u);
  EXPECT_TRUE(m.touch_version(0, 4, 0).has_value());  // no size change
  EXPECT_FALSE(m.erase_if_version(0, 4, ver));  // stale after the touch
  EXPECT_EQ(m.size(0), 4u);
  const auto lease = m.lease_of(0, 4);
  ASSERT_TRUE(lease.has_value());
  EXPECT_TRUE(m.erase_if_version(0, 4, lease->first));
  EXPECT_TRUE(m.erase(0, 3));
  EXPECT_FALSE(m.erase(0, 3));        // no-op
  EXPECT_EQ(m.size(0), 2u);
  std::size_t ground_truth = 0;
  m.for_each(0, [&](int, int) { ++ground_truth; });
  EXPECT_EQ(ground_truth, 2u);
}

// The serving contract under churn: concurrent get_many sees consistent
// (k, 2k) pairs through its bulk read locks, and afterwards the striped size
// reconciles exactly with the ground truth.  Two writers share the shards,
// so a size write made outside the shard's write lock would lose updates.
TEST(ShardedMap, GetManyAndStripedStatsConsistentUnderMutation) {
  constexpr int kThreads = 4;
  constexpr int kKeys = 32;
  constexpr std::uint64_t kWriterOps = 2000;
  ShardedMap<int, std::pair<std::uint64_t, std::uint64_t>, DistWriterPriorityLock>
      m(kThreads, /*shards=*/8);
  std::atomic<std::uint64_t> torn{0};
  std::atomic<int> writers_left{2};
  std::vector<int> all_keys;
  for (int k = 0; k < kKeys; ++k) all_keys.push_back(k);

  run_threads(kThreads, [&](std::size_t tid) {
    Xoshiro256 rng(test_seed(tid * 31 + 5));
    if (tid < 2) {  // writers: keep (i, 2i) pairs, occasionally erase
      for (std::uint64_t i = 1; i <= kWriterOps; ++i) {
        const int key = static_cast<int>(rng.below(kKeys));
        if (rng.chance(1, 10)) {
          (void)m.erase(static_cast<int>(tid), key);
        } else {
          m.put(static_cast<int>(tid), key, {i, 2 * i});
        }
      }
      writers_left.fetch_sub(1);
    } else {  // bulk readers (at least one pass even if writers finish first)
      do {
        const auto values = m.get_many(static_cast<int>(tid), all_keys);
        for (const auto& v : values)
          if (v && v->second != 2 * v->first) torn.fetch_add(1);
      } while (writers_left.load() > 0);
    }
  });

  EXPECT_EQ(torn.load(), 0u);
  // The size stripes must reconcile exactly at quiescence.
  std::size_t ground_truth = 0;
  m.for_each(0, [&](int, const auto&) { ++ground_truth; });
  EXPECT_EQ(m.size(0), ground_truth);
}

TEST(ShardedMap, WorksWithEveryPriorityRegime) {
  ShardedMap<int, int, StarvationFreeLock> a(2);
  ShardedMap<int, int, ReaderPriorityLock> b(2);
  ShardedMap<int, int, WriterPriorityLock> c(2);
  a.put(0, 1, 10);
  b.put(0, 1, 20);
  c.put(0, 1, 30);
  EXPECT_EQ(a.get(1, 1).value(), 10);
  EXPECT_EQ(b.get(1, 1).value(), 20);
  EXPECT_EQ(c.get(1, 1).value(), 30);
}

// Probe lock counting read-side acquisitions — the instrument behind the
// get_many lock-dedup contract below.
class CountingLock {
 public:
  explicit CountingLock(int max_threads) : inner_(max_threads) {}
  void read_lock(int tid) {
    read_locks.fetch_add(1, std::memory_order_relaxed);
    inner_.read_lock(tid);
  }
  void read_unlock(int tid) { inner_.read_unlock(tid); }
  void write_lock(int tid) { inner_.write_lock(tid); }
  void write_unlock(int tid) { inner_.write_unlock(tid); }

  std::atomic<std::uint64_t> read_locks{0};

 private:
  WriterPriorityLock inner_;
};
static_assert(ReaderWriterLock<CountingLock>);

// The serving contract behind the bulk path: a batch takes each shard's
// read lock exactly once per *distinct shard touched*, never once per key —
// on both the small-batch (bitmask) and large-batch (bucket) groupings —
// and duplicated keys are still all resolved.
TEST(ShardedMap, GetManyTakesEachShardLockOncePerBatch) {
  constexpr std::size_t kShards = 8;
  ShardedMap<std::uint64_t, std::uint64_t, CountingLock> m(1, kShards);
  for (std::uint64_t k = 0; k < 64; ++k) m.put(0, k, k);

  const auto read_locks_taken = [&] {
    std::uint64_t total = 0;
    for (std::size_t s = 0; s < m.shard_count(); ++s)
      total += m.shard_lock(s).read_locks.load(std::memory_order_relaxed);
    return total;
  };
  const auto distinct_shards = [&](const std::vector<std::uint64_t>& keys) {
    std::vector<bool> seen(kShards, false);
    std::size_t n = 0;
    for (const std::uint64_t k : keys) {
      const std::size_t s = std::hash<std::uint64_t>{}(k) % kShards;
      if (!seen[s]) ++n;
      seen[s] = true;
    }
    return static_cast<std::uint64_t>(n);
  };

  // Small-batch path (<= 64 keys), duplicates included: 24 keys but at
  // most kShards distinct shards.
  std::vector<std::uint64_t> small;
  for (std::uint64_t k = 0; k < 12; ++k) {
    small.push_back(k);
    small.push_back(k);  // hot-key duplicate, same shard by definition
  }
  const std::uint64_t before_small = read_locks_taken();
  const auto got_small = m.get_many(0, small);
  EXPECT_EQ(read_locks_taken() - before_small, distinct_shards(small));
  for (std::size_t i = 0; i < small.size(); ++i) {
    ASSERT_TRUE(got_small[i].has_value());
    EXPECT_EQ(*got_small[i], small[i]);
  }

  // Large-batch path (> 64 keys): 200 lookups, at most kShards lock
  // acquisitions.
  std::vector<std::uint64_t> large;
  for (std::uint64_t k = 0; k < 200; ++k) large.push_back(k % 50);
  const std::uint64_t before_large = read_locks_taken();
  const auto got_large = m.get_many(0, large);
  EXPECT_EQ(read_locks_taken() - before_large, distinct_shards(large));
  for (std::size_t i = 0; i < large.size(); ++i) {
    ASSERT_TRUE(got_large[i].has_value());
    EXPECT_EQ(*got_large[i], large[i]);
  }
}


// --- lease / versioning (src/expiry/ integration surface) --------------------

TEST(ShardedMapLease, PutVersionedStampsMonotoneVersions) {
  ShardedMap<std::uint64_t, int> m(1, /*shards=*/1);
  const std::uint64_t v1 = m.put_versioned(0, 1, 10, /*expire_at_ns=*/100);
  const std::uint64_t v2 = m.put_versioned(0, 1, 11, 200);
  EXPECT_GT(v2, v1);
  const auto lease = m.lease_of(0, 1);
  ASSERT_TRUE(lease.has_value());
  EXPECT_EQ(lease->first, v2);
  EXPECT_EQ(lease->second, 200u);
}

TEST(ShardedMapLease, EraseIfVersionComparesExactly) {
  ShardedMap<std::uint64_t, int> m(1);
  const std::uint64_t ver = m.put_versioned(0, 5, 50, 100);
  EXPECT_FALSE(m.erase_if_version(0, 5, ver + 1));  // wrong version: no-op
  EXPECT_FALSE(m.erase_if_version(0, 99, ver));     // absent key: no-op
  EXPECT_TRUE(m.contains(0, 5));
  EXPECT_TRUE(m.erase_if_version(0, 5, ver));
  EXPECT_FALSE(m.contains(0, 5));
  EXPECT_FALSE(m.erase_if_version(0, 5, ver));  // already gone
}

// The regression the expiry subsystem hangs on: a key REWRITTEN after its
// expiry was scheduled must never be deleted by the stale sweep.  Every
// mutation path (plain put, update, touch_version, put_versioned) bumps
// the version, so the sweep's compare-and-erase misses.
TEST(ShardedMapLease, RacingRewriteIsNeverStaleDeleted) {
  ShardedMap<std::uint64_t, int> m(1);
  const std::uint64_t stale = m.put_versioned(0, 7, 70, 100);

  m.put(0, 7, 71);  // plain rewrite: version bump + lease cleared
  EXPECT_FALSE(m.erase_if_version(0, 7, stale));
  EXPECT_EQ(m.get(0, 7).value_or(0), 71);
  EXPECT_EQ(m.lease_of(0, 7)->second, 0u);  // plain put cleared the lease

  const std::uint64_t v2 = m.put_versioned(0, 7, 72, 500);
  m.update(0, 7, [](int& v) { v = 73; });  // update path bumps too
  EXPECT_FALSE(m.erase_if_version(0, 7, v2));
  EXPECT_EQ(m.get(0, 7).value_or(0), 73);

  const std::uint64_t v3 = m.put_versioned(0, 7, 74, 500);
  const auto v4 = m.touch_version(0, 7, 900);  // touch path bumps too
  ASSERT_TRUE(v4.has_value());
  EXPECT_GT(*v4, v3);
  EXPECT_FALSE(m.erase_if_version(0, 7, v3));
  EXPECT_TRUE(m.erase_if_version(0, 7, *v4));  // the live version erases
}

TEST(ShardedMapLease, EraseManyIfVersionTakesOneLockPerShardGroup) {
  ShardedMap<std::uint64_t, int> m(1, /*shards=*/4);
  std::vector<std::uint64_t> keys, vers;
  for (std::uint64_t k = 0; k < 40; ++k) {
    keys.push_back(k);
    vers.push_back(m.put_versioned(0, k, static_cast<int>(k), 100));
  }
  // Half the batch goes stale: rewrite every even key.
  for (std::uint64_t k = 0; k < 40; k += 2) m.put(0, k, -1);
  const std::size_t erased =
      m.erase_many_if_version(0, keys.data(), vers.data(), keys.size());
  EXPECT_EQ(erased, 20u);
  for (std::uint64_t k = 0; k < 40; ++k)
    EXPECT_EQ(m.contains(0, k), k % 2 == 0) << "key " << k;
  EXPECT_EQ(m.erase_many_if_version(0, keys.data(), vers.data(), 0), 0u);
}

TEST(ShardedMapLease, ReadPathFiltersExpiredEntriesUnderVirtualClock) {
  VirtualClock clock(1000);
  ShardedMap<std::uint64_t, int> m(1, /*shards=*/4, &clock);
  m.put_versioned(0, 1, 10, /*expire_at_ns=*/2000);
  m.put(0, 2, 20);  // no lease: immortal

  EXPECT_EQ(m.get(0, 1).value_or(0), 10);
  clock.set(1999);
  EXPECT_TRUE(m.contains(0, 1));
  clock.set(2000);  // deadline is exclusive: expire_at <= now is dead
  EXPECT_FALSE(m.get(0, 1).has_value());
  EXPECT_FALSE(m.contains(0, 1));
  EXPECT_EQ(m.get(0, 2).value_or(0), 20);  // unleased entry unaffected
  // The entry is still physically present (lazy expiry) and still counted
  // by size() until the sweep erases it.
  EXPECT_TRUE(m.lease_of(0, 1).has_value());
  EXPECT_EQ(m.size(0), 2u);
  // get_many filters the same way.
  const auto got = m.get_many(0, {1, 2});
  EXPECT_FALSE(got[0].has_value());
  EXPECT_TRUE(got[1].has_value());
  // for_each skips expired entries too.
  std::size_t seen = 0;
  m.for_each(0, [&](std::uint64_t k, int) {
    EXPECT_EQ(k, 2u);
    ++seen;
  });
  EXPECT_EQ(seen, 1u);
}

TEST(ShardedMapLease, TouchNeverResurrectsAnExpiredEntry) {
  VirtualClock clock(0);
  ShardedMap<std::uint64_t, int> m(1, /*shards=*/2, &clock);
  m.put_versioned(0, 3, 30, 100);
  clock.set(100);
  EXPECT_FALSE(m.touch_version(0, 3, 500).has_value());
  EXPECT_FALSE(m.get(0, 3).has_value());
  EXPECT_FALSE(m.touch_version(0, 999, 500).has_value());  // absent key
  // A fresh put revives the key (new version, new lease).
  m.put_versioned(0, 3, 31, 500);
  EXPECT_EQ(m.get(0, 3).value_or(0), 31);
}

TEST(ShardedMapLease, ConcurrentRewritersAlwaysBeatStaleSweeps) {
  // Hammer the race the regression bar names: one thread keeps rewriting a
  // key set, another keeps firing stale compare-and-erases with versions
  // captured before the rewrites.  No live value may ever disappear.
  constexpr std::uint64_t kKeys = 16;
  constexpr int kRounds = 2000;
  ShardedMap<std::uint64_t, std::uint64_t> m(2, /*shards=*/4);
  std::vector<std::uint64_t> stale_vers(kKeys);
  for (std::uint64_t k = 0; k < kKeys; ++k)
    stale_vers[k] = m.put_versioned(0, k, k, 1);
  std::atomic<bool> go{false};
  std::thread sweeper([&] {
    while (!go.load()) {}
    std::vector<std::uint64_t> keys(kKeys);
    for (std::uint64_t k = 0; k < kKeys; ++k) keys[k] = k;
    for (int r = 0; r < kRounds; ++r)
      m.erase_many_if_version(1, keys.data(), stale_vers.data(), kKeys);
  });
  go.store(true);
  for (int r = 0; r < kRounds; ++r)
    for (std::uint64_t k = 0; k < kKeys; ++k) m.put(0, k, k + 1);
  sweeper.join();
  // Every key was rewritten (version bumped) before the sweeps ran their
  // stale versions, so nothing may have been deleted.
  for (std::uint64_t k = 0; k < kKeys; ++k)
    EXPECT_EQ(m.get(0, k).value_or(0), k + 1) << "key " << k;
}

}  // namespace
}  // namespace bjrw
