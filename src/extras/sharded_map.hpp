// ShardedMap: a serving-grade concurrent hash map built on the library's
// reader-writer locks — the downstream artifact the paper's introduction
// motivates ("reader-writer locks are used extensively ... to implement
// shared data structures, where processes whose operations modify the state
// are modeled as writers and processes that merely sense the state as
// readers").
//
// Keys are partitioned over S shards; each shard pairs a std::unordered_map
// with one lock.  Lookups take the shard's read lock, mutations its write
// lock, so readers of different keys never serialize and readers of the
// same shard share the critical section (concurrent entering, P5).
//
// Serving-grade features on top of the basic map:
//
//  * The lock type is a template parameter constrained to ReaderWriterLock,
//    so the per-shard lock is selectable per deployment: the default
//    `WriterPriorityLock` (Theorem 5) keeps bursts of updates from being
//    starved by lookup floods; `DistWriterPriorityLock` makes the lookup
//    fast path a purely local operation for read-mostly serving (E15 and
//    E17 measure the difference).
//
//  * Striped statistics, striped the same way the load is: hit/miss
//    counters (bumped on the *read* path) are striped per thread — each
//    lookup RMWs only its own padded line, so stat upkeep never undoes the
//    distributed-reader lock's local fast path.  Size/put/erase counters
//    (write-path only) are striped per shard and mutated under the shard's
//    write lock.  `size()` and `stats()` sum the stripes — exact at
//    quiescence, momentarily approximate under concurrent mutation (the
//    usual striped-counter contract).
//
//  * Bulk lookups: `get_many` groups keys by shard and takes each shard's
//    read lock once per batch, amortizing lock traffic for the
//    multi-get-heavy serving workloads (perfbench's read_batch).
//
//  * Leases (src/expiry/): every entry carries a shard-monotone version
//    and an optional expiry deadline.  `put_versioned`/`touch_version`
//    stamp a fresh version and deadline; the expiry sweep deletes through
//    `erase_if_version`/`erase_many_if_version` compare-and-erase, so a
//    key rewritten after its expiry was scheduled is never deleted by a
//    stale sweep (the rewrite bumped the version).  When the map is
//    constructed with a ClockSource, the read path filters expired entries
//    (memcached-style lazy expiry): an expired key is never served, no
//    matter how far the background sweep is lagging — which also makes the
//    guarantee deterministic under a VirtualClock.  Plain put/update/
//    put_if_absent clear any lease (a non-TTL mutation cancels it).
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "src/core/locks.hpp"
#include "src/harness/timing.hpp"

namespace bjrw {

// Aggregate of the striped per-shard counters (see ShardedMap::stats).
struct MapStats {
  std::uint64_t size = 0;    // live entries (incl. expired-not-yet-swept)
  std::uint64_t hits = 0;    // get/contains/get_many that found the key
  std::uint64_t misses = 0;  // ... that did not (incl. lease-expired)
  std::uint64_t puts = 0;    // put/put_if_absent/update calls that mutated
  std::uint64_t erases = 0;  // successful erase calls
  std::uint64_t expired_reads = 0;  // reads filtered by an expired lease
};

template <class Key, class Value, ReaderWriterLock Lock = WriterPriorityLock,
          class Hash = std::hash<Key>>
class ShardedMap {
 public:
  // `max_threads` bounds the tids passed to the member functions (same
  // contract as the locks); `shards` trades memory for write parallelism.
  // `clock` (optional) arms lazy lease expiry on the read path; without it
  // leases are still versioned/erasable but reads serve entries past their
  // deadline until the sweep removes them.
  explicit ShardedMap(int max_threads, std::size_t shards = 16,
                      const ClockSource* clock = nullptr)
      : hash_(),
        clock_(clock),
        read_stats_(std::make_unique<ReadStats[]>(
            static_cast<std::size_t>(max_threads))),
        max_threads_(max_threads) {
    shards_.reserve(shards);
    for (std::size_t i = 0; i < shards; ++i)
      shards_.push_back(std::make_unique<Shard>(max_threads));
  }

  // Returns the value if present and not lease-expired (copied out under
  // the read lock).
  std::optional<Value> get(int tid, const Key& key) const {
    const Shard& s = shard(key);
    ReadGuard g(s.lock, tid);
    const auto it = s.map.find(key);
    if (it == s.map.end()) {
      bump_miss(tid, 1);
      return std::nullopt;
    }
    if (!alive(it->second)) {
      bump_expired(tid, 1);
      return std::nullopt;
    }
    bump_hit(tid, 1);
    return it->second.value;
  }

  bool contains(int tid, const Key& key) const {
    const Shard& s = shard(key);
    ReadGuard g(s.lock, tid);
    const auto it = s.map.find(key);
    if (it == s.map.end()) {
      bump_miss(tid, 1);
      return false;
    }
    if (!alive(it->second)) {
      bump_expired(tid, 1);
      return false;
    }
    bump_hit(tid, 1);
    return true;
  }

  // Bulk lookup: results[i] corresponds to keys[i].  Keys are grouped by
  // shard so each shard's read lock is taken *exactly once per distinct
  // shard* per call — never once per key (sharded_map_test pins that
  // contract with a counting lock) — and within a shard the lookups share
  // one reader critical section (P5 at work).  A key repeated inside a
  // shard group reuses the immediately preceding lookup instead of probing
  // the table again (zipfian serving batches repeat the hot keys).
  // Serving-sized batches (<= kSmallBatch keys) are grouped in place with a
  // stack bitmask — no allocation beyond the result vector; larger batches
  // fall back to per-shard index buckets.
  std::vector<std::optional<Value>> get_many(
      int tid, const std::vector<Key>& keys) const {
    std::vector<std::optional<Value>> out(keys.size());
    get_many_into(tid, keys.data(), keys.size(), out.data());
    return out;
  }

  // Allocation-free variant for serving hot paths (src/serve/ workers reuse
  // their scratch across requests): resolves keys[0..n) into out[0..n),
  // same grouping/dedup contract as get_many.
  void get_many_into(int tid, const Key* keys, std::size_t n,
                     std::optional<Value>* out) const {
    if (n == 0) return;
    std::uint64_t hits = 0, misses = 0, expired = 0;
    const Key* prev_key = nullptr;            // last key resolved in the
    const std::optional<Value>* prev_out = nullptr;  // current shard group
    const auto resolve = [&](const Shard& s, std::size_t j) {
      if (prev_key && keys[j] == *prev_key) {
        out[j] = *prev_out;  // duplicate: no second table probe
        if (out[j]) {
          ++hits;
        } else {
          ++misses;
        }
      } else {
        lookup_into(s, keys[j], &out[j], &hits, &misses, &expired);
      }
      prev_key = &keys[j];
      prev_out = &out[j];
    };
    if (n <= kSmallBatch) {
      std::array<std::size_t, kSmallBatch> shard_of{};
      for (std::size_t i = 0; i < n; ++i) shard_of[i] = shard_index(keys[i]);
      std::uint64_t done = 0;  // bit i: keys[i] already resolved
      for (std::size_t i = 0; i < n; ++i) {
        if (done & (1ULL << i)) continue;
        const Shard& s = *shards_[shard_of[i]];
        ReadGuard g(s.lock, tid);
        prev_key = nullptr;
        for (std::size_t j = i; j < n; ++j) {
          if ((done & (1ULL << j)) || shard_of[j] != shard_of[i]) continue;
          done |= 1ULL << j;
          resolve(s, j);
        }
      }
    } else {
      std::vector<std::vector<std::size_t>> by_shard(shards_.size());
      for (std::size_t i = 0; i < n; ++i)
        by_shard[shard_index(keys[i])].push_back(i);
      for (std::size_t si = 0; si < by_shard.size(); ++si) {
        if (by_shard[si].empty()) continue;
        const Shard& s = *shards_[si];
        ReadGuard g(s.lock, tid);
        prev_key = nullptr;
        for (const std::size_t i : by_shard[si]) resolve(s, i);
      }
    }
    if (hits) bump_hit(tid, hits);
    if (misses) bump_miss(tid, misses);
    if (expired) bump_expired(tid, expired);
  }

  // Inserts or overwrites; returns true if the key was newly inserted.
  // A plain put cancels any lease on the key: the fresh version makes a
  // pending expiry sweep stale, and the cleared deadline stops the read
  // filter.
  bool put(int tid, const Key& key, Value value) {
    Shard& s = shard(key);
    WriteGuard g(s.lock, tid);
    const bool inserted =
        s.map.insert_or_assign(key, Entry{std::move(value), s.next_version++, 0})
            .second;
    s.stats.puts.fetch_add(1, std::memory_order_relaxed);
    if (inserted) s.stats.size.fetch_add(1, std::memory_order_relaxed);
    return inserted;
  }

  // Inserts only if absent; returns true on insertion.
  bool put_if_absent(int tid, const Key& key, Value value) {
    Shard& s = shard(key);
    WriteGuard g(s.lock, tid);
    const bool inserted =
        s.map.emplace(key, Entry{std::move(value), s.next_version, 0}).second;
    if (inserted) {
      ++s.next_version;
      s.stats.puts.fetch_add(1, std::memory_order_relaxed);
      s.stats.size.fetch_add(1, std::memory_order_relaxed);
    }
    return inserted;
  }

  // Leased put: inserts or overwrites with an expiry deadline (absolute
  // nanoseconds on the map's clock; 0 = no lease) and returns the freshly
  // stamped version.  The caller schedules {key, version, deadline} on the
  // expiry wheel; the sweep later deletes via erase_if_version, so any
  // intervening mutation (which bumps the version) wins over the sweep.
  std::uint64_t put_versioned(int tid, const Key& key, Value value,
                              std::uint64_t expire_at_ns) {
    Shard& s = shard(key);
    WriteGuard g(s.lock, tid);
    const std::uint64_t ver = s.next_version++;
    const bool inserted =
        s.map.insert_or_assign(key, Entry{std::move(value), ver, expire_at_ns})
            .second;
    s.stats.puts.fetch_add(1, std::memory_order_relaxed);
    if (inserted) s.stats.size.fetch_add(1, std::memory_order_relaxed);
    return ver;
  }

  // Extends the lease of a live entry without touching its value: bumps
  // the version (invalidating the previously scheduled expiry) and sets
  // the new deadline.  Returns the new version, or nullopt if the key is
  // absent or already lease-expired (touch never resurrects).
  std::optional<std::uint64_t> touch_version(int tid, const Key& key,
                                             std::uint64_t expire_at_ns) {
    Shard& s = shard(key);
    WriteGuard g(s.lock, tid);
    const auto it = s.map.find(key);
    if (it == s.map.end() || !alive(it->second)) return std::nullopt;
    it->second.version = s.next_version++;
    it->second.expire_at_ns = expire_at_ns;
    s.stats.puts.fetch_add(1, std::memory_order_relaxed);
    return it->second.version;
  }

  bool erase(int tid, const Key& key) {
    Shard& s = shard(key);
    WriteGuard g(s.lock, tid);
    const bool erased = s.map.erase(key) > 0;
    if (erased) {
      s.stats.erases.fetch_add(1, std::memory_order_relaxed);
      s.stats.size.fetch_sub(1, std::memory_order_relaxed);
    }
    return erased;
  }

  // Compare-and-erase: erases only if the entry still carries `version`.
  // The expiry sweep's deletion primitive — a stale sweep (the key was
  // rewritten or touched since scheduling) is a no-op.
  bool erase_if_version(int tid, const Key& key, std::uint64_t version) {
    Shard& s = shard(key);
    WriteGuard g(s.lock, tid);
    return erase_if_version_locked(s, key, version);
  }

  // Bulk compare-and-erase for the sweeper's harvest batches: indices are
  // grouped by shard and each shard's *write* lock is taken exactly once
  // per distinct shard per call — one lock epoch per shard group, the
  // write-side mirror of get_many_into.  Returns the number erased;
  // `n - erased` is the batch's stale-skip count.
  std::size_t erase_many_if_version(int tid, const Key* keys,
                                    const std::uint64_t* versions,
                                    std::size_t n) {
    if (n == 0) return 0;
    std::size_t erased = 0;
    static thread_local std::vector<std::vector<std::size_t>> by_shard;
    by_shard.resize(shards_.size());
    for (auto& b : by_shard) b.clear();
    for (std::size_t i = 0; i < n; ++i)
      by_shard[shard_index(keys[i])].push_back(i);
    for (std::size_t si = 0; si < by_shard.size(); ++si) {
      if (by_shard[si].empty()) continue;
      Shard& s = *shards_[si];
      WriteGuard g(s.lock, tid);
      for (const std::size_t i : by_shard[si]) {
        if (erase_if_version_locked(s, keys[i], versions[i])) ++erased;
      }
    }
    return erased;
  }

  // Read-modify-write of a single key under the shard's write lock.
  // `fn` receives a reference to the value (default-constructed if absent).
  // Like plain put, an update cancels any lease on the key.
  template <class Fn>
  void update(int tid, const Key& key, Fn&& fn) {
    Shard& s = shard(key);
    WriteGuard g(s.lock, tid);
    const std::size_t before = s.map.size();
    Entry& e = s.map[key];
    fn(e.value);
    e.version = s.next_version++;
    e.expire_at_ns = 0;
    s.stats.puts.fetch_add(1, std::memory_order_relaxed);
    if (s.map.size() != before)
      s.stats.size.fetch_add(1, std::memory_order_relaxed);
  }

  // Applies `fn(key, value)` to every non-expired element, shard by shard,
  // under read locks.  Not a snapshot: concurrent mutations to
  // not-yet-visited shards are observable (the usual sharded-container
  // contract).
  template <class Fn>
  void for_each(int tid, Fn&& fn) const {
    for (const auto& s : shards_) {
      ReadGuard g(s->lock, tid);
      for (const auto& [k, e] : s->map) {
        if (alive(e)) fn(k, e.value);
      }
    }
  }

  // Raw lease observer for tests/debugging: {version, expire_at_ns} of the
  // physical entry, with NO expiry filtering.
  std::optional<std::pair<std::uint64_t, std::uint64_t>> lease_of(
      int tid, const Key& key) const {
    const Shard& s = shard(key);
    ReadGuard g(s.lock, tid);
    const auto it = s.map.find(key);
    if (it == s.map.end()) return std::nullopt;
    return std::make_pair(it->second.version, it->second.expire_at_ns);
  }

  // Striped size: sums the per-shard counters without taking any lock —
  // exact at quiescence (each stripe is maintained under its shard's write
  // lock), approximate while mutations are in flight.  Counts physical
  // entries, including expired-but-not-yet-swept ones.
  std::size_t size(int /*tid*/ = 0) const {
    std::uint64_t total = 0;
    for (const auto& s : shards_)
      total += s->stats.size.load(std::memory_order_relaxed);
    return static_cast<std::size_t>(total);
  }

  // Aggregated striped statistics (same consistency contract as size()).
  MapStats stats(int /*tid*/ = 0) const {
    MapStats m;
    for (const auto& s : shards_) {
      m.size += s->stats.size.load(std::memory_order_relaxed);
      m.puts += s->stats.puts.load(std::memory_order_relaxed);
      m.erases += s->stats.erases.load(std::memory_order_relaxed);
    }
    for (int t = 0; t < max_threads_; ++t) {
      m.hits += read_stats_[idx(t)].hits.load(std::memory_order_relaxed);
      m.misses += read_stats_[idx(t)].misses.load(std::memory_order_relaxed);
      m.expired_reads +=
          read_stats_[idx(t)].expired.load(std::memory_order_relaxed);
    }
    m.misses += m.expired_reads;  // an expired read is a miss to the caller
    return m;
  }

  std::size_t shard_count() const { return shards_.size(); }

  // Per-shard lock access for runtime observers (src/serve/ aggregates the
  // cohort handoff/preemption counters across a node's shard locks).  The
  // non-const overload lets tests hold a shard's write lock directly to
  // choreograph a blocked worker deterministically.
  const Lock& shard_lock(std::size_t i) const { return shards_[i]->lock; }
  Lock& shard_lock(std::size_t i) { return shards_[i]->lock; }

 private:
  static constexpr std::size_t kSmallBatch = 64;  // bits in the done mask

  // The stored entry: value + lease metadata.  `version` is monotone per
  // shard and bumped under the write lock by every mutating call;
  // `expire_at_ns` 0 means no lease.
  struct Entry {
    Value value;
    std::uint64_t version = 0;
    std::uint64_t expire_at_ns = 0;
  };

  // Write-path stripe, one per shard: size/puts/erases are only written
  // under the shard's write lock but are read lock-free by size()/stats(),
  // so they are atomics; padded so neighbouring shards never share a line.
  struct alignas(64) ShardStats {
    std::atomic<std::uint64_t> size{0};
    std::atomic<std::uint64_t> puts{0};
    std::atomic<std::uint64_t> erases{0};
  };

  // Read-path stripe, one per thread: hit/miss upkeep must not put a shared
  // RMW on the lookup path (that would undo the distributed-reader lock's
  // local fast path), so each tid bumps only its own padded line.
  struct alignas(64) ReadStats {
    std::atomic<std::uint64_t> hits{0};
    std::atomic<std::uint64_t> misses{0};
    std::atomic<std::uint64_t> expired{0};
  };

  struct Shard {
    explicit Shard(int max_threads) : lock(max_threads) {}
    mutable Lock lock;
    std::unordered_map<Key, Entry, Hash> map;
    std::uint64_t next_version = 1;  // guarded by lock (write side)
    mutable ShardStats stats;
  };

  // Lease liveness under the map's clock (no clock = everything alive).
  bool alive(const Entry& e) const {
    return e.expire_at_ns == 0 || clock_ == nullptr ||
           e.expire_at_ns > clock_->now_ns();
  }

  bool erase_if_version_locked(Shard& s, const Key& key,
                               std::uint64_t version) {
    const auto it = s.map.find(key);
    if (it == s.map.end() || it->second.version != version) return false;
    s.map.erase(it);
    s.stats.erases.fetch_add(1, std::memory_order_relaxed);
    s.stats.size.fetch_sub(1, std::memory_order_relaxed);
    return true;
  }

  void bump_hit(int tid, std::uint64_t n) const {
    read_stats_[idx(tid)].hits.fetch_add(n, std::memory_order_relaxed);
  }
  void bump_miss(int tid, std::uint64_t n) const {
    read_stats_[idx(tid)].misses.fetch_add(n, std::memory_order_relaxed);
  }
  void bump_expired(int tid, std::uint64_t n) const {
    read_stats_[idx(tid)].expired.fetch_add(n, std::memory_order_relaxed);
  }

  // One lookup in shard `s` (whose read lock the caller holds) into `*slot`.
  void lookup_into(const Shard& s, const Key& key, std::optional<Value>* slot,
                   std::uint64_t* hits, std::uint64_t* misses,
                   std::uint64_t* expired) const {
    const auto it = s.map.find(key);
    if (it == s.map.end()) {
      ++*misses;
    } else if (!alive(it->second)) {
      ++*expired;
    } else {
      *slot = it->second.value;
      ++*hits;
    }
  }

  std::size_t shard_index(const Key& key) const {
    return hash_(key) % shards_.size();
  }
  Shard& shard(const Key& key) { return *shards_[shard_index(key)]; }
  const Shard& shard(const Key& key) const {
    return *shards_[shard_index(key)];
  }

  Hash hash_;
  const ClockSource* clock_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::unique_ptr<ReadStats[]> read_stats_;  // per-tid hit/miss stripes
  int max_threads_;
};

}  // namespace bjrw
