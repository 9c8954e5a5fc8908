// Shard→node placement for the serving runtime: which topology node owns
// which slice of the key space, and a NUMA-aware sharded map that routes
// every operation to its owning node's sub-map.
//
// Placement policy: the key space is cut into `nodes * shards_per_node`
// global shards and shard s is owned by node `s % nodes` — round-robin
// striping, so the zipfian head of a skewed workload spreads across nodes
// instead of piling onto whichever node owns the first shard block.  Keys
// are routed by a SplitMix64 re-mix of their hash before the modulus: the
// node decision and a sub-map's own `hash % local_shards` decision must not
// correlate (with identity-hashed integer keys, `k % nodes` and
// `k % local_shards` share factors and would leave local shards empty).
//
// NumaShardedMap composes one ShardedMap *per node* (extras/sharded_map.hpp
// unchanged: per-shard locks, striped size, deduplicated get_many) under
// that placement.  Node-local allocation is first-touch: each node's
// sub-map — shard tables, lock state, size stripes — is constructed by a
// thread pinned to that node, so on a real NUMA machine those pages are
// homed where the node's pinned workers (worker_pool.hpp) will touch them.
// Values inserted later follow the writer that inserts them, which the
// serving dispatch keeps node-local too.  The map itself is usable from any
// thread (a tid < topology.cpu_count()); executing node d's operations on
// node d's workers is the dispatch layer's job (server.hpp), not a
// correctness requirement here.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "src/core/locks.hpp"
#include "src/extras/sharded_map.hpp"
#include "src/harness/prng.hpp"
#include "src/harness/topology.hpp"
#include "src/rmr/provider.hpp"

namespace bjrw::serve {

// The placement policy object: total shard count and shard→node ownership.
class ShardPlacement {
 public:
  ShardPlacement(const Topology& topo, std::size_t shards_per_node)
      : nodes_(topo.node_count()),
        shards_(static_cast<std::size_t>(nodes_) *
                (shards_per_node < 1 ? 1 : shards_per_node)) {}

  int node_count() const { return nodes_; }
  std::size_t shard_count() const { return shards_; }

  // Round-robin striping (see header).  Total: every shard has an owner.
  int node_of_shard(std::size_t shard) const {
    return static_cast<int>(shard % static_cast<std::size_t>(nodes_));
  }

  // Decorrelating re-mix of a key hash into a global shard index.
  std::size_t shard_of_hash(std::uint64_t hash) const {
    return static_cast<std::size_t>(SplitMix64(hash).next()) % shards_;
  }

 private:
  int nodes_;
  std::size_t shards_;
};

// Reusable scratch for cross-request shard-group execution (the burst
// dataplane in server.hpp): a worker gathers the keys of every batched
// slice in a burst that lands on one owning node into `keys`, runs ONE
// get_many_into over the combined gather, and scatters `got` back per
// slice using the recorded [begin, end) bounds.  Plain vectors with
// persistent capacity — each worker keeps one per node in thread-local
// storage, so steady-state bursts allocate nothing.
template <class Key, class Value>
struct ShardGroupScratch {
  std::vector<Key> keys;                 // combined cross-request gather
  std::vector<std::optional<Value>> got;  // get_many_into results
  std::vector<std::uint32_t> slice;      // index into the burst, per slice
  std::vector<std::uint32_t> bounds;     // slice i covers keys[bounds[i]..bounds[i+1])

  void clear() {
    keys.clear();
    slice.clear();
    bounds.clear();
    bounds.push_back(0);
  }
  std::size_t slices() const { return slice.size(); }
};

template <class Key, class Value,
          ReaderWriterLock Lock = CohortWriterPriorityLock,
          class Hash = std::hash<Key>>
class NumaShardedMap {
 public:
  using SubMap = ShardedMap<Key, Value, Lock, Hash>;

  // `shards_per_node` trades memory for per-node write parallelism;
  // `node_local_alloc=false` is the node-oblivious baseline (everything
  // constructed by the calling thread — E18's control arm).  Valid tids for
  // all member functions are [0, topology.cpu_count()).
  // `clock` (optional) is forwarded to every sub-map to arm lazy lease
  // expiry on the read path (see ShardedMap); nullptr keeps leases
  // unfiltered.
  explicit NumaShardedMap(const Topology& topo,
                          std::size_t shards_per_node = 8,
                          bool node_local_alloc = true,
                          const ClockSource* clock = nullptr)
      : topo_(topo),
        placement_(topo_, shards_per_node),
        max_threads_(topo_.cpu_count() < 1 ? 1 : topo_.cpu_count()) {
    const int nodes = topo_.node_count();
    submaps_.resize(static_cast<std::size_t>(nodes));
    const std::size_t spn = shards_per_node < 1 ? 1 : shards_per_node;
    if (!node_local_alloc) {
      for (int d = 0; d < nodes; ++d)
        submaps_[idx(d)] = std::make_unique<SubMap>(max_threads_, spn, clock);
      return;
    }
    // First-touch: one builder thread per node, pinned to the node's first
    // CPU, constructs that node's sub-map.  Pinning is best-effort (false
    // on hosts narrower than a simulated topology); construction happens
    // either way.  Builders write disjoint vector slots; join() publishes.
    std::vector<std::thread> builders;
    builders.reserve(static_cast<std::size_t>(nodes));
    std::vector<int> first_tid(static_cast<std::size_t>(nodes), 0);
    int base = 0;
    for (int d = 0; d < nodes; ++d) {
      first_tid[idx(d)] = base;
      base += topo_.cpus_in_node(d);
    }
    for (int d = 0; d < nodes; ++d) {
      // A memory-only node has no CPU of its own to pin a builder to; its
      // sub-map is built (and first-touched) from the nearest CPU-bearing
      // node — the same node worker_pool.hpp routes its execution to.
      const int home = topo_.cpus_in_node(d) > 0 ? d : topo_.nearest_cpu_node(d);
      const int tid = home >= 0 ? first_tid[idx(home)] : 0;
      builders.emplace_back([this, d, tid, spn, clock] {
        (void)topo_.pin_this_thread(tid);
        submaps_[idx(d)] = std::make_unique<SubMap>(max_threads_, spn, clock);
      });
    }
    for (auto& t : builders) t.join();
  }

  // ---- placement observers --------------------------------------------------

  int node_count() const { return topo_.node_count(); }
  int max_threads() const { return max_threads_; }

  int node_of_key(const Key& key) const {
    return placement_.node_of_shard(placement_.shard_of_hash(
        static_cast<std::uint64_t>(hash_(key))));
  }

  SubMap& sub_map(int node) { return *submaps_[idx(node)]; }
  const SubMap& sub_map(int node) const { return *submaps_[idx(node)]; }

  // ---- routed operations ----------------------------------------------------

  std::optional<Value> get(int tid, const Key& key) const {
    return sub_map(node_of_key(key)).get(tid, key);
  }
  bool put(int tid, const Key& key, Value value) {
    return sub_map(node_of_key(key)).put(tid, key, std::move(value));
  }
  bool erase(int tid, const Key& key) {
    return sub_map(node_of_key(key)).erase(tid, key);
  }

  // Groups `keys[0..n)` by owning node: `order` receives the key indices
  // permuted so each node's keys are contiguous, `ranges[d]` the half-open
  // slice of `order` owned by node d.  Counting sort, two passes, no
  // allocation beyond the caller-reused vectors — this is the dispatch
  // primitive the server splits batches with.
  void group_by_node(
      const Key* keys, std::uint32_t n, std::vector<std::uint32_t>& order,
      std::vector<std::pair<std::uint32_t, std::uint32_t>>& ranges) const {
    const std::size_t nodes = static_cast<std::size_t>(node_count());
    ranges.assign(nodes, {0, 0});
    order.resize(n);
    if (nodes == 1) {
      for (std::uint32_t i = 0; i < n; ++i) order[i] = i;
      ranges[0] = {0, n};
      return;
    }
    // Pass 1 caches each key's owner so the hash + SplitMix64 re-mix runs
    // once per key, not once per pass (this is the dispatch path every
    // batched request takes).  Thread-local: capacity persists, and the
    // callers are client threads grouping their own batches.
    static thread_local std::vector<int> owner_of;
    owner_of.resize(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      owner_of[i] = node_of_key(keys[i]);
      ++ranges[idx(owner_of[i])].second;  // pass 1: counts
    }
    std::uint32_t start = 0;
    for (std::size_t d = 0; d < nodes; ++d) {
      const std::uint32_t count = ranges[d].second;
      ranges[d] = {start, start};  // end advances in pass 2
      start += count;
    }
    for (std::uint32_t i = 0; i < n; ++i)
      order[ranges[idx(owner_of[i])].second++] = i;
  }

  // Bulk lookup routed per node: results[i] corresponds to keys[i].  Each
  // owning node's slice goes through its sub-map's deduplicated get_many.
  // (The serving runtime does the same split but executes each slice on the
  // owning node's pinned pool; this inline version is the direct-call path.)
  std::vector<std::optional<Value>> get_many(
      int tid, const std::vector<Key>& keys) const {
    std::vector<std::optional<Value>> out(keys.size());
    if (keys.empty()) return out;
    std::vector<std::uint32_t> order;
    std::vector<std::pair<std::uint32_t, std::uint32_t>> ranges;
    group_by_node(keys.data(), static_cast<std::uint32_t>(keys.size()), order,
                  ranges);
    std::vector<Key> gathered;
    for (std::size_t d = 0; d < ranges.size(); ++d) {
      const auto [begin, end] = ranges[d];
      if (begin == end) continue;
      gathered.clear();
      gathered.reserve(end - begin);
      for (std::uint32_t k = begin; k < end; ++k)
        gathered.push_back(keys[order[k]]);
      auto got = sub_map(static_cast<int>(d)).get_many(tid, gathered);
      for (std::uint32_t k = begin; k < end; ++k)
        out[order[k]] = std::move(got[k - begin]);
    }
    return out;
  }

  // Entry count over every node (ShardedMap::size() contract).
  std::size_t size(int /*tid*/ = 0) const {
    std::size_t total = 0;
    for (const auto& m : submaps_) total += m->size();
    return total;
  }

 private:
  const Topology topo_;
  ShardPlacement placement_;
  int max_threads_;
  Hash hash_;
  std::vector<std::unique_ptr<SubMap>> submaps_;
};

}  // namespace bjrw::serve
