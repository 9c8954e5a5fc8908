// Tier-1 suite for the serving runtime (src/serve/):
//  * ShardPlacement / NumaShardedMap — shard→node mapping total and stable
//    across simulated 1/2/4-node topologies, batch grouping is a partition,
//    routed operations agree with direct ones;
//  * BoundedMpmcQueue — FIFO, bounded, empty/full edges;
//  * WorkerPool — work lands on the pool of the node it was submitted to,
//    with tids the topology maps to that node; graceful shutdown drains
//    queued items and refuses later submissions;
//  * KvServer — end-to-end correctness, node-local routing observed in the
//    per-node stats, shutdown completes in-flight requests.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "src/core/locks.hpp"
#include "src/harness/thread_coord.hpp"
#include "src/harness/topology.hpp"
#include "src/serve/placement.hpp"
#include "src/serve/request.hpp"
#include "src/serve/server.hpp"
#include "src/serve/worker_pool.hpp"

namespace bjrw {
namespace {

using serve::AdmitResult;
using serve::BoundedMpmcQueue;
using serve::kMaxQueueCapacity;
using serve::KvServer;
using serve::NumaShardedMap;
using serve::Request;
using serve::RequestKind;
using serve::ServeConfig;
using serve::ShardPlacement;
using serve::SubRequest;
using serve::WorkerPool;

// ---- placement --------------------------------------------------------------

TEST(ShardPlacement, MappingIsTotalStableAndCoversAllNodes) {
  for (const auto& [nodes, cpus] : {std::pair{1, 4}, {2, 4}, {4, 2}}) {
    const Topology topo = Topology::simulated(nodes, cpus);
    const ShardPlacement p(topo, /*shards_per_node=*/8);
    EXPECT_EQ(p.node_count(), nodes);
    EXPECT_EQ(p.shard_count(), static_cast<std::size_t>(nodes) * 8);
    std::set<int> owners;
    for (std::size_t s = 0; s < p.shard_count(); ++s) {
      const int owner = p.node_of_shard(s);
      ASSERT_GE(owner, 0);
      ASSERT_LT(owner, nodes);
      EXPECT_EQ(owner, p.node_of_shard(s)) << "unstable mapping at " << s;
      owners.insert(owner);
    }
    EXPECT_EQ(static_cast<int>(owners.size()), nodes)
        << "some node owns no shard at " << nodes << "x" << cpus;
    for (std::uint64_t h = 0; h < 1000; ++h)
      ASSERT_LT(p.shard_of_hash(h * 0x9E3779B97F4A7C15ULL), p.shard_count());
  }
}

TEST(NumaShardedMap, KeyRoutingIsStableAndGroupingPartitionsTheBatch) {
  for (const auto& [nodes, cpus] : {std::pair{1, 8}, {2, 4}, {4, 2}}) {
    const Topology topo = Topology::simulated(nodes, cpus);
    NumaShardedMap<std::uint64_t, std::uint64_t, WriterPriorityLock> map(
        topo, /*shards_per_node=*/4);
    std::vector<std::uint64_t> keys;
    for (std::uint64_t k = 0; k < 257; ++k) keys.push_back(k * k + 1);

    std::vector<std::uint32_t> order;
    std::vector<std::pair<std::uint32_t, std::uint32_t>> ranges;
    map.group_by_node(keys.data(), static_cast<std::uint32_t>(keys.size()),
                      order, ranges);
    ASSERT_EQ(ranges.size(), static_cast<std::size_t>(nodes));
    ASSERT_EQ(order.size(), keys.size());

    // `order` is a permutation of [0, n) and every range slice holds
    // exactly the keys whose stable owner is that node.
    std::set<std::uint32_t> seen;
    std::uint32_t covered = 0;
    for (std::size_t d = 0; d < ranges.size(); ++d) {
      const auto [begin, end] = ranges[d];
      ASSERT_LE(begin, end);
      covered += end - begin;
      for (std::uint32_t k = begin; k < end; ++k) {
        ASSERT_TRUE(seen.insert(order[k]).second);
        EXPECT_EQ(map.node_of_key(keys[order[k]]), static_cast<int>(d));
        EXPECT_EQ(map.node_of_key(keys[order[k]]),
                  map.node_of_key(keys[order[k]]));
      }
    }
    EXPECT_EQ(covered, keys.size());
  }
}

TEST(NumaShardedMap, RoutedOperationsAgreeWithDirectSubMapState) {
  const Topology topo = Topology::simulated(2, 4);
  for (const bool first_touch : {true, false}) {
    NumaShardedMap<std::uint64_t, std::uint64_t, WriterPriorityLock> map(
        topo, 4, first_touch);
    for (std::uint64_t k = 0; k < 500; ++k)
      EXPECT_TRUE(map.put(0, k, 3 * k));
    EXPECT_EQ(map.size(), 500u);
    std::vector<std::uint64_t> keys;
    for (std::uint64_t k = 0; k < 600; ++k) keys.push_back(k);
    const auto got = map.get_many(1, keys);
    for (std::uint64_t k = 0; k < 600; ++k) {
      ASSERT_EQ(got[k].has_value(), k < 500) << "key " << k;
      if (got[k]) {
        EXPECT_EQ(*got[k], 3 * k);
      }
      ASSERT_EQ(map.get(2, k).has_value(), k < 500);
    }
    EXPECT_TRUE(map.erase(3, 7));
    EXPECT_FALSE(map.erase(3, 7));
    EXPECT_FALSE(map.get(0, 7).has_value());
    EXPECT_EQ(map.size(), 499u);
    // Each put landed once, in its owner's sub-map only: the sub-maps
    // partition the keys, and their entries add up to the routed size.
    std::size_t entries = 0;
    for (int d = 0; d < map.node_count(); ++d) {
      map.sub_map(d).for_each(0, [&](std::uint64_t k, std::uint64_t v) {
        EXPECT_EQ(map.node_of_key(k), d) << "key " << k;
        EXPECT_EQ(v, 3 * k);
        ++entries;
      });
    }
    EXPECT_EQ(entries, 499u);
  }
}

// ---- bounded MPMC queue -----------------------------------------------------

TEST(BoundedMpmcQueue, CapacityAboveTheLargestPowerOfTwoThrows) {
  // Constructed directly, without ServeConfig's gate in front: the round-up
  // to a power of two has no answer past 2^63, and the constructor must
  // refuse such a capacity rather than loop or wrap.
  EXPECT_THROW(BoundedMpmcQueue<int>{SIZE_MAX}, std::invalid_argument);
  EXPECT_THROW(BoundedMpmcQueue<int>{kMaxQueueCapacity + 1},
               std::invalid_argument);
  EXPECT_EQ(kMaxQueueCapacity, std::size_t{1} << 63);
}

TEST(BoundedMpmcQueue, FifoBoundedAndEdgeConditions) {
  BoundedMpmcQueue<int> q(/*capacity=*/5);  // rounds up to 8
  EXPECT_EQ(q.capacity(), 8u);
  int out = 0;
  EXPECT_EQ(q.try_pop_bulk(&out, 1), 0u);  // empty
  for (int i = 0; i < 8; ++i) EXPECT_EQ(q.try_push_bulk(&i, 1), 1u);
  const int extra = 99;
  EXPECT_EQ(q.try_push_bulk(&extra, 1), 0u);  // full
  for (int i = 0; i < 8; ++i) {
    ASSERT_EQ(q.try_pop_bulk(&out, 1), 1u);
    EXPECT_EQ(out, i);  // FIFO
  }
  EXPECT_EQ(q.try_pop_bulk(&out, 1), 0u);
  // Wrap several laps to exercise the sequence-number arithmetic.
  for (int lap = 0; lap < 5; ++lap) {
    for (int i = 0; i < 6; ++i) {
      const int v = lap * 10 + i;
      ASSERT_EQ(q.try_push_bulk(&v, 1), 1u);
    }
    for (int i = 0; i < 6; ++i) {
      ASSERT_EQ(q.try_pop_bulk(&out, 1), 1u);
      EXPECT_EQ(out, lap * 10 + i);
    }
  }
}

// ---- worker pool ------------------------------------------------------------

// One item through the pool's only publish call; true when it published.
bool submit_one(WorkerPool<int>& pool, int node, int item) {
  return pool.submit_many(node, &item, 1) == 1;
}

TEST(WorkerPool, WorkRunsOnTheSubmittedNodeWithNodeMappedTids) {
  const Topology topo = Topology::simulated(2, 4);
  struct Seen {
    std::atomic<int> node{-1};
    std::atomic<int> tid{-1};
  };
  std::vector<std::unique_ptr<Seen>> seen;
  for (int i = 0; i < 40; ++i) seen.push_back(std::make_unique<Seen>());
  std::atomic<std::uint64_t> executed{0};

  WorkerPool<int> pool(
      topo,
      ServeConfig{}.with_workers(2).with_queue_capacity(64).with_pin(true),
      [&](int tid, int node, int* items, std::size_t n) {
        for (std::size_t i = 0; i < n; ++i) {
          seen[static_cast<std::size_t>(items[i])]->node.store(node);
          seen[static_cast<std::size_t>(items[i])]->tid.store(tid);
        }
        executed.fetch_add(n);
      });
  EXPECT_EQ(pool.node_count(), 2);
  EXPECT_EQ(pool.workers_per_node(), 2);
  for (int i = 0; i < 40; ++i)
    EXPECT_TRUE(submit_one(pool, i % 2, i));
  pool.shutdown();

  for (int i = 0; i < 40; ++i) {
    const int node = seen[static_cast<std::size_t>(i)]->node.load();
    const int tid = seen[static_cast<std::size_t>(i)]->tid.load();
    ASSERT_EQ(node, i % 2) << "item " << i << " ran on the wrong pool";
    // The executing tid maps back to the node it executed for.
    EXPECT_EQ(topo.node_of_tid(tid), node);
  }
  EXPECT_EQ(executed.load(), 40u);
}

TEST(WorkerPool, GracefulShutdownDrainsQueuedItemsAndRefusesNewOnes) {
  const Topology topo = Topology::simulated(2, 2);
  std::atomic<std::uint64_t> sum{0};
  auto pool = std::make_unique<WorkerPool<int>>(
      topo,
      ServeConfig{}.with_workers(1).with_queue_capacity(256).with_pin(false),
      [&](int, int, int* items, std::size_t n) {
        std::this_thread::yield();  // let the queue back up
        for (std::size_t i = 0; i < n; ++i)
          sum.fetch_add(static_cast<std::uint64_t>(items[i]));
      });
  std::uint64_t expect = 0;
  for (int i = 1; i <= 100; ++i) {
    ASSERT_TRUE(submit_one(*pool, i % 2, i));
    expect += static_cast<std::uint64_t>(i);
  }
  pool->shutdown();  // must drain all 100, not drop the queued tail
  EXPECT_EQ(sum.load(), expect);
  EXPECT_FALSE(submit_one(*pool, 0, 7))
      << "submit after shutdown must refuse";
  EXPECT_EQ(sum.load(), expect);
  pool.reset();  // double-shutdown via destructor is fine
}

TEST(WorkerPool, ClampsWidthToTheNarrowestNode) {
  const Topology topo = Topology::simulated(2, 2);
  WorkerPool<int> pool(
      topo,
      ServeConfig{}.with_workers(8).with_queue_capacity(16).with_pin(false),
      [](int, int, int*, std::size_t) {});
  // 8 requested, but node width is 2: wider pools would hand out tids the
  // topology maps to *other* nodes.
  EXPECT_EQ(pool.workers_per_node(), 2);
  EXPECT_EQ(topo.node_of_tid(pool.worker_tid(1, 1)), 1);
  pool.shutdown();
}

// ---- KvServer ---------------------------------------------------------------

template <class Lock>
void roundtrip_trial(bool node_local) {
  const Topology topo = Topology::simulated(2, 4);
  const ServeConfig cfg = ServeConfig{}
                              .with_workers(2)
                              .with_dispatch(node_local)
                              .with_alloc(node_local);
  KvServer<Lock> server(topo, cfg);

  for (std::uint64_t k = 0; k < 200; ++k) server.put(k, k + 1000);
  EXPECT_EQ(server.map().size(), 200u);
  for (std::uint64_t k = 0; k < 200; k += 17) {
    const auto v = server.get(k);
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, k + 1000);
  }
  EXPECT_FALSE(server.get(9999).has_value());

  std::vector<std::uint64_t> keys;
  for (std::uint64_t k = 150; k < 250; ++k) keys.push_back(k);
  std::vector<std::optional<std::uint64_t>> out(keys.size());
  const std::uint64_t hits = server.get_many(keys, out.data());
  EXPECT_EQ(hits, 50u);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    ASSERT_EQ(out[i].has_value(), keys[i] < 200) << "key " << keys[i];
    if (out[i]) {
      EXPECT_EQ(*out[i], keys[i] + 1000);
    }
  }

  EXPECT_TRUE(server.erase(0));
  EXPECT_FALSE(server.erase(0));
  server.shutdown();
}

TEST(KvServer, RoundtripsUnderBothDispatchArms) {
  roundtrip_trial<CohortWriterPriorityLock>(true);
  roundtrip_trial<CohortWriterPriorityLock>(false);
  roundtrip_trial<CohortStarvationFreeLock>(true);
  roundtrip_trial<WriterPriorityLock>(true);  // non-cohort locks serve too
}

TEST(KvServer, NodeLocalDispatchRunsBatchesOnlyOnOwningPools) {
  const Topology topo = Topology::simulated(2, 4);
  KvServer<CohortWriterPriorityLock> server(topo,
                                            ServeConfig{}.with_workers(2));

  // Collect keys owned by node 1 only (preload goes through map(), so the
  // pools see no traffic before the batch).
  std::vector<std::uint64_t> node1_keys;
  for (std::uint64_t k = 0; node1_keys.size() < 32; ++k)
    if (server.map().node_of_key(k) == 1) node1_keys.push_back(k);
  for (const std::uint64_t k : node1_keys) server.map().put(0, k, k);

  const std::uint64_t hits = server.get_many(node1_keys);
  EXPECT_EQ(hits, node1_keys.size());
  server.shutdown();
  const serve::NodeServeStats n0 = server.node_stats(0);
  const serve::NodeServeStats n1 = server.node_stats(1);
  EXPECT_EQ(n0.ops, 0u) << "node 0's pool saw node 1's keys";
  EXPECT_EQ(n1.ops, node1_keys.size());
  EXPECT_EQ(n1.completed, 1u);
  EXPECT_GT(n1.latency_mean_ns, 0.0);
}

TEST(KvServer, ShutdownCompletesInFlightRequestsAndRefusesNewOnes) {
  const Topology topo = Topology::simulated(2, 4);
  KvServer<CohortWriterPriorityLock> server(
      topo, ServeConfig{}.with_workers(1).with_queue_capacity(512));
  for (std::uint64_t k = 0; k < 64; ++k) server.map().put(0, k, 7 * k);

  // Pile up async batches, then shut down with them in flight: every
  // submitted request must still complete with correct results.
  constexpr int kRequests = 60;
  std::vector<std::uint64_t> keys;
  for (std::uint64_t k = 0; k < 64; ++k) keys.push_back(k);
  std::vector<std::unique_ptr<Request>> reqs;
  std::vector<std::vector<std::optional<std::uint64_t>>> outs(kRequests);
  for (int r = 0; r < kRequests; ++r) {
    auto req = std::make_unique<Request>();
    req->kind = RequestKind::kGetBatch;
    req->keys = keys.data();
    req->key_count = static_cast<std::uint32_t>(keys.size());
    outs[idx(r)].resize(keys.size());
    req->out = outs[idx(r)].data();
    ASSERT_EQ(server.submit(req.get()), AdmitResult::kAccepted);
    reqs.push_back(std::move(req));
  }
  server.shutdown();
  std::uint64_t expected_sum = 0;
  for (std::uint64_t k = 0; k < 64; ++k) expected_sum += 7 * k;
  for (std::size_t r = 0; r < reqs.size(); ++r) {
    reqs[r]->wait();  // must terminate: drained, not dropped
    EXPECT_EQ(reqs[r]->hits.load(), 64u);
    std::uint64_t sum = 0;
    for (const auto& v : outs[r]) sum += v.value_or(0);
    EXPECT_EQ(sum, expected_sum);
  }

  // After shutdown: refused, but the latch still resolves.
  Request late;
  late.kind = RequestKind::kGetBatch;
  late.keys = keys.data();
  late.key_count = static_cast<std::uint32_t>(keys.size());
  EXPECT_EQ(server.submit(&late), AdmitResult::kShutdown);
  EXPECT_EQ(late.submit_outcome(), AdmitResult::kShutdown);
  late.wait();
  EXPECT_EQ(late.hits.load(), 0u);
}

TEST(KvServer, EmptyBatchCompletesDeterministically) {
  const Topology topo = Topology::simulated(2, 4);
  KvServer<CohortWriterPriorityLock> server(topo);
  server.map().put(0, 5, 50);

  // get_many({}) routes a key_count == 0 batch whose keys pointer is what
  // std::vector::data() returns for an empty vector — possibly nullptr.
  // It must complete with zero pending without touching the span.
  const std::vector<std::uint64_t> no_keys;
  EXPECT_EQ(server.get_many(no_keys), 0u);

  // Same through the async path: wait() returns immediately, no slice is
  // ever enqueued, and the request is reusable afterwards.
  Request r;
  r.kind = RequestKind::kGetBatch;
  r.keys = nullptr;
  r.key_count = 0;
  EXPECT_EQ(server.submit(&r), AdmitResult::kAccepted);
  EXPECT_TRUE(r.done());
  r.wait();
  EXPECT_EQ(r.hits.load(), 0u);
  server.shutdown();
  std::uint64_t subs = 0;
  for (int d = 0; d < server.node_count(); ++d)
    subs += server.node_stats(d).sub_requests;
  EXPECT_EQ(subs, 0u) << "an empty batch must not reach any pool";
}

TEST(KvServer, StatsAreExactImmediatelyAfterWaitReturns) {
  // node_stats() promises: the completing worker's stripe writes (the
  // latency sample included) land strictly before the latch release, so
  // the stats are exact the moment wait() returns — no shutdown or
  // quiescence window needed.
  const Topology topo = Topology::simulated(2, 4);
  KvServer<CohortWriterPriorityLock> server(topo,
                                            ServeConfig{}.with_workers(2));
  std::vector<std::uint64_t> keys;
  for (std::uint64_t k = 0; k < 48; ++k) {
    server.map().put(0, k, k);
    keys.push_back(k);
  }

  constexpr int kRounds = 50;
  for (int i = 0; i < kRounds; ++i) {
    Request r;
    r.kind = RequestKind::kGetBatch;
    r.keys = keys.data();
    r.key_count = static_cast<std::uint32_t>(keys.size());
    ASSERT_EQ(server.submit(&r), AdmitResult::kAccepted);
    r.wait();
    std::uint64_t completed = 0, ops = 0;
    for (int d = 0; d < server.node_count(); ++d) {
      const serve::NodeServeStats ns = server.node_stats(d);
      completed += ns.completed;
      ops += ns.ops;
    }
    ASSERT_EQ(completed, static_cast<std::uint64_t>(i + 1))
        << "latency sample recorded after the latch release";
    ASSERT_EQ(ops, static_cast<std::uint64_t>(i + 1) * keys.size());
  }
}

TEST(KvServer, RequestObjectIsReusableAcrossSubmits) {
  // The resubmission contract the socket front-end's slot pools rely on:
  // reset() + overwrite makes one Request object serve many submits, each
  // round trip independent and exact.
  const Topology topo = Topology::simulated(2, 4);
  KvServer<CohortWriterPriorityLock> server(topo);
  for (std::uint64_t k = 0; k < 32; ++k) server.map().put(0, k, k + 7);

  std::vector<std::uint64_t> keys;
  std::vector<std::optional<std::uint64_t>> out;
  Request r;
  for (int round = 0; round < 40; ++round) {
    r.reset();
    if (round % 3 == 2) {  // point op through the same object
      r.kind = RequestKind::kPut;
      r.key = 100 + static_cast<std::uint64_t>(round);
      r.value = static_cast<std::uint64_t>(round);
      ASSERT_EQ(server.submit(&r), AdmitResult::kAccepted);
      r.wait();
      continue;
    }
    keys.clear();
    const std::uint64_t base = static_cast<std::uint64_t>(round) % 16;
    for (std::uint64_t k = base; k < base + 16; ++k) keys.push_back(k);
    out.assign(keys.size(), std::nullopt);
    r.kind = RequestKind::kGetBatch;
    r.keys = keys.data();
    r.key_count = static_cast<std::uint32_t>(keys.size());
    r.out = out.data();
    ASSERT_EQ(server.submit(&r), AdmitResult::kAccepted);
    EXPECT_EQ(r.submit_outcome(), AdmitResult::kAccepted);
    r.wait();
    std::uint64_t expect_hits = 0;
    for (std::size_t i = 0; i < keys.size(); ++i) {
      const bool present = keys[i] < 32;
      expect_hits += present ? 1 : 0;
      ASSERT_EQ(out[i].has_value(), present) << "round " << round;
      if (out[i]) {
        ASSERT_EQ(*out[i], keys[i] + 7);
      }
    }
    ASSERT_EQ(r.hits.load(), expect_hits) << "round " << round;
  }

  // Reuse across a shutdown race: a refused submit still resolves the
  // latch, and the object remains reusable for the (refused) next round.
  server.shutdown();
  r.reset();
  keys.assign({1, 2, 3});
  r.kind = RequestKind::kGetBatch;
  r.keys = keys.data();
  r.key_count = 3;
  r.out = nullptr;
  EXPECT_EQ(server.submit(&r), AdmitResult::kShutdown);
  r.wait();  // must terminate despite the partial/refused submit
  r.reset();
  EXPECT_EQ(r.submit_outcome(), AdmitResult::kAccepted)
      << "reset must clear the recorded outcome";
  EXPECT_EQ(server.submit(&r), AdmitResult::kShutdown);
  r.wait();
}

TEST(KvServer, ConcurrentClientsKeepAggregatesConsistent) {
  const Topology topo = Topology::simulated(2, 4);
  KvServer<CohortStarvationFreeLock> server(
      topo, ServeConfig{}.with_workers(2));

  constexpr int kClients = 4;
  constexpr int kOps = 120;
  run_threads(kClients, [&](std::size_t c) {
    std::vector<std::uint64_t> batch;
    for (int i = 0; i < kOps; ++i) {
      const std::uint64_t key =
          static_cast<std::uint64_t>(c) * 1000 + static_cast<std::uint64_t>(i);
      if (i % 3 == 0) {
        server.put(key, key);
      } else {
        batch.push_back(key);
        if (batch.size() == 8) {
          (void)server.get_many(batch);
          batch.clear();
        }
      }
    }
    if (!batch.empty()) (void)server.get_many(batch);
  });
  server.shutdown();
  // Every op ran exactly once: a put run twice would add one to `ops`, a
  // lost one would take one from the size.
  EXPECT_EQ(server.map().size(), static_cast<std::uint64_t>(kClients * 40));
  std::uint64_t pool_ops = 0;
  for (int d = 0; d < server.node_count(); ++d)
    pool_ops += server.node_stats(d).ops;
  EXPECT_EQ(pool_ops, static_cast<std::uint64_t>(kClients * kOps));
}

// One claimed run per request when each is awaited before the next is
// submitted: the worker stripes count every claim (bursts) and every
// executed slice (sub_requests) once, and both are exact at wait().
TEST(KvServer, SerialPointOpsCountOneClaimPerRequest) {
  const Topology topo = Topology::simulated(2, 2);
  KvServer<CohortWriterPriorityLock> server(topo,
                                            ServeConfig{}.with_workers(2));
  constexpr std::uint64_t kRequests = 60;
  for (std::uint64_t i = 0; i < kRequests; ++i) {
    const std::uint64_t key = i / 3;
    switch (i % 3) {
      case 0: server.put(key, key); break;
      case 1: EXPECT_EQ(server.get(key).value_or(~key), key); break;
      default: EXPECT_TRUE(server.erase(key)); break;
    }
    std::uint64_t bursts = 0, subs = 0;
    for (int d = 0; d < server.node_count(); ++d) {
      bursts += server.node_stats(d).bursts;
      subs += server.node_stats(d).sub_requests;
    }
    ASSERT_EQ(bursts, i + 1) << "request " << i;
    ASSERT_EQ(subs, i + 1) << "request " << i;
  }
  EXPECT_EQ(server.map().size(), 0u);
  server.shutdown();
}

// ---- bulk queue operations (burst dataplane) --------------------------------

TEST(BoundedMpmcQueue, BulkPushAndPopPreserveFifoAndBounds) {
  BoundedMpmcQueue<int> q(8);  // capacity exactly 8
  int buf[16];
  for (int i = 0; i < 12; ++i) buf[i] = i;
  // Bulk push truncates at capacity: 12 requested, 8 taken.
  EXPECT_EQ(q.try_push_bulk(buf, 12), 8u);
  EXPECT_EQ(q.try_push_bulk(buf, 1), 0u);  // full
  // Bulk pop is FIFO and truncates at the published run.
  int out[16] = {};
  EXPECT_EQ(q.try_pop_bulk(out, 5), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(out[i], i);
  EXPECT_EQ(q.try_pop_bulk(out, 16), 3u);  // remaining run only
  for (int i = 0; i < 3; ++i) EXPECT_EQ(out[i], 5 + i);
  EXPECT_EQ(q.try_pop_bulk(out, 1), 0u);  // empty
  EXPECT_TRUE(q.drained());
}

TEST(BoundedMpmcQueue, BulkOpsOfMixedRunLengthsPreserveFifoAcrossWrap) {
  BoundedMpmcQueue<int> q(4);  // capacity 4: wraps fast
  int out[4];
  int next_push = 0, next_pop = 0;
  // Drive several laps mixing runs of 3, 2 and 1; FIFO must hold through
  // every wrap of the ring.
  for (int lap = 0; lap < 10; ++lap) {
    int vals[3] = {next_push, next_push + 1, next_push + 2};
    ASSERT_EQ(q.try_push_bulk(vals, 3), 3u);
    next_push += 3;
    ASSERT_EQ(q.try_push_bulk(&next_push, 1), 1u);
    ++next_push;
    ASSERT_EQ(q.try_pop_bulk(out, 2), 2u);
    EXPECT_EQ(out[0], next_pop++);
    EXPECT_EQ(out[1], next_pop++);
    int one;
    ASSERT_EQ(q.try_pop_bulk(&one, 1), 1u);
    EXPECT_EQ(one, next_pop++);
    ASSERT_EQ(q.try_pop_bulk(out, 4), 1u);
    EXPECT_EQ(out[0], next_pop++);
  }
  EXPECT_TRUE(q.drained());
}

TEST(BoundedMpmcQueue, BulkPopNeverLosesOrDuplicatesUnderProducers) {
  // Deterministic-count conservation: concurrent bulk producers and bulk
  // consumers move exactly N items with an exact checksum.
  BoundedMpmcQueue<std::uint64_t> q(64);
  constexpr int kProducers = 2, kConsumers = 2;
  constexpr std::uint64_t kPerProducer = 20000;
  std::atomic<std::uint64_t> popped{0}, sum{0};
  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p)
    threads.emplace_back([&, p] {
      std::uint64_t vals[7];
      std::uint64_t next = static_cast<std::uint64_t>(p) * kPerProducer;
      const std::uint64_t end = next + kPerProducer;
      while (next < end) {
        std::size_t want = std::min<std::uint64_t>(7, end - next);
        for (std::size_t i = 0; i < want; ++i) vals[i] = next + i;
        const std::size_t took = q.try_push_bulk(vals, want);
        next += took;
        if (took == 0) std::this_thread::yield();
      }
    });
  constexpr std::uint64_t kTotal = kProducers * kPerProducer;
  for (int c = 0; c < kConsumers; ++c)
    threads.emplace_back([&] {
      std::uint64_t out[5];
      while (popped.load(std::memory_order_relaxed) < kTotal) {
        const std::size_t got = q.try_pop_bulk(out, 5);
        if (got == 0) {
          std::this_thread::yield();
          continue;
        }
        std::uint64_t local = 0;
        for (std::size_t i = 0; i < got; ++i) local += out[i];
        sum.fetch_add(local, std::memory_order_relaxed);
        popped.fetch_add(got, std::memory_order_relaxed);
      }
    });
  for (auto& t : threads) t.join();
  EXPECT_EQ(popped.load(), kTotal);
  EXPECT_EQ(sum.load(), kTotal * (kTotal - 1) / 2);
  EXPECT_TRUE(q.drained());
}

// ---- burst worker pool ------------------------------------------------------

TEST(WorkerPool, BurstModeExecutesEverythingWithBulkClaims) {
  const Topology topo = Topology::simulated(2, 4);
  const ServeConfig cfg = ServeConfig{}.with_workers(2).with_pin(false);
  std::atomic<std::uint64_t> sum{0};
  std::atomic<std::uint64_t> max_run{0};
  std::atomic<std::uint64_t> executed{0}, claims{0};
  WorkerPool<int> pool(
      topo, cfg,
      [&](int, int, int* items, std::size_t n) {
        ASSERT_GE(n, 1u);
        ASSERT_LE(n, serve::kBurst);  // never exceeds the claim depth
        executed.fetch_add(n);
        claims.fetch_add(1);
        std::uint64_t local = 0;
        for (std::size_t i = 0; i < n; ++i)
          local += static_cast<std::uint64_t>(items[i]);
        sum.fetch_add(local, std::memory_order_relaxed);
        std::uint64_t seen = max_run.load(std::memory_order_relaxed);
        while (seen < n && !max_run.compare_exchange_weak(seen, n)) {
        }
      });
  constexpr int kItems = 4000;
  std::uint64_t expect = 0;
  for (int i = 0; i < kItems; ++i) {
    ASSERT_TRUE(submit_one(pool, i % 2, i));
    expect += static_cast<std::uint64_t>(i);
  }
  pool.shutdown();
  EXPECT_EQ(sum.load(), expect);
  EXPECT_EQ(executed.load(), static_cast<std::uint64_t>(kItems));
  EXPECT_GT(claims.load(), 0u);
  EXPECT_LE(claims.load(), static_cast<std::uint64_t>(kItems));  // amortize
}

// A ring smaller than kBurst: each claim holds at most the ring's two
// cells, and batches far larger than the ring still all execute.
TEST(WorkerPool, ClaimsFitARingSmallerThanTheBurst) {
  static_assert(serve::kBurst > 2);
  const Topology topo = Topology::simulated(1, 2);
  const ServeConfig cfg =
      ServeConfig{}.with_workers(1).with_queue_capacity(2).with_pin(false);
  std::atomic<std::uint64_t> sum{0}, executed{0};
  WorkerPool<int> pool(topo, cfg, [&](int, int, int* items, std::size_t n) {
    ASSERT_GE(n, 1u);
    ASSERT_LE(n, 2u);
    for (std::size_t i = 0; i < n; ++i)
      sum.fetch_add(static_cast<std::uint64_t>(items[i]));
    executed.fetch_add(n);
  });
  std::vector<int> batch(100);
  for (int i = 0; i < 100; ++i) batch[static_cast<std::size_t>(i)] = i;
  for (int round = 0; round < 10; ++round)
    ASSERT_EQ(pool.submit_many(0, batch.data(), batch.size()), batch.size());
  pool.shutdown();
  EXPECT_EQ(sum.load(), 10u * 99u * 100u / 2u);
  EXPECT_EQ(executed.load(), 1000u);
}

TEST(WorkerPool, SubmitManyPublishesTheWholeBatch) {
  const Topology topo = Topology::simulated(2, 2);
  const ServeConfig cfg = ServeConfig{}.with_pin(false);
  std::atomic<std::uint64_t> sum{0}, executed{0};
  WorkerPool<int> pool(
      topo, cfg,
      [&](int, int, int* items, std::size_t n) {
        for (std::size_t i = 0; i < n; ++i)
          sum.fetch_add(static_cast<std::uint64_t>(items[i]));
        executed.fetch_add(n);
      });
  // Batches larger than the queue capacity round up; submit_many must
  // publish every item (yielding through backpressure), not just a prefix.
  std::vector<int> batch(300);
  std::uint64_t expect = 0;
  for (int i = 0; i < 300; ++i) {
    batch[static_cast<std::size_t>(i)] = i;
    expect += static_cast<std::uint64_t>(i);
  }
  EXPECT_EQ(pool.submit_many(0, batch.data(), batch.size()), batch.size());
  EXPECT_EQ(pool.submit_many(1, batch.data(), batch.size()), batch.size());
  pool.shutdown();
  EXPECT_EQ(sum.load(), 2 * expect);
  EXPECT_EQ(executed.load(), 600u);
  EXPECT_EQ(pool.submit_many(0, batch.data(), batch.size()), 0u)
      << "submit_many after shutdown must refuse";
}

// ---- cross-request shard grouping + scatter ---------------------------------

// Deterministic exactness of the burst path: many batched requests with
// overlapping key sets, published in one submit_many so workers claim them
// in runs, must scatter exactly the values the test wrote back to the slot
// that asked for them.
TEST(KvServer, BurstGroupingScattersExactResults) {
  const Topology topo = Topology::simulated(2, 4);
  constexpr std::uint64_t kKeys = 1024;
  constexpr std::size_t kReqs = 24;
  constexpr std::size_t kBatch = 48;

  // Deterministic overlapping key sets (collisions across requests are the
  // point: they exercise cross-request grouping inside one sub-map call).
  std::vector<std::vector<std::uint64_t>> key_sets(kReqs);
  for (std::size_t r = 0; r < kReqs; ++r)
    for (std::size_t i = 0; i < kBatch; ++i)
      key_sets[r].push_back((r * 37 + i * 13) % (kKeys + 64));  // some misses

  const ServeConfig cfg = ServeConfig{}.with_workers(2).with_pin(false);
  KvServer<CohortWriterPriorityLock> server(topo, cfg);
  for (std::uint64_t k = 0; k < kKeys; ++k) server.put(k, k * 7 + 1);
  // Submit every request through the batched publish path, then join.
  std::vector<Request> reqs(kReqs);
  std::vector<std::vector<std::optional<std::uint64_t>>> outs(kReqs);
  std::vector<Request*> ptrs;
  for (std::size_t r = 0; r < kReqs; ++r) {
    outs[r].assign(kBatch, std::nullopt);
    reqs[r].kind = RequestKind::kGetBatch;
    reqs[r].keys = key_sets[r].data();
    reqs[r].key_count = kBatch;
    reqs[r].out = outs[r].data();
    ptrs.push_back(&reqs[r]);
  }
  EXPECT_EQ(server.submit_many(ptrs.data(), ptrs.size()),
            AdmitResult::kAccepted);
  for (Request& r : reqs) r.wait();
  std::uint64_t gathers = 0, claims = 0;
  for (int d = 0; d < server.node_count(); ++d) {
    gathers += server.node_stats(d).group_gathers;
    claims += server.node_stats(d).bursts;
  }
  server.shutdown();
  EXPECT_GT(gathers, 0u);
  EXPECT_GT(claims, 0u);

  // The oracle is the preload itself: key k < kKeys holds k*7+1, every
  // other key is absent.
  for (std::size_t r = 0; r < kReqs; ++r) {
    std::uint64_t expect_hits = 0;
    for (const std::uint64_t key : key_sets[r]) expect_hits += key < kKeys;
    EXPECT_EQ(reqs[r].hits.load(std::memory_order_relaxed), expect_hits)
        << "req=" << r;
    for (std::size_t i = 0; i < kBatch; ++i) {
      const std::uint64_t key = key_sets[r][i];
      const std::optional<std::uint64_t> want =
          key < kKeys ? std::optional<std::uint64_t>(key * 7 + 1)
                      : std::nullopt;
      EXPECT_EQ(outs[r][i], want) << "req=" << r << " key#" << i;
    }
  }
}

TEST(KvServer, SubmitManyMixesPointOpsAndBatches) {
  const Topology topo = Topology::simulated(2, 4);
  const ServeConfig cfg = ServeConfig{}.with_workers(1).with_pin(false);
  KvServer<CohortWriterPriorityLock> server(topo, cfg);

  // One batched publish carrying puts, gets, a batch, and an erase.
  Request put1, put2, getb, er, pget;
  put1.kind = RequestKind::kPut;
  put1.key = 11;
  put1.value = 110;
  put2.kind = RequestKind::kPut;
  put2.key = 22;
  put2.value = 220;
  Request* phase1[] = {&put1, &put2};
  EXPECT_EQ(server.submit_many(phase1, 2), AdmitResult::kAccepted);
  EXPECT_EQ(put1.submit_outcome(), AdmitResult::kAccepted);
  EXPECT_EQ(put2.submit_outcome(), AdmitResult::kAccepted);
  put1.wait();
  put2.wait();

  const std::uint64_t keys[] = {11, 22, 33};
  std::optional<std::uint64_t> out[3];
  getb.kind = RequestKind::kGetBatch;
  getb.keys = keys;
  getb.key_count = 3;
  getb.out = out;
  er.kind = RequestKind::kErase;
  er.key = 22;
  const std::uint64_t pkey = 11;
  std::optional<std::uint64_t> pout;
  pget.kind = RequestKind::kGet;
  pget.keys = &pkey;
  pget.key_count = 1;
  pget.out = &pout;
  // The batch and the point get read; the erase writes a different key's
  // shard — results for the batch may see either order for key 22, so
  // erase goes in its own publish to keep the test deterministic.
  Request* phase2[] = {&getb, &pget};
  EXPECT_EQ(server.submit_many(phase2, 2), AdmitResult::kAccepted);
  getb.wait();
  pget.wait();
  EXPECT_EQ(getb.hits.load(), 2u);
  EXPECT_EQ(out[0], std::optional<std::uint64_t>(110));
  EXPECT_EQ(out[1], std::optional<std::uint64_t>(220));
  EXPECT_FALSE(out[2].has_value());
  EXPECT_EQ(pout, std::optional<std::uint64_t>(110));

  Request* phase3[] = {&er};
  EXPECT_EQ(server.submit_many(phase3, 1), AdmitResult::kAccepted);
  er.wait();
  EXPECT_EQ(er.hits.load(), 1u);
  EXPECT_FALSE(server.get(22).has_value());

  // After shutdown, submit_many refuses and the latch still resolves.
  server.shutdown();
  getb.reset();
  std::fill(std::begin(out), std::end(out), std::nullopt);
  Request* phase4[] = {&getb};
  EXPECT_EQ(server.submit_many(phase4, 1), AdmitResult::kShutdown);
  EXPECT_EQ(getb.submit_outcome(), AdmitResult::kShutdown);
  getb.wait();  // refused slices were discounted: terminates
}

}  // namespace
}  // namespace bjrw
