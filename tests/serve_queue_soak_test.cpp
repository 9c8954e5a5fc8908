// Stress suite (label: stress; CI runs it under ThreadSanitizer) for the
// serving runtime's concurrency backbone:
//  * BoundedMpmcQueue hammered by symmetric producer/consumer fleets —
//    conservation (every pushed token popped exactly once, checksums
//    match) under sustained full/empty boundary churn;
//  * WorkerPool + KvServer soak with mixed clients, plus shutdown racing a
//    full request pipeline: the drain guarantee must hold with queues
//    deep and workers oversubscribed;
//  * node_stats() polled live while the workers run: no data race, every
//    counter monotone, and exact once the traffic has completed.
//
// Deterministic replay: BJRW_TEST_SEED=<uint64> (see prng.hpp test_seed).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "src/core/locks.hpp"
#include "src/harness/prng.hpp"
#include "src/harness/thread_coord.hpp"
#include "src/harness/topology.hpp"
#include "src/serve/server.hpp"
#include "src/serve/worker_pool.hpp"

namespace bjrw {
namespace {

using serve::AdmitResult;
using serve::BoundedMpmcQueue;
using serve::KvServer;
using serve::NodeServeStats;
using serve::Request;
using serve::RequestKind;
using serve::ServeConfig;
using serve::WorkerPool;

TEST(ServeQueueSoak, MpmcConservationUnderProducerConsumerChurn) {
  // Runs of one: every push and pop claims a single cell.
  constexpr int kProducers = 4;
  constexpr int kConsumers = 4;
  constexpr std::uint64_t kPerProducer = 40000;
  BoundedMpmcQueue<std::uint64_t> q(/*capacity=*/64);  // small: lap churn

  std::atomic<int> producers_live{kProducers};
  std::atomic<std::uint64_t> popped{0};
  std::atomic<std::uint64_t> pushed_sum{0};
  std::atomic<std::uint64_t> popped_sum{0};

  run_threads(kProducers + kConsumers, [&](std::size_t t) {
    if (t < kProducers) {
      Xoshiro256 rng(test_seed(t));
      std::uint64_t sum = 0;
      for (std::uint64_t i = 0; i < kPerProducer; ++i) {
        const std::uint64_t token = rng.next() | 1;
        sum += token;
        while (q.try_push_bulk(&token, 1) == 0) YieldSpin::relax();
      }
      pushed_sum.fetch_add(sum);
      producers_live.fetch_sub(1);
    } else {
      std::uint64_t sum = 0, count = 0, token = 0;
      for (;;) {
        if (q.try_pop_bulk(&token, 1) == 1) {
          sum += token;
          ++count;
          continue;
        }
        // Only exit on empty observed after all producers finished —
        // the same drain shape the worker pool uses.
        if (producers_live.load() == 0) {
          if (q.try_pop_bulk(&token, 1) == 0) break;
          sum += token;
          ++count;
          continue;
        }
        YieldSpin::relax();
      }
      popped_sum.fetch_add(sum);
      popped.fetch_add(count);
    }
  });
  EXPECT_EQ(popped.load(), kPerProducer * kProducers);
  EXPECT_EQ(popped_sum.load(), pushed_sum.load());
}

TEST(ServeQueueSoak, SubmitRacingShutdownNeverStrandsAcceptedItems) {
  // The pool's contract under a genuine submit/shutdown race: a submit
  // that returned true is executed before the workers exit, a submit that
  // raced the stop is refused — never accepted-then-stranded (which would
  // show up as executed < accepted) and never blocked forever (run_threads
  // would hang).  Varying stagger shifts the race window across rounds.
  for (int round = 0; round < 60; ++round) {
    const Topology topo = Topology::simulated(2, 2);
    std::atomic<std::uint64_t> executed{0};
    WorkerPool<int> pool(
        topo,
        ServeConfig{}.with_workers(1).with_queue_capacity(16).with_pin(false),
        [&](int, int, int*, std::size_t n) { executed.fetch_add(n); });
    std::atomic<std::uint64_t> accepted{0};
    run_threads(3, [&](std::size_t t) {
      if (t == 2) {
        for (int i = 0; i < (round * 7) % 97; ++i) YieldSpin::relax();
        pool.shutdown();
      } else {
        for (int i = 0; i < 300; ++i) {
          if (pool.submit_many(static_cast<int>(t) % 2, &i, 1) != 1) break;
          accepted.fetch_add(1);
        }
      }
    });
    pool.shutdown();
    ASSERT_EQ(executed.load(), accepted.load()) << "round " << round;
  }
}

TEST(ServeQueueSoak, BulkOpsConserveUnderProducerConsumerChurn) {
  // The burst dataplane's conservation bar: try_push_bulk/try_pop_bulk
  // runs of mixed lengths, one included, hammered by symmetric fleets over
  // a small ring — every token popped exactly once, checksums exact.
  constexpr int kProducers = 4;
  constexpr int kConsumers = 4;
  constexpr std::uint64_t kPerProducer = 40000;
  BoundedMpmcQueue<std::uint64_t> q(/*capacity=*/64);  // small: lap churn

  std::atomic<int> producers_live{kProducers};
  std::atomic<std::uint64_t> popped{0};
  std::atomic<std::uint64_t> pushed_sum{0};
  std::atomic<std::uint64_t> popped_sum{0};

  run_threads(kProducers + kConsumers, [&](std::size_t t) {
    if (t < kProducers) {
      Xoshiro256 rng(test_seed(t));
      std::uint64_t sum = 0;
      std::uint64_t batch[9];
      std::uint64_t produced = 0;
      while (produced < kPerProducer) {
        // Alternate runs of one and longer runs of varying width.
        const std::uint64_t want = std::min<std::uint64_t>(
            1 + rng.next() % 9, kPerProducer - produced);
        if (want == 1) {
          const std::uint64_t token = rng.next() | 1;
          while (q.try_push_bulk(&token, 1) == 0) YieldSpin::relax();
          sum += token;
          ++produced;
          continue;
        }
        for (std::uint64_t i = 0; i < want; ++i) batch[i] = rng.next() | 1;
        std::uint64_t done = 0;
        while (done < want) {
          const std::size_t took = q.try_push_bulk(batch + done, want - done);
          if (took == 0) {
            YieldSpin::relax();
            continue;
          }
          for (std::size_t i = 0; i < took; ++i) sum += batch[done + i];
          done += took;
        }
        produced += want;
      }
      pushed_sum.fetch_add(sum);
      producers_live.fetch_sub(1);
    } else {
      Xoshiro256 rng(test_seed(t + 50));
      std::uint64_t sum = 0, count = 0;
      std::uint64_t out[7];
      for (;;) {
        const std::size_t got = q.try_pop_bulk(out, 1 + rng.next() % 7);
        if (got > 0) {
          for (std::size_t i = 0; i < got; ++i) sum += out[i];
          count += got;
          continue;
        }
        // Exit only on empty observed after all producers finished — the
        // same drain shape the burst worker loop uses.
        if (producers_live.load() == 0) {
          const std::size_t last = q.try_pop_bulk(out, 7);
          if (last == 0) break;
          for (std::size_t i = 0; i < last; ++i) sum += out[i];
          count += last;
          continue;
        }
        YieldSpin::relax();
      }
      popped_sum.fetch_add(sum);
      popped.fetch_add(count);
    }
  });
  EXPECT_EQ(popped.load(), kPerProducer * kProducers);
  EXPECT_EQ(popped_sum.load(), pushed_sum.load());
  EXPECT_TRUE(q.drained());
}

TEST(ServeQueueSoak, ShutdownDuringBurstExecutesEveryAcceptedSlice) {
  // Burst-mode version of the drain bar: batched submitters racing
  // shutdown, burst workers mid-bulk-claim — every item submit_many
  // reported accepted is executed before the workers exit, never stranded
  // (executed < accepted) and never duplicated (executed > accepted).
  for (int round = 0; round < 60; ++round) {
    const Topology topo = Topology::simulated(2, 2);
    std::atomic<std::uint64_t> executed{0};
    const ServeConfig cfg = ServeConfig{}
                                .with_workers(1)
                                .with_queue_capacity(16)
                                .with_pin(false);
    WorkerPool<int> pool(
        topo, cfg,
        [&](int, int, int*, std::size_t n) { executed.fetch_add(n); });
    std::atomic<std::uint64_t> accepted{0};
    run_threads(3, [&](std::size_t t) {
      if (t == 2) {
        for (int i = 0; i < (round * 7) % 97; ++i) YieldSpin::relax();
        pool.shutdown();
      } else {
        int batch[5];
        for (int i = 0; i < 60; ++i) {
          for (int j = 0; j < 5; ++j) batch[j] = i * 5 + j;
          const std::size_t published =
              pool.submit_many(static_cast<int>(t) % 2, batch, 5);
          accepted.fetch_add(published);
          if (published < 5) break;  // stopping observed mid-batch
        }
      }
    });
    pool.shutdown();
    ASSERT_EQ(executed.load(), accepted.load()) << "round " << round;
  }
}

TEST(ServeQueueSoak, BurstKvServerConservesOpsUnderBatchedSubmit) {
  // Whole-stack burst soak: clients publish through submit_many, workers
  // run the burst execution path (cross-request gathers), and the op
  // accounting must balance exactly.
  const Topology topo = Topology::simulated(2, 4);
  const ServeConfig cfg = ServeConfig{}
                              .with_workers(2)
                              .with_queue_capacity(128);
  KvServer<CohortStarvationFreeLock> server(topo, cfg);

  for (std::uint64_t k = 0; k < 1024; ++k) server.map().put(0, k, k * 3);

  constexpr int kClients = 4;
  constexpr int kRounds = 250;
  constexpr std::size_t kReqsPerRound = 4;
  constexpr std::uint32_t kBatch = 8;
  std::atomic<std::uint64_t> total_hits{0};
  run_threads(kClients, [&](std::size_t c) {
    Xoshiro256 rng(test_seed(c + 300));
    Request reqs[kReqsPerRound];
    std::uint64_t key_store[kReqsPerRound][kBatch];
    Request* ptrs[kReqsPerRound];
    std::uint64_t hits = 0;
    for (int round = 0; round < kRounds; ++round) {
      for (std::size_t r = 0; r < kReqsPerRound; ++r) {
        reqs[r].reset();
        for (std::uint32_t i = 0; i < kBatch; ++i)
          key_store[r][i] = rng.next() % 2048;
        reqs[r].kind = RequestKind::kGetBatch;
        reqs[r].keys = key_store[r];
        reqs[r].key_count = kBatch;
        reqs[r].out = nullptr;
        ptrs[r] = &reqs[r];
      }
      ASSERT_EQ(server.submit_many(ptrs, kReqsPerRound),
                AdmitResult::kAccepted);
      for (std::size_t r = 0; r < kReqsPerRound; ++r) {
        reqs[r].wait();
        hits += reqs[r].hits.load(std::memory_order_relaxed);
      }
    }
    total_hits.fetch_add(hits);
  });
  server.shutdown();

  std::uint64_t pool_ops = 0, bursts = 0;
  for (int d = 0; d < server.node_count(); ++d) {
    pool_ops += server.node_stats(d).ops;
    bursts += server.node_stats(d).bursts;
  }
  EXPECT_EQ(pool_ops, static_cast<std::uint64_t>(kClients) * kRounds *
                          kReqsPerRound * kBatch);
  EXPECT_GT(bursts, 0u);
  EXPECT_GT(total_hits.load(), 0u);
}

TEST(ServeQueueSoak, KvServerMixedTrafficConservesOps) {
  const Topology topo = Topology::simulated(2, 4);
  // Small queues: the publish-side backpressure path is exercised.
  const ServeConfig cfg =
      ServeConfig{}.with_workers(2).with_queue_capacity(128);
  KvServer<CohortStarvationFreeLock> server(topo, cfg);

  for (std::uint64_t k = 0; k < 1024; ++k) server.map().put(0, k, k * 3);

  constexpr int kClients = 6;
  constexpr int kOps = 3000;
  std::atomic<std::uint64_t> total_hits{0};
  run_threads(kClients, [&](std::size_t c) {
    Xoshiro256 rng(test_seed(c + 100));
    std::vector<std::uint64_t> batch;
    std::uint64_t hits = 0;
    for (int i = 0; i < kOps; ++i) {
      const std::uint64_t key = rng.next() % 2048;
      if (rng.next() % 10 == 0) {
        server.put(key, key * 3);
      } else {
        batch.push_back(key);
        if (batch.size() == 8) {
          hits += server.get_many(batch);
          batch.clear();
        }
      }
    }
    if (!batch.empty()) hits += server.get_many(batch);
    total_hits.fetch_add(hits);
  });
  server.shutdown();

  std::uint64_t pool_ops = 0;
  for (int d = 0; d < server.node_count(); ++d)
    pool_ops += server.node_stats(d).ops;
  EXPECT_EQ(pool_ops, static_cast<std::uint64_t>(kClients * kOps));
  EXPECT_GT(total_hits.load(), 0u);
  EXPECT_LE(server.map().size(), 2048u);
}

TEST(ServeQueueSoak, ShutdownRacesDeepPipelinesWithoutDroppingRequests) {
  // Many rounds of: fill the pipeline with async batches, shut down while
  // the pools are mid-drain, verify every request completed with the right
  // answer.  This is the scheduling-dependent version of the tier-1
  // shutdown test.
  std::vector<std::uint64_t> keys;
  for (std::uint64_t k = 0; k < 32; ++k) keys.push_back(k);
  std::uint64_t expected_sum = 0;
  for (std::uint64_t k = 0; k < 32; ++k) expected_sum += 5 * k;

  for (int round = 0; round < 30; ++round) {
    const Topology topo = Topology::simulated(2, 2);
    const ServeConfig cfg =
        ServeConfig{}.with_workers(1).with_queue_capacity(1024);
    KvServer<CohortWriterPriorityLock> server(topo, cfg);
    for (std::uint64_t k = 0; k < 32; ++k) server.map().put(0, k, 5 * k);

    std::vector<std::unique_ptr<Request>> reqs;
    std::vector<std::vector<std::optional<std::uint64_t>>> outs(40);
    for (std::size_t r = 0; r < outs.size(); ++r) {
      auto req = std::make_unique<Request>();
      req->kind = RequestKind::kGetBatch;
      req->keys = keys.data();
      req->key_count = static_cast<std::uint32_t>(keys.size());
      outs[r].resize(keys.size());
      req->out = outs[r].data();
      ASSERT_EQ(server.submit(req.get()), AdmitResult::kAccepted);
      reqs.push_back(std::move(req));
    }
    server.shutdown();
    for (std::size_t r = 0; r < reqs.size(); ++r) {
      reqs[r]->wait();
      ASSERT_EQ(reqs[r]->hits.load(), 32u) << "round " << round;
      std::uint64_t sum = 0;
      for (const auto& v : outs[r]) sum += v.value_or(0);
      ASSERT_EQ(sum, expected_sum) << "round " << round;
    }
  }
}

TEST(ServeQueueSoak, ResubmittedRequestsSurviveAShutdownRace) {
  // The socket front-end's slot pools resubmit the *same* Request object
  // for its connection's whole lifetime, including straight through server
  // shutdown.  Per round: client threads each drive one Request in a
  // reset/overwrite/submit/wait loop while a racing thread shuts the
  // server down mid-traffic.  Every wait() must terminate (run_threads
  // would hang otherwise — no stranded slice), accepted submits must be
  // exact, refused ones must leave the object reusable.
  std::vector<std::uint64_t> keys;
  for (std::uint64_t k = 0; k < 24; ++k) keys.push_back(k);

  for (int round = 0; round < 20; ++round) {
    const Topology topo = Topology::simulated(2, 2);
    const ServeConfig cfg =
        ServeConfig{}.with_workers(1).with_queue_capacity(64);
    KvServer<CohortWriterPriorityLock> server(topo, cfg);
    for (std::uint64_t k = 0; k < 24; ++k) server.map().put(0, k, k + 1);

    constexpr int kClients = 3;
    run_threads(kClients + 1, [&](std::size_t t) {
      if (t == kClients) {
        for (int i = 0; i < (round * 13) % 211; ++i) YieldSpin::relax();
        server.shutdown();
        return;
      }
      Request r;  // one object, resubmitted throughout
      std::vector<std::optional<std::uint64_t>> out;
      for (int i = 0; i < 120; ++i) {
        r.reset();
        if (i % 4 == 3) {
          r.kind = RequestKind::kPut;
          r.key = 500 + static_cast<std::uint64_t>(i);
          r.value = t;
          const bool ok = server.submit(&r) == AdmitResult::kAccepted;
          r.wait();  // must terminate, accepted or refused
          if (!ok) break;
          continue;
        }
        r.kind = RequestKind::kGetBatch;
        r.keys = keys.data();
        r.key_count = static_cast<std::uint32_t>(keys.size());
        out.assign(keys.size(), std::nullopt);
        r.out = out.data();
        const bool ok = server.submit(&r) == AdmitResult::kAccepted;
        r.wait();  // partial-failure submits still resolve the latch
        if (ok) {
          ASSERT_EQ(r.hits.load(), keys.size()) << "round " << round;
          for (std::size_t k = 0; k < keys.size(); ++k) {
            ASSERT_TRUE(out[k].has_value());
            ASSERT_EQ(*out[k], keys[k] + 1);
          }
        } else {
          break;  // server is gone; the object survived the refusal
        }
      }
      // The object is still coherent after whatever ended the loop:
      // one final refused/accepted submit must also resolve.
      r.reset();
      r.kind = RequestKind::kGetBatch;
      r.keys = keys.data();
      r.key_count = static_cast<std::uint32_t>(keys.size());
      r.out = nullptr;
      (void)server.submit(&r);
      r.wait();
    });
  }
}

TEST(ServeQueueSoak, ElasticParkWakeRacingShutdownConservesItems) {
  // Elastic version of the submit/shutdown race bar: workers above the
  // min-width floor park on empty queues and must be woken — by a
  // submitter or by shutdown — without ever stranding an accepted item
  // (executed < accepted), duplicating one (executed > accepted), or
  // sleeping through the stop (run_threads would hang).  Traffic pauses
  // let queues drain so submits genuinely race the park/wake transition.
  for (int round = 0; round < 40; ++round) {
    const Topology topo = Topology::simulated(2, 2);
    std::atomic<std::uint64_t> executed{0};
    WorkerPool<int> pool(topo,
                         ServeConfig{}
                             .with_widths(1, 2)
                             .with_queue_capacity(16)
                             .with_pin(false)
                             .with_park(/*grace_ns=*/5'000),
                         [&](int, int, int*, std::size_t n) {
                           executed.fetch_add(n);
                         });
    std::atomic<std::uint64_t> accepted{0};
    run_threads(3, [&](std::size_t t) {
      if (t == 2) {
        for (int i = 0; i < (round * 11) % 131; ++i) YieldSpin::relax();
        pool.shutdown();
      } else {
        for (int i = 0; i < 400; ++i) {
          if (i % 32 == 0) {
            // Give the elastic workers a drained window long enough to
            // park; the next submit then exercises the wake path.
            for (int s = 0; s < 400; ++s) YieldSpin::relax();
          }
          if (pool.submit_many(static_cast<int>(t) % 2, &i, 1) != 1) break;
          accepted.fetch_add(1);
        }
      }
    });
    pool.shutdown();
    ASSERT_EQ(executed.load(), accepted.load()) << "round " << round;
  }
}

TEST(ServeQueueSoak, ElasticAdmissionShutdownRaceStrandsNothing) {
  // The headline conservation bar, whole stack: elastic widths with
  // parking workers, a token bucket shedding, and shutdown racing all of
  // it.  Every submit's wait() must terminate whatever the outcome (a
  // stranded latch hangs run_threads), the recorded per-request outcome
  // must match the returned one, refusals must resolve with zero side
  // effects, and the server-side shed counter must agree exactly with
  // what the clients observed.
  std::vector<std::uint64_t> keys;
  for (std::uint64_t k = 0; k < 16; ++k) keys.push_back(k);

  for (int round = 0; round < 15; ++round) {
    const Topology topo = Topology::simulated(2, 4);
    const ServeConfig cfg =
        ServeConfig{}
            .with_widths(1, 4)
            .with_queue_capacity(64)
            .with_pin(false)
            .with_park(/*grace_ns=*/20'000)
            .with_admission(/*rate=*/4e6, /*bucket=*/256);
    KvServer<CohortWriterPriorityLock> server(topo, cfg);
    for (std::uint64_t k = 0; k < 16; ++k) server.map().put(0, k, k + 1);

    constexpr int kClients = 4;
    std::atomic<std::uint64_t> accepted{0}, shed{0};
    std::atomic<std::uint64_t> refused_shutdown{0};
    run_threads(kClients + 1, [&](std::size_t t) {
      if (t == kClients) {
        for (int i = 0; i < (round * 31) % 257; ++i) YieldSpin::relax();
        server.shutdown();
        return;
      }
      Request r;  // one object resubmitted through every outcome class
      for (int i = 0; i < 200; ++i) {
        r.reset();
        if (i % 3 == 0) {
          r.kind = RequestKind::kPut;
          r.key = 600 + static_cast<std::uint64_t>(i);
          r.value = t;
        } else {
          r.kind = RequestKind::kGetBatch;
          r.keys = keys.data();
          r.key_count = static_cast<std::uint32_t>(keys.size());
          r.out = nullptr;
        }
        const AdmitResult adm = server.submit(&r);
        ASSERT_EQ(adm, r.submit_outcome()) << "round " << round;
        r.wait();  // must terminate for every outcome class
        switch (adm) {
          case AdmitResult::kAccepted:
            accepted.fetch_add(1);
            break;
          case AdmitResult::kShedOverload:
            shed.fetch_add(1);
            ASSERT_EQ(r.hits.load(), 0u) << "shed request executed";
            break;
          case AdmitResult::kDeadlineExceeded:
            ASSERT_TRUE(false) << "deadline refusal without a deadline";
            break;
          case AdmitResult::kShutdown:
            refused_shutdown.fetch_add(1);
            break;
        }
      }
    });
    server.shutdown();

    std::uint64_t completed = 0, stats_shed = 0;
    for (int d = 0; d < server.node_count(); ++d) {
      const serve::NodeServeStats ns = server.node_stats(d);
      completed += ns.completed;
      stats_shed += ns.shed;
    }
    // Every accepted request completes exactly once.  A kShutdown result
    // can cover a batch that published a prefix of its slices before the
    // pool stopped — those requests may or may not land in the workers'
    // completed counter depending on which side resolved the latch, hence
    // the bounded (not exact) upper arm.
    ASSERT_GE(completed, accepted.load()) << "round " << round;
    ASSERT_LE(completed, accepted.load() + refused_shutdown.load())
        << "round " << round;
    ASSERT_EQ(stats_shed, shed.load()) << "round " << round;
  }
}

TEST(ServeQueueSoak, NodeStatsPolledLiveAreMonotoneAndExactAfterShutdown) {
  // One thread polls node_stats() on every node while submitters run
  // batched gets, point puts and TTL puts (so the sweep lane races too).
  // Every counter must be monotone between polls; once the traffic has
  // completed the request and op counts are exact.
  const Topology topo = Topology::simulated(2, 4);
  KvServer<CohortWriterPriorityLock> server(topo,
                                            ServeConfig{}.with_workers(2));
  for (std::uint64_t k = 0; k < 512; ++k) server.map().put(0, k, k);

  using Counter = std::uint64_t NodeServeStats::*;
  static constexpr Counter kCounters[] = {
      &NodeServeStats::sub_requests,     &NodeServeStats::ops,
      &NodeServeStats::completed,        &NodeServeStats::backpressure,
      &NodeServeStats::bursts,           &NodeServeStats::group_gathers,
      &NodeServeStats::shed,             &NodeServeStats::parks,
      &NodeServeStats::wakes,            &NodeServeStats::handoffs,
      &NodeServeStats::global_acquires,  &NodeServeStats::preempt_aborts,
      &NodeServeStats::leases_scheduled, &NodeServeStats::leases_expired,
      &NodeServeStats::lease_stale_skips, &NodeServeStats::sweep_batches,
      &NodeServeStats::deadline_refused, &NodeServeStats::deadline_drops};
  const auto nodes = static_cast<std::size_t>(server.node_count());
  // Field-wise a <= b, latency max included (the mean is a ratio of two
  // separately read counters, so it may move either way).
  const auto monotone = [](const NodeServeStats& a, const NodeServeStats& b) {
    for (const Counter c : kCounters)
      if (a.*c > b.*c) return false;
    return a.latency_max_ns <= b.latency_max_ns;
  };

  constexpr int kClients = 3;
  constexpr int kRequests = 1200;
  constexpr std::size_t kBatch = 8;
  std::atomic<int> clients_live{kClients};
  std::atomic<std::uint64_t> requests{0}, keys{0}, point_ops{0}, puts{0};
  std::vector<NodeServeStats> last(nodes);
  std::uint64_t polls = 0, regressions = 0;
  run_threads(kClients + 1, [&](std::size_t t) {
    if (t == kClients) {
      do {
        for (std::size_t d = 0; d < nodes; ++d) {
          const NodeServeStats now = server.node_stats(static_cast<int>(d));
          if (!monotone(last[d], now)) ++regressions;
          last[d] = now;
        }
        ++polls;
      } while (clients_live.load() > 0);
      return;
    }
    Xoshiro256 rng(test_seed(t + 900));
    std::vector<std::uint64_t> batch(kBatch);
    std::uint64_t n_keys = 0, n_points = 0, n_puts = 0;
    for (int i = 0; i < kRequests; ++i) {
      const std::uint64_t key = rng.next() % 1024;
      switch (rng.next() % 4) {
        case 0:
          server.put(key, key + 1);
          ++n_points;
          ++n_puts;
          break;
        case 1:  // 1-4 ms lease: sweeps run while the poller watches
          server.put_with_ttl(key, key + 1, (1 + rng.next() % 4) * 1'000'000);
          ++n_points;
          ++n_puts;
          break;
        default:
          for (auto& k : batch) k = rng.next() % 1024;
          server.get_many(batch);
          n_keys += kBatch;
          break;
      }
    }
    requests.fetch_add(static_cast<std::uint64_t>(kRequests));
    keys.fetch_add(n_keys);
    point_ops.fetch_add(n_points);
    puts.fetch_add(n_puts);
    clients_live.fetch_sub(1);
  });
  server.shutdown();

  EXPECT_GT(polls, 0u);
  EXPECT_EQ(regressions, 0u) << "a counter went backwards between polls";
  NodeServeStats total;
  for (std::size_t d = 0; d < nodes; ++d) {
    const NodeServeStats ns = server.node_stats(static_cast<int>(d));
    EXPECT_TRUE(monotone(last[d], ns)) << "node " << d;
    total.completed += ns.completed;
    total.ops += ns.ops;
    total.handoffs += ns.handoffs;
    total.global_acquires += ns.global_acquires;
    total.leases_scheduled += ns.leases_scheduled;
  }
  EXPECT_EQ(total.completed, requests.load());
  EXPECT_EQ(total.ops, keys.load() + point_ops.load());
  // Every put takes a shard write lock; the preload and the expiry sweeps
  // take more, so this arm is a bound, not an equality.
  EXPECT_GE(total.handoffs + total.global_acquires, puts.load());
  EXPECT_GT(total.leases_scheduled, 0u);
}

}  // namespace
}  // namespace bjrw
