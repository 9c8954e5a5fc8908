// Tier-1 deadline suite: Request::deadline_ns against the server's
// injectable ClockSource, checked at both enforcement points —
//
//   * the admission edge (an already-expired request is refused
//     kDeadlineExceeded before the high-water probe or the token bucket
//     sees it: doomed work is not load pressure), and
//   * worker dequeue (a request that expired while queued is dropped, not
//     executed — observable as Request::dropped and NodeServeStats::
//     deadline_drops),
//
// then end to end over the wire: a client's deadline budget comes back as
// WireStatus::kDeadline, the loadgen counts those verdicts without
// retrying them, and the client/server counter views reconcile.  The dequeue
// choreography is deterministic: one worker wedged on a held shard write
// lock while a VirtualClock advances past the queued request's deadline.
// The CI stress matrix also runs this binary under ThreadSanitizer.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <optional>
#include <vector>

#include "src/core/locks.hpp"
#include "src/harness/thread_coord.hpp"
#include "src/harness/timing.hpp"
#include "src/harness/topology.hpp"
#include "src/net/client.hpp"
#include "src/net/loadgen.hpp"
#include "src/net/net_server.hpp"
#include "src/serve/server.hpp"

namespace bjrw::serve {
namespace {

TEST(DeadlineServe, AdmissionEdgeRefusesExpiredRequests) {
  VirtualClock clock(1'000);
  const Topology topo = Topology::simulated(1, 2);
  KvServer<WriterPriorityLock> server(
      topo, ServeConfig{}.with_workers(1).with_pin(false).with_clock(&clock));
  server.put(1, 10);

  std::uint64_t key = 1;
  // A live deadline admits and executes normally.
  Request fresh;
  fresh.kind = RequestKind::kGet;
  fresh.keys = &key;
  fresh.key_count = 1;
  fresh.deadline_ns = 5'000;
  ASSERT_EQ(server.submit(&fresh), AdmitResult::kAccepted);
  fresh.wait();
  EXPECT_EQ(fresh.hits.load(), 1u);
  EXPECT_EQ(fresh.dropped.load(), 0u);

  // Advance past the deadline: the same shape is refused at the edge,
  // with nothing enqueued (pending == 0 makes wait() immediate).
  clock.advance(10'000);
  Request stale;
  stale.kind = RequestKind::kGet;
  stale.keys = &key;
  stale.key_count = 1;
  stale.deadline_ns = 5'000;
  EXPECT_EQ(server.submit(&stale), AdmitResult::kDeadlineExceeded);
  EXPECT_EQ(stale.submit_outcome(), AdmitResult::kDeadlineExceeded);
  EXPECT_TRUE(stale.done());
  stale.wait();
  EXPECT_EQ(stale.hits.load(), 0u);

  // deadline_ns == 0 means no deadline, at any clock reading.
  Request open;
  open.kind = RequestKind::kGet;
  open.keys = &key;
  open.key_count = 1;
  ASSERT_EQ(server.submit(&open), AdmitResult::kAccepted);
  open.wait();
  EXPECT_EQ(open.hits.load(), 1u);

  const NodeServeStats stats = server.node_stats(0);
  EXPECT_EQ(stats.deadline_refused, 1u);
  EXPECT_EQ(stats.deadline_drops, 0u);
  EXPECT_EQ(stats.shed, 0u);  // deadline refusals are not shed pressure
}

TEST(DeadlineServe, ExpiryInQueueDropsAtDequeueNotExecutes) {
  // Deterministic choreography (the KvAdmission queue-full pattern): hold
  // both shard write locks of the only node so the single worker wedges
  // inside request A, queue B with a deadline, advance the clock past it,
  // then release — B must be dropped at dequeue, never executed.
  VirtualClock clock(1'000);
  const Topology topo = Topology::simulated(1, 2);  // worker tid 0, ours 1
  KvServer<WriterPriorityLock> server(topo, ServeConfig{}
                                                .with_shards(2)
                                                .with_workers(1)
                                                .with_pin(false)
                                                .with_clock(&clock));
  server.put(3, 30);
  server.put(4, 40);

  auto& sub = server.map().sub_map(0);
  constexpr int kOurTid = 1;  // the worker owns pool tid 0
  sub.shard_lock(0).write_lock(kOurTid);
  sub.shard_lock(1).write_lock(kOurTid);

  std::uint64_t ka = 3, kb = 4;
  Request a, b;
  a.kind = b.kind = RequestKind::kGet;
  a.keys = &ka;
  b.keys = &kb;
  a.key_count = b.key_count = 1;
  b.deadline_ns = 50'000;  // live at submit, expired by dequeue

  // FIFO queue + single worker: A is dequeued first and blocks in the
  // shard lock (or sits at the queue head); B cannot be looked at until
  // A completes, which cannot happen before the locks drop below.
  ASSERT_EQ(server.submit(&a), AdmitResult::kAccepted);
  ASSERT_EQ(server.submit(&b), AdmitResult::kAccepted);

  clock.advance(100'000);  // B's deadline passes while it sits queued

  sub.shard_lock(1).write_unlock(kOurTid);
  sub.shard_lock(0).write_unlock(kOurTid);
  a.wait();
  b.wait();
  EXPECT_EQ(a.hits.load(), 1u);   // A ran (no deadline)
  EXPECT_EQ(b.hits.load(), 0u);   // B never touched the map
  EXPECT_EQ(b.dropped.load(), 1u);

  const NodeServeStats stats = server.node_stats(0);
  EXPECT_EQ(stats.deadline_drops, 1u);
  EXPECT_EQ(stats.deadline_refused, 0u);
}

// ---- over the wire ----------------------------------------------------------

using NetSrv = net::NetServer<WriterPriorityLock>;

struct WireFixture {
  VirtualClock clock{1'000};
  KvServer<WriterPriorityLock> kv;
  NetSrv net;

  WireFixture()
      : kv(Topology::simulated(1, 2), ServeConfig{}
                                          .with_shards(2)
                                          .with_workers(1)
                                          .with_pin(false)
                                          .with_clock(&clock)),
        net(kv) {}
};

// Wedges the worker, runs one op with a deadline budget through a client,
// and returns what the wire answered.  The caller owns the client config.
template <class Op>
void run_wedged(WireFixture& fx, Op&& op) {
  auto& sub = fx.kv.map().sub_map(0);
  constexpr int kOurTid = 1;
  fx.kv.put(7, 70);
  sub.shard_lock(0).write_lock(kOurTid);
  sub.shard_lock(1).write_lock(kOurTid);
  // Park a no-deadline wedge request so the deadline op queues behind it.
  std::uint64_t kw = 7;
  Request wedge;
  wedge.kind = RequestKind::kGet;
  wedge.keys = &kw;
  wedge.key_count = 1;
  ASSERT_EQ(fx.kv.submit(&wedge), AdmitResult::kAccepted);
  // The worker has claimed the wedge (and is blocked in the shard lock)
  // once the queue is empty again; only then is the next arrival parked
  // behind a wedged head rather than racing the worker.
  spin_until<YieldSpin>([&] { return fx.kv.queue_depth(0) == 0; });

  op();  // submit the deadline op over the wire

  // The epoll loop parses and submits asynchronously to the client's
  // flush; the op is provably queued (not executed) once depth rises.
  spin_until<YieldSpin>([&] { return fx.kv.queue_depth(0) == 1; });
  fx.clock.advance(10'000'000);  // the budget expires in-queue
  sub.shard_lock(1).write_unlock(kOurTid);
  sub.shard_lock(0).write_unlock(kOurTid);
  wedge.wait();
  EXPECT_EQ(wedge.hits.load(), 1u);
}

TEST(DeadlineServe, WireBudgetComesBackAsDeadlineStatus) {
  WireFixture fx;
  ASSERT_TRUE(fx.net.ok());
  net::ClientConfig cfg;
  cfg.deadline_budget_ns = 1'000'000;  // 1ms of virtual time
  cfg.retry.max_attempts = 1;  // observe the raw verdict, no retry
  auto c = net::KvClient::connect(fx.net.port(), cfg);
  ASSERT_TRUE(c.has_value());

  std::uint64_t id = 0;
  run_wedged(fx, [&] {
    id = c->submit_put(8, 80);
    ASSERT_TRUE(c->flush());
  });

  net::Response r;
  ASSERT_TRUE(c->recv_response(&r));
  EXPECT_EQ(r.id, id);
  EXPECT_EQ(r.type, net::MsgType::kPutResp);
  EXPECT_EQ(r.status, net::WireStatus::kDeadline);
  EXPECT_FALSE(fx.kv.get(8).has_value());  // the put never executed

  // Server and client views reconcile: one drop, zero edge refusals.
  EXPECT_EQ(fx.kv.node_stats(0).deadline_drops, 1u);
  EXPECT_EQ(fx.kv.node_stats(0).deadline_refused, 0u);

  // The same client keeps working once the wedge is gone.
  EXPECT_TRUE(c->put(9, 90));
  EXPECT_EQ(c->get(9).value_or(0), 90u);
}

// A clock that moves 1ns per reading: a 1ns budget stamped at parse time
// has always expired by the admission check that reads the clock next.
class TickingClock final : public ClockSource {
 public:
  std::uint64_t now_ns() const override { return t_.fetch_add(1) + 1; }

 private:
  mutable std::atomic<std::uint64_t> t_{1'000};
};

TEST(DeadlineServe, LoadgenNeverRetriesDeadlineRefusals) {
  // Every op carries a 1ns budget, so the admission edge refuses each one
  // kDeadline.  The budget is spent: the loadgen must count the verdicts
  // and schedule no retry, even with attempts to spare.
  TickingClock clock;
  KvServer<WriterPriorityLock> kv(
      Topology::simulated(1, 2),
      ServeConfig{}.with_workers(1).with_pin(false).with_clock(&clock));
  NetSrv net(kv);
  ASSERT_TRUE(net.ok());
  net::LoadgenConfig cfg;
  cfg.port = net.port();
  cfg.connections = 2;
  cfg.depth = 2;
  cfg.requests_per_conn = 20;
  cfg.client.op_timeout_ms = 10'000;
  cfg.client.deadline_budget_ns = 1;
  cfg.client.retry.max_attempts = 4;
  const net::LoadgenResult r = net::run_loadgen(cfg);
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.deadline, 40u);  // every op, each refused once
  EXPECT_EQ(r.requests, 40u);
  EXPECT_EQ(r.retries, 0u);
  EXPECT_EQ(r.errors + r.shed + r.deferred + r.timeouts, 0u);
  // Client and server views reconcile: every verdict came from the edge.
  EXPECT_EQ(kv.node_stats(0).deadline_refused, r.deadline);
}

}  // namespace
}  // namespace bjrw::serve
