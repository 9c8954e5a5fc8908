// Tier-1 loopback suite for the socket front-end (src/net/): a real
// NetServer over a KvServer on 127.0.0.1:<ephemeral>, driven by KvClient —
// get/put/erase/get_many roundtrips (empty batch included), multi-node
// batches on a simulated 2x4 topology, pipelined out-of-order id
// correlation, protocol-error replies (oversized frame, bad magic, any
// other protocol version, unknown type, and the whole bad-request matrix
// of tests/bad_frames.hpp on one surviving connection), typed shed
// refusals (a burst past the slot pool included), TTL and deadline-budget
// ops, concurrent clients, the event loop's spin-then-park idle loop, and
// orderly server stop.  The CI stress matrix also runs this binary under
// ThreadSanitizer.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "src/core/locks.hpp"
#include "src/harness/thread_coord.hpp"
#include "src/harness/topology.hpp"
#include "src/net/client.hpp"
#include "src/net/net_server.hpp"
#include "src/serve/server.hpp"
#include "tests/bad_frames.hpp"

namespace bjrw::net {
namespace {

using Server = serve::KvServer<CohortWriterPriorityLock>;

struct Loopback {
  Server kv;
  NetServer<CohortWriterPriorityLock> net;

  explicit Loopback(serve::ServeConfig scfg = server_config())
      : kv(Topology::simulated(2, 4), scfg), net(kv) {}

  static serve::ServeConfig server_config() {
    return serve::ServeConfig{}.with_workers(2);
  }

  KvClient client(const ClientConfig& cfg = {}) {
    auto c = KvClient::connect(net.port(), cfg);
    EXPECT_TRUE(c.has_value());
    return std::move(*c);
  }
};

TEST(NetLoopback, PointOpsRoundtrip) {
  Loopback lb;
  ASSERT_TRUE(lb.net.ok());
  KvClient c = lb.client();
  ASSERT_TRUE(c.ok());

  EXPECT_FALSE(c.get(5).has_value());
  EXPECT_TRUE(c.put(5, 50));
  const auto v = c.get(5);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 50u);
  EXPECT_TRUE(c.put(5, 51));  // overwrite
  EXPECT_EQ(c.get(5).value_or(0), 51u);
  EXPECT_TRUE(c.erase(5));
  EXPECT_FALSE(c.erase(5));  // already gone
  EXPECT_FALSE(c.get(5).has_value());
}

TEST(NetLoopback, GetManyRoundtripsIncludingEmptyBatch) {
  Loopback lb;
  ASSERT_TRUE(lb.net.ok());
  KvClient c = lb.client();

  // Keys spread across both simulated nodes (node_of_key varies), so the
  // batch exercises the multi-slice latch behind the wire.
  std::vector<std::uint64_t> keys;
  for (std::uint64_t k = 0; k < 64; ++k) {
    keys.push_back(k);
    if (k % 2 == 0) {
      ASSERT_TRUE(c.put(k, k * 10));
    }
  }
  const auto got = c.get_many(keys);
  ASSERT_TRUE(got.has_value());
  ASSERT_EQ(got->size(), keys.size());
  for (std::uint64_t k = 0; k < 64; ++k) {
    ASSERT_EQ((*got)[k].has_value(), k % 2 == 0) << "key " << k;
    if ((*got)[k]) {
      EXPECT_EQ(*(*got)[k], k * 10);
    }
  }

  // Empty batch: a legal wire frame answered with an empty result list
  // (the KvServer-side empty-submit fix observed end to end).
  const auto empty = c.get_many({});
  ASSERT_TRUE(empty.has_value());
  EXPECT_TRUE(empty->empty());

  // The connection is still healthy afterwards.
  EXPECT_TRUE(c.put(1000, 1));
  EXPECT_EQ(c.get(1000).value_or(0), 1u);
}

TEST(NetLoopback, PipelinedResponsesCorrelateById) {
  Loopback lb;
  ASSERT_TRUE(lb.net.ok());
  KvClient c = lb.client();

  // Issue a burst of puts + gets without reading; collect all responses
  // and match by id — order on the wire is not guaranteed.
  constexpr std::uint64_t kN = 32;
  std::vector<std::uint64_t> put_ids, get_ids;
  for (std::uint64_t k = 0; k < kN; ++k)
    put_ids.push_back(c.submit_put(k, k + 3));
  ASSERT_TRUE(c.flush());
  std::vector<Response> got;
  for (std::uint64_t i = 0; i < kN; ++i) {
    Response r;
    ASSERT_TRUE(c.recv_response(&r));
    got.push_back(r);
  }
  for (const std::uint64_t id : put_ids) {
    bool found = false;
    for (const Response& r : got)
      if (r.id == id) {
        EXPECT_EQ(r.type, MsgType::kPutResp);
        found = true;
      }
    EXPECT_TRUE(found) << "no response for put id " << id;
  }
  for (std::uint64_t k = 0; k < kN; ++k) get_ids.push_back(c.submit_get(k));
  ASSERT_TRUE(c.flush());
  std::uint64_t sum = 0;
  for (std::uint64_t i = 0; i < kN; ++i) {
    Response r;
    ASSERT_TRUE(c.recv_response(&r));
    ASSERT_EQ(r.type, MsgType::kGetResp);
    ASSERT_TRUE(r.found);
    sum += r.value;
  }
  EXPECT_EQ(sum, kN * (kN - 1) / 2 + 3 * kN);
}

TEST(NetLoopback, OversizedFrameIsRejectedAndConnectionClosed) {
  Loopback lb;
  ASSERT_TRUE(lb.net.ok());
  KvClient c = lb.client();

  // A length prefix above the ceiling: the server answers kFrameTooLarge
  // on the prefix alone and closes (the stream cannot be resynchronized),
  // so no body follows it.
  PackBuffer b;
  b.put_u32(static_cast<std::uint32_t>(kDefaultMaxFrame + 1));
  ASSERT_TRUE(c.send_raw(b.data(), b.size()));
  Response r;
  ASSERT_TRUE(c.recv_response(&r));
  EXPECT_EQ(r.type, MsgType::kErrorResp);
  EXPECT_EQ(r.error_code, ErrorCode::kFrameTooLarge);
  EXPECT_FALSE(c.recv_response(&r)) << "connection must be closed";

  // A fresh connection still works: the rejection was per-connection.
  KvClient c2 = lb.client();
  EXPECT_TRUE(c2.put(1, 2));
}

TEST(NetLoopback, BadMagicAndOtherVersionsClose) {
  // The errors that survive (unknown type, malformed body) are the
  // bad-request matrix below.
  Loopback lb;
  ASSERT_TRUE(lb.net.ok());

  {  // Bad magic: error reply, then close.
    KvClient c = lb.client();
    PackBuffer b;
    const std::size_t at = b.begin_frame();
    b.put_u32(0x12345678);  // not kMagic
    b.put_u16(kVersion);
    b.put_u16(0);
    b.put_u64(101);
    b.end_frame(at);
    ASSERT_TRUE(c.send_raw(b.data(), b.size()));
    Response r;
    ASSERT_TRUE(c.recv_response(&r));
    EXPECT_EQ(r.error_code, ErrorCode::kBadMagic);
    EXPECT_FALSE(c.recv_response(&r)) << "bad magic must close";
  }
  // Any other version — the previous layout or a future one: close too.
  // The op budget turns a server that kept the connection open into a
  // failure instead of a hang.
  ClientConfig bounded;
  bounded.op_timeout_ms = 10'000;
  for (const int v : {kVersion - 1, kVersion + 1}) {
    SCOPED_TRACE("version " + std::to_string(v));
    KvClient c = lb.client(bounded);
    PackBuffer b;
    const std::size_t at = b.begin_frame();
    b.put_u32(kMagic);
    b.put_u16(static_cast<std::uint16_t>(v));
    b.put_u16(static_cast<std::uint16_t>(MsgType::kGetReq));
    b.put_u64(102);
    b.put_u64(7);  // key
    b.end_frame(at);
    ASSERT_TRUE(c.send_raw(b.data(), b.size()));
    Response r;
    ASSERT_TRUE(c.recv_response(&r));
    EXPECT_EQ(r.type, MsgType::kErrorResp);
    EXPECT_EQ(r.id, 102u);
    EXPECT_EQ(r.error_code, ErrorCode::kBadVersion);
    EXPECT_FALSE(c.recv_response(&r)) << "a version mismatch must close";
  }
}

TEST(NetLoopback, BadRequestMatrixIsAnsweredAndTheConnectionSurvives) {
  // Each bad frame (each request type one byte short and one byte long, a
  // get_many count past its keys or at 0xFFFFFFFF, every response type and
  // an undefined type sent as a request) gets its error code under its own
  // id; a valid put and get follow on the same connection, and
  // protocol_errors() rises by exactly one per bad frame.
  Loopback lb;
  ASSERT_TRUE(lb.net.ok());
  ClientConfig bounded;
  bounded.op_timeout_ms = 10'000;  // a lost answer fails instead of hanging
  KvClient c = lb.client(bounded);
  std::uint64_t key = 2000;
  for (const BadFrame& f : bad_request_frames()) {
    SCOPED_TRACE(f.name);
    const std::uint64_t errors = lb.net.protocol_errors();
    ASSERT_TRUE(c.send_raw(f.bytes.data(), f.bytes.size()));
    Response r;
    ASSERT_TRUE(c.recv_response(&r));
    EXPECT_EQ(r.type, MsgType::kErrorResp);
    EXPECT_EQ(r.id, f.id);
    EXPECT_EQ(r.error_code, f.code);
    ASSERT_TRUE(c.put(key, key + 1)) << "the connection must survive";
    EXPECT_EQ(c.get(key).value_or(0), key + 1);
    EXPECT_EQ(lb.net.protocol_errors(), errors + 1);
    ++key;
  }
}

TEST(NetLoopback, AdmissionShedIsTypedAndConnectionKeepsServing) {
  // Two tokens per node-0 bucket, a refill rate of ~1 token per 17
  // minutes: the first two ops against node 0 are admitted, everything
  // after sheds.  The shed response must be a typed status frame, and the
  // connection must keep serving — a refused slot is answered by the
  // completion sweep and recycled like any other, which this exercises.
  const serve::ServeConfig scfg = serve::ServeConfig{}
                                      .with_workers(2)
                                      .with_admission(/*rate=*/1e-3,
                                                      /*bucket=*/2);
  Loopback lb(scfg);
  ASSERT_TRUE(lb.net.ok());

  // Keys owned by node 0 only, so every op drains the same bucket.
  std::vector<std::uint64_t> k0;
  for (std::uint64_t k = 0; k0.size() < 6; ++k)
    if (lb.kv.map().node_of_key(k) == 0) k0.push_back(k);

  KvClient c = lb.client();
  EXPECT_TRUE(c.put(k0[0], 10));
  EXPECT_TRUE(c.put(k0[1], 20));

  // The refusal echoes the request's response type with kShed status.
  const std::uint64_t id = c.submit_put(k0[2], 30);
  ASSERT_TRUE(c.flush());
  Response r;
  ASSERT_TRUE(c.recv_response(&r));
  EXPECT_EQ(r.id, id);
  EXPECT_EQ(r.type, MsgType::kPutResp);
  EXPECT_EQ(r.status, WireStatus::kShed);

  // The connection was re-armed: the next request is answered too.
  const std::uint64_t id2 = c.submit_get(k0[0]);
  ASSERT_TRUE(c.flush());
  ASSERT_TRUE(c.recv_response(&r));
  EXPECT_EQ(r.id, id2);
  EXPECT_EQ(r.type, MsgType::kGetResp);
  EXPECT_EQ(r.status, WireStatus::kShed);

  // Server-side accounting saw every shed.
  std::uint64_t shed = 0;
  for (int d = 0; d < lb.kv.node_count(); ++d)
    shed += lb.kv.node_stats(d).shed;
  EXPECT_GE(shed, 2u);
}

TEST(NetLoopback, ShedBurstBeyondTheSlotPoolIsAnsweredInFull) {
  // A one-token node-0 bucket that never refills in test time: one put
  // drains it, then three slot pools' worth of node-0 puts arrive in one
  // flush.  Every refused slot must be answered and recycled, so the
  // connection walks through slot exhaustion (read interest dropped,
  // re-armed once refusals free slots) without losing or doubling a frame.
  const serve::ServeConfig scfg = serve::ServeConfig{}
                                      .with_workers(2)
                                      .with_admission(/*rate=*/1e-3,
                                                      /*bucket=*/1);
  Loopback lb(scfg);
  ASSERT_TRUE(lb.net.ok());
  constexpr std::size_t kFrames = 3 * kSlotsPerConnection;
  std::vector<std::uint64_t> k0;
  for (std::uint64_t k = 0; k0.size() < kFrames; ++k)
    if (lb.kv.map().node_of_key(k) == 0) k0.push_back(k);

  ClientConfig ccfg;
  ccfg.op_timeout_ms = 10'000;  // a lost answer fails instead of hanging
  KvClient c = lb.client(ccfg);
  ASSERT_TRUE(c.put(k0[0], 1));  // spends node 0's only token

  std::vector<std::uint64_t> ids;
  for (std::size_t i = 0; i < kFrames; ++i)
    ids.push_back(c.submit_put(k0[i], i));
  ASSERT_TRUE(c.flush());
  std::vector<int> answers(kFrames, 0);
  for (std::size_t i = 0; i < kFrames; ++i) {
    Response r;
    ASSERT_TRUE(c.recv_response(&r)) << "answer " << i << " never came";
    ASSERT_GE(r.id, ids.front());
    ASSERT_LE(r.id, ids.back());
    EXPECT_EQ(r.type, MsgType::kPutResp);
    EXPECT_EQ(r.status, WireStatus::kShed);
    answers[r.id - ids.front()] += 1;
  }
  for (std::size_t i = 0; i < kFrames; ++i)
    EXPECT_EQ(answers[i], 1) << "request id " << ids[i];

  std::uint64_t shed = 0;
  for (int d = 0; d < lb.kv.node_count(); ++d)
    shed += lb.kv.node_stats(d).shed;
  EXPECT_EQ(shed, kFrames);

  // The connection still serves after the burst.
  const std::uint64_t id = c.submit_get(k0[0]);
  ASSERT_TRUE(c.flush());
  Response r;
  ASSERT_TRUE(c.recv_response(&r));
  EXPECT_EQ(r.id, id);
  EXPECT_EQ(r.type, MsgType::kGetResp);
}

TEST(NetLoopback, ConcurrentClientsSeeEachOthersWrites) {
  Loopback lb;
  ASSERT_TRUE(lb.net.ok());
  constexpr int kClients = 4;
  constexpr std::uint64_t kEach = 40;
  run_threads(kClients, [&](std::size_t t) {
    auto c = KvClient::connect(lb.net.port());
    ASSERT_TRUE(c.has_value());
    for (std::uint64_t i = 0; i < kEach; ++i)
      ASSERT_TRUE(c->put(t * 1000 + i, t * 1000 + i + 1));
  });
  // One more client reads everything every other client wrote.
  KvClient c = lb.client();
  std::vector<std::uint64_t> keys;
  for (std::uint64_t t = 0; t < kClients; ++t)
    for (std::uint64_t i = 0; i < kEach; ++i) keys.push_back(t * 1000 + i);
  const auto got = c.get_many(keys);
  ASSERT_TRUE(got.has_value());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    ASSERT_TRUE((*got)[i].has_value()) << "key " << keys[i];
    EXPECT_EQ(*(*got)[i], keys[i] + 1);
  }
  EXPECT_GE(lb.net.connections_accepted(), static_cast<std::uint64_t>(
                                               kClients + 1));
}

TEST(NetLoopback, TtlPutAndTouchRoundtripOverTheWire) {
  // Every server honours leases, so the default test server does: put_ttl
  // answers with a plain kPutResp, touch with kTouchResp, and a short
  // lease actually expires (real steady clock; generous poll window).
  Loopback lb;
  ASSERT_TRUE(lb.net.ok());
  KvClient c = lb.client();

  // Long lease: serves normally, touch succeeds.
  ASSERT_TRUE(c.put_ttl(5, 50, /*ttl_ns=*/60'000'000'000ULL));
  EXPECT_EQ(c.get(5).value_or(0), 50u);
  EXPECT_TRUE(c.touch(5, 60'000'000'000ULL));
  EXPECT_FALSE(c.touch(999, 1'000'000'000ULL));  // absent: touched=false

  // Short lease: the key disappears within the poll window.
  ASSERT_TRUE(c.put_ttl(6, 60, /*ttl_ns=*/20'000'000ULL));  // 20ms
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  bool gone = false;
  while (!gone && std::chrono::steady_clock::now() < deadline) {
    gone = !c.get(6).has_value();
    if (!gone) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(gone) << "20ms lease still served after 10s";
  EXPECT_EQ(c.get(5).value_or(0), 50u);  // the long lease is untouched
}

TEST(NetLoopback, EveryOpTypeRoundTripsWithAndWithoutBudget) {
  // The whole request vocabulary against one server: point ops, TTL'd put
  // and touch, then the same ops from a client whose every frame carries a
  // deadline budget.
  Loopback lb;
  ASSERT_TRUE(lb.net.ok());
  KvClient c = lb.client();
  constexpr std::uint64_t kKey = 1000;

  EXPECT_TRUE(c.put(kKey, 5));
  EXPECT_EQ(c.get(kKey).value_or(0), 5u);
  EXPECT_TRUE(c.erase(kKey));

  // The key is seeded with a live lease first, so the pipelined touch's
  // outcome does not depend on execution order across workers.
  ASSERT_TRUE(c.put_ttl(kKey, 7, 1'000'000'000ULL));
  const std::uint64_t ttl_id = c.submit_put_ttl(kKey, 7, 1'000'000'000ULL);
  const std::uint64_t touch_id = c.submit_touch(kKey, 1'000'000'000ULL);
  ASSERT_TRUE(c.flush());
  for (int i = 0; i < 2; ++i) {
    Response r;
    ASSERT_TRUE(c.recv_response(&r));
    EXPECT_EQ(r.status, WireStatus::kOk);
    if (r.id == ttl_id) {
      EXPECT_EQ(r.type, MsgType::kPutResp);
    } else {
      EXPECT_EQ(r.id, touch_id);
      EXPECT_EQ(r.type, MsgType::kTouchResp);
      EXPECT_TRUE(r.touched);  // the put_ttl just ahead of it landed
    }
  }

  ClientConfig dcfg;
  dcfg.deadline_budget_ns = 60'000'000'000ULL;  // 60s: never expires here
  KvClient dc = lb.client(dcfg);
  EXPECT_TRUE(dc.put(kKey + 90, 9));
  EXPECT_EQ(dc.get(kKey + 90).value_or(0), 9u);
  const auto got = dc.get_many({kKey + 90, kKey + 91});
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ((*got)[0].value_or(0), 9u);
  EXPECT_FALSE((*got)[1].has_value());
}

// Idles for at least 10x the park grace, then keeps waiting (bounded) until
// the event loop has parked: an oversubscribed or sanitized run may not
// schedule the loop's two grace-spaced idle rounds within the first sleep.
void idle_until_loop_parks(Loopback& lb) {
  const auto grace =
      std::chrono::nanoseconds(lb.kv.config().park_grace_ns);
  std::this_thread::sleep_for(10 * grace);
  const auto give_up = std::chrono::steady_clock::now() +
                       std::chrono::seconds(10);
  while (lb.net.loop_parks() == 0 &&
         std::chrono::steady_clock::now() < give_up)
    std::this_thread::sleep_for(grace);
}

TEST(NetLoopback, IdleEventLoopParksAndStillAnswers) {
  Loopback lb;  // default 100us park grace
  ASSERT_TRUE(lb.net.ok());
  KvClient c = lb.client();
  ASSERT_TRUE(c.put(7, 70));
  idle_until_loop_parks(lb);
  EXPECT_GE(lb.net.loop_parks(), 1u);
  // The parked loop is woken by the request's own EPOLLIN.
  EXPECT_EQ(c.get(7).value_or(0), 70u);
}

TEST(NetLoopback, StopWakesParkedEventLoop) {
  auto lb = std::make_unique<Loopback>();
  ASSERT_TRUE(lb->net.ok());
  KvClient c = lb->client();
  ASSERT_TRUE(c.put(7, 70));
  idle_until_loop_parks(*lb);
  ASSERT_GE(lb->net.loop_parks(), 1u);
  lb->net.stop();  // must return: the wake eventfd unblocks epoll_wait
  EXPECT_FALSE(KvClient::connect(lb->net.port()).has_value());
}

TEST(NetLoopback, StopDrainsInFlightAndRefusesNewConnections) {
  auto lb = std::make_unique<Loopback>();
  ASSERT_TRUE(lb->net.ok());
  KvClient c = lb->client();
  for (std::uint64_t k = 0; k < 16; ++k) ASSERT_TRUE(c.put(k, k));
  const std::uint16_t port = lb->net.port();

  // stop() must resolve every in-flight latch before returning; the
  // KvServer shuts down only afterwards (Loopback member order: net is
  // destroyed before kv).
  lb->net.stop();
  lb.reset();

  // The listener is gone.
  EXPECT_FALSE(KvClient::connect(port).has_value());
}

}  // namespace
}  // namespace bjrw::net
