// Tier-1 fault-injection suite for the transport seam (src/harness/
// fault.hpp) and the net stack's behavior under it: seeded schedules
// replay bit-for-bit, reset offsets fire at the chosen byte, MSG_NOSIGNAL
// keeps a dead peer from killing the process (the SIGPIPE regression),
// short/split/coalesced/delayed I/O preserves end-to-end integrity, a
// connection reset is survived by the client's reconnect path (the sync
// conveniences and the loadgen's pipelines alike), shed refusals are
// retried within their attempt budget without stalling the other ops on
// their connection, a hung server costs the per-op budget instead of
// blocking forever, an undefined status byte is a protocol error, and an
// op budget too large for the clock never expires.
// The CI stress matrix also runs this binary under ThreadSanitizer.
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <thread>
#include <vector>

#include "src/core/locks.hpp"
#include "src/harness/fault.hpp"
#include "src/harness/prng.hpp"
#include "src/harness/topology.hpp"
#include "src/net/client.hpp"
#include "src/net/loadgen.hpp"
#include "src/net/net_server.hpp"
#include "src/serve/server.hpp"

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
};

// ---- injector unit tests (no sockets) ---------------------------------------

TEST(NetFault, SameSeedReplaysIdenticalSchedule) {
  FaultPlan plan;
  plan.seed = 42;
  plan.short_read_prob = 0.5;
  plan.short_write_prob = 0.5;
  plan.delay_prob = 0.25;
  plan.delay_ns = 1;
  plan.min_chunk = 2;
  FaultInjector a(plan), b(plan);
  for (int i = 0; i < 256; ++i) {
    const auto ra = a.plan_read(7, 64);
    const auto rb = b.plan_read(7, 64);
    ASSERT_EQ(ra.len, rb.len) << "read step " << i;
    ASSERT_EQ(ra.delayed, rb.delayed) << "read step " << i;
    ASSERT_EQ(ra.reset, rb.reset) << "read step " << i;
    const auto wa = a.plan_write(9, 128);
    const auto wb = b.plan_write(9, 128);
    ASSERT_EQ(wa.len, wb.len) << "write step " << i;
    ASSERT_EQ(wa.delayed, wb.delayed) << "write step " << i;
  }
  // A different seed must produce a different schedule somewhere in the
  // same window (the PRNG chains are decorrelated, not offset).
  plan.seed = 43;
  FaultInjector c(plan);
  bool diverged = false;
  FaultInjector a2(FaultPlan{.seed = 42,
                             .short_read_prob = 0.5,
                             .short_write_prob = 0.5,
                             .delay_prob = 0.25,
                             .delay_ns = 1,
                             .min_chunk = 2});
  for (int i = 0; i < 256 && !diverged; ++i)
    diverged = a2.plan_read(7, 64).len != c.plan_read(7, 64).len;
  EXPECT_TRUE(diverged);
}

TEST(NetFault, ShortLengthsStayWithinChunkBounds) {
  FaultPlan plan;
  plan.seed = 7;
  plan.short_read_prob = 1.0;  // every call clamps
  plan.min_chunk = 4;
  FaultInjector fi(plan);
  std::uint64_t shortened = 0;
  for (int i = 0; i < 512; ++i) {
    const auto d = fi.plan_read(3, 64);
    ASSERT_GE(d.len, 4u);
    ASSERT_LE(d.len, 64u);
    if (d.len < 64) ++shortened;
  }
  EXPECT_GT(shortened, 0u);
  EXPECT_EQ(fi.short_ios(), shortened);
  // A want at or below min_chunk is never clamped (progress guarantee).
  EXPECT_EQ(fi.plan_read(3, 1).len, 1u);
  EXPECT_EQ(fi.plan_read(3, 4).len, 4u);
}

TEST(NetFault, ResetFiresAtChosenWriteOffset) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  FaultPlan plan;
  plan.seed = 9;
  plan.reset_write_at = 10;
  FaultInjector fi(plan);
  const std::uint8_t buf[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  // 8 bytes move freely (under the offset)...
  ASSERT_EQ(fi.send(sv[0], buf, 8), 8);
  // ...the next write is clamped to land exactly on byte 10...
  ASSERT_EQ(fi.send(sv[0], buf, 8), 2);
  // ...and the one after dies with a real shutdown + ECONNRESET.
  errno = 0;
  ASSERT_EQ(fi.send(sv[0], buf, 8), -1);
  EXPECT_EQ(errno, ECONNRESET);
  EXPECT_EQ(fi.resets(), 1u);
  // The peer observes exactly 10 bytes then EOF: the stream died at the
  // chosen offset, not inside the next buffer.
  std::uint8_t got[32];
  std::size_t total = 0;
  for (;;) {
    const ssize_t n = ::read(sv[1], got + total, sizeof got - total);
    if (n <= 0) break;
    total += static_cast<std::size_t>(n);
  }
  EXPECT_EQ(total, 10u);
  ::close(sv[0]);
  ::close(sv[1]);
}

// ---- the SIGPIPE regression --------------------------------------------------

TEST(NetFault, SendToClosedPeerReturnsEpipeInsteadOfKillingProcess) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  ::close(sv[1]);
  const std::uint8_t buf[64] = {};
  // Without MSG_NOSIGNAL on the seam this raises SIGPIPE and the whole
  // test binary dies here.
  errno = 0;
  EXPECT_EQ(transport_send(sv[0], buf, sizeof buf), -1);
  EXPECT_EQ(errno, EPIPE);
  ::close(sv[0]);
}

TEST(NetFault, ServerSurvivesPeerKilledMidWrite) {
  Loopback lb;
  ASSERT_TRUE(lb.net.ok());
  // Large pipelined batches make the response volume exceed what the
  // kernel buffers absorb, so the server keeps writing after the abrupt
  // close below and must hit EPIPE on a live write, not SIGPIPE.
  std::vector<std::uint64_t> keys;
  for (std::uint64_t k = 0; k < 2048; ++k) keys.push_back(k);
  {
    auto c = KvClient::connect(lb.net.port());
    ASSERT_TRUE(c.has_value());
    for (std::uint64_t k = 0; k < 64; ++k) ASSERT_TRUE(c->put(k, k + 1));
    for (int i = 0; i < 8; ++i)
      c->submit_get_many(keys.data(), static_cast<std::uint32_t>(keys.size()));
    ASSERT_TRUE(c->flush());
    // Destructor closes the socket with eight ~36KB responses in flight.
  }
  // The server is still alive and serving.
  auto c2 = KvClient::connect(lb.net.port());
  ASSERT_TRUE(c2.has_value());
  EXPECT_TRUE(c2->put(9999, 1));
  EXPECT_EQ(c2->get(9999).value_or(0), 1u);
}

// ---- end-to-end integrity under injected faults ------------------------------

TEST(NetFault, ShortSplitCoalescedAndDelayedIoPreservesIntegrity) {
  FaultPlan plan;
  plan.seed = test_seed(0xFA);  // BJRW_TEST_SEED replays the schedule
  plan.short_read_prob = 0.6;
  plan.short_write_prob = 0.6;
  plan.min_chunk = 1;
  plan.delay_prob = 0.05;
  plan.delay_ns = 20'000;
  FaultInjector fi(plan);
  ScopedFaultInjection guard(fi);
  // Declared after the injector so it is destroyed first: stop() joins
  // the event loop, which may still be inside fi's send when the last
  // response has reached the client.
  Loopback lb;
  ASSERT_TRUE(lb.net.ok());

  ClientConfig cfg;
  cfg.op_timeout_ms = 10'000;  // faults slow ops down, never hang them
  auto c = KvClient::connect(lb.net.port(), cfg);
  ASSERT_TRUE(c.has_value());

  constexpr std::uint64_t kN = 128;
  for (std::uint64_t k = 0; k < kN; ++k)
    ASSERT_TRUE(c->put(k, k * 7 + 1)) << "put " << k;

  // Pipelined burst: one flush coalesces all frames; short writes split
  // them back apart — the server must resynchronize on every boundary.
  std::vector<std::uint64_t> ids;
  for (std::uint64_t k = 0; k < kN; ++k) ids.push_back(c->submit_get(k));
  ASSERT_TRUE(c->flush());
  std::vector<bool> seen(kN, false);
  for (std::uint64_t i = 0; i < kN; ++i) {
    Response r;
    ASSERT_TRUE(c->recv_response(&r)) << "response " << i;
    ASSERT_EQ(r.type, MsgType::kGetResp);
    ASSERT_EQ(r.status, WireStatus::kOk);
    std::uint64_t k = kN;
    for (std::uint64_t j = 0; j < kN; ++j)
      if (ids[j] == r.id) k = j;
    ASSERT_LT(k, kN) << "unknown id " << r.id;
    ASSERT_FALSE(seen[k]);
    seen[k] = true;
    ASSERT_TRUE(r.found);
    ASSERT_EQ(r.value, k * 7 + 1);
  }

  // And a multi-node batch through the same lossy pipe.
  std::vector<std::uint64_t> keys;
  for (std::uint64_t k = 0; k < kN; ++k) keys.push_back(k);
  const auto got = c->get_many(keys);
  ASSERT_TRUE(got.has_value());
  for (std::uint64_t k = 0; k < kN; ++k)
    ASSERT_EQ((*got)[k].value_or(0), k * 7 + 1) << "key " << k;

  EXPECT_GT(fi.short_ios(), 0u);  // the schedule actually fired
}

TEST(NetFault, ConnectionResetAtOffsetIsSurvivedByReconnect) {
  FaultPlan plan;
  plan.seed = test_seed(0xCE);
  plan.reset_write_at = 100;  // every stream dies ~3 frames in
  FaultInjector fi(plan);
  ScopedFaultInjection guard(fi);
  // Declared after the injector so it is destroyed first: stop() joins
  // the event loop, which may still be inside fi's send when the last
  // response has reached the client.
  Loopback lb;
  ASSERT_TRUE(lb.net.ok());

  ClientConfig cfg;
  cfg.op_timeout_ms = 5'000;
  cfg.retry.max_attempts = 4;
  cfg.retry.base_backoff_ns = 100'000;  // keep the test fast
  auto c = KvClient::connect(lb.net.port(), cfg);
  ASSERT_TRUE(c.has_value());

  // Every op must end as a completed op or a typed error within its
  // retry budget; with reconnect-on-reset each fresh connection moves
  // ~100 bytes — plenty for the retried frame.
  for (std::uint64_t k = 0; k < 20; ++k)
    ASSERT_TRUE(c->put(k, k + 5)) << "put " << k;
  EXPECT_GE(fi.resets(), 1u);
  EXPECT_GE(c->reconnects(), 1u);
  for (std::uint64_t k = 0; k < 20; ++k)
    ASSERT_EQ(c->get(k).value_or(0), k + 5) << "get " << k;
}

// ---- the loadgen's retry path ------------------------------------------------

// Every attempt of every op ends exactly one way: answered (requests),
// lost to a transport failure (errors / timeouts).  Attempts are the ops
// plus the retries scheduled for them, so this identity says no op was
// dropped uncounted and none was retried without a cause.
void expect_every_attempt_accounted(const LoadgenConfig& cfg,
                                    const LoadgenResult& r) {
  const std::uint64_t ops = static_cast<std::uint64_t>(cfg.connections) *
                            static_cast<std::uint64_t>(cfg.requests_per_conn);
  EXPECT_EQ(r.requests + r.errors + r.timeouts, ops + r.retries);
}

TEST(NetFault, LoadgenRetriesShedOpsWithinTheirBudget) {
  // A 16-token bucket per node that never refills in test time: the first
  // ops are admitted, the rest shed and are retried until their attempts
  // run out.  Refusals are flow control, so every connection finishes.
  Loopback lb(Loopback::server_config().with_admission(/*rate=*/1e-3,
                                                       /*bucket=*/16));
  ASSERT_TRUE(lb.net.ok());
  LoadgenConfig cfg;
  cfg.port = lb.net.port();
  cfg.connections = 2;
  cfg.depth = 2;
  cfg.requests_per_conn = 30;
  cfg.client.op_timeout_ms = 10'000;
  cfg.client.retry.max_attempts = 3;
  cfg.client.retry.base_backoff_ns = 10'000;
  const LoadgenResult r = run_loadgen(cfg);
  EXPECT_TRUE(r.ok);
  EXPECT_GT(r.shed, 0u);
  EXPECT_GT(r.retries, 0u);
  EXPECT_LE(r.retries, r.shed);  // only refusals were retried
  EXPECT_EQ(r.errors, 0u);
  EXPECT_EQ(r.timeouts, 0u);
  EXPECT_EQ(r.reconnects, 0u);
  expect_every_attempt_accounted(cfg, r);
}

TEST(NetFault, LoadgenBackoffDoesNotStallThePipeline) {
  // The same never-refilling 16-token buckets, one connection eight deep,
  // and the largest base backoff: most ops shed and wait out a backoff before
  // their one retry.  The wait belongs to the shed op alone — the
  // connection's other answers must keep being read meanwhile.
  Loopback lb(Loopback::server_config().with_admission(/*rate=*/1e-3,
                                                       /*bucket=*/16));
  ASSERT_TRUE(lb.net.ok());
  LoadgenConfig cfg;
  cfg.port = lb.net.port();
  cfg.connections = 1;
  cfg.depth = 8;
  cfg.requests_per_conn = 32;
  cfg.client.op_timeout_ms = 10'000;
  cfg.client.retry.max_attempts = 2;
  cfg.client.retry.base_backoff_ns = kMaxBackoffNs;
  const LoadgenResult r = run_loadgen(cfg);
  EXPECT_TRUE(r.ok);
  EXPECT_GT(r.shed, 0u);
  EXPECT_GT(r.retries, 0u);
  EXPECT_EQ(r.errors, 0u);
  EXPECT_EQ(r.timeouts, 0u);
  expect_every_attempt_accounted(cfg, r);
  // The shortest backoff a shed op can draw is the jitter floor, half the
  // base: 32 ms.  A sample that long means its answer sat unread behind
  // some op's backoff.  An unstalled loopback round trip takes
  // microseconds, and a descheduled thread on an oversubscribed or
  // sanitized run loses a scheduler tick or two (4 ms each at 250 Hz), not
  // eight.
  const double floor_ns =
      0.5 * static_cast<double>(cfg.client.retry.base_backoff_ns);
  double worst_ns = 0.0;
  for (const double ns : r.latency_ns) worst_ns = std::max(worst_ns, ns);
  EXPECT_LT(worst_ns, floor_ns) << "a latency sample absorbed a backoff";
}

TEST(NetFault, RetryBaseAboveTheBackoffCapIsRejectedNotClamped) {
  Loopback lb;
  ASSERT_TRUE(lb.net.ok());
  ClientConfig ccfg;
  ccfg.retry.base_backoff_ns = kMaxBackoffNs + 1;
  EXPECT_THROW((void)KvClient::connect(lb.net.port(), ccfg),
               std::invalid_argument);
  // The loadgen refuses before it starts a connection thread, where a
  // throw would terminate the process.
  LoadgenConfig cfg;
  cfg.port = lb.net.port();
  cfg.connections = 2;
  cfg.client = ccfg;
  EXPECT_THROW((void)run_loadgen(cfg), std::invalid_argument);
  EXPECT_EQ(lb.net.connections_accepted(), 0u);

  // The cap itself is a valid base.
  ccfg.retry.base_backoff_ns = kMaxBackoffNs;
  auto client = KvClient::connect(lb.net.port(), ccfg);
  ASSERT_TRUE(client.has_value());
  EXPECT_TRUE(client->ok());
}

TEST(NetFault, LoadgenReconnectsThroughResetAndAccountsEveryOp) {
  FaultPlan plan;
  plan.seed = test_seed(0x10AD);
  plan.reset_write_at = 1'000;  // each socket dies ~a dozen frames in
  FaultInjector fi(plan);
  ScopedFaultInjection guard(fi);
  // Declared after the injector so it is destroyed first (see above).
  Loopback lb;
  ASSERT_TRUE(lb.net.ok());
  LoadgenConfig cfg;
  cfg.port = lb.net.port();
  cfg.connections = 2;
  cfg.depth = 4;
  cfg.requests_per_conn = 60;
  cfg.client.op_timeout_ms = 5'000;
  cfg.client.retry.max_attempts = 4;
  cfg.client.retry.base_backoff_ns = 100'000;
  const LoadgenResult r = run_loadgen(cfg);
  EXPECT_TRUE(r.ok);
  EXPECT_GE(fi.resets(), 1u);
  EXPECT_GE(r.reconnects, 1u);
  EXPECT_GT(r.errors, 0u);  // the ops the resets swallowed
  EXPECT_EQ(r.shed + r.deadline, 0u);
  expect_every_attempt_accounted(cfg, r);
}

// ---- raw peers: a listening socket with no NetServer behind it --------------

// Listens on an ephemeral loopback port; returns the fd (-1 on failure).
int listen_loopback(std::uint16_t* port) {
  const int lfd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (lfd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  socklen_t alen = sizeof addr;
  if (::bind(lfd, reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) != 0 ||
      ::listen(lfd, 8) != 0 ||
      ::getsockname(lfd, reinterpret_cast<sockaddr*>(&addr), &alen) != 0) {
    ::close(lfd);
    return -1;
  }
  *port = ntohs(addr.sin_port);
  return lfd;
}

bool read_all(int fd, std::uint8_t* p, std::size_t n) {
  while (n > 0) {
    const ssize_t r = ::recv(fd, p, n, 0);
    if (r <= 0) return false;
    p += r;
    n -= static_cast<std::size_t>(r);
  }
  return true;
}

// A raw peer on its own thread: accepts one connection, reads one request
// frame, sends whatever `answer(b, request_id)` packs into b, then holds
// the connection until the client closes it, so an EOF can never stand in
// for the client's verdict on the answer.
template <class Answer>
std::thread answer_one_request(int lfd, Answer answer) {
  return std::thread([lfd, answer] {
    const int fd = ::accept(lfd, nullptr, nullptr);
    if (fd < 0) return;
    std::uint8_t len[kFrameLenSize];
    std::vector<std::uint8_t> frame;
    MsgHeader h;
    ErrorCode err;
    if (read_all(fd, len, sizeof len)) {
      frame.resize((std::size_t{len[0]} << 24) | (std::size_t{len[1]} << 16) |
                   (std::size_t{len[2]} << 8) | len[3]);
      Unpacker u(frame.data(), frame.size());
      if (read_all(fd, frame.data(), frame.size()) &&
          unpack_header(u, &h, &err)) {
        PackBuffer b;
        answer(b, h.request_id);
        [[maybe_unused]] const ssize_t n = ::send(fd, b.data(), b.size(), 0);
      }
    }
    std::uint8_t sink;
    [[maybe_unused]] const ssize_t r = ::recv(fd, &sink, 1, 0);
    ::close(fd);
  });
}

TEST(NetFault, HungServerCostsTheOpBudgetNotForever) {
  // A listening socket whose backlog accepts the TCP handshake but which
  // never reads or answers: before per-op timeouts, KvClient::get blocked
  // in recv() indefinitely here.
  std::uint16_t port = 0;
  const int lfd = listen_loopback(&port);
  ASSERT_GE(lfd, 0);

  ClientConfig cfg;
  cfg.op_timeout_ms = 100;
  cfg.retry.max_attempts = 2;
  cfg.retry.base_backoff_ns = 0;
  auto c = KvClient::connect(port, cfg);
  ASSERT_TRUE(c.has_value());

  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(c->get(1).has_value());
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_EQ(c->last_error(), ClientError::kTimeout);
  EXPECT_GE(c->timeouts(), 1u);
  // Two attempts x 100ms plus reconnect slack; generous for sanitizers
  // but orders of magnitude under "forever".
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            5'000);
  ::close(lfd);
}

// CPU time the calling thread has used so far, in microseconds.
std::uint64_t thread_cpu_us() {
  rusage ru{};
  ::getrusage(RUSAGE_THREAD, &ru);
  const auto us = [](const timeval& tv) {
    return static_cast<std::uint64_t>(tv.tv_sec) * 1'000'000ULL +
           static_cast<std::uint64_t>(tv.tv_usec);
  };
  return us(ru.ru_utime) + us(ru.ru_stime);
}

constexpr auto kSlowAnswer = std::chrono::milliseconds(30);

TEST(NetFault, ClientParksOnASlowAnswerInsteadOfSpinning) {
  // A raw peer answers one get 30 ms after reading it.  With the default
  // 100 us grace the client spins briefly and then blocks in poll(), so
  // the CPU its thread burns over the wait stays far below the wait.  A
  // client that spun until the answer would burn about the whole 30 ms.
  std::uint16_t port = 0;
  const int lfd = listen_loopback(&port);
  ASSERT_GE(lfd, 0);
  std::thread peer =
      answer_one_request(lfd, [](PackBuffer& b, std::uint64_t id) {
        std::this_thread::sleep_for(kSlowAnswer);
        pack_get_resp(b, id, /*found=*/true, /*value=*/77);
      });

  ClientConfig cfg;
  cfg.op_timeout_ms = 5'000;
  cfg.retry.max_attempts = 1;
  cfg.retry.reconnect = false;
  auto c = KvClient::connect(port, cfg);
  ASSERT_TRUE(c.has_value());
  const std::uint64_t cpu0 = thread_cpu_us();
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_EQ(c->get(5).value_or(0), 77u);
  const auto wall_us = std::chrono::duration_cast<std::chrono::microseconds>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
  const std::uint64_t cpu_us = thread_cpu_us() - cpu0;
  EXPECT_GE(wall_us, 30'000);
  EXPECT_LT(cpu_us, 10'000u) << "wall " << wall_us << " us";
  c.reset();  // our close ends the peer's final recv
  peer.join();
  ::close(lfd);
}

TEST(NetFault, UndefinedStatusByteIsAProtocolError) {
  // The status byte of a data response is peer input.  A raw peer answers
  // one get with a well-formed kGetResp frame whose status WireStatus does
  // not define — 9, past the enum, or 2, the retired value inside it: the
  // client must fail the op as kProtocol and close, not read it as a
  // refusal and give up quietly.
  for (const std::uint8_t status : {std::uint8_t{9}, std::uint8_t{2}}) {
    SCOPED_TRACE(static_cast<int>(status));
    std::uint16_t port = 0;
    const int lfd = listen_loopback(&port);
    ASSERT_GE(lfd, 0);
    std::thread peer =
        answer_one_request(lfd, [status](PackBuffer& b, std::uint64_t id) {
          pack_status_resp(b, MsgType::kGetResp, id,
                           static_cast<WireStatus>(status));
        });

    ClientConfig cfg;
    cfg.op_timeout_ms = 5'000;
    cfg.retry.max_attempts = 1;
    cfg.retry.reconnect = false;
    auto c = KvClient::connect(port, cfg);
    ASSERT_TRUE(c.has_value());
    EXPECT_FALSE(c->get(1).has_value());
    EXPECT_EQ(c->last_error(), ClientError::kProtocol);
    EXPECT_FALSE(c->ok());  // closed: the peer's stream can't be trusted
    c.reset();              // our close ends the peer's final recv
    peer.join();
    ::close(lfd);
  }
}

TEST(NetFault, HugeOpTimeoutMeansNoDeadlineNotAnExpiredOne) {
  // A budget too large to add to the clock must saturate: wrapping it put
  // the deadline in the past and failed every op kTimeout at once.
  Loopback lb;
  ASSERT_TRUE(lb.net.ok());
  ClientConfig cfg;
  cfg.op_timeout_ms = ~std::uint64_t{0};
  auto c = KvClient::connect(lb.net.port(), cfg);
  ASSERT_TRUE(c.has_value());
  EXPECT_TRUE(c->put(3, 30));
  EXPECT_EQ(c->get(3).value_or(0), 30u);
  EXPECT_EQ(c->timeouts(), 0u);
  EXPECT_EQ(c->last_error(), ClientError::kNone);
}

TEST(NetFault, HugeDeadlineBudgetMeansNoDeadlineNotAnExpiredOne) {
  // The server's side of the same bar: a wire budget too large to add to
  // the server clock must saturate to no deadline.  Wrapped, it lands in
  // the past and the admission edge refuses every request kDeadline.
  Loopback lb;
  ASSERT_TRUE(lb.net.ok());
  ClientConfig cfg;
  cfg.deadline_budget_ns = ~std::uint64_t{0};
  cfg.retry.max_attempts = 1;
  auto c = KvClient::connect(lb.net.port(), cfg);
  ASSERT_TRUE(c.has_value());
  EXPECT_TRUE(c->put(4, 40));
  EXPECT_EQ(c->get(4).value_or(0), 40u);
  EXPECT_EQ(c->last_error(), ClientError::kNone);
}

}  // namespace
}  // namespace bjrw::net
