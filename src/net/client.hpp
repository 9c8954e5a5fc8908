// Wire-protocol client for NetServer.  One socket; pipelining is explicit —
// pack any number of requests, flush(), then collect responses (which may
// arrive out of request order; match on Response::id).  The loadgen
// (loadgen.hpp) and the loopback tests are the two consumers; neither needs
// an async reactor on the client side.
//
// Waiting for a response follows the serving threads' IdlePolicy
// (src/harness/idle.hpp): on an empty socket the client keeps re-probing
// the nonblocking read, yielding between probes, for kDefaultParkGraceNs
// (the serving threads' default grace), and only then blocks in poll(2).  A closed-loop caller's answer usually lands
// within that grace, so it costs no sleep and no wake-up.  Reads land in a
// per-client receive buffer, so a ready response (or several pipelined
// ones) costs one read, not a poll plus a read per length prefix and body.
//
// Resilience (DESIGN.md §14): the socket is nonblocking and every wait —
// spin probes included — is checked against a per-op budget
// (ClientConfig::op_timeout_ms), so a hung or stalled server surfaces as a
// typed kTimeout instead of a wedged-forever recv loop.  A transport
// failure mid-frame leaves the stream unsynchronizable, so the client
// closes the socket and reports why (last_error()).  One function,
// settle(), decides every op's fate under a jittered exponential-backoff
// RetryPolicy that honors the server's refusal semantics — kShed backs off
// and retries, kDeadline and kShutdown give up — and reconnects
// after resets (every current op is idempotent, so a resend after an
// ambiguous failure is safe).  settle() never sleeps: a retry carries its
// not-before time, which the synchronous conveniences wait out and the
// loadgen's pipelines queue while they keep reading other answers.  All
// I/O rides the transport_read/transport_send seam (src/harness/fault.hpp):
// sends carry MSG_NOSIGNAL, and tests splice deterministic faults in.
#pragma once

#if !defined(__linux__)
#error "src/net/client.hpp requires Linux sockets"
#endif

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <climits>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/harness/fault.hpp"
#include "src/harness/idle.hpp"
#include "src/harness/prng.hpp"
#include "src/harness/timing.hpp"
#include "src/net/wire.hpp"

namespace bjrw::net {

// One decoded response frame, whichever type it was.
struct Response {
  std::uint64_t id = 0;
  MsgType type = MsgType::kErrorResp;
  // Admission status; a non-kOk data response carries no payload.
  WireStatus status = WireStatus::kOk;
  // kGetResp
  bool found = false;
  std::uint64_t value = 0;
  // kEraseResp
  bool erased = false;
  // kTouchResp
  bool touched = false;
  // kGetManyResp
  std::vector<std::optional<std::uint64_t>> values;
  // kErrorResp
  ErrorCode error_code = ErrorCode::kMalformed;
  std::string error_detail;
};

// Why the transport last failed (sticky until the next successful op).
enum class ClientError : std::uint8_t {
  kNone = 0,
  kTimeout,   // op budget elapsed waiting for the socket
  kClosed,    // EOF / ECONNRESET / EPIPE from the peer
  kProtocol,  // unparseable frame from a trusted server
};

// Backoff cap.
inline constexpr std::uint64_t kMaxBackoffNs = 64'000'000;  // 64ms

// Backoff/retry shape applied by KvClient::settle.  Attempt k (0-based)
// that was shed is resent no earlier than base_backoff_ns * 2^k later,
// clamped to kMaxBackoffNs, and jittered uniformly into [0.5, 1.0) of
// itself so a fleet of clients shed together does not retry together.
struct RetryPolicy {
  int max_attempts = 3;                        // total tries per op
  std::uint64_t base_backoff_ns = 1'000'000;   // 1ms
  bool reconnect = true;                       // reopen after reset/timeout
  std::uint64_t seed = 0x5eedULL;              // jitter stream
};

struct ClientConfig {
  // Per-op wall budget for flush+recv, 0 = wait forever (the historical
  // blocking behavior); budgets past the clock's range also never expire.
  // On expiry the op fails kTimeout and the socket closes — a half-read
  // frame cannot be resynchronized.
  std::uint64_t op_timeout_ms = 0;
  // Relative deadline budget attached to every packed request (0 = none).
  // The server converts it to an absolute deadline on its clock.
  std::uint64_t deadline_budget_ns = 0;
  RetryPolicy retry;
};

// Sleeps until now_ns() reaches `t_ns`; returns at once if it has.
inline void sleep_until_ns(std::uint64_t t_ns) {
  const std::uint64_t now = now_ns();
  if (t_ns > now)
    std::this_thread::sleep_for(std::chrono::nanoseconds(t_ns - now));
}

// What settle() decided for an op's attempt.
struct Settle {
  enum Verdict : std::uint8_t {
    kDone,    // a kOk response: consume it
    kRetry,   // send the op again at not_before_ns (socket open)
    kGiveUp,  // final: refused for good, out of attempts, or no socket
  };
  Verdict verdict = kGiveUp;
  // kRetry only: the steady-clock time (now_ns()) the resend waits for —
  // the shed backoff, or now for a lost op.
  std::uint64_t not_before_ns = 0;
};

class KvClient {
 public:
  // Connects to 127.0.0.1:<port>; nullopt on failure.
  static std::optional<KvClient> connect(std::uint16_t port,
                                         const ClientConfig& cfg = {}) {
    const int fd = open_socket(port);
    if (fd < 0) return std::nullopt;
    return KvClient(fd, port, cfg);
  }

  ~KvClient() { close(); }
  KvClient(KvClient&& other) noexcept
      : jitter_(other.jitter_) { *this = std::move(other); }
  KvClient& operator=(KvClient&& other) noexcept {
    if (this != &other) {
      close();
      fd_ = other.fd_;
      other.fd_ = -1;
      port_ = other.port_;
      cfg_ = other.cfg_;
      next_id_ = other.next_id_;
      out_ = std::move(other.out_);
      in_ = std::move(other.in_);
      in_head_ = other.in_head_;
      in_tail_ = other.in_tail_;
      jitter_ = other.jitter_;
      last_error_ = other.last_error_;
      retries_ = other.retries_;
      timeouts_ = other.timeouts_;
      reconnects_ = other.reconnects_;
    }
    return *this;
  }
  KvClient(const KvClient&) = delete;
  KvClient& operator=(const KvClient&) = delete;

  void close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }
  bool ok() const { return fd_ >= 0; }

  // Drops the dead socket and opens a fresh one to the same server.  The
  // stream state resets (nothing in flight survives a reconnect); request
  // ids keep counting up so responses never collide across connections.
  bool reconnect() {
    drop_stream();
    const int fd = open_socket(port_);
    if (fd < 0) return false;
    fd_ = fd;
    reconnects_ += 1;
    return true;
  }

  ClientError last_error() const { return last_error_; }
  std::uint64_t retries() const { return retries_; }
  std::uint64_t timeouts() const { return timeouts_; }
  std::uint64_t reconnects() const { return reconnects_; }

  // ---- pipelined interface ---------------------------------------------------

  // Each submit_* packs one frame into the out-buffer and returns the
  // request id it will be answered under; nothing hits the wire until
  // flush().  The configured deadline budget rides along on each.
  std::uint64_t submit_get(std::uint64_t key) {
    const std::uint64_t id = next_id_++;
    pack_get_req(out_, id, key, cfg_.deadline_budget_ns);
    return id;
  }
  std::uint64_t submit_put(std::uint64_t key, std::uint64_t value) {
    const std::uint64_t id = next_id_++;
    pack_put_req(out_, id, key, value, cfg_.deadline_budget_ns);
    return id;
  }
  std::uint64_t submit_erase(std::uint64_t key) {
    const std::uint64_t id = next_id_++;
    pack_erase_req(out_, id, key, cfg_.deadline_budget_ns);
    return id;
  }
  std::uint64_t submit_get_many(const std::uint64_t* keys, std::uint32_t n) {
    const std::uint64_t id = next_id_++;
    pack_get_many_req(out_, id, keys, n, cfg_.deadline_budget_ns);
    return id;
  }
  std::uint64_t submit_put_ttl(std::uint64_t key, std::uint64_t value,
                               std::uint64_t ttl_ns) {
    const std::uint64_t id = next_id_++;
    pack_put_ttl_req(out_, id, key, value, ttl_ns, cfg_.deadline_budget_ns);
    return id;
  }
  std::uint64_t submit_touch(std::uint64_t key, std::uint64_t ttl_ns) {
    const std::uint64_t id = next_id_++;
    pack_touch_req(out_, id, key, ttl_ns, cfg_.deadline_budget_ns);
    return id;
  }

  bool flush() { return flush_by(op_deadline()); }

  // Escape hatch for protocol tests: splice raw bytes into the stream.
  bool send_raw(const void* data, std::size_t len) {
    const std::uint64_t deadline = op_deadline();
    const auto* p = static_cast<const std::uint8_t*>(data);
    std::size_t off = 0;
    while (off < len) {
      const ssize_t n = transport_send(fd_, p + off, len - off);
      if (n > 0) {
        off += static_cast<std::size_t>(n);
        continue;
      }
      if (!would_block(n) || !wait_io(POLLOUT, deadline)) return false;
    }
    return true;
  }

  // Reads one response frame, waiting at most the per-op budget.  False on
  // timeout, EOF, or a frame the client cannot parse (the server is
  // trusted, so that is fatal); the socket is closed on failure — a
  // mid-frame cut cannot be resynchronized — and last_error() says why.
  bool recv_response(Response* resp) { return recv_by(resp, op_deadline()); }

  // ---- synchronous conveniences ----------------------------------------------

  // Each convenience runs one op to its settle() verdict.  Pipelined
  // callers submit/flush/recv themselves and settle() each answer.

  std::optional<std::uint64_t> get(std::uint64_t key) {
    std::optional<std::uint64_t> out;
    roundtrip(MsgType::kGetResp, [&](Response& r) {
      if (r.found) out = r.value;
    }, [&] { return submit_get(key); });
    return out;
  }

  bool put(std::uint64_t key, std::uint64_t value) {
    return roundtrip(MsgType::kPutResp, [](Response&) {},
                     [&] { return submit_put(key, value); });
  }

  bool erase(std::uint64_t key) {
    bool erased = false;
    roundtrip(MsgType::kEraseResp, [&](Response& r) { erased = r.erased; },
              [&] { return submit_erase(key); });
    return erased;
  }

  bool put_ttl(std::uint64_t key, std::uint64_t value, std::uint64_t ttl_ns) {
    return roundtrip(MsgType::kPutResp, [](Response&) {},
                     [&] { return submit_put_ttl(key, value, ttl_ns); });
  }

  bool touch(std::uint64_t key, std::uint64_t ttl_ns) {
    bool touched = false;
    roundtrip(MsgType::kTouchResp, [&](Response& r) { touched = r.touched; },
              [&] { return submit_touch(key, ttl_ns); });
    return touched;
  }

  // Returns the per-key results, or nullopt on transport/protocol failure
  // (including an admission refusal that survived the retry loop).
  std::optional<std::vector<std::optional<std::uint64_t>>> get_many(
      const std::vector<std::uint64_t>& keys) {
    std::optional<std::vector<std::optional<std::uint64_t>>> out;
    roundtrip(MsgType::kGetManyResp,
              [&](Response& r) { out = std::move(r.values); }, [&] {
                return submit_get_many(
                    keys.data(), static_cast<std::uint32_t>(keys.size()));
              });
    return out;
  }

  // The one retry path: settles attempt `attempt` (0-based) of an op.
  // `r` is its response, or nullptr when the transport lost it.  Never
  // sleeps: a retry's backoff comes back as its not-before time.
  //  * kOk           -> kDone.
  //  * kShed         -> kRetry after the policy's backoff, while attempts
  //                     remain.
  //  * lost          -> the socket is reopened first, if the policy
  //                     allows, even when this op is out of attempts (the
  //                     connection outlives the op); then kRetry while
  //                     attempts remain.  Ops lost together share the one
  //                     reconnect.
  //  * anything else -> kGiveUp: kDeadline (the budget is spent),
  //                     kShutdown, and kErrorResp.
  Settle settle(int attempt, const Response* r) {
    bool retryable = false;
    if (r == nullptr) {
      retryable = cfg_.retry.reconnect && (ok() || reconnect());
    } else if (r->type != MsgType::kErrorResp) {
      if (r->status == WireStatus::kOk) return {Settle::kDone};
      retryable = r->status == WireStatus::kShed;
    }
    const int attempts =
        cfg_.retry.max_attempts < 1 ? 1 : cfg_.retry.max_attempts;
    if (!retryable || attempt + 1 >= attempts) return {Settle::kGiveUp};
    retries_ += 1;
    return {Settle::kRetry, now_ns() + (r != nullptr ? backoff(attempt) : 0)};
  }

 private:
  explicit KvClient(int fd, std::uint16_t port, const ClientConfig& cfg)
      : fd_(fd),
        port_(port),
        cfg_(cfg),
        jitter_(test_seed(cfg.retry.seed)) {}

  static int open_socket(std::uint16_t port) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return -1;
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof addr) != 0) {
      ::close(fd);
      return -1;
    }
    // Nonblocking from here on: every wait is a probe or a poll() the
    // per-op budget can interrupt.
    const int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
    return fd;
  }

  // Absolute per-op deadline on the steady clock; 0 = unbounded.  A
  // budget that would overflow the clock saturates instead of wrapping
  // into the past.
  std::uint64_t op_deadline() const {
    if (cfg_.op_timeout_ms == 0) return 0;
    const std::uint64_t now = now_ns();
    const std::uint64_t kMax = ~std::uint64_t{0};
    if (cfg_.op_timeout_ms >= (kMax - now) / 1'000'000ULL) return kMax;
    return now + cfg_.op_timeout_ms * 1'000'000ULL;
  }

  // The policy's jittered backoff for shed attempt `k`, in ns.
  std::uint64_t backoff(int k) {
    std::uint64_t ns = cfg_.retry.base_backoff_ns;
    for (int i = 0; i < k && ns < kMaxBackoffNs; ++i) ns *= 2;
    if (ns > kMaxBackoffNs) ns = kMaxBackoffNs;
    const double j = 0.5 + jitter_.uniform01() * 0.5;  // [0.5, 1.0)
    return static_cast<std::uint64_t>(static_cast<double>(ns) * j);
  }

  // Classifies one failed transport return: true = the I/O would block
  // and is worth waiting out; otherwise (EOF, reset, ...) records the
  // error, closes, and returns false.  EINTR counts as would-block.
  bool would_block(ssize_t n) {
    if (n == 0) return fail(ClientError::kClosed);  // EOF mid-frame
    if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK)
      return true;
    return fail(ClientError::kClosed);  // ECONNRESET, EPIPE, ...
  }

  // Fails the op kTimeout once `now` is past the op budget.
  bool expired(std::uint64_t now, std::uint64_t deadline) {
    if (deadline == 0 || now < deadline) return false;
    timeouts_ += 1;
    fail(ClientError::kTimeout);
    return true;
  }

  // poll()s for readiness within the op budget.  False = timed out (or the
  // fd died); the op is abandoned and the socket closed.
  bool wait_io(short events, std::uint64_t deadline) {
    for (;;) {
      int timeout_ms = -1;
      if (deadline != 0) {
        const std::uint64_t now = now_ns();
        if (expired(now, deadline)) return false;
        // Rounded up, so an expired poll lands past the deadline; clamped,
        // so a budget beyond INT_MAX ms polls in INT_MAX-ms slices.
        const std::uint64_t ms = (deadline - now) / 1'000'000ULL + 1;
        timeout_ms = ms > INT_MAX ? INT_MAX : static_cast<int>(ms);
      }
      pollfd p{fd_, events, 0};
      const int r = ::poll(&p, 1, timeout_ms);
      if (r > 0) return true;
      // r == 0 or EINTR: the deadline check above decides.
      if (r < 0 && errno != EINTR) return fail(ClientError::kClosed);
    }
  }

  bool fail(ClientError why) {
    last_error_ = why;
    drop_stream();
    return false;
  }

  // Closes the socket and forgets both directions of its stream: neither
  // a half-sent request nor a half-read response survives into the next
  // connection.
  void drop_stream() {
    close();
    out_.clear();
    in_head_ = in_tail_ = 0;
  }

  bool flush_by(std::uint64_t deadline) {
    // last_error() describes the most recent op, so each op starts clean
    // (a sticky earlier failure would misclassify this one's outcome).
    last_error_ = ClientError::kNone;
    if (fd_ < 0) {
      last_error_ = ClientError::kClosed;
      return false;
    }
    while (!out_.empty()) {
      const ssize_t n = transport_send(fd_, out_.data(), out_.size());
      if (n > 0) {
        out_.consume(static_cast<std::size_t>(n));
        continue;
      }
      if (!would_block(n) || !wait_io(POLLOUT, deadline)) return false;
    }
    return true;
  }

  bool recv_by(Response* resp, std::uint64_t deadline) {
    last_error_ = ClientError::kNone;
    if (fd_ < 0) {
      last_error_ = ClientError::kClosed;
      return false;
    }
    if (!buffer_at_least(kFrameLenSize, deadline)) return false;
    const std::uint8_t* lenbuf = in_.data() + in_head_;
    const std::uint32_t flen = (static_cast<std::uint32_t>(lenbuf[0]) << 24) |
                               (static_cast<std::uint32_t>(lenbuf[1]) << 16) |
                               (static_cast<std::uint32_t>(lenbuf[2]) << 8) |
                               lenbuf[3];
    if (flen < kHeaderSize || flen > kDefaultMaxFrame)
      return fail(ClientError::kProtocol);
    if (!buffer_at_least(kFrameLenSize + flen, deadline)) return false;
    // The frame is consumed up front: whatever the parse below decides,
    // the stream moves past it (a protocol failure drops the stream).
    Unpacker u(in_.data() + in_head_ + kFrameLenSize, flen);
    in_head_ += kFrameLenSize + flen;
    if (in_head_ == in_tail_) in_head_ = in_tail_ = 0;
    MsgHeader h;
    ErrorCode err;
    if (!unpack_header(u, &h, &err)) return fail(ClientError::kProtocol);
    resp->id = h.request_id;
    resp->type = h.type;
    resp->status = WireStatus::kOk;
    resp->values.clear();
    // Data responses lead with the admission status; a refusal carries
    // nothing else.
    if (h.type != MsgType::kErrorResp) {
      // The status byte is peer input: a value outside the enum is a
      // malformed frame, not a refusal to give up on.
      const std::uint8_t status = u.u8();
      if (u.failed() || !is_wire_status(status))
        return fail(ClientError::kProtocol);
      resp->status = static_cast<WireStatus>(status);
      if (resp->status != WireStatus::kOk) {
        if (!u.exhausted()) return fail(ClientError::kProtocol);
        return true;
      }
    }
    switch (h.type) {
      case MsgType::kGetResp:
        resp->found = u.u8() != 0;
        resp->value = u.u64();
        break;
      case MsgType::kPutResp:
        break;
      case MsgType::kEraseResp:
        resp->erased = u.u8() != 0;
        break;
      case MsgType::kTouchResp:
        resp->touched = u.u8() != 0;
        break;
      case MsgType::kGetManyResp: {
        const std::uint32_t n = u.u32();
        if (u.failed() || u.remaining() != static_cast<std::size_t>(n) * 9)
          return fail(ClientError::kProtocol);
        resp->values.reserve(n);
        for (std::uint32_t i = 0; i < n; ++i) {
          const bool found = u.u8() != 0;
          const std::uint64_t v = u.u64();
          resp->values.push_back(found ? std::optional<std::uint64_t>(v)
                                       : std::nullopt);
        }
        break;
      }
      case MsgType::kErrorResp: {
        resp->error_code = static_cast<ErrorCode>(u.u16());
        const std::uint16_t n = u.u16();
        const std::uint8_t* p = u.bytes(n);
        resp->error_detail.assign(
            p ? reinterpret_cast<const char*>(p) : "", p ? n : 0);
        break;
      }
      default:
        return fail(ClientError::kProtocol);
    }
    if (u.failed() || !u.exhausted()) return fail(ClientError::kProtocol);
    return true;
  }

  // Waits until at least `n` unparsed bytes sit in the receive buffer,
  // compacting or growing it first when they would not fit.
  bool buffer_at_least(std::size_t n, std::uint64_t deadline) {
    while (in_tail_ - in_head_ < n) {
      if (in_.size() - in_head_ < n) {
        if (in_head_ > 0) {
          std::memmove(in_.data(), in_.data() + in_head_,
                       in_tail_ - in_head_);
          in_tail_ -= in_head_;
          in_head_ = 0;
        }
        if (in_.size() < n) in_.resize(n < kRecvChunk ? kRecvChunk : n);
      }
      if (!fill(deadline)) return false;
    }
    return true;
  }

  // One read into the buffer's free tail, waiting per the IdlePolicy: an
  // empty probe is retried after a yield until the grace runs out, then
  // poll() blocks for the rest of the op budget.  Every probe checks the
  // budget, so spinning can never outlive it.
  bool fill(std::uint64_t deadline) {
    IdlePolicy idle(kDefaultParkGraceNs);
    for (;;) {
      const ssize_t n =
          transport_read(fd_, in_.data() + in_tail_, in_.size() - in_tail_);
      if (n > 0) {
        in_tail_ += static_cast<std::size_t>(n);
        return true;
      }
      if (!would_block(n)) return false;
      const std::uint64_t now = now_ns();
      if (expired(now, deadline)) return false;
      if (idle.should_park(now)) {
        if (!wait_io(POLLIN, deadline)) return false;
      } else {
        std::this_thread::yield();
      }
    }
  }

  // The convenience loop: submit-flush-recv until settle() is final,
  // sleeping out each retry's backoff — the one place the client waits it.
  // `on_ok` consumes the kOk response; returns whether the op ended in kOk.
  // A response whose id does not match (possible only after the caller
  // broke the one-in-one-out convention) is a protocol failure.
  template <class OnOk, class Submit>
  bool roundtrip(MsgType want, OnOk&& on_ok, Submit&& submit) {
    for (int k = 0;; ++k) {
      const std::uint64_t deadline = op_deadline();
      const std::uint64_t id = submit();
      Response r;
      const bool got = flush_by(deadline) && recv_by(&r, deadline);
      if (got &&
          (r.id != id || (r.type != want && r.type != MsgType::kErrorResp))) {
        fail(ClientError::kProtocol);
        return false;
      }
      const Settle s = settle(k, got ? &r : nullptr);
      switch (s.verdict) {
        case Settle::kDone:
          on_ok(r);
          return true;
        case Settle::kGiveUp:
          return false;
        case Settle::kRetry:
          sleep_until_ns(s.not_before_ns);
          break;
      }
    }
  }

  int fd_ = -1;
  std::uint16_t port_ = 0;
  ClientConfig cfg_;
  std::uint64_t next_id_ = 1;
  PackBuffer out_;
  // Receive buffer: bytes [in_head_, in_tail_) arrived and are unparsed.
  static constexpr std::size_t kRecvChunk = 16 * 1024;
  std::vector<std::uint8_t> in_;
  std::size_t in_head_ = 0;
  std::size_t in_tail_ = 0;
  Xoshiro256 jitter_;
  ClientError last_error_ = ClientError::kNone;
  std::uint64_t retries_ = 0;
  std::uint64_t timeouts_ = 0;
  std::uint64_t reconnects_ = 0;
};

}  // namespace bjrw::net
