// Socket front-end for the serving runtime: an epoll accept/read/write
// loop that decodes each wire frame with wire.hpp's unpack_request and
// fills a pooled request slot from it, in one place (stage()), feeding the
// existing client-owned Request + counting-latch pipeline (src/serve/).
// Nothing here reads the frame layout itself.
//
// Ownership rules (DESIGN.md §10) — the whole design hangs on them:
//
//  * Every connection owns a fixed pool of request Slots.  A slot holds a
//    serve::Request plus the key/result storage its spans point into.
//    Deserialization copies the frame's keys into the slot's vectors (the
//    single copy on the ingest path; capacity persists, so the steady
//    state does not allocate) and submits the slot's Request — from there
//    the zero-copy contract of the in-process pipeline holds unchanged:
//    workers read the slot-owned key span and write the slot-owned result
//    array directly.
//
//  * A slot stays owned by the runtime until its counting latch resolves
//    (Request::done()).  The event loop polls in-flight slots between
//    epoll wakeups, packs responses for the resolved ones, and only then
//    recycles the slot.  Consequently a connection — even one whose peer
//    disconnected or broke the protocol — is never destroyed while it has
//    slots in flight: it parks in a draining state until the last worker
//    decrement lands.  This is the socket-boundary restatement of
//    "the client owns the Request until wait() returns".
//
//  * The slot pool bounds per-connection in-flight depth.  When a
//    connection runs out of slots its EPOLLIN interest is dropped (read
//    backpressure all the way to the peer's TCP window) and re-armed when
//    a completion frees a slot — buffered-but-unparsed frames are
//    retried first, so no frame is reordered or dropped.
//
// Protocol errors answer with kErrorResp before acting: frame-boundary
// breakers (oversized length prefix, bad magic, wrong version) close the
// connection — the stream cannot be resynchronized; body-level breakers
// (unknown type, malformed body, server shutdown) keep it open — the
// frame boundary is intact, so later frames are still parseable.
#pragma once

#if !defined(__linux__)
#error "src/net/net_server.hpp requires Linux (epoll)"
#endif

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <cerrno>
#include <cstdint>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "src/harness/fault.hpp"
#include "src/harness/idle.hpp"
#include "src/harness/stats.hpp"
#include "src/harness/timing.hpp"
#include "src/net/wire.hpp"
#include "src/serve/config.hpp"
#include "src/serve/request.hpp"
#include "src/serve/server.hpp"

namespace bjrw::net {

// Frames parsed from one read batch are staged and published together
// through KvServer::submit_many — one ring reservation per node per batch
// instead of one per frame.  This caps the stage depth.
inline constexpr std::size_t kSubmitBatch = 16;

// listen(2) backlog, and the in-flight depth bound per connection.
inline constexpr int kListenBacklog = 128;
inline constexpr std::size_t kSlotsPerConnection = 64;
// Free tail each socket read is offered, at least.
inline constexpr std::size_t kReadChunk = 4096;

struct NetServerConfig {
  std::uint16_t port = 0;        // 0 = ephemeral; see NetServer::port()
};

template <ReaderWriterLock Lock>
class NetServer {
 public:
  using Kv = serve::KvServer<Lock>;

  // Binds 127.0.0.1:<port>, spawns the event-loop thread.  `kv` must
  // outlive the NetServer.  Failure to bind/listen leaves ok() false and
  // the server inert (no thread).
  NetServer(Kv& kv, NetServerConfig cfg = {}) : kv_(kv) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
    if (listen_fd_ < 0) return;
    int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(cfg.port);
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof addr) != 0 ||
        ::listen(listen_fd_, kListenBacklog) != 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
      return;
    }
    socklen_t alen = sizeof addr;
    if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                      &alen) == 0)
      port_ = ntohs(addr.sin_port);
    epoll_fd_ = ::epoll_create1(0);
    wake_fd_ = ::eventfd(0, EFD_NONBLOCK);
    if (epoll_fd_ < 0 || wake_fd_ < 0) {
      close_all_listener_fds();
      return;
    }
    add_epoll(listen_fd_, EPOLLIN, kListenTag);
    add_epoll(wake_fd_, EPOLLIN, kWakeTag);
    ok_ = true;
    loop_ = std::thread([this] { event_loop(); });
  }

  ~NetServer() { stop(); }
  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  bool ok() const { return ok_; }
  std::uint16_t port() const { return port_; }

  // Accepted since start; observer for tests/benches.
  std::uint64_t connections_accepted() const {
    return accepted_.load(std::memory_order_relaxed);
  }
  std::uint64_t frames_dispatched() const {
    return dispatched_.load(std::memory_order_relaxed);
  }
  std::uint64_t protocol_errors() const {
    return proto_errors_.load(std::memory_order_relaxed);
  }
  // Times the event loop blocked after its idle grace ran out; mirrors
  // WorkerPool::parks().
  std::uint64_t loop_parks() const {
    return loop_parks_.load(std::memory_order_relaxed);
  }

  // Stops accepting, waits for every in-flight slot to resolve, flushes
  // what can be flushed, closes all connections, joins the loop thread.
  // Idempotent; the destructor calls it.  Stop the NetServer *before*
  // shutting down the KvServer — in-flight latches need its workers.
  void stop() {
    bool expected = false;
    if (ok_ && stopping_.compare_exchange_strong(expected, true)) {
      const std::uint64_t one = 1;
      [[maybe_unused]] const ssize_t n =
          ::write(wake_fd_, &one, sizeof one);
    }
    if (loop_.joinable()) loop_.join();
    // Closed only after the join: a spinning loop can see stopping_ and
    // exit before the wake write above lands, so it must not own these.
    close_all_listener_fds();
  }

 private:
  static constexpr std::uint64_t kListenTag = ~std::uint64_t{0};
  static constexpr std::uint64_t kWakeTag = ~std::uint64_t{0} - 1;

  // One pooled request carrier: the Request plus the storage its spans
  // point into.  `keys`/`out` keep their capacity across uses, so a
  // connection's steady-state ingest path stops allocating.
  struct Slot {
    serve::Request req;
    std::vector<std::uint64_t> keys;
    std::vector<std::optional<std::uint64_t>> out;
    std::uint64_t id = 0;
    MsgType resp_type = MsgType::kGetResp;
  };

  struct Connection {
    int fd = -1;
    RecvBuffer rbuf;  // read but not yet parsed
    PackBuffer wbuf;
    std::vector<std::unique_ptr<Slot>> pool;
    std::vector<Slot*> free_slots;
    std::vector<Slot*> in_flight;
    // Parsed-but-unsubmitted slots awaiting the batched publish.  These
    // must NOT enter in_flight yet: a reset Request has pending == 0, so a
    // staged slot polls as done() and the completion sweep would recycle
    // it before any worker ran.  Every drain_frames exit path flushes, so
    // the stage is empty whenever the loop is outside drain_frames.
    std::vector<Slot*> staged;
    bool want_write = false;   // EPOLLOUT armed
    bool reading = true;       // EPOLLIN armed (false: slot backpressure)
    bool draining = false;     // no more reads; close once quiescent
    bool peer_gone = false;    // EOF/error: skip response packing
  };

  // ---- epoll plumbing -------------------------------------------------------

  void add_epoll(int fd, std::uint32_t events, std::uint64_t tag) {
    epoll_event ev{};
    ev.events = events;
    ev.data.u64 = tag;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
  }

  void rearm(Connection& c, std::size_t idx) {
    epoll_event ev{};
    ev.events = (c.reading && !c.draining ? EPOLLIN : 0u) |
                (c.want_write ? EPOLLOUT : 0u);
    ev.data.u64 = idx;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, c.fd, &ev);
  }

  void close_all_listener_fds() {
    if (listen_fd_ >= 0) ::close(listen_fd_);
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
    if (wake_fd_ >= 0) ::close(wake_fd_);
    listen_fd_ = epoll_fd_ = wake_fd_ = -1;
  }

  // ---- the loop -------------------------------------------------------------

  void event_loop() {
    // The worker pools' IdlePolicy (src/harness/idle.hpp): after the last
    // round that made progress, keep polling with timeout 0 for the park
    // grace, then block until an event or stop()'s wake_fd_ write.
    IdlePolicy idle(kv_.config().park_grace_ns);
    std::vector<epoll_event> events(64);
    for (;;) {
      const bool busy = total_in_flight_ > 0;
      if (stopping_.load(std::memory_order_acquire) && quiescent()) break;
      const bool park = !busy && !stopping_.load(std::memory_order_relaxed) &&
                        idle.should_park(now_ns());
      if (park) single_writer_add(loop_parks_);
      const int n = ::epoll_wait(epoll_fd_, events.data(),
                                 static_cast<int>(events.size()),
                                 park ? -1 : 0);
      bool progressed = false;
      for (int i = 0; i < n; ++i) {
        const std::uint64_t tag = events[static_cast<std::size_t>(i)].data.u64;
        const std::uint32_t evs = events[static_cast<std::size_t>(i)].events;
        if (tag == kListenTag) {
          progressed |= do_accept();
        } else if (tag == kWakeTag) {
          std::uint64_t drain = 0;
          [[maybe_unused]] const ssize_t r =
              ::read(wake_fd_, &drain, sizeof drain);
        } else {
          progressed |= handle_io(static_cast<std::size_t>(tag), evs);
        }
      }
      progressed |= sweep_completions();
      reap_closed();
      if (progressed || park) idle.progressed();  // fresh grace after a wake
      // Single-core friendliness: a round that achieved nothing yields, so
      // the pinned workers that will resolve pending latches (or the peer
      // about to send) actually get the CPU.
      if (!progressed) std::this_thread::yield();
    }
    // Shutdown: every slot has resolved (quiescent), responses that could
    // be flushed were flushed opportunistically by the sweep; close the
    // connections (stop() closes the listener, epoll and wake fds).
    for (auto& up : conns_)
      if (up && up->fd >= 0) ::close(up->fd);
    conns_.clear();
  }

  bool quiescent() { return total_in_flight_ == 0; }

  bool do_accept() {
    bool any = false;
    for (;;) {
      const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK);
      if (fd < 0) break;
      if (stopping_.load(std::memory_order_relaxed)) {
        ::close(fd);
        continue;
      }
      int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      auto conn = std::make_unique<Connection>();
      conn->fd = fd;
      conn->pool.reserve(kSlotsPerConnection);
      for (std::size_t s = 0; s < kSlotsPerConnection; ++s) {
        conn->pool.push_back(std::make_unique<Slot>());
        conn->free_slots.push_back(conn->pool.back().get());
      }
      // Reuse a vacated index so epoll tags stay dense-ish.
      std::size_t idx = conns_.size();
      for (std::size_t j = 0; j < conns_.size(); ++j)
        if (!conns_[j]) {
          idx = j;
          break;
        }
      if (idx == conns_.size()) conns_.push_back(nullptr);
      conns_[idx] = std::move(conn);
      add_epoll(fd, EPOLLIN, idx);
      single_writer_add(accepted_);
      any = true;
    }
    return any;
  }

  bool handle_io(std::size_t idx, std::uint32_t evs) {
    if (idx >= conns_.size() || !conns_[idx]) return false;
    Connection& c = *conns_[idx];
    bool progressed = false;
    if (evs & (EPOLLHUP | EPOLLERR)) {
      c.peer_gone = true;
      begin_drain(c, idx);
      return true;
    }
    if ((evs & EPOLLIN) && c.reading && !c.draining)
      progressed |= do_read(c, idx);
    if ((evs & EPOLLOUT) && c.want_write) progressed |= do_write(c, idx);
    return progressed;
  }

  // Reads until a short read, each read into the buffer's free tail (at
  // least kReadChunk bytes of it), then parses what arrived.
  bool do_read(Connection& c, std::size_t idx) {
    bool progressed = false;
    for (;;) {
      c.rbuf.reserve(c.rbuf.size() + kReadChunk);
      const std::size_t room = c.rbuf.tail_room();
      const ssize_t n = transport_read(c.fd, c.rbuf.tail(), room);
      if (n > 0) {
        c.rbuf.commit(static_cast<std::size_t>(n));
        progressed = true;
        if (static_cast<std::size_t>(n) < room) break;
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      c.peer_gone = true;  // orderly EOF, ECONNRESET and friends
      begin_drain(c, idx);
      return true;
    }
    if (progressed) drain_frames(c, idx);
    return progressed;
  }

  bool do_write(Connection& c, std::size_t idx) {
    bool progressed = false;
    while (!c.wbuf.empty()) {
      const ssize_t n = transport_send(c.fd, c.wbuf.data(), c.wbuf.size());
      if (n > 0) {
        c.wbuf.consume(static_cast<std::size_t>(n));
        progressed = true;
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        if (!c.want_write) {
          c.want_write = true;
          rearm(c, idx);
        }
        return progressed;
      }
      c.peer_gone = true;
      begin_drain(c, idx);
      return true;
    }
    if (c.want_write) {
      c.want_write = false;
      rearm(c, idx);
    }
    if (c.draining) try_finish_drain(c, idx);
    return progressed;
  }

  // ---- frame parsing --------------------------------------------------------

  void drain_frames(Connection& c, std::size_t idx) {
    while (!c.draining && c.rbuf.size() >= kFrameLenSize) {
      const std::uint32_t flen = c.rbuf.frame_len();
      // A length the reader will not buffer, or one too short for a
      // header, leaves no frame boundary to resynchronize on: answer and
      // close.
      if (flen > kDefaultMaxFrame) {
        protocol_error(c, idx, 0, ErrorCode::kFrameTooLarge, /*close=*/true);
        return;
      }
      if (flen < kHeaderSize) {
        protocol_error(c, idx, 0, ErrorCode::kMalformed, /*close=*/true);
        return;
      }
      if (c.rbuf.size() - kFrameLenSize < flen) break;  // incomplete frame
      WireRequest r;
      ErrorCode err;
      if (!unpack_request(c.rbuf.data() + kFrameLenSize, flen, &r, &err)) {
        // A bad header means the stream cannot be trusted; a bad body
        // leaves the frame boundary intact, so the connection keeps going.
        const bool close =
            err == ErrorCode::kBadMagic || err == ErrorCode::kBadVersion;
        protocol_error(c, idx, r.id, err, close);
        if (close) return;
        c.rbuf.consume(kFrameLenSize + flen);
        continue;
      }
      if (c.free_slots.empty()) {
        // Out of slots: the frame stays buffered.  Publish the stage first
        // — the completions that free slots are the very requests sitting
        // in it — then drop read interest until the sweep frees one
        // (backpressure to the TCP window).  Refused slots free the same
        // way, on the sweep.
        flush_staged(c);
        if (c.reading) {
          c.reading = false;
          rearm(c, idx);
        }
        return;
      }
      stage(c, r);  // copies the keys out of rbuf before the consume
      c.rbuf.consume(kFrameLenSize + flen);
      single_writer_add(dispatched_);
    }
    flush_staged(c);
    // Survive-class error replies (bad bodies) are packed without a flush
    // of their own; push them out now rather than waiting for an
    // unrelated completion to sweep by.
    if (!c.draining && !c.wbuf.empty()) flush(c, idx);
  }

  static serve::RequestKind kind_of(MsgType t) {
    switch (t) {
      case MsgType::kGetReq: return serve::RequestKind::kGet;
      case MsgType::kGetManyReq: return serve::RequestKind::kGetBatch;
      case MsgType::kEraseReq: return serve::RequestKind::kErase;
      case MsgType::kTouchReq: return serve::RequestKind::kTouch;
      default: return serve::RequestKind::kPut;  // kPutReq, kPutTtlReq
    }
  }

  // Leases a free slot for decoded request `r`, fills it — the one place
  // a wire request becomes a serve::Request — and stages it for the next
  // batched publish, flushing eagerly when the stage hits kSubmitBatch.
  // The keys are copied out of the frame into the slot (the single copy on
  // the ingest path).  The relative wire budget becomes an absolute
  // deadline on the KvServer's deadline clock here, at parse time, so
  // client budgets and the server's admission/dequeue checks share one
  // timeline; a budget past the clock's range saturates to no deadline
  // rather than wrapping into the past.  A put_ttl's or touch's TTL
  // reaches the KvServer, which attaches the lease.
  void stage(Connection& c, const WireRequest& r) {
    Slot* s = c.free_slots.back();
    c.free_slots.pop_back();
    serve::Request& q = s->req;
    q.reset();
    q.kind = kind_of(r.type);
    q.key = r.key;
    q.value = r.value;
    q.ttl_ns = r.ttl_ns;  // 0 unless put_ttl or touch: never a stale TTL
    q.deadline_ns =
        r.budget_ns == 0 ? 0 : deadline_after(kv_.time_now_ns(), r.budget_ns);
    s->keys.resize(r.count);
    for (std::uint32_t i = 0; i < r.count; ++i) s->keys[i] = r.key_at(i);
    s->out.assign(r.count, std::nullopt);
    q.keys = s->keys.data();
    q.key_count = r.count;
    q.out = r.count ? s->out.data() : nullptr;
    s->id = r.id;
    s->resp_type = response_type(r.type);
    c.staged.push_back(s);
    if (c.staged.size() >= kSubmitBatch) flush_staged(c);
  }

  // Publishes every staged slot with ONE KvServer::submit_many call — one
  // ring reservation per dispatch node for the whole read batch — then
  // moves them all into in_flight where the completion sweep may see them.
  // A refused slot (shed, expired, or shut out) is no exception: the
  // KvServer enqueued nothing for it, so its latch is already resolved
  // (pending == 0) and the sweep in this same loop round answers it from
  // its submit_outcome() and recycles it.
  void flush_staged(Connection& c) {
    const std::size_t n = c.staged.size();
    if (n == 0) return;
    for (std::size_t i = 0; i < n; ++i)
      flush_reqs_[i] = &c.staged[i]->req;
    kv_.submit_many(flush_reqs_.data(), n);
    c.in_flight.insert(c.in_flight.end(), c.staged.begin(), c.staged.end());
    total_in_flight_ += n;
    c.staged.clear();
  }

  static WireStatus to_wire(serve::AdmitResult r) {
    switch (r) {
      case serve::AdmitResult::kAccepted: return WireStatus::kOk;
      case serve::AdmitResult::kShedOverload: return WireStatus::kShed;
      case serve::AdmitResult::kDeadlineExceeded: return WireStatus::kDeadline;
      case serve::AdmitResult::kShutdown: return WireStatus::kShutdown;
    }
    return WireStatus::kOk;
  }

  // Answers a protocol error with kErrorResp (to_string(code) as the
  // detail) and counts it in protocol_errors().  A close error publishes
  // the staged work first — begin_drain waits only on in_flight, not the
  // stage — then drains; a survive error's reply leaves with drain_frames'
  // closing flush.
  void protocol_error(Connection& c, std::size_t idx, std::uint64_t id,
                      ErrorCode code, bool close) {
    single_writer_add(proto_errors_);
    if (!c.peer_gone) pack_error_resp(c.wbuf, id, code, to_string(code));
    if (close) {
      flush_staged(c);
      begin_drain(c, idx);
    }
  }

  // ---- completion sweep -----------------------------------------------------

  bool sweep_completions() {
    bool progressed = false;
    for (std::size_t idx = 0; idx < conns_.size(); ++idx) {
      if (!conns_[idx]) continue;
      Connection& c = *conns_[idx];
      const bool had_free = !c.free_slots.empty();
      std::size_t w = 0;
      for (std::size_t r = 0; r < c.in_flight.size(); ++r) {
        Slot* s = c.in_flight[r];
        if (!s->req.done()) {
          c.in_flight[w++] = s;
          continue;
        }
        if (!c.peer_gone) pack_response(c, *s);
        c.free_slots.push_back(s);
        --total_in_flight_;
        progressed = true;
      }
      c.in_flight.resize(w);
      if (progressed && !c.wbuf.empty()) flush(c, idx);
      // A freed slot unblocks parsing: retry buffered frames, then re-arm
      // EPOLLIN if the stall is over.
      if (!had_free && !c.free_slots.empty() && !c.draining) {
        drain_frames(c, idx);
        if (!c.reading && !c.free_slots.empty()) {
          c.reading = true;
          rearm(c, idx);
        }
      }
      if (c.draining) try_finish_drain(c, idx);
    }
    return progressed;
  }

  // The verdict the client should see: the admission verdict if the
  // request was refused at the submit edge, otherwise kDeadlineExceeded
  // if the workers dropped every slice at dequeue (accepted-but-doomed),
  // otherwise accepted.
  static serve::AdmitResult effective_admit(const Slot& s) {
    const serve::AdmitResult adm = s.req.submit_outcome();
    if (adm != serve::AdmitResult::kAccepted) return adm;
    if (s.req.dropped.load(std::memory_order_relaxed) != 0)
      return serve::AdmitResult::kDeadlineExceeded;
    return serve::AdmitResult::kAccepted;
  }

  void pack_response(Connection& c, const Slot& s) {
    const serve::AdmitResult adm = effective_admit(s);
    const bool hit = s.req.hits.load(std::memory_order_relaxed) != 0;
    // A partially-refused batch (shutdown race, or a deadline drop after
    // some slices ran) still answers with what completed; a fully refused
    // one is an explicit refusal.
    const bool partial = s.resp_type == MsgType::kGetManyResp &&
                         (s.req.key_count == 0 || hit);
    if (adm != serve::AdmitResult::kAccepted && !partial) {
      pack_status_resp(c.wbuf, s.resp_type, s.id, to_wire(adm));
      return;
    }
    switch (s.resp_type) {
      case MsgType::kGetResp:
        pack_get_resp(c.wbuf, s.id, s.out[0].has_value(),
                      s.out[0].value_or(0));
        break;
      case MsgType::kPutResp:
        pack_put_resp(c.wbuf, s.id);
        break;
      case MsgType::kEraseResp:
        pack_erase_resp(c.wbuf, s.id, hit);
        break;
      case MsgType::kTouchResp:
        pack_touch_resp(c.wbuf, s.id, hit);
        break;
      case MsgType::kGetManyResp:
        pack_get_many_resp(c.wbuf, s.id, s.out.data(), s.req.key_count);
        break;
      default:
        pack_error_resp(c.wbuf, s.id, ErrorCode::kMalformed,
                        "internal: bad response type");
        break;
    }
  }

  void flush(Connection& c, std::size_t idx) {
    if (c.fd < 0) return;
    do_write(c, idx);
  }

  // ---- teardown -------------------------------------------------------------

  // Stop reading; the connection closes once its in-flight slots resolved
  // and the write buffer is flushed (or the peer is gone).
  void begin_drain(Connection& c, std::size_t idx) {
    if (c.draining) return;
    c.draining = true;
    c.reading = false;
    if (c.fd >= 0) rearm(c, idx);
    try_finish_drain(c, idx);
  }

  void try_finish_drain(Connection& c, std::size_t idx) {
    if (!c.in_flight.empty()) return;  // workers still own slot memory
    if (!c.peer_gone && !c.wbuf.empty()) {
      do_write(c, idx);
      if (!c.wbuf.empty()) return;  // EPOLLOUT will retry
    }
    if (c.fd >= 0) {
      ::close(c.fd);
      c.fd = -1;
    }
  }

  void reap_closed() {
    for (auto& up : conns_)
      if (up && up->fd < 0 && up->in_flight.empty()) up.reset();
  }

  Kv& kv_;
  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  std::uint16_t port_ = 0;
  bool ok_ = false;
  std::atomic<bool> stopping_{false};
  // Observer counters: written only by the loop thread (single_writer_add),
  // read by any thread.
  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> dispatched_{0};
  std::atomic<std::uint64_t> proto_errors_{0};
  std::atomic<std::uint64_t> loop_parks_{0};
  std::size_t total_in_flight_ = 0;  // loop-thread only
  std::vector<std::unique_ptr<Connection>> conns_;  // loop-thread only
  // flush_staged scratch (loop-thread only).
  std::array<serve::Request*, kSubmitBatch> flush_reqs_{};
  std::thread loop_;
};

}  // namespace bjrw::net
