// Load-generator driver behind the examples/kv_loadgen CLI: N connections
// × in-flight depth D × the zipfian serve mix (ServeStream).
//
// Each connection is one thread driving a blocking KvClient with explicit
// pipelining: it primes `depth` requests, then recv-one/send-one to hold
// the depth steady — the classic closed-loop load generator.  Latency is
// measured per wire request (send of the frame to receipt of its
// response), matched by request id because the server completes requests
// in whatever order the owning nodes finish them.  Whether an answered or
// lost request is retried, and not before when, is KvClient::settle's
// call, the same one the synchronous conveniences make; the loadgen only
// tracks what is in flight, what is queued for a resend and when it is
// due, and the counts.  A shed op's backoff never blocks the connection:
// its other answers keep being read, and the thread sleeps only when
// nothing is in flight and no resend is due yet.
#pragma once

#if !defined(__linux__)
#error "src/net/loadgen.hpp requires Linux sockets"
#endif

#include <atomic>
#include <cassert>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/harness/timing.hpp"
#include "src/harness/workload.hpp"
#include "src/net/client.hpp"

namespace bjrw::net {

struct LoadgenConfig {
  std::uint16_t port = 0;
  int connections = 4;
  int depth = 4;                  // in-flight wire requests per connection
  int requests_per_conn = 1000;   // wire requests (a batch counts once)
  std::uint32_t batch = 8;        // reads coalesced per get_many
  ServeMixConfig mix{.seed = 42};  // zipfian traffic mix (workload.hpp)
  // Every connection's client: op timeout, deadline budget and retry
  // policy (each connection's jitter seed is decorrelated from it).
  ClientConfig client;
};

struct LoadgenResult {
  bool ok = false;                // every connection connected and finished
  std::uint64_t requests = 0;     // wire round trips completed
  std::uint64_t ops = 0;          // keys touched (batch counts its keys)
  std::uint64_t hits = 0;
  std::uint64_t errors = 0;       // kErrorResp, kShutdown, or transport
                                  // failures
  std::uint64_t shed = 0;         // admission-shed responses (WireStatus::
                                  // kShed)
  std::uint64_t deadline = 0;     // kDeadline responses (never retried)
  std::uint64_t retries = 0;      // re-sends scheduled after a refusal or
                                  // a transport failure
  std::uint64_t timeouts = 0;     // in-flight ops lost to an op-timeout
  std::uint64_t reconnects = 0;   // sockets reopened after a failure
  double wall_s = 0.0;
  std::vector<double> latency_ns;  // one sample per wire request
};

namespace detail {

// One pre-generated wire request: either a get_many batch or a put
// (TTL'd when the mix attached a lease to the op).
struct WireOp {
  bool is_batch = false;
  std::vector<std::uint64_t> keys;  // batch
  std::uint64_t key = 0;            // put
  std::uint64_t value = 0;
  std::uint64_t ttl_ns = 0;         // > 0: sent as kPutTtlReq
};

inline std::vector<WireOp> make_ops(const LoadgenConfig& cfg,
                                    std::uint64_t salt) {
  // Each wire request consumes at most `b` stream ops, and up to b - 1
  // more can be left behind in an abandoned partial batch when the last
  // request completes — so this bound is exact.  Sizing it short would not
  // fail loudly: ServeStream::at wraps modulo, silently replaying the
  // stream head.
  const std::size_t b = cfg.batch > 0 ? cfg.batch : 1;
  const std::size_t draw =
      static_cast<std::size_t>(cfg.requests_per_conn) * b + b - 1;
  ServeStream stream(cfg.mix, salt, draw);
  std::vector<WireOp> ops;
  ops.reserve(static_cast<std::size_t>(cfg.requests_per_conn));
  WireOp batch;
  batch.is_batch = true;
  std::size_t i = 0;
  while (ops.size() < static_cast<std::size_t>(cfg.requests_per_conn)) {
    const ServeOp& op = stream.at(i++);
    if (op.kind == OpKind::kRead && cfg.batch > 1) {
      batch.keys.push_back(op.key);
      if (batch.keys.size() == cfg.batch) {
        ops.push_back(std::move(batch));
        batch = WireOp{};
        batch.is_batch = true;
      }
    } else if (op.kind == OpKind::kRead) {
      WireOp w;
      w.is_batch = true;
      w.keys.push_back(op.key);
      ops.push_back(std::move(w));
    } else {
      WireOp w;
      w.key = op.key;
      w.value = static_cast<std::uint64_t>(i);
      w.ttl_ns = op.ttl_ns;
      ops.push_back(std::move(w));
    }
  }
  assert(i <= draw && "ServeStream over-draw would wrap modulo");
  return ops;
}

// One-shot diagnostics: a correlation bug floods every subsequent
// response, so describe the first one per process instead of spamming —
// the error counter carries the magnitude.
inline void log_unknown_id_once(std::uint64_t id, MsgType type) {
  static std::atomic<bool> logged{false};
  if (logged.exchange(true, std::memory_order_relaxed)) return;
  std::fprintf(stderr,
               "loadgen: response id %llu (type %u) matches no in-flight "
               "request\n",
               static_cast<unsigned long long>(id),
               static_cast<unsigned>(type));
}
inline void log_type_mismatch_once(std::uint64_t id, MsgType got,
                                   MsgType want) {
  static std::atomic<bool> logged{false};
  if (logged.exchange(true, std::memory_order_relaxed)) return;
  std::fprintf(stderr,
               "loadgen: response id %llu has type %u, expected %u\n",
               static_cast<unsigned long long>(id),
               static_cast<unsigned>(got), static_cast<unsigned>(want));
}

}  // namespace detail

// Runs the configured load against 127.0.0.1:<cfg.port>.  The server must
// already be listening.  Blocking: returns when every connection drained
// its request list.
inline LoadgenResult run_loadgen(const LoadgenConfig& cfg) {
  struct ConnResult {
    bool ok = false;
    std::uint64_t requests = 0, ops = 0, hits = 0, errors = 0;
    std::uint64_t shed = 0, deadline = 0, retries = 0, timeouts = 0;
    std::uint64_t reconnects = 0;
    std::vector<double> latency_ns;
  };
  const std::size_t conns = static_cast<std::size_t>(
      cfg.connections > 0 ? cfg.connections : 1);
  std::vector<ConnResult> per_conn(conns);
  std::vector<std::thread> threads;
  threads.reserve(conns);
  // The measured window must cover traffic only: every thread connects and
  // pre-generates its op mix first, then parks on the start gate.  The
  // clock starts when the last thread reports ready — with connect and
  // zipfian generation inside the window, derived throughput deflates by
  // whatever setup cost the slowest connection paid.
  std::atomic<int> ready{0};
  std::atomic<bool> start{false};
  for (std::size_t c = 0; c < conns; ++c) {
    threads.emplace_back([&, c] {
      ConnResult& out = per_conn[c];
      ClientConfig ccfg = cfg.client;
      ccfg.retry.seed ^= c;  // decorrelate jitter streams
      auto client = KvClient::connect(cfg.port, ccfg);
      const std::vector<detail::WireOp> ops =
          client ? detail::make_ops(cfg, static_cast<std::uint64_t>(c))
                 : std::vector<detail::WireOp>{};
      // Signal ready even on a failed connect — the gate counts to
      // `conns` either way, and this thread exits right after it opens.
      ready.fetch_add(1, std::memory_order_release);
      while (!start.load(std::memory_order_acquire))
        std::this_thread::yield();
      if (!client) return;
      // id -> (send timestamp, op index, attempt); linear scan — depth is
      // small.
      struct InFlight {
        std::uint64_t id, send_ns;
        std::size_t op;
        int attempt;
      };
      std::vector<InFlight> in_flight;
      const std::size_t depth =
          static_cast<std::size_t>(cfg.depth > 0 ? cfg.depth : 1);
      in_flight.reserve(depth);
      out.latency_ns.reserve(ops.size());
      std::size_t next = 0;
      // Ops settle() sent back for another attempt: that attempt's number
      // and the time it is due (not before).
      struct Retry {
        std::uint64_t due_ns;
        std::size_t op;
        int attempt;
      };
      std::vector<Retry> again;
      const auto settle = [&](std::size_t op_idx, int attempt,
                              const Response* r) {
        const Settle s = client->settle(attempt, r);
        if (s.verdict == Settle::kRetry)
          again.push_back({s.not_before_ns, op_idx, attempt + 1});
      };
      // Index of the earliest-due retry; `again` must be non-empty.
      const auto earliest = [&] {
        std::size_t e = 0;
        for (std::size_t i = 1; i < again.size(); ++i)
          if (again[i].due_ns < again[e].due_ns) e = i;
        return e;
      };
      const auto send_one = [&](std::size_t op_idx, int attempt) -> bool {
        const detail::WireOp& w = ops[op_idx];
        const std::uint64_t t0 = now_ns();
        const std::uint64_t id =
            w.is_batch
                ? client->submit_get_many(
                      w.keys.data(),
                      static_cast<std::uint32_t>(w.keys.size()))
            : w.ttl_ns > 0 ? client->submit_put_ttl(w.key, w.value, w.ttl_ns)
                           : client->submit_put(w.key, w.value);
        if (!client->flush()) return false;
        in_flight.push_back({id, t0, op_idx, attempt});
        return true;
      };
      // An attempt the transport swallowed (the socket is already closed).
      const auto lose = [&](std::size_t op_idx, int attempt) {
        if (client->last_error() == ClientError::kTimeout)
          out.timeouts += 1;
        else
          out.errors += 1;
        settle(op_idx, attempt, nullptr);
      };
      // The socket died (timeout, reset, protocol desync): every in-flight
      // response is gone with it.  The connection goes on only if settle()
      // could reopen the socket.
      const auto lose_in_flight = [&]() -> bool {
        for (const InFlight& f : in_flight) lose(f.op, f.attempt);
        in_flight.clear();
        return client->ok();
      };
      const auto recv_one = [&]() -> bool {
        Response r;
        if (!client->recv_response(&r)) return false;
        const std::uint64_t t1 = now_ns();
        for (std::size_t f = 0; f < in_flight.size(); ++f) {
          if (in_flight[f].id != r.id) continue;
          out.latency_ns.push_back(
              static_cast<double>(t1 - in_flight[f].send_ns));
          const std::size_t op_idx = in_flight[f].op;
          const int attempt = in_flight[f].attempt;
          in_flight.erase(in_flight.begin() +
                          static_cast<std::ptrdiff_t>(f));
          const detail::WireOp& w = ops[op_idx];
          out.requests += 1;
          const MsgType want =
              w.is_batch ? MsgType::kGetManyResp : MsgType::kPutResp;
          if (r.type != want && r.type != MsgType::kErrorResp) {
            // The id matched but the response answers a different kind of
            // op — a correlation bug, not a transport failure.
            out.errors += 1;
            detail::log_type_mismatch_once(r.id, r.type, want);
            return true;
          }
          if (r.type == MsgType::kErrorResp) {
            out.errors += 1;
          } else if (r.status == WireStatus::kOk) {
            out.ops += w.is_batch ? w.keys.size() : 1;
            for (const auto& v : r.values)
              if (v.has_value()) ++out.hits;
          } else if (r.status == WireStatus::kShed) {
            out.shed += 1;
          } else if (r.status == WireStatus::kDeadline) {
            out.deadline += 1;
          } else {
            out.errors += 1;  // kShutdown
          }
          settle(op_idx, attempt, &r);
          return true;
        }
        // Unknown id: the server answered something this connection never
        // sent (or answered twice).  Count and diagnose it — bailing with
        // only ok=false hides the correlation bug entirely.
        out.errors += 1;
        detail::log_unknown_id_once(r.id, r.type);
        return false;
      };
      bool ok = true;
      while (ok &&
             (next < ops.size() || !again.empty() || !in_flight.empty())) {
        // Fill the pipeline: due retries first, then fresh ops.
        while (ok && in_flight.size() < depth) {
          std::size_t op_idx;
          int attempt = 0;
          const std::size_t e = again.empty() ? 0 : earliest();
          if (!again.empty() && again[e].due_ns <= now_ns()) {
            op_idx = again[e].op;
            attempt = again[e].attempt;
            again[e] = again.back();
            again.pop_back();
          } else if (next < ops.size()) {
            op_idx = next++;
          } else {
            break;
          }
          if (!send_one(op_idx, attempt)) {
            // The op that failed to send was never recorded in-flight;
            // it is lost alongside whatever the dead socket swallowed.
            lose(op_idx, attempt);
            ok = lose_in_flight();
          }
        }
        if (ok && in_flight.empty()) {
          // Nothing in flight and nothing due: wait out the next backoff.
          if (!again.empty()) sleep_until_ns(again[earliest()].due_ns);
        } else if (ok && !recv_one()) {
          // recv_one returns false either on a transport failure (socket
          // already closed by the client) or on an unknown-id correlation
          // bug; only the former is recoverable.
          if (client->last_error() == ClientError::kNone)
            ok = false;
          else
            ok = lose_in_flight();
        }
      }
      out.ok = ok;
      out.retries = client->retries();
      out.reconnects = client->reconnects();
    });
  }
  while (ready.load(std::memory_order_acquire) <
         static_cast<int>(conns))
    std::this_thread::yield();
  const std::uint64_t t0 = now_ns();
  start.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();
  LoadgenResult result;
  result.ok = true;
  result.wall_s = static_cast<double>(now_ns() - t0) / 1e9;
  for (const ConnResult& cr : per_conn) {
    result.ok = result.ok && cr.ok;
    result.requests += cr.requests;
    result.ops += cr.ops;
    result.hits += cr.hits;
    result.errors += cr.errors;
    result.shed += cr.shed;
    result.deadline += cr.deadline;
    result.retries += cr.retries;
    result.timeouts += cr.timeouts;
    result.reconnects += cr.reconnects;
    result.latency_ns.insert(result.latency_ns.end(), cr.latency_ns.begin(),
                             cr.latency_ns.end());
  }
  return result;
}

}  // namespace bjrw::net
