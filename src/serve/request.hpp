// Request/response vocabulary of the serving runtime (src/serve/).
//
// The runtime is a submit/complete pipeline: a client thread fills a
// Request, the server splits it into node-owned SubRequests (see
// server.hpp), the owning nodes' pinned workers execute them against the
// placed map, and the client joins on a completion latch.  Two choices keep
// the hot path allocation- and lock-free on the client side:
//
//  * Requests are *client-owned*: the client provides the Request (stack or
//    pool), the key span, and the result array, and must keep them alive
//    until wait() returns.  The submit path never copies keys and performs
//    no per-request allocation (the queue items are two-word SubRequest
//    descriptors); workers gather their slice into thread-local scratch
//    whose capacity persists, so the steady-state hot path does not
//    allocate either.
//
//  * Completion is a counting latch, not a future chain: `pending` is
//    initialized to the number of node sub-requests before the first
//    enqueue, each worker decrements it (release) after writing its slice
//    of the results, and the client waits for zero (acquire) — so a batch
//    split across nodes completes exactly when its last slice does, and
//    every result write happens-before the client's read.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <vector>

#include "src/harness/spin.hpp"

namespace bjrw::serve {

// Typed admission outcome of a submit — the API-wide replacement for the
// old bool returns.  KvServer's submit paths and NetServer's wire mapping
// speak this enum; `accepted` is the only value that enqueues anything,
// and an accepted item is *guaranteed* to execute exactly once, even
// racing shutdown (the drain protocol in worker_pool.hpp).  The numeric
// order is a severity order: aggregating a batch takes the max
// (worst_of), so a request whose slices saw both kAccepted and kShutdown
// reports kShutdown.
enum class AdmitResult : std::uint8_t {
  kAccepted = 0,          // enqueued; will execute exactly once
  kShedOverload = 1,      // per-node token bucket empty: nothing enqueued
  kDeadlineExceeded = 2,  // deadline_ns already past at admission or dequeue
  kShutdown = 3,          // server stopping: nothing (more) enqueued
};

constexpr AdmitResult worst_of(AdmitResult a, AdmitResult b) {
  return static_cast<std::uint8_t>(a) >= static_cast<std::uint8_t>(b) ? a : b;
}

constexpr const char* to_string(AdmitResult r) {
  switch (r) {
    case AdmitResult::kAccepted: return "accepted";
    case AdmitResult::kShedOverload: return "shed_overload";
    case AdmitResult::kDeadlineExceeded: return "deadline_exceeded";
    case AdmitResult::kShutdown: return "shutdown";
  }
  return "?";
}

enum class RequestKind : std::uint8_t {
  kGet,       // point lookup of keys[0]
  kGetBatch,  // bulk lookup of keys[0..key_count)
  kPut,       // upsert key -> value (ttl_ns > 0 attaches a lease)
  kErase,     // remove key
  kTouch,     // extend key's lease by ttl_ns (expiry-enabled servers only)
};

// One client request.  For kGet/kGetBatch the client points `keys` at its
// key span and (optionally) `out` at a result array of the same length;
// for kPut/kErase only `key`/`value` are read.  Everything above the
// "filled by the runtime" line is owned by the client and must stay alive
// until done().
struct Request {
  RequestKind kind = RequestKind::kGet;
  const std::uint64_t* keys = nullptr;
  std::uint32_t key_count = 0;
  std::optional<std::uint64_t>* out = nullptr;  // optional per-key results
  std::uint64_t key = 0;    // kPut/kErase/kTouch
  std::uint64_t value = 0;  // kPut
  // Lease TTL relative to execution time; 0 = no lease.  Read for kPut
  // (put_with_ttl) and kTouch on expiry-enabled servers, ignored otherwise.
  std::uint64_t ttl_ns = 0;
  // Absolute deadline against the server's ClockSource; 0 = none.  Checked
  // at the admission edge (refused with kDeadlineExceeded, nothing
  // enqueued) and again at worker dequeue: a slice whose deadline has
  // already passed is *dropped* — the latch is still decremented, but no
  // map work runs and `dropped` records the slice (see pack_response in
  // net_server.hpp for how partial batches surface this on the wire).
  std::uint64_t deadline_ns = 0;

  // --- filled by the runtime -------------------------------------------------
  // Key indices grouped by owning node (server-side scratch; SubRequests
  // slice into it).  Reused across submissions of the same Request object.
  std::vector<std::uint32_t> order;
  std::uint64_t submit_ns = 0;                // stamped at dispatch
  std::atomic<std::uint64_t> hits{0};         // keys found (gets), 1/0 (erase)
  std::atomic<std::uint64_t> value_sum{0};    // checksum over found values
  std::atomic<std::uint32_t> pending{0};      // outstanding sub-requests
  std::atomic<std::uint32_t> dropped{0};      // slices dropped at dequeue
  // Admission outcome — the one record of this request's verdict, written
  // by the *submitting* thread strictly before submit returns (plain
  // field: workers never touch it, and the client owns the request, so
  // there is no race to order).  A refused request has pending == 0 so
  // wait() returns immediately.
  AdmitResult outcome = AdmitResult::kAccepted;

  AdmitResult submit_outcome() const { return outcome; }

  bool done() const {
    return pending.load(std::memory_order_acquire) == 0;
  }
  // Spin-joins the completion latch (yielding — client threads may share
  // cores with the workers they wait for).
  void wait() const {
    spin_until<YieldSpin>([&] { return done(); });
  }
  // Resets the runtime-filled fields for resubmission of the same object.
  void reset() {
    hits.store(0, std::memory_order_relaxed);
    value_sum.store(0, std::memory_order_relaxed);
    pending.store(0, std::memory_order_relaxed);
    dropped.store(0, std::memory_order_relaxed);
    submit_ns = 0;
    outcome = AdmitResult::kAccepted;
  }

  // One worker's latch decrement — the shared completion tail of point
  // ops, gathered batch slices and deadline drops.  `on_last` runs exactly
  // once, strictly *before* the releasing decrement commits, iff this call
  // is the completing one — that ordering is what lets the server promise its
  // stats stripes are exact the moment wait() returns.  `pending` only
  // ever decreases while in flight, so a CAS that observes 1 cannot lose
  // the race to another decrementer (there is none left), and a stale
  // higher read is corrected by the CAS-failure reload.  The moment the
  // completing decrement lands the client may destroy or reuse the
  // request, so callers must snapshot everything they need first and never
  // touch it afterwards.
  template <class OnLast>
  void complete_one(OnLast&& on_last) {
    std::uint32_t p = pending.load(std::memory_order_relaxed);
    bool ran = false;
    for (;;) {
      if (p == 1 && !ran) {
        on_last();
        ran = true;
      }
      if (pending.compare_exchange_weak(p, p - 1, std::memory_order_acq_rel,
                                        std::memory_order_relaxed))
        break;
    }
  }
};

// The queue item: one node's slice of a request.  [begin, end) indexes into
// parent->order for kGetBatch; point ops carry the degenerate [0, 0).
// `owner` is the slice's owning node, computed once at dispatch (under
// oblivious dispatch the executing pool's node differs — the worker still
// needs the owner to pick the right sub-map).
struct SubRequest {
  Request* parent = nullptr;
  std::uint32_t begin = 0;
  std::uint32_t end = 0;
  std::int32_t owner = 0;
};

}  // namespace bjrw::serve
