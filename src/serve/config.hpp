// ServeConfig: the single configuration surface of the serving runtime.
//
// Historically the runtime grew three overlapping knob structs —
// KvServer::Config, WorkerPool's ctor Config, and the loadgen's mix
// fields — with the pool geometry spelled differently in each.
// This file consolidates the server-side pair into one documented struct
// that both KvServer and WorkerPool consume directly (the client-side
// zipfian mix lives in ServeMixConfig, src/harness/workload.hpp, embedded
// by LoadgenConfig).
//
// Every field is public and plain — brace/assign initialization keeps
// working — but each also has a fluent `with_*` setter that validates its
// arguments eagerly (std::invalid_argument on nonsense), and validate()
// re-checks the whole struct at construction time of whatever consumes
// it.  Invalid geometry therefore fails at setup, loudly, instead of
// clamping silently into a shape the benchmarks then mis-label.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>

#include "src/harness/idle.hpp"

namespace bjrw {
class ClockSource;  // src/harness/timing.hpp
}

namespace bjrw::serve {

// The largest queue capacity: the ring rounds its capacity up to a power
// of two, which overflows past the largest one a size_t holds.
inline constexpr std::size_t kMaxQueueCapacity =
    std::numeric_limits<std::size_t>::max() / 2 + 1;

// The largest token-bucket depth: the bucket counts tokens in an int64.
inline constexpr std::size_t kMaxAdmitDepth =
    static_cast<std::size_t>(std::numeric_limits<std::int64_t>::max());

struct ServeConfig {
  // ---- placement / map ------------------------------------------------------
  std::size_t shards_per_node = 8;  // per-node write parallelism vs memory
  bool node_local_dispatch = true;  // false: round-robin (oblivious arm)
  bool node_local_alloc = true;     // false: caller-thread construction

  // ---- pool geometry --------------------------------------------------------
  // Per-node worker width floats in [min_width, max_width]: max_width
  // workers are spawned (clamped to the narrowest CPU-bearing node's CPU
  // count), and those beyond min_width park when their queue stays empty
  // past park_grace_ns.  min_width == max_width is a fixed-width pool.
  int min_width = 1;
  int max_width = 1;
  std::size_t queue_capacity = 1024;  // per-node, rounded up to 2^k
  bool pin_workers = true;            // best-effort Topology::pin_this_thread

  // ---- elasticity (DESIGN.md §12) -------------------------------------------
  // How long an idle serving thread keeps polling before it blocks
  // (IdlePolicy, src/harness/idle.hpp): a worker beyond min_width on an
  // empty queue (futex park), and the NetServer event loop (DESIGN.md §10)
  // with nothing in flight since its last progress (epoll_wait with no
  // timeout).  Too short also thrashes the futex under bursty arrivals.
  std::uint64_t park_grace_ns = kDefaultParkGraceNs;

  // ---- admission (DESIGN.md §12) --------------------------------------------
  // Per-node token bucket charged per key (batched gets) / per op (point
  // ops) at the submit edge, before any latch init.  0 disables shedding.
  double admit_rate = 0.0;      // tokens (≈ ops) per second per node
  // Bucket depth (<= kMaxAdmitDepth): how much burst above the sustained
  // rate a node absorbs.  0 derives 10ms worth of rate (min 64) — enough
  // that batched submits are not sheared apart by quantization.
  std::size_t admit_burst = 0;

  // ---- lease expiry (src/expiry/, DESIGN.md §13) ----------------------------
  // Off by default: put_with_ttl/touch require expiry_enabled, and the map
  // skips the read-path lease filter entirely when it is off.
  bool expiry_enabled = false;
  // Timer-wheel tick: leases may deliver up to one resolution early (floor
  // rounding) and one late (lazy cascade), never more.
  std::uint64_t expiry_resolution_ns = 1'000'000;  // 1ms
  std::size_t expiry_wheel_slots = 256;  // per level; power of two
  int expiry_wheel_levels = 3;           // spans slots^levels * resolution

  // ---- time -----------------------------------------------------------------
  // The one time source for lease expiry (wheel ticks, read-path filter)
  // and for Request::deadline_ns checks (admission edge + worker dequeue);
  // nullptr = steady clock.  Tests inject a VirtualClock to drive wheel
  // cascade, sweeps and in-queue deadline expiry step by step.  Not owned;
  // must outlive the server.
  const ClockSource* clock = nullptr;

  // ---- fluent validated setters ---------------------------------------------

  ServeConfig& with_shards(std::size_t shards) {
    if (shards < 1) fail("shards_per_node must be >= 1");
    shards_per_node = shards;
    return *this;
  }
  // Fixed-width pool: min_width == max_width == w.
  ServeConfig& with_workers(int w) { return with_widths(w, w); }
  ServeConfig& with_widths(int mn, int mx) {
    if (mn < 1) fail("min_width must be >= 1");
    if (mx < mn) fail("max_width must be >= min_width");
    min_width = mn;
    max_width = mx;
    return *this;
  }
  ServeConfig& with_queue_capacity(std::size_t cap) {
    check_capacity(cap);
    queue_capacity = cap;
    return *this;
  }
  ServeConfig& with_pin(bool pin) {
    pin_workers = pin;
    return *this;
  }
  ServeConfig& with_dispatch(bool node_local) {
    node_local_dispatch = node_local;
    return *this;
  }
  ServeConfig& with_alloc(bool node_local) {
    node_local_alloc = node_local;
    return *this;
  }
  ServeConfig& with_park(std::uint64_t grace_ns) {
    if (grace_ns == 0) fail("park_grace_ns must be > 0");
    park_grace_ns = grace_ns;
    return *this;
  }
  ServeConfig& with_admission(double rate_per_s, std::size_t bucket = 0) {
    check_admission(rate_per_s, bucket);
    admit_rate = rate_per_s;
    admit_burst = bucket;
    return *this;
  }
  // Arms the expiry subsystem at the given wheel resolution.
  ServeConfig& with_expiry(std::uint64_t resolution_ns) {
    if (resolution_ns == 0) fail("expiry_resolution_ns must be > 0");
    expiry_enabled = true;
    expiry_resolution_ns = resolution_ns;
    return *this;
  }
  ServeConfig& with_expiry_wheel(std::size_t slots, int levels) {
    if (slots < 2 || (slots & (slots - 1)) != 0)
      fail("expiry_wheel_slots must be a power of two >= 2");
    if (levels < 1 || levels > 8) fail("expiry_wheel_levels must be in [1, 8]");
    expiry_wheel_slots = slots;
    expiry_wheel_levels = levels;
    return *this;
  }
  ServeConfig& with_clock(const ClockSource* source) {
    clock = source;
    return *this;
  }

  // Effective bucket depth once the 0-means-derived rule is applied; a
  // huge rate saturates at kMaxAdmitDepth before the integer cast.
  std::size_t effective_admit_burst() const {
    if (admit_burst > 0) return admit_burst;
    const double derived = admit_rate * 0.010;
    if (derived >= static_cast<double>(kMaxAdmitDepth)) return kMaxAdmitDepth;
    return derived > 64.0 ? static_cast<std::size_t>(derived) : 64;
  }

  // Whole-struct re-check; consumers (KvServer, WorkerPool) call this at
  // construction so direct field assignment gets the same gate as the
  // fluent setters.
  const ServeConfig& validate() const {
    if (shards_per_node < 1) fail("shards_per_node must be >= 1");
    if (min_width < 1) fail("min_width must be >= 1");
    if (max_width < min_width) fail("max_width must be >= min_width");
    check_capacity(queue_capacity);
    if (park_grace_ns == 0) fail("park_grace_ns must be > 0");
    check_admission(admit_rate, admit_burst);
    if (expiry_enabled) {
      if (expiry_resolution_ns == 0) fail("expiry_resolution_ns must be > 0");
      if (expiry_wheel_slots < 2 ||
          (expiry_wheel_slots & (expiry_wheel_slots - 1)) != 0)
        fail("expiry_wheel_slots must be a power of two >= 2");
      if (expiry_wheel_levels < 1 || expiry_wheel_levels > 8)
        fail("expiry_wheel_levels must be in [1, 8]");
    }
    return *this;
  }

 private:
  static void check_capacity(std::size_t cap) {
    if (cap < 2 || cap > kMaxQueueCapacity)
      fail("queue_capacity must be in [2, the largest power of two]");
  }
  // A deeper bucket would wrap to a negative int64 cap that sheds
  // everything; a non-finite rate has no token arithmetic (NaN reads "off").
  static void check_admission(double rate, std::size_t depth) {
    if (!std::isfinite(rate) || rate < 0.0)
      fail("admit_rate must be finite and >= 0");
    if (depth > kMaxAdmitDepth)
      fail("admit_burst must be <= the largest int64");
  }
  [[noreturn]] static void fail(const char* what) {
    throw std::invalid_argument(std::string("ServeConfig: ") + what);
  }
};

}  // namespace bjrw::serve
