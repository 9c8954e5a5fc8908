// Monotonic-clock helpers for benchmark measurement, plus the injectable
// clock seam the expiry subsystem (src/expiry/) is built against.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>

namespace bjrw {

using Clock = std::chrono::steady_clock;

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

// The absolute time `delta_ns` after `now_ns`, saturating at the largest
// u64 instead of wrapping into the past: a relative budget or TTL too
// large for the clock means "never", not "already over".
inline std::uint64_t deadline_after(std::uint64_t now_ns,
                                    std::uint64_t delta_ns) {
  const std::uint64_t kMax = ~std::uint64_t{0};
  return delta_ns > kMax - now_ns ? kMax : now_ns + delta_ns;
}

// Clock seam: code whose *semantics* depend on time (lease deadlines, timer
// wheel cascade, sweep pacing) reads it through a ClockSource handle so
// tests can substitute a virtual clock and drive the choreography
// tick-by-tick.  Measurement code (latency stamps, token buckets, park
// grace) stays on the free now_ns() — benchmarks want wall time there even
// when a test freezes lease time.
class ClockSource {
 public:
  virtual ~ClockSource() = default;
  virtual std::uint64_t now_ns() const = 0;
};

// The production clock: steady_clock, shared process-wide (stateless).
class SteadyClockSource final : public ClockSource {
 public:
  std::uint64_t now_ns() const override { return bjrw::now_ns(); }
  static const SteadyClockSource& instance() {
    static const SteadyClockSource c;
    return c;
  }
};

// Deterministic test clock: time only moves when the test says so.
// Readable from any thread (seq_cst, like every shared access in the
// default ordering policy); advancing concurrently with readers is safe —
// readers see either the old or the new time, both monotone.
class VirtualClock final : public ClockSource {
 public:
  explicit VirtualClock(std::uint64_t start_ns = 0) : t_(start_ns) {}
  std::uint64_t now_ns() const override { return t_.load(); }
  void set(std::uint64_t t) { t_.store(t); }
  void advance(std::uint64_t delta_ns) { t_.fetch_add(delta_ns); }

 private:
  std::atomic<std::uint64_t> t_;
};

class Stopwatch {
 public:
  Stopwatch() : start_(now_ns()) {}
  void reset() { start_ = now_ns(); }
  std::uint64_t elapsed_ns() const { return now_ns() - start_; }
  double elapsed_s() const {
    return static_cast<double>(elapsed_ns()) * 1e-9;
  }

 private:
  std::uint64_t start_;
};

}  // namespace bjrw
