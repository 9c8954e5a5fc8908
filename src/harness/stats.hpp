// Summary statistics for experiment output (latency/throughput/RMR samples).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace bjrw {

// Aggregate view over a sample vector.  Percentiles use the nearest-rank
// method on a sorted copy; good enough for benchmark reporting.
struct Summary {
  std::size_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;

  std::string to_string() const;
};

Summary summarize(std::vector<double> samples);
Summary summarize_u64(const std::vector<std::uint64_t>& samples);

// Adds `n` to a counter only the calling thread writes: a relaxed load +
// store, no RMW, on a word any thread may read (monotone) at any time.
inline void single_writer_add(std::atomic<std::uint64_t>& c,
                              std::uint64_t n = 1) noexcept {
  c.store(c.load(std::memory_order_relaxed) + n, std::memory_order_relaxed);
}

// Streaming accumulator (Welford) for cases where storing every sample is
// wasteful, e.g. per-operation latencies in long benchmark runs.
class StreamingStats {
 public:
  void add(double x) noexcept;
  std::size_t count() const noexcept { return n_; }
  double mean() const noexcept { return mean_; }
  double variance() const noexcept;
  double stddev() const noexcept;
  double min() const noexcept { return min_; }
  double max() const noexcept { return max_; }
  void merge(const StreamingStats& other) noexcept;

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace bjrw
