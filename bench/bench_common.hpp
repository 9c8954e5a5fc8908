// Shared infrastructure for the unified benchmark driver (bench_main):
//  * a self-registration registry every bench_*.cpp file adds itself to,
//  * BenchContext, through which a bench reports machine-readable result
//    rows (throughput, latency percentiles, RMR counts) for the JSON dump,
//  * instrumented-RMR measurement over any lock type.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "src/harness/stats.hpp"
#include "src/harness/thread_coord.hpp"
#include "src/rmr/cache_directory.hpp"
#include "src/rmr/measure.hpp"
#include "src/rmr/provider.hpp"

namespace bjrw::bench {

// Command-line-tunable parameters shared by every bench.  Benches with an
// intrinsic sweep shape (e.g. thread-count scans) may ignore `threads`.
// `seconds` is an op-count scale, not a duration: benches multiply their
// per-thread iteration counts by seconds / 0.5 (scaled_iters), so the wall
// time of a run depends on the host, and --seconds=10 is twenty times the
// default work, not a ten-second run.  The name is kept because recorded
// JSON headers and the CI recipes carry it.
struct BenchParams {
  int threads = 8;
  double seconds = 0.5;
  std::uint64_t seed = 42;
  bool pin = false;  // --pin: workload threads pinned round-robin (driver
                     // arms set_pin_run_threads and stamps the machine
                     // header; pinned and unpinned runs never compare)
};

// One named result row of a bench run (typically: one lock at one
// configuration) carrying flat numeric metrics for the JSON output.
struct BenchRow {
  std::string name;
  std::vector<std::pair<std::string, double>> metrics;

  BenchRow& metric(const std::string& key, double value) {
    metrics.emplace_back(key, value);
    return *this;
  }
  // Convenience: dump a latency/throughput Summary under a key prefix.
  BenchRow& summary(const std::string& prefix, const Summary& s) {
    metric(prefix + "_mean", s.mean);
    metric(prefix + "_p50", s.p50);
    metric(prefix + "_p90", s.p90);
    metric(prefix + "_p99", s.p99);
    metric(prefix + "_max", s.max);
    return *this;
  }
};

class BenchContext {
 public:
  explicit BenchContext(const BenchParams& p) : params_(p) {}

  const BenchParams& params() const { return params_; }

  // Appends a result row; the reference stays valid for the whole run
  // (deque storage), so benches can fill metrics incrementally.
  BenchRow& row(std::string name) {
    rows_.emplace_back();
    rows_.back().name = std::move(name);
    return rows_.back();
  }

  const std::deque<BenchRow>& rows() const { return rows_; }

  // Scales a baseline iteration count by the --seconds op-count scale
  // (relative to the 0.5 default), clamped to [1, INT_MAX] so extreme
  // scales cannot overflow the cast.
  int scaled_iters(int base) const {
    const double scaled = static_cast<double>(base) * params_.seconds / 0.5;
    if (!(scaled >= 1.0)) return 1;  // also catches NaN
    if (scaled >= static_cast<double>(std::numeric_limits<int>::max()))
      return std::numeric_limits<int>::max();
    return static_cast<int>(scaled);
  }

 private:
  BenchParams params_;
  std::deque<BenchRow> rows_;
};

// --- registry ---------------------------------------------------------------

using BenchFn = void (*)(BenchContext&);

struct BenchCase {
  std::string name;         // stable id, matched by --bench=<regex>
  std::string description;  // one line for --list
  BenchFn fn = nullptr;
};

// Meyers-singleton registry filled by static BenchRegistrar objects; all
// bench translation units link into the single bench_main binary.
std::vector<BenchCase>& bench_registry();

struct BenchRegistrar {
  BenchRegistrar(std::string name, std::string description, BenchFn fn) {
    bench_registry().push_back({std::move(name), std::move(description), fn});
  }
};

// Registers `fn` (signature: void(BenchContext&)) under `name`.
#define BJRW_BENCH(name, description, fn)                             \
  static const ::bjrw::bench::BenchRegistrar bjrw_bench_registrar_ { \
    name, description, &(fn)                                          \
  }

// Measurement primitives now live in src/rmr/measure.hpp (shared with the
// tier-1 RMR regression gate); keep the historical bench-namespace names.
using rmr::RmrResult;
using rmr::measure_rmr;
using rmr::writer_rmr_under_churn;

}  // namespace bjrw::bench
