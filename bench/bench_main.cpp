// Unified benchmark driver: one binary registering every bench in bench/.
//
//   bench_main [--list] [--bench=<regex>] [--threads=N] [--seconds=S]
//              [--seed=K] [--json=<path>]
//
// --seconds scales op counts (BenchContext::scaled_iters), not wall time:
// --seconds=10 runs twenty times the default iterations, however long
// that takes on the host.
//
// Each selected bench prints its human-readable tables to stdout exactly as
// the former standalone binaries did, and additionally reports structured
// result rows (throughput, latency percentiles, RMR counts) which --json
// dumps as a single machine-readable document, so runs can be recorded and
// compared across commits (the BENCH_results.json trajectory).
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <iostream>
#include <regex>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.hpp"
#include "src/harness/thread_coord.hpp"
#include "src/harness/timing.hpp"
#include "src/harness/topology.hpp"

namespace bjrw::bench {

std::vector<BenchCase>& bench_registry() {
  static std::vector<BenchCase> cases;
  return cases;
}

namespace {

struct Options {
  std::string bench_regex = ".*";
  std::string json_path;
  BenchParams params;
  bool list = false;
};

[[noreturn]] void usage(int exit_code) {
  std::cout <<
      "bench_main -- unified bjrw benchmark driver\n"
      "  --list            print registered benches and exit\n"
      "  --bench=<regex>   run benches whose name matches (default: all)\n"
      "  --threads=N       thread count for tunable benches (default 8)\n"
      "  --seconds=S       op-count scale, not a duration: every bench's\n"
      "                    iteration counts are multiplied by S / 0.5\n"
      "                    (default 0.5); wall time follows the host\n"
      "  --seed=K          workload PRNG seed (default 42)\n"
      "  --pin             pin workload threads round-robin over the\n"
      "                    detected topology (stamped into the machine\n"
      "                    header; pinned runs only compare to pinned)\n"
      "  --json=<path>     write all result rows as one JSON document\n";
  std::exit(exit_code);
}

bool consume(const std::string& arg, const std::string& key,
             std::string* value) {
  if (arg.rfind(key, 0) != 0) return false;
  *value = arg.substr(key.size());
  return true;
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string v;
    try {
      if (arg == "--help" || arg == "-h") {
        usage(0);
      } else if (arg == "--list") {
        o.list = true;
      } else if (consume(arg, "--bench=", &v)) {
        o.bench_regex = v;
      } else if (consume(arg, "--json=", &v)) {
        o.json_path = v;
      } else if (consume(arg, "--threads=", &v)) {
        o.params.threads = std::stoi(v);
      } else if (consume(arg, "--seconds=", &v)) {
        o.params.seconds = std::stod(v);
      } else if (consume(arg, "--seed=", &v)) {
        o.params.seed = std::stoull(v);
      } else if (arg == "--pin") {
        o.params.pin = true;
      } else {
        std::cerr << "unknown flag: " << arg << "\n\n";
        usage(2);
      }
    } catch (const std::exception&) {  // stoi/stod on malformed numbers
      std::cerr << "bad value in " << arg << "\n";
      std::exit(2);
    }
  }
  if (o.params.threads < 1 || !std::isfinite(o.params.seconds) ||
      o.params.seconds <= 0.0) {
    std::cerr << "--threads must be >= 1 and --seconds a finite value > 0\n";
    std::exit(2);
  }
  return o;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

// JSON has no NaN/Inf literals; degenerate metrics become null.
std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

struct BenchRun {
  std::string name;
  double wall_s = 0.0;
  std::deque<BenchRow> rows;
};

// Compiler identity baked in at build time, so a JSON document read months
// later still says which toolchain produced its numbers.
std::string compiler_id() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#elif defined(_MSC_VER)
  return "msvc";
#else
  return "unknown";
#endif
}

// CMake stamps the configuration ($<CONFIG>) into BJRW_BUILD_TYPE; a build
// outside the harness falls back to what NDEBUG implies.
std::string build_type() {
#if defined(BJRW_BUILD_TYPE)
  return BJRW_BUILD_TYPE;
#elif defined(NDEBUG)
  return "Release?";
#else
  return "Debug?";
#endif
}

// Machine metadata header (bjrw-bench-v1): what this run's numbers mean is
// a function of the hardware and build that produced them, so baseline
// comparisons across runners (scripts/bench_compare.py) need the context
// stamped into the document itself.  `pinned` records the *realized*
// regime (--pin requested and every pin attempt succeeded) — pinned
// wall-clock numbers live in a different regime from unpinned ones, and
// the comparison gate refuses to hold them against each other.
void write_machine_json(std::ostream& os, bool pinned) {
  const Topology topo = Topology::detect();
  os << "  \"machine\": {\"hardware_concurrency\": "
     << std::thread::hardware_concurrency()
     << ", \"topology\": \"" << json_escape(topo.describe())
     << "\", \"topology_source\": \"" << json_escape(topo.source())
     << "\", \"compiler\": \"" << json_escape(compiler_id())
     << "\", \"build_type\": \"" << json_escape(build_type())
     // The build's memory-ordering policy (DESIGN.md §2): like `pinned`,
     // a different policy is a different measurement regime, and
     // scripts/bench_compare.py refuses to hold the two against each other.
     << "\", \"order_policy\": \"" << json_escape(DefaultOrderPolicy::name())
     << "\", \"pinned\": " << (pinned ? "true" : "false") << "},\n";
}

void write_json(std::ostream& os, const Options& o,
                const std::vector<BenchRun>& runs) {
  os << "{\n  \"schema\": \"bjrw-bench-v1\",\n";
  const bool pinned = o.params.pin && pin_attempt_count().load() > 0 &&
                      pin_failure_count().load() == 0;
  write_machine_json(os, pinned);
  os << "  \"params\": {\"threads\": " << o.params.threads
     << ", \"seconds\": " << json_number(o.params.seconds)
     << ", \"seed\": " << o.params.seed << "},\n";
  os << "  \"benches\": [";
  bool first_bench = true;
  for (const auto& run : runs) {
    os << (first_bench ? "\n" : ",\n");
    first_bench = false;
    os << "    {\"bench\": \"" << json_escape(run.name)
       << "\", \"wall_s\": " << json_number(run.wall_s) << ", \"rows\": [";
    bool first_row = true;
    for (const auto& row : run.rows) {
      os << (first_row ? "\n" : ",\n");
      first_row = false;
      os << "      {\"name\": \"" << json_escape(row.name)
         << "\", \"metrics\": {";
      bool first_metric = true;
      for (const auto& [key, value] : row.metrics) {
        if (!first_metric) os << ", ";
        first_metric = false;
        os << "\"" << json_escape(key) << "\": " << json_number(value);
      }
      os << "}}";
    }
    os << (first_row ? "]}" : "\n    ]}");
  }
  os << (first_bench ? "]\n" : "\n  ]\n") << "}\n";
}

int run_driver(const Options& o) {
  auto cases = bench_registry();
  std::sort(cases.begin(), cases.end(),
            [](const BenchCase& a, const BenchCase& b) { return a.name < b.name; });

  if (o.list) {
    for (const auto& c : cases)
      std::cout << c.name << "\t" << c.description << "\n";
    return 0;
  }

  std::regex re;
  try {
    re = std::regex(o.bench_regex);
  } catch (const std::regex_error& e) {
    std::cerr << "bad --bench regex: " << e.what() << "\n";
    return 2;
  }

  // Arm round-robin pinning for every bench's run_threads workers, and pin
  // the driver thread itself (single-threaded benches measure on it).
  // Every attempt is tallied; the machine header stamps "pinned": true
  // only if all of them succeeded, so a run whose pins failed (simulated
  // topology wider than the host) is not misfiled into the pinned regime.
  if (o.params.pin) {
    set_pin_run_threads(true);
    record_pin_attempt(Topology::detected().pin_this_thread(0));
  }

  std::vector<BenchRun> runs;
  for (const auto& c : cases) {
    if (!std::regex_search(c.name, re)) continue;
    std::cout << "==== bench: " << c.name << " ====\n";
    BenchContext ctx(o.params);
    Stopwatch sw;
    c.fn(ctx);
    BenchRun run;
    run.name = c.name;
    run.wall_s = sw.elapsed_s();
    run.rows = ctx.rows();
    runs.push_back(std::move(run));
    std::cout << "\n";
  }

  if (runs.empty()) {
    std::cerr << "no bench matched --bench=" << o.bench_regex
              << " (try --list)\n";
    return 1;
  }

  if (!o.json_path.empty()) {
    std::ofstream f(o.json_path);
    if (!f) {
      std::cerr << "cannot open " << o.json_path << " for writing\n";
      return 1;
    }
    write_json(f, o, runs);
    std::cout << "wrote " << runs.size() << " bench result(s) to "
              << o.json_path << "\n";
  }
  return 0;
}

}  // namespace
}  // namespace bjrw::bench

int main(int argc, char** argv) {
  return bjrw::bench::run_driver(bjrw::bench::parse(argc, argv));
}
