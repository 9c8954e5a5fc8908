// Example: wire-protocol load generator for `kv_server --listen`.
//
// Drives configurable connections × in-flight depth × zipfian mixes
// against a NetServer and reports RPS / ops/s / latency percentiles —
// the CLI face of the same driver bench_net_serve (E20) uses, so ad-hoc
// runs and the tracked bench rows measure identically.
//
// Run:
//   ./kv_server --listen 7711         # terminal 1
//   ./kv_loadgen 7711 [connections] [depth] [requests_per_conn] [read_frac]
//                [--ttl <fraction> <ttl_ms>] [--timeout <ms>]
//                [--deadline <ms>] [--retries <n>]
//
// --ttl F M turns fraction F of the puts into TTL'd puts (kPutTtlReq)
// with an M-millisecond lease — the expiry-storm driver for a
// `kv_server --listen <port> 0 --expiry` server.  The op mix is seeded;
// set BJRW_TEST_SEED to override the seed, so two runs (with or without
// --ttl: the TTL coin has its own generator) replay the identical
// kind/key stream.
//
// --timeout M bounds each wire round trip at M milliseconds (a hung or
// wedged server costs M, not forever); --deadline M attaches an M-ms
// deadline budget to every request so the server refuses or drops work it
// cannot finish in time; --retries N allows each op N total attempts with
// jittered exponential backoff on shed/queue-full refusals (deadline
// refusals are never retried — the budget is already gone).  --timeout
// and --retries take non-negative integers; anything else exits 2.
#include <cerrno>
#include <climits>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <utility>

#include "src/harness/stats.hpp"
#include "src/harness/table.hpp"
#include "src/net/loadgen.hpp"

namespace {

// Parses a non-negative decimal integer no larger than `max`; rejects
// signs, blanks, trailing junk and overflow.
bool parse_count(const char* s, std::uint64_t max, std::uint64_t* out) {
  if (*s < '0' || *s > '9') return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || *end != '\0' || v > max) return false;
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: kv_loadgen <port> [connections] [depth] "
                 "[requests_per_conn] [read_fraction] "
                 "[--ttl <fraction> <ttl_ms>] [--timeout <ms>] "
                 "[--deadline <ms>] [--retries <n>]\n";
    return 2;
  }
  bjrw::net::LoadgenConfig cfg;
  // Flags first (they may appear after the positionals), then positionals.
  int npos = argc;
  for (int i = 1; i < argc; ++i) {
    if (argv[i][0] != '-') continue;
    if (npos == argc) npos = i;  // positionals stop at the first flag
    const auto need = [&](int extra, const char* what) {
      if (i + extra < argc) return true;
      std::cerr << "kv_loadgen: " << argv[i] << " needs " << what << "\n";
      return false;
    };
    if (std::strcmp(argv[i], "--ttl") == 0) {
      if (!need(2, "<fraction> <ttl_ms>")) return 2;
      cfg.mix.ttl_fraction = std::atof(argv[i + 1]);
      cfg.mix.ttl_ns =
          static_cast<std::uint64_t>(std::atof(argv[i + 2]) * 1e6);
      i += 2;
    } else if (std::strcmp(argv[i], "--timeout") == 0) {
      if (!need(1, "<ms>")) return 2;
      if (!parse_count(argv[i + 1], UINT64_MAX, &cfg.client.op_timeout_ms)) {
        std::cerr << "kv_loadgen: --timeout needs a non-negative integer\n";
        return 2;
      }
      i += 1;
    } else if (std::strcmp(argv[i], "--deadline") == 0) {
      if (!need(1, "<ms>")) return 2;
      cfg.client.deadline_budget_ns =
          static_cast<std::uint64_t>(std::atof(argv[i + 1]) * 1e6);
      i += 1;
    } else if (std::strcmp(argv[i], "--retries") == 0) {
      if (!need(1, "<n>")) return 2;
      std::uint64_t n = 0;
      if (!parse_count(argv[i + 1], INT_MAX, &n)) {
        std::cerr << "kv_loadgen: --retries needs a non-negative integer\n";
        return 2;
      }
      cfg.client.retry.max_attempts = static_cast<int>(n);
      i += 1;
    } else {
      std::cerr << "kv_loadgen: unknown flag " << argv[i] << "\n";
      return 2;
    }
  }
  cfg.port = static_cast<std::uint16_t>(std::atol(argv[1]));
  if (npos > 2) cfg.connections = std::atoi(argv[2]);
  if (npos > 3) cfg.depth = std::atoi(argv[3]);
  if (npos > 4) cfg.requests_per_conn = std::atoi(argv[4]);
  if (npos > 5) cfg.mix.read_fraction = std::atof(argv[5]);
  if (const char* seed = std::getenv("BJRW_TEST_SEED"))
    cfg.mix.seed = static_cast<std::uint64_t>(std::strtoull(seed, nullptr, 0));

  std::cout << "kv_loadgen: 127.0.0.1:" << cfg.port << ", "
            << cfg.connections << " conns x depth " << cfg.depth << " x "
            << cfg.requests_per_conn << " reqs, read_fraction "
            << cfg.mix.read_fraction << ", get_many batch " << cfg.batch;
  if (cfg.mix.ttl_fraction > 0.0 && cfg.mix.ttl_ns > 0)
    std::cout << ", ttl " << cfg.mix.ttl_fraction << " x "
              << static_cast<double>(cfg.mix.ttl_ns) / 1e6 << " ms";
  if (cfg.client.op_timeout_ms > 0)
    std::cout << ", timeout " << cfg.client.op_timeout_ms << " ms";
  if (cfg.client.deadline_budget_ns > 0)
    std::cout << ", deadline "
              << static_cast<double>(cfg.client.deadline_budget_ns) / 1e6
              << " ms";
  std::cout << ", attempts " << cfg.client.retry.max_attempts << "\n";

  bjrw::net::LoadgenResult res = bjrw::net::run_loadgen(cfg);
  if (!res.ok) {
    std::cerr << "kv_loadgen: a connection failed (server not listening, "
                 "or protocol error)\n";
    return 1;
  }
  const bjrw::Summary lat = bjrw::summarize(std::move(res.latency_ns));
  const double rps = static_cast<double>(res.requests) / res.wall_s;
  const double ops = static_cast<double>(res.ops) / res.wall_s;

  bjrw::Table t({"requests", "rps", "kops_per_s", "hits", "shed", "deferred",
                 "deadline", "retries", "timeouts", "errors", "p50_us",
                 "p99_us", "max_us"});
  t.add_row({std::to_string(res.requests), bjrw::Table::cell(rps, 0),
             bjrw::Table::cell(ops / 1e3, 1), std::to_string(res.hits),
             std::to_string(res.shed), std::to_string(res.deferred),
             std::to_string(res.deadline), std::to_string(res.retries),
             std::to_string(res.timeouts), std::to_string(res.errors),
             bjrw::Table::cell(lat.p50 / 1e3, 1),
             bjrw::Table::cell(lat.p99 / 1e3, 1),
             bjrw::Table::cell(lat.max / 1e3, 1)});
  t.print(std::cout);
  return 0;
}
