// Example: wire-protocol load generator for `kv_server --listen`.
//
// Drives configurable connections × in-flight depth × zipfian mixes
// against a NetServer and reports RPS / ops/s / latency percentiles.
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
// jittered exponential backoff on shed refusals (deadline refusals are
// never retried — the budget is already gone).
//
// Every argument is parsed strictly, and a bad one exits 2 before any
// connection opens: the port is an integer in [0, 65535]; connections and
// depth integers in [1, 1024] (each connection is a thread);
// requests_per_conn an integer >= 1; read_frac and the --ttl fraction
// finite numbers in [0, 1]; --ttl's ttl_ms and --deadline finite
// milliseconds >= 0; --timeout and --retries non-negative integers.
// Positionals come before the flags.
#include <climits>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <utility>

#include "examples/cli_args.hpp"
#include "src/harness/stats.hpp"
#include "src/harness/table.hpp"
#include "src/net/loadgen.hpp"

using bjrw::examples::parse_count;
using bjrw::examples::parse_fraction;
using bjrw::examples::parse_int;
using bjrw::examples::parse_ms_as_ns;
using bjrw::examples::parse_port;

constexpr int kMaxConnections = 1024;
constexpr int kMaxDepth = 1024;

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: kv_loadgen <port> [connections] [depth] "
                 "[requests_per_conn] [read_fraction] "
                 "[--ttl <fraction> <ttl_ms>] [--timeout <ms>] "
                 "[--deadline <ms>] [--retries <n>]\n";
    return 2;
  }
  bjrw::net::LoadgenConfig cfg;
  const auto bad = [](const char* what) {
    std::cerr << "kv_loadgen: " << what << "\n";
    return 2;
  };
  // Flags first (they follow the positionals), then positionals.
  int npos = argc;
  for (int i = 1; i < argc; ++i) {
    if (argv[i][0] != '-') {
      if (npos == argc) continue;
      return bad("positional arguments must come before the flags");
    }
    if (npos == argc) npos = i;  // positionals stop at the first flag
    const auto need = [&](int extra, const char* what) {
      if (i + extra < argc) return true;
      std::cerr << "kv_loadgen: " << argv[i] << " needs " << what << "\n";
      return false;
    };
    if (std::strcmp(argv[i], "--ttl") == 0) {
      if (!need(2, "<fraction> <ttl_ms>")) return 2;
      if (!parse_fraction(argv[i + 1], &cfg.mix.ttl_fraction))
        return bad("--ttl fraction must be a finite number in [0, 1]");
      if (!parse_ms_as_ns(argv[i + 2], &cfg.mix.ttl_ns))
        return bad("--ttl ttl_ms must be finite, >= 0 and below 2^64 ns");
      i += 2;
    } else if (std::strcmp(argv[i], "--timeout") == 0) {
      if (!need(1, "<ms>")) return 2;
      if (!parse_count(argv[i + 1], UINT64_MAX, &cfg.client.op_timeout_ms))
        return bad("--timeout must be a non-negative integer");
      i += 1;
    } else if (std::strcmp(argv[i], "--deadline") == 0) {
      if (!need(1, "<ms>")) return 2;
      if (!parse_ms_as_ns(argv[i + 1], &cfg.client.deadline_budget_ns))
        return bad("--deadline must be finite, >= 0 and below 2^64 ns");
      i += 1;
    } else if (std::strcmp(argv[i], "--retries") == 0) {
      if (!need(1, "<n>")) return 2;
      if (!parse_int(argv[i + 1], 0, INT_MAX,
                     &cfg.client.retry.max_attempts))
        return bad("--retries must be a non-negative integer");
      i += 1;
    } else {
      std::cerr << "kv_loadgen: unknown flag " << argv[i] << "\n";
      return 2;
    }
  }
  if (!parse_port(argv[1], &cfg.port))
    return bad("port must be an integer in [0, 65535]");
  if (npos > 6) return bad("too many positional arguments (at most 5)");
  if (npos > 2 && !parse_int(argv[2], 1, kMaxConnections, &cfg.connections))
    return bad("connections must be an integer in [1, 1024]");
  if (npos > 3 && !parse_int(argv[3], 1, kMaxDepth, &cfg.depth))
    return bad("depth must be an integer in [1, 1024]");
  if (npos > 4 && !parse_int(argv[4], 1, INT_MAX, &cfg.requests_per_conn))
    return bad("requests_per_conn must be a positive integer");
  if (npos > 5 && !parse_fraction(argv[5], &cfg.mix.read_fraction))
    return bad("read_fraction must be a finite number in [0, 1]");
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

  bjrw::Table t({"requests", "rps", "kops_per_s", "hits", "shed", "deadline",
                 "retries", "timeouts", "errors", "p50_us", "p99_us",
                 "max_us"});
  t.add_row({std::to_string(res.requests), bjrw::Table::cell(rps, 0),
             bjrw::Table::cell(ops / 1e3, 1), std::to_string(res.hits),
             std::to_string(res.shed), std::to_string(res.deadline),
             std::to_string(res.retries), std::to_string(res.timeouts),
             std::to_string(res.errors),
             bjrw::Table::cell(lat.p50 / 1e3, 1),
             bjrw::Table::cell(lat.p99 / 1e3, 1),
             bjrw::Table::cell(lat.max / 1e3, 1)});
  t.print(std::cout);
  return 0;
}
