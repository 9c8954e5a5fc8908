// E20 (DESIGN.md §8/§10): the network tax, measured — the same zipfian
// get_many/put wire-request mix driven (a) straight into KvServer's
// submit/complete pipeline in-process (the E18 path: one sync round trip
// per wire request per client thread) and (b) over loopback TCP through
// the wire protocol and the epoll front-end (src/net/), at
// pipelining depths 1/4/16.
//
// Both arms consume the *identical* pre-generated wire-request lists
// (loadgen.hpp's make_ops with the same seed/salts), so a row pair
// differs only by the wire: framing + header per message, two socket
// hops, the event loop's completion sweep.  depth=1 vs inproc is the
// per-request loopback tax; deeper rows show how much of it pipelining
// amortizes.  Latencies are client-side per wire request (send → matched
// response).
#include <atomic>
#include <cstdint>
#include <iostream>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_common.hpp"
#include "src/core/locks.hpp"
#include "src/harness/table.hpp"
#include "src/harness/thread_coord.hpp"
#include "src/harness/timing.hpp"
#include "src/harness/topology.hpp"
#include "src/harness/workload.hpp"
#include "src/net/loadgen.hpp"
#include "src/net/net_server.hpp"
#include "src/serve/server.hpp"

namespace bjrw::bench {
namespace {

constexpr std::uint64_t kPreload = 1 << 13;
constexpr int kNodes = 2;
constexpr int kCpusPerNode = 4;

// Shard locks whose internal cohort topology matches the simulated shape
// (the E18 idiom: the shape is baked into the lock type).
struct SimCohortWp2x4 : CohortMwWriterPrefLock<> {
  explicit SimCohortWp2x4(int n)
      : CohortMwWriterPrefLock<>(n,
                                 Topology::simulated(kNodes, kCpusPerNode)) {}
};

using Server = serve::KvServer<SimCohortWp2x4>;

serve::ServeConfig server_config() {
  return serve::ServeConfig{}.with_workers(2);
}

void preload(Server& server) {
  ServeMixConfig scfg;
  for (std::uint64_t k = 0; k < kPreload; ++k)
    server.map().put(0, scramble_rank(k, scfg.num_keys), k);
}

net::LoadgenConfig mix_config(BenchContext& ctx, int requests_per_conn) {
  net::LoadgenConfig cfg;
  cfg.connections = ctx.params().threads;
  cfg.requests_per_conn = requests_per_conn;
  cfg.mix.seed = ctx.params().seed;
  return cfg;
}

struct ArmResult {
  std::uint64_t requests = 0, ops = 0, hits = 0;
  double wall_s = 0.0;
  Summary lat;
};

void report(BenchContext& ctx, Table& t, const std::string& name,
            const ArmResult& r) {
  const double rps = static_cast<double>(r.requests) / r.wall_s;
  const double ops_s = static_cast<double>(r.ops) / r.wall_s;
  t.add_row({name, std::to_string(r.requests), Table::cell(rps / 1e3, 1),
             Table::cell(ops_s / 1e6, 3), Table::cell(r.lat.p50 / 1e3, 1),
             Table::cell(r.lat.p99 / 1e3, 1), std::to_string(r.hits)});
  ctx.row(name)
      .metric("threads", ctx.params().threads)
      .metric("requests", static_cast<double>(r.requests))
      .metric("requests_per_s", rps)
      .metric("mops_per_s", ops_s / 1e6)
      .metric("lat_p50_us", r.lat.p50 / 1e3)
      .metric("lat_p99_us", r.lat.p99 / 1e3)
      .metric("hits", static_cast<double>(r.hits));
}

// (a) In-process arm: the E18 path — each client thread plays its wire
// request list as synchronous submit/wait round trips against KvServer.
ArmResult run_inproc(const net::LoadgenConfig& cfg) {
  const Topology topo = Topology::simulated(kNodes, kCpusPerNode);
  Server server(topo, server_config());
  preload(server);

  const std::size_t conns = static_cast<std::size_t>(cfg.connections);
  std::atomic<std::uint64_t> requests{0}, ops{0}, hits{0};
  std::mutex mu;
  std::vector<double> latencies;
  Stopwatch sw;
  run_threads(conns, [&](std::size_t c) {
    const std::vector<net::detail::WireOp> wire_ops =
        net::detail::make_ops(cfg, static_cast<std::uint64_t>(c));
    std::vector<double> local;
    local.reserve(wire_ops.size());
    std::uint64_t my_ops = 0, my_hits = 0;
    for (const net::detail::WireOp& w : wire_ops) {
      const std::uint64_t t0 = now_ns();
      if (w.is_batch) {
        my_hits += server.get_many(w.keys);
        my_ops += w.keys.size();
      } else {
        server.put(w.key, w.value);
        my_ops += 1;
      }
      local.push_back(static_cast<double>(now_ns() - t0));
    }
    requests.fetch_add(wire_ops.size());
    ops.fetch_add(my_ops);
    hits.fetch_add(my_hits);
    const std::lock_guard<std::mutex> g(mu);
    latencies.insert(latencies.end(), local.begin(), local.end());
  });
  ArmResult r;
  r.wall_s = sw.elapsed_s();
  r.requests = requests.load();
  r.ops = ops.load();
  r.hits = hits.load();
  r.lat = summarize(std::move(latencies));
  return r;
}

// (b) Loopback arm: the same lists through KvClient pipelines against the
// epoll front-end.
ArmResult run_net(net::LoadgenConfig cfg, int depth) {
  const Topology topo = Topology::simulated(kNodes, kCpusPerNode);
  Server server(topo, server_config());
  preload(server);
  net::NetServer<SimCohortWp2x4> netsrv(server);
  if (!netsrv.ok()) {
    std::cerr << "E20: failed to bind loopback listener; skipping row\n";
    return {};
  }
  cfg.port = netsrv.port();
  cfg.depth = depth;
  net::LoadgenResult res = net::run_loadgen(cfg);
  netsrv.stop();
  ArmResult r;
  r.wall_s = res.wall_s;
  r.requests = res.requests;
  r.ops = res.ops;
  r.hits = res.hits;
  r.lat = summarize(std::move(res.latency_ns));
  return r;
}

void run(BenchContext& ctx) {
  const int requests_per_conn = ctx.scaled_iters(300);
  std::cout << "E20: wire protocol & socket front-end vs the in-process "
               "serve path\n"
            << ctx.params().threads
            << " clients x " << requests_per_conn
            << " wire requests each, 95/5 zipfian mix, get_many batch 8,\n"
               "simulated " << kNodes << "x" << kCpusPerNode
            << " topology, 2 workers/node.  Same pre-generated request\n"
               "lists on every row; net rows add framing + loopback TCP + "
               "the epoll loop.\n\n";
  Table t({"config", "requests", "krps", "mops_per_s", "p50_us", "p99_us",
           "hits"});
  const net::LoadgenConfig cfg = mix_config(ctx, requests_per_conn);

  report(ctx, t, "inproc/sync", run_inproc(cfg));
  report(ctx, t, "net/loopback/d1", run_net(cfg, 1));
  report(ctx, t, "net/loopback/d4", run_net(cfg, 4));
  report(ctx, t, "net/loopback/d16", run_net(cfg, 16));

  t.print(std::cout);
}

BJRW_BENCH("net_serve",
           "E20: end-to-end loopback RPS/p50/p99 through the versioned "
           "wire protocol + epoll front-end vs the in-process serve path",
           run);

}  // namespace
}  // namespace bjrw::bench
