// Example: the NUMA-aware KV serving runtime (src/serve/) end to end —
// a KvServer over the detected topology, per-node pinned worker pools,
// cohort-locked sharded storage, and a handful of client threads sending
// zipfian batched traffic.
//
// The topology comes from Topology::detected(): on a NUMA machine the
// pools pin to real nodes; everywhere else set BJRW_TOPOLOGY=<nodes>x<cpus>
// (e.g. 2x4) to watch the multi-node dispatch paths run on a flat host.
//
// Two modes:
//   ./kv_server [clients] [requests_per_client]   in-process demo traffic
//   ./kv_server --listen [port] [admit_rate] [--expiry [resolution_ms]]
//       socket front-end: serve the wire protocol (src/net/wire.hpp) on
//       127.0.0.1 until SIGINT; port 0 (the default) picks an ephemeral
//       port and prints it.  admit_rate > 0 arms the per-node token bucket
//       (ops/s) so overload runs shed instead of queueing.  --expiry arms
//       the lease/TTL subsystem (src/expiry/): TTL'd puts (kPutTtlReq)
//       schedule leases on the per-node timer wheels and the worker pools'
//       sweep lane deletes them as they fall due.  Drive it with
//       ./kv_loadgen <port> ... --ttl <fraction> <ttl_ms>.
#include <csignal>
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "src/harness/table.hpp"
#include "src/harness/thread_coord.hpp"
#include "src/harness/timing.hpp"
#include "src/harness/topology.hpp"
#include "src/harness/workload.hpp"
#include "src/net/net_server.hpp"
#include "src/serve/server.hpp"

namespace {

constexpr std::size_t kBatch = 8;
constexpr std::uint64_t kPreload = 1 << 13;

std::atomic<bool> g_stop{false};
void on_signal(int) { g_stop.store(true); }

void print_node_stats(
    bjrw::serve::KvServer<bjrw::CohortWriterPriorityLock>& server) {
  bjrw::Table t({"node", "sub_requests", "ops", "shed", "deferred",
                 "ddl_refused", "ddl_drops", "lat_mean_us", "lat_max_us",
                 "handoffs", "global_acquires", "preempt_aborts"});
  for (int d = 0; d < server.node_count(); ++d) {
    const bjrw::serve::NodeServeStats ns = server.node_stats(d);
    t.add_row({std::to_string(d), std::to_string(ns.sub_requests),
               std::to_string(ns.ops), std::to_string(ns.shed),
               std::to_string(ns.deferred),
               std::to_string(ns.deadline_refused),
               std::to_string(ns.deadline_drops),
               bjrw::Table::cell(ns.latency_mean_ns / 1e3, 1),
               bjrw::Table::cell(ns.latency_max_ns / 1e3, 1),
               std::to_string(ns.handoffs),
               std::to_string(ns.global_acquires),
               std::to_string(ns.preempt_aborts)});
  }
  t.print(std::cout);
  if (!server.expiry_enabled()) return;
  bjrw::Table e({"node", "leases_scheduled", "cancelled", "expired",
                 "stale_skips", "sweep_batches"});
  for (int d = 0; d < server.node_count(); ++d) {
    const bjrw::serve::NodeServeStats ns = server.node_stats(d);
    e.add_row({std::to_string(d), std::to_string(ns.leases_scheduled),
               std::to_string(ns.leases_cancelled),
               std::to_string(ns.leases_expired),
               std::to_string(ns.lease_stale_skips),
               std::to_string(ns.sweep_batches)});
  }
  std::cout << "\n";
  e.print(std::cout);
}

int listen_mode(std::uint16_t port, double admit_rate,
                std::uint64_t expiry_resolution_ns) {
  const bjrw::Topology topo = bjrw::Topology::detected();
  bjrw::serve::ServeConfig cfg = bjrw::serve::ServeConfig{}.with_workers(2);
  if (admit_rate > 0.0) cfg.with_admission(admit_rate);
  if (expiry_resolution_ns > 0) cfg.with_expiry(expiry_resolution_ns);
  bjrw::serve::KvServer<bjrw::CohortWriterPriorityLock> server(topo, cfg);

  bjrw::ServeMixConfig scfg;
  for (std::uint64_t k = 0; k < kPreload; ++k)
    server.map().put(0, bjrw::scramble_rank(k, scfg.num_keys), k);

  bjrw::net::NetServerConfig ncfg;
  ncfg.port = port;
  bjrw::net::NetServer<bjrw::CohortWriterPriorityLock> net(server, ncfg);
  if (!net.ok()) {
    std::cerr << "kv_server: failed to listen on 127.0.0.1:" << port << "\n";
    return 1;
  }
  // std::endl, not "\n": scripts scrape the port from a redirected
  // stdout, which is fully buffered.
  std::cout << "kv_server: topology " << topo.describe() << " ("
            << topo.source() << "), listening on 127.0.0.1:" << net.port()
            << " (" << kPreload << " keys preloaded";
  if (admit_rate > 0.0)
    std::cout << "; admission " << admit_rate << " ops/s/node";
  if (server.expiry_enabled())
    std::cout << "; expiry wheel resolution "
              << static_cast<double>(expiry_resolution_ns) / 1e6 << " ms";
  std::cout << "; Ctrl-C to stop)" << std::endl;

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  while (!g_stop.load())
    std::this_thread::sleep_for(std::chrono::milliseconds(100));

  net.stop();      // drain in-flight latches first...
  server.shutdown();  // ...then join the worker pools
  std::cout << "\nkv_server: " << net.connections_accepted()
            << " connections, " << net.frames_dispatched() << " frames, "
            << net.protocol_errors() << " protocol errors\n\n";
  print_node_stats(server);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--listen") == 0) {
    // --expiry [resolution_ms] (default 1 ms) arms the lease subsystem;
    // it may appear anywhere after --listen.
    std::uint64_t expiry_ns = 0;
    int npos = argc;
    for (int i = 2; i < argc; ++i) {
      if (std::strcmp(argv[i], "--expiry") == 0) {
        const double ms = i + 1 < argc ? std::atof(argv[i + 1]) : 0.0;
        expiry_ns = static_cast<std::uint64_t>((ms > 0.0 ? ms : 1.0) * 1e6);
        npos = i;
        break;
      }
    }
    const long p = npos > 2 ? std::atol(argv[2]) : 0;
    // Optional per-node admission rate (ops/s): 0 disables the token
    // bucket.  Drive an overload run with ./kv_loadgen to watch sheds.
    const double rate = npos > 3 ? std::atof(argv[3]) : 0.0;
    return listen_mode(static_cast<std::uint16_t>(p), rate, expiry_ns);
  }
  const int clients = argc > 1 ? std::max(1, std::atoi(argv[1])) : 4;
  const int requests = argc > 2 ? std::max(1, std::atoi(argv[2])) : 2000;

  const bjrw::Topology topo = bjrw::Topology::detected();
  std::cout << "kv_server: topology " << topo.describe() << " ("
            << topo.source() << "), " << clients << " clients x " << requests
            << " ops\n";

  bjrw::serve::KvServer<bjrw::CohortWriterPriorityLock> server(
      topo, bjrw::serve::ServeConfig{}.with_workers(2));

  bjrw::ServeMixConfig scfg;  // 95% reads, zipfian theta 0.99
  for (std::uint64_t k = 0; k < kPreload; ++k)
    server.map().put(0, bjrw::scramble_rank(k, scfg.num_keys), k);

  std::vector<bjrw::ServeStream> streams;
  streams.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c)
    streams.emplace_back(scfg, static_cast<std::uint64_t>(c),
                         static_cast<std::size_t>(requests));

  bjrw::Stopwatch sw;
  std::atomic<std::uint64_t> hits{0};
  bjrw::run_threads(static_cast<std::size_t>(clients), [&](std::size_t c) {
    std::vector<std::uint64_t> batch;
    batch.reserve(kBatch);
    std::uint64_t local_hits = 0;
    for (int i = 0; i < requests; ++i) {
      const bjrw::ServeOp& op = streams[c].at(static_cast<std::size_t>(i));
      if (op.kind == bjrw::OpKind::kRead) {
        batch.push_back(op.key);
        if (batch.size() == kBatch) {
          local_hits += server.get_many(batch);
          batch.clear();
        }
      } else {
        server.put(op.key, static_cast<std::uint64_t>(i));
      }
    }
    if (!batch.empty()) local_hits += server.get_many(batch);
    hits.fetch_add(local_hits);
  });
  const double secs = sw.elapsed_s();
  // Quiesce before reading the stats stripes (server.hpp node_stats
  // contract: shutdown()'s join orders the workers' final writes).
  server.shutdown();

  std::cout << "served " << clients * requests << " ops in "
            << bjrw::Table::cell(secs, 2) << " s ("
            << bjrw::Table::cell(
                   static_cast<double>(clients) *
                       static_cast<double>(requests) / secs / 1e6,
                   3)
            << " Mops/s), " << hits.load() << " hits, "
            << server.pinned_workers() << "/"
            << server.node_count() * server.workers_per_node()
            << " workers pinned\n\n";

  print_node_stats(server);
  return 0;
}
