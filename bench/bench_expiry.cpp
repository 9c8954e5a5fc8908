// E22 (DESIGN.md §13): the lease/TTL expiry subsystem, measured — read
// latency under expiry storms, with the shard lock as the column:
//
//   off             the identical op mix with the TTL coin unarmed: no
//                   leases, no sweeps.  The read p50/p99 floor.
//   storm_batched   every put carries a ~2ms lease: the sweeper folds due
//                   leases into few compare-and-erase write epochs per
//                   node (expiry::kSweepBatch per batch).  The p99 gap
//                   against `off` prices the sweep's lock traffic, which
//                   is exactly what the per-shard reader-writer lock
//                   choice modulates: the writer-preference cohort lock
//                   lets the sweep's deletes barge ahead of the read
//                   flood, the phase-fair baseline alternates them.
//
// Arms share streams and seeds; the TTL coin draws from its own generator
// (workload.hpp), so the kind/key sequences are bit-identical across arms
// and the latency columns compare like against like.  The clock is the
// real steady clock — leases must actually fall due mid-run — so the
// lease counters are load-bearing, the latencies environment-sensitive.
#include <atomic>
#include <cstdint>
#include <iostream>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_common.hpp"
#include "src/baseline/phase_fair.hpp"
#include "src/core/locks.hpp"
#include "src/harness/table.hpp"
#include "src/harness/thread_coord.hpp"
#include "src/harness/timing.hpp"
#include "src/harness/topology.hpp"
#include "src/harness/workload.hpp"
#include "src/serve/request.hpp"
#include "src/serve/server.hpp"

namespace bjrw::bench {
namespace {

constexpr int kNodes = 2;
constexpr int kCpusPerNode = 4;
constexpr std::size_t kBatch = 8;
constexpr std::uint64_t kPreload = 1 << 13;
constexpr std::uint64_t kMs = 1'000'000;
constexpr std::uint64_t kStormTtlNs = 2 * kMs;
// Each arm replays its stream until this much wall time has passed: the
// storm only exists if the run outlives the leases it plants (a short
// --seconds smoke would otherwise shut down before the first deadline).
constexpr std::uint64_t kMinWallNs = 100 * kMs;

// The E18/E20/E21 idiom: the simulated cohort shape baked into the lock.
struct SimCohortWp2x4 : CohortMwWriterPrefLock<> {
  explicit SimCohortWp2x4(int n)
      : CohortMwWriterPrefLock<>(n,
                                 Topology::simulated(kNodes, kCpusPerNode)) {}
};

struct ArmResult {
  std::uint64_t ops = 0;
  std::uint64_t scheduled = 0, expired = 0, stale_skips = 0, batches = 0;
  double wall_s = 0.0;
  Summary read_lat;  // kGetBatch round trips only
};

// One arm over lock type L: a lease storm, or the same mix with expiry off.
template <class L>
ArmResult run_arm(BenchContext& ctx, bool storm) {
  serve::ServeConfig scfg = serve::ServeConfig{}.with_workers(2);
  if (storm) scfg.with_expiry(/*resolution_ns=*/1 * kMs);
  const Topology topo = Topology::simulated(kNodes, kCpusPerNode);
  serve::KvServer<L> server(topo, scfg);

  ServeMixConfig mix;
  mix.seed = ctx.params().seed;
  mix.read_fraction = 0.9;  // denser put stream than E21: leases are load
  if (storm) {
    mix.ttl_fraction = 1.0;  // every put leased: the storm
    mix.ttl_ns = kStormTtlNs;
  }
  for (std::uint64_t k = 0; k < kPreload; ++k)
    server.map().put(0, scramble_rank(k, mix.num_keys), k);

  const std::size_t clients = static_cast<std::size_t>(ctx.params().threads);
  const std::size_t per_client =
      static_cast<std::size_t>(ctx.scaled_iters(400));
  std::vector<ServeStream> streams;
  streams.reserve(clients);
  for (std::size_t c = 0; c < clients; ++c)
    streams.emplace_back(mix, static_cast<std::uint64_t>(c), per_client);

  std::atomic<std::uint64_t> ops{0};
  std::mutex mu;
  std::vector<double> read_lat;
  Stopwatch sw;
  run_threads(clients, [&](std::size_t c) {
    std::uint64_t my_ops = 0;
    std::vector<double> local;
    local.reserve(per_client);
    std::vector<std::uint64_t> batch;
    batch.reserve(kBatch);
    const auto roundtrip = [&](serve::Request& r, bool is_read,
                               std::uint64_t cost) {
      const std::uint64_t t0 = now_ns();
      if (server.submit(&r) != serve::AdmitResult::kAccepted) return;
      r.wait();
      my_ops += cost;
      if (is_read) local.push_back(static_cast<double>(now_ns() - t0));
    };
    const std::uint64_t start = now_ns();
    do {
      for (std::size_t i = 0; i < per_client; ++i) {
        const ServeOp& op = streams[c].at(i);
        if (op.kind == OpKind::kRead) {
          batch.push_back(op.key);
          if (batch.size() == kBatch) {
            serve::Request r;
            r.kind = serve::RequestKind::kGetBatch;
            r.keys = batch.data();
            r.key_count = static_cast<std::uint32_t>(batch.size());
            roundtrip(r, true, batch.size());
            batch.clear();
          }
        } else {
          serve::Request r;
          r.kind = serve::RequestKind::kPut;
          r.key = op.key;
          r.value = static_cast<std::uint64_t>(i);
          r.ttl_ns = op.ttl_ns;
          roundtrip(r, false, 1);
        }
      }
    } while (now_ns() - start < kMinWallNs);
    if (!batch.empty()) {
      serve::Request r;
      r.kind = serve::RequestKind::kGetBatch;
      r.keys = batch.data();
      r.key_count = static_cast<std::uint32_t>(batch.size());
      roundtrip(r, true, batch.size());
    }
    ops.fetch_add(my_ops);
    const std::lock_guard<std::mutex> g(mu);
    read_lat.insert(read_lat.end(), local.begin(), local.end());
  });
  ArmResult r;
  r.wall_s = sw.elapsed_s();
  server.shutdown();  // joins the pools; stats stripes are final
  for (int d = 0; d < server.node_count(); ++d) {
    const serve::NodeServeStats ns = server.node_stats(d);
    r.scheduled += ns.leases_scheduled;
    r.expired += ns.leases_expired;
    r.stale_skips += ns.lease_stale_skips;
    r.batches += ns.sweep_batches;
  }
  r.ops = ops.load();
  r.read_lat = summarize(std::move(read_lat));
  return r;
}

void report(BenchContext& ctx, Table& t, const std::string& name,
            const ArmResult& r) {
  const double mops = static_cast<double>(r.ops) / r.wall_s / 1e6;
  t.add_row({name, Table::cell(mops, 3), Table::cell(r.read_lat.p50 / 1e3, 1),
             Table::cell(r.read_lat.p99 / 1e3, 1),
             std::to_string(r.scheduled), std::to_string(r.expired),
             std::to_string(r.stale_skips), std::to_string(r.batches)});
  ctx.row(name)
      .metric("threads", ctx.params().threads)
      .metric("mops_per_s", mops)
      .metric("read_p50_us", r.read_lat.p50 / 1e3)
      .metric("read_p99_us", r.read_lat.p99 / 1e3)
      .metric("leases_scheduled", static_cast<double>(r.scheduled))
      .metric("expired", static_cast<double>(r.expired))
      .metric("stale_skips", static_cast<double>(r.stale_skips))
      .metric("sweep_batches", static_cast<double>(r.batches));
}

template <class L>
void column(BenchContext& ctx, Table& t, const std::string& lock) {
  report(ctx, t, "expiry/" + lock + "/off", run_arm<L>(ctx, false));
  report(ctx, t, "expiry/" + lock + "/storm_batched", run_arm<L>(ctx, true));
}

void run(BenchContext& ctx) {
  std::cout << "E22: read latency under lease expiry storms x shard-lock "
               "discipline\n"
            << ctx.params().threads << " clients x " << ctx.scaled_iters(400)
            << " mixed ops each (90/10 zipfian, get_many batch " << kBatch
            << "), simulated " << kNodes << "x" << kCpusPerNode
            << " topology.\nStorm arms lease every put for "
            << static_cast<double>(kStormTtlNs) / 1e6
            << " ms; wheel resolution 1 ms.\n\n";
  Table t({"arm", "mops_per_s", "read_p50_us", "read_p99_us", "scheduled",
           "expired", "stale_skips", "sweep_batches"});
  column<SimCohortWp2x4>(ctx, t, "cohort_wp");
  column<PhaseFairRwLock<>>(ctx, t, "phase_fair");
  t.print(std::cout);
}

BJRW_BENCH("expiry",
           "E22: lease/TTL expiry storms — batched sweeps over "
           "writer-preference cohort and phase-fair shard locks",
           run);

}  // namespace
}  // namespace bjrw::bench
