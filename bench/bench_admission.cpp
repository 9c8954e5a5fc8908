// E21 (DESIGN.md §12): elastic worker pools + admission control, measured —
// the same zipfian get_many/put mix driven synchronously at KvServer's
// submit edge under three offered-load regimes:
//
//   trickle      paced arrivals (one request per client per ~200us): the
//                regime elasticity exists for.  The elastic arm parks its
//                spare width between arrivals (parks/wakes columns) while
//                the fixed arm keeps every spinner hot; the p99 gap between
//                the arms prices the wake-from-futex latency.
//   flood        every client submits as fast as the sync round trip
//                allows, admission off: the elastic arm should track the
//                fixed arm's throughput (workers stay awake under load —
//                elasticity costs nothing when there is no idleness).
//   flood+admit  the same flood against a per-node token bucket sized well
//                below the offered rate: accepted throughput pins near the
//                configured ceiling and the overflow sheds (shed column)
//                instead of queueing into latency.
//
// Arms differ ONLY in [min_width, max_width] — elastic floats 1..4, fixed
// pins 4..4 — over the same simulated 2x4 topology, streams, and seeds.
#include <atomic>
#include <cstdint>
#include <iostream>
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
#include "src/serve/request.hpp"
#include "src/serve/server.hpp"

namespace bjrw::bench {
namespace {

constexpr int kNodes = 2;
constexpr int kCpusPerNode = 4;
constexpr std::size_t kBatch = 8;
constexpr std::uint64_t kPreload = 1 << 13;
constexpr std::uint64_t kTrickleGapNs = 200'000;  // per client per request

// The E18 idiom: the simulated cohort shape is baked into the lock type.
struct SimCohortWp2x4 : CohortMwWriterPrefLock<> {
  explicit SimCohortWp2x4(int n)
      : CohortMwWriterPrefLock<>(n,
                                 Topology::simulated(kNodes, kCpusPerNode)) {}
};

using Server = serve::KvServer<SimCohortWp2x4>;

serve::ServeConfig arm_config(bool elastic) {
  // A short grace period so the trickle regime actually parks inside its
  // inter-arrival gaps; admission is layered on per row below.
  return serve::ServeConfig{}
      .with_widths(elastic ? 1 : 4, 4)
      .with_pin(false)
      .with_park(20'000);
}

struct ArmResult {
  std::uint64_t requests = 0;  // offered wire-level requests
  std::uint64_t accepted = 0, shed = 0, deferred = 0;
  std::uint64_t ops = 0;  // keys admitted (accepted requests only)
  std::uint64_t parks = 0, wakes = 0;
  double wall_s = 0.0;
  Summary lat;  // accepted requests: submit -> latch release
};

ArmResult run_arm(BenchContext& ctx, const serve::ServeConfig& scfg,
                  std::uint64_t gap_ns) {
  const Topology topo = Topology::simulated(kNodes, kCpusPerNode);
  Server server(topo, scfg);
  ServeMixConfig mix;
  mix.seed = ctx.params().seed;
  for (std::uint64_t k = 0; k < kPreload; ++k)
    server.map().put(0, scramble_rank(k, mix.num_keys), k);

  const std::size_t clients =
      static_cast<std::size_t>(ctx.params().threads);
  const std::size_t per_client =
      static_cast<std::size_t>(ctx.scaled_iters(400));
  std::vector<ServeStream> streams;
  streams.reserve(clients);
  for (std::size_t c = 0; c < clients; ++c)
    streams.emplace_back(mix, static_cast<std::uint64_t>(c), per_client);

  std::atomic<std::uint64_t> requests{0}, accepted{0}, shed{0}, deferred{0},
      ops{0};
  std::mutex mu;
  std::vector<double> latencies;
  Stopwatch sw;
  run_threads(clients, [&](std::size_t c) {
    std::uint64_t my_req = 0, my_acc = 0, my_shed = 0, my_def = 0, my_ops = 0;
    std::vector<double> local;
    local.reserve(per_client);
    std::vector<std::uint64_t> batch;
    batch.reserve(kBatch);
    const auto pace = [&] {
      if (gap_ns == 0) return;
      const std::uint64_t t0 = now_ns();
      while (now_ns() - t0 < gap_ns) YieldSpin::relax();
    };
    const auto roundtrip = [&](serve::Request& r, std::uint64_t cost) {
      ++my_req;
      const std::uint64_t t0 = now_ns();
      switch (server.submit(&r)) {
        case serve::AdmitResult::kAccepted:
          r.wait();
          ++my_acc;
          my_ops += cost;
          local.push_back(static_cast<double>(now_ns() - t0));
          break;
        case serve::AdmitResult::kShedOverload:
          ++my_shed;
          break;
        case serve::AdmitResult::kQueueFull:
          ++my_def;
          break;
        case serve::AdmitResult::kDeadlineExceeded:
          break;  // unreachable: these arms send no deadlines
        case serve::AdmitResult::kShutdown:
          break;  // unreachable: the pool outlives the drivers
      }
      pace();
    };
    for (std::size_t i = 0; i < per_client; ++i) {
      const ServeOp& op = streams[c].at(i);
      if (op.kind == OpKind::kRead) {
        batch.push_back(op.key);
        if (batch.size() == kBatch) {
          serve::Request r;
          r.kind = serve::RequestKind::kGetBatch;
          r.keys = batch.data();
          r.key_count = static_cast<std::uint32_t>(batch.size());
          roundtrip(r, batch.size());
          batch.clear();
        }
      } else {
        serve::Request r;
        r.kind = serve::RequestKind::kPut;
        r.key = op.key;
        r.value = static_cast<std::uint64_t>(i);
        roundtrip(r, 1);
      }
    }
    if (!batch.empty()) {
      serve::Request r;
      r.kind = serve::RequestKind::kGetBatch;
      r.keys = batch.data();
      r.key_count = static_cast<std::uint32_t>(batch.size());
      roundtrip(r, batch.size());
    }
    requests.fetch_add(my_req);
    accepted.fetch_add(my_acc);
    shed.fetch_add(my_shed);
    deferred.fetch_add(my_def);
    ops.fetch_add(my_ops);
    const std::lock_guard<std::mutex> g(mu);
    latencies.insert(latencies.end(), local.begin(), local.end());
  });
  ArmResult r;
  r.wall_s = sw.elapsed_s();
  server.shutdown();  // joins the pools; stats stripes are final
  for (int d = 0; d < server.node_count(); ++d) {
    const serve::NodeServeStats ns = server.node_stats(d);
    r.parks += ns.parks;
    r.wakes += ns.wakes;
  }
  r.requests = requests.load();
  r.accepted = accepted.load();
  r.shed = shed.load();
  r.deferred = deferred.load();
  r.ops = ops.load();
  r.lat = summarize(std::move(latencies));
  return r;
}

void report(BenchContext& ctx, Table& t, const std::string& name,
            const ArmResult& r) {
  const double mops = static_cast<double>(r.ops) / r.wall_s / 1e6;
  const double shed_rate =
      r.requests ? static_cast<double>(r.shed + r.deferred) /
                       static_cast<double>(r.requests)
                 : 0.0;
  t.add_row({name, std::to_string(r.requests), std::to_string(r.accepted),
             std::to_string(r.shed), std::to_string(r.deferred),
             Table::cell(mops, 3), Table::cell(r.lat.p50 / 1e3, 1),
             Table::cell(r.lat.p99 / 1e3, 1), std::to_string(r.parks),
             std::to_string(r.wakes)});
  ctx.row(name)
      .metric("threads", ctx.params().threads)
      .metric("requests", static_cast<double>(r.requests))
      .metric("accepted", static_cast<double>(r.accepted))
      .metric("shed", static_cast<double>(r.shed))
      .metric("deferred", static_cast<double>(r.deferred))
      .metric("shed_rate", shed_rate)
      .metric("mops_per_s", mops)
      .metric("lat_p50_us", r.lat.p50 / 1e3)
      .metric("lat_p99_us", r.lat.p99 / 1e3)
      .metric("parks", static_cast<double>(r.parks))
      .metric("wakes", static_cast<double>(r.wakes));
}

void run(BenchContext& ctx) {
  std::cout << "E21: elastic width [1,4] vs fixed width 4 under trickle / "
               "flood / flood+admit\n"
            << ctx.params().threads << " clients x "
            << ctx.scaled_iters(400) << " mixed ops each (95/5 zipfian, "
            << "get_many batch " << kBatch << "), simulated " << kNodes
            << "x" << kCpusPerNode << " topology.\n"
               "trickle paces one request per client per "
            << kTrickleGapNs / 1000
            << "us; flood+admit arms a 100k ops/s/node token bucket.\n\n";
  Table t({"arm", "requests", "accepted", "shed", "deferred", "mops_per_s",
           "p50_us", "p99_us", "parks", "wakes"});

  report(ctx, t, "admission/elastic/trickle",
         run_arm(ctx, arm_config(true), kTrickleGapNs));
  report(ctx, t, "admission/fixed/trickle",
         run_arm(ctx, arm_config(false), kTrickleGapNs));

  report(ctx, t, "admission/elastic/flood",
         run_arm(ctx, arm_config(true), 0));
  report(ctx, t, "admission/fixed/flood",
         run_arm(ctx, arm_config(false), 0));

  report(ctx, t, "admission/elastic/flood+admit",
         run_arm(ctx, arm_config(true).with_admission(100'000.0), 0));
  report(ctx, t, "admission/fixed/flood+admit",
         run_arm(ctx, arm_config(false).with_admission(100'000.0), 0));

  t.print(std::cout);
}

BJRW_BENCH("admission",
           "E21: elastic [1,4] vs fixed-width worker pools under trickle, "
           "flood, and admission-controlled flood offered loads",
           run);

}  // namespace
}  // namespace bjrw::bench
