// E18 (DESIGN.md §8/§9): the serving runtime end to end — zipfian batched
// traffic through KvServer's submit/complete pipeline, with the three
// levers the runtime was built around as experimental variables:
//
//   * placement: node-local dispatch+allocation (each batch slice executes
//     on the owning node's pinned pool, against first-touched sub-maps) vs.
//     node-oblivious (identical slices, identical batching, round-robin
//     pools and caller-thread allocation) — simulated 1/2/4-node shapes;
//   * handoff budget: the cohort locks' fixed intra-node handoff budget on
//     the mixed 70/30 mix, where batching taxes readers — the handoff rate
//     and reader-preemption aborts show how often batches form and how
//     often a waiting reader cuts them short;
//   * pinning: worker pools with and without Topology::pin_this_thread
//     (on hosts narrower than the simulated shape pinning degrades to a
//     recorded no-op — the `pinned_workers` metric says what really ran).
//
// Every row runs the one worker shape: up to serve::kBurst slices per
// claim, batched-get keys grouped into one lock epoch per shard group
// (DESIGN.md §11).
//
// Reported per row: request throughput, client-side end-to-end latency
// percentiles (queue wait included), the cohort counters (handoffs,
// global acquires, reader-preemption aborts) summed over every shard lock,
// and the realized mean claim depth.
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
#include "src/serve/server.hpp"

namespace bjrw::bench {
namespace {

constexpr std::size_t kBatch = 8;            // reads per get_many flush
constexpr std::uint64_t kPreload = 1 << 13;  // keys preloaded before traffic

// Per-shard cohort locks whose internal topology matches the simulated
// shape the row runs on (the cohort_test idiom: ShardedMap constructs
// Lock(max_threads), so the shape is baked into the type).
template <int N, int C>
struct SimCohortWp : CohortMwWriterPrefLock<> {
  explicit SimCohortWp(int n)
      : CohortMwWriterPrefLock<>(n, Topology::simulated(N, C)) {}
};
template <int N, int C>
struct SimCohortSf : CohortMwStarvationFreeLock<> {
  explicit SimCohortSf(int n)
      : CohortMwStarvationFreeLock<>(n, Topology::simulated(N, C)) {}
};
// Policy column (DESIGN.md §2): the same cohort shard locks with the
// hot-path ordering policy honored.
template <int N, int C>
struct SimHotCohortWp : CohortMwWriterPrefLock<HotPathProvider> {
  explicit SimHotCohortWp(int n)
      : CohortMwWriterPrefLock<HotPathProvider>(n, Topology::simulated(N, C)) {
  }
};

struct RowOpts {
  std::string name;
  int nodes = 1;
  int cpus_per_node = 8;
  double read_fraction = 0.95;
  bool node_local = true;  // dispatch + allocation arm
  bool pin = true;
  // Shards per node: the placement rows spread contention the serving way
  // (many shards); the budget rows funnel each node through ONE shard so
  // the per-lock cohort dynamics (handoff batches, reader preemption) are
  // actually reached instead of being diluted across locks.
  std::size_t shards_per_node = 8;
  // Writes pipelined per client before joining: 1 = synchronous round
  // trips; >1 keeps several puts in the owning node's queue at once, so
  // node-mate workers actually overlap on the shard lock's cohort ticket
  // (required for handoff/preemption dynamics to be reachable at all on
  // oversubscribed hosts).
  int write_burst = 1;
};

template <class Lock>
void runtime_row(BenchContext& ctx, Table& t, const RowOpts& o) {
  const int clients = ctx.params().threads;
  const int ops_per_client = ctx.scaled_iters(800);
  const Topology topo = Topology::simulated(o.nodes, o.cpus_per_node);

  const serve::ServeConfig cfg = serve::ServeConfig{}
                                     .with_shards(o.shards_per_node)
                                     .with_workers(2)
                                     .with_pin(o.pin)
                                     .with_dispatch(o.node_local)
                                     .with_alloc(o.node_local);
  serve::KvServer<Lock> server(topo, cfg);

  ServeMixConfig scfg;
  scfg.read_fraction = o.read_fraction;
  scfg.seed = ctx.params().seed;
  std::vector<ServeStream> streams;
  streams.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c)
    streams.emplace_back(scfg, static_cast<std::uint64_t>(c),
                         static_cast<std::size_t>(ops_per_client));

  // Preload before traffic: direct map access is safe while no requests
  // are in flight (tid 0 is otherwise a worker tid).
  for (std::uint64_t k = 0; k < kPreload; ++k)
    server.map().put(0, scramble_rank(k, scfg.num_keys), k);

  std::atomic<std::uint64_t> ops_done{0};
  std::atomic<std::uint64_t> sink{0};
  std::mutex samples_mu;
  std::vector<double> latencies;  // per client request, end-to-end ns
  Stopwatch sw;
  run_threads(static_cast<std::size_t>(clients), [&](std::size_t c) {
    const ServeStream& stream = streams[c];
    std::vector<std::uint64_t> batch;
    std::vector<double> local_lat;
    batch.reserve(kBatch);
    local_lat.reserve(static_cast<std::size_t>(ops_per_client));
    std::vector<std::unique_ptr<serve::Request>> writes;
    for (int b = 0; b < o.write_burst; ++b)
      writes.push_back(std::make_unique<serve::Request>());
    std::size_t in_flight = 0;
    std::uint64_t writes_t0 = 0;  // first submit of the open write burst
    std::uint64_t done = 0, checksum = 0;
    const auto flush_reads = [&] {
      const std::uint64_t t0 = now_ns();
      checksum += server.get_many(batch);
      local_lat.push_back(static_cast<double>(now_ns() - t0));
      done += batch.size();
      batch.clear();
    };
    const auto flush_writes = [&] {
      for (std::size_t b = 0; b < in_flight; ++b) writes[b]->wait();
      local_lat.push_back(static_cast<double>(now_ns() - writes_t0));
      done += in_flight;
      in_flight = 0;
    };
    for (int i = 0; i < ops_per_client; ++i) {
      const ServeOp& op = stream.at(static_cast<std::size_t>(i));
      if (op.kind == OpKind::kRead) {
        batch.push_back(op.key);
        if (batch.size() == kBatch) flush_reads();
      } else if (o.write_burst <= 1) {
        const std::uint64_t t0 = now_ns();
        server.put(op.key, static_cast<std::uint64_t>(i));
        local_lat.push_back(static_cast<double>(now_ns() - t0));
        ++done;
      } else {
        // Pipelined writes: submit async, join the burst when it fills.
        if (in_flight == 0) writes_t0 = now_ns();
        serve::Request& r = *writes[in_flight];
        r.reset();
        r.kind = serve::RequestKind::kPut;
        r.key = op.key;
        r.value = static_cast<std::uint64_t>(i);
        server.submit(&r);
        if (++in_flight == static_cast<std::size_t>(o.write_burst))
          flush_writes();
      }
    }
    if (!batch.empty()) flush_reads();
    if (in_flight != 0) flush_writes();
    ops_done.fetch_add(done);
    sink.fetch_add(checksum);
    const std::lock_guard<std::mutex> g(samples_mu);
    latencies.insert(latencies.end(), local_lat.begin(), local_lat.end());
  });
  const double secs = sw.elapsed_s();
  const double mops =
      static_cast<double>(ops_done.load()) / secs / 1e6;

  const int pinned = server.pinned_workers();
  server.shutdown();  // stats stripes are exact once the workers joined
  serve::NodeServeStats total;
  for (int d = 0; d < server.node_count(); ++d) {
    const serve::NodeServeStats ns = server.node_stats(d);
    total.sub_requests += ns.sub_requests;
    total.ops += ns.ops;
    total.backpressure += ns.backpressure;
    total.handoffs += ns.handoffs;
    total.global_acquires += ns.global_acquires;
    total.preempt_aborts += ns.preempt_aborts;
    total.bursts += ns.bursts;
    total.group_gathers += ns.group_gathers;
  }

  const Summary lat = summarize(std::move(latencies));
  // Realized mean claim depth: slices executed per bulk claim.  Reaches
  // serve::kBurst only when the queue actually runs deep; near-idle rows
  // report ~1.
  const double mean_burst =
      total.bursts > 0
          ? static_cast<double>(total.sub_requests) /
                static_cast<double>(total.bursts)
          : 0.0;
  const double turns =
      static_cast<double>(total.handoffs + total.global_acquires);
  const double handoff_rate =
      turns > 0.0 ? static_cast<double>(total.handoffs) / turns : 0.0;

  t.add_row({o.name, std::to_string(o.nodes),
             Table::cell(o.read_fraction),
             Table::cell(mops, 3), Table::cell(lat.p50 / 1e3, 1),
             Table::cell(lat.p99 / 1e3, 1), Table::cell(handoff_rate, 3),
             std::to_string(total.preempt_aborts), std::to_string(pinned)});
  ctx.row(o.name)
      .metric("nodes", o.nodes)
      .metric("read_fraction", o.read_fraction)
      .metric("threads", clients)
      .metric("mops_per_s", mops)
      .metric("lat_p50_us", lat.p50 / 1e3)
      .metric("lat_p99_us", lat.p99 / 1e3)
      .metric("handoffs", static_cast<double>(total.handoffs))
      .metric("global_acquires", static_cast<double>(total.global_acquires))
      .metric("preempt_aborts", static_cast<double>(total.preempt_aborts))
      .metric("backpressure", static_cast<double>(total.backpressure))
      .metric("bursts", static_cast<double>(total.bursts))
      .metric("group_gathers", static_cast<double>(total.group_gathers))
      .metric("mean_burst_depth", mean_burst)
      .metric("pinned_workers", pinned);
}

void run(BenchContext& ctx) {
  std::cout
      << "E18: NUMA-aware KV serving runtime (" << ctx.params().threads
      << " client threads, 2 workers/node, get_many batch " << kBatch
      << ")\n"
      << "Arms: node-local vs oblivious placement (1/2/4-node sims), cohort\n"
      << "handoff budget (70/30 mix), pinned vs unpinned pools.\n"
      << "Latencies are client-side end-to-end (queue wait included).\n\n";
  Table t({"config", "nodes", "read_ratio", "mops_per_s", "p50_us", "p99_us",
           "handoff_rate", "preempts", "pinned"});

  // Placement: local vs oblivious across simulated shapes (constant total
  // width, so rows differ by boundary count, not core count).
  runtime_row<SimCohortWp<1, 8>>(
      ctx, t, {"place/local/1x8", 1, 8, 0.95, true, true});
  runtime_row<SimCohortWp<2, 4>>(
      ctx, t, {"place/local/2x4", 2, 4, 0.95, true, true});
  runtime_row<SimCohortWp<2, 4>>(
      ctx, t, {"place/oblivious/2x4", 2, 4, 0.95, false, true});
  runtime_row<SimHotCohortWp<2, 4>>(
      ctx, t, {"place/local/2x4/hot", 2, 4, 0.95, true, true});
  runtime_row<SimCohortWp<4, 2>>(
      ctx, t, {"place/local/4x2", 4, 2, 0.95, true, true});
  runtime_row<SimCohortWp<4, 2>>(
      ctx, t, {"place/oblivious/4x2", 4, 2, 0.95, false, true});

  // Handoff budget under the mixed write-heavy mix, one shard per node so
  // the cohort layer sees the contention: handoff_rate and preempts show
  // how the fixed budget batches writers and how often a diverted reader
  // cuts a batch short.  The wrapped regime is starvation-free (reader
  // preemption enabled; WP disables it).
  runtime_row<SimCohortSf<2, 4>>(
      ctx, t, {"budget/fixed/2x4", 2, 4, 0.70, true, true, 1, 8});

  // Pinning: the same node-local row with pools left unpinned.
  runtime_row<SimCohortWp<2, 4>>(
      ctx, t, {"pin/off/2x4", 2, 4, 0.95, true, false});

  t.print(std::cout);
}

BJRW_BENCH("serve_runtime",
           "E18: NUMA-aware KV serving runtime — placement, cohort "
           "handoff budget, pinned worker pools over simulated topologies",
           run);

}  // namespace
}  // namespace bjrw::bench
