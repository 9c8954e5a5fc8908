// Repository benchmark: one serving workload through the whole bjrw stack —
// KvClient -> loopback TCP -> NetServer -> KvServer -> NumaShardedMap ->
// ShardedMap -> cohort lock over the paper's writer-priority lock.
//
//   serve_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//              [--out <dir>]
//
// --trace 0 measures the end-to-end metrics: a closed-loop load generator
// (one thread, a fixed number of connections, each holding a fixed number of
// requests in flight) drives the pre-generated request stream for --seconds,
// split into equal windows; throughput and latency percentiles are taken per
// window and reported at the fast-side quartile of the windows.  Set-up
// (server start, preload, listener, client connects) is repeated and its
// median reported.
//
// --trace 1 measures the per-layer metrics: the layer ladder plays one
// request list through each rung of the stack in turn from one thread (the
// gap between adjacent rungs is that layer's cost), then a traced run of the
// workload records client-side stage spans per request and writes them to
// <out>/spans-<workload>-<seed>.csv.
//
// Every response is checked: values carry their key and the identity of the
// put that wrote them, so a read must return its own key, and the put it
// names must exist in the stream and target that key; keys outside the
// preloaded range must read absent.  After the run every preloaded key is
// read back and checked again, and a key whose put was acknowledged must no
// longer hold its preload value.
//
// The last stdout line is one JSON object:
//   {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}
#include <sys/stat.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/core/locks.hpp"
#include "src/extras/sharded_map.hpp"
#include "src/harness/topology.hpp"
#include "src/net/client.hpp"
#include "src/net/net_server.hpp"
#include "src/serve/placement.hpp"
#include "src/serve/server.hpp"

namespace {

using bjrw::Topology;
namespace net = bjrw::net;
namespace serve = bjrw::serve;

// ---- stack shape -------------------------------------------------------------

// A simulated two-node machine, so every request takes the multi-node
// routing and dispatch paths whatever host runs the benchmark.
constexpr int kNodes = 2;
constexpr int kCpusPerNode = 2;
constexpr int kThreads = kNodes * kCpusPerNode;
constexpr std::size_t kShardsPerNode = 8;

Topology bench_topology() { return Topology::simulated(kNodes, kCpusPerNode); }

// Shard lock whose cohort topology matches the simulated shape.
struct BenchLock : bjrw::CohortWriterPriorityLock {
  explicit BenchLock(int n)
      : bjrw::CohortWriterPriorityLock(n, bench_topology()) {}
};

using Server = serve::KvServer<BenchLock>;
using Front = net::NetServer<BenchLock>;
using FlatMap = bjrw::ShardedMap<std::uint64_t, std::uint64_t, BenchLock>;
using NumaMap = serve::NumaShardedMap<std::uint64_t, std::uint64_t, BenchLock>;

std::uint64_t clock_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// ---- workloads ---------------------------------------------------------------

struct Workload {
  const char* name;
  double read_fraction;     // gets vs puts
  std::uint32_t batch;      // keys per get (1 = point get)
  double zipf_theta;        // key popularity skew; 0 = uniform
  std::uint64_t loaded;     // keys [0, loaded) preloaded; puts stay inside
  std::uint64_t read_span;  // gets draw keys from [0, read_span)
  int connections;
  int depth;                // requests in flight per connection
};

constexpr Workload kWorkloads[] = {
    // Read-mostly batched gets over skewed keys, one request in flight per
    // connection: hot keys repeat inside a batch (get_many dedup), and each
    // batch splits across both nodes and rejoins (shared read sections of
    // the paper lock on every shard it touches).
    {"read_batch", 0.95, 8, 0.99, 1u << 16, 1u << 16, 4, 1},
    // Half puts on the same skewed keys: every other request takes a shard
    // write lock, mostly on the few hot shards.  One request in flight per
    // connection, like the others: with the server saturated (eight in
    // flight) its tail latency spread 0.36 of its median across seeds on a
    // shared 4-vCPU host, too wide to gate on.
    {"write_mix", 0.50, 1, 0.99, 1u << 16, 1u << 16, 4, 1},
    // Uniform point gets, half of them for absent keys, one request in
    // flight per connection: no key reuse, a working set four times the
    // others, and every request pays the full round trip.
    {"point_miss", 0.90, 1, 0.0, 1u << 18, 1u << 19, 4, 1},
};

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads)
    if (name == w.name) return &w;
  return nullptr;
}

// ---- deterministic inputs ------------------------------------------------------

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  double uniform01() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t s_;
};

// Zipfian rank sampler (Gray et al., the YCSB construction); rank 0 is the
// most popular.  theta == 0 degenerates to uniform.
class Zipf {
 public:
  Zipf(std::uint64_t n, double theta) : n_(n), theta_(theta) {
    if (theta_ <= 0.0) return;
    double zetan = 0.0;
    for (std::uint64_t i = 1; i <= n_; ++i)
      zetan += 1.0 / std::pow(static_cast<double>(i), theta_);
    const double zeta2 = 1.0 + 1.0 / std::pow(2.0, theta_);
    zetan_ = zetan;
    alpha_ = 1.0 / (1.0 - theta_);
    eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n_), 1.0 - theta_)) /
           (1.0 - zeta2 / zetan_);
    half_pow_ = std::pow(0.5, theta_);
  }

  std::uint64_t draw(Rng& rng) const {
    const double u = rng.uniform01();
    if (theta_ <= 0.0)
      return std::min(n_ - 1, static_cast<std::uint64_t>(
                                  u * static_cast<double>(n_)));
    const double uz = u * zetan_;
    if (uz < 1.0) return 0;
    if (uz < 1.0 + half_pow_) return 1;
    const auto r = static_cast<std::uint64_t>(
        static_cast<double>(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
    return std::min(r, n_ - 1);
  }

 private:
  std::uint64_t n_;
  double theta_;
  double zetan_ = 1.0, alpha_ = 1.0, eta_ = 0.0, half_pow_ = 0.5;
};

// Ranks map to keys through an odd-multiplier permutation of the
// power-of-two range, so popular keys scatter over shards and nodes.
std::uint64_t rank_to_key(std::uint64_t rank, std::uint64_t span) {
  return (rank * 0x9E3779B97F4A7C15ULL) & (span - 1);
}

// Values name their key and the put that wrote them:
//   value = tag << kKeyBits | key,  tag = (stream + 1) << kSeqBits | seq.
// Preloaded values carry tag 0.
constexpr int kKeyBits = 20;
constexpr int kSeqBits = 36;
constexpr std::uint64_t kKeyMask = (1ULL << kKeyBits) - 1;
constexpr std::uint64_t kSeqMask = (1ULL << kSeqBits) - 1;

std::uint64_t put_value(std::uint64_t key, std::size_t stream,
                        std::uint64_t seq) {
  const std::uint64_t tag =
      (static_cast<std::uint64_t>(stream + 1) << kSeqBits) | (seq & kSeqMask);
  return (tag << kKeyBits) | key;
}

struct Op {
  bool put = false;
  std::uint32_t first = 0;  // get: offset into Stream::keys
  std::uint32_t count = 0;  // get: keys; put: 0
  std::uint64_t key = 0;    // put target
};

// One connection's request list, replayed cyclically: request `seq` is
// ops[seq % size].
struct Stream {
  std::vector<Op> ops;
  std::vector<std::uint64_t> keys;

  const Op& at(std::uint64_t seq) const { return ops[seq % ops.size()]; }
  const std::uint64_t* keys_of(const Op& op) const {
    return keys.data() + op.first;
  }
};

constexpr std::size_t kStreamOps = 1u << 15;

std::vector<Stream> make_streams(const Workload& w, std::uint64_t seed) {
  const Zipf read_keys(w.read_span, w.zipf_theta);
  const Zipf put_keys(w.loaded, w.zipf_theta);
  std::vector<Stream> streams(static_cast<std::size_t>(w.connections));
  for (std::size_t c = 0; c < streams.size(); ++c) {
    Rng rng(seed * 0x100000001B3ULL + c * 0x9E3779B97F4A7C15ULL + 1);
    Stream& s = streams[c];
    s.ops.reserve(kStreamOps);
    for (std::size_t i = 0; i < kStreamOps; ++i) {
      Op op;
      if (rng.uniform01() >= w.read_fraction) {
        op.put = true;
        op.key = rank_to_key(put_keys.draw(rng), w.loaded);
      } else {
        op.first = static_cast<std::uint32_t>(s.keys.size());
        op.count = w.batch;
        for (std::uint32_t k = 0; k < w.batch; ++k)
          s.keys.push_back(rank_to_key(read_keys.draw(rng), w.read_span));
      }
      s.ops.push_back(op);
    }
  }
  return streams;
}

// ---- correctness -------------------------------------------------------------

struct Checker {
  const Workload& w;
  const std::vector<Stream>& streams;

  // Whether `v` is a legal result of reading `key` at any time.
  bool read_ok(std::uint64_t key, const std::optional<std::uint64_t>& v) const {
    if (key >= w.loaded) return !v.has_value();
    if (!v || (*v & kKeyMask) != key) return false;
    const std::uint64_t tag = *v >> kKeyBits;
    if (tag == 0) return true;
    const std::uint64_t s = (tag >> kSeqBits) - 1;
    if (s >= streams.size()) return false;
    const Op& op = streams[s].at(tag & kSeqMask);
    return op.put && op.key == key;
  }
};

// ---- the stack -----------------------------------------------------------------

net::ClientConfig client_config() {
  net::ClientConfig cfg;
  cfg.op_timeout_ms = 20'000;  // a hung server fails the run, never wedges it
  cfg.retry.max_attempts = 1;
  cfg.retry.reconnect = false;
  return cfg;
}

// Member order is teardown order in reverse: clients close first, then the
// front-end drains, then the server's pools stop.
struct Stack {
  std::unique_ptr<Server> server;
  std::unique_ptr<Front> front;
  std::vector<net::KvClient> clients;
};

struct SetupTimes {
  double server_s = 0, preload_s = 0, connect_s = 0;
  double total() const { return server_s + preload_s + connect_s; }
};

// Every busy thread gets a CPU of its own, so the scheduler cannot stack two
// of them on one CPU (left alone, the listener thread wanders onto the load
// generator's).  The pools pin one worker to the first CPU of each node (0
// and 2); the listener thread inherits its creator's CPU mask, so it is
// started from CPU 3, and the calling thread, which goes on to generate
// load, stays on CPU 1.  Best effort: a host narrower than the simulated
// machine runs unpinned.
constexpr int kListenerCpu = 3;
constexpr int kLoadCpu = 1;

void pin_calling_thread(int cpu) { (void)bench_topology().pin_this_thread(cpu); }

std::unique_ptr<Stack> build_stack(const Workload& w, SetupTimes* times) {
  auto st = std::make_unique<Stack>();
  const std::uint64_t t0 = clock_ns();
  st->server = std::make_unique<Server>(
      bench_topology(), serve::ServeConfig{}
                            .with_shards(kShardsPerNode)
                            .with_workers(1));
  const std::uint64_t t1 = clock_ns();
  for (std::uint64_t k = 0; k < w.loaded; ++k) st->server->map().put(0, k, k);
  const std::uint64_t t2 = clock_ns();
  pin_calling_thread(kListenerCpu);
  st->front = std::make_unique<Front>(*st->server);
  pin_calling_thread(kLoadCpu);
  if (!st->front->ok()) throw std::runtime_error("listener failed to start");
  for (int c = 0; c < w.connections; ++c) {
    auto cl = net::KvClient::connect(st->front->port(), client_config());
    if (!cl) throw std::runtime_error("client failed to connect");
    st->clients.push_back(std::move(*cl));
  }
  const std::uint64_t t3 = clock_ns();
  times->server_s = static_cast<double>(t1 - t0) * 1e-9;
  times->preload_s = static_cast<double>(t2 - t1) * 1e-9;
  times->connect_s = static_cast<double>(t3 - t2) * 1e-9;
  return st;
}

// ---- statistics ----------------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Other tenants of the host only ever slow a window down, for seconds at a
// time, so a per-window figure is reported at its quartile on the fast side:
// the upper quartile of throughput, the lower quartile of latency.  Up to
// three quarters of the windows may be disturbed without moving it.
double fast_quartile(std::vector<double> v, bool higher_better) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t q = (v.size() - 1) / 4;
  return higher_better ? v[v.size() - 1 - q] : v[q];
}

// Nearest-rank percentile of an unsorted sample (reorders it).
double percentile(std::vector<std::uint64_t>& v, double p) {
  if (v.empty()) return 0.0;
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  rank = std::clamp<std::size_t>(rank, 1, v.size()) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank),
                   v.end());
  return static_cast<double>(v[rank]);
}

struct Tally {
  std::uint64_t attempted = 0, failed = 0, wrong = 0;
  void add(const Tally& o) {
    attempted += o.attempted;
    failed += o.failed;
    wrong += o.wrong;
  }
};

// Checks one response against the request that caused it; false = failed.
bool check_response(const Checker& chk, const Stream& s, const Op& op,
                    const net::Response& r, Tally& t) {
  if (r.status != net::WireStatus::kOk) return false;
  if (op.put) return r.type == net::MsgType::kPutResp;
  const std::uint64_t* keys = s.keys_of(op);
  if (op.count == 1) {
    if (r.type != net::MsgType::kGetResp) return false;
    const std::optional<std::uint64_t> v =
        r.found ? std::optional<std::uint64_t>(r.value) : std::nullopt;
    if (!chk.read_ok(keys[0], v)) {
      t.wrong += 1;
      return false;
    }
    return true;
  }
  if (r.type != net::MsgType::kGetManyResp || r.values.size() != op.count)
    return false;
  for (std::uint32_t k = 0; k < op.count; ++k) {
    if (!chk.read_ok(keys[k], r.values[k])) {
      t.wrong += 1;
      return false;
    }
  }
  return true;
}

std::uint64_t submit(net::KvClient& cl, const Stream& s, const Op& op,
                     std::size_t stream, std::uint64_t seq) {
  if (op.put) return cl.submit_put(op.key, put_value(op.key, stream, seq));
  if (op.count == 1) return cl.submit_get(s.keys_of(op)[0]);
  return cl.submit_get_many(s.keys_of(op), op.count);
}

// ---- closed-loop clients ---------------------------------------------------------

// Client-side stage boundaries of one request (steady-clock ns).
struct Span {
  std::uint64_t id = 0, seq = 0;
  std::uint64_t pack_start = 0, pack_end = 0, flushed = 0, done = 0;
  std::uint32_t flush_group = 0;  // requests sharing the flush that sent it
  bool put = false;
};

constexpr int kWindows = 20;
constexpr std::size_t kMaxSpansPerConn = 100'000;

struct ConnResult {
  Tally tally;
  std::vector<std::uint64_t> done_in_window =
      std::vector<std::uint64_t>(kWindows, 0);
  std::vector<std::vector<std::uint64_t>> latency_ns =
      std::vector<std::vector<std::uint64_t>>(kWindows);
  std::vector<std::uint8_t> acked_put;  // per key: a put was acknowledged
  std::vector<Span> spans;              // trace only
};

struct RunResult {
  Tally tally;
  double requests_per_s = 0, p50_us = 0, p99_us = 0;
  std::uint64_t samples = 0;
  std::vector<std::uint8_t> acked_put;
  std::vector<std::vector<Span>> spans;
};

// One connection's closed loop: keeps `depth` requests in flight, replaying
// its stream, until t_end; then drains.  All connections share one
// load-generator thread that steps them in turn, so the client side adds one
// busy thread whatever the connection count.
class ClientLoop {
 public:
  ClientLoop(net::KvClient& cl, const Stream& s, std::size_t stream,
             const Checker& chk, int depth, std::uint64_t t_start,
             std::uint64_t t_end, bool trace)
      : cl_(cl),
        s_(s),
        stream_(stream),
        chk_(chk),
        depth_(static_cast<std::size_t>(depth)),
        t_start_(t_start),
        t_end_(t_end),
        window_ns_((t_end - t_start) / kWindows),
        trace_(trace) {
    out.acked_put.assign(chk.w.loaded, 0);
    if (trace_) out.spans.reserve(kMaxSpansPerConn);
    inflight_.reserve(depth_);
  }

  // Tops the pipeline up (before t_end) and consumes one response.  False
  // once nothing is left in flight or the connection failed.
  bool step() {
    if (dead_) return false;
    if (clock_ns() < t_end_ && inflight_.size() < depth_ && !refill())
      return fail();
    if (inflight_.empty()) return false;
    net::Response r;
    if (!cl_.recv_response(&r)) return fail();
    const std::uint64_t done = clock_ns();
    std::size_t f = 0;
    while (f < inflight_.size() && inflight_[f].id != r.id) ++f;
    if (f == inflight_.size()) {  // an id this connection never sent
      out.tally.wrong += 1;
      return fail();
    }
    const InFlight req = inflight_[f];
    inflight_.erase(inflight_.begin() + static_cast<std::ptrdiff_t>(f));
    const Op& op = s_.at(req.seq);
    if (!check_response(chk_, s_, op, r, out.tally)) {
      out.tally.failed += 1;
      return true;
    }
    if (op.put) out.acked_put[op.key] = 1;
    if (req.span != kNoSpan) out.spans[req.span].done = done;
    if (done >= t_start_ && done < t_end_) {
      const auto wi = std::min<std::uint64_t>((done - t_start_) / window_ns_,
                                              kWindows - 1);
      out.done_in_window[wi] += 1;
      out.latency_ns[wi].push_back(done - req.sent);
    }
    return true;
  }

  ConnResult out;

 private:
  static constexpr std::size_t kNoSpan = ~std::size_t{0};
  struct InFlight {
    std::uint64_t id, seq, sent;
    std::size_t span;  // index into out.spans, or kNoSpan
  };

  bool refill() {
    const std::size_t first = inflight_.size();
    while (inflight_.size() < depth_) {
      const std::uint64_t t0 = clock_ns();
      const Op& op = s_.at(seq_);
      const std::uint64_t id = submit(cl_, s_, op, stream_, seq_);
      std::size_t span = kNoSpan;
      if (trace_ && t0 >= t_start_ && out.spans.size() < kMaxSpansPerConn) {
        span = out.spans.size();
        Span sp;
        sp.id = id;
        sp.seq = seq_;
        sp.pack_start = t0;
        sp.pack_end = clock_ns();
        sp.put = op.put;
        out.spans.push_back(sp);
      }
      inflight_.push_back({id, seq_, t0, span});
      out.tally.attempted += 1;
      seq_ += 1;
    }
    if (!cl_.flush()) return false;
    const std::uint64_t flushed = clock_ns();
    const auto group = static_cast<std::uint32_t>(inflight_.size() - first);
    for (std::size_t i = first; i < inflight_.size(); ++i) {
      if (inflight_[i].span == kNoSpan) continue;
      out.spans[inflight_[i].span].flushed = flushed;
      out.spans[inflight_[i].span].flush_group = group;
    }
    return true;
  }

  // Whatever is in flight on a failed connection never completed.
  bool fail() {
    out.tally.failed += inflight_.size();
    inflight_.clear();
    dead_ = true;
    return false;
  }

  net::KvClient& cl_;
  const Stream& s_;
  std::size_t stream_;
  const Checker& chk_;
  std::size_t depth_;
  std::uint64_t t_start_, t_end_, window_ns_;
  bool trace_;
  bool dead_ = false;
  std::uint64_t seq_ = 0;
  std::vector<InFlight> inflight_;
};

RunResult run_clients(Stack& st, const std::vector<Stream>& streams,
                      const Checker& chk, double warmup_s, double seconds,
                      bool trace) {
  const Workload& w = chk.w;
  const std::uint64_t t0 = clock_ns();
  const std::uint64_t t_start = t0 + static_cast<std::uint64_t>(warmup_s * 1e9);
  const std::uint64_t t_end = t_start + static_cast<std::uint64_t>(seconds * 1e9);
  std::vector<ClientLoop> loops;
  loops.reserve(streams.size());
  for (std::size_t c = 0; c < streams.size(); ++c)
    loops.emplace_back(st.clients[c], streams[c], c, chk, w.depth, t_start,
                       t_end, trace);
  for (bool live = true; live;) {
    live = false;
    for (ClientLoop& l : loops) live = l.step() || live;
  }
  std::vector<ConnResult> per;
  for (ClientLoop& l : loops) per.push_back(std::move(l.out));

  RunResult res;
  res.acked_put.assign(w.loaded, 0);
  const double window_s = seconds / kWindows;
  std::vector<double> rps, p50, p99;
  for (int wi = 0; wi < kWindows; ++wi) {
    std::uint64_t done = 0;
    std::vector<std::uint64_t> lat;
    for (ConnResult& cr : per) {
      done += cr.done_in_window[static_cast<std::size_t>(wi)];
      auto& l = cr.latency_ns[static_cast<std::size_t>(wi)];
      lat.insert(lat.end(), l.begin(), l.end());
    }
    res.samples += lat.size();
    rps.push_back(static_cast<double>(done) / window_s);
    p50.push_back(percentile(lat, 50.0) / 1e3);
    p99.push_back(percentile(lat, 99.0) / 1e3);
  }
  std::fprintf(stderr, "req/s per %.2f s window:", window_s);
  for (const double r : rps) std::fprintf(stderr, " %.0f", r);
  std::fprintf(stderr, "\n");
  res.requests_per_s = fast_quartile(std::move(rps), /*higher_better=*/true);
  res.p50_us = fast_quartile(std::move(p50), /*higher_better=*/false);
  res.p99_us = fast_quartile(std::move(p99), /*higher_better=*/false);
  for (ConnResult& cr : per) {
    res.tally.add(cr.tally);
    for (std::size_t k = 0; k < cr.acked_put.size(); ++k)
      res.acked_put[k] |= cr.acked_put[k];
    res.spans.push_back(std::move(cr.spans));
  }
  return res;
}

// Reads every preloaded key (and a slice of the never-written range) back
// through a fresh connection and checks it against the run's acknowledged
// puts.
Tally verify_final_state(const Stack& st, const Checker& chk,
                         const std::vector<std::uint8_t>& acked_put) {
  Tally t;
  auto cl = net::KvClient::connect(st.front->port(), client_config());
  if (!cl) {
    t.attempted = t.failed = t.wrong = 1;
    return t;
  }
  constexpr std::uint64_t kChunk = 64;
  const std::uint64_t end =
      std::min(chk.w.read_span, chk.w.loaded + (std::uint64_t{1} << 12));
  std::vector<std::uint64_t> keys;
  for (std::uint64_t base = 0; base < end; base += kChunk) {
    keys.clear();
    for (std::uint64_t k = base; k < std::min(end, base + kChunk); ++k)
      keys.push_back(k);
    t.attempted += 1;
    const auto got = cl->get_many(keys);
    if (!got || got->size() != keys.size()) {
      t.failed += 1;
      continue;
    }
    for (std::size_t i = 0; i < keys.size(); ++i) {
      const std::uint64_t k = keys[i];
      const auto& v = (*got)[i];
      const bool still_preload = v && (*v >> kKeyBits) == 0;
      if (!chk.read_ok(k, v) ||
          (k < chk.w.loaded && acked_put[k] && still_preload)) {
        t.wrong += 1;
        t.failed += 1;
        break;
      }
    }
  }
  return t;
}

// ---- layer ladder ----------------------------------------------------------------

constexpr std::size_t kLadderOps = 4096;     // requests per pass
constexpr int kLadderReps = 5;               // interleaved repetitions
constexpr std::uint64_t kLadderMinNs = 60'000'000;  // per rung per rep
constexpr int kPipeDepth = 8;

struct Ladder {
  const Workload& w;
  const Checker& chk;
  const Stream& s;
  Stack& st;
  FlatMap flat;
  NumaMap numa;
  BenchLock lock;
  // Stream ordinal of the request being played: seq % kStreamOps is its
  // index, and the pass count keeps put tags distinct across passes.
  std::uint64_t seq = 0;
  std::uint64_t passes = 0;
  Tally tally;
  double submit_ns_sum = 0, wait_ns_sum = 0;
  std::uint64_t sync_requests = 0;

  Ladder(const Workload& wl, const Checker& c, const Stream& str, Stack& stack)
      : w(wl),
        chk(c),
        s(str),
        st(stack),
        flat(kThreads, kNodes * kShardsPerNode),
        numa(bench_topology(), kShardsPerNode),
        lock(kThreads) {
    for (std::uint64_t k = 0; k < w.loaded; ++k) {
      flat.put(0, k, k);
      numa.put(0, k, k);
    }
  }

  void check(std::uint64_t key, const std::optional<std::uint64_t>& v) {
    if (!chk.read_ok(key, v)) {
      tally.wrong += 1;
      tally.failed += 1;
    }
  }

  // Plays the op list until kLadderMinNs has passed; returns ns/request.
  template <class PlayOne>
  double time_rung(PlayOne&& play) {
    std::uint64_t done = 0;
    const std::uint64_t t0 = clock_ns();
    std::uint64_t t1 = t0;
    do {
      for (std::size_t i = 0; i < kLadderOps; ++i) {
        seq = passes * kStreamOps + i;
        play(s.ops[i]);
      }
      passes += 1;
      done += kLadderOps;
      t1 = clock_ns();
    } while (t1 - t0 < kLadderMinNs);
    tally.attempted += done;
    return static_cast<double>(t1 - t0) / static_cast<double>(done);
  }

  // The floor of the ladder: one empty read or write section per request on
  // one shard lock.
  double rung_lock() {
    return time_rung([&](const Op& op) {
      if (op.put) {
        bjrw::WriteGuard g(lock, 0);
      } else {
        bjrw::ReadGuard g(lock, 0);
      }
    });
  }

  double rung_flat() {
    std::vector<std::optional<std::uint64_t>> out(w.batch);
    return time_rung([&](const Op& op) {
      if (op.put) {
        flat.put(0, op.key, put_value(op.key, 0, seq));
        return;
      }
      const std::uint64_t* keys = s.keys_of(op);
      if (op.count == 1) {
        check(keys[0], flat.get(0, keys[0]));
        return;
      }
      std::fill(out.begin(), out.end(), std::nullopt);
      flat.get_many_into(0, keys, op.count, out.data());
      for (std::uint32_t k = 0; k < op.count; ++k) check(keys[k], out[k]);
    });
  }

  double rung_numa() {
    std::vector<std::uint64_t> batch;
    return time_rung([&](const Op& op) {
      if (op.put) {
        numa.put(0, op.key, put_value(op.key, 0, seq));
        return;
      }
      const std::uint64_t* keys = s.keys_of(op);
      if (op.count == 1) {
        check(keys[0], numa.get(0, keys[0]));
        return;
      }
      batch.assign(keys, keys + op.count);
      const auto got = numa.get_many(0, batch);
      for (std::uint32_t k = 0; k < op.count; ++k) check(keys[k], got[k]);
    });
  }

  // Fills `r` for `op` (results land in `out`, which must hold op.count).
  void fill(serve::Request& r, const Op& op,
            std::optional<std::uint64_t>* out) {
    r.reset();
    if (op.put) {
      r.kind = serve::RequestKind::kPut;
      r.key = op.key;
      r.value = put_value(op.key, 0, seq);
      return;
    }
    r.kind = op.count == 1 ? serve::RequestKind::kGet
                           : serve::RequestKind::kGetBatch;
    r.keys = s.keys_of(op);
    r.key_count = op.count;
    for (std::uint32_t k = 0; k < op.count; ++k) out[k] = std::nullopt;
    r.out = out;
  }

  void check_request(const serve::Request& r, const Op& op,
                     const std::optional<std::uint64_t>* out) {
    if (r.submit_outcome() != serve::AdmitResult::kAccepted) {
      tally.failed += 1;
      return;
    }
    if (op.put) return;
    for (std::uint32_t k = 0; k < op.count; ++k) check(r.keys[k], out[k]);
  }

  double rung_server_sync() {
    serve::Request r;
    std::vector<std::optional<std::uint64_t>> out(w.batch);
    return time_rung([&](const Op& op) {
      fill(r, op, out.data());
      const std::uint64_t t0 = clock_ns();
      st.server->submit(&r);
      const std::uint64_t t1 = clock_ns();
      r.wait();
      const std::uint64_t t2 = clock_ns();
      submit_ns_sum += static_cast<double>(t1 - t0);
      wait_ns_sum += static_cast<double>(t2 - t1);
      sync_requests += 1;
      check_request(r, op, out.data());
    });
  }

  double rung_server_many() {
    auto reqs = std::make_unique<serve::Request[]>(kPipeDepth);
    std::vector<serve::Request*> ptrs;
    std::vector<const Op*> ops;
    std::vector<std::optional<std::uint64_t>> out(kPipeDepth * w.batch);
    const auto flush = [&] {
      st.server->submit_many(ptrs.data(), ptrs.size());
      for (std::size_t i = 0; i < ptrs.size(); ++i) {
        ptrs[i]->wait();
        check_request(*ptrs[i], *ops[i], &out[i * w.batch]);
      }
      ptrs.clear();
      ops.clear();
    };
    return time_rung([&](const Op& op) {
      const std::size_t i = ptrs.size();
      fill(reqs[i], op, &out[i * w.batch]);
      ptrs.push_back(&reqs[i]);
      ops.push_back(&op);
      if (ptrs.size() == kPipeDepth) flush();
    });
  }

  double rung_net(int depth) {
    net::KvClient& cl = st.clients[0];
    struct InFlight {
      std::uint64_t id;
      const Op* op;
    };
    std::vector<InFlight> inflight;
    const auto recv_one = [&] {
      net::Response r;
      if (!cl.recv_response(&r))
        throw std::runtime_error("ladder connection failed");
      std::size_t f = 0;
      while (f < inflight.size() && inflight[f].id != r.id) ++f;
      if (f == inflight.size())
        throw std::runtime_error("ladder response matches no request");
      if (!check_response(chk, s, *inflight[f].op, r, tally))
        tally.failed += 1;
      inflight.erase(inflight.begin() + static_cast<std::ptrdiff_t>(f));
    };
    const double ns = time_rung([&](const Op& op) {
      inflight.push_back({submit(cl, s, op, 0, seq), &op});
      if (inflight.size() < static_cast<std::size_t>(depth)) return;
      if (!cl.flush()) throw std::runtime_error("ladder connection failed");
      while (inflight.size() >= static_cast<std::size_t>(depth)) recv_one();
    });
    if (!cl.flush()) throw std::runtime_error("ladder connection failed");
    while (!inflight.empty()) recv_one();
    return ns;
  }
};

// ---- output ----------------------------------------------------------------------

struct Metric {
  std::string name, unit;
  double value;
};

void print_result(bool correct, const Tally& t,
                  const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(t.attempted);
  out += ", \"failed\": " + std::to_string(t.failed);
  out += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) out += ", ";
    std::snprintf(buf, sizeof buf, "%.17g", metrics[i].value);
    out += "\"" + metrics[i].name + "\": {\"value\": ";
    out += buf;
    out += ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

void write_spans(const std::string& dir, const Workload& w, std::uint64_t seed,
                 const RunResult& run) {
  ::mkdir(dir.c_str(), 0755);
  const std::string path =
      dir + "/spans-" + w.name + "-" + std::to_string(seed) + ".csv";
  std::ofstream f(path);
  if (!f) {
    std::fprintf(stderr, "serve_bench: cannot write %s\n", path.c_str());
    return;
  }
  f << "conn,request_id,seq,kind,pack_start_ns,pack_end_ns,flushed_ns,"
       "done_ns,flush_group\n";
  std::uint64_t origin = ~std::uint64_t{0};
  for (const auto& conn : run.spans)
    for (const Span& sp : conn) origin = std::min(origin, sp.pack_start);
  for (std::size_t c = 0; c < run.spans.size(); ++c) {
    for (const Span& sp : run.spans[c]) {
      if (sp.done == 0) continue;
      f << c << ',' << sp.id << ',' << sp.seq << ','
        << (sp.put ? "put" : "get") << ',' << sp.pack_start - origin << ','
        << sp.pack_end - origin << ',' << sp.flushed - origin << ','
        << sp.done - origin << ',' << sp.flush_group << '\n';
    }
  }
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out = ".bench_out";
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::stoull(v);
    } else if (k == "--seconds") {
      a.seconds = std::stod(v);
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--out") {
      a.out = v;
    } else {
      throw std::invalid_argument("unknown option " + k);
    }
  }
  if (argc % 2 == 0) throw std::invalid_argument("options take one value");
  if (!(a.seconds > 0)) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

constexpr int kSetupReps = 15;
constexpr double kWarmupS = 0.5;

int run(const Args& a) {
  const Workload* wp = find_workload(a.workload);
  if (!wp) throw std::invalid_argument("unknown workload " + a.workload);
  const Workload& w = *wp;
  const std::vector<Stream> streams = make_streams(w, a.seed);
  const Checker chk{w, streams};
  std::vector<Metric> metrics;
  Tally tally;

  if (!a.trace) {
    std::vector<double> setup;
    std::unique_ptr<Stack> st;
    SetupTimes times;
    for (int r = 0; r < kSetupReps; ++r) {
      st.reset();  // tear the previous stack down outside the timed region
      st = build_stack(w, &times);
      setup.push_back(times.total());
    }
    const RunResult run = run_clients(*st, streams, chk, kWarmupS, a.seconds,
                                      /*trace=*/false);
    tally.add(run.tally);
    tally.add(verify_final_state(*st, chk, run.acked_put));
    std::fprintf(stderr,
                 "%s: %.0f req/s, p50 %.1f us, p99 %.1f us over %llu "
                 "samples; setup %.4f s\n",
                 w.name, run.requests_per_s, run.p50_us, run.p99_us,
                 static_cast<unsigned long long>(run.samples), median(setup));
    metrics = {{"requests_per_s", "1/s", run.requests_per_s},
               {"latency_p50_us", "us", run.p50_us},
               {"latency_p99_us", "us", run.p99_us},
               {"setup_s", "s", median(setup)}};
  } else {
    SetupTimes times;
    std::unique_ptr<Stack> st = build_stack(w, &times);
    Ladder lad(w, chk, streams[0], *st);
    std::vector<double> r_lock, r_flat, r_numa, r_sync, r_many, r_d1, r_pipe;
    for (int rep = 0; rep < kLadderReps; ++rep) {
      r_lock.push_back(lad.rung_lock());
      r_flat.push_back(lad.rung_flat());
      r_numa.push_back(lad.rung_numa());
      r_sync.push_back(lad.rung_server_sync());
      r_many.push_back(lad.rung_server_many());
      r_d1.push_back(lad.rung_net(1));
      r_pipe.push_back(lad.rung_net(kPipeDepth));
    }
    tally.add(lad.tally);
    const RunResult run = run_clients(*st, streams, chk, kWarmupS, a.seconds,
                                      /*trace=*/true);
    tally.add(run.tally);
    tally.add(verify_final_state(*st, chk, run.acked_put));
    std::vector<double> pack, send, wait;
    for (const auto& conn : run.spans) {
      for (const Span& sp : conn) {
        if (sp.done == 0) continue;
        pack.push_back(static_cast<double>(sp.pack_end - sp.pack_start));
        send.push_back(static_cast<double>(sp.flushed - sp.pack_end) /
                       sp.flush_group);
        wait.push_back(static_cast<double>(sp.done - sp.flushed));
      }
    }
    write_spans(a.out, w, a.seed, run);
    const double syncs = static_cast<double>(std::max<std::uint64_t>(
        lad.sync_requests, 1));
    metrics = {
        {"ladder_lock_ns", "ns", median(r_lock)},
        {"ladder_map_ns", "ns", median(r_flat)},
        {"ladder_numa_map_ns", "ns", median(r_numa)},
        {"ladder_server_sync_ns", "ns", median(r_sync)},
        {"ladder_server_many_ns", "ns", median(r_many)},
        {"ladder_net_d1_ns", "ns", median(r_d1)},
        {"ladder_net_pipe_ns", "ns", median(r_pipe)},
        {"server_submit_ns", "ns", lad.submit_ns_sum / syncs},
        {"server_wait_ns", "ns", lad.wait_ns_sum / syncs},
        {"client_pack_ns", "ns", median(pack)},
        {"client_send_ns", "ns", median(send)},
        {"client_wait_ns", "ns", median(wait)},
        {"traced_requests_per_s", "1/s", run.requests_per_s},
        {"setup_server_s", "s", times.server_s},
        {"setup_preload_s", "s", times.preload_s},
        {"setup_connect_s", "s", times.connect_s},
    };
  }
  const bool correct = tally.wrong == 0 && tally.failed == 0;
  print_result(correct, tally, metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "serve_bench: %s\n", e.what());
    return 2;
  }
}
