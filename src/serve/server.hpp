// KvServer: the serving-runtime front-end tying the layers together —
// placement (placement.hpp) decides which node owns each key, the pinned
// per-node pools (worker_pool.hpp) execute there, and clients talk to the
// server through client-owned Requests (request.hpp).
//
// Dispatch: a batched get is grouped by owning node (one counting sort)
// and becomes one SubRequest per involved node; point ops become one.
// Under node-local dispatch each slice is enqueued on its *owning* node's
// pool, so the worker that takes the shard's read lock, walks the shard
// table, and bumps the stats stripe is a thread the topology maps to the
// node where all of those lines were first-touched.  Under node-oblivious
// dispatch (the E18 control arm) the same slices round-robin across all
// pools: identical work, identical batching, only the placement awareness
// removed — the difference between the two rows is pure node-locality.
//
// Completion is the Request's counting latch; the worker whose decrement
// completes a request records its latency into the executing node's stats
// strictly before the latch-releasing decrement.  node_stats() is the one
// stats accessor: every counter is monotone and safe to read at any time
// (each worker or lock stripe is a relaxed atomic with one writer, bumped
// by single_writer_add, no RMW; a live read is no cut across fields), and
// exact for a request once its wait() has returned (every stripe write
// for it happens-before the client's latch read).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "src/core/locks.hpp"
#include "src/expiry/sweeper.hpp"
#include "src/expiry/wheel.hpp"
#include "src/harness/stats.hpp"
#include "src/harness/timing.hpp"
#include "src/harness/topology.hpp"
#include "src/rmr/provider.hpp"
#include "src/serve/config.hpp"
#include "src/serve/placement.hpp"
#include "src/serve/request.hpp"
#include "src/serve/worker_pool.hpp"

namespace bjrw::serve {

// Per-node aggregate the observers report (see node_stats()).
struct NodeServeStats {
  std::uint64_t sub_requests = 0;   // queue items executed by the node's pool
  std::uint64_t ops = 0;            // keys looked up / point ops applied
  std::uint64_t completed = 0;      // requests whose final slice ran here
  std::uint64_t backpressure = 0;   // full-queue submit retries
  std::uint64_t bursts = 0;         // dequeues (sub_requests / bursts =
                                    // mean burst depth)
  std::uint64_t group_gathers = 0;  // cross-request get_many_into calls
  double latency_mean_ns = 0.0;     // over `completed` requests
  double latency_max_ns = 0.0;
  // Admission + elasticity (DESIGN.md §12).
  std::uint64_t shed = 0;   // requests refused kShedOverload here
  std::uint64_t parks = 0;  // cumulative worker park events
  std::uint64_t wakes = 0;  // cumulative submitter wake notifies
  int parked = 0;           // instantaneous parked width
  // Cohort-lock counters summed over the node's shard locks (0 when the
  // per-shard lock type does not expose them).
  std::uint64_t handoffs = 0;
  std::uint64_t global_acquires = 0;
  std::uint64_t preempt_aborts = 0;
  // Lease expiry (src/expiry/; all 0 unless cfg.expiry_enabled).
  std::uint64_t leases_scheduled = 0;   // TTL puts + touches wheeled here
  std::uint64_t leases_cancelled = 0;   // explicit cancels (erase of leased key)
  std::uint64_t leases_expired = 0;     // entries the sweep actually erased
  std::uint64_t lease_stale_skips = 0;  // superseded leases dropped, wheel+map
  std::uint64_t sweep_batches = 0;      // harvest batches the sweeper ran
  // End-to-end deadlines: refusals at the admission edge vs slices whose
  // deadline expired while queued (dropped at dequeue, never executed).
  std::uint64_t deadline_refused = 0;
  std::uint64_t deadline_drops = 0;
};

template <ReaderWriterLock Lock = CohortWriterPriorityLock>
class KvServer {
 public:
  using Map = NumaShardedMap<std::uint64_t, std::uint64_t, Lock>;

  explicit KvServer(const Topology& topo, ServeConfig cfg = {})
      : cfg_(cfg.validate()),
        clock_(cfg_.clock ? cfg_.clock : &SteadyClockSource::instance()),
        // The map sees a clock only when expiry is armed, so its read-path
        // lease filter stays off otherwise.
        map_(topo, cfg_.shards_per_node, cfg_.node_local_alloc,
             cfg_.expiry_enabled ? clock_ : nullptr),
        worker_stats_(std::make_unique<WorkerStats[]>(
            static_cast<std::size_t>(map_.max_threads()))),
        admit_(std::make_unique<AdmitState[]>(
            static_cast<std::size_t>(map_.node_count()))),
        wheels_(make_wheels()),
        sweepers_(make_sweepers()),
        sweep_targets_(make_sweep_targets(topo)),
        pool_(make_pool(topo, cfg_)) {
    if (cfg_.admit_rate > 0.0) {
      // Buckets start full so startup bursts are not penalized.
      const std::uint64_t t = now_ns();
      const auto depth =
          static_cast<std::int64_t>(cfg_.effective_admit_burst());
      for (int d = 0; d < map_.node_count(); ++d) {
        admit_[idx(d)].tokens.store(depth, std::memory_order_relaxed);
        admit_[idx(d)].last_ns.store(t, std::memory_order_relaxed);
      }
    }
  }

  ~KvServer() { shutdown(); }
  KvServer(const KvServer&) = delete;
  KvServer& operator=(const KvServer&) = delete;

  // ---- client API -----------------------------------------------------------

  // Asynchronous submission of one request: the caller owns `*req` (keys,
  // out array) until req->wait() returns.  A batch of one through
  // submit_many(), which documents admission and the outcome.
  AdmitResult submit(Request* req) { return submit_many(&req, 1); }

  // Batched submission: splits every request into one slice per involved
  // node (a batched get is grouped by owning node with one counting sort;
  // a point op is a single slice), admits and fully initializes every
  // latch, then publishes all slices with ONE ring reservation per
  // dispatch node (WorkerPool::submit_many).  Latches are set before *any*
  // slice publishes because slices of one request routed to different
  // nodes can start — and finish — while later requests in the batch are
  // still being grouped.
  //
  // The admission stage — the per-dispatch-node token bucket, off by
  // default — runs per request after grouping but before its latch init,
  // so a refused request has pending == 0 (wait() returns immediately),
  // nothing enqueued, and the refusal recorded in submit_outcome(); the
  // rest of the batch proceeds.
  // Multi-node requests admit all-or-nothing: a refusal refunds tokens
  // already charged for earlier slices.  kShutdown is the one outcome that
  // can land after partial publication — slices a stopping pool refused
  // are discounted from their latch before return, so wait() still
  // terminates (with partial results).  Each request's verdict lands in
  // its submit_outcome(); the return value is the worst of them (worst_of
  // severity order).
  AdmitResult submit_many(Request* const* reqs, std::size_t n) {
    if (n == 0) return AdmitResult::kAccepted;
    const std::uint64_t t0 = now_ns();
    const std::size_t nodes = static_cast<std::size_t>(map_.node_count());
    static thread_local std::vector<std::vector<SubRequest>> buckets;
    if (buckets.size() < nodes) buckets.resize(nodes);
    for (std::size_t d = 0; d < nodes; ++d) buckets[d].clear();
    static thread_local std::vector<std::pair<std::uint32_t, std::uint32_t>>
        ranges;
    AdmitResult batch = AdmitResult::kAccepted;
    for (std::size_t i = 0; i < n; ++i) {
      Request* req = reqs[i];
      req->submit_ns = t0;
      req->outcome = AdmitResult::kAccepted;
      // Each slice draws its dispatch node ONCE, for both admission and
      // the bucket it is published from: under oblivious dispatch every
      // dispatch_node() call advances the round-robin cursor, so probing
      // admission with one draw and enqueueing with another would skew
      // the rotation.
      AdmitResult adm = AdmitResult::kAccepted;
      std::uint32_t subs = 0;
      const auto stage = [&](const SubRequest& s) {
        const int dn = dispatch_node(s.owner);
        adm = admit(dn, slice_cost(s), req->deadline_ns);
        if (adm != AdmitResult::kAccepted) return false;
        buckets[idx(dn)].push_back(s);
        ++subs;
        return true;
      };
      if (req->kind == RequestKind::kGetBatch) {
        // Empty batch: complete immediately.  `keys` may legitimately be
        // nullptr here (std::vector::data() on an empty vector), so it
        // must not reach the grouping's span arithmetic.
        if (req->key_count == 0) {
          req->pending.store(0, std::memory_order_release);
          continue;
        }
        map_.group_by_node(req->keys, req->key_count, req->order, ranges);
        for (std::size_t d = 0; d < ranges.size(); ++d) {
          const auto [begin, end] = ranges[d];
          if (begin == end) continue;
          if (!stage(SubRequest{req, begin, end, static_cast<std::int32_t>(d)}))
            break;
        }
      } else {
        const std::uint64_t routing_key =
            req->kind == RequestKind::kGet ? req->keys[0] : req->key;
        stage(SubRequest{req, 0, 0, map_.node_of_key(routing_key)});
      }
      if (adm != AdmitResult::kAccepted) {
        // All-or-nothing: the slices admitted before the refusal are the
        // last entries of their buckets; unstage them and refund.
        for (std::size_t d = 0; d < nodes; ++d) {
          auto& b = buckets[d];
          while (!b.empty() && b.back().parent == req) {
            refund(static_cast<int>(d), slice_cost(b.back()));
            b.pop_back();
          }
        }
        req->pending.store(0, std::memory_order_release);
        req->outcome = adm;
        batch = worst_of(batch, adm);
        continue;
      }
      req->pending.store(subs, std::memory_order_relaxed);
    }
    for (std::size_t d = 0; d < nodes; ++d) {
      auto& b = buckets[d];
      if (b.empty()) continue;
      const std::size_t published =
          pool_.submit_many(static_cast<int>(d), b.data(), b.size());
      for (std::size_t j = published; j < b.size(); ++j) {  // refused
        b[j].parent->pending.fetch_sub(1, std::memory_order_release);
        b[j].parent->outcome =
            worst_of(b[j].parent->outcome, AdmitResult::kShutdown);
        batch = worst_of(batch, AdmitResult::kShutdown);
      }
    }
    return batch;
  }

  // Synchronous conveniences over submit()/wait().
  void put(std::uint64_t key, std::uint64_t value) {
    Request r;
    r.kind = RequestKind::kPut;
    r.key = key;
    r.value = value;
    submit(&r);
    r.wait();
  }

  // Leased put: the entry expires ttl_ns after execution unless rewritten,
  // touched, or erased first.  Requires cfg.expiry_enabled (a plain put is
  // performed otherwise — the TTL is ignored, as it is for a kPutTtlReq
  // sent to such a server).
  void put_with_ttl(std::uint64_t key, std::uint64_t value,
                    std::uint64_t ttl_ns) {
    Request r;
    r.kind = RequestKind::kPut;
    r.key = key;
    r.value = value;
    r.ttl_ns = ttl_ns;
    submit(&r);
    r.wait();
  }

  // Extends `key`'s lease to ttl_ns from execution time without touching
  // the value.  False when the key is absent, already lease-expired, or
  // expiry is disabled (touch never resurrects).
  bool touch(std::uint64_t key, std::uint64_t ttl_ns) {
    Request r;
    r.kind = RequestKind::kTouch;
    r.key = key;
    r.ttl_ns = ttl_ns;
    submit(&r);
    r.wait();
    return r.hits.load(std::memory_order_relaxed) != 0;
  }

  bool erase(std::uint64_t key) {
    Request r;
    r.kind = RequestKind::kErase;
    r.key = key;
    submit(&r);
    r.wait();
    return r.hits.load(std::memory_order_relaxed) != 0;
  }

  std::optional<std::uint64_t> get(std::uint64_t key) {
    Request r;
    std::optional<std::uint64_t> out;
    r.kind = RequestKind::kGet;
    r.keys = &key;
    r.key_count = 1;
    r.out = &out;
    submit(&r);
    r.wait();
    return out;
  }

  // Batched get: fills out[i] for keys[i] when `out` is non-null; returns
  // the hit count.
  std::uint64_t get_many(const std::vector<std::uint64_t>& keys,
                         std::optional<std::uint64_t>* out = nullptr) {
    Request r;
    r.kind = RequestKind::kGetBatch;
    r.keys = keys.data();
    r.key_count = static_cast<std::uint32_t>(keys.size());
    r.out = out;
    submit(&r);
    r.wait();
    return r.hits.load(std::memory_order_relaxed);
  }

  // ---- lifecycle ------------------------------------------------------------

  // Refuses new requests, drains everything queued, joins the workers.
  // Idempotent; the destructor calls it.
  void shutdown() { pool_.shutdown(); }

  // ---- observers ------------------------------------------------------------

  // Direct map access: preloading before traffic starts (any tid <
  // topology.cpu_count() is safe while no requests are in flight), and
  // post-run inspection.
  Map& map() { return map_; }
  const Map& map() const { return map_; }

  const ServeConfig& config() const { return cfg_; }
  // The server clock's current reading — the front-end converts
  // relative wire budgets to absolute Request::deadline_ns against this,
  // so client budgets and server checks share one timeline (virtual in
  // tests, steady otherwise).
  std::uint64_t time_now_ns() const { return clock_->now_ns(); }
  int node_count() const { return map_.node_count(); }
  // Instantaneous accepted-but-unclaimed depth of a node's queue; tests
  // use it to sequence wedge choreography.
  std::size_t queue_depth(int node) const { return pool_.queue_depth(node); }
  int pinned_workers() const { return pool_.pinned_workers(); }
  int workers_per_node() const { return pool_.workers_per_node(); }
  int min_width() const { return pool_.min_width(); }
  bool expiry_enabled() const { return cfg_.expiry_enabled; }

  // The node's counters; see the stats contract in the header comment.
  NodeServeStats node_stats(int node) const {
    NodeServeStats out;
    out.backpressure = pool_.backpressure(node);
    out.bursts = pool_.bursts(node);
    std::uint64_t latency_sum_ns = 0, latency_max_ns = 0;
    // workers_in_node, not workers_per_node: a memory-only node spawned no
    // workers and its worker_tid range is empty — iterating the configured
    // width there would read the next node's stripes.
    for (int w = 0; w < pool_.workers_in_node(node); ++w) {
      const WorkerStats& ws = worker_stats_[idx(pool_.worker_tid(node, w))];
      out.sub_requests += ws.subs.load(std::memory_order_relaxed);
      out.ops += ws.ops.load(std::memory_order_relaxed);
      out.group_gathers += ws.group_gathers.load(std::memory_order_relaxed);
      out.deadline_drops += ws.deadline_drops.load(std::memory_order_relaxed);
      out.completed += ws.completed.load(std::memory_order_relaxed);
      latency_sum_ns += ws.latency_sum_ns.load(std::memory_order_relaxed);
      const std::uint64_t max_ns =
          ws.latency_max_ns.load(std::memory_order_relaxed);
      if (max_ns > latency_max_ns) latency_max_ns = max_ns;
    }
    if (out.completed != 0)
      out.latency_mean_ns = static_cast<double>(latency_sum_ns) /
                            static_cast<double>(out.completed);
    out.latency_max_ns = static_cast<double>(latency_max_ns);
    out.shed = admit_[idx(node)].shed.load(std::memory_order_relaxed);
    out.deadline_refused =
        admit_[idx(node)].deadline_refused.load(std::memory_order_relaxed);
    out.parks = pool_.parks(node);
    out.wakes = pool_.wakes(node);
    out.parked = pool_.parked(node);
    if constexpr (kLockHasCohortCounters) {
      const auto& sub = map_.sub_map(node);
      for (std::size_t s = 0; s < sub.shard_count(); ++s) {
        const Lock& l = sub.shard_lock(s);
        out.handoffs += l.handoffs();
        out.global_acquires += l.global_acquires();
        out.preempt_aborts += l.preempt_aborts();
      }
    }
    if (!cfg_.expiry_enabled) return out;
    const expiry::WheelStats w = wheels_[idx(node)]->stats();
    out.leases_scheduled = w.scheduled;
    out.leases_cancelled = w.cancelled;
    out.leases_expired = sweepers_[idx(node)]->expired();
    // Both guards defend the same invariant at different stages: the
    // wheel drops superseded leases at harvest, the map's compare-and-
    // erase drops sweeps racing a later rewrite.
    out.lease_stale_skips =
        w.stale_drops + sweepers_[idx(node)]->stale_skips();
    out.sweep_batches = sweepers_[idx(node)]->sweep_batches();
    return out;
  }

 private:
  static constexpr bool kLockHasCohortCounters =
      requires(const Lock& l) {
        { l.handoffs() } -> std::convertible_to<std::uint64_t>;
        { l.global_acquires() } -> std::convertible_to<std::uint64_t>;
        { l.preempt_aborts() } -> std::convertible_to<std::uint64_t>;
      };

  // One stripe per worker, written only by that worker (single_writer_add).
  struct alignas(64) WorkerStats {
    std::atomic<std::uint64_t> ops{0};
    std::atomic<std::uint64_t> subs{0};
    std::atomic<std::uint64_t> group_gathers{0};  // cross-request gathers
    std::atomic<std::uint64_t> deadline_drops{0};  // slices dropped at dequeue
    std::atomic<std::uint64_t> completed{0};  // requests this worker finished
    std::atomic<std::uint64_t> latency_sum_ns{0};  // ... and their latencies
    std::atomic<std::uint64_t> latency_max_ns{0};
  };

  // Per-node admission state: a token bucket (lazily refilled by
  // submitters, no timer thread) plus the refusal counters node_stats()
  // reports.  Cache-line aligned — submitters on different nodes must not
  // false-share.
  struct alignas(64) AdmitState {
    std::atomic<std::int64_t> tokens{0};
    std::atomic<std::uint64_t> last_ns{0};
    std::atomic<std::uint64_t> shed{0};
    std::atomic<std::uint64_t> deadline_refused{0};
  };

  // One timer wheel + sweeper per node when expiry is armed (both vectors
  // empty otherwise).  Built strictly before pool_ in declaration order —
  // workers may run the maintenance lane the moment they spawn.
  std::vector<std::unique_ptr<expiry::TimerWheel>> make_wheels() {
    std::vector<std::unique_ptr<expiry::TimerWheel>> wheels;
    if (!cfg_.expiry_enabled) return wheels;
    expiry::WheelConfig wc;
    wc.resolution_ns = cfg_.expiry_resolution_ns;
    wc.slots = cfg_.expiry_wheel_slots;
    wc.levels = cfg_.expiry_wheel_levels;
    const std::uint64_t start = clock_->now_ns();
    wheels.reserve(static_cast<std::size_t>(map_.node_count()));
    for (int d = 0; d < map_.node_count(); ++d)
      wheels.push_back(std::make_unique<expiry::TimerWheel>(wc, start));
    return wheels;
  }

  std::vector<std::unique_ptr<expiry::ExpirySweeper<typename Map::SubMap>>>
  make_sweepers() {
    std::vector<std::unique_ptr<expiry::ExpirySweeper<typename Map::SubMap>>>
        sweepers;
    if (!cfg_.expiry_enabled) return sweepers;
    sweepers.reserve(static_cast<std::size_t>(map_.node_count()));
    for (int d = 0; d < map_.node_count(); ++d)
      sweepers.push_back(
          std::make_unique<expiry::ExpirySweeper<typename Map::SubMap>>(
              *wheels_[idx(d)], map_.sub_map(d), *clock_));
    return sweepers;
  }

  // sweep_targets_[exec] lists the nodes whose wheels node `exec`'s workers
  // poll — each node sweeps itself, plus any memory-only node whose
  // execution the pool routes here (same nearest-CPU rule as WorkerPool).
  std::vector<std::vector<int>> make_sweep_targets(const Topology& topo) {
    std::vector<std::vector<int>> targets;
    if (!cfg_.expiry_enabled) return targets;
    targets.resize(static_cast<std::size_t>(topo.node_count()));
    for (int d = 0; d < topo.node_count(); ++d) {
      const int exec =
          topo.cpus_in_node(d) > 0 ? d : topo.nearest_cpu_node(d);
      targets[idx(exec >= 0 ? exec : d)].push_back(d);
    }
    return targets;
  }

  // Workers run execute_burst over every claimed run (guaranteed copy
  // elision — WorkerPool is immovable).  The expiry sweep rides the pool's
  // low-priority maintenance lane.
  WorkerPool<SubRequest> make_pool(const Topology& topo,
                                   const ServeConfig& cfg) {
    typename WorkerPool<SubRequest>::MaintenanceHandler maint;
    if (cfg.expiry_enabled) {
      maint = [this](int tid, int node) {
        bool worked = false;
        for (const int d : sweep_targets_[idx(node)])
          worked = sweepers_[idx(d)]->poll(tid) || worked;
        return worked;
      };
    }
    return WorkerPool<SubRequest>(
        topo, cfg,
        [this](int tid, int node, SubRequest* items, std::size_t n) {
          execute_burst(tid, node, items, n);
        },
        std::move(maint));
  }

  int dispatch_node(int owner) {
    if (cfg_.node_local_dispatch) return owner;
    return static_cast<int>(rr_.fetch_add(1, std::memory_order_relaxed) %
                            static_cast<std::uint64_t>(map_.node_count()));
  }

  // Admission gate for one slice of `cost` ops headed for dispatch node
  // `dn`.  Runs strictly before any latch init, so a refusal leaves the
  // request untouched and nothing to unwind.  Order matters: an already-
  // expired deadline refuses first (the request is doomed regardless of
  // capacity — a doomed request must not count as load pressure); then
  // the bucket, charged only when the request will actually be enqueued
  // (modulo the all-or-nothing refund in submit_many).  A full ring is no
  // refusal: WorkerPool::submit_many yields until a cell frees
  // (backpressure).
  AdmitResult admit(int dn, std::uint64_t cost, std::uint64_t deadline_ns) {
    if (deadline_ns != 0 && clock_->now_ns() >= deadline_ns) {
      admit_[idx(dn)].deadline_refused.fetch_add(1,
                                                 std::memory_order_relaxed);
      return AdmitResult::kDeadlineExceeded;
    }
    if (cfg_.admit_rate > 0.0) {
      AdmitState& st = admit_[idx(dn)];
      refill(st);
      const auto c = static_cast<std::int64_t>(cost);
      std::int64_t have = st.tokens.load(std::memory_order_relaxed);
      for (;;) {
        if (have < c) {
          st.shed.fetch_add(1, std::memory_order_relaxed);
          return AdmitResult::kShedOverload;
        }
        if (st.tokens.compare_exchange_weak(have, have - c,
                                            std::memory_order_relaxed))
          break;
      }
    }
    return AdmitResult::kAccepted;
  }

  // Admission cost of a slice: its key count, one for a point op.
  static std::uint64_t slice_cost(const SubRequest& s) {
    return s.end > s.begin ? s.end - s.begin : 1;
  }

  // Returns tokens charged for slices of a batch that was then refused
  // elsewhere (all-or-nothing admission).  May transiently overfill past
  // the bucket depth; the next refill clamps back down.
  void refund(int dn, std::uint64_t cost) {
    if (cfg_.admit_rate <= 0.0 || cost == 0) return;
    admit_[idx(dn)].tokens.fetch_add(static_cast<std::int64_t>(cost),
                                     std::memory_order_relaxed);
  }

  // Lazy refill: the submitting thread credits elapsed-time tokens on its
  // own way in.  last_ns advances only by the time worth of the tokens
  // actually credited (whole tokens), so fractional remainders carry over
  // instead of being dropped — the long-run rate is exact.  The CAS on
  // last_ns elects one crediting thread per window; losers just proceed
  // to the consume CAS with whatever is there.  Credit owed beyond the
  // bucket depth is clamped as a double, before the cast (it need not fit
  // an int64), and spends the whole gap: a full bucket carries nothing.
  void refill(AdmitState& st) {
    const std::uint64_t now = now_ns();
    std::uint64_t last = st.last_ns.load(std::memory_order_relaxed);
    if (now <= last) return;
    const auto cap = static_cast<std::int64_t>(cfg_.effective_admit_burst());
    const double owed =
        static_cast<double>(now - last) * 1e-9 * cfg_.admit_rate;
    std::int64_t credit = cap;
    std::uint64_t credit_ns = now - last;
    if (owed < static_cast<double>(cap)) {
      credit = static_cast<std::int64_t>(owed);
      if (credit <= 0) return;
      credit_ns = static_cast<std::uint64_t>(static_cast<double>(credit) *
                                             1e9 / cfg_.admit_rate);
    }
    if (!st.last_ns.compare_exchange_strong(last, last + credit_ns,
                                            std::memory_order_relaxed))
      return;  // another submitter credited this window
    std::int64_t t = st.tokens.load(std::memory_order_relaxed);
    for (;;) {
      const std::int64_t next = t > cap - credit ? cap : t + credit;
      if (st.tokens.compare_exchange_weak(t, next,
                                          std::memory_order_relaxed))
        break;
    }
  }

  // Dequeue-edge deadline recheck: a slice that waited out its budget in
  // the queue is dropped, not executed — the latch still resolves (the
  // client must not hang on doomed work), `dropped` tells the completion
  // side nothing ran, and the worker stripe records the drop.  True when
  // the slice was consumed here.
  bool drop_if_expired(WorkerStats& ws, Request* req) {
    if (req->deadline_ns == 0 || clock_->now_ns() < req->deadline_ns)
      return false;
    single_writer_add(ws.deadline_drops);
    req->dropped.fetch_add(1, std::memory_order_relaxed);
    finish(ws, req);
    return true;
  }

  // Runs a point op on a pool worker; `tid` is the worker's pool tid.
  void execute(int tid, SubRequest& s) {
    Request* req = s.parent;
    WorkerStats& ws = worker_stats_[idx(tid)];
    if (drop_if_expired(ws, req)) return;
    switch (req->kind) {
      case RequestKind::kPut:
        if (cfg_.expiry_enabled && req->ttl_ns > 0) {
          // Map first, wheel second: a lease is scheduled only after the
          // versioned entry it guards is visible.  Out-of-order schedules
          // from racing TTL puts are benign — the sweep's compare-and-
          // erase defers to the entry's (lock-ordered) version, and the
          // read-path filter enforces the entry's own deadline either way.
          const std::uint64_t deadline = clock_->now_ns() + req->ttl_ns;
          const std::uint64_t ver = map_.sub_map(s.owner).put_versioned(
              tid, req->key, req->value, deadline);
          wheels_[idx(s.owner)]->schedule(req->key, ver, deadline);
        } else {
          map_.put(tid, req->key, req->value);
        }
        single_writer_add(ws.ops);
        break;
      case RequestKind::kTouch:
        if (cfg_.expiry_enabled && req->ttl_ns > 0) {
          const std::uint64_t deadline = clock_->now_ns() + req->ttl_ns;
          if (const auto ver = map_.sub_map(s.owner).touch_version(
                  tid, req->key, deadline)) {
            wheels_[idx(s.owner)]->schedule(req->key, *ver, deadline);
            req->hits.fetch_add(1, std::memory_order_relaxed);
          }
        }
        single_writer_add(ws.ops);
        break;
      case RequestKind::kErase:
        if (map_.erase(tid, req->key))
          req->hits.fetch_add(1, std::memory_order_relaxed);
        if (cfg_.expiry_enabled) wheels_[idx(s.owner)]->cancel(req->key);
        single_writer_add(ws.ops);
        break;
      case RequestKind::kGet: {
        const auto v = map_.get(tid, req->keys[0]);
        if (v) {
          req->hits.fetch_add(1, std::memory_order_relaxed);
          req->value_sum.fetch_add(*v, std::memory_order_relaxed);
        }
        if (req->out) req->out[0] = v;
        single_writer_add(ws.ops);
        break;
      }
      case RequestKind::kGetBatch:  // execute_burst gathers these
        break;
    }
    single_writer_add(ws.subs);
    finish(ws, req);
  }

  // Shared completion tail.  The completing decrement publishes every
  // result write to the waiting client and releases the client-owned
  // request — the latency sample must land strictly before it so
  // node_stats() is exact at wait() return; Request::complete_one carries
  // that ordering.  `req` is never touched after this returns.
  void finish(WorkerStats& ws, Request* req) {
    const std::uint64_t elapsed_ns = now_ns() - req->submit_ns;
    req->complete_one([&] {
      single_writer_add(ws.completed);
      single_writer_add(ws.latency_sum_ns, elapsed_ns);
      if (elapsed_ns > ws.latency_max_ns.load(std::memory_order_relaxed))
        ws.latency_max_ns.store(elapsed_ns, std::memory_order_relaxed);
    });
  }

  // The worker handler.  Point ops in the claimed run are executed one by
  // one in FIFO order; batched-get slices are bucketed by
  // owning sub-map and each bucket's keys — gathered ACROSS parent
  // requests — go through ONE get_many_into call.  Since get_many_into
  // takes one read-lock epoch per distinct shard it touches, combining the
  // gather extends that amortization across requests for free: a shard hot
  // in every request of the burst is locked once for the whole burst, not
  // once per request.  Results scatter back per slice afterwards, and each
  // slice's latch decrement runs only after its whole group completed.
  void execute_burst(int tid, int /*node*/, SubRequest* items,
                     std::size_t n) {
    WorkerStats& ws = worker_stats_[idx(tid)];
    using Scratch = ShardGroupScratch<std::uint64_t, std::uint64_t>;
    static thread_local std::vector<Scratch> groups;
    const std::size_t nodes = static_cast<std::size_t>(map_.node_count());
    if (groups.size() < nodes) groups.resize(nodes);
    for (std::size_t d = 0; d < nodes; ++d) groups[d].clear();
    for (std::size_t i = 0; i < n; ++i) {
      SubRequest& s = items[i];
      if (s.parent->kind != RequestKind::kGetBatch) {
        execute(tid, s);
        continue;
      }
      if (drop_if_expired(ws, s.parent)) continue;  // doomed: never gathered
      Scratch& g = groups[idx(s.owner)];
      const Request* req = s.parent;
      for (std::uint32_t k = s.begin; k < s.end; ++k)
        g.keys.push_back(req->keys[req->order[k]]);
      g.slice.push_back(static_cast<std::uint32_t>(i));
      g.bounds.push_back(static_cast<std::uint32_t>(g.keys.size()));
    }
    for (std::size_t d = 0; d < nodes; ++d) {
      Scratch& g = groups[d];
      if (g.keys.empty()) continue;
      g.got.assign(g.keys.size(), std::nullopt);
      map_.sub_map(static_cast<int>(d))
          .get_many_into(tid, g.keys.data(), g.keys.size(), g.got.data());
      single_writer_add(ws.group_gathers);
      for (std::size_t j = 0; j < g.slices(); ++j) {
        SubRequest& s = items[g.slice[j]];
        Request* req = s.parent;
        const std::uint32_t gb = g.bounds[j], ge = g.bounds[j + 1];
        std::uint64_t hits = 0, sum = 0;
        for (std::uint32_t k = gb; k < ge; ++k) {
          const auto& v = g.got[k];
          if (v) {
            ++hits;
            sum += *v;
          }
          if (req->out) req->out[req->order[s.begin + (k - gb)]] = v;
        }
        if (hits) {
          req->hits.fetch_add(hits, std::memory_order_relaxed);
          req->value_sum.fetch_add(sum, std::memory_order_relaxed);
        }
        single_writer_add(ws.ops, ge - gb);
        single_writer_add(ws.subs);
        finish(ws, req);
      }
    }
  }

  ServeConfig cfg_;
  // Lease and deadline time source; always non-null (steady unless
  // cfg.clock); not owned.
  const ClockSource* clock_;
  Map map_;
  std::unique_ptr<WorkerStats[]> worker_stats_;  // indexed by pool tid
  std::unique_ptr<AdmitState[]> admit_;          // indexed by node
  // Expiry state, one per node; empty vectors when expiry is off.  Declared
  // before pool_: workers poll the sweepers from the maintenance lane.
  std::vector<std::unique_ptr<expiry::TimerWheel>> wheels_;
  std::vector<std::unique_ptr<expiry::ExpirySweeper<typename Map::SubMap>>>
      sweepers_;
  std::vector<std::vector<int>> sweep_targets_;  // exec node -> swept nodes
  alignas(64) std::atomic<std::uint64_t> rr_{0};  // oblivious round-robin
  WorkerPool<SubRequest> pool_;  // last member: workers see the rest built
};

}  // namespace bjrw::serve
