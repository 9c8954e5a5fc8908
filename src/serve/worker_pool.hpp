// Pinned per-node worker pools over bounded MPMC queues — the execution
// layer of the serving runtime.
//
// Each topology node owns one queue and `workers_per_node` worker threads.
// A worker is pinned (Topology::pin_this_thread) to one of its node's CPUs
// and is handed the *pool tid* matching that CPU, so every lock and map
// stripe the worker touches resolves — through the same tid→node mapping
// the cohort locks use — to its own node.  That is what makes "node-local
// placement" real: the dispatch layer (server.hpp) routes a shard's work to
// the shard's owning node, and the worker executing it is the thread whose
// tid the topology maps there.
//
// The queue is Dmitry Vyukov's bounded MPMC ring: each cell carries a
// sequence number; producers claim cells with a CAS on the head when the
// cell's sequence says "free at this lap", consumers symmetrically on the
// tail.  Under contention every operation is one CAS plus two cell-line
// accesses; head, tail, and the cells are cache-line padded so producers on
// one node and its consumers never false-share.  Memory ordering follows
// the published algorithm (acquire/release on the cell sequence, relaxed
// cursor loads).  Historically this was the documented exception to §2's
// seq_cst-everywhere rule; since the relaxed-memory port it is simply the
// normal case of the ordering-policy architecture — the lock protocols
// now carry their own per-site weak orderings through the Provider
// policy, recorded in the §2 ledger with their proof gates.
//
// Shutdown is graceful by construction: shutdown() flips `stopping`, after
// which submissions are refused, and workers keep popping until their queue
// answers empty *after* stopping was observed — so everything enqueued
// before shutdown() is executed, never dropped (the in-flight-request
// drain the tests pin).
//
// Elasticity (DESIGN.md §12): the pool spawns max_width workers per node
// but only min_width of them are committed spinners.  A worker beyond the
// floor that finds its queue empty for park_grace_ns parks on the node's
// wake epoch (std::atomic wait/notify — a futex on Linux); a fixed-width
// pool (min_width == max_width) never parks.  Submitters wake parked workers
// when the published depth outruns the awake width, and shutdown() wakes
// everyone.  The park protocol reuses the shutdown drain's seq_cst Dekker
// shape, so parking can never strand an accepted item (see park()).
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "src/harness/idle.hpp"
#include "src/harness/spin.hpp"
#include "src/harness/timing.hpp"
#include "src/harness/topology.hpp"
#include "src/rmr/provider.hpp"
#include "src/serve/config.hpp"

namespace bjrw::serve {

// Vyukov bounded MPMC queue.  Capacity is rounded up to a power of two
// (minimum 2) so cell addressing is a mask, not a division; a capacity
// above kMaxQueueCapacity has no such power and throws
// std::invalid_argument.
template <class T>
class BoundedMpmcQueue {
 public:
  explicit BoundedMpmcQueue(std::size_t capacity) {
    if (capacity > kMaxQueueCapacity)
      throw std::invalid_argument(
          "BoundedMpmcQueue: capacity above the largest power of two");
    const std::size_t cap = std::bit_ceil(capacity < 2 ? 2 : capacity);
    mask_ = cap - 1;
    cells_ = std::make_unique<Cell[]>(cap);
    for (std::size_t i = 0; i < cap; ++i)
      cells_[i].seq.store(i, std::memory_order_relaxed);
  }

  std::size_t capacity() const { return mask_ + 1; }

  // Publish: claims a run of up to `n` consecutive free cells with ONE CAS
  // on the producer cursor, then publishes values[0..k) into them.  Returns
  // k, 0 when the queue is full at the attempt (n == 1 is Vyukov's
  // single-cell push).  The run claim is safe because a cell observed free
  // at this lap (seq == pos + j) can only leave that state when a producer
  // claims it, and producers claim by advancing the head past it — our
  // pending CAS either wins (the whole run is ours, nothing else wrote it)
  // or loses (we retry against the fresh cursor having written nothing).
  // Orderings are the single-cell ones run-length-many times: acquire on
  // the scanned cell sequences, release on each publish (DESIGN.md §11).
  std::size_t try_push_bulk(const T* values, std::size_t n) {
    if (n == 0) return 0;
    std::size_t pos = head_.load(std::memory_order_relaxed);
    std::size_t run = 0;
    for (;;) {
      const Cell& first = cells_[pos & mask_];
      const std::intptr_t diff =
          static_cast<std::intptr_t>(
              first.seq.load(std::memory_order_acquire)) -
          static_cast<std::intptr_t>(pos);
      if (diff < 0) return 0;  // cell still holds last lap's value: full
      if (diff > 0) {
        pos = head_.load(std::memory_order_relaxed);  // raced; refresh
        continue;
      }
      run = 1;
      while (run < n) {
        const Cell& c = cells_[(pos + run) & mask_];
        if (static_cast<std::intptr_t>(
                c.seq.load(std::memory_order_acquire)) !=
            static_cast<std::intptr_t>(pos + run))
          break;  // first non-free cell ends the run (a full lap wraps here)
        ++run;
      }
      if (head_.compare_exchange_weak(pos, pos + run,
                                      std::memory_order_relaxed))
        break;  // run [pos, pos + run) claimed
      // CAS failure reloaded pos; rescan against the new cursor.
    }
    for (std::size_t j = 0; j < run; ++j) {
      Cell& c = cells_[(pos + j) & mask_];
      c.value = values[j];
      c.seq.store(pos + j + 1, std::memory_order_release);
    }
    return run;
  }

  // True when every claimed cell has also been consumed: the pop cursor
  // has caught up with the push cursor.  Distinguishes "truly empty" from
  // "a producer has claimed a cell but not yet published it" (try_pop_bulk
  // reports empty for both) — the shutdown drain needs the distinction.
  bool drained() const {
    return tail_.load(std::memory_order_seq_cst) ==
           head_.load(std::memory_order_seq_cst);
  }

  // Approximate published-but-unclaimed depth (cursor distance).  Racy by
  // nature — a snapshot for wake heuristics and tests, never for
  // correctness decisions.
  std::size_t depth() const {
    const std::size_t h = head_.load(std::memory_order_relaxed);
    const std::size_t t = tail_.load(std::memory_order_relaxed);
    return h >= t ? h - t : 0;
  }

  // Consume: claims a run of up to `n` consecutive *published* cells
  // with ONE CAS on the consumer cursor, copies them out FIFO, then frees
  // each cell for the next lap.  Returns the run length, 0 when the queue
  // is empty at the attempt.  Mirror of try_push_bulk: a cell observed
  // published at this lap (seq == pos + j + 1) stays published until a
  // consumer advances the tail past it, so the single CAS either owns the
  // whole scanned run or fails having read nothing.  Producers cannot
  // recycle a cell in the run either — they need its seq advanced to the
  // next lap, which only the winning consumer's release store does.
  std::size_t try_pop_bulk(T* out, std::size_t n) {
    if (n == 0) return 0;
    std::size_t pos = tail_.load(std::memory_order_relaxed);
    std::size_t run = 0;
    for (;;) {
      const Cell& first = cells_[pos & mask_];
      const std::intptr_t diff =
          static_cast<std::intptr_t>(
              first.seq.load(std::memory_order_acquire)) -
          static_cast<std::intptr_t>(pos + 1);
      if (diff < 0) return 0;  // not published this lap yet: empty
      if (diff > 0) {
        pos = tail_.load(std::memory_order_relaxed);  // raced; refresh
        continue;
      }
      run = 1;
      while (run < n) {
        const Cell& c = cells_[(pos + run) & mask_];
        if (static_cast<std::intptr_t>(
                c.seq.load(std::memory_order_acquire)) !=
            static_cast<std::intptr_t>(pos + run + 1))
          break;  // first unpublished cell ends the run
        ++run;
      }
      if (tail_.compare_exchange_weak(pos, pos + run,
                                      std::memory_order_relaxed))
        break;  // run [pos, pos + run) claimed
      // CAS failure reloaded pos; rescan against the new cursor.
    }
    for (std::size_t j = 0; j < run; ++j) {
      Cell& c = cells_[(pos + j) & mask_];
      out[j] = c.value;
      c.seq.store(pos + j + mask_ + 1, std::memory_order_release);
    }
    return run;
  }

 private:
  struct alignas(64) Cell {
    std::atomic<std::size_t> seq;
    T value;
  };

  std::unique_ptr<Cell[]> cells_;
  std::size_t mask_ = 1;
  alignas(64) std::atomic<std::size_t> head_{0};  // producer cursor
  alignas(64) std::atomic<std::size_t> tail_{0};  // consumer cursor
};

// Slices a worker claims per poll, clamped to the ring capacity: one
// cursor CAS, one handler call and — for batched gets — one lock epoch per
// shard group cover the whole run.  A burst never waits to fill: a
// near-idle queue still hands over runs of one (DESIGN.md §11, §8 V3).
inline constexpr std::size_t kBurst = 16;

// Per-node pools of pinned workers draining per-node queues.  Item is the
// queue element (the runtime uses SubRequest); the handler runs on the
// worker thread as handler(pool_tid, node, items, n) over a claimed run of
// 1..kBurst items.
//
// Memory-only NUMA nodes (zero CPUs, representable since the sparse-sysfs
// parser) get no workers and an empty queue: submits addressed to them are
// rerouted to the nearest CPU-bearing node (Topology::nearest_cpu_node) at
// the single submit choke point, so shard placement can keep striping over
// *all* nodes while execution only ever lands where threads can run.
// Without the reroute the width clamp would hit 0 and every submit would
// spin forever against a consumerless queue.
template <class Item>
class WorkerPool {
 public:
  // The worker hands over a whole claimed run and the handler runs it to
  // completion before the next poll.
  using Handler =
      std::function<void(int tid, int node, Item* items, std::size_t n)>;
  // Low-priority maintenance lane (the expiry sweep rides here): invoked by
  // a worker when its queue polls empty, and every kMaintenanceStride
  // successful polls under sustained load so maintenance debt stays bounded
  // when the queue never runs dry.  Returns true when it did work — the
  // worker then defers parking the way real work does.  Must never block;
  // not called once shutdown starts draining.
  using MaintenanceHandler = std::function<bool(int tid, int node)>;

  // The pool consumes the pool-geometry and elasticity fields of the
  // consolidated ServeConfig (config.hpp); validate() throws on nonsense.
  WorkerPool(const Topology& topo, const ServeConfig& cfg, Handler handler,
             MaintenanceHandler maintenance = {})
      : topo_(topo),
        handler_(std::move(handler)),
        maintenance_(std::move(maintenance)) {
    init(cfg.validate());
  }

  ~WorkerPool() { shutdown(); }
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  int node_count() const { return topo_.node_count(); }
  // Spawned width per CPU-bearing node: max_width after the CPU clamp.
  int workers_per_node() const { return workers_per_node_; }
  // Committed (never-parking) width per CPU-bearing node.
  int min_width() const { return min_width_; }
  // Workers actually spawned for node d: 0 for a memory-only node.  Stats
  // aggregation must iterate this, not workers_per_node() — a zero-CPU
  // node's worker_tid range is empty and aliasing into it reads the next
  // node's stripes.
  int workers_in_node(int d) const {
    return topo_.cpus_in_node(d) > 0 ? workers_per_node_ : 0;
  }
  int worker_count() const {
    int total = 0;
    for (int d = 0; d < topo_.node_count(); ++d) total += workers_in_node(d);
    return total;
  }
  // The tid worker w of node d passes to locks/maps (a logical CPU index,
  // so callers sizing max_threads use topo.cpu_count()).
  int worker_tid(int node, int w) const { return node_base_[idx(node)] + w; }
  // Where submits addressed to node d actually execute (d itself unless d
  // is memory-only).
  int execution_node(int d) const { return route_[idx(d)]; }
  // Workers whose pin_this_thread succeeded (0 on hosts narrower than the
  // simulated topology — the pool then runs unpinned but correctly mapped).
  int pinned_workers() const {
    return pinned_.load(std::memory_order_relaxed);
  }

  // Publishes items[0..n) to node d's queue, one ring reservation per
  // claimed run, yielding through full-queue backpressure.  Returns the
  // published prefix k; k < n only when the pool is stopping (a full queue
  // never refuses).  Every published item will be executed by the shutdown
  // drain, even when the call races shutdown().  The guarantee is carried
  // by the per-node `submitting` window (seq_cst, like shutdown's stop
  // store and the workers' exit check): the whole batch publishes inside
  // ONE window, and a call whose stop load read false ordered its
  // window-open before the stop store in the single total order, so a
  // draining worker cannot observe its node's window count at 0 until the
  // call has published its prefix.  The stop check before each push
  // attempt bounds how far a batch racing shutdown() can run.  The window
  // lives in the target node's padded NodeState line, so submits to
  // different nodes never contend on it.
  std::size_t submit_many(int d, const Item* items, std::size_t n) {
    if (n == 0) return 0;
    NodeState& node = nodes_[idx(route_[idx(d)])];
    node.submitting.fetch_add(1, std::memory_order_seq_cst);
    std::size_t done = 0;
    while (done < n) {
      if (stopping_.load(std::memory_order_seq_cst)) break;
      const std::size_t k = node.queue->try_push_bulk(items + done, n - done);
      if (k == 0) {
        node.backpressure.fetch_add(1, std::memory_order_relaxed);
        YieldSpin::relax();
        continue;
      }
      done += k;
    }
    node.submitting.fetch_sub(1, std::memory_order_seq_cst);
    if (done > 0) maybe_wake(node);
    return done;
  }

  // Refuses new work, drains everything already queued, joins the workers.
  // The epoch bump + notify after the stop store reaches workers already
  // parked (or about to park: their pre-wait re-check reads `stopping`
  // seq_cst after our store, or their wait sees the bumped epoch and
  // returns immediately).  Idempotent; also run by the destructor.
  void shutdown() {
    stopping_.store(true, std::memory_order_seq_cst);
    for (int d = 0; d < topo_.node_count(); ++d) {
      NodeState& n = nodes_[idx(d)];
      n.epoch.fetch_add(1, std::memory_order_seq_cst);
      n.epoch.notify_all();
    }
    for (auto& t : threads_)
      if (t.joinable()) t.join();
  }

  std::uint64_t executed(int d) const {
    return nodes_[idx(d)].executed.load(std::memory_order_relaxed);
  }
  std::uint64_t backpressure(int d) const {
    return nodes_[idx(d)].backpressure.load(std::memory_order_relaxed);
  }
  // Dequeues performed for node d (executed(d) / bursts(d) is the
  // realized mean burst depth).
  std::uint64_t bursts(int d) const {
    return nodes_[idx(d)].bursts.load(std::memory_order_relaxed);
  }
  // Elasticity observers: instantaneous parked width, cumulative park and
  // wake-notify counts, and the queue-depth snapshot admission reads.
  int parked(int d) const {
    return nodes_[idx(d)].parked.load(std::memory_order_relaxed);
  }
  std::uint64_t parks(int d) const {
    return nodes_[idx(d)].parks.load(std::memory_order_relaxed);
  }
  std::uint64_t wakes(int d) const {
    return nodes_[idx(d)].wakes.load(std::memory_order_relaxed);
  }
  std::size_t queue_depth(int d) const {
    return nodes_[idx(route_[idx(d)])].queue->depth();
  }

 private:
  struct alignas(64) NodeState {
    std::unique_ptr<BoundedMpmcQueue<Item>> queue;
    std::atomic<int> submitting{0};  // open submit windows (submit_many)
    std::atomic<std::uint64_t> executed{0};
    std::atomic<std::uint64_t> backpressure{0};
    std::atomic<std::uint64_t> bursts{0};
    // Park/wake state (see park()): `epoch` is the wake word workers wait
    // on, `parked` the advertised parked count (seq_cst Dekker with the
    // submit window), `parks`/`wakes` cumulative counters for observers.
    std::atomic<std::uint32_t> epoch{0};
    std::atomic<int> parked{0};
    std::atomic<std::uint64_t> parks{0};
    std::atomic<std::uint64_t> wakes{0};
  };

  void init(const ServeConfig& cfg) {
    const int nodes = topo_.node_count();
    grace_ns_ = cfg.park_grace_ns;
    // Pool tids are logical-CPU indices: node d's w-th worker gets the tid
    // of that node's w-th CPU, which node_of_tid maps straight back to d.
    // More workers than the narrowest node has CPUs would force tids into
    // other nodes' ranges, so the width is clamped instead.  Memory-only
    // nodes are excluded from the clamp (they spawn no workers at all);
    // otherwise a single zero-CPU node would clamp the whole pool to 0.
    int width = cfg.max_width;
    for (int d = 0; d < nodes; ++d) {
      const int c = topo_.cpus_in_node(d);
      if (c <= 0) continue;
      width = width < c ? width : c;
    }
    workers_per_node_ = width;
    // The committed floor rides the same clamp; at least one worker per
    // CPU-bearing node never parks, which is what makes the wake heuristic
    // a latency lever rather than a liveness requirement.
    min_width_ = cfg.min_width < width ? cfg.min_width : width;
    node_base_.resize(static_cast<std::size_t>(nodes));
    route_.resize(static_cast<std::size_t>(nodes));
    int base = 0;
    for (int d = 0; d < nodes; ++d) {
      node_base_[idx(d)] = base;
      base += topo_.cpus_in_node(d);
      route_[idx(d)] =
          topo_.cpus_in_node(d) > 0 ? d : topo_.nearest_cpu_node(d);
    }
    nodes_ = std::make_unique<NodeState[]>(static_cast<std::size_t>(nodes));
    for (int d = 0; d < nodes; ++d)
      nodes_[idx(d)].queue =
          std::make_unique<BoundedMpmcQueue<Item>>(cfg.queue_capacity);
    threads_.reserve(static_cast<std::size_t>(worker_count()));
    for (int d = 0; d < nodes; ++d)
      for (int w = 0; w < workers_in_node(d); ++w)
        threads_.emplace_back([this, d, w, pin = cfg.pin_workers] {
          worker_main(d, w, pin);
        });
  }

  void worker_main(int d, int w, bool pin) {
    const int tid = worker_tid(d, w);
    if (pin && topo_.pin_this_thread(tid))
      pinned_.fetch_add(1, std::memory_order_relaxed);
    NodeState& n = nodes_[idx(d)];
    // Workers beyond the committed floor are the elastic ones: only they
    // park, so a fixed-width pool is all spinners.
    const bool may_park = w >= min_width_;
    std::vector<Item> batch(std::min(kBurst, n.queue->capacity()));
    IdlePolicy idle(grace_ns_);
    std::uint32_t polls_since_maint = 0;
    for (;;) {
      const std::size_t k = n.queue->try_pop_bulk(batch.data(), batch.size());
      if (k > 0) {
        handler_(tid, d, batch.data(), k);
        n.executed.fetch_add(k, std::memory_order_relaxed);
        n.bursts.fetch_add(1, std::memory_order_relaxed);
        idle.progressed();
        maintenance_stride(tid, d, &polls_since_maint);
        continue;
      }
      // Empty right now.  Exit only once, after observing stopping, the
      // queue is *drained* (every claimed cell consumed — not merely
      // "try_pop_bulk said empty", which a claimed-but-unpublished cell
      // also produces) and no submit window is open.  Together with
      // submit_many()'s seq_cst window this closes the race where a push
      // that passed its stop check lands after a worker's last empty
      // probe: such a push holds the window open until its item is
      // published, and a published item keeps drained() false until
      // popped.
      // Order matters: the window check precedes the drain check.  A
      // window observed closed published its item *before* the close, so
      // the later drained() read sees that item if it is unconsumed; a
      // window opened after the 0-read observes stopping (its open
      // follows this check, hence the stop store, in the seq_cst total
      // order) and refuses.  Checked the other way around, an item could
      // publish between a stale drained() read and the 0-read and be
      // stranded.
      if (stopping_.load(std::memory_order_seq_cst)) {
        if (n.submitting.load(std::memory_order_seq_cst) == 0 &&
            n.queue->drained())
          return;
      } else if (maintenance_ && maintenance_(tid, d)) {
        // The lane did work: treat it like a non-empty poll so an elastic
        // worker does not park mid-sweep.  (Skipped once stopping: a
        // steady maintenance trickle must not stall the shutdown drain.)
        idle.progressed();
        continue;
      }
      if (may_park && idle.should_park(now_ns())) {
        park(n);
        idle.progressed();  // a fresh grace period after every wake
        continue;
      }
      YieldSpin::relax();
    }
  }

  // Busy-path maintenance pacing: under sustained load the queue never
  // polls empty, so the lane is also run every kMaintenanceStride
  // successful polls — cheap counter upkeep on the hot path, and the
  // sweeper's own fast-path hint makes a no-work call a single load.
  void maintenance_stride(int tid, int d, std::uint32_t* polls) {
    if (!maintenance_) return;
    if (++*polls < kMaintenanceStride) return;
    *polls = 0;
    maintenance_(tid, d);
  }

  // Parks this worker on the node's wake epoch until a submitter or
  // shutdown() bumps it.  The protocol mirrors the shutdown drain's
  // seq_cst Dekker, with `parked` playing the role `submitting` plays
  // there: the worker advertises itself parked (seq_cst RMW) and only
  // THEN re-checks for work.  A submit whose window-close preceded our
  // re-check left its item visible to the drained() probe, so we skip the
  // wait; a submit whose window-close followed it reads `parked` seq_cst
  // after our RMW, sees us, and bumps the epoch — and the value re-check
  // inside atomic::wait turns a bump that lands before the wait into an
  // immediate return rather than a lost wakeup.  The same two-way split
  // covers shutdown via its stop-store + epoch bump.  Hence: no item is
  // ever published while every eligible worker sleeps un-notified, and
  // the committed min_width floor never parks at all.
  void park(NodeState& n) {
    const std::uint32_t e = n.epoch.load(std::memory_order_seq_cst);
    n.parked.fetch_add(1, std::memory_order_seq_cst);
    if (n.submitting.load(std::memory_order_seq_cst) == 0 &&
        n.queue->drained() &&
        !stopping_.load(std::memory_order_seq_cst)) {
      n.parks.fetch_add(1, std::memory_order_relaxed);
      n.epoch.wait(e, std::memory_order_seq_cst);
    }
    n.parked.fetch_sub(1, std::memory_order_seq_cst);
  }

  // Post-publish wake heuristic: grow the awake width only when the
  // published depth outruns it (one queued item per awake worker), so a
  // trickle stays on the committed floor while a burst fans out.  Pure
  // latency lever — min_width keeps at least one spinner draining, so a
  // missed wake can delay an item but never strand it.
  void maybe_wake(NodeState& n) {
    const int p = n.parked.load(std::memory_order_seq_cst);
    if (p == 0) return;
    const int awake = workers_per_node_ - p;
    if (awake > 0 && n.queue->depth() <= static_cast<std::size_t>(awake))
      return;
    n.epoch.fetch_add(1, std::memory_order_seq_cst);
    n.epoch.notify_one();
    n.wakes.fetch_add(1, std::memory_order_relaxed);
  }

  static constexpr std::uint32_t kMaintenanceStride = 32;

  const Topology topo_;
  Handler handler_;
  MaintenanceHandler maintenance_;
  int workers_per_node_ = 1;  // spawned (elastic ceiling) after CPU clamp
  int min_width_ = 1;         // committed floor: these never park
  std::uint64_t grace_ns_ = kDefaultParkGraceNs;
  std::vector<int> node_base_;  // node -> first logical CPU index (pool tid)
  std::vector<int> route_;      // node -> nearest CPU-bearing node (or self)
  std::unique_ptr<NodeState[]> nodes_;
  std::vector<std::thread> threads_;
  std::atomic<bool> stopping_{false};
  std::atomic<int> pinned_{0};
};

}  // namespace bjrw::serve
