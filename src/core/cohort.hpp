// Topology-aware cohort transform over the paper's locks.
//
// Motivation (ROADMAP north star): dist_reader.hpp already makes the read
// fast path a purely local F&A, but it is topology-blind — its slots are a
// flat array, its writer gate is one global word, and every writer turn may
// migrate the lock (and the whole write-side cache state) across nodes.  On
// hierarchical machines (sockets, NUMA nodes, disaggregated memory pods)
// the first-order cost is crossing a node boundary, so CohortLock makes
// both sides of the lock node-aware:
//
//   Readers: per-node reader-indicator groups.  A reader touches only two
//   node-local lines — its node's writer gate and its own padded slot
//   within its node's group — so in steady state (writers quiescent) a
//   reader performs *zero* accesses outside its node, not merely zero RMRs.
//
//   Writers: per-node FIFO writer gates plus one global layer, which is the
//   wrapped paper lock.  Writers of a node queue on a node-local ticket;
//   the node's first writer (the cohort leader) raises every node's reader
//   gate, drains the fast-path readers, and acquires the wrapped lock.  A
//   releasing writer first offers the critical section to the next writer
//   of its *own* node — a cohort handoff: the global lock stays held, the
//   gates stay up, the drained slots stay drained, so the successor enters
//   after one node-local ticket step — and releases the global lock so
//   other nodes' leaders proceed after `handoff_budget` consecutive
//   handoffs, when no local writer waits, or — in the regimes that promise
//   readers anything — when a diverted reader is waiting (reader
//   preemption: a batch is extended only through phases where *only
//   writers* contend, so back-to-back updates batch while a read-mostly
//   mix gets the global lock back after every turn).  The writer-priority
//   regime disables reader preemption (CohortReaderPreempt): WP1 orders
//   readers behind waiting writers, and a preempted batch would let a
//   reader overtake a node-mate writer queued in the cohort layer, outside
//   the wrapped lock's doorway.
//
// Correctness (seq_cst under the default SeqCstPolicy; the annotated
// ordering requests below are honored only under HotPathPolicy, and every
// such site appears in the DESIGN.md §2 ordering ledger with its proof
// gate — the per-node Dekker pair is RMW-vs-RMW exactly like
// dist_reader.hpp, and the node-ticket handoff is a release publish /
// acquire consume pair):
//
//  * Exclusion (P1).  Fast-path reader: bump own slot, then load own node's
//    gate.  Batch leader: F&A every node's gate, then sweep every slot,
//    then acquire the wrapped lock.  The per-slot Dekker argument of
//    dist_reader.hpp applies per node: a reader whose gate load precedes
//    the leader's gate increment bumped its slot before the leader's sweep
//    read it, so the sweep waits for it; any later reader sees the raised
//    gate and diverts to the wrapped lock, which excludes it from writers.
//    Handoff preserves this: the gates have been up and the wrapped lock
//    held continuously since the leader's sweep, so no fast-path reader can
//    have settled between batch members — successors need no re-sweep.
//
//  * Cross-thread release.  The batch holds the wrapped lock under the
//    *leader's* tid; the batch's last writer releases it by passing that
//    recorded tid to the wrapped write_unlock.  The wrapped locks key all
//    per-attempt state off the tid argument (never thread identity), and
//    every field written by the leader is read by batch successors only
//    after a seq_cst transfer through the node ticket, so the release is
//    race-free.  The tid-uniqueness contract is preserved: the node ticket
//    serializes the node's writers, so at most one agent acts under the
//    leader's tid inside the wrapped lock at any time.
//
//  * Starvation freedom / regimes.  The node ticket is FIFO; handoffs are
//    bounded by the budget, after which the global lock is released and the
//    wrapped lock's own machinery (Anderson FCFS among writers, the paper's
//    gate/permit protocol toward readers) decides who proceeds — so each
//    regime keeps its property, with one documented weakening: readers and
//    remote writers can wait out one full batch (at most budget+1 critical
//    sections) before the wrapped lock's ordering applies.  That bounded
//    window is the standard cohort trade of fairness granularity for
//    node-locality (cf. lock cohorting, Dice/Marathe/Shavit PPoPP'12).
//
// RMR complexity (CC): reader O(1) and node-local on the fast path; batch
// leader O(nodes * slots_per_node) for the raise+sweep, amortized O(1) per
// batch member as the budget grows; handoff successors O(1).
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <memory>
#include <type_traits>

#include "src/core/mw_transform.hpp"
#include "src/core/mw_writer_pref.hpp"
#include "src/harness/spin.hpp"
#include "src/harness/stats.hpp"
#include "src/harness/topology.hpp"
#include "src/rmr/provider.hpp"

namespace bjrw {

// Whether a waiting diverted reader ends a handoff batch (see the header
// comment).  True by default — the starvation-free and reader-priority
// regimes both owe readers timely admission — and specialized off for the
// writer-priority substrate, whose WP1 contract is exactly that readers
// wait out writer bursts.
template <class Lock>
struct CohortReaderPreempt : std::true_type {};

template <class Provider, class Spin>
struct CohortReaderPreempt<MwWriterPrefLock<Provider, Spin>>
    : std::false_type {};

template <class Lock, class Provider = DefaultProvider, class Spin = YieldSpin>
class CohortLock {
  template <class T>
  using Atomic = typename Provider::template Atomic<T>;

 public:
  // Consecutive intra-node handoffs before the global lock must be
  // released: bounds remote writers' and diverted readers' extra wait to
  // one batch while amortizing the leader's raise+sweep over the batch.
  static constexpr int kDefaultHandoffBudget = 16;
  // Per-node reader-slot cap; bounds the leader's sweep and the slot
  // memory on huge nodes, at the cost of slot sharing between lanes.
  static constexpr int kMaxSlotsPerNode = 16;

  explicit CohortLock(int max_threads)
      : CohortLock(max_threads, Topology::detected()) {}

  CohortLock(int max_threads, Topology topo,
             int handoff_budget = kDefaultHandoffBudget)
      : topo_(std::move(topo)),
        node_count_(topo_.node_count()),
        slots_per_node_(clamp_slots(topo_.max_cpus_per_node(), max_threads)),
        budget_(handoff_budget < 0 ? 0 : handoff_budget),
        inner_(max_threads),
        gates_(std::make_unique<NodeGate[]>(
            static_cast<std::size_t>(node_count_))),
        queues_(std::make_unique<NodeQueue[]>(
            static_cast<std::size_t>(node_count_))),
        slots_(std::make_unique<Slot[]>(
            static_cast<std::size_t>(node_count_ * slots_per_node_))),
        rctx_(std::make_unique<ReaderCtx[]>(
            static_cast<std::size_t>(max_threads))),
        wctx_(std::make_unique<WriterCtx[]>(
            static_cast<std::size_t>(max_threads))) {
    assert(max_threads >= 1);
    // The tid→node/slot mapping is fixed at construction, so resolve it once
    // into each tid's own padded context line: the hot paths then read one
    // line they already own instead of walking the topology tables per op.
    // While resolving, detect whether the map is injective: an exclusively
    // owned slot is a single-writer counter, which lets the reader egress
    // weaken to a release store (ledger site C4, same proof as dist D4).
    std::unique_ptr<int[]> occupancy = std::make_unique<int[]>(
        static_cast<std::size_t>(node_count_ * slots_per_node_));
    bool exclusive = true;
    for (int t = 0; t < max_threads; ++t) {
      const int node = topo_.node_of_tid(t);
      rctx_[idx(t)].node = node;
      rctx_[idx(t)].slot = static_cast<int>(
          idx(node * slots_per_node_ + topo_.lane_of_tid(t) % slots_per_node_));
      wctx_[idx(t)].node = node;
      if (++occupancy[idx(rctx_[idx(t)].slot)] > 1) exclusive = false;
    }
    exclusive_slots_ = exclusive;
  }

  // ---- reader side ---------------------------------------------------------

  void read_lock(int tid) {
    ReaderCtx& ctx = rctx_[idx(tid)];
    NodeGate& g = gates_[idx(ctx.node)];
    // Ledger sites C1-C3 (DESIGN.md §2): same shape as dist_reader.hpp's
    // D1-D3, per node — the slot F&A is the reader's Dekker RMW, the gate
    // checks are acquires.
    if (g.rgate.load(ord::acquire) == 0) {  // writers quiescent: fast path
      Slot& s = slots_[idx(ctx.slot)];
      s.count.fetch_add(1, ord::acq_rel);  // announce on the node-local slot
      if (g.rgate.load(ord::acquire) == 0) {  // recheck: Dekker vs. raise
        ctx.fast = 1;
        return;
      }
      slot_release(s);                     // lost the race: back out
    }
    if constexpr (kReaderPreempt)
      reader_waiting_.store(1, std::memory_order_relaxed);  // advisory signal
    inner_.read_lock(tid);               // slow path: the paper lock's regime
    ctx.fast = 0;
  }

  void read_unlock(int tid) {
    ReaderCtx& ctx = rctx_[idx(tid)];
    if (ctx.fast != 0)
      slot_release(slots_[idx(ctx.slot)]);  // node-local egress (C4)
    else
      inner_.read_unlock(tid);
  }

  // ---- writer side ---------------------------------------------------------

  void write_lock(int tid) {
    NodeQueue& q = queues_[idx(wctx_[idx(tid)].node)];
    // Ledger sites C5-C8: the ticket draw needs only RMW atomicity (the
    // handoff happens-before edge rides the serving release/acquire pair,
    // C6/C10, which also carries the plain batch fields); the gate raise is
    // the leader's Dekker RMW and the sweep probes are acquires (C7/C8).
    const std::int64_t my = q.tickets.fetch_add(1, ord::relaxed);
    wctx_[idx(tid)].ticket = my;
    spin_until<Spin>([&] { return q.serving.load(ord::acquire) == my; });
    if (q.handoff != 0) {     // inherit the batch: gates up, slots drained,
      q.handoff = 0;          // wrapped lock still held under owner_tid
      return;
    }
    // Cohort leader: fresh global acquisition.
    for (int d = 0; d < node_count_; ++d)  // raise every node's gate
      gates_[idx(d)].rgate.fetch_add(1, ord::acq_rel);
    const int total = node_count_ * slots_per_node_;
    for (int i = 0; i < total; ++i)        // drain fast-path readers
      spin_until<Spin>(
          [&] { return slots_[idx(i)].count.load(ord::acquire) == 0; });
    inner_.write_lock(tid);                // the paper lock arbitrates nodes
    q.owner_tid = tid;
    q.batch = 0;
    single_writer_add(q.global_acquires);
  }

  void write_unlock(int tid) {
    NodeQueue& q = queues_[idx(wctx_[idx(tid)].node)];
    // Ledger site C9: the successor probe is a monotone-counter read — a
    // stale (smaller) value only misses a handoff and ends the batch, which
    // is always safe — so it needs no ordering at all.
    const bool successor =
        q.tickets.load(ord::relaxed) > wctx_[idx(tid)].ticket + 1;
    const bool exhausted = q.batch >= budget_;
    if (!exhausted && successor && !reader_preempted()) {
      ++q.batch;                 // pass the whole batch state to the next
      single_writer_add(q.handoffs);
      q.handoff = 1;             // local writer: global lock stays held
      // Ledger site C10: the batch-handoff publish — the release half
      // carries every plain NodeQueue field (handoff, owner_tid, batch) to
      // the successor's acquire spin (C6).
      q.serving.fetch_add(1, ord::release);
      return;
    }
    // Batch ends.  Reaching here with a non-exhausted budget and a queued
    // successor means reader_preempted() fired — that is the only way the
    // conjunction above fails — so the cut reason is fully determined.
    if (!exhausted && successor) single_writer_add(q.preempt_aborts);
    if constexpr (kReaderPreempt)
      // The release below admits the waiting readers whatever the cut
      // reason, so the advisory flag must not outlive the batch: carried
      // into the next batch it would be mis-attributed as a fresh
      // preemption (a phantom abort that cuts the batch short).
      reader_waiting_.store(0, std::memory_order_relaxed);
    inner_.write_unlock(q.owner_tid);      // release under the leader's tid
    for (int d = 0; d < node_count_; ++d)  // reopen the fast path
      // Ledger site C11: release half publishes the batch's CS writes to
      // fast-path readers admitted by a later acquire gate check (C1).
      gates_[idx(d)].rgate.fetch_sub(1, ord::acq_rel);
    // Ledger site C10 again: the batch-end publish to the next leader.
    q.serving.fetch_add(1, ord::release);
  }

  // ---- observers (tests/benches) -------------------------------------------

  int node_count() const { return node_count_; }
  int slots_per_node() const { return slots_per_node_; }
  int handoff_budget() const { return budget_; }
  const Topology& topology() const { return topo_; }
  const Lock& inner() const { return inner_; }

  // Writers queued or active on `node` right now (approximate under
  // concurrency — two racing loads — exact when choreographed by a test).
  std::int64_t writers_queued(int node) const {
    const NodeQueue& q = queues_[idx(node)];
    return q.tickets.load() - q.serving.load();
  }

  // Batch statistics: every write CS either inherited by handoff or
  // performed a fresh global acquisition, so handoffs() + global_acquires()
  // counts the write CSs entered.  Monotone and safe to read at any time
  // (see NodeQueue); exact for every write_lock that happens-before the
  // read.  preempt_aborts() counts batches cut short by a waiting diverted
  // reader (reader preemption).
  std::uint64_t handoffs() const { return sum(&NodeQueue::handoffs); }
  std::uint64_t global_acquires() const {
    return sum(&NodeQueue::global_acquires);
  }
  std::uint64_t preempt_aborts() const {
    return sum(&NodeQueue::preempt_aborts);
  }
  // The advisory reader-preemption signal is raised and not yet consumed
  // (always false in regimes with preemption disabled).  Like
  // writers_queued: approximate under concurrency, exact when the test
  // choreography pins who can raise/consume it.
  bool reader_waiting() const {
    return reader_waiting_.load(std::memory_order_relaxed) != 0;
  }

 private:
  static constexpr bool kReaderPreempt = CohortReaderPreempt<Lock>::value;

  // Consumes the advisory reader-waiting signal: true ends the batch (the
  // release admits the waiters; later arrivals re-raise the flag).
  bool reader_preempted() {
    if constexpr (!kReaderPreempt) return false;
    if (reader_waiting_.load(std::memory_order_relaxed) == 0) return false;
    reader_waiting_.store(0, std::memory_order_relaxed);
    return true;
  }

  static int clamp_slots(int node_cpus, int max_threads) {
    int s = node_cpus < kMaxSlotsPerNode ? node_cpus : kMaxSlotsPerNode;
    s = s < max_threads ? s : max_threads;
    return s < 1 ? 1 : s;
  }

  struct alignas(64) Slot {
    Slot() : count(0) {}
    Atomic<std::int64_t> count;
  };
  struct alignas(64) NodeGate {
    NodeGate() : rgate(0) {}
    Atomic<std::int64_t> rgate;  // >0: a leader somewhere is in/past its raise
  };
  // The plain fields are guarded by the ticket protocol: they are accessed
  // only between observing serving == my-ticket and the matching serving
  // increment, whose release/acquire pairing (seq_cst under the default
  // policy) carries the happens-before edge.  So the ticket holder is also
  // the one writer of the statistics stripes (single_writer_add); they are
  // std::atomic, not Provider::Atomic: readable live, invisible to RMRs.
  struct alignas(64) NodeQueue {
    NodeQueue() : tickets(0), serving(0) {}
    Atomic<std::int64_t> tickets;
    Atomic<std::int64_t> serving;
    int handoff = 0;    // next served writer inherits the batch
    int owner_tid = 0;  // tid under which the wrapped lock is held
    int batch = 0;      // handoffs since the leader's acquisition
    std::atomic<std::uint64_t> handoffs{0};  // statistics (see handoffs())
    std::atomic<std::uint64_t> global_acquires{0};
    std::atomic<std::uint64_t> preempt_aborts{0};
  };

  std::uint64_t sum(std::atomic<std::uint64_t> NodeQueue::*stripe) const {
    std::uint64_t total = 0;
    for (int d = 0; d < node_count_; ++d)
      total += (queues_[idx(d)].*stripe).load(std::memory_order_relaxed);
    return total;
  }
  // Per-tid contexts, resolved once at construction (node/slot) and padded
  // so each thread's hot-path line is its own.
  struct alignas(64) ReaderCtx {
    int fast = 0;
    int node = 0;
    int slot = 0;
  };
  struct alignas(64) WriterCtx {
    std::int64_t ticket = 0;
    int node = 0;
  };

  // Ledger site C4: the reader egress, identical reasoning to dist D4 —
  // not a Dekker side, so an exclusively owned slot (injective tid→slot
  // map, detected at construction) weakens to relaxed load + release
  // store; shared slots (lanes folded modulo slots_per_node) keep the
  // acq_rel RMW.  Proven by the explorer's kStoreEgress configuration
  // (weak_model.hpp) under both drain disciplines.  As in dist_reader,
  // the split egress is compiled only when the policy honors the release
  // request, so a SeqCstPolicy build keeps the historical single RMW.
  static constexpr bool kWeakEgress =
      Provider::OrderPolicy::template map<ord::Release>() !=
      std::memory_order_seq_cst;

  void slot_release(Slot& s) {
    if constexpr (kWeakEgress) {
      if (exclusive_slots_) {
        s.count.store(s.count.load(ord::relaxed) - 1, ord::release);
        return;
      }
    }
    s.count.fetch_sub(1, ord::acq_rel);
  }

  const Topology topo_;
  const int node_count_;
  const int slots_per_node_;
  const int budget_;
  bool exclusive_slots_ = false;  // tid→slot injective: single-writer slots
  // Reader-preemption signal: set (relaxed) by a diverting reader before it
  // enters the wrapped lock's read protocol, consumed by the releasing
  // writer, which ends its batch.  Advisory only — batch length is bounded
  // by the budget regardless — so it is a plain relaxed std::atomic flag,
  // outside the proven protocol and the instrumented cost model, like the
  // statistics stripes.
  alignas(64) std::atomic<int> reader_waiting_{0};
  Lock inner_;  // the paper lock underneath: global layer + regime substrate
  std::unique_ptr<NodeGate[]> gates_;
  std::unique_ptr<NodeQueue[]> queues_;
  std::unique_ptr<Slot[]> slots_;
  std::unique_ptr<ReaderCtx[]> rctx_;
  std::unique_ptr<WriterCtx[]> wctx_;
};

// The three priority regimes with the cohort transform on top.
template <class Provider = DefaultProvider, class Spin = YieldSpin>
using CohortMwStarvationFreeLock =
    CohortLock<MwStarvationFreeLock<Provider, Spin>, Provider, Spin>;

template <class Provider = DefaultProvider, class Spin = YieldSpin>
using CohortMwReaderPrefLock =
    CohortLock<MwReaderPrefLock<Provider, Spin>, Provider, Spin>;

template <class Provider = DefaultProvider, class Spin = YieldSpin>
using CohortMwWriterPrefLock =
    CohortLock<MwWriterPrefLock<Provider, Spin>, Provider, Spin>;

}  // namespace bjrw
