// Tier-1 suite for the lease/TTL expiry subsystem threaded through the
// serving runtime (src/expiry/ + src/serve/): KvServer::put_with_ttl /
// touch semantics, the two deterministic VirtualClock guarantees the
// acceptance bar names —
//
//   * an expired key is NEVER served (lazy read filter; independent of how
//     far the background sweep lags), and
//   * a key rewritten after its expiry was scheduled is NEVER stale-deleted
//     (the rewrite bumps the lease version; the sweep compares-and-erases)
//
// — plus config validation, per-node expiry stats plumbing, and the
// ServeStream TTL mix determinism the loadgen comparisons rely on.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

#include "src/core/locks.hpp"
#include "src/harness/timing.hpp"
#include "src/harness/topology.hpp"
#include "src/harness/workload.hpp"
#include "src/serve/server.hpp"

namespace bjrw::serve {
namespace {

using Server = KvServer<CohortWriterPriorityLock>;

constexpr std::uint64_t kMs = 1'000'000;

ServeConfig expiry_config(const ClockSource* clock) {
  return ServeConfig{}
      .with_workers(2)
      .with_expiry(/*resolution_ns=*/1 * kMs)
      .with_expiry_wheel(/*slots=*/16, /*levels=*/3)
      .with_clock(clock);
}

// Sums a lease-counter field across nodes (polled while the workers run).
template <class F>
std::uint64_t sum_nodes(Server& s, F field) {
  std::uint64_t total = 0;
  for (int d = 0; d < s.node_count(); ++d) total += field(s.node_stats(d));
  return total;
}

// Spins (real time) until `pred` holds or ~5s pass; the sweep runs on the
// worker pools' maintenance lane, so "eventually" is bounded by worker
// poll cadence, not by the virtual clock.
template <class Pred>
bool eventually(Pred pred) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!pred()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

TEST(ExpiryServe, ConfigValidatesExpiryKnobs) {
  EXPECT_THROW(ServeConfig{}.with_expiry(0), std::invalid_argument);
  EXPECT_THROW(ServeConfig{}.with_expiry_wheel(12, 3), std::invalid_argument);
  EXPECT_THROW(ServeConfig{}.with_expiry_wheel(16, 0), std::invalid_argument);
  // Direct field assignment hits the same gate at server construction.
  ServeConfig cfg;
  cfg.expiry_wheel_slots = 7;
  EXPECT_THROW(Server(Topology::simulated(1, 2), cfg), std::invalid_argument);
}

TEST(ExpiryServe, ExpiredKeyIsNeverServed) {
  VirtualClock clock(1'000 * kMs);
  Server server(Topology::simulated(2, 4), expiry_config(&clock));

  server.put_with_ttl(5, 50, /*ttl_ns=*/10 * kMs);
  EXPECT_EQ(server.get(5).value_or(0), 50u);

  clock.advance(9 * kMs);
  EXPECT_EQ(server.get(5).value_or(0), 50u);  // still inside the lease

  clock.advance(2 * kMs);  // past the deadline
  // Deterministic: the read path filters the expired lease regardless of
  // whether the sweep has physically erased it yet.
  EXPECT_FALSE(server.get(5).has_value());
  // And it never comes back.
  clock.advance(100 * kMs);
  EXPECT_FALSE(server.get(5).has_value());

  // The background sweep eventually erases the entry physically.
  EXPECT_TRUE(eventually([&] {
    return sum_nodes(server, [](const NodeServeStats& s) {
             return s.leases_expired;
           }) == 1;
  }));
  EXPECT_EQ(server.map().size(), 0u);
  server.shutdown();
}

TEST(ExpiryServe, RewrittenKeyIsNeverStaleDeleted) {
  VirtualClock clock(1'000 * kMs);
  Server server(Topology::simulated(2, 4), expiry_config(&clock));

  server.put_with_ttl(7, 70, /*ttl_ns=*/5 * kMs);
  // Racing rewrite: the plain put bumps the lease version and clears the
  // deadline, but the wheel still holds the old {key, version, deadline}.
  server.put(7, 71);

  clock.advance(50 * kMs);  // the scheduled expiry falls due
  // The sweep must pop the stale lease and skip it (version mismatch).
  EXPECT_TRUE(eventually([&] {
    return sum_nodes(server, [](const NodeServeStats& s) {
             return s.lease_stale_skips;
           }) >= 1;
  }));
  // The rewritten value survives, no matter how long we wait.
  EXPECT_EQ(server.get(7).value_or(0), 71u);
  EXPECT_EQ(sum_nodes(server,
                      [](const NodeServeStats& s) { return s.leases_expired; }),
            0u);
  server.shutdown();
}

TEST(ExpiryServe, TouchExtendsButNeverResurrects) {
  VirtualClock clock(1'000 * kMs);
  Server server(Topology::simulated(2, 4), expiry_config(&clock));

  server.put_with_ttl(9, 90, 10 * kMs);
  clock.advance(8 * kMs);
  EXPECT_TRUE(server.touch(9, 10 * kMs));  // new deadline: now + 10ms

  clock.advance(5 * kMs);  // past the ORIGINAL deadline
  EXPECT_EQ(server.get(9).value_or(0), 90u);  // extension held

  clock.advance(6 * kMs);  // past the extended deadline
  EXPECT_FALSE(server.get(9).has_value());
  EXPECT_FALSE(server.touch(9, 10 * kMs));  // expired: touch refuses
  EXPECT_FALSE(server.get(9).has_value());
  EXPECT_FALSE(server.touch(12345, kMs));  // absent key
  server.shutdown();
}

TEST(ExpiryServe, EraseThenReLeaseSkipsTheErasedLease) {
  VirtualClock clock(1'000 * kMs);
  Server server(Topology::simulated(2, 4), expiry_config(&clock));

  // Erase leaves the 10ms lease in the wheel; the re-lease stamps a newer
  // version, so the old lease must not delete the new entry when it falls
  // due.
  server.put_with_ttl(11, 1, 10 * kMs);
  EXPECT_TRUE(server.erase(11));
  server.put_with_ttl(11, 2, 50 * kMs);

  clock.advance(20 * kMs);  // past the erased lease, inside the new one
  EXPECT_TRUE(eventually([&] {
    return sum_nodes(server, [](const NodeServeStats& s) {
             return s.lease_stale_skips;
           }) >= 1;
  }));
  EXPECT_EQ(server.get(11).value_or(0), 2u);
  EXPECT_EQ(sum_nodes(server,
                      [](const NodeServeStats& s) { return s.leases_expired; }),
            0u);

  clock.advance(40 * kMs);  // past the new lease
  EXPECT_FALSE(server.get(11).has_value());
  EXPECT_TRUE(eventually([&] {
    return sum_nodes(server, [](const NodeServeStats& s) {
             return s.leases_expired;
           }) == 1;
  }));
  EXPECT_EQ(server.map().size(), 0u);
  server.shutdown();
}

TEST(ExpiryServe, DefaultConfigHonoursTtlAndTouch) {
  VirtualClock clock(1'000 * kMs);
  Server server(Topology::simulated(2, 4), ServeConfig{}.with_clock(&clock));

  server.put_with_ttl(3, 30, 10 * kMs);
  EXPECT_TRUE(server.touch(3, 20 * kMs));
  clock.advance(15 * kMs);  // past the put's lease, inside the touch's
  EXPECT_EQ(server.get(3).value_or(0), 30u);
  clock.advance(10 * kMs);  // past the touch's lease
  EXPECT_FALSE(server.get(3).has_value());
  EXPECT_FALSE(server.touch(3, kMs));

  // Both leases deliver: the put's is skipped (the touch bumped the
  // version), the touch's expires the entry.
  EXPECT_EQ(sum_nodes(server,
                      [](const NodeServeStats& s) { return s.leases_scheduled; }),
            2u);
  EXPECT_TRUE(eventually([&] {
    return sum_nodes(server, [](const NodeServeStats& s) {
             return s.leases_expired + s.lease_stale_skips;
           }) == 2;
  }));
  EXPECT_EQ(sum_nodes(server,
                      [](const NodeServeStats& s) { return s.leases_expired; }),
            1u);
  EXPECT_EQ(server.map().size(), 0u);
  server.shutdown();
}

TEST(ExpiryServe, HugeTtlSaturatesToALeaseThatNeverFallsDue) {
  // execution time + TTL must saturate, not wrap: wrapped, a TTL near
  // 2^64 puts the deadline in the past and the key expires at once.
  VirtualClock clock(1'000 * kMs);
  Server server(Topology::simulated(2, 4), expiry_config(&clock));

  server.put_with_ttl(13, 130, ~std::uint64_t{0});
  EXPECT_EQ(server.get(13).value_or(0), 130u);
  clock.advance(1'000'000 * kMs);
  EXPECT_EQ(server.get(13).value_or(0), 130u);
  EXPECT_TRUE(server.touch(13, ~std::uint64_t{0}));
  clock.advance(1'000'000 * kMs);
  EXPECT_EQ(server.get(13).value_or(0), 130u);
  server.shutdown();
}

// An expiry storm: every key leased, the clock jumps past every deadline,
// and the sweep drains the whole population in batches.  Scheduled /
// expired / sweep-batch counters must reconcile exactly.
TEST(ExpiryServe, StormExpiresEveryLeaseAndCountsReconcile) {
  VirtualClock clock(1'000 * kMs);
  VirtualClock* clk = &clock;
  ServeConfig cfg = ServeConfig{}
                        .with_workers(2)
                        .with_expiry(/*resolution_ns=*/1 * kMs)
                        .with_expiry_wheel(16, 3)
                        .with_clock(clk);
  Server server(Topology::simulated(2, 4), cfg);

  constexpr std::uint64_t kKeys = 500;
  for (std::uint64_t k = 0; k < kKeys; ++k)
    server.put_with_ttl(k, k, (1 + k % 40) * kMs);
  EXPECT_EQ(server.map().size(), kKeys);
  EXPECT_EQ(sum_nodes(server,
                      [](const NodeServeStats& s) { return s.leases_scheduled; }),
            kKeys);

  clock.advance(100 * kMs);  // every lease overdue
  EXPECT_TRUE(eventually([&] {
    return sum_nodes(server, [](const NodeServeStats& s) {
             return s.leases_expired;
           }) == kKeys;
  }));
  EXPECT_EQ(server.map().size(), 0u);
  // Batched sweep: far fewer write epochs than leases.
  const std::uint64_t batches = sum_nodes(
      server, [](const NodeServeStats& s) { return s.sweep_batches; });
  EXPECT_GT(batches, 0u);
  EXPECT_LT(batches, kKeys);
  for (std::uint64_t k = 0; k < kKeys; ++k)
    EXPECT_FALSE(server.get(k).has_value()) << "key " << k;
  server.shutdown();
}

// ServeStream determinism: the TTL coin draws from its own generator, so
// arming ttl_fraction must not perturb the kind/key streams — an expiry
// bench row and its baseline compare the identical operation sequence.
TEST(ExpiryServe, ServeStreamTtlKnobPreservesKindAndKeyStreams) {
  ServeMixConfig base;
  base.seed = 2024;
  base.num_keys = 1 << 10;
  ServeMixConfig with_ttl = base;
  with_ttl.ttl_fraction = 0.5;
  with_ttl.ttl_ns = 123 * kMs;

  const ServeStream a(base, /*thread_salt=*/3, /*length=*/4096);
  const ServeStream b(with_ttl, 3, 4096);
  ASSERT_EQ(a.size(), b.size());
  std::size_t ttl_puts = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.at(i).kind, b.at(i).kind) << "op " << i;
    EXPECT_EQ(a.at(i).key, b.at(i).key) << "op " << i;
    EXPECT_EQ(a.at(i).ttl_ns, 0u);  // knob off: no leases
    if (b.at(i).ttl_ns != 0) {
      EXPECT_EQ(b.at(i).kind, OpKind::kWrite);  // only puts carry leases
      EXPECT_EQ(b.at(i).ttl_ns, with_ttl.ttl_ns);
      ++ttl_puts;
    }
  }
  // ~half the writes (5% of 4096 ops) should have drawn the lease coin.
  EXPECT_GT(ttl_puts, 0u);
  EXPECT_LT(ttl_puts, b.writes());
  // Same config, same salt => identical stream, leases included.
  const ServeStream c(with_ttl, 3, 4096);
  for (std::size_t i = 0; i < b.size(); ++i) {
    ASSERT_EQ(b.at(i).ttl_ns, c.at(i).ttl_ns);
    ASSERT_EQ(b.at(i).key, c.at(i).key);
  }
}

}  // namespace
}  // namespace bjrw::serve
