// Stress soak (labelled "stress"; run under TSan in CI): the expiry
// sweeper racing foreground put / put_with_ttl / touch / erase / get
// traffic on a real clock.  Short TTLs keep leases falling due while the
// mutators rewrite and erase the same small key set, so every ordering the
// sweep's compare-and-erase has to win (or lose) actually happens:
//
//   * sweep pops a lease whose key was rewritten   -> stale skip
//   * sweep pops a lease whose key was erased      -> stale skip
//   * sweep pops a live lease                      -> expiry delete
//   * reader hits a key mid-expiry                 -> filtered or served,
//                                                     never a torn value
//
// Assertions are sanity bounds, not exact counts — the point is that TSan
// observes the sweeper's map writes racing the foreground ops.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <optional>
#include <vector>

#include "src/core/locks.hpp"
#include "src/harness/prng.hpp"
#include "src/harness/thread_coord.hpp"
#include "src/harness/topology.hpp"
#include "src/serve/server.hpp"

namespace bjrw::serve {
namespace {

using Server = KvServer<CohortWriterPriorityLock>;

constexpr std::uint64_t kMs = 1'000'000;

// Values encode their key so a cross-key smear would be visible: any value
// served for key k must satisfy value >> 16 == k.
std::uint64_t tag(std::uint64_t key, std::uint64_t round) {
  return (key << 16) | (round & 0xFFFF);
}

TEST(ExpirySoak, SweeperRacesMutatorsWithoutTearing) {
  ServeConfig cfg = ServeConfig{}
                        .with_workers(2)
                        .with_expiry(/*resolution_ns=*/1 * kMs)
                        .with_expiry_wheel(/*slots=*/32, /*levels=*/3);
  Server server(Topology::simulated(2, 4), cfg);

  constexpr std::uint64_t kKeys = 128;  // small: maximize collisions
  constexpr std::size_t kMutators = 4;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(1500);

  std::uint64_t bad_values = 0;  // written only by thread 0 (the reader)
  run_threads(kMutators + 1, [&](std::size_t t) {
    Xoshiro256 rng(0x50AB1E5ULL * (t + 1));
    std::vector<std::uint64_t> batch;
    std::uint64_t round = 0;
    while (std::chrono::steady_clock::now() < deadline) {
      const std::uint64_t key = rng.below(kKeys);
      if (t == 0) {
        // Dedicated reader: singles and batches, validating the key tag.
        const std::optional<std::uint64_t> v = server.get(key);
        if (v.has_value() && (*v >> 16) != key) ++bad_values;
        batch.clear();
        for (int i = 0; i < 8; ++i) batch.push_back(rng.below(kKeys));
        server.get_many(batch);
        continue;
      }
      ++round;
      switch (rng.below(8)) {
        case 0:
        case 1:
        case 2:  // TTL'd put, 1–5 ms: due while the soak still runs
          server.put_with_ttl(key, tag(key, round),
                              (1 + rng.below(5)) * kMs);
          break;
        case 3:
        case 4:  // plain rewrite: must defeat any pending stale sweep
          server.put(key, tag(key, round));
          break;
        case 5:
          server.touch(key, (1 + rng.below(5)) * kMs);
          break;
        case 6:
          server.erase(key);
          break;
        default:
          server.get(key);
          break;
      }
    }
  });

  std::uint64_t scheduled = 0, expired = 0, stale = 0;
  for (int d = 0; d < server.node_count(); ++d) {
    const NodeServeStats ns = server.node_stats(d);  // sweeper still live
    scheduled += ns.leases_scheduled;
    expired += ns.leases_expired;
    stale += ns.lease_stale_skips;
  }
  server.shutdown();

  EXPECT_EQ(bad_values, 0u);
  EXPECT_GT(scheduled, 0u);
  // 1–5 ms leases over a 1.5 s soak: sweeps certainly ran, and rewrites /
  // erases certainly invalidated some of them.
  EXPECT_GT(expired + stale, 0u);
}

}  // namespace
}  // namespace bjrw::serve
