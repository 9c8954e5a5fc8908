// Tier-1 suite for Topology::from_sysfs over fake sysfs trees: faithful
// mapping for non-contiguous node ids and offline CPUs, skip semantics
// for memory-only / fully-offline nodes, and the refuse-to-guess nullopt
// (flat fallback) cases — malformed lists, duplicate CPU claims, empty
// trees.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "src/harness/topology.hpp"
#include "src/serve/server.hpp"
#include "src/serve/worker_pool.hpp"

namespace bjrw {
namespace {

namespace fs = std::filesystem;

// Builds a fake /sys/devices/system/{node,cpu} pair under TempDir.
class FakeSysfs {
 public:
  explicit FakeSysfs(const std::string& name) {
    root_ = fs::path(::testing::TempDir()) / ("bjrw_sysfs_" + name);
    fs::remove_all(root_);
    fs::create_directories(root_ / "node");
    fs::create_directories(root_ / "cpu");
  }
  ~FakeSysfs() { fs::remove_all(root_); }

  void possible(const std::string& line) {
    write(root_ / "node" / "possible", line);
  }
  void node(int id, const std::string& cpulist) {
    const fs::path dir = root_ / "node" / ("node" + std::to_string(id));
    fs::create_directories(dir);
    write(dir / "cpulist", cpulist);
  }
  void online(const std::string& line) {
    write(root_ / "cpu" / "online", line);
  }

  std::string node_dir() const { return (root_ / "node").string(); }
  std::string cpu_dir() const { return (root_ / "cpu").string(); }
  std::optional<Topology> parse() const {
    return Topology::from_sysfs(node_dir(), cpu_dir());
  }

 private:
  static void write(const fs::path& p, const std::string& content) {
    std::ofstream f(p);
    f << content << "\n";
  }
  fs::path root_;
};

TEST(TopologySysfs, ContiguousTwoNodeLayoutMapsBlockwise) {
  FakeSysfs sys("contiguous");
  sys.possible("0-1");
  sys.node(0, "0-3");
  sys.node(1, "4-7");
  const auto t = sys.parse();
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->source(), "sysfs");
  EXPECT_EQ(t->node_count(), 2);
  EXPECT_EQ(t->cpu_count(), 8);
  EXPECT_EQ(t->describe(), "2x4");
  for (int tid = 0; tid < 8; ++tid) {
    EXPECT_EQ(t->node_of_tid(tid), tid / 4);
    EXPECT_EQ(t->lane_of_tid(tid), tid % 4);
  }
  // tids wrap over the CPU count.
  EXPECT_EQ(t->node_of_tid(9), 0);
}

TEST(TopologySysfs, NonContiguousNodeIdsMapFaithfully) {
  // node0,node2 with node1 absent (hot-removed): the logical node set is
  // {0, 1} mapping to sysfs {node0, node2}, and tids must land on real
  // CPUs — the bug class this guards against is tid→node arithmetic that
  // assumes dense ids.
  FakeSysfs sys("sparse_nodes");
  sys.possible("0,2");
  sys.node(0, "0-1");
  sys.node(2, "2-3");
  const auto t = sys.parse();
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->node_count(), 2);
  EXPECT_EQ(t->cpu_count(), 4);
  EXPECT_EQ(t->node_of_tid(0), 0);
  EXPECT_EQ(t->node_of_tid(1), 0);
  EXPECT_EQ(t->node_of_tid(2), 1);
  EXPECT_EQ(t->node_of_tid(3), 1);
  EXPECT_EQ(t->lane_of_tid(3), 1);
}

TEST(TopologySysfs, PossibleListedButAbsentNodesAreSkipped) {
  // `possible` often covers ids that never came up; only directories that
  // exist contribute.
  FakeSysfs sys("absent");
  sys.possible("0-7");
  sys.node(0, "0-1");
  sys.node(5, "2-3");
  const auto t = sys.parse();
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->node_count(), 2);
  EXPECT_EQ(t->cpu_count(), 4);
}

TEST(TopologySysfs, MissingPossibleFallsBackToFullScan) {
  FakeSysfs sys("no_possible");
  sys.node(0, "0-1");
  sys.node(3, "2-5");
  const auto t = sys.parse();
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->node_count(), 2);
  EXPECT_EQ(t->cpus_in_node(0), 2);
  EXPECT_EQ(t->cpus_in_node(1), 4);
  EXPECT_EQ(t->describe(), "2n6c");  // ragged layout
}

TEST(TopologySysfs, OfflineCpusAreExcludedFromTheMapping) {
  // CPUs 2-3 of node0 and all of node1 are offline: node0 shrinks to its
  // online pair, node1 disappears entirely (a node with zero online CPUs
  // cannot execute anything).
  FakeSysfs sys("offline");
  sys.possible("0-1");
  sys.node(0, "0-3");
  sys.node(1, "4-7");
  sys.online("0-1");
  const auto t = sys.parse();
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->node_count(), 1);
  EXPECT_EQ(t->cpu_count(), 2);
  EXPECT_EQ(t->node_of_tid(0), 0);
  EXPECT_EQ(t->node_of_tid(1), 0);
}

TEST(TopologySysfs, MemoryOnlyNodeIsRepresentedAsZeroCpuNode) {
  // CXL-style memory-only node: empty cpulist is legitimate and the node
  // is kept — it owns memory, so shard placement must still see it — with
  // zero CPUs.  Execution layers route its work via nearest_cpu_node.
  FakeSysfs sys("memonly");
  sys.possible("0-1");
  sys.node(0, "0-3");
  sys.node(1, "");
  const auto t = sys.parse();
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->node_count(), 2);
  EXPECT_EQ(t->cpu_count(), 4);
  EXPECT_EQ(t->cpus_in_node(0), 4);
  EXPECT_EQ(t->cpus_in_node(1), 0);
  EXPECT_EQ(t->nearest_cpu_node(0), 0);  // CPU-bearing: itself
  EXPECT_EQ(t->nearest_cpu_node(1), 0);  // memory-only: routed
}

TEST(TopologySysfs, NearestCpuNodeBreaksTiesTowardLowerIndex) {
  // Memory-only node 1 sits between CPU-bearing nodes 0 and 2; equidistant
  // candidates resolve to the lower index so routing is deterministic.
  FakeSysfs sys("memonly_mid");
  sys.possible("0-3");
  sys.node(0, "0-1");
  sys.node(1, "");
  sys.node(2, "2-3");
  sys.node(3, "");
  const auto t = sys.parse();
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->node_count(), 4);
  EXPECT_EQ(t->cpu_count(), 4);
  EXPECT_EQ(t->nearest_cpu_node(1), 0);  // tie 0-vs-2: lower wins
  EXPECT_EQ(t->nearest_cpu_node(3), 2);  // distance 1 beats distance 3
}

TEST(TopologySysfs, FullyOfflineNodeIsStillSkipped) {
  // A node whose CPUs exist but are all offline is NOT a memory-only
  // node: it is dropped entirely (zero-CPU representation is reserved for
  // genuinely empty cpulists).
  FakeSysfs sys("all_offline_node");
  sys.possible("0-1");
  sys.node(0, "0-1");
  sys.node(1, "2-3");
  sys.online("0-1");
  const auto t = sys.parse();
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->node_count(), 1);
  EXPECT_EQ(t->cpu_count(), 2);
}

TEST(TopologySysfs, MalformedInputsFallBackToNullopt) {
  {  // garbage cpulist: refuse to guess
    FakeSysfs sys("bad_cpulist");
    sys.possible("0");
    sys.node(0, "0-banana");
    EXPECT_FALSE(sys.parse().has_value());
  }
  {  // inverted range
    FakeSysfs sys("inverted");
    sys.possible("0");
    sys.node(0, "5-2");
    EXPECT_FALSE(sys.parse().has_value());
  }
  {  // malformed possible
    FakeSysfs sys("bad_possible");
    sys.possible("zero");
    sys.node(0, "0-3");
    EXPECT_FALSE(sys.parse().has_value());
  }
  {  // malformed online mask
    FakeSysfs sys("bad_online");
    sys.possible("0");
    sys.node(0, "0-3");
    sys.online("not-a-list");
    EXPECT_FALSE(sys.parse().has_value());
  }
  {  // one CPU claimed by two nodes: the tree is inconsistent
    FakeSysfs sys("dup_cpu");
    sys.possible("0-1");
    sys.node(0, "0-3");
    sys.node(1, "3-5");
    EXPECT_FALSE(sys.parse().has_value());
  }
  {  // empty tree / everything offline
    FakeSysfs sys("empty");
    EXPECT_FALSE(sys.parse().has_value());
    FakeSysfs sys2("all_offline");
    sys2.possible("0");
    sys2.node(0, "0-3");
    sys2.online("");
    EXPECT_FALSE(sys2.parse().has_value());
  }
}

TEST(TopologySysfs, WorkerPoolOnMemoryOnlyNodeDoesNotHang) {
  // Regression: the pool used to clamp workers_per_node to the narrowest
  // node's CPU count — a zero-CPU memory-only node clamped the width to 0,
  // so every queue was consumerless and any submit spun forever.  Now the
  // clamp skips zero-CPU nodes, no workers are spawned for them, and
  // submits addressed to them execute on the nearest CPU-bearing node.
  FakeSysfs sys("memonly_pool");
  sys.possible("0-1");
  sys.node(0, "0-1");
  sys.node(1, "");
  const auto t = sys.parse();
  ASSERT_TRUE(t.has_value());
  const serve::ServeConfig cfg =
      serve::ServeConfig{}.with_workers(2).with_pin(false);
  std::atomic<int> executed_on_node0{0};
  serve::WorkerPool<int> pool(
      *t, cfg, [&](int, int node, int*, std::size_t n) {
        if (node == 0) executed_on_node0.fetch_add(static_cast<int>(n));
      });
  EXPECT_EQ(pool.workers_per_node(), 2);
  EXPECT_EQ(pool.workers_in_node(0), 2);
  EXPECT_EQ(pool.workers_in_node(1), 0);
  EXPECT_EQ(pool.worker_count(), 2);
  EXPECT_EQ(pool.execution_node(0), 0);
  EXPECT_EQ(pool.execution_node(1), 0);
  // Submits to BOTH nodes must complete — node 1's land on node 0.
  for (int i = 0; i < 8; ++i) {
    ASSERT_EQ(pool.submit_many(0, &i, 1), 1u);
    ASSERT_EQ(pool.submit_many(1, &i, 1), 1u);
  }
  pool.shutdown();
  EXPECT_EQ(executed_on_node0.load(), 16);
  EXPECT_EQ(pool.executed(0), 16u);
  EXPECT_EQ(pool.executed(1), 0u);

  // Elastic widths clamp the same way: the zero-CPU node spawns no
  // workers (so none can park there) and its submits still execute on the
  // CPU-bearing neighbour.
  serve::WorkerPool<int> epool(
      *t,
      serve::ServeConfig{}.with_widths(1, 2).with_pin(false).with_park(
          /*grace_ns=*/1'000),
      [](int, int, int*, std::size_t) {});
  EXPECT_EQ(epool.workers_in_node(0), 2);
  EXPECT_EQ(epool.workers_in_node(1), 0);
  EXPECT_EQ(epool.parked(1), 0);
  const int one = 1;
  ASSERT_EQ(epool.submit_many(1, &one, 1), 1u);
  epool.shutdown();
}

TEST(TopologySysfs, KvServerServesTrafficOverAMemoryOnlyNode) {
  // End-to-end over the same topology: placement still stripes shards over
  // both nodes (the memory-only node owns key space), but all execution —
  // and node_stats accounting — lands on the CPU-bearing node.
  FakeSysfs sys("memonly_kv");
  sys.possible("0-1");
  sys.node(0, "0-1");
  sys.node(1, "");
  const auto t = sys.parse();
  ASSERT_TRUE(t.has_value());
  const serve::ServeConfig cfg =
      serve::ServeConfig{}.with_workers(1).with_pin(false);
  serve::KvServer<CohortWriterPriorityLock> server(*t, cfg);
  constexpr std::uint64_t kKeys = 512;
  for (std::uint64_t k = 0; k < kKeys; ++k) server.put(k, k * 3);
  std::vector<std::uint64_t> keys;
  for (std::uint64_t k = 0; k < kKeys; ++k) keys.push_back(k);
  std::vector<std::optional<std::uint64_t>> out(keys.size());
  EXPECT_EQ(server.get_many(keys, out.data()), kKeys);
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    ASSERT_TRUE(out[k].has_value());
    EXPECT_EQ(*out[k], k * 3);
  }
  server.shutdown();
  const auto s0 = server.node_stats(0);
  const auto s1 = server.node_stats(1);
  EXPECT_GT(s0.ops, 0u);
  EXPECT_EQ(s1.ops, 0u);  // no workers there, no stripes to alias
  EXPECT_EQ(s0.ops, kKeys * 2);  // every put + every batched read
}

TEST(TopologySysfs, DetectStillReturnsAUsableTopology) {
  // Whatever this host looks like (real sysfs, BJRW_TOPOLOGY, or flat
  // fallback), detection must produce a non-degenerate mapping.
  const Topology t = Topology::detect();
  EXPECT_GE(t.node_count(), 1);
  EXPECT_GE(t.cpu_count(), 1);
  EXPECT_GE(t.max_cpus_per_node(), 1);
  EXPECT_GE(t.node_of_tid(0), 0);
}

}  // namespace
}  // namespace bjrw
