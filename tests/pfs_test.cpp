// Tests for the simulated PFS: data servers, MDS, clients, cluster wiring,
// and space accounting / migration planning.
#include <gtest/gtest.h>

#include <numeric>

#include "src/pfs/cluster.hpp"
#include "src/pfs/replication.hpp"
#include "src/pfs/space.hpp"
#include "src/sim/simulator.hpp"
#include "src/storage/hdd.hpp"

namespace harl::pfs {
namespace {

std::unique_ptr<storage::HddDevice> test_hdd(std::uint64_t seed = 1) {
  return std::make_unique<storage::HddDevice>(storage::hdd_profile(), seed);
}

TEST(DataServer, ServesSubmittedRequests) {
  sim::Simulator sim;
  DataServer server(sim, test_hdd(), "h0", false);
  bool done = false;
  server.submit(IoOp::kRead, 0, 0, 64 * KiB, 1, [&] { done = true; });
  sim.run();
  EXPECT_TRUE(done);
  EXPECT_GT(server.io_time(), 0.0);
  EXPECT_EQ(server.requests_served(), 1u);
  EXPECT_EQ(server.bytes_read(), 64 * KiB);
  EXPECT_EQ(server.bytes_written(), 0u);
}

TEST(DataServer, TracksReadAndWriteBytesSeparately) {
  sim::Simulator sim;
  DataServer server(sim, test_hdd(), "h0", false);
  server.submit(IoOp::kWrite, 0, 0, 100, 1, [] {});
  server.submit(IoOp::kRead, 0, 0, 28, 1, [] {});
  sim.run();
  EXPECT_EQ(server.bytes_written(), 100u);
  EXPECT_EQ(server.bytes_read(), 28u);
}

TEST(DataServer, DistinctObjectsDoNotLookSequential) {
  // Two accesses that would be sequential within one object must not get the
  // HDD sequential discount when they belong to different objects (regions).
  sim::Simulator sim;
  auto device = std::make_unique<storage::HddDevice>(
      storage::hdd_profile(), 7, /*sequential_factor=*/0.0);
  DataServer server(sim, std::move(device), "h0", false);

  Seconds same_object_second = 0.0;
  {
    sim::Simulator sim2;
    auto dev2 = std::make_unique<storage::HddDevice>(storage::hdd_profile(), 7,
                                                     0.0);
    DataServer srv2(sim2, std::move(dev2), "h0", false);
    srv2.submit(IoOp::kRead, 0, 0, 1 * MiB, 1, [] {});
    Seconds t0 = 0.0;
    sim2.run();
    t0 = sim2.now();
    srv2.submit(IoOp::kRead, 0, 1 * MiB, 1 * MiB, 1, [] {});
    sim2.run();
    same_object_second = sim2.now() - t0;
  }

  server.submit(IoOp::kRead, 0, 0, 1 * MiB, 1, [] {});
  sim.run();
  const Seconds t0 = sim.now();
  server.submit(IoOp::kRead, 1, 1 * MiB, 1 * MiB, 1, [] {});
  sim.run();
  const Seconds cross_object_second = sim.now() - t0;

  // Same-object continuation is free of startup (factor 0); cross-object is
  // not.
  EXPECT_GT(cross_object_second, same_object_second);
}

TEST(DataServer, ResetStatsClearsCounters) {
  sim::Simulator sim;
  DataServer server(sim, test_hdd(), "h0", false);
  server.submit(IoOp::kWrite, 0, 0, 4 * KiB, 1, [] {});
  sim.run();
  server.reset_stats();
  EXPECT_EQ(server.bytes_written(), 0u);
  EXPECT_EQ(server.io_time(), 0.0);
  EXPECT_EQ(server.requests_served(), 0u);
}

TEST(DataServer, PerStripeOverheadScalesWithPieces) {
  sim::Simulator sim;
  auto dev_a = std::make_unique<storage::HddDevice>(storage::hdd_profile(), 9);
  auto dev_b = std::make_unique<storage::HddDevice>(storage::hdd_profile(), 9);
  DataServer with(sim, std::move(dev_a), "a", false, /*per_stripe=*/1e-3);
  DataServer without(sim, std::move(dev_b), "b", false, /*per_stripe=*/0.0);
  with.submit(IoOp::kRead, 0, 0, 64 * KiB, 8, [] {});
  without.submit(IoOp::kRead, 0, 0, 64 * KiB, 8, [] {});
  sim.run();
  // Same seeded device stream, so the difference is exactly 8 stripe units.
  EXPECT_NEAR(with.io_time() - without.io_time(), 8e-3, 1e-12);
}

TEST(Mds, RegisterLookupRemove) {
  sim::Simulator sim;
  MetadataServer mds(sim, 1e-3);
  auto layout = make_fixed_layout(8, 64 * KiB);
  mds.register_file("f", layout);
  EXPECT_TRUE(mds.has_file("f"));
  EXPECT_EQ(mds.layout_of("f"), layout);

  std::shared_ptr<const Layout> got;
  mds.lookup("f", [&](std::shared_ptr<const Layout> l) { got = l; });
  sim.run();
  EXPECT_EQ(got, layout);
  EXPECT_EQ(sim.now(), 1e-3);  // lookup cost charged
  EXPECT_EQ(mds.lookups_served(), 1u);

  mds.remove_file("f");
  EXPECT_FALSE(mds.has_file("f"));
  EXPECT_EQ(mds.layout_of("f"), nullptr);
}

TEST(Mds, UnknownFileLooksUpNull) {
  sim::Simulator sim;
  MetadataServer mds(sim, 1e-3);
  bool called = false;
  mds.lookup("ghost", [&](std::shared_ptr<const Layout> l) {
    called = true;
    EXPECT_EQ(l, nullptr);
  });
  sim.run();
  EXPECT_TRUE(called);
}

ClusterConfig small_cluster_config() {
  ClusterConfig cfg;
  cfg.num_hservers = 2;
  cfg.num_sservers = 1;
  cfg.num_clients = 2;
  return cfg;
}

TEST(Cluster, SsdGcSlowsSustainedWrites) {
  auto run_writes = [](storage::SsdDevice::GcModel gc) {
    sim::Simulator sim;
    ClusterConfig cfg = small_cluster_config();
    cfg.ssd_gc = gc;
    Cluster cluster(sim, cfg);
    auto layout = make_two_tier_layout(2, 0, 1, 256 * KiB);  // SSD only
    for (int i = 0; i < 64; ++i) {
      cluster.client(0).io(*layout, IoOp::kWrite,
                           static_cast<Bytes>(i) * 256 * KiB, 256 * KiB, [] {});
    }
    sim.run();
    // Device busy time isolates the GC stalls from NIC-bound makespan.
    return cluster.server(2).io_time();
  };
  const Seconds clean = run_writes({});
  const Seconds gc = run_writes({4 * MiB, 5e-3});  // stall every 4 MiB written
  // 16 MiB written -> 4 stalls of 5 ms on the single SServer.
  EXPECT_NEAR(gc - clean, 4 * 5e-3, 1e-9);
}

TEST(Cluster, WiresServersAndClients) {
  sim::Simulator sim;
  Cluster cluster(sim, small_cluster_config());
  EXPECT_EQ(cluster.num_servers(), 3u);
  EXPECT_EQ(cluster.num_hservers(), 2u);
  EXPECT_EQ(cluster.num_sservers(), 1u);
  EXPECT_EQ(cluster.num_clients(), 2u);
  EXPECT_FALSE(cluster.server(0).is_ssd());
  EXPECT_FALSE(cluster.server(1).is_ssd());
  EXPECT_TRUE(cluster.server(2).is_ssd());
  EXPECT_EQ(cluster.server(0).name(), "hserver0");
  EXPECT_EQ(cluster.server(2).name(), "sserver0");
}

TEST(Cluster, RejectsEmptyConfigs) {
  sim::Simulator sim;
  ClusterConfig none;
  none.num_hservers = 0;
  none.num_sservers = 0;
  EXPECT_THROW(Cluster(sim, none), std::invalid_argument);
  ClusterConfig no_clients = small_cluster_config();
  no_clients.num_clients = 0;
  EXPECT_THROW(Cluster(sim, no_clients), std::invalid_argument);
}

TEST(Client, ReadCompletesAfterDiskAndNetwork) {
  sim::Simulator sim;
  Cluster cluster(sim, small_cluster_config());
  auto layout = make_fixed_layout(cluster.num_servers(), 64 * KiB);
  bool done = false;
  cluster.client(0).io(*layout, IoOp::kRead, 0, 192 * KiB, [&] { done = true; });
  sim.run();
  EXPECT_TRUE(done);
  // All three servers served one sub-request each.
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(cluster.server(i).requests_served(), 1u);
    EXPECT_EQ(cluster.server(i).bytes_read(), 64 * KiB);
  }
  // Data crossed the client NIC.
  EXPECT_GT(cluster.network().client_link(0).busy_time(), 0.0);
}

TEST(Client, WritePushesThroughClientLinkFirst) {
  sim::Simulator sim;
  Cluster cluster(sim, small_cluster_config());
  auto layout = make_fixed_layout(cluster.num_servers(), 64 * KiB);
  bool done = false;
  cluster.client(1).io(*layout, IoOp::kWrite, 0, 64 * KiB, [&] { done = true; });
  sim.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(cluster.server(0).bytes_written(), 64 * KiB);
  EXPECT_GT(cluster.network().client_link(1).busy_time(), 0.0);
  EXPECT_EQ(cluster.network().client_link(0).busy_time(), 0.0);
}

TEST(Client, ZeroByteRequestCompletes) {
  sim::Simulator sim;
  Cluster cluster(sim, small_cluster_config());
  auto layout = make_fixed_layout(cluster.num_servers(), 64 * KiB);
  bool done = false;
  cluster.client(0).io(*layout, IoOp::kRead, 123, 0, [&] { done = true; });
  sim.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(cluster.server(0).requests_served(), 0u);
}

TEST(Client, SsdServerFinishesFasterThanHdd) {
  sim::Simulator sim;
  Cluster cluster(sim, small_cluster_config());
  auto layout = make_fixed_layout(cluster.num_servers(), 256 * KiB);
  cluster.client(0).io(*layout, IoOp::kRead, 0, 768 * KiB, [] {});
  sim.run();
  // Same bytes everywhere, but the SSD server spent less device time.
  EXPECT_LT(cluster.server(2).io_time(), cluster.server(0).io_time());
  EXPECT_LT(cluster.server(2).io_time(), cluster.server(1).io_time());
}

TEST(Client, UnknownServerTargetThrowsBeforeIssuingAnything) {
  // A layout striped over more servers than the client knows: the request
  // must be rejected before any sub is issued, so nothing is left in flight
  // under a join that can never complete.
  for (const IoOp op : {IoOp::kRead, IoOp::kWrite}) {
    sim::Simulator sim;
    Cluster cluster(sim, small_cluster_config());
    auto layout = make_fixed_layout(cluster.num_servers() + 2, 64 * KiB);
    bool done = false;
    EXPECT_THROW(cluster.client(0).io(*layout, op, 0, 320 * KiB,
                                      [&] { done = true; }),
                 std::out_of_range);
    sim.run();
    EXPECT_EQ(sim.events_dispatched(), 0u);
    EXPECT_FALSE(done);
    for (std::size_t i = 0; i < cluster.num_servers(); ++i) {
      EXPECT_EQ(cluster.server(i).requests_served(), 0u);
    }
  }
}

TEST(Client, UnknownReplicaTargetThrowsBeforeIssuingAnything) {
  // The replica map chains over five servers but the cluster has three:
  // the third sub's replica lands on server 3.  The write must be rejected
  // whole, with no leg issued and no replica write counted.
  sim::Simulator sim;
  Cluster cluster(sim, small_cluster_config());
  auto layout = make_fixed_layout(cluster.num_servers(), 64 * KiB);
  const ReplicaMap replicas = ReplicaMap::chained(cluster.num_servers() + 2);
  EXPECT_THROW(cluster.client(0).io(*layout, IoOp::kWrite, 0, 192 * KiB,
                                    [] {}, obs::kNoId, &replicas),
               std::out_of_range);
  sim.run();
  EXPECT_EQ(sim.events_dispatched(), 0u);
  EXPECT_EQ(cluster.client(0).replica_writes(), 0u);
}

TEST(Cluster, ServerIoTimeIncludesNic) {
  sim::Simulator sim;
  Cluster cluster(sim, small_cluster_config());
  auto layout = make_fixed_layout(cluster.num_servers(), 64 * KiB);
  cluster.client(0).io(*layout, IoOp::kRead, 0, 192 * KiB, [] {});
  sim.run();
  for (std::size_t i = 0; i < cluster.num_servers(); ++i) {
    EXPECT_GT(cluster.server_io_time(i), cluster.server(i).io_time());
  }
  cluster.reset_stats();
  for (std::size_t i = 0; i < cluster.num_servers(); ++i) {
    EXPECT_EQ(cluster.server_io_time(i), 0.0);
  }
}

TEST(Cluster, DeterministicAcrossIdenticalRuns) {
  auto run_once = [] {
    sim::Simulator sim;
    Cluster cluster(sim, small_cluster_config());
    auto layout = make_fixed_layout(cluster.num_servers(), 64 * KiB);
    for (int i = 0; i < 20; ++i) {
      cluster.client(0).io(*layout, IoOp::kWrite,
                           static_cast<Bytes>(i) * 192 * KiB, 192 * KiB, [] {});
    }
    sim.run();
    return sim.now();
  };
  EXPECT_EQ(run_once(), run_once());
}

// ---------------------------------------------------------------- space ----

TEST(Space, FootprintOfFixedLayoutIsEven) {
  auto layout = make_fixed_layout(4, 64 * KiB);
  const SpaceUsage u = storage_footprint(*layout, 1 * MiB);
  EXPECT_EQ(u.total, 1 * MiB);
  for (Bytes b : u.per_server) EXPECT_EQ(b, 256 * KiB);
}

TEST(Space, FootprintOfVariedLayoutIsProportional) {
  auto layout = make_two_tier_layout(6, 32 * KiB, 2, 160 * KiB);
  const Bytes period = 6 * 32 * KiB + 2 * 160 * KiB;  // 512K
  const SpaceUsage u = storage_footprint(*layout, 10 * period);
  EXPECT_EQ(u.hserver_bytes(6), 10 * 6 * 32 * KiB);
  EXPECT_EQ(u.sserver_bytes(6), 10 * 2 * 160 * KiB);
}

TEST(Space, MigrationNoopWhenCapacitySuffices) {
  RegionLayout layout(2, 2,
                      {RegionSpec{0, 64 * KiB, 256 * KiB},
                       RegionSpec{64 * MiB, 32 * KiB, 128 * KiB}});
  const auto plan = plan_migration(layout, 128 * MiB, 1 * GiB, {});
  EXPECT_TRUE(plan.demoted.empty());
  EXPECT_EQ(plan.sserver_bytes_after, plan.sserver_bytes_before);
}

TEST(Space, MigrationDemotesColdestRegionsFirst) {
  RegionLayout layout(2, 2,
                      {RegionSpec{0, 64 * KiB, 256 * KiB},
                       RegionSpec{64 * MiB, 64 * KiB, 256 * KiB}});
  // Region 0 is hot, region 1 cold.
  std::vector<RegionHeat> heat = {{0, 10 * GiB}, {1, 1 * MiB}};
  // Force demotion of exactly one region: capacity just above half the SSD
  // footprint.
  const SpaceUsage usage = storage_footprint(layout, 128 * MiB);
  const Bytes ssd_total = usage.sserver_bytes(2);
  const auto plan =
      plan_migration(layout, 128 * MiB, ssd_total / 2 + 1024, heat);
  ASSERT_EQ(plan.demoted.size(), 1u);
  EXPECT_EQ(plan.demoted[0], 1u);  // the cold one
  EXPECT_EQ(plan.regions[1].s(), 0u);
  EXPECT_GE(plan.regions[1].h(), 256 * KiB);  // inherits the bigger stripe
  EXPECT_LE(plan.sserver_bytes_after, ssd_total / 2 + 1024);
  // The hot region keeps its SServer striping.
  EXPECT_EQ(plan.regions[0].s(), 256 * KiB);
}

TEST(Space, MigrationRequiresHServers) {
  RegionLayout layout(0, 2, {RegionSpec{0, 0, 64 * KiB}});
  EXPECT_THROW(plan_migration(layout, 1 * MiB, 0, {}), std::invalid_argument);
}

}  // namespace
}  // namespace harl::pfs
