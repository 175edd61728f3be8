// Tests for the multi-tier extension (the paper's stated future work):
// tier-group clusters, the k-tier layout helper, and the generalized
// stripe optimizer.
#include <gtest/gtest.h>

#include "src/common/rng.hpp"
#include "src/core/plan_artifact.hpp"
#include "src/core/planner.hpp"
#include "src/core/stripe_optimizer.hpp"
#include "src/middleware/harl_driver.hpp"
#include "src/pfs/cluster.hpp"
#include "src/sim/simulator.hpp"
#include "src/storage/profiles.hpp"
#include "src/trace/record.hpp"

namespace harl {
namespace {

pfs::ClusterConfig three_tier_config() {
  pfs::ClusterConfig cfg;
  cfg.tiers = {
      pfs::TierGroup{.name = "hdd", .count = 4,
                     .profile = storage::hdd_profile(), .is_ssd = false},
      pfs::TierGroup{.name = "sata", .count = 2,
                     .profile = storage::sata_ssd_profile(), .is_ssd = true},
      pfs::TierGroup{.name = "nvme", .count = 2,
                     .profile = storage::nvme_ssd_profile(), .is_ssd = true},
  };
  cfg.num_clients = 4;
  return cfg;
}

core::TieredCostParams three_tier_params() {
  core::TieredCostParams p;
  p.t = 1.0 / (117.0 * 1024 * 1024);
  p.tiers = {
      core::TierSpec{.count = 4, .profile = storage::hdd_profile()},
      core::TierSpec{.count = 2, .profile = storage::sata_ssd_profile()},
      core::TierSpec{.count = 2, .profile = storage::nvme_ssd_profile()},
  };
  // Calibrated-style HDD parameters (see harness::calibrate).
  auto& hdd = p.tiers[0].profile;
  for (storage::OpProfile* prof : {&hdd.read, &hdd.write}) {
    prof->per_byte += prof->startup_mean() / static_cast<double>(64 * KiB);
    prof->startup_min *= 0.55;
    prof->startup_max *= 0.55;
  }
  return p;
}

std::vector<FileRequest> uniform_requests(Bytes size, std::size_t count) {
  Rng rng(5);
  std::vector<FileRequest> reqs;
  for (std::size_t i = 0; i < count; ++i) {
    reqs.push_back(FileRequest{i % 2 ? IoOp::kRead : IoOp::kWrite,
                               rng.uniform_u64(0, 2048) * size, size});
  }
  return reqs;
}

// ----------------------------------------------------------- cluster ----

TEST(TieredCluster, BuildsGroupsInOrder) {
  sim::Simulator sim;
  pfs::Cluster cluster(sim, three_tier_config());
  EXPECT_EQ(cluster.num_servers(), 8u);
  EXPECT_EQ(cluster.num_tiers(), 3u);
  EXPECT_EQ(cluster.tier(0).name, "hdd");
  EXPECT_EQ(cluster.tier_begin(0), 0u);
  EXPECT_EQ(cluster.tier_begin(1), 4u);
  EXPECT_EQ(cluster.tier_begin(2), 6u);
  EXPECT_EQ(cluster.server(0).name(), "hdd0");
  EXPECT_EQ(cluster.server(4).name(), "sata0");
  EXPECT_EQ(cluster.server(7).name(), "nvme1");
  EXPECT_FALSE(cluster.server(3).is_ssd());
  EXPECT_TRUE(cluster.server(4).is_ssd());
  // Aggregate H/S counts still make sense.
  EXPECT_EQ(cluster.num_hservers(), 4u);
  EXPECT_EQ(cluster.num_sservers(), 4u);
}

TEST(TieredCluster, TwoTierConfigSynthesizesGroups) {
  pfs::ClusterConfig cfg;  // defaults: 6 HDD + 2 SSD
  const auto groups = cfg.effective_tiers();
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0].count, 6u);
  EXPECT_FALSE(groups[0].is_ssd);
  EXPECT_EQ(groups[1].count, 2u);
  EXPECT_TRUE(groups[1].is_ssd);

  sim::Simulator sim;
  pfs::Cluster cluster(sim, cfg);
  EXPECT_EQ(cluster.num_tiers(), 2u);
  EXPECT_EQ(cluster.num_hservers(), 6u);
  EXPECT_EQ(cluster.num_sservers(), 2u);
}

TEST(TieredCluster, ServesIoAcrossAllTiers) {
  sim::Simulator sim;
  pfs::Cluster cluster(sim, three_tier_config());
  const std::vector<std::size_t> counts = {4, 2, 2};
  const std::vector<Bytes> stripes = {16 * KiB, 64 * KiB, 128 * KiB};
  auto layout = pfs::make_tiered_layout(counts, stripes);
  const Bytes period = 4 * 16 * KiB + 2 * 64 * KiB + 2 * 128 * KiB;
  bool done = false;
  cluster.client(0).io(*layout, IoOp::kWrite, 0, period, [&] { done = true; });
  sim.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(cluster.server(0).bytes_written(), 16 * KiB);
  EXPECT_EQ(cluster.server(4).bytes_written(), 64 * KiB);
  EXPECT_EQ(cluster.server(7).bytes_written(), 128 * KiB);
}

TEST(TieredLayout, ValidatesShapes) {
  EXPECT_THROW(pfs::make_tiered_layout({1, 2}, {4 * KiB}),
               std::invalid_argument);
  auto layout = pfs::make_tiered_layout({2, 1}, {0, 64 * KiB});
  EXPECT_EQ(layout->server_count(), 3u);
  EXPECT_EQ(layout->period(), 64 * KiB);
}

// --------------------------------------------------------- optimizer ----

TEST(TieredOptimizer, StripesAreMonotoneAcrossTiers) {
  const auto p = three_tier_params();
  const auto reqs = uniform_requests(1 * MiB, 48);
  core::TieredOptimizerOptions opts;
  opts.step = 32 * KiB;
  const auto result = core::optimize_region_tiered(p, reqs, 1.0 * MiB, opts);
  ASSERT_EQ(result.stripes.size(), 3u);
  EXPECT_LE(result.stripes[0], result.stripes[1]);
  EXPECT_LE(result.stripes[1], result.stripes[2]);
  EXPECT_GT(result.stripes[2], 0u);
  EXPECT_GT(result.candidates_evaluated, 10u);
}

TEST(TieredOptimizer, TwoTierAgreesWithDedicatedAlgorithm2) {
  // On a two-tier cluster the generalized search must find the same optimum
  // as the paper's Algorithm 2 (same grid, same model).
  core::TieredCostParams p2;
  p2.t = 1.0 / (117.0 * 1024 * 1024);
  auto hdd = storage::hdd_profile();
  for (storage::OpProfile* prof : {&hdd.read, &hdd.write}) {
    prof->per_byte += prof->startup_mean() / static_cast<double>(64 * KiB);
    prof->startup_min *= 0.55;
    prof->startup_max *= 0.55;
  }
  p2.tiers = {core::TierSpec{.count = 6, .profile = hdd},
              core::TierSpec{.count = 2,
                             .profile = storage::pcie_ssd_profile()}};

  core::CostParams dedicated;
  dedicated = core::make_cost_params(6, 2, hdd, storage::pcie_ssd_profile(),
                                     p2.t);

  const auto reqs = uniform_requests(512 * KiB, 64);
  core::TieredOptimizerOptions topts;
  topts.step = 8 * KiB;
  const auto tiered = core::optimize_region_tiered(p2, reqs, 512.0 * KiB, topts);

  core::OptimizerOptions opts2;
  opts2.step = 8 * KiB;
  const auto two = core::optimize_region(dedicated, reqs, 512.0 * KiB, opts2);

  // Same model cost; the stripe pair may differ only within cost ties.
  EXPECT_NEAR(tiered.model_cost, two.model_cost,
              two.model_cost * 1e-9);
  // Note: Algorithm 2's grid requires s > h strictly while the generalized
  // grid allows s == h; equal-cost ties can therefore differ, but the
  // h < s shape must match.
  EXPECT_LE(tiered.stripes[0], tiered.stripes[1]);
}

TEST(TieredOptimizer, FastTierGetsTheLargestStripes) {
  const auto p = three_tier_params();
  const auto reqs = uniform_requests(2 * MiB, 32);
  core::TieredOptimizerOptions opts;
  opts.step = 64 * KiB;
  const auto result = core::optimize_region_tiered(p, reqs, 2.0 * MiB, opts);
  // NVMe strictly outranks the HDD tier for big hybrid spreads.
  EXPECT_GT(result.stripes[2], result.stripes[0]);
}

TEST(TieredOptimizer, BeatsCollapsedTwoTierOnTheModel) {
  // Collapse SATA+NVMe into one blended tier, optimize, re-expand, and
  // compare model costs: tier awareness can only help.
  const auto p3 = three_tier_params();
  const auto reqs = uniform_requests(2 * MiB, 32);
  core::TieredOptimizerOptions opts;
  opts.step = 64 * KiB;
  const auto aware = core::optimize_region_tiered(p3, reqs, 2.0 * MiB, opts);

  core::TieredCostParams collapsed = p3;
  storage::TierProfile blended = storage::sata_ssd_profile();
  const storage::TierProfile nvme = storage::nvme_ssd_profile();
  for (IoOp op : {IoOp::kRead, IoOp::kWrite}) {
    storage::OpProfile& out = op == IoOp::kRead ? blended.read : blended.write;
    out.startup_min = 0.5 * (out.startup_min + nvme.op(op).startup_min);
    out.startup_max = 0.5 * (out.startup_max + nvme.op(op).startup_max);
    out.per_byte = 0.5 * (out.per_byte + nvme.op(op).per_byte);
  }
  collapsed.tiers = {p3.tiers[0], core::TierSpec{.count = 4,
                                                 .profile = blended}};
  const auto blind = core::optimize_region_tiered(collapsed, reqs, 2.0 * MiB, opts);
  // Evaluate the blind choice on the *real* three-tier cluster.
  const std::vector<Bytes> expanded = {blind.stripes[0], blind.stripes[1],
                                       blind.stripes[1]};
  const Seconds blind_cost = core::tiered_region_cost(p3, reqs, expanded);
  EXPECT_LE(aware.model_cost, blind_cost + 1e-12);
}

TEST(TieredOptimizer, ParallelMatchesSerial) {
  const auto p = three_tier_params();
  const auto reqs = uniform_requests(1 * MiB, 32);
  core::TieredOptimizerOptions serial;
  serial.step = 64 * KiB;
  const auto a = core::optimize_region_tiered(p, reqs, 1.0 * MiB, serial);

  ThreadPool pool(3);
  core::TieredOptimizerOptions parallel = serial;
  parallel.pool = &pool;
  const auto b = core::optimize_region_tiered(p, reqs, 1.0 * MiB, parallel);
  EXPECT_EQ(a.stripes, b.stripes);
  EXPECT_DOUBLE_EQ(a.model_cost, b.model_cost);
}

TEST(TieredOptimizer, CoalescedSearchIsBitIdenticalToBruteForce) {
  // The k-tier cost is periodic in the offset with period
  // sum(count_j * stripe_j); coalescing memoizes per class but sums in
  // original order, so the result matches brute force bit for bit.
  const auto p = three_tier_params();
  const auto reqs = uniform_requests(1 * MiB, 48);
  core::TieredOptimizerOptions brute;
  brute.step = 64 * KiB;
  brute.coalesce = false;
  core::TieredOptimizerOptions coalesced = brute;
  coalesced.coalesce = true;
  const auto a = core::optimize_region_tiered(p, reqs, 1.0 * MiB, brute);
  const auto b = core::optimize_region_tiered(p, reqs, 1.0 * MiB, coalesced);
  EXPECT_EQ(a.stripes, b.stripes);
  EXPECT_EQ(a.model_cost, b.model_cost);
  EXPECT_EQ(a.cost_evals_saved, 0u);
  EXPECT_GT(b.cost_evals_saved, 0u);
  EXPECT_EQ(b.cost_evals + b.cost_evals_saved + b.requests_skipped,
            a.cost_evals + a.requests_skipped);
}

TEST(TieredOptimizer, NonMonotoneModeWidensTheGrid) {
  const auto p = three_tier_params();
  const auto reqs = uniform_requests(512 * KiB, 16);
  core::TieredOptimizerOptions mono;
  mono.step = 64 * KiB;
  core::TieredOptimizerOptions free = mono;
  free.monotone = false;
  const auto a = core::optimize_region_tiered(p, reqs, 512.0 * KiB, mono);
  const auto b = core::optimize_region_tiered(p, reqs, 512.0 * KiB, free);
  EXPECT_GT(b.candidates_evaluated, a.candidates_evaluated);
  EXPECT_LE(b.model_cost, a.model_cost + 1e-12);  // superset of candidates
}

TEST(TieredOptimizer, ValidatesInputs) {
  const auto p = three_tier_params();
  const auto reqs = uniform_requests(64 * KiB, 4);
  EXPECT_THROW(core::optimize_region_tiered(p, {}, 64.0 * KiB),
               std::invalid_argument);
  EXPECT_THROW(core::optimize_region_tiered(p, reqs, 0.0),
               std::invalid_argument);
  core::TieredCostParams empty;
  EXPECT_THROW(core::optimize_region_tiered(empty, reqs, 64.0 * KiB),
               std::invalid_argument);
}

// ------------------------------------------------- end-to-end (sim) ----

TEST(TieredIntegration, AwareLayoutBeatsUniformInSimulation) {
  // Run the same IOR-ish request stream on the three-tier cluster under a
  // uniform 64K layout and under the tier-aware optimum.
  const auto p = three_tier_params();
  const auto reqs = uniform_requests(1 * MiB, 64);
  core::TieredOptimizerOptions opts;
  opts.step = 32 * KiB;
  const auto aware = core::optimize_region_tiered(p, reqs, 1.0 * MiB, opts);

  auto run_layout = [&](std::shared_ptr<const pfs::Layout> layout) {
    sim::Simulator sim;
    pfs::Cluster cluster(sim, three_tier_config());
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      cluster.client(i % cluster.num_clients())
          .io(*layout, reqs[i].op, reqs[i].offset, reqs[i].size, [] {});
    }
    sim.run();
    return sim.now();
  };

  const std::vector<std::size_t> counts = {4, 2, 2};
  const Seconds uniform = run_layout(pfs::make_fixed_layout(8, 64 * KiB));
  const Seconds tier_aware =
      run_layout(pfs::make_tiered_layout(counts, aware.stripes));
  EXPECT_LT(tier_aware, uniform);
}

TEST(TieredIntegration, PlannerToPlacementUsesOnePath) {
  // Full three-tier pipeline on the generic tier-vector representation:
  // trace -> analyze_tiered -> Plan artifact round trip -> HarlDriver
  // install on a three-tier cluster -> simulated I/O.  Exactly the same
  // placement code the two-tier path uses.
  const auto p = three_tier_params();
  std::vector<trace::TraceRecord> records;
  {
    Rng rng(5);
    for (std::size_t i = 0; i < 128; ++i) {
      trace::TraceRecord rec;
      rec.rank = static_cast<std::uint32_t>(i % 4);
      rec.op = i % 2 ? IoOp::kRead : IoOp::kWrite;
      // Two bands with different request sizes so Algorithm 1 can split.
      if (i % 2) {
        rec.size = 64 * KiB;
        rec.offset = rng.uniform_u64(0, 255) * rec.size;
      } else {
        rec.size = 1 * MiB;
        rec.offset = 64 * MiB + rng.uniform_u64(0, 255) * rec.size;
      }
      rec.t_start = static_cast<Seconds>(i);
      records.push_back(rec);
    }
  }
  core::TieredPlannerOptions opts;
  opts.optimizer.step = 32 * KiB;
  opts.divider.fixed_region_size = 16 * MiB;
  const core::Plan plan = core::analyze_tiered(records, p, opts);
  ASSERT_GE(plan.rst.size(), 1u);
  EXPECT_EQ(plan.rst.num_tiers(), 3u);
  EXPECT_EQ(plan.tier_counts, (std::vector<std::size_t>{4, 2, 2}));
  EXPECT_EQ(plan.calibration_fingerprint, core::params_fingerprint(p));

  // Through the artifact, as a separate Placing process would see it.
  const std::string path =
      ::testing::TempDir() + "/three_tier_roundtrip.plan";
  core::save_plan(core::PlanArtifact::from_plan(plan), path);
  const core::PlanArtifact loaded = core::load_plan(path);
  EXPECT_EQ(loaded.tier_counts, plan.tier_counts);

  sim::Simulator sim;
  pfs::Cluster cluster(sim, three_tier_config());
  const auto layout = mw::HarlDriver::install(loaded, "mt.dat", cluster);
  ASSERT_NE(layout, nullptr);
  EXPECT_EQ(layout->server_count(), 8u);
  EXPECT_EQ(layout->region_count(), loaded.rst.size());
  for (const auto& rec : records) {
    cluster.client(rec.rank % cluster.num_clients())
        .io(*layout, rec.op, rec.offset, rec.size, [] {});
  }
  sim.run();
  EXPECT_GT(sim.now(), 0.0);
}

TEST(TieredIntegration, InstallRejectsMismatchedTierTable) {
  core::PlanArtifact artifact;
  artifact.tier_counts = {6, 2};  // two-tier plan against a 3-tier cluster
  artifact.rst.add(0, {16 * KiB, 64 * KiB});
  sim::Simulator sim;
  pfs::Cluster cluster(sim, three_tier_config());
  EXPECT_THROW(mw::HarlDriver::install(artifact, "mt.dat", cluster),
               std::runtime_error);
}

}  // namespace
}  // namespace harl
