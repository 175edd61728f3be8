// Tests for the heterogeneity-aware read cache tier: the CacheTier policy
// directory, the CacheManager data path over a simulated cluster, the
// cache-aware Analysis Phase (analyze_cached), and the harness-level
// guarantees — cache-budget=0 byte-identity, pool-width invariance with the
// cache enabled, and the blind-vs-aware ablation semantics.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "src/common/thread_pool.hpp"
#include "src/core/planner.hpp"
#include "src/harness/experiment.hpp"
#include "src/pfs/cache_manager.hpp"
#include "src/pfs/cluster.hpp"
#include "src/sim/simulator.hpp"
#include "src/storage/cache_tier.hpp"
#include "src/storage/profiles.hpp"

namespace harl {
namespace {

using storage::CachePolicy;
using storage::CacheTier;

CacheTier::Config tier_config(std::size_t slots,
                              CachePolicy policy = CachePolicy::kLru) {
  CacheTier::Config cfg;
  cfg.capacity = static_cast<Bytes>(slots) * 64 * KiB;
  cfg.chunk = 64 * KiB;
  cfg.policy = policy;
  return cfg;
}

/// admit + fill_complete in one step (the common steady-state transition).
void admit_resident(CacheTier& tier, std::uint64_t key) {
  std::vector<std::uint64_t> evicted;
  ASSERT_TRUE(tier.admit(key, evicted));
  ASSERT_TRUE(tier.fill_complete(key));
}

TEST(CacheTier, LruEvictsColdestResident) {
  CacheTier tier(tier_config(3));
  admit_resident(tier, 0);
  admit_resident(tier, 1);
  admit_resident(tier, 2);
  // Touch 0 and 2: 1 becomes the coldest resident.
  EXPECT_EQ(tier.lookup(0), CacheTier::State::kResident);
  EXPECT_EQ(tier.lookup(2), CacheTier::State::kResident);
  std::vector<std::uint64_t> evicted;
  ASSERT_TRUE(tier.admit(3, evicted));
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0], 1u);
  EXPECT_EQ(tier.state(1), CacheTier::State::kAbsent);
  EXPECT_EQ(tier.stats().evictions, 1u);
}

TEST(CacheTier, SlruHitPromotesOutOfProbation) {
  // 4 slots, 0.5 protected: entries enter probation; a probation hit
  // promotes.  Under pressure the unpromoted probation entry goes first
  // even though it is more recent than the promoted one.
  CacheTier::Config cfg = tier_config(4, CachePolicy::kSlru);
  cfg.protected_fraction = 0.5;
  CacheTier tier(cfg);
  admit_resident(tier, 10);
  EXPECT_EQ(tier.lookup(10), CacheTier::State::kResident);  // -> protected
  admit_resident(tier, 11);  // probation, newer than 10
  admit_resident(tier, 12);
  admit_resident(tier, 13);
  std::vector<std::uint64_t> evicted;
  ASSERT_TRUE(tier.admit(14, evicted));
  ASSERT_EQ(evicted.size(), 1u);
  // The probation tail (11) is the victim; the promoted 10 survives.
  EXPECT_EQ(evicted[0], 11u);
  EXPECT_EQ(tier.state(10), CacheTier::State::kResident);
}

TEST(CacheTier, InvalidatePoisonsInFlightFill) {
  CacheTier tier(tier_config(4));
  std::vector<std::uint64_t> evicted;
  ASSERT_TRUE(tier.admit(7, evicted));
  EXPECT_EQ(tier.state(7), CacheTier::State::kFilling);
  EXPECT_TRUE(tier.invalidate(7));
  // The fill lands after the write: its bytes must be discarded, and the
  // chunk must not become resident.
  EXPECT_FALSE(tier.fill_complete(7));
  EXPECT_EQ(tier.state(7), CacheTier::State::kAbsent);
  EXPECT_EQ(tier.stats().fills_discarded, 1u);
  EXPECT_EQ(tier.stats().fills_completed, 0u);
  EXPECT_EQ(tier.resident(), 0u);
}

TEST(CacheTier, PinnedFillsAreNeverVictims) {
  CacheTier tier(tier_config(2));
  std::vector<std::uint64_t> evicted;
  ASSERT_TRUE(tier.admit(0, evicted));
  ASSERT_TRUE(tier.admit(1, evicted));
  // Both slots hold in-flight fills: nothing can be evicted, so the third
  // admission must be refused rather than dropping a pinned fill.
  EXPECT_FALSE(tier.admit(2, evicted));
  EXPECT_TRUE(evicted.empty());
  EXPECT_EQ(tier.filling(), 2u);
}

TEST(CacheTier, ZeroBudgetAdmitsNothing) {
  CacheTier tier(tier_config(0));
  EXPECT_EQ(tier.slots(), 0u);
  std::vector<std::uint64_t> evicted;
  EXPECT_FALSE(tier.admit(0, evicted));
  EXPECT_EQ(tier.lookup(0), CacheTier::State::kAbsent);
}

TEST(CacheTier, StatsReconcile) {
  // The invariants obs_report.py --check enforces on the exported families:
  // lookups == hits + misses, admissions == completed + discarded.
  CacheTier tier(tier_config(2));
  std::vector<std::uint64_t> evicted;
  tier.lookup(0);             // miss
  ASSERT_TRUE(tier.admit(0, evicted));
  tier.lookup(0);             // miss (still filling)
  ASSERT_TRUE(tier.fill_complete(0));
  tier.lookup(0);             // hit
  ASSERT_TRUE(tier.admit(1, evicted));
  EXPECT_TRUE(tier.invalidate(1));
  EXPECT_FALSE(tier.fill_complete(1));  // poisoned -> discarded
  const CacheTier::Stats& s = tier.stats();
  EXPECT_EQ(s.lookups, s.hits + s.misses);
  EXPECT_EQ(s.admissions, s.fills_completed + s.fills_discarded);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.admissions, 2u);
}

// ---------------------------------------------------------------------------
// CacheManager over a live simulated cluster.

pfs::ClusterConfig cache_cluster_config() {
  pfs::ClusterConfig cfg;
  cfg.num_hservers = 2;
  cfg.num_sservers = 2;
  cfg.num_clients = 2;
  return cfg;
}

pfs::CacheManager::Config manager_config(Bytes budget,
                                         std::size_t devices = 1) {
  pfs::CacheManager::Config cfg;
  cfg.budget = budget;
  cfg.chunk = 64 * KiB;
  cfg.tier = 1;
  cfg.devices = devices;
  return cfg;
}

TEST(CacheManager, SecondReadHitsTheCacheDevice) {
  sim::Simulator sim;
  pfs::Cluster cluster(sim, cache_cluster_config());
  pfs::CacheManager cache(cluster, manager_config(1 * MiB));
  ASSERT_TRUE(cache.enabled());
  cluster.client(0).set_cache(&cache);
  auto layout = pfs::make_fixed_layout(cluster.num_servers(), 64 * KiB);

  cluster.client(0).io(*layout, IoOp::kRead, 0, 128 * KiB, [] {});
  sim.run();  // miss run + background fills drain
  EXPECT_EQ(cache.tier().stats().misses, 2u);
  EXPECT_EQ(cache.tier().stats().fills_completed, 2u);

  const std::size_t cache_server = cache.cache_server(0);
  const Bytes cache_reads_before = cluster.server(cache_server).bytes_read();
  cluster.client(0).io(*layout, IoOp::kRead, 0, 128 * KiB, [] {});
  sim.run();
  EXPECT_EQ(cache.tier().stats().hits, 2u);
  EXPECT_EQ(cache.stats().hit_read_bytes, 128 * KiB);
  // The hits were served by the cache device, not the home servers.
  EXPECT_EQ(cluster.server(cache_server).bytes_read() - cache_reads_before,
            128 * KiB);
}

TEST(CacheManager, WriteInvalidateRacesTheFill) {
  sim::Simulator sim;
  pfs::Cluster cluster(sim, cache_cluster_config());
  pfs::CacheManager cache(cluster, manager_config(1 * MiB));
  cluster.client(0).set_cache(&cache);
  auto layout = pfs::make_fixed_layout(cluster.num_servers(), 64 * KiB);

  // The read admits the chunk at issue time; the write invalidates while
  // the fill is still in flight (both issued at t=0, the fill lands later).
  cluster.client(0).io(*layout, IoOp::kRead, 0, 64 * KiB, [] {});
  cluster.client(0).io(*layout, IoOp::kWrite, 0, 64 * KiB, [] {});
  sim.run();
  EXPECT_EQ(cache.tier().stats().invalidations, 1u);
  EXPECT_EQ(cache.tier().stats().fills_discarded, 1u);
  EXPECT_EQ(cache.tier().stats().fills_completed, 0u);
  EXPECT_EQ(cache.tier().resident(), 0u);

  // The next read must miss (the poisoned fill never became resident).
  cluster.client(0).io(*layout, IoOp::kRead, 0, 64 * KiB, [] {});
  sim.run();
  EXPECT_EQ(cache.tier().stats().hits, 0u);
}

TEST(CacheManager, EvictsUnderFullBudget) {
  sim::Simulator sim;
  pfs::Cluster cluster(sim, cache_cluster_config());
  // 4 slots of 64 KiB; the working set is 8 chunks, so steady state cycles.
  pfs::CacheManager cache(cluster, manager_config(256 * KiB));
  cluster.client(0).set_cache(&cache);
  auto layout = pfs::make_fixed_layout(cluster.num_servers(), 64 * KiB);

  for (int pass = 0; pass < 3; ++pass) {
    for (Bytes c = 0; c < 8; ++c) {
      cluster.client(0).io(*layout, IoOp::kRead, c * 64 * KiB, 64 * KiB,
                           [] {});
      sim.run();
    }
  }
  const CacheTier::Stats& s = cache.tier().stats();
  EXPECT_GT(s.evictions, 0u);
  EXPECT_LE(cache.tier().resident(), cache.tier().slots());
  EXPECT_EQ(s.lookups, s.hits + s.misses);
  EXPECT_EQ(s.admissions, s.fills_completed + s.fills_discarded);
}

TEST(CacheManager, ResplitClearsAndKeepsServing) {
  sim::Simulator sim;
  pfs::Cluster cluster(sim, cache_cluster_config());
  pfs::CacheManager cache(cluster, manager_config(1 * MiB, 2));
  cluster.client(0).set_cache(&cache);
  auto layout = pfs::make_fixed_layout(cluster.num_servers(), 64 * KiB);

  cluster.client(0).io(*layout, IoOp::kRead, 0, 256 * KiB, [] {});
  sim.run();
  EXPECT_GT(cache.tier().resident(), 0u);

  // Narrowing the spread re-maps every slot address: the directory drops.
  cache.set_active_devices(1);
  EXPECT_EQ(cache.stats().resplits, 1u);
  EXPECT_EQ(cache.stats().clears, 1u);
  EXPECT_EQ(cache.tier().resident(), 0u);

  // The cache keeps working at the new spread.
  cluster.client(0).io(*layout, IoOp::kRead, 0, 256 * KiB, [] {});
  sim.run();
  cluster.client(0).io(*layout, IoOp::kRead, 0, 256 * KiB, [] {});
  sim.run();
  EXPECT_GT(cache.tier().stats().hits, 0u);
  EXPECT_EQ(cache.active_devices(), 1u);
}

TEST(CacheManager, ZeroBudgetIsDisabled) {
  sim::Simulator sim;
  pfs::Cluster cluster(sim, cache_cluster_config());
  pfs::CacheManager cache(cluster, manager_config(0));
  EXPECT_FALSE(cache.enabled());
  // A disabled manager attached to a client must leave the data path
  // untouched: run the same read with and without the manager and compare
  // completion times exactly.
  cluster.client(0).set_cache(&cache);
  auto layout = pfs::make_fixed_layout(cluster.num_servers(), 64 * KiB);
  cluster.client(0).io(*layout, IoOp::kRead, 0, 256 * KiB, [] {});
  sim.run();
  const Seconds with_disabled_cache = sim.now();

  sim::Simulator bare_sim;
  pfs::Cluster bare(bare_sim, cache_cluster_config());
  auto bare_layout = pfs::make_fixed_layout(bare.num_servers(), 64 * KiB);
  bare.client(0).io(*bare_layout, IoOp::kRead, 0, 256 * KiB, [] {});
  bare_sim.run();
  EXPECT_EQ(with_disabled_cache, bare_sim.now());
}

// ---------------------------------------------------------------------------
// Cache-aware Analysis Phase.

core::CostParams cached_planner_params() {
  core::CostParams p = core::make_cost_params(
      6, 3, storage::hdd_profile(), storage::pcie_ssd_profile(),
      1.0 / (117.0 * 1024 * 1024));
  p.sserver_factors = {1.0, 4.0, 4.0};
  return p;
}

/// A skewed re-read trace: `ranks` processes repeatedly read a hot prefix
/// of the file — the shape whose replayed hit rate justifies a reservation.
std::vector<trace::TraceRecord> skewed_read_trace(std::uint32_t ranks,
                                                  int rounds) {
  std::vector<trace::TraceRecord> records;
  Seconds t = 0.0;
  for (int round = 0; round < rounds; ++round) {
    for (std::uint32_t rank = 0; rank < ranks; ++rank) {
      for (Bytes c = 0; c < 32; ++c) {
        trace::TraceRecord r;
        r.rank = rank;
        r.op = IoOp::kRead;
        r.offset = c * 64 * KiB;
        r.size = 64 * KiB;
        r.t_start = t;
        t += 1e-6;
        r.t_end = t;
        records.push_back(r);
      }
    }
  }
  std::sort(records.begin(), records.end(),
            [](const trace::TraceRecord& a, const trace::TraceRecord& b) {
              return a.offset < b.offset;
            });
  return records;
}

TEST(AnalyzeCached, DisabledOptionsEqualAnalyze) {
  const auto records = skewed_read_trace(8, 2);
  const core::CostParams params = cached_planner_params();
  const auto plain = core::analyze(records, params);
  const auto cached =
      core::analyze_cached(records, params, core::CachePlannerOptions{});
  ASSERT_FALSE(cached.cache.has_value());
  ASSERT_EQ(cached.rst.size(), plain.rst.size());
  for (std::size_t i = 0; i < plain.rst.size(); ++i) {
    EXPECT_EQ(cached.rst.entry(i).stripes, plain.rst.entry(i).stripes);
    EXPECT_EQ(cached.rst.entry(i).members, plain.rst.entry(i).members);
  }
  EXPECT_EQ(cached.total_model_cost(), plain.total_model_cost());
}

TEST(AnalyzeCached, ReservesFastDevicesUnderSkewedReuse) {
  // Heavy reuse from many ranks over a 2 MiB hot set, with 2 of 3 SServers
  // aged 4x: concentrating every region on the one fresh device would
  // NIC-saturate, so the sweep's bandwidth floor makes the reservation win.
  const auto records = skewed_read_trace(32, 4);
  core::CachePlannerOptions cache;
  cache.budget = 4 * MiB;
  cache.chunk = 64 * KiB;
  cache.max_devices = 2;
  const auto plan =
      core::analyze_cached(records, cached_planner_params(), cache);
  ASSERT_TRUE(plan.cache.has_value());
  EXPECT_GE(plan.cache->devices, 1u);
  EXPECT_LE(plan.cache->devices, 2u);
  // Every chunk is re-read `ranks * rounds` times: the replayed hit rate
  // must be high once the directory warms.
  EXPECT_GT(plan.cache->expected_hit_rate, 0.5);
  // The reservation is carved out of the planned regions' membership.
  for (const auto& region : plan.rst.entries()) {
    if (region.members.empty()) continue;
    EXPECT_LE(region.members[1], 3u - plan.cache->devices);
  }
}

TEST(AnalyzeCached, ReadOnceTraceDeclinesReservation) {
  // IOR-style read-once traffic has no reuse: every chunk misses, so the
  // cache only adds fill traffic and the sweep must keep r = 0.
  std::vector<trace::TraceRecord> records;
  Seconds t = 0.0;
  for (std::uint32_t rank = 0; rank < 8; ++rank) {
    for (Bytes c = 0; c < 64; ++c) {
      trace::TraceRecord r;
      r.rank = rank;
      r.op = IoOp::kRead;
      r.offset = (rank * 64 + c) * 64 * KiB;
      r.size = 64 * KiB;
      r.t_start = t;
      t += 1e-6;
      r.t_end = t;
      records.push_back(r);
    }
  }
  core::CachePlannerOptions cache;
  cache.budget = 4 * MiB;
  cache.chunk = 64 * KiB;
  cache.max_devices = 2;
  const auto plan =
      core::analyze_cached(records, cached_planner_params(), cache);
  EXPECT_FALSE(plan.cache.has_value());
}

// ---------------------------------------------------------------------------
// Harness-level guarantees.

workloads::ZipfConfig small_zipf() {
  workloads::ZipfConfig z;
  z.file_size = 16 * MiB;
  z.request_size = 64 * KiB;
  z.processes = 4;
  z.reads_per_process = 64;
  z.read_phases = 2;
  return z;
}

harness::ExperimentOptions cached_options(Bytes budget, bool blind) {
  harness::ExperimentOptions opts;
  opts.calibration.samples_per_size = 200;
  opts.calibration.beta_samples = 200;
  opts.cache.budget = budget;
  opts.cache.chunk = 64 * KiB;
  opts.cache.devices = 1;
  opts.cache.blind = blind;
  return opts;
}

TEST(CacheHarness, ZeroBudgetRunsAreByteIdentical) {
  const auto bundle = harness::zipf_bundle(small_zipf());
  const auto scheme = harness::LayoutScheme::fixed(64 * KiB);

  harness::Experiment bare((harness::ExperimentOptions()));
  const auto base = bare.run(bundle, scheme);

  harness::Experiment zero(cached_options(0, true));
  const auto with_zero_budget = zero.run(bundle, scheme);

  EXPECT_EQ(base.read.makespan, with_zero_budget.read.makespan);
  EXPECT_EQ(base.write.makespan, with_zero_budget.write.makespan);
  EXPECT_EQ(base.total.makespan, with_zero_budget.total.makespan);
  EXPECT_FALSE(with_zero_budget.cache.has_value());
}

TEST(CacheHarness, CacheEnabledIsWidthInvariant) {
  // With the cache on, every scheme's run must be byte-identical whether
  // the harness runs the schemes serially or concurrently on a pool: each
  // run owns its cluster and cache manager.
  const auto bundle = harness::zipf_bundle(small_zipf());
  const std::vector<harness::LayoutScheme> schemes{
      harness::LayoutScheme::fixed(64 * KiB),
      harness::LayoutScheme::fixed(256 * KiB)};

  std::vector<std::vector<harness::SchemeResult>> runs;
  for (const std::size_t width : {0u, 1u, 2u, 4u}) {
    std::unique_ptr<ThreadPool> pool;
    harness::ExperimentOptions opts = cached_options(8 * MiB, true);
    if (width > 0) {
      pool = std::make_unique<ThreadPool>(width);
      opts.pool = pool.get();
    }
    harness::Experiment exp(opts);
    runs.push_back(exp.run_all(bundle, schemes));
  }
  for (std::size_t w = 1; w < runs.size(); ++w) {
    for (std::size_t i = 0; i < schemes.size(); ++i) {
      const auto& want = runs[0][i];
      const auto& got = runs[w][i];
      EXPECT_EQ(want.read.makespan, got.read.makespan) << "width " << w;
      EXPECT_EQ(want.write.makespan, got.write.makespan);
      ASSERT_TRUE(got.cache.has_value());
      EXPECT_EQ(want.cache->tier.hits, got.cache->tier.hits);
      EXPECT_EQ(want.cache->tier.admissions, got.cache->tier.admissions);
      EXPECT_EQ(want.cache->tier.evictions, got.cache->tier.evictions);
      EXPECT_EQ(want.cache->fill_bytes, got.cache->fill_bytes);
    }
  }
  EXPECT_GT(runs[0][0].cache->tier.hits, 0u);
}

TEST(CacheHarness, BlindKeepsThePlannerUntouched) {
  // The blind arm must not change the Analysis Phase: same regions, same
  // stripes, no reservation — only the measured run differs (the bolted-on
  // cache contends with foreground striping over the same devices).
  const auto bundle = harness::zipf_bundle(small_zipf());
  const auto scheme = harness::LayoutScheme::harl();

  harness::Experiment bare((harness::ExperimentOptions()));
  const auto base = bare.run(bundle, scheme);

  harness::Experiment blind(cached_options(8 * MiB, true));
  const auto blinded = blind.run(bundle, scheme);

  ASSERT_TRUE(base.plan.has_value());
  ASSERT_TRUE(blinded.plan.has_value());
  EXPECT_FALSE(blinded.plan->cache.has_value());
  ASSERT_EQ(base.plan->rst.size(), blinded.plan->rst.size());
  for (std::size_t i = 0; i < base.plan->rst.size(); ++i) {
    EXPECT_EQ(base.plan->rst.entry(i).stripes,
              blinded.plan->rst.entry(i).stripes);
  }
  // The cache ran (blind mode arms it regardless of the plan).
  ASSERT_TRUE(blinded.cache.has_value());
  EXPECT_GT(blinded.cache->tier.lookups, 0u);
}

TEST(CacheHarness, AwareModeUsesThePlanReservation) {
  // Aware mode delegates the decision to analyze_cached: when the model
  // declines (r = 0 wins), the measured run is cache-less even though the
  // cache flags are set — the reservation is the planner's to make.
  const auto bundle = harness::zipf_bundle(small_zipf());
  const auto scheme = harness::LayoutScheme::harl();

  harness::Experiment aware(cached_options(8 * MiB, false));
  const auto result = aware.run(bundle, scheme);
  ASSERT_TRUE(result.plan.has_value());
  if (result.plan->cache.has_value()) {
    ASSERT_TRUE(result.cache.has_value());
    EXPECT_EQ(result.cache->active_devices, result.plan->cache->devices);
    EXPECT_NE(result.layout_description.find("cache-reserved"),
              std::string::npos);
  } else {
    EXPECT_FALSE(result.cache.has_value());
  }
}

}  // namespace
}  // namespace harl
