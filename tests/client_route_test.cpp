// The client's three routes through its single request pipeline — plain
// striped I/O, reads through the read cache, and replicated I/O around a
// failed server — must behave identically whether or not a flight recorder
// observes the run, and the unobserved routes must stay allocation-free on
// the event path (every continuation fits InlineTask's in-place buffer).
// The same holds for adaptive re-layout, single-file and per-file in a
// population: the runner feeds the advisor whether or not anything observes
// the run, so its epochs must not depend on observation either.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "src/harness/experiment.hpp"
#include "src/harness/population.hpp"

namespace harl::harness {
namespace {

enum class Route {
  kPlain,
  kCache,
  kReplicated,
  kAdaptive,
  kAdaptivePopulation,
};

std::string route_name(const testing::TestParamInfo<Route>& info) {
  switch (info.param) {
    case Route::kPlain:
      return "PlainIorWriteRead";
    case Route::kCache:
      return "ZipfReadsThroughCache";
    case Route::kReplicated:
      return "ReplicatedPopulationWithFailure";
    case Route::kAdaptive:
      return "AdaptiveDriftingMultiregion";
    case Route::kAdaptivePopulation:
      return "AdaptivePopulationWithFailure";
  }
  return "Unknown";
}

void print_phase(std::ostream& os, const PhaseStats& p) {
  os << '|' << p.makespan << '|' << p.bytes;
}

/// Everything the run produced that does not depend on observation: the
/// result rows, per-server I/O time and the client counters.  Also reports
/// whether the recorder saw the run and the measured run's heap spills.
struct Outcome {
  std::string rows;
  bool observed = false;
  std::uint64_t heap_callbacks = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t degraded_reads = 0;
  std::size_t adaptive_windows = 0;  ///< advisor windows (adaptive routes)
  std::size_t adaptive_epochs = 0;   ///< epochs installed (adaptive routes)
  bool degraded_replan = false;      ///< a per-file advisor saw the failure
};

ExperimentOptions small_options(bool observe) {
  ExperimentOptions options;
  options.calibration.samples_per_size = 50;
  options.calibration.beta_samples = 50;
  options.observe = observe;
  options.recorder.trace = observe;
  return options;
}

Outcome run_scheme(const ExperimentOptions& options,
                   const WorkloadBundle& bundle,
                   const LayoutScheme& scheme = LayoutScheme::fixed(64 * KiB)) {
  Experiment experiment(options);
  const SchemeResult r = experiment.run(bundle, scheme);
  std::ostringstream os;
  os.precision(17);
  os << r.label << '|' << r.layout_description;
  print_phase(os, r.write);
  print_phase(os, r.read);
  print_phase(os, r.total);
  for (const Seconds t : r.server_io_time) os << '|' << t;
  os << "|requests " << r.requests_issued;
  Outcome out;
  if (r.cache.has_value()) {
    const auto& c = r.cache->tier;
    os << "|cache " << c.lookups << ' ' << c.hits << ' ' << c.admissions
       << ' ' << c.evictions << ' ' << r.cache->fill_bytes;
    out.cache_hits = c.hits;
  }
  if (r.adaptive.has_value()) {
    const auto& a = *r.adaptive;
    os << "|adaptive " << a.epochs_installed << ' ' << a.windows_analyzed
       << ' ' << a.recommendations << ' ' << a.recommendations_deferred << ' '
       << a.migrated_bytes << ' ' << a.migration_chunks << ' '
       << a.migration_interference << ' ' << a.cost_evals << ' '
       << a.cost_evals_saved;
    out.adaptive_windows = a.windows_analyzed;
    out.adaptive_epochs = a.epochs_installed;
  }
  out.rows = os.str();
  out.observed = r.obs != nullptr;
  out.heap_callbacks = r.sim_stats.heap_callbacks;
  return out;
}

Outcome run_route(Route route, bool observe) {
  ExperimentOptions options = small_options(observe);
  switch (route) {
    case Route::kPlain: {
      workloads::IorConfig ior;
      ior.processes = 4;
      ior.request_size = 256 * KiB;
      ior.file_size = 64 * MiB;
      ior.requests_per_process = 16;
      return run_scheme(options, ior_bundle(ior));
    }
    case Route::kCache: {
      workloads::ZipfConfig zipf;
      zipf.processes = 8;
      zipf.file_size = 64 * MiB;
      zipf.request_size = 64 * KiB;
      zipf.reads_per_process = 64;
      zipf.read_phases = 2;
      options.cache.budget = 64 * MiB;
      options.cache.chunk = 64 * KiB;
      options.cache.devices = 2;
      return run_scheme(options, zipf_bundle(zipf));
    }
    case Route::kAdaptive: {
      // The drifting multiregion recipe: the offline plan goes stale, so the
      // advisor re-plans and installs epochs mid-run.
      workloads::MultiRegionConfig mr;
      mr.processes = 4;
      mr.coverage = 0.05;
      mr.seed = 7;
      mr.drift_phases = 2;
      mr.drift_factor = 0.125;
      options.adaptive.advisor.window = 256;
      return run_scheme(options, multiregion_bundle(mr),
                        LayoutScheme::harl_adaptive());
    }
    case Route::kReplicated:
    case Route::kAdaptivePopulation: {
      const bool adaptive = route == Route::kAdaptivePopulation;
      PopulationSpec spec;
      spec.files = 4;
      spec.processes = 4;
      spec.file_size = 8 * MiB;
      const auto population = make_population(spec);
      options.cluster.fail_server = adaptive ? 7 : 3;
      options.cluster.fail_at = adaptive ? 0.05 : 0.02;
      options.adaptive.advisor.window = 16;
      Experiment experiment(options);
      const PopulationResult r = run_population(
          experiment, population,
          adaptive ? LayoutScheme::harl_adaptive()
                   : LayoutScheme::fixed(64 * KiB));
      std::ostringstream os;
      os.precision(17);
      Outcome out;
      for (const auto& f : r.files) {
        os << f.name << '|' << f.tenant << '|' << f.layout_description;
        print_phase(os, f.total);
        os << "|epochs " << f.adaptive_epochs << '\n';
        out.adaptive_epochs += f.adaptive_epochs;
      }
      print_phase(os, r.total);
      for (const Seconds t : r.server_io_time) os << '|' << t;
      os << "|requests " << r.requests_issued << "|degraded "
         << r.degraded_reads << "|replica " << r.replica_writes
         << "|rebuilt " << r.rebuilt_bytes << ' ' << r.rebuild_finished_at
         << "|replan " << r.degraded_replan;
      out.rows = os.str();
      out.observed = r.obs != nullptr;
      out.heap_callbacks = r.sim_stats.heap_callbacks;
      out.degraded_reads = r.degraded_reads;
      out.degraded_replan = r.degraded_replan;
      return out;
    }
  }
  return {};
}

class ClientRoute : public testing::TestWithParam<Route> {};

TEST_P(ClientRoute, ObservingARunDoesNotChangeIt) {
  const Outcome plain = run_route(GetParam(), false);
  const Outcome observed = run_route(GetParam(), true);
  EXPECT_FALSE(plain.observed);
  EXPECT_TRUE(observed.observed);
  EXPECT_EQ(plain.rows, observed.rows);
  // The route under test was really exercised.
  if (GetParam() == Route::kCache) {
    EXPECT_GT(plain.cache_hits, 0u);
  }
  if (GetParam() == Route::kReplicated) {
    EXPECT_GT(plain.degraded_reads, 0u);
  }
  if (GetParam() == Route::kAdaptive) {
    EXPECT_GT(plain.adaptive_windows, 0u);
    EXPECT_GT(plain.adaptive_epochs, 0u);
  }
  if (GetParam() == Route::kAdaptivePopulation) {
    EXPECT_GT(plain.degraded_reads, 0u);
    EXPECT_TRUE(plain.degraded_replan);
  }
}

INSTANTIATE_TEST_SUITE_P(Routes, ClientRoute,
                         testing::Values(Route::kPlain, Route::kCache,
                                         Route::kReplicated, Route::kAdaptive,
                                         Route::kAdaptivePopulation),
                         route_name);

TEST(ClientRoute, UnobservedPlainRunSpillsNoContinuation) {
  EXPECT_EQ(run_route(Route::kPlain, false).heap_callbacks, 0u);
}

TEST(ClientRoute, UnobservedCacheReadRunSpillsNoContinuation) {
  EXPECT_EQ(run_route(Route::kCache, false).heap_callbacks, 0u);
}

}  // namespace
}  // namespace harl::harness
