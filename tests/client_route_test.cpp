// The client's three routes through its single request pipeline — plain
// striped I/O, reads through the read cache, and replicated I/O around a
// failed server — must behave identically whether or not a flight recorder
// observes the run, and the unobserved routes must stay allocation-free on
// the event path (every continuation fits InlineTask's in-place buffer).
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "src/harness/experiment.hpp"
#include "src/harness/population.hpp"

namespace harl::harness {
namespace {

enum class Route { kPlain, kCache, kReplicated };

std::string route_name(const testing::TestParamInfo<Route>& info) {
  switch (info.param) {
    case Route::kPlain:
      return "PlainIorWriteRead";
    case Route::kCache:
      return "ZipfReadsThroughCache";
    case Route::kReplicated:
      return "ReplicatedPopulationWithFailure";
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
                   const WorkloadBundle& bundle) {
  Experiment experiment(options);
  const SchemeResult r = experiment.run(bundle, LayoutScheme::fixed(64 * KiB));
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
    case Route::kReplicated: {
      PopulationSpec spec;
      spec.files = 4;
      spec.processes = 4;
      spec.file_size = 8 * MiB;
      const auto population = make_population(spec);
      options.cluster.fail_server = 3;
      options.cluster.fail_at = 0.02;
      Experiment experiment(options);
      const PopulationResult r = run_population(
          experiment, population, LayoutScheme::fixed(64 * KiB));
      std::ostringstream os;
      os.precision(17);
      for (const auto& f : r.files) {
        os << f.name << '|' << f.tenant << '|' << f.layout_description;
        print_phase(os, f.total);
        os << '\n';
      }
      print_phase(os, r.total);
      for (const Seconds t : r.server_io_time) os << '|' << t;
      os << "|requests " << r.requests_issued << "|degraded "
         << r.degraded_reads << "|replica " << r.replica_writes
         << "|rebuilt " << r.rebuilt_bytes << ' ' << r.rebuild_finished_at;
      Outcome out;
      out.rows = os.str();
      out.observed = r.obs != nullptr;
      out.heap_callbacks = r.sim_stats.heap_callbacks;
      out.degraded_reads = r.degraded_reads;
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
}

INSTANTIATE_TEST_SUITE_P(Routes, ClientRoute,
                         testing::Values(Route::kPlain, Route::kCache,
                                         Route::kReplicated),
                         route_name);

TEST(ClientRoute, UnobservedPlainRunSpillsNoContinuation) {
  EXPECT_EQ(run_route(Route::kPlain, false).heap_callbacks, 0u);
}

TEST(ClientRoute, UnobservedCacheReadRunSpillsNoContinuation) {
  EXPECT_EQ(run_route(Route::kCache, false).heap_callbacks, 0u);
}

}  // namespace
}  // namespace harl::harness
