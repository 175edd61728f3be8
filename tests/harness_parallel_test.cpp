// Parallel experiment harness: run_all / run_replicated on a thread pool
// must produce results exactly equal to the serial runs — the simulator is
// deterministic per instance and the harness orders results by index, so
// pool width can only change wall time, never a byte of output.
#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "src/common/thread_pool.hpp"
#include "src/harness/experiment.hpp"

namespace harl::harness {
namespace {

WorkloadBundle small_bundle() {
  workloads::IorConfig ior;
  ior.processes = 4;
  ior.request_size = 128 * KiB;
  ior.file_size = 64 * MiB;
  ior.requests_per_process = 8;
  return ior_bundle(ior);
}

ExperimentOptions small_options(ThreadPool* pool) {
  ExperimentOptions options;
  options.cluster.num_hservers = 3;
  options.cluster.num_sservers = 1;
  options.cluster.num_clients = 2;
  options.calibration.samples_per_size = 50;
  options.calibration.beta_samples = 50;
  options.pool = pool;
  // Small windows + a permissive gate so the adaptive scheme actually swaps
  // epochs inside this tiny workload: epoch swaps and migration are pure
  // simulated events, so they too must be bit-identical at any pool width.
  options.adaptive.advisor.window = 16;
  options.adaptive.advisor.min_gain = 0.05;
  return options;
}

std::vector<LayoutScheme> scheme_lineup() {
  return {
      LayoutScheme::fixed(64 * KiB),
      LayoutScheme::fixed(256 * KiB),
      LayoutScheme::random_stripes(1),
      LayoutScheme::harl(),
      LayoutScheme::harl_adaptive(),
  };
}

/// Serializes every numeric field of a result so "exactly equal" means
/// bit-for-bit equal formatted output, the property the figure tables need.
std::string fingerprint(const SchemeResult& r) {
  std::ostringstream os;
  os.precision(17);
  os << r.label << '|' << r.layout_description << '|' << r.region_count << '|'
     << r.write.makespan << '|' << r.write.bytes << '|' << r.read.makespan
     << '|' << r.read.bytes << '|' << r.total.makespan << '|' << r.total.bytes;
  for (const Seconds io_time : r.server_io_time) os << '|' << io_time;
  os << '|' << r.sim_stats.events_dispatched << '|'
     << r.sim_stats.peak_queue_depth;
  if (r.adaptive.has_value()) {
    const auto& a = *r.adaptive;
    os << '|' << a.epochs_installed << '|' << a.windows_analyzed << '|'
       << a.recommendations << '|' << a.recommendations_deferred << '|'
       << a.migrated_bytes << '|' << a.migration_chunks << '|'
       << a.migration_interference << '|' << a.cost_evals << '|'
       << a.cost_evals_saved;
  }
  return os.str();
}

TEST(HarnessParallel, RunAllMatchesSerialExactly) {
  const WorkloadBundle bundle = small_bundle();
  const auto schemes = scheme_lineup();

  Experiment serial(small_options(nullptr));
  const auto serial_results = serial.run_all(bundle, schemes);

  ThreadPool pool(4);
  Experiment parallel(small_options(&pool));
  const auto parallel_results = parallel.run_all(bundle, schemes);

  ASSERT_EQ(serial_results.size(), parallel_results.size());
  for (std::size_t i = 0; i < serial_results.size(); ++i) {
    EXPECT_EQ(fingerprint(serial_results[i]), fingerprint(parallel_results[i]))
        << "scheme " << schemes[i].label();
  }
}

TEST(HarnessParallel, RunAllMatchesAtEveryPoolWidth) {
  const WorkloadBundle bundle = small_bundle();
  const auto schemes = scheme_lineup();
  Experiment serial(small_options(nullptr));
  const auto want = serial.run_all(bundle, schemes);

  for (const std::size_t width : {1u, 2u, 7u}) {
    ThreadPool pool(width);
    Experiment exp(small_options(&pool));
    const auto got = exp.run_all(bundle, schemes);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(fingerprint(want[i]), fingerprint(got[i]))
          << "width " << width << " scheme " << schemes[i].label();
    }
  }
}

TEST(HarnessParallel, RunReplicatedMatchesSerialExactly) {
  const WorkloadBundle bundle = small_bundle();
  const LayoutScheme scheme = LayoutScheme::harl();

  Experiment serial(small_options(nullptr));
  const auto serial_out = serial.run_replicated(bundle, scheme, 4);

  ThreadPool pool(3);
  Experiment parallel(small_options(&pool));
  const auto parallel_out = parallel.run_replicated(bundle, scheme, 4);

  ASSERT_EQ(serial_out.runs.size(), parallel_out.runs.size());
  for (std::size_t i = 0; i < serial_out.runs.size(); ++i) {
    EXPECT_EQ(fingerprint(serial_out.runs[i]),
              fingerprint(parallel_out.runs[i]))
        << "replica " << i;
  }
  EXPECT_EQ(serial_out.mean_total, parallel_out.mean_total);
  EXPECT_EQ(serial_out.min_total, parallel_out.min_total);
  EXPECT_EQ(serial_out.max_total, parallel_out.max_total);
}

/// The full flight-recorder output as one string: metrics JSON plus the
/// Chrome trace events.  Byte equality here is the strongest observability
/// claim — every trace event, async id, histogram bucket and metric sample
/// in the same order with the same values.
std::string obs_fingerprint(const SchemeResult& r) {
  std::ostringstream os;
  if (r.obs) {
    r.obs->write_metrics_json(os, 2);
    bool first = true;
    r.obs->append_trace_events(os, 1, r.label, first);
  }
  // Telemetry plane: the windowed time series (quantile sketches included)
  // and the health monitor summary ride the same byte-equality claim.
  if (r.health) {
    os << '|';
    r.health->timeseries().write_json(os, 0);
    os << '|';
    r.health->write_json(os, 0);
  }
  return os.str();
}

ExperimentOptions observed_options(ThreadPool* pool) {
  ExperimentOptions options = small_options(pool);
  options.observe = true;
  options.recorder.trace = true;
  // Arm the telemetry plane with a deterministic GC-pause straggler so the
  // byte-equality fingerprints cover windowed rollups, sketch quantiles,
  // health scoring and SLO attainment across pool widths.
  options.telemetry.interval = 0.01;
  options.telemetry.slo = 0.002;
  options.cluster.gc_pause.period = 0.05;
  options.cluster.gc_pause.duration = 0.02;
  options.cluster.gc_pause.factor = 4.0;
  return options;
}

TEST(HarnessParallel, ObservedRunsMatchAtEveryPoolWidth) {
  // Every observed run owns its recorder and health monitor, so concurrent
  // runs on the pool must reproduce the serial observability output byte
  // for byte.
  const WorkloadBundle bundle = small_bundle();
  const auto schemes = scheme_lineup();

  Experiment serial(observed_options(nullptr));
  const auto want = serial.run_all(bundle, schemes);

  for (const std::size_t width : {2u, 4u, 7u}) {
    ThreadPool pool(width);
    Experiment exp(observed_options(&pool));
    const auto got = exp.run_all(bundle, schemes);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(fingerprint(want[i]), fingerprint(got[i]))
          << "width " << width << " scheme " << schemes[i].label();
      EXPECT_EQ(obs_fingerprint(want[i]), obs_fingerprint(got[i]))
          << "width " << width << " scheme " << schemes[i].label();
    }
  }
}

TEST(HarnessParallel, PoolMayBeSharedWithPlanner) {
  // One pool for both harness-level scheme fan-out and the planner's
  // region-level parallel_for: nesting on the same (work-helping) pool must
  // neither deadlock nor change any result.
  const WorkloadBundle bundle = small_bundle();
  const auto schemes = scheme_lineup();
  Experiment serial(small_options(nullptr));
  const auto want = serial.run_all(bundle, schemes);

  ThreadPool pool(2);
  ExperimentOptions options = small_options(&pool);
  options.planner.pool = &pool;
  Experiment shared(options);
  const auto got = shared.run_all(bundle, schemes);

  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(fingerprint(want[i]), fingerprint(got[i]))
        << "scheme " << schemes[i].label();
  }
}

}  // namespace
}  // namespace harl::harness
