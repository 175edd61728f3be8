// Experiment runner: (cluster config) x (workload) x (layout scheme)
// -> simulated throughput and per-server statistics.
//
// This is the machinery every bench binary and example shares.  A run of an
// analysis-based scheme reproduces the paper's full pipeline: a traced first
// execution on the default fixed layout (Tracing Phase), offline analysis
// with the calibrated cost model (Analysis Phase), then the measured run on
// the optimized layout placed through the middleware (Placing Phase).
#pragma once

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/common/thread_pool.hpp"
#include "src/core/planner.hpp"
#include "src/harness/calibration.hpp"
#include "src/obs/health.hpp"
#include "src/obs/recorder.hpp"
#include "src/harness/scheme.hpp"
#include "src/middleware/adaptive.hpp"
#include "src/middleware/program.hpp"
#include "src/pfs/cache_manager.hpp"
#include "src/middleware/runner.hpp"
#include "src/sim/simulator.hpp"
#include "src/workloads/btio.hpp"
#include "src/workloads/ior.hpp"
#include "src/workloads/multiregion.hpp"
#include "src/workloads/zipf.hpp"

namespace harl::harness {

/// A workload packaged as its measured phases.
struct WorkloadBundle {
  std::string name = "file";
  std::size_t processes = 16;
  std::vector<mw::RankProgram> write_programs;  ///< phase 1 (optional)
  std::vector<mw::RankProgram> read_programs;   ///< phase 2 (optional)
  std::vector<mw::RankProgram> mixed_programs;  ///< single mixed run (BTIO)
};

/// IOR: a write pass and a read pass over the same offsets.
WorkloadBundle ior_bundle(const workloads::IorConfig& config);

/// Four-region non-uniform IOR variant: write pass + read pass.
WorkloadBundle multiregion_bundle(const workloads::MultiRegionConfig& config);

/// Skewed re-read workload: sequential seeding write pass + Zipf-distributed
/// read phases over the whole file (the cache-tier stressor).
WorkloadBundle zipf_bundle(const workloads::ZipfConfig& config);

/// BTIO: one mixed run (interleaved compute, collective writes, read-back).
WorkloadBundle btio_bundle(const workloads::BtioConfig& config);

struct PhaseStats {
  Seconds makespan = 0.0;
  Bytes bytes = 0;

  double throughput() const {
    return makespan > 0.0 ? static_cast<double>(bytes) / makespan : 0.0;
  }
};

struct SchemeResult {
  std::string label;
  std::string layout_description;
  PhaseStats write;
  PhaseStats read;
  PhaseStats total;                     ///< all phases combined
  std::vector<Seconds> server_io_time;  ///< per server, all phases (Fig. 1a)
  std::size_t region_count = 1;
  std::optional<core::Plan> plan;       ///< plan-producing schemes only
  /// Adaptive runs only (harl-adaptive scheme): epoch/migration counters of
  /// the measured run.  `plan` then holds the *latest* epoch's RST, so a
  /// saved artifact resumes from where adaptation ended.
  std::optional<mw::AdaptiveLayoutManager::Summary> adaptive;
  /// Read-cache counters of the measured run (cache-enabled runs only).
  std::optional<pfs::CacheManager::Stats> cache;
  /// File requests the measured run's clients issued (pfs::Client::io).
  std::uint64_t requests_issued = 0;
  /// Event-engine counters of the measured run (harl_sim stats=1).
  sim::Simulator::Stats sim_stats;
  /// Flight recorder of the measured run (ExperimentOptions::observe only):
  /// metrics registry, trace events, per-request T_X/T_S/T_T attribution.
  std::shared_ptr<obs::Recorder> obs;
  /// Telemetry plane of the measured run (ExperimentOptions::telemetry
  /// enabled + observe): windowed per-server time series and the
  /// straggler/SLO health monitor, already finalized; its health.* metrics
  /// are merged into `obs`'s registry.
  std::shared_ptr<obs::HealthMonitor> health;
};

struct ExperimentOptions {
  pfs::ClusterConfig cluster;
  core::PlannerOptions planner;
  CalibrationOptions calibration;
  /// Layout of the traced first execution (OrangeFS default 64K).
  Bytes tracing_stripe = 64 * KiB;
  mw::CollectiveOptions collective;
  /// Optional pool for evaluating independent schemes (run_all) and replicas
  /// (run_replicated) concurrently — each on its own Simulator instance.
  /// Results are written by index, so the output is byte-identical to the
  /// serial order regardless of pool width.  May alias planner.pool: nested
  /// parallel_for on the same pool is deadlock-free (work-helping).
  ThreadPool* pool = nullptr;
  /// Attach a flight recorder to every measured run.  Each SchemeResult then
  /// carries its own obs::Recorder (one per scheme/replica, so parallel
  /// run_all stays lock-free) with a cost-model predictor derived from the
  /// scheme's layout, feeding the per-region model-error histogram.
  bool observe = false;
  obs::Recorder::Options recorder;
  /// Tuning for the harl-adaptive scheme: advisor window/min_gain/planner
  /// plus the migration throttle.  Ignored by every other scheme.
  mw::AdaptiveOptions adaptive;
  /// Heterogeneity-aware read cache (HACache direction).  budget > 0 and
  /// devices > 0 arm a pfs::CacheManager over the fastest SSD devices of the
  /// measured run.  Cache-aware mode (blind == false): the HARL schemes run
  /// core::analyze_cached, and the runtime cache uses exactly the plan's
  /// winning reservation — which may be *no* reservation, in which case the
  /// run is cache-less (the model said striping wins); non-HARL plan schemes
  /// stay cache-less too.  Blind mode (blind == true): the planner is left
  /// untouched and the cache runs over the configured devices while regions
  /// still stripe across them — the bolted-on ablation arm.  Non-plan
  /// schemes (fixed/random) also take the configured devices.
  struct CacheOptions {
    Bytes budget = 0;
    Bytes chunk = MiB;
    std::size_t devices = 0;
    storage::CachePolicy policy = storage::CachePolicy::kLru;
    bool blind = false;

    bool enabled() const { return budget > 0 && devices > 0; }
  };
  CacheOptions cache;
  /// Telemetry plane (DESIGN.md §15): interval > 0 arms an
  /// obs::HealthMonitor (which owns the run's TimeSeries) in front of the
  /// recorder of every measured run.  Requires `observe`; the runner
  /// forces it on when telemetry is enabled.
  struct TelemetryOptions {
    Seconds interval = 0.0;            ///< window width; 0 = disabled
    std::size_t window_capacity = 4096;
    Seconds slo = 0.0;                 ///< request deadline; 0 = no SLO
    double flag_threshold = 2.0;
    double recover_threshold = 1.25;
    std::size_t flag_windows = 2;
    std::size_t recover_windows = 2;
    std::uint64_t min_window_jobs = 1;

    bool enabled() const { return interval > 0.0; }
  };
  TelemetryOptions telemetry;
};

class Experiment {
 public:
  explicit Experiment(ExperimentOptions options);

  /// Runs one scheme against one workload (fresh simulated cluster per call;
  /// results are independent and reproducible).
  SchemeResult run(const WorkloadBundle& bundle, const LayoutScheme& scheme);

  /// Runs one scheme against a pre-collected first-execution trace (already
  /// in ByOffset order).  Lets callers trace once and evaluate many schemes
  /// without re-tracing or re-sorting; `trace_records` may be empty for
  /// schemes that need no analysis.
  SchemeResult run_with_trace(const WorkloadBundle& bundle,
                              const LayoutScheme& scheme,
                              std::span<const trace::TraceRecord> trace_records);

  /// Convenience: run several schemes against the same workload.  The
  /// first-execution trace is collected (and sorted) once and shared by
  /// every analysis-based scheme.
  std::vector<SchemeResult> run_all(const WorkloadBundle& bundle,
                                    const std::vector<LayoutScheme>& schemes);

  /// Seed replication: reruns the scheme under `replicas` different device
  /// RNG seeds (the only stochastic input) and reports the spread.  The
  /// planner runs per replica against that replica's calibration, as a real
  /// deployment would.
  struct ReplicatedResult {
    std::vector<SchemeResult> runs;
    double mean_total = 0.0;  ///< bytes/s
    double min_total = 0.0;
    double max_total = 0.0;
  };
  ReplicatedResult run_replicated(const WorkloadBundle& bundle,
                                  const LayoutScheme& scheme,
                                  std::size_t replicas);

  /// The calibrated cost-model parameters (lazily computed, cached).
  const core::CostParams& cost_params();

  const ExperimentOptions& options() const { return options_; }

 private:
  std::vector<trace::TraceRecord> collect_trace(const WorkloadBundle& bundle);

  /// Runs fn(i) for i in [0, n): on `pool` when set (and n > 1), else
  /// inline.  Callers write output by index for deterministic results.
  static void for_indices(ThreadPool* pool, std::size_t n,
                          const std::function<void(std::size_t)>& fn);

  ExperimentOptions options_;
  std::optional<core::CostParams> cached_params_;
};

}  // namespace harl::harness
