#include "src/harness/experiment.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "src/core/cost_model.hpp"
#include "src/core/tiered_cost_model.hpp"
#include "src/middleware/mpi_world.hpp"
#include "src/pfs/region_layout.hpp"
#include "src/sim/simulator.hpp"

namespace harl::harness {

namespace {

/// Builds the recorder's cost-model predictor for `layout`: the analytic
/// tiered request cost with the stripe vector of the region the request
/// falls in (requests spanning regions take the worst segment, matching the
/// "maximal cost of all sub-requests" reading).  Layout shapes without a
/// per-tier stripe interpretation get no predictor.
obs::Recorder::Predictor make_predictor(
    const std::shared_ptr<const pfs::Layout>& layout,
    core::TieredCostParams params) {
  if (auto rl = std::dynamic_pointer_cast<const pfs::RegionLayout>(layout)) {
    return [rl, params = std::move(params)](IoOp op, Bytes offset,
                                            Bytes size) -> Seconds {
      Seconds worst = 0.0;
      Bytes pos = offset;
      const Bytes end = offset + size;
      while (pos < end) {
        const std::size_t ri = rl->region_of(pos);
        const pfs::RegionSpec& spec = rl->region(ri);
        const Bytes seg_end = std::min(end, rl->region_end(ri));
        const Seconds cost =
            spec.members.empty()
                ? core::tiered_request_cost(params, op, pos - spec.offset,
                                            seg_end - pos, spec.stripes)
                : core::tiered_request_cost(params, op, pos - spec.offset,
                                            seg_end - pos, spec.stripes,
                                            spec.members);
        worst = std::max(worst, cost);
        pos = seg_end;
      }
      return worst;
    };
  }
  if (auto vl =
          std::dynamic_pointer_cast<const pfs::VariedStripeLayout>(layout)) {
    // Per-tier stripe vector from the per-server stripes (layouts built by
    // make_fixed/make_two_tier/make_tiered_layout are uniform within a tier).
    std::vector<Bytes> stripes;
    stripes.reserve(params.tiers.size());
    std::size_t begin = 0;
    for (const core::TierSpec& tier : params.tiers) {
      stripes.push_back(begin < vl->stripes().size() ? vl->stripes()[begin]
                                                     : 0);
      begin += tier.count;
    }
    return [params = std::move(params), stripes = std::move(stripes)](
               IoOp op, Bytes offset, Bytes size) -> Seconds {
      return core::tiered_request_cost(params, op, offset, size, stripes);
    };
  }
  return {};
}

/// Lands the Analysis Phase diagnostics already carried by the Plan in the
/// same registry as the measured run, so metrics-out= shows what Algorithm 2
/// spent (grid size, cost-kernel calls, coalescing savings, modeled cost)
/// next to what the placement actually did.  Region labels index the
/// pre-merge regions — the grain the optimizer worked at.
void record_plan_metrics(obs::MetricsRegistry& metrics,
                         const core::Plan& plan) {
  using Kind = obs::MetricsRegistry::Kind;
  const auto requests =
      metrics.family("planner.region.requests", Kind::kCounter);
  const auto candidates =
      metrics.family("planner.region.candidates", Kind::kCounter);
  const auto evals =
      metrics.family("planner.region.cost_evals", Kind::kCounter);
  const auto saved =
      metrics.family("planner.region.cost_evals_saved", Kind::kCounter);
  const auto model_cost =
      metrics.family("planner.region.model_cost_s", Kind::kGauge);
  for (std::size_t i = 0; i < plan.regions.size(); ++i) {
    const core::PlannedRegion& r = plan.regions[i];
    const auto labels = obs::LabelSet{}.region(static_cast<std::uint32_t>(i));
    metrics.add(requests, labels, static_cast<double>(r.request_count));
    metrics.add(candidates, labels,
                static_cast<double>(r.candidates_evaluated));
    metrics.add(evals, labels, static_cast<double>(r.cost_evals));
    metrics.add(saved, labels, static_cast<double>(r.cost_evals_saved));
    metrics.set(model_cost, labels, r.model_cost);
  }
  const auto no_labels = obs::LabelSet{};
  metrics.set(metrics.family("planner.regions_before_merge", Kind::kGauge),
              no_labels, static_cast<double>(plan.regions_before_merge));
  metrics.set(metrics.family("planner.regions_after_merge", Kind::kGauge),
              no_labels, static_cast<double>(plan.regions_after_merge));
  metrics.set(metrics.family("planner.total_model_cost_s", Kind::kGauge),
              no_labels, plan.total_model_cost());
}

/// Lands the measured run's read-cache counters in the metrics registry
/// (cache.* families) so metrics-out= carries the hit/miss/fill/evict story
/// next to the server and planner metrics.  obs_report.py --check validates
/// the reconciliation invariants over exactly these families.
void record_cache_metrics(obs::MetricsRegistry& metrics,
                          const pfs::CacheManager::Stats& stats) {
  using Kind = obs::MetricsRegistry::Kind;
  const auto no_labels = obs::LabelSet{};
  const auto add = [&](const char* name, std::uint64_t value) {
    metrics.add(metrics.family(name, Kind::kCounter), no_labels,
                static_cast<double>(value));
  };
  add("cache.lookups", stats.tier.lookups);
  add("cache.hits", stats.tier.hits);
  add("cache.misses", stats.tier.misses);
  add("cache.admissions", stats.tier.admissions);
  add("cache.evictions", stats.tier.evictions);
  add("cache.invalidations", stats.tier.invalidations);
  add("cache.fills_completed", stats.tier.fills_completed);
  add("cache.fills_discarded", stats.tier.fills_discarded);
  add("cache.hit_bytes", stats.hit_read_bytes);
  add("cache.miss_bytes", stats.miss_read_bytes);
  add("cache.fill_bytes", stats.fill_bytes);
  add("cache.resplits", stats.resplits);
  add("cache.clears", stats.clears);
  metrics.set(metrics.family("cache.active_devices", Kind::kGauge), no_labels,
              static_cast<double>(stats.active_devices));
}

}  // namespace

WorkloadBundle ior_bundle(const workloads::IorConfig& config) {
  WorkloadBundle bundle;
  bundle.name = "ior.dat";
  bundle.processes = config.processes;

  workloads::IorConfig write_cfg = config;
  write_cfg.op = IoOp::kWrite;
  bundle.write_programs = workloads::make_ior_programs(write_cfg);

  // The read pass re-reads the same offsets (same seed -> same stream).
  workloads::IorConfig read_cfg = config;
  read_cfg.op = IoOp::kRead;
  bundle.read_programs = workloads::make_ior_programs(read_cfg);
  return bundle;
}

WorkloadBundle zipf_bundle(const workloads::ZipfConfig& config) {
  WorkloadBundle bundle;
  bundle.name = "zipf.dat";
  bundle.processes = config.processes;
  bundle.write_programs = workloads::make_zipf_write_programs(config);
  bundle.read_programs = workloads::make_zipf_read_programs(config);
  return bundle;
}

WorkloadBundle multiregion_bundle(const workloads::MultiRegionConfig& config) {
  WorkloadBundle bundle;
  bundle.name = "multiregion.dat";
  bundle.processes = config.processes;

  workloads::MultiRegionConfig write_cfg = config;
  write_cfg.op = IoOp::kWrite;
  bundle.write_programs = workloads::make_multiregion_programs(write_cfg);

  workloads::MultiRegionConfig read_cfg = config;
  read_cfg.op = IoOp::kRead;
  bundle.read_programs = workloads::make_multiregion_programs(read_cfg);
  return bundle;
}

WorkloadBundle btio_bundle(const workloads::BtioConfig& config) {
  WorkloadBundle bundle;
  bundle.name = "btio.out";
  bundle.processes = config.processes;
  bundle.mixed_programs = workloads::make_btio_programs(config);
  return bundle;
}

Experiment::Experiment(ExperimentOptions options)
    : options_(std::move(options)) {
  // The telemetry plane rides the flight recorder's observer chain.
  if (options_.telemetry.enabled()) options_.observe = true;
}

const core::CostParams& Experiment::cost_params() {
  if (!cached_params_) {
    cached_params_ = calibrate(options_.cluster, options_.calibration);
  }
  return *cached_params_;
}

std::vector<trace::TraceRecord> Experiment::collect_trace(
    const WorkloadBundle& bundle) {
  // Tracing Phase: first execution on the default fixed-stripe layout with
  // the IOSIG-like collector attached.
  sim::Simulator sim;
  pfs::Cluster cluster(sim, options_.cluster);
  mw::MpiWorld world(cluster, bundle.processes);
  trace::TraceCollector collector;
  auto layout = pfs::make_fixed_layout(cluster.num_servers(),
                                       options_.tracing_stripe);
  mw::ProgramRunner runner(world, bundle.name, layout, &collector,
                           options_.collective);
  if (!bundle.write_programs.empty()) runner.run(bundle.write_programs);
  if (!bundle.read_programs.empty()) runner.run(bundle.read_programs);
  if (!bundle.mixed_programs.empty()) runner.run(bundle.mixed_programs);
  return collector.sorted_by_offset();
}

SchemeResult Experiment::run(const WorkloadBundle& bundle,
                             const LayoutScheme& scheme) {
  std::vector<trace::TraceRecord> trace_records;
  if (scheme.needs_analysis()) trace_records = collect_trace(bundle);
  return run_with_trace(bundle, scheme, trace_records);
}

SchemeResult Experiment::run_with_trace(
    const WorkloadBundle& bundle, const LayoutScheme& scheme,
    std::span<const trace::TraceRecord> trace_records) {
  if (bundle.write_programs.empty() && bundle.read_programs.empty() &&
      bundle.mixed_programs.empty()) {
    throw std::invalid_argument("workload bundle has no programs");
  }

  SchemeResult result;
  result.label = scheme.label();
  core::Plan plan;
  core::CachePlannerOptions cache_planner;
  if (options_.cache.enabled() && !options_.cache.blind) {
    cache_planner.budget = options_.cache.budget;
    cache_planner.chunk = options_.cache.chunk;
    cache_planner.max_devices = options_.cache.devices;
    cache_planner.policy = options_.cache.policy;
  }
  auto layout =
      build_layout(scheme, options_.cluster, trace_records, cost_params(),
                   options_.planner, &plan, cache_planner);
  result.layout_description = layout->describe();
  if (scheme.produces_plan()) {
    result.region_count = plan.rst.size();
    result.plan = std::move(plan);
  }

  // Measured run on a fresh cluster; the observer must be in place before
  // the cluster is built so components register their tracks.  For the
  // adaptive scheme the AdaptiveLayoutManager takes the observer seat
  // (forwarding to the recorder, when one is attached) so completed requests
  // feed its advisor, and its epoched facade replaces the epoch-0 layout.
  const bool adaptive = scheme.kind == SchemeKind::kHarlAdaptive;
  sim::Simulator sim;
  std::unique_ptr<mw::AdaptiveLayoutManager> manager;
  if (options_.observe) {
    result.obs = std::make_shared<obs::Recorder>(options_.recorder);
  }
  // Observer chain: sim -> [manager] -> [health] -> recorder.
  obs::Sink* tail = result.obs.get();
  if (options_.telemetry.enabled() && tail != nullptr) {
    obs::HealthMonitor::Options hm;
    hm.interval = options_.telemetry.interval;
    hm.window_capacity = options_.telemetry.window_capacity;
    hm.slo = options_.telemetry.slo;
    hm.flag_threshold = options_.telemetry.flag_threshold;
    hm.recover_threshold = options_.telemetry.recover_threshold;
    hm.flag_windows = options_.telemetry.flag_windows;
    hm.recover_windows = options_.telemetry.recover_windows;
    hm.min_window_jobs = options_.telemetry.min_window_jobs;
    result.health = std::make_shared<obs::HealthMonitor>(hm, tail);
    tail = result.health.get();
  }
  // Devices the measured run's cache covers: the plan's reservation when the
  // Analysis Phase was cache-aware, the configured count for blind and
  // non-plan schemes (see ExperimentOptions::cache).
  std::size_t cache_devices = 0;
  if (options_.cache.enabled()) {
    if (result.plan && result.plan->cache) {
      cache_devices = result.plan->cache->devices;
    } else if (options_.cache.blind || !scheme.produces_plan()) {
      cache_devices = options_.cache.devices;
    }
  }
  if (adaptive) {
    mw::AdaptiveOptions adaptive_options = options_.adaptive;
    if (result.plan->cache) {
      // Every epoch inherits the offline reservation; window re-optimization
      // plans over the unreserved fleet.
      adaptive_options.reserved =
          std::vector<std::size_t>{0, result.plan->cache->devices};
      adaptive_options.cache_spec = result.plan->cache;
    }
    manager = std::make_unique<mw::AdaptiveLayoutManager>(
        cost_params(), result.plan->rst, std::move(adaptive_options), tail);
    sim.set_observer(manager.get());
  } else if (tail != nullptr) {
    sim.set_observer(tail);
  }
  pfs::Cluster cluster(sim, options_.cluster);
  if (adaptive) layout = manager->install(cluster, bundle.name);
  std::unique_ptr<pfs::CacheManager> cache_manager;
  if (cache_devices > 0) {
    pfs::CacheManager::Config cache_config;
    cache_config.budget = options_.cache.budget;
    cache_config.chunk = options_.cache.chunk;
    cache_config.devices = cache_devices;
    cache_config.policy = options_.cache.policy;
    cache_config.blind = options_.cache.blind;
    cache_manager = std::make_unique<pfs::CacheManager>(cluster, cache_config);
    for (std::size_t i = 0; i < cluster.num_clients(); ++i) {
      cluster.client(i).set_cache(cache_manager.get());
    }
    if (manager != nullptr) {
      manager->set_epoch_hook(
          [cache = cache_manager.get()](std::uint32_t) { cache->on_epoch(); });
    }
  }
  if (result.obs) {
    result.obs->set_predictor(
        make_predictor(layout, core::to_tiered(cost_params())));
    if (result.plan) record_plan_metrics(result.obs->metrics(), *result.plan);
  }
  mw::MpiWorld world(cluster, bundle.processes);
  mw::ProgramRunner runner(world, bundle.name, layout, nullptr,
                           options_.collective);

  auto run_phase = [&](const std::vector<mw::RankProgram>& programs,
                       bool separate_rw) {
    if (programs.empty()) return;
    const mw::RunResult r = runner.run(programs);
    if (separate_rw) {
      if (r.bytes_written > 0 && r.bytes_read == 0) {
        result.write.makespan += r.makespan;
        result.write.bytes += r.bytes_written;
      } else if (r.bytes_read > 0 && r.bytes_written == 0) {
        result.read.makespan += r.makespan;
        result.read.bytes += r.bytes_read;
      } else {
        // Mixed phase: attribute to both proportionally via totals only.
        result.write.bytes += r.bytes_written;
        result.read.bytes += r.bytes_read;
      }
    }
    result.total.makespan += r.makespan;
    result.total.bytes += r.bytes_read + r.bytes_written;
  };

  run_phase(bundle.write_programs, true);
  run_phase(bundle.read_programs, true);
  run_phase(bundle.mixed_programs, true);

  if (manager != nullptr) {
    result.adaptive = manager->summary();
    // Post-run state: describe the lineage the run ended with, and persist
    // the *latest* epoch as the plan (a saved artifact resumes from there).
    result.layout_description = layout->describe();
    result.plan = manager->latest_plan();
    result.region_count = result.plan->rst.size();
    if (result.obs) result.obs->metrics().merge(manager->metrics());
  }

  if (result.health) {
    result.health->finalize();
    if (result.obs) result.obs->metrics().merge(result.health->metrics());
  }

  if (cache_manager != nullptr) {
    result.cache = cache_manager->stats();
    if (result.obs) {
      record_cache_metrics(result.obs->metrics(), *result.cache);
    }
  }

  result.server_io_time.reserve(cluster.num_servers());
  for (std::size_t i = 0; i < cluster.num_servers(); ++i) {
    result.server_io_time.push_back(cluster.server_io_time(i));
  }
  for (std::size_t i = 0; i < cluster.num_clients(); ++i) {
    result.requests_issued += cluster.client(i).requests_issued();
  }
  result.sim_stats = sim.stats();
  return result;
}

void Experiment::for_indices(ThreadPool* pool, std::size_t n,
                             const std::function<void(std::size_t)>& fn) {
  if (pool != nullptr && n > 1) {
    pool->parallel_for(n, fn);
  } else {
    for (std::size_t i = 0; i < n; ++i) fn(i);
  }
}

Experiment::ReplicatedResult Experiment::run_replicated(
    const WorkloadBundle& bundle, const LayoutScheme& scheme,
    std::size_t replicas) {
  if (replicas == 0) throw std::invalid_argument("needs >= 1 replica");
  ReplicatedResult out;
  out.runs.resize(replicas);
  // Each replica is a self-contained Experiment over shifted seeds (the only
  // stochastic input), recalibrated against its own devices as a real
  // deployment would be.  Replicas share no mutable state, so they may run
  // concurrently; results land by index, making the output byte-identical
  // to the serial order at any pool width.
  for_indices(options_.pool, replicas, [&](std::size_t i) {
    ExperimentOptions replica_options = options_;
    replica_options.cluster.seed = options_.cluster.seed + i;
    replica_options.calibration.seed = options_.calibration.seed + i;
    Experiment replica(std::move(replica_options));
    out.runs[i] = replica.run(bundle, scheme);
  });

  double sum = 0.0;
  out.min_total = out.runs.front().total.throughput();
  out.max_total = out.min_total;
  for (const auto& r : out.runs) {
    const double t = r.total.throughput();
    sum += t;
    out.min_total = std::min(out.min_total, t);
    out.max_total = std::max(out.max_total, t);
  }
  out.mean_total = sum / static_cast<double>(replicas);
  return out;
}

std::vector<SchemeResult> Experiment::run_all(
    const WorkloadBundle& bundle, const std::vector<LayoutScheme>& schemes) {
  // Trace the first execution once: the collector's output depends only on
  // the bundle and the fixed tracing layout, so every analysis-based scheme
  // can share it (and the planner reuses its sorted order in place).
  std::vector<trace::TraceRecord> trace_records;
  for (const auto& scheme : schemes) {
    if (scheme.needs_analysis()) {
      trace_records = collect_trace(bundle);
      break;
    }
  }
  // Calibrate before fanning out: run_with_trace only reads the cached
  // params once they exist, so pre-warming makes it safe to evaluate the
  // schemes concurrently (each on its own simulated cluster).
  if (!schemes.empty()) cost_params();
  std::vector<SchemeResult> results(schemes.size());
  for_indices(options_.pool, schemes.size(), [&](std::size_t i) {
    results[i] = run_with_trace(bundle, schemes[i], trace_records);
  });
  return results;
}

}  // namespace harl::harness
