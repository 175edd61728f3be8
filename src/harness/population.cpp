#include "src/harness/population.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "src/middleware/mpi_world.hpp"
#include "src/middleware/rebuild.hpp"
#include "src/pfs/replication.hpp"
#include "src/workloads/ior.hpp"
#include "src/workloads/multiregion.hpp"

namespace harl::harness {

namespace {

void for_indices(ThreadPool* pool, std::size_t n,
                 const std::function<void(std::size_t)>& fn) {
  if (pool != nullptr && n > 1) {
    pool->parallel_for(n, fn);
  } else {
    for (std::size_t i = 0; i < n; ++i) fn(i);
  }
}

/// Tracing Phase for one population file, on a private cluster (same fixed
/// tracing layout as Experiment::collect_trace).
std::vector<trace::TraceRecord> collect_trace(const ExperimentOptions& options,
                                              const WorkloadBundle& bundle) {
  sim::Simulator sim;
  pfs::Cluster cluster(sim, options.cluster);
  mw::MpiWorld world(cluster, bundle.processes);
  trace::TraceCollector collector;
  auto layout =
      pfs::make_fixed_layout(cluster.num_servers(), options.tracing_stripe);
  mw::ProgramRunner runner(world, bundle.name, layout, &collector,
                           options.collective);
  if (!bundle.write_programs.empty()) runner.run(bundle.write_programs);
  if (!bundle.read_programs.empty()) runner.run(bundle.read_programs);
  if (!bundle.mixed_programs.empty()) runner.run(bundle.mixed_programs);
  return collector.sorted_by_offset();
}

/// One file's phases flattened into a single program set: write pass, then
/// read pass, then mixed run, with a barrier between consecutive phases so
/// the in-file ordering matches sequential ProgramRunner::run calls while
/// other files' traffic interleaves freely.
std::vector<mw::RankProgram> combined_programs(const WorkloadBundle& bundle) {
  const std::vector<mw::RankProgram>* phases[] = {
      &bundle.write_programs, &bundle.read_programs, &bundle.mixed_programs};
  std::vector<mw::RankProgram> combined;
  for (const auto* phase : phases) {
    if (phase->empty()) continue;
    if (combined.empty()) {
      combined = *phase;
      continue;
    }
    if (combined.size() != phase->size()) {
      throw std::invalid_argument("bundle phases disagree on rank count");
    }
    for (std::size_t r = 0; r < combined.size(); ++r) {
      combined[r].push_back(mw::IoAction::barrier());
      combined[r].insert(combined[r].end(), (*phase)[r].begin(),
                         (*phase)[r].end());
    }
  }
  if (combined.empty()) {
    throw std::invalid_argument("workload bundle has no programs");
  }
  return combined;
}

}  // namespace

std::vector<std::uint32_t> assign_tenants(std::size_t files,
                                          std::size_t tenants, double theta) {
  if (tenants == 0) throw std::invalid_argument("needs >= 1 tenant");
  std::vector<double> weight(tenants);
  for (std::size_t t = 0; t < tenants; ++t) {
    weight[t] = 1.0 / std::pow(static_cast<double>(t + 1), theta);
  }
  std::vector<std::size_t> count(tenants, 0);
  std::vector<std::uint32_t> out;
  out.reserve(files);
  for (std::size_t f = 0; f < files; ++f) {
    std::size_t best = 0;
    double best_score = 0.0;
    for (std::size_t t = 0; t < tenants; ++t) {
      const double score = weight[t] / static_cast<double>(count[t] + 1);
      if (score > best_score) {
        best = t;
        best_score = score;
      }
    }
    ++count[best];
    out.push_back(static_cast<std::uint32_t>(best));
  }
  return out;
}

std::vector<PopulationFile> make_population(const PopulationSpec& spec) {
  if (spec.files == 0) throw std::invalid_argument("needs >= 1 file");
  if (spec.file_size == 0 || spec.request_size == 0) {
    throw std::invalid_argument("needs nonzero file and request sizes");
  }
  const auto tenants =
      assign_tenants(spec.files, spec.tenants, spec.tenant_theta);
  std::vector<PopulationFile> population;
  population.reserve(spec.files);
  for (std::size_t f = 0; f < spec.files; ++f) {
    PopulationFile file;
    file.id = static_cast<std::uint32_t>(f);
    file.tenant = tenants[f];
    file.name = "t";
    file.name += std::to_string(file.tenant);
    file.name += "/f";
    file.name += std::to_string(f);
    file.name += ".dat";
    file.size = spec.file_size;
    switch (f % 3) {
      case 0: {  // sequential IOR: each rank streams its segment
        workloads::IorConfig cfg;
        cfg.processes = spec.processes;
        cfg.file_size = spec.file_size;
        cfg.request_size = spec.request_size;
        cfg.random_offsets = false;
        cfg.seed = spec.seed + f;
        file.bundle = ior_bundle(cfg);
        break;
      }
      case 1: {  // random IOR: request-aligned random offsets
        workloads::IorConfig cfg;
        cfg.processes = spec.processes;
        cfg.file_size = spec.file_size;
        cfg.request_size = spec.request_size;
        cfg.random_offsets = true;
        cfg.seed = spec.seed + f;
        file.bundle = ior_bundle(cfg);
        break;
      }
      default: {  // multi-region: non-uniform request sizes per byte range
        workloads::MultiRegionConfig cfg;
        cfg.processes = spec.processes;
        cfg.regions = {
            {spec.file_size / 8,
             std::max<Bytes>(spec.request_size / 2, 4 * KiB)},
            {3 * spec.file_size / 8, spec.request_size},
            {spec.file_size / 2, 2 * spec.request_size},
        };
        cfg.seed = spec.seed + f;
        file.bundle = multiregion_bundle(cfg);
        Bytes total = 0;
        for (const auto& r : cfg.regions) total += r.size;
        file.size = total;
        break;
      }
    }
    file.bundle.name = file.name;
    population.push_back(std::move(file));
  }
  return population;
}

PopulationResult run_population(Experiment& experiment,
                                const std::vector<PopulationFile>& population,
                                const LayoutScheme& scheme,
                                const PopulationRunOptions& popts) {
  if (population.empty()) throw std::invalid_argument("empty population");
  const ExperimentOptions& options = experiment.options();
  const std::size_t nfiles = population.size();
  for (std::size_t i = 0; i < nfiles; ++i) {
    if (population[i].id != i) {
      throw std::invalid_argument("population file ids must be 0..N-1");
    }
  }
  const std::size_t processes = population.front().bundle.processes;
  for (const auto& file : population) {
    if (file.bundle.processes != processes) {
      throw std::invalid_argument("population files disagree on ranks");
    }
  }
  const bool adaptive = scheme.kind == SchemeKind::kHarlAdaptive;
  const core::CostParams& params = experiment.cost_params();

  // --- Phase A: per-file offline pipeline on private clusters -------------
  struct Prep {
    std::shared_ptr<const pfs::Layout> layout;
    std::optional<core::Plan> plan;
    std::unique_ptr<pfs::ReplicaMap> replicas;
  };
  std::vector<Prep> preps(nfiles);
  for_indices(options.pool, nfiles, [&](std::size_t i) {
    std::vector<trace::TraceRecord> records;
    if (scheme.needs_analysis()) {
      records = collect_trace(options, population[i].bundle);
    }
    core::Plan plan;
    preps[i].layout = build_layout(scheme, options.cluster, records, params,
                                   options.planner, &plan);
    if (scheme.produces_plan()) preps[i].plan = std::move(plan);
  });

  // Replica placement: cost-model tiers for plan schemes on two-tier fleets,
  // whole-cluster chained declustering otherwise.
  const auto tier_groups = options.cluster.effective_tiers();
  std::vector<std::size_t> tier_counts;
  std::size_t nservers = 0;
  for (const auto& group : tier_groups) {
    tier_counts.push_back(group.count);
    nservers += group.count;
  }
  if (popts.replicate) {
    for (std::size_t i = 0; i < nfiles; ++i) {
      if (preps[i].plan && tier_groups.size() == 2) {
        preps[i].replicas =
            std::make_unique<pfs::ReplicaMap>(pfs::ReplicaMap::tiered(
                tier_counts,
                mw::choose_replica_tiers(*preps[i].plan, params)));
      } else {
        preps[i].replicas = std::make_unique<pfs::ReplicaMap>(
            pfs::ReplicaMap::chained(nservers));
      }
    }
  }

  // --- Phase B: one shared measured cluster -------------------------------
  PopulationResult result;
  sim::Simulator sim;

  std::vector<std::uint32_t> tenant_of(nfiles);
  std::uint32_t max_tenant = 0;
  for (std::size_t i = 0; i < nfiles; ++i) {
    tenant_of[i] = population[i].tenant;
    max_tenant = std::max(max_tenant, population[i].tenant);
  }
  if (options.observe) {
    result.obs = std::make_shared<obs::Recorder>(options.recorder);
    result.obs->set_tenant_of(tenant_of);
  }
  obs::Sink* tail = result.obs.get();
  if (options.telemetry.enabled() && tail != nullptr) {
    obs::HealthMonitor::Options hm;
    hm.interval = options.telemetry.interval;
    hm.window_capacity = options.telemetry.window_capacity;
    hm.slo = options.telemetry.slo;
    hm.flag_threshold = options.telemetry.flag_threshold;
    hm.recover_threshold = options.telemetry.recover_threshold;
    hm.flag_windows = options.telemetry.flag_windows;
    hm.recover_windows = options.telemetry.recover_windows;
    hm.min_window_jobs = options.telemetry.min_window_jobs;
    result.health = std::make_shared<obs::HealthMonitor>(hm, tail);
    result.health->set_tenant_of(tenant_of);
    tail = result.health.get();
  }

  // Per-file adaptive managers, chained file 0 outermost; each one's advisor
  // sees only its own file's completions (set_file_filter), so every file's
  // epochs adapt to its own traffic.
  std::vector<std::unique_ptr<mw::AdaptiveLayoutManager>> managers;
  if (adaptive) {
    std::optional<mw::AdaptiveOptions::FailSpec> fail;
    if (options.cluster.fail_server >= 0 && tier_groups.size() == 2) {
      mw::AdaptiveOptions::FailSpec spec;
      spec.tier = static_cast<std::size_t>(options.cluster.fail_server) <
                          tier_counts[0]
                      ? 0
                      : 1;
      spec.at = options.cluster.fail_at;
      fail = spec;
    }
    managers.resize(nfiles);
    for (std::size_t k = nfiles; k-- > 0;) {
      mw::AdaptiveOptions adaptive_options = options.adaptive;
      adaptive_options.fail = fail;
      managers[k] = std::make_unique<mw::AdaptiveLayoutManager>(
          params, preps[k].plan->rst, std::move(adaptive_options), tail);
      managers[k]->set_file_filter(static_cast<std::uint32_t>(k));
      tail = managers[k].get();
    }
  }
  if (tail != nullptr) sim.set_observer(tail);

  pfs::Cluster cluster(sim, options.cluster);
  if (adaptive) {
    for (std::size_t i = 0; i < nfiles; ++i) {
      preps[i].layout = managers[i]->install(cluster, population[i].name);
    }
  }

  // One shared read cache across the whole namespace, keyed by (file,
  // chunk): a hot tenant's working set competes with every other file's
  // under the configured policy.  Plans are cache-less here (per-file
  // reservations would conflict), so the cache always runs blind.
  std::unique_ptr<pfs::CacheManager> cache_manager;
  if (options.cache.enabled()) {
    pfs::CacheManager::Config cache_config;
    cache_config.budget = options.cache.budget;
    cache_config.chunk = options.cache.chunk;
    cache_config.devices = options.cache.devices;
    cache_config.policy = options.cache.policy;
    cache_config.blind = true;
    cache_manager = std::make_unique<pfs::CacheManager>(cluster, cache_config);
    for (std::size_t i = 0; i < cluster.num_clients(); ++i) {
      cluster.client(i).set_cache(cache_manager.get());
    }
    for (std::size_t i = 0; i < managers.size(); ++i) {
      // Epoch swaps invalidate only the adapting file's cached chunks.
      managers[i]->set_epoch_hook(
          [cache = cache_manager.get(),
           file = static_cast<std::uint32_t>(i)](std::uint32_t) {
            cache->invalidate_file(file);
          });
    }
  }

  // Failure storm: degraded reads are the Client's job; the rebuild plane
  // re-materializes the failed server's share in the background.
  std::unique_ptr<mw::RebuildManager> rebuild;
  if (options.cluster.fail_server >= 0 && popts.replicate) {
    mw::RebuildManager::Options ro;
    ro.failed_server = static_cast<std::size_t>(options.cluster.fail_server);
    ro.start_at = options.cluster.fail_at;
    ro.bandwidth = popts.rebuild_bandwidth;
    ro.chunk = popts.rebuild_chunk;
    rebuild = std::make_unique<mw::RebuildManager>(cluster, ro);
    for (std::size_t i = 0; i < nfiles; ++i) {
      rebuild->add_file(preps[i].layout, population[i].size,
                        preps[i].replicas.get());
    }
    rebuild->arm();
  }

  mw::MpiWorld world(cluster, processes);
  std::vector<std::unique_ptr<mw::ProgramRunner>> runners(nfiles);
  std::vector<mw::ProgramRunner::Launch> launches(nfiles);
  for (std::size_t i = 0; i < nfiles; ++i) {
    mw::RunnerOptions runner_options;
    runner_options.collective = options.collective;
    runner_options.file = static_cast<std::uint32_t>(i);
    runner_options.replicas = preps[i].replicas.get();
    runners[i] = std::make_unique<mw::ProgramRunner>(
        world, population[i].name, preps[i].layout, nullptr, runner_options);
  }
  const Seconds t0 = sim.now();
  for (std::size_t i = 0; i < nfiles; ++i) {
    launches[i] = runners[i]->launch(combined_programs(population[i].bundle));
  }
  sim.run();

  // --- harvest ------------------------------------------------------------
  result.files.resize(nfiles);
  for (std::size_t i = 0; i < nfiles; ++i) {
    const mw::RunResult r = runners[i]->finish(launches[i]);
    PopulationFileResult& out = result.files[i];
    out.id = population[i].id;
    out.tenant = population[i].tenant;
    out.name = population[i].name;
    out.layout_description = preps[i].layout->describe();
    if (preps[i].plan) out.region_count = preps[i].plan->rst.size();
    out.total.bytes = r.bytes_read + r.bytes_written;
    out.total.makespan = r.completed_at - launches[i].start;
    result.total.bytes += out.total.bytes;
  }
  result.total.makespan = sim.now() - t0;

  for (std::size_t i = 0; i < cluster.num_clients(); ++i) {
    result.requests_issued += cluster.client(i).requests_issued();
    result.degraded_reads += cluster.client(i).degraded_reads();
    result.replica_writes += cluster.client(i).replica_writes();
  }
  if (rebuild != nullptr) {
    result.rebuilt_bytes = rebuild->rebuilt_bytes();
    result.rebuild_chunks = rebuild->chunks();
    result.rebuild_interference = rebuild->interference();
    result.rebuild_finished_at = rebuild->finished_at();
    result.rebuild_done = rebuild->done();
    if (result.obs) result.obs->metrics().merge(rebuild->metrics());
  }
  for (std::size_t i = 0; i < managers.size(); ++i) {
    result.files[i].adaptive_epochs = managers[i]->summary().epochs_installed;
    result.degraded_replan =
        result.degraded_replan || managers[i]->degraded_active();
    if (result.obs) result.obs->metrics().merge(managers[i]->metrics());
  }
  if (result.health) {
    result.health->finalize();
    if (result.obs) result.obs->metrics().merge(result.health->metrics());
    if (options.telemetry.slo > 0.0) {
      result.tenant_slo.reserve(max_tenant + 1);
      for (std::uint32_t t = 0; t <= max_tenant; ++t) {
        result.tenant_slo.push_back(result.health->tenant_slo_attainment(t));
      }
    }
  }
  if (cache_manager != nullptr) result.cache = cache_manager->stats();
  result.server_io_time.reserve(cluster.num_servers());
  for (std::size_t i = 0; i < cluster.num_servers(); ++i) {
    result.server_io_time.push_back(cluster.server_io_time(i));
  }
  result.sim_stats = sim.stats();
  return result;
}

}  // namespace harl::harness
