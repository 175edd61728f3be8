// harl_perfbench — host-time benchmark of one HARL scenario, end to end and
// per layer.
//
//   harl_perfbench --workload plan_regions|cache_reads|storm --seed N
//                  --seconds S --trace 0|1 [--spans-out PATH]
//                  [--expect-fingerprint HEX] [--commit TEXT]
//                  [--corrupt none|fingerprint|bytes]
//
// One op is the work `harl_sim` does for one scenario and one seed:
// harness::Experiment::run_all (or harness::run_population for `storm`) plus
// an in-memory export of the result rows and, on `storm`, of the metrics and
// health JSON.  Every op's inputs are generated from --seed before timing
// starts; ops then run in a closed loop with one caller for --seconds.
// Every op's outputs are checked; a failed check or an exception counts the
// op as failed.
//
// --trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced
// ops with traced ops, which make the same calls as run_all one layer at a
// time from this file, each inside a span, and prints the per-layer metrics.
// The last stdout line is one JSON object: correct, attempted, failed,
// metrics.  --corrupt deliberately breaks one expected value so the output
// checks can be shown to fire.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/span_log.hpp"
#include "src/core/planner.hpp"
#include "src/harness/experiment.hpp"
#include "src/harness/population.hpp"
#include "src/harness/table.hpp"
#include "src/middleware/mpi_world.hpp"
#include "src/middleware/runner.hpp"
#include "src/pfs/cluster.hpp"
#include "src/trace/collector.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using namespace harl;
using Clock = std::chrono::steady_clock;

enum class Workload { kPlanRegions, kCacheReads, kStorm };

/// op_tail_s is the highest percentile with at least this many ops beyond.
constexpr std::size_t kTailBeyond = 10;

struct Args {
  std::string workload_name;
  Workload workload = Workload::kPlanRegions;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string spans_out;
  std::optional<std::uint64_t> expect_fingerprint;
  std::string commit = "unknown";
  std::string corrupt = "none";
};

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string hex(std::uint64_t v) {
  std::ostringstream os;
  os << std::hex << std::setw(16) << std::setfill('0') << v;
  return os.str();
}

double mib(double bytes) { return bytes / (1024.0 * 1024.0); }

// --- workload definitions ---------------------------------------------------

/// Experiment options of one workload.  Always the sequential engine with no
/// pools (threads = 0, sim_threads = 0).
harness::ExperimentOptions make_options(Workload w, bool telemetry) {
  harness::ExperimentOptions options;
  switch (w) {
    case Workload::kPlanRegions:
      break;
    case Workload::kCacheReads:
      options.cache.budget = 64 * MiB;
      options.cache.chunk = 64 * KiB;
      options.cache.devices = 2;
      break;
    case Workload::kStorm:
      options.cluster.fail_server = 7;
      options.cluster.fail_at = 0.05;
      if (telemetry) {
        // The always-on telemetry set: recorder (metrics and sketches, no
        // trace events), health monitor over 0.1 s windows, 5 ms SLO.
        options.observe = true;
        options.recorder.trace = false;
        options.telemetry.interval = 0.1;
        options.telemetry.slo = 0.005;
      }
      break;
  }
  return options;
}

std::vector<harness::LayoutScheme> make_schemes(Workload w) {
  if (w == Workload::kPlanRegions) {
    return {harness::LayoutScheme::fixed(64 * KiB),
            harness::LayoutScheme::harl()};
  }
  return {harness::LayoutScheme::fixed(64 * KiB)};
}

harness::PopulationRunOptions population_options() {
  harness::PopulationRunOptions popts;
  popts.replicate = true;
  popts.rebuild_bandwidth = 256.0 * static_cast<double>(MiB);
  return popts;
}

/// Every op's inputs, generated once from the seed before timing starts.
struct Inputs {
  harness::WorkloadBundle bundle;                   // single-file workloads
  std::vector<harness::PopulationFile> population;  // storm
  std::uint64_t requests = 0;  ///< I/O requests generated, all phases
  Bytes extent_end = 0;        ///< end of the furthest byte touched
};

void count_programs(const std::vector<mw::RankProgram>& programs,
                    Inputs& in) {
  for (const auto& prog : programs) {
    for (const auto& action : prog) {
      for (const auto& e : action.extents) {
        ++in.requests;
        in.extent_end = std::max(in.extent_end, e.offset + e.size);
      }
    }
  }
}

Inputs generate(Workload w, std::uint64_t seed) {
  Inputs in;
  switch (w) {
    case Workload::kPlanRegions: {
      workloads::MultiRegionConfig mr;
      mr.processes = 8;
      mr.coverage = 0.02;
      mr.seed = seed;
      in.bundle = harness::multiregion_bundle(mr);
      break;
    }
    case Workload::kCacheReads: {
      workloads::ZipfConfig zipf;
      zipf.processes = 64;
      zipf.request_size = 64 * KiB;
      zipf.reads_per_process = 1024;
      zipf.read_phases = 4;
      zipf.theta = 0.9;
      zipf.seed = seed;
      in.bundle = harness::zipf_bundle(zipf);
      break;
    }
    case Workload::kStorm: {
      harness::PopulationSpec spec;
      spec.files = 256;
      spec.tenants = 4;
      spec.seed = seed;
      in.population = harness::make_population(spec);
      for (const auto& f : in.population) {
        count_programs(f.bundle.write_programs, in);
        count_programs(f.bundle.read_programs, in);
        count_programs(f.bundle.mixed_programs, in);
      }
      return in;
    }
  }
  count_programs(in.bundle.write_programs, in);
  count_programs(in.bundle.read_programs, in);
  count_programs(in.bundle.mixed_programs, in);
  return in;
}

// --- one op -----------------------------------------------------------------

/// Counts of one traced op, taken where the work happens.
struct LayerCounts {
  double trace_records = 0;
  double regions = 0;
  double tuning_rounds = 0;
  double candidates = 0;
  double cost_evals = 0;
  double cost_evals_saved = 0;
  double model_cost_s = 0;
  double sim_events = 0;
  double peak_queue = 0;
  double heap_callbacks = 0;
  double pool_misses = 0;
  double pfs_requests = 0;
  double pfs_bytes = 0;
  double busy_imbalance = 0;
  double cache_lookups = 0;
  double cache_hit_ratio = 0;
  double cache_fill_waste = 0;
  double cache_evictions = 0;
  double degraded_reads = 0;
  double write_legs = 0;
  double rebuild_chunks = 0;
  double rebuild_bytes = 0;
  double rebuild_done_s = 0;
  double rebuild_interference_s = 0;
  double export_bytes = 0;
};

struct OpOutput {
  std::vector<harness::SchemeResult> schemes;       // single-file workloads
  std::optional<harness::PopulationResult> population;  // storm
  std::string rows;        ///< exported result rows (+ RST text per plan)
  std::string obs_export;  ///< storm with telemetry: metrics + health JSON
  double sim_mbps = 0.0;   ///< primary scheme, simulated
  double harl_gain = 0.0;  ///< primary / fixed-64K, simulated
};

/// max HServer busy time / max SServer busy time (paper Fig. 1a).
double busy_imbalance(const std::vector<Seconds>& busy,
                      const pfs::ClusterConfig& cluster) {
  double h = 0.0;
  double s = 0.0;
  for (std::size_t i = 0; i < busy.size(); ++i) {
    double& peak = i < cluster.num_hservers ? h : s;
    peak = std::max(peak, busy[i]);
  }
  return s > 0.0 ? h / s : 0.0;
}

/// The rows harl_sim prints for a single-file run, plus each plan's RST.
std::string export_rows(const std::vector<harness::SchemeResult>& results) {
  std::ostringstream out;
  harness::Table table({"layout", "read MB/s", "write MB/s", "total MB/s",
                        "regions", "detail"});
  for (const auto& r : results) {
    table.add_row({r.label, harness::cell(mib(r.read.throughput()), 1),
                   harness::cell(mib(r.write.throughput()), 1),
                   harness::cell(mib(r.total.throughput()), 1),
                   std::to_string(r.region_count), r.layout_description});
  }
  table.print(out);
  for (const auto& r : results) {
    if (r.cache.has_value()) {
      const auto& c = r.cache->tier;
      out << "cache " << r.label << ": " << c.lookups << " lookups, "
          << c.hits << " hits, " << c.fills_completed << " fills, "
          << c.fills_discarded << " discarded, " << c.evictions
          << " evictions\n";
    }
    if (r.plan.has_value()) {
      out << "rst " << r.label << "\n";
      r.plan->rst.save(out);
    }
  }
  return out.str();
}

/// The rows harl_sim prints for a population run.
std::string export_rows(const harness::PopulationResult& r) {
  std::ostringstream out;
  harness::Table table({"file", "tenant", "layout", "regions", "MB/s"});
  for (const auto& f : r.files) {
    table.add_row({f.name, std::to_string(f.tenant), f.layout_description,
                   std::to_string(f.region_count),
                   harness::cell(mib(f.total.throughput()), 1)});
  }
  table.print(out);
  out << "aggregate " << harness::cell(mib(r.total.throughput()), 1)
      << " MB/s over " << harness::cell(r.total.makespan, 4) << " s\n"
      << "failure: " << r.degraded_reads << " degraded reads, "
      << r.replica_writes << " replica write legs, rebuilt " << r.rebuilt_bytes
      << " bytes in " << r.rebuild_chunks << " chunks, done="
      << (r.rebuild_done ? "yes" : "no") << " at "
      << harness::cell(r.rebuild_finished_at, 4) << " s\n";
  if (!r.tenant_slo.empty()) {
    out << "tenant SLO attainment:";
    for (std::size_t t = 0; t < r.tenant_slo.size(); ++t) {
      out << " t" << t << "=" << harness::cell(100.0 * r.tenant_slo[t], 1)
          << "%";
    }
    out << "\n";
  }
  return out.str();
}

class Bench {
 public:
  Bench(const Args& args, Inputs inputs)
      : args_(args),
        inputs_(std::move(inputs)),
        schemes_(make_schemes(args.workload)) {}

  /// One op as harl_sim runs it.  `log` (optional) records spans around the
  /// layer calls; on single-file workloads a traced op makes run_all's calls
  /// itself, one layer at a time.
  OpOutput run(harness::Experiment& experiment, SpanLog* log,
               std::uint32_t op, LayerCounts& counts) {
    Span root(log, "op", op);
    OpOutput out;
    if (args_.workload == Workload::kStorm) {
      {
        Span s(log, "harness.run_population", op);
        out.population = harness::run_population(
            experiment, inputs_.population, schemes_.front(),
            population_options());
      }
      const harness::PopulationResult& r = *out.population;
      {
        Span s(log, "harness.export_rows", op);
        out.rows = export_rows(r);
      }
      if (r.obs != nullptr && r.health != nullptr) {
        Span s(log, "obs.export", op);
        std::ostringstream json;
        json << "{\"metrics\": ";
        r.obs->write_metrics_json(json, 2);
        json << ",\n \"timeseries\": ";
        r.health->timeseries().write_json(json, 2);
        json << ",\n \"health\": ";
        r.health->write_json(json, 2);
        json << "}\n";
        out.obs_export = json.str();
      }
      out.sim_mbps = mib(r.total.throughput());
      out.harl_gain = 1.0;  // the primary scheme is the fixed-64K baseline
      count_population(r, experiment.options(), out, counts);
      return out;
    }

    if (log == nullptr) {
      out.schemes = experiment.run_all(inputs_.bundle, schemes_);
    } else {
      out.schemes = traced_run_all(experiment, log, op, counts);
    }
    {
      Span s(log, "harness.export_rows", op);
      out.rows = export_rows(out.schemes);
    }
    const harness::SchemeResult& primary = out.schemes.back();
    out.sim_mbps = mib(primary.total.throughput());
    const double fixed = out.schemes.front().total.throughput();
    out.harl_gain = fixed > 0.0 ? primary.total.throughput() / fixed : 0.0;
    counts.busy_imbalance =
        busy_imbalance(primary.server_io_time, experiment.options().cluster);
    return out;
  }

  /// Output checks; returns the first failure, empty when the op is correct.
  /// `fingerprinted` = the rows are the ones fingerprints.json records.
  std::string check(const OpOutput& out, bool fingerprinted) const {
    const Bytes skew = args_.corrupt == "bytes" ? 1 : 0;
    if (args_.workload == Workload::kStorm) {
      const harness::PopulationResult& r = *out.population;
      if (r.files.size() != inputs_.population.size()) {
        return "population result has the wrong file count";
      }
      for (std::size_t i = 0; i < r.files.size(); ++i) {
        const harness::WorkloadBundle& b = inputs_.population[i].bundle;
        const auto w = mw::program_volume(b.write_programs);
        const auto rd = mw::program_volume(b.read_programs);
        const auto m = mw::program_volume(b.mixed_programs);
        const Bytes issued = w.read + w.write + rd.read + rd.write + m.read +
                             m.write + (i == 0 ? skew : 0);
        if (r.files[i].total.bytes != issued) {
          return "file " + r.files[i].name + " completed " +
                 std::to_string(r.files[i].total.bytes) + " of " +
                 std::to_string(issued) + " bytes issued";
        }
      }
      if (!r.rebuild_done) return "rebuild did not finish";
      if (r.rebuild_chunks == 0) return "rebuild moved no chunks";
    } else {
      const Bytes issued_write =
          mw::program_volume(inputs_.bundle.write_programs).write + skew;
      const Bytes issued_read =
          mw::program_volume(inputs_.bundle.read_programs).read;
      for (const auto& r : out.schemes) {
        if (r.write.bytes != issued_write || r.read.bytes != issued_read) {
          return r.label + " completed " + std::to_string(r.write.bytes) +
                 "/" + std::to_string(r.read.bytes) + " of " +
                 std::to_string(issued_write) + "/" +
                 std::to_string(issued_read) + " bytes written/read";
        }
        if (r.plan.has_value()) {
          const std::string tiling = check_tiling(*r.plan);
          if (!tiling.empty()) return r.label + ": " + tiling;
        }
        if (r.cache.has_value()) {
          const auto& c = r.cache->tier;
          if (c.lookups != c.hits + c.misses) {
            return "cache lookups != hits + misses";
          }
          if (c.fills_completed + c.fills_discarded != c.admissions) {
            return "cache fills completed + discarded != admissions";
          }
        }
      }
    }
    if (fingerprinted && args_.expect_fingerprint.has_value()) {
      std::uint64_t expected = *args_.expect_fingerprint;
      if (args_.corrupt == "fingerprint") expected ^= 1;
      const std::uint64_t got = fnv1a(out.rows);
      if (got != expected) {
        return "fingerprint " + hex(got) + " != recorded " + hex(expected);
      }
    }
    return "";
  }

  const Inputs& inputs() const { return inputs_; }

 private:
  /// Pre-merge regions must tile [0, end of the furthest traced byte), and
  /// the RST must start at 0 with strictly ascending offsets.
  std::string check_tiling(const core::Plan& plan) const {
    if (plan.regions.empty() || plan.rst.empty()) return "empty plan";
    if (plan.regions.front().offset != 0) return "first region not at 0";
    for (std::size_t i = 1; i < plan.regions.size(); ++i) {
      if (plan.regions[i].offset != plan.regions[i - 1].end) {
        return "regions leave a gap or overlap at region " +
               std::to_string(i);
      }
    }
    if (plan.regions.back().end != inputs_.extent_end) {
      return "regions end at " + std::to_string(plan.regions.back().end) +
             ", traced extent ends at " + std::to_string(inputs_.extent_end);
    }
    if (plan.rst.entry(0).offset != 0) return "RST does not start at 0";
    for (std::size_t i = 1; i < plan.rst.size(); ++i) {
      if (plan.rst.entry(i).offset <= plan.rst.entry(i - 1).offset) {
        return "RST offsets not ascending";
      }
    }
    return "";
  }

  void run_phase(mw::ProgramRunner& runner,
                 const std::vector<mw::RankProgram>& programs,
                 harness::SchemeResult& result) {
    if (programs.empty()) return;
    const mw::RunResult r = runner.run(programs);
    if (r.bytes_written > 0 && r.bytes_read == 0) {
      result.write.makespan += r.makespan;
      result.write.bytes += r.bytes_written;
    } else if (r.bytes_read > 0 && r.bytes_written == 0) {
      result.read.makespan += r.makespan;
      result.read.bytes += r.bytes_read;
    } else {
      result.write.bytes += r.bytes_written;
      result.read.bytes += r.bytes_read;
    }
    result.total.makespan += r.makespan;
    result.total.bytes += r.bytes_read + r.bytes_written;
  }

  /// Experiment::run_all for this benchmark's single-file workloads, made
  /// one public layer call at a time: Tracing Phase, then per scheme the
  /// layout (Alg. 1 + Alg. 2 for HARL) and the measured run.  Its rows must
  /// equal run_all's, which the traced run checks.
  std::vector<harness::SchemeResult> traced_run_all(
      harness::Experiment& experiment, SpanLog* log, std::uint32_t op,
      LayerCounts& counts) {
    const harness::ExperimentOptions& opts = experiment.options();
    const harness::WorkloadBundle& bundle = inputs_.bundle;
    const std::size_t M = opts.cluster.num_hservers;
    const std::size_t N = opts.cluster.num_sservers;
    const core::CostParams& params = experiment.cost_params();

    std::vector<trace::TraceRecord> records;
    bool traced = false;
    for (const auto& scheme : schemes_) traced |= scheme.needs_analysis();
    if (traced) {
      trace::TraceCollector collector;
      {
        Span s(log, "trace.run", op);
        sim::Simulator sim;
        pfs::Cluster cluster(sim, opts.cluster);
        mw::MpiWorld world(cluster, bundle.processes);
        auto layout =
            pfs::make_fixed_layout(cluster.num_servers(), opts.tracing_stripe);
        mw::ProgramRunner runner(world, bundle.name, layout, &collector,
                                 opts.collective);
        for (const auto* phase : {&bundle.write_programs,
                                  &bundle.read_programs,
                                  &bundle.mixed_programs}) {
          if (!phase->empty()) runner.run(*phase);
        }
      }
      {
        Span s(log, "trace.sort", op);
        records = collector.sorted_by_offset();
      }
      counts.trace_records = static_cast<double>(records.size());
    }

    std::vector<harness::SchemeResult> results;
    for (const auto& scheme : schemes_) {
      harness::SchemeResult result;
      result.label = scheme.label();
      std::shared_ptr<const pfs::Layout> layout;
      if (scheme.needs_analysis()) {
        if (opts.cache.enabled()) {
          throw std::logic_error("traced path has no cache-aware planner arm");
        }
        {
          Span s(log, "core.divide_regions", op);
          const core::RegionDivision division =
              core::divide_regions(records, opts.planner.divider);
          counts.regions = static_cast<double>(division.regions.size());
          counts.tuning_rounds = division.tuning_rounds;
        }
        core::Plan plan;
        {
          Span s(log, "core.analyze", op);
          plan = core::analyze(records, params, opts.planner);
        }
        {
          Span s(log, "harness.place", op);
          layout = plan.rst.to_layout(M, N);
        }
        for (const auto& region : plan.regions) {
          counts.candidates += static_cast<double>(region.candidates_evaluated);
        }
        counts.cost_evals += static_cast<double>(plan.total_cost_evals());
        counts.cost_evals_saved +=
            static_cast<double>(plan.total_cost_evals_saved());
        counts.model_cost_s += plan.total_model_cost();
        result.region_count = plan.rst.size();
        result.plan = std::move(plan);
      } else {
        Span s(log, "harness.build_layout", op);
        layout = harness::build_layout(scheme, opts.cluster, {}, params,
                                       opts.planner);
      }
      result.layout_description = layout->describe();

      Span s(log, "sim.run", op);
      sim::Simulator sim;
      pfs::Cluster cluster(sim, opts.cluster);
      std::unique_ptr<pfs::CacheManager> cache;
      if (opts.cache.enabled() && !scheme.produces_plan()) {
        pfs::CacheManager::Config config;
        config.budget = opts.cache.budget;
        config.chunk = opts.cache.chunk;
        config.devices = opts.cache.devices;
        config.policy = opts.cache.policy;
        config.blind = opts.cache.blind;
        cache = std::make_unique<pfs::CacheManager>(cluster, config);
        for (std::size_t i = 0; i < cluster.num_clients(); ++i) {
          cluster.client(i).set_cache(cache.get());
        }
      }
      mw::MpiWorld world(cluster, bundle.processes);
      mw::ProgramRunner runner(world, bundle.name, layout, nullptr,
                               opts.collective);
      run_phase(runner, bundle.write_programs, result);
      run_phase(runner, bundle.read_programs, result);
      run_phase(runner, bundle.mixed_programs, result);
      if (cache != nullptr) {
        result.cache = cache->stats();
        const auto& c = result.cache->tier;
        counts.cache_lookups += static_cast<double>(c.lookups);
        counts.cache_evictions += static_cast<double>(c.evictions);
        counts.cache_hit_ratio =
            c.lookups > 0 ? static_cast<double>(c.hits) /
                                static_cast<double>(c.lookups)
                          : 0.0;
        counts.cache_fill_waste =
            c.admissions > 0 ? static_cast<double>(c.fills_discarded) /
                                   static_cast<double>(c.admissions)
                             : 0.0;
      }
      for (std::size_t i = 0; i < cluster.num_servers(); ++i) {
        result.server_io_time.push_back(cluster.server_io_time(i));
      }
      for (std::size_t i = 0; i < cluster.num_clients(); ++i) {
        counts.pfs_requests +=
            static_cast<double>(cluster.client(i).requests_issued());
      }
      result.sim_stats = sim.stats();
      add_sim_stats(result.sim_stats, counts);
      counts.pfs_bytes += static_cast<double>(result.total.bytes);
      results.push_back(std::move(result));
    }
    return results;
  }

  static void add_sim_stats(const sim::Simulator::Stats& s, LayerCounts& c) {
    c.sim_events += static_cast<double>(s.events_dispatched);
    c.peak_queue =
        std::max(c.peak_queue, static_cast<double>(s.peak_queue_depth));
    c.heap_callbacks += static_cast<double>(s.heap_callbacks);
    c.pool_misses += static_cast<double>(s.pool_misses);
  }

  void count_population(const harness::PopulationResult& r,
                        const harness::ExperimentOptions& opts,
                        const OpOutput& out, LayerCounts& c) const {
    add_sim_stats(r.sim_stats, c);
    c.pfs_requests = static_cast<double>(inputs_.requests);
    c.pfs_bytes = static_cast<double>(r.total.bytes);
    c.busy_imbalance = busy_imbalance(r.server_io_time, opts.cluster);
    c.degraded_reads = static_cast<double>(r.degraded_reads);
    c.write_legs = static_cast<double>(r.replica_writes);
    c.rebuild_chunks = static_cast<double>(r.rebuild_chunks);
    c.rebuild_bytes = static_cast<double>(r.rebuilt_bytes);
    c.rebuild_done_s = r.rebuild_finished_at;
    c.rebuild_interference_s = r.rebuild_interference;
    c.export_bytes = static_cast<double>(out.obs_export.size());
  }

  const Args& args_;
  Inputs inputs_;
  std::vector<harness::LayoutScheme> schemes_;
};

// --- reporting --------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  std::ostringstream json;
  json << std::setprecision(17);
  json << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    json << (i == 0 ? "" : ", ") << "\"" << metrics[i].name
         << "\": {\"value\": " << metrics[i].value << ", \"unit\": \""
         << metrics[i].unit << "\"}";
  }
  json << "}}";
  std::cout << json.str() << std::endl;
}

void print_metric(const Metric& m, const std::string& note = "") {
  std::cout << "  " << std::left << std::setw(34) << m.name << std::right
            << std::setw(16) << std::setprecision(6) << m.value << " "
            << m.unit << (note.empty() ? "" : "  " + note) << "\n";
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string value = argv[++i];
    if (key == "--workload") {
      a.workload_name = value;
      have_workload = true;
      if (value == "plan_regions") {
        a.workload = Workload::kPlanRegions;
      } else if (value == "cache_reads") {
        a.workload = Workload::kCacheReads;
      } else if (value == "storm") {
        a.workload = Workload::kStorm;
      } else {
        throw std::invalid_argument("unknown workload " + value);
      }
    } else if (key == "--seed") {
      a.seed = std::stoull(value);
      have_seed = true;
    } else if (key == "--seconds") {
      a.seconds = std::stod(value);
      have_seconds = a.seconds > 0.0;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") {
        throw std::invalid_argument("--trace takes 0 or 1");
      }
      a.trace = value == "1";
      have_trace = true;
    } else if (key == "--spans-out") {
      a.spans_out = value;
    } else if (key == "--expect-fingerprint") {
      a.expect_fingerprint = std::stoull(value, nullptr, 16);
    } else if (key == "--commit") {
      a.commit = value;
    } else if (key == "--corrupt") {
      if (value != "none" && value != "fingerprint" && value != "bytes") {
        throw std::invalid_argument("--corrupt takes none|fingerprint|bytes");
      }
      a.corrupt = value;
    } else {
      throw std::invalid_argument("unknown argument " + key);
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    throw std::invalid_argument(
        "usage: harl_perfbench --workload NAME --seed N --seconds S "
        "--trace 0|1");
  }
  return a;
}

int run(const Args& args) {
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  if (build_type != "Release") {
    throw std::runtime_error("refusing to measure a " + build_type +
                             " build; configure with "
                             "-DCMAKE_BUILD_TYPE=Release");
  }
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  const unsigned threads = 0;  // sequential engine, no pools
  if (threads > nproc) throw std::runtime_error("threads exceed nproc");
  std::cout << "# context {\"workload\": \"" << args.workload_name
            << "\", \"seed\": " << args.seed << ", \"seconds\": "
            << args.seconds << ", \"trace\": " << (args.trace ? 1 : 0)
            << ", \"nproc\": " << nproc << ", \"threads\": " << threads
            << ", \"sim_threads\": 0, \"build_type\": \"" << build_type
            << "\", \"compiler\": \"" << __VERSION__ << "\", \"commit\": \""
            << args.commit
            << "\", \"loop\": \"closed, 1 caller\", \"process\": "
               "\"one per workload run\"}\n";

  // --- setup: input generation + calibration ------------------------------
  // Repeated once after every loop iteration (outside the op timings), so
  // the reported median samples the same stretch of machine time as the ops.
  std::vector<double> setup_s, gen_s, calibrate_s;
  const auto set_up = [&](Inputs& inputs,
                          std::unique_ptr<harness::Experiment>& experiment) {
    const auto t0 = Clock::now();
    inputs = generate(args.workload, args.seed);
    const double gen = seconds_since(t0);
    const auto t1 = Clock::now();
    experiment = std::make_unique<harness::Experiment>(
        make_options(args.workload, /*telemetry=*/true));
    experiment->cost_params();
    const double cal = seconds_since(t1);
    gen_s.push_back(gen);
    calibrate_s.push_back(cal);
    setup_s.push_back(gen + cal);
  };
  Inputs inputs;
  std::unique_ptr<harness::Experiment> experiment;
  set_up(inputs, experiment);
  Bench bench(args, std::move(inputs));

  // Telemetry-off arm of the storm op (traced run only: obs.overhead_ratio).
  std::unique_ptr<harness::Experiment> plain;
  if (args.trace && args.workload == Workload::kStorm) {
    plain = std::make_unique<harness::Experiment>(
        make_options(args.workload, /*telemetry=*/false));
    plain->cost_params();
  }

  // --- closed loop, one caller --------------------------------------------
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::string first_failure;
  std::vector<double> op_s, traced_s, plain_s;
  OpOutput last;
  SpanLog log;
  LayerCounts counts;
  std::optional<std::uint64_t> untraced_fp, traced_fp;

  const auto attempt = [&](harness::Experiment& exp, SpanLog* span_log,
                           std::vector<double>& times) {
    const std::uint32_t op = static_cast<std::uint32_t>(attempted++);
    const bool telemetry_off = &exp == plain.get();
    LayerCounts op_counts;
    const auto t0 = Clock::now();
    try {
      OpOutput out = bench.run(exp, span_log, op, op_counts);
      times.push_back(seconds_since(t0));
      // The telemetry-off arm's rows lack the SLO line, so they are checked
      // but not fingerprinted or compared.
      std::string problem = bench.check(out, !telemetry_off);
      if (problem.empty() && !telemetry_off) {
        auto& fp = span_log != nullptr ? traced_fp : untraced_fp;
        const std::uint64_t got = fnv1a(out.rows);
        if (fp.has_value() && *fp != got) problem = "rows differ across ops";
        fp = got;
        if (traced_fp && untraced_fp && *traced_fp != *untraced_fp) {
          problem = "traced op rows differ from run_all's";
        }
      }
      if (!problem.empty()) {
        ++failed;
        if (first_failure.empty()) first_failure = problem;
      }
      if (span_log != nullptr) counts = op_counts;
      if (!telemetry_off) last = std::move(out);
    } catch (const std::exception& e) {
      times.push_back(seconds_since(t0));
      ++failed;
      if (first_failure.empty()) first_failure = e.what();
    }
  };

  const auto loop_start = Clock::now();
  do {
    attempt(*experiment, nullptr, op_s);
    if (args.trace) {
      attempt(*experiment, &log, traced_s);
      if (plain != nullptr) attempt(*plain, nullptr, plain_s);
    }
    Inputs repeat_inputs;
    std::unique_ptr<harness::Experiment> repeat_experiment;
    set_up(repeat_inputs, repeat_experiment);
  } while (seconds_since(loop_start) < args.seconds);
  const double loop_s = seconds_since(loop_start);

  std::cout << "# workload " << args.workload_name
            << ": closed loop, 1 caller, " << attempted << " ops in "
            << std::setprecision(4) << loop_s << " s\n";
  if (!last.rows.empty()) {
    std::cout << "# fingerprint " << hex(fnv1a(last.rows)) << "\n";
  }
  if (!first_failure.empty()) {
    std::cout << "# first failure: " << first_failure << "\n";
  }
  const bool correct = failed == 0;

  if (!args.trace) {
    std::vector<double> sorted = op_s;
    std::sort(sorted.begin(), sorted.end());
    const std::size_t n = sorted.size();
    const std::size_t tail_index =
        n > kTailBeyond ? n - kTailBeyond - 1 : n - 1;
    const double tail_pct = 100.0 * static_cast<double>(tail_index + 1) /
                            static_cast<double>(n);
    const std::vector<Metric> metrics = {
        {"op_p50_s", median(op_s), "s"},
        {"op_tail_s", sorted[tail_index], "s"},
        {"setup_s", median(setup_s), "s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
        {"sim_mbps", last.sim_mbps, "MB/s"},
        {"harl_gain", last.harl_gain, "x"},
    };
    std::ostringstream tail_note;
    tail_note << "p" << std::setprecision(3) << tail_pct << " of " << n
              << " ops, " << (n - tail_index - 1) << " beyond";
    std::cout << "end-to-end metrics (host time unless simulated):\n";
    print_metric(metrics[0], "median of " + std::to_string(n) + " ops");
    print_metric(metrics[1], tail_note.str());
    print_metric(metrics[2],
                 "median of " + std::to_string(setup_s.size()) + " setups");
    print_metric(metrics[3]);
    print_metric({"failed_frac",
                  static_cast<double>(failed) / static_cast<double>(attempted),
                  "frac"},
                 std::to_string(failed) + " of " + std::to_string(attempted) +
                     " ops");
    print_metric(metrics[4], "simulated, primary scheme");
    print_metric(metrics[5], "simulated, primary / fixed-64K");
    print_result(correct, attempted, failed, metrics);
    return 0;
  }

  // --- traced run: per-layer metrics ----------------------------------------
  const auto per_op_median = [&](std::string_view name) {
    std::vector<double> v;
    for (const auto& [op, t] : log.total_by_op(name)) v.push_back(t);
    return median(v);
  };
  const double analyze_s = per_op_median("core.analyze");
  const double sim_run_s = per_op_median("sim.run") +
                           per_op_median("harness.run_population");
  std::map<std::string, std::vector<double>> self;
  for (const auto& [op, layers] : log.self_by_op()) {
    for (const auto& [layer, t] : layers) self[layer].push_back(t);
  }
  const auto self_median = [&](const std::string& layer) {
    const auto it = self.find(layer);
    return it == self.end() ? 0.0 : median(it->second);
  };
  const double traced_p50 = median(traced_s);
  const double untraced_p50 = median(op_s);
  double self_sum = 0.0;
  for (const auto& [layer, v] : self) self_sum += median(v);
  const double lookups = counts.cache_lookups;
  const double saved = counts.cost_evals_saved;
  const double evals = counts.cost_evals;

  const std::vector<Metric> metrics = {
      {"workloads.gen_s", median(gen_s), "s"},
      {"workloads.requests", static_cast<double>(bench.inputs().requests),
       "count"},
      {"harness.calibrate_s", median(calibrate_s), "s"},
      {"trace.run_s", per_op_median("trace.run"), "s"},
      {"trace.sort_s", per_op_median("trace.sort"), "s"},
      {"trace.records", counts.trace_records, "count"},
      {"core.divide_s", per_op_median("core.divide_regions"), "s"},
      {"core.regions", counts.regions, "count"},
      {"core.tuning_rounds", counts.tuning_rounds, "count"},
      {"core.analyze_s", analyze_s, "s"},
      {"core.candidates", counts.candidates, "count"},
      {"core.cost_evals", evals, "count"},
      {"core.cost_evals_saved", saved, "count"},
      {"core.coalesce_ratio", evals + saved > 0 ? saved / (evals + saved) : 0.0,
       "frac"},
      {"core.evals_per_s", analyze_s > 0.0 ? evals / analyze_s : 0.0, "1/s"},
      {"core.model_cost_s", counts.model_cost_s, "s"},
      {"sim.run_s", sim_run_s, "s"},
      {"sim.events", counts.sim_events, "count"},
      {"sim.events_per_s",
       sim_run_s > 0.0 ? counts.sim_events / sim_run_s : 0.0, "1/s"},
      {"sim.peak_queue", counts.peak_queue, "count"},
      {"sim.heap_callbacks", counts.heap_callbacks, "count"},
      {"sim.pool_misses", counts.pool_misses, "count"},
      {"pfs.requests", counts.pfs_requests, "count"},
      {"pfs.bytes", counts.pfs_bytes, "bytes"},
      {"storage.busy_imbalance", counts.busy_imbalance, "x"},
      {"pfs.cache.lookups", lookups, "count"},
      {"pfs.cache.hit_ratio", counts.cache_hit_ratio, "frac"},
      {"pfs.cache.fill_waste", counts.cache_fill_waste, "frac"},
      {"pfs.cache.evictions", counts.cache_evictions, "count"},
      {"pfs.replica.degraded_reads", counts.degraded_reads, "count"},
      {"pfs.replica.write_legs", counts.write_legs, "count"},
      {"middleware.rebuild.chunks", counts.rebuild_chunks, "count"},
      {"middleware.rebuild.bytes", counts.rebuild_bytes, "bytes"},
      {"middleware.rebuild.done_s", counts.rebuild_done_s, "s"},
      {"middleware.rebuild.interference_s", counts.rebuild_interference_s,
       "s"},
      {"obs.overhead_ratio",
       plain_s.empty() ? 0.0 : untraced_p50 / median(plain_s), "x"},
      {"obs.export_s", per_op_median("obs.export"), "s"},
      {"obs.export_bytes", counts.export_bytes, "bytes"},
      {"self.op_s", self_median("op"), "s"},
      {"self.trace_s", self_median("trace"), "s"},
      {"self.core_s", self_median("core"), "s"},
      {"self.harness_s", self_median("harness"), "s"},
      {"self.sim_s", self_median("sim"), "s"},
      {"self.obs_s", self_median("obs"), "s"},
      {"bench.untraced_op_p50_s", untraced_p50, "s"},
      {"bench.traced_op_p50_s", traced_p50, "s"},
      {"bench.trace_overhead_s", traced_p50 - untraced_p50, "s"},
      {"bench.accounted_frac", traced_p50 > 0.0 ? self_sum / traced_p50 : 0.0,
       "frac"},
  };
  std::cout << "per-layer metrics (traced run: " << traced_s.size()
            << " traced ops, " << op_s.size() << " untraced";
  if (!plain_s.empty()) {
    std::cout << ", " << plain_s.size() << " with telemetry off (base "
              << std::setprecision(6) << median(plain_s) << " s)";
  }
  std::cout << "; simulated: core.model_cost_s, storage.busy_imbalance, "
               "middleware.rebuild.*):\n";
  for (const Metric& m : metrics) print_metric(m);
  std::cout << "self time by layer, median per traced op (sum "
            << std::setprecision(6) << self_sum << " s of traced op p50 "
            << traced_p50 << " s; tracing overhead "
            << traced_p50 - untraced_p50 << " s over untraced p50 "
            << untraced_p50 << " s):\n";
  for (const auto& [layer, v] : self) {
    std::cout << "  " << std::left << std::setw(10) << layer << std::right
              << std::setw(12) << median(v) << " s  "
              << std::setprecision(3)
              << (traced_p50 > 0.0 ? 100.0 * median(v) / traced_p50 : 0.0)
              << "%\n"
              << std::setprecision(6);
  }

  if (!args.spans_out.empty()) {
    std::ofstream out(args.spans_out);
    if (!out) throw std::runtime_error("cannot write " + args.spans_out);
    out << std::setprecision(17) << "{\"workload\": \"" << args.workload_name
        << "\", \"seed\": " << args.seed << ", \"spans\": ";
    log.write_json(out);
    out << "}\n";
  }
  print_result(correct, attempted, failed, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "harl_perfbench: " << e.what() << "\n";
    return 2;
  }
}
