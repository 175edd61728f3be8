// harl_sim — config-driven experiment runner.
//
// Runs one workload x layout-scheme grid on the simulated hybrid PFS and
// prints the comparison table.  All parameters are key=value arguments:
//
//   ./build/tools/harl_sim workload=ior request=512K procs=16 file=4G
//        requests=64 schemes=64K,256K,harl          (one command line)
//
// Keys (defaults in parentheses):
//   workload   ior | multiregion | btio            (ior)
//   procs      process count                       (16)
//   request    IOR request size                    (512K)
//   file       IOR file size                       (4G)
//   requests   IOR requests per process, 0 = full  (64)
//   coverage   multiregion coverage fraction       (0.1)
//   grid       BTIO grid points per dimension      (48)
//   dumps      BTIO max dumps, 0 = all             (4)
//   hservers   HDD server count                    (6)
//   sservers   SSD server count                    (2)
//   clients    compute nodes                       (8)
//   schemes    comma list: <size> | randN | harl | harl-file | segment
//              (64K,256K,harl)
//   seed       workload seed                       (7)
//   threads    worker threads, 0 = serial          (0)
//              parallelizes the planner's analysis AND the per-scheme
//              measured runs; tables are bit-identical at any width
//   stats      1 = print per-scheme event-engine counters (0)
//   save-plan  path; write the first analysis-based scheme's Plan
//              artifact (binary, or CSV if the path ends in .csv)
//   load-plan  path; Placing Phase only — append a scheme built from a
//              previously saved Plan artifact, skipping trace + analysis
//   metrics-out  path; per-scheme observability report JSON (per-server
//                utilization/queue timelines, T_X/T_S/T_T histograms)
//   trace-out    path; combined Chrome trace-event JSON of every scheme's
//                measured run (one pid per scheme; load in Perfetto)
//   trace-events ring-buffer capacity for trace events, 0 = unbounded
//   timeseries-out  path; windowed per-server telemetry + health summary
//   health       1 = arm the straggler/SLO health monitor
//   files        namespace population size, 0 = single-file mode
//   tenants      tenant count for population runs
//   zipf-tenant-theta  Zipf skew of files-per-tenant shares
//   replicas     per-region replica placement for population files
//   fail-server  global server index to kill mid-run (-1 = none)
//   fail-at      failure instant in simulated seconds
//
// `harl_sim help` prints this key table — generated from the same option
// table that validates arguments, so help and parser cannot drift.
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/config.hpp"
#include "src/common/thread_pool.hpp"
#include "src/core/plan_artifact.hpp"
#include "src/harness/experiment.hpp"
#include "src/harness/population.hpp"
#include "src/harness/table.hpp"

using namespace harl;

namespace {

/// Every recognized key=value option.  This single table generates the help
/// text AND rejects unknown keys, so the two cannot drift apart (there is a
/// test greping `harl_sim help` for each key).
struct OptionSpec {
  const char* key;
  /// First line is the summary (defaults in parentheses); further lines are
  /// indented continuations.
  const char* help;
};

constexpr OptionSpec kOptions[] = {
    {"workload", "ior | multiregion | btio | zipf     (ior)"},
    {"procs", "process count                       (16)"},
    {"request", "IOR request size                    (512K)"},
    {"file", "IOR file size                       (4G)"},
    {"requests", "IOR requests per process, 0 = full  (64)"},
    {"coverage", "multiregion coverage fraction       (0.1)"},
    {"drift",
     "multiregion drift phases            (1)\n"
     "each phase replays the regions with request sizes scaled\n"
     "by drift-factor^phase (1 = classic static workload)"},
    {"drift-factor", "per-phase request-size scale factor (1.0)"},
    {"zipf-theta",
     "zipf skew exponent, 0 = uniform     (0.9)\n"
     "block popularity ~ 1/rank^theta over the whole file;\n"
     "all ranks share the hot set (read-cache stressor)"},
    {"zipf-reads", "zipf reads per process per phase    (256)"},
    {"zipf-phases", "zipf barrier-separated read phases  (2)"},
    {"grid", "BTIO grid points per dimension      (48)"},
    {"dumps", "BTIO max dumps, 0 = all             (4)"},
    {"hservers", "HDD server count                    (6)"},
    {"sservers", "SSD server count                    (2)"},
    {"clients", "compute nodes                       (8)"},
    {"device-spread",
     "age the second half of the SSD tier by this time\n"
     "factor (1.0 = homogeneous fleet); the planner sees the\n"
     "per-device speeds unless device-blind=1 (1.0)"},
    {"aging",
     "explicit per-device speed factors, e.g.\n"
     "aging=hserver=1:1:2,sserver=1:4 (one colon list per\n"
     "tier, one factor per server; overrides device-spread)"},
    {"device-blind",
     "1 = calibrate tier profiles only, hiding per-device\n"
     "aging from the planner (the tier-blind ablation arm) (0)"},
    {"schemes",
     "comma list: <size> | randN | harl | harl-adaptive |\n"
     "harl-file | segment                 (64K,256K,harl)"},
    {"adapt",
     "1 = append the harl-adaptive scheme: epoch 0 is the\n"
     "offline plan, then live window re-optimization swaps\n"
     "epochs and migrates changed ranges mid-run (0)"},
    {"adapt-window", "adaptive advisor requests per window (1024)"},
    {"adapt-min-gain",
     "min relative model-cost gain before an epoch swap (0.1)"},
    {"migrate-bw",
     "migration throttle, bytes/s of copied data (256M);\n"
     "background copies share the real servers and network"},
    {"cache-budget",
     "read-cache capacity in bytes over the fastest SSD\n"
     "devices, 0 = no cache (0); unless cache-blind=1 the\n"
     "Analysis Phase weighs reserving those devices as a\n"
     "chunk cache against striping over them"},
    {"cache-devices",
     "most SSD devices the read cache may claim      (1)"},
    {"cache-chunk", "read-cache chunk granularity        (1M)"},
    {"cache-policy", "read-cache eviction: lru | slru     (lru)"},
    {"cache-blind",
     "1 = run the cache but keep the planner blind to it:\n"
     "regions still stripe over the cache devices and the\n"
     "two roles contend (the bolted-on ablation arm) (0)"},
    {"seed", "workload seed                       (7)"},
    {"threads",
     "worker threads, 0 = serial          (0)\n"
     "parallelizes the planner's analysis AND the per-scheme\n"
     "measured runs; tables are bit-identical at any width"},
    {"stats", "1 = print per-scheme event-engine counters (0)"},
    {"save-plan",
     "path; write the first analysis-based scheme's Plan\n"
     "artifact (binary, or CSV if the path ends in .csv)"},
    {"load-plan",
     "path; Placing Phase only — append a scheme built from a\n"
     "previously saved Plan artifact, skipping trace + analysis"},
    {"metrics-out",
     "path; per-scheme observability report JSON: per-server\n"
     "utilization and queue-depth timelines (Fig. 1a), T_X/T_S/T_T\n"
     "attribution histograms, cost-model error per region"},
    {"trace-out",
     "path; combined Chrome trace-event JSON of every scheme's\n"
     "measured run, one pid per scheme (load in Perfetto or\n"
     "chrome://tracing; validate with tools/obs_report.py --check)"},
    {"trace-events",
     "flight-recorder ring-buffer capacity, 0 = unbounded (0);\n"
     "when full, the oldest trace events are dropped"},
    {"timeseries-out",
     "path; per-scheme telemetry JSON: windowed per-server\n"
     "time series (columnar) plus the health monitor summary;\n"
     "arms the telemetry plane (DESIGN.md §15)"},
    {"timeseries-interval",
     "telemetry window width in simulated seconds (0.1 when\n"
     "timeseries-out or health=1 arms the plane, else off)"},
    {"health",
     "1 = arm the straggler/SLO health monitor even without\n"
     "timeseries-out (scores land in metrics-out / trace-out) (0)"},
    {"slo-ms",
     "request/sub-request SLO deadline in milliseconds, 0 = no\n"
     "SLO tracking (0); attainment is reported per op and per\n"
     "server (the per-server view localizes a straggler)"},
    {"gc-pause-ms",
     "periodic GC-pause duration in milliseconds on one server,\n"
     "0 = off (0); a deterministic straggler injector — service\n"
     "times inflate by gc-factor during the pause window"},
    {"gc-period", "GC-pause cycle length in seconds       (0.5)"},
    {"gc-factor", "service multiplier during a GC pause   (8.0)"},
    {"gc-server",
     "global server index to inject GC pauses on, -1 = the\n"
     "first SSD server (-1)"},
    {"files",
     "namespace population size, 0 = classic single-file mode (0)\n"
     "files >= 1 runs every scheme as a multi-file namespace: N\n"
     "files with rotating workload shapes, each planned and\n"
     "placed independently, all launched concurrently on ONE\n"
     "shared cluster (file= and request= default to 32M / 256K\n"
     "per file in this mode)"},
    {"tenants", "tenant count for population runs       (2)"},
    {"zipf-tenant-theta",
     "Zipf skew of files-per-tenant shares, 0 = uniform (0.8);\n"
     "tenant 0 is the hot tenant and owns proportionally more\n"
     "of the namespace"},
    {"replicas",
     "1 = per-region replica placement for population files (1)\n"
     "plan schemes pick each region's replica tier by modeled\n"
     "cost, other schemes use chained declustering; required\n"
     "for failure runs (degraded reads need a live copy)"},
    {"fail-server",
     "global server index to kill mid-run, -1 = none (-1);\n"
     "population mode only — foreground reads fail over to\n"
     "replicas and a throttled rebuild storm re-materializes\n"
     "the lost copies over the surviving servers"},
    {"fail-at", "failure instant in simulated seconds   (0.0)"},
};

std::string usage() {
  std::ostringstream out;
  out << "harl_sim — config-driven experiment runner.\n\n"
      << "All parameters are key=value arguments (defaults in parentheses):\n";
  for (const OptionSpec& opt : kOptions) {
    std::istringstream lines(opt.help);
    std::string line;
    bool first = true;
    while (std::getline(lines, line)) {
      if (first) {
        const std::string key(opt.key);
        out << "  " << key
            << std::string(key.size() < 13 ? 13 - key.size() : 1, ' ') << line
            << "\n";
        first = false;
      } else {
        out << std::string(15, ' ') << line << "\n";
      }
    }
  }
  out << "\nSeparate Analysis and Placing processes:\n"
      << "  harl_sim schemes=harl save-plan=ior.plan     # analyze + save\n"
      << "  harl_sim schemes=64K load-plan=ior.plan      # place from the "
         "artifact\n"
      << "\nObservability (flight recorder):\n"
      << "  harl_sim schemes=64K,harl metrics-out=m.json trace-out=t.json\n"
      << "  python3 tools/obs_report.py m.json --trace t.json --check\n"
      << "\nTelemetry plane (straggler timeline):\n"
      << "  harl_sim schemes=harl timeseries-out=ts.json health=1 "
         "slo-ms=5 gc-pause-ms=20\n"
      << "  python3 tools/obs_report.py --timeseries ts.json "
         "--require-health --html dash.html\n";
  return out.str();
}

/// Rejects keys that no OptionSpec covers (typos like thread=4 would
/// otherwise be silently ignored).
void validate_keys(const Config& cfg) {
  for (const auto& [key, value] : cfg.entries()) {
    bool known = false;
    for (const OptionSpec& opt : kOptions) {
      if (key == opt.key) {
        known = true;
        break;
      }
    }
    if (!known) {
      std::string valid;
      for (const OptionSpec& opt : kOptions) {
        if (!valid.empty()) valid += ", ";
        valid += opt.key;
      }
      throw std::invalid_argument("unknown option '" + key +
                                  "'; valid keys: " + valid);
    }
  }
}

void write_json_escaped(std::ostream& out, const std::string& s) {
  out << '"';
  for (char c : s) {
    if (c == '"' || c == '\\') out << '\\';
    out << c;
  }
  out << '"';
}

std::vector<std::string> split_commas(const std::string& text) {
  std::vector<std::string> out;
  std::string token;
  std::istringstream ss(text);
  while (std::getline(ss, token, ',')) {
    if (!token.empty()) out.push_back(token);
  }
  return out;
}

std::vector<std::string> split_on(const std::string& text, char sep) {
  std::vector<std::string> out;
  std::string token;
  std::istringstream ss(text);
  while (std::getline(ss, token, sep)) out.push_back(token);
  return out;
}

/// Applies device-spread= / aging= to the cluster config.  device-spread=F
/// ages the second half of the SSD tier by F; aging= gives explicit
/// per-server factor lists per tier name.
void apply_device_config(const Config& cfg, pfs::ClusterConfig& cluster) {
  const double spread = cfg.get_double("device-spread", 1.0);
  if (spread < 1.0) {
    throw std::invalid_argument("device-spread must be >= 1.0");
  }
  if (spread > 1.0) {
    const std::size_t aged = cluster.num_sservers / 2;
    cluster.ssd_factors.assign(cluster.num_sservers, 1.0);
    for (std::size_t i = cluster.num_sservers - aged;
         i < cluster.num_sservers; ++i) {
      cluster.ssd_factors[i] = spread;
    }
  }
  const std::string aging = cfg.get_or("aging", "");
  if (aging.empty()) return;
  cluster.hdd_factors.clear();
  cluster.ssd_factors.clear();
  for (const auto& clause : split_commas(aging)) {
    const auto eq = clause.find('=');
    if (eq == std::string::npos) {
      throw std::invalid_argument("aging clause needs tier=f0:f1:...: " +
                                  clause);
    }
    const std::string tier = clause.substr(0, eq);
    std::vector<double> factors;
    for (const auto& f : split_on(clause.substr(eq + 1), ':')) {
      factors.push_back(std::stod(f));
    }
    if (tier == "hserver") {
      cluster.hdd_factors = std::move(factors);
    } else if (tier == "sserver") {
      cluster.ssd_factors = std::move(factors);
    } else {
      throw std::invalid_argument("aging tier must be hserver or sserver: " +
                                  tier);
    }
  }
}

harness::LayoutScheme parse_scheme(const std::string& token) {
  if (token == "harl") return harness::LayoutScheme::harl();
  if (token == "harl-adaptive") return harness::LayoutScheme::harl_adaptive();
  if (token == "harl-file") return harness::LayoutScheme::file_level_harl();
  if (token == "segment") return harness::LayoutScheme::segment_level();
  if (token.rfind("rand", 0) == 0) {
    return harness::LayoutScheme::random_stripes(
        std::stoull(token.substr(4)));
  }
  return harness::LayoutScheme::fixed(parse_size(token));
}

harness::WorkloadBundle make_bundle(const Config& cfg) {
  const std::string kind = cfg.get_or("workload", "ior");
  if (kind == "ior") {
    workloads::IorConfig ior;
    ior.processes = static_cast<std::size_t>(cfg.get_int("procs", 16));
    ior.request_size = cfg.get_size("request", 512 * KiB);
    ior.file_size = cfg.get_size("file", 4 * GiB);
    ior.requests_per_process =
        static_cast<std::size_t>(cfg.get_int("requests", 64));
    ior.seed = static_cast<std::uint64_t>(cfg.get_int("seed", 7));
    return harness::ior_bundle(ior);
  }
  if (kind == "multiregion") {
    workloads::MultiRegionConfig mr;
    mr.processes = static_cast<std::size_t>(cfg.get_int("procs", 16));
    mr.coverage = cfg.get_double("coverage", 0.1);
    mr.seed = static_cast<std::uint64_t>(cfg.get_int("seed", 7));
    mr.drift_phases = static_cast<std::size_t>(cfg.get_int("drift", 1));
    mr.drift_factor = cfg.get_double("drift-factor", 1.0);
    return harness::multiregion_bundle(mr);
  }
  if (kind == "zipf") {
    workloads::ZipfConfig zipf;
    zipf.processes = static_cast<std::size_t>(cfg.get_int("procs", 16));
    zipf.file_size = cfg.get_size("file", 1 * GiB);
    zipf.request_size = cfg.get_size("request", 256 * KiB);
    zipf.reads_per_process =
        static_cast<std::size_t>(cfg.get_int("zipf-reads", 256));
    zipf.theta = cfg.get_double("zipf-theta", 0.9);
    zipf.read_phases =
        static_cast<std::size_t>(cfg.get_int("zipf-phases", 2));
    zipf.seed = static_cast<std::uint64_t>(cfg.get_int("seed", 7));
    return harness::zipf_bundle(zipf);
  }
  if (kind == "btio") {
    workloads::BtioConfig btio;
    btio.processes = static_cast<std::size_t>(cfg.get_int("procs", 16));
    btio.grid = static_cast<std::size_t>(cfg.get_int("grid", 48));
    btio.max_dumps = static_cast<int>(cfg.get_int("dumps", 4));
    return harness::btio_bundle(btio);
  }
  throw std::invalid_argument("unknown workload: " + kind);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    std::vector<std::string> args(argv + 1, argv + argc);
    for (const auto& a : args) {
      if (a == "help" || a == "-h" || a == "--help") {
        std::cout << usage();
        return 0;
      }
    }
    const Config cfg = Config::from_args(args);
    validate_keys(cfg);

    harness::ExperimentOptions options;
    options.cluster.num_hservers =
        static_cast<std::size_t>(cfg.get_int("hservers", 6));
    options.cluster.num_sservers =
        static_cast<std::size_t>(cfg.get_int("sservers", 2));
    options.cluster.num_clients =
        static_cast<std::size_t>(cfg.get_int("clients", 8));
    apply_device_config(cfg, options.cluster);
    options.calibration.device_blind = cfg.get_int("device-blind", 0) != 0;

    // Optional parallelism: one pool drives both the planner's
    // region-parallel analysis and the harness's per-scheme measured runs
    // (nested use is safe — parallel_for is work-helping).  The pool must
    // outlive the experiment, which keeps pointers to it via the options.
    std::unique_ptr<ThreadPool> pool;
    const long long threads = cfg.get_int("threads", 0);
    if (threads < 0 || threads > 1024) {
      throw std::invalid_argument("threads must be in [0, 1024]");
    }
    if (threads > 0) {
      pool = std::make_unique<ThreadPool>(static_cast<std::size_t>(threads));
      options.planner.pool = pool.get();
      options.pool = pool.get();
    }

    // Adaptive (harl-adaptive scheme) tuning.  The advisor reuses the
    // planner options — including the shared pool — so per-window
    // re-optimizations are as fast as the offline Analysis Phase.
    options.adaptive.advisor.window =
        static_cast<std::size_t>(cfg.get_int("adapt-window", 1024));
    options.adaptive.advisor.min_gain = cfg.get_double("adapt-min-gain", 0.1);
    options.adaptive.advisor.planner = options.planner;
    options.adaptive.migrate_bandwidth =
        static_cast<double>(cfg.get_size("migrate-bw", 256 * MiB));

    // Read-cache tier: budget 0 keeps every code path (planner, runtime,
    // output) byte-identical to a cache-less build.
    options.cache.budget = cfg.get_size("cache-budget", 0);
    options.cache.chunk = cfg.get_size("cache-chunk", MiB);
    options.cache.devices =
        static_cast<std::size_t>(cfg.get_int("cache-devices", 1));
    options.cache.policy =
        storage::parse_cache_policy(cfg.get_or("cache-policy", "lru"));
    options.cache.blind = cfg.get_int("cache-blind", 0) != 0;

    const std::string metrics_out = cfg.get_or("metrics-out", "");
    const std::string trace_out = cfg.get_or("trace-out", "");
    if (!metrics_out.empty() || !trace_out.empty()) {
      options.observe = true;
      options.recorder.trace = !trace_out.empty();
      options.recorder.max_trace_events =
          static_cast<std::size_t>(cfg.get_int("trace-events", 0));
    }

    // Telemetry plane: timeseries-out or health=1 arms the HealthMonitor
    // (which forces observe); the default 0.1 s window suits the short
    // simulated makespans of the bundled workloads.
    const std::string timeseries_out = cfg.get_or("timeseries-out", "");
    const bool health = cfg.get_int("health", 0) != 0;
    double ts_interval = cfg.get_double("timeseries-interval", 0.0);
    if ((!timeseries_out.empty() || health) && ts_interval <= 0.0) {
      ts_interval = 0.1;
    }
    if (ts_interval < 0.0) {
      throw std::invalid_argument("timeseries-interval must be >= 0");
    }
    options.telemetry.interval = ts_interval;
    const double slo_ms = cfg.get_double("slo-ms", 0.0);
    if (slo_ms < 0.0) throw std::invalid_argument("slo-ms must be >= 0");
    options.telemetry.slo = slo_ms / 1000.0;

    // Deterministic straggler injection: periodic per-server GC pauses.
    const double gc_pause_ms = cfg.get_double("gc-pause-ms", 0.0);
    if (gc_pause_ms < 0.0) {
      throw std::invalid_argument("gc-pause-ms must be >= 0");
    }
    options.cluster.gc_pause.duration = gc_pause_ms / 1000.0;
    options.cluster.gc_pause.period = cfg.get_double("gc-period", 0.5);
    options.cluster.gc_pause.factor = cfg.get_double("gc-factor", 8.0);
    options.cluster.gc_pause.server = cfg.get_int("gc-server", -1);

    // Failure/rebuild storm (population mode only: degraded reads need the
    // per-file replicas a population run places).
    options.cluster.fail_server = cfg.get_int("fail-server", -1);
    options.cluster.fail_at = cfg.get_double("fail-at", 0.0);
    const long long n_files = cfg.get_int("files", 0);
    if (n_files < 0 || n_files > 4096) {
      throw std::invalid_argument("files must be in [0, 4096]");
    }
    if (options.cluster.fail_server >= 0 && n_files == 0) {
      throw std::invalid_argument(
          "fail-server needs a population run (files >= 1)");
    }

    std::vector<harness::LayoutScheme> schemes;
    for (const auto& token :
         split_commas(cfg.get_or("schemes", "64K,256K,harl"))) {
      schemes.push_back(parse_scheme(token));
    }
    if (cfg.get_int("adapt", 0) != 0) {
      bool present = false;
      for (const auto& s : schemes) {
        present |= s.kind == harness::SchemeKind::kHarlAdaptive;
      }
      if (!present) schemes.push_back(harness::LayoutScheme::harl_adaptive());
    }
    const std::string load_plan_path = cfg.get_or("load-plan", "");
    if (!load_plan_path.empty()) {
      schemes.push_back(harness::LayoutScheme::from_plan_file(load_plan_path));
    }

    if (n_files > 0) {
      // Namespace population mode: N files, T tenants, one shared cluster
      // per scheme.  save-plan/load-plan are single-file concepts.
      if (!cfg.get_or("save-plan", "").empty() || !load_plan_path.empty()) {
        throw std::invalid_argument(
            "save-plan/load-plan are single-file only (files=0)");
      }
      harness::PopulationSpec spec;
      spec.files = static_cast<std::size_t>(n_files);
      spec.tenants = static_cast<std::size_t>(cfg.get_int("tenants", 2));
      spec.tenant_theta = cfg.get_double("zipf-tenant-theta", 0.8);
      spec.processes = static_cast<std::size_t>(cfg.get_int("procs", 8));
      spec.file_size = cfg.get_size("file", 32 * MiB);
      spec.request_size = cfg.get_size("request", 256 * KiB);
      spec.seed = static_cast<std::uint64_t>(cfg.get_int("seed", 7));
      const auto population = harness::make_population(spec);

      harness::PopulationRunOptions popts;
      popts.replicate = cfg.get_int("replicas", 1) != 0;
      popts.rebuild_bandwidth =
          static_cast<double>(cfg.get_size("migrate-bw", 256 * MiB));

      harness::Experiment experiment(options);
      std::vector<harness::PopulationResult> pr(schemes.size());
      for (std::size_t i = 0; i < schemes.size(); ++i) {
        pr[i] =
            harness::run_population(experiment, population, schemes[i], popts);
      }

      for (std::size_t i = 0; i < schemes.size(); ++i) {
        const auto& r = pr[i];
        std::cout << "== " << schemes[i].label() << ": " << spec.files
                  << " file(s), " << spec.tenants << " tenant(s) ==\n";
        harness::Table table(
            {"file", "tenant", "layout", "regions", "MB/s", "epochs"});
        for (const auto& f : r.files) {
          table.add_row({
              f.name,
              std::to_string(f.tenant),
              f.layout_description,
              std::to_string(f.region_count),
              harness::cell(f.total.throughput() / (1024.0 * 1024.0), 1),
              std::to_string(f.adaptive_epochs),
          });
        }
        table.print(std::cout);
        std::cout << "aggregate "
                  << harness::cell(r.total.throughput() / (1024.0 * 1024.0), 1)
                  << " MB/s over "
                  << harness::cell(r.total.makespan, 4) << " s\n";
        if (options.cluster.fail_server >= 0) {
          std::cout << "failure: server " << options.cluster.fail_server
                    << " at " << harness::cell(options.cluster.fail_at, 4)
                    << " s — " << r.degraded_reads << " degraded read(s), "
                    << r.replica_writes << " replica write leg(s); rebuild "
                    << harness::cell(static_cast<double>(r.rebuilt_bytes) /
                                         (1024.0 * 1024.0),
                                     1)
                    << " MB in " << r.rebuild_chunks << " chunk(s), ";
          if (r.rebuild_done) {
            std::cout << "done at " << harness::cell(r.rebuild_finished_at, 4)
                      << " s";
          } else {
            std::cout << "still draining";
          }
          std::cout << "; adaptive replan="
                    << (r.degraded_replan ? "yes" : "no") << "\n";
        }
        if (!r.tenant_slo.empty()) {
          std::cout << "tenant SLO attainment:";
          for (std::size_t t = 0; t < r.tenant_slo.size(); ++t) {
            std::cout << " t" << t << "="
                      << harness::cell(100.0 * r.tenant_slo[t], 1) << "%";
          }
          std::cout << "\n";
        }
        if (r.cache.has_value()) {
          const auto& c = *r.cache;
          const double hit_rate =
              c.tier.lookups > 0 ? 100.0 * static_cast<double>(c.tier.hits) /
                                       static_cast<double>(c.tier.lookups)
                                 : 0.0;
          std::cout << "shared cache: " << c.tier.lookups << " lookup(s), "
                    << harness::cell(hit_rate, 1) << "% hit, "
                    << c.tier.evictions << " eviction(s), "
                    << c.tier.invalidations << " invalidation(s)\n";
        }
        if (i + 1 < schemes.size()) std::cout << "\n";
      }

      if (!trace_out.empty()) {
        std::ofstream out(trace_out);
        if (!out) throw std::runtime_error("cannot write " + trace_out);
        out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
        bool first = true;
        for (std::size_t i = 0; i < pr.size(); ++i) {
          if (pr[i].obs) {
            pr[i].obs->append_trace_events(out,
                                           static_cast<std::uint32_t>(i + 1),
                                           schemes[i].label(), first);
          }
        }
        out << "\n]}\n";
        std::cout << "wrote trace to " << trace_out << "\n";
      }

      if (!metrics_out.empty()) {
        std::ofstream out(metrics_out);
        if (!out) throw std::runtime_error("cannot write " + metrics_out);
        out << "{\n  \"schemes\": [";
        bool first = true;
        for (std::size_t i = 0; i < pr.size(); ++i) {
          const auto& r = pr[i];
          if (!r.obs) continue;
          if (!first) out << ",";
          first = false;
          out << "\n    {\"label\": ";
          write_json_escaped(out, schemes[i].label());
          out << ", \"makespan_s\": " << r.total.makespan
              << ", \"total_bytes\": " << r.total.bytes << ", \"files\": [";
          for (std::size_t f = 0; f < r.files.size(); ++f) {
            const auto& fr = r.files[f];
            if (f > 0) out << ", ";
            out << "{\"file\": " << fr.id << ", \"tenant\": " << fr.tenant
                << ", \"name\": ";
            write_json_escaped(out, fr.name);
            out << ", \"regions\": " << fr.region_count
                << ", \"makespan_s\": " << fr.total.makespan
                << ", \"bytes\": " << fr.total.bytes
                << ", \"epochs\": " << fr.adaptive_epochs << "}";
          }
          out << "]";
          if (options.cluster.fail_server >= 0) {
            out << ", \"failure\": {\"server\": "
                << options.cluster.fail_server
                << ", \"at_s\": " << options.cluster.fail_at
                << ", \"degraded_reads\": " << r.degraded_reads
                << ", \"replica_writes\": " << r.replica_writes
                << ", \"rebuilt_bytes\": " << r.rebuilt_bytes
                << ", \"rebuild_chunks\": " << r.rebuild_chunks
                << ", \"rebuild_interference_s\": " << r.rebuild_interference
                << ", \"rebuild_finished_s\": " << r.rebuild_finished_at
                << ", \"rebuild_done\": "
                << (r.rebuild_done ? "true" : "false")
                << ", \"degraded_replan\": "
                << (r.degraded_replan ? "true" : "false") << "}";
          }
          if (!r.tenant_slo.empty()) {
            out << ", \"tenant_slo\": [";
            for (std::size_t t = 0; t < r.tenant_slo.size(); ++t) {
              if (t > 0) out << ", ";
              out << r.tenant_slo[t];
            }
            out << "]";
          }
          out << ", \"report\": ";
          r.obs->write_metrics_json(out, 4);
          out << "}";
        }
        out << "\n  ]\n}\n";
        std::cout << "wrote metrics to " << metrics_out << "\n";
      }

      if (!timeseries_out.empty()) {
        std::ofstream out(timeseries_out);
        if (!out) throw std::runtime_error("cannot write " + timeseries_out);
        out << "{\n  \"schemes\": [";
        bool first = true;
        for (std::size_t i = 0; i < pr.size(); ++i) {
          if (!pr[i].health) continue;
          if (!first) out << ",";
          first = false;
          out << "\n    {\"label\": ";
          write_json_escaped(out, schemes[i].label());
          out << ",\n     \"timeseries\": ";
          pr[i].health->timeseries().write_json(out, 5);
          out << ",\n     \"health\": ";
          pr[i].health->write_json(out, 5);
          out << "}";
        }
        out << "\n  ]\n}\n";
        std::cout << "wrote timeseries to " << timeseries_out << "\n";
      }
      return 0;
    }

    harness::Experiment experiment(options);
    const auto bundle = make_bundle(cfg);
    const auto results = experiment.run_all(bundle, schemes);

    const std::string save_plan_path = cfg.get_or("save-plan", "");
    if (!save_plan_path.empty()) {
      const harness::SchemeResult* analyzed = nullptr;
      for (std::size_t i = 0; i < results.size(); ++i) {
        if (schemes[i].needs_analysis() && results[i].plan.has_value()) {
          analyzed = &results[i];
          break;
        }
      }
      if (analyzed == nullptr) {
        throw std::invalid_argument(
            "save-plan needs at least one analysis-based scheme (e.g. harl)");
      }
      core::save_plan(core::PlanArtifact::from_plan(*analyzed->plan),
                      save_plan_path);
      std::cout << "saved " << analyzed->label << " plan ("
                << analyzed->region_count << " region(s)) to "
                << save_plan_path << "\n";
    }

    if (!trace_out.empty()) {
      // One combined Chrome trace: each scheme's measured run is a process
      // (pid = scheme index + 1), each simulated resource a thread.
      std::ofstream out(trace_out);
      if (!out) throw std::runtime_error("cannot write " + trace_out);
      out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
      bool first = true;
      for (std::size_t i = 0; i < results.size(); ++i) {
        if (results[i].obs) {
          results[i].obs->append_trace_events(
              out, static_cast<std::uint32_t>(i + 1), results[i].label, first);
        }
      }
      out << "\n]}\n";
      std::cout << "wrote trace to " << trace_out << "\n";
    }

    if (!metrics_out.empty()) {
      std::ofstream out(metrics_out);
      if (!out) throw std::runtime_error("cannot write " + metrics_out);
      // Per-server device descriptors (canonical tier view); the devices
      // block is emitted only for heterogeneous fleets so homogeneous
      // metrics files stay byte-identical to the pre-device-model format.
      const auto device_tiers = options.cluster.effective_tiers();
      bool any_aged = false;
      for (const auto& t : device_tiers) any_aged |= !t.device_factors.empty();
      out << "{\n  \"schemes\": [";
      bool first = true;
      for (const auto& r : results) {
        if (!r.obs) continue;
        if (!first) out << ",";
        first = false;
        out << "\n    {\"label\": ";
        write_json_escaped(out, r.label);
        out << ", \"layout\": ";
        write_json_escaped(out, r.layout_description);
        out << ", \"regions\": " << r.region_count
            << ", \"makespan_s\": " << r.total.makespan
            << ", \"total_bytes\": " << r.total.bytes;
        if (any_aged) {
          out << ", \"devices\": [";
          std::size_t global = 0;
          bool dev_first = true;
          for (std::size_t ti = 0; ti < device_tiers.size(); ++ti) {
            const auto& t = device_tiers[ti];
            for (std::size_t i = 0; i < t.count; ++i, ++global) {
              if (!dev_first) out << ", ";
              dev_first = false;
              out << "{\"server\": " << global << ", \"tier\": " << ti
                  << ", \"name\": ";
              write_json_escaped(out, t.name + std::to_string(i));
              out << ", \"factor\": "
                  << (t.device_factors.empty() ? 1.0 : t.device_factors[i])
                  << ", \"busy_s\": "
                  << (global < r.server_io_time.size()
                          ? r.server_io_time[global]
                          : 0.0)
                  << "}";
            }
          }
          out << "]";
        }
        if (r.cache.has_value()) {
          // Read-cache counters (obs_report.py --check validates the
          // reconciliation: lookups == hits + misses, completed + discarded
          // fills == admissions).  Emitted only for cache-enabled runs so
          // cache-less metrics files stay byte-identical.
          const auto& c = *r.cache;
          out << ", \"cache\": {\"lookups\": " << c.tier.lookups
              << ", \"hits\": " << c.tier.hits
              << ", \"misses\": " << c.tier.misses
              << ", \"admissions\": " << c.tier.admissions
              << ", \"evictions\": " << c.tier.evictions
              << ", \"invalidations\": " << c.tier.invalidations
              << ", \"fills_completed\": " << c.tier.fills_completed
              << ", \"fills_discarded\": " << c.tier.fills_discarded
              << ", \"hit_bytes\": " << c.hit_read_bytes
              << ", \"miss_bytes\": " << c.miss_read_bytes
              << ", \"fill_bytes\": " << c.fill_bytes
              << ", \"active_devices\": " << c.active_devices
              << ", \"resplits\": " << c.resplits
              << ", \"clears\": " << c.clears << "}";
        }
        out << ", \"report\": ";
        r.obs->write_metrics_json(out, 4);
        out << "}";
      }
      out << "\n  ]\n}\n";
      std::cout << "wrote metrics to " << metrics_out << "\n";
    }

    if (!timeseries_out.empty()) {
      // Telemetry plane dump: per scheme, the columnar windowed time series
      // and the health monitor's summary (obs_report.py --timeseries /
      // --require-health validate both).
      std::ofstream out(timeseries_out);
      if (!out) throw std::runtime_error("cannot write " + timeseries_out);
      out << "{\n  \"schemes\": [";
      bool first = true;
      for (const auto& r : results) {
        if (!r.health) continue;
        if (!first) out << ",";
        first = false;
        out << "\n    {\"label\": ";
        write_json_escaped(out, r.label);
        out << ",\n     \"timeseries\": ";
        r.health->timeseries().write_json(out, 5);
        out << ",\n     \"health\": ";
        r.health->write_json(out, 5);
        out << "}";
      }
      out << "\n  ]\n}\n";
      std::cout << "wrote timeseries to " << timeseries_out << "\n";
    }

    harness::Table table({"layout", "read MB/s", "write MB/s", "total MB/s",
                          "regions", "detail"});
    for (const auto& r : results) {
      table.add_row({
          r.label,
          harness::cell(r.read.throughput() / (1024.0 * 1024.0), 1),
          harness::cell(r.write.throughput() / (1024.0 * 1024.0), 1),
          harness::cell(r.total.throughput() / (1024.0 * 1024.0), 1),
          std::to_string(r.region_count),
          r.layout_description,
      });
    }
    table.print(std::cout);

    bool any_adaptive = false;
    for (const auto& r : results) any_adaptive |= r.adaptive.has_value();
    if (any_adaptive) {
      // What the adaptive run(s) actually did: epoch swaps, deferred
      // recommendations, and the migration traffic the makespan paid for.
      std::cout << "\n== adaptive re-layout ==\n";
      harness::Table adaptive_table({"layout", "epochs", "windows", "recs",
                                     "deferred", "migrated MB",
                                     "interference s", "evals saved"});
      for (const auto& r : results) {
        if (!r.adaptive.has_value()) continue;
        const auto& a = *r.adaptive;
        adaptive_table.add_row({
            r.label,
            std::to_string(a.epochs_installed),
            std::to_string(a.windows_analyzed),
            std::to_string(a.recommendations),
            std::to_string(a.recommendations_deferred),
            harness::cell(static_cast<double>(a.migrated_bytes) /
                              (1024.0 * 1024.0),
                          1),
            harness::cell(a.migration_interference, 3),
            std::to_string(a.cost_evals_saved),
        });
      }
      adaptive_table.print(std::cout);
    }

    bool any_cache = false;
    for (const auto& r : results) any_cache |= r.cache.has_value();
    if (any_cache) {
      // What the read cache did per measured run: hit rate over chunk
      // lookups, promotion traffic, and the write-invalidate churn.
      std::cout << "\n== read cache ==\n";
      harness::Table cache_table({"layout", "devices", "lookups", "hit%",
                                  "fills", "discarded", "evicted", "inval",
                                  "fill MB", "resplits"});
      for (const auto& r : results) {
        if (!r.cache.has_value()) continue;
        const auto& c = *r.cache;
        const double hit_rate =
            c.tier.lookups > 0 ? 100.0 * static_cast<double>(c.tier.hits) /
                                     static_cast<double>(c.tier.lookups)
                               : 0.0;
        cache_table.add_row({
            r.label,
            std::to_string(c.active_devices),
            std::to_string(c.tier.lookups),
            harness::cell(hit_rate, 1),
            std::to_string(c.tier.fills_completed),
            std::to_string(c.tier.fills_discarded),
            std::to_string(c.tier.evictions),
            std::to_string(c.tier.invalidations),
            harness::cell(static_cast<double>(c.fill_bytes) /
                              (1024.0 * 1024.0),
                          1),
            std::to_string(c.resplits),
        });
      }
      cache_table.print(std::cout);
    }

    if (cfg.get_int("stats", 0) != 0) {
      // Engine counters of each scheme's measured run: how the event core
      // behaved (dispatch volume, queue shape, arena allocation behaviour).
      std::cout << "\n== event engine (measured runs) ==\n";
      harness::Table stats_table({"layout", "events", "peak queue", "now-lane",
                                  "ascending", "pool hit%", "chunks",
                                  "inline", "spilled"});
      for (const auto& r : results) {
        const auto& s = r.sim_stats;
        const std::uint64_t slots = s.pool_hits + s.pool_misses;
        const double hit_rate =
            slots > 0 ? 100.0 * static_cast<double>(s.pool_hits) /
                            static_cast<double>(slots)
                      : 0.0;
        stats_table.add_row({
            r.label,
            std::to_string(s.events_dispatched),
            std::to_string(s.peak_queue_depth),
            std::to_string(s.now_lane_events),
            std::to_string(s.ascending_events),
            harness::cell(hit_rate, 1),
            std::to_string(s.pool_chunks),
            std::to_string(s.inline_callbacks),
            std::to_string(s.heap_callbacks),
        });
      }
      stats_table.print(std::cout);
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "harl_sim: " << e.what() << "\n";
    return 1;
  }
}
