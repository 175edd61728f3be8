// Straggler/SLO health monitor (DESIGN.md §15).
//
// A HealthMonitor is a plain component driven by the flight recorder it is
// attached to (Recorder::set_health): the recorder's hooks hand it the data
// they already hold.  It owns the run's TimeSeries: every job on a
// registered server's storage queue becomes a latency/busy/depth sample
// (depth from the recorder's per-track in-flight set), and cache outcomes
// feed the fleet hit-rate timeline.
//
// When a window closes (the monotone time watermark passes its end), each
// server with enough jobs is scored as
//     score = window mean latency / fleet median of window means,
// and a flag/recover hysteresis turns scores into discrete straggler state:
// `flag_windows` consecutive windows at score >= flag_threshold flag the
// server (health.straggler_flagged counter + a trace instant on the
// recorder); `recover_windows` consecutive windows at
// score <= recover_threshold clear it.  Idle windows leave streaks unchanged.
// An optional per-request SLO deadline is tracked at two levels: whole
// requests (latency <= slo, per op and per tenant) and storage sub-requests
// (server-resident time <= slo, per server) — the per-server view is what
// localizes an SLO regression to an injected straggler.
//
// All counters/gauges live in the monitor's own MetricsRegistry and merge
// order-independently into the run recorder's registry afterwards.  The
// future straggler-aware scheduler consumes `server_score()` /
// `is_flagged()` mid-run.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "src/common/io.hpp"
#include "src/common/units.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/timeseries.hpp"

namespace harl::obs {

class Recorder;

class HealthMonitor {
 public:
  struct Options {
    Seconds interval = 0.0;         ///< scoring window width; 0 = off
    std::size_t window_capacity = 4096;  ///< TimeSeries ring capacity
    Seconds slo = 0.0;              ///< request deadline; 0 disables SLO
    double flag_threshold = 2.0;    ///< score at/above => slow window
    double recover_threshold = 1.25;  ///< score at/below => healthy window
    std::size_t flag_windows = 2;   ///< consecutive slow windows to flag
    std::size_t recover_windows = 2;  ///< consecutive healthy to recover
    std::uint64_t min_window_jobs = 1;  ///< jobs needed to score a window

    bool enabled() const { return interval > 0.0; }
  };

  /// Throws std::invalid_argument unless options.enabled().  Feed it by
  /// attaching it to a recorder (Recorder::set_health) before the Cluster
  /// registers its servers.
  explicit HealthMonitor(Options options);

  // --- results -------------------------------------------------------------

  /// Scores every window up to the newest one holding data (the run's tail
  /// windows never see their end pass otherwise).  Idempotent.
  void finalize();

  /// Latest slowness score of `server` (mean / fleet median); 0 before the
  /// server's first scored window.  The straggler scheduler's input.
  double server_score(std::uint32_t server) const;
  bool is_flagged(std::uint32_t server) const;

  /// Per-tenant whole-request SLO attainment in [0, 1]; 1.0 when the tenant
  /// completed no SLO-checked requests.  Requires an SLO and the recorder's
  /// tenant mapping (Recorder::set_tenant_of).
  double tenant_slo_attainment(std::uint32_t tenant) const;

  const TimeSeries& timeseries() const { return ts_; }
  const Options& options() const { return options_; }

  /// health.* metric families; merge into the run recorder's registry after
  /// the run, e.g. recorder.metrics().merge(monitor.metrics()).
  const MetricsRegistry& metrics() const { return metrics_; }

  /// Deterministic per-server health summary JSON: final score, flagged
  /// state, flag/recover counts and SLO attainment (per server + per op).
  void write_json(std::ostream& out, int indent = 0) const;

 private:
  // The feed: called only by the attached Recorder, from its own hooks.
  friend class Recorder;

  /// Advances the window watermark to `t`'s window, scoring every window
  /// that closed (straggler instants go to the recorder).  Every hook's
  /// earliest timestamp is nondecreasing in dispatch order (events are
  /// emitted at sim.now()), so a closed window can never receive data
  /// afterwards.
  void advance(Seconds t);
  /// A registered server: it reports even if it never sees a job.
  void add_server(std::uint32_t server);
  /// One job on `server`'s storage queue; `depth` counts it in flight.
  void server_job(std::uint32_t server, Seconds arrival, Seconds start,
                  Seconds finish, std::uint64_t depth);
  /// A storage sub-request's server-resident time (queue wait + service).
  void sub_resident(std::uint32_t server, Seconds resident);
  /// A completed request; `tenant` is kNoId when unattributed.
  void request_done(IoOp op, std::uint32_t tenant, Seconds latency);
  void cache(Bytes hit_bytes, Bytes miss_bytes, Seconds now) {
    ts_.record_cache(hit_bytes, miss_bytes, now);
  }

  using Series = MetricsRegistry::Series;

  /// Per-server state, indexed by global server id.  `present` marks the
  /// servers the JSON reports: registered ones plus any that reached the
  /// SLO or scoring paths.
  struct ServerState {
    bool present = false;
    double score = 0.0;
    bool scored = false;
    bool flagged = false;
    std::uint32_t flag_streak = 0;
    std::uint32_t recover_streak = 0;
    std::uint64_t flag_count = 0;
    std::uint64_t recover_count = 0;
    std::uint64_t slo_total = 0;  ///< storage subs checked against the SLO
    std::uint64_t slo_met = 0;
    // {server} handles, resolved on first use.
    Series slo_total_series, slo_met_series, score_series, flagged_series,
        recovered_series;
  };

  void score_window(std::int64_t w);
  /// State of `server`, marked present (grows the table on first use).
  ServerState& server_state(std::uint32_t server);

  Options options_;
  Recorder* recorder_ = nullptr;  ///< set by Recorder::set_health
  TimeSeries ts_;

  std::vector<ServerState> servers_;

  bool started_ = false;
  bool finalized_ = false;
  std::int64_t next_to_score_ = 0;

  /// Whole-request SLO attainment, indexed by op (0 read, 1 write).
  std::uint64_t req_total_[2] = {0, 0};
  std::uint64_t req_met_[2] = {0, 0};

  /// Per-tenant whole-request SLO attainment (namespace runs only), by
  /// tenant id; tenants with total == 0 completed no checked request.
  struct TenantSlo {
    std::uint64_t total = 0;
    std::uint64_t met = 0;
    Series total_series, met_series;  // {tenant}
  };
  std::vector<TenantSlo> tenant_slo_;

  MetricsRegistry metrics_;
  MetricsRegistry::FamilyId m_windows_scored_;
  MetricsRegistry::FamilyId m_flagged_;
  MetricsRegistry::FamilyId m_recovered_;
  MetricsRegistry::FamilyId m_score_;
  MetricsRegistry::FamilyId m_slo_req_total_;
  MetricsRegistry::FamilyId m_slo_req_met_;
  MetricsRegistry::FamilyId m_slo_sub_total_;
  MetricsRegistry::FamilyId m_slo_sub_met_;
  MetricsRegistry::FamilyId m_slo_tenant_total_;
  MetricsRegistry::FamilyId m_slo_tenant_met_;
  Series windows_scored_;                       // {}
  Series slo_req_total_[2], slo_req_met_[2];    // {op}, by op
};

}  // namespace harl::obs
