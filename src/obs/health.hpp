// Straggler/SLO health monitor (DESIGN.md §15).
//
// A HealthMonitor sits on the observer seat as a transparent obs::Sink
// forwarder (the AdaptiveLayoutManager pattern) in front of the recorder.
// It owns the run's TimeSeries: every server storage
// queue job (resource_event on a registered server-disk track) becomes a
// latency/busy/depth sample, and cache_event feeds the fleet hit-rate
// timeline.
//
// When a window closes (the monotone time watermark passes its end), each
// server with enough jobs is scored as
//     score = window mean latency / fleet median of window means,
// and a flag/recover hysteresis turns scores into discrete straggler state:
// `flag_windows` consecutive windows at score >= flag_threshold flag the
// server (health.straggler_flagged counter + a trace instant through the
// downstream sink); `recover_windows` consecutive windows at
// score <= recover_threshold clear it.  Idle windows leave streaks unchanged.
// An optional per-request SLO deadline is tracked at two levels: whole
// requests (latency <= slo, per op) and storage sub-requests (server-resident
// time <= slo, per server) — the per-server view is what localizes an SLO
// regression to an injected straggler.
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
#include "src/obs/inflight.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/sink.hpp"
#include "src/obs/timeseries.hpp"

namespace harl::obs {

class HealthMonitor final : public Sink {
 public:
  struct Options {
    Seconds interval = 1.0;         ///< scoring window width (sim seconds)
    std::size_t window_capacity = 4096;  ///< TimeSeries ring capacity
    Seconds slo = 0.0;              ///< request deadline; 0 disables SLO
    double flag_threshold = 2.0;    ///< score at/above => slow window
    double recover_threshold = 1.25;  ///< score at/below => healthy window
    std::size_t flag_windows = 2;   ///< consecutive slow windows to flag
    std::size_t recover_windows = 2;  ///< consecutive healthy to recover
    std::uint64_t min_window_jobs = 1;  ///< jobs needed to score a window
  };

  /// `downstream` (optional, not owned) receives every Sink call unchanged
  /// plus the health_event instants this monitor originates.
  explicit HealthMonitor(Options options, Sink* downstream = nullptr);

  /// Namespace tenant mapping: tenant_of[file] attributes whole-request SLO
  /// attainment to tenants (files beyond the vector, and the legacy kNoId
  /// path, stay unattributed — single-file output is unchanged).
  void set_tenant_of(std::vector<std::uint32_t> tenant_of) {
    tenant_of_ = std::move(tenant_of);
  }

  // --- obs::Sink: forward everything, harvest telemetry --------------------
  std::uint32_t track(std::string_view name, TrackKind kind,
                      std::uint32_t entity) override;
  std::uint32_t register_server(std::uint32_t server, std::uint32_t tier,
                                std::string_view name, bool is_ssd) override;
  std::uint32_t register_client(std::uint32_t client) override;
  void resource_event(std::uint32_t track, Seconds arrival, Seconds start,
                      Seconds finish) override;
  void server_access(std::uint32_t server, IoOp op, std::uint32_t region,
                     Bytes bytes, Bytes pieces, Seconds now) override;
  std::uint32_t begin_request(std::uint32_t client, IoOp op, Bytes offset,
                              Bytes size, Seconds now,
                              std::uint32_t file = kNoId) override;
  std::uint32_t begin_sub(std::uint32_t request, std::uint32_t server,
                          std::uint32_t region, Bytes bytes,
                          Seconds now) override;
  void sub_storage(std::uint32_t sub, Seconds arrival, Seconds start,
                   Seconds startup, Seconds service) override;
  void sub_net_done(std::uint32_t sub, Seconds now) override;
  void end_request(std::uint32_t request, Seconds now) override;
  void adaptive_event(AdaptiveEvent event, std::uint32_t epoch, Bytes bytes,
                      Seconds now) override;
  void cache_event(Bytes hit_bytes, Bytes miss_bytes, Seconds now) override;
  void health_event(HealthEvent event, std::uint32_t server, double score,
                    Seconds now) override;

  // --- results -------------------------------------------------------------

  /// Scores every window up to the newest one holding data (the run's tail
  /// windows never see their end pass otherwise).  Idempotent.
  void finalize();

  /// Latest slowness score of `server` (mean / fleet median); 0 before the
  /// server's first scored window.  The straggler scheduler's input.
  double server_score(std::uint32_t server) const;
  bool is_flagged(std::uint32_t server) const;

  /// Per-tenant whole-request SLO attainment in [0, 1]; 1.0 when the tenant
  /// completed no SLO-checked requests.  Requires an SLO and set_tenant_of.
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
  struct Track {
    std::uint32_t down = kNoId;    ///< downstream track id
    std::uint32_t server = kNoId;  ///< global server index (disk tracks)
    bool is_server_disk = false;
  };
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
    InflightJobs inflight;  ///< in-flight storage jobs (queue depth)
    // {server} handles, resolved on first use.
    Series slo_total_series, slo_met_series, score_series, flagged_series,
        recovered_series;
  };
  struct PendingReq {
    std::uint32_t down = kNoId;
    IoOp op = IoOp::kRead;
    std::uint32_t file = kNoId;
    Seconds issue = 0.0;
    bool live = false;
  };
  struct PendingSub {
    std::uint32_t down = kNoId;
    std::uint32_t server = kNoId;
    IoOp op = IoOp::kRead;
    bool live = false;
  };

  /// Advances the window watermark to `t`'s window, scoring every window
  /// that closed.  Every sink call's earliest timestamp is nondecreasing in
  /// dispatch/replay order (events are emitted at sim.now()), so a closed
  /// window can never receive data afterwards.
  void advance(Seconds t);
  void score_window(std::int64_t w);
  void free_sub(std::uint32_t sub);
  /// State of `server`, marked present (grows the table on first use).
  ServerState& server_state(std::uint32_t server);

  Options options_;
  Sink* downstream_;
  TimeSeries ts_;

  std::vector<Track> tracks_;
  std::vector<ServerState> servers_;

  std::vector<PendingReq> reqs_;
  std::vector<std::uint32_t> req_free_;
  std::vector<PendingSub> subs_;
  std::vector<std::uint32_t> sub_free_;

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
  std::vector<std::uint32_t> tenant_of_;  // by FileId; empty = no tenants

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
