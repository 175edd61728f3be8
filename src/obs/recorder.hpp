// Flight recorder: the standard observability sink.
//
// Combines three instruments over one simulated run:
//   * a MetricsRegistry (counters/gauges/log-histograms keyed by interned
//     labels) fed by the server/client hooks;
//   * a span-based trace in *simulated* time — one track per server disk,
//     server NIC, client NIC and client — exported as Chrome trace-event /
//     Perfetto-compatible JSON ("X" spans for FIFO service, async "b"/"e"
//     spans for queue waits so concurrent waiters never break nesting,
//     instant events for region-boundary crossings).  A ring-buffer mode
//     (Options::max_trace_events) keeps long runs bounded: the newest events
//     win and the drop count is reported;
//   * per-request attribution that measures the paper's Section III-D
//     decomposition — network transfer T_X, startup T_S, storage transfer
//     T_T — per sub-request, and reconciles each completed request against a
//     caller-supplied cost-model predictor (model-error histogram per
//     region, the distribution behind bench_micro_model_accuracy's number).
//
// Per-track utilization and queue-depth timelines use self-scaling buckets:
// a fixed bucket count whose width doubles (adjacent buckets coalescing) as
// simulated time grows, so memory stays bounded without choosing a horizon
// up front.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "src/obs/inflight.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/sink.hpp"

namespace harl::obs {

/// Additive or max-sampled time series with a bounded bucket count: when an
/// event lands past the last bucket, adjacent buckets coalesce (width
/// doubles) until it fits.
class Timeline {
 public:
  Timeline(Seconds initial_width, std::size_t max_buckets, bool take_max);

  /// Adds the overlap of [t0, t1) to every bucket it crosses (additive
  /// mode: busy-seconds accumulation).
  void add_span(Seconds t0, Seconds t1);
  /// Raises the bucket containing `t` to at least `v` (max mode).
  void sample_max(Seconds t, double v);

  Seconds bucket_width() const { return width_; }
  const std::vector<double>& values() const { return values_; }

 private:
  void fit(Seconds t) {
    if (t >= width_ * static_cast<double>(max_buckets_)) coalesce(t);
  }
  void coalesce(Seconds t);

  Seconds width_;
  std::size_t max_buckets_;
  bool take_max_;
  std::vector<double> values_;
};

class Recorder final : public Sink {
 public:
  struct Options {
    /// Record span/instant trace events (metrics are always collected).
    bool trace = true;
    /// Ring-buffer capacity for trace events; 0 = unbounded.
    std::size_t max_trace_events = 0;
    /// Completed request samples kept for inspection (ring; attribution
    /// histograms see every request regardless).
    std::size_t max_request_samples = 16384;
    /// Buckets per utilization/queue-depth timeline (width self-scales).
    std::size_t timeline_buckets = 256;
    Seconds timeline_initial_width = 1e-3;
  };

  Recorder();
  explicit Recorder(Options options);

  // --- Sink ---------------------------------------------------------------
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
  void health_event(HealthEvent event, std::uint32_t server, double score,
                    Seconds now) override;

  // --- attribution --------------------------------------------------------

  /// Cost-model prediction hook: given (op, offset, size) returns the
  /// analytic request cost.  When set, every completed request records its
  /// relative model error into the per-region "model.rel_error" histogram.
  using Predictor = std::function<Seconds(IoOp, Bytes, Bytes)>;
  void set_predictor(Predictor predictor) { predictor_ = std::move(predictor); }

  /// Namespace tenant mapping: tenant_of[file] labels per-file series with
  /// their tenant.  Files beyond the vector (and the legacy kNoId path) get
  /// no tenant label.
  void set_tenant_of(std::vector<std::uint32_t> tenant_of) {
    tenant_of_ = std::move(tenant_of);
    file_series_.clear();  // labels carry the tenant: rebuild lazily
  }

  /// Measured decomposition of one sub-request (all in simulated seconds).
  struct SubSample {
    std::uint32_t server = 0;
    std::uint32_t tier = 0;
    std::uint32_t region = 0;
    Bytes bytes = 0;
    Seconds issue = 0.0;  ///< client issued the sub-request
    Seconds wait = 0.0;   ///< storage queue wait
    Seconds t_s = 0.0;    ///< measured startup (paper T_S)
    Seconds t_t = 0.0;    ///< measured storage transfer incl. per-stripe cost
    Seconds t_x = 0.0;    ///< measured network transfer (paper T_X)
    Seconds done = 0.0;   ///< sub-request completion time
  };

  struct RequestSample {
    std::uint32_t client = 0;
    IoOp op = IoOp::kRead;
    Bytes offset = 0;
    Bytes size = 0;
    std::uint32_t region = 0;     ///< region of the first sub-request
    std::uint32_t file = kNoId;   ///< namespace FileId (kNoId = single-file)
    Seconds issue = 0.0;
    Seconds done = 0.0;
    Seconds predicted = -1.0;     ///< model cost; < 0 when no predictor set
    std::vector<SubSample> subs;  ///< completion order

    Seconds latency() const { return done - issue; }
  };

  /// Completed requests, oldest first (bounded by max_request_samples).
  const std::vector<RequestSample>& requests() const { return samples_; }
  std::uint64_t requests_completed() const { return requests_completed_; }

  // --- summaries ----------------------------------------------------------

  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }

  struct ResourceSummary {
    std::string name;
    TrackKind kind = TrackKind::kOther;
    std::uint32_t entity = kNoId;  ///< server/client index within the kind
    std::uint32_t tier = kNoId;
    bool is_ssd = false;
    Seconds busy = 0.0;
    Seconds queue_delay = 0.0;
    std::uint64_t jobs = 0;
    std::uint64_t depth_max = 0;
    const LogHistogram* wait = nullptr;     ///< per-job queue wait
    const LogHistogram* service = nullptr;  ///< per-job service time
    const Timeline* busy_timeline = nullptr;
    const Timeline* depth_timeline = nullptr;
  };
  /// One summary per registered track, in track order.
  std::vector<ResourceSummary> resource_summaries() const;

  /// Latest simulated timestamp seen by any hook (the observed horizon).
  Seconds last_time() const { return last_time_; }
  std::uint64_t trace_events_recorded() const { return events_recorded_; }
  std::uint64_t trace_events_dropped() const { return events_dropped_; }

  // --- export -------------------------------------------------------------

  /// Complete Chrome trace-event JSON object for this recorder alone.
  void write_trace_json(std::ostream& out,
                        std::string_view process_name = "harl") const;

  /// Appends this recorder's trace events (plus its process/thread metadata)
  /// to an already-open traceEvents array; `first` tracks comma placement
  /// across recorders so several runs can share one file, one pid each.
  void append_trace_events(std::ostream& out, std::uint32_t pid,
                           std::string_view process_name, bool& first) const;

  /// Structured metrics JSON for this run: per-resource summaries with
  /// utilization/queue-depth timelines, request attribution histograms and
  /// the raw registry dump.  `indent` is the base indentation.
  void write_metrics_json(std::ostream& out, int indent = 0) const;

 private:
  // Trace event storage: one compact POD per logical span/instant; async
  // begin/end pairs are expanded at export time.
  enum class EventType : std::uint8_t { kService, kWait, kInstant, kRequest };
  struct TraceEvent {
    Seconds ts = 0.0;
    Seconds dur = 0.0;
    std::uint32_t track = 0;
    EventType type = EventType::kService;
    std::uint8_t op = 0xFF;
    std::uint64_t id = 0;   ///< async-pair id
    std::uint64_t arg = 0;  ///< region / bytes
  };

  struct TrackState {
    std::string name;
    TrackKind kind = TrackKind::kOther;
    std::uint32_t entity = kNoId;
    std::uint32_t tier = kNoId;
    bool is_ssd = false;
    /// MDS queue track: resource events additionally feed the
    /// "pfs.mds.time" resident-time sketch (satellite: open-storm
    /// contention must be visible next to the pfs.server.time sketches).
    bool is_mds = false;
    Seconds busy = 0.0;
    Seconds queue_delay = 0.0;
    std::uint64_t jobs = 0;
    std::uint64_t depth_max = 0;
    LogHistogram wait;
    LogHistogram service;
    Timeline busy_timeline;
    Timeline depth_timeline;
    /// Outstanding jobs: exact in-flight count at each arrival.
    InflightJobs inflight;

    TrackState(std::string name_, TrackKind kind_, std::uint32_t entity_,
               const Options& opts);
  };

  struct ActiveSub {
    std::uint32_t request = kNoId;
    std::uint32_t server = 0;
    std::uint32_t region = 0;
    Bytes bytes = 0;
    Seconds issue = 0.0;
    Seconds arrival = -1.0;
    Seconds start = -1.0;
    Seconds startup = 0.0;
    Seconds service = 0.0;
  };

  struct ActiveRequest {
    std::uint32_t client = 0;
    IoOp op = IoOp::kRead;
    Bytes offset = 0;
    Bytes size = 0;
    std::uint32_t region = kNoId;
    std::uint32_t file = kNoId;
    Seconds issue = 0.0;
    std::vector<SubSample> subs;
  };

  // Hot-path metric handles (DESIGN.md §15: no hash or tree lookup per
  // job), indexed by op (0 read, 1 write) where the labels carry one.
  using Series = MetricsRegistry::Series;

  struct ServerMeta {
    std::uint32_t track = kNoId;
    std::uint32_t tier = kNoId;
    std::uint32_t last_region = kNoId;
    bool is_ssd = false;
    // {server, tier, op}
    Series accesses[2], bytes[2], pieces[2], server_time[2];
    Series region_switches;  // {server, tier}
  };
  struct TierSeries {  // {tier, op}: shared by every server of the tier
    Series wait[2], t_s[2], t_t[2], t_x[2];
  };
  struct FileSeries {  // {file, tenant, op}
    Series bytes[2], latency[2];
  };

  void push_event(const TraceEvent& event);
  void note_time(Seconds t) { last_time_ = std::max(last_time_, t); }
  void finalize_sub(std::uint32_t sub, Seconds t_x, Seconds done);
  ServerMeta make_server_meta(std::uint32_t server, std::uint32_t track,
                              std::uint32_t tier, bool is_ssd) const;
  /// Metadata of `server`, created unregistered (tier kNoId) on first use.
  ServerMeta& server_meta(std::uint32_t server);
  TierSeries& tier_series(std::uint32_t tier);
  FileSeries& file_series(std::uint32_t file);
  Series& rel_error_series(std::uint32_t region, IoOp op);

  Options options_;
  MetricsRegistry metrics_;
  Predictor predictor_;

  std::vector<TrackState> tracks_;
  std::vector<ServerMeta> servers_;        // by global server index
  std::vector<std::uint32_t> client_tracks_;  // by client index
  std::uint32_t adaptive_track_ = kNoId;   // lazily created on first event
  std::uint32_t health_track_ = kNoId;     // lazily created on first event

  std::vector<TraceEvent> events_;  // ring when max_trace_events > 0
  std::size_t ring_next_ = 0;
  std::uint64_t events_recorded_ = 0;
  std::uint64_t events_dropped_ = 0;
  std::uint64_t next_async_id_ = 0;

  std::vector<ActiveRequest> req_slots_;
  std::vector<std::uint32_t> req_free_;
  std::vector<ActiveSub> sub_slots_;
  std::vector<std::uint32_t> sub_free_;

  std::vector<RequestSample> samples_;
  std::size_t samples_next_ = 0;
  std::uint64_t requests_completed_ = 0;

  Seconds last_time_ = 0.0;

  // Pre-registered metric families (hot-path observations index these).
  MetricsRegistry::FamilyId m_bytes_;
  MetricsRegistry::FamilyId m_accesses_;
  MetricsRegistry::FamilyId m_pieces_;
  MetricsRegistry::FamilyId m_region_switches_;
  MetricsRegistry::FamilyId m_latency_;
  MetricsRegistry::FamilyId m_wait_;
  MetricsRegistry::FamilyId m_ts_;
  MetricsRegistry::FamilyId m_tt_;
  MetricsRegistry::FamilyId m_tx_;
  MetricsRegistry::FamilyId m_rel_error_;
  MetricsRegistry::FamilyId m_server_time_;
  MetricsRegistry::FamilyId m_mds_time_;
  MetricsRegistry::FamilyId m_file_bytes_;
  MetricsRegistry::FamilyId m_file_latency_;

  Series latency_[2];                          // {op}
  Series mds_time_;                            // {}
  std::vector<TierSeries> tier_series_;        // by tier + 1 (0: none)
  std::vector<FileSeries> file_series_;        // by FileId
  std::vector<std::array<Series, 2>> rel_error_;  // by region + 1 (0: none)

  std::vector<std::uint32_t> tenant_of_;  // by FileId; empty = no tenants
};

}  // namespace harl::obs
