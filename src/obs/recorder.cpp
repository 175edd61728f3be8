#include "src/obs/recorder.hpp"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <stdexcept>

#include "src/obs/json_text.hpp"

namespace harl::obs {

namespace {

std::size_t op_index(IoOp op) { return op == IoOp::kRead ? 0 : 1; }

/// Health scores travel as micro-units in a trace event's integer slot.  A
/// score is a ratio of means and reaches inf when the fleet median is
/// denormal; the conversion saturates instead of overflowing (NaN -> 0).
std::uint64_t score_micros(double score) {
  const double v = score * 1e6;
  if (!(v > 0.0)) return 0;
  if (v >= 18446744073709551616.0) return ~std::uint64_t{0};  // 2^64
  return static_cast<std::uint64_t>(v);
}

double to_us(Seconds t) { return t * 1e6; }

const char* kind_name(TrackKind k) {
  switch (k) {
    case TrackKind::kServerDisk: return "server_disk";
    case TrackKind::kServerNic: return "server_nic";
    case TrackKind::kClientNic: return "client_nic";
    case TrackKind::kClient: return "client";
    case TrackKind::kOther: return "other";
  }
  return "other";
}

}  // namespace

// --- Timeline ---------------------------------------------------------------

Timeline::Timeline(Seconds initial_width, std::size_t max_buckets,
                   bool take_max)
    : width_(initial_width), max_buckets_(max_buckets), take_max_(take_max) {
  if (!(initial_width > 0.0) || max_buckets < 2) {
    throw std::invalid_argument("Timeline requires width > 0 and >= 2 buckets");
  }
}

void Timeline::coalesce(Seconds t) {
  while (t >= width_ * static_cast<double>(max_buckets_)) {
    // Coalesce adjacent pairs; the bucket width doubles.
    const std::size_t half = (values_.size() + 1) / 2;
    for (std::size_t i = 0; i < half; ++i) {
      const double a = values_[2 * i];
      const double b = 2 * i + 1 < values_.size() ? values_[2 * i + 1] : 0.0;
      values_[i] = take_max_ ? std::max(a, b) : a + b;
    }
    values_.resize(half);
    width_ *= 2.0;
  }
}

void Timeline::add_span(Seconds t0, Seconds t1) {
  if (!(t1 > t0)) return;
  fit(t1);
  auto first = static_cast<std::size_t>(t0 / width_);
  auto last = static_cast<std::size_t>(t1 / width_);
  last = std::min(last, max_buckets_ - 1);
  if (last >= values_.size()) values_.resize(last + 1, 0.0);
  for (std::size_t i = first; i <= last; ++i) {
    const Seconds lo = std::max(t0, width_ * static_cast<double>(i));
    const Seconds hi = std::min(t1, width_ * static_cast<double>(i + 1));
    if (hi > lo) values_[i] += hi - lo;
  }
}

void Timeline::sample_max(Seconds t, double v) {
  if (t < 0.0) return;
  fit(t);
  auto idx = static_cast<std::size_t>(t / width_);
  idx = std::min(idx, max_buckets_ - 1);
  if (idx >= values_.size()) values_.resize(idx + 1, 0.0);
  values_[idx] = std::max(values_[idx], v);
}

// --- Recorder ---------------------------------------------------------------

Recorder::TrackState::TrackState(std::string name_, TrackKind kind_,
                                 std::uint32_t entity_, const Options& opts)
    : name(std::move(name_)),
      kind(kind_),
      entity(entity_),
      busy_timeline(opts.timeline_initial_width, opts.timeline_buckets, false),
      depth_timeline(opts.timeline_initial_width, opts.timeline_buckets, true) {}

Recorder::Recorder() : Recorder(Options{}) {}

Recorder::Recorder(Options options) : options_(options) {
  using Kind = MetricsRegistry::Kind;
  m_bytes_ = metrics_.family("pfs.server.bytes", Kind::kCounter);
  m_accesses_ = metrics_.family("pfs.server.accesses", Kind::kCounter);
  m_pieces_ = metrics_.family("pfs.server.pieces", Kind::kCounter);
  m_region_switches_ =
      metrics_.family("pfs.server.region_switches", Kind::kCounter);
  m_latency_ = metrics_.family("client.request.latency", Kind::kHistogram);
  m_wait_ = metrics_.family("request.queue_wait", Kind::kHistogram);
  m_ts_ = metrics_.family("request.t_s", Kind::kHistogram);
  m_tt_ = metrics_.family("request.t_t", Kind::kHistogram);
  m_tx_ = metrics_.family("request.t_x", Kind::kHistogram);
  m_rel_error_ = metrics_.family("model.rel_error", Kind::kHistogram);
  m_server_time_ = metrics_.family("pfs.server.time", Kind::kSketch);
  m_mds_time_ = metrics_.family("pfs.mds.time", Kind::kSketch);
  m_file_bytes_ = metrics_.family("pfs.file.bytes", Kind::kCounter);
  m_file_latency_ = metrics_.family("pfs.file.latency", Kind::kHistogram);
  for (const IoOp op : {IoOp::kRead, IoOp::kWrite}) {
    latency_[op_index(op)] = Series{m_latency_, LabelSet{}.op(op)};
  }
  mds_time_ = Series{m_mds_time_, LabelSet{}};
  if (options_.max_trace_events > 0) {
    events_.reserve(options_.max_trace_events);
  }
}

std::uint32_t Recorder::track(std::string_view name, TrackKind kind,
                              std::uint32_t entity) {
  const auto id = static_cast<std::uint32_t>(tracks_.size());
  tracks_.emplace_back(std::string(name), kind, entity, options_);
  tracks_.back().is_mds = kind == TrackKind::kOther && name == "mds";
  return id;
}

std::uint32_t Recorder::register_server(std::uint32_t server,
                                        std::uint32_t tier,
                                        std::string_view name, bool is_ssd) {
  const std::uint32_t id = track(name, TrackKind::kServerDisk, server);
  tracks_[id].tier = tier;
  tracks_[id].is_ssd = is_ssd;
  server_meta(server) = make_server_meta(server, id, tier, is_ssd);
  return id;
}

Recorder::ServerMeta Recorder::make_server_meta(std::uint32_t server,
                                                std::uint32_t track,
                                                std::uint32_t tier,
                                                bool is_ssd) const {
  ServerMeta m;
  m.track = track;
  m.tier = tier;
  m.is_ssd = is_ssd;
  m.region_switches =
      Series{m_region_switches_, LabelSet{}.server(server).tier(tier)};
  for (const IoOp op : {IoOp::kRead, IoOp::kWrite}) {
    const std::size_t o = op_index(op);
    const LabelSet sto = LabelSet{}.server(server).tier(tier).op(op);
    m.accesses[o] = Series{m_accesses_, sto};
    m.bytes[o] = Series{m_bytes_, sto};
    m.pieces[o] = Series{m_pieces_, sto};
    m.server_time[o] = Series{m_server_time_, sto};
  }
  return m;
}

Recorder::ServerMeta& Recorder::server_meta(std::uint32_t server) {
  while (servers_.size() <= server) {
    servers_.push_back(make_server_meta(
        static_cast<std::uint32_t>(servers_.size()), kNoId, kNoId, false));
  }
  return servers_[server];
}

Recorder::TierSeries& Recorder::tier_series(std::uint32_t tier) {
  const std::size_t slot = tier == kNoId ? 0 : std::size_t{tier} + 1;
  while (tier_series_.size() <= slot) {
    const std::size_t k = tier_series_.size();
    const std::uint32_t t =
        k == 0 ? kNoId : static_cast<std::uint32_t>(k - 1);
    TierSeries ts;
    for (const IoOp op : {IoOp::kRead, IoOp::kWrite}) {
      const std::size_t o = op_index(op);
      const LabelSet to = LabelSet{}.tier(t).op(op);
      ts.wait[o] = Series{m_wait_, to};
      ts.t_s[o] = Series{m_ts_, to};
      ts.t_t[o] = Series{m_tt_, to};
      ts.t_x[o] = Series{m_tx_, to};
    }
    tier_series_.push_back(ts);
  }
  return tier_series_[slot];
}

Recorder::FileSeries& Recorder::file_series(std::uint32_t file) {
  while (file_series_.size() <= file) {
    const auto f = static_cast<std::uint32_t>(file_series_.size());
    LabelSet fl = LabelSet{}.file(f);
    if (f < tenant_of_.size()) fl.tenant(tenant_of_[f]);
    FileSeries fs;
    for (const IoOp op : {IoOp::kRead, IoOp::kWrite}) {
      fs.bytes[op_index(op)] = Series{m_file_bytes_, LabelSet{fl}.op(op)};
      fs.latency[op_index(op)] = Series{m_file_latency_, LabelSet{fl}.op(op)};
    }
    file_series_.push_back(fs);
  }
  return file_series_[file];
}

Recorder::Series& Recorder::rel_error_series(std::uint32_t region, IoOp op) {
  const std::size_t slot = region == kNoId ? 0 : std::size_t{region} + 1;
  while (rel_error_.size() <= slot) {
    const std::size_t k = rel_error_.size();
    const LabelSet rl =
        k == 0 ? LabelSet{}.region(kNoId)
               : LabelSet{}.region(static_cast<std::uint32_t>(k - 1));
    rel_error_.push_back({Series{m_rel_error_, LabelSet{rl}.op(IoOp::kRead)},
                          Series{m_rel_error_, LabelSet{rl}.op(IoOp::kWrite)}});
  }
  return rel_error_[slot][op_index(op)];
}

std::uint32_t Recorder::register_client(std::uint32_t client) {
  const std::uint32_t id =
      track("client " + std::to_string(client), TrackKind::kClient, client);
  if (client >= client_tracks_.size()) {
    client_tracks_.resize(client + 1, kNoId);
  }
  client_tracks_[client] = id;
  return id;
}

void Recorder::push_event(const TraceEvent& event) {
  ++events_recorded_;
  if (options_.max_trace_events == 0) {
    events_.push_back(event);
    return;
  }
  if (events_.size() < options_.max_trace_events) {
    events_.push_back(event);
    return;
  }
  events_[ring_next_] = event;
  ring_next_ = (ring_next_ + 1) % events_.size();
  ++events_dropped_;
}

void Recorder::resource_event(std::uint32_t track, Seconds arrival,
                              Seconds start, Seconds finish) {
  if (track >= tracks_.size()) return;
  TrackState& t = tracks_[track];
  note_time(finish);
  const Seconds wait = start - arrival;
  const Seconds service = finish - start;
  ++t.jobs;
  t.busy += service;
  t.queue_delay += wait;
  t.wait.add(wait);
  t.service.add(service);
  t.busy_timeline.add_span(start, finish);
  // Per-track arrivals are monotone (instrumentation fires at submission in
  // event order), so popping finished jobs gives the exact in-flight count.
  const auto depth =
      static_cast<std::uint64_t>(t.inflight.admit(arrival, finish));
  t.depth_max = std::max(t.depth_max, depth);
  t.depth_timeline.sample_max(arrival, static_cast<double>(depth));
  if (t.is_mds) {
    // MDS resident time (queue wait + lookup service): contention across
    // colliding opens shows up in this sketch's tail exactly as the
    // per-server pfs.server.time sketches expose storage stragglers.
    metrics_.observe(mds_time_, finish - arrival);
  }
  if (options_.trace) {
    push_event(TraceEvent{start, service, track, EventType::kService, 0xFF,
                          0, 0});
    if (wait > 0.0) {
      push_event(TraceEvent{arrival, wait, track, EventType::kWait, 0xFF,
                            next_async_id_++, 0});
    }
  }
}

void Recorder::server_access(std::uint32_t server, IoOp op,
                             std::uint32_t region, Bytes bytes, Bytes pieces,
                             Seconds now) {
  note_time(now);
  ServerMeta& meta = server_meta(server);
  const std::size_t o = op_index(op);
  metrics_.add(meta.accesses[o], 1.0);
  metrics_.add(meta.bytes[o], static_cast<double>(bytes));
  metrics_.add(meta.pieces[o], static_cast<double>(pieces));
  if (meta.last_region != region) {
    if (meta.last_region != kNoId) {
      metrics_.add(meta.region_switches, 1.0);
      if (options_.trace && meta.track != kNoId) {
        push_event(TraceEvent{now, 0.0, meta.track, EventType::kInstant, 0xFF,
                              0, region});
      }
    }
    meta.last_region = region;
  }
}

std::uint32_t Recorder::begin_request(std::uint32_t client, IoOp op,
                                      Bytes offset, Bytes size, Seconds now,
                                      std::uint32_t file) {
  note_time(now);
  std::uint32_t id;
  if (!req_free_.empty()) {
    id = req_free_.back();
    req_free_.pop_back();
  } else {
    id = static_cast<std::uint32_t>(req_slots_.size());
    req_slots_.emplace_back();
  }
  ActiveRequest& r = req_slots_[id];
  r.client = client;
  r.op = op;
  r.offset = offset;
  r.size = size;
  r.region = kNoId;
  r.file = file;
  r.issue = now;
  r.subs.clear();  // the slot's vector stays warm across requests
  return id;
}

std::uint32_t Recorder::begin_sub(std::uint32_t request, std::uint32_t server,
                                  std::uint32_t region, Bytes bytes,
                                  Seconds now) {
  note_time(now);
  if (request >= req_slots_.size()) return kNoId;
  ActiveRequest& r = req_slots_[request];
  if (r.region == kNoId) r.region = region;
  std::uint32_t id;
  if (!sub_free_.empty()) {
    id = sub_free_.back();
    sub_free_.pop_back();
  } else {
    id = static_cast<std::uint32_t>(sub_slots_.size());
    sub_slots_.emplace_back();
  }
  ActiveSub& s = sub_slots_[id];
  s = ActiveSub{};
  s.request = request;
  s.server = server;
  s.region = region;
  s.bytes = bytes;
  s.issue = now;
  return id;
}

void Recorder::sub_storage(std::uint32_t sub, Seconds arrival, Seconds start,
                           Seconds startup, Seconds service) {
  if (sub >= sub_slots_.size()) return;
  ActiveSub& s = sub_slots_[sub];
  s.arrival = arrival;
  s.start = start;
  s.startup = startup;
  s.service = service;
  note_time(start + service);
  if (s.request < req_slots_.size() &&
      req_slots_[s.request].op == IoOp::kWrite) {
    // The disk is a write's final stage: T_X is the client -> server
    // delivery time and the sub-request completes when service does.
    finalize_sub(sub, arrival - s.issue, start + service);
  }
}

void Recorder::sub_net_done(std::uint32_t sub, Seconds now) {
  if (sub >= sub_slots_.size()) return;
  const ActiveSub& s = sub_slots_[sub];
  // T_X for a read: time from storage completion to the last byte landing
  // at the client NIC.
  finalize_sub(sub, now - (s.start + s.service), now);
}

void Recorder::finalize_sub(std::uint32_t sub, Seconds t_x, Seconds done) {
  ActiveSub& s = sub_slots_[sub];
  note_time(done);
  ServerMeta& meta = server_meta(s.server);
  SubSample sample;
  sample.server = s.server;
  sample.tier = meta.tier;
  sample.region = s.region;
  sample.bytes = s.bytes;
  sample.issue = s.issue;
  sample.wait = s.start - s.arrival;
  sample.t_s = s.startup;
  sample.t_t = s.service - s.startup;
  sample.t_x = t_x;
  sample.done = done;
  if (s.request < req_slots_.size()) {
    ActiveRequest& r = req_slots_[s.request];
    r.subs.push_back(sample);
    const std::size_t o = op_index(r.op);
    TierSeries& ts = tier_series(meta.tier);
    metrics_.observe(ts.wait[o], sample.wait);
    metrics_.observe(ts.t_s[o], sample.t_s);
    metrics_.observe(ts.t_t[o], sample.t_t);
    metrics_.observe(ts.t_x[o], sample.t_x);
    // Server-resident time per {server,tier,op}: the straggler scheduler's
    // per-server tail input (p50/p95/p99/p999 via the sketch family).
    metrics_.observe(meta.server_time[o],
                     sample.wait + sample.t_s + sample.t_t);
  }
  sub_free_.push_back(sub);
}

void Recorder::end_request(std::uint32_t request, Seconds now) {
  if (request >= req_slots_.size()) return;
  note_time(now);
  ActiveRequest& r = req_slots_[request];
  ++requests_completed_;

  RequestSample sample;
  sample.client = r.client;
  sample.op = r.op;
  sample.offset = r.offset;
  sample.size = r.size;
  sample.region = r.region;
  sample.file = r.file;
  sample.issue = r.issue;
  sample.done = now;

  const std::size_t o = op_index(r.op);
  metrics_.observe(latency_[o], now - r.issue);
  if (r.file != kNoId) {
    FileSeries& fs = file_series(r.file);
    metrics_.add(fs.bytes[o], static_cast<double>(r.size));
    metrics_.observe(fs.latency[o], now - r.issue);
  }
  if (predictor_) {
    sample.predicted = predictor_(r.op, r.offset, r.size);
    if (sample.predicted > 0.0 && now > r.issue) {
      const double rel =
          std::abs(sample.predicted - (now - r.issue)) / (now - r.issue);
      metrics_.observe(rel_error_series(r.region, r.op), rel);
    }
  }

  if (options_.trace && r.client < client_tracks_.size() &&
      client_tracks_[r.client] != kNoId) {
    push_event(TraceEvent{r.issue, now - r.issue, client_tracks_[r.client],
                          EventType::kRequest,
                          static_cast<std::uint8_t>(r.op == IoOp::kRead ? 0 : 1),
                          next_async_id_++, r.size});
  }

  if (options_.max_request_samples > 0) {
    RequestSample* kept = nullptr;
    if (samples_.size() < options_.max_request_samples) {
      kept = &samples_.emplace_back();
    } else {
      kept = &samples_[samples_next_];
      samples_next_ = (samples_next_ + 1) % samples_.size();
    }
    // One bulk copy into the ring (reusing the evicted sample's vector)
    // instead of growing a cold ring vector one sub-request at a time.
    sample.subs = std::move(kept->subs);
    sample.subs.assign(r.subs.begin(), r.subs.end());
    *kept = std::move(sample);
  }
  req_free_.push_back(request);
}

void Recorder::adaptive_event(AdaptiveEvent event, std::uint32_t epoch,
                              Bytes bytes, Seconds now) {
  note_time(now);
  if (!options_.trace) return;
  if (adaptive_track_ == kNoId) {
    adaptive_track_ = track("adaptive layout", TrackKind::kOther, kNoId);
  }
  // Instants on the adaptive track reuse the op byte as the event kind
  // (region-switch instants keep the 0xFF sentinel), epoch in `id`, bytes
  // in `arg`.
  push_event(TraceEvent{now, 0.0, adaptive_track_, EventType::kInstant,
                        static_cast<std::uint8_t>(event), epoch, bytes});
}

void Recorder::health_event(HealthEvent event, std::uint32_t server,
                            double score, Seconds now) {
  note_time(now);
  if (!options_.trace) return;
  if (health_track_ == kNoId) {
    health_track_ = track("health", TrackKind::kOther, kNoId);
  }
  // Health instants share the adaptive op-byte scheme with bit 7 set so the
  // exporter can tell them apart; server in `id`, score (micro-units) in
  // `arg`.
  push_event(TraceEvent{
      now, 0.0, health_track_, EventType::kInstant,
      static_cast<std::uint8_t>(0x80u | static_cast<std::uint8_t>(event)),
      server, score_micros(score)});
}

std::vector<Recorder::ResourceSummary> Recorder::resource_summaries() const {
  std::vector<ResourceSummary> out;
  out.reserve(tracks_.size());
  for (const TrackState& t : tracks_) {
    ResourceSummary s;
    s.name = t.name;
    s.kind = t.kind;
    s.entity = t.entity;
    s.tier = t.tier;
    s.is_ssd = t.is_ssd;
    s.busy = t.busy;
    s.queue_delay = t.queue_delay;
    s.jobs = t.jobs;
    s.depth_max = t.depth_max;
    s.wait = &t.wait;
    s.service = &t.service;
    s.busy_timeline = &t.busy_timeline;
    s.depth_timeline = &t.depth_timeline;
    out.push_back(std::move(s));
  }
  return out;
}

// --- export -----------------------------------------------------------------

void Recorder::append_trace_events(std::ostream& os, std::uint32_t pid,
                                   std::string_view process_name,
                                   bool& first) const {
  // Round-trip precision (JsonText prints 17 digits): 6 significant digits
  // would round microsecond timestamps enough to make adjacent spans appear
  // to overlap.
  JsonText out(os);
  auto sep = [&] {
    if (!first) out << ",";
    first = false;
    out << "\n  ";
  };

  sep();
  out << "{\"ph\": \"M\", \"name\": \"process_name\", \"pid\": " << pid
      << ", \"tid\": 0, \"args\": {\"name\": ";
  out.quoted(process_name);
  out << "}}";
  for (std::size_t i = 0; i < tracks_.size(); ++i) {
    sep();
    out << "{\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": " << pid
        << ", \"tid\": " << i + 1 << ", \"args\": {\"name\": ";
    out.quoted(tracks_[i].name);
    out << "}}";
    sep();
    out << "{\"ph\": \"M\", \"name\": \"thread_sort_index\", \"pid\": " << pid
        << ", \"tid\": " << i + 1 << ", \"args\": {\"sort_index\": " << i
        << "}}";
  }

  // Ring mode stores events out of order once wrapped; export oldest-first.
  const std::size_t n = events_.size();
  const std::size_t begin =
      options_.max_trace_events > 0 && n == options_.max_trace_events
          ? ring_next_
          : 0;
  for (std::size_t k = 0; k < n; ++k) {
    const TraceEvent& e = events_[(begin + k) % n];
    const std::uint32_t tid = e.track + 1;
    switch (e.type) {
      case EventType::kService:
        sep();
        out << "{\"ph\": \"X\", \"name\": \"service\", \"cat\": \"resource\", "
               "\"pid\": "
            << pid << ", \"tid\": " << tid << ", \"ts\": " << to_us(e.ts)
            << ", \"dur\": " << to_us(e.dur) << "}";
        break;
      case EventType::kWait:
      case EventType::kRequest: {
        const bool is_wait = e.type == EventType::kWait;
        const char* name = is_wait ? "wait"
                           : e.op == 0 ? "read" : "write";
        const char* cat = is_wait ? "queue" : "request";
        sep();
        out << "{\"ph\": \"b\", \"name\": \"" << name << "\", \"cat\": \""
            << cat << "\", \"id\": " << e.id << ", \"pid\": " << pid
            << ", \"tid\": " << tid << ", \"ts\": " << to_us(e.ts);
        if (!is_wait) out << ", \"args\": {\"bytes\": " << e.arg << "}";
        out << "}";
        sep();
        out << "{\"ph\": \"e\", \"name\": \"" << name << "\", \"cat\": \""
            << cat << "\", \"id\": " << e.id << ", \"pid\": " << pid
            << ", \"tid\": " << tid << ", \"ts\": " << to_us(e.ts + e.dur)
            << "}";
        break;
      }
      case EventType::kInstant:
        sep();
        if (e.op == 0xFF) {
          out << "{\"ph\": \"i\", \"name\": \"region_switch\", \"cat\": "
                 "\"region\", \"s\": \"t\", \"pid\": "
              << pid << ", \"tid\": " << tid << ", \"ts\": " << to_us(e.ts)
              << ", \"args\": {\"region\": " << e.arg << "}}";
        } else if ((e.op & 0x80u) != 0) {
          const char* name =
              (e.op & 0x7Fu) ==
                      static_cast<std::uint8_t>(HealthEvent::kStragglerFlagged)
                  ? "straggler_flagged"
                  : "straggler_recovered";
          out << "{\"ph\": \"i\", \"name\": \"" << name
              << "\", \"cat\": \"health\", \"s\": \"t\", \"pid\": " << pid
              << ", \"tid\": " << tid << ", \"ts\": " << to_us(e.ts)
              << ", \"args\": {\"server\": " << e.id
              << ", \"score\": " << static_cast<double>(e.arg) / 1e6 << "}}";
        } else {
          const char* name =
              e.op == static_cast<std::uint8_t>(AdaptiveEvent::kEpochInstalled)
                  ? "epoch_install"
              : e.op ==
                      static_cast<std::uint8_t>(AdaptiveEvent::kMigrationStarted)
                  ? "migration_start"
                  : "migration_done";
          out << "{\"ph\": \"i\", \"name\": \"" << name
              << "\", \"cat\": \"adaptive\", \"s\": \"t\", \"pid\": " << pid
              << ", \"tid\": " << tid << ", \"ts\": " << to_us(e.ts)
              << ", \"args\": {\"epoch\": " << e.id << ", \"bytes\": " << e.arg
              << "}}";
        }
        break;
    }
  }
}

void Recorder::write_trace_json(std::ostream& out,
                                std::string_view process_name) const {
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  bool first = true;
  append_trace_events(out, 1, process_name, first);
  out << "\n]}\n";
}

void Recorder::write_metrics_json(std::ostream& os, int indent) const {
  JsonText out(os);
  const std::string pad(static_cast<std::size_t>(indent), ' ');
  const Seconds horizon = last_time_;
  out << "{\n";
  out << pad << "  \"horizon_s\": " << horizon << ",\n";
  out << pad << "  \"requests_completed\": " << requests_completed_ << ",\n";
  out << pad << "  \"trace_events_recorded\": " << events_recorded_ << ",\n";
  out << pad << "  \"trace_events_dropped\": " << events_dropped_ << ",\n";
  out << pad << "  \"resources\": [";
  bool first = true;
  for (std::size_t i = 0; i < tracks_.size(); ++i) {
    const TrackState& t = tracks_[i];
    if (!first) out << ",";
    first = false;
    out << "\n" << pad << "    {\"track\": " << i << ", \"name\": ";
    out.quoted(t.name);
    out << ", \"kind\": \"" << kind_name(t.kind) << "\"";
    if (t.entity != kNoId) out << ", \"entity\": " << t.entity;
    if (t.tier != kNoId) {
      out << ", \"tier\": " << t.tier
          << ", \"is_ssd\": " << (t.is_ssd ? "true" : "false");
    }
    out << ", \"jobs\": " << t.jobs << ", \"busy_s\": " << t.busy
        << ", \"queue_delay_s\": " << t.queue_delay
        << ", \"utilization\": " << (horizon > 0.0 ? t.busy / horizon : 0.0)
        << ", \"depth_max\": " << t.depth_max
        << ", \"wait_p99_s\": " << t.wait.percentile(99.0)
        << ", \"service_p99_s\": " << t.service.percentile(99.0);
    out << ", \"busy_timeline\": {\"bucket_s\": "
        << t.busy_timeline.bucket_width() << ", \"busy_s\": [";
    bool f2 = true;
    for (double v : t.busy_timeline.values()) {
      if (!f2) out << ", ";
      f2 = false;
      out << v;
    }
    out << "]}, \"depth_timeline\": {\"bucket_s\": "
        << t.depth_timeline.bucket_width() << ", \"depth_max\": [";
    f2 = true;
    for (double v : t.depth_timeline.values()) {
      if (!f2) out << ", ";
      f2 = false;
      out << v;
    }
    out << "]}}";
  }
  out << "\n" << pad << "  ],\n";
  out << pad << "  \"metrics\": ";
  out.flush();
  metrics_.write_json(os, indent + 2);
  out << "\n" << pad << "}";
}

}  // namespace harl::obs
