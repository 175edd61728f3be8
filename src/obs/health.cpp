#include "src/obs/health.hpp"

#include <algorithm>
#include <ostream>
#include <string>

#include "src/obs/json_text.hpp"

namespace harl::obs {

HealthMonitor::HealthMonitor(Options options, Sink* downstream)
    : options_(options),
      downstream_(downstream),
      ts_(TimeSeries::Options{options.interval, options.window_capacity}),
      m_windows_scored_(
          metrics_.family("health.windows_scored",
                          MetricsRegistry::Kind::kCounter)),
      m_flagged_(metrics_.family("health.straggler_flagged",
                                 MetricsRegistry::Kind::kCounter)),
      m_recovered_(metrics_.family("health.recovered",
                                   MetricsRegistry::Kind::kCounter)),
      m_score_(metrics_.family("health.score",
                               MetricsRegistry::Kind::kGauge)),
      m_slo_req_total_(metrics_.family("health.slo.requests_total",
                                       MetricsRegistry::Kind::kCounter)),
      m_slo_req_met_(metrics_.family("health.slo.requests_met",
                                     MetricsRegistry::Kind::kCounter)),
      m_slo_sub_total_(metrics_.family("health.slo.subs_total",
                                       MetricsRegistry::Kind::kCounter)),
      m_slo_sub_met_(metrics_.family("health.slo.subs_met",
                                     MetricsRegistry::Kind::kCounter)),
      m_slo_tenant_total_(metrics_.family("health.slo.tenant_total",
                                          MetricsRegistry::Kind::kCounter)),
      m_slo_tenant_met_(metrics_.family("health.slo.tenant_met",
                                        MetricsRegistry::Kind::kCounter)),
      windows_scored_(m_windows_scored_, LabelSet{}) {
  for (const IoOp op : {IoOp::kRead, IoOp::kWrite}) {
    const std::size_t o = op == IoOp::kRead ? 0 : 1;
    slo_req_total_[o] = Series{m_slo_req_total_, LabelSet{}.op(op)};
    slo_req_met_[o] = Series{m_slo_req_met_, LabelSet{}.op(op)};
  }
}

HealthMonitor::ServerState& HealthMonitor::server_state(std::uint32_t server) {
  while (servers_.size() <= server) {
    const LabelSet l =
        LabelSet{}.server(static_cast<std::uint32_t>(servers_.size()));
    ServerState st;
    st.slo_total_series = Series{m_slo_sub_total_, l};
    st.slo_met_series = Series{m_slo_sub_met_, l};
    st.score_series = Series{m_score_, l};
    st.flagged_series = Series{m_flagged_, l};
    st.recovered_series = Series{m_recovered_, l};
    servers_.push_back(std::move(st));
  }
  ServerState& st = servers_[server];
  st.present = true;
  return st;
}

// --- registration (own track ids so server attribution survives a null
// downstream) ----------------------------------------------------------------

std::uint32_t HealthMonitor::track(std::string_view name, TrackKind kind,
                                   std::uint32_t entity) {
  Track t;
  t.down = downstream_ != nullptr ? downstream_->track(name, kind, entity)
                                  : kNoId;
  tracks_.push_back(t);
  return static_cast<std::uint32_t>(tracks_.size() - 1);
}

std::uint32_t HealthMonitor::register_server(std::uint32_t server,
                                             std::uint32_t tier,
                                             std::string_view name,
                                             bool is_ssd) {
  Track t;
  t.down = downstream_ != nullptr
               ? downstream_->register_server(server, tier, name, is_ssd)
               : kNoId;
  t.server = server;
  t.is_server_disk = true;
  tracks_.push_back(t);
  server_state(server);  // an idle server still reports
  return static_cast<std::uint32_t>(tracks_.size() - 1);
}

std::uint32_t HealthMonitor::register_client(std::uint32_t client) {
  Track t;
  t.down = downstream_ != nullptr ? downstream_->register_client(client)
                                  : kNoId;
  tracks_.push_back(t);
  return static_cast<std::uint32_t>(tracks_.size() - 1);
}

// --- hot path ----------------------------------------------------------------

void HealthMonitor::resource_event(std::uint32_t track, Seconds arrival,
                                   Seconds start, Seconds finish) {
  advance(arrival);
  if (track < tracks_.size() && tracks_[track].is_server_disk) {
    const std::uint32_t server = tracks_[track].server;
    ServerState& s = server_state(server);
    ts_.record_depth(server, arrival, s.inflight.admit(arrival, finish));
    ts_.record_span(server, arrival, start, finish);
  }
  if (downstream_ != nullptr && track < tracks_.size() &&
      tracks_[track].down != kNoId) {
    downstream_->resource_event(tracks_[track].down, arrival, start, finish);
  }
}

void HealthMonitor::server_access(std::uint32_t server, IoOp op,
                                  std::uint32_t region, Bytes bytes,
                                  Bytes pieces, Seconds now) {
  advance(now);
  if (downstream_ != nullptr) {
    downstream_->server_access(server, op, region, bytes, pieces, now);
  }
}

std::uint32_t HealthMonitor::begin_request(std::uint32_t client, IoOp op,
                                           Bytes offset, Bytes size,
                                           Seconds now, std::uint32_t file) {
  advance(now);
  std::uint32_t id;
  if (!req_free_.empty()) {
    id = req_free_.back();
    req_free_.pop_back();
  } else {
    id = static_cast<std::uint32_t>(reqs_.size());
    reqs_.emplace_back();
  }
  PendingReq& r = reqs_[id];
  r.down = downstream_ != nullptr
               ? downstream_->begin_request(client, op, offset, size, now, file)
               : kNoId;
  r.op = op;
  r.file = file;
  r.issue = now;
  r.live = true;
  return id;
}

std::uint32_t HealthMonitor::begin_sub(std::uint32_t request,
                                       std::uint32_t server,
                                       std::uint32_t region, Bytes bytes,
                                       Seconds now) {
  advance(now);
  const PendingReq* req =
      request < reqs_.size() && reqs_[request].live ? &reqs_[request]
                                                    : nullptr;
  std::uint32_t id;
  if (!sub_free_.empty()) {
    id = sub_free_.back();
    sub_free_.pop_back();
  } else {
    id = static_cast<std::uint32_t>(subs_.size());
    subs_.emplace_back();
  }
  PendingSub& s = subs_[id];
  s.down = downstream_ != nullptr && req != nullptr && req->down != kNoId
               ? downstream_->begin_sub(req->down, server, region, bytes, now)
               : kNoId;
  s.server = server;
  s.op = req != nullptr ? req->op : IoOp::kRead;
  s.live = true;
  return id;
}

void HealthMonitor::sub_storage(std::uint32_t sub, Seconds arrival,
                                Seconds start, Seconds startup,
                                Seconds service) {
  advance(arrival);
  if (sub < subs_.size() && subs_[sub].live) {
    PendingSub& s = subs_[sub];
    if (options_.slo > 0.0 && s.server != kNoId) {
      // Server-resident time: queue wait plus the full storage service.
      const Seconds resident = (start - arrival) + service;
      ServerState& st = server_state(s.server);
      ++st.slo_total;
      metrics_.add(st.slo_total_series, 1.0);
      if (resident <= options_.slo) {
        ++st.slo_met;
        metrics_.add(st.slo_met_series, 1.0);
      }
    }
    if (downstream_ != nullptr && s.down != kNoId) {
      downstream_->sub_storage(s.down, arrival, start, startup, service);
    }
    // Writes complete at the storage stage; reads stay live until the final
    // network event.
    if (s.op == IoOp::kWrite) free_sub(sub);
  }
}

void HealthMonitor::sub_net_done(std::uint32_t sub, Seconds now) {
  advance(now);
  if (sub < subs_.size() && subs_[sub].live) {
    if (downstream_ != nullptr && subs_[sub].down != kNoId) {
      downstream_->sub_net_done(subs_[sub].down, now);
    }
    free_sub(sub);
  }
}

void HealthMonitor::end_request(std::uint32_t request, Seconds now) {
  advance(now);
  if (request < reqs_.size() && reqs_[request].live) {
    PendingReq& r = reqs_[request];
    if (options_.slo > 0.0) {
      const std::size_t op = r.op == IoOp::kRead ? 0 : 1;
      ++req_total_[op];
      metrics_.add(slo_req_total_[op], 1.0);
      const bool met = now - r.issue <= options_.slo;
      if (met) {
        ++req_met_[op];
        metrics_.add(slo_req_met_[op], 1.0);
      }
      if (r.file != kNoId && r.file < tenant_of_.size()) {
        const std::uint32_t tenant = tenant_of_[r.file];
        while (tenant_slo_.size() <= tenant) {
          const LabelSet tl = LabelSet{}.tenant(
              static_cast<std::uint32_t>(tenant_slo_.size()));
          tenant_slo_.push_back(TenantSlo{0, 0,
                                          Series{m_slo_tenant_total_, tl},
                                          Series{m_slo_tenant_met_, tl}});
        }
        TenantSlo& ts = tenant_slo_[tenant];
        ++ts.total;
        metrics_.add(ts.total_series, 1.0);
        if (met) {
          ++ts.met;
          metrics_.add(ts.met_series, 1.0);
        }
      }
    }
    if (downstream_ != nullptr && r.down != kNoId) {
      downstream_->end_request(r.down, now);
    }
    r.live = false;
    req_free_.push_back(request);
  }
}

void HealthMonitor::adaptive_event(AdaptiveEvent event, std::uint32_t epoch,
                                   Bytes bytes, Seconds now) {
  advance(now);
  if (downstream_ != nullptr) {
    downstream_->adaptive_event(event, epoch, bytes, now);
  }
}

void HealthMonitor::cache_event(Bytes hit_bytes, Bytes miss_bytes,
                                Seconds now) {
  advance(now);
  ts_.record_cache(hit_bytes, miss_bytes, now);
  if (downstream_ != nullptr) {
    downstream_->cache_event(hit_bytes, miss_bytes, now);
  }
}

void HealthMonitor::health_event(HealthEvent event, std::uint32_t server,
                                 double score, Seconds now) {
  if (downstream_ != nullptr) {
    downstream_->health_event(event, server, score, now);
  }
}

void HealthMonitor::free_sub(std::uint32_t sub) {
  subs_[sub].live = false;
  sub_free_.push_back(sub);
}

// --- scoring -----------------------------------------------------------------

void HealthMonitor::advance(Seconds t) {
  const std::int64_t w = ts_.window_of(t);
  if (!started_) {
    started_ = true;
    next_to_score_ = w;
    return;
  }
  while (next_to_score_ < w) {
    score_window(next_to_score_);
    ++next_to_score_;
  }
}

void HealthMonitor::score_window(std::int64_t w) {
  const auto stats = ts_.window_stats(w);
  std::vector<double> means;
  for (const auto& s : stats) {
    if (s.jobs >= options_.min_window_jobs) means.push_back(s.lat_mean);
  }
  if (means.empty()) return;  // idle window: streaks unchanged
  std::sort(means.begin(), means.end());
  const std::size_t n = means.size();
  const double median = n % 2 == 1
                            ? means[n / 2]
                            : 0.5 * (means[n / 2 - 1] + means[n / 2]);
  if (!(median > 0.0)) return;
  metrics_.add(windows_scored_, 1.0);
  const Seconds window_end =
      static_cast<double>(w + 1) * options_.interval;
  for (const auto& s : stats) {
    if (s.jobs < options_.min_window_jobs) continue;
    const double score = s.lat_mean / median;
    ServerState& st = server_state(s.server);
    st.score = score;
    st.scored = true;
    metrics_.set(st.score_series, score);
    if (score >= options_.flag_threshold) {
      ++st.flag_streak;
      st.recover_streak = 0;
      if (!st.flagged && st.flag_streak >= options_.flag_windows) {
        st.flagged = true;
        ++st.flag_count;
        metrics_.add(st.flagged_series, 1.0);
        if (downstream_ != nullptr) {
          downstream_->health_event(HealthEvent::kStragglerFlagged, s.server,
                                    score, window_end);
        }
      }
    } else if (score <= options_.recover_threshold) {
      ++st.recover_streak;
      st.flag_streak = 0;
      if (st.flagged && st.recover_streak >= options_.recover_windows) {
        st.flagged = false;
        ++st.recover_count;
        metrics_.add(st.recovered_series, 1.0);
        if (downstream_ != nullptr) {
          downstream_->health_event(HealthEvent::kStragglerRecovered,
                                    s.server, score, window_end);
        }
      }
    } else {
      // Hysteresis dead band: neither streak advances.
      st.flag_streak = 0;
      st.recover_streak = 0;
    }
  }
}

void HealthMonitor::finalize() {
  if (finalized_ || !started_) {
    finalized_ = true;
    return;
  }
  finalized_ = true;
  if (ts_.empty()) return;
  const std::int64_t last = ts_.last_window();
  while (next_to_score_ <= last) {
    score_window(next_to_score_);
    ++next_to_score_;
  }
}

// --- results -----------------------------------------------------------------

double HealthMonitor::server_score(std::uint32_t server) const {
  return server < servers_.size() ? servers_[server].score : 0.0;
}

bool HealthMonitor::is_flagged(std::uint32_t server) const {
  return server < servers_.size() && servers_[server].flagged;
}

double HealthMonitor::tenant_slo_attainment(std::uint32_t tenant) const {
  if (tenant >= tenant_slo_.size() || tenant_slo_[tenant].total == 0) {
    return 1.0;
  }
  return static_cast<double>(tenant_slo_[tenant].met) /
         static_cast<double>(tenant_slo_[tenant].total);
}

void HealthMonitor::write_json(std::ostream& os, int indent) const {
  JsonText out(os);
  const std::string pad(static_cast<std::size_t>(indent), ' ');
  out << "{\n" << pad << "  \"interval_s\": " << options_.interval << ",\n"
      << pad << "  \"slo_s\": " << options_.slo << ",\n"
      << pad << "  \"flag_threshold\": " << options_.flag_threshold << ",\n"
      << pad << "  \"recover_threshold\": " << options_.recover_threshold
      << ",\n"
      << pad << "  \"requests\": {\"read_total\": " << req_total_[0]
      << ", \"read_met\": " << req_met_[0]
      << ", \"write_total\": " << req_total_[1]
      << ", \"write_met\": " << req_met_[1] << "},\n";
  if (!tenant_slo_.empty()) {
    out << pad << "  \"tenants\": [";
    bool tf = true;
    for (std::size_t tenant = 0; tenant < tenant_slo_.size(); ++tenant) {
      const TenantSlo& s = tenant_slo_[tenant];
      if (s.total == 0) continue;
      if (!tf) out << ",";
      tf = false;
      out << "\n" << pad << "    {\"tenant\": " << tenant
          << ", \"total\": " << s.total << ", \"met\": " << s.met
          << ", \"attainment\": "
          << (s.total > 0
                  ? static_cast<double>(s.met) / static_cast<double>(s.total)
                  : 1.0)
          << '}';
    }
    out << "\n" << pad << "  ],\n";
  }
  out << pad << "  \"servers\": [";
  bool first = true;
  for (std::size_t id = 0; id < servers_.size(); ++id) {
    const ServerState& s = servers_[id];
    if (!s.present) continue;
    if (!first) out << ",";
    first = false;
    out << "\n" << pad << "    {\"server\": " << id
        << ", \"score\": " << s.score
        << ", \"flagged\": " << (s.flagged ? "true" : "false")
        << ", \"flag_count\": " << s.flag_count
        << ", \"recover_count\": " << s.recover_count
        << ", \"slo_subs_total\": " << s.slo_total
        << ", \"slo_subs_met\": " << s.slo_met << '}';
  }
  out << "\n" << pad << "  ]\n" << pad << '}';
}

}  // namespace harl::obs
