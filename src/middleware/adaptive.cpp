#include "src/middleware/adaptive.hpp"

#include <algorithm>
#include <stdexcept>

#include "src/core/cost_model.hpp"
#include "src/middleware/harl_driver.hpp"
#include "src/storage/profiles.hpp"
#include "src/middleware/r2f.hpp"
#include "src/pfs/layout.hpp"

namespace harl::mw {

namespace {

std::vector<pfs::DataServer*> server_ptrs(pfs::Cluster& cluster) {
  std::vector<pfs::DataServer*> servers;
  servers.reserve(cluster.num_servers());
  for (std::size_t i = 0; i < cluster.num_servers(); ++i) {
    servers.push_back(&cluster.server(i));
  }
  return servers;
}

/// The advisor's view of the fleet under a cache reservation: the reserved
/// SSD-tier prefix belongs to the CacheManager, so per-window re-optimization
/// plans over the remaining servers (mirroring analyze_cached's reduced
/// sweep).  Without a reservation this is the identity.
core::CostParams advisor_params(core::CostParams params,
                                const std::vector<std::size_t>& reserved) {
  const std::size_t r = reserved.size() > 1 ? reserved[1] : 0;
  if (r == 0) return params;
  if (r >= params.N) {
    throw std::invalid_argument("cache reservation consumes every SServer");
  }
  params.N -= r;
  if (!params.sserver_factors.empty()) {
    params.sserver_factors.erase(
        params.sserver_factors.begin(),
        params.sserver_factors.begin() + static_cast<std::ptrdiff_t>(r));
    storage::canonicalize_device_factors(params.sserver_factors);
  }
  return params;
}

/// Effectively-infinite device factor for a failed server: any candidate
/// that touches the slot is priced out, so the member-prefix search excludes
/// it from every region of every new epoch.
constexpr double kFailedDeviceFactor = 1e6;

/// The advisor's view of the fleet after a server failure: the failed tier's
/// trailing slot (device factors are canonical ascending, so only the tail
/// can be prefix-excluded) carries kFailedDeviceFactor.
core::CostParams degraded_params(core::CostParams params, std::size_t tier) {
  auto& factors =
      tier == 0 ? params.hserver_factors : params.sserver_factors;
  const std::size_t count = tier == 0 ? params.M : params.N;
  if (count < 2) {
    throw std::invalid_argument(
        "cannot degrade a tier with fewer than two servers");
  }
  if (factors.empty()) factors.assign(count, 1.0);
  factors.back() = kFailedDeviceFactor;
  storage::canonicalize_device_factors(factors);
  return params;
}

}  // namespace

// --- MigrationEngine --------------------------------------------------------

MigrationEngine::MigrationEngine(pfs::Cluster& cluster,
                                 std::shared_ptr<pfs::EpochedLayout> layout)
    : sim_(cluster.simulator()),
      // Client-NIC id 0: migration shares compute node 0's link, so its
      // transfers contend with that node's foreground traffic too.
      client_(cluster.simulator(), cluster.network(), server_ptrs(cluster), 0),
      layout_(std::move(layout)) {
  if (layout_ == nullptr) {
    throw std::invalid_argument("migration engine needs an epoched layout");
  }
}

void MigrationEngine::start(std::vector<std::pair<Bytes, Bytes>> ranges,
                            std::uint32_t epoch, double bandwidth, Bytes chunk,
                            std::function<void(Bytes)> on_done) {
  if (active_) throw std::logic_error("a migration is already active");
  if (!(bandwidth > 0.0) || chunk == 0) {
    throw std::invalid_argument("migration needs bandwidth > 0 and chunk > 0");
  }
  pending_.clear();
  // Consumed back-to-front: reverse so copies proceed in ascending offset.
  for (auto it = ranges.rbegin(); it != ranges.rend(); ++it) {
    if (it->second > it->first) pending_.push_back(*it);
  }
  target_epoch_ = epoch;
  bandwidth_ = bandwidth;
  chunk_ = chunk;
  batch_bytes_ = 0;
  if (pending_.empty()) {
    if (on_done) on_done(0);
    return;
  }
  target_view_ = layout_->epoch_view(epoch);
  on_done_ = std::move(on_done);
  active_ = true;
  next_chunk();
}

void MigrationEngine::next_chunk() {
  if (pending_.empty()) {
    active_ = false;
    target_view_.reset();
    auto done = std::move(on_done_);
    on_done_ = nullptr;
    if (done) done(batch_bytes_);
    return;
  }
  auto& range = pending_.back();
  const Bytes begin = range.first;
  Bytes len = std::min<Bytes>(chunk_, range.second - begin);
  // Clamp to the current ownership run so each chunk reads one source epoch.
  const Bytes run_end = layout_->owner_end(begin);
  if (run_end > begin) len = std::min(len, run_end - begin);
  range.first += len;
  if (range.first >= range.second) pending_.pop_back();

  const Seconds issue = sim_.now();
  // Read the chunk under its governing (source) epoch, write it into the
  // target epoch's objects, then flip ownership — both legs through the real
  // simulated servers and network.
  client_.io(*layout_, IoOp::kRead, begin, len, [this, begin, len, issue] {
    client_.io(
        *target_view_, IoOp::kWrite, begin, len, [this, begin, len, issue] {
          layout_->assign(begin, begin + len, target_epoch_);
          batch_bytes_ += len;
          migrated_bytes_ += len;
          ++chunks_copied_;
          const Seconds now = sim_.now();
          const Seconds inflight = now - issue;
          interference_ += inflight;
          if (chunk_hook_) chunk_hook_(target_epoch_, len, inflight, now);
          // Throttle: the next chunk starts no earlier than what the
          // configured background bandwidth allows for this one.
          const Seconds earliest =
              issue + static_cast<double>(len) / bandwidth_;
          if (earliest > now) {
            sim_.schedule_after(earliest - now, [this] { next_chunk(); });
          } else {
            next_chunk();
          }
        });
  });
}

// --- AdaptiveLayoutManager --------------------------------------------------

AdaptiveLayoutManager::AdaptiveLayoutManager(core::CostParams params,
                                             core::RegionStripeTable epoch0,
                                             AdaptiveOptions options,
                                             obs::Sink* downstream)
    : params_(std::move(params)),
      options_(std::move(options)),
      downstream_(downstream),
      advisor_(advisor_params(params_, options_.reserved), std::move(epoch0),
               options_.advisor) {
  if (options_.max_epochs == 0) {
    throw std::invalid_argument("max_epochs must be >= 1");
  }
  using Kind = obs::MetricsRegistry::Kind;
  m_epochs_ = metrics_.family("adaptive.epoch_installs", Kind::kCounter);
  m_windows_ = metrics_.family("adaptive.windows", Kind::kCounter);
  m_recs_ = metrics_.family("adaptive.recommendations", Kind::kCounter);
  m_deferred_ =
      metrics_.family("adaptive.recommendations_deferred", Kind::kCounter);
  m_evals_ = metrics_.family("adaptive.cost_evals", Kind::kCounter);
  m_evals_saved_ =
      metrics_.family("adaptive.cost_evals_saved", Kind::kCounter);
  m_migrated_ = metrics_.family("migration.migrated_bytes", Kind::kCounter);
  m_chunks_ = metrics_.family("migration.chunks", Kind::kCounter);
  m_interference_ =
      metrics_.family("migration.interference_s", Kind::kCounter);
  m_degraded_ = metrics_.family("adaptive.degraded_replans", Kind::kCounter);
}

std::shared_ptr<const pfs::Layout> AdaptiveLayoutManager::install(
    pfs::Cluster& cluster, const std::string& logical_name) {
  if (epoched_ != nullptr) throw std::logic_error("already installed");
  cluster_ = &cluster;
  logical_name_ = logical_name;
  const core::RegionStripeTable& rst = advisor_.current();
  tier_counts_ = HarlDriver::tier_counts_for(rst, cluster);
  epoched_ = std::make_shared<pfs::EpochedLayout>(
      rst.to_layout(tier_counts_, options_.reserved));
  cluster.mds().register_file(logical_name, epoched_);
  const auto r2f = RegionFileMap::for_epoch(logical_name, 0, rst.size());
  for (std::size_t i = 0; i < rst.size(); ++i) {
    cluster.mds().register_file(
        r2f.physical(i),
        pfs::make_tiered_layout(tier_counts_, rst.entry(i).stripes, {},
                                options_.reserved));
  }
  migration_ = std::make_unique<MigrationEngine>(cluster, epoched_);
  migration_->set_chunk_hook([this](std::uint32_t epoch, Bytes bytes,
                                    Seconds inflight, Seconds /*now*/) {
    const auto labels = obs::LabelSet{}.region(epoch);
    metrics_.add(m_migrated_, labels, static_cast<double>(bytes));
    metrics_.add(m_chunks_, labels, 1.0);
    metrics_.add(m_interference_, labels, inflight);
  });
  return epoched_;
}

// --- Sink forwarding ---------------------------------------------------------

std::uint32_t AdaptiveLayoutManager::track(std::string_view name,
                                           obs::TrackKind kind,
                                           std::uint32_t entity) {
  return downstream_ != nullptr ? downstream_->track(name, kind, entity)
                                : obs::kNoId;
}

std::uint32_t AdaptiveLayoutManager::register_server(std::uint32_t server,
                                                     std::uint32_t tier,
                                                     std::string_view name,
                                                     bool is_ssd) {
  return downstream_ != nullptr
             ? downstream_->register_server(server, tier, name, is_ssd)
             : obs::kNoId;
}

std::uint32_t AdaptiveLayoutManager::register_client(std::uint32_t client) {
  return downstream_ != nullptr ? downstream_->register_client(client)
                                : obs::kNoId;
}

void AdaptiveLayoutManager::resource_event(std::uint32_t track, Seconds arrival,
                                           Seconds start, Seconds finish) {
  if (downstream_ != nullptr) {
    downstream_->resource_event(track, arrival, start, finish);
  }
}

void AdaptiveLayoutManager::server_access(std::uint32_t server, IoOp op,
                                          std::uint32_t region, Bytes bytes,
                                          Bytes pieces, Seconds now) {
  if (downstream_ != nullptr) {
    downstream_->server_access(server, op, region, bytes, pieces, now);
  }
}

std::uint32_t AdaptiveLayoutManager::begin_request(std::uint32_t client,
                                                   IoOp op, Bytes offset,
                                                   Bytes size, Seconds now,
                                                   std::uint32_t file) {
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
               : obs::kNoId;
  r.op = op;
  r.offset = offset;
  r.size = size;
  r.issue = now;
  r.client = client;
  r.file = file;
  return id;
}

std::uint32_t AdaptiveLayoutManager::begin_sub(std::uint32_t request,
                                               std::uint32_t server,
                                               std::uint32_t region,
                                               Bytes bytes, Seconds now) {
  if (downstream_ == nullptr || request >= reqs_.size()) return obs::kNoId;
  const std::uint32_t down = reqs_[request].down;
  if (down == obs::kNoId) return obs::kNoId;
  return downstream_->begin_sub(down, server, region, bytes, now);
}

void AdaptiveLayoutManager::sub_storage(std::uint32_t sub, Seconds arrival,
                                        Seconds start, Seconds startup,
                                        Seconds service) {
  if (downstream_ != nullptr && sub != obs::kNoId) {
    downstream_->sub_storage(sub, arrival, start, startup, service);
  }
}

void AdaptiveLayoutManager::sub_net_done(std::uint32_t sub, Seconds now) {
  if (downstream_ != nullptr && sub != obs::kNoId) {
    downstream_->sub_net_done(sub, now);
  }
}

void AdaptiveLayoutManager::end_request(std::uint32_t request, Seconds now) {
  if (request >= reqs_.size()) return;
  const PendingReq r = reqs_[request];
  req_free_.push_back(request);
  if (downstream_ != nullptr && r.down != obs::kNoId) {
    downstream_->end_request(r.down, now);
  }
  if (file_filter_ == obs::kNoId || r.file == file_filter_) {
    feed(r.client, r.op, r.offset, r.size, r.issue, now);
  }
}

void AdaptiveLayoutManager::adaptive_event(AdaptiveEvent event,
                                           std::uint32_t epoch, Bytes bytes,
                                           Seconds now) {
  if (downstream_ != nullptr) {
    downstream_->adaptive_event(event, epoch, bytes, now);
  }
}

void AdaptiveLayoutManager::cache_event(Bytes hit_bytes, Bytes miss_bytes,
                                        Seconds now) {
  // Must forward explicitly: the inherited no-op would swallow the event
  // before it reaches the health monitor downstream.
  if (downstream_ != nullptr) {
    downstream_->cache_event(hit_bytes, miss_bytes, now);
  }
}

void AdaptiveLayoutManager::health_event(HealthEvent event,
                                         std::uint32_t server, double score,
                                         Seconds now) {
  if (downstream_ != nullptr) {
    downstream_->health_event(event, server, score, now);
  }
}

// --- the adaptation loop -----------------------------------------------------

void AdaptiveLayoutManager::feed(std::uint32_t client, IoOp op, Bytes offset,
                                 Bytes size, Seconds issue, Seconds now) {
  if (options_.fail && !degraded_applied_ && now >= options_.fail->at) {
    // The failure instant passed: rebuild the advisor against the degraded
    // fleet (current RST carried over), so every subsequent window's
    // re-optimization excludes the failed trailing slot of its tier.
    degraded_applied_ = true;
    windows_offset_ += advisor_.windows_analyzed();
    evals_offset_ += advisor_.cost_evals();
    evals_saved_offset_ += advisor_.cost_evals_saved();
    last_cost_evals_ = 0;
    last_cost_evals_saved_ = 0;
    advisor_ = core::OnlineAdvisor(
        degraded_params(advisor_params(params_, options_.reserved),
                        options_.fail->tier),
        advisor_.current(), options_.advisor);
    metrics_.add(m_degraded_, obs::LabelSet{}, 1.0);
  }
  trace::TraceRecord record;
  record.pid = client;
  record.rank = client;
  record.fd = 0;
  record.op = op;
  record.offset = offset;
  record.size = size;
  record.t_start = issue;
  record.t_end = now;
  const std::size_t windows_before = advisor_.windows_analyzed();
  auto rec = advisor_.observe(record);
  if (advisor_.windows_analyzed() != windows_before) {
    const auto no_labels = obs::LabelSet{};
    metrics_.add(m_windows_, no_labels, 1.0);
    metrics_.add(m_evals_, no_labels,
                 static_cast<double>(advisor_.cost_evals() - last_cost_evals_));
    metrics_.add(m_evals_saved_, no_labels,
                 static_cast<double>(advisor_.cost_evals_saved() -
                                     last_cost_evals_saved_));
    last_cost_evals_ = advisor_.cost_evals();
    last_cost_evals_saved_ = advisor_.cost_evals_saved();
  }
  if (rec) handle(*rec, now);
}

void AdaptiveLayoutManager::handle(
    const core::OnlineAdvisor::Recommendation& rec, Seconds now) {
  ++recommendations_;
  metrics_.add(m_recs_, obs::LabelSet{}, 1.0);
  if (epoched_ == nullptr) return;  // not installed: advisory only
  if (migration_->active() || epoched_->epoch_count() >= options_.max_epochs) {
    // One migration at a time; re-plans while it drains (or past the epoch
    // budget) are dropped rather than queued — the next window will
    // re-derive a fresher recommendation anyway.
    ++deferred_;
    metrics_.add(m_deferred_, obs::LabelSet{}, 1.0);
    return;
  }
  advisor_.adopt(rec);
  const std::uint32_t epoch = epoched_->add_epoch(
      rec.rst.to_layout(tier_counts_, options_.reserved));
  const auto r2f = RegionFileMap::for_epoch(logical_name_, epoch, rec.rst.size());
  for (std::size_t i = 0; i < rec.rst.size(); ++i) {
    cluster_->mds().register_file(
        r2f.physical(i),
        pfs::make_tiered_layout(tier_counts_, rec.rst.entry(i).stripes, {},
                                options_.reserved));
  }
  ++epochs_installed_;
  metrics_.add(m_epochs_, obs::LabelSet{}.region(epoch), 1.0);
  adaptive_event(AdaptiveEvent::kEpochInstalled, epoch, rec.affected_extent,
                 now);
  Bytes scheduled = 0;
  for (const auto& [b, e] : rec.changed_ranges) scheduled += e - b;
  adaptive_event(AdaptiveEvent::kMigrationStarted, epoch, scheduled, now);
  migration_->start(rec.changed_ranges, epoch, options_.migrate_bandwidth,
                    options_.migrate_chunk, [this, epoch](Bytes moved) {
                      adaptive_event(AdaptiveEvent::kMigrationFinished, epoch,
                                     moved, cluster_->simulator().now());
                    });
  if (epoch_hook_) epoch_hook_(epoch);
}

// --- results -----------------------------------------------------------------

AdaptiveLayoutManager::Summary AdaptiveLayoutManager::summary() const {
  Summary s;
  s.epochs_installed = epochs_installed_;
  s.windows_analyzed = windows_offset_ + advisor_.windows_analyzed();
  s.recommendations = recommendations_;
  s.recommendations_deferred = deferred_;
  if (migration_ != nullptr) {
    s.migrated_bytes = migration_->migrated_bytes();
    s.migration_chunks = migration_->chunks_copied();
    s.migration_interference = migration_->interference();
  }
  s.cost_evals = evals_offset_ + advisor_.cost_evals();
  s.cost_evals_saved = evals_saved_offset_ + advisor_.cost_evals_saved();
  return s;
}

core::Plan AdaptiveLayoutManager::latest_plan() const {
  core::Plan plan;
  plan.rst = advisor_.current();
  plan.tier_counts = tier_counts_;
  plan.calibration_fingerprint = core::params_fingerprint(params_);
  plan.regions_before_merge = plan.rst.size();
  plan.regions_after_merge = plan.rst.size();
  plan.cache = options_.cache_spec;
  return plan;
}

}  // namespace harl::mw
