// Epoch-versioned adaptive layout manager (paper Section V future work:
// "explore on-line data layout and data migration methods").
//
// The offline HARL pipeline installs one plan and never looks back; this
// manager closes the loop at runtime.  The file's ProgramRunner feeds it one
// TraceRecord per completed foreground request (RunnerOptions::on_request),
// which it passes to an OnlineAdvisor.  When a window's re-optimization
// clears the advisor's min_gain gate, the manager
//   1. stacks the new RST as the next epoch of the file's EpochedLayout
//      (requests keep resolving against the epoch owning their byte range),
//   2. registers the epoch's per-region physical files at the MDS
//      (RegionFileMap::for_epoch names), and
//   3. hands the recommendation's changed ranges to a MigrationEngine that
//      copies them region-read/region-write through the *real* simulated
//      data servers and network — chunked, bandwidth-throttled, and flipping
//      ownership chunk-by-chunk as each copy lands — so adaptation pays its
//      full modeled cost in competition with foreground traffic.
//
// Everything runs inside the one deterministic event loop: an adaptive run
// is bit-identical at any harness pool width, and all adaptive/migration
// counters live in the manager's own MetricsRegistry so they merge
// order-independently into the run's recorder.  Epoch and migration
// instants go to the simulator's observer, when one is installed.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/core/online_advisor.hpp"
#include "src/core/planner.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/sink.hpp"
#include "src/pfs/cluster.hpp"
#include "src/pfs/epoch_layout.hpp"
#include "src/trace/record.hpp"

namespace harl::mw {

struct AdaptiveOptions {
  /// Advisor tuning: window size, min_gain gate and planner options for the
  /// per-window re-optimization.
  core::OnlineAdvisor::Options advisor;
  /// Migration throttle (bytes of copied data per simulated second): the
  /// next chunk is issued no earlier than issue + chunk/bandwidth, so a
  /// chunk's pacing is max(copy time, chunk/bandwidth).
  double migrate_bandwidth = 256.0 * static_cast<double>(MiB);
  /// Bytes copied per migration round trip (read then write), clamped to
  /// ownership-run boundaries.
  Bytes migrate_chunk = 4 * MiB;
  /// Upper bound on stacked epochs (EpochedLayout's object partition allows
  /// kObjectsPerEpoch regions each); further recommendations are deferred.
  std::size_t max_epochs = 16;
  /// Per-tier cache-device reservation (Plan::cache of a cache-aware offline
  /// analysis): tier j's first reserved[j] servers are withheld from every
  /// epoch's region layout, and the advisor re-optimizes windows against the
  /// unreserved fleet so recommendations stay consistent with epoch 0.
  /// Empty = no reservation (the pre-cache behaviour, bit for bit).
  std::vector<std::size_t> reserved;
  /// Cache spec carried into latest_plan() so an artifact saved after an
  /// adaptive run resumes with the same reservation.
  std::optional<core::PlanCacheSpec> cache_spec;
  /// Mid-run data-server failure (rebuild-storm runs).  From simulated time
  /// `at` on, the advisor re-optimizes windows against cost parameters whose
  /// failed slot carries an effectively infinite device factor, so the
  /// device-aware member-prefix search prices the degraded server out of
  /// every new epoch — the same mechanism that routes around workload drift
  /// also routes around the failure.  The failed server must be the *last*
  /// slot of its tier (device factors are canonical ascending, so only the
  /// trailing slot can be excluded by a member prefix).
  struct FailSpec {
    std::size_t tier = 0;  ///< 0 = HServer tier, 1 = SServer tier
    Seconds at = 0.0;      ///< failure instant (simulated seconds)
  };
  std::optional<FailSpec> fail;
};

/// Background copier for one adopted recommendation.  Owns a private PFS
/// client that is *not* attach_observer'd: migration traffic still queues on
/// real server disks, NICs and the shared client-0 node link (that is the
/// interference), and per-server accounting sees it, but it produces no
/// request attribution, and no runner feeds its chunks to the advisor — so
/// it never feeds back into the advisor's window.
class MigrationEngine {
 public:
  MigrationEngine(pfs::Cluster& cluster,
                  std::shared_ptr<pfs::EpochedLayout> layout);

  /// Starts copying `ranges` (byte spans of the logical file) into `epoch`.
  /// `on_done(bytes_moved)` fires when the last chunk's ownership flips.
  /// Only one migration may be active at a time.
  void start(std::vector<std::pair<Bytes, Bytes>> ranges, std::uint32_t epoch,
             double bandwidth, Bytes chunk, std::function<void(Bytes)> on_done);

  bool active() const { return active_; }
  Bytes migrated_bytes() const { return migrated_bytes_; }
  std::uint64_t chunks_copied() const { return chunks_copied_; }
  /// Total simulated seconds migration chunks were in flight (read issue to
  /// ownership flip) — the window in which they contend with foreground I/O.
  Seconds interference() const { return interference_; }

  /// Per-chunk completion hook (target epoch, bytes, in-flight seconds, now);
  /// the manager uses it to stream per-epoch migration metrics.
  using ChunkHook =
      std::function<void(std::uint32_t, Bytes, Seconds, Seconds)>;
  void set_chunk_hook(ChunkHook hook) { chunk_hook_ = std::move(hook); }

 private:
  void next_chunk();

  sim::Simulator& sim_;
  pfs::Client client_;
  std::shared_ptr<pfs::EpochedLayout> layout_;

  std::vector<std::pair<Bytes, Bytes>> pending_;  ///< consumed back-to-front
  std::shared_ptr<const pfs::Layout> target_view_;
  std::uint32_t target_epoch_ = 0;
  double bandwidth_ = 0.0;
  Bytes chunk_ = 0;
  std::function<void(Bytes)> on_done_;
  ChunkHook chunk_hook_;

  bool active_ = false;
  Bytes batch_bytes_ = 0;
  Bytes migrated_bytes_ = 0;
  std::uint64_t chunks_copied_ = 0;
  Seconds interference_ = 0.0;
};

class AdaptiveLayoutManager {
 public:
  /// Adaptive run counters (also exported as metric families).
  struct Summary {
    std::size_t epochs_installed = 0;  ///< beyond epoch 0
    std::size_t windows_analyzed = 0;
    std::size_t recommendations = 0;
    /// Recommendations that cleared min_gain but arrived while a migration
    /// was still draining (or the epoch budget was spent).
    std::size_t recommendations_deferred = 0;
    Bytes migrated_bytes = 0;
    std::uint64_t migration_chunks = 0;
    Seconds migration_interference = 0.0;
    std::uint64_t cost_evals = 0;
    std::uint64_t cost_evals_saved = 0;
  };

  /// `epoch0` is the offline plan's RST (what HarlDriver would install).
  AdaptiveLayoutManager(core::CostParams params,
                        core::RegionStripeTable epoch0,
                        AdaptiveOptions options);

  /// "Install epoch 0": builds the EpochedLayout over the cluster's tier
  /// shape, registers the logical file and epoch-0 physical region files at
  /// the MDS, and arms the migration engine.  Returns the live facade to run
  /// programs against (it resolves every request at issue time, so epoch
  /// swaps take effect mid-run).
  std::shared_ptr<const pfs::Layout> install(pfs::Cluster& cluster,
                                             const std::string& logical_name);

  /// One completed foreground request of this file (pid = rank = the
  /// issuing client, t_start = the instant Client::io was called, t_end =
  /// completion); may install an epoch and start its migration.  Wire it to
  /// the file's ProgramRunner through RunnerOptions::on_request.
  void feed(const trace::TraceRecord& record);

  // --- results -------------------------------------------------------------

  Summary summary() const;
  const pfs::EpochedLayout* layout() const { return epoched_.get(); }

  /// The latest epoch as a Plan (RST + tier shape + calibration
  /// fingerprint), suitable for HarlDriver::save_plan — a restart from the
  /// artifact resumes from where adaptation left off.
  core::Plan latest_plan() const;

  /// Adaptive/migration metric families (adaptive.*, migration.*).  Counters
  /// only, so merging into a recorder's registry is order-independent; call
  /// after the run, e.g. recorder.metrics().merge(manager.metrics()).
  const obs::MetricsRegistry& metrics() const { return metrics_; }

  /// Epoch-adoption hook, fired (with the new epoch id) right after a
  /// recommendation is installed and its migration armed.  The experiment
  /// runner points it at pfs::CacheManager::on_epoch so the read cache drops
  /// its stale directory and re-splits its budget at every epoch boundary.
  using EpochHook = std::function<void(std::uint32_t)>;
  void set_epoch_hook(EpochHook hook) { epoch_hook_ = std::move(hook); }

  /// True once the failure instant has passed and the advisor was rebuilt
  /// against the degraded fleet (FailSpec set only).
  bool degraded_active() const { return degraded_applied_; }

 private:
  void handle(const core::OnlineAdvisor::Recommendation& rec, Seconds now);
  /// Epoch/migration instant to the simulator's observer, if any.
  void emit(obs::Sink::AdaptiveEvent event, std::uint32_t epoch, Bytes bytes,
            Seconds now);

  core::CostParams params_;
  AdaptiveOptions options_;
  core::OnlineAdvisor advisor_;

  pfs::Cluster* cluster_ = nullptr;
  std::string logical_name_;
  std::vector<std::size_t> tier_counts_;
  std::shared_ptr<pfs::EpochedLayout> epoched_;
  std::unique_ptr<MigrationEngine> migration_;

  EpochHook epoch_hook_;
  bool degraded_applied_ = false;
  /// Advisor counter totals carried across the degraded-advisor swap.
  std::size_t windows_offset_ = 0;
  std::uint64_t evals_offset_ = 0;
  std::uint64_t evals_saved_offset_ = 0;
  std::uint64_t last_cost_evals_ = 0;
  std::uint64_t last_cost_evals_saved_ = 0;
  std::size_t epochs_installed_ = 0;
  std::size_t recommendations_ = 0;
  std::size_t deferred_ = 0;

  obs::MetricsRegistry metrics_;
  obs::MetricsRegistry::FamilyId m_epochs_;
  obs::MetricsRegistry::FamilyId m_windows_;
  obs::MetricsRegistry::FamilyId m_recs_;
  obs::MetricsRegistry::FamilyId m_deferred_;
  obs::MetricsRegistry::FamilyId m_evals_;
  obs::MetricsRegistry::FamilyId m_evals_saved_;
  obs::MetricsRegistry::FamilyId m_migrated_;
  obs::MetricsRegistry::FamilyId m_chunks_;
  obs::MetricsRegistry::FamilyId m_interference_;
  obs::MetricsRegistry::FamilyId m_degraded_;
};

}  // namespace harl::mw
