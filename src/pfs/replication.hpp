// Per-region replica placement for degraded reads and rebuild traffic.
//
// One failure domain is a whole data server (DataServer::set_failed_at).  To
// keep reads available through a failure, every primary sub-request has a
// deterministic *replica* image on a different server: the same server-local
// extent, stored under a replica object id so it never aliases the primary
// object on a shared device.  Writes go to primary and replica; after a
// failure, reads of subs homed on the failed server are redirected to the
// replica (pfs::Client's degraded path), and the rebuild plane re-reads the
// failed server's share from replicas over the real simulated servers.
//
// Placement is per *region* (the sub-request's object id is the region index
// under the R2F mapping): `region_tiers` assigns each region a replica tier,
// chosen by the caller — mw::choose_replica_tiers() consults the cost model
// per planned region (this module stays below core, so the chooser lives in
// the middleware).  Within the chosen tier the replica rotates by primary
// server and region (chained declustering), so one server's failure spreads
// its replica load across the whole tier instead of doubling one
// neighbour's traffic.  Without a tier table the map chains over the whole
// cluster — the fallback for non-plan layouts and unknown objects.
//
// Determinism: a ReplicaMap is immutable after construction; replica_of()
// does no I/O and holds no mutable state, so degraded routing is
// deterministic.
#pragma once

#include <cstdint>
#include <vector>

#include "src/pfs/layout.hpp"

namespace harl::pfs {

class ReplicaMap {
 public:
  /// Object-id offset of replica objects.  Foreground epoch objects stay
  /// below EpochedLayout::kObjectsPerEpoch * max_epochs (< 1 << 20) and the
  /// cache area sits at 1 << 22, so the replica band [1 << 21, 1 << 22) is
  /// distinct from both on any shared device.
  static constexpr std::uint32_t kReplicaObject = 1u << 21;

  /// Region part of a sub-request object id (EpochedLayout partitions object
  /// ids as epoch * kObjectsPerEpoch + region), so every epoch of a region
  /// shares one replica home.
  static constexpr std::uint32_t kObjectsPerEpoch = 4096;

  /// Chained declustering over `server_count` servers: region r of primary
  /// server p replicates on (p + 1 + r) % server_count.  Requires >= 2
  /// servers.
  static ReplicaMap chained(std::size_t server_count);

  /// Tier-aware placement: region r's replica lands in tier
  /// `region_tiers[r]` of the `tier_counts` topology (global indices
  /// contiguous per tier, in order), rotated within the tier by primary
  /// server and region.  Regions beyond the table — and primaries whose
  /// chosen tier cannot host a distinct replica — fall back to
  /// whole-cluster chaining.  Requires >= 2 servers in total.
  static ReplicaMap tiered(const std::vector<std::size_t>& tier_counts,
                           std::vector<std::uint32_t> region_tiers);

  /// The replica image of a primary sub-request: same extent and piece
  /// count, replica object id, placed per the region's replica tier.  The
  /// returned sub is served exactly like a primary (same queues and NICs),
  /// so replicated writes and degraded reads pay honest simulated cost.
  SubRequest replica_of(const SubRequest& sub) const;

  /// Server hosting the replica of (primary `server`, object `object`).
  std::size_t replica_server(std::size_t server, std::uint32_t object) const;

  std::size_t server_count() const { return server_count_; }
  /// Per-region replica tiers (empty for chained maps); index = region id.
  const std::vector<std::uint32_t>& region_tiers() const {
    return region_tiers_;
  }

 private:
  ReplicaMap() = default;

  std::size_t server_count_ = 0;
  std::vector<std::size_t> tier_counts_;   ///< empty for flat chained maps
  std::vector<std::size_t> tier_begin_;    ///< per-tier first global index
  std::vector<std::uint32_t> region_tiers_;
};

}  // namespace harl::pfs
