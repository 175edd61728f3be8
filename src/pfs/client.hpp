// PFS client: issues file requests on behalf of application processes.
//
// A client splits a request via the file's layout into per-server
// sub-requests, then drives the data path:
//   read : server disk -> server NIC -> client NIC -> done (per sub-request)
//   write: client NIC -> server NIC -> server disk -> done
// The request completes when its last sub-request completes (the cost
// model's "maximal cost of all sub-requests").
//
// Namespace identity: io() carries the FileId of the logical file the
// request addresses (obs::kNoId on the legacy single-file path), which flows
// into request attribution (per-file/per-tenant metrics) and the cache's
// (file, chunk) directory keys.
//
// Every request runs one pipeline: cache stage -> layout map -> validate ->
// route -> issue.  With a ReplicaMap attached the request skips the cache and
// the route stage fans it out: writes land on primary and replica, reads
// whose primary server has failed are transparently redirected to the
// replica (degraded reads) — both over the same simulated queues and NICs
// as ordinary traffic.  Observation only adds attribution hooks; it never
// changes which legs are issued or when.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/io.hpp"
#include "src/net/network.hpp"
#include "src/pfs/data_server.hpp"
#include "src/pfs/layout.hpp"
#include "src/sim/simulator.hpp"

namespace harl::pfs {

class CacheManager;
class ReplicaMap;

class Client {
 public:
  /// `servers` must outlive the client; `id` indexes the client's NIC link
  /// in `network` (one link per compute node).
  Client(sim::Simulator& sim, net::Network& network,
         std::vector<DataServer*> servers, std::size_t id);

  /// Issues one file request against `layout`; `on_complete` fires when all
  /// sub-requests have finished.  Zero-byte requests complete immediately
  /// (next event-loop turn).  `file` is the namespace FileId for attribution
  /// (kNoId = legacy single-file, suppressing per-file accounting);
  /// `replicas` (optional, must outlive the request) routes the request
  /// through the replicated path.
  void io(const Layout& layout, IoOp op, Bytes offset, Bytes size,
          sim::InlineTask on_complete, std::uint32_t file = obs::kNoId,
          const ReplicaMap* replicas = nullptr);

  /// Registers this client with the simulator's observer: every subsequent
  /// io() records request/sub-request attribution (T_X/T_S/T_T).  Call once,
  /// before any traffic.
  void attach_observer();

  /// Routes reads homed on cache-fronted servers through `cache` (and
  /// write-invalidates through it); nullptr restores the direct path.  The
  /// manager must outlive the client.
  void set_cache(CacheManager* cache) { cache_ = cache; }

  std::size_t id() const { return id_; }
  std::uint64_t requests_issued() const { return requests_issued_; }
  /// Read sub-requests redirected to a replica because the primary server
  /// had failed (replicated path only).
  std::uint64_t degraded_reads() const { return degraded_reads_; }
  /// Replica copies written (one per primary sub on the replicated path).
  std::uint64_t replica_writes() const { return replica_writes_; }

 private:
  /// Opens the request's observability bracket (kNoId when unobserved) and
  /// wraps `on_complete` so it closes the bracket first.
  std::uint32_t open_request(obs::Sink* obs, IoOp op, Bytes offset, Bytes size,
                             std::uint32_t file, sim::InlineTask& on_complete);
  /// Replaces `subs` by the legs the replicated path serves them with: a
  /// read goes to its replica when the primary has failed, a write goes to
  /// the primary while it is alive plus the replica.  Throws before touching
  /// any counter when a replica target names an unknown server.
  void route(IoOp op, std::vector<SubRequest>& subs,
             const ReplicaMap& replicas);
  /// Drives one validated leg through the data path; `osub` is its
  /// observability sub-request (kNoId when unobserved).
  void issue(IoOp op, const SubRequest& sub,
             const std::shared_ptr<sim::JoinCounter>& join, std::uint32_t osub);

  sim::Simulator& sim_;
  net::Network& network_;
  std::vector<DataServer*> servers_;
  std::size_t id_;
  std::uint64_t requests_issued_ = 0;
  std::uint64_t degraded_reads_ = 0;
  std::uint64_t replica_writes_ = 0;
  bool observed_ = false;
  CacheManager* cache_ = nullptr;
};

}  // namespace harl::pfs
