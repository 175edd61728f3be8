#include "src/pfs/client.hpp"

#include <stdexcept>
#include <utility>

#include "src/pfs/cache_manager.hpp"
#include "src/pfs/replication.hpp"

namespace harl::pfs {

Client::Client(sim::Simulator& sim, net::Network& network,
               std::vector<DataServer*> servers, std::size_t id)
    : sim_(sim), network_(network), servers_(std::move(servers)), id_(id) {
  if (servers_.empty()) throw std::invalid_argument("client needs servers");
}

void Client::attach_observer() {
  if (obs::Sink* obs = sim_.observer(); obs != nullptr) {
    obs->register_client(static_cast<std::uint32_t>(id_));
    observed_ = true;
  }
}

void Client::io(const Layout& layout, IoOp op, Bytes offset, Bytes size,
                sim::InlineTask on_complete, std::uint32_t file,
                const ReplicaMap* replicas) {
  ++requests_issued_;
  if (size == 0) {
    sim_.schedule_after(0.0, std::move(on_complete));
    return;
  }
  obs::Sink* obs = observed_ ? sim_.observer() : nullptr;

  // Cache stage.  Replicated traffic bypasses the read cache: after a
  // failure the cache's fill sources may include the failed server, and
  // rebuild writes do not flow through this invalidation hook — routing
  // around the cache keeps the degraded path self-consistent.
  if (replicas == nullptr && cache_ != nullptr && cache_->enabled())
      [[unlikely]] {
    if (op == IoOp::kRead) {
      // The cache fronts the whole file request: hits read from the cache
      // devices, miss runs map through the layout inside the manager (which
      // also makes the per-piece sub attributions).
      const std::uint32_t req =
          open_request(obs, op, offset, size, file, on_complete);
      auto join =
          std::make_shared<sim::JoinCounter>(1, std::move(on_complete));
      cache_->issue_read(id_, layout, offset, size, join, obs, req, file);
      return;
    }
    cache_->invalidate(offset, size, file);
  }

  auto subs = layout.map(offset, size);
  if (subs.empty()) throw std::logic_error("layout mapped request to nothing");
  // Validate every target before issuing anything: a throw must not leave
  // earlier legs in flight under a join that can never complete.
  for (const auto& sub : subs) {
    if (sub.server >= servers_.size()) {
      throw std::out_of_range("layout references unknown server");
    }
  }
  if (replicas != nullptr) [[unlikely]] route(op, subs, *replicas);

  const std::uint32_t req =
      open_request(obs, op, offset, size, file, on_complete);
  auto join =
      std::make_shared<sim::JoinCounter>(subs.size(), std::move(on_complete));
  for (const auto& sub : subs) {
    const std::uint32_t osub =
        obs != nullptr
            ? obs->begin_sub(req, static_cast<std::uint32_t>(sub.server),
                             sub.object, sub.size, sim_.now())
            : obs::kNoId;
    issue(op, sub, join, osub);
  }
}

std::uint32_t Client::open_request(obs::Sink* obs, IoOp op, Bytes offset,
                                   Bytes size, std::uint32_t file,
                                   sim::InlineTask& on_complete) {
  if (obs == nullptr) return obs::kNoId;
  const std::uint32_t req = obs->begin_request(
      static_cast<std::uint32_t>(id_), op, offset, size, sim_.now(), file);
  // The wrapper captures a whole InlineTask and so spills to the heap; only
  // observed runs pay.
  on_complete = [this, req, done = std::move(on_complete)]() mutable {
    sim_.observer()->end_request(req, sim_.now());
    done();
  };
  return req;
}

void Client::route(IoOp op, std::vector<SubRequest>& subs,
                   const ReplicaMap& replicas) {
  const Seconds now = sim_.now();
  std::vector<SubRequest> legs;
  legs.reserve(op == IoOp::kRead ? subs.size() : 2 * subs.size());
  std::uint64_t replica_legs = 0;
  for (const auto& sub : subs) {
    const bool primary_alive = !servers_[sub.server]->failed(now);
    if (primary_alive) legs.push_back(sub);
    if (primary_alive && op == IoOp::kRead) continue;
    legs.push_back(replicas.replica_of(sub));
    if (legs.back().server >= servers_.size()) {
      throw std::out_of_range("replica map references unknown server");
    }
    ++replica_legs;
  }
  (op == IoOp::kRead ? degraded_reads_ : replica_writes_) += replica_legs;
  subs = std::move(legs);
}

void Client::issue(IoOp op, const SubRequest& sub,
                   const std::shared_ptr<sim::JoinCounter>& join,
                   std::uint32_t osub) {
  DataServer* server = servers_[sub.server];
  if (op == IoOp::kRead) {
    // read: server disk -> server NIC -> client NIC.
    const std::size_t server_idx = sub.server;
    const Bytes bytes = sub.size;
    server->submit(
        IoOp::kRead, sub.object, sub.server_offset, bytes, sub.pieces,
        [this, server_idx, bytes, osub, join] {
          network_.transfer(id_, server_idx, bytes,
                            net::Direction::kServerToClient,
                            [this, osub, join] {
                              if (osub != obs::kNoId) [[unlikely]] {
                                sim_.observer()->sub_net_done(osub,
                                                              sim_.now());
                              }
                              join->done();
                            });
        },
        osub);
    return;
  }
  // write: client NIC -> server NIC -> server disk.  Packed continuation:
  // capturing the whole SubRequest would overflow InlineTask's in-place
  // buffer, so only the fields the server needs ride along (56 bytes — the
  // sizing case for InlineTask::kCapacity).
  struct SubmitAfterTransfer {
    DataServer* server;
    Bytes server_offset;
    Bytes size;
    std::shared_ptr<sim::JoinCounter> join;
    std::uint32_t object;
    std::uint32_t pieces;
    IoOp op;
    std::uint32_t osub;
    void operator()() {
      server->submit(
          op, object, server_offset, size, pieces,
          [join = std::move(join)] { join->done(); }, osub);
    }
  };
  static_assert(sizeof(SubmitAfterTransfer) <= sim::InlineTask::kCapacity,
                "write continuation must stay in InlineTask's buffer");
  network_.transfer(id_, sub.server, sub.size, net::Direction::kClientToServer,
                    SubmitAfterTransfer{server, sub.server_offset, sub.size,
                                        join, sub.object,
                                        static_cast<std::uint32_t>(sub.pieces),
                                        op, osub});
}

}  // namespace harl::pfs
