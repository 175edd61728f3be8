// Cluster interconnect model.
//
// The paper's testbed uses Gigabit Ethernet; its cost model reduces the
// network to a unit-byte transfer time `t` (Table I).  Here each endpoint
// (client NIC, server NIC) is a FIFO link resource; a transfer serializes on
// the source link and then on the destination link (store-and-forward).  This
// produces the two effects the evaluation depends on: a server NIC caps what
// one fast SSD server can deliver, and a client NIC caps what one process can
// ingest from many servers.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "src/common/units.hpp"
#include "src/sim/resource.hpp"
#include "src/sim/simulator.hpp"

namespace harl::net {

struct NetworkParams {
  Seconds per_byte = 0.0;        ///< `t` in the paper's Table I
  Seconds message_latency = 0.0; ///< fixed per-transfer overhead
};

/// Gigabit Ethernet: ~117 MB/s effective, ~80 us message latency.
NetworkParams gigabit_ethernet();

/// 10 GbE for sensitivity/extension experiments.
NetworkParams ten_gigabit_ethernet();

enum class Direction { kClientToServer, kServerToClient };

class Network {
 public:
  Network(sim::Simulator& sim, NetworkParams params, std::size_t num_clients,
          std::size_t num_servers);

  /// Moves `size` bytes between client `client` and server `server`;
  /// `on_done` fires when the last byte clears the destination link.
  void transfer(std::size_t client, std::size_t server, Bytes size,
                Direction dir, sim::InlineTask on_done);

  /// Client-to-client transfer (the shuffle phase of two-phase collective
  /// I/O).  Same-node transfers (from == to) complete on the next event-loop
  /// turn without consuming link time.
  void client_transfer(std::size_t from, std::size_t to, Bytes size,
                       sim::InlineTask on_done);

  const NetworkParams& params() const { return params_; }
  std::size_t num_clients() const { return client_links_.size(); }
  std::size_t num_servers() const { return server_links_.size(); }

  sim::FifoResource& client_link(std::size_t i) { return *client_links_.at(i); }
  sim::FifoResource& server_link(std::size_t i) { return *server_links_.at(i); }
  const sim::FifoResource& client_link(std::size_t i) const {
    return *client_links_.at(i);
  }
  const sim::FifoResource& server_link(std::size_t i) const {
    return *server_links_.at(i);
  }

  /// Registers one trace track per NIC link with the simulator's observer
  /// (client links as kClientNic, server links as kServerNic) and binds the
  /// links to them.  Call once, before any traffic.
  void attach_observer();

 private:
  Seconds wire_time(Bytes size) const {
    return params_.message_latency + static_cast<double>(size) * params_.per_byte;
  }

  void two_hop(sim::FifoResource& src, sim::FifoResource& dst, Seconds hop,
               sim::InlineTask on_done);

  sim::Simulator& sim_;
  NetworkParams params_;
  std::vector<std::unique_ptr<sim::FifoResource>> client_links_;
  std::vector<std::unique_ptr<sim::FifoResource>> server_links_;
};

/// Estimates the unit transfer time `t` the way the paper does: repeated
/// transfers between one client node and one server node, averaged.
/// Returns the fitted NetworkParams.
NetworkParams profile_network(const NetworkParams& actual, int samples = 1000,
                              Bytes probe_size = 1 * MiB);

}  // namespace harl::net
