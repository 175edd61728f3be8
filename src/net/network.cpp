#include "src/net/network.hpp"

#include <stdexcept>
#include <string>
#include <utility>

#include "src/obs/sink.hpp"

namespace harl::net {

NetworkParams gigabit_ethernet() {
  // 1 Gb/s minus protocol overhead: ~117 MB/s effective; per-message cost
  // reflects pipelined TCP streaming rather than a full round trip.
  return NetworkParams{1.0 / (117.0 * 1024.0 * 1024.0), 40e-6};
}

NetworkParams ten_gigabit_ethernet() {
  return NetworkParams{1.0 / (1170.0 * 1024.0 * 1024.0), 20e-6};
}

Network::Network(sim::Simulator& sim, NetworkParams params,
                 std::size_t num_clients, std::size_t num_servers)
    : sim_(sim), params_(params) {
  if (num_clients == 0 || num_servers == 0) {
    throw std::invalid_argument("network needs >= 1 client and server link");
  }
  client_links_.reserve(num_clients);
  for (std::size_t i = 0; i < num_clients; ++i) {
    client_links_.push_back(std::make_unique<sim::FifoResource>(
        sim, "client_nic_" + std::to_string(i)));
  }
  server_links_.reserve(num_servers);
  for (std::size_t i = 0; i < num_servers; ++i) {
    server_links_.push_back(std::make_unique<sim::FifoResource>(
        sim, "server_nic_" + std::to_string(i)));
  }
}

void Network::attach_observer() {
  obs::Sink* obs = sim_.observer();
  if (obs == nullptr) return;
  for (std::size_t i = 0; i < client_links_.size(); ++i) {
    client_links_[i]->set_obs_track(
        obs->track(client_links_[i]->name(), obs::TrackKind::kClientNic,
                   static_cast<std::uint32_t>(i)));
  }
  for (std::size_t i = 0; i < server_links_.size(); ++i) {
    server_links_[i]->set_obs_track(
        obs->track(server_links_[i]->name(), obs::TrackKind::kServerNic,
                   static_cast<std::uint32_t>(i)));
  }
}

void Network::two_hop(sim::FifoResource& src, sim::FifoResource& dst,
                      Seconds hop, sim::InlineTask on_done) {
  // Store-and-forward: the payload serializes on the source link, then on
  // the destination link.  The completion task is parked in the simulator's
  // arena and chained by its 4-byte handle — capturing the task itself would
  // push both chaining lambdas past InlineTask's in-place buffer and cost a
  // heap allocation per transfer.
  const sim::Simulator::TaskHandle done = sim_.park(std::move(on_done));
  sim::Simulator* sim = &sim_;
  src.submit(hop, [sim, &dst, hop, done] {
    dst.submit(hop, [sim, done] { sim->fire_parked(done); });
  });
}

void Network::transfer(std::size_t client, std::size_t server, Bytes size,
                       Direction dir, sim::InlineTask on_done) {
  sim::FifoResource& src = dir == Direction::kClientToServer
                               ? client_link(client)
                               : server_link(server);
  sim::FifoResource& dst = dir == Direction::kClientToServer
                               ? server_link(server)
                               : client_link(client);
  two_hop(src, dst, wire_time(size), std::move(on_done));
}

void Network::client_transfer(std::size_t from, std::size_t to, Bytes size,
                              sim::InlineTask on_done) {
  if (from == to) {
    sim_.schedule_after(0.0, std::move(on_done));
    return;
  }
  two_hop(client_link(from), client_link(to), wire_time(size),
          std::move(on_done));
}

NetworkParams profile_network(const NetworkParams& actual, int samples,
                              Bytes probe_size) {
  if (samples < 1) throw std::invalid_argument("samples must be >= 1");
  if (probe_size < 2) throw std::invalid_argument("probe_size too small");

  // One client node, one server node, as in the paper's estimation setup.
  const Bytes small = probe_size / 2;
  Seconds total[2] = {0.0, 0.0};
  const Bytes sizes[2] = {small, probe_size};
  for (int which = 0; which < 2; ++which) {
    sim::Simulator sim;
    Network nw(sim, actual, 1, 1);
    for (int i = 0; i < samples; ++i) {
      // Sequential ping-style transfers; each is independent because the
      // simulator drains between submissions.
      nw.transfer(0, 0, sizes[which], Direction::kServerToClient, [] {});
      sim.run();
    }
    total[which] = sim.now();
  }

  // Each transfer crosses two links: T(s) = 2*latency + 2*s*per_byte.
  const double n = static_cast<double>(samples);
  const double t_small = total[0] / n;
  const double t_large = total[1] / n;
  NetworkParams fitted;
  fitted.per_byte = (t_large - t_small) /
                    (2.0 * static_cast<double>(sizes[1] - sizes[0]));
  fitted.message_latency =
      (t_small - 2.0 * static_cast<double>(sizes[0]) * fitted.per_byte) / 2.0;
  return fitted;
}

}  // namespace harl::net
