// A file server: one storage device behind a FIFO service queue.
//
// Sub-requests arrive from clients (already aggregated per server by the
// layout), queue on the device, and complete after the device's modelled
// service time.  Distinct physical objects (one per HARL region, via the R2F
// mapping) are placed at widely separated device offsets so the HDD
// sequentiality model never confuses extents of different objects.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "src/common/io.hpp"
#include "src/obs/sink.hpp"
#include "src/sim/resource.hpp"
#include "src/sim/simulator.hpp"
#include "src/storage/device.hpp"

namespace harl::pfs {

class DataServer {
 public:
  /// `per_stripe_overhead` is charged once per stripe unit of each access
  /// (PFS request-protocol/flow-buffer processing): the term that makes tiny
  /// stripes expensive for large requests (paper Fig. 1b).  `speed_factor`
  /// records the device's aging multiplier relative to its tier profile
  /// (1.0 = fresh); the cluster has already baked it into the device and the
  /// overhead — this copy is for observability only.
  DataServer(sim::Simulator& sim, std::unique_ptr<storage::StorageDevice> device,
             std::string name, bool is_ssd, Seconds per_stripe_overhead = 0.0,
             double speed_factor = 1.0);

  /// Queues one server-local access spanning `pieces` stripe units;
  /// `on_complete` fires when the device finishes it (FIFO after all
  /// previously queued accesses).  `obs_sub` optionally names the
  /// observability sub-request this access belongs to (obs::Sink::begin_sub),
  /// so the recorder can split the access into startup (T_S) and transfer
  /// (T_T) via the device's last_startup().
  void submit(IoOp op, std::uint32_t object, Bytes offset, Bytes size,
              Bytes pieces, sim::InlineTask on_complete,
              std::uint32_t obs_sub = obs::kNoId);

  /// Registers this server with the simulator's observer under global server
  /// index `server` and tier `tier`; binds the storage queue to its trace
  /// track.  Call once, before any traffic.
  void attach_observer(std::uint32_t server, std::uint32_t tier);

  const std::string& name() const { return name_; }
  bool is_ssd() const { return is_ssd_; }
  /// Device aging multiplier relative to the tier profile (1.0 = fresh).
  double speed_factor() const { return speed_factor_; }
  storage::StorageDevice& device() { return *device_; }
  const storage::StorageDevice& device() const { return *device_; }

  /// Cumulative device busy time: the per-server "I/O time" reported in the
  /// paper's Fig. 1a.
  Seconds io_time() const { return queue_.busy_time(); }
  Seconds queue_delay() const { return queue_.total_queue_delay(); }
  std::uint64_t requests_served() const { return queue_.jobs(); }
  Bytes bytes_read() const { return bytes_read_; }
  Bytes bytes_written() const { return bytes_written_; }

  /// Clears statistics and device state between experiment phases.
  void reset_stats();

  /// Arms periodic service-time inflation (a GC-pause model): while
  /// fmod(sim.now(), period) < duration, every access's service time is
  /// multiplied by `factor` (>= 1: a pause never speeds the device up).
  /// Deterministic in simulated time.
  void set_gc_pause(Seconds period, Seconds duration, double factor) {
    gc_period_ = period;
    gc_duration_ = duration;
    gc_factor_ = factor;
  }

  /// Arms a whole-server failure at simulated time `at` (< 0 disarms).
  /// Like the GC-pause model, failure is a pure function of simulated time,
  /// so degraded routing is deterministic.  The server object stays alive
  /// (the queue would still drain in-flight work); callers are expected to
  /// stop routing to it instead.
  void set_failed_at(Seconds at) { failed_at_ = at; }
  Seconds failed_at() const { return failed_at_; }
  bool failed(Seconds now) const {
    return failed_at_ >= 0.0 && now >= failed_at_;
  }

 private:
  /// Device-address stride separating physical objects (regions).
  static constexpr Bytes kObjectStride = static_cast<Bytes>(1) << 40;

  sim::Simulator& sim_;
  std::unique_ptr<storage::StorageDevice> device_;
  std::string name_;
  bool is_ssd_;
  Seconds per_stripe_overhead_;
  double speed_factor_;
  sim::FifoResource queue_;
  Seconds gc_period_ = 0.0;    ///< 0 = GC-pause model disabled
  Seconds gc_duration_ = 0.0;
  double gc_factor_ = 1.0;
  Seconds failed_at_ = -1.0;   ///< < 0 = never fails
  Bytes bytes_read_ = 0;
  Bytes bytes_written_ = 0;
  std::uint32_t obs_server_ = obs::kNoId;  // global index under the observer
};

}  // namespace harl::pfs
