// FIFO service resources.
//
// A `FifoResource` models anything that serves one job at a time in arrival
// order with a service time known at submission: a disk spindle, an SSD
// channel, a NIC.  Because service times are fixed at submission, the queue
// can be represented by a single "next free" timestamp, which keeps the
// simulation O(log n) per job and deterministic.
//
// `JoinCounter` aggregates completion of a fan-out (a file request split into
// per-server sub-requests finishes when the last sub-request does).
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "src/sim/inline_task.hpp"
#include "src/sim/simulator.hpp"

namespace harl::sim {

class FifoResource {
 public:
  /// `name` is used only for diagnostics.
  FifoResource(Simulator& sim, std::string name);

  /// Enqueues a job with the given service time; `on_complete` fires at the
  /// simulated time the job finishes (queueing delay + service).
  /// Requires service >= 0.
  void submit(Seconds service, InlineTask on_complete);

  /// Time at which the resource next becomes free (== now when idle).
  Time next_free() const;

  /// Seconds this resource has spent (or is committed to spend) serving jobs.
  Seconds busy_time() const { return busy_; }

  /// Jobs submitted so far.
  std::uint64_t jobs() const { return jobs_; }

  /// Sum over jobs of (start - arrival): aggregate queueing delay.
  Seconds total_queue_delay() const { return queue_delay_; }

  const std::string& name() const { return name_; }

  /// Zeroes the busy/jobs/queue-delay counters (between experiment phases).
  /// The committed `next_free` horizon is preserved.
  void reset_stats();

  /// Fraction of [0, horizon] spent busy; horizon is usually the makespan.
  double utilization(Seconds horizon) const {
    return horizon > 0.0 ? busy_ / horizon : 0.0;
  }

  /// Binds this resource to a trace track of the simulator's observer; every
  /// subsequent job reports its arrival/start/finish.  With no observer (or
  /// no bound track) submit() performs one pointer comparison extra.
  void set_obs_track(std::uint32_t track) { obs_track_ = track; }
  std::uint32_t obs_track() const { return obs_track_; }

 private:
  Simulator& sim_;
  std::string name_;
  Time next_free_ = 0.0;
  Seconds busy_ = 0.0;
  Seconds queue_delay_ = 0.0;
  std::uint64_t jobs_ = 0;
  std::uint32_t obs_track_ = 0xFFFFFFFFu;  // obs::kNoId
};

/// Calls `on_all_done` once `expected` child completions have been reported.
/// Create via std::make_shared and capture the shared_ptr in each child's
/// completion callback; the counter frees itself when the last child fires.
class JoinCounter {
 public:
  JoinCounter(std::uint64_t expected, InlineTask on_all_done);

  /// Reports one child completion.  Must be called exactly `expected` times.
  void done();

  std::uint64_t remaining() const { return remaining_; }

 private:
  std::uint64_t remaining_;
  InlineTask on_all_done_;
};

}  // namespace harl::sim
