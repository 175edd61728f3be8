// In-flight job set of one resource, for the exact queue depth at each
// arrival.  The recorder keeps one per track; a server disk's depth feeds
// both the recorder's depth timeline and the health monitor's per-window
// depth maxima.
//
// Finish times are kept sorted in a deque.  A FIFO resource finishes its
// jobs in arrival order, so an admit is an append and expiry pops the front:
// O(1) per job, where a min-heap pays O(log depth) twice.  Any other finish
// order stays exact, only slower.
#pragma once

#include <algorithm>
#include <cstddef>
#include <deque>

#include "src/common/units.hpp"

namespace harl::obs {

class InflightJobs {
 public:
  /// Retires the jobs finished by `arrival` (per-resource arrivals are
  /// monotone in a DES), admits one finishing at `finish`, and returns the
  /// in-flight count including it.
  std::size_t admit(Seconds arrival, Seconds finish) {
    while (!finish_.empty() && finish_.front() <= arrival) finish_.pop_front();
    if (finish_.empty() || finish_.back() <= finish) {
      finish_.push_back(finish);
    } else {
      finish_.insert(std::upper_bound(finish_.begin(), finish_.end(), finish),
                     finish);
    }
    return finish_.size();
  }

 private:
  std::deque<Seconds> finish_;  ///< ascending
};

}  // namespace harl::obs
