// Per-candidate request-cost memoization (request-class coalescing).
//
// The cost model is a pure function of (op, size, offset mod S) for a fixed
// stripe candidate, where S is the candidate's striping period (M*h + N*s,
// or sum count_j * stripe_j for the k-tier model): every quantity the
// geometry derives — l_b, l_e and the full-period count — depends on the
// offset only through its residue mod S.  Algorithm 2 therefore wastes most
// of its time re-deriving identical costs: an IOR-style region issues
// thousands of same-sized requests whose offsets fall into a handful of
// residue classes per candidate.
//
// CostMemo caches the cost per (op, size, residue) class in a flat
// open-addressing table that is logically cleared (generation counter, no
// memset) for each new candidate.  The scorer still walks the sampled
// requests *in their original order*, adding the per-request cost exactly
// as the brute-force loop would and only skipping the recomputation on a
// class hit.  Because the cached value is
// bit-identical to what request_cost would return (same pure function, same
// arguments modulo the period), the accumulated totals — and therefore the
// chosen stripes, tie-breaks included — are bit-identical to the
// brute-force path.  That is what lets coalescing be on by default and lets
// tests assert exact plan equality.
//
// Accounting: misses() counts kernel evaluations (the optimizer's
// cost_evals) and hits() the lookups served from the table
// (cost_evals_saved).  The optimizer may abandon a candidate part-way once
// it provably loses (stripe_optimizer.hpp); the requests it then never
// looks up are its requests_skipped, so per search
//   misses + hits + requests_skipped == candidates * sampled requests.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/common/io.hpp"
#include "src/common/units.hpp"

namespace harl::core {

class CostMemo {
 public:
  /// Starts a new candidate: logically clears the table.  `expected_keys`
  /// sizes the table (typically the sampled request count); capacity is
  /// kept across candidates so steady-state reset is O(1).  `context`
  /// extends the class key beyond (op, size, residue) — the device-aware
  /// optimizer passes a hash of the candidate's member-device selection so
  /// two candidates with equal periods but different member sets never
  /// coalesce.  The default 0 preserves the pre-device behaviour exactly.
  void reset(std::size_t expected_keys, std::uint64_t context = 0) {
    context_ = context;
    const std::size_t want = table_size_for(expected_keys);
    if (slots_.size() < want) {
      slots_.assign(want, Slot{});
      mask_ = want - 1;
      generation_ = 1;
      return;
    }
    if (++generation_ == 0) {  // wrapped: hard-clear once every 2^32 resets
      slots_.assign(slots_.size(), Slot{});
      generation_ = 1;
    }
  }

  /// Returns the cached cost of class (op, size, residue), computing it via
  /// `compute` on the first encounter.  `compute` receives the residue and
  /// must be deterministic.
  template <typename Fn>
  Seconds cost(IoOp op, Bytes size, Bytes residue, Fn&& compute) {
    const std::uint64_t hash = mix(op, size, residue) ^ context_;
    std::size_t idx = static_cast<std::size_t>(hash) & mask_;
    for (;;) {
      Slot& slot = slots_[idx];
      if (slot.generation != generation_) {  // empty in this candidate
        slot.generation = generation_;
        slot.residue = residue;
        slot.size = size;
        slot.op = op;
        slot.cost = compute(residue);
        ++misses_;
        return slot.cost;
      }
      if (slot.residue == residue && slot.size == size && slot.op == op) {
        ++hits_;
        return slot.cost;
      }
      idx = (idx + 1) & mask_;  // linear probe; load factor <= 1/2
    }
  }

  /// Classes scored (one request_cost evaluation each).
  std::uint64_t misses() const { return misses_; }
  /// Lookups served from the cache (evaluations saved vs brute force).
  std::uint64_t hits() const { return hits_; }

 private:
  struct Slot {
    Bytes residue = 0;
    Bytes size = 0;
    Seconds cost = 0.0;
    std::uint32_t generation = 0;  // 0 = never used
    IoOp op = IoOp::kRead;
  };

  static std::size_t table_size_for(std::size_t keys) {
    std::size_t size = 16;
    while (size < 2 * keys) size *= 2;  // load factor <= 1/2
    return size;
  }

  static std::uint64_t mix(IoOp op, Bytes size, Bytes residue) {
    std::uint64_t h = residue * 0x9E3779B97F4A7C15ULL;
    h ^= size * 0xC2B2AE3D27D4EB4FULL;
    h ^= h >> 29;
    h += op == IoOp::kWrite ? 0x165667B19E3779F9ULL : 0;
    return h ^ (h >> 32);
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  std::uint64_t context_ = 0;
  std::uint32_t generation_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace harl::core
