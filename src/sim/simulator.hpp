// Discrete-event simulation core.
//
// The simulated hybrid PFS runs entirely inside this single-threaded,
// deterministic event loop: clients, servers, NICs and disks schedule
// callbacks at future simulated times.  Ties are broken by insertion order so
// runs are bit-reproducible regardless of platform.
//
// Throughput engineering (the Tracing/Running phases replay millions of
// events per figure):
//   * Callbacks are `InlineTask`s — no heap allocation per event for the
//     pointer-capturing lambdas the PFS model schedules.
//   * Tasks live in a slab arena of stable slots; the priority structures
//     only move 16-byte packed keys.  At steady state the arena's free list
//     serves every slot, so scheduling and dispatching allocate nothing.
//   * The ordering key (time, seq, slot) is packed into one unsigned 128-bit
//     integer: simulated time is non-negative, and IEEE-754 doubles >= +0.0
//     order identically to their raw bit patterns, so
//     `time_bits << 64 | seq << 24 | slot` compares (time, seq) with a
//     single branch-free wide compare.
//   * Three structures hold pending events, all ordered by the same key:
//       - the "now lane", a FIFO ring for zero-delay events (the
//         event-loop-turn handoffs in client.cpp, network.cpp, runner.cpp);
//       - the "ascending lane", a FIFO ring absorbing any event whose key is
//         >= the lane's current tail.  DES schedules are near-sorted (FIFO
//         resources complete in increasing time, and `now` only moves
//         forward), so most insertions append here in O(1) — the degenerate
//         single-rung case of a ladder queue;
//       - a 4-ary implicit heap (shallower and more cache-friendly than the
//         binary `std::priority_queue`) for the out-of-order remainder.
//     Each structure keeps its minimum at the front, and dispatch takes the
//     global minimum of the three fronts, so the dispatch order is
//     bit-identical to a single totally-ordered queue.
#pragma once

#include <cassert>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "src/common/units.hpp"
#include "src/sim/inline_task.hpp"

namespace harl::obs {
class Sink;
}  // namespace harl::obs

namespace harl::sim {

/// Simulated time in seconds from simulation start.
using Time = Seconds;

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time.  0 before the first event fires.
  Time now() const { return now_; }

  /// Schedules `fn` at absolute simulated time `t`; requires t >= now().
  void schedule_at(Time t, InlineTask fn);

  /// Schedules `fn` `delay` seconds from now; requires delay >= 0.
  void schedule_after(Time delay, InlineTask fn);

  /// Runs until the event queue drains.  Returns the final time.
  Time run();

  /// Runs until the queue drains or simulated time would exceed `limit`
  /// (events after `limit` stay queued).  Returns now().
  Time run_until(Time limit);

  /// True when no events are pending.
  bool idle() const {
    return heap_.empty() && now_lane_.count == 0 && asc_lane_.count == 0;
  }

  /// Total events dispatched since construction (for micro-benchmarks).
  std::uint64_t events_dispatched() const { return dispatched_; }

  // --- parked continuations ------------------------------------------------

  /// Handle to a task parked in the event arena (see `park`).
  using TaskHandle = std::uint32_t;

  /// Parks a task in the arena and returns a handle to it.  Multi-hop
  /// completion chains (e.g. Network's store-and-forward second hop) park
  /// their continuation and capture the 4-byte handle instead of the task
  /// itself, which keeps the chaining lambdas inside InlineTask's in-place
  /// buffer.  Every parked task must eventually be released through
  /// `fire_parked` (or die with the simulator).
  TaskHandle park(InlineTask fn);

  /// Invokes and releases a parked task.  The task runs in place in its
  /// arena slot; the slot returns to the free list after it completes, so
  /// the task may park new work (which lands in other slots).
  void fire_parked(TaskHandle handle);

  // --- instrumentation -----------------------------------------------------

  /// Allocation/throughput counters for the engine (see harl_sim stats=1).
  struct Stats {
    std::uint64_t events_dispatched = 0;
    std::uint64_t peak_queue_depth = 0;  ///< max pending events (all queues)
    std::uint64_t now_lane_events = 0;   ///< zero-delay events (FIFO lane)
    std::uint64_t ascending_events = 0;  ///< in-order appends (no heap sift)
    std::uint64_t pool_hits = 0;         ///< slots served from the free list
    std::uint64_t pool_misses = 0;       ///< slot requests that grew the arena
    std::uint64_t pool_chunks = 0;       ///< arena chunks allocated (the only
                                         ///< steady-state-amortized allocation)
    std::uint64_t inline_callbacks = 0;  ///< tasks stored in-place
    std::uint64_t heap_callbacks = 0;    ///< tasks that spilled to the heap
  };
  Stats stats() const;

  /// Observability sink shared by every component built on this simulator
  /// (see src/obs/sink.hpp).  The simulator itself never calls it — the
  /// dispatch loop stays untouched — it only distributes the pointer so
  /// instrumented components (FifoResource, DataServer, Client) can branch
  /// on it.  nullptr (the default) disables all instrumentation.
  void set_observer(obs::Sink* observer) { observer_ = observer; }
  obs::Sink* observer() const { return observer_; }

 private:
#if defined(__SIZEOF_INT128__)
  /// Packed ordering key: `time_bits(t) << 64 | seq << 24 | slot`.  One wide
  /// unsigned compare realises the (time, seq) lexicographic order — seq is
  /// unique, so the order is total and the slot bits never tie-break.
  __extension__ typedef unsigned __int128 EventKey;
#else
#error "simulator event keys require a 128-bit integer type"
#endif

  /// Sentinel larger than every real key (its time bits decode to NaN, which
  /// schedule_at rejects), so empty queues drop out of min-of-fronts.
  static constexpr EventKey no_key() { return ~EventKey{0}; }

  /// Bits reserved for the arena slot index (low field of the key).
  static constexpr unsigned kSlotBits = 24;
  static constexpr std::uint32_t kMaxSlots = std::uint32_t{1} << kSlotBits;
  /// Bits left for seq: 64 - 24 = 40 (~10^12 events before exhaustion).
  static constexpr std::uint64_t kMaxSeq = std::uint64_t{1} << (64 - kSlotBits);

  static EventKey make_key(Time t, std::uint64_t seq, std::uint32_t slot) {
    // +0.0 canonicalizes -0.0 so equal times always pack to equal bits.
    const double canonical = t + 0.0;
    std::uint64_t time_bits;
    std::memcpy(&time_bits, &canonical, sizeof(time_bits));
    return (static_cast<EventKey>(time_bits) << 64) | (seq << kSlotBits) | slot;
  }
  static Time key_time(EventKey key) {
    const auto time_bits = static_cast<std::uint64_t>(key >> 64);
    double t;
    std::memcpy(&t, &time_bits, sizeof(t));
    return t;
  }
  static std::uint32_t key_slot(EventKey key) {
    return static_cast<std::uint32_t>(key) & (kMaxSlots - 1);
  }

  // Slab arena of task slots.  Chunked so slot addresses are stable (the
  // queue stores indices); undispatched tasks are destroyed with the chunks.
  static constexpr std::uint32_t kChunkSlots = 256;
  struct Chunk {
    InlineTask slots[kChunkSlots];
  };

  InlineTask& slot(std::uint32_t index) {
    return chunks_[index / kChunkSlots]->slots[index % kChunkSlots];
  }
  std::uint32_t alloc_slot(InlineTask&& fn);
  void free_slot(std::uint32_t index) { free_slots_.push_back(index); }

  /// FIFO ring buffer of keys (power-of-two capacity).  Both lanes push at
  /// the tail and pop at the head; their contents are already sorted, so the
  /// head is the lane's minimum.
  struct Ring {
    std::vector<EventKey> buf;
    std::size_t head = 0;
    std::size_t count = 0;

    EventKey front() const { return buf[head]; }
    EventKey back() const { return buf[(head + count - 1) & (buf.size() - 1)]; }
    void push(EventKey key) {
      if (count == buf.size()) grow();
      buf[(head + count) & (buf.size() - 1)] = key;
      ++count;
    }
    EventKey pop() {
      const EventKey key = buf[head];
      head = (head + 1) & (buf.size() - 1);
      --count;
      return key;
    }
    void grow();
  };

  // 4-ary implicit heap over packed keys.
  void heap_push(EventKey key);
  /// Removes the heap minimum (caller has already read heap_[0]).
  void heap_remove_min();

  /// True while events are pending; fills `out` with the global minimum.
  bool peek_next(EventKey& out) const;
  void dispatch_next();
  void note_depth();

  std::vector<EventKey> heap_;
  Ring now_lane_;  ///< events scheduled at exactly now()
  Ring asc_lane_;  ///< events appended in ascending key order

  std::vector<std::unique_ptr<Chunk>> chunks_;
  std::vector<std::uint32_t> free_slots_;

  obs::Sink* observer_ = nullptr;

  Time now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t dispatched_ = 0;
  std::uint64_t peak_depth_ = 0;
  std::uint64_t now_lane_events_ = 0;
  std::uint64_t ascending_events_ = 0;
  std::uint64_t pool_hits_ = 0;
  std::uint64_t pool_misses_ = 0;
  std::uint64_t inline_callbacks_ = 0;
  std::uint64_t heap_callbacks_ = 0;
};

}  // namespace harl::sim
