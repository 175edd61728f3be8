#include "src/sim/simulator.hpp"

#include <stdexcept>
#include <utility>

namespace harl::sim {

std::uint32_t Simulator::alloc_slot(InlineTask&& fn) {
  const bool stored_inline = fn.stored_inline();
  inline_callbacks_ += stored_inline ? 1 : 0;
  heap_callbacks_ += stored_inline ? 0 : 1;
  if (free_slots_.empty()) {
    // Arena growth: the only allocation on the scheduling path, amortized
    // away once the pool covers the simulation's peak concurrency.
    ++pool_misses_;
    const auto base = static_cast<std::uint32_t>(chunks_.size()) * kChunkSlots;
    if (base + kChunkSlots > kMaxSlots) {
      throw std::overflow_error("simulator arena exceeds 2^24 live events");
    }
    chunks_.push_back(std::make_unique<Chunk>());
    free_slots_.reserve(free_slots_.size() + kChunkSlots);
    for (std::uint32_t i = kChunkSlots; i > 0; --i) {
      free_slots_.push_back(base + i - 1);
    }
  } else {
    ++pool_hits_;
  }
  const std::uint32_t index = free_slots_.back();
  free_slots_.pop_back();
  slot(index) = std::move(fn);
  return index;
}

void Simulator::heap_push(EventKey key) {
  std::size_t i = heap_.size();
  heap_.push_back(key);
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (heap_[parent] <= key) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = key;
}

void Simulator::heap_remove_min() {
  // Bottom-up deletion: walk a hole from the root to a leaf along minimum
  // children (no compare against the displaced last element on the way
  // down), then sift that element up from the hole.  The displaced element
  // comes from the deepest level, so it almost always stays near the bottom
  // and the upward pass is short — measurably faster than the classic
  // compare-then-descend loop.
  const std::size_t n = heap_.size() - 1;
  const EventKey last = heap_[n];
  heap_.pop_back();
  if (n == 0) return;
  std::size_t hole = 0;
  for (;;) {
    const std::size_t first = 4 * hole + 1;
    if (first >= n) break;
#if defined(__GNUC__)
    // The next hole is one of the four children; start pulling their child
    // groups (4 x 16 B each) in now so the level-by-level dependent walk
    // overlaps its cache misses.
    const std::size_t grand = 4 * first + 1;
    if (grand < n) {
      __builtin_prefetch(&heap_[grand], 0, 1);
      __builtin_prefetch(&heap_[grand + 4], 0, 1);
      __builtin_prefetch(&heap_[grand + 8], 0, 1);
      __builtin_prefetch(&heap_[grand + 12], 0, 1);
    }
#endif
    const std::size_t end = first + 4 < n ? first + 4 : n;
    std::size_t best = first;
    for (std::size_t c = first + 1; c < end; ++c) {
      if (heap_[c] < heap_[best]) best = c;
    }
    heap_[hole] = heap_[best];
    hole = best;
  }
  while (hole > 0) {
    const std::size_t parent = (hole - 1) / 4;
    if (heap_[parent] <= last) break;
    heap_[hole] = heap_[parent];
    hole = parent;
  }
  heap_[hole] = last;
}

void Simulator::Ring::grow() {
  const std::size_t old_cap = buf.size();
  const std::size_t new_cap = old_cap == 0 ? 64 : old_cap * 2;
  std::vector<EventKey> grown(new_cap);
  for (std::size_t i = 0; i < count; ++i) {
    grown[i] = buf[(head + i) & (old_cap - 1)];
  }
  buf = std::move(grown);
  head = 0;
}

void Simulator::note_depth() {
  const std::uint64_t depth = heap_.size() + now_lane_.count + asc_lane_.count;
  if (depth > peak_depth_) peak_depth_ = depth;
}

void Simulator::schedule_at(Time t, InlineTask fn) {
  // `!(t >= now_)` rather than `t < now_` so NaN times are rejected too —
  // a NaN would otherwise corrupt the bit-pattern ordering.
  if (!(t >= now_)) {
    throw std::invalid_argument("cannot schedule event in the past");
  }
  if (next_seq_ >= kMaxSeq) {
    throw std::overflow_error("simulator sequence numbers exhausted");
  }
  const EventKey key = make_key(t, next_seq_++, alloc_slot(std::move(fn)));
  if (t == now_) {
    // Zero-delay events are appended with monotonically increasing
    // (time, seq), so the now lane stays sorted and FIFO order equals
    // priority order.
    now_lane_.push(key);
    ++now_lane_events_;
  } else if (asc_lane_.count == 0 || key >= asc_lane_.back()) {
    // In-order insertion (the common DES case: completions scheduled in
    // increasing time as `now` advances): appending keeps the lane sorted,
    // no heap sift needed.
    asc_lane_.push(key);
    ++ascending_events_;
  } else {
    heap_push(key);
  }
  note_depth();
}

void Simulator::schedule_after(Time delay, InlineTask fn) {
  if (!(delay >= 0.0)) throw std::invalid_argument("negative event delay");
  schedule_at(now_ + delay, std::move(fn));
}

Simulator::TaskHandle Simulator::park(InlineTask fn) {
  return alloc_slot(std::move(fn));
}

void Simulator::fire_parked(TaskHandle handle) {
  // Runs in place: the slot cannot be reused while it is off the free list,
  // so the task may schedule or park new work.  (If the task throws, the
  // slot is retired un-reused and its callable destroyed with the arena.)
  InlineTask& task = slot(handle);
  task();
  task.reset();
  free_slot(handle);
}

bool Simulator::peek_next(EventKey& out) const {
  if (idle()) return false;
  EventKey best = now_lane_.count != 0 ? now_lane_.front() : no_key();
  const EventKey asc = asc_lane_.count != 0 ? asc_lane_.front() : no_key();
  if (asc < best) best = asc;
  if (!heap_.empty() && heap_.front() < best) best = heap_.front();
  out = best;
  return true;
}

void Simulator::dispatch_next() {
  // The dispatch order is the (time, seq) total order: all three structures
  // keep their minimum at the front, so the global next event is whichever
  // front is smallest (seq is unique, so no two fronts compare equal).
  const EventKey now_k = now_lane_.count != 0 ? now_lane_.front() : no_key();
  const EventKey asc_k = asc_lane_.count != 0 ? asc_lane_.front() : no_key();
  const EventKey heap_k = !heap_.empty() ? heap_.front() : no_key();
  EventKey key;
  if (now_k < asc_k && now_k < heap_k) {
    key = now_lane_.pop();
  } else if (asc_k < heap_k) {
    key = asc_lane_.pop();
  } else {
    key = heap_k;
#if defined(__GNUC__)
    // The task slot is the next cache line we touch after the heap sift;
    // start pulling it in while the sift runs.
    __builtin_prefetch(&slot(key_slot(key)), 0, 1);
#endif
    heap_remove_min();
  }
  assert(key_time(key) >= now_ && "event queue lost time monotonicity");
  now_ = key_time(key);
  ++dispatched_;
  // The task runs in place in its arena slot (no move-out): the slot stays
  // off the free list while the callback runs, so new events scheduled by
  // the callback land in other slots and nothing is invalidated.
  const std::uint32_t index = key_slot(key);
  InlineTask& task = slot(index);
  task();
  task.reset();
  free_slot(index);
}

Time Simulator::run() {
  while (!idle()) dispatch_next();
  return now_;
}

Time Simulator::run_until(Time limit) {
  EventKey next;
  while (peek_next(next) && key_time(next) <= limit) dispatch_next();
  return now_;
}

Simulator::Stats Simulator::stats() const {
  Stats s;
  s.events_dispatched = dispatched_;
  s.peak_queue_depth = peak_depth_;
  s.now_lane_events = now_lane_events_;
  s.ascending_events = ascending_events_;
  s.pool_hits = pool_hits_;
  s.pool_misses = pool_misses_;
  s.pool_chunks = chunks_.size();
  s.inline_callbacks = inline_callbacks_;
  s.heap_callbacks = heap_callbacks_;
  return s;
}

}  // namespace harl::sim
