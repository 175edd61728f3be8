// Windowed per-server telemetry rollups in simulated time (DESIGN.md §15).
//
// A TimeSeries slices the simulated timeline into fixed-width windows and
// accumulates, per window and per server: job count, latency sum and the
// per-job latencies (arrival -> finish), busy seconds (service span clipped
// to the window for utilization), and the maximum concurrent queue depth.
// Latencies go to a per-cell QuantileSketch through a 64-entry raw buffer:
// a dense sketch spans hundreds of buckets (8 B each) while most cells hold
// a few jobs (the storm recipe's 0.1 s windows: median 3 jobs, p99 54, max
// 110), so buffering keeps small cells small, and folding a full buffer
// bounds every cell by the buffer plus the sketch's bucket range however
// many jobs it holds (1 s windows: p99 555 jobs).  The sketch's state is a
// function of the sample multiset, so the exported quantiles are those of
// a sketch fed every job directly.
// A fleet-level cache hit/miss byte pair rides in the same windows.
// Windows live in a bounded ring: when more than `capacity` windows are
// produced the oldest are dropped and counted, never silently lost.  Only
// windows that received data are kept, in ascending index order; almost
// every record lands in the newest window, which is found without a search,
// and each window stores its server cells densely by server id.
//
// Determinism: the owner (obs::HealthMonitor, driven from the recorder's
// hooks) feeds spans in the simulator's deterministic dispatch order, and
// every accumulation here is order-independent within a window (sums, max,
// a sample multiset).  The JSON dump is therefore byte-identical from run to
// run.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "src/common/units.hpp"
#include "src/obs/sketch.hpp"

namespace harl::obs {

class TimeSeries {
 public:
  struct Options {
    Seconds interval = 1.0;        ///< window width in simulated seconds
    std::size_t capacity = 4096;   ///< max retained windows (ring)
  };

  explicit TimeSeries(Options options);

  /// One completed job on `server`: queued at `arrival`, serviced over
  /// [start, finish).  Latency (finish - arrival) lands in the window of
  /// `arrival`; busy time is clipped to each overlapped window.
  void record_span(std::uint32_t server, Seconds arrival, Seconds start,
                   Seconds finish);

  /// Queue-depth sample for `server` at time `now` (window max is kept).
  void record_depth(std::uint32_t server, Seconds now, std::uint64_t depth);

  /// Fleet-level cache outcome at time `now`.
  void record_cache(Bytes hit_bytes, Bytes miss_bytes, Seconds now);

  Seconds interval() const { return interval_; }
  std::size_t window_count() const { return ring_.size(); }
  std::uint64_t dropped_windows() const { return dropped_; }

  /// Index of the window containing `t` (floor(t / interval)).
  std::int64_t window_of(Seconds t) const;

  /// Mean per-job latency of `server` inside window `w`; 0 when idle.
  double window_latency_mean(std::int64_t w, std::uint32_t server) const;
  /// Jobs recorded for `server` inside window `w`.
  std::uint64_t window_jobs(std::int64_t w, std::uint32_t server) const;

  /// Per-server rollup of one window, servers in ascending id order; empty
  /// when the window holds no data (the HealthMonitor's scoring input).
  struct WindowServerStat {
    std::uint32_t server = 0;
    std::uint64_t jobs = 0;
    double lat_mean = 0.0;
  };
  std::vector<WindowServerStat> window_stats(std::int64_t w) const;

  bool empty() const { return ring_.size() == 0; }
  /// Index of the newest retained window; empty() must be false.
  std::int64_t last_window() const { return at(ring_.size() - 1).index; }

  /// Columnar JSON dump: one array per column, servers sorted by id,
  /// windows oldest-first.  Deterministic (see file comment).
  void write_json(std::ostream& out, int indent = 0) const;

 private:
  /// Raw latencies a cell buffers before folding them into its sketch.
  static constexpr std::size_t kLatencyBuffer = 64;

  struct ServerCell {
    bool present = false;  ///< the server recorded anything in the window
    std::uint64_t jobs = 0;
    double lat_sum = 0.0;
    double busy = 0.0;
    std::uint64_t depth_max = 0;
    /// Per-job latencies: the newest ones raw, folded into `lat`
    /// kLatencyBuffer at a time (see the file comment).
    std::vector<double> lat_raw;
    QuantileSketch lat;

    void add_latency(double x) {
      if (lat_raw.size() == kLatencyBuffer) {
        for (double y : lat_raw) lat.add(y);
        lat_raw.clear();
      }
      lat_raw.push_back(x);
    }
  };
  struct Window {
    std::int64_t index = 0;  ///< window_of() value
    std::vector<ServerCell> cells;  ///< by server id (dense)
    Bytes cache_hit = 0;
    Bytes cache_miss = 0;

    /// Empties the window for reuse as `i`, keeping its allocations.
    void reset(std::int64_t i);
    /// The cell of `server`, marked present (grows the array on first use).
    ServerCell& cell(std::uint32_t server) {
      if (server >= cells.size()) cells.resize(std::size_t{server} + 1);
      cells[server].present = true;
      return cells[server];
    }
    const ServerCell* find(std::uint32_t server) const {
      return server < cells.size() && cells[server].present ? &cells[server]
                                                            : nullptr;
    }
  };

  /// Logical position `i` (0 = oldest retained window) in the ring.
  Window& at(std::size_t i) { return ring_[slot(i)]; }
  const Window& at(std::size_t i) const { return ring_[slot(i)]; }
  std::size_t slot(std::size_t i) const {
    const std::size_t k = head_ + i;  // both < ring_.size()
    return k < ring_.size() ? k : k - ring_.size();
  }
  /// False for windows older than the retained range once any window was
  /// dropped: their data is gone and must not resurrect them.
  bool retained(std::int64_t index) const {
    return dropped_ == 0 || ring_.size() == 0 || index >= at(0).index;
  }
  /// Logical slot of window `index`, or where it would be inserted.
  std::size_t position(std::int64_t index) const;
  /// The window `index`, created in order when missing; nullptr when the
  /// ring is full and `index` would be older than every retained window.
  Window* window(std::int64_t index);
  const Window* find_window(std::int64_t index) const;

  Seconds interval_ = 1.0;
  std::size_t capacity_ = 4096;
  /// Retained windows, ascending by index from head_.  The ring only
  /// grows (to capacity_), so its size is the retained window count.
  std::vector<Window> ring_;
  std::size_t head_ = 0;  ///< storage slot of the oldest window
  std::uint64_t dropped_ = 0;
};

}  // namespace harl::obs
