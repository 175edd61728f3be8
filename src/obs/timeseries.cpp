#include "src/obs/timeseries.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <ostream>
#include <stdexcept>
#include <utility>

#include "src/obs/json_text.hpp"
#include "src/obs/sketch.hpp"

namespace harl::obs {

TimeSeries::TimeSeries(Options options)
    : interval_(options.interval), capacity_(options.capacity) {
  if (!(interval_ > 0.0)) {
    throw std::invalid_argument("TimeSeries interval must be > 0");
  }
  if (capacity_ == 0) capacity_ = 1;
}

std::int64_t TimeSeries::window_of(Seconds t) const {
  return static_cast<std::int64_t>(std::floor(t / interval_));
}

std::size_t TimeSeries::position(std::int64_t index) const {
  const std::size_t n = ring_.size();
  if (n == 0 || index > at(n - 1).index) return n;
  // Retained windows are usually consecutive (no idle gap), which puts
  // `index` exactly its distance from the newest window back; almost every
  // record lands in the newest few windows.
  const auto back = static_cast<std::uint64_t>(at(n - 1).index - index);
  if (back < n && at(n - 1 - back).index == index) return n - 1 - back;
  std::size_t lo = 0;
  std::size_t hi = n;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (at(mid).index < index) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

TimeSeries::Window* TimeSeries::window(std::int64_t index) {
  std::size_t pos = position(index);  // logical slot of `index`
  if (pos < ring_.size() && at(pos).index == index) return &at(pos);
  if (ring_.size() == capacity_) {
    ++dropped_;
    if (pos == 0) return nullptr;  // it would be the oldest: dropped at once
    // Recycle the oldest window's slot as the logical end.
    head_ = (head_ + 1) % ring_.size();
    --pos;
  } else {
    ring_.emplace_back();  // head_ stays 0 until the ring first fills
  }
  // Rotate the free end slot down to `pos` (windows arrive almost always in
  // order, so this loop rarely runs).
  for (std::size_t i = ring_.size() - 1; i > pos; --i) {
    std::swap(at(i), at(i - 1));
  }
  Window& w = at(pos);
  w.reset(index);
  return &w;
}

void TimeSeries::Window::reset(std::int64_t i) {
  index = i;
  for (ServerCell& c : cells) {
    c.present = false;
    c.jobs = 0;
    c.lat_sum = 0.0;
    c.busy = 0.0;
    c.depth_max = 0;
    c.lat_raw.clear();
    c.lat.reset();
  }
  cache_hit = 0;
  cache_miss = 0;
}

const TimeSeries::Window* TimeSeries::find_window(std::int64_t index) const {
  const std::size_t pos = position(index);
  return pos < ring_.size() && at(pos).index == index ? &at(pos) : nullptr;
}

void TimeSeries::record_span(std::uint32_t server, Seconds arrival,
                             Seconds start, Seconds finish) {
  const std::int64_t wa = window_of(arrival);
  if (retained(wa)) {
    if (Window* win = window(wa)) {
      ServerCell& c = win->cell(server);
      const double lat = finish - arrival;
      ++c.jobs;
      c.lat_sum += lat;
      c.add_latency(lat);
    }
  }
  // Busy time is clipped per overlapped window so utilization is exact even
  // for services that straddle a boundary.
  const std::int64_t w0 = window_of(start);
  const std::int64_t w1 = window_of(finish);
  for (std::int64_t w = w0; w <= w1; ++w) {
    const double lo = std::max(start, static_cast<double>(w) * interval_);
    const double hi =
        std::min(finish, static_cast<double>(w + 1) * interval_);
    if (hi <= lo || !retained(w)) continue;
    if (Window* win = window(w)) win->cell(server).busy += hi - lo;
  }
}

void TimeSeries::record_depth(std::uint32_t server, Seconds now,
                              std::uint64_t depth) {
  const std::int64_t w = window_of(now);
  if (!retained(w)) return;
  if (Window* win = window(w)) {
    ServerCell& c = win->cell(server);
    c.depth_max = std::max(c.depth_max, depth);
  }
}

void TimeSeries::record_cache(Bytes hit_bytes, Bytes miss_bytes, Seconds now) {
  const std::int64_t w = window_of(now);
  if (!retained(w)) return;
  if (Window* win = window(w)) {
    win->cache_hit += hit_bytes;
    win->cache_miss += miss_bytes;
  }
}

double TimeSeries::window_latency_mean(std::int64_t w,
                                       std::uint32_t server) const {
  const Window* win = find_window(w);
  const ServerCell* c = win == nullptr ? nullptr : win->find(server);
  if (c == nullptr || c->jobs == 0) return 0.0;
  return c->lat_sum / static_cast<double>(c->jobs);
}

std::uint64_t TimeSeries::window_jobs(std::int64_t w,
                                      std::uint32_t server) const {
  const Window* win = find_window(w);
  const ServerCell* c = win == nullptr ? nullptr : win->find(server);
  return c == nullptr ? 0 : c->jobs;
}

std::vector<TimeSeries::WindowServerStat> TimeSeries::window_stats(
    std::int64_t w) const {
  std::vector<WindowServerStat> out;
  const Window* win = find_window(w);
  if (win == nullptr) return out;
  for (std::size_t id = 0; id < win->cells.size(); ++id) {
    const ServerCell& c = win->cells[id];
    if (!c.present) continue;
    WindowServerStat s;
    s.server = static_cast<std::uint32_t>(id);
    s.jobs = c.jobs;
    s.lat_mean =
        c.jobs > 0 ? c.lat_sum / static_cast<double>(c.jobs) : 0.0;
    out.push_back(s);
  }
  return out;
}

void TimeSeries::write_json(std::ostream& os, int indent) const {
  JsonText out(os);
  const std::string pad(static_cast<std::size_t>(indent), ' ');

  // Servers with a cell in any retained window, ascending by id.
  std::vector<bool> seen;
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    const Window& w = at(i);
    if (w.cells.size() > seen.size()) seen.resize(w.cells.size(), false);
    for (std::size_t id = 0; id < w.cells.size(); ++id) {
      if (w.cells[id].present) seen[id] = true;
    }
  }

  out << "{\n" << pad << "  \"interval_s\": " << interval_ << ",\n"
      << pad << "  \"windows\": " << ring_.size() << ",\n"
      << pad << "  \"first_window\": "
      << (ring_.size() == 0 ? std::int64_t{0} : at(0).index) << ",\n"
      << pad << "  \"dropped_windows\": " << dropped_ << ",\n"
      << pad << "  \"window_index\": [";
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    out << (i == 0 ? "" : ", ") << at(i).index;
  }
  out << "],\n" << pad << "  \"cache\": {\"hit_bytes\": [";
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    out << (i == 0 ? "" : ", ") << at(i).cache_hit;
  }
  out << "], \"miss_bytes\": [";
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    out << (i == 0 ? "" : ", ") << at(i).cache_miss;
  }
  out << "]},\n" << pad << "  \"servers\": [";

  // One cell lookup and one latency sketch per (server, window), shared by
  // every column; an idle cell's empty sketch yields 0.  The q values are
  // exactly what percentile(50/95/99) computes (p / 100.0 is correctly
  // rounded).
  static constexpr double kQs[] = {0.5, 0.95, 0.99};
  std::vector<const ServerCell*> cells(ring_.size());
  std::vector<std::array<double, 3>> lat(ring_.size());
  QuantileSketch sketch;
  bool first_server = true;
  for (std::uint32_t id = 0; id < seen.size(); ++id) {
    if (!seen[id]) continue;
    for (std::size_t i = 0; i < ring_.size(); ++i) {
      cells[i] = at(i).find(id);
      if (cells[i] != nullptr) {
        sketch = cells[i]->lat;
        for (double x : cells[i]->lat_raw) sketch.add(x);
      } else {
        sketch.reset();
      }
      sketch.quantiles_at(kQs, lat[i]);
    }
    if (!first_server) out << ",";
    first_server = false;
    out << "\n" << pad << "    {\"server\": " << id;
    auto column = [&](const char* name, auto&& value) {
      out << ", \"" << name << "\": [";
      for (std::size_t i = 0; i < ring_.size(); ++i) {
        out << (i == 0 ? "" : ", ") << value(cells[i], lat[i]);
      }
      out << ']';
    };
    column("jobs", [](const ServerCell* c, const auto&) {
      return c ? c->jobs : std::uint64_t{0};
    });
    column("busy_s", [](const ServerCell* c, const auto&) {
      return c ? c->busy : 0.0;
    });
    column("utilization", [&](const ServerCell* c, const auto&) {
      return c ? c->busy / interval_ : 0.0;
    });
    column("depth_max", [](const ServerCell* c, const auto&) {
      return c ? c->depth_max : std::uint64_t{0};
    });
    column("lat_mean_s", [](const ServerCell* c, const auto&) {
      return c != nullptr && c->jobs > 0
                 ? c->lat_sum / static_cast<double>(c->jobs)
                 : 0.0;
    });
    column("lat_p50_s", [](const ServerCell*, const auto& q) { return q[0]; });
    column("lat_p95_s", [](const ServerCell*, const auto& q) { return q[1]; });
    column("lat_p99_s", [](const ServerCell*, const auto& q) { return q[2]; });
    out << '}';
  }
  out << "\n" << pad << "  ]\n" << pad << '}';
}

}  // namespace harl::obs
