// Unit and integration tests for src/obs: label packing, metrics registry
// semantics (including deterministic merge), the flight recorder's spans,
// summaries and ring buffer, and — the load-bearing one — reconciliation of
// the measured T_X/T_S/T_T decomposition against the analytic
// tiered_cost_model on a deterministic single-request scenario.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <functional>
#include <limits>
#include <queue>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/rng.hpp"
#include "src/common/units.hpp"
#include "src/core/tiered_cost_model.hpp"
#include "src/net/network.hpp"
#include "src/obs/health.hpp"
#include "src/obs/inflight.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/recorder.hpp"
#include "src/obs/sketch.hpp"
#include "src/obs/timeseries.hpp"
#include "src/pfs/cluster.hpp"
#include "src/pfs/layout.hpp"
#include "src/sim/resource.hpp"
#include "src/sim/simulator.hpp"
#include "src/storage/profiles.hpp"

namespace harl {
namespace {

// ------------------------------------------------------------- label set ----

TEST(LabelSet, DefaultsToAllAbsent) {
  const obs::LabelSet l;
  EXPECT_EQ(l.server_value(), obs::LabelSet::kNone);
  EXPECT_EQ(l.region_value(), obs::LabelSet::kNoneRegion);
  EXPECT_EQ(l.client_value(), obs::LabelSet::kNone);
  EXPECT_FALSE(l.has_op());
}

TEST(LabelSet, PacksFieldsIndependently) {
  const obs::LabelSet l =
      obs::LabelSet{}.server(3).tier(1).region(42).client(7).op(IoOp::kWrite);
  EXPECT_EQ(l.server_value(), 3u);
  EXPECT_EQ(l.tier_value(), 1u);
  EXPECT_EQ(l.region_value(), 42u);
  EXPECT_EQ(l.client_value(), 7u);
  EXPECT_TRUE(l.has_op());
  EXPECT_EQ(l.op_value(), IoOp::kWrite);
  // A partial set leaves the other fields absent.
  const obs::LabelSet partial = obs::LabelSet{}.tier(0).op(IoOp::kRead);
  EXPECT_EQ(partial.server_value(), obs::LabelSet::kNone);
  EXPECT_EQ(partial.tier_value(), 0u);
  EXPECT_EQ(partial.op_value(), IoOp::kRead);
}

TEST(LabelSet, BitsRoundTrip) {
  const obs::LabelSet l = obs::LabelSet{}.server(9).region(100).op(IoOp::kRead);
  EXPECT_EQ(obs::LabelSet::from_bits(l.bits()), l);
}

// ------------------------------------------------------- metrics registry ----

TEST(MetricsRegistry, CountersGaugesAndHistograms) {
  obs::MetricsRegistry reg;
  const auto c = reg.family("bytes", obs::MetricsRegistry::Kind::kCounter);
  const auto g = reg.family("depth", obs::MetricsRegistry::Kind::kGauge);
  const auto h = reg.family("lat", obs::MetricsRegistry::Kind::kHistogram);
  const obs::LabelSet s0 = obs::LabelSet{}.server(0);
  const obs::LabelSet s1 = obs::LabelSet{}.server(1);

  reg.add(c, s0, 100.0);
  reg.add(c, s0, 20.0);
  reg.add(c, s1, 7.0);
  reg.set_max(g, s0, 3.0);
  reg.set_max(g, s0, 2.0);  // lower sample must not win
  reg.observe(h, s0, 1e-3);
  reg.observe(h, s0, 4e-3);

  EXPECT_DOUBLE_EQ(reg.value("bytes", s0), 120.0);
  EXPECT_DOUBLE_EQ(reg.value("bytes", s1), 7.0);
  EXPECT_DOUBLE_EQ(reg.value("depth", s0), 3.0);
  EXPECT_DOUBLE_EQ(reg.value("missing", s0), 0.0);
  const LogHistogram* lat = reg.histogram("lat", s0);
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->count(), 2u);
  EXPECT_DOUBLE_EQ(lat->max(), 4e-3);
  EXPECT_EQ(reg.histogram("lat", s1), nullptr);
}

TEST(MetricsRegistry, FamilyKindMismatchThrows) {
  obs::MetricsRegistry reg;
  reg.family("x", obs::MetricsRegistry::Kind::kCounter);
  EXPECT_THROW(reg.family("x", obs::MetricsRegistry::Kind::kHistogram),
               std::invalid_argument);
}

std::string registry_json(const obs::MetricsRegistry& reg) {
  std::ostringstream out;
  reg.write_json(out);
  return out.str();
}

TEST(MetricsRegistry, MergeIsExactAndOrderIndependent) {
  // Shards as the parallel harness produces them: same families, label sets
  // inserted in different orders, merged in different orders — the JSON dump
  // (the canonical serialized form) must be byte-identical either way.
  auto make_shard = [](std::uint32_t first, std::uint32_t second, double w) {
    obs::MetricsRegistry reg;
    const auto c = reg.family("bytes", obs::MetricsRegistry::Kind::kCounter);
    const auto h = reg.family("lat", obs::MetricsRegistry::Kind::kHistogram);
    reg.add(c, obs::LabelSet{}.server(first), w);
    reg.add(c, obs::LabelSet{}.server(second), 2.0 * w);
    reg.observe(h, obs::LabelSet{}.server(first), w * 1e-3);
    return reg;
  };
  const obs::MetricsRegistry a = make_shard(0, 1, 10.0);
  const obs::MetricsRegistry b = make_shard(1, 0, 5.0);

  obs::MetricsRegistry ab;
  ab.merge(a);
  ab.merge(b);
  obs::MetricsRegistry ba;
  ba.merge(b);
  ba.merge(a);
  EXPECT_EQ(registry_json(ab), registry_json(ba));
  EXPECT_DOUBLE_EQ(ab.value("bytes", obs::LabelSet{}.server(0)), 20.0);
  EXPECT_DOUBLE_EQ(ab.value("bytes", obs::LabelSet{}.server(1)), 25.0);
}

TEST(MetricsRegistry, SketchFamiliesObserveAndMergeLikeCounters) {
  // kSketch is a first-class family kind: observe() feeds the sketch, the
  // sketch() accessor exposes it, merge is exact/order-independent, and the
  // JSON dump carries the p50/p95/p99/p999 summary.
  auto make_shard = [](std::uint32_t first, std::uint32_t second, double w) {
    obs::MetricsRegistry reg;
    const auto q = reg.family("svc", obs::MetricsRegistry::Kind::kSketch);
    reg.observe(q, obs::LabelSet{}.server(first), w * 0.25);
    reg.observe(q, obs::LabelSet{}.server(second), w * 0.5);
    return reg;
  };
  const obs::MetricsRegistry a = make_shard(0, 1, 1.0);
  const obs::MetricsRegistry b = make_shard(1, 0, 2.0);

  obs::MetricsRegistry ab;
  ab.merge(a);
  ab.merge(b);
  obs::MetricsRegistry ba;
  ba.merge(b);
  ba.merge(a);
  EXPECT_EQ(registry_json(ab), registry_json(ba));

  const obs::QuantileSketch* s0 = ab.sketch("svc", obs::LabelSet{}.server(0));
  ASSERT_NE(s0, nullptr);
  EXPECT_EQ(s0->count(), 2u);
  EXPECT_DOUBLE_EQ(s0->min(), 0.25);
  EXPECT_DOUBLE_EQ(s0->max(), 1.0);
  EXPECT_EQ(ab.sketch("svc", obs::LabelSet{}.server(9)), nullptr);

  const std::string json = registry_json(ab);
  EXPECT_NE(json.find("\"type\": \"sketch\""), std::string::npos);
  EXPECT_NE(json.find("\"p999\""), std::string::npos);
}

TEST(MetricsRegistry, HandlePathWritesTheSameJsonAsTheKeyedPath) {
  // The per-job hot paths hold Series handles; everything they record must
  // serialize exactly as the keyed calls would.
  auto families = [](obs::MetricsRegistry& reg) {
    return std::array<obs::MetricsRegistry::FamilyId, 4>{
        reg.family("bytes", obs::MetricsRegistry::Kind::kCounter),
        reg.family("score", obs::MetricsRegistry::Kind::kGauge),
        reg.family("lat", obs::MetricsRegistry::Kind::kHistogram),
        reg.family("svc", obs::MetricsRegistry::Kind::kSketch)};
  };
  obs::MetricsRegistry keyed, handled;
  const auto k = families(keyed);
  const auto h = families(handled);
  using Series = obs::MetricsRegistry::Series;
  std::vector<Series> bytes, score, lat, svc;
  for (std::uint32_t server = 0; server < 3; ++server) {
    const obs::LabelSet l = obs::LabelSet{}.server(server).op(IoOp::kRead);
    bytes.emplace_back(h[0], l);
    score.emplace_back(h[1], l);
    lat.emplace_back(h[2], l);
    svc.emplace_back(h[3], l);
  }
  for (int i = 0; i < 60; ++i) {
    // Servers are first touched in the order 2, 0, 1.
    const std::uint32_t server = static_cast<std::uint32_t>((i + 2) % 3);
    const obs::LabelSet l = obs::LabelSet{}.server(server).op(IoOp::kRead);
    const double v = 1e-4 * (i + 1);
    keyed.add(k[0], l, 4096.0);
    keyed.set(k[1], l, v);
    keyed.observe(k[2], l, v);
    keyed.observe(k[3], l, 2.0 * v);
    handled.add(bytes[server], 4096.0);
    handled.set(score[server], v);
    handled.observe(lat[server], v);
    handled.observe(svc[server], 2.0 * v);
  }
  EXPECT_EQ(registry_json(handled), registry_json(keyed));
  // A handle also finds a series the keyed path created first.
  Series again(h[0], obs::LabelSet{}.server(1).op(IoOp::kRead));
  handled.add(again, 1.0);
  keyed.add(k[0], obs::LabelSet{}.server(1).op(IoOp::kRead), 1.0);
  EXPECT_EQ(registry_json(handled), registry_json(keyed));
}

TEST(MetricsRegistry, HandleCreatesNoSeriesBeforeItsFirstObservation) {
  obs::MetricsRegistry reg;
  const auto c = reg.family("bytes", obs::MetricsRegistry::Kind::kCounter);
  const auto q = reg.family("svc", obs::MetricsRegistry::Kind::kSketch);
  const std::string empty = registry_json(reg);
  const obs::LabelSet l = obs::LabelSet{}.server(4);
  obs::MetricsRegistry::Series bytes(c, l);
  obs::MetricsRegistry::Series svc(q, l);
  EXPECT_EQ(registry_json(reg), empty);
  EXPECT_EQ(reg.sketch("svc", l), nullptr);

  reg.observe(svc, 0.5);
  ASSERT_NE(reg.sketch("svc", l), nullptr);
  EXPECT_EQ(reg.sketch("svc", l)->count(), 1u);
  // The counter handle is still unused: its series is still absent.
  EXPECT_EQ(registry_json(reg).find("\"bytes\""), std::string::npos);
  reg.add(bytes, 3.0);
  EXPECT_DOUBLE_EQ(reg.value("bytes", l), 3.0);
}

// ------------------------------------------------------------ time series ----

TEST(TimeSeries, RollsUpWindowsAndClipsBusyAtBoundaries) {
  obs::TimeSeries ts(obs::TimeSeries::Options{1.0, 16});
  // A job whose service straddles the w0/w1 boundary: latency lands in the
  // arrival window, busy time splits exactly across the two windows
  // (dyadic endpoints keep the clipped spans float-exact).
  ts.record_span(3, /*arrival=*/0.5, /*start=*/0.75, /*finish=*/1.25);
  ts.record_depth(3, 0.5, 2);
  ts.record_cache(100, 50, 0.25);

  EXPECT_EQ(ts.window_of(0.5), 0);
  EXPECT_EQ(ts.window_jobs(0, 3), 1u);
  EXPECT_DOUBLE_EQ(ts.window_latency_mean(0, 3), 0.75);
  const auto stats = ts.window_stats(0);
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].server, 3u);

  std::ostringstream os;
  ts.write_json(os, 0);
  const std::string json = os.str();
  // busy 0.25 s in window 0 and 0.25 s in window 1.
  EXPECT_NE(json.find("\"busy_s\": [0.25, 0.25]"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"hit_bytes\": [100, 0]"), std::string::npos);
  EXPECT_NE(json.find("\"depth_max\": [2, 0]"), std::string::npos);
}

TEST(TimeSeries, BoundedRingDropsOldestWindowsLoudly) {
  obs::TimeSeries ts(obs::TimeSeries::Options{1.0, 4});
  for (int w = 0; w < 10; ++w) {
    ts.record_span(0, w + 0.1, w + 0.2, w + 0.4);
  }
  EXPECT_EQ(ts.window_count(), 4u);
  EXPECT_EQ(ts.dropped_windows(), 6u);
  EXPECT_EQ(ts.last_window(), 9);
  // Dropped windows read as idle, and late data for them is discarded.
  EXPECT_EQ(ts.window_jobs(0, 0), 0u);
  ts.record_span(0, 0.5, 0.6, 0.7);
  EXPECT_EQ(ts.window_jobs(0, 0), 0u);
}

TEST(TimeSeries, RingStaysOrderedAcrossGapsAndLateWindows) {
  // Windows 0, 2, 4 (idle gaps), then a late job in window 3: the full ring
  // drops window 0 and slots 3 in order.  A job for window 1, older than
  // every retained window, is discarded.
  obs::TimeSeries ts(obs::TimeSeries::Options{1.0, 3});
  for (int w : {0, 2, 4}) ts.record_span(1, w + 0.1, w + 0.2, w + 0.4);
  ts.record_span(1, 3.1, 3.2, 3.4);
  ts.record_span(1, 1.1, 1.2, 1.4);
  EXPECT_EQ(ts.window_count(), 3u);
  EXPECT_EQ(ts.dropped_windows(), 1u);
  for (int w : {2, 3, 4}) EXPECT_EQ(ts.window_jobs(w, 1), 1u) << w;
  EXPECT_EQ(ts.window_jobs(1, 1), 0u);
  std::ostringstream os;
  ts.write_json(os, 0);
  EXPECT_NE(os.str().find("\"window_index\": [2, 3, 4]"), std::string::npos)
      << os.str();
}

TEST(TimeSeries, WindowOlderThanAFullRingIsDroppedNotMisfiled) {
  // Before any drop, a window older than every retained one that arrives
  // at capacity is itself the one dropped: its data must not land in the
  // oldest retained window.
  obs::TimeSeries ts(obs::TimeSeries::Options{1.0, 2});
  ts.record_span(0, 5.1, 5.2, 5.3);
  ts.record_span(0, 6.1, 6.2, 6.3);
  ts.record_span(0, 1.1, 1.2, 1.3);
  EXPECT_EQ(ts.window_count(), 2u);
  EXPECT_EQ(ts.dropped_windows(), 1u);  // the late job's window
  EXPECT_EQ(ts.window_jobs(5, 0), 1u);
  EXPECT_EQ(ts.window_jobs(6, 0), 1u);
  EXPECT_DOUBLE_EQ(ts.window_latency_mean(5, 0), 5.3 - 5.1);
}

TEST(TimeSeries, BusyCellQuantilesMatchASketchFedEveryJob) {
  // 200 jobs in one cell cross several raw-buffer folds and leave a partial
  // buffer; the exported percentiles must be those of a sketch fed every
  // latency directly.  A ring slot recycled for a later window starts empty.
  obs::TimeSeries ts(obs::TimeSeries::Options{1.0, 1});
  obs::QuantileSketch direct;
  Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    const double arrival = rng.uniform(0.0, 0.5);
    const double lat = rng.uniform(1e-4, 0.3);
    ts.record_span(2, arrival, arrival, arrival + lat);
    direct.add(lat);
  }
  auto column = [](const obs::TimeSeries& t, const char* name) {
    std::ostringstream os;
    t.write_json(os, 0);
    const std::string json = os.str();
    const std::string key = std::string("\"") + name + "\": [";
    const std::size_t at = json.find(key);
    if (at == std::string::npos) return std::string("missing");
    const std::size_t from = at + key.size();
    return json.substr(from, json.find(']', from) - from);
  };
  auto text = [](double x) {
    std::ostringstream os;
    os.precision(17);
    os << x;
    return os.str();
  };
  EXPECT_EQ(column(ts, "jobs"), "200");
  EXPECT_EQ(column(ts, "lat_p50_s"), text(direct.percentile(50.0)));
  EXPECT_EQ(column(ts, "lat_p95_s"), text(direct.percentile(95.0)));
  EXPECT_EQ(column(ts, "lat_p99_s"), text(direct.percentile(99.0)));

  ts.record_span(2, 3.0, 3.0, 3.5);  // recycles the only slot
  EXPECT_EQ(ts.dropped_windows(), 1u);
  EXPECT_EQ(column(ts, "jobs"), "1");
  EXPECT_EQ(column(ts, "lat_p50_s"), "0.5");
  EXPECT_EQ(column(ts, "lat_p99_s"), "0.5");
}

TEST(InflightJobs, MatchesAMinHeapForAnyFinishOrder) {
  // FIFO resources append in finish order; any other order must still give
  // the exact in-flight count a min-heap of finish times gives.
  obs::InflightJobs jobs;
  std::priority_queue<double, std::vector<double>, std::greater<>> heap;
  Rng rng(11);
  double arrival = 0.0;
  for (int i = 0; i < 2000; ++i) {
    arrival += rng.uniform(0.0, 1.0);
    const double finish = arrival + rng.uniform(0.0, i % 3 == 0 ? 8.0 : 2.0);
    while (!heap.empty() && heap.top() <= arrival) heap.pop();
    heap.push(finish);
    ASSERT_EQ(jobs.admit(arrival, finish), heap.size()) << i;
  }
}

// ---------------------------------------------------------- health monitor ----

/// Drives one synthetic job per (window, server) directly through the Sink
/// surface: server `slow`'s latency is `slow_lat`, everyone else's 0.1 s.
void feed_window(obs::HealthMonitor& hm,
                 const std::vector<std::uint32_t>& tracks, std::int64_t w,
                 int slow, double slow_lat) {
  for (std::size_t s = 0; s < tracks.size(); ++s) {
    const double arrival = static_cast<double>(w) + 0.05;
    const double lat = static_cast<int>(s) == slow ? slow_lat : 0.1;
    hm.resource_event(tracks[s], arrival, arrival, arrival + lat);
  }
}

TEST(HealthMonitor, FlagAndRecoverHysteresis) {
  obs::HealthMonitor::Options opt;
  opt.interval = 1.0;
  opt.flag_threshold = 2.0;
  opt.recover_threshold = 1.25;
  opt.flag_windows = 2;
  opt.recover_windows = 2;
  obs::HealthMonitor hm(opt, nullptr);
  std::vector<std::uint32_t> tracks;
  for (std::uint32_t s = 0; s < 3; ++s) {
    tracks.push_back(hm.register_server(s, 0, "srv", false));
  }

  // Windows 0-1 healthy; 2-3 server 0 slow (score 10 >= threshold).  One
  // slow window must NOT flag (hysteresis); the second must.
  feed_window(hm, tracks, 0, -1, 0.0);
  feed_window(hm, tracks, 1, -1, 0.0);
  feed_window(hm, tracks, 2, 0, 1.0);
  feed_window(hm, tracks, 3, 0, 1.0);
  feed_window(hm, tracks, 4, 0, 0.1);  // watermark: scores windows 0-3
  EXPECT_TRUE(hm.is_flagged(0));
  EXPECT_FALSE(hm.is_flagged(1));
  EXPECT_NEAR(hm.server_score(0), 10.0, 1e-9);

  // Two healthy windows recover it — but only after BOTH have scored.
  feed_window(hm, tracks, 5, -1, 0.0);  // scores window 4: one healthy
  EXPECT_TRUE(hm.is_flagged(0));
  feed_window(hm, tracks, 6, -1, 0.0);  // scores window 5: second healthy
  EXPECT_FALSE(hm.is_flagged(0));
  hm.finalize();  // scores the trailing window 6 (idempotent afterwards)
  EXPECT_DOUBLE_EQ(hm.metrics().value("health.straggler_flagged",
                                      obs::LabelSet{}.server(0)),
                   1.0);
  EXPECT_DOUBLE_EQ(hm.metrics().value("health.recovered",
                                      obs::LabelSet{}.server(0)),
                   1.0);

  std::ostringstream os;
  hm.write_json(os, 0);
  EXPECT_NE(os.str().find("\"flag_count\": 1"), std::string::npos);
}

TEST(HealthMonitor, DeadBandResetsBothStreaks) {
  // Scores inside (recover_threshold, flag_threshold) are the hysteresis
  // dead band: a straggler that hovers at ~1.5x never accumulates enough
  // consecutive slow windows to flag.
  obs::HealthMonitor::Options opt;
  opt.interval = 1.0;
  opt.flag_threshold = 2.0;
  opt.recover_threshold = 1.25;
  opt.flag_windows = 2;
  obs::HealthMonitor hm(opt, nullptr);
  std::vector<std::uint32_t> tracks;
  for (std::uint32_t s = 0; s < 3; ++s) {
    tracks.push_back(hm.register_server(s, 0, "srv", false));
  }
  // Alternate slow (score 10) and dead-band (score 1.5) windows: the flag
  // streak resets every other window, so server 0 is never flagged.
  for (std::int64_t w = 0; w < 8; ++w) {
    feed_window(hm, tracks, w, 0, w % 2 == 0 ? 1.0 : 0.15);
  }
  hm.finalize();
  EXPECT_FALSE(hm.is_flagged(0));
  EXPECT_DOUBLE_EQ(hm.metrics().value("health.straggler_flagged",
                                      obs::LabelSet{}.server(0)),
                   0.0);
}

TEST(HealthMonitor, SloAttainmentTracksRequestsAndSubs) {
  obs::HealthMonitor::Options opt;
  opt.interval = 1.0;
  opt.slo = 0.5;
  obs::HealthMonitor hm(opt, nullptr);
  const std::uint32_t track = hm.register_server(2, 0, "srv", true);
  (void)track;

  // Request 1 (read): sub resident 0.3 s <= SLO, request latency 0.4 s.
  const std::uint32_t r1 = hm.begin_request(0, IoOp::kRead, 0, KiB, 0.0);
  const std::uint32_t s1 = hm.begin_sub(r1, 2, 0, KiB, 0.0);
  hm.sub_storage(s1, 0.0, 0.1, 0.05, 0.2);  // (0.1-0.0) + 0.2 = 0.3
  hm.sub_net_done(s1, 0.35);
  hm.end_request(r1, 0.4);
  // Request 2 (read): sub resident 0.8 s > SLO, request latency 0.9 s.
  const std::uint32_t r2 = hm.begin_request(0, IoOp::kRead, 0, KiB, 1.0);
  const std::uint32_t s2 = hm.begin_sub(r2, 2, 0, KiB, 1.0);
  hm.sub_storage(s2, 1.0, 1.6, 0.05, 0.2);  // (1.6-1.0) + 0.2 = 0.8
  hm.sub_net_done(s2, 1.85);
  hm.end_request(r2, 1.9);
  hm.finalize();

  const obs::LabelSet by_server = obs::LabelSet{}.server(2);
  const obs::LabelSet by_op = obs::LabelSet{}.op(IoOp::kRead);
  EXPECT_DOUBLE_EQ(hm.metrics().value("health.slo.subs_total", by_server),
                   2.0);
  EXPECT_DOUBLE_EQ(hm.metrics().value("health.slo.subs_met", by_server), 1.0);
  EXPECT_DOUBLE_EQ(hm.metrics().value("health.slo.requests_total", by_op),
                   2.0);
  EXPECT_DOUBLE_EQ(hm.metrics().value("health.slo.requests_met", by_op), 1.0);

  std::ostringstream os;
  hm.write_json(os, 0);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"read_total\": 2, \"read_met\": 1"),
            std::string::npos);
  EXPECT_NE(json.find("\"slo_subs_total\": 2, \"slo_subs_met\": 1"),
            std::string::npos);
}

TEST(HealthMonitor, ForwardsEverySinkCallDownstream) {
  // As a transparent forwarder in front of a Recorder, the monitor must not
  // swallow anything: the recorder sees the same spans/requests it would
  // have seen directly, plus the health instants the monitor originates.
  sim::Simulator sim;
  obs::Recorder rec;
  obs::HealthMonitor::Options opt;
  opt.interval = 1e-3;
  opt.flag_windows = 1;
  opt.min_window_jobs = 1;
  obs::HealthMonitor hm(opt, &rec);
  sim.set_observer(&hm);
  sim::FifoResource res(sim, "disk");
  res.set_obs_track(hm.register_server(0, 0, "disk", false));
  res.submit(1e-3, [] {});
  res.submit(2e-3, [] {});
  sim.run();

  const auto summaries = rec.resource_summaries();
  ASSERT_EQ(summaries.size(), 1u);
  EXPECT_EQ(summaries[0].jobs, 2u);
  // Both jobs were submitted at t=0, so both land in telemetry window 0.
  EXPECT_EQ(hm.timeseries().window_jobs(0, 0), 2u);
}

// -------------------------------------------------------------- timeline ----

TEST(Timeline, CoalescesInsteadOfGrowing) {
  obs::Timeline tl(1e-3, 8, /*take_max=*/false);
  // Busy the first millisecond, then jump 10 simulated seconds ahead: the
  // bucket width must double until t fits, and the recorded busy-seconds
  // must be conserved across coalescing.
  tl.add_span(0.0, 1e-3);
  tl.add_span(10.0, 10.5);
  EXPECT_LE(tl.values().size(), 8u);
  double total = 0.0;
  for (double v : tl.values()) total += v;
  EXPECT_NEAR(total, 1e-3 + 0.5, 1e-9);
  EXPECT_GE(tl.bucket_width() * 8.0, 10.5);
}

TEST(Timeline, MaxModeKeepsHighWaterMarks) {
  obs::Timeline tl(1.0, 4, /*take_max=*/true);
  tl.sample_max(0.5, 3.0);
  tl.sample_max(0.6, 2.0);  // lower sample in the same bucket must not win
  EXPECT_DOUBLE_EQ(tl.values()[0], 3.0);
}

// ----------------------------------------------------- recorder: resources ----

TEST(Recorder, FifoSpansWaitsAndSummaries) {
  sim::Simulator sim;
  obs::Recorder rec;
  sim.set_observer(&rec);
  sim::FifoResource res(sim, "disk");
  res.set_obs_track(rec.register_server(0, 0, "disk", false));

  // Two back-to-back jobs: the second queues behind the first.
  res.submit(1e-3, [] {});
  res.submit(2e-3, [] {});
  sim.run();

  const auto summaries = rec.resource_summaries();
  ASSERT_EQ(summaries.size(), 1u);
  const auto& s = summaries[0];
  EXPECT_EQ(s.kind, obs::TrackKind::kServerDisk);
  EXPECT_EQ(s.jobs, 2u);
  EXPECT_NEAR(s.busy, res.busy_time(), 1e-12);
  EXPECT_NEAR(s.queue_delay, 1e-3, 1e-12);  // job 2 waited for job 1
  EXPECT_EQ(s.depth_max, 2u);
  ASSERT_NE(s.wait, nullptr);
  ASSERT_NE(s.service, nullptr);
  EXPECT_EQ(s.service->count(), 2u);
  EXPECT_NEAR(s.service->max(), 2e-3, 1e-12);
  // One X span per job plus one wait record for the queued job (async b/e
  // pairs are stored once and expanded at export time).
  EXPECT_EQ(rec.trace_events_recorded(), 3u);
  EXPECT_NEAR(rec.last_time(), 3e-3, 1e-12);
}

TEST(Recorder, RingBufferBoundsTraceMemory) {
  obs::Recorder::Options opts;
  opts.max_trace_events = 8;
  sim::Simulator sim;
  obs::Recorder rec(opts);
  sim.set_observer(&rec);
  sim::FifoResource res(sim, "disk");
  res.set_obs_track(rec.register_server(0, 0, "disk", false));
  for (int i = 0; i < 100; ++i) res.submit(1e-4, [] {});
  sim.run();

  EXPECT_GT(rec.trace_events_recorded(), 8u);
  EXPECT_EQ(rec.trace_events_dropped(), rec.trace_events_recorded() - 8u);
  // The exported trace holds only the ring's survivors (plus metadata).
  std::ostringstream out;
  rec.write_trace_json(out);
  const std::string json = out.str();
  std::size_t spans = 0;
  for (std::size_t pos = json.find("\"ph\": \"X\""); pos != std::string::npos;
       pos = json.find("\"ph\": \"X\"", pos + 1)) {
    ++spans;
  }
  EXPECT_LE(spans, 8u);
  EXPECT_GT(spans, 0u);
}

TEST(Recorder, TraceJsonHasChromeTraceShape) {
  sim::Simulator sim;
  obs::Recorder rec;
  sim.set_observer(&rec);
  sim::FifoResource res(sim, "disk");
  res.set_obs_track(rec.register_server(2, 1, "sserver_2", true));
  res.submit(1e-3, [] {});
  res.submit(1e-3, [] {});
  sim.run();

  std::ostringstream out;
  rec.write_trace_json(out, "harl-test");
  const std::string json = out.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
  EXPECT_NE(json.find("process_name"), std::string::npos);
  EXPECT_NE(json.find("thread_name"), std::string::npos);
  EXPECT_NE(json.find("sserver_2"), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);  // service span
  EXPECT_NE(json.find("\"ph\": \"b\""), std::string::npos);  // queue wait
  EXPECT_NE(json.find("\"ph\": \"e\""), std::string::npos);
}

TEST(Recorder, HealthScoreSaturatesInsteadOfOverflowing) {
  // A score is a ratio of window means; a denormal fleet median makes it
  // inf.  Its micro-unit trace slot must saturate (and NaN must map to 0),
  // not hit the undefined out-of-range float -> integer conversion.
  obs::Recorder rec;
  rec.health_event(obs::Sink::HealthEvent::kStragglerFlagged, 3,
                   std::numeric_limits<double>::infinity(), 1.0);
  rec.health_event(obs::Sink::HealthEvent::kStragglerRecovered, 3,
                   std::numeric_limits<double>::quiet_NaN(), 2.0);
  rec.health_event(obs::Sink::HealthEvent::kStragglerFlagged, 4, 2.5, 3.0);
  std::ostringstream out;
  rec.write_trace_json(out);
  const std::string json = out.str();
  // 2^64 - 1 micro-units, printed at 17 significant digits.
  EXPECT_NE(json.find("\"score\": 18446744073709.551}"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"score\": 0}"), std::string::npos) << json;
  EXPECT_NE(json.find("\"score\": 2.5}"), std::string::npos) << json;
}

// ------------------------------------------- recorder: request attribution ----

/// Deterministic one-tier cluster: fixed startup window (min == max), flat
/// per-byte rates, no GC, no faults — every component of the paper's
/// decomposition is analytically known.
pfs::ClusterConfig deterministic_config() {
  storage::TierProfile det;
  det.name = "det";
  det.read = storage::OpProfile{500e-6, 500e-6, 1e-8};
  det.write = storage::OpProfile{500e-6, 500e-6, 1e-8};
  pfs::ClusterConfig cfg;
  cfg.tiers = {pfs::TierGroup{"det", 2, det, /*is_ssd=*/true}};
  cfg.num_clients = 1;
  cfg.network = net::NetworkParams{1e-9, 40e-6};
  cfg.server_per_stripe_overhead = 50e-6;
  return cfg;
}

/// The analytic cost parameters matching what the simulator actually charges
/// an uncontended request: each transfer serializes on two FIFO links, so
/// the model sees 2 hops and twice the per-message latency.
core::TieredCostParams matching_params(const pfs::ClusterConfig& cfg) {
  core::TieredCostParams params;
  for (const auto& group : cfg.tiers) {
    params.tiers.push_back(core::TierSpec{group.count, group.profile});
  }
  params.t = cfg.network.per_byte;
  params.net_latency = 2.0 * cfg.network.message_latency;
  params.net_hops = 2;
  params.per_stripe_overhead = cfg.server_per_stripe_overhead;
  return params;
}

TEST(Recorder, ReconcilesMeasuredDecompositionAgainstCostModel) {
  // Acceptance scenario: single request, idle deterministic cluster.  The
  // measured T_X/T_S/T_T (+ queue wait) must sum to the request's completion
  // time exactly, and the tiered cost model with the matching parameters
  // must predict that completion time to float round-off.
  for (const IoOp op : {IoOp::kRead, IoOp::kWrite}) {
    const pfs::ClusterConfig cfg = deterministic_config();
    const core::TieredCostParams params = matching_params(cfg);
    const std::vector<Bytes> stripes = {64 * KiB};

    sim::Simulator sim;
    obs::Recorder rec;
    rec.set_predictor([&](IoOp o, Bytes offset, Bytes size) {
      return core::tiered_request_cost(params, o, offset, size, stripes);
    });
    sim.set_observer(&rec);
    pfs::Cluster cluster(sim, cfg);
    auto layout = pfs::make_fixed_layout(cluster.num_servers(), 64 * KiB);

    bool completed = false;
    cluster.client(0).io(*layout, op, 0, 64 * KiB, [&] { completed = true; });
    sim.run();
    ASSERT_TRUE(completed);

    ASSERT_EQ(rec.requests().size(), 1u);
    const obs::Recorder::RequestSample& r = rec.requests().front();
    EXPECT_EQ(r.op, op);
    ASSERT_EQ(r.subs.size(), 1u);  // 64K at offset 0 touches one server
    const obs::Recorder::SubSample& sub = r.subs.front();

    // Analytically known components.
    const Seconds hop = 40e-6 + 64.0 * 1024.0 * 1e-9;
    EXPECT_NEAR(sub.t_x, 2.0 * hop, 1e-12);           // two serialized links
    EXPECT_NEAR(sub.t_s, 500e-6, 1e-12);              // fixed startup window
    EXPECT_NEAR(sub.t_t, 64.0 * 1024.0 * 1e-8 + 50e-6, 1e-12);
    EXPECT_NEAR(sub.wait, 0.0, 1e-12);                // idle queue

    // The decomposition must account for the whole request, end to end.
    EXPECT_NEAR(sub.wait + sub.t_s + sub.t_t + sub.t_x, r.latency(), 1e-12);

    // And the analytic model must reconcile with the measurement.
    ASSERT_GE(r.predicted, 0.0);
    EXPECT_NEAR(r.predicted, r.latency(), 1e-9);
    const LogHistogram* err = rec.metrics().histogram(
        "model.rel_error", obs::LabelSet{}.region(r.region).op(op));
    ASSERT_NE(err, nullptr);
    EXPECT_EQ(err->count(), 1u);
    EXPECT_LT(err->max(), 1e-6);
  }
}

TEST(Recorder, SubComponentsSumEvenUnderContention) {
  // A striped request whose sub-transfers contend on the client NIC: the
  // per-sub identity wait + T_S + T_T + T_X == done - issue must still hold
  // exactly, because queueing shows up in wait (storage) or T_X (network).
  const pfs::ClusterConfig cfg = deterministic_config();
  sim::Simulator sim;
  obs::Recorder rec;
  sim.set_observer(&rec);
  pfs::Cluster cluster(sim, cfg);
  auto layout = pfs::make_fixed_layout(cluster.num_servers(), 64 * KiB);

  int completed = 0;
  cluster.client(0).io(*layout, IoOp::kRead, 0, 256 * KiB,
                       [&] { ++completed; });
  cluster.client(0).io(*layout, IoOp::kWrite, 256 * KiB, 256 * KiB,
                       [&] { ++completed; });
  sim.run();
  ASSERT_EQ(completed, 2);

  ASSERT_EQ(rec.requests().size(), 2u);
  for (const auto& r : rec.requests()) {
    ASSERT_GT(r.subs.size(), 1u);
    Seconds last_done = 0.0;
    for (const auto& sub : r.subs) {
      EXPECT_NEAR(sub.wait + sub.t_s + sub.t_t + sub.t_x,
                  sub.done - sub.issue, 1e-12);
      last_done = std::max(last_done, sub.done);
    }
    // The request completes when its slowest sub-request does.
    EXPECT_NEAR(last_done, r.done, 1e-12);
  }
  EXPECT_EQ(rec.requests_completed(), 2u);
}

TEST(Recorder, ReproducesFig1aImbalanceOrderingUnderRoundRobin) {
  // The paper's Fig. 1a story: uniform round-robin striping on a hybrid
  // cluster loads every server with the same bytes, so the HDD servers'
  // I/O time dominates the SSD servers'.  The recorder's per-server
  // summaries and metrics must reproduce that ordering.
  pfs::ClusterConfig cfg;  // paper default: 6 HServers + 2 SServers
  cfg.num_clients = 4;
  sim::Simulator sim;
  obs::Recorder rec;
  sim.set_observer(&rec);
  pfs::Cluster cluster(sim, cfg);
  auto layout = pfs::make_fixed_layout(cluster.num_servers(), 64 * KiB);

  int completed = 0;
  for (int i = 0; i < 16; ++i) {
    cluster.client(i % 4).io(*layout, i % 2 ? IoOp::kRead : IoOp::kWrite,
                             static_cast<Bytes>(i) * MiB, 1 * MiB,
                             [&] { ++completed; });
  }
  sim.run();
  ASSERT_EQ(completed, 16);

  double hdd_busy = 0.0, ssd_busy = 0.0;
  std::size_t hdd_n = 0, ssd_n = 0;
  for (const auto& s : rec.resource_summaries()) {
    if (s.kind != obs::TrackKind::kServerDisk) continue;
    EXPECT_GT(s.jobs, 0u);
    if (s.is_ssd) {
      ssd_busy += s.busy;
      ++ssd_n;
    } else {
      hdd_busy += s.busy;
      ++hdd_n;
    }
  }
  ASSERT_EQ(hdd_n, 6u);
  ASSERT_EQ(ssd_n, 2u);
  EXPECT_GT(hdd_busy / static_cast<double>(hdd_n),
            ssd_busy / static_cast<double>(ssd_n));

  // Same ordering through the metrics registry's per-server byte counters:
  // round-robin spreads bytes evenly, so the imbalance is time, not bytes.
  const auto& reg = rec.metrics();
  const double bytes_h0 = reg.value(
      "pfs.server.bytes", obs::LabelSet{}.server(0).tier(0).op(IoOp::kRead));
  const double bytes_s7 = reg.value(
      "pfs.server.bytes", obs::LabelSet{}.server(7).tier(1).op(IoOp::kRead));
  EXPECT_DOUBLE_EQ(bytes_h0, bytes_s7);
}

TEST(Recorder, MetricsJsonIsWellFormedEnoughToGrep) {
  const pfs::ClusterConfig cfg = deterministic_config();
  sim::Simulator sim;
  obs::Recorder rec;
  sim.set_observer(&rec);
  pfs::Cluster cluster(sim, cfg);
  auto layout = pfs::make_fixed_layout(cluster.num_servers(), 64 * KiB);
  bool completed = false;
  cluster.client(0).io(*layout, IoOp::kRead, 0, 64 * KiB,
                       [&] { completed = true; });
  sim.run();
  ASSERT_TRUE(completed);

  std::ostringstream out;
  rec.write_metrics_json(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"horizon_s\""), std::string::npos);
  EXPECT_NE(json.find("\"requests_completed\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"resources\""), std::string::npos);
  EXPECT_NE(json.find("\"busy_timeline\""), std::string::npos);
  EXPECT_NE(json.find("\"depth_timeline\""), std::string::npos);
  EXPECT_NE(json.find("client.request.latency"), std::string::npos);
  EXPECT_NE(json.find("request.t_x"), std::string::npos);
}

}  // namespace
}  // namespace harl
