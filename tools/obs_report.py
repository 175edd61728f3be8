#!/usr/bin/env python3
"""Summarize and validate harl_sim observability output.

Usage:
  obs_report.py METRICS.json [--trace TRACE.json] [--check] [--quiet]
  obs_report.py --timeseries TS.json [--require-health] [--html DASH.html]

METRICS.json is the file written by `harl_sim metrics-out=...`; TRACE.json is
the Chrome trace-event file from `trace-out=...`; TS.json is the telemetry
plane dump from `timeseries-out=...` (windowed per-server time series plus
the straggler/SLO health monitor summary, DESIGN.md §15).

Default mode prints, per scheme: the per-server I/O-time breakdown (disk busy
+ server-NIC busy, the paper's Fig. 1a quantity) with utilization, the
measured request decomposition (T_X / T_S / T_T medians per tier), and the
cost-model relative-error distribution per region.

--check validates instead of summarizing:
  * metrics: schemes present; busy/jobs/utilization sane; histogram
    bucket counts consistent with totals; counters non-negative; adaptive
    runs (adaptive.* / migration.* families) internally consistent —
    epoch installs never exceed recommendations, and installed epochs
    imply migration traffic (bytes, chunks, interference).
  * cache runs (cache.* families): the directory counters reconcile —
    lookups == hits + misses, admissions == fills_completed +
    fills_discarded (the run drains, so every issued fill either landed
    or was poisoned), hit/miss byte totals consistent with the lookup
    counts, and fill traffic present whenever fills completed.
  * devices (heterogeneous fleets only): per-server device blocks carry
    consecutive server indices, positive speed factors in canonical
    (ascending-per-tier) order, and non-negative busy times; when both a
    fixed-stripe scheme and the offline HARL scheme are present, HARL's
    relative busy-time spread across the devices it actually drives on
    each aged tier must not exceed the fixed layout's — the device-aware
    planner either levels aged tiers or excludes the stragglers outright
    (idle devices don't count as imbalance), blind round-robin striping
    does neither.
  * trace: valid Chrome trace JSON; complete ("X") spans on each track are
    disjoint and sorted, so span nesting is monotone per track; every async
    "b" has a matching "e" with end >= begin; instants carry timestamps.
  * timeseries (--timeseries): column arrays all share the window count,
    window indices strictly increase, per-window busy never exceeds the
    window width, utilization == busy/interval, and latency quantiles are
    monotone (p50 <= p95 <= p99) wherever the window saw jobs.
  * health (--timeseries): per-server scores/counters sane, SLO attainment
    never exceeds totals, recover counts never exceed flag counts.
--require-adaptive additionally fails unless at least one scheme carries
adaptive epoch metrics (used by the CI adaptive smoke step).
--require-health additionally fails unless at least one scheme flagged a
straggler AND (when an SLO is armed) the flagged servers' attainment is
strictly below every healthy server's — i.e. the regression localizes to
the injected straggler (used by the CI telemetry smoke step).
--require-tenant additionally fails unless at least one scheme's health
block carries a per-tenant SLO attainment table ("tenants", written by
namespace population runs with files >= 1 and an SLO) whose counters
reconcile (used by the CI rebuild-storm smoke step).
--html writes a self-contained SVG dashboard (no JavaScript) of the
per-server utilization / p99 latency / queue-depth timelines.
Exit code 0 when every check passes, 1 otherwise; malformed input (empty,
truncated, or wrong-shape JSON) is a clear FAIL, never a traceback.
"""

import argparse
import json
import sys
from collections import defaultdict

ANSI_OK = True


def fail(msg):
    print(f"obs_report: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{path}: {e}")


def load_doc(path):
    """Loads a report file and insists on the top-level envelope shape.

    Truncated or empty files die inside load_json; this catches valid JSON
    of the wrong shape (null, a list, a bare number) so every malformed
    input is a clear FAIL instead of an AttributeError traceback.
    """
    doc = load_json(path)
    if not isinstance(doc, dict):
        fail(f"{path}: top-level JSON must be an object, got "
             f"{type(doc).__name__}")
    return doc


def scheme_list(doc, path):
    schemes = doc.get("schemes")
    if not isinstance(schemes, list) or not schemes:
        fail(f"{path}: no schemes array")
    for i, scheme in enumerate(schemes):
        if not isinstance(scheme, dict):
            fail(f"{path}: schemes[{i}] is not an object")
    return schemes


# --- metrics ----------------------------------------------------------------

def counter_total(report, name):
    """Sum of a counter family's series values, or None if absent."""
    series = [s for s in report.get("metrics", [])
              if s.get("name") == name and s.get("type") == "counter"]
    if not series:
        return None
    return sum(s.get("value", 0.0) for s in series)


def check_adaptive(label, report):
    """Consistency of the adaptive.* / migration.* counter families."""
    windows = counter_total(report, "adaptive.windows")
    if windows is None:
        return False  # not an adaptive run
    recs = counter_total(report, "adaptive.recommendations") or 0.0
    epochs = counter_total(report, "adaptive.epoch_installs") or 0.0
    deferred = counter_total(report, "adaptive.recommendations_deferred") or 0.0
    migrated = counter_total(report, "migration.migrated_bytes") or 0.0
    chunks = counter_total(report, "migration.chunks") or 0.0
    interference = counter_total(report, "migration.interference_s") or 0.0
    if epochs + deferred > recs + 1e-9:
        fail(f"metrics[{label}]: {epochs} epochs + {deferred} deferred exceed "
             f"{recs} recommendations")
    if recs > windows + 1e-9:
        fail(f"metrics[{label}]: more recommendations ({recs}) than analysis "
             f"windows ({windows})")
    if epochs > 0 and (migrated <= 0 or chunks <= 0):
        fail(f"metrics[{label}]: {epochs} epoch(s) installed but no migration "
             f"traffic recorded")
    if epochs == 0 and migrated > 0:
        fail(f"metrics[{label}]: migration bytes without any installed epoch")
    if interference < -1e-12:
        fail(f"metrics[{label}]: negative migration interference")
    evals = counter_total(report, "adaptive.cost_evals") or 0.0
    if windows > 0 and evals <= 0:
        fail(f"metrics[{label}]: analysis windows ran but zero cost "
             f"evaluations recorded")
    return True


def check_cache(label, report):
    """Reconciliation of the cache.* counter families (read-cache runs)."""
    lookups = counter_total(report, "cache.lookups")
    if lookups is None:
        return False  # not a cache-enabled run
    hits = counter_total(report, "cache.hits") or 0.0
    misses = counter_total(report, "cache.misses") or 0.0
    admissions = counter_total(report, "cache.admissions") or 0.0
    completed = counter_total(report, "cache.fills_completed") or 0.0
    discarded = counter_total(report, "cache.fills_discarded") or 0.0
    evictions = counter_total(report, "cache.evictions") or 0.0
    hit_bytes = counter_total(report, "cache.hit_bytes") or 0.0
    miss_bytes = counter_total(report, "cache.miss_bytes") or 0.0
    fill_bytes = counter_total(report, "cache.fill_bytes") or 0.0
    if abs(hits + misses - lookups) > 1e-6:
        fail(f"metrics[{label}]: cache lookups {lookups} != hits {hits} + "
             f"misses {misses}")
    # The measured run drains before stats are read, so every admission's
    # fill either landed or was poisoned by an invalidate/re-split.
    if abs(completed + discarded - admissions) > 1e-6:
        fail(f"metrics[{label}]: cache admissions {admissions} != "
             f"fills_completed {completed} + fills_discarded {discarded}")
    if hits > 0 and hit_bytes <= 0:
        fail(f"metrics[{label}]: {hits} cache hits but zero hit bytes")
    if misses > 0 and miss_bytes <= 0:
        fail(f"metrics[{label}]: {misses} cache misses but zero miss bytes")
    if completed > 0 and fill_bytes <= 0:
        fail(f"metrics[{label}]: {completed} fills completed but zero fill "
             f"traffic")
    if evictions > admissions:
        fail(f"metrics[{label}]: more cache evictions ({evictions}) than "
             f"admissions ({admissions})")
    return True


def is_fixed_label(label):
    """Fixed-stripe scheme labels look like a size ("64K", "1M")."""
    return (len(label) >= 2 and label[-1] in "KMG"
            and label[:-1].isdigit())


def check_devices(doc):
    """Validate per-scheme devices blocks; cross-check busy-time spread."""
    # label -> {tier: relative busy spread over that aged tier}
    spreads = {}
    for scheme in doc.get("schemes", []):
        label = scheme.get("label", "?")
        devices = scheme.get("devices")
        if devices is None:
            continue
        if not isinstance(devices, list) or not devices:
            fail(f"metrics[{label}]: devices block present but empty")
        by_tier = defaultdict(list)  # tier -> [(factor, busy_s)]
        for i, dev in enumerate(devices):
            for key in ("server", "tier", "name", "factor", "busy_s"):
                if key not in dev:
                    fail(f"metrics[{label}]: devices[{i}] missing {key!r}")
            if dev["server"] != i:
                fail(f"metrics[{label}]: devices[{i}] has server index "
                     f"{dev['server']} (must be consecutive)")
            if dev["factor"] <= 0:
                fail(f"metrics[{label}]: devices[{i}] has non-positive "
                     f"speed factor {dev['factor']}")
            if dev["busy_s"] < -1e-12:
                fail(f"metrics[{label}]: devices[{i}] has negative busy "
                     f"time")
            by_tier[dev["tier"]].append((dev["factor"], dev["busy_s"]))
        if all(f == 1.0 for rows in by_tier.values() for f, _ in rows):
            fail(f"metrics[{label}]: devices block present but every "
                 f"factor is 1.0 (homogeneous fleets must omit it)")
        tier_spreads = {}
        for tier, rows in by_tier.items():
            factors = [f for f, _ in rows]
            if factors != sorted(factors):
                fail(f"metrics[{label}]: tier {tier} device factors "
                     f"{factors} not in canonical ascending order")
            if len(set(factors)) > 1:
                # A device-aware plan may exclude aged stragglers from the
                # stripe entirely; an idle device is the planner's answer,
                # not an imbalance, so spread counts participants only.
                busy = [b for _, b in rows if b > 1e-12]
                if len(busy) >= 2:
                    mean = sum(busy) / len(busy)
                    if mean > 0:
                        tier_spreads[tier] = (max(busy) - min(busy)) / mean
        spreads[label] = tier_spreads
    if not spreads:
        return 0
    # Utilization-spread cross-check: across the devices it drives, the
    # device-aware offline HARL scheme levels aged tiers relative to
    # blind fixed striping.
    fixed = next((spreads[lbl] for lbl in spreads if is_fixed_label(lbl)),
                 None)
    harl = spreads.get("HARL")
    if fixed is not None and harl is not None:
        for tier, harl_spread in harl.items():
            fixed_spread = fixed.get(tier)
            if fixed_spread is None or fixed_spread <= 0:
                continue
            if harl_spread > fixed_spread * 1.02:
                fail(f"devices: HARL busy-time spread {harl_spread:.3f} "
                     f"over its participants on aged tier {tier} exceeds "
                     f"fixed striping's {fixed_spread:.3f} — device-aware "
                     f"planning should level the devices it drives")
    return len(spreads)


def check_metrics(doc, path="metrics"):
    schemes = scheme_list(doc, path)
    adaptive_schemes = 0
    cache_schemes = 0
    for scheme in schemes:
        label = scheme.get("label", "?")
        report = scheme.get("report")
        if not isinstance(report, dict):
            fail(f"metrics[{label}]: missing report")
        horizon = report.get("horizon_s", 0.0)
        if horizon < 0:
            fail(f"metrics[{label}]: negative horizon")
        if report.get("requests_completed", 0) < 0:
            fail(f"metrics[{label}]: negative request count")
        for res in report.get("resources", []):
            name = res.get("name", "?")
            if res.get("busy_s", 0.0) < -1e-12:
                fail(f"metrics[{label}]/{name}: negative busy time")
            if res.get("queue_delay_s", 0.0) < -1e-12:
                fail(f"metrics[{label}]/{name}: negative queue delay")
            util = res.get("utilization", 0.0)
            if not (0.0 <= util <= 1.0 + 1e-9):
                fail(f"metrics[{label}]/{name}: utilization {util} not in [0,1]")
            tl = res.get("busy_timeline", {})
            width = tl.get("bucket_s", 0.0)
            if width <= 0:
                fail(f"metrics[{label}]/{name}: non-positive timeline bucket")
            for v in tl.get("busy_s", []):
                if v < -1e-12 or v > width * (1 + 1e-9):
                    fail(f"metrics[{label}]/{name}: timeline bucket busy {v} "
                         f"outside [0, {width}]")
        for series in report.get("metrics", []):
            if series.get("type") == "counter":
                if series.get("value", 0.0) < -1e-12:
                    fail(f"metrics[{label}]/{series.get('name')}: negative "
                         f"counter")
                continue
            if series.get("type") not in ("histogram", "sketch"):
                continue
            count = series.get("count", 0)
            bucket_total = sum(b[2] for b in series.get("buckets", []))
            if bucket_total > count:
                fail(f"metrics[{label}]/{series.get('name')}: bucket counts "
                     f"{bucket_total} exceed total {count}")
            if count > 0 and series.get("min", 0) > series.get("max", 0):
                fail(f"metrics[{label}]/{series.get('name')}: min > max")
            if series.get("type") == "sketch" and count > 0:
                # Mergeable quantile sketch: the reported quantiles come
                # from one monotone CDF walk, so they must be monotone too.
                qs = [series.get(q, 0.0)
                      for q in ("p50", "p95", "p99", "p999")]
                if any(b < a - 1e-12 for a, b in zip(qs, qs[1:])):
                    fail(f"metrics[{label}]/{series.get('name')}: sketch "
                         f"quantiles not monotone: {qs}")
                if (qs[0] < series.get("min", 0.0) - 1e-12
                        or qs[-1] > series.get("max", 0.0) + 1e-12):
                    fail(f"metrics[{label}]/{series.get('name')}: sketch "
                         f"quantiles outside [min, max]")
        if check_adaptive(label, report):
            adaptive_schemes += 1
        if check_cache(label, report):
            cache_schemes += 1
    return len(schemes), adaptive_schemes, cache_schemes


def server_breakdown(report):
    """Per server entity: disk busy + server-NIC busy (Fig. 1a I/O time)."""
    servers = {}
    for res in report.get("resources", []):
        kind = res.get("kind")
        entity = res.get("entity")
        if entity is None or kind not in ("server_disk", "server_nic"):
            continue
        row = servers.setdefault(entity, {
            "name": None, "tier": None, "is_ssd": False,
            "disk_s": 0.0, "nic_s": 0.0, "jobs": 0, "depth_max": 0,
        })
        if kind == "server_disk":
            row["name"] = res.get("name")
            row["tier"] = res.get("tier")
            row["is_ssd"] = bool(res.get("is_ssd"))
            row["disk_s"] = res.get("busy_s", 0.0)
            row["jobs"] = res.get("jobs", 0)
            row["depth_max"] = res.get("depth_max", 0)
        else:
            row["nic_s"] = res.get("busy_s", 0.0)
    return dict(sorted(servers.items()))


def histogram_rows(report, name):
    return [s for s in report.get("metrics", []) if s.get("name") == name]


def label_str(labels):
    return ",".join(f"{k}={v}" for k, v in sorted(labels.items())) or "-"


def summarize(doc):
    for scheme in doc["schemes"]:
        report = scheme["report"]
        horizon = report.get("horizon_s", 0.0)
        print(f"== {scheme.get('label', '?')} "
              f"({scheme.get('layout', '')}, {scheme.get('regions', 1)} "
              f"region(s)) ==")
        print(f"horizon {horizon:.4f}s, "
              f"{report.get('requests_completed', 0)} requests, "
              f"{report.get('trace_events_recorded', 0)} trace events "
              f"({report.get('trace_events_dropped', 0)} dropped)")

        servers = server_breakdown(report)
        if servers:
            print("  per-server I/O time (disk + server NIC, Fig. 1a):")
            for entity, row in servers.items():
                io_time = row["disk_s"] + row["nic_s"]
                util = io_time / horizon if horizon > 0 else 0.0
                bar = "#" * int(round(40 * min(util, 1.0)))
                print(f"    s{entity:<2} {row['name'] or '?':<12} "
                      f"{io_time:9.4f}s (disk {row['disk_s']:.4f} + nic "
                      f"{row['nic_s']:.4f}) util {util:5.1%} "
                      f"depth<= {row['depth_max']:<4} {bar}")
            hs = [r["disk_s"] + r["nic_s"]
                  for r in servers.values() if not r["is_ssd"]]
            ss = [r["disk_s"] + r["nic_s"]
                  for r in servers.values() if r["is_ssd"]]
            if hs and ss:
                print(f"    HServer mean {sum(hs) / len(hs):.4f}s vs "
                      f"SServer mean {sum(ss) / len(ss):.4f}s "
                      f"(imbalance x{(sum(hs) / len(hs)) / (sum(ss) / len(ss)):.2f})"
                      if sum(ss) > 0 else "")

        comp = {}
        for name in ("request.t_x", "request.t_s", "request.t_t",
                     "request.queue_wait"):
            for series in histogram_rows(report, name):
                key = label_str(series.get("labels", {}))
                comp.setdefault(key, {})[name.split(".")[1]] = series
        if comp:
            print("  request decomposition (per sub-request, medians):")
            for key, parts in sorted(comp.items()):
                cells = []
                for part in ("t_x", "t_s", "t_t", "queue_wait"):
                    s = parts.get(part)
                    cells.append(f"{part}={s['p50'] * 1e3:8.3f}ms"
                                 if s and s.get("count") else f"{part}=      --")
                print(f"    [{key}] " + " ".join(cells))

        windows = counter_total(report, "adaptive.windows")
        if windows is not None:
            epochs = counter_total(report, "adaptive.epoch_installs") or 0
            migrated = counter_total(report, "migration.migrated_bytes") or 0
            print(f"  adaptive re-layout: {int(windows)} window(s) analyzed, "
                  f"{int(counter_total(report, 'adaptive.recommendations') or 0)} "
                  f"recommendation(s), {int(epochs)} epoch swap(s), "
                  f"{migrated / (1024 * 1024):.1f} MB migrated in "
                  f"{int(counter_total(report, 'migration.chunks') or 0)} "
                  f"chunk(s) "
                  f"({counter_total(report, 'migration.interference_s') or 0:.3f}s "
                  f"in flight)")

        cache_lookups = counter_total(report, "cache.lookups")
        if cache_lookups:
            hits = counter_total(report, "cache.hits") or 0
            print(f"  read cache: {int(cache_lookups)} lookups, "
                  f"{hits / cache_lookups:.1%} hits, "
                  f"{int(counter_total(report, 'cache.fills_completed') or 0)} "
                  f"fill(s) "
                  f"({(counter_total(report, 'cache.fill_bytes') or 0) / (1024 * 1024):.1f} MB), "
                  f"{int(counter_total(report, 'cache.evictions') or 0)} "
                  f"eviction(s), "
                  f"{int(counter_total(report, 'cache.invalidations') or 0)} "
                  f"invalidation(s)")

        errors = histogram_rows(report, "model.rel_error")
        if errors:
            print("  cost-model relative error |predicted-measured|/measured:")
            for series in errors:
                print(f"    [{label_str(series.get('labels', {}))}] "
                      f"n={series['count']} p50={series['p50']:.3f} "
                      f"p95={series['p95']:.3f} max={series['max']:.3f}")
        print()


# --- timeseries / health ----------------------------------------------------

TS_COLUMNS = ("jobs", "busy_s", "utilization", "depth_max",
              "lat_mean_s", "lat_p50_s", "lat_p95_s", "lat_p99_s")


def check_timeseries_block(label, ts):
    if not isinstance(ts, dict):
        fail(f"timeseries[{label}]: block is not an object")
    interval = ts.get("interval_s", 0.0)
    if not isinstance(interval, (int, float)) or interval <= 0:
        fail(f"timeseries[{label}]: non-positive interval {interval!r}")
    n = ts.get("windows")
    index = ts.get("window_index")
    if not isinstance(index, list) or len(index) != n:
        fail(f"timeseries[{label}]: window_index length != windows ({n})")
    if any(b <= a for a, b in zip(index, index[1:])):
        fail(f"timeseries[{label}]: window_index not strictly increasing")
    if ts.get("dropped_windows", 0) < 0:
        fail(f"timeseries[{label}]: negative dropped_windows")
    cache = ts.get("cache", {})
    for key in ("hit_bytes", "miss_bytes"):
        col = cache.get(key)
        if not isinstance(col, list) or len(col) != n:
            fail(f"timeseries[{label}]: cache.{key} length != windows")
        if any(v < 0 for v in col):
            fail(f"timeseries[{label}]: negative cache.{key}")
    servers = ts.get("servers")
    if not isinstance(servers, list):
        fail(f"timeseries[{label}]: no servers array")
    for srv in servers:
        sid = srv.get("server", "?")
        for key in TS_COLUMNS:
            col = srv.get(key)
            if not isinstance(col, list) or len(col) != n:
                fail(f"timeseries[{label}]/s{sid}: column {key} length "
                     f"!= windows ({n})")
        for w in range(n):
            busy = srv["busy_s"][w]
            # One FIFO disk per server: a window can never hold more busy
            # time than its own width.
            if busy < -1e-12 or busy > interval * (1 + 1e-9):
                fail(f"timeseries[{label}]/s{sid}: window {index[w]} busy "
                     f"{busy} outside [0, {interval}]")
            if abs(srv["utilization"][w] - busy / interval) > 1e-9:
                fail(f"timeseries[{label}]/s{sid}: window {index[w]} "
                     f"utilization != busy / interval")
            jobs = srv["jobs"][w]
            if jobs < 0 or srv["depth_max"][w] < 0:
                fail(f"timeseries[{label}]/s{sid}: negative jobs/depth")
            if jobs > 0:
                qs = [srv[k][w]
                      for k in ("lat_p50_s", "lat_p95_s", "lat_p99_s")]
                if any(b < a - 1e-12 for a, b in zip(qs, qs[1:])):
                    fail(f"timeseries[{label}]/s{sid}: window {index[w]} "
                         f"latency quantiles not monotone: {qs}")
                if srv["lat_mean_s"][w] < 0:
                    fail(f"timeseries[{label}]/s{sid}: negative latency")
    return len(servers)


def check_health_block(label, health):
    """Sanity of the monitor summary; returns the flagged server ids."""
    if not isinstance(health, dict):
        fail(f"health[{label}]: block is not an object")
    reqs = health.get("requests", {})
    for op in ("read", "write"):
        total = reqs.get(f"{op}_total", 0)
        met = reqs.get(f"{op}_met", 0)
        if total < 0 or met < 0 or met > total:
            fail(f"health[{label}]: {op} SLO attainment {met}/{total} "
                 f"inconsistent")
    servers = health.get("servers")
    if not isinstance(servers, list):
        fail(f"health[{label}]: no servers array")
    flagged = []
    for srv in servers:
        sid = srv.get("server", "?")
        if srv.get("score", 0.0) < 0:
            fail(f"health[{label}]/s{sid}: negative score")
        flags = srv.get("flag_count", 0)
        recovers = srv.get("recover_count", 0)
        if flags < 0 or recovers < 0 or recovers > flags:
            fail(f"health[{label}]/s{sid}: {recovers} recoveries for "
                 f"{flags} flag(s)")
        if srv.get("flagged") and flags == 0:
            fail(f"health[{label}]/s{sid}: flagged without a flag event")
        if srv.get("slo_subs_met", 0) > srv.get("slo_subs_total", 0):
            fail(f"health[{label}]/s{sid}: SLO met exceeds total")
        if srv.get("flagged"):
            flagged.append(sid)
    return flagged


def check_require_health(label, health, flagged):
    """The CI telemetry gate: a straggler was flagged, and when an SLO is
    armed the attainment regression localizes to the flagged server(s)."""
    if not flagged:
        return False
    if health.get("slo_s", 0.0) > 0:
        def attainment(srv):
            total = srv.get("slo_subs_total", 0)
            return srv.get("slo_subs_met", 0) / total if total > 0 else None

        bad, good = [], []
        for srv in health.get("servers", []):
            a = attainment(srv)
            if a is None:
                continue
            (bad if srv.get("server") in flagged else good).append(a)
        if bad and good and max(bad) >= min(good):
            fail(f"health[{label}]: flagged server SLO attainment "
                 f"{max(bad):.3f} not below every healthy server's "
                 f"(min {min(good):.3f}) — regression does not localize")
    return True


def check_tenants_block(label, health):
    """Per-tenant SLO attainment table of a namespace run; returns the
    tenant count (0 when the block is absent — single-file runs)."""
    tenants = health.get("tenants")
    if tenants is None:
        return 0
    if not isinstance(tenants, list) or not tenants:
        fail(f"health[{label}]: tenants block present but empty")
    for t in tenants:
        tid = t.get("tenant", "?")
        total = t.get("total", 0)
        met = t.get("met", 0)
        if total < 0 or met < 0 or met > total:
            fail(f"health[{label}]/t{tid}: tenant SLO {met}/{total} "
                 f"inconsistent")
        attainment = t.get("attainment", None)
        if attainment is None or not 0.0 <= attainment <= 1.0:
            fail(f"health[{label}]/t{tid}: attainment {attainment} "
                 f"outside [0, 1]")
        if total > 0 and abs(attainment - met / total) > 1e-9:
            fail(f"health[{label}]/t{tid}: attainment {attainment} does not "
                 f"match {met}/{total}")
    return len(tenants)


def check_timeseries(doc, path, require_health, require_tenant=False):
    schemes = scheme_list(doc, path)
    n_flagged_schemes = 0
    n_tenant_schemes = 0
    for scheme in schemes:
        label = scheme.get("label", "?")
        check_timeseries_block(label, scheme.get("timeseries"))
        flagged = check_health_block(label, scheme.get("health"))
        if check_require_health(label, scheme.get("health"), flagged):
            n_flagged_schemes += 1
        if check_tenants_block(label, scheme.get("health")) > 0:
            n_tenant_schemes += 1
    if require_health and n_flagged_schemes == 0:
        fail(f"{path}: no scheme flagged a straggler "
             f"(--require-health)")
    if require_tenant and n_tenant_schemes == 0:
        fail(f"{path}: no scheme carries per-tenant SLO attainment "
             f"(--require-tenant needs a population run with an SLO)")
    return len(schemes), n_flagged_schemes


def summarize_timeseries(doc):
    for scheme in doc["schemes"]:
        ts = scheme["timeseries"]
        health = scheme["health"]
        print(f"== {scheme.get('label', '?')} telemetry ==")
        print(f"  {ts['windows']} window(s) x {ts['interval_s']}s "
              f"({ts['dropped_windows']} dropped), "
              f"{len(ts['servers'])} server(s)")
        for srv in health.get("servers", []):
            state = "FLAGGED" if srv.get("flagged") else "ok"
            total = srv.get("slo_subs_total", 0)
            slo = (f", SLO {srv.get('slo_subs_met', 0)}/{total}"
                   if total else "")
            print(f"    s{srv['server']:<3} score {srv['score']:6.2f} "
                  f"[{state}] flags {srv['flag_count']} "
                  f"recoveries {srv['recover_count']}{slo}")
        print()


# --- HTML dashboard ----------------------------------------------------------

SVG_W, SVG_H, SVG_PAD = 640, 160, 28
PALETTE = ("#4363d8", "#3cb44b", "#e6194b", "#f58231", "#911eb4",
           "#46f0f0", "#f032e6", "#9a6324", "#808000", "#000075")


def svg_chart(title, windows, series, y_label):
    """One inline SVG: a polyline per server over the window axis."""
    top = max((max(vals) for _, vals, _ in series if vals), default=0.0)
    top = top if top > 0 else 1.0
    n = max(len(windows), 2)

    def x(i):
        return SVG_PAD + (SVG_W - 2 * SVG_PAD) * i / (n - 1)

    def y(v):
        return SVG_H - SVG_PAD - (SVG_H - 2 * SVG_PAD) * v / top

    parts = [f'<svg viewBox="0 0 {SVG_W} {SVG_H}" width="{SVG_W}" '
             f'height="{SVG_H}" role="img">',
             f'<text x="{SVG_PAD}" y="14" class="t">{title}</text>',
             f'<text x="{SVG_PAD}" y="{SVG_H - 8}" class="a">window '
             f'{windows[0]}..{windows[-1]} · y-max {top:.4g} {y_label}'
             f'</text>',
             f'<rect x="{SVG_PAD}" y="{SVG_PAD - 8}" '
             f'width="{SVG_W - 2 * SVG_PAD}" '
             f'height="{SVG_H - 2 * SVG_PAD - 8}" class="f"/>']
    for name, vals, color in series:
        pts = " ".join(f"{x(i):.1f},{y(v):.1f}" for i, v in enumerate(vals))
        parts.append(f'<polyline points="{pts}" fill="none" '
                     f'stroke="{color}" stroke-width="1.5">'
                     f'<title>{name}</title></polyline>')
    parts.append("</svg>")
    return "".join(parts)


def write_html(doc, path):
    """Self-contained dashboard: no JavaScript, no external assets."""
    out = ["<!DOCTYPE html><html><head><meta charset='utf-8'>",
           "<title>harl telemetry dashboard</title><style>",
           "body{font:14px sans-serif;margin:24px;background:#fafafa}",
           ".t{font:bold 13px sans-serif}.a{font:11px sans-serif;"
           "fill:#666}",
           ".f{fill:#fff;stroke:#ddd}",
           "td,th{padding:2px 10px;text-align:right;"
           "border-bottom:1px solid #eee}",
           ".flag{color:#c00;font-weight:bold}",
           "</style></head><body><h1>harl telemetry dashboard</h1>"]
    for scheme in doc.get("schemes", []):
        label = scheme.get("label", "?")
        ts = scheme.get("timeseries", {})
        health = scheme.get("health", {})
        windows = ts.get("window_index", [])
        servers = ts.get("servers", [])
        flagged = {s.get("server") for s in health.get("servers", [])
                   if s.get("flagged")}
        out.append(f"<h2>{label}</h2>")
        out.append(f"<p>{ts.get('windows', 0)} window(s) × "
                   f"{ts.get('interval_s', 0)} s, "
                   f"{ts.get('dropped_windows', 0)} dropped; flagged "
                   f"stragglers: "
                   f"{sorted(flagged) if flagged else 'none'}</p>")
        if windows and servers:
            def color(i, sid):
                return "#c00" if sid in flagged \
                    else PALETTE[i % len(PALETTE)]

            for title, key, unit in (
                    ("utilization", "utilization", ""),
                    ("p99 service latency", "lat_p99_s", "s"),
                    ("max queue depth", "depth_max", "jobs")):
                series = [(f"s{srv.get('server')}", srv.get(key, []),
                           color(i, srv.get("server")))
                          for i, srv in enumerate(servers)]
                out.append(svg_chart(f"{label}: {title}", windows, series,
                                     unit))
        rows = health.get("servers", [])
        if rows:
            out.append("<table><tr><th>server</th><th>score</th>"
                       "<th>state</th><th>flags</th><th>recoveries</th>"
                       "<th>SLO subs met/total</th></tr>")
            for srv in rows:
                state = ("<span class='flag'>FLAGGED</span>"
                         if srv.get("flagged") else "ok")
                out.append(
                    f"<tr><td>s{srv.get('server')}</td>"
                    f"<td>{srv.get('score', 0):.2f}</td><td>{state}</td>"
                    f"<td>{srv.get('flag_count', 0)}</td>"
                    f"<td>{srv.get('recover_count', 0)}</td>"
                    f"<td>{srv.get('slo_subs_met', 0)}/"
                    f"{srv.get('slo_subs_total', 0)}</td></tr>")
            out.append("</table>")
    out.append("</body></html>")
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(out))


# --- trace ------------------------------------------------------------------

def check_trace(doc):
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        fail("trace: no traceEvents array")
    spans = defaultdict(list)       # (pid, tid) -> [(ts, dur)]
    asyncs = defaultdict(list)      # (pid, cat, id, name) -> [(ph, ts)]
    counts = defaultdict(int)
    for i, e in enumerate(events):
        ph = e.get("ph")
        if ph is None or "pid" not in e:
            fail(f"trace[{i}]: event without ph/pid")
        counts[ph] += 1
        if ph == "M":
            continue
        ts = e.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            fail(f"trace[{i}]: bad ts {ts!r}")
        if ph == "X":
            dur = e.get("dur", 0)
            if dur < 0:
                fail(f"trace[{i}]: negative dur")
            spans[(e["pid"], e.get("tid"))].append((ts, dur))
        elif ph in ("b", "e"):
            asyncs[(e["pid"], e.get("cat"), e.get("id"), e.get("name"))] \
                .append((ph, ts))
        elif ph != "i":
            fail(f"trace[{i}]: unexpected phase {ph!r}")

    # Complete spans on one track come from a FIFO resource: they must be
    # sorted by start and disjoint (allowing float round-off), which is what
    # makes per-track nesting monotone.
    for (pid, tid), track in spans.items():
        prev_end = -1.0
        prev_ts = -1.0
        for ts, dur in track:
            if ts < prev_ts:
                fail(f"trace pid={pid} tid={tid}: X spans out of order "
                     f"({ts} after {prev_ts})")
            if ts < prev_end - 1e-6:
                fail(f"trace pid={pid} tid={tid}: X spans overlap "
                     f"(start {ts} < previous end {prev_end})")
            prev_ts = ts
            prev_end = max(prev_end, ts + dur)

    for key, pair_events in asyncs.items():
        begins = [ts for ph, ts in pair_events if ph == "b"]
        ends = [ts for ph, ts in pair_events if ph == "e"]
        if len(begins) != 1 or len(ends) != 1:
            fail(f"trace async {key}: expected one b/e pair, got "
                 f"{len(begins)}b/{len(ends)}e")
        if ends[0] < begins[0] - 1e-9:
            fail(f"trace async {key}: ends before it begins")
    return counts


def main():
    parser = argparse.ArgumentParser(
        description="Summarize/validate harl_sim observability output")
    parser.add_argument("metrics", nargs="?",
                        help="metrics-out JSON file")
    parser.add_argument("--trace", help="trace-out Chrome trace JSON file")
    parser.add_argument("--timeseries",
                        help="timeseries-out telemetry JSON file")
    parser.add_argument("--check", action="store_true",
                        help="validate files instead of summarizing")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the OK lines in --check mode")
    parser.add_argument("--require-adaptive", action="store_true",
                        help="fail unless >=1 scheme has adaptive epoch "
                             "metrics")
    parser.add_argument("--require-cache", action="store_true",
                        help="fail unless >=1 scheme has read-cache metrics")
    parser.add_argument("--require-health", action="store_true",
                        help="fail unless >=1 scheme flagged a straggler "
                             "with a localized SLO regression")
    parser.add_argument("--require-tenant", action="store_true",
                        help="fail unless >=1 scheme carries a per-tenant "
                             "SLO attainment table (population runs)")
    parser.add_argument("--html",
                        help="write a self-contained SVG dashboard of the "
                             "--timeseries file to this path")
    args = parser.parse_args()
    if args.metrics is None and args.timeseries is None:
        parser.error("need a METRICS.json argument and/or --timeseries")
    if (args.require_health or args.require_tenant or args.html) \
            and args.timeseries is None:
        parser.error("--require-health/--require-tenant/--html need "
                     "--timeseries")

    n_schemes = n_adaptive = n_cache = n_devices = 0
    metrics_doc = None
    if args.metrics is not None:
        metrics_doc = load_doc(args.metrics)
        n_schemes, n_adaptive, n_cache = check_metrics(metrics_doc)
        n_devices = check_devices(metrics_doc)
        if args.require_adaptive and n_adaptive == 0:
            fail(f"{args.metrics}: no scheme carries adaptive epoch metrics "
                 f"(adaptive.* families)")
        if args.require_cache and n_cache == 0:
            fail(f"{args.metrics}: no scheme carries read-cache metrics "
                 f"(cache.* families)")
    trace_counts = None
    if args.trace:
        trace_counts = check_trace(load_doc(args.trace))
    ts_doc = None
    n_ts = n_health = 0
    if args.timeseries is not None:
        ts_doc = load_doc(args.timeseries)
        n_ts, n_health = check_timeseries(ts_doc, args.timeseries,
                                          args.require_health,
                                          args.require_tenant)
        if args.html:
            write_html(ts_doc, args.html)

    if args.check:
        if not args.quiet:
            if metrics_doc is not None:
                print(f"obs_report: OK: {args.metrics}: {n_schemes} "
                      f"scheme(s) valid ({n_adaptive} adaptive, {n_cache} "
                      f"cached, {n_devices} with device blocks)")
            if trace_counts is not None:
                total = sum(trace_counts.values())
                detail = ", ".join(f"{k}:{v}" for k, v in
                                   sorted(trace_counts.items()))
                print(f"obs_report: OK: {args.trace}: {total} events "
                      f"({detail}); spans nested per track, async pairs "
                      f"matched")
            if ts_doc is not None:
                print(f"obs_report: OK: {args.timeseries}: {n_ts} "
                      f"scheme(s) valid ({n_health} with flagged "
                      f"straggler(s))")
        return 0

    if metrics_doc is not None:
        summarize(metrics_doc)
    if ts_doc is not None:
        summarize_timeseries(ts_doc)
    if trace_counts is not None:
        total = sum(trace_counts.values())
        print(f"trace: {total} events "
              + ", ".join(f"{k}:{v}" for k, v in sorted(trace_counts.items())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
