#include "src/obs/metrics.hpp"

#include <algorithm>
#include <ostream>
#include <stdexcept>

#include "src/obs/json_text.hpp"

namespace harl::obs {

namespace {

void write_labels(JsonText& out, const LabelSet& labels) {
  bool first = true;
  auto field = [&](const char* key, bool present, std::uint32_t value) {
    if (!present) return;
    out << (first ? "" : ", ");
    first = false;
    out << '"' << key << "\": " << value;
  };
  out << '{';
  field("server", labels.server_value() != LabelSet::kNone,
        labels.server_value());
  field("tier", labels.tier_value() != 0xFFu, labels.tier_value());
  field("region", labels.region_value() != LabelSet::kNoneRegion,
        labels.region_value());
  field("client", labels.client_value() != LabelSet::kNone,
        labels.client_value());
  field("file", labels.file_value() != LabelSet::kNone, labels.file_value());
  field("tenant", labels.tenant_value() != LabelSet::kNone,
        labels.tenant_value());
  if (labels.has_op()) {
    out << (first ? "" : ", ");
    first = false;
    out << "\"op\": \"" << to_string(labels.op_value()) << '"';
  }
  out << '}';
}

/// Shared body of the histogram and sketch series objects; sketches add a
/// p999.  The quantiles are the ones percentile(50/95/99) and
/// quantile(0.999) return (p / 100.0 is correctly rounded), from one scan.
void write_distribution(JsonText& out, const LogBuckets& d, bool p999) {
  static constexpr double kQs[] = {0.5, 0.95, 0.99, 0.999};
  double q[4];
  d.quantiles_at({kQs, p999 ? 4u : 3u}, q);
  out << "\"count\": " << d.count() << ", \"sum\": " << d.sum()
      << ", \"min\": " << d.min() << ", \"max\": " << d.max()
      << ", \"mean\": " << d.mean() << ", \"p50\": " << q[0]
      << ", \"p95\": " << q[1] << ", \"p99\": " << q[2];
  if (p999) out << ", \"p999\": " << q[3];
  out << ", \"buckets\": [";
  bool first = true;
  for (const auto& b : d.buckets()) {
    if (!first) out << ", ";
    first = false;
    out << '[' << b.lo << ", " << b.hi << ", " << b.count << ']';
  }
  out << ']';
}

}  // namespace

MetricsRegistry::FamilyId MetricsRegistry::family(std::string_view name,
                                                  Kind kind) {
  if (auto it = by_name_.find(std::string(name)); it != by_name_.end()) {
    if (families_[it->second].kind != kind) {
      throw std::invalid_argument("metric family kind mismatch: " +
                                  std::string(name));
    }
    return it->second;
  }
  const auto id = static_cast<FamilyId>(families_.size());
  Family f;
  f.name = std::string(name);
  f.kind = kind;
  families_.push_back(std::move(f));
  by_name_.emplace(std::string(name), id);
  return id;
}

std::size_t MetricsRegistry::series_index(Family& f, LabelSet labels) {
  auto [it, inserted] =
      f.series.try_emplace(SeriesKey{labels.bits(), labels.ext_bits()}, 0);
  if (inserted) {
    if (f.kind == Kind::kHistogram) {
      it->second = f.histograms.size();
      f.histograms.emplace_back();
    } else if (f.kind == Kind::kSketch) {
      it->second = f.sketches.size();
      f.sketches.emplace_back();
    } else {
      it->second = f.scalars.size();
      f.scalars.push_back(0.0);
    }
  }
  return it->second;
}

void MetricsRegistry::set_max(FamilyId family, LabelSet labels, double value) {
  Series series(family, labels);
  double& slot = scalar(series);
  slot = std::max(slot, value);
}

MetricsRegistry::Family* MetricsRegistry::find(std::string_view name) {
  auto it = by_name_.find(std::string(name));
  return it == by_name_.end() ? nullptr : &families_[it->second];
}

const MetricsRegistry::Family* MetricsRegistry::find(
    std::string_view name) const {
  auto it = by_name_.find(std::string(name));
  return it == by_name_.end() ? nullptr : &families_[it->second];
}

double MetricsRegistry::value(std::string_view name, LabelSet labels) const {
  const Family* f = find(name);
  if (f == nullptr) return 0.0;
  auto it = f->series.find(SeriesKey{labels.bits(), labels.ext_bits()});
  if (it == f->series.end() ||
      (f->kind != Kind::kCounter && f->kind != Kind::kGauge)) {
    return 0.0;
  }
  return f->scalars[it->second];
}

const LogHistogram* MetricsRegistry::histogram(std::string_view name,
                                               LabelSet labels) const {
  const Family* f = find(name);
  if (f == nullptr || f->kind != Kind::kHistogram) return nullptr;
  auto it = f->series.find(SeriesKey{labels.bits(), labels.ext_bits()});
  return it == f->series.end() ? nullptr : &f->histograms[it->second];
}

const QuantileSketch* MetricsRegistry::sketch(std::string_view name,
                                              LabelSet labels) const {
  const Family* f = find(name);
  if (f == nullptr || f->kind != Kind::kSketch) return nullptr;
  auto it = f->series.find(SeriesKey{labels.bits(), labels.ext_bits()});
  return it == f->series.end() ? nullptr : &f->sketches[it->second];
}

void MetricsRegistry::merge(const MetricsRegistry& other) {
  for (const Family& of : other.families_) {
    const FamilyId id = family(of.name, of.kind);
    Family& f = families_[id];
    // Deterministic order: sort the other side's series by label bits so the
    // merged registry's series insertion order never depends on hash layout.
    std::vector<std::pair<SeriesKey, std::size_t>> entries(of.series.begin(),
                                                           of.series.end());
    std::sort(entries.begin(), entries.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (const auto& [key, idx] : entries) {
      const std::size_t mine =
          series_index(f, LabelSet::from_bits(key.bits, key.ext));
      switch (f.kind) {
        case Kind::kCounter:
          f.scalars[mine] += of.scalars[idx];
          break;
        case Kind::kGauge:
          f.scalars[mine] = std::max(f.scalars[mine], of.scalars[idx]);
          break;
        case Kind::kHistogram:
          f.histograms[mine].merge(of.histograms[idx]);
          break;
        case Kind::kSketch:
          f.sketches[mine].merge(of.sketches[idx]);
          break;
      }
    }
  }
}

void MetricsRegistry::write_json(std::ostream& os, int indent) const {
  // Round-trip doubles: 6 digits would corrupt merges.
  JsonText out(os);
  const std::string pad(static_cast<std::size_t>(indent), ' ');
  std::vector<std::size_t> order(families_.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return families_[a].name < families_[b].name;
  });

  out << "[";
  bool first_series = true;
  for (std::size_t fi : order) {
    const Family& f = families_[fi];
    std::vector<std::pair<SeriesKey, std::size_t>> entries(f.series.begin(),
                                                           f.series.end());
    std::sort(entries.begin(), entries.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (const auto& [key, idx] : entries) {
      if (!first_series) out << ",";
      first_series = false;
      out << "\n" << pad << "  {\"name\": ";
      out.quoted(f.name);
      out << ", \"type\": \""
          << (f.kind == Kind::kCounter
                  ? "counter"
                  : f.kind == Kind::kGauge
                        ? "gauge"
                        : f.kind == Kind::kSketch ? "sketch" : "histogram")
          << "\", \"labels\": ";
      write_labels(out, LabelSet::from_bits(key.bits, key.ext));
      out << ", ";
      if (f.kind == Kind::kHistogram) {
        write_distribution(out, f.histograms[idx], false);
      } else if (f.kind == Kind::kSketch) {
        write_distribution(out, f.sketches[idx], true);
      } else {
        out << "\"value\": " << f.scalars[idx];
      }
      out << '}';
    }
  }
  out << "\n" << pad << "]";
}

}  // namespace harl::obs
