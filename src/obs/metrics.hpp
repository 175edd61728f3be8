// Metrics registry: counters, gauges and log-bucketed histograms keyed by a
// cheap interned label set.
//
// A metric *family* is registered once by name (cold path) and returns a
// small integer id; every observation then carries a packed 64-bit
// `LabelSet` (server id, tier, region, op, client — each field optional), so
// a keyed observation hashes one integer instead of strings.  Per-job hot
// paths go one step further and hold a `Series` handle per label set: the
// handle resolves its series on its first observation (so no empty series
// ever reaches the JSON) and indexes it directly afterwards.  Registries
// are single-threaded by design — one per Simulator/replica — and
// `merge()` combines them deterministically afterwards, which is how the
// parallel harness aggregates per-replica metrics without locks.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/common/io.hpp"
#include "src/common/stats.hpp"
#include "src/obs/sketch.hpp"

namespace harl::obs {

/// Packed label set.  Fields default to "absent"; setters are chainable:
/// `LabelSet{}.server(3).tier(0).op(IoOp::kRead)`.
///
/// The primary word packs {server, tier, region, client, op} and is full; the
/// namespace dimensions (file, tenant) live in a second extension word that
/// is all-absent by default, so single-file workloads — which never set them
/// — key, merge and serialize exactly as before the namespace refactor.
class LabelSet {
 public:
  static constexpr std::uint32_t kNone = 0xFFFFu;
  static constexpr std::uint32_t kNoneRegion = 0xFFFFFu;

  LabelSet() = default;

  LabelSet& server(std::uint32_t v) { return set(bits_, 0, 16, v); }
  LabelSet& tier(std::uint32_t v) { return set(bits_, 16, 8, v); }
  LabelSet& region(std::uint32_t v) { return set(bits_, 24, 20, v); }
  LabelSet& client(std::uint32_t v) { return set(bits_, 44, 16, v); }
  LabelSet& op(IoOp o) { return set(bits_, 60, 4, o == IoOp::kRead ? 0u : 1u); }
  LabelSet& file(std::uint32_t v) { return set(ext_bits_, 0, 16, v); }
  LabelSet& tenant(std::uint32_t v) { return set(ext_bits_, 16, 16, v); }

  std::uint32_t server_value() const { return get(bits_, 0, 16); }
  std::uint32_t tier_value() const { return get(bits_, 16, 8); }
  std::uint32_t region_value() const { return get(bits_, 24, 20); }
  std::uint32_t client_value() const { return get(bits_, 44, 16); }
  bool has_op() const { return get(bits_, 60, 4) != 0xFu; }
  IoOp op_value() const {
    return get(bits_, 60, 4) == 0 ? IoOp::kRead : IoOp::kWrite;
  }
  std::uint32_t file_value() const { return get(ext_bits_, 0, 16); }
  std::uint32_t tenant_value() const { return get(ext_bits_, 16, 16); }

  std::uint64_t bits() const { return bits_; }
  std::uint64_t ext_bits() const { return ext_bits_; }

  /// Rebuilds a label set from `bits()` (the pack is transparent).
  static LabelSet from_bits(std::uint64_t bits,
                            std::uint64_t ext = ~std::uint64_t{0}) {
    LabelSet l;
    l.bits_ = bits;
    l.ext_bits_ = ext;
    return l;
  }

  friend bool operator==(const LabelSet&, const LabelSet&) = default;

 private:
  LabelSet& set(std::uint64_t& word, unsigned shift, unsigned width,
                std::uint32_t v) {
    const std::uint64_t mask = ((std::uint64_t{1} << width) - 1) << shift;
    word = (word & ~mask) | ((static_cast<std::uint64_t>(v) << shift) & mask);
    return *this;
  }
  static std::uint32_t get(std::uint64_t word, unsigned shift,
                           unsigned width) {
    return static_cast<std::uint32_t>((word >> shift) &
                                      ((std::uint64_t{1} << width) - 1));
  }

  std::uint64_t bits_ = ~std::uint64_t{0};      // all fields absent
  std::uint64_t ext_bits_ = ~std::uint64_t{0};  // file/tenant absent
};

class MetricsRegistry {
 public:
  enum class Kind : std::uint8_t { kCounter, kGauge, kHistogram, kSketch };

  using FamilyId = std::uint32_t;

  /// Registers (or finds) the family `name`; the kind must match on reuse.
  FamilyId family(std::string_view name, Kind kind);

  /// Handle to one (family, labels) series for per-job hot paths.  Creating
  /// a handle touches no registry; the series is created (or found) on the
  /// handle's first observation and indexed directly from then on.  A
  /// handle belongs to the one registry it is first used with.
  class Series {
   public:
    Series() = default;
    Series(FamilyId family, LabelSet labels)
        : family_(family), labels_(labels) {}

   private:
    friend class MetricsRegistry;
    static constexpr std::size_t kUnresolved = ~std::size_t{0};
    FamilyId family_ = 0;
    LabelSet labels_;
    std::size_t index_ = kUnresolved;
  };

  /// counter += delta.
  void add(FamilyId family, LabelSet labels, double delta) {
    Series series(family, labels);
    add(series, delta);
  }
  /// gauge = value (last write wins).
  void set(FamilyId family, LabelSet labels, double value) {
    Series series(family, labels);
    set(series, value);
  }
  /// gauge = max(gauge, value).
  void set_max(FamilyId family, LabelSet labels, double value);
  /// histogram or sketch <- value (dispatches on the family's kind).
  void observe(FamilyId family, LabelSet labels, double value) {
    Series series(family, labels);
    observe(series, value);
  }

  /// The same updates through a handle (no lookup once resolved).
  void add(Series& series, double delta) { scalar(series) += delta; }
  void set(Series& series, double value) { scalar(series) = value; }
  void observe(Series& series, double value) {
    Family& f = resolve(series);
    if (f.kind == Kind::kSketch) {
      f.sketches[series.index_].add(value);
    } else {
      f.histograms[series.index_].add(value);
    }
  }

  /// Reads back a scalar (counter/gauge); 0 when the series doesn't exist.
  double value(std::string_view name, LabelSet labels = {}) const;
  /// Reads back a histogram series; nullptr when it doesn't exist.
  const LogHistogram* histogram(std::string_view name,
                                LabelSet labels = {}) const;
  /// Reads back a quantile-sketch series; nullptr when it doesn't exist.
  const QuantileSketch* sketch(std::string_view name,
                               LabelSet labels = {}) const;

  /// Merges `other` into this registry: counters add, gauges take the max
  /// (they are high-water marks across replicas), histograms and sketches
  /// merge exactly.  Families are matched by name, so merge order never
  /// changes the result.
  void merge(const MetricsRegistry& other);

  /// Deterministic JSON dump: families sorted by name, series by label bits.
  /// Emits one object per series with decoded labels.
  void write_json(std::ostream& out, int indent = 0) const;

  std::size_t family_count() const { return families_.size(); }

 private:
  /// 128-bit series key: the packed primary word plus the file/tenant
  /// extension word (all-absent for legacy series, so they hash and sort
  /// exactly as their pre-namespace 64-bit keys did).
  struct SeriesKey {
    std::uint64_t bits = 0;
    std::uint64_t ext = 0;
    friend bool operator==(const SeriesKey&, const SeriesKey&) = default;
    friend bool operator<(const SeriesKey& a, const SeriesKey& b) {
      return a.bits != b.bits ? a.bits < b.bits : a.ext < b.ext;
    }
  };
  struct SeriesKeyHash {
    std::size_t operator()(const SeriesKey& k) const {
      return static_cast<std::size_t>(
          (k.bits * 0x9E3779B97F4A7C15ull) ^ k.ext);
    }
  };

  struct Family {
    std::string name;
    Kind kind = Kind::kCounter;
    // label words -> index into scalars/histograms/sketches
    std::unordered_map<SeriesKey, std::size_t, SeriesKeyHash> series;
    std::vector<double> scalars;
    std::vector<LogHistogram> histograms;
    std::vector<QuantileSketch> sketches;
  };

  Family* find(std::string_view name);
  const Family* find(std::string_view name) const;
  std::size_t series_index(Family& f, LabelSet labels);
  /// Resolves `series` on first use; returns its family.
  Family& resolve(Series& series) {
    Family& f = families_.at(series.family_);
    if (series.index_ == Series::kUnresolved) {
      series.index_ = series_index(f, series.labels_);
    }
    return f;
  }
  double& scalar(Series& series) {
    Family& f = resolve(series);
    return f.scalars[series.index_];
  }

  std::vector<Family> families_;
  std::unordered_map<std::string, FamilyId> by_name_;
};

}  // namespace harl::obs
