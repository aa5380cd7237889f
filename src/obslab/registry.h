// obslab metrics registry: lock-free instruments + pull collectors, with
// Prometheus text and JSON exposition.
//
// Two producer models feed one scrape:
//
//   * Instruments (Counter/Gauge/Histogram) are registered once and held
//     by handle; the hot path is a single relaxed atomic RMW on a cell
//     whose address never moves (slab-allocated), so always-on counting
//     costs what the existing telemetry counters cost — no locks, no
//     allocation, no exposition work until someone scrapes.
//   * Collectors are callbacks evaluated at scrape time. Everything the
//     repo already measures (dispatcher snapshot rows, netfront tenant
//     counters, faultlab sites, tracelab drops, breaker states) registers
//     as a collector, so the plane unifies existing telemetry without
//     touching its hot paths at all.
//
// Exposition follows the Prometheus text format: metric/label names are
// sanitized to [a-zA-Z0-9_:] (hostile bytes become '_'), label values
// escape backslash, double-quote and newline, HELP text escapes backslash
// and newline. Histograms expand into cumulative `_bucket{le=...}` series
// plus `_sum`/`_count`, with the log-linear bucket edges of
// src/graftd/histogram.h (8 buckets per octave, the same buckets the
// dispatcher's own latency histograms use, so live and offline percentiles
// agree). `_count` and the JSON `count` are derived from the same bucket
// snapshot as the buckets themselves, so they always equal `le="+Inf"`.
// Counters are monotonic under concurrent scrape: every value is one
// relaxed load of a cell that only ever grows.
//
// Metric-name schema (EXPERIMENTS.md "obslab metric names"): everything
// this registry exports is prefixed `graftlab_`, counters end in `_total`,
// durations are `_ns`.

#ifndef GRAFTLAB_SRC_OBSLAB_REGISTRY_H_
#define GRAFTLAB_SRC_OBSLAB_REGISTRY_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/graftd/histogram.h"

namespace obslab {

using Labels = std::vector<std::pair<std::string, std::string>>;

// Handle to a monotonic counter cell. Copyable; the registry owns the
// storage and must outlive every handle.
class Counter {
 public:
  Counter() = default;
  void Add(std::uint64_t n = 1) {
    if (cell_ != nullptr) {
      cell_->fetch_add(n, std::memory_order_relaxed);
    }
  }
  std::uint64_t value() const {
    return cell_ == nullptr ? 0 : cell_->load(std::memory_order_relaxed);
  }

 private:
  friend class MetricsRegistry;
  explicit Counter(std::atomic<std::uint64_t>* cell) : cell_(cell) {}
  std::atomic<std::uint64_t>* cell_ = nullptr;
};

class Gauge {
 public:
  Gauge() = default;
  void Set(std::int64_t v) {
    if (cell_ != nullptr) {
      cell_->store(v, std::memory_order_relaxed);
    }
  }
  void Add(std::int64_t n) {
    if (cell_ != nullptr) {
      cell_->fetch_add(n, std::memory_order_relaxed);
    }
  }
  std::int64_t value() const {
    return cell_ == nullptr ? 0 : cell_->load(std::memory_order_relaxed);
  }

 private:
  friend class MetricsRegistry;
  explicit Gauge(std::atomic<std::int64_t>* cell) : cell_(cell) {}
  std::atomic<std::int64_t>* cell_ = nullptr;
};

// Handle to a histogram instrument: graftd::AtomicHistogram cells, so many
// threads record without coordination.
class Histogram {
 public:
  Histogram() = default;
  void Record(std::uint64_t v) {
    if (cells_ != nullptr) {
      cells_->Record(v);
    }
  }

 private:
  friend class MetricsRegistry;
  explicit Histogram(graftd::AtomicHistogram* cells) : cells_(cells) {}
  graftd::AtomicHistogram* cells_ = nullptr;
};

// One scrape-time sample a collector contributes. Monotonic samples render
// as counters, others as gauges; a sample carrying a histogram renders as a
// histogram series (cumulative `le` buckets, sum, count) and ignores
// value/monotonic.
struct Sample {
  Sample(std::string name, Labels labels, double value = 0.0, bool monotonic = false)
      : name(std::move(name)), labels(std::move(labels)), value(value), monotonic(monotonic) {}

  std::string name;
  Labels labels;
  double value = 0.0;
  bool monotonic = false;
  std::shared_ptr<const graftd::Histogram> histogram;
  std::string help;
};

class MetricsRegistry {
 public:
  using Collector = std::function<void(std::vector<Sample>&)>;

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Registration is mutex-guarded and not for the hot path: register once,
  // carry the handle. Re-registering an identical (name, labels) pair
  // returns the existing cell, so independent subsystems can share a
  // counter without coordinating.
  Counter RegisterCounter(std::string name, Labels labels = {}, std::string help = "");
  Gauge RegisterGauge(std::string name, Labels labels = {}, std::string help = "");
  Histogram RegisterHistogram(std::string name, Labels labels = {}, std::string help = "");

  // Scrape-time pull source; evaluated (under the registry mutex) on every
  // exposition call. Keep collectors cheap and reentrant-free: a collector
  // must not call back into this registry.
  void AddCollector(Collector collector);

  // Exposition formats. Safe to call concurrently with instrument updates;
  // counter values are monotonically non-decreasing across scrapes.
  std::string PrometheusText() const;
  std::string Json() const;

  // Prometheus escaping helpers (exposed for tests).
  static std::string SanitizeName(std::string_view name);
  static void AppendEscapedLabelValue(std::string& out, std::string_view value);

 private:
  enum class Kind : std::uint8_t { kCounter, kGauge, kHistogram };

  struct Instrument {
    Kind kind = Kind::kCounter;
    std::string name;  // sanitized
    Labels labels;
    std::string help;
    // Exactly one is live, slab-owned so handle addresses never move.
    std::unique_ptr<std::atomic<std::uint64_t>> counter;
    std::unique_ptr<std::atomic<std::int64_t>> gauge;
    std::unique_ptr<graftd::AtomicHistogram> histogram;
  };

  Instrument* FindOrNull(Kind kind, const std::string& name, const Labels& labels);
  // Instruments (histograms as snapshots) and collector samples, in
  // registration order.
  std::vector<Sample> Collect() const;

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Instrument>> instruments_;
  std::vector<Collector> collectors_;
};

// Reads one series back out of a Prometheus text exposition: the sum of the
// values of every sample line that `selector` matches, nullopt when none
// does. A bare metric name matches that name under any labels, but not a
// longer name that shares its prefix (`x` never matches `x_total` or
// `x_bucket`). `name{labels}` matches that one series exactly, labels
// written as the exposition writes them. Comment lines never match.
std::optional<double> SeriesSum(std::string_view exposition, std::string_view selector);

}  // namespace obslab

#endif  // GRAFTLAB_SRC_OBSLAB_REGISTRY_H_
