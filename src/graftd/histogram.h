// The one histogram: log-linear buckets, mergeable, percentile-estimating.
//
// Every distribution GraftLab reports goes through this header: graft
// service latency, worker dequeue batch sizes, netfront submit batch sizes,
// the loadgen's client latencies, the obslab registry's histogram
// instrument and the SLO watchdog's windows.
//
// Geometry: values below 16 get a bucket each; above that, the bucket index
// is the most significant bit plus the next three bits, so every octave
// [2^k, 2^(k+1)) splits into 8 equal sub-buckets (the `msbll` idiom of
// fulgor's util.hpp). A bucket's upper edge is at most 12.5% above any value
// it holds, fine enough to show a 10% tail regression. Values at or above
// 2^47 (~39 hours in nanoseconds) share the last bucket. Latencies are
// recorded in nanoseconds.
//
// Two storage forms share the geometry:
//   * Histogram — plain counters, for single-writer recording (a worker under
//     its stats lock, a loadgen thread) and for every scrape-time snapshot.
//     Merge is bucket-wise and exact, unlike merging means or percentiles.
//   * AtomicHistogram — relaxed atomic cells for many concurrent recorders.
//     Snapshot()/Drain() return a plain Histogram, so every reader (text,
//     JSON, Prometheus, the SLO scorer) goes through Histogram::Percentile.

#ifndef GRAFTLAB_SRC_GRAFTD_HISTOGRAM_H_
#define GRAFTLAB_SRC_GRAFTD_HISTOGRAM_H_

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>

namespace graftd {

struct Histogram {
  static constexpr unsigned kSubBits = 3;     // 2^3 sub-buckets per octave
  static constexpr std::uint64_t kExact = 16;  // values below this are exact
  static constexpr unsigned kClampBits = 47;  // values >= 2^47 share the last bucket
  // 16 exact buckets, 8 per octave for msb 4..46, one clamp bucket.
  static constexpr std::size_t kBuckets =
      kExact + (kClampBits - 4) * (std::size_t{1} << kSubBits) + 1;

  static std::size_t BucketFor(std::uint64_t v) {
    if (v < kExact) {
      return static_cast<std::size_t>(v);
    }
    if (v >> kClampBits != 0) {
      return kBuckets - 1;
    }
    // shift >= 1 keeps the msb plus kSubBits bits: top is in [8, 15].
    const unsigned shift = static_cast<unsigned>(std::bit_width(v)) - 1 - kSubBits;
    return (static_cast<std::size_t>(shift) << kSubBits) + static_cast<std::size_t>(v >> shift);
  }

  // Largest value bucket i holds; the clamp bucket's edge is UINT64_MAX.
  static std::uint64_t BucketUpper(std::size_t i) {
    if (i < kExact) {
      return i;
    }
    if (i >= kBuckets - 1) {
      return ~std::uint64_t{0};
    }
    const unsigned shift = static_cast<unsigned>(i >> kSubBits) - 1;
    const std::uint64_t top = (std::uint64_t{1} << kSubBits) + (i & ((1u << kSubBits) - 1));
    return ((top + 1) << shift) - 1;
  }

  std::array<std::uint64_t, kBuckets> counts{};
  std::uint64_t count = 0;  // samples recorded
  std::uint64_t total = 0;  // sum of recorded values
  std::uint64_t max = 0;

  void Record(std::uint64_t v) {
    ++counts[BucketFor(v)];
    ++count;
    total += v;
    max = std::max(max, v);
  }

  void Merge(const Histogram& other) {
    for (std::size_t i = 0; i < kBuckets; ++i) {
      counts[i] += other.counts[i];
    }
    count += other.count;
    total += other.total;
    max = std::max(max, other.max);
  }

  double mean() const {
    return count == 0 ? 0.0 : static_cast<double>(total) / static_cast<double>(count);
  }

  // Estimate of the p-th percentile (p in [0, 100]) sample: the upper edge
  // of the bucket holding it, clamped to the recorded max. Never below the
  // true value, and never more than 12.5% above it outside the clamp
  // bucket. 0 when empty.
  std::uint64_t Percentile(double p) const {
    if (count == 0) {
      return 0;
    }
    std::uint64_t rank = static_cast<std::uint64_t>(p / 100.0 * static_cast<double>(count));
    rank = std::min(rank, count - 1);
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      seen += counts[i];
      if (seen > rank) {
        return std::min(BucketUpper(i), max);
      }
    }
    return max;
  }

  // Nanosecond-recorded histograms, read in microseconds.
  double PercentileUs(double p) const { return static_cast<double>(Percentile(p)) / 1e3; }
  double mean_us() const { return mean() / 1e3; }
};

// Histogram's geometry in relaxed atomic cells: any number of threads
// record without coordination. Readers never see the cells directly, only
// a plain Histogram whose count is the sum of the bucket loads, so the
// count always agrees with the buckets it came from.
class AtomicHistogram {
 public:
  void Record(std::uint64_t v) {
    counts_[Histogram::BucketFor(v)].fetch_add(1, std::memory_order_relaxed);
    total_.fetch_add(v, std::memory_order_relaxed);
    std::uint64_t seen = max_.load(std::memory_order_relaxed);
    while (v > seen && !max_.compare_exchange_weak(seen, v, std::memory_order_relaxed)) {
    }
  }

  Histogram Snapshot() const {
    return Read(*this, [](const auto& cell) { return cell.load(std::memory_order_relaxed); });
  }

  // Snapshot and reset in one pass: each cell is exchanged with zero, so a
  // concurrent Record's bucket lands in either this snapshot or the next,
  // never neither.
  Histogram Drain() {
    return Read(*this, [](auto& cell) { return cell.exchange(0, std::memory_order_relaxed); });
  }

 private:
  template <typename Self, typename Take>
  static Histogram Read(Self& cells, Take take) {
    Histogram out;
    for (std::size_t i = 0; i < Histogram::kBuckets; ++i) {
      out.counts[i] = take(cells.counts_[i]);
      out.count += out.counts[i];
    }
    out.total = take(cells.total_);
    out.max = take(cells.max_);
    return out;
  }

  std::array<std::atomic<std::uint64_t>, Histogram::kBuckets> counts_{};
  std::atomic<std::uint64_t> total_{0};
  std::atomic<std::uint64_t> max_{0};
};

}  // namespace graftd

#endif  // GRAFTLAB_SRC_GRAFTD_HISTOGRAM_H_
