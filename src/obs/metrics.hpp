// Metric primitives and the process-wide registry.
//
// Design (DESIGN.md §11): the write path is lock-free. A Counter is a row
// of cache-line-padded atomic cells; each thread picks a cell once
// (round-robin at first touch) and increments it with relaxed ordering, so
// concurrent writers never share a line until thread count exceeds the
// stripe count. A Histogram is HDR-style: log2 major buckets split into 16
// linear sub-buckets (≤ ~3% relative error at the midpoint), each bucket a
// relaxed atomic count, plus exact count/sum/min/max maintained by CAS.
// Scrape aggregates cells and buckets with plain relaxed loads — a scrape
// concurrent with writers sees some consistent-enough snapshot, never a
// torn value and never a data race.
//
// The registry itself (name -> metric) is the only shared mutable
// structure and sits behind an annotated util::Mutex. Metric objects are
// node-allocated, so references returned by counter()/gauge()/histogram()
// stay valid for the registry's lifetime — the instrumentation macros cache
// them in function-local statics and never touch the map again.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>

#include "obs/config.hpp"
#include "util/json.hpp"
#include "util/mutex.hpp"

namespace idde::obs {

namespace detail {
/// Stripe slot of the calling thread: assigned round-robin on first use,
/// constant for the thread's lifetime.
[[nodiscard]] std::size_t thread_stripe() noexcept;
}  // namespace detail

/// Monotonic event count. Lock-free; safe from any thread.
class Counter {
 public:
  static constexpr std::size_t kStripes = 16;

  void add(std::uint64_t n = 1) noexcept {
    cells_[detail::thread_stripe() % kStripes].value.fetch_add(
        n, std::memory_order_relaxed);
  }

  /// Sum over all cells (relaxed; exact once writers are quiescent).
  [[nodiscard]] std::uint64_t value() const noexcept;

  void reset() noexcept;

 private:
  struct alignas(64) Cell {
    std::atomic<std::uint64_t> value{0};
  };
  std::array<Cell, kStripes> cells_;
};

/// Last-write-wins instantaneous value (queue depths, pool sizes).
class Gauge {
 public:
  void set(std::int64_t v) noexcept {
    value_.store(v, std::memory_order_relaxed);
  }
  void add(std::int64_t d) noexcept {
    value_.fetch_add(d, std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Quantile summary of a Histogram at scrape time.
struct HistogramSnapshot {
  std::uint64_t count = 0;
  double min = 0.0;
  double max = 0.0;
  double sum = 0.0;
  double mean = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  double p999 = 0.0;

  [[nodiscard]] util::Json to_json() const;
};

/// Log-bucketed histogram for non-negative values (durations in ms,
/// set sizes, utilisation ratios). Values below ~5e-4 collapse into one
/// underflow bucket, values above ~1e12 into one overflow bucket; in
/// between the relative quantization error is bounded by the sub-bucket
/// width (1/16 of an octave).
class Histogram {
 public:
  static constexpr int kSubBuckets = 16;
  static constexpr int kMinExp = -10;  ///< smallest resolved octave, 2^-11
  static constexpr int kMaxExp = 40;   ///< largest resolved octave, 2^40
  static constexpr std::size_t kBucketCount =
      2 + static_cast<std::size_t>(kMaxExp - kMinExp + 1) * kSubBuckets;

  /// Records one sample. NaN is dropped; negatives count as underflow.
  void record(double value) noexcept;

  [[nodiscard]] HistogramSnapshot snapshot() const;

  /// Nearest-rank quantile (p in [0, 100]) over the current buckets:
  /// the midpoint of the bucket holding the ceil(p/100 * count)-th sample,
  /// clamped to the exact observed [min, max]. p = 0 / 100 return the
  /// exact min / max.
  [[nodiscard]] double percentile(double p) const;

  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_acquire);
  }

  void reset() noexcept;

  /// Bucket [lower, upper) covering `value` — the quantization error bound
  /// the property tests check histogram quantiles against.
  [[nodiscard]] static std::pair<double, double> bucket_range(
      double value) noexcept;

 private:
  [[nodiscard]] static std::size_t bucket_index(double value) noexcept;
  [[nodiscard]] static double bucket_midpoint(std::size_t index) noexcept;

  std::array<std::atomic<std::uint64_t>, kBucketCount> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{std::numeric_limits<double>::infinity()};
  std::atomic<double> max_{-std::numeric_limits<double>::infinity()};
};

/// Named metrics, one instance per process (global()), separate instances
/// for isolation in tests. Lookup is mutex-guarded; the returned references
/// are stable until the registry is destroyed (reset() zeroes values but
/// never invalidates them).
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  static MetricsRegistry& global();

  [[nodiscard]] Counter& counter(std::string_view name)
      IDDE_EXCLUDES(mutex_);
  [[nodiscard]] Gauge& gauge(std::string_view name) IDDE_EXCLUDES(mutex_);
  [[nodiscard]] Histogram& histogram(std::string_view name)
      IDDE_EXCLUDES(mutex_);

  /// {"counters": {...}, "gauges": {...}, "histograms": {name: snapshot}}.
  /// Key order is deterministic (std::map) for golden-file friendliness.
  [[nodiscard]] util::Json scrape() IDDE_EXCLUDES(mutex_);

  /// Zeroes every registered metric; references handed out stay valid.
  void reset() IDDE_EXCLUDES(mutex_);

 private:
  mutable util::Mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_
      IDDE_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_
      IDDE_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_
      IDDE_GUARDED_BY(mutex_);
};

}  // namespace idde::obs
