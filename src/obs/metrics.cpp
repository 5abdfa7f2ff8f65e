#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/assert.hpp"

namespace idde::obs {

namespace detail {

std::size_t thread_stripe() noexcept {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t stripe =
      next.fetch_add(1, std::memory_order_relaxed);
  return stripe;
}

}  // namespace detail

std::uint64_t Counter::value() const noexcept {
  std::uint64_t total = 0;
  for (const Cell& cell : cells_) {
    total += cell.value.load(std::memory_order_relaxed);
  }
  return total;
}

void Counter::reset() noexcept {
  for (Cell& cell : cells_) cell.value.store(0, std::memory_order_relaxed);
}

namespace {

/// Relaxed CAS loop folding `v` into an atomic double with `op`.
template <typename Op>
void atomic_fold(std::atomic<double>& target, double v, Op op) noexcept {
  double observed = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(observed, op(observed, v),
                                       std::memory_order_relaxed,
                                       std::memory_order_relaxed)) {
  }
}

}  // namespace

void Histogram::record(double value) noexcept {
  if (std::isnan(value)) return;
  // Fold the sample in before publishing the new count: a reader that
  // acquires count n sees the bucket, sum, min and max of all n samples,
  // so a non-empty snapshot never shows the empty sentinels.
  atomic_fold(sum_, value, [](double a, double b) { return a + b; });
  atomic_fold(min_, value, [](double a, double b) { return std::min(a, b); });
  atomic_fold(max_, value, [](double a, double b) { return std::max(a, b); });
  buckets_[bucket_index(value)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_release);
}

std::size_t Histogram::bucket_index(double value) noexcept {
  if (!(value > 0.0)) return 0;
  int exp = 0;
  const double frac = std::frexp(value, &exp);  // value = frac * 2^exp
  if (exp < kMinExp) return 0;
  if (exp > kMaxExp) return kBucketCount - 1;
  auto sub = static_cast<int>((frac - 0.5) * 2.0 * kSubBuckets);
  sub = std::clamp(sub, 0, kSubBuckets - 1);
  return 1 + static_cast<std::size_t>(exp - kMinExp) *
                 static_cast<std::size_t>(kSubBuckets) +
         static_cast<std::size_t>(sub);
}

double Histogram::bucket_midpoint(std::size_t index) noexcept {
  if (index == 0) return std::ldexp(1.0, kMinExp - 1) * 0.5;
  if (index == kBucketCount - 1) return std::ldexp(1.0, kMaxExp);
  const std::size_t linear = index - 1;
  const int exp =
      kMinExp + static_cast<int>(linear / static_cast<std::size_t>(kSubBuckets));
  const auto sub =
      static_cast<double>(linear % static_cast<std::size_t>(kSubBuckets));
  const double base = std::ldexp(1.0, exp - 1);
  const double width = base / kSubBuckets;
  return base + width * (sub + 0.5);
}

std::pair<double, double> Histogram::bucket_range(double value) noexcept {
  const std::size_t index = bucket_index(value);
  if (index == 0) return {0.0, std::ldexp(1.0, kMinExp - 1)};
  if (index == kBucketCount - 1) {
    return {std::ldexp(1.0, kMaxExp),
            std::numeric_limits<double>::infinity()};
  }
  const std::size_t linear = index - 1;
  const int exp =
      kMinExp + static_cast<int>(linear / static_cast<std::size_t>(kSubBuckets));
  const auto sub =
      static_cast<double>(linear % static_cast<std::size_t>(kSubBuckets));
  const double base = std::ldexp(1.0, exp - 1);
  const double width = base / kSubBuckets;
  return {base + width * sub, base + width * (sub + 1.0)};
}

double Histogram::percentile(double p) const {
  IDDE_EXPECTS(p >= 0.0 && p <= 100.0);
  const std::uint64_t n = count_.load(std::memory_order_acquire);
  if (n == 0) return 0.0;
  const double lo = min_.load(std::memory_order_relaxed);
  const double hi = max_.load(std::memory_order_relaxed);
  if (!(lo <= hi)) return 0.0;  // torn by a concurrent reset(): empty
  if (p == 0.0) return lo;
  if (p == 100.0) return hi;
  auto rank = static_cast<std::uint64_t>(
      std::ceil(p / 100.0 * static_cast<double>(n)));
  rank = std::clamp<std::uint64_t>(rank, 1, n);
  std::uint64_t cumulative = 0;
  for (std::size_t b = 0; b < kBucketCount; ++b) {
    cumulative += buckets_[b].load(std::memory_order_relaxed);
    if (cumulative >= rank) {
      return std::clamp(bucket_midpoint(b), lo, hi);
    }
  }
  // Writers racing the scan can leave cumulative < rank; the tail bucket
  // is the right answer then.
  return hi;
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot snap;
  const std::uint64_t count = count_.load(std::memory_order_acquire);
  if (count == 0) return snap;
  const double lo = min_.load(std::memory_order_relaxed);
  const double hi = max_.load(std::memory_order_relaxed);
  // Only a reset() racing this read can leave the sentinels behind a
  // published count; report the histogram as the empty one it becomes.
  if (!(lo <= hi)) return snap;
  snap.count = count;
  snap.min = lo;
  snap.max = hi;
  snap.sum = sum_.load(std::memory_order_relaxed);
  snap.mean = snap.sum / static_cast<double>(snap.count);
  snap.p50 = percentile(50.0);
  snap.p90 = percentile(90.0);
  snap.p99 = percentile(99.0);
  snap.p999 = percentile(99.9);
  return snap;
}

void Histogram::reset() noexcept {
  for (auto& bucket : buckets_) bucket.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
  max_.store(-std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
}

util::Json HistogramSnapshot::to_json() const {
  util::JsonObject object;
  object["count"] = count;
  object["min"] = min;
  object["max"] = max;
  object["sum"] = sum;
  object["mean"] = mean;
  object["p50"] = p50;
  object["p90"] = p90;
  object["p99"] = p99;
  object["p999"] = p999;
  return util::Json(std::move(object));
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

namespace {

/// Node-map lookup-or-insert shared by the three metric kinds. The caller
/// holds the registry mutex.
template <typename Map>
auto& find_or_insert(Map& map, std::string_view name) {
  auto it = map.find(name);
  if (it == map.end()) {
    it = map.emplace(std::string(name),
                     std::make_unique<typename Map::mapped_type::element_type>())
             .first;
  }
  return *it->second;
}

}  // namespace

Counter& MetricsRegistry::counter(std::string_view name) {
  const util::MutexLock lock(mutex_);
  return find_or_insert(counters_, name);
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  const util::MutexLock lock(mutex_);
  return find_or_insert(gauges_, name);
}

Histogram& MetricsRegistry::histogram(std::string_view name) {
  const util::MutexLock lock(mutex_);
  return find_or_insert(histograms_, name);
}

util::Json MetricsRegistry::scrape() {
  const util::MutexLock lock(mutex_);
  util::JsonObject counters;
  for (const auto& [name, counter] : counters_) {
    counters[name] = counter->value();
  }
  util::JsonObject gauges;
  for (const auto& [name, gauge] : gauges_) {
    gauges[name] = gauge->value();
  }
  util::JsonObject histograms;
  for (const auto& [name, histogram] : histograms_) {
    histograms[name] = histogram->snapshot().to_json();
  }
  util::JsonObject doc;
  doc["counters"] = std::move(counters);
  doc["gauges"] = std::move(gauges);
  doc["histograms"] = std::move(histograms);
  return util::Json(std::move(doc));
}

void MetricsRegistry::reset() {
  const util::MutexLock lock(mutex_);
  for (const auto& [name, counter] : counters_) counter->reset();
  for (const auto& [name, gauge] : gauges_) gauge->reset();
  for (const auto& [name, histogram] : histograms_) histogram->reset();
}

}  // namespace idde::obs
