#include "perfbench/src/stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

namespace {

constexpr double kHistMin = 1e-7;     // seconds
constexpr double kHistGrowth = 1.001;
const double kHistLogGrowth = std::log(kHistGrowth);
const size_t kHistBuckets =
    static_cast<size_t>(std::ceil(std::log(100.0 / kHistMin) / kHistLogGrowth));

}  // namespace

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  double rank =
      std::clamp(p, 0.0, 1.0) * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(rank));
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

std::array<double, 3> Quartiles(std::vector<double> values) {
  if (values.empty()) return {0.0, 0.0, 0.0};
  if (values.size() == 1) return {values[0], values[0], values[0]};
  std::sort(values.begin(), values.end());
  const long ld = static_cast<long>(values.size());
  const long m = ld + 1;
  std::array<double, 3> out{};
  for (long i = 1; i <= 3; ++i) {
    long j = std::clamp(i * m / 4, 1L, ld - 1);
    long delta = i * m - j * 4;
    out[i - 1] = (values[j - 1] * static_cast<double>(4 - delta) +
                  values[j] * static_cast<double>(delta)) /
                 4.0;
  }
  return out;
}

double RelativeSpread(const std::vector<double>& values) {
  std::array<double, 3> q = Quartiles(values);
  return q[1] != 0.0 ? (q[2] - q[0]) / q[1] : 0.0;
}


LatencyHistogram::LatencyHistogram() : buckets_(kHistBuckets, 0) {}

void LatencyHistogram::Add(double seconds) {
  double pos = std::log(std::max(seconds, kHistMin) / kHistMin) /
               kHistLogGrowth;
  size_t i = std::min(static_cast<size_t>(pos), kHistBuckets - 1);
  ++buckets_[i];
  ++count_;
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  for (size_t i = 0; i < kHistBuckets; ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
}

double LatencyHistogram::Percentile(double p) const {
  if (count_ == 0) return 0.0;
  const uint64_t rank = static_cast<uint64_t>(
      std::clamp(p, 0.0, 1.0) * static_cast<double>(count_ - 1));
  uint64_t seen = 0;
  size_t i = 0;
  for (; i + 1 < kHistBuckets; ++i) {
    seen += buckets_[i];
    if (seen > rank) break;
  }
  return kHistMin * std::exp((static_cast<double>(i) + 0.5) * kHistLogGrowth);
}

}  // namespace perfbench
