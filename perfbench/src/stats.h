// Order statistics shared by every workload: medians of repeated
// measurements, percentiles of latency samples, the quartiles used to
// report a measurement's spread, and a fixed-size latency histogram.
#ifndef PERFBENCH_SRC_STATS_H_
#define PERFBENCH_SRC_STATS_H_

#include <array>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Median (mean of the two middle values for even sizes); 0 when empty.
double Median(std::vector<double> values);

/// Percentile p in [0, 1] with linear interpolation between closest ranks
/// (p = 0.5 equals Median); 0 when empty.
double Percentile(std::vector<double> values, double p);

/// First, second and third quartile exactly as Python's
/// statistics.quantiles(values, n=4) (the default "exclusive" method),
/// so a spread computed here matches one computed from printed values.
/// Needs at least two values; a single value yields it three times and
/// an empty input yields zeros.
std::array<double, 3> Quartiles(std::vector<double> values);

/// Interquartile range as a share of the median (0 when the median is 0).
double RelativeSpread(const std::vector<double>& values);

/// Histogram of durations in geometric buckets 0.1% wide, from 100 ns to
/// 100 s; a value outside that range counts in the end bucket. Its size is
/// fixed and all of it is written when it is made, so its share of the
/// resident set does not grow with the number of samples.
class LatencyHistogram {
 public:
  LatencyHistogram();

  void Add(double seconds);
  void Merge(const LatencyHistogram& other);
  uint64_t count() const { return count_; }

  /// The sample of rank floor(p * (count - 1)), p in [0, 1], as the
  /// geometric centre of its bucket (within 0.05% of the sample); 0 when
  /// empty.
  double Percentile(double p) const;

 private:
  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_STATS_H_
