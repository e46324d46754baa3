// Streaming summary statistics for benchmark reporting: mean, stddev,
// min/max, median. Accumulate with add(), read at the end.
#pragma once

#include <vector>

namespace nd {

class Stats {
 public:
  void add(double x);

  [[nodiscard]] int count() const { return static_cast<int>(values_.size()); }
  [[nodiscard]] bool empty() const { return values_.empty(); }
  [[nodiscard]] double mean() const;
  /// Sample standard deviation (n−1 denominator); 0 for fewer than 2 points.
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;
  /// Median (mean of the middle two for even counts).
  [[nodiscard]] double median() const;

 private:
  std::vector<double> values_;
};

}  // namespace nd
