// Streaming statistics: Welford accumulators, Student-t confidence
// intervals over independent replications, and batch-means intervals for
// correlated within-run samples (late-packet indicators are bursty).
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace dmp {

// Single-pass mean/variance accumulator (Welford).
class RunningStats {
 public:
  void add(double x);
  void merge(const RunningStats& other);

  std::size_t count() const { return n_; }
  double mean() const;
  // Unbiased sample variance; 0 when fewer than two samples.
  double variance() const;
  double stddev() const;
  // 0 when empty.  Internally the extrema start at +/-infinity, so merging
  // an empty accumulator can never clamp an all-positive or all-negative
  // sample set toward 0.
  double min() const;
  double max() const;
  double sum() const;

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

// Two-sided Student-t critical value at the given confidence level
// (supported: 0.90, 0.95, 0.99) with `dof` degrees of freedom.
double student_t_critical(double confidence, std::size_t dof);

struct ConfidenceInterval {
  double mean = 0.0;
  double half_width = 0.0;
  double lo() const { return mean - half_width; }
  double hi() const { return mean + half_width; }
  bool contains(double x) const { return x >= lo() && x <= hi(); }
};

// CI over independent replications (one sample per run).
ConfidenceInterval confidence_interval(const std::vector<double>& samples,
                                       double confidence = 0.95);

// Batch-means estimator for the mean of a correlated 0/1 (or real) series.
// Samples are folded into `num_batches` consecutive batches; the CI is a
// t-interval over the batch averages.
class BatchMeans {
 public:
  explicit BatchMeans(std::size_t num_batches = 32);

  void add(double x);
  // Folds `count` consecutive samples of the same value `x` in O(batches)
  // instead of O(count).  For integer-valued x the accumulators match
  // `count` repeated add(x) calls exactly (the sums stay integral), so the
  // Monte-Carlo bulk-consumption fast path feeds the same batch stream as
  // the event-by-event loop.
  // Inline: this sits inside the Monte-Carlo bulk loop, and keeping the
  // common no-boundary case visible to the caller's optimizer is worth it.
  void add_many(double x, std::uint64_t count) {
    while (count > 0) {
      const std::uint64_t room = batch_target_ - in_batch_;
      const std::uint64_t m = count < room ? count : room;
      const double contrib = x * static_cast<double>(m);
      total_n_ += static_cast<std::size_t>(m);
      total_sum_ += contrib;
      batch_sum_ += contrib;
      in_batch_ += static_cast<std::size_t>(m);
      if (in_batch_ >= batch_target_) close_batch();
      count -= m;
    }
  }
  // add_many(0.0, zeros) then add_many(1.0, ones), in one update when no
  // batch closes before the last sample.  Exact: adding 0.0 leaves a sum
  // unchanged, and 1.0 * ones is an integer below 2^53.
  void add_zeros_then_ones(std::uint64_t zeros, std::uint64_t ones) {
    const std::uint64_t count = zeros + ones;
    if (count > batch_target_ - in_batch_) {
      add_many(0.0, zeros);
      add_many(1.0, ones);
      return;
    }
    const double contrib = static_cast<double>(ones);
    total_n_ += static_cast<std::size_t>(count);
    total_sum_ += contrib;
    batch_sum_ += contrib;
    in_batch_ += static_cast<std::size_t>(count);
    if (in_batch_ >= batch_target_) close_batch();
  }
  std::size_t count() const { return total_n_; }
  double mean() const;
  // CI over completed batches; falls back to a degenerate interval when
  // fewer than two batches have completed.
  ConfidenceInterval interval(double confidence = 0.95) const;

 private:
  void close_batch();

  std::size_t batch_target_;  // samples per batch before it closes (doubles over time)
  std::size_t in_batch_ = 0;
  double batch_sum_ = 0.0;
  std::size_t total_n_ = 0;
  double total_sum_ = 0.0;
  std::size_t num_batches_;
  std::vector<double> batch_means_;
};

// Quantile of a sample (linear interpolation); sorts a copy.
double quantile(std::vector<double> values, double q);

}  // namespace dmp
