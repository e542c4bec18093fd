// The benchmark's own statistics: percentiles with the tail-support rule,
// failure fractions, wall-time rates, reference seconds, runner
// utilisation, the layer-budget closure, and a span log with self time.  Header-only and clock-agnostic
// (every time is a double in seconds handed in by the caller), so
// stats_test.cpp checks all of it with a fake clock and exact arithmetic.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <functional>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

namespace perfbench {

// Nearest-rank percentile: the smallest sample with at least q% of the
// samples at or below it.  q in (0, 100].
inline double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) throw std::invalid_argument{"percentile of no samples"};
  if (!(q > 0.0 && q <= 100.0)) throw std::invalid_argument{"q out of (0,100]"};
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  auto rank = static_cast<std::size_t>(std::ceil(q / 100.0 * n));
  if (rank < 1) rank = 1;
  return samples[rank - 1];
}

inline double median(const std::vector<double>& samples) {
  return percentile(samples, 50.0);
}

inline double mean(const std::vector<double>& samples) {
  if (samples.empty()) throw std::invalid_argument{"mean of no samples"};
  double sum = 0.0;
  for (double x : samples) sum += x;
  return sum / static_cast<double>(samples.size());
}

// Reference seconds.  The benchmark's host is shared, and its speed drifts
// by tens of percent within seconds; a fixed calibration slice
// (host_speed.hpp), timed beside the work, drifts with it.  A time scaled
// by kReferenceSliceS / (the slice time measured beside it) is the time
// the work would take on a host that runs one slice in exactly
// kReferenceSliceS, so drift cancels and the code's own speed remains.
constexpr double kReferenceSliceS = 2.0e-3;

inline double reference_s(double seconds, double slice_s) {
  if (!(slice_s > 0.0)) throw std::invalid_argument{"slice time must be > 0"};
  return seconds * (kReferenceSliceS / slice_s);
}

// Samples strictly above the nearest-rank q-th percentile position.
inline std::size_t samples_beyond(std::size_t n, double q) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(q / 100.0 * static_cast<double>(n)));
  return n - std::min(rank, n);
}

// A percentile is reported only when at least `min_beyond` samples lie
// beyond it (10 by default), so a tail figure never rests on a handful.
inline bool percentile_supported(std::size_t n, double q,
                                 std::size_t min_beyond = 10) {
  return samples_beyond(n, q) >= min_beyond;
}

// Items that threw or failed an output check over items attempted.  The
// base is every attempted item, so a run that fails early still counts
// what it tried.
inline double failed_fraction(std::size_t failed, std::size_t attempted) {
  if (attempted == 0) throw std::invalid_argument{"no items attempted"};
  if (failed > attempted) throw std::invalid_argument{"failed > attempted"};
  return static_cast<double>(failed) / static_cast<double>(attempted);
}

// Work per second of WALL time.  Never divide threaded work by the calling
// thread's CPU time: the work runs on other threads, so that quotient is
// inflated by the worker count and more.
inline double rate_per_wall_s(double work, double wall_s) {
  return wall_s > 0.0 ? work / wall_s : 0.0;
}

// One work item as the runner saw it: wall-clock start and end.
struct ItemTiming {
  double start_s = 0.0;
  double end_s = 0.0;
  double slice_s = 0.0;  // the calibration slice run just before the item
  double wall_s() const { return end_s - start_s; }
};

// Runner utilisation over a batch that ran from `batch_start_s` to
// `batch_end_s` on `workers` workers.  A worker is busy with an item from
// the start of the item's calibration slice to the item's end.
struct RunnerStats {
  double makespan_s = 0.0;
  double busy_fraction = 0.0;  // busy time / (workers * makespan)
  double tail_idle_s = 0.0;    // makespan - start of the last-starting item
};

inline RunnerStats runner_stats(const std::vector<ItemTiming>& items,
                                std::size_t workers, double batch_start_s,
                                double batch_end_s) {
  RunnerStats s;
  s.makespan_s = batch_end_s - batch_start_s;
  if (items.empty() || workers == 0 || s.makespan_s <= 0.0) return s;
  double busy = 0.0;
  double last_start = batch_start_s;
  for (const auto& item : items) {
    busy += item.slice_s + item.wall_s();
    last_start = std::max(last_start, item.start_s);
  }
  s.busy_fraction = busy / (static_cast<double>(workers) * s.makespan_s);
  s.tail_idle_s = batch_end_s - last_start;
  return s;
}

// One line of the layer budget: a unit cost times how often a session
// performs that operation.
struct BudgetLine {
  std::string name;
  double ns_per_op = 0.0;
  double ops = 0.0;
  double seconds() const { return ns_per_op * ops * 1e-9; }
};

// Predicted DES seconds (sum over lines) over the measured DES wall
// seconds.  1.0 means the unit costs account for all of the time; the
// base (`measured_s`) is reported beside it.
inline double budget_predicted_s(const std::vector<BudgetLine>& lines) {
  double s = 0.0;
  for (const auto& line : lines) s += line.seconds();
  return s;
}

inline double budget_closure(const std::vector<BudgetLine>& lines,
                             double measured_s) {
  return measured_s > 0.0 ? budget_predicted_s(lines) / measured_s : 0.0;
}

// Spans recorded around the benchmark's own calls into the layers.  Safe to
// use from worker threads.  A span's self time is its duration minus the
// durations of its direct children (children are opened on the same thread
// inside their parent, so they never overhang it).
class SpanLog {
 public:
  using Clock = std::function<double()>;
  static constexpr std::size_t kNoParent =
      std::numeric_limits<std::size_t>::max();

  struct Span {
    std::string name;
    double start_s = 0.0;
    double end_s = 0.0;
    std::size_t parent = kNoParent;
    bool open = true;
  };

  explicit SpanLog(Clock clock) : clock_(std::move(clock)) {}

  std::size_t begin(const std::string& name, std::size_t parent = kNoParent) {
    const double now = clock_();
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(Span{name, now, now, parent, true});
    return spans_.size() - 1;
  }

  void end(std::size_t id) {
    const double now = clock_();
    std::lock_guard<std::mutex> lock(mu_);
    spans_.at(id).end_s = now;
    spans_.at(id).open = false;
  }

  std::vector<Span> spans() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

  // Sum of self times over every closed span called `name`.
  double self_time_s(const std::string& name) const {
    const auto all = spans();
    std::vector<double> child_time(all.size(), 0.0);
    for (const auto& span : all) {
      if (span.open || span.parent == kNoParent) continue;
      child_time.at(span.parent) += span.end_s - span.start_s;
    }
    double total = 0.0;
    for (std::size_t i = 0; i < all.size(); ++i) {
      if (all[i].open || all[i].name != name) continue;
      total += (all[i].end_s - all[i].start_s) - child_time[i];
    }
    return total;
  }

 private:
  Clock clock_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// RAII span: opens on construction, closes on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const std::string& name,
             std::size_t parent = SpanLog::kNoParent)
      : log_(log), id_(log.begin(name, parent)) {}
  ~ScopedSpan() { log_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  std::size_t id() const { return id_; }

 private:
  SpanLog& log_;
  std::size_t id_;
};

}  // namespace perfbench
