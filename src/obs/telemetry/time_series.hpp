// Windowed (sim-time-bucketed) time series.
//
// Each named channel folds point samples into fixed-width windows and keeps
// only the completed windows' summaries {count, sum, min, max, last} — a
// run's full time-resolved story in O(duration / window) memory instead of
// O(events).  Recording is the hot-path operation: instrumented components
// hold a raw `TimeSeriesChannel*` (null when telemetry is off — the same
// null-check idiom as `obs::Counter*`) and call `add(t, v)`, which is an
// integer divide plus a handful of compares in the common same-window case.
//
// Flushing is deterministic: channels are kept in a name-sorted map with
// stable node addresses, windows are emitted in time order, and empty
// windows are simply absent — so the CSV never contains the ±inf extrema
// sentinels of an untouched accumulator.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/sim_time.hpp"

namespace dmp::obs {

// One completed window of one channel.
struct Window {
  std::int64_t index = 0;  // window start = index * window width
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  double last = 0.0;  // final sample in the window (gauge semantics)

  double mean() const {
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  }
};

class TimeSeriesChannel {
 public:
  TimeSeriesChannel(std::string name, std::int64_t window_ns);

  // Records `v` at absolute sim time `t`.  Samples must arrive in
  // non-decreasing time order (the DES guarantees this); a sample for an
  // earlier window than the open one is folded into the open window rather
  // than rewriting history.
  void add(SimTime t, double v) {
    const std::int64_t w = t.ns() / window_ns_;
    if (w != open_index_ && open_count_ > 0) roll(w);
    open_index_ = w > open_index_ ? w : open_index_;
    if (open_count_ == 0) {
      open_min_ = open_max_ = v;
      open_sum_ = v;
    } else {
      open_sum_ += v;
      if (v < open_min_) open_min_ = v;
      if (v > open_max_) open_max_ = v;
    }
    open_last_ = v;
    ++open_count_;
  }

  // Convenience for event-count channels (drops, deliveries): each call
  // adds one sample of value `v` (default 1), so `sum` is the event count
  // per window and `count` the number of recording calls.
  void bump(SimTime t, double v = 1.0) { add(t, v); }

  // Closes the open window (if any) and returns all completed windows.
  const std::vector<Window>& finish();
  const std::string& name() const { return name_; }
  std::int64_t window_ns() const { return window_ns_; }
  std::uint64_t total_samples() const { return total_samples_; }

 private:
  void roll(std::int64_t next_index);

  std::string name_;
  std::int64_t window_ns_;
  std::vector<Window> done_;
  std::int64_t open_index_ = 0;
  std::uint64_t open_count_ = 0;
  double open_sum_ = 0.0;
  double open_min_ = 0.0;
  double open_max_ = 0.0;
  double open_last_ = 0.0;
  std::uint64_t total_samples_ = 0;
};

// Registry of channels for one run.  Channel handles are stable for the
// registry's lifetime (node-based map), so components can cache the
// pointer at attach time and never look it up again.
class TimeSeries {
 public:
  explicit TimeSeries(double window_s);

  TimeSeries(const TimeSeries&) = delete;
  TimeSeries& operator=(const TimeSeries&) = delete;

  // Get-or-create; the returned pointer stays valid until destruction.
  TimeSeriesChannel* channel(const std::string& name);

  double window_s() const { return static_cast<double>(window_ns_) * 1e-9; }

  // Closes every open window and writes the long-format CSV:
  //   window_start_s,channel,count,sum,mean,min,max,last
  // one row per (window, channel) with samples, channels in name order.
  // Returns false if any write failed (disk full is reported, not thrown).
  bool write_csv(const std::string& path);

  // Name-sorted iteration for reports and tests.
  std::vector<const TimeSeriesChannel*> channels() const;
  // finish()es every channel; called by the writers, callable directly.
  void finish_all();

 private:
  std::int64_t window_ns_;
  std::map<std::string, TimeSeriesChannel> channels_;
};

}  // namespace dmp::obs
