// Periodic time-series sampling of registry gauges into CSV.
//
// `ProbeWriter` is the sampling core: given a registry and a list of gauge
// names it appends one CSV row (time + gauge values) per `sample()` call.
// `Probe` drives a ProbeWriter off the discrete-event `Scheduler` at a
// fixed simulated interval — the simulator's, or the stream clock the
// real-socket (`inet`) server advances from its poll loop.  Nothing is
// scheduled until `start()`, so an unstarted probe costs nothing.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/scheduler.hpp"
#include "util/csv.hpp"

namespace dmp::obs {

class ProbeWriter {
 public:
  // Opens `csv_path` and writes the header: time_s, <gauge names>.
  // Gauges are resolved (get-or-create) once, up front.
  ProbeWriter(MetricsRegistry& registry, std::vector<std::string> gauge_names,
              const std::string& csv_path);

  // Growth caps: once `max_rows` rows or (approximately) `max_bytes` of
  // row data have been written, further samples are counted in
  // `dropped_rows()` instead of reaching the file — a probe left running
  // on a week-long run degrades to a bounded artifact plus an accounting
  // line in the run report, never an unbounded CSV.  0 = unlimited.
  void set_limits(std::size_t max_rows, std::size_t max_bytes) {
    max_rows_ = max_rows;
    max_bytes_ = max_bytes;
  }

  void sample(double time_s);

  std::size_t samples() const { return samples_; }
  // Samples suppressed by the row/byte caps.
  std::size_t dropped_rows() const { return dropped_rows_; }
  const std::string& path() const { return csv_.path(); }
  // False once any sample row failed to reach the file (see CsvWriter).
  bool ok() const { return csv_.ok(); }

 private:
  std::vector<Gauge*> gauges_;
  CsvWriter csv_;
  std::size_t samples_ = 0;
  std::size_t dropped_rows_ = 0;
  std::size_t max_rows_ = 0;
  std::size_t max_bytes_ = 0;
  std::size_t bytes_written_ = 0;
};

// Scheduler-driven periodic probe.
class Probe {
 public:
  Probe(Scheduler& sched, MetricsRegistry& registry,
        std::vector<std::string> gauge_names, const std::string& csv_path,
        SimTime interval);

  // Samples immediately, then every `interval` until `stop()` or `end`
  // (inclusive); without an end bound the probe keeps the event queue
  // non-empty, so horizon-bounded runs are unaffected but `run()` to
  // drain would never return.
  void start(SimTime end = SimTime::max());
  void stop();

  // Forwarded to the underlying ProbeWriter (0 = unlimited).
  void set_limits(std::size_t max_rows, std::size_t max_bytes) {
    writer_.set_limits(max_rows, max_bytes);
  }

  std::size_t samples() const { return writer_.samples(); }
  std::size_t dropped_rows() const { return writer_.dropped_rows(); }
  const std::string& path() const { return writer_.path(); }
  bool ok() const { return writer_.ok(); }

 private:
  void tick();

  Scheduler& sched_;
  ProbeWriter writer_;
  SimTime interval_;
  SimTime end_ = SimTime::max();
  EventHandle timer_;
};

}  // namespace dmp::obs
