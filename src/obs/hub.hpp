// Per-run observability hub: the one attach point for every sink.
//
// A run builds one Hub from its ObsConfig + TelemetryConfig.  The hub owns
// whichever sinks are on (metrics registry, event log, flight recorder,
// telemetry series + quantile sketches), and each instrumented component
// binds it once — `sender.bind(hub, "tcp.path0")` — naming its own metrics
// and channels under the prefix and caching raw pointers from the typed
// lookups below.  Lookups return null when their sink is off, so per-event
// code keeps its plain null checks, and a run with every sink off builds
// no hub and binds nothing.
//
// The hub also owns the end of the run: the gauge probe and every
// artifact, counting the files that fail to reach disk.  It is not
// thread-safe; give each thread its own.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/config.hpp"
#include "obs/event_log.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry/sketch.hpp"
#include "obs/telemetry/time_series.hpp"
#include "util/sim_time.hpp"

namespace dmp {
class Scheduler;
}

namespace dmp::obs {

class Probe;
class RunReport;

class Hub {
 public:
  // Brings up the sinks the configs switch on, creating the output
  // directory when any of them writes an artifact.
  explicit Hub(ObsConfig config, TelemetryConfig telemetry = {});
  ~Hub();
  Hub(const Hub&) = delete;
  Hub& operator=(const Hub&) = delete;

  // True when the configs switch on at least one sink.
  static bool wanted(const ObsConfig& config,
                     const TelemetryConfig& telemetry);

  const ObsConfig& config() const { return config_; }
  const TelemetryConfig& telemetry() const { return telemetry_; }

  // Typed lookups: get-or-create with stable addresses; null when the sink
  // is off.
  Counter* counter(const std::string& name) {
    return metrics_ ? &metrics_->counter(name) : nullptr;
  }
  Gauge* gauge(const std::string& name) {
    return metrics_ ? &metrics_->gauge(name) : nullptr;
  }
  Histogram* histogram(const std::string& name) {
    return metrics_ ? &metrics_->histogram(name) : nullptr;
  }
  TimeSeriesChannel* channel(const std::string& name) {
    return series_ ? series_->channel(name) : nullptr;
  }
  QuantileSketch* sketch(const std::string& name);
  EventLog* events() const { return events_.get(); }
  FlightRecorder* flight() const { return flight_.get(); }

  // Whole sinks, for reports and consumers (null / empty when off).
  const std::shared_ptr<MetricsRegistry>& metrics() const { return metrics_; }
  const std::map<std::string, QuantileSketch>& sketches() const {
    return sketches_;
  }

  // Samples `columns` (registry gauges) into probe_csv_path() every
  // probe_interval_s of `sched`'s time, up to `end`.  A no-op unless
  // metrics are on and the interval is positive.
  void start_probe(Scheduler& sched, std::vector<std::string> columns,
                   SimTime end);
  // Stops the probe; call before its scheduler dies.
  void stop_probe();

  // End of run: stops the probe, freezes gauges (the instrumented objects
  // are about to go), and writes the flight trace, telemetry CSV +
  // sketches and event log of the sinks that are on.
  void write_artifacts();
  // Stamps `io_errors` / `status` into `report` and writes it with the
  // registry to report_path().  Call after write_artifacts().
  void write_report(RunReport& report);
  // Artifacts that failed to reach disk (writers warn on stderr; the run
  // itself never aborts).
  int artifact_write_failures() const { return write_failures_; }

 private:
  ObsConfig config_;
  TelemetryConfig telemetry_;
  std::shared_ptr<MetricsRegistry> metrics_;
  std::unique_ptr<EventLog> events_;
  std::unique_ptr<FlightRecorder> flight_;
  std::unique_ptr<TimeSeries> series_;
  std::map<std::string, QuantileSketch> sketches_;
  std::unique_ptr<Probe> probe_;
  int write_failures_ = 0;
};

}  // namespace dmp::obs
