// Knobs for attaching the observability layer to a run.  Disabled by
// default: a run with every sink off builds no obs::Hub, binds nothing and
// schedules no probes, so the hot path is identical to an uninstrumented
// build.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>

#include "obs/event_log.hpp"

namespace dmp::obs {

struct ObsConfig {
  // Metrics sink: registry, gauge probe CSV, event log and run report.
  bool enabled = false;
  // Directory for every emitted artifact; created if missing.  Files are
  // `<prefix>_{report.json,probe.csv,events.jsonl,trace.jsonl,
  // telemetry.csv,sketches.jsonl}`.
  std::string output_dir = "bench_out";
  std::string prefix = "run";
  // Gauge-snapshot interval for the time-series probe (simulated seconds);
  // <= 0 disables the probe (counters, events and the report still run).
  double probe_interval_s = 1.0;
  // Ring-buffer capacity for the event log (0 = unbounded); overwrites are
  // reported as `events_overwritten`.
  std::size_t event_ring_capacity = 65536;
  Severity min_severity = Severity::kInfo;
  // Per-packet lifecycle tracing (the flight recorder).  Orthogonal to
  // `enabled`: either toggle brings up the obs layer, but the JSONL trace
  // in `<prefix>_trace.jsonl` is written only when this one is set.
  bool flight_recorder = false;

  std::string report_path() const { return path("report.json"); }
  std::string probe_csv_path() const { return path("probe.csv"); }
  std::string events_path() const { return path("events.jsonl"); }
  std::string trace_path() const { return path("trace.jsonl"); }
  std::string telemetry_csv_path() const { return path("telemetry.csv"); }
  std::string sketches_path() const { return path("sketches.jsonl"); }

 private:
  std::string path(const char* suffix) const {
    return output_dir + "/" + prefix + "_" + suffix;
  }
};

// Streaming telemetry sink (src/obs/telemetry): windowed time-series
// channels plus quantile sketches (relative error
// QuantileSketch::kDefaultAlpha), independent of ObsConfig's toggles.
struct TelemetryConfig {
  bool enabled = false;
  // Window width for all time-series channels (simulated seconds).
  double window_s = 1.0;
  // Write `<prefix>_telemetry.csv` and `<prefix>_sketches.jsonl`.
  bool write_artifacts = false;
};

// The sinks the DMP_OBS=<list> switch turns on, in simulated and socket
// runs alike.
struct ObsSinks {
  bool metrics = false;    // registry, probe CSV, event log, run report
  bool trace = false;      // per-packet flight recorder
  bool telemetry = false;  // windowed channels + quantile sketches
  bool profile = false;    // DES self-profiler (simulated runs only)

  bool any() const { return metrics || trace || telemetry || profile; }
  // The list in canonical order, or "off".
  std::string to_string() const;
};

// Parses a comma list of metrics, trace, telemetry, profile (any subset,
// any order).  Throws std::invalid_argument naming an unknown or empty
// element.
ObsSinks parse_obs_sinks(std::string_view list);

}  // namespace dmp::obs
