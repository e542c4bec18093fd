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

  void sample(double time_s);

  std::size_t samples() const { return samples_; }
  const std::string& path() const { return csv_.path(); }
  // False once any sample row failed to reach the file (see CsvWriter).
  bool ok() const { return csv_.ok(); }

 private:
  std::vector<Gauge*> gauges_;
  CsvWriter csv_;
  std::size_t samples_ = 0;
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

  std::size_t samples() const { return writer_.samples(); }
  const std::string& path() const { return writer_.path(); }
  bool ok() const { return writer_.ok(); }

 private:
  void tick();
  static void tick_port(void* ctx) { static_cast<Probe*>(ctx)->tick(); }

  Scheduler& sched_;
  ProbeWriter writer_;
  SimTime interval_;
  SimTime end_ = SimTime::max();
  std::uint32_t timer_;
};

}  // namespace dmp::obs
