#include "obs/hub.hpp"

#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <utility>

#include "obs/probe.hpp"
#include "obs/run_report.hpp"
#include "util/json.hpp"

namespace dmp::obs {

namespace {

// DMP_OBS list elements, in canonical order.
constexpr std::pair<std::string_view, bool ObsSinks::*> kSinks[] = {
    {"metrics", &ObsSinks::metrics},
    {"trace", &ObsSinks::trace},
    {"telemetry", &ObsSinks::telemetry},
    {"profile", &ObsSinks::profile},
};

// One sketch per line: the sketch's own JSON with a leading name member
// (read back by read_sketches_jsonl).
bool write_sketches(const std::map<std::string, QuantileSketch>& sketches,
                    const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  bool ok = true;
  for (const auto& [name, sketch] : sketches) {
    std::string line = "{\"name\":";
    append_json_string(line, name);
    line += ',';
    line.append(sketch.to_json(), 1);
    line += '\n';
    if (std::fwrite(line.data(), 1, line.size(), f) != line.size()) {
      ok = false;
      break;
    }
  }
  if (std::fclose(f) != 0) ok = false;
  return ok;
}

}  // namespace

std::string ObsSinks::to_string() const {
  std::string out;
  for (const auto& [name, flag] : kSinks) {
    if (!(this->*flag)) continue;
    if (!out.empty()) out += ',';
    out += name;
  }
  return out.empty() ? "off" : out;
}

ObsSinks parse_obs_sinks(std::string_view list) {
  ObsSinks sinks;
  for (std::size_t start = 0; start <= list.size();) {
    std::size_t end = list.find(',', start);
    if (end == std::string_view::npos) end = list.size();
    const std::string_view item = list.substr(start, end - start);
    bool* flag = nullptr;
    for (const auto& [name, member] : kSinks) {
      if (name == item) flag = &(sinks.*member);
    }
    if (flag == nullptr) {
      throw std::invalid_argument{
          (item.empty() ? std::string{"empty sink"}
                        : "unknown sink '" + std::string{item} + "'") +
          " in '" + std::string{list} +
          "' (expected a comma list of metrics, trace, telemetry, profile)"};
    }
    *flag = true;
    start = end + 1;
  }
  return sinks;
}

Hub::Hub(ObsConfig config, TelemetryConfig telemetry)
    : config_(std::move(config)), telemetry_(telemetry) {
  if (config_.enabled) {
    metrics_ = std::make_shared<MetricsRegistry>();
    events_ = std::make_unique<EventLog>(config_.event_ring_capacity,
                                         config_.min_severity);
  }
  if (config_.flight_recorder) flight_ = std::make_unique<FlightRecorder>();
  if (telemetry_.enabled) {
    series_ = std::make_unique<TimeSeries>(telemetry_.window_s);
  }
  if (config_.enabled || config_.flight_recorder ||
      (telemetry_.enabled && telemetry_.write_artifacts)) {
    std::filesystem::create_directories(config_.output_dir);
  }
}

Hub::~Hub() = default;

bool Hub::wanted(const ObsConfig& config, const TelemetryConfig& telemetry) {
  return config.enabled || config.flight_recorder || telemetry.enabled;
}

QuantileSketch* Hub::sketch(const std::string& name) {
  if (!series_) return nullptr;
  return &sketches_.try_emplace(name).first->second;
}

void Hub::start_probe(Scheduler& sched, std::vector<std::string> columns,
                      SimTime end) {
  if (!metrics_ || !(config_.probe_interval_s > 0.0)) return;
  probe_ = std::make_unique<Probe>(sched, *metrics_, std::move(columns),
                                   config_.probe_csv_path(),
                                   SimTime::seconds(config_.probe_interval_s));
  probe_->start(end);
}

void Hub::stop_probe() {
  if (!probe_) return;
  probe_->stop();
  if (!probe_->ok()) ++write_failures_;
  probe_.reset();  // holds the run's scheduler
}

void Hub::write_artifacts() {
  stop_probe();
  if (flight_ && !flight_->write_jsonl(config_.trace_path())) {
    ++write_failures_;
  }
  if (series_ && telemetry_.write_artifacts) {
    if (!series_->write_csv(config_.telemetry_csv_path())) ++write_failures_;
    if (!write_sketches(sketches_, config_.sketches_path())) ++write_failures_;
  }
  if (metrics_) {
    metrics_->freeze_samplers();
    if (!events_->write_jsonl(config_.events_path())) ++write_failures_;
  }
}

void Hub::write_report(RunReport& report) {
  report.set_scalar("io_errors", static_cast<std::int64_t>(write_failures_));
  report.set_scalar("status", write_failures_ == 0 ? std::int64_t{0}
                                                   : std::int64_t{1});
  if (!report.write(config_.report_path(), metrics_.get())) ++write_failures_;
}

}  // namespace dmp::obs
