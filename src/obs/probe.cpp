#include "obs/probe.hpp"

#include <stdexcept>

namespace dmp::obs {

namespace {

std::vector<std::string> header_for(const std::vector<std::string>& names) {
  std::vector<std::string> columns;
  columns.reserve(names.size() + 1);
  columns.push_back("time_s");
  columns.insert(columns.end(), names.begin(), names.end());
  return columns;
}

}  // namespace

ProbeWriter::ProbeWriter(MetricsRegistry& registry,
                         std::vector<std::string> gauge_names,
                         const std::string& csv_path)
    : csv_(csv_path, header_for(gauge_names)) {
  gauges_.reserve(gauge_names.size());
  for (const auto& name : gauge_names) gauges_.push_back(&registry.gauge(name));
}

void ProbeWriter::sample(double time_s) {
  std::vector<std::string> cells;
  cells.reserve(gauges_.size() + 1);
  cells.push_back(CsvWriter::num(time_s));
  for (const Gauge* g : gauges_) cells.push_back(CsvWriter::num(g->value()));
  csv_.row(cells);
  ++samples_;
}

Probe::Probe(Scheduler& sched, MetricsRegistry& registry,
             std::vector<std::string> gauge_names, const std::string& csv_path,
             SimTime interval)
    : sched_(sched),
      writer_(registry, std::move(gauge_names), csv_path),
      interval_(interval),
      timer_(sched.register_timer(&Probe::tick_port, this,
                                  EventCategory::kProbe)) {
  // A non-positive interval would re-tick at the same instant forever.
  if (interval_ <= SimTime::zero()) {
    throw std::invalid_argument{"probe interval must be positive"};
  }
}

void Probe::start(SimTime end) {
  end_ = end;
  tick();
}

void Probe::stop() { sched_.disarm(timer_); }

void Probe::tick() {
  writer_.sample(sched_.now().to_seconds());
  const SimTime next = sched_.now() + interval_;
  if (next <= end_) sched_.arm(timer_, next);
}

}  // namespace dmp::obs
