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
  if ((max_rows_ != 0 && samples_ >= max_rows_) ||
      (max_bytes_ != 0 && bytes_written_ >= max_bytes_)) {
    ++dropped_rows_;
    return;
  }
  std::vector<std::string> cells;
  cells.reserve(gauges_.size() + 1);
  cells.push_back(CsvWriter::num(time_s));
  for (const Gauge* g : gauges_) cells.push_back(CsvWriter::num(g->value()));
  csv_.row(cells);
  // Cell bytes plus a separator/newline per cell approximates the row's
  // on-disk size closely enough to enforce a cap.
  for (const auto& cell : cells) bytes_written_ += cell.size() + 1;
  ++samples_;
}

Probe::Probe(Scheduler& sched, MetricsRegistry& registry,
             std::vector<std::string> gauge_names, const std::string& csv_path,
             SimTime interval)
    : sched_(sched),
      writer_(registry, std::move(gauge_names), csv_path),
      interval_(interval) {
  // A non-positive interval would re-tick at the same instant forever.
  if (interval_ <= SimTime::zero()) {
    throw std::invalid_argument{"probe interval must be positive"};
  }
}

void Probe::start(SimTime end) {
  end_ = end;
  tick();
}

void Probe::stop() { timer_.cancel(); }

void Probe::tick() {
  writer_.sample(sched_.now().to_seconds());
  const SimTime next = sched_.now() + interval_;
  if (next <= end_) {
    timer_ = sched_.schedule_at(next, [this] { tick(); },
                                EventCategory::kProbe);
  }
}

}  // namespace dmp::obs
