#include "obs/telemetry/time_series.hpp"

#include <cstdio>
#include <stdexcept>
#include <utility>

#include "util/csv.hpp"
#include "util/json.hpp"

namespace dmp::obs {

TimeSeriesChannel::TimeSeriesChannel(std::string name, std::int64_t window_ns)
    : name_(std::move(name)), window_ns_(window_ns) {
  if (window_ns_ <= 0) {
    throw std::invalid_argument{"time-series window must be positive"};
  }
}

void TimeSeriesChannel::roll(std::int64_t next_index) {
  done_.push_back(Window{open_index_, open_count_, open_sum_, open_min_,
                         open_max_, open_last_});
  total_samples_ += open_count_;
  open_count_ = 0;
  open_sum_ = 0.0;
  open_index_ = next_index;
}

const std::vector<Window>& TimeSeriesChannel::finish() {
  if (open_count_ > 0) roll(open_index_ + 1);
  return done_;
}

TimeSeries::TimeSeries(double window_s)
    : window_ns_(SimTime::seconds(window_s).ns()) {
  if (window_ns_ <= 0) {
    throw std::invalid_argument{"time-series window must be positive"};
  }
}

TimeSeriesChannel* TimeSeries::channel(const std::string& name) {
  auto it = channels_.find(name);
  if (it == channels_.end()) {
    it = channels_.emplace(name, TimeSeriesChannel{name, window_ns_}).first;
  }
  return &it->second;
}

std::vector<const TimeSeriesChannel*> TimeSeries::channels() const {
  std::vector<const TimeSeriesChannel*> out;
  out.reserve(channels_.size());
  for (const auto& [name, ch] : channels_) out.push_back(&ch);
  return out;
}

void TimeSeries::finish_all() {
  for (auto& [name, ch] : channels_) ch.finish();
}

bool TimeSeries::write_csv(const std::string& path) {
  finish_all();
  CsvWriter csv{path, {"window_start_s", "channel", "count", "sum", "mean",
                       "min", "max", "last"}};
  const double width_s = window_s();
  for (auto& [name, ch] : channels_) {
    for (const Window& w : ch.finish()) {
      csv.row({CsvWriter::num(static_cast<double>(w.index) * width_s), name,
               CsvWriter::num(static_cast<std::int64_t>(w.count)),
               CsvWriter::num(w.sum), CsvWriter::num(w.mean()),
               CsvWriter::num(w.min), CsvWriter::num(w.max),
               CsvWriter::num(w.last)});
    }
  }
  return csv.ok();
}

bool TimeSeries::write_jsonl(const std::string& path) {
  finish_all();
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  bool ok = true;
  const double width_s = window_s();
  for (auto& [name, ch] : channels_) {
    for (const Window& w : ch.finish()) {
      std::string line = "{\"t\":";
      append_json_number(line, static_cast<double>(w.index) * width_s,
                         kJsonStreamDigits);
      line += ",\"channel\":";
      append_json_string(line, name);
      line += ",\"count\":" + std::to_string(w.count);
      const std::pair<const char*, double> fields[] = {
          {"sum", w.sum}, {"mean", w.mean()}, {"min", w.min},
          {"max", w.max}, {"last", w.last}};
      for (const auto& [key, value] : fields) {
        line += ",\"";
        line += key;
        line += "\":";
        append_json_number(line, value, kJsonStreamDigits);
      }
      line += "}\n";
      if (std::fwrite(line.data(), 1, line.size(), f) != line.size()) {
        ok = false;
        break;
      }
    }
    if (!ok) break;
  }
  if (std::fclose(f) != 0) ok = false;
  return ok;
}

}  // namespace dmp::obs
