#include "obs/event_log.hpp"

#include <cstdio>
#include <fstream>
#include <ostream>

#include "util/json.hpp"

namespace dmp::obs {

std::string_view severity_name(Severity s) {
  switch (s) {
    case Severity::kDebug: return "debug";
    case Severity::kInfo: return "info";
    case Severity::kWarn: return "warn";
  }
  return "?";
}

EventField EventField::num(std::string key, double v) {
  std::string value;
  append_json_number(value, v, kJsonStreamDigits);
  return EventField{std::move(key), std::move(value), true};
}

EventField EventField::num(std::string key, std::int64_t v) {
  return EventField{std::move(key), std::to_string(v), true};
}

EventField EventField::num(std::string key, std::uint64_t v) {
  return EventField{std::move(key), std::to_string(v), true};
}

EventField EventField::text(std::string key, std::string v) {
  return EventField{std::move(key), std::move(v), false};
}

EventLog::EventLog(std::size_t ring_capacity, Severity min_severity)
    : ring_capacity_(ring_capacity), min_severity_(min_severity) {}

void EventLog::record(double time_s, Severity severity, std::string_view type,
                      std::initializer_list<EventField> fields) {
  if (!enabled(severity)) return;
  ++total_recorded_;
  if (ring_capacity_ != 0 && events_.size() >= ring_capacity_) {
    events_.pop_front();
    ++overwritten_;
  }
  Event e;
  e.time_s = time_s;
  e.severity = severity;
  e.type = std::string(type);
  e.fields.assign(fields.begin(), fields.end());
  events_.push_back(std::move(e));
}

void EventLog::to_jsonl(std::ostream& out) const {
  std::string line;
  for (const Event& e : events_) {
    line.clear();
    line += "{\"t\":";
    append_json_number(line, e.time_s, kJsonStreamDigits);
    line += ",\"sev\":\"";
    line += severity_name(e.severity);
    line += "\",\"type\":";
    append_json_string(line, e.type);
    for (const EventField& f : e.fields) {
      line += ',';
      append_json_string(line, f.key);
      line += ':';
      if (f.is_number) {
        line += f.value;
      } else {
        append_json_string(line, f.value);
      }
    }
    line += "}\n";
    out << line;
  }
}

bool EventLog::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "warning: cannot open event log output: %s\n",
                 path.c_str());
    return false;
  }
  to_jsonl(out);
  if (!out.flush()) {
    std::fprintf(stderr, "warning: failed writing event log: %s\n",
                 path.c_str());
    return false;
  }
  return true;
}

}  // namespace dmp::obs
