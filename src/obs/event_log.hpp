// Structured event log for discrete observations: a packet drop at a link,
// an RTO firing on a connection, a server-queue pull, a cwnd phase change.
//
// Events carry a timestamp (seconds — simulated or wall-clock, the caller
// decides), a severity, a type tag, and a small set of key/value fields.
// Serialization is JSON Lines, one event per line, so long runs stream to
// disk and standard tooling (jq, pandas) consumes them directly.  A ring-
// buffer mode bounds memory for long runs: when capacity is reached the
// oldest events are overwritten and counted, never silently lost.
#pragma once

#include <cstdint>
#include <deque>
#include <initializer_list>
#include <iosfwd>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace dmp::obs {

enum class Severity { kDebug = 0, kInfo = 1, kWarn = 2 };

std::string_view severity_name(Severity s);

// One key/value field; numbers are emitted unquoted, text is JSON-escaped.
struct EventField {
  std::string key;
  std::string value;
  bool is_number = false;

  static EventField num(std::string key, double v);
  static EventField num(std::string key, std::int64_t v);
  static EventField num(std::string key, std::uint64_t v);
  // Unambiguous entry point for smaller integer types (FlowId, path
  // indices): call sites pass them through this widening overload.
  template <typename T>
    requires(std::is_integral_v<T> && !std::is_same_v<T, std::int64_t> &&
             !std::is_same_v<T, std::uint64_t>)
  static EventField num(std::string key, T v) {
    if constexpr (std::is_signed_v<T>) {
      return num(std::move(key), static_cast<std::int64_t>(v));
    } else {
      return num(std::move(key), static_cast<std::uint64_t>(v));
    }
  }
  static EventField text(std::string key, std::string v);
};

struct Event {
  double time_s = 0.0;
  Severity severity = Severity::kInfo;
  std::string type;
  std::vector<EventField> fields;
};

class EventLog {
 public:
  // `ring_capacity` bounds retained events (0 = unbounded).
  explicit EventLog(std::size_t ring_capacity = 0,
                    Severity min_severity = Severity::kDebug);

  Severity min_severity() const { return min_severity_; }

  // Cheap pre-check so callers can skip field formatting entirely.
  bool enabled(Severity s) const { return s >= min_severity_; }

  void record(double time_s, Severity severity, std::string_view type,
              std::initializer_list<EventField> fields);

  std::size_t size() const { return events_.size(); }
  // Events accepted past the severity filter (including overwritten ones).
  std::uint64_t total_recorded() const { return total_recorded_; }
  // Events evicted by the ring buffer.
  std::uint64_t overwritten() const { return overwritten_; }
  std::size_t ring_capacity() const { return ring_capacity_; }
  const std::deque<Event>& events() const { return events_; }

  void to_jsonl(std::ostream& out) const;
  // Writes all retained events as JSON Lines.  I/O failure is reported on
  // stderr and returns false (never throws) — losing a log artifact must
  // not abort the run that produced it.
  bool write_jsonl(const std::string& path) const;

 private:
  std::size_t ring_capacity_;
  Severity min_severity_;
  std::deque<Event> events_;
  std::uint64_t total_recorded_ = 0;
  std::uint64_t overwritten_ = 0;
};

}  // namespace dmp::obs
