#include "obs/telemetry/timeline.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "util/json.hpp"

namespace dmp::obs {

namespace {

// Track layout: pid 1 is the whole run; paths get low tids, link hops a
// disjoint high range so the two families never collide.
constexpr int kPid = 1;
constexpr int kPathTidBase = 1;
constexpr int kLinkTidBase = 100;

// Trace Event Format timestamps are microseconds; six fixed decimals keep
// nanosecond resolution.  The one number spelling outside util/json — no
// other artifact uses it.
std::string fixed6(double v) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.6f", v);
  return buffer;
}

class EventList {
 public:
  explicit EventList(std::int64_t epoch_ns) : epoch_ns_(epoch_ns) {}

  double us(std::int64_t t_ns) const {
    return static_cast<double>(t_ns - epoch_ns_) * 1e-3;
  }

  void thread_name(int tid, const std::string& name) {
    std::string event = "{\"ph\":\"M\",\"pid\":" + std::to_string(kPid) +
                        ",\"tid\":" + std::to_string(tid) +
                        ",\"name\":\"thread_name\",\"args\":{\"name\":";
    append_json_string(event, name);
    events_.push_back(event + "}}");
  }

  void async_begin(int tid, const std::string& name, std::int64_t id,
                   std::int64_t t_ns) {
    named("{\"ph\":\"b\",\"cat\":\"packet\",\"id\":" + std::to_string(id) +
              ",\"pid\":" + std::to_string(kPid) +
              ",\"tid\":" + std::to_string(tid) + ",\"ts\":" + fixed6(us(t_ns)),
          name);
  }

  void async_end(int tid, const std::string& name, std::int64_t id,
                 std::int64_t t_ns) {
    named("{\"ph\":\"e\",\"cat\":\"packet\",\"id\":" + std::to_string(id) +
              ",\"pid\":" + std::to_string(kPid) +
              ",\"tid\":" + std::to_string(tid) + ",\"ts\":" + fixed6(us(t_ns)),
          name);
  }

  void complete(int tid, const std::string& name, std::int64_t t0_ns,
                std::int64_t t1_ns) {
    named("{\"ph\":\"X\",\"pid\":" + std::to_string(kPid) +
              ",\"tid\":" + std::to_string(tid) + ",\"ts\":" +
              fixed6(us(t0_ns)) + ",\"dur\":" +
              fixed6(static_cast<double>(t1_ns - t0_ns) * 1e-3),
          name);
  }

  void instant(int tid, const std::string& name, std::int64_t t_ns) {
    named("{\"ph\":\"i\",\"s\":\"t\",\"pid\":" + std::to_string(kPid) +
              ",\"tid\":" + std::to_string(tid) + ",\"ts\":" + fixed6(us(t_ns)),
          name);
  }

  void counter(const std::string& name, double t_s, double value) {
    std::string event = "{\"ph\":\"C\",\"pid\":" + std::to_string(kPid) +
                        ",\"ts\":" + fixed6(t_s * 1e6) + ",\"name\":";
    append_json_string(event, name);
    events_.push_back(event + ",\"args\":{\"value\":" + fixed6(value) + "}}");
  }

  std::string finish() const {
    std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    for (std::size_t i = 0; i < events_.size(); ++i) {
      if (i != 0) out += ',';
      out += events_[i];
    }
    out += "]}";
    return out;
  }

 private:
  // Closes `event` with its trailing "name" member.
  void named(std::string event, const std::string& name) {
    event += ",\"name\":";
    append_json_string(event, name);
    events_.push_back(event + "}");
  }

  std::int64_t epoch_ns_;
  std::vector<std::string> events_;
};

// Reader for the TimeSeries CSV (window_start_s,channel,count,sum,mean,
// min,max,last).  Returns channel -> [(t_s, mean)], channels sorted.  A
// row without 8 cells, or whose time or mean is not a number, throws
// std::runtime_error naming its 1-based line.
std::map<std::string, std::vector<std::pair<double, double>>> read_telemetry(
    const std::string& path) {
  std::map<std::string, std::vector<std::pair<double, double>>> out;
  std::ifstream in{path};
  if (!in) throw std::runtime_error{"cannot open telemetry csv: " + path};
  std::string line;
  std::getline(in, line);  // the header
  for (std::size_t line_no = 2; std::getline(in, line); ++line_no) {
    const auto fail = [&](const std::string& what) {
      throw std::runtime_error{"telemetry csv " + path + " line " +
                               std::to_string(line_no) + ": " + what};
    };
    std::vector<std::string> cells;
    std::stringstream ss{line};
    std::string cell;
    while (std::getline(ss, cell, ',')) cells.push_back(cell);
    if (cells.size() != 8) fail(std::to_string(cells.size()) + " cells, not 8");
    const auto number = [&](const std::string& text) {
      char* end = nullptr;
      const double v = std::strtod(text.c_str(), &end);
      if (text.empty() || *end != '\0' || !std::isfinite(v)) {
        fail("'" + text + "' is not a number");
      }
      return v;
    };
    out[cells[1]].emplace_back(number(cells[0]), number(cells[4]));
  }
  return out;
}

}  // namespace

std::string chrome_trace_json(const TraceAnalyzer& analyzer,
                              const TimelineOptions& options) {
  EventList ev{analyzer.epoch_ns()};

  // Discover the path and hop universe first so track names come before
  // their events (pure cosmetics, but keeps viewers tidy).
  std::set<int> paths;
  std::set<int> hops;
  for (const auto& [packet, tl] : analyzer.timelines()) {
    if (tl.path >= 0) paths.insert(tl.path);
    for (const auto& hop : tl.hops) {
      if (hop.hop >= 0) hops.insert(hop.hop);
    }
  }
  for (const auto& [path, times] : analyzer.rto_times()) paths.insert(path);
  for (const auto& [path, windows] : analyzer.fault_windows()) {
    paths.insert(path);
  }
  for (int p : paths) {
    ev.thread_name(kPathTidBase + p, "path " + std::to_string(p));
  }
  for (int h : hops) {
    ev.thread_name(kLinkTidBase + h, "link hop " + std::to_string(h));
  }

  // Per-packet spans on the delivering path's track, plus link-hop spans.
  std::int64_t spans = 0;
  for (const auto& [packet, tl] : analyzer.timelines()) {
    const bool span_ok =
        options.max_packets < 0 || spans < options.max_packets;
    const int path_tid = kPathTidBase + (tl.path >= 0 ? tl.path : 0);
    const std::string pname = "pkt " + std::to_string(packet);
    if (span_ok && tl.gen_ns >= 0) {
      const std::int64_t end_ns =
          tl.arrive_ns >= 0
              ? tl.arrive_ns
              : std::max({tl.gen_ns, tl.deliver_ns, tl.sink_rx_ns});
      ev.async_begin(path_tid, pname, packet, tl.gen_ns);
      ev.async_end(path_tid, pname, packet, end_ns);
      ++spans;
    }
    for (const auto& hop : tl.hops) {
      const int tid = kLinkTidBase + (hop.hop >= 0 ? hop.hop : 0);
      if (hop.dropped) {
        ev.instant(tid, "drop " + pname, hop.enqueue_ns);
      } else if (span_ok && hop.dequeue_ns >= 0) {
        ev.complete(tid, pname, hop.enqueue_ns, hop.dequeue_ns);
      }
    }
  }

  // RTO firings and injected-fault edges as path-track instants.
  for (const auto& [path, times] : analyzer.rto_times()) {
    for (std::int64_t t : times) {
      ev.instant(kPathTidBase + path, "RTO", t);
    }
  }
  for (const auto& [path, windows] : analyzer.fault_windows()) {
    for (const auto& [start, end] : windows) {
      ev.instant(kPathTidBase + path, "fault_start", start);
      if (end != std::numeric_limits<std::int64_t>::max() && end > start) {
        ev.instant(kPathTidBase + path, "fault_end", end);
      }
    }
  }

  // Telemetry channels as counter tracks (windowed means, stream time).
  if (!options.telemetry_csv.empty()) {
    for (const auto& [channel, rows] : read_telemetry(options.telemetry_csv)) {
      for (const auto& [t_s, mean] : rows) ev.counter(channel, t_s, mean);
    }
  }

  return ev.finish();
}

bool write_chrome_trace(const TraceAnalyzer& analyzer, const std::string& path,
                        const TimelineOptions& options) {
  const std::string json = chrome_trace_json(analyzer, options);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  return !(std::fclose(f) != 0 || !ok);
}

}  // namespace dmp::obs
