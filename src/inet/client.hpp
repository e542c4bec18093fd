// Real-socket DMP-streaming client: opens K TCP connections to the server,
// reassembles the frames from all paths, and evaluates playback timeliness
// exactly like the simulator's trace analysis (one machine, one monotonic
// clock, so generation timestamps and arrival times are directly
// comparable).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "inet/framing.hpp"
#include "inet/socket.hpp"
#include "obs/hub.hpp"
#include "stream/trace.hpp"

namespace dmp::inet {

struct ClientConfig {
  std::string server_ip = "127.0.0.1";
  std::uint16_t port = 0;
  std::size_t num_paths = 2;
  double mu_pps = 100.0;
  std::size_t frame_bytes = kDefaultFrameBytes;
  // Optional per-path read throttle in bytes/second (0 = unthrottled);
  // lets tests and demos emulate a slow path over loopback.
  std::vector<double> read_rate_limit_bps{};
  // Reconnect policy.  A path is dead when its connection delivers EOF or a
  // reset before the end-of-stream sentinel, or (with idle_timeout_ms > 0)
  // when it stays silent that long.  Each outage grants
  // `reconnect_max_retries` connection attempts with exponential backoff;
  // a successful reconnect sends a resume hello naming the last frame
  // received on the path, and resets the budget.  The default of 0 retries
  // keeps the legacy behaviour: EOF permanently closes the path.
  int reconnect_max_retries = 0;
  int reconnect_backoff_ms = 50;        // first retry delay; doubles per try
  int reconnect_backoff_cap_ms = 2000;  // backoff ceiling
  int idle_timeout_ms = 0;              // 0 = no idle-death detection
  // Optional wall-clock observability hub (not owned; may be null), bound
  // under "client": per-path `.path<k>.frames` counters, the
  // generation-to-arrival `.delay_s` histogram and sketch, a `.frames`
  // channel (timed from run start), and one kArrive flight span per
  // reassembled frame (CLOCK_MONOTONIC t_ns; meta is set at the end of
  // run() to the epoch recovered from the frame headers, matching the
  // server's recorder).  Not thread-safe: one hub per thread.
  obs::Hub* obs = nullptr;
};

struct ClientReport {
  // Arrival trace relative to the server's generation epoch; all of
  // StreamTrace's late-fraction/ordering analyses apply.
  StreamTrace trace;
  std::int64_t frames_received = 0;
  std::vector<std::uint64_t> received_per_path;
  std::uint64_t reconnects = 0;        // successful resume handshakes
  std::uint64_t duplicate_frames = 0;  // replayed frames already received

  ClientReport() : trace(1.0) {}
};

class DmpInetClient {
 public:
  explicit DmpInetClient(ClientConfig config);

  // Connects, reads until the server closes every path, and returns the
  // assembled report.
  ClientReport run();

 private:
  ClientConfig config_;
};

}  // namespace dmp::inet
