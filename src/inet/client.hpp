// Real-socket DMP-streaming client: opens K TCP connections to the server,
// reassembles the frames from all paths, and records each through the
// simulator's StreamClient on the stream clock (ns since the generation
// epoch the frame headers carry; one machine, one monotonic clock), so
// playback timeliness is evaluated exactly like a simulated run's.
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
  // Optional per-path read throttle in bits/second (0 = unthrottled);
  // lets tests and demos emulate a slow path over loopback.
  std::vector<double> read_rate_limit_bps{};
  // Reconnect policy.  A path is dead when its connection delivers EOF or a
  // reset before the end-of-stream sentinel.  Each outage grants
  // `reconnect_max_retries` connection attempts with exponential backoff;
  // a successful reconnect sends a resume hello naming the last frame
  // received on the path, and resets the budget.  The default of 0 retries
  // keeps the legacy behaviour: EOF permanently closes the path.
  int reconnect_max_retries = 0;
  int reconnect_backoff_ms = 50;        // first retry delay; doubles per try
  int reconnect_backoff_cap_ms = 2000;  // backoff ceiling
  // Optional hub (not owned; may be null), bound by the StreamClient core
  // under "client" as in the simulator (`.path<k>.packets`, `.delay_s`,
  // kArrive spans, ...).  On the stream clock (trace meta `epoch_ns` 0),
  // like the server's: the two traces form one timeline.  Not
  // thread-safe: one hub per thread.
  obs::Hub* obs = nullptr;
};

struct ClientReport {
  // Fresh arrivals on the stream clock; all of StreamTrace's
  // late-fraction/ordering analyses apply.
  StreamTrace trace;
  std::int64_t frames_received = 0;  // fresh frames (trace entries)
  std::vector<std::uint64_t> received_per_path;  // raw frames, replays too
  std::uint64_t reconnects = 0;        // successful resume handshakes
  std::uint64_t duplicate_frames = 0;  // replayed frames already received

  ClientReport() : trace(1.0) {}
};

// A frame numbered more than this beyond the newest frame received so far
// (on any path) is corrupt: run() throws rather than grow its dedup table.
inline constexpr std::uint64_t kMaxFrameLead = std::uint64_t{1} << 20;

class DmpInetClient {
 public:
  explicit DmpInetClient(ClientConfig config);

  // Connects, reads until the server closes every path, and returns the
  // assembled report.  Throws on a frame number past kMaxFrameLead.
  ClientReport run();

 private:
  ClientConfig config_;
};

}  // namespace dmp::inet
