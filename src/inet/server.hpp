// Real-socket DMP-streaming server (the paper's Section-6 implementation).
//
// A poll adapter over the simulator's streaming core: DmpStreamingServer
// runs over one inet::SocketPath per path, on a private Scheduler whose
// clock counts ns since the stream started.  One thread, one poll() loop —
// the paper's server-queue lock.  Each turn advances the scheduler to the
// monotonic clock, lets writable sockets flush and fire their space
// callbacks, and sleeps until the scheduler's next event.  What stays here
// is socket work: accepts and hellos, resume replay, the end-of-stream
// sentinel and the socket events in the event log.
#pragma once

#include <poll.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "inet/framing.hpp"
#include "inet/socket.hpp"
#include "obs/hub.hpp"

namespace dmp::inet {

struct ServerConfig {
  std::string bind_ip = "127.0.0.1";  // "0.0.0.0" serves remote clients
  std::uint16_t port = 0;  // 0 = pick an ephemeral port
  std::size_t num_paths = 2;
  double mu_pps = 100.0;
  double duration_s = 10.0;
  std::size_t frame_bytes = kDefaultFrameBytes;
  int send_buffer_bytes = 16 * 1024;
  int accept_timeout_ms = 10000;

  // Optional fault schedule (src/fault/ spec grammar): `conn_reset` events
  // only, at seconds after the stream starts.  Each is a scheduler event
  // that closes the path's connection with a TCP RST and takes the path
  // down in the core, which re-queues its half-written frame.  A client
  // that reconnects resumes with a hello naming its last frame; the frames
  // sent after it re-enter the queue head.  While a path is down the
  // listener stays in the poll set for that re-accept.
  std::string faults{};

  // Optional hub (not owned; may be null), bound by the core under
  // "server" as in the simulator; plus a `.queue_depth` probe and the
  // "accept" / "conn_reset" / "re_accept" / "stream_end" events.  All on
  // the stream clock.  Not thread-safe: the server and the client each
  // need their own.
  obs::Hub* obs = nullptr;
};

struct ServerStats {
  std::int64_t packets_generated = 0;
  std::vector<std::uint64_t> sent_per_path;
  std::size_t max_queue_packets = 0;
  std::uint64_t conn_resets = 0;      // fault events fired
  std::uint64_t reaccepts = 0;        // mid-run reconnections served
};

// The time and the wait the stream loop runs on: the monotonic clock and
// poll() in run(); a test may step both by hand.
class StreamClock {
 public:
  virtual std::uint64_t now_ns() = 0;
  // poll(2) over `fds`, waiting at most `timeout_ms`.
  virtual int wait(pollfd* fds, std::size_t count, int timeout_ms) = 0;

 protected:
  ~StreamClock() = default;
};

class DmpInetServer {
 public:
  explicit DmpInetServer(ServerConfig config);

  // Bound listening port (valid immediately after construction).
  std::uint16_t port() const { return port_; }

  // Accepts num_paths connections, streams for duration_s, flushes the
  // queue, closes the connections and returns the statistics.  Throws on
  // socket errors or accept timeout.
  ServerStats run();
  // What run() does after its accepts: streams over one connected socket
  // per path, in path order, on `clock`.
  ServerStats stream(std::vector<Fd> paths, StreamClock& clock);

  // Asks a concurrently running run() to wind down early.
  void request_stop() { stop_.store(true, std::memory_order_relaxed); }

 private:
  // Accepts one connection and reads its hello.  Returns the hello-declared
  // path index, or num_paths if the hello is invalid (socket dropped).
  std::size_t accept_path(int timeout_ms, Hello* hello, Fd* fd);

  ServerConfig config_;
  Fd listener_;
  std::uint16_t port_ = 0;
  // Parsed conn_reset schedule: (seconds after stream start, path index).
  std::vector<std::pair<double, std::size_t>> resets_;
  std::atomic<bool> stop_{false};
};

}  // namespace dmp::inet
