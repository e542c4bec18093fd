// Real-socket DMP-streaming server (the paper's Section-6 implementation).
//
// One thread, one poll() loop — which *is* the paper's server-queue lock:
// packet fetches by the per-path TCP senders are serialized by construction.
// A CBR generator appends packets to the shared queue; whenever a
// connection's kernel send buffer has room (POLLOUT), that connection
// fetches from the head of the queue until write() would block.  Small
// SO_SNDBUF values make blocking — and therefore the implicit bandwidth
// inference — responsive.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <deque>
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

  // Optional wall-clock fault schedule (src/fault/ spec grammar).  Only
  // `conn_reset` events are valid at this layer — the constructor rejects
  // any other kind — and times are seconds after the stream starts.  Each
  // event force-closes the named path's connection with a TCP RST
  // (SO_LINGER 0); the partially-written frame is re-queued so another path
  // carries it, and a client configured to reconnect resumes the path with
  // a hello naming the last frame it received.  While any path is down the
  // listener stays in the poll set, so mid-run re-accepts replace the dead
  // connection without disturbing the healthy ones.
  std::string faults{};
  // Frames retained per path for resume-after-reconnect replay: on a resume
  // hello, retained frames newer than the client's last_seq are re-queued
  // (they may have died in the broken connection's kernel buffers).
  std::size_t replay_frames = 4096;

  // Optional wall-clock observability hub (not owned; may be null), bound
  // under "server": `.generated` / `.pulls.path<k>` counters, a
  // `.queue_depth` gauge probed every probe_interval_s of wall time,
  // "accept" / "conn_reset" / "re_accept" / "stream_end" events (seconds
  // since run() started), kGenerate / kPull flight spans (CLOCK_MONOTONIC
  // t_ns, meta = the generation epoch), and `.generated` / `.backlog`
  // channels timed from that epoch like the simulator's.  Hubs are not
  // thread-safe: the server and the client each need their own.
  obs::Hub* obs = nullptr;
};

struct ServerStats {
  std::int64_t packets_generated = 0;
  std::vector<std::uint64_t> sent_per_path;
  std::size_t max_queue_packets = 0;
  std::uint64_t stream_start_ns = 0;  // monotonic clock at generation start
  std::uint64_t conn_resets = 0;      // fault events fired
  std::uint64_t reaccepts = 0;        // mid-run reconnections served
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

  // Asks a concurrently running run() to wind down early.
  void request_stop() { stop_.store(true, std::memory_order_relaxed); }

 private:
  struct Connection {
    Fd fd;
    bool open = false;
    std::vector<unsigned char> partial;  // unwritten tail of a fetched frame
    std::size_t partial_offset = 0;
    Frame partial_frame{};  // the frame `partial` encodes (for re-queue)
    std::uint64_t sent_frames = 0;
    std::deque<Frame> replay;       // recently sent, for resume replay
    obs::Counter* pulls = nullptr;  // set when the hub keeps metrics
    std::int32_t path = -1;         // hello-declared path index
  };

  // Writes queued data into `conn` until EAGAIN or nothing left; returns
  // false if the connection failed.
  bool pump_connection(Connection& conn);

  // Accepts one connection and reads its hello.  Returns the hello-declared
  // path index, or num_paths if the hello is invalid (socket dropped).
  std::size_t accept_path(int timeout_ms, Hello* hello, Fd* fd);

  ServerConfig config_;
  Fd listener_;
  std::uint16_t port_ = 0;
  std::deque<Frame> queue_;
  // Parsed conn_reset schedule: (seconds after stream start, path index).
  std::vector<std::pair<double, std::size_t>> resets_;
  std::atomic<bool> stop_{false};
  obs::FlightRecorder* flight_ = nullptr;  // config_.obs's recorder, if any
};

}  // namespace dmp::inet
