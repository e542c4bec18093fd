// Socket-layer fault injection: scheduled conn_reset events RST a path's
// TCP connection mid-stream; a client with a reconnect budget resumes it
// with a hello naming the last frame received, the server replays what may
// have died in the broken connection's kernel buffers, and client-side
// dedup keeps delivery exactly-once.
#include <gtest/gtest.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <functional>
#include <future>
#include <memory>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "inet/client.hpp"
#include "inet/framing.hpp"
#include "inet/server.hpp"
#include "inet/socket.hpp"
#include "joint_trace.hpp"
#include "obs/hub.hpp"

namespace dmp::inet {
namespace {

TEST(InetFault, ServerRejectsNonConnResetFaults) {
  ServerConfig cfg;
  cfg.faults = "1 link_down path0";
  EXPECT_THROW(DmpInetServer{cfg}, std::invalid_argument);
  cfg.faults = "1 conn_reset path9";  // beyond num_paths
  EXPECT_THROW(DmpInetServer{cfg}, std::invalid_argument);
  cfg.faults = "1 conn_reset path1";
  EXPECT_NO_THROW(DmpInetServer{cfg});
}

TEST(InetFault, ClientRejectsBadReconnectKnobs) {
  ClientConfig cfg;
  cfg.reconnect_max_retries = -1;
  EXPECT_THROW(DmpInetClient{cfg}, std::invalid_argument);
  cfg.reconnect_max_retries = 1;
  cfg.reconnect_backoff_ms = 0;
  EXPECT_THROW(DmpInetClient{cfg}, std::invalid_argument);
  cfg.reconnect_backoff_ms = 100;
  cfg.reconnect_backoff_cap_ms = 50;  // cap below the first delay
  EXPECT_THROW(DmpInetClient{cfg}, std::invalid_argument);
}

// Also binds a hub on each side: replayed frames the client drops as
// duplicates leave no trace, so the joint timeline still reconciles.
TEST(InetFault, ResetPathReconnectsAndDeliveryStaysExactlyOnce) {
  const auto make_hub = [](const char* prefix) {
    obs::ObsConfig config;
    config.enabled = true;
    config.flight_recorder = true;
    config.output_dir = ::testing::TempDir();
    config.prefix = prefix;
    return std::make_unique<obs::Hub>(config, obs::TelemetryConfig{});
  };
  const auto server_hub = make_hub("inet_reset_server");
  const auto client_hub = make_hub("inet_reset_client");
  ServerConfig cfg;
  cfg.num_paths = 2;
  cfg.mu_pps = 400.0;
  cfg.duration_s = 3.0;
  // Reset path0 twice mid-stream.
  cfg.faults = "0.8 conn_reset path0; 1.8 conn_reset path0";
  cfg.obs = server_hub.get();
  DmpInetServer server(cfg);

  ClientConfig ccfg;
  ccfg.port = server.port();
  ccfg.num_paths = cfg.num_paths;
  ccfg.mu_pps = cfg.mu_pps;
  ccfg.reconnect_max_retries = 5;
  ccfg.reconnect_backoff_ms = 20;
  ccfg.reconnect_backoff_cap_ms = 200;
  ccfg.obs = client_hub.get();

  auto server_future =
      std::async(std::launch::async, [&server] { return server.run(); });
  DmpInetClient client(ccfg);
  const auto report = client.run();
  const auto stats = server_future.get();

  EXPECT_EQ(stats.conn_resets, 2u);
  EXPECT_EQ(stats.reaccepts, report.reconnects);
  EXPECT_GE(report.reconnects, 1u);
  // Replay + dedup: every generated packet arrives exactly once.
  ASSERT_EQ(report.frames_received, stats.packets_generated);
  std::vector<bool> seen(static_cast<std::size_t>(stats.packets_generated),
                         false);
  for (const auto& e : report.trace.entries()) {
    ASSERT_GE(e.packet_number, 0);
    ASSERT_LT(e.packet_number, stats.packets_generated);
    ASSERT_FALSE(seen[static_cast<std::size_t>(e.packet_number)]);
    seen[static_cast<std::size_t>(e.packet_number)] = true;
  }

  // The per-path counters see first sights only; raw frames include the
  // replays the filter suppressed.
  std::uint64_t packets = 0;
  std::uint64_t raw = 0;
  for (std::size_t k = 0; k < cfg.num_paths; ++k) {
    const auto* counter = client_hub->metrics()->find_counter(
        "client.path" + std::to_string(k) + ".packets");
    ASSERT_NE(counter, nullptr) << k;
    packets += counter->value();
    raw += report.received_per_path[k];
  }
  EXPECT_EQ(packets, static_cast<std::uint64_t>(report.frames_received));
  EXPECT_EQ(raw, packets + report.duplicate_frames);
  expect_joint_trace_matches(*server_hub->flight(), *client_hub->flight(),
                             report.trace, stats.packets_generated);
}

TEST(InetFault, NoRetryBudgetMeansAResetClosesThePathForGood) {
  ServerConfig cfg;
  cfg.num_paths = 2;
  cfg.mu_pps = 400.0;
  cfg.duration_s = 1.5;
  cfg.faults = "0.5 conn_reset path1";
  DmpInetServer server(cfg);

  ClientConfig ccfg;
  ccfg.port = server.port();
  ccfg.num_paths = cfg.num_paths;
  ccfg.mu_pps = cfg.mu_pps;  // legacy default: reconnect_max_retries = 0

  auto server_future =
      std::async(std::launch::async, [&server] { return server.run(); });
  DmpInetClient client(ccfg);
  const auto report = client.run();
  const auto stats = server_future.get();

  EXPECT_EQ(stats.conn_resets, 1u);
  EXPECT_EQ(stats.reaccepts, 0u);
  EXPECT_EQ(report.reconnects, 0u);
  // The surviving path carries the rest of the stream; only frames caught
  // in the RST connection's buffers (bounded by the socket buffers) are
  // lost, since nobody sends a resume hello to trigger replay.
  EXPECT_LE(report.frames_received, stats.packets_generated);
  EXPECT_GT(report.frames_received, stats.packets_generated / 2);
  EXPECT_EQ(report.duplicate_frames, 0u);
}

// A raw path client: connects and sends a fresh hello for `path`.
Fd open_raw_path(std::uint16_t port, std::uint64_t path) {
  Fd fd = connect_to_loopback(port);
  unsigned char hello[kHelloBytes];
  encode_hello(Hello{path, kFreshHello}, hello);
  EXPECT_EQ(::write(fd.get(), hello, kHelloBytes),
            static_cast<ssize_t>(kHelloBytes));
  return fd;
}

// Reads frames from `fd` until EOF or `limit` frames; returns how many
// arrived, and whether the end-of-stream sentinel was among them.
std::pair<std::uint64_t, bool> read_raw_frames(const Fd& fd,
                                               std::uint64_t limit) {
  FrameParser parser;
  std::uint64_t frames = 0;
  bool sentinel = false;
  unsigned char buffer[4096];
  while (frames < limit) {
    const ssize_t n = ::read(fd.get(), buffer, sizeof buffer);
    if (n <= 0) break;
    parser.feed(buffer, static_cast<std::size_t>(n), [&](const Frame& f) {
      if (f.packet_number == kEndOfStream) {
        sentinel = true;
      } else {
        ++frames;
      }
    });
  }
  return {frames, sentinel};
}

// Path 0's client reads 50 frames and closes its socket mid-stream while
// path 1's client reads to the end.  The server's next write on path 0
// fails; it must surface as an error, never as a process-killing SIGPIPE.
struct PeerCloseRun {
  ServerStats stats;
  std::string error;  // what run() threw, if anything
  std::uint64_t path1_frames = 0;
  bool path1_sentinel = false;
};

PeerCloseRun run_with_peer_close(const std::string& faults) {
  ServerConfig cfg;
  cfg.num_paths = 2;
  cfg.mu_pps = 400.0;
  cfg.duration_s = 1.5;
  cfg.faults = faults;
  DmpInetServer server(cfg);
  auto server_future =
      std::async(std::launch::async, [&server] { return server.run(); });
  Fd path0 = open_raw_path(server.port(), 0);
  Fd path1 = open_raw_path(server.port(), 1);
  auto path1_future = std::async(std::launch::async, [&path1] {
    return read_raw_frames(path1, ~std::uint64_t{0});
  });
  EXPECT_EQ(read_raw_frames(path0, 50).first, 50u);
  path0.reset();

  PeerCloseRun out;
  try {
    out.stats = server_future.get();
  } catch (const std::runtime_error& e) {
    out.error = e.what();
  }
  std::tie(out.path1_frames, out.path1_sentinel) = path1_future.get();
  return out;
}

TEST(InetFault, PeerCloseUnderFaultsTakesThePathDown) {
  // The scheduled reset lies past the stream; it only selects the faulted
  // mode, where a dead connection takes its path down.
  const PeerCloseRun run = run_with_peer_close("100 conn_reset path0");
  EXPECT_EQ(run.error, "");
  EXPECT_EQ(run.stats.conn_resets, 0u);
  ASSERT_EQ(run.stats.sent_per_path.size(), 2u);
  // Path 1 finishes the stream: it carries everything path 0 did not.
  EXPECT_GE(run.stats.sent_per_path[0], 50u);
  EXPECT_EQ(run.stats.sent_per_path[0] + run.stats.sent_per_path[1],
            static_cast<std::uint64_t>(run.stats.packets_generated));
  EXPECT_EQ(run.path1_frames, run.stats.sent_per_path[1]);
  EXPECT_TRUE(run.path1_sentinel);
}

// The stream clock stepped by hand: each wait moves it on by the loop's
// timeout, lets the peers read, then polls without blocking.
struct SteppedClock final : StreamClock {
  std::uint64_t now = 1'000'000'000;
  std::function<void()> peers;
  std::uint64_t now_ns() override { return now; }
  int wait(pollfd* fds, std::size_t count, int timeout_ms) override {
    now += static_cast<std::uint64_t>(timeout_ms) * 1'000'000;
    peers();
    return ::poll(fds, count, 0);
  }
};

// The same peer close over socketpairs on a stepped clock: no threads, no
// timing.  Path 0's peer reads 50 frames, one at a time, and closes; path
// 1's reads everything, every step.
TEST(InetFault, PeerCloseWithoutFaultsFailsTheStream) {
  obs::ObsConfig config;
  config.enabled = true;
  config.output_dir = ::testing::TempDir();
  config.prefix = "inet_peer_close";
  obs::Hub hub(config, obs::TelemetryConfig{});
  ServerConfig cfg;
  cfg.num_paths = 2;
  cfg.mu_pps = 400.0;
  cfg.duration_s = 1.5;
  cfg.obs = &hub;
  DmpInetServer server(cfg);

  std::vector<Fd> ends;
  std::vector<Fd> peers;
  for (int k = 0; k < 2; ++k) {
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    ends.emplace_back(fds[0]);
    peers.emplace_back(fds[1]);
    set_nonblocking(peers.back());
  }
  std::uint64_t path0_frames = 0;
  std::uint64_t path1_frames = 0;
  bool path1_sentinel = false;
  FrameParser parser0;
  FrameParser parser1;
  std::vector<unsigned char> buffer(kDefaultFrameBytes * 8);
  const auto read_path1 = [&] {
    while (true) {
      const ssize_t n = ::read(peers[1].get(), buffer.data(), buffer.size());
      if (n <= 0) return;
      parser1.feed(buffer.data(), static_cast<std::size_t>(n),
                   [&](const Frame& f) {
                     if (f.packet_number == kEndOfStream) {
                       path1_sentinel = true;
                     } else {
                       ++path1_frames;
                     }
                   });
    }
  };
  SteppedClock clock;
  clock.peers = [&] {
    while (peers[0].valid()) {
      const ssize_t n =
          ::read(peers[0].get(), buffer.data(), kDefaultFrameBytes);
      if (n <= 0) break;
      parser0.feed(buffer.data(), static_cast<std::size_t>(n),
                   [&](const Frame&) { ++path0_frames; });
      if (path0_frames == 50) peers[0].reset();
    }
    read_path1();
  };
  std::string error;
  try {
    server.stream(std::move(ends), clock);
  } catch (const std::runtime_error& e) {
    error = e.what();
  }
  read_path1();
  EXPECT_EQ(path0_frames, 50u);
  EXPECT_GT(path1_frames, 0u);
  EXPECT_EQ(error, "stream connection failed");
  EXPECT_FALSE(path1_sentinel);
  // The failed run left its gauges frozen: writing the hub reads no
  // destroyed server state.
  hub.write_artifacts();
  const auto* depth = hub.metrics()->find_gauge("server.queue_depth");
  ASSERT_NE(depth, nullptr);
  EXPECT_GE(depth->value(), 0.0);
}

}  // namespace
}  // namespace dmp::inet
