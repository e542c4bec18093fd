// Real-socket DMP streaming over loopback: framing, end-to-end delivery,
// and the dynamic split under an artificially slow path.
#include <gtest/gtest.h>

#include <future>
#include <memory>
#include <string>
#include <vector>

#include "inet/client.hpp"
#include "inet/framing.hpp"
#include "inet/server.hpp"
#include "obs/hub.hpp"

namespace dmp::inet {
namespace {

TEST(Framing, HeaderRoundTrips) {
  Frame in{0x0123456789ABCDEFull, 0xFEDCBA9876543210ull};
  unsigned char buffer[kFrameHeaderBytes] = {};
  encode_frame_header(in, buffer);
  FrameParser parser(kFrameHeaderBytes);
  std::vector<Frame> out;
  parser.feed(buffer, sizeof buffer,
              [&](const Frame& f) { out.push_back(f); });
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].packet_number, in.packet_number);
  EXPECT_EQ(out[0].generated_ns, in.generated_ns);
}

TEST(Framing, ReassemblesAcrossArbitraryReadBoundaries) {
  const std::size_t frame_bytes = 64;
  std::vector<unsigned char> wire;
  for (std::uint64_t n = 0; n < 20; ++n) {
    std::vector<unsigned char> frame(frame_bytes, 0);
    encode_frame_header(Frame{n, n * 1000}, frame.data());
    wire.insert(wire.end(), frame.begin(), frame.end());
  }

  FrameParser parser(frame_bytes);
  std::vector<std::uint64_t> numbers;
  // Feed in awkward chunk sizes (1, 3, 7, 13, ... bytes).
  std::size_t offset = 0;
  std::size_t chunk = 1;
  while (offset < wire.size()) {
    const std::size_t len = std::min(chunk, wire.size() - offset);
    parser.feed(wire.data() + offset, len,
                [&](const Frame& f) { numbers.push_back(f.packet_number); });
    offset += len;
    chunk = (chunk * 2 + 1) % 17 + 1;
  }
  ASSERT_EQ(numbers.size(), 20u);
  for (std::uint64_t n = 0; n < 20; ++n) EXPECT_EQ(numbers[n], n);
  EXPECT_EQ(parser.pending_bytes(), 0u);
}

TEST(Framing, RejectsTinyFrames) {
  EXPECT_THROW(FrameParser(8), std::invalid_argument);
}

TEST(Framing, PartialHeaderStaysPendingUntilCompleted) {
  Frame in{42, 1234567};
  unsigned char buffer[kFrameHeaderBytes] = {};
  encode_frame_header(in, buffer);

  FrameParser parser(kFrameHeaderBytes);
  int frames = 0;
  parser.feed(buffer, kFrameHeaderBytes - 1, [&](const Frame&) { ++frames; });
  EXPECT_EQ(frames, 0);
  EXPECT_EQ(parser.pending_bytes(), kFrameHeaderBytes - 1);

  // The final byte completes the frame with the header intact.
  parser.feed(buffer + kFrameHeaderBytes - 1, 1, [&](const Frame& f) {
    ++frames;
    EXPECT_EQ(f.packet_number, in.packet_number);
    EXPECT_EQ(f.generated_ns, in.generated_ns);
  });
  EXPECT_EQ(frames, 1);
  EXPECT_EQ(parser.pending_bytes(), 0u);
}

TEST(Framing, TruncatedFinalFrameNeverEmits) {
  // A connection that dies mid-frame must deliver every complete frame and
  // surface the truncated tail only as pending bytes.
  const std::size_t frame_bytes = 48;
  std::vector<unsigned char> wire(frame_bytes * 2, 0);
  encode_frame_header(Frame{7, 700}, wire.data());
  encode_frame_header(Frame{8, 800}, wire.data() + frame_bytes);
  const std::size_t cut = frame_bytes + frame_bytes / 2;

  FrameParser parser(frame_bytes);
  std::vector<Frame> out;
  parser.feed(wire.data(), cut, [&](const Frame& f) { out.push_back(f); });
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].packet_number, 7u);
  EXPECT_EQ(parser.pending_bytes(), cut - frame_bytes);

  // Zero-length reads (EOF polling) change nothing.
  parser.feed(wire.data(), 0, [&](const Frame&) { FAIL(); });
  EXPECT_EQ(parser.pending_bytes(), cut - frame_bytes);
}

// Runs a server and client concurrently over loopback.
std::pair<ServerStats, ClientReport> stream_loopback(ServerConfig server_cfg,
                                                     ClientConfig client_cfg) {
  DmpInetServer server(server_cfg);
  client_cfg.port = server.port();
  client_cfg.frame_bytes = server_cfg.frame_bytes;
  client_cfg.num_paths = server_cfg.num_paths;
  client_cfg.mu_pps = server_cfg.mu_pps;

  auto server_future =
      std::async(std::launch::async, [&server] { return server.run(); });
  DmpInetClient client(client_cfg);
  ClientReport report = client.run();
  ServerStats stats = server_future.get();
  return {std::move(stats), std::move(report)};
}

TEST(InetStreaming, DeliversEveryPacketExactlyOnce) {
  ServerConfig cfg;
  cfg.num_paths = 2;
  cfg.mu_pps = 500.0;
  cfg.duration_s = 2.0;
  auto [stats, report] = stream_loopback(cfg, ClientConfig{});

  EXPECT_EQ(stats.packets_generated, 1000);
  EXPECT_EQ(report.frames_received, 1000);
  std::vector<bool> seen(1000, false);
  for (const auto& e : report.trace.entries()) {
    ASSERT_GE(e.packet_number, 0);
    ASSERT_LT(e.packet_number, 1000);
    ASSERT_FALSE(seen[static_cast<std::size_t>(e.packet_number)]);
    seen[static_cast<std::size_t>(e.packet_number)] = true;
  }
}

TEST(InetStreaming, LoopbackIsPunctual) {
  ServerConfig cfg;
  cfg.num_paths = 2;
  cfg.mu_pps = 400.0;
  cfg.duration_s = 2.0;
  auto [stats, report] = stream_loopback(cfg, ClientConfig{});
  // With a 1-second startup delay nothing can be late on loopback.
  EXPECT_DOUBLE_EQ(
      report.trace.late_fraction_playback_order(1.0, stats.packets_generated),
      0.0);
}

TEST(InetStreaming, SinglePathWorks) {
  ServerConfig cfg;
  cfg.num_paths = 1;
  cfg.mu_pps = 300.0;
  cfg.duration_s = 1.0;
  auto [stats, report] = stream_loopback(cfg, ClientConfig{});
  EXPECT_EQ(report.frames_received, stats.packets_generated);
}

TEST(InetStreaming, ServerCountsMatchClientCounts) {
  ServerConfig cfg;
  cfg.num_paths = 2;
  cfg.mu_pps = 500.0;
  cfg.duration_s = 1.0;
  auto [stats, report] = stream_loopback(cfg, ClientConfig{});
  ASSERT_EQ(stats.sent_per_path.size(), 2u);
  ASSERT_EQ(report.received_per_path.size(), 2u);
  EXPECT_EQ(stats.sent_per_path[0], report.received_per_path[0]);
  EXPECT_EQ(stats.sent_per_path[1], report.received_per_path[1]);
  EXPECT_EQ(stats.sent_per_path[0] + stats.sent_per_path[1],
            static_cast<std::uint64_t>(stats.packets_generated));
}

// Socket runs bind the same obs::Hub the simulator does, one per thread.
// Checked by count identities only (no timing): every pull, generation and
// arrival the hubs saw matches the stream's own statistics exactly.
TEST(InetObs, HubCountsMatchStreamCounts) {
  const auto make_hub = [](const char* prefix) {
    obs::ObsConfig config;
    config.enabled = true;
    config.flight_recorder = true;
    config.output_dir = ::testing::TempDir();
    config.prefix = prefix;
    config.probe_interval_s = 0.1;
    obs::TelemetryConfig telemetry;
    telemetry.enabled = true;
    return std::make_unique<obs::Hub>(config, telemetry);
  };
  const auto server_hub = make_hub("inet_obs_server");
  const auto client_hub = make_hub("inet_obs_client");
  ServerConfig cfg;
  cfg.num_paths = 2;
  cfg.mu_pps = 400.0;
  cfg.duration_s = 0.5;
  cfg.obs = server_hub.get();
  ClientConfig client_cfg;
  client_cfg.obs = client_hub.get();
  auto [stats, report] = stream_loopback(cfg, client_cfg);
  ASSERT_GT(report.frames_received, 0);

  const auto count_kind = [](const obs::Hub& hub, obs::FlightEventKind kind) {
    std::uint64_t n = 0;
    for (const auto& e : hub.flight()->events()) n += e.kind == kind ? 1 : 0;
    return n;
  };
  const obs::MetricsRegistry& server_metrics = *server_hub->metrics();
  std::uint64_t sent = 0;
  for (std::size_t k = 0; k < cfg.num_paths; ++k) {
    const std::string path = "path" + std::to_string(k);
    const auto* pulls = server_metrics.find_counter("server.pulls." + path);
    ASSERT_NE(pulls, nullptr) << path;
    EXPECT_EQ(pulls->value(), stats.sent_per_path[k]) << path;
    sent += stats.sent_per_path[k];
    const auto* frames =
        client_hub->metrics()->find_counter("client." + path + ".frames");
    ASSERT_NE(frames, nullptr) << path;
    EXPECT_EQ(frames->value(), report.received_per_path[k]) << path;
  }
  EXPECT_EQ(count_kind(*server_hub, obs::FlightEventKind::kPull), sent);
  EXPECT_EQ(count_kind(*server_hub, obs::FlightEventKind::kGenerate),
            static_cast<std::uint64_t>(stats.packets_generated));
  EXPECT_EQ(server_metrics.find_counter("server.generated")->value(),
            static_cast<std::uint64_t>(stats.packets_generated));
  EXPECT_EQ(count_kind(*client_hub, obs::FlightEventKind::kArrive),
            static_cast<std::uint64_t>(report.frames_received));
  EXPECT_EQ(client_hub->sketches().at("client.delay_s").count(),
            static_cast<std::uint64_t>(report.frames_received));

  server_hub->write_artifacts();
  client_hub->write_artifacts();
  EXPECT_EQ(server_hub->artifact_write_failures(), 0);
  EXPECT_EQ(client_hub->artifact_write_failures(), 0);
}

TEST(InetStreaming, ThrottledPathReceivesSmallerShare) {
  // Path 1 is read-throttled to ~0.4 Mbps while the stream needs ~4.6 Mbps:
  // DMP must shift the load to path 0 with no explicit signalling.
  ServerConfig cfg;
  cfg.num_paths = 2;
  cfg.mu_pps = 400.0;
  cfg.duration_s = 3.0;
  cfg.send_buffer_bytes = 8 * 1024;
  ClientConfig client_cfg;
  client_cfg.read_rate_limit_bps = {0.0, 0.4e6};
  auto [stats, report] = stream_loopback(cfg, client_cfg);

  EXPECT_EQ(report.frames_received, stats.packets_generated);
  const auto split = report.trace.path_split(2);
  EXPECT_GT(split[0], 0.75) << "fast path should dominate";
  EXPECT_GT(split[1], 0.01) << "slow path must still contribute";
}

TEST(InetStreaming, ValidatesConfiguration) {
  ServerConfig cfg;
  cfg.num_paths = 0;
  EXPECT_THROW(DmpInetServer{cfg}, std::invalid_argument);
  cfg = ServerConfig{};
  cfg.mu_pps = 0.0;
  EXPECT_THROW(DmpInetServer{cfg}, std::invalid_argument);

  ClientConfig ccfg;
  ccfg.num_paths = 2;
  ccfg.read_rate_limit_bps = {1.0};  // wrong arity
  EXPECT_THROW(DmpInetClient{ccfg}, std::invalid_argument);
}

}  // namespace
}  // namespace dmp::inet
