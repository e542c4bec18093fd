// The socket adapter under a hand-stepped clock: DmpStreamingServer drives
// two SocketPaths over socketpair(AF_UNIX) with small send buffers.  The
// test steps the Scheduler and drains the peers itself — no threads, no
// sleeps — so every blocking, flush and reclaim happens at a known point.
#include "inet/socket_path.hpp"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "obs/hub.hpp"
#include "sim/scheduler.hpp"
#include "stream/dmp_server.hpp"

namespace dmp::inet {
namespace {

constexpr std::size_t kFrameBytes = 256;

// One end for a SocketPath (small send buffer), one for the test's reader.
std::pair<Fd, Fd> socket_pair() {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    ADD_FAILURE() << "socketpair failed";
    return {};
  }
  Fd server(fds[0]);
  Fd peer(fds[1]);
  set_send_buffer(server, 4096);
  set_nonblocking(peer);
  return {std::move(server), std::move(peer)};
}

// Reads everything the peer has buffered; returns the frame numbers, in
// arrival order.
std::vector<std::int64_t> drain(const Fd& peer, FrameParser& parser) {
  std::vector<std::int64_t> numbers;
  unsigned char buffer[4096];
  while (true) {
    const ssize_t n = ::read(peer.get(), buffer, sizeof buffer);
    if (n <= 0) break;
    parser.feed(buffer, static_cast<std::size_t>(n), [&](const Frame& f) {
      numbers.push_back(static_cast<std::int64_t>(f.packet_number));
    });
  }
  return numbers;
}

// Two socket paths under one streaming core (the compat `pull` policy) at
// 1000 packets/s for 0.2 s, with a flight recorder to read pulls back.
struct Rig {
  Scheduler sched;
  std::unique_ptr<obs::Hub> hub;
  SocketPath path0{kFrameBytes, [](std::int64_t n) {
                     return static_cast<std::uint64_t>(n);
                   }};
  SocketPath path1{kFrameBytes, [](std::int64_t n) {
                     return static_cast<std::uint64_t>(n);
                   }};
  std::unique_ptr<DmpStreamingServer> core;
  Fd peer0;
  Fd peer1;
  FrameParser parser0{kFrameBytes};
  FrameParser parser1{kFrameBytes};

  Rig() {
    obs::ObsConfig config;
    config.enabled = true;
    config.flight_recorder = true;
    config.output_dir = ::testing::TempDir();
    hub = std::make_unique<obs::Hub>(config, obs::TelemetryConfig{});
    core = std::make_unique<DmpStreamingServer>(
        sched, 1000.0, std::vector<StreamSender*>{&path0, &path1},
        SimTime::zero(), SimTime::millis(200));
    core->bind(*hub, "server");
    auto [s0, p0] = socket_pair();
    auto [s1, p1] = socket_pair();
    path0.attach(std::move(s0));
    path1.attach(std::move(s1));
    peer0 = std::move(p0);
    peer1 = std::move(p1);
  }

  // (packet, path) of every pull so far, in pull order.
  std::vector<std::pair<std::int64_t, std::int32_t>> pulls() const {
    std::vector<std::pair<std::int64_t, std::int32_t>> out;
    for (const auto& e : hub->flight()->events()) {
      if (e.kind == obs::FlightEventKind::kPull) {
        out.emplace_back(e.packet, e.path);
      }
    }
    return out;
  }
  // The packet path `k` pulled last.
  std::int64_t last_pull(std::int32_t k) const {
    std::int64_t last = -1;
    for (const auto& [packet, path] : pulls()) {
      if (path == k) last = packet;
    }
    return last;
  }
};

TEST(SocketPath, BlockedSocketHasNoSpaceWhileAFrameIsHalfWritten) {
  Rig rig;
  EXPECT_EQ(rig.path0.space(), 1u);
  // Nobody reads: 50 packets overflow both small kernel buffers.
  rig.sched.run_until(SimTime::millis(50));
  for (const SocketPath* path : {&rig.path0, &rig.path1}) {
    EXPECT_TRUE(path->blocked());
    EXPECT_EQ(path->space(), 0u);
    EXPECT_FALSE(path->failed());
    EXPECT_GT(path->sent_frames(), 0u);
  }
  EXPECT_GT(rig.core->queue_length(), 0u);
  EXPECT_EQ(rig.core->packets_generated(), 51);  // t = 0, 1, ..., 50 ms
  // The frames written so far: every pull except the two pending ones.
  EXPECT_EQ(rig.path0.sent_frames() + rig.path1.sent_frames() + 2,
            rig.pulls().size());
  EXPECT_EQ(rig.pulls().size() + rig.core->queue_length(), 51u);
}

TEST(SocketPath, FlushFiresTheSpaceCallbackAndPullsResumeInQueueOrder) {
  Rig rig;
  rig.sched.run_until(SimTime::millis(50));
  const std::size_t queued = rig.core->queue_length();
  const std::uint64_t sent = rig.path0.sent_frames();
  const std::int64_t pending = rig.last_pull(0);
  ASSERT_TRUE(rig.path0.blocked());

  // The peer reads; POLLOUT lets the path finish its frame, and the space
  // callback pulls from the queue head until the socket blocks again.
  const auto before = drain(rig.peer0, rig.parser0);
  rig.path0.on_writable();
  EXPECT_GT(rig.path0.sent_frames(), sent);
  EXPECT_LT(rig.core->queue_length(), queued);
  const auto after = drain(rig.peer0, rig.parser0);
  ASSERT_FALSE(after.empty());
  EXPECT_EQ(after.front(), pending);  // the half-written frame completes

  // No faults: the shared queue is served strictly in generation order.
  const auto pulls = rig.pulls();
  for (std::size_t i = 1; i < pulls.size(); ++i) {
    EXPECT_LT(pulls[i - 1].first, pulls[i].first) << "pull " << i;
  }
  // And each peer sees its own pulls, in order.
  std::vector<std::int64_t> expected;
  for (const auto& [packet, path] : pulls) {
    if (path == 0) expected.push_back(packet);
  }
  std::vector<std::int64_t> got = before;
  got.insert(got.end(), after.begin(), after.end());
  if (rig.path0.blocked()) expected.pop_back();  // still half-written
  EXPECT_EQ(got, expected);
}

TEST(SocketPath, ConnResetPutsTheHalfWrittenFrameAtTheQueueHead) {
  Rig rig;
  rig.sched.run_until(SimTime::millis(50));
  const std::int64_t pending = rig.last_pull(0);
  ASSERT_TRUE(rig.path0.blocked());
  // The fault is a scheduler event, as in DmpInetServer.
  rig.sched.post_at(SimTime::millis(60), [&rig] {
    rig.path0.close(true);
    rig.core->on_path_down(0);
  });
  rig.sched.run_until(SimTime::millis(60));
  EXPECT_FALSE(rig.path0.open());
  EXPECT_FALSE(rig.path0.blocked());
  EXPECT_EQ(rig.path0.space(), 0u);

  // Path 1 finishes its own frame, then pulls the reclaimed one first.
  const std::int64_t pending1 = rig.last_pull(1);
  drain(rig.peer1, rig.parser1);
  rig.path1.on_writable();
  EXPECT_EQ(rig.last_pull(0), pending);
  const auto pulls = rig.pulls();
  EXPECT_EQ(std::count(pulls.begin(), pulls.end(),
                       std::make_pair(pending, std::int32_t{1})),
            1);
  const auto frames = drain(rig.peer1, rig.parser1);
  ASSERT_GE(frames.size(), 2u);
  EXPECT_EQ(frames[0], pending1);
  EXPECT_EQ(frames[1], pending);
}

TEST(SocketPath, ResumeReplayRequeuesTheFramesAfterLastSeqFirst) {
  Rig rig;
  rig.sched.run_until(SimTime::millis(50));
  const auto delivered = drain(rig.peer0, rig.parser0);
  ASSERT_GE(delivered.size(), 3u);
  rig.path0.close(true);
  rig.core->on_path_down(0);

  // The client resumes naming the first frame it kept: everything path 0
  // wrote after it must come back, in order, ahead of newer frames.
  const std::int64_t last_seq = delivered.front();
  const std::vector<std::int64_t> expected_replay(delivered.begin() + 1,
                                                  delivered.end());
  const auto replay =
      rig.path0.replay_after(static_cast<std::uint64_t>(last_seq));
  EXPECT_EQ(replay, expected_replay);
  EXPECT_EQ(rig.path0.replay_after(kFreshHello), delivered);

  auto [server, peer] = socket_pair();
  rig.path0.attach(std::move(server));
  rig.peer0 = std::move(peer);
  rig.parser0 = FrameParser(kFrameBytes);
  const std::size_t newer = rig.core->queue_length();
  rig.core->requeue_front(replay);
  rig.core->on_path_up(0);
  std::vector<std::int64_t> resumed;
  for (int i = 0; i < 1000 && resumed.size() < replay.size() + 1; ++i) {
    const auto got = drain(rig.peer0, rig.parser0);
    resumed.insert(resumed.end(), got.begin(), got.end());
    rig.path0.on_writable();
  }
  ASSERT_GT(newer, 0u);
  ASSERT_GE(resumed.size(), replay.size() + 1);
  EXPECT_TRUE(std::equal(replay.begin(), replay.end(), resumed.begin()));
  EXPECT_GT(resumed[replay.size()], delivered.back());  // then newer frames
}

TEST(SocketPath, EveryGeneratedNumberReachesAPeerExactlyOnce) {
  Rig rig;
  std::vector<std::int64_t> received;
  const auto collect = [&received](const std::vector<std::int64_t>& got) {
    received.insert(received.end(), got.begin(), got.end());
  };
  std::int64_t last_seq0 = -1;
  bool reset = false;
  bool resumed = false;
  for (int ms = 1; ms < 1000; ++ms) {
    rig.sched.run_until(SimTime::millis(ms));
    if (rig.path0.open()) {
      const auto got = drain(rig.peer0, rig.parser0);
      if (!got.empty()) last_seq0 = got.back();
      collect(got);
      rig.path0.on_writable();
    }
    collect(drain(rig.peer1, rig.parser1));
    rig.path1.on_writable();
    if (ms == 60) {
      // Reset path 0; what it fully wrote still reaches its old peer.
      rig.path0.close(true);
      rig.core->on_path_down(0);
      const auto got = drain(rig.peer0, rig.parser0);
      if (!got.empty()) last_seq0 = got.back();
      collect(got);
      reset = true;
    }
    if (ms == 100) {
      auto [server, peer] = socket_pair();
      rig.path0.attach(std::move(server));
      rig.peer0 = std::move(peer);
      rig.parser0 = FrameParser(kFrameBytes);
      // The client kept everything, so nothing needs replaying.
      const auto replay =
          rig.path0.replay_after(static_cast<std::uint64_t>(last_seq0));
      EXPECT_TRUE(replay.empty());
      rig.core->requeue_front(replay);
      rig.core->on_path_up(0);
      resumed = true;
    }
    if (ms > 200 && rig.core->queue_length() == 0 && !rig.path0.blocked() &&
        !rig.path1.blocked()) {
      break;
    }
  }
  collect(drain(rig.peer0, rig.parser0));
  collect(drain(rig.peer1, rig.parser1));
  ASSERT_TRUE(reset && resumed);

  EXPECT_EQ(rig.core->packets_generated(), 200);
  ASSERT_EQ(received.size(), 200u);
  std::set<std::int64_t> unique(received.begin(), received.end());
  EXPECT_EQ(unique.size(), 200u);
  EXPECT_EQ(*unique.begin(), 0);
  EXPECT_EQ(*unique.rbegin(), 199);
  EXPECT_GT(rig.path0.sent_frames(), 0u);
  EXPECT_GT(rig.path1.sent_frames(), 0u);
}

}  // namespace
}  // namespace dmp::inet
