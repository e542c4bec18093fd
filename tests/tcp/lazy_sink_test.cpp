// A TcpSink fed ahead of the clock against one fed at the clock,
// exhaustively.  Both arms deliver the same segments through an exit link
// into a sink whose ACKs enter a link it alone feeds; on a scheduler that
// keeps links eager every delivery, timer fire and ACK is a pop, otherwise
// the exit link hands the sink each delivery when it admits the packet and
// the sink answers with virtual ACK arrivals and delayed-ACK deadlines on
// claimed keys.  The cases are every pattern of up to kMaxSegments
// segments, each with a seq below kSeqs (in order, gaps, duplicates, a
// retransmission filling a gap) sent on kTimes lattice steps, under three
// exit delays: shorter than the delayed-ACK timeout, equal to it and
// longer, so segments land before, on (in both key orders at one
// nanosecond) and after a pending deadline.  A marker chain pops at every
// step among them.  After every run_until, the ACK deliveries and markers
// (time, order and seq), events_executed, _scheduled, _cancelled and the
// per-category counts (timer fires included) must match.  No random
// numbers are drawn.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <iostream>
#include <utility>
#include <vector>

#include "net/demux.hpp"
#include "net/link.hpp"
#include "sim/scheduler.hpp"
#include "tcp/sink.hpp"

namespace dmp {
namespace {

constexpr int kMaxSegments = 4;
constexpr int kTimes = 5;  // send times 0 .. kTimes - 1, in lattice steps
constexpr int kSeqs = 4;   // segment seqs 0 .. kSeqs - 1
constexpr int kDelack = 2;  // the delayed-ACK timeout, in steps
constexpr int kProps[] = {kDelack - 1, kDelack, kDelack + 1};
constexpr int kSteps = 16;  // markers and run_until horizons, one a step

// A step is one data segment's tx time on the exit link and one ACK's on
// the ACK link: 1 us, exactly.
SimTime steps(int n) { return SimTime::micros(n); }

struct Counters {
  std::size_t logged;
  std::uint64_t executed;
  std::uint64_t scheduled;
  std::uint64_t cancelled;
  std::array<std::uint64_t, kNumEventCategories> by_category;
  bool operator==(const Counters&) const = default;
};

struct Outcome {
  // (time ns, ACK seq), or (time ns, -1 - step) for a marker, in pop order.
  std::vector<std::pair<std::int64_t, std::int64_t>> log;
  std::vector<Counters> checkpoints;  // after each run_until
  std::int64_t rcv_nxt = 0;
  std::uint64_t received = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t out_of_order = 0;
  bool ahead = false;  // the sink took its deliveries ahead of the clock
};

void mark(Scheduler& sched, Outcome& out, int step) {
  out.log.emplace_back(sched.now().ns(), -1 - step);
  if (step + 1 < kSteps) {
    sched.post_at(steps(step + 1),
                  [&sched, &out, step] { mark(sched, out, step + 1); });
  }
}

Outcome run(const std::vector<int>& times, const std::vector<int>& seqs,
            int prop, bool eager) {
  Scheduler sched;
  if (eager) sched.keep_links_eager();
  SchedProfile profile;
  sched.set_profiler(&profile);
  Outcome out;
  Link exit(sched, LinkConfig{12e9, steps(prop), 0});
  Link acks(sched, LinkConfig{320e6, steps(1), 0});
  FlowDemux demux;
  exit.set_receiver(&demux);
  TcpConfig tcp;
  tcp.delack_timeout = steps(kDelack);
  TcpSink sink(
      sched, 1, tcp, [&acks](const Packet& ack) { acks.send(ack); }, &acks);
  demux.register_flow(1, [&sink](const Packet& p) { sink.on_data(p); },
                      &sink);
  acks.set_receiver([&out, &sched](const Packet& ack) {
    out.log.emplace_back(sched.now().ns(), ack.seq);
  });
  for (std::size_t j = 0; j < times.size(); ++j) {
    Packet p;
    p.flow = 1;
    p.seq = seqs[j];
    p.size_bytes = kDataPacketBytes;
    sched.post_at(steps(times[j]), [&exit, p] { exit.send(p); });
  }
  sched.post_at(steps(0), [&sched, &out] { mark(sched, out, 0); });

  const auto checkpoint = [&] {
    Counters c{out.log.size(), sched.events_executed(),
               sched.events_scheduled(), sched.events_cancelled(), {}};
    for (std::size_t i = 0; i < kNumEventCategories; ++i) {
      c.by_category[i] = profile.by_category[i].executed;
    }
    out.checkpoints.push_back(c);
  };
  for (int step = 0; step < kSteps; ++step) {
    sched.run_until(steps(step));
    checkpoint();
  }
  sched.run();
  checkpoint();
  out.rcv_nxt = sink.rcv_nxt();
  out.received = sink.segments_received();
  out.duplicates = sink.duplicate_segments();
  out.out_of_order = sink.out_of_order_segments();
  out.ahead = demux.ahead(1) != nullptr;
  return out;
}

// Every nondecreasing sequence of `n` send times and every seq pattern.
template <class F>
void for_each_pattern(int n, F&& f) {
  std::vector<int> times(n, 0);
  for (;;) {
    std::vector<int> seqs(n, 0);
    for (;;) {
      f(times, seqs);
      int i = n - 1;
      while (i >= 0 && seqs[i] == kSeqs - 1) seqs[i--] = 0;
      if (i < 0) break;
      ++seqs[i];
    }
    int i = n - 1;
    while (i >= 0 && times[i] == kTimes - 1) --i;
    if (i < 0) return;
    const int t = times[i] + 1;
    for (; i < n; ++i) times[i] = t;
  }
}

TEST(LazySink, MatchesTheSinkAtTheClockExhaustively) {
  std::uint64_t cases = 0;
  std::uint64_t fires = 0;
  for (const int prop : kProps) {
    for (int n = 1; n <= kMaxSegments; ++n) {
      for_each_pattern(n, [&](const std::vector<int>& times,
                              const std::vector<int>& seqs) {
        ++cases;
        const Outcome lazy = run(times, seqs, prop, false);
        const Outcome eager = run(times, seqs, prop, true);
        const bool same =
            lazy.log == eager.log && lazy.checkpoints == eager.checkpoints &&
            lazy.rcv_nxt == eager.rcv_nxt &&
            lazy.received == eager.received &&
            lazy.duplicates == eager.duplicates &&
            lazy.out_of_order == eager.out_of_order && lazy.ahead &&
            !eager.ahead;
        if (!same) {
          std::string what = "prop " + std::to_string(prop) + ", segments";
          for (std::size_t j = 0; j < times.size(); ++j) {
            what += " " + std::to_string(seqs[j]) + "@" +
                    std::to_string(times[j]);
          }
          ADD_FAILURE() << "case " << cases << ": " << what;
        }
        fires += eager.checkpoints.back()
                     .by_category[static_cast<std::size_t>(
                         EventCategory::kTcpTimer)];
      });
    }
  }
  std::cout << "LazySink: " << cases << " cases, " << fires
            << " delayed-ACK fires\n";
  // Over n segments, C(kTimes + n - 1, n) send-time sequences times
  // kSeqs^n seq patterns, under each of the three delays.
  EXPECT_EQ(cases, (5u * 4u + 15u * 16u + 35u * 64u + 70u * 256u) * 3u);
  EXPECT_GT(fires, 0u);
}

}  // namespace
}  // namespace dmp
