// Unit tests for the PathScheduler API: spec parsing, the shared weighted
// split, the client-side redundancy filter, and each strategy's pick
// behavior on synthetic path states.
#include <gtest/gtest.h>

#include <deque>
#include <stdexcept>
#include <string>
#include <vector>

#include "stream/scheduler/path_scheduler.hpp"
#include "stream/scheduler/redundancy_filter.hpp"
#include "stream/scheduler/strategies.hpp"
#include "stream/scheduler/weighted_split.hpp"

namespace dmp {
namespace {

// --- spec grammar ---

TEST(SchedulerSpec, ParsesEveryStrategy) {
  EXPECT_EQ(SchedulerSpec::parse("pull").strategy,
            SchedulerSpec::Strategy::kPull);
  EXPECT_EQ(SchedulerSpec::parse("best_path").strategy,
            SchedulerSpec::Strategy::kBestPath);
  EXPECT_EQ(SchedulerSpec::parse("round_robin").strategy,
            SchedulerSpec::Strategy::kRoundRobin);
  EXPECT_EQ(SchedulerSpec::parse("redundant").strategy,
            SchedulerSpec::Strategy::kRedundant);
  EXPECT_EQ(SchedulerSpec::parse("weighted").strategy,
            SchedulerSpec::Strategy::kWeighted);
  EXPECT_TRUE(SchedulerSpec::parse("weighted").weights.empty());

  const auto weighted = SchedulerSpec::parse("weighted:0.75,0.25");
  EXPECT_EQ(weighted.strategy, SchedulerSpec::Strategy::kWeighted);
  ASSERT_EQ(weighted.weights.size(), 2u);
  EXPECT_DOUBLE_EQ(weighted.weights[0], 0.75);
  EXPECT_DOUBLE_EQ(weighted.weights[1], 0.25);

  EXPECT_EQ(SchedulerSpec::parse("static").strategy,
            SchedulerSpec::Strategy::kStatic);
  EXPECT_TRUE(SchedulerSpec::parse("static").weights.empty());
  const auto fixed = SchedulerSpec::parse("static:3,1");
  EXPECT_EQ(fixed.strategy, SchedulerSpec::Strategy::kStatic);
  ASSERT_EQ(fixed.weights.size(), 2u);
  EXPECT_DOUBLE_EQ(fixed.weights[0], 3.0);
  EXPECT_DOUBLE_EQ(fixed.weights[1], 1.0);
  EXPECT_FALSE(fixed.redundant());

  const auto parity = SchedulerSpec::parse("parity-8");
  EXPECT_EQ(parity.strategy, SchedulerSpec::Strategy::kParity);
  EXPECT_EQ(parity.parity_k, 8);
  EXPECT_TRUE(parity.redundant());
  EXPECT_TRUE(SchedulerSpec::parse("redundant").redundant());
  EXPECT_FALSE(SchedulerSpec::parse("pull").redundant());
}

TEST(SchedulerSpec, RejectsBadSpecsNamingTheAcceptedSet) {
  for (const char* bad : {"bogus", "", "weighted:", "weighted:0.5,x",
                          "weighted:-1", "weightedx", "static:", "static:1,",
                          "statics", "parity-", "parity-1", "parity-33",
                          "parity-4x", "PULL"}) {
    try {
      SchedulerSpec::parse(bad);
      FAIL() << "expected invalid_argument for '" << bad << "'";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(scheduler_spec_grammar()),
                std::string::npos)
          << "error for '" << bad << "' should cite the grammar: "
          << e.what();
    }
  }
}

TEST(SchedulerSpec, FactoryValidatesWeightCountAndPathCount) {
  EXPECT_THROW(
      make_path_scheduler(SchedulerSpec::parse("weighted:1,2,3"), 2),
      std::invalid_argument);
  EXPECT_THROW(make_path_scheduler(SchedulerSpec::parse("pull"), 0),
               std::invalid_argument);
  EXPECT_THROW(make_path_scheduler(SchedulerSpec::parse("static:1,2,3"), 2),
               std::invalid_argument);
  EXPECT_THROW(make_path_scheduler(SchedulerSpec::parse("static:1"), 2),
               std::invalid_argument);
  // Default weights (path rates) seed the split when the spec has none.
  const auto sched =
      make_path_scheduler(SchedulerSpec::parse("weighted"), 2, {3e6, 1e6});
  EXPECT_STREQ(sched->name(), "weighted");
  // `static` ignores them: its default is the paper's even split.
  EXPECT_STREQ(make_path_scheduler(SchedulerSpec::parse("static"), 2,
                                   {3e6, 1e6})
                   ->name(),
               "static");
  EXPECT_STREQ(
      make_path_scheduler(SchedulerSpec::parse("static:3,1"), 2)->name(),
      "static");
}

TEST(SchedulerSpec, ParityTagsRoundTripAndStayOutOfDataRange) {
  for (const std::int64_t first : {0LL, 1LL, 499LL, 100000LL}) {
    for (const int k : {kParityKMin, 7, kParityKMax}) {
      const std::int64_t tag = encode_parity_tag(first, k);
      EXPECT_TRUE(is_parity_tag(tag));
      EXPECT_LT(tag, 0);
      std::int64_t got_first = -1;
      int got_k = 0;
      decode_parity_tag(tag, &got_first, &got_k);
      EXPECT_EQ(got_first, first);
      EXPECT_EQ(got_k, k);
    }
  }
  // Ordinary data tags and small negative control tags are not parity.
  EXPECT_FALSE(is_parity_tag(0));
  EXPECT_FALSE(is_parity_tag(12345));
  EXPECT_FALSE(is_parity_tag(-1));
}

// --- weighted split ---

TEST(WeightedSplit, EvenSplitIsRoundRobin) {
  WeightedSplit split(2, {});
  std::vector<int> counts(2, 0);
  for (int i = 0; i < 10; ++i) ++counts[split.assign()];
  EXPECT_EQ(counts[0], 5);
  EXPECT_EQ(counts[1], 5);
}

TEST(WeightedSplit, UnequalWeightsHitTargetFractions) {
  WeightedSplit split(2, {0.75, 0.25});
  std::vector<int> counts(2, 0);
  for (int i = 0; i < 100; ++i) ++counts[split.assign()];
  EXPECT_EQ(counts[0], 75);
  EXPECT_EQ(counts[1], 25);
}

TEST(WeightedSplit, AssignAmongSkipsExcludedPaths) {
  WeightedSplit split(3, {});
  std::vector<char> allowed{1, 0, 1};  // path 1 is down
  for (int i = 0; i < 12; ++i) {
    const std::size_t k = split.assign_among(&allowed);
    EXPECT_NE(k, 1u);
  }
  // All-excluded falls back to the unrestricted rule instead of looping.
  std::vector<char> none{0, 0, 0};
  const std::size_t k = split.assign_among(&none);
  EXPECT_LT(k, 3u);
}

TEST(WeightedSplit, RejectsBadWeights) {
  EXPECT_THROW(WeightedSplit(0, {}), std::invalid_argument);
  EXPECT_THROW(WeightedSplit(2, {1.0}), std::invalid_argument);
  EXPECT_THROW(WeightedSplit(2, {1.0, -0.5}), std::invalid_argument);
  EXPECT_THROW(WeightedSplit(2, {0.0, 0.0}), std::invalid_argument);
}

// --- redundancy filter ---

TEST(RedundancyFilter, FirstSightPassesRepeatsAreSuppressed) {
  RedundancyFilter filter;
  std::vector<std::int64_t> delivered;
  const auto record = [&](std::int64_t tag) { delivered.push_back(tag); };
  filter.on_deliver(0, record);
  filter.on_deliver(1, record);
  filter.on_deliver(0, record);  // duplicate copy
  filter.on_deliver(1, record);
  EXPECT_EQ(delivered, (std::vector<std::int64_t>{0, 1}));
  EXPECT_EQ(filter.counters().duplicates_suppressed, 2u);
  EXPECT_TRUE(filter.seen(0));
  EXPECT_FALSE(filter.seen(2));
}

TEST(RedundancyFilter, ParityRecoversExactlyOneMissingPacket) {
  RedundancyFilter filter;
  std::vector<std::int64_t> delivered;
  const auto record = [&](std::int64_t tag) { delivered.push_back(tag); };
  // Window [0, 4): tags 0, 2, 3 arrive; 1 is missing.
  filter.on_deliver(0, record);
  filter.on_deliver(2, record);
  filter.on_deliver(3, record);
  filter.on_deliver(encode_parity_tag(0, 4), record);
  EXPECT_EQ(delivered, (std::vector<std::int64_t>{0, 2, 3, 1}));
  EXPECT_EQ(filter.counters().parity_received, 1u);
  EXPECT_EQ(filter.counters().parity_recovered, 1u);
  // The late original is now a duplicate.
  filter.on_deliver(1, record);
  EXPECT_EQ(filter.counters().duplicates_suppressed, 1u);
  EXPECT_EQ(delivered.size(), 4u);
}

TEST(RedundancyFilter, ParityWithZeroOrManyMissingIsUnused) {
  RedundancyFilter filter;
  std::vector<std::int64_t> delivered;
  const auto record = [&](std::int64_t tag) { delivered.push_back(tag); };
  filter.on_deliver(0, record);
  filter.on_deliver(1, record);
  filter.on_deliver(encode_parity_tag(0, 2), record);  // nothing missing
  filter.on_deliver(encode_parity_tag(4, 3), record);  // 3 missing
  EXPECT_EQ(delivered, (std::vector<std::int64_t>{0, 1}));
  EXPECT_EQ(filter.counters().parity_received, 2u);
  EXPECT_EQ(filter.counters().parity_recovered, 0u);
  EXPECT_EQ(filter.counters().parity_unused, 2u);
}

TEST(RedundancyFilter, IgnoresNegativeControlTags) {
  RedundancyFilter filter;
  std::vector<std::int64_t> delivered;
  filter.on_deliver(-1, [&](std::int64_t tag) { delivered.push_back(tag); });
  EXPECT_TRUE(delivered.empty());
}

// --- strategies on synthetic states ---

std::vector<SchedPathState> two_paths(std::size_t space0, std::size_t space1,
                                      bool down0 = false, bool down1 = false) {
  std::vector<SchedPathState> paths(2);
  paths[0].space = space0;
  paths[0].down = down0;
  paths[1].space = space1;
  paths[1].down = down1;
  return paths;
}

// Runs the drain loop the server runs: pick until false, consuming pulled
// packets from `queue` and one send-buffer slot per dispatch (the real
// server's enqueue does the same), and returns the executed decisions.
std::vector<SchedDecision> drain(PathScheduler& sched,
                                 std::vector<SchedPathState> paths,
                                 std::deque<std::int64_t>& queue) {
  std::vector<SchedDecision> out;
  SchedDecision d;
  while (sched.pick(paths, queue, &d)) {
    if (d.kind == SchedDecision::Kind::kPull) {
      queue.erase(queue.begin() + static_cast<std::ptrdiff_t>(d.queue_pos));
      // Mimic the server's state refresh: the first pull a path carries
      // becomes its oldest transmitted-but-unacked tag (no ACKs arrive
      // inside a synthetic drain).
      if (paths[d.path].oldest_unacked < 0) {
        paths[d.path].oldest_unacked = d.packet;
      }
    }
    if (paths[d.path].space > 0) --paths[d.path].space;
    out.push_back(d);
  }
  return out;
}

TEST(PullSchedulerUnit, OfferWalksSendersFromRotatingIndex) {
  PullScheduler sched(2);
  std::deque<std::int64_t> queue{0, 1, 2};
  // First offer starts at sender 0; it has space for 2, sender 1 takes the
  // rest.
  sched.on_offer();
  auto d = drain(sched, two_paths(2, 8), queue);
  ASSERT_EQ(d.size(), 3u);
  EXPECT_EQ(d[0].path, 0u);
  EXPECT_EQ(d[1].path, 0u);
  EXPECT_EQ(d[2].path, 1u);
  EXPECT_TRUE(queue.empty());
  // The rotation advanced: the next offer starts at sender 1.
  queue = {3};
  sched.on_offer();
  d = drain(sched, two_paths(8, 8), queue);
  ASSERT_EQ(d.size(), 1u);
  EXPECT_EQ(d[0].path, 1u);
}

TEST(PullSchedulerUnit, RotationAdvancesEvenWhenNothingDispatches) {
  PullScheduler sched(2);
  std::deque<std::int64_t> queue{0};
  sched.on_offer();
  // No sender has space: nothing dispatched, but the rotation still moves.
  EXPECT_TRUE(drain(sched, two_paths(0, 0), queue).empty());
  EXPECT_EQ(sched.rotate(), 1u);
  queue.clear();
  sched.on_offer();
  EXPECT_TRUE(drain(sched, two_paths(5, 5), queue).empty());
  EXPECT_EQ(sched.rotate(), 0u);
}

TEST(PullSchedulerUnit, WindowOpenFocusesOneSender) {
  PullScheduler sched(2);
  std::deque<std::int64_t> queue{0, 1, 2};
  sched.on_window_open(1);
  const auto d = drain(sched, two_paths(8, 2), queue);
  // Focus drains sender 1 until its space is gone; sender 0 is not touched.
  ASSERT_EQ(d.size(), 2u);
  EXPECT_EQ(d[0].path, 1u);
  EXPECT_EQ(d[1].path, 1u);
  EXPECT_EQ(queue.size(), 1u);
}

TEST(PullSchedulerUnit, SkipsDownPaths) {
  PullScheduler sched(2);
  std::deque<std::int64_t> queue{0, 1};
  sched.on_offer();
  const auto d = drain(sched, two_paths(8, 8, /*down0=*/true), queue);
  ASSERT_EQ(d.size(), 2u);
  EXPECT_EQ(d[0].path, 1u);
  EXPECT_EQ(d[1].path, 1u);
}

// Pulled tags in dispatch order.
std::vector<std::int64_t> tags(const std::vector<SchedDecision>& decisions) {
  std::vector<std::int64_t> out;
  for (const auto& d : decisions) out.push_back(d.packet);
  return out;
}

TEST(StaticUnit, DeadPathKeepsItsShareUntilItReturns) {
  WeightedScheduler sched(2, {}, /*fixed=*/true);
  EXPECT_STREQ(sched.name(), "static");
  std::deque<std::int64_t> queue;
  for (std::int64_t i = 0; i < 6; ++i) {
    queue.push_back(i);
    sched.on_generate(i);
  }
  // Odd/even split: path 0 carries the even tags, path 1 the odd ones.
  EXPECT_EQ(tags(drain(sched, two_paths(8, 8), queue)),
            (std::vector<std::int64_t>{0, 2, 4, 1, 3, 5}));
  // Path 0 dies holding 2 and 4 unsent; the server puts them back at the
  // front of the shared queue.  Fresh packets keep the odd/even rule.
  queue = {2, 4, 6, 7};
  sched.on_generate(6);
  sched.on_generate(7);
  sched.on_path_down(0, {2, 4}, {}, 0.0);
  EXPECT_EQ(tags(drain(sched, two_paths(8, 8, /*down0=*/true), queue)),
            (std::vector<std::int64_t>{7}));
  // Its share waited for it, oldest first.
  sched.on_path_up(0);
  EXPECT_EQ(tags(drain(sched, two_paths(8, 8), queue)),
            (std::vector<std::int64_t>{2, 4, 6}));
  EXPECT_TRUE(queue.empty());
}

TEST(StaticUnit, FindsTagsBehindANewerReclaimedPrefix) {
  // Path 1 is stalled with older tags pending when path 0 dies: the
  // reclaimed tags then sit in front of OLDER tags in the shared queue.
  // Both split policies must still pull every tag exactly once.
  for (const bool fixed : {true, false}) {
    WeightedScheduler sched(2, {}, fixed);
    std::deque<std::int64_t> queue;
    for (std::int64_t i = 0; i < 6; ++i) {
      queue.push_back(i);
      sched.on_generate(i);
    }
    EXPECT_EQ(tags(drain(sched, two_paths(8, 0), queue)),
              (std::vector<std::int64_t>{0, 2, 4}));
    queue.insert(queue.begin(), {2, 4});  // reclaimed from path 0
    sched.on_path_down(0, {2, 4}, {}, 0.0);
    auto pulled = tags(drain(sched, two_paths(8, 8, /*down0=*/true), queue));
    if (fixed) {
      EXPECT_EQ(pulled, (std::vector<std::int64_t>{1, 3, 5}));
      sched.on_path_up(0);
      const auto rest = tags(drain(sched, two_paths(8, 8), queue));
      pulled.insert(pulled.end(), rest.begin(), rest.end());
    }
    EXPECT_EQ(pulled.size(), 5u) << sched.name();
    EXPECT_TRUE(queue.empty()) << sched.name();
  }
}

TEST(BestPathUnit, PicksLowestSmoothedRtt) {
  BestPathScheduler sched;
  auto paths = two_paths(4, 4);
  paths[0].srtt_s = 0.2;
  paths[1].srtt_s = 0.05;
  std::deque<std::int64_t> queue{7};
  SchedDecision d;
  ASSERT_TRUE(sched.pick(paths, queue, &d));
  EXPECT_EQ(d.path, 1u);
  EXPECT_EQ(d.packet, 7);
  // An unmeasured path (srtt 0) ranks behind any measured one.
  paths[1].srtt_s = 0.0;
  ASSERT_TRUE(sched.pick(paths, queue, &d));
  EXPECT_EQ(d.path, 0u);
  // But still carries traffic when it is the only live option.
  paths[0].down = true;
  ASSERT_TRUE(sched.pick(paths, queue, &d));
  EXPECT_EQ(d.path, 1u);
}

TEST(RoundRobinUnit, AlternatesPathsOnePacketEach) {
  RoundRobinScheduler sched(2);
  std::deque<std::int64_t> queue{0, 1, 2, 3};
  const auto d = drain(sched, two_paths(8, 8), queue);
  ASSERT_EQ(d.size(), 4u);
  EXPECT_EQ(d[0].path, 0u);
  EXPECT_EQ(d[1].path, 1u);
  EXPECT_EQ(d[2].path, 0u);
  EXPECT_EQ(d[3].path, 1u);
}

TEST(RedundantUnit, DuplicatesOnIdleSpareWithinBudget) {
  RedundantScheduler sched(2);
  // 40 data packets buy a copy (1 per kBudgetDen = 25) AND leave the
  // head-of-line packet (tag 0, still unacked on path 0) at least kLagMin
  // = 32 tags behind the stream frontier — the real rescue condition.
  std::deque<std::int64_t> queue;
  for (std::int64_t i = 0; i < 40; ++i) {
    queue.push_back(i);
    sched.on_generate(i);
  }
  sched.on_offer();
  const auto d = drain(sched, two_paths(64, 64), queue);
  // 40 pulls (all on path 0: space never runs out) + 1 copy of the
  // head-of-line packet — path 0's oldest transmitted-but-unacked tag —
  // on the spare path.
  ASSERT_EQ(d.size(), 41u);
  for (std::size_t i = 0; i < 40; ++i) {
    EXPECT_EQ(d[i].kind, SchedDecision::Kind::kPull);
    EXPECT_EQ(d[i].path, 0u);
  }
  EXPECT_EQ(d[40].kind, SchedDecision::Kind::kDuplicate);
  EXPECT_EQ(d[40].path, 1u);  // spare != the head-of-line holder
  EXPECT_EQ(d[40].packet, 0);
  // Budget spent: the next idle window sends no second copy.
  std::deque<std::int64_t> one{40};
  sched.on_generate(40);
  sched.on_offer();
  const auto d2 = drain(sched, two_paths(64, 64), one);
  ASSERT_EQ(d2.size(), 1u);
  EXPECT_EQ(d2[0].kind, SchedDecision::Kind::kPull);
}

TEST(RedundantUnit, PathDownResendsAtRiskTagsOnSurvivors) {
  RedundantScheduler sched(2);
  std::deque<std::int64_t> queue{0, 1, 2, 3};
  sched.on_offer();
  drain(sched, two_paths(64, 64), queue);  // all four pulled onto path 0
  // Path 0 dies.  The server reclaims the never-transmitted share (2, 3 —
  // they re-enter the queue as data) and snapshots the transmitted-but-
  // unacked tags (0, 1) as the at-risk set; only the slice younger than
  // the dead path's SRTT is re-sent — tag 0 is older than one RTT (its
  // delivery completed before the fault), so only tag 1 rides again.
  sched.on_path_down(0, {2, 3},
                     {AtRiskPacket{0, /*age_s=*/0.5}, AtRiskPacket{1, 0.05}},
                     /*srtt_s=*/0.2);
  sched.on_offer();
  std::deque<std::int64_t> requeued{2, 3};
  const auto d =
      drain(sched, two_paths(0, 64, /*down0=*/true), requeued);
  ASSERT_GE(d.size(), 1u);
  EXPECT_EQ(d[0].kind, SchedDecision::Kind::kDuplicate);
  EXPECT_EQ(d[0].packet, 1);
  EXPECT_EQ(d[0].path, 1u);
  // The reclaimed share rides as ordinary data.
  std::size_t pulls = 0;
  for (const auto& dec : d) {
    if (dec.kind == SchedDecision::Kind::kPull) ++pulls;
  }
  EXPECT_EQ(pulls, 2u);
}

TEST(ParityUnit, EmitsOneParityPerKConsecutivePackets) {
  ParityScheduler sched(2, 3);
  EXPECT_STREQ(sched.name(), "parity-3");
  EXPECT_TRUE(sched.needs_dedup());
  std::deque<std::int64_t> queue{0, 1, 2};
  sched.on_offer();
  const auto d = drain(sched, two_paths(64, 64), queue);
  ASSERT_EQ(d.size(), 4u);
  EXPECT_EQ(d[3].kind, SchedDecision::Kind::kParity);
  EXPECT_EQ(d[3].path, 1u);  // spare, not the data path
  std::int64_t first = -1;
  int k = 0;
  decode_parity_tag(d[3].packet, &first, &k);
  EXPECT_EQ(first, 0);
  EXPECT_EQ(k, 3);
}

TEST(ParityUnit, GapRestartsTheParityWindow) {
  ParityScheduler sched(2, 2);
  std::deque<std::int64_t> queue{0, 5, 6};  // 0 then a gap (reclaim reorder)
  sched.on_offer();
  const auto d = drain(sched, two_paths(64, 64), queue);
  // Window restarts at 5; parity covers [5, 7), never the gapped [0, 2).
  ASSERT_EQ(d.size(), 4u);
  EXPECT_EQ(d[3].kind, SchedDecision::Kind::kParity);
  std::int64_t first = -1;
  int k = 0;
  decode_parity_tag(d[3].packet, &first, &k);
  EXPECT_EQ(first, 5);
  EXPECT_EQ(k, 2);
}

}  // namespace
}  // namespace dmp
