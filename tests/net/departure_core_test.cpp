// DepartureCore against eager drop-tail, exhaustively.  The reference is
// the eager link reduced to a FIFO and a transmitter clock, run event by
// event in key order.  Every case runs the core twice: with each arrival
// offered at the clock (a real arrival) and with every arrival offered as
// early as the fault horizon allows (virtual arrivals ahead of the clock).
// The cases are every arrival pattern of up to kMaxPackets packets of one
// or two lattice steps' tx time on kTimes lattice times, each early or late
// in its nanosecond (before or after a tx-done there), every buffer up to
// kMaxBuffer plus unbounded, and every placement on kFaultTimes lattice
// times of a down window (down, or down then up), a one-packet burst loss
// and a rescale that doubles the tx time.  Each packet's fate (its drop, or
// its start and tx-done) must match, and at every checkpoint the queue,
// the packets not yet finished, the busy time and the arrivals still ahead
// (per flow too).  No random numbers are drawn.
#include <gtest/gtest.h>

#include <algorithm>
#include <compare>
#include <cstdint>
#include <deque>
#include <iostream>
#include <limits>
#include <vector>

#include "net/departure_core.hpp"

namespace dmp {
namespace {

constexpr int kMaxPackets = 3;
constexpr int kTimes = 3;       // arrival times 0 .. kTimes - 1
constexpr int kMaxBuffer = 2;   // buffers 1 .. kMaxBuffer, and 0 (unbounded)
constexpr int kFaultTimes = 5;  // fault times 0 .. kFaultTimes - 1
constexpr int kNone = -1;

// A key: the time, then the phase within the nanosecond (declared faults
// first; early arrivals before the tx-done, late ones after it), then the
// order of arrival.  Checkpoints sit at even phases, between the events.
struct Key {
  std::int64_t t;
  int phase;
  int n;
  auto operator<=>(const Key&) const = default;
};
constexpr int kFaultPhase = 1;
constexpr int kEarly = 3;
constexpr int kTxDone = 5;
constexpr int kLate = 7;

struct Arrival {
  int t;
  int phase;
  std::uint32_t size;  // tx time in lattice steps before a rescale
};

struct Plan {
  int down = kNone;  // set_down(true) at this time
  int up = kNone;    // set_down(false) at this time (>= down)
  int burst = kNone;
  int rescale = kNone;
};

// A packet's fate: dropped (kDown / kBurst / kFull) or its start and tx-done
// (-1 while it never started or never finished).
struct Fate {
  int drop = kNone;
  std::int64_t start = -1;
  std::int64_t done = -1;
  bool operator==(const Fate&) const = default;
};
constexpr int kDropDown = 0;
constexpr int kDropBurst = 1;
constexpr int kDropFull = 2;

// What the clock sees at a checkpoint.
struct View {
  std::size_t queued;
  std::size_t unfinished;
  std::int64_t busy;
  std::size_t ahead[3];  // arrivals still ahead: all, flow 0, flow 1
  bool operator==(const View&) const = default;
};

// A hook or a checkpoint, in key order.
struct Step {
  Key key;
  int kind;  // 0 set_down(true), 1 set_down(false), 2 burst, 3 rescale,
             // 4 checkpoint
};

// The plan's hooks, and checkpoints at `times` (between events, the
// views cannot change).
std::vector<Step> steps_of(const Plan& plan,
                           const std::vector<std::int64_t>& times) {
  std::vector<Step> steps;
  if (plan.down != kNone) steps.push_back({{plan.down, kFaultPhase, 0}, 0});
  if (plan.up != kNone) steps.push_back({{plan.up, kFaultPhase, 1}, 1});
  if (plan.burst != kNone) steps.push_back({{plan.burst, kFaultPhase, 2}, 2});
  if (plan.rescale != kNone) {
    steps.push_back({{plan.rescale, kFaultPhase, 3}, 3});
  }
  for (const std::int64_t t : times) {
    for (const int phase : {0, 4, 6}) steps.push_back({{t, phase, 0}, 4});
  }
  std::sort(steps.begin(), steps.end(),
            [](const Step& a, const Step& b) { return a.key < b.key; });
  return steps;
}

Key arrival_key(const std::vector<Arrival>& in, std::size_t i) {
  return Key{in[i].t, in[i].phase, static_cast<int>(i)};
}

// A run: each packet's fate, the views at the checkpoints, how many
// arrivals had been offered at each (the arrivals not offered yet that are
// not dropped lie ahead too), and how many packets were parked.
struct Reference {
  std::vector<Fate> fates;
  std::vector<View> views;
  std::vector<std::size_t> offered;
  std::uint64_t parked = 0;

  void reset(std::size_t packets) {
    fates.assign(packets, Fate{});
    views.clear();
    offered.clear();
    parked = 0;
  }
  void count_unoffered_ahead() {
    for (std::size_t c = 0; c < views.size(); ++c) {
      for (std::size_t i = offered[c]; i < fates.size(); ++i) {
        if (fates[i].drop != kNone) continue;
        ++views[c].ahead[0];
        ++views[c].ahead[1 + i % 2];
      }
    }
  }
};

// Eager drop-tail: a FIFO and a transmitter clock.
void run_eager(const std::vector<Arrival>& in, std::size_t buffer,
               const std::vector<Step>& steps, Reference& ref) {
  ref.reset(in.size());
  static std::deque<int> queue;
  queue.clear();
  int wire = kNone;
  bool down = false;
  int burst = 0;
  std::uint32_t factor = 1;
  std::int64_t busy = 0;
  const auto start = [&](int i, std::int64_t t) {
    wire = i;
    ref.fates[i].start = t;
    ref.fates[i].done = t + in[i].size * factor;
    busy += in[i].size * factor;
  };
  // Runs every tx-done keyed before `key`.
  const auto run_until = [&](const Key& key) {
    while (wire != kNone && Key{ref.fates[wire].done, kTxDone, 0} < key) {
      const std::int64_t t = ref.fates[wire].done;
      wire = kNone;
      if (!down && !queue.empty()) {
        start(queue.front(), t);
        queue.pop_front();
      }
    }
  };
  // Runs every arrival and tx-done keyed before `key`.
  std::size_t next = 0;
  const auto advance = [&](const Key& key) {
    for (; next < in.size() && arrival_key(in, next) < key; ++next) {
      run_until(arrival_key(in, next));
      const int i = static_cast<int>(next);
      if (down) {
        ref.fates[i].drop = kDropDown;
      } else if (burst > 0) {
        --burst;
        ref.fates[i].drop = kDropBurst;
      } else if (wire == kNone && queue.empty()) {
        start(i, in[i].t);
      } else if (buffer != 0 && queue.size() >= buffer) {
        ref.fates[i].drop = kDropFull;
      } else {
        queue.push_back(i);
      }
    }
    run_until(key);
  };
  for (const Step& step : steps) {
    advance(step.key);
    switch (step.kind) {
      case 0: down = true; break;
      case 1:
        down = false;
        if (wire == kNone && !queue.empty()) {
          start(queue.front(), step.key.t);
          queue.pop_front();
        }
        break;
      case 2: ++burst; break;
      case 3: factor = 2; break;
      default:
        ref.views.push_back(View{queue.size(),
                                 queue.size() + (wire != kNone ? 1u : 0u),
                                 busy,
                                 {0, 0, 0}});
        ref.offered.push_back(next);
    }
  }
  advance(Key{std::numeric_limits<std::int64_t>::max(), 0, 0});
  ref.count_unoffered_ahead();
}

// Ids index the keys of the arrivals, then of the departures as they are
// admitted; `pos` is the clock's position.
struct TestClock {
  const std::vector<Key>* keys;
  const Key* pos;
  bool before(std::uint64_t a, std::uint64_t d) const {
    return (*keys)[a] < (*keys)[d];
  }
  bool ahead(std::uint64_t id) const { return *pos < (*keys)[id]; }
  template <class Departure>
  void passed(const Departure*) const {}
};
using Core = DepartureCore<TestClock>;

// Drives the core as Link does; `ahead` offers every arrival before the
// horizon at once, else each at its key.
void run_core(const std::vector<Arrival>& in, std::size_t buffer,
              const std::vector<Step>& steps, bool ahead, Reference& out) {
  out.reset(in.size());
  static std::vector<Key> keys;
  keys.clear();
  for (std::size_t i = 0; i < in.size(); ++i) {
    keys.push_back(arrival_key(in, i));
  }
  Key pos{0, 0, 0};
  Core core(TestClock{&keys, &pos}, buffer);
  for (const Step& step : steps) {
    if (step.kind < 4) core.declare_fault(SimTime::nanos(step.key.t));
  }
  std::uint32_t factor = 1;
  const auto tx_of = [&](const Packet& p) {
    return SimTime::nanos(p.size_bytes * factor);
  };
  const auto admit = [&](const Packet& p, const Core::Started& s,
                         std::uint64_t arrival) {
    keys.push_back(Key{s.when.ns(), kTxDone, 0});
    core.depart(Core::Departure{s.when, keys.size() - 1, arrival, s.tx,
                                p.flow});
    out.fates[static_cast<std::size_t>(p.seq)].start = s.start.ns();
    out.fates[static_cast<std::size_t>(p.seq)].done = s.when.ns();
  };
  std::size_t offered = 0;
  const auto offer = [&](std::size_t i) {
    const Packet p{.flow = static_cast<FlowId>(i % 2),
                   .seq = static_cast<std::int64_t>(i),
                   .size_bytes = in[i].size};
    const SimTime when = SimTime::nanos(in[i].t);
    const std::uint64_t arrival = ahead ? i : Core::kAtClock;
    const Core::Offer o = core.offer(SimTime::nanos(pos.t), when, arrival);
    const Core::Parked x{p, when, arrival};
    switch (o.verdict) {
      case Core::Verdict::kDown: out.fates[i].drop = kDropDown; break;
      case Core::Verdict::kBurst: out.fates[i].drop = kDropBurst; break;
      case Core::Verdict::kFull: out.fates[i].drop = kDropFull; break;
      case Core::Verdict::kPark:
        core.park(x);
        ++out.parked;
        break;
      case Core::Verdict::kStart: {
        const SimTime tx = tx_of(p);
        const Core::Started s{o.start, o.start + tx, 0, tx, o.start};
        if (core.start(x, s)) {
          admit(p, s, arrival);
        } else {
          ++out.parked;
        }
      }
    }
  };
  const auto feed = [&] {
    for (; offered < in.size() &&
           SimTime::nanos(in[offered].t) < core.horizon();
         ++offered) {
      offer(offered);
    }
  };
  if (ahead) feed();
  for (const Step& step : steps) {
    if (!ahead) {
      for (; offered < in.size() && keys[offered] < step.key; ++offered) {
        pos = keys[offered];
        offer(offered);
      }
    }
    pos = step.key;
    const SimTime now = SimTime::nanos(pos.t);
    if (step.kind == 4) {
      const FlowId flows[] = {0, 1};
      const std::size_t not_arrived = core.arrivals_ahead(now, nullptr);
      // Link reads delivered as arrivals, less drops and what the core
      // holds; the core holds the packets that have not arrived too.
      View v{core.queued(now),
             core.pass(now) + core.parked() - not_arrived,
             core.busy(now).ns(),
             {not_arrived, core.arrivals_ahead(now, &flows[0]),
              core.arrivals_ahead(now, &flows[1])}};
      out.views.push_back(v);
      out.offered.push_back(offered);
      continue;
    }
    EXPECT_TRUE(core.run_fault(now));
    core.pass(now);
    if (step.kind <= 1) {
      core.set_down(step.kind == 0);
      if (const Packet* head = core.stalled()) {
        core.start_head(now, 0, tx_of(*head));
      }
    } else if (step.kind == 2) {
      core.add_burst(1);
    } else {
      factor = 2;
    }
    core.resume(
        [&](const Packet& p, const Core::Started& s) {
          admit(p, s, Core::kAtClock);
        },
        [&](const Packet& next, const Core::Departure& last) {
          core.start_head(last.when, 0, tx_of(next));
        });
    if (ahead) feed();
  }
  out.count_unoffered_ahead();
}

// Calls `visit` with every nondecreasing sequence of arrivals of length
// `n`, each at or after `from` in (time, phase) order.
template <class Visit>
void for_each_pattern(std::vector<Arrival>& in, int n, int from,
                      const Visit& visit) {
  if (static_cast<int>(in.size()) == n) {
    visit();
    return;
  }
  for (int slot = from; slot < kTimes * 2; ++slot) {
    for (std::uint32_t size = 1; size <= 2; ++size) {
      in.push_back(Arrival{slot / 2, slot % 2 == 0 ? kEarly : kLate, size});
      for_each_pattern(in, n, slot, visit);
      in.pop_back();
    }
  }
}

std::vector<Plan> every_plan() {
  std::vector<Plan> plans;
  std::vector<std::pair<int, int>> windows{{kNone, kNone}};
  for (int down = 0; down < kFaultTimes; ++down) {
    windows.emplace_back(down, kNone);
    for (int up = down; up < kFaultTimes; ++up) windows.emplace_back(down, up);
  }
  for (const auto& [down, up] : windows) {
    for (int burst = kNone; burst < kFaultTimes; ++burst) {
      for (int rescale = kNone; rescale < kFaultTimes; ++rescale) {
        plans.push_back(Plan{down, up, burst, rescale});
      }
    }
  }
  return plans;
}

TEST(DepartureCore, MatchesEagerDropTailExhaustively) {
  const std::vector<Plan> plans = every_plan();
  std::uint64_t cases = 0;
  std::uint64_t dropped = 0;
  std::uint64_t parked = 0;
  std::vector<Arrival> in;
  Reference eager;
  Reference lazy;
  for (int n = 0; n <= kMaxPackets; ++n) {
    for_each_pattern(in, n, 0, [&] {
      for (std::size_t buffer = 0; buffer <= kMaxBuffer; ++buffer) {
        for (const Plan& plan : plans) {
          // Checkpoints at every time something happens, and after.
          std::vector<std::int64_t> times;
          const std::vector<Step> hooks = steps_of(plan, times);
          for (const Step& h : hooks) times.push_back(h.key.t);
          for (const Arrival& a : in) times.push_back(a.t);
          run_eager(in, buffer, hooks, eager);
          for (const Fate& f : eager.fates) {
            if (f.start >= 0) times.push_back(f.start);
            if (f.done >= 0) times.push_back(f.done);
          }
          std::sort(times.begin(), times.end());
          times.erase(std::unique(times.begin(), times.end()), times.end());
          times.push_back(times.empty() ? 0 : times.back() + 1);
          const std::vector<Step> steps = steps_of(plan, times);
          run_eager(in, buffer, steps, eager);
          for (const bool ahead : {false, true}) {
            ++cases;
            run_core(in, buffer, steps, ahead, lazy);
            parked += lazy.parked;
            if (lazy.fates != eager.fates || lazy.views != eager.views) {
              ADD_FAILURE() << "case " << cases << ": " << in.size()
                            << " packets, buffer " << buffer << ", down "
                            << plan.down << " up " << plan.up << " burst "
                            << plan.burst << " rescale " << plan.rescale
                            << (ahead ? ", ahead of the clock" : ", at it");
              return;
            }
          }
          for (const Fate& f : eager.fates) {
            if (f.drop != kNone) ++dropped;
          }
        }
      }
    });
  }
  std::cout << "DepartureCore: " << cases << " cases\n";
  // 545 arrival patterns x 3 buffers x 756 fault plans x 2 arms.
  EXPECT_EQ(cases, 545u * 3u * 756u * 2u);
  EXPECT_GT(dropped, 0u);
  EXPECT_GT(parked, 0u);
}

}  // namespace
}  // namespace dmp
