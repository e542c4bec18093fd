// Differential suite for the Scheduler's re-armable timers.
//
// One randomized workload runs against three schedulers:
//   * the cancel-and-push oracle (heap_reference.hpp): every arm is a new
//     heap entry, every superseded one a cancelled entry counted when it
//     pops, and the link an eager one (a tx-done event per packet);
//   * the Scheduler with timers re-armed in place and the link lazy;
//   * the Scheduler with timers re-armed in place and the link eager.
// Six timers are armed, re-armed earlier, later and at the same
// nanosecond, and disarmed, both between runs and from inside the run;
// timers re-arm themselves as they fire, like an RTO backing off.  Every
// time sits on the link's 120 us tx-time lattice, so timer pops tie with
// posts, deliveries and the lazy link's virtual tx-dones.  Fire order,
// fire times and events_executed / _scheduled / _cancelled must match
// after every one of a series of run_until horizons, including deadlines
// superseded past the horizon.  Pending counts are not compared: the
// Scheduler queues one entry per timer, the oracle one per arm.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <random>
#include <utility>
#include <vector>

#include "heap_reference.hpp"
#include "net/link.hpp"
#include "sim/scheduler.hpp"
#include "util/sim_time.hpp"

namespace dmp {
namespace {

constexpr std::int64_t kLatticeNs = 120'000;  // 1500 B at 100 Mb/s
constexpr int kTimers = 6;

SimTime lattice(std::uint64_t steps) {
  return SimTime::nanos(static_cast<std::int64_t>(steps) * kLatticeNs);
}

// The link: 100 Mb/s, a propagation delay of 83 lattice steps.
const SimTime kTx = lattice(1);
const SimTime kProp = lattice(83);

std::uint64_t mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

struct Counters {
  std::uint64_t executed;
  std::uint64_t scheduled;
  std::uint64_t cancelled;
};

class World;

// What a scheduler offers the workload: a clock, timers by index, posts,
// one unbounded drop-tail link and the counters.
class Backend {
 public:
  virtual ~Backend() = default;
  virtual SimTime now() const = 0;
  virtual void arm(int k, SimTime when) = 0;
  virtual void disarm(int k) = 0;
  virtual void post(SimTime when, std::function<void()> fn) = 0;
  virtual void send(int id) = 0;
  virtual void run_until(SimTime horizon) = 0;
  virtual Counters counters() const = 0;
  World* world = nullptr;
};

// The workload, identical on every backend.
class World {
 public:
  explicit World(Backend& backend) : b_(backend) { b_.world = this; }

  void on_timer(int k) {
    log(1'000'000 + k);
    deadline_[static_cast<std::size_t>(k)] = SimTime::max();
    const std::uint64_t n = ++fires_[static_cast<std::size_t>(k)];
    const std::uint64_t step = mix(n * 8 + static_cast<std::uint64_t>(k));
    if (n % 3 != 0) arm(k, b_.now() + lattice(1 + step % 40));
  }
  void on_delivery(int id) { log(id); }

  void drive(std::uint64_t seed, int rounds) {
    std::mt19937_64 rng(seed);
    int next_id = 0;
    for (int round = 0; round < rounds; ++round) {
      horizon_ = b_.now() + lattice(rng() % 80);
      for (int op = 0; op < 12; ++op) {
        std::uint64_t r = rng();
        const int kind = static_cast<int>(r % 10);
        r /= 10;
        const int id = next_id++;
        const SimTime at = b_.now() + lattice(r % 50);
        r /= 50;
        if (kind < 4) {
          timer_op(r);
        } else if (kind < 6) {
          // A timer op from inside the run.
          b_.post(at, [this, id] {
            log(id);
            timer_op(mix(static_cast<std::uint64_t>(id)));
          });
        } else if (kind < 8) {
          b_.post(at, [this, id] {
            log(2'000'000 + id);
            b_.send(id);
          });
        } else {
          b_.post(at, [this, id] { log(id); });
        }
      }
      b_.run_until(horizon_);
      checkpoints.push_back(b_.counters());
    }
    horizon_ = SimTime::max();
    b_.run_until(SimTime::max());
    checkpoints.push_back(b_.counters());
  }

  std::vector<std::pair<std::int64_t, int>> fired;
  std::vector<Counters> checkpoints;
  // Deadlines superseded past the horizon of the run they fell in.
  std::size_t late_supersedes = 0;
  std::array<std::size_t, 5> ops{};  // per timer-op kind

 private:
  void log(int id) { fired.emplace_back(b_.now().ns(), id); }

  void arm(int k, SimTime when) {
    supersede(k);
    b_.arm(k, when);
    deadline_[static_cast<std::size_t>(k)] = when;
  }
  void supersede(int k) {
    const SimTime d = deadline_[static_cast<std::size_t>(k)];
    if (d != SimTime::max() && d > horizon_) ++late_supersedes;
  }

  // Arm, re-arm earlier / later / at the same nanosecond, or disarm one
  // timer, as `r` picks.
  void timer_op(std::uint64_t r) {
    const int k = static_cast<int>(r % kTimers);
    r /= kTimers;
    const SimTime now = b_.now();
    const SimTime d = deadline_[static_cast<std::size_t>(k)];
    const bool armed = d != SimTime::max();
    const SimTime fresh = now + lattice(r % 60);
    r /= 60;
    const auto kind = static_cast<std::size_t>(r % 5);
    r /= 5;
    ++ops[kind];
    const std::uint64_t ahead =
        armed ? static_cast<std::uint64_t>((d - now).ns() / kLatticeNs) : 0;
    switch (kind) {
      case 0:
        arm(k, fresh);
        break;
      case 1:
        arm(k, ahead > 0 ? now + lattice(r % ahead) : fresh);
        break;
      case 2:
        arm(k, armed ? d + lattice(1 + r % 20) : fresh);
        break;
      case 3:
        arm(k, armed ? d : fresh);
        break;
      default:
        supersede(k);
        b_.disarm(k);
        deadline_[static_cast<std::size_t>(k)] = SimTime::max();
        break;
    }
  }

  Backend& b_;
  SimTime horizon_ = SimTime::zero();
  std::array<SimTime, kTimers> deadline_ = [] {
    std::array<SimTime, kTimers> a{};
    a.fill(SimTime::max());
    return a;
  }();
  std::array<std::uint64_t, kTimers> fires_{};
};

// Cancel-and-push timers over the heap reference, with the eager link's
// events: a tx-done per packet claims the delivery, then the successor's
// tx-done.
class OracleBackend final : public Backend {
 public:
  SimTime now() const override { return ref_.now(); }
  void arm(int k, SimTime when) override {
    disarm(k);
    flags_[static_cast<std::size_t>(k)] = ref_.schedule(when, [this, k] {
      flags_[static_cast<std::size_t>(k)] = nullptr;
      world->on_timer(k);
    });
  }
  void disarm(int k) override {
    auto& flag = flags_[static_cast<std::size_t>(k)];
    if (flag) *flag = true;
    flag = nullptr;
  }
  void post(SimTime when, std::function<void()> fn) override {
    ref_.post(when, std::move(fn));
  }
  void send(int id) override {
    if (!busy_ && queue_.empty()) {
      start(id);
    } else {
      queue_.push_back(id);
    }
  }
  void run_until(SimTime horizon) override { ref_.run_until(horizon); }
  Counters counters() const override {
    return Counters{ref_.executed(), ref_.scheduled(), ref_.cancelled()};
  }

 private:
  void start(int id) {
    busy_ = true;
    ref_.post(ref_.now() + kTx, [this, id] {
      ref_.post(ref_.now() + kProp, [this, id] { world->on_delivery(id); });
      busy_ = false;
      if (!queue_.empty()) {
        const int next = queue_.front();
        queue_.pop_front();
        start(next);
      }
    });
  }

  HeapReference ref_;
  std::array<std::shared_ptr<bool>, kTimers> flags_{};
  std::deque<int> queue_;
  bool busy_ = false;
};

// The Scheduler's timers and a real Link, lazy or eager.
class SchedulerBackend final : public Backend {
 public:
  explicit SchedulerBackend(bool lazy)
      : link_(sched_, LinkConfig{100e6, kProp, 0}) {
    if (!lazy) sched_.keep_links_eager();
    link_.set_receiver([this](const Packet& p) {
      world->on_delivery(static_cast<int>(p.seq));
    });
    for (int k = 0; k < kTimers; ++k) {
      auto& shot = shots_[static_cast<std::size_t>(k)];
      shot = Shot{this, k};
      ids_[static_cast<std::size_t>(k)] =
          sched_.register_timer(&Shot::fire, &shot);
    }
  }
  SimTime now() const override { return sched_.now(); }
  void arm(int k, SimTime when) override {
    sched_.arm(ids_[static_cast<std::size_t>(k)], when);
  }
  void disarm(int k) override {
    sched_.disarm(ids_[static_cast<std::size_t>(k)]);
  }
  void post(SimTime when, std::function<void()> fn) override {
    sched_.post_at(when, std::move(fn));
  }
  void send(int id) override {
    Packet p;
    p.flow = 1;
    p.seq = id;
    p.size_bytes = 1500;
    link_.send(p);
  }
  void run_until(SimTime horizon) override { sched_.run_until(horizon); }
  Counters counters() const override {
    return Counters{sched_.events_executed(), sched_.events_scheduled(),
                    sched_.events_cancelled()};
  }
  bool lazy() const { return link_.lazy(); }

 private:
  struct Shot {
    SchedulerBackend* self;
    int k;
    static void fire(void* ctx) {
      const auto* shot = static_cast<Shot*>(ctx);
      shot->self->world->on_timer(shot->k);
    }
  };
  Scheduler sched_;
  Link link_;
  std::array<Shot, kTimers> shots_{};
  std::array<std::uint32_t, kTimers> ids_{};
};

std::size_t same_ns_pops(const World& w) {
  std::size_t n = 0;
  for (std::size_t i = 1; i < w.fired.size(); ++i) {
    if (w.fired[i].first == w.fired[i - 1].first) ++n;
  }
  return n;
}

void expect_matches_oracle(bool lazy, std::uint64_t seed) {
  OracleBackend oracle;
  World want(oracle);
  want.drive(seed, 400);
  SchedulerBackend sched(lazy);
  World got(sched);
  got.drive(seed, 400);
  EXPECT_EQ(sched.lazy(), lazy);

  // The workload reaches every case it is meant to.
  EXPECT_GT(want.late_supersedes, 50u);
  for (const std::size_t n : want.ops) EXPECT_GT(n, 100u);
  EXPECT_GT(same_ns_pops(want), 500u);

  ASSERT_EQ(want.fired.size(), got.fired.size());
  for (std::size_t i = 0; i < want.fired.size(); ++i) {
    ASSERT_EQ(want.fired[i], got.fired[i]) << "pop " << i;
  }
  ASSERT_EQ(want.checkpoints.size(), got.checkpoints.size());
  for (std::size_t c = 0; c < want.checkpoints.size(); ++c) {
    const Counters& w = want.checkpoints[c];
    const Counters& g = got.checkpoints[c];
    EXPECT_EQ(w.executed, g.executed) << "checkpoint " << c;
    EXPECT_EQ(w.scheduled, g.scheduled) << "checkpoint " << c;
    EXPECT_EQ(w.cancelled, g.cancelled) << "checkpoint " << c;
  }
}

TEST(Timer, InPlaceMatchesCancelAndPushOracle) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    expect_matches_oracle(true, seed);
  }
}

TEST(Timer, InPlaceWithEagerLinkMatchesCancelAndPushOracle) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    expect_matches_oracle(false, seed);
  }
}

// A superseded deadline counts as cancelled once a run_until horizon
// covers it — where its own entry would have popped.
TEST(Timer, SupersededDeadlineCountsOnceAHorizonCoversIt) {
  Scheduler sched;
  int fired = 0;
  const auto timer = sched.register_timer(
      [](void* ctx) { ++*static_cast<int*>(ctx); }, &fired);
  sched.arm(timer, SimTime::millis(50));
  sched.arm(timer, SimTime::millis(80));  // later: 50 ms superseded
  sched.arm(timer, SimTime::millis(70));  // earlier: 80 ms superseded
  EXPECT_EQ(sched.events_scheduled(), 3u);
  sched.run_until(SimTime::millis(40));
  EXPECT_EQ(sched.events_cancelled(), 0u);
  sched.run_until(SimTime::millis(60));
  EXPECT_EQ(sched.events_cancelled(), 1u);
  sched.run_until(SimTime::millis(75));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sched.events_cancelled(), 1u);
  sched.run_until(SimTime::millis(90));
  EXPECT_EQ(sched.events_cancelled(), 2u);
  EXPECT_EQ(sched.events_executed(), 1u);
}

}  // namespace
}  // namespace dmp
