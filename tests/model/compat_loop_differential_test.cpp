// Differential test for the compat Monte-Carlo sampler: the segment-folding
// loop in DmpModelMonteCarlo must reproduce the historical one-event-per-
// step loop bit for bit.  The oracle below keeps that historical loop
// verbatim (step() / step_flow(), and run()'s event-counting warm-up); the
// test drives both engines through the same call sequences over a
// randomized parameter grid and compares every result field by its bits.
// The stored-video sampler (stored_video_late_fraction) is held to its
// historical replication loop, kept verbatim below, the same way.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <latch>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "model/chain_cache.hpp"
#include "model/composed_chain.hpp"
#include "param_space.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace dmp {
namespace {

// The historical compat engine: one out-of-line step() per event.
class HistoricalMonteCarlo {
 public:
  HistoricalMonteCarlo(const ComposedParams& params, std::uint64_t seed)
      : params_(params), nmax_(params.nmax()), rng_(seed) {
    for (const auto& fp : params.flows) {
      chains_.push_back(shared_flow_chain(fp));
      flow_state_.push_back(chains_.back()->initial_state());
    }
    flow_delivered_.assign(chains_.size(), 0);
    n_ = nmax_;
  }

  MonteCarloResult run(std::uint64_t consumptions, std::uint64_t warmup) {
    std::uint64_t seen = 0;
    while (seen < warmup) seen += step() ? 1 : 0;

    late_ = 0;
    counted_ = 0;
    early_sum_ = 0.0;
    batches_ = BatchMeans{};
    std::fill(flow_delivered_.begin(), flow_delivered_.end(), 0);

    while (counted_ < consumptions) step();
    return snapshot();
  }

  MonteCarloResult run_until_decides(double threshold,
                                     std::uint64_t min_consumptions,
                                     std::uint64_t max_consumptions) {
    MonteCarloResult result = run(min_consumptions, min_consumptions / 10);
    std::uint64_t target = min_consumptions;
    while (result.consumptions < max_consumptions) {
      const bool decided =
          result.ci.hi() < threshold || result.ci.lo() > threshold;
      if (decided) break;
      target *= 2;
      while (counted_ < target) step();
      result = snapshot();
    }
    return result;
  }

 private:
  void step_flow(std::size_t k) {
    const auto& chain = *chains_[k];
    const auto& ts = chain.transitions_from(flow_state_[k]);
    double x = rng_.uniform() * chain.exit_rate(flow_state_[k]);
    for (const auto& t : ts) {
      if (x < t.rate || &t == &ts.back()) {
        flow_state_[k] = t.target;
        if (t.delivered > 0) {
          n_ = std::min<std::int64_t>(n_ + t.delivered, nmax_);
          flow_delivered_[k] += t.delivered;
        }
        return;
      }
      x -= t.rate;
    }
  }

  bool step() {
    // Total event rate: consumption + active (non-frozen) flows.
    double total = params_.mu_pps;
    const bool frozen = (n_ == nmax_);
    if (!frozen) {
      for (std::size_t k = 0; k < chains_.size(); ++k) {
        total += chains_[k]->exit_rate(flow_state_[k]);
      }
    }
    double x = rng_.uniform() * total;
    if (x < params_.mu_pps || frozen) {
      // Consumption event.
      if (n_ == 0) {
        ++late_;
        batches_.add(1.0);
      } else {
        --n_;
        batches_.add(0.0);
      }
      early_sum_ += static_cast<double>(n_);
      ++counted_;
      return true;
    }
    x -= params_.mu_pps;
    for (std::size_t k = 0; k < chains_.size(); ++k) {
      const double r = chains_[k]->exit_rate(flow_state_[k]);
      if (x < r || k + 1 == chains_.size()) {
        step_flow(k);
        return false;
      }
      x -= r;
    }
    return false;
  }

  MonteCarloResult snapshot() const {
    MonteCarloResult result;
    result.consumptions = counted_;
    result.late = late_;
    result.late_fraction =
        static_cast<double>(late_) / static_cast<double>(counted_);
    result.ci = batches_.interval();
    result.mean_early_packets = early_sum_ / static_cast<double>(counted_);
    std::uint64_t delivered_total = 0;
    for (auto d : flow_delivered_) delivered_total += d;
    for (auto d : flow_delivered_) {
      result.flow_share.push_back(
          delivered_total == 0 ? 0.0
                               : static_cast<double>(d) /
                                     static_cast<double>(delivered_total));
    }
    return result;
  }

  ComposedParams params_;
  std::vector<std::shared_ptr<const TcpFlowChain>> chains_;
  std::vector<std::uint32_t> flow_state_;
  std::int64_t n_ = 0;
  std::int64_t nmax_;
  Rng rng_;
  std::uint64_t late_ = 0;
  std::uint64_t counted_ = 0;
  std::vector<std::uint64_t> flow_delivered_;
  double early_sum_ = 0.0;
  BatchMeans batches_;
};

// The historical stored-video replication: exponential holding times and
// floating-point scans for every event, before and after playback starts.
// Counts which of its branches ran, so the test can show it reached them.
struct StoredBranches {
  std::uint64_t drained_before_tau = 0;  // jumped to tau, nothing to send
  std::uint64_t crossed_tau = 0;         // an event landed past tau
  std::uint64_t drained_playing = 0;     // played with nothing left to send
};

std::size_t historical_pick_flow(const std::vector<double>& exits, double x) {
  std::size_t k = 0;
  for (; k + 1 < exits.size(); ++k) {
    if (x < exits[k]) break;
    x -= exits[k];
  }
  return k;
}

double historical_stored_replication(const ComposedParams& params,
                                     std::int64_t video_packets, Rng& rng,
                                     StoredBranches& seen) {
  std::vector<std::shared_ptr<const TcpFlowChain>> chains;
  std::vector<std::uint32_t> state;
  std::vector<double> exits;
  for (const auto& fp : params.flows) {
    chains.push_back(shared_flow_chain(fp));
    state.push_back(chains.back()->initial_state());
    exits.push_back(chains.back()->exit_rate(state.back()));
  }

  double t = 0.0;
  std::int64_t delivered = 0;
  std::int64_t consumed = 0;
  std::int64_t late = 0;
  while (consumed < video_packets) {
    const bool consuming = t >= params.tau_s;
    const bool sending = delivered < video_packets;
    double total_rate = consuming ? params.mu_pps : 0.0;
    if (sending) {
      for (const double e : exits) total_rate += e;
    }
    if (total_rate <= 0.0) {
      ++seen.drained_before_tau;
      t = params.tau_s;
      continue;
    }
    const double dt = rng.exponential(1.0 / total_rate);
    if (!consuming && t + dt >= params.tau_s) {
      ++seen.crossed_tau;
      t = params.tau_s;
      continue;
    }
    t += dt;
    if (consuming && !sending) ++seen.drained_playing;

    double x = rng.uniform() * total_rate;
    if (consuming && x < params.mu_pps) {
      if (consumed >= delivered) ++late;
      ++consumed;
      continue;
    }
    if (consuming) x -= params.mu_pps;
    const std::size_t k = historical_pick_flow(exits, x);
    const auto& tr =
        chains[k]->pick_linear(state[k], rng.uniform() * exits[k]);
    state[k] = tr.target;
    exits[k] = chains[k]->exit_rate(tr.target);
    delivered =
        std::min<std::int64_t>(delivered + tr.delivered, video_packets);
  }
  return static_cast<double>(late) / static_cast<double>(video_packets);
}

void expect_same_bits(double a, double b, const std::string& what) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a), std::bit_cast<std::uint64_t>(b))
      << what << ": " << a << " vs " << b;
}

void expect_identical(const MonteCarloResult& got,
                      const MonteCarloResult& want, const std::string& where) {
  EXPECT_EQ(got.late, want.late) << where;
  EXPECT_EQ(got.consumptions, want.consumptions) << where;
  expect_same_bits(got.late_fraction, want.late_fraction,
                   where + " late_fraction");
  expect_same_bits(got.ci.mean, want.ci.mean, where + " ci.mean");
  expect_same_bits(got.ci.lo(), want.ci.lo(), where + " ci.lo");
  expect_same_bits(got.ci.hi(), want.ci.hi(), where + " ci.hi");
  expect_same_bits(got.mean_early_packets, want.mean_early_packets,
                   where + " mean_early_packets");
  ASSERT_EQ(got.flow_share.size(), want.flow_share.size()) << where;
  for (std::size_t k = 0; k < got.flow_share.size(); ++k) {
    expect_same_bits(got.flow_share[k], want.flow_share[k],
                     where + " flow_share[" + std::to_string(k) + "]");
  }
}

struct GridPoint {
  ComposedParams params;
  std::int64_t nmax = 0;
  std::uint64_t seed = 0;
  std::string label;
};

// K = 1..4 flows, wmax 4..32, p 0.004..0.04 (log-uniform), mu 10..100, and
// a startup delay whose Nmax cycles through 1, 2, a small and a large
// buffer, so the frozen (N = Nmax) and empty (N = 0) edges are both hit.
std::vector<GridPoint> randomized_grid(std::size_t points) {
  Rng rng(20070901);
  std::vector<GridPoint> grid;
  for (std::size_t i = 0; i < points; ++i) {
    GridPoint g;
    const auto kflows = 1 + static_cast<int>(i % 4);
    for (int k = 0; k < kflows; ++k) {
      TcpChainParams f;
      f.loss_rate = 0.004 * std::pow(10.0, rng.uniform());
      f.rtt_s = rng.uniform(0.05, 0.4);
      f.to_ratio = rng.uniform(1.5, 4.0);
      f.wmax = 4 + static_cast<int>(rng.uniform_int(29));
      f.max_backoff = 3 + static_cast<int>(rng.uniform_int(4));
      g.params.flows.push_back(f);
    }
    g.params.mu_pps = rng.uniform(10.0, 100.0);
    switch ((i / 4) % 4) {
      case 0: g.nmax = 1; break;
      case 1: g.nmax = 2; break;
      case 2: g.nmax = 3 + static_cast<std::int64_t>(rng.uniform_int(18)); break;
      default: g.nmax = 200 + static_cast<std::int64_t>(rng.uniform_int(1800));
    }
    g.params.tau_s = static_cast<double>(g.nmax) / g.params.mu_pps;
    g.seed = 1000 + i;
    std::ostringstream label;
    label << "point " << i << " (K=" << kflows << ", mu=" << g.params.mu_pps
          << ", Nmax=" << g.nmax << ")";
    g.label = label.str();
    grid.push_back(g);
  }
  return grid;
}

TEST(CompatLoopDifferential, GridCoversTheBufferEdges) {
  for (const auto& g : randomized_grid(32)) {
    EXPECT_EQ(g.params.nmax(), g.nmax) << g.label;
  }
}

TEST(CompatLoopDifferential, RepeatedRunsContinueTheSameStream) {
  for (const auto& g : randomized_grid(32)) {
    DmpModelMonteCarlo engine(g.params, g.seed);
    HistoricalMonteCarlo oracle(g.params, g.seed);
    expect_identical(engine.run(20'000, 2'000), oracle.run(20'000, 2'000),
                     g.label + " first run");
    expect_identical(engine.run(15'000, 1'500), oracle.run(15'000, 1'500),
                     g.label + " second run");
    expect_identical(engine.run(7'000, 0), oracle.run(7'000, 0),
                     g.label + " no warm-up");
  }
}

TEST(CompatLoopDifferential, ColdRunWithoutWarmup) {
  for (const auto& g : randomized_grid(16)) {
    DmpModelMonteCarlo engine(g.params, g.seed + 77);
    HistoricalMonteCarlo oracle(g.params, g.seed + 77);
    expect_identical(engine.run(5'000, 0), oracle.run(5'000, 0), g.label);
    // A one-consumption run stops right after its first consumption.
    expect_identical(engine.run(1, 0), oracle.run(1, 0), g.label + " single");
    expect_identical(engine.run(3'000, 1), oracle.run(3'000, 1),
                     g.label + " after single");
  }
}

TEST(CompatLoopDifferential, SequentialDecisionContinuesTheTrajectory) {
  for (const auto& g : randomized_grid(32)) {
    // A threshold at a pilot estimate keeps the CI straddling it, so the
    // decision loop doubles its target (continuing the trajectory) until
    // the budget runs out; a far threshold decides at once.
    const double pilot =
        HistoricalMonteCarlo(g.params, g.seed).run(5'000, 500).late_fraction;
    for (const double threshold : {pilot, 0.5 * pilot + 1e-4, 0.9}) {
      DmpModelMonteCarlo engine(g.params, g.seed + 1);
      HistoricalMonteCarlo oracle(g.params, g.seed + 1);
      expect_identical(engine.run_until_decides(threshold, 4'000, 64'000),
                       oracle.run_until_decides(threshold, 4'000, 64'000),
                       g.label + " threshold " + std::to_string(threshold));
      expect_identical(engine.run(6'000, 600), oracle.run(6'000, 600),
                       g.label + " run after decision");
    }
  }
}

// Points the randomized grid does not reach: delayed-ACK (ack_every = 2)
// flows at K = 1..4, and bench_fig9's shape — two flows sharing one cached
// chain (wmax 20, TO 4) at the Fig. 9 mu / RTT pairs (sigma_a / mu = 1.6)
// with a short and a few-second startup delay.
std::vector<GridPoint> widened_grid() {
  Rng rng(20250925);
  std::vector<GridPoint> grid;
  for (std::size_t i = 0; i < 12; ++i) {
    GridPoint g;
    const auto kflows = 1 + static_cast<int>(i % 4);
    for (int k = 0; k < kflows; ++k) {
      TcpChainParams f;
      f.loss_rate = 0.004 * std::pow(10.0, rng.uniform());
      f.rtt_s = rng.uniform(0.05, 0.4);
      f.to_ratio = rng.uniform(1.5, 4.0);
      f.wmax = 4 + static_cast<int>(rng.uniform_int(29));
      f.ack_every = (i < 4 || k % 2 == 0) ? 2 : 1;
      g.params.flows.push_back(f);
    }
    g.params.mu_pps = rng.uniform(10.0, 100.0);
    g.nmax = i % 3 == 0 ? 1 + static_cast<std::int64_t>(rng.uniform_int(3))
                        : 5 + static_cast<std::int64_t>(rng.uniform_int(600));
    g.params.tau_s = static_cast<double>(g.nmax) / g.params.mu_pps;
    g.seed = 5000 + i;
    std::ostringstream label;
    label << "delayed-ACK point " << i << " (K=" << kflows
          << ", Nmax=" << g.nmax << ")";
    g.label = label.str();
    grid.push_back(g);
  }
  {
    // Four wmax-64 flows have more class tuples than the class table has
    // slots, so tuples share slots and refill them.
    GridPoint g;
    for (const double p : {0.004, 0.01, 0.02, 0.04}) {
      TcpChainParams f;
      f.loss_rate = p;
      f.rtt_s = 0.1 + p;
      f.wmax = 64;
      g.params.flows.push_back(f);
    }
    g.params.mu_pps = 150.0;
    g.params.tau_s = 2.0;
    g.nmax = g.params.nmax();
    g.seed = 5100;
    g.label = "K=4 wmax-64 point (shared class-table slots)";
    grid.push_back(g);
  }
  constexpr double kTo = 4.0;
  constexpr double kRatio = 1.6;
  for (const double p : {0.004, 0.02, 0.04}) {
    std::vector<std::pair<double, double>> mu_rtt;
    for (const double mu : {25.0, 50.0, 100.0}) {
      const double rtt = bench::rtt_for_ratio(p, kTo, mu, kRatio);
      if (rtt <= 0.6) mu_rtt.emplace_back(mu, rtt);  // as bench_fig9 does
    }
    for (const double rtt : {0.1, 0.2, 0.3}) {
      mu_rtt.emplace_back(bench::mu_for_ratio(p, rtt, kTo, kRatio), rtt);
    }
    for (const auto& [mu, rtt] : mu_rtt) {
      for (const double tau : {0.2, 4.0}) {
        GridPoint g;
        g.params = bench::homogeneous_setup(p, rtt, kTo, mu);
        g.params.tau_s = tau;
        g.nmax = g.params.nmax();
        g.seed = 6000 + grid.size();
        std::ostringstream label;
        label << "fig9 shape p=" << p << " mu=" << mu << " rtt=" << rtt
              << " tau=" << tau;
        g.label = label.str();
        grid.push_back(g);
      }
    }
  }
  return grid;
}

TEST(CompatLoopDifferential, WidenedGridRunsMatchTheHistoricalLoop) {
  for (const auto& g : widened_grid()) {
    ASSERT_GE(g.nmax, 1) << g.label;
    DmpModelMonteCarlo engine(g.params, g.seed);
    HistoricalMonteCarlo oracle(g.params, g.seed);
    expect_identical(engine.run(20'000, 2'000), oracle.run(20'000, 2'000),
                     g.label + " first run");
    expect_identical(engine.run(1, 0), oracle.run(1, 0), g.label + " single");
    expect_identical(engine.run(9'000, 0), oracle.run(9'000, 0),
                     g.label + " no warm-up");
  }
}

TEST(CompatLoopDifferential, WidenedGridDecisionsMatchTheHistoricalLoop) {
  for (const auto& g : widened_grid()) {
    const double pilot =
        HistoricalMonteCarlo(g.params, g.seed).run(5'000, 500).late_fraction;
    for (const double threshold : {pilot, 1e-4}) {
      DmpModelMonteCarlo engine(g.params, g.seed + 1);
      HistoricalMonteCarlo oracle(g.params, g.seed + 1);
      expect_identical(engine.run_until_decides(threshold, 4'000, 32'000),
                       oracle.run_until_decides(threshold, 4'000, 32'000),
                       g.label + " threshold " + std::to_string(threshold));
    }
  }
}

// The stored-video sampler against its historical loop, one replication
// per call (so each late count is compared on its own) and several per
// call (so the aggregate is), over K = 1..4.  The shapes reach every
// branch: a short video delivered before playback starts, a light load
// that delivers the rest while playing, an overloaded one whose sources
// never finish first, a startup delay of zero, and four wmax-64 flows with
// more class tuples than the cut table has slots.
TEST(CompatLoopDifferential, StoredVideoMatchesTheHistoricalLoop) {
  struct Shape {
    double mu_scale;  // mu as a multiple of the grid point's mu
    double tau_s;
    std::int64_t video;
  };
  const Shape shapes[] = {
      {1.0, 30.0, 40}, {0.2, 1.0, 3'000}, {4.0, 0.5, 2'000}, {1.0, 0.0, 1'500}};
  std::vector<GridPoint> grid = randomized_grid(12);
  {
    GridPoint g;
    for (const double p : {0.004, 0.01, 0.02, 0.04}) {
      TcpChainParams f;
      f.loss_rate = p;
      f.rtt_s = 0.1 + p;
      f.wmax = 64;
      g.params.flows.push_back(f);
    }
    g.params.mu_pps = 150.0;
    g.seed = 5200;
    g.label = "K=4 wmax-64 point (shared cut-table slots)";
    grid.push_back(g);
  }
  StoredBranches seen;
  for (const auto& g : grid) {
    for (const Shape& shape : shapes) {
      ComposedParams params = g.params;
      params.mu_pps *= shape.mu_scale;
      params.tau_s = shape.tau_s;
      std::ostringstream where;
      where << g.label << " stored mu=" << params.mu_pps
            << " tau=" << params.tau_s << " video=" << shape.video;
      for (std::uint64_t seed = g.seed; seed < g.seed + 3; ++seed) {
        Rng master(seed);
        Rng rng = master.fork();
        const double want =
            historical_stored_replication(params, shape.video, rng, seen);
        expect_same_bits(
            stored_video_late_fraction(params, shape.video, 1, seed)
                .late_fraction,
            want, where.str() + " seed " + std::to_string(seed));
      }
      Rng master(g.seed + 7);
      std::vector<double> per_run;
      for (int rep = 0; rep < 5; ++rep) {
        Rng rng = master.fork();
        per_run.push_back(
            historical_stored_replication(params, shape.video, rng, seen));
      }
      const ConfidenceInterval want = confidence_interval(per_run);
      const auto got =
          stored_video_late_fraction(params, shape.video, 5, g.seed + 7);
      expect_same_bits(got.late_fraction, want.mean, where.str() + " mean");
      expect_same_bits(got.ci.lo(), want.lo(), where.str() + " ci.lo");
      expect_same_bits(got.ci.hi(), want.hi(), where.str() + " ci.hi");
    }
  }
  EXPECT_GT(seen.drained_before_tau, 0u);
  EXPECT_GT(seen.crossed_tau, 0u);
  EXPECT_GT(seen.drained_playing, 0u);
}

// Two threads start compat engines on one shared cached chain whose pick
// cuts are not built yet, so both race to build them (as validation_sweep's
// workers do); each trajectory must still match the historical loop.  Run
// under ThreadSanitizer in CI.
TEST(CompatLoopDifferential, ThreadsRaceToBuildSharedPickCuts) {
  chain_cache_clear();
  ComposedParams params = bench::homogeneous_setup(0.02, 0.15, 4.0, 40.0);
  params.tau_s = 2.0;
  // Built (without cuts) before the threads start, so they race on the
  // cut build rather than on the cache.
  const auto chain = shared_flow_chain(params.flows[0]);
  std::latch start(2);
  MonteCarloResult results[2];
  std::thread workers[2];
  for (int w = 0; w < 2; ++w) {
    workers[w] = std::thread([&, w] {
      start.arrive_and_wait();
      DmpModelMonteCarlo engine(params, 77 + static_cast<std::uint64_t>(w));
      results[w] = engine.run(30'000, 3'000);
    });
  }
  for (auto& worker : workers) worker.join();
  for (int w = 0; w < 2; ++w) {
    HistoricalMonteCarlo oracle(params, 77 + static_cast<std::uint64_t>(w));
    expect_identical(results[w], oracle.run(30'000, 3'000),
                     "worker " + std::to_string(w));
  }
}

}  // namespace
}  // namespace dmp
