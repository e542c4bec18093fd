// Differential test for exact early decisions: required_startup_delay ends
// each probe below tau_max once its "fail" verdict is certain
// (DmpModelMonteCarlo::run_until_verdict).  The oracle below keeps the
// full-budget probe (run_until_decides at every tau) and the bisection
// verbatim; the search must return the same result field for field, with
// late_at_tau bit for bit, while drawing no more consumptions.  The
// engine-level tests check the same contract, including the checkpoint the
// doubling reaches past max and a threshold on a knife edge.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "model/composed_chain.hpp"
#include "model/required_delay.hpp"
#include "model/tcp_chain.hpp"
#include "util/rng.hpp"
#include "util/seed_stream.hpp"

namespace dmp {
namespace {

// The probe seed domain of required_delay.cpp (kind 16).
constexpr std::uint64_t kDelayProbeDomain = 16ull << 32;

// The full-budget probe: tau_passes as it was before probes could end
// early.
bool oracle_tau_passes(const ComposedParams& base, double tau_s,
                       const RequiredDelayOptions& options, double* estimate,
                       std::uint64_t grid_index, std::uint64_t* consumed) {
  ComposedParams params = base;
  params.tau_s = tau_s;
  const std::uint64_t probe_seed =
      SeedStream(options.seed, kDelayProbeDomain).at(grid_index);
  DmpModelMonteCarlo mc(params, probe_seed);
  const auto result = mc.run_until_decides(options.target_late_fraction,
                                           options.min_consumptions,
                                           options.max_consumptions);
  *estimate = result.late_fraction;
  *consumed += result.consumptions;
  return result.late_fraction < options.target_late_fraction;
}

// The bisection, verbatim, with the full decision at every probe.
RequiredDelayResult oracle_required_delay(const ComposedParams& base,
                                          const RequiredDelayOptions& options) {
  RequiredDelayResult result;
  const auto grid_points = static_cast<std::int64_t>(
      std::floor((options.tau_max_s - options.tau_min_s) / options.grid_s));
  auto tau_at = [&](std::int64_t g) {
    return options.tau_min_s + static_cast<double>(g) * options.grid_s;
  };

  double estimate_hi = 0.0;
  ++result.evaluations;
  if (!oracle_tau_passes(base, tau_at(grid_points), options, &estimate_hi,
                         static_cast<std::uint64_t>(grid_points),
                         &result.consumptions)) {
    result.feasible = false;
    result.tau_s = tau_at(grid_points);
    result.late_at_tau = estimate_hi;
    return result;
  }

  std::int64_t lo = 0, hi = grid_points;  // hi always passes
  double estimate_at_hi = estimate_hi;
  double estimate_lo = 0.0;
  ++result.evaluations;
  if (oracle_tau_passes(base, tau_at(0), options, &estimate_lo, 0,
                        &result.consumptions)) {
    result.feasible = true;
    result.tau_s = tau_at(0);
    result.late_at_tau = estimate_lo;
    return result;
  }

  while (hi - lo > 1) {
    const std::int64_t mid = lo + (hi - lo) / 2;
    double estimate = 0.0;
    ++result.evaluations;
    if (oracle_tau_passes(base, tau_at(mid), options, &estimate,
                          static_cast<std::uint64_t>(mid),
                          &result.consumptions)) {
      hi = mid;
      estimate_at_hi = estimate;
    } else {
      lo = mid;
    }
  }

  result.feasible = true;
  result.tau_s = tau_at(hi);
  result.late_at_tau = estimate_at_hi;
  return result;
}

void expect_same_bits(double a, double b, const std::string& what) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a), std::bit_cast<std::uint64_t>(b))
      << what << ": " << a << " vs " << b;
}

// Every field but the consumption count, which may only shrink.
void expect_same_search(const RequiredDelayResult& got,
                        const RequiredDelayResult& want,
                        const std::string& where) {
  expect_same_bits(got.tau_s, want.tau_s, where + " tau_s");
  EXPECT_EQ(got.feasible, want.feasible) << where;
  expect_same_bits(got.late_at_tau, want.late_at_tau, where + " late_at_tau");
  EXPECT_EQ(got.evaluations, want.evaluations) << where;
  EXPECT_LE(got.consumptions, want.consumptions) << where;
}

void expect_identical(const MonteCarloResult& got,
                      const MonteCarloResult& want, const std::string& where) {
  EXPECT_EQ(got.late, want.late) << where;
  EXPECT_EQ(got.consumptions, want.consumptions) << where;
  expect_same_bits(got.late_fraction, want.late_fraction,
                   where + " late_fraction");
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

// The verdict contract between run_until_verdict and run_until_decides on
// two engines with the same seed.  Returns true if the verdict call ended
// early.
bool expect_same_verdict(const ComposedParams& params, std::uint64_t seed,
                         double threshold, std::uint64_t min,
                         std::uint64_t max, const std::string& where) {
  DmpModelMonteCarlo full(params, seed);
  DmpModelMonteCarlo early(params, seed);
  const auto want = full.run_until_decides(threshold, min, max);
  const auto got = early.run_until_verdict(threshold, min, max);
  const bool passes = want.late_fraction < threshold;
  EXPECT_EQ(got.late_fraction < threshold, passes) << where;
  if (passes) {
    expect_identical(got, want, where);
    return false;
  }
  EXPECT_LE(got.consumptions, want.consumptions) << where;
  EXPECT_LE(got.late, want.late) << where;
  return got.consumptions < want.consumptions;
}

TcpChainParams flow(double loss, double rtt, double to, int wmax) {
  TcpChainParams f;
  f.loss_rate = loss;
  f.rtt_s = rtt;
  f.to_ratio = to;
  f.wmax = wmax;
  return f;
}

struct Budget {
  std::uint64_t min;
  std::uint64_t max;
};

// 20k/100k: the doubling overshoots max (checkpoints 20k..160k);
// 30k/30k: min == max, a single checkpoint; 25k/390k: overshoot to 400k.
constexpr Budget kBudgets[] = {{20'000, 100'000}, {30'000, 30'000},
                               {25'000, 390'000}};

struct GridPoint {
  ComposedParams params;
  std::string label;
};

// K = 1..3 flows, p 0.004..0.04 (log-uniform), RTT 50..400 ms, TO 1.5..4,
// and mu set by the aggregate-throughput ratio sigma_a / mu in 1.1..2.5,
// so required delays land inside a 20-s range.
std::vector<GridPoint> randomized_grid(std::size_t points) {
  Rng rng(20071015);
  std::vector<GridPoint> grid;
  for (std::size_t i = 0; i < points; ++i) {
    GridPoint g;
    const auto kflows = 1 + static_cast<int>(i % 3);
    double sigma = 0.0;
    for (int k = 0; k < kflows; ++k) {
      const auto f = flow(0.004 * std::pow(10.0, rng.uniform()),
                          rng.uniform(0.05, 0.4), rng.uniform(1.5, 4.0),
                          8 + static_cast<int>(rng.uniform_int(13)));
      sigma += TcpFlowChain(f).achievable_throughput_pps();
      g.params.flows.push_back(f);
    }
    const double ratio = rng.uniform(1.1, 2.5);
    g.params.mu_pps = sigma / ratio;
    std::ostringstream label;
    label << "point " << i << " (K=" << kflows << ", mu=" << g.params.mu_pps
          << ", ratio=" << ratio << ")";
    g.label = label.str();
    grid.push_back(g);
  }
  return grid;
}

RequiredDelayOptions options_for(const Budget& budget, std::uint64_t seed) {
  RequiredDelayOptions options;
  options.min_consumptions = budget.min;
  options.max_consumptions = budget.max;
  options.tau_max_s = 20.0;
  options.seed = seed;
  return options;
}

TEST(RequiredDelayDifferential, SearchMatchesTheFullBudgetOracle) {
  const auto grid = randomized_grid(9);
  std::size_t saved = 0;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const Budget& budget = kBudgets[i % 3];
    const auto options = options_for(budget, 500 + i);
    const auto want = oracle_required_delay(grid[i].params, options);
    const auto got = required_startup_delay(grid[i].params, options);
    expect_same_search(got, want, grid[i].label);
    if (got.consumptions < want.consumptions) ++saved;
  }
  // The grid must exercise the early stop, not just agree trivially.
  EXPECT_GT(saved, 0u);
}

TEST(RequiredDelayDifferential, InfeasiblePointReportsTheFullEstimate) {
  // sigma_a / mu = 0.8: even tau_max fails, and its estimate is reported.
  ComposedParams params;
  params.flows = {flow(0.03, 0.2, 2.0, 12), flow(0.03, 0.2, 2.0, 12)};
  params.mu_pps =
      2.0 * TcpFlowChain(params.flows[0]).achievable_throughput_pps() / 0.8;
  const auto options = options_for(kBudgets[0], 11);
  const auto want = oracle_required_delay(params, options);
  const auto got = required_startup_delay(params, options);
  EXPECT_FALSE(got.feasible);
  EXPECT_GT(got.late_at_tau, options.target_late_fraction);
  expect_same_search(got, want, "infeasible");
  EXPECT_EQ(got.consumptions, want.consumptions);  // one full probe
}

ComposedParams knife_setup() {
  ComposedParams params;
  params.flows = {flow(0.02, 0.2, 2.0, 12), flow(0.02, 0.2, 2.0, 12)};
  params.mu_pps =
      2.0 * TcpFlowChain(params.flows[0]).achievable_throughput_pps() / 1.5;
  return params;
}

TEST(RequiredDelayDifferential, KnifeEdgeTargetAtTauMin) {
  // min == max makes the tau_min probe's verdict a function of its late
  // count L at the one checkpoint c.  A target of exactly L / c fails it
  // (the estimate is not below the target); (L + 1) / c passes it, with no
  // room for an early stop one count too soon.
  const ComposedParams base = knife_setup();
  RequiredDelayOptions options = options_for({40'000, 40'000}, 31);
  ComposedParams at_min = base;
  at_min.tau_s = options.tau_min_s;
  DmpModelMonteCarlo pilot(at_min,
                           SeedStream(options.seed, kDelayProbeDomain).at(0));
  const auto late = pilot.run(40'000, 4'000).late;
  ASSERT_GT(late, 0u);
  const double c = 40'000.0;

  options.target_late_fraction = static_cast<double>(late + 1) / c;
  const auto passing = required_startup_delay(base, options);
  expect_same_search(passing, oracle_required_delay(base, options),
                     "target (L+1)/c");
  EXPECT_EQ(passing.tau_s, options.tau_min_s);
  expect_same_bits(passing.late_at_tau, static_cast<double>(late) / c,
                   "estimate at tau_min");

  options.target_late_fraction = static_cast<double>(late) / c;
  const auto failing = required_startup_delay(base, options);
  expect_same_search(failing, oracle_required_delay(base, options),
                     "target L/c");
  EXPECT_GT(failing.tau_s, options.tau_min_s);
}

TEST(RequiredDelayDifferential, FailingProbesDrawFewerConsumptions) {
  // p = 0.04 at sigma_a / mu = 1.2: tau = 1 s fails by orders of
  // magnitude, so its probe stops after a few hundred consumptions.  Every
  // probe would otherwise count at least min (plus min / 10 of warm-up).
  ComposedParams params;
  params.flows = {flow(0.04, 0.2, 2.0, 12), flow(0.04, 0.2, 2.0, 12)};
  params.mu_pps =
      2.0 * TcpFlowChain(params.flows[0]).achievable_throughput_pps() / 1.2;
  const auto options = options_for(kBudgets[0], 5);
  const auto result = required_startup_delay(params, options);
  ASSERT_TRUE(result.feasible);
  EXPECT_GT(result.tau_s, options.tau_min_s);
  const std::uint64_t min = options.min_consumptions;
  EXPECT_LT(result.consumptions, result.evaluations * (min + min / 10));
  EXPECT_LT(result.consumptions,
            oracle_required_delay(params, options).consumptions);

  // The tau_min probe alone: the stop lands mid-checkpoint, within the
  // first tenth of its minimum budget.
  params.tau_s = options.tau_min_s;
  DmpModelMonteCarlo mc(params, 5);
  const auto probe = mc.run_until_verdict(options.target_late_fraction, min,
                                          options.max_consumptions);
  EXPECT_LT(probe.consumptions, min / 10);
  EXPECT_GE(probe.late_fraction, options.target_late_fraction);
}

TEST(RunUntilVerdict, MatchesTheFullDecision) {
  const auto grid = randomized_grid(6);
  std::size_t stopped = 0;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    for (const double tau : {1.0, 3.0, 8.0}) {
      ComposedParams params = grid[i].params;
      params.tau_s = tau;
      for (const Budget& budget : kBudgets) {
        std::ostringstream where;
        where << grid[i].label << " tau=" << tau << " budget=" << budget.min
              << "/" << budget.max;
        stopped += expect_same_verdict(params, 40 + i, 1e-4, budget.min,
                                       budget.max, where.str())
                       ? 1
                       : 0;
      }
    }
  }
  EXPECT_GT(stopped, 0u);
}

TEST(RunUntilVerdict, BoundIsTheLastReachableCheckpointNotMax) {
  // Budget 20k/100k reaches a last checkpoint of 160k.  A decision that
  // passes there with a late count L in [thr * 100k, thr * 160k) would be
  // cut short by a bound taken at max.  Sweep thresholds around each
  // trajectory's 160k estimate until such cases occur; every one of them
  // must pass with the full estimate.
  ComposedParams params = knife_setup();
  params.tau_s = 1.0;
  std::size_t sensitive = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    DmpModelMonteCarlo pilot(params, seed);
    const double estimate = pilot.run(160'000, 2'000).late_fraction;
    for (const double scale : {1.02, 1.1, 1.25, 1.4}) {
      const double threshold = estimate * scale;
      DmpModelMonteCarlo full(params, seed);
      const auto want = full.run_until_decides(threshold, 20'000, 100'000);
      if (want.consumptions == 160'000 && want.late_fraction < threshold &&
          static_cast<double>(want.late) >= threshold * 100'000.0) {
        ++sensitive;
      }
      expect_same_verdict(params, seed, threshold, 20'000, 100'000,
                          "seed " + std::to_string(seed) + " scale " +
                              std::to_string(scale));
    }
  }
  EXPECT_GT(sensitive, 0u);
}

TEST(RunUntilVerdict, KnifeEdgeThresholdAtTheOnlyCheckpoint) {
  ComposedParams params = knife_setup();
  params.tau_s = 1.0;
  DmpModelMonteCarlo pilot(params, 9);
  const auto late = pilot.run(30'000, 3'000).late;
  ASSERT_GT(late, 0u);
  const double c = 30'000.0;
  // L / c: the full run ends exactly on the threshold and fails.
  expect_same_verdict(params, 9, static_cast<double>(late) / c, 30'000,
                      30'000, "threshold L/c");
  DmpModelMonteCarlo at_knife(params, 9);
  EXPECT_FALSE(at_knife
                   .run_until_verdict(static_cast<double>(late) / c, 30'000,
                                      30'000)
                   .late_fraction < static_cast<double>(late) / c);
  // (L + 1) / c: one count of headroom; it passes with the full result.
  expect_same_verdict(params, 9, static_cast<double>(late + 1) / c, 30'000,
                      30'000, "threshold (L+1)/c");
}

TEST(RunUntilVerdict, RejectsBudgetsAndThresholdsWithoutACertainFail) {
  ComposedParams params = knife_setup();
  params.tau_s = 1.0;
  DmpModelMonteCarlo mc(params, 1);
  EXPECT_THROW(mc.run_until_verdict(1e-4, 0, 100'000), std::invalid_argument);
  for (const double bad : {0.0, -1.0, std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN()}) {
    EXPECT_THROW(mc.run_until_verdict(bad, 1'000, 1'000),
                 std::invalid_argument)
        << bad;
  }
}

TEST(RunUntilVerdict, ThresholdAboveOneNeverStopsEarly) {
  // No late count can reach L* > c_last: the result is run_until_decides'.
  ComposedParams params = knife_setup();
  params.tau_s = 1.0;
  DmpModelMonteCarlo full(params, 3);
  DmpModelMonteCarlo early(params, 3);
  expect_identical(early.run_until_verdict(1.5, 5'000, 5'000),
                   full.run_until_decides(1.5, 5'000, 5'000), "threshold 1.5");
}

}  // namespace
}  // namespace dmp
