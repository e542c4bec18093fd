// The composed DMP model: exact product-chain solution vs. the Monte-Carlo
// engine, plus structural properties of the late-packet fraction.
#include "model/composed_chain.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "model/chain_cache.hpp"
#include "util/rng.hpp"

namespace dmp {
namespace {

// Small per-flow chain so the exact product stays tractable.
TcpChainParams tiny_flow(double loss = 0.05) {
  TcpChainParams p;
  p.loss_rate = loss;
  p.rtt_s = 0.2;
  p.to_ratio = 2.0;
  p.wmax = 6;
  p.max_backoff = 3;
  return p;
}

TEST(ComposedExact, MarginalIsAProperDistribution) {
  ComposedParams params;
  params.flows = {tiny_flow()};
  params.mu_pps = 20.0;
  params.tau_s = 1.0;  // Nmax = 20
  const ComposedChainExact exact(params);
  double total = 0.0;
  for (double v : exact.n_marginal()) {
    EXPECT_GE(v, 0.0);
    total += v;
  }
  EXPECT_NEAR(total, 1.0, 1e-8);
  EXPECT_GT(exact.late_fraction(), 0.0);
  EXPECT_LT(exact.late_fraction(), 1.0);
}

TEST(ComposedExact, LateFractionDecreasesWithTau) {
  ComposedParams params;
  params.flows = {tiny_flow()};
  params.mu_pps = 20.0;
  double prev = 1.0;
  for (double tau : {0.25, 0.5, 1.0, 2.0}) {
    params.tau_s = tau;
    const double f = ComposedChainExact(params).late_fraction();
    EXPECT_LT(f, prev) << "tau " << tau;
    prev = f;
  }
}

TEST(ComposedExact, LateFractionDecreasesWithMoreHeadroom) {
  // Lower mu (same paths) -> higher sigma_a/mu -> fewer late packets.
  ComposedParams params;
  params.flows = {tiny_flow(), tiny_flow()};
  params.tau_s = 1.0;
  params.mu_pps = 30.0;
  const double f_tight = ComposedChainExact(params).late_fraction();
  params.mu_pps = 20.0;
  params.tau_s = 1.5;  // keep Nmax = 30 identical
  const double f_loose = ComposedChainExact(params).late_fraction();
  EXPECT_LT(f_loose, f_tight);
}

TEST(ComposedExactVsMonteCarlo, AgreeOnSingleFlow) {
  ComposedParams params;
  params.flows = {tiny_flow()};
  params.mu_pps = 15.0;
  params.tau_s = 1.0;
  const double exact = ComposedChainExact(params).late_fraction();

  DmpModelMonteCarlo mc(params, 99);
  const auto result = mc.run(400'000, 40'000);
  EXPECT_GT(exact, result.ci.lo() - 0.01);
  EXPECT_LT(exact, result.ci.hi() + 0.01);
  EXPECT_NEAR(result.late_fraction, exact, 0.15 * exact + 0.002);
}

TEST(ComposedExactVsMonteCarlo, AgreeOnTwoFlows) {
  ComposedParams params;
  params.flows = {tiny_flow(0.05), tiny_flow(0.08)};
  params.mu_pps = 25.0;
  params.tau_s = 0.8;  // Nmax = 20
  const double exact = ComposedChainExact(params).late_fraction();

  DmpModelMonteCarlo mc(params, 7);
  const auto result = mc.run(400'000, 40'000);
  EXPECT_NEAR(result.late_fraction, exact, 0.2 * exact + 0.002);
}

TEST(MonteCarlo, HigherThroughputFlowContributesMore) {
  // The model-side analogue of DMP's dynamic split: the flow with lower
  // loss (higher sigma) must deliver a larger share.
  ComposedParams params;
  params.flows = {tiny_flow(0.02), tiny_flow(0.10)};
  params.mu_pps = 30.0;
  params.tau_s = 2.0;
  DmpModelMonteCarlo mc(params, 3);
  const auto result = mc.run(300'000, 30'000);
  ASSERT_EQ(result.flow_share.size(), 2u);
  EXPECT_GT(result.flow_share[0], result.flow_share[1]);
  EXPECT_NEAR(result.flow_share[0] + result.flow_share[1], 1.0, 1e-9);
}

TEST(MonteCarlo, EarlyPacketsStayWithinNmax) {
  ComposedParams params;
  params.flows = {tiny_flow()};
  params.mu_pps = 10.0;
  params.tau_s = 2.0;  // Nmax = 20
  DmpModelMonteCarlo mc(params, 5);
  const auto result = mc.run(100'000, 10'000);
  EXPECT_GE(result.mean_early_packets, 0.0);
  EXPECT_LE(result.mean_early_packets, 20.0);
}

TEST(MonteCarlo, DeterministicForFixedSeed) {
  ComposedParams params;
  params.flows = {tiny_flow()};
  params.mu_pps = 15.0;
  params.tau_s = 1.0;
  const auto a = DmpModelMonteCarlo(params, 42).run(100'000, 10'000);
  const auto b = DmpModelMonteCarlo(params, 42).run(100'000, 10'000);
  EXPECT_EQ(a.late, b.late);
  EXPECT_DOUBLE_EQ(a.late_fraction, b.late_fraction);
}

TEST(MonteCarlo, RunUntilDecidesStopsEarlyOnClearCases) {
  // Hopeless configuration: mu far beyond capacity, f ~ large.
  ComposedParams params;
  params.flows = {tiny_flow(0.2)};
  params.mu_pps = 100.0;
  params.tau_s = 0.5;
  DmpModelMonteCarlo mc(params, 1);
  const auto result = mc.run_until_decides(1e-4, 100'000, 10'000'000);
  EXPECT_LT(result.consumptions, 1'000'000u);  // decided fast
  EXPECT_GT(result.late_fraction, 0.1);
}

TEST(MonteCarlo, TwoIdenticalPathsSplitEvenly) {
  ComposedParams params;
  params.flows = {tiny_flow(), tiny_flow()};
  params.mu_pps = 25.0;
  params.tau_s = 2.0;
  DmpModelMonteCarlo mc(params, 11);
  const auto result = mc.run(300'000, 30'000);
  EXPECT_NEAR(result.flow_share[0], 0.5, 0.03);
}

TEST(ComposedParams, NmaxRoundsMuTau) {
  ComposedParams params;
  params.mu_pps = 25.0;
  params.tau_s = 4.0;
  EXPECT_EQ(params.nmax(), 100);
  params.tau_s = 0.01;
  EXPECT_EQ(params.nmax(), 0);
  params.flows = {tiny_flow()};
  EXPECT_THROW(ComposedChainExact{params}, std::invalid_argument);
  EXPECT_THROW((DmpModelMonteCarlo{params, 1}), std::invalid_argument);
}

TEST(ComposedExactVsMonteCarlo, AgreeOnThreeFlows) {
  // Three-path differential: small wmax keeps the exact product tractable
  // (16^3 x (Nmax+1) states).
  TcpChainParams flow = tiny_flow(0.08);
  flow.wmax = 4;
  flow.max_backoff = 2;
  ComposedParams params;
  params.flows = {flow, flow, flow};
  params.mu_pps = 24.0;
  params.tau_s = 0.25;  // Nmax = 6
  const double exact = ComposedChainExact(params).late_fraction();

  DmpModelMonteCarlo mc(params, 11);
  const auto result = mc.run(2'000'000, 100'000);
  EXPECT_NEAR(result.late_fraction, exact, 0.05 * exact);
  EXPECT_GT(exact, result.ci.lo() - 0.01);
  EXPECT_LT(exact, result.ci.hi() + 0.01);
}

TEST(ComposedSolvers, GaussSeidelAndPowerAgreeOnTheProductChain) {
  ComposedParams params;
  params.flows = {tiny_flow(0.06)};
  params.mu_pps = 20.0;
  params.tau_s = 0.5;  // Nmax = 10
  const Ctmc chain = composed_ctmc(params);
  const auto gs = chain.steady_state_gauss_seidel(1e-13);
  const auto power = chain.steady_state_power(1e-13);
  ASSERT_EQ(gs.size(), power.size());
  for (std::size_t i = 0; i < gs.size(); ++i) {
    EXPECT_NEAR(gs[i], power[i], 1e-8);
  }
}

TEST(MonteCarlo, RunUntilDecidesAtMinWhenThresholdIsUnreachable) {
  // threshold below any possible estimate: the CI separates immediately,
  // so the decision lands exactly at the minimum budget.
  ComposedParams params;
  params.flows = {tiny_flow(0.2)};
  params.mu_pps = 100.0;
  params.tau_s = 0.5;
  DmpModelMonteCarlo mc(params, 1);
  const auto result = mc.run_until_decides(-1.0, 50'000, 10'000'000);
  EXPECT_EQ(result.consumptions, 50'000u);
  // And the early decision reports the same estimate a plain run would.
  DmpModelMonteCarlo fresh(params, 1);
  const auto direct = fresh.run(50'000, 5'000);
  EXPECT_EQ(result.late, direct.late);
  EXPECT_DOUBLE_EQ(result.late_fraction, direct.late_fraction);
}

TEST(MonteCarlo, RunUntilDecidesExhaustsBudgetOnAKnifeEdge) {
  // Threshold pinned at the point estimate: the CI cannot separate, so the
  // sampler must run out its budget and still return a usable estimate.
  ComposedParams params;
  params.flows = {tiny_flow(0.1)};
  params.mu_pps = 40.0;
  params.tau_s = 0.5;
  DmpModelMonteCarlo probe(params, 21);
  const double knife = probe.run(400'000, 40'000).late_fraction;

  DmpModelMonteCarlo mc(params, 21);
  const auto result = mc.run_until_decides(knife, 50'000, 400'000);
  EXPECT_GE(result.consumptions, 400'000u);  // budget exhausted
  EXPECT_NEAR(result.late_fraction, knife, 0.1 * knife + 0.001);
}

TEST(MonteCarlo, ResultStaysInternallyConsistentAfterContinuation) {
  // run_until_decides extends the same trajectory in doubling rounds; the
  // merged counters must stay consistent after every continuation.
  ComposedParams params;
  params.flows = {tiny_flow(0.05), tiny_flow(0.08)};
  params.mu_pps = 30.0;
  params.tau_s = 0.4;
  DmpModelMonteCarlo mc(params, 17);
  const auto result = mc.run_until_decides(0.05, 30'000, 500'000);
  EXPECT_GE(result.consumptions, 30'000u);
  EXPECT_DOUBLE_EQ(result.late_fraction,
                   static_cast<double>(result.late) /
                       static_cast<double>(result.consumptions));
  double share = 0.0;
  for (double s : result.flow_share) share += s;
  EXPECT_NEAR(share, 1.0, 1e-9);
  EXPECT_GE(result.mean_early_packets, 0.0);
  EXPECT_LE(result.mean_early_packets, static_cast<double>(params.nmax()));
}

TEST(ComposedExact, RejectsOversizedProducts) {
  ComposedParams params;
  TcpChainParams big;
  big.wmax = 24;
  params.flows = {big, big};
  params.mu_pps = 100.0;
  params.tau_s = 10.0;  // Nmax = 1000: product chain far beyond the cap
  EXPECT_THROW(ComposedChainExact{params}, std::invalid_argument);
}

TEST(MonteCarlo, ZeroBudgetsFailLoudly) {
  ComposedParams params;
  params.flows = {tiny_flow(), tiny_flow()};
  params.mu_pps = 25.0;
  params.tau_s = 2.0;
  DmpModelMonteCarlo mc(params, 3);
  EXPECT_THROW(mc.run(0, 0), std::invalid_argument);
  EXPECT_THROW(mc.run(0, 1'000), std::invalid_argument);
  EXPECT_THROW(mc.run_until_decides(1e-3, 0, 10'000), std::invalid_argument);
  EXPECT_THROW(mc.run_until_verdict(1e-3, 0, 10'000), std::invalid_argument);
  // The engine stays usable after a refused call.
  const auto result = mc.run(1'000, 0);
  EXPECT_EQ(result.consumptions, 1'000u);
  EXPECT_FALSE(std::isnan(result.late_fraction));
}

// The historical decision for draw b: -1 for a consumption, else
// the flow picked by the sequential-subtraction scan.
int historical_event(double mu, const std::vector<double>& exits,
                     std::uint64_t b) {
  double total = mu;
  for (const double e : exits) total += e;
  const double x = Rng::unit(b) * total;
  if (x < mu) return -1;
  double y = x - mu;
  std::size_t k = 0;
  for (; k + 1 < exits.size(); ++k) {
    if (y < exits[k]) break;
    y -= exits[k];
  }
  return static_cast<int>(k);
}

int event_by_cuts(const std::vector<std::uint64_t>& cuts, std::uint64_t b) {
  if (b < cuts[0]) return -1;
  std::size_t k = 0;
  while (k + 1 < cuts.size() && b >= cuts[k + 1]) ++k;
  return static_cast<int>(k);
}

// The consumption and flow cuts must reproduce the historical decision on
// both sides of every cut and at both ends of the draw range, for exit
// rates taken from real chains (K = 1..4).  The grid must include totals
// at which the first non-consumption draw has u * total rounding up to
// exactly mu, where a closed-form cut would be one draw off.
TEST(CompatClassCuts, MatchTheHistoricalDecisionOnBothSidesOfEveryCut) {
  Rng rng(925);
  std::vector<std::shared_ptr<const TcpFlowChain>> chains;
  for (const int wmax : {4, 20, 64}) {
    for (const int ack_every : {1, 2}) {
      TcpChainParams p;
      p.loss_rate = 0.004 * std::pow(10.0, rng.uniform());
      p.rtt_s = rng.uniform(0.05, 0.4);
      p.to_ratio = rng.uniform(1.5, 4.0);
      p.wmax = wmax;
      p.ack_every = ack_every;
      chains.push_back(shared_flow_chain(p));
    }
  }
  int rounded_up_to_mu = 0;
  for (int round = 0; round < 4000; ++round) {
    const std::size_t kflows = 1 + static_cast<std::size_t>(round % 4);
    std::vector<double> exits;
    for (std::size_t k = 0; k < kflows; ++k) {
      const auto& chain = *chains[rng.uniform_int(chains.size())];
      exits.push_back(chain.exit_rate(
          static_cast<std::uint32_t>(rng.uniform_int(chain.num_states()))));
    }
    const double mu = rng.uniform(5.0, 150.0);
    std::vector<std::uint64_t> cuts(kflows);
    compat_class_cuts(mu, exits.data(), kflows, cuts.data());
    const auto agrees = [&](std::uint64_t b) {
      return event_by_cuts(cuts, b) == historical_event(mu, exits, b);
    };
    ASSERT_TRUE(agrees(0)) << "round " << round;
    ASSERT_TRUE(agrees(kDrawLimit - 1)) << "round " << round;
    ASSERT_GT(cuts[0], 0u);
    ASSERT_LT(cuts[0], kDrawLimit);
    for (std::size_t i = 0; i < kflows; ++i) {
      if (i > 0) {
        ASSERT_GE(cuts[i], cuts[i - 1]) << "round " << round;
      }
      if (cuts[i] > 0) {
        ASSERT_TRUE(agrees(cuts[i] - 1)) << "round " << round << " cut " << i;
      }
      if (cuts[i] < kDrawLimit) {
        ASSERT_TRUE(agrees(cuts[i])) << "round " << round << " cut " << i;
      }
    }
    // The rounding edge: at the consumption cut u * total is exactly mu
    // though the exact product lies below it.
    double total = mu;
    for (const double e : exits) total += e;
    const double u = Rng::unit(cuts[0]);
    if (u * total == mu && std::fma(u, total, -mu) < 0.0) ++rounded_up_to_mu;
  }
  EXPECT_GT(rounded_up_to_mu, 0);
}

}  // namespace
}  // namespace dmp
