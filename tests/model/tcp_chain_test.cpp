#include "model/tcp_chain.hpp"

#include <gtest/gtest.h>

#include "model/pftk.hpp"
#include "util/rng.hpp"

namespace dmp {
namespace {

TcpChainParams base_params() {
  TcpChainParams p;
  p.loss_rate = 0.02;
  p.rtt_s = 0.2;
  p.to_ratio = 2.0;
  p.wmax = 20;
  p.ack_every = 1;
  return p;
}

TEST(TcpFlowChain, EnumeratesABoundedReachableSet) {
  const TcpFlowChain chain(base_params());
  EXPECT_GT(chain.num_states(), 50u);
  EXPECT_LT(chain.num_states(), 20000u);
  // Every state must have an exit (irreducible chain, no absorption).
  for (std::uint32_t s = 0; s < chain.num_states(); ++s) {
    EXPECT_GT(chain.exit_rate(s), 0.0) << "state " << s;
    EXPECT_FALSE(chain.transitions_from(s).empty());
  }
}

TEST(TcpFlowChain, StationaryDistributionIsProper) {
  const TcpFlowChain chain(base_params());
  const auto pi = chain.stationary();
  double total = 0.0;
  for (double v : pi) {
    EXPECT_GE(v, 0.0);
    total += v;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(TcpFlowChain, ThroughputDecreasesWithLoss) {
  auto p = base_params();
  double prev = 1e18;
  for (double loss : {0.004, 0.01, 0.02, 0.04, 0.08}) {
    p.loss_rate = loss;
    const double sigma = TcpFlowChain(p).achievable_throughput_pps();
    EXPECT_LT(sigma, prev) << "p = " << loss;
    EXPECT_GT(sigma, 0.0);
    prev = sigma;
  }
}

TEST(TcpFlowChain, ThroughputScalesInverselyWithRtt) {
  auto p = base_params();
  p.rtt_s = 0.1;
  const double fast = TcpFlowChain(p).achievable_throughput_pps();
  p.rtt_s = 0.3;
  const double slow = TcpFlowChain(p).achievable_throughput_pps();
  // sigma ~ 1/R when not window-limited.
  EXPECT_NEAR(fast / slow, 3.0, 0.5);
}

TEST(TcpFlowChain, ThroughputNearPftkPrediction) {
  // The chain is an independent reconstruction; it should land within a
  // modest factor of PFTK across the paper's parameter ranges.
  for (double loss : {0.01, 0.02, 0.04}) {
    for (double rtt : {0.1, 0.2, 0.3}) {
      auto p = base_params();
      p.loss_rate = loss;
      p.rtt_s = rtt;
      const double sigma = TcpFlowChain(p).achievable_throughput_pps();
      PftkParams fp;
      fp.loss_rate = loss;
      fp.rtt_s = rtt;
      fp.rto_s = p.to_ratio * rtt;
      fp.wmax = p.wmax;
      fp.b = 1.0;
      const double pftk = pftk_throughput_pps(fp);
      EXPECT_GT(sigma, 0.55 * pftk) << "p=" << loss << " R=" << rtt;
      EXPECT_LT(sigma, 1.8 * pftk) << "p=" << loss << " R=" << rtt;
    }
  }
}

TEST(TcpFlowChain, HigherTimeoutValueLowersThroughput) {
  auto p = base_params();
  p.loss_rate = 0.04;  // timeouts matter at high loss
  p.to_ratio = 1.0;
  const double fast = TcpFlowChain(p).achievable_throughput_pps();
  p.to_ratio = 4.0;
  const double slow = TcpFlowChain(p).achievable_throughput_pps();
  EXPECT_LT(slow, fast);
}

TEST(TcpFlowChain, DelayedAcksReduceThroughput) {
  auto p = base_params();
  const double b1 = TcpFlowChain(p).achievable_throughput_pps();
  p.ack_every = 2;
  const double b2 = TcpFlowChain(p).achievable_throughput_pps();
  EXPECT_LT(b2, b1);
  EXPECT_GT(b2, 0.5 * b1);
}

TEST(TcpFlowChain, WindowCapLimitsCleanPaths) {
  auto p = base_params();
  p.loss_rate = 0.0005;  // nearly clean: throughput ~ wmax / R
  p.wmax = 8;
  const double sigma = TcpFlowChain(p).achievable_throughput_pps();
  EXPECT_LT(sigma, 8.0 / p.rtt_s * 1.05);
  EXPECT_GT(sigma, 8.0 / p.rtt_s * 0.6);
}

TEST(TcpFlowChain, RejectsInvalidParameters) {
  auto p = base_params();
  p.loss_rate = 0.0;
  EXPECT_THROW(TcpFlowChain{p}, std::invalid_argument);
  p = base_params();
  p.rtt_s = -1.0;
  EXPECT_THROW(TcpFlowChain{p}, std::invalid_argument);
  p = base_params();
  p.wmax = 1;
  EXPECT_THROW(TcpFlowChain{p}, std::invalid_argument);
  p = base_params();
  p.ack_every = 3;
  EXPECT_THROW(TcpFlowChain{p}, std::invalid_argument);
}

TEST(LossInversion, RoundTripsThroughput) {
  const auto p = base_params();
  const double sigma = TcpFlowChain(p).achievable_throughput_pps();
  const double recovered = loss_rate_for_throughput(sigma, p);
  EXPECT_NEAR(recovered, p.loss_rate, 0.15 * p.loss_rate);
}

TEST(LossInversion, RejectsUnreachableTargets) {
  const auto p = base_params();
  EXPECT_THROW(loss_rate_for_throughput(1e9, p), std::invalid_argument);
  EXPECT_THROW(loss_rate_for_throughput(-1.0, p), std::invalid_argument);
}

// The pick by integer cut must equal pick_linear on both sides of
// every cut (so a cut one draw early or late fails) and at both ends of
// the draw range.
TEST(PickCuts, MatchPickLinearOnBothSidesOfEveryCut) {
  for (const int wmax : {4, 20, 64}) {
    for (const int ack_every : {1, 2}) {
      for (const double loss : {0.004, 0.04}) {
        auto params = base_params();
        params.wmax = wmax;
        params.ack_every = ack_every;
        params.loss_rate = loss;
        const TcpFlowChain chain(params);
        chain.build_pick_cuts();
        chain.build_pick_cuts();  // a second call keeps the first build
        std::uint64_t boundaries = 0;
        for (std::uint32_t s = 0; s < chain.num_states(); ++s) {
          const auto row = chain.transitions_from(s);
          const double exit = chain.exit_rate(s);
          const auto agrees = [&](std::uint64_t b) {
            return &chain.pick_cut(s, b) ==
                   &chain.pick_linear(s, Rng::unit(b) * exit);
          };
          ASSERT_EQ(chain.class_exit_rate(chain.exit_class(s)), exit)
              << "state " << s;
          ASSERT_TRUE(agrees(0)) << "state " << s;
          ASSERT_TRUE(agrees(kDrawLimit - 1)) << "state " << s;
          ASSERT_EQ(row.back().pick_cut, kDrawLimit) << "state " << s;
          std::uint64_t previous = 0;
          for (const auto& t : row) {
            ASSERT_EQ(t.target_class, chain.exit_class(t.target));
            const std::uint64_t cut = t.pick_cut;
            ASSERT_GE(cut, previous) << "state " << s;
            previous = cut;
            if (cut > 0) {
              ASSERT_TRUE(agrees(cut - 1)) << "state " << s << " cut " << cut;
            }
            if (cut < kDrawLimit) {
              ASSERT_TRUE(agrees(cut)) << "state " << s << " cut " << cut;
              ++boundaries;
            }
          }
        }
        EXPECT_GT(boundaries, chain.num_states()) << "wmax " << wmax;
      }
    }
  }
}

TEST(PickCuts, FirstDrawWhereFindsTheBoundaryFromAnyHint) {
  for (const std::uint64_t boundary :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{12345},
        kDrawLimit / 3, kDrawLimit - 1, kDrawLimit}) {
    const auto holds = [&](std::uint64_t b) { return b >= boundary; };
    for (const double hint : {-1.0, 0.0, 1e-12, 0.3333333333333333, 0.5,
                              0.9999999, 1.0, 2.0}) {
      EXPECT_EQ(first_draw_where(holds, 0, hint), boundary)
          << "boundary " << boundary << " hint " << hint;
    }
    if (boundary >= 7) {
      EXPECT_EQ(first_draw_where(holds, 7, 0.0), boundary);
    }
  }
  // A search starting at the limit has nothing left to search.
  EXPECT_EQ(first_draw_where([](std::uint64_t) { return true; }, kDrawLimit,
                             0.5),
            kDrawLimit);
}

}  // namespace
}  // namespace dmp
