#include "model/required_delay.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

namespace dmp {
namespace {

TcpChainParams path(double loss, double rtt) {
  TcpChainParams p;
  p.loss_rate = loss;
  p.rtt_s = rtt;
  p.to_ratio = 2.0;
  p.wmax = 20;
  return p;
}

ComposedParams two_path_setup(double ratio) {
  // Two homogeneous paths; mu chosen so sigma_a / mu equals `ratio`.
  ComposedParams params;
  const auto flow = path(0.02, 0.2);
  const double sigma = TcpFlowChain(flow).achievable_throughput_pps();
  params.flows = {flow, flow};
  params.mu_pps = 2.0 * sigma / ratio;
  return params;
}

RequiredDelayOptions quick_options() {
  RequiredDelayOptions options;
  options.min_consumptions = 150'000;
  options.max_consumptions = 1'200'000;
  options.tau_max_s = 60.0;
  return options;
}

TEST(RequiredDelay, ComfortableRatioNeedsModestDelay) {
  const auto params = two_path_setup(1.8);
  const auto result = required_startup_delay(params, quick_options());
  ASSERT_TRUE(result.feasible);
  EXPECT_GE(result.tau_s, 1.0);
  EXPECT_LE(result.tau_s, 25.0);
}

TEST(RequiredDelay, TighterRatioNeedsLongerDelay) {
  const auto comfortable = required_startup_delay(two_path_setup(1.8),
                                                  quick_options());
  const auto tight = required_startup_delay(two_path_setup(1.3),
                                            quick_options());
  ASSERT_TRUE(comfortable.feasible);
  ASSERT_TRUE(tight.feasible);
  EXPECT_GE(tight.tau_s, comfortable.tau_s);
}

TEST(RequiredDelay, InfeasibleWhenMuExceedsCapacity) {
  ComposedParams params;
  params.flows = {path(0.05, 0.2), path(0.05, 0.2)};
  const double sigma =
      TcpFlowChain(params.flows[0]).achievable_throughput_pps();
  params.mu_pps = 2.5 * sigma;  // sigma_a/mu = 0.8: can never keep up
  RequiredDelayOptions options = quick_options();
  options.tau_max_s = 20.0;
  const auto result = required_startup_delay(params, options);
  EXPECT_FALSE(result.feasible);
  EXPECT_GT(result.late_at_tau, 1e-4);
}

TEST(RequiredDelay, ValidatesSearchRange) {
  const auto params = two_path_setup(1.6);
  RequiredDelayOptions options;
  options.grid_s = 0.0;
  EXPECT_THROW(required_startup_delay(params, options), std::invalid_argument);
  options = RequiredDelayOptions{};
  options.tau_max_s = 0.5;
  options.tau_min_s = 1.0;
  EXPECT_THROW(required_startup_delay(params, options), std::invalid_argument);
}

TEST(RequiredDelay, ValidatesBudgetAndTarget) {
  // An empty budget used to return an infeasible NaN estimate; it would
  // now never reach a last checkpoint, so it is rejected up front.
  const auto params = two_path_setup(1.6);
  RequiredDelayOptions options = quick_options();
  options.min_consumptions = 0;
  EXPECT_THROW(required_startup_delay(params, options), std::invalid_argument);
  for (const double target : {0.0, -1e-4,
                              std::numeric_limits<double>::infinity(),
                              std::numeric_limits<double>::quiet_NaN()}) {
    options = quick_options();
    options.target_late_fraction = target;
    EXPECT_THROW(required_startup_delay(params, options),
                 std::invalid_argument)
        << target;
  }
}

}  // namespace
}  // namespace dmp
