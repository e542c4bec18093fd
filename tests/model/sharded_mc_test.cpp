// Deterministic sharded Monte-Carlo estimation: run_sharded must be a pure
// function of (params, seed, shards, budget) — byte-identical at any worker
// thread count — and required_startup_delay with sharded probes must carry
// that invariance through the bisection.
#include <gtest/gtest.h>

#include <cstring>

#include "model/composed_chain.hpp"
#include "model/required_delay.hpp"
#include "util/seed_stream.hpp"

namespace dmp {
namespace {

TcpChainParams tiny_flow() {
  TcpChainParams p;
  p.loss_rate = 0.05;
  p.rtt_s = 0.2;
  p.to_ratio = 2.0;
  p.wmax = 6;
  p.max_backoff = 3;
  return p;
}

ComposedParams two_flows() {
  ComposedParams params;
  params.flows = {tiny_flow(), tiny_flow()};
  params.mu_pps = 30.0;
  params.tau_s = 0.4;
  return params;
}

// Bit-level equality: "same estimate up to rounding" is not the contract —
// the merged result must be the identical bytes at any thread count.
void expect_identical(const MonteCarloResult& a, const MonteCarloResult& b) {
  EXPECT_EQ(std::memcmp(&a.late_fraction, &b.late_fraction, sizeof(double)),
            0);
  EXPECT_EQ(a.consumptions, b.consumptions);
  EXPECT_EQ(a.late, b.late);
  EXPECT_EQ(std::memcmp(&a.ci.mean, &b.ci.mean, sizeof(double)), 0);
  EXPECT_EQ(
      std::memcmp(&a.ci.half_width, &b.ci.half_width, sizeof(double)), 0);
  EXPECT_EQ(std::memcmp(&a.mean_early_packets, &b.mean_early_packets,
                        sizeof(double)),
            0);
  ASSERT_EQ(a.flow_share.size(), b.flow_share.size());
  for (std::size_t k = 0; k < a.flow_share.size(); ++k) {
    EXPECT_EQ(
        std::memcmp(&a.flow_share[k], &b.flow_share[k], sizeof(double)), 0);
  }
}

TEST(ShardedMonteCarlo, ByteIdenticalAcrossThreadCounts) {
  const DmpModelMonteCarlo mc(two_flows(), 41);
  const auto one = mc.run_sharded(6, 50'000, 5'000, /*threads=*/1);
  const auto two = mc.run_sharded(6, 50'000, 5'000, /*threads=*/2);
  const auto eight = mc.run_sharded(6, 50'000, 5'000, /*threads=*/8);
  expect_identical(one, two);
  expect_identical(one, eight);
}

TEST(ShardedMonteCarlo, OneShardIsASequentialCompatRun) {
  // A shard is a fresh engine seeded from the shard stream (kind 17), so
  // one shard is one sequential run with that seed, bit for bit.
  const DmpModelMonteCarlo mc(two_flows(), 41);
  const auto sharded = mc.run_sharded(1, 60'000, 6'000, /*threads=*/2);
  DmpModelMonteCarlo sequential(two_flows(),
                                SeedStream(41, 17ull << 32).at(0));
  const auto run = sequential.run(60'000, 6'000);
  EXPECT_EQ(sharded.late, run.late);
  EXPECT_EQ(sharded.consumptions, run.consumptions);
  EXPECT_EQ(std::memcmp(&sharded.late_fraction, &run.late_fraction,
                        sizeof(double)),
            0);
  EXPECT_EQ(std::memcmp(&sharded.mean_early_packets, &run.mean_early_packets,
                        sizeof(double)),
            0);
  ASSERT_EQ(sharded.flow_share.size(), run.flow_share.size());
  for (std::size_t k = 0; k < run.flow_share.size(); ++k) {
    EXPECT_EQ(std::memcmp(&sharded.flow_share[k], &run.flow_share[k],
                          sizeof(double)),
              0);
  }
}

TEST(ShardedMonteCarlo, MergesAllShardBudgets) {
  const DmpModelMonteCarlo mc(two_flows(), 41);
  const auto result = mc.run_sharded(5, 40'000, 4'000);
  EXPECT_EQ(result.consumptions, 5u * 40'000u);
  EXPECT_GT(result.late, 0u);
  EXPECT_LT(result.late_fraction, 1.0);
  double share = 0.0;
  for (double s : result.flow_share) share += s;
  EXPECT_NEAR(share, 1.0, 1e-12);
}

TEST(ShardedMonteCarlo, SeedSelectsTheEstimate) {
  const DmpModelMonteCarlo a(two_flows(), 41);
  const DmpModelMonteCarlo b(two_flows(), 42);
  const auto ra = a.run_sharded(4, 40'000);
  const auto rb = b.run_sharded(4, 40'000);
  EXPECT_NE(ra.late, rb.late);  // different shard streams
  EXPECT_NEAR(ra.late_fraction, rb.late_fraction, 0.05);  // same chain
}

TEST(ShardedMonteCarlo, DoesNotPerturbTheEngineTrajectory) {
  // run_sharded is const: a sequential run after it must match a run on a
  // fresh engine with the same seed.
  DmpModelMonteCarlo probed(two_flows(), 77);
  (void)probed.run_sharded(3, 20'000);
  const auto after = probed.run(100'000, 10'000);
  DmpModelMonteCarlo fresh(two_flows(), 77);
  const auto baseline = fresh.run(100'000, 10'000);
  expect_identical(after, baseline);
}

TEST(ShardedMonteCarlo, ValidatesArguments) {
  const DmpModelMonteCarlo mc(two_flows(), 1);
  EXPECT_THROW(mc.run_sharded(0, 1000), std::invalid_argument);
  EXPECT_THROW(mc.run_sharded(4, 0), std::invalid_argument);
}

TEST(RequiredDelaySharded, TauInvariantAcrossThreadCounts) {
  ComposedParams base = two_flows();
  RequiredDelayOptions options;
  options.target_late_fraction = 1e-2;
  options.tau_min_s = 1.0;
  options.tau_max_s = 16.0;
  options.min_consumptions = 40'000;
  options.max_consumptions = 320'000;
  options.seed = 9;
  options.shards = 4;

  options.threads = 1;
  const auto serial = required_startup_delay(base, options);
  options.threads = 3;
  const auto threaded = required_startup_delay(base, options);

  EXPECT_EQ(serial.tau_s, threaded.tau_s);
  EXPECT_EQ(serial.feasible, threaded.feasible);
  EXPECT_EQ(std::memcmp(&serial.late_at_tau, &threaded.late_at_tau,
                        sizeof(double)),
            0);
  EXPECT_EQ(serial.evaluations, threaded.evaluations);
}

}  // namespace
}  // namespace dmp
