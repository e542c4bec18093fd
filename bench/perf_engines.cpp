// Engine performance guards (google-benchmark): event-scheduler throughput,
// packet-level simulation speed, per-flow chain construction/solution, and
// the composed Monte-Carlo engine.  Not part of the paper — these keep the
// reproduction pipeline's cost visible and regressions detectable.
#include <benchmark/benchmark.h>

#include "bench_common.hpp"

#include "apps/background.hpp"
#include "model/chain_cache.hpp"
#include "model/composed_chain.hpp"
#include "sim/scheduler.hpp"
#include "stream/session.hpp"

namespace {

using namespace dmp;

ComposedParams composed_setup(int kflows) {
  TcpChainParams flow;
  flow.loss_rate = 0.02;
  flow.rtt_s = 0.2;
  flow.to_ratio = 2.0;
  flow.wmax = 20;
  ComposedParams params;
  params.flows.assign(static_cast<std::size_t>(kflows), flow);
  params.mu_pps = 20.0 * kflows;  // keep sigma_a/mu comparable across K
  params.tau_s = 10.0;
  return params;
}

// Raw scheduler churn: one self-rescheduling timer.
void BM_SchedulerEventChurn(benchmark::State& state) {
  for (auto _ : state) {
    Scheduler sched;
    std::int64_t count = 0;
    std::function<void()> tick = [&] {
      if (++count < 10000) sched.post_after(SimTime::micros(10), tick);
    };
    sched.post_at(SimTime::zero(), tick);
    sched.run();
    benchmark::DoNotOptimize(count);
  }
  bench::set_items_per_iteration(state, 10000);
}
BENCHMARK(BM_SchedulerEventChurn);

void BM_PacketLevelSession(benchmark::State& state) {
  SessionConfig config;
  config.path_configs = {table1_config(4), table1_config(4)};
  config.mu_pps = 50.0;
  config.duration_s = 30.0;
  config.warmup_s = 5.0;
  config.drain_s = 5.0;
  config.seed = 11;
  bench::run_session_arm(state, config);
}
BENCHMARK(BM_PacketLevelSession)->Unit(benchmark::kMillisecond);

// Same session under each AQM discipline — the ratio against the droptail
// arm is the qdisc hot-path cost bench_guard.py rates (the lazy controller
// stepping must not slow the per-packet path measurably).  A drop-tail
// bottleneck runs lazy while an AQM one cannot, so every arm runs on the
// eager reference (every link eager): all four arms run the same eager
// link path and differ only in the discipline.
void BM_PacketLevelSessionQdisc(benchmark::State& state) {
  static const char* const kQdiscs[] = {"droptail", "pie", "fq_pie", "codel"};
  SessionConfig config;
  config.path_configs = {table1_config(4), table1_config(4)};
  config.mu_pps = 50.0;
  config.duration_s = 30.0;
  config.warmup_s = 5.0;
  config.drain_s = 5.0;
  config.seed = 11;
  config.qdisc = kQdiscs[state.range(0)];
  state.SetLabel(config.qdisc);
  bench::run_session_arm(state, config, true);
}
BENCHMARK(BM_PacketLevelSessionQdisc)->DenseRange(0, 3)
    ->Unit(benchmark::kMillisecond);

void BM_TcpChainBuildAndSolve(benchmark::State& state) {
  for (auto _ : state) {
    TcpChainParams params;
    params.loss_rate = 0.02;
    params.rtt_s = 0.2;
    params.to_ratio = 2.0;
    params.wmax = static_cast<int>(state.range(0));
    const TcpFlowChain chain(params);
    benchmark::DoNotOptimize(chain.achievable_throughput_pps());
    state.counters["states"] = static_cast<double>(chain.num_states());
  }
}
BENCHMARK(BM_TcpChainBuildAndSolve)->Arg(12)->Arg(20)->Arg(32)
    ->Unit(benchmark::kMillisecond);

// The Monte-Carlo sampler at K = 1..4 flows (K = 2 is the CI-guarded
// point).  Items are counted consumptions.
void BM_ComposedMonteCarlo(benchmark::State& state) {
  const ComposedParams params = composed_setup(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    DmpModelMonteCarlo mc(params, 5);
    const auto result = mc.run(200'000, 20'000);
    benchmark::DoNotOptimize(result.late_fraction);
  }
  bench::set_items_per_iteration(state, 200'000);
}
BENCHMARK(BM_ComposedMonteCarlo)->Arg(1)->Arg(2)->Arg(3)->Arg(4)
    ->Unit(benchmark::kMillisecond);

// Deterministic sharded estimation: 8 shards on however many cores the
// runner grants (thread count does not change the output, only the time).
void BM_ComposedMonteCarloSharded(benchmark::State& state) {
  const ComposedParams params = composed_setup(2);
  const DmpModelMonteCarlo mc(params, 5);
  for (auto _ : state) {
    const auto result = mc.run_sharded(8, 200'000);
    benchmark::DoNotOptimize(result.late_fraction);
  }
  bench::set_items_per_iteration(state, 8 * 200'000);
}
BENCHMARK(BM_ComposedMonteCarloSharded)->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Stored-video finite-horizon engine; items are consumed video packets.
void BM_StoredVideoMonteCarlo(benchmark::State& state) {
  const ComposedParams params = composed_setup(2);
  constexpr std::int64_t kVideoPackets = 100'000;
  constexpr std::uint64_t kReps = 4;
  for (auto _ : state) {
    const auto result =
        stored_video_late_fraction(params, kVideoPackets, kReps, 7);
    benchmark::DoNotOptimize(result.late_fraction);
  }
  bench::set_items_per_iteration(
      state, static_cast<std::int64_t>(kReps) * kVideoPackets);
}
BENCHMARK(BM_StoredVideoMonteCarlo)->Unit(benchmark::kMillisecond);

// Engine construction against a warm chain cache: after the first
// iteration every probe-style rebuild is a hash lookup, not a BFS + solve.
void BM_ChainCacheConstruction(benchmark::State& state) {
  const ComposedParams params = composed_setup(2);
  for (auto _ : state) {
    DmpModelMonteCarlo mc(params, 5);
    benchmark::DoNotOptimize(&mc);
  }
  state.counters["cache_hits"] =
      static_cast<double>(chain_cache_stats().hits);
}
BENCHMARK(BM_ChainCacheConstruction);

}  // namespace

BENCHMARK_MAIN();
