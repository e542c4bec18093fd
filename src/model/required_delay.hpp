// "Required startup delay": the smallest tau (on a 1-second grid, as the
// paper reports it) for which the stationary late-packet fraction drops
// below a target — f < 1e-4 throughout Section 7.
#pragma once

#include <cstdint>

#include "model/composed_chain.hpp"

namespace dmp {

struct RequiredDelayOptions {
  double target_late_fraction = 1e-4;
  double tau_min_s = 1.0;
  double tau_max_s = 120.0;
  double grid_s = 1.0;  // the paper quotes whole seconds
  // Monte-Carlo evaluation budget per tau.
  std::uint64_t min_consumptions = 400'000;
  std::uint64_t max_consumptions = 6'400'000;
  std::uint64_t seed = 2007;
  // shards > 0 switches each probe to the deterministic sharded estimator
  // (run_sharded: independent trajectories of the one sampler, merged): the
  // estimate is a pure function of (seed, shards, budget), byte-identical at
  // any `threads`.  shards == 0 keeps the sequential probe that the golden
  // pins were recorded against.
  std::uint64_t shards = 0;
  std::size_t threads = 0;  // worker threads for sharded probes; 0 = auto
};

struct RequiredDelayResult {
  double tau_s = 0.0;        // smallest grid tau meeting the target
  bool feasible = false;     // false if even tau_max fails
  double late_at_tau = 0.0;  // estimate at the returned tau
  std::uint64_t evaluations = 0;
  // Counted (post-warm-up) consumptions drawn over all probes.
  std::uint64_t consumptions = 0;
};

// Binary search on the tau grid.  f(tau) is monotone non-increasing (a
// larger startup delay only relaxes deadlines), so bisection is sound;
// each probe is a sequential Monte-Carlo threshold decision.  Sequential
// probes below tau_max end once their "fail" verdict is certain
// (DmpModelMonteCarlo::run_until_verdict), which changes no verdict and no
// reported estimate.  Throws std::invalid_argument on an empty search
// range, min_consumptions == 0, or a target that is not finite and > 0.
RequiredDelayResult required_startup_delay(const ComposedParams& base,
                                           const RequiredDelayOptions& options = {});

}  // namespace dmp
