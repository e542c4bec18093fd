#include "model/required_delay.hpp"

#include <cmath>
#include <stdexcept>

#include "util/seed_stream.hpp"

namespace dmp {

namespace {

// Seed-stream domain for per-grid-point probe seeds (kind 16 of the
// registry in exp/plan.hpp; kinds >= 16 are library-internal).  Distinct
// grid points draw from effectively disjoint SplitMix64 streams, unlike
// the old additive `seed + salt` scheme where probe g of one setting
// collided with probe g+1 of a setting seeded one apart.
constexpr std::uint64_t kDelayProbeDomain = 16ull << 32;

struct Probe {
  bool passes = false;  // late fraction at this tau below the target
  double estimate = 0.0;
  std::uint64_t consumptions = 0;  // counted consumptions drawn
};

// One threshold decision at `tau_s`; `grid_index` selects the probe's
// seed-stream element.  A sequential probe that may end once "fail" is
// certain (`stop_at_certain_fail`) reports the same verdict, and the same
// estimate whenever it passes; a failing probe's estimate then covers
// fewer consumptions, so the caller must not report it.
Probe probe_tau(const ComposedParams& base, double tau_s,
                const RequiredDelayOptions& options, std::uint64_t grid_index,
                bool stop_at_certain_fail) {
  ComposedParams params = base;
  params.tau_s = tau_s;
  const std::uint64_t probe_seed =
      SeedStream(options.seed, kDelayProbeDomain).at(grid_index);
  const double target = options.target_late_fraction;

  if (options.shards == 0) {
    DmpModelMonteCarlo mc(params, probe_seed);
    const auto result =
        stop_at_certain_fail
            ? mc.run_until_verdict(target, options.min_consumptions,
                                   options.max_consumptions)
            : mc.run_until_decides(target, options.min_consumptions,
                                   options.max_consumptions);
    // Undecided after the full budget: classify by the point estimate.
    return {result.late_fraction < target, result.late_fraction,
            result.consumptions};
  }

  // Sharded probe: a fresh deterministic estimate per round with the
  // per-shard budget doubling until the CI separates from the target or
  // the total budget is spent.  Every round is a pure function of
  // (probe_seed, shards, budget), so the decision is byte-identical at
  // any thread count.
  const DmpModelMonteCarlo mc(params, probe_seed);
  std::uint64_t per_shard = options.min_consumptions / options.shards;
  if (per_shard == 0) per_shard = 1;
  MonteCarloResult result;
  std::uint64_t drawn = 0;
  for (;;) {
    result = mc.run_sharded(options.shards, per_shard,
                            DmpModelMonteCarlo::kAutoWarmup, options.threads);
    drawn += result.consumptions;
    const bool decided =
        result.ci.hi() < target || result.ci.lo() > target;
    if (decided || result.consumptions >= options.max_consumptions) break;
    per_shard *= 2;
  }
  return {result.late_fraction < target, result.late_fraction, drawn};
}

}  // namespace

RequiredDelayResult required_startup_delay(const ComposedParams& base,
                                           const RequiredDelayOptions& options) {
  if (options.grid_s <= 0.0 || options.tau_min_s <= 0.0 ||
      options.tau_max_s < options.tau_min_s) {
    throw std::invalid_argument{"invalid required-delay search range"};
  }
  if (options.min_consumptions == 0) {
    throw std::invalid_argument{"required delay needs min_consumptions > 0"};
  }
  if (!std::isfinite(options.target_late_fraction) ||
      options.target_late_fraction <= 0.0) {
    throw std::invalid_argument{
        "required delay needs a finite target late fraction > 0"};
  }

  RequiredDelayResult result;
  const auto grid_points = static_cast<std::int64_t>(
      std::floor((options.tau_max_s - options.tau_min_s) / options.grid_s));
  auto tau_at = [&](std::int64_t g) {
    return options.tau_min_s + static_cast<double>(g) * options.grid_s;
  };
  auto probe = [&](std::int64_t g, bool stop_at_certain_fail) {
    ++result.evaluations;
    const Probe p = probe_tau(base, tau_at(g), options,
                              static_cast<std::uint64_t>(g),
                              stop_at_certain_fail);
    result.consumptions += p.consumptions;
    return p;
  };

  // Check feasibility at the top of the range first.  This probe runs its
  // full budget: an infeasible point reports its estimate.
  const Probe top = probe(grid_points, false);
  if (!top.passes) {
    result.feasible = false;
    result.tau_s = tau_at(grid_points);
    result.late_at_tau = top.estimate;
    return result;
  }

  std::int64_t lo = 0, hi = grid_points;  // hi always passes
  double estimate_at_hi = top.estimate;
  // Does the bottom already pass?
  const Probe bottom = probe(0, true);
  if (bottom.passes) {
    result.feasible = true;
    result.tau_s = tau_at(0);
    result.late_at_tau = bottom.estimate;
    return result;
  }

  while (hi - lo > 1) {
    const std::int64_t mid = lo + (hi - lo) / 2;
    const Probe p = probe(mid, true);
    if (p.passes) {
      hi = mid;
      estimate_at_hi = p.estimate;
    } else {
      lo = mid;
    }
  }

  result.feasible = true;
  result.tau_s = tau_at(hi);
  result.late_at_tau = estimate_at_hi;
  return result;
}

}  // namespace dmp
