// Deterministic pseudo-random number generation for simulations.
//
// xoshiro256** seeded via SplitMix64: fast, high quality, and — unlike
// std::mt19937 + std::*_distribution — bit-identical across standard-library
// implementations, which keeps every experiment reproducible from its seed.
#pragma once

#include <array>
#include <cstdint>

namespace dmp {

class Rng {
 public:
  explicit Rng(std::uint64_t seed);

  // Derive an independent child stream (for per-flow / per-module RNGs).
  Rng fork();

  // Inline: this is the innermost call of every simulation hot loop (DES
  // events, Monte-Carlo transitions), and the call overhead is measurable.
  std::uint64_t next_u64() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  // The 53 random bits behind uniform(): b in [0, 2^53).
  std::uint64_t draw53() { return next_u64() >> 11; }
  // The uniform a 53-bit draw stands for, b * 2^-53 (exact).
  static double unit(std::uint64_t b) {
    return static_cast<double>(b) * 0x1.0p-53;
  }
  // Uniform in [0, 1): 53 random bits.
  double uniform() { return unit(draw53()); }
  // Uniform in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }
  // Uniform integer in [0, n).
  std::uint64_t uniform_int(std::uint64_t n);

  // Exponential with the given mean (> 0).
  double exponential(double mean);

  // Bounded Pareto with shape `alpha` and scale `xm` (minimum value),
  // truncated at `cap` to keep background-traffic object sizes sane.
  double pareto(double alpha, double xm, double cap);

  // Bernoulli trial.
  bool chance(double p) { return uniform() < p; }

  // Sample an index from an unnormalized weight array.
  std::size_t weighted_index(const double* weights, std::size_t n);

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> s_{};
};

}  // namespace dmp
