// Deficit weighted round-robin packet-to-path assignment — the static
// multipath split rule (Section 7.4) behind the `static` and `weighted`
// PathSchedulers, so both policies split identically for the same weights.
#pragma once

#include <cstdint>
#include <vector>

namespace dmp {

class WeightedSplit {
 public:
  // `weights` gives the long-run fraction of packets per path (measured
  // average bandwidths in the paper); empty means an even split over
  // `num_paths`.  Throws std::invalid_argument on a negative weight or a
  // non-positive total.
  WeightedSplit(std::size_t num_paths, std::vector<double> weights);

  // Assigns the next packet: the path furthest behind its target share.
  // Equal weights reduce to plain round-robin (odd/even for K = 2);
  // unequal weights interleave proportionally.
  std::size_t assign() { return assign_among(nullptr); }

  // Same deficit rule restricted to paths with allowed[k] != 0 (used under
  // faults: a down path must not accumulate fresh packets).  `allowed`
  // null, or with no allowed entry, falls back to the unrestricted rule.
  std::size_t assign_among(const std::vector<char>* allowed);

  const std::vector<double>& weights() const { return weights_; }
  std::int64_t assigned(std::size_t k) const { return assigned_[k]; }

 private:
  std::vector<double> weights_;         // normalized target fractions
  std::vector<std::int64_t> assigned_;  // packets assigned per path
  std::int64_t total_ = 0;              // packets assigned overall
};

}  // namespace dmp
