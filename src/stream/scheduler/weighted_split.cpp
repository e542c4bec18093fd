#include "stream/scheduler/weighted_split.hpp"

#include <numeric>
#include <stdexcept>

namespace dmp {

WeightedSplit::WeightedSplit(std::size_t num_paths,
                             std::vector<double> weights) {
  if (num_paths == 0) throw std::invalid_argument{"split needs >= 1 path"};
  if (!weights.empty() && weights.size() != num_paths) {
    throw std::invalid_argument{"weights size must match sender count"};
  }
  if (weights.empty()) weights.assign(num_paths, 1.0);
  const double total = std::accumulate(weights.begin(), weights.end(), 0.0);
  if (total <= 0.0) throw std::invalid_argument{"weights must be positive"};
  for (double w : weights) {
    if (w < 0.0) throw std::invalid_argument{"weights must be non-negative"};
    weights_.push_back(w / total);
  }
  assigned_.assign(num_paths, 0);
}

std::size_t WeightedSplit::assign_among(const std::vector<char>* allowed) {
  // Deficit (weighted) round-robin: packet n goes to the path furthest
  // behind its target share.  The arithmetic is pinned: static-split
  // goldens depend on it bit for bit.
  const double n1 = static_cast<double>(total_ + 1);
  std::size_t best = 0;
  double best_deficit = -1e300;
  bool found = false;
  for (std::size_t k = 0; k < weights_.size(); ++k) {
    if (allowed && !(*allowed)[k]) continue;
    const double deficit = weights_[k] * n1 - static_cast<double>(assigned_[k]);
    if (deficit > best_deficit) {
      best_deficit = deficit;
      best = k;
      found = true;
    }
  }
  if (!found) return assign_among(nullptr);  // every path excluded
  ++assigned_[best];
  ++total_;
  return best;
}

}  // namespace dmp
