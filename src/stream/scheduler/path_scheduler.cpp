#include "stream/scheduler/path_scheduler.hpp"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <stdexcept>
#include <utility>

#include "stream/scheduler/strategies.hpp"

namespace dmp {

namespace {

[[noreturn]] void bad_spec(const std::string& message) {
  throw std::invalid_argument{message + " (accepted: " +
                              scheduler_spec_grammar() + ")"};
}

// Strict full-token double parse; "0.5x" and "" are errors.
double parse_weight(const std::string& spec, const std::string& token) {
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(token.c_str(), &end);
  if (end == token.c_str() || *end != '\0' || errno == ERANGE ||
      !std::isfinite(v) || v < 0.0) {
    bad_spec("bad weight '" + token + "' in scheduler spec '" + spec + "'");
  }
  return v;
}

}  // namespace

const char* scheduler_spec_grammar() {
  return "pull, weighted[:w0,w1,...], static[:w0,w1,...], best_path, "
         "round_robin, redundant, parity-<k> for k in [2,32]";
}

SchedulerSpec SchedulerSpec::parse(const std::string& spec) {
  SchedulerSpec out;
  out.text = spec;
  if (spec == "pull") {
    out.strategy = Strategy::kPull;
    return out;
  }
  if (spec == "best_path") {
    out.strategy = Strategy::kBestPath;
    return out;
  }
  if (spec == "round_robin") {
    out.strategy = Strategy::kRoundRobin;
    return out;
  }
  if (spec == "redundant") {
    out.strategy = Strategy::kRedundant;
    return out;
  }
  for (const auto& [name, strategy] :
       {std::pair{std::string("weighted"), Strategy::kWeighted},
        std::pair{std::string("static"), Strategy::kStatic}}) {
    if (spec.rfind(name, 0) != 0) continue;
    if (spec.size() == name.size()) {
      out.strategy = strategy;
      return out;
    }
    if (spec[name.size()] != ':') continue;
    if (spec.size() == name.size() + 1) {
      bad_spec("scheduler spec '" + spec + "' has an empty weight list");
    }
    out.strategy = strategy;
    const std::string rest = spec.substr(name.size() + 1);
    std::size_t start = 0;
    while (true) {
      const std::size_t comma = rest.find(',', start);
      const std::string token =
          rest.substr(start, comma == std::string::npos ? std::string::npos
                                                        : comma - start);
      out.weights.push_back(parse_weight(spec, token));
      if (comma == std::string::npos) break;
      start = comma + 1;
    }
    return out;
  }
  if (spec.rfind("parity-", 0) == 0) {
    const std::string token = spec.substr(7);
    errno = 0;
    char* end = nullptr;
    const long k = std::strtol(token.c_str(), &end, 10);
    if (end == token.c_str() || *end != '\0' || errno == ERANGE) {
      bad_spec("bad parity window '" + token + "' in scheduler spec '" +
               spec + "'");
    }
    if (k < kParityKMin || k > kParityKMax) {
      bad_spec("parity window " + std::to_string(k) + " out of range [" +
               std::to_string(kParityKMin) + ", " +
               std::to_string(kParityKMax) + "]");
    }
    out.strategy = Strategy::kParity;
    out.parity_k = static_cast<int>(k);
    return out;
  }
  bad_spec("unknown scheduler '" + spec + "'");
}

std::unique_ptr<PathScheduler> make_path_scheduler(
    const SchedulerSpec& spec, std::size_t num_paths,
    const std::vector<double>& default_weights) {
  if (num_paths == 0) {
    throw std::invalid_argument{"scheduler needs >= 1 path"};
  }
  switch (spec.strategy) {
    case SchedulerSpec::Strategy::kPull:
      return std::make_unique<PullScheduler>(num_paths);
    case SchedulerSpec::Strategy::kWeighted:
    case SchedulerSpec::Strategy::kStatic: {
      const bool fixed = spec.strategy == SchedulerSpec::Strategy::kStatic;
      std::vector<double> weights = !spec.weights.empty() ? spec.weights
                                    : fixed ? std::vector<double>{}
                                            : default_weights;
      if (!weights.empty() && weights.size() != num_paths) {
        throw std::invalid_argument{
            "scheduler spec '" + spec.text + "' carries " +
            std::to_string(weights.size()) + " weights for " +
            std::to_string(num_paths) + " paths"};
      }
      return std::make_unique<WeightedScheduler>(num_paths,
                                                 std::move(weights), fixed);
    }
    case SchedulerSpec::Strategy::kBestPath:
      return std::make_unique<BestPathScheduler>();
    case SchedulerSpec::Strategy::kRoundRobin:
      return std::make_unique<RoundRobinScheduler>(num_paths);
    case SchedulerSpec::Strategy::kRedundant:
      return std::make_unique<RedundantScheduler>(num_paths);
    case SchedulerSpec::Strategy::kParity:
      return std::make_unique<ParityScheduler>(num_paths, spec.parity_k);
  }
  return nullptr;  // unreachable
}

}  // namespace dmp
