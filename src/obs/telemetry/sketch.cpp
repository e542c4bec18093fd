#include "obs/telemetry/sketch.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>

namespace dmp::obs {

namespace {

// Canonical number rendering, identical to the report emitters' "%.17g"
// (shortest round-trip-safe form was considered; %.17g keeps the sketch
// files byte-compatible with BENCH_*.json numbers).
std::string num(double v) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", v);
  return buffer;
}

// --- minimal scanning parser (same idiom as obs/trace_analyzer) ---------

// Finds `"key":` at top level of a single-line JSON object and returns the
// offset just past the colon, or npos.
std::size_t find_key(std::string_view s, std::string_view key) {
  std::string pat = "\"";
  pat.append(key).append("\":");
  const auto at = s.find(pat);
  return at == std::string_view::npos ? std::string_view::npos
                                      : at + pat.size();
}

double parse_number_at(std::string_view s, std::size_t at) {
  return std::strtod(std::string(s.substr(at, 64)).c_str(), nullptr);
}

// Parses a JSON array of numbers starting at `at` (which must point at
// '['); returns the values and leaves malformed input to the caller.
std::vector<double> parse_number_array(std::string_view s, std::size_t at) {
  std::vector<double> out;
  if (at >= s.size() || s[at] != '[') {
    throw std::runtime_error{"sketch json: expected array"};
  }
  std::size_t i = at + 1;
  while (i < s.size() && s[i] != ']') {
    char* end = nullptr;
    const std::string chunk{s.substr(i, 64)};
    const double v = std::strtod(chunk.c_str(), &end);
    if (end == chunk.c_str()) {
      throw std::runtime_error{"sketch json: bad array element"};
    }
    out.push_back(v);
    i += static_cast<std::size_t>(end - chunk.c_str());
    if (i < s.size() && s[i] == ',') ++i;
  }
  if (i >= s.size()) throw std::runtime_error{"sketch json: unterminated array"};
  return out;
}

// Parses "[[idx,count],...]" bucket arrays.
std::map<std::int32_t, std::uint64_t> parse_bucket_array(std::string_view s,
                                                         std::size_t at) {
  std::map<std::int32_t, std::uint64_t> out;
  if (at >= s.size() || s[at] != '[') {
    throw std::runtime_error{"sketch json: expected bucket array"};
  }
  std::size_t i = at + 1;
  while (i < s.size() && s[i] != ']') {
    if (s[i] != '[') throw std::runtime_error{"sketch json: bad bucket pair"};
    const auto pair = parse_number_array(s, i);
    if (pair.size() != 2) {
      throw std::runtime_error{"sketch json: bucket pair arity"};
    }
    out[static_cast<std::int32_t>(pair[0])] =
        static_cast<std::uint64_t>(pair[1]);
    i = s.find(']', i);
    if (i == std::string_view::npos) {
      throw std::runtime_error{"sketch json: unterminated bucket pair"};
    }
    ++i;
    if (i < s.size() && s[i] == ',') ++i;
  }
  if (i >= s.size()) {
    throw std::runtime_error{"sketch json: unterminated bucket array"};
  }
  return out;
}

}  // namespace

QuantileSketch::QuantileSketch(double alpha, std::size_t exact_threshold)
    : alpha_(alpha),
      gamma_((1.0 + alpha) / (1.0 - alpha)),
      inv_log_gamma_(1.0 / std::log((1.0 + alpha) / (1.0 - alpha))),
      exact_threshold_(exact_threshold),
      min_(std::numeric_limits<double>::infinity()),
      max_(-std::numeric_limits<double>::infinity()) {
  if (!(alpha > 0.0) || !(alpha < 1.0)) {
    throw std::invalid_argument{"sketch alpha must be in (0, 1)"};
  }
}

void QuantileSketch::add(double v) {
  if (!std::isfinite(v)) {
    throw std::invalid_argument{"sketch add: non-finite value"};
  }
  ++count_;
  sum_ += v;
  min_ = std::min(min_, v);
  max_ = std::max(max_, v);
  if (exact_mode_) {
    if (exact_.size() < exact_threshold_) {
      exact_.push_back(v);
      return;
    }
    spill();
  }
  insert_bucketed(v);
}

void QuantileSketch::insert_bucketed(double v) {
  const double mag = std::fabs(v);
  if (mag <= kZeroEps) {
    ++zero_;
    return;
  }
  const auto idx =
      static_cast<std::int32_t>(std::ceil(std::log(mag) * inv_log_gamma_));
  (v > 0.0 ? pos_ : neg_)[idx] += 1;
}

void QuantileSketch::spill() {
  exact_mode_ = false;
  for (double v : exact_) insert_bucketed(v);
  exact_.clear();
  exact_.shrink_to_fit();
}

void QuantileSketch::merge(const QuantileSketch& other) {
  if (other.count_ == 0) return;
  if (alpha_ != other.alpha_) {
    throw std::invalid_argument{"sketch merge: alpha mismatch"};
  }
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  if (exact_mode_ && other.exact_mode_ &&
      exact_.size() + other.exact_.size() <= exact_threshold_) {
    exact_.insert(exact_.end(), other.exact_.begin(), other.exact_.end());
    return;
  }
  if (exact_mode_) spill();
  if (other.exact_mode_) {
    for (double v : other.exact_) insert_bucketed(v);
  } else {
    for (const auto& [idx, n] : other.pos_) pos_[idx] += n;
    for (const auto& [idx, n] : other.neg_) neg_[idx] += n;
    zero_ += other.zero_;
  }
}

double QuantileSketch::mean() const {
  return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
}

double QuantileSketch::min() const { return count_ == 0 ? 0.0 : min_; }

double QuantileSketch::max() const { return count_ == 0 ? 0.0 : max_; }

double QuantileSketch::quantile(double q) const {
  if (count_ == 0) throw std::logic_error{"quantile of empty sketch"};
  q = std::clamp(q, 0.0, 1.0);
  if (exact_mode_) {
    std::vector<double> sorted = exact_;
    std::sort(sorted.begin(), sorted.end());
    const double pos = q * static_cast<double>(sorted.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
  }
  // Ascending value order: negatives from most-negative (largest |v|, so
  // largest bucket index) down, then the zero bucket, then positives up.
  const double rank = q * static_cast<double>(count_ - 1);
  std::uint64_t cum = 0;
  for (auto it = neg_.rbegin(); it != neg_.rend(); ++it) {
    cum += it->second;
    if (static_cast<double>(cum) > rank) {
      return -2.0 * std::pow(gamma_, it->first) / (gamma_ + 1.0);
    }
  }
  cum += zero_;
  if (static_cast<double>(cum) > rank) return 0.0;
  for (const auto& [idx, n] : pos_) {
    cum += n;
    if (static_cast<double>(cum) > rank) {
      return 2.0 * std::pow(gamma_, idx) / (gamma_ + 1.0);
    }
  }
  return max_;  // unreachable unless counts desynced; max is the safe answer
}

std::string QuantileSketch::to_json() const {
  std::string out = "{\"type\":\"ddsketch\",\"alpha\":" + num(alpha_) +
                    ",\"count\":" + std::to_string(count_) +
                    ",\"sum\":" + num(sum_);
  out += ",\"min\":" + (count_ == 0 ? std::string("null") : num(min_));
  out += ",\"max\":" + (count_ == 0 ? std::string("null") : num(max_));
  if (exact_mode_) {
    // Sorted so equal multisets serialize identically however they were
    // accumulated or merged.
    std::vector<double> sorted = exact_;
    std::sort(sorted.begin(), sorted.end());
    out += ",\"exact\":[";
    for (std::size_t i = 0; i < sorted.size(); ++i) {
      if (i != 0) out += ',';
      out += num(sorted[i]);
    }
    out += ']';
  } else {
    out += ",\"zero\":" + std::to_string(zero_);
    const auto buckets = [&out](const char* key,
                                const std::map<std::int32_t, std::uint64_t>&
                                    m) {
      out += ",\"";
      out += key;
      out += "\":[";
      bool first = true;
      for (const auto& [idx, n] : m) {
        if (!first) out += ',';
        first = false;
        out += '[' + std::to_string(idx) + ',' + std::to_string(n) + ']';
      }
      out += ']';
    };
    buckets("neg", neg_);
    buckets("pos", pos_);
  }
  out += '}';
  return out;
}

QuantileSketch QuantileSketch::from_json(std::string_view json) {
  const auto alpha_at = find_key(json, "alpha");
  const auto count_at = find_key(json, "count");
  if (alpha_at == std::string_view::npos ||
      count_at == std::string_view::npos) {
    throw std::runtime_error{"sketch json: missing alpha/count"};
  }
  QuantileSketch s{parse_number_at(json, alpha_at)};
  const auto exact_at = find_key(json, "exact");
  if (exact_at != std::string_view::npos) {
    for (double v : parse_number_array(json, exact_at)) s.add(v);
    return s;
  }
  const auto zero_at = find_key(json, "zero");
  const auto neg_at = find_key(json, "neg");
  const auto pos_at = find_key(json, "pos");
  const auto sum_at = find_key(json, "sum");
  const auto min_at = find_key(json, "min");
  const auto max_at = find_key(json, "max");
  if (zero_at == std::string_view::npos || neg_at == std::string_view::npos ||
      pos_at == std::string_view::npos || sum_at == std::string_view::npos) {
    throw std::runtime_error{"sketch json: missing bucket fields"};
  }
  s.exact_mode_ = false;
  s.zero_ = static_cast<std::uint64_t>(parse_number_at(json, zero_at));
  s.neg_ = parse_bucket_array(json, neg_at);
  s.pos_ = parse_bucket_array(json, pos_at);
  s.count_ = static_cast<std::size_t>(parse_number_at(json, count_at));
  s.sum_ = parse_number_at(json, sum_at);
  if (s.count_ > 0) {
    s.min_ = parse_number_at(json, min_at);
    s.max_ = parse_number_at(json, max_at);
  }
  return s;
}

}  // namespace dmp::obs
