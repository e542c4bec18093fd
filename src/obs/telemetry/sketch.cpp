#include "obs/telemetry/sketch.hpp"

#include <algorithm>
#include <cmath>
#include <istream>
#include <limits>
#include <stdexcept>

#include "util/json.hpp"

namespace dmp::obs {

namespace {

double number_of(const JsonValue* v, const char* key) {
  if (v == nullptr || !v->is_number()) {
    throw std::runtime_error{std::string("sketch json: \"") + key +
                             "\" is not a number"};
  }
  return v->number;
}

std::uint64_t count_of(const JsonValue* v, const char* key) {
  const auto i = v == nullptr ? std::nullopt : v->as_int64();
  if (!i || *i < 0) {
    throw std::runtime_error{std::string("sketch json: \"") + key +
                             "\" is not a count"};
  }
  return static_cast<std::uint64_t>(*i);
}

// Parses "[[idx,count],...]" bucket arrays.
std::map<std::int32_t, std::uint64_t> buckets_of(const JsonValue* v) {
  if (v == nullptr || !v->is_array()) {
    throw std::runtime_error{"sketch json: expected bucket array"};
  }
  std::map<std::int32_t, std::uint64_t> out;
  for (const JsonValue& pair : v->array) {
    const auto idx = pair.is_array() && pair.array.size() == 2
                         ? pair.array[0].as_int64()
                         : std::nullopt;
    const auto n = idx ? pair.array[1].as_int64() : std::nullopt;
    if (!n || *n < 0 || *idx < std::numeric_limits<std::int32_t>::min() ||
        *idx > std::numeric_limits<std::int32_t>::max()) {
      throw std::runtime_error{"sketch json: bad bucket pair"};
    }
    out[static_cast<std::int32_t>(*idx)] = static_cast<std::uint64_t>(*n);
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
  // %.17g numbers: the same spelling as BENCH_*.json, and exact on reload.
  std::string out = "{\"type\":\"ddsketch\",\"alpha\":";
  append_json_number(out, alpha_);
  out += ",\"count\":" + std::to_string(count_) + ",\"sum\":";
  append_json_number(out, sum_);
  // An empty sketch's +-inf extrema render as null.
  out += ",\"min\":";
  append_json_number(out, min_);
  out += ",\"max\":";
  append_json_number(out, max_);
  if (exact_mode_) {
    // Sorted so equal multisets serialize identically however they were
    // accumulated or merged.
    std::vector<double> sorted = exact_;
    std::sort(sorted.begin(), sorted.end());
    out += ",\"exact\":[";
    for (std::size_t i = 0; i < sorted.size(); ++i) {
      if (i != 0) out += ',';
      append_json_number(out, sorted[i]);
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
  return from_json(parse_json(json));
}

QuantileSketch QuantileSketch::from_json(const JsonValue& doc) {
  const JsonValue* count = doc.find("count");
  QuantileSketch s{number_of(doc.find("alpha"), "alpha")};
  if (count == nullptr) throw std::runtime_error{"sketch json: missing count"};
  if (const JsonValue* exact = doc.find("exact")) {
    if (!exact->is_array()) {
      throw std::runtime_error{"sketch json: expected array"};
    }
    for (const JsonValue& v : exact->array) s.add(number_of(&v, "exact"));
    return s;
  }
  s.exact_mode_ = false;
  s.zero_ = count_of(doc.find("zero"), "zero");
  s.neg_ = buckets_of(doc.find("neg"));
  s.pos_ = buckets_of(doc.find("pos"));
  s.count_ = static_cast<std::size_t>(count_of(count, "count"));
  s.sum_ = number_of(doc.find("sum"), "sum");
  if (s.count_ > 0) {
    s.min_ = number_of(doc.find("min"), "min");
    s.max_ = number_of(doc.find("max"), "max");
  }
  return s;
}

std::vector<NamedSketch> read_sketches_jsonl(std::istream& in) {
  std::vector<NamedSketch> out;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    try {
      const JsonValue doc = parse_json(line);
      const JsonValue* name = doc.find("name");
      out.push_back(NamedSketch{
          name != nullptr && name->is_string() ? name->text : "?",
          QuantileSketch::from_json(doc)});
    } catch (const std::exception& e) {
      throw std::runtime_error{"sketch line " + std::to_string(line_no) +
                               ": " + e.what()};
    }
  }
  return out;
}

}  // namespace dmp::obs
