// Mergeable streaming quantile sketch (DDSketch-style).
//
// Values are folded into log-spaced buckets: bucket i covers
// (gamma^(i-1), gamma^i] with gamma = (1+alpha)/(1-alpha), so the bucket
// midpoint estimate 2*gamma^i/(gamma+1) is within a factor (1+alpha) of any
// value in the bucket — a *relative* error guarantee of alpha on every
// quantile, independent of the data's scale or distribution.  Negative
// values get a mirrored bucket map; near-zeros collapse into a dedicated
// zero bucket.
//
// Small samples stay exact: until `exact_threshold` values have been seen
// the sketch keeps the raw samples and answers quantiles by sorted
// interpolation (the same formula as `dmp::quantile`), spilling into
// buckets only when the threshold is crossed — so per-replication sketches
// of a handful of scalars lose nothing.
//
// merge() is associative and commutative on the bucketed state, which is
// what makes fleet-scale aggregation work: per-replication sketches merged
// in replication-index order produce the same bytes at any DMP_THREADS
// (the experiment runner consumes results in deterministic order).
// Serialization sorts exact-mode samples, so equal multisets always render
// identically regardless of insertion order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace dmp {
class JsonValue;
}

namespace dmp::obs {

class QuantileSketch {
 public:
  // Default relative-error target: 1% — p99 of a 100 ms delay distribution
  // is reported within ±1 ms.
  static constexpr double kDefaultAlpha = 0.01;
  static constexpr std::size_t kDefaultExactThreshold = 128;

  explicit QuantileSketch(double alpha = kDefaultAlpha,
                          std::size_t exact_threshold = kDefaultExactThreshold);

  // Folds one value in.  Throws on non-finite input: NaN/inf have no
  // log-bucket, and silently dropping them would skew counts.
  void add(double v);

  // Folds `other` in.  Requires matching alpha (bucket bases must agree).
  void merge(const QuantileSketch& other);

  // Quantile estimate for q in [0, 1] (clamped).  Exact (interpolated)
  // below the spill threshold; bucket-midpoint, relative error <= alpha,
  // above it.  Throws on an empty sketch.
  double quantile(double q) const;

  std::size_t count() const { return count_; }
  double sum() const { return sum_; }
  double mean() const;
  // 0 when empty (extrema start at +/-inf internally; see report emitters,
  // which render empty extrema as JSON null instead).
  double min() const;
  double max() const;
  double alpha() const { return alpha_; }
  bool exact_mode() const { return exact_mode_; }

  // Canonical single-line JSON (util/json, 17 significant digits); equal
  // sketch states produce equal bytes.
  std::string to_json() const;
  // Inverse of to_json(), from text or from a document util/json already
  // parsed; throws std::runtime_error on malformed input.
  static QuantileSketch from_json(std::string_view json);
  static QuantileSketch from_json(const JsonValue& doc);

 private:
  void insert_bucketed(double v);
  void spill();  // move exact samples into buckets

  double alpha_;
  double gamma_;
  double inv_log_gamma_;
  std::size_t exact_threshold_;

  bool exact_mode_ = true;
  std::vector<double> exact_;  // raw samples while in exact mode

  // |v| <= kZeroEps counts as zero: the log-bucket index of a true zero is
  // -inf, and values this small are below any simulated timescale.
  static constexpr double kZeroEps = 1e-12;
  std::map<std::int32_t, std::uint64_t> pos_;
  std::map<std::int32_t, std::uint64_t> neg_;
  std::uint64_t zero_ = 0;

  std::size_t count_ = 0;
  double sum_ = 0.0;
  double min_;
  double max_;
};

// One line of a `*_sketches.jsonl` artifact: the sketch's JSON with a
// leading "name" member (SessionTelemetry::write_artifacts).
struct NamedSketch {
  std::string name;
  QuantileSketch sketch;
};

// Reads a `*_sketches.jsonl` artifact; a line without a name reads as "?".
// Throws std::runtime_error naming the 1-based line of a malformed entry.
std::vector<NamedSketch> read_sketches_jsonl(std::istream& in);

}  // namespace dmp::obs
