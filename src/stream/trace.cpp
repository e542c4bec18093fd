#include "stream/trace.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace dmp {

SimTime packet_period(double mu_pps) {
  // Negated so that NaN fails too; 0x1p63 is INT64_MAX + 1 as a double.
  const double ns = 1.0 / mu_pps * 1e9;
  if (!(std::isfinite(mu_pps) && ns >= 1.0 && ns < 0x1p63)) {
    throw std::invalid_argument{"mu must be finite, period in [1, 2^63) ns"};
  }
  return SimTime::seconds(1.0 / mu_pps);
}

StreamTrace::StreamTrace(double mu_pps) : mu_pps_(mu_pps) {
  packet_period(mu_pps);
}

void StreamTrace::record(std::int64_t packet_number, SimTime arrived,
                         std::uint32_t path) {
  entries_.push_back(StreamTraceEntry{packet_number, arrived, path});
}

SimTime StreamTrace::generation_time(std::int64_t n) const {
  return SimTime::seconds(static_cast<double>(n) / mu_pps_);
}

double StreamTrace::late_fraction_playback_order(
    double tau_s, std::int64_t total_packets) const {
  if (total_packets <= 0) return 0.0;
  std::int64_t late = 0;
  std::int64_t seen = 0;
  for (const auto& e : entries_) {
    if (e.packet_number >= total_packets) continue;
    ++seen;
    const SimTime playback =
        generation_time(e.packet_number) + SimTime::seconds(tau_s);
    if (e.arrived > playback) ++late;
  }
  // Generated-but-never-arrived packets missed every playback deadline.
  late += total_packets - seen;
  return static_cast<double>(late) / static_cast<double>(total_packets);
}

double StreamTrace::late_fraction_arrival_order(
    double tau_s, std::int64_t total_packets) const {
  if (total_packets <= 0) return 0.0;
  std::int64_t late = 0;
  std::int64_t played = 0;  // arrival rank doubles as the played-back number
  for (const auto& e : entries_) {
    if (played >= total_packets) break;
    const SimTime playback =
        generation_time(played) + SimTime::seconds(tau_s);
    if (e.arrived > playback) ++late;
    ++played;
  }
  late += total_packets - played;
  return static_cast<double>(late) / static_cast<double>(total_packets);
}

std::vector<double> StreamTrace::path_split(std::size_t num_paths) const {
  std::vector<double> split(num_paths, 0.0);
  if (entries_.empty()) return split;
  for (const auto& e : entries_) {
    if (e.path < num_paths) split[e.path] += 1.0;
  }
  for (auto& s : split) s /= static_cast<double>(entries_.size());
  return split;
}

double StreamTrace::out_of_order_fraction() const {
  if (entries_.empty()) return 0.0;
  std::int64_t out_of_order = 0;
  std::int64_t expected = 0;
  for (const auto& e : entries_) {
    if (e.packet_number != expected) ++out_of_order;
    expected = std::max(expected, e.packet_number) + 1;
  }
  return static_cast<double>(out_of_order) /
         static_cast<double>(entries_.size());
}

}  // namespace dmp
