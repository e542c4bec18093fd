// The benchmark's three workloads.  Each is a closed batch: a fixed set of
// work items, made from the seed, runs to completion.  One call to
// run_pass() runs the batch once and returns its outputs (compared bit for
// bit across passes and against the pinned reference), its timings and the
// per-layer counts it observed.  See METRICS.md for why each workload
// exists and which layers it stresses.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/profiler.hpp"
#include "stats.hpp"

namespace perfbench {

const std::vector<std::string>& workload_names();

// Seconds on the benchmark's steady clock (arbitrary fixed epoch).
double now_s();

struct PassConfig {
  // Traced: the DES profiler (counts + wall time) and obs counters are on.
  bool traced = false;
  // 0 = the workload's own worker count.
  std::size_t workers = 0;
  // When >= 0, set-up is timed from here (the process start) instead of
  // from the start of the pass.
  double started_at_s = -1.0;
  // A set-up probe: the pass plans its items, starts the runner and stops
  // where the first item would start.  Only setup_s is filled in.
  bool setup_only = false;
  // Where traced passes write obs artifacts (inside the checkout).
  std::string obs_dir = ".bench_build/obs";
};

// One output row: a label and the values compared bit for bit.
struct Output {
  std::string label;
  std::vector<double> values;
};

// Per-layer work observed in one pass.  Session counts cover simulated
// video sessions only (a backlogged probe exposes no event count).
struct LayerCounts {
  std::uint64_t sessions = 0;
  std::uint64_t events = 0;  // events executed, summed over sessions
  std::array<std::uint64_t, dmp::kNumEventCategories> category_events{};
  std::array<std::uint64_t, dmp::kNumEventCategories> category_wall_ns{};
  double sim_s = 0.0;          // simulated seconds, sessions + probes
  double des_wall_s = 0.0;     // wall in run_session + probe calls
  double session_wall_s = 0.0; // wall in run_session calls alone
  double loss_rate_sum = 0.0;  // video-flow PathMeasurement::loss_rate
  std::uint64_t loss_rate_n = 0;
  std::uint64_t data_packets_sent = 0;  // video flows
  std::uint64_t retransmissions = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t video_acks = 0;
  std::uint64_t generated = 0;
  std::uint64_t duplicates_sent = 0;
  std::uint64_t parity_sent = 0;
  std::uint64_t duplicates_suppressed = 0;
  std::uint64_t fault_events = 0;
  std::uint64_t trace_records = 0;
  // From obs counters (traced passes only): every flow at the forward
  // bottlenecks, and the deepest event queue seen.
  std::uint64_t bottleneck_arrivals = 0;
  std::uint64_t bottleneck_delivered = 0;
  std::uint64_t max_events_pending = 0;
  // Model engines.
  std::uint64_t mc_consumptions = 0;  // counted by the benchmark's MC calls
  double mc_wall_s = 0.0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
};

struct PassResult {
  // Raw times, calibration slices included.  reference_times() below
  // restates them for the reference host.
  double setup_s = 0.0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::size_t workers = 1;
  std::vector<ItemTiming> items;  // work items (sessions, probes, points)
  // Every calibration slice (host_speed.hpp) the pass ran: one before each
  // work item and each model-curve point, on the thread that runs it.
  std::vector<double> host_slices_s;
  RunnerStats runner{};           // over the item batch
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> errors;
  std::vector<Output> outputs;
  LayerCounts counts{};
  // Span self time per phase, in worker-seconds.
  double phase_probe_s = 0.0;
  double phase_session_s = 0.0;
  double phase_model_s = 0.0;
  double phase_analysis_s = 0.0;
  // Cold build + solve of each distinct chain the workload's model uses
  // (traced passes only; empty when the workload has no model).
  std::vector<double> chain_build_ms;
};

// A pass's times in reference seconds (stats.hpp): the calibration slices
// are taken out, and what is left is scaled by the pass's mean slice.
struct ReferenceTimes {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double setup_s = 0.0;
  std::vector<double> item_ms;  // each item by the slice run just before it
};
ReferenceTimes reference_times(const PassResult& pass);

// The mean of `slices` calibration slices run now on the calling thread.
double host_slice_s(std::size_t slices);

// Throws std::invalid_argument for an unknown workload name.
PassResult run_pass(const std::string& workload, std::uint64_t seed,
                    const PassConfig& config);

}  // namespace perfbench
