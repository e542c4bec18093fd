// Streaming client: collects in-order TCP deliveries from the K paths into
// the stream trace.  The client buffer is unbounded (Section 2's assumption
// that modern machines have ample storage), so recording is all it does —
// playback analysis happens on the trace afterwards.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/hub.hpp"
#include "stream/scheduler/redundancy_filter.hpp"
#include "stream/trace.hpp"
#include "tcp/sink.hpp"

namespace dmp {

class StreamClient {
 public:
  // Startup delay of the `.late_indicator` channel: a packet is late when
  // its generation-to-delivery delay exceeds it.
  static constexpr double kLateIndicatorTauS = 4.0;

  // Arrivals are recorded relative to `epoch` (the video's generation
  // start).  `dedup` records exactly once through a RedundancyFilter, for
  // policies that put a packet on the wire more than once.
  StreamClient(double mu_pps, std::size_t num_paths,
               SimTime epoch = SimTime::zero(), bool dedup = false);

  // Wire path k's TCP sink to this client (its deliveries go through
  // deliver); must be called once per path.
  void attach(std::size_t path, TcpSink& sink);

  // One in-order arrival of `tag` on `path` (< num_paths(), unchecked) at
  // `when`, on the clock of `epoch`.  With `dedup`, only the first sight
  // of a data tag (or its parity recovery) is recorded; without it,
  // negative tags are ignored.  The socket client calls it per frame.
  void deliver(std::int64_t tag, SimTime when, std::uint32_t path);

  // Binds the hub under `prefix`: per-path `.path<k>.packets` counters,
  // the generation-to-delivery `.delay_s` histogram and sketch, a kArrive
  // flight span per recorded packet (plus the recorder's stream meta),
  // per-path `.path<k>.delivered` channels (sum/window = pps), and a
  // `.late_indicator` channel whose window mean is the late fraction at
  // kLateIndicatorTauS.  Optional; a no-op when never called.
  void bind(obs::Hub& hub, const std::string& prefix);

  const StreamTrace& trace() const { return trace_; }
  // Moves the trace out once the run is over.
  StreamTrace take_trace() { return std::move(trace_); }
  std::size_t num_paths() const { return num_paths_; }
  // The exactly-once filter (null unless built with `dedup`).
  const RedundancyFilter* filter() const { return filter_.get(); }

 private:
  void record(std::int64_t number, SimTime when, std::uint32_t path);

  StreamTrace trace_;
  std::size_t num_paths_;
  SimTime epoch_;
  std::unique_ptr<RedundancyFilter> filter_;

  std::vector<obs::Counter*> m_packets_;  // per path; empty when unbound
  obs::Histogram* m_delay_ = nullptr;
  obs::FlightRecorder* flight_ = nullptr;
  std::vector<obs::TimeSeriesChannel*> ts_delivered_;  // per path
  obs::TimeSeriesChannel* ts_late_ = nullptr;
  obs::QuantileSketch* delay_sketch_ = nullptr;
};

}  // namespace dmp
