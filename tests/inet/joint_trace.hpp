// Joint-timeline check for a socket run with a hub on each side: the
// server's and the client's flight recorders are both on the stream clock
// (epoch 0), so the client's arrivals appended to the server's trace form
// one timeline, and the trace analyzer's late fraction on it equals the
// client report's StreamTrace figure exactly, at every startup delay.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>

#include "obs/flight_recorder.hpp"
#include "obs/trace_analyzer.hpp"
#include "stream/trace.hpp"

namespace dmp::inet {

inline void expect_joint_trace_matches(const obs::FlightRecorder& server,
                                       const obs::FlightRecorder& client,
                                       const StreamTrace& trace,
                                       std::int64_t generated) {
  EXPECT_EQ(server.epoch_ns(), 0);
  EXPECT_EQ(client.epoch_ns(), 0);
  EXPECT_EQ(server.mu_pps(), client.mu_pps());
  obs::FlightRecorder joint = server;
  for (const auto& e : client.events()) joint.record(e);
  const obs::TraceAnalyzer analyzer(joint);
  for (const double tau : {0.0, 1e-3, 5e-3, 50e-3, 1.0}) {
    EXPECT_EQ(analyzer.attribute(tau, generated).late_fraction(),
              trace.late_fraction_playback_order(tau, generated))
        << "tau " << tau;
  }
}

}  // namespace dmp::inet
