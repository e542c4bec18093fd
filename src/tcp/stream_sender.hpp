// What the streaming core (DmpStreamingServer) sees of one path's sender:
// send-buffer space and a callback when it frees up, plus the failover
// introspection the path schedulers read.  RenoSender implements it over
// the simulated TCP and inet::SocketPath over a real socket, so the
// simulator and the socket server run one core.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "util/sim_time.hpp"

namespace dmp {

class StreamSender {
 public:
  // The core keeps each sender's address (and its callbacks capture it).
  StreamSender() = default;
  StreamSender(const StreamSender&) = delete;
  StreamSender& operator=(const StreamSender&) = delete;
  virtual ~StreamSender() = default;

  // Free send-buffer slots.
  virtual std::size_t space() const = 0;
  // Appends one packet carrying `app_tag`; returns false when the buffer
  // is full.
  virtual bool enqueue(std::int64_t app_tag) = 0;
  // Invoked whenever buffer space frees up; the callback may enqueue().
  virtual void set_space_callback(std::function<void()> cb) = 0;

  // Removes every packet that has never been transmitted and returns
  // their tags in enqueue order.  On a path failure the server puts them
  // back at the head of the shared queue, so surviving paths carry them.
  virtual std::vector<std::int64_t> reclaim_unsent() = 0;

  // One transmitted-but-unacknowledged packet.  `last_sent` separates
  // packets that may be caught in a blackhole (sent within ~one RTT of a
  // fault) from older ones that were delivered and merely lost their ACK.
  struct AtRiskSegment {
    std::int64_t app_tag = -1;
    SimTime last_sent = SimTime::zero();
  };
  // Every packet transmitted at least once and not yet acknowledged, in
  // sequence order: the at-risk set when the path fails, which a redundant
  // failover policy may re-send on surviving paths (the client dedups).
  // Empty when the transport does not expose it.
  virtual std::vector<AtRiskSegment> transmitted_unacked() const = 0;

  // Smoothed RTT in seconds, 0 until known (RTT-aware policies).
  virtual double srtt_s() const = 0;
  // Tag of the oldest transmitted-but-unacked packet, or -1 when none is
  // outstanding (redundancy policies duplicate it).
  virtual std::int64_t oldest_unacked_tag() const = 0;
  // Retransmission-timer backoff multiplier (1 = no backoff).
  virtual std::uint32_t rto_backoff() const = 0;
};

}  // namespace dmp
