// One DMP path over a real TCP connection: the StreamSender the streaming
// core (DmpStreamingServer) drives, over one nonblocking socket.
//
// A kernel send buffer has no per-packet slots to count, so the path has
// one: space() is 1 while no frame is half-written.  enqueue() encodes the
// frame and writes until the kernel would block (EAGAIN); the unwritten
// tail then waits for POLLOUT, when the poll loop calls on_writable(),
// which flushes it and fires the space callback — where a simulated
// RenoSender fires its callback on an ACK.  A small SO_SNDBUF makes the
// blocking, and with it the scheme's implicit bandwidth inference,
// responsive.  Writes use send(MSG_NOSIGNAL): a peer that closes
// mid-stream surfaces as failed(), never as SIGPIPE.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "inet/framing.hpp"
#include "inet/socket.hpp"
#include "tcp/stream_sender.hpp"

namespace dmp::inet {

class SocketPath final : public StreamSender {
 public:
  // Generation timestamp (monotonic ns) for packet `number`'s frame header.
  using Stamp = std::function<std::uint64_t(std::int64_t number)>;
  // Fully written frames retained for resume replay.
  static constexpr std::size_t kReplayFrames = 4096;

  SocketPath(std::size_t frame_bytes, Stamp stamp);

  // Takes over a connected socket and makes it nonblocking.  A frame left
  // half-written by the previous socket must have been reclaimed.
  void attach(Fd fd);
  // Closes the socket; with `rst`, by a TCP RST (SO_LINGER 0), so the peer
  // sees a hard failure, not a clean EOF.  A half-written frame stays for
  // reclaim_unsent().
  void close(bool rst);

  bool open() const { return fd_.valid(); }
  int fd() const { return fd_.get(); }
  // A write failed hard (the peer is gone); dead until closed.
  bool failed() const { return failed_; }
  // A frame is half-written: the poll loop waits for POLLOUT.
  bool blocked() const { return pending_ >= 0; }
  std::uint64_t sent_frames() const { return sent_frames_; }

  // POLLOUT (or an error) on the socket: writes the unwritten tail and,
  // once the frame is complete, fires the space callback.
  void on_writable();

  // Resume replay: the retained frames written after `last_seq`, oldest
  // first; the whole window when `last_seq` is kFreshHello or not in it.
  std::vector<std::int64_t> replay_after(std::uint64_t last_seq) const;

  // --- StreamSender ---
  std::size_t space() const override {
    return open() && !failed_ && !blocked() ? 1 : 0;
  }
  bool enqueue(std::int64_t number) override;
  void set_space_callback(std::function<void()> cb) override {
    space_cb_ = std::move(cb);
  }
  // The half-written frame, if any.
  std::vector<std::int64_t> reclaim_unsent() override;
  // A socket exposes no per-frame acknowledgement state.
  std::vector<AtRiskSegment> transmitted_unacked() const override {
    return {};
  }
  double srtt_s() const override { return 0.0; }
  std::int64_t oldest_unacked_tag() const override { return -1; }
  std::uint32_t rto_backoff() const override { return 1; }

 private:
  // Writes the pending frame until EAGAIN, completion or a hard error.
  void flush();

  Fd fd_;
  Stamp stamp_;
  std::function<void()> space_cb_;
  std::vector<unsigned char> frame_;  // the encoded pending frame
  std::size_t offset_ = 0;            // bytes of it already written
  std::int64_t pending_ = -1;         // its packet number; -1 = none
  bool failed_ = false;
  std::uint64_t sent_frames_ = 0;
  std::deque<std::int64_t> replay_;  // the newest written frames
};

}  // namespace dmp::inet
