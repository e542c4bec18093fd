#include "inet/socket_path.hpp"

#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <stdexcept>

namespace dmp::inet {

SocketPath::SocketPath(std::size_t frame_bytes, Stamp stamp)
    : stamp_(std::move(stamp)), frame_(frame_bytes, 0) {
  if (frame_bytes < kFrameHeaderBytes) {
    throw std::invalid_argument{"frame too small"};
  }
}

void SocketPath::attach(Fd fd) {
  if (blocked()) throw std::logic_error{"attach: unreclaimed frame"};
  set_nonblocking(fd);
  fd_ = std::move(fd);
  failed_ = false;
}

void SocketPath::close(bool rst) {
  if (rst && fd_.valid()) {
    linger lg{};
    lg.l_onoff = 1;
    lg.l_linger = 0;
    ::setsockopt(fd_.get(), SOL_SOCKET, SO_LINGER, &lg, sizeof lg);
  }
  fd_.reset();
}

bool SocketPath::enqueue(std::int64_t number) {
  if (space() == 0) return false;
  pending_ = number;
  offset_ = 0;
  encode_frame_header(
      Frame{static_cast<std::uint64_t>(number), stamp_(number)},
      frame_.data());
  flush();
  return true;
}

void SocketPath::on_writable() {
  if (!blocked() || failed_ || !open()) return;
  flush();
  if (!blocked() && space_cb_) space_cb_();
}

void SocketPath::flush() {
  while (offset_ < frame_.size()) {
    const ssize_t n = ::send(fd_.get(), frame_.data() + offset_,
                             frame_.size() - offset_, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno != EAGAIN && errno != EWOULDBLOCK) failed_ = true;
      return;
    }
    offset_ += static_cast<std::size_t>(n);
  }
  ++sent_frames_;
  replay_.push_back(pending_);
  if (replay_.size() > kReplayFrames) replay_.pop_front();
  pending_ = -1;
}

std::vector<std::int64_t> SocketPath::reclaim_unsent() {
  if (!blocked()) return {};
  const std::int64_t number = pending_;
  pending_ = -1;
  offset_ = 0;
  return {number};
}

std::vector<std::int64_t> SocketPath::replay_after(
    std::uint64_t last_seq) const {
  // kFreshHello reads as tag -1, which is never in the window.
  const auto last = std::find(replay_.rbegin(), replay_.rend(),
                              static_cast<std::int64_t>(last_seq));
  return {last == replay_.rend() ? replay_.begin() : last.base(),
          replay_.end()};
}

}  // namespace dmp::inet
