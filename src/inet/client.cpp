#include "inet/client.hpp"

#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <optional>
#include <stdexcept>

#include "stream/client.hpp"

namespace dmp::inet {

DmpInetClient::DmpInetClient(ClientConfig config) : config_(config) {
  if (config_.num_paths == 0) throw std::invalid_argument{"need >= 1 path"};
  packet_period(config_.mu_pps);  // throws on a malformed rate
  if (!config_.read_rate_limit_bps.empty() &&
      config_.read_rate_limit_bps.size() != config_.num_paths) {
    throw std::invalid_argument{"one rate limit per path (or none)"};
  }
  config_.read_rate_limit_bps.resize(config_.num_paths);  // none: unthrottled
  for (const double bps : config_.read_rate_limit_bps) {
    if (!(std::isfinite(bps) && bps >= 0.0)) {
      throw std::invalid_argument{"rate limits must be finite and >= 0"};
    }
  }
  if (config_.reconnect_max_retries < 0) {
    throw std::invalid_argument{"reconnect knobs must be >= 0"};
  }
  if (config_.reconnect_backoff_ms <= 0 ||
      config_.reconnect_backoff_cap_ms < config_.reconnect_backoff_ms) {
    throw std::invalid_argument{"backoff must be > 0 and cap >= backoff"};
  }
}

ClientReport DmpInetClient::run() {
  struct Path {
    Fd fd;
    FrameParser parser{kDefaultFrameBytes};
    bool open = true;        // still part of the run
    bool done = false;       // end-of-stream sentinel seen
    std::uint64_t last_seq = kFreshHello;  // newest frame number on the path
    int retries_left = 0;
    int backoff_ms = 0;
    std::uint64_t next_attempt_ns = 0;
    double budget_bytes = 0.0;  // token bucket for the optional throttle
    std::uint64_t last_refill_ns = 0;
    std::uint64_t received = 0;
  };

  // Connects path k and sends the hello declaring the path index and the
  // resume point (kFreshHello on the first connect); a live socket (a
  // valid fd) starts with a fresh parser, throttle budget and outage budget.
  const auto connect = [this](Path& path, std::size_t k) {
    Fd fd = connect_to(config_.server_ip, config_.port);
    unsigned char hello[kHelloBytes];
    encode_hello(Hello{static_cast<std::uint64_t>(k), path.last_seq}, hello);
    std::size_t off = 0;
    while (off < kHelloBytes) {
      const ssize_t n = ::write(fd.get(), hello + off, kHelloBytes - off);
      if (n < 0) throw std::runtime_error{"hello write failed"};
      off += static_cast<std::size_t>(n);
    }
    set_nonblocking(fd);
    path.fd = std::move(fd);
    path.parser = FrameParser(config_.frame_bytes);
    path.budget_bytes = 0.0;
    path.last_refill_ns = monotonic_ns();
    path.retries_left = config_.reconnect_max_retries;
    path.backoff_ms = config_.reconnect_backoff_ms;
  };

  std::vector<Path> paths(config_.num_paths);
  for (std::size_t k = 0; k < paths.size(); ++k) connect(paths[k], k);
  const std::vector<double>& rate_bps = config_.read_rate_limit_bps;

  // The simulator's client core records every fresh arrival, on the stream
  // clock (ns since the server's generation epoch t0) so its trace lines up
  // with the server's.  Its filter drops frames replayed after a reconnect.
  StreamClient client(config_.mu_pps, config_.num_paths, SimTime::zero(),
                      /*dedup=*/true);
  if (config_.obs) client.bind(*config_.obs, "client");
  const double period_ns = 1e9 / config_.mu_pps;
  std::optional<std::uint64_t> t0;  // recovered from the first frame
  std::uint64_t newest = 0;  // highest frame number received on any path
  std::uint64_t reconnects = 0;
  std::size_t open_paths = paths.size();

  // A connection died before delivering the sentinel, or a reconnect
  // failed: retry after the backoff if budget remains, else give up.
  const auto path_dead = [&](Path& path, std::uint64_t now) {
    path.fd.reset();
    if (path.done || path.retries_left <= 0) {
      path.open = false;
      --open_paths;
      return;
    }
    path.next_attempt_ns =
        now + static_cast<std::uint64_t>(path.backoff_ms) * 1'000'000ull;
  };

  std::vector<pollfd> pfds(paths.size());
  std::vector<unsigned char> buffer(64 * 1024);
  while (open_paths > 0) {
    const std::uint64_t loop_now = monotonic_ns();
    int timeout_ms = -1;
    for (std::size_t k = 0; k < paths.size(); ++k) {
      pfds[k] = pollfd{paths[k].fd.get(), POLLIN, 0};
      if (!paths[k].open) continue;
      if (!paths[k].fd.valid()) {
        // Wake for the next reconnect attempt.
        const std::uint64_t at = paths[k].next_attempt_ns;
        const int ms =
            at > loop_now ? static_cast<int>((at - loop_now) / 1'000'000) + 1
                          : 0;
        timeout_ms = timeout_ms < 0 ? ms : std::min(timeout_ms, ms);
        continue;
      }
      // Throttled paths with an exhausted budget wait for a refill instead
      // of reading.
      if (rate_bps[k] > 0.0 && paths[k].budget_bytes < 1.0) {
        pfds[k].fd = -1;
        timeout_ms = timeout_ms < 0 ? 2 : std::min(timeout_ms, 2);
      }
    }
    const int ready = ::poll(pfds.data(), pfds.size(), timeout_ms);
    if (ready < 0 && errno != EINTR) {
      throw std::runtime_error{std::string{"poll: "} + std::strerror(errno)};
    }

    for (std::size_t k = 0; k < paths.size(); ++k) {
      auto& path = paths[k];
      if (!path.open) continue;
      const std::uint64_t now = monotonic_ns();

      if (!path.fd.valid()) {
        if (now < path.next_attempt_ns) continue;
        --path.retries_left;
        try {
          connect(path, k);  // a successful resume refreshes the budget
          ++reconnects;
        } catch (const std::exception&) {
          path.backoff_ms = std::min(path.backoff_ms * 2,
                                     config_.reconnect_backoff_cap_ms);
          path_dead(path, now);
        }
        continue;
      }

      std::size_t limit = buffer.size();
      if (rate_bps[k] > 0.0) {
        path.budget_bytes +=
            rate_bps[k] / 8.0 *
            (static_cast<double>(now - path.last_refill_ns) * 1e-9);
        path.budget_bytes = std::min(
            path.budget_bytes, 8.0 * static_cast<double>(config_.frame_bytes));
        path.last_refill_ns = now;
        limit = static_cast<std::size_t>(path.budget_bytes);
        if (limit == 0) continue;
      } else if ((pfds[k].revents & (POLLIN | POLLHUP | POLLERR)) == 0) {
        continue;
      }

      const ssize_t n = ::read(path.fd.get(), buffer.data(),
                               std::min(limit, buffer.size()));
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) continue;
        if (errno == ECONNRESET || errno == EPIPE || errno == ETIMEDOUT) {
          path_dead(path, now);
          continue;
        }
        throw std::runtime_error{std::string{"read: "} + std::strerror(errno)};
      }
      if (n == 0) {
        path_dead(path, now);
        continue;
      }
      if (rate_bps[k] > 0.0) path.budget_bytes -= static_cast<double>(n);
      const auto path32 = static_cast<std::uint32_t>(k);
      path.parser.feed(
          buffer.data(), static_cast<std::size_t>(n), [&](const Frame& frame) {
            if (frame.packet_number == kEndOfStream) {
              path.done = true;
              return;
            }
            if (frame.packet_number > newest + kMaxFrameLead) {
              throw std::runtime_error{
                  "path " + std::to_string(k) + ": frame number " +
                  std::to_string(frame.packet_number) + " is more than " +
                  std::to_string(kMaxFrameLead) + " past the newest frame"};
            }
            newest = std::max(newest, frame.packet_number);
            path.last_seq = frame.packet_number;
            ++path.received;
            // Packet n was generated at t0 + n/mu, so any frame recovers t0.
            if (!t0) {
              t0 = frame.generated_ns -
                   static_cast<std::uint64_t>(std::llround(
                       static_cast<double>(frame.packet_number) * period_ns));
            }
            // 2^62 ns (146 years) off the client's clock: a corrupt stamp,
            // which would overflow the core's delay arithmetic.
            const auto arrival = static_cast<std::int64_t>(now - *t0);
            if (arrival < -(std::int64_t{1} << 62) ||
                arrival > std::int64_t{1} << 62) {
              throw std::runtime_error{
                  "path " + std::to_string(k) +
                  ": generation stamp is centuries off the client's clock"};
            }
            client.deliver(static_cast<std::int64_t>(frame.packet_number),
                           SimTime::nanos(arrival), path32);
          });
    }
  }

  ClientReport report;
  report.trace = client.take_trace();
  report.frames_received = static_cast<std::int64_t>(report.trace.arrivals());
  for (const auto& path : paths) {
    report.received_per_path.push_back(path.received);
  }
  report.reconnects = reconnects;
  report.duplicate_frames = client.filter()->counters().duplicates_suppressed;
  return report;
}

}  // namespace dmp::inet
