#include "inet/client.hpp"

#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "stream/scheduler/redundancy_filter.hpp"

namespace dmp::inet {

DmpInetClient::DmpInetClient(ClientConfig config) : config_(config) {
  if (config_.num_paths == 0) throw std::invalid_argument{"need >= 1 path"};
  if (config_.mu_pps <= 0.0) throw std::invalid_argument{"mu must be > 0"};
  if (!config_.read_rate_limit_bps.empty() &&
      config_.read_rate_limit_bps.size() != config_.num_paths) {
    throw std::invalid_argument{"one rate limit per path (or none)"};
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
    bool connected = false;  // has a live socket
    bool done = false;       // end-of-stream sentinel seen
    std::uint64_t last_seq = kFreshHello;  // newest frame number on the path
    int retries_left = 0;
    int backoff_ms = 0;
    std::uint64_t next_attempt_ns = 0;
    double budget_bytes = 0.0;  // token bucket for the optional throttle
    std::uint64_t last_refill_ns = 0;
    std::uint64_t received = 0;
  };

  obs::Hub* hub = config_.obs;
  std::vector<obs::Counter*> m_frames;
  obs::Histogram* m_delay = nullptr;
  obs::FlightRecorder* flight = nullptr;
  obs::TimeSeriesChannel* ts_frames = nullptr;
  obs::QuantileSketch* delay_sketch = nullptr;
  if (hub) {
    for (std::size_t k = 0; hub->metrics() && k < config_.num_paths; ++k) {
      m_frames.push_back(
          hub->counter("client.path" + std::to_string(k) + ".frames"));
    }
    m_delay = hub->histogram("client.delay_s");
    flight = hub->flight();
    ts_frames = hub->channel("client.frames");
    delay_sketch = hub->sketch("client.delay_s");
  }
  // Time base for the windowed frame channel (telemetry only).
  const std::uint64_t telemetry_t0 = monotonic_ns();

  // Connects and sends the hello declaring the path index and the resume
  // point (kFreshHello on the first connect).
  const auto open_connection = [this](std::size_t k, std::uint64_t last_seq) {
    Fd fd = connect_to(config_.server_ip, config_.port);
    unsigned char hello[kHelloBytes];
    encode_hello(Hello{static_cast<std::uint64_t>(k), last_seq}, hello);
    std::size_t off = 0;
    while (off < kHelloBytes) {
      const ssize_t n = ::write(fd.get(), hello + off, kHelloBytes - off);
      if (n < 0) throw std::runtime_error{"hello write failed"};
      off += static_cast<std::size_t>(n);
    }
    set_nonblocking(fd);
    return fd;
  };

  std::vector<Path> paths;
  for (std::size_t k = 0; k < config_.num_paths; ++k) {
    Path path;
    path.fd = open_connection(k, kFreshHello);
    path.connected = true;
    path.parser = FrameParser(config_.frame_bytes);
    path.retries_left = config_.reconnect_max_retries;
    path.backoff_ms = config_.reconnect_backoff_ms;
    path.last_refill_ns = monotonic_ns();
    paths.push_back(std::move(path));
  }

  struct Arrival {
    std::uint64_t number;
    std::uint64_t generated_ns;
    std::uint64_t arrived_ns;
    std::uint32_t path;
  };
  std::vector<Arrival> arrivals;
  RedundancyFilter dedup;  // frames replayed after a reconnect
  std::uint64_t newest = 0;  // highest frame number received on any path
  std::uint64_t reconnects = 0;
  std::size_t open_paths = paths.size();

  // A connection died before delivering the sentinel: retry with backoff if
  // budget remains, otherwise give the path up.
  const auto path_dead = [&](Path& path, std::uint64_t now) {
    path.fd.reset();
    path.connected = false;
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
      pfds[k].fd =
          paths[k].open && paths[k].connected ? paths[k].fd.get() : -1;
      pfds[k].events = POLLIN;
      pfds[k].revents = 0;
      if (!paths[k].open) continue;
      if (!paths[k].connected) {
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
      if (!config_.read_rate_limit_bps.empty() &&
          config_.read_rate_limit_bps[k] > 0.0 &&
          paths[k].budget_bytes < 1.0) {
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

      if (!path.connected) {
        if (now < path.next_attempt_ns) continue;
        --path.retries_left;
        try {
          path.fd = open_connection(k, path.last_seq);
          path.connected = true;
          path.parser = FrameParser(config_.frame_bytes);
          path.last_refill_ns = now;
          path.budget_bytes = 0.0;
          // A successful resume refreshes the outage budget.
          path.retries_left = config_.reconnect_max_retries;
          path.backoff_ms = config_.reconnect_backoff_ms;
          ++reconnects;
        } catch (const std::exception&) {
          if (path.retries_left <= 0) {
            path.open = false;
            --open_paths;
            continue;
          }
          path.backoff_ms = std::min(path.backoff_ms * 2,
                                     config_.reconnect_backoff_cap_ms);
          path.next_attempt_ns =
              now + static_cast<std::uint64_t>(path.backoff_ms) * 1'000'000ull;
        }
        continue;
      }

      std::size_t limit = buffer.size();
      if (!config_.read_rate_limit_bps.empty() &&
          config_.read_rate_limit_bps[k] > 0.0) {
        path.budget_bytes +=
            config_.read_rate_limit_bps[k] / 8.0 *
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
      if (!config_.read_rate_limit_bps.empty() &&
          config_.read_rate_limit_bps[k] > 0.0) {
        path.budget_bytes -= static_cast<double>(n);
      }
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
            bool fresh = false;
            dedup.on_deliver(static_cast<std::int64_t>(frame.packet_number),
                             [&fresh](std::int64_t) { fresh = true; });
            if (!fresh) return;
            arrivals.push_back(
                Arrival{frame.packet_number, frame.generated_ns, now, path32});
            if (flight) {
              obs::FlightEvent e;
              e.t_ns = static_cast<std::int64_t>(now);
              e.kind = obs::FlightEventKind::kArrive;
              e.packet = static_cast<std::int64_t>(frame.packet_number);
              e.path = static_cast<std::int32_t>(path32);
              flight->record(e);
            }
            if (!m_frames.empty()) m_frames[k]->inc();
            if (ts_frames) {
              ts_frames->bump(SimTime::nanos(
                  static_cast<std::int64_t>(now - telemetry_t0)));
            }
            if (m_delay && now >= frame.generated_ns) {
              m_delay->observe(
                  static_cast<double>(now - frame.generated_ns) * 1e-9);
            }
            if (delay_sketch && now >= frame.generated_ns) {
              delay_sketch->add(
                  static_cast<double>(now - frame.generated_ns) * 1e-9);
            }
          });
    }
  }

  // Convert to epoch-relative times: packet n was generated at
  // t0 + n/mu, so t0 recovers from any frame.
  ClientReport report;
  report.trace = StreamTrace(config_.mu_pps);
  if (!arrivals.empty()) {
    const double period_ns = 1e9 / config_.mu_pps;
    const std::uint64_t t0 =
        arrivals.front().generated_ns -
        static_cast<std::uint64_t>(std::llround(
            static_cast<double>(arrivals.front().number) * period_ns));
    if (flight) {
      // Same epoch the server stamped into the frames, so the two traces
      // (server-side and client-side) line up without clock negotiation.
      flight->set_meta(config_.mu_pps,
                               static_cast<std::int64_t>(t0));
    }
    for (const auto& a : arrivals) {
      report.trace.record(
          static_cast<std::int64_t>(a.number),
          SimTime::nanos(static_cast<std::int64_t>(a.arrived_ns - t0)),
          a.path);
    }
  }
  report.frames_received = static_cast<std::int64_t>(arrivals.size());
  for (const auto& path : paths) {
    report.received_per_path.push_back(path.received);
  }
  report.reconnects = reconnects;
  report.duplicate_frames = dedup.counters().duplicates_suppressed;
  return report;
}

}  // namespace dmp::inet
