#include "inet/server.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <memory>
#include <stdexcept>

#include "fault/fault_plan.hpp"
#include "inet/socket_path.hpp"
#include "sim/scheduler.hpp"
#include "stream/dmp_server.hpp"
#include "stream/trace.hpp"

namespace dmp::inet {

DmpInetServer::DmpInetServer(ServerConfig config) : config_(config) {
  if (config_.num_paths == 0) throw std::invalid_argument{"need >= 1 path"};
  packet_period(config_.mu_pps);  // throws on a malformed rate
  if (!(config_.duration_s >= 0.0 && config_.duration_s * 1e9 < 0x1p63)) {
    throw std::invalid_argument{"duration must be finite and >= 0"};
  }
  if (config_.frame_bytes < kFrameHeaderBytes) {
    throw std::invalid_argument{"frame too small"};
  }
  if (!config_.faults.empty()) {
    const auto plan = fault::FaultPlan::parse(config_.faults);
    for (const auto& e : plan.events) {
      if (e.kind != fault::FaultKind::kConnReset) {
        throw std::invalid_argument{
            "inet server faults: only conn_reset applies at this layer, got " +
            e.to_string()};
      }
      std::size_t path = 0;
      if (!fault::parse_path_index(e.target, &path) ||
          path >= config_.num_paths) {
        throw std::invalid_argument{"inet server faults: unknown target '" +
                                    e.target + "'"};
      }
      resets_.emplace_back(e.t_s, path);
    }
  }
  listener_ = listen_on(config_.bind_ip, config_.port, &port_);
}

std::size_t DmpInetServer::accept_path(int timeout_ms, Hello* hello, Fd* fd) {
  Fd accepted = accept_with_timeout(listener_, timeout_ms);
  if (!accepted.valid()) return config_.num_paths;
  // Read the fixed-size hello before the socket joins the nonblocking poll
  // set; a peer that sends nothing within 2 s is dropped.
  unsigned char buf[kHelloBytes];
  std::size_t got = 0;
  while (got < kHelloBytes) {
    pollfd p{accepted.get(), POLLIN, 0};
    if (::poll(&p, 1, 2000) <= 0) return config_.num_paths;
    const ssize_t n = ::read(accepted.get(), buf + got, kHelloBytes - got);
    if (n <= 0) return config_.num_paths;
    got += static_cast<std::size_t>(n);
  }
  if (!decode_hello(buf, hello)) return config_.num_paths;
  if (hello->path_id >= config_.num_paths) return config_.num_paths;
  *fd = std::move(accepted);
  return static_cast<std::size_t>(hello->path_id);
}

ServerStats DmpInetServer::run() {
  // The streaming core on the stream clock: scheduler time 0 is the
  // monotonic instant `t0` the stream starts at (after the accepts).
  // Frames carry their generation instant on the monotonic clock; the
  // server's own events are logged on the stream clock, like the core's.
  Scheduler sched;
  obs::Hub* hub = config_.obs;
  obs::EventLog* events = hub ? hub->events() : nullptr;
  const auto log = [&](obs::Severity severity, const char* what,
                       std::initializer_list<obs::EventField> fields) {
    if (events && events->enabled(severity)) {
      events->record(sched.now().to_seconds(), severity, what, fields);
    }
  };
  std::uint64_t t0 = 0;
  std::unique_ptr<DmpStreamingServer> core;
  const auto stamp = [&t0, &core](std::int64_t number) {
    return t0 + static_cast<std::uint64_t>(core->generated_at(number).ns());
  };
  std::vector<std::unique_ptr<SocketPath>> paths;
  std::vector<StreamSender*> senders;
  for (std::size_t k = 0; k < config_.num_paths; ++k) {
    paths.push_back(std::make_unique<SocketPath>(config_.frame_bytes, stamp));
    senders.push_back(paths.back().get());
  }
  const SimTime end = SimTime::seconds(config_.duration_s);
  core = std::make_unique<DmpStreamingServer>(sched, config_.mu_pps, senders,
                                              SimTime::zero(), end);
  if (hub) {
    core->bind(*hub, "server");
    hub->start_probe(sched, {"server.queue_depth"}, SimTime::max());
  }
  // The hub's probe runs on this frame's scheduler and its gauges sample
  // the core, which die with the frame: stop the one and freeze the
  // others on every way out, a thrown error included.
  struct DetachHub {
    obs::Hub* hub;
    ~DetachHub() {
      if (hub) hub->stop_probe();
      if (hub && hub->metrics()) hub->metrics()->freeze_samplers();
    }
  } detach_hub{hub};

  const auto connect_path = [&](std::size_t k, Fd fd) {
    set_no_delay(fd);
    set_send_buffer(fd, config_.send_buffer_bytes);
    paths[k]->attach(std::move(fd));
  };
  // Initial accepts: each client connection declares its path index in the
  // hello, so path identity survives accept-order races and reconnects.
  for (std::size_t accepted = 0; accepted < config_.num_paths; ++accepted) {
    Hello hello;
    Fd fd;
    const std::size_t k = accept_path(config_.accept_timeout_ms, &hello, &fd);
    if (k >= config_.num_paths) throw std::runtime_error{"accept timed out"};
    if (paths[k]->open()) throw std::runtime_error{"duplicate path hello"};
    connect_path(k, std::move(fd));
    log(obs::Severity::kInfo, "accept", {obs::EventField::num("path", k)});
  }

  ServerStats stats;
  // conn_reset faults: the path drops with a TCP RST and goes down in the
  // core, which re-queues its half-written frame for the other paths.
  for (const auto& [t_s, k] : resets_) {
    sched.post_at(SimTime::seconds(t_s), [&, k = k] {
      ++stats.conn_resets;
      log(obs::Severity::kWarn, "conn_reset",
          {obs::EventField::num("path", k)});
      if (!paths[k]->open()) return;
      paths[k]->close(true);
      core->on_path_down(k);
    });
  }

  t0 = monotonic_ns();
  const auto stream_ns = [&t0] {
    return static_cast<std::int64_t>(monotonic_ns() - t0);
  };
  const auto any_path = [&paths](auto pred) {
    return std::any_of(paths.begin(), paths.end(),
                       [&](const auto& p) { return pred(*p); });
  };
  std::uint64_t all_closed_since = 0;  // 0 = at least one path open
  std::vector<pollfd> pfds(paths.size() + 1, pollfd{-1, 0, 0});  // + listener
  while (true) {
    sched.run_until(SimTime::nanos(stream_ns()));
    for (std::size_t k = 0; k < paths.size(); ++k) {
      if (pfds[k].revents != 0) paths[k]->on_writable();
    }

    // Serve a mid-run reconnect: the resume hello names the path and the
    // last frame the client received on it.  The frames sent after it may
    // have died in the dead connection's kernel buffers, so they re-enter
    // the head of the shared queue, ahead of newer frames; the client
    // dedups.
    if ((pfds.back().revents & POLLIN) != 0) {
      Hello hello;
      Fd fd;
      const std::size_t k = accept_path(0, &hello, &fd);
      if (k < config_.num_paths && !paths[k]->open()) {
        connect_path(k, std::move(fd));
        const auto replay = paths[k]->replay_after(hello.last_seq);
        core->requeue_front(replay);
        core->on_path_up(k);
        ++stats.reaccepts;
        log(obs::Severity::kInfo, "re_accept",
            {obs::EventField::num("path", k),
             obs::EventField::num("replayed", replay.size())});
      }
    }

    // A failed write: without a fault schedule a broken connection is a
    // hard error; under faults the path just goes down until the client
    // reconnects.
    for (std::size_t k = 0; k < paths.size(); ++k) {
      if (!paths[k]->failed() || !paths[k]->open()) continue;
      if (resets_.empty()) throw std::runtime_error{"stream connection failed"};
      paths[k]->close(false);
      core->on_path_down(k);
    }

    if (stop_.load(std::memory_order_relaxed)) break;
    const bool flushed =
        core->queue_length() == 0 &&
        !any_path([](const SocketPath& p) { return p.open() && p.blocked(); });
    if (sched.now() >= end && flushed) break;

    // If every client is gone, wait at most the accept timeout for a
    // reconnect before declaring the stream dead.
    const std::uint64_t now = monotonic_ns();
    if (any_path([](const SocketPath& p) { return p.open(); })) {
      all_closed_since = 0;
    } else if (all_closed_since == 0) {
      all_closed_since = now;
    } else if (config_.accept_timeout_ms > 0 &&
               now - all_closed_since >
                   static_cast<std::uint64_t>(config_.accept_timeout_ms) *
                       1'000'000ull) {
      break;
    }

    // Sleep until the scheduler's next event (or the end of generation), a
    // blocked path turning writable, or — while any path is down — a
    // reconnect.
    const SimTime wake = sched.now() < end
                             ? std::min(sched.next_event_time(), end)
                             : sched.next_event_time();
    const std::int64_t wait_ns = std::clamp<std::int64_t>(
        wake.ns() - stream_ns(), 0, 999'999'999);
    const int timeout_ms = static_cast<int>((wait_ns + 999'999) / 1'000'000);
    for (std::size_t k = 0; k < paths.size(); ++k) {
      const bool wants_out = paths[k]->open() && paths[k]->blocked();
      pfds[k] = pollfd{wants_out ? paths[k]->fd() : -1, POLLOUT, 0};
    }
    const bool any_down =
        any_path([](const SocketPath& p) { return !p.open(); });
    pfds.back() = pollfd{any_down ? listener_.get() : -1, POLLIN, 0};
    if (::poll(pfds.data(), pfds.size(), timeout_ms) < 0 && errno != EINTR) {
      throw std::runtime_error{std::string{"poll: "} + std::strerror(errno)};
    }
  }

  // Clean end of stream: every surviving path with no half-written frame
  // gets a sentinel so the client can tell a finished stream (EOF after
  // the sentinel) from a dead connection (EOF without it).  The write
  // blocks for at most 2 s; a peer that is gone just misses it.
  std::vector<unsigned char> sentinel(config_.frame_bytes, 0);
  encode_frame_header(Frame{kEndOfStream, monotonic_ns()}, sentinel.data());
  const timeval two_s{2, 0};
  for (const auto& path : paths) {
    if (!path->open() || path->blocked()) continue;
    ::setsockopt(path->fd(), SOL_SOCKET, SO_SNDTIMEO, &two_s, sizeof two_s);
    ::fcntl(path->fd(), F_SETFL, ::fcntl(path->fd(), F_GETFL) & ~O_NONBLOCK);
    ::send(path->fd(), sentinel.data(), sentinel.size(), MSG_NOSIGNAL);
  }

  stats.packets_generated = core->packets_generated();
  stats.max_queue_packets = core->max_queue_length();
  for (const auto& path : paths) {
    stats.sent_per_path.push_back(path->sent_frames());
  }
  if (hub && hub->flight()) {
    // Spans are on the stream clock: the generation epoch is 0.
    hub->flight()->set_meta(config_.mu_pps, 0, stats.packets_generated);
  }
  log(obs::Severity::kInfo, "stream_end",
      {obs::EventField::num("generated", stats.packets_generated),
       obs::EventField::num("max_queue", stats.max_queue_packets)});
  // Destructors close the sockets, signalling EOF to the client.
  return stats;
}

}  // namespace dmp::inet
