#include "stream/client.hpp"

#include <stdexcept>

namespace dmp {

StreamClient::StreamClient(double mu_pps, std::size_t num_paths,
                           SimTime epoch, bool dedup)
    : trace_(mu_pps), num_paths_(num_paths), epoch_(epoch) {
  if (dedup) filter_ = std::make_unique<RedundancyFilter>();
}

void StreamClient::attach(std::size_t path, TcpSink& sink) {
  if (path >= num_paths_) throw std::out_of_range{"path index out of range"};
  const auto path32 = static_cast<std::uint32_t>(path);
  sink.set_deliver_callback([this, path32](std::int64_t tag, SimTime when) {
    deliver(tag, when, path32);
  });
}

void StreamClient::bind(obs::Hub& hub, const std::string& prefix) {
  for (std::size_t k = 0; k < num_paths_; ++k) {
    const std::string path = prefix + ".path" + std::to_string(k);
    if (hub.metrics()) m_packets_.push_back(hub.counter(path + ".packets"));
    if (hub.telemetry().enabled) {
      ts_delivered_.push_back(hub.channel(path + ".delivered"));
    }
  }
  m_delay_ = hub.histogram(prefix + ".delay_s");
  flight_ = hub.flight();
  if (flight_) flight_->set_meta(trace_.mu(), epoch_.ns());
  ts_late_ = hub.channel(prefix + ".late_indicator");
  delay_sketch_ = hub.sketch(prefix + ".delay_s");
  late_tau_s_ = hub.telemetry().late_tau_s;
}

void StreamClient::deliver(std::int64_t tag, SimTime when,
                           std::uint32_t path) {
  if (filter_) {
    // Exactly-once semantics: first sight passes, repeats are suppressed,
    // a parity arrival may reconstruct the one missing packet it covers
    // (recorded at this instant).
    filter_->on_deliver(tag,
                        [&](std::int64_t data) { record(data, when, path); });
    return;
  }
  if (tag < 0) return;  // non-stream filler (should not happen for video)
  record(tag, when, path);
}

void StreamClient::record(std::int64_t number, SimTime when,
                          std::uint32_t path) {
  const SimTime arrival = when - epoch_;
  trace_.record(number, arrival, path);
  if (flight_) {
    obs::FlightEvent e;
    e.t_ns = when.ns();
    e.kind = obs::FlightEventKind::kArrive;
    e.packet = number;
    e.path = static_cast<std::int32_t>(path);
    flight_->record(e);
  }
  if (m_delay_ || delay_sketch_ || ts_late_) {
    const double d = (arrival - trace_.generation_time(number)).to_seconds();
    if (m_delay_) {
      m_packets_[path]->inc();
      m_delay_->observe(d);
    }
    if (delay_sketch_) delay_sketch_->add(d);
    if (ts_late_) ts_late_->add(when, d > late_tau_s_ ? 1.0 : 0.0);
  }
  if (!ts_delivered_.empty()) ts_delivered_[path]->bump(when);
}

}  // namespace dmp
