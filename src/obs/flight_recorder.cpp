#include "obs/flight_recorder.hpp"

#include <cstdio>
#include <fstream>
#include <ostream>
#include <string>

#include "util/json.hpp"

namespace dmp::obs {

std::string_view flight_event_name(FlightEventKind kind) {
  switch (kind) {
    case FlightEventKind::kGenerate: return "gen";
    case FlightEventKind::kPull: return "pull";
    case FlightEventKind::kTcpEnqueue: return "tcp_enq";
    case FlightEventKind::kTcpSend: return "tcp_tx";
    case FlightEventKind::kLinkEnqueue: return "link_enq";
    case FlightEventKind::kLinkDequeue: return "link_deq";
    case FlightEventKind::kLinkDrop: return "link_drop";
    case FlightEventKind::kRto: return "rto";
    case FlightEventKind::kSinkRx: return "sink_rx";
    case FlightEventKind::kDeliver: return "deliver";
    case FlightEventKind::kArrive: return "arrive";
    case FlightEventKind::kPathFault: return "path_fault";
    case FlightEventKind::kSchedDecision: return "sched";
  }
  return "?";
}

std::string_view rtx_reason_name(RtxReason reason) {
  switch (reason) {
    case RtxReason::kNone: return "none";
    case RtxReason::kFastRtx: return "fast";
    case RtxReason::kRtoRtx: return "rto";
  }
  return "?";
}

std::string_view drop_cause_name(DropCause cause) {
  switch (cause) {
    case DropCause::kNone: return "none";
    case DropCause::kOverlimit: return "overlimit";
    case DropCause::kEarly: return "early";
  }
  return "?";
}

void FlightRecorder::to_jsonl(std::ostream& out) const {
  std::string line;
  line += "{\"ev\":\"meta\",\"version\":1,\"mu_pps\":";
  append_json_number(line, mu_pps_, kJsonStreamDigits);
  line += ",\"epoch_ns\":";
  line += std::to_string(epoch_ns_);
  line += ",\"total_packets\":";
  line += std::to_string(total_packets_);
  line += ",\"events\":";
  line += std::to_string(events_.size());
  line += "}\n";
  out << line;

  for (const FlightEvent& e : events_) {
    line.clear();
    line += "{\"t_ns\":";
    line += std::to_string(e.t_ns);
    line += ",\"ev\":\"";
    line += flight_event_name(e.kind);
    line += "\",\"pkt\":";
    line += std::to_string(e.packet);
    if (e.path >= 0) {
      line += ",\"path\":";
      line += std::to_string(e.path);
    }
    if (e.hop >= 0) {
      line += ",\"hop\":";
      line += std::to_string(e.hop);
    }
    if (e.seq >= 0) {
      line += ",\"seq\":";
      line += std::to_string(e.seq);
    }
    if (e.queue >= 0) {
      line += ",\"queue\":";
      line += std::to_string(e.queue);
    }
    if (e.attempt > 0) {
      line += ",\"attempt\":";
      line += std::to_string(e.attempt);
    }
    if (e.reason != RtxReason::kNone) {
      line += ",\"reason\":\"";
      line += rtx_reason_name(e.reason);
      line += '"';
    }
    if (e.drop != DropCause::kNone) {
      line += ",\"drop\":\"";
      line += drop_cause_name(e.drop);
      line += '"';
    }
    if (e.kind == FlightEventKind::kTcpSend ||
        e.kind == FlightEventKind::kRto) {
      line += ",\"cwnd\":";
      append_json_number(line, e.cwnd, kJsonStreamDigits);
      line += ",\"ssthresh\":";
      append_json_number(line, e.ssthresh, kJsonStreamDigits);
    }
    line += "}\n";
    out << line;
  }
}

bool FlightRecorder::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "flight recorder: cannot open %s\n", path.c_str());
    return false;
  }
  to_jsonl(out);
  out.flush();
  if (!out) {
    std::fprintf(stderr, "flight recorder: failed writing %s\n", path.c_str());
    return false;
  }
  return true;
}

}  // namespace dmp::obs
