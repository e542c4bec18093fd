// trace_query: offline inspection of flight-recorder traces.
//
//   trace_query summary <trace.jsonl> [--tau=SECONDS]
//       meta, arrival totals, late fraction and the deadline-miss cause
//       breakdown at startup delay tau (default 4 s)
//   trace_query packet <trace.jsonl> <number>
//       one packet's full lifecycle timeline, station by station
//   trace_query paths <trace.jsonl>
//       per-path delivery counts, drops/retransmissions/RTOs and
//       bottleneck-queue wait percentiles
//   trace_query rtx <trace.jsonl>
//       every packet that needed more than one transmission
//   trace_query causes <trace.jsonl> [--tau=SECONDS] [--limit=N]
//       the late packets themselves with their dominant cause
//   trace_query timeline <trace.jsonl> [--telemetry=CSV] [--out=FILE]
//       [--max-packets=N]
//       Chrome trace-event JSON (Perfetto-loadable) to FILE or stdout
//   trace_query percentiles <sketches.jsonl> [--q=0.5,0.95,0.99]
//       quantiles from a run's `*_sketches.jsonl` telemetry artifact
//
// Exit status: 0 on success, 1 on bad usage, 2 on a malformed trace or an
// unknown or malformed flag.
#include <cstdio>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/telemetry/sketch.hpp"
#include "obs/telemetry/timeline.hpp"
#include "flags.hpp"
#include "obs/trace_analyzer.hpp"

namespace {

using dmp::obs::AttributionReport;
using dmp::obs::FlightRecorder;
using dmp::obs::LateCause;
using dmp::obs::late_cause_name;
using dmp::obs::PacketTimeline;
using dmp::obs::rtx_reason_name;
using dmp::obs::TraceAnalyzer;

void usage() {
  std::fprintf(
      stderr,
      "usage: trace_query <command> <trace.jsonl> [args]\n"
      "  summary <trace> [--tau=S]          late fraction + cause breakdown\n"
      "  packet  <trace> <number>           one packet's timeline\n"
      "  paths   <trace>                    per-path stats\n"
      "  rtx     <trace>                    retransmitted packets\n"
      "  causes  <trace> [--tau=S] [--limit=N]  late packets with causes\n"
      "  timeline <trace> [--telemetry=CSV] [--out=FILE] [--max-packets=N]\n"
      "                                     Perfetto trace-event JSON\n"
      "  percentiles <sketches.jsonl> [--q=0.5,0.95,0.99]\n"
      "                                     sketch quantiles\n");
}

using dmp::tools::Flags;

// Station timestamps are absolute recorder-clock ns; print them relative
// to the generation epoch so they read as stream time.
double rel_s(const TraceAnalyzer& az, std::int64_t t_ns) {
  return static_cast<double>(t_ns - az.epoch_ns()) * 1e-9;
}

void print_attribution(const TraceAnalyzer& az, const AttributionReport& rep,
                       double tau_s) {
  std::printf("tau            %.3f s\n", tau_s);
  std::printf("total packets  %lld\n",
              static_cast<long long>(rep.total_packets));
  std::printf("arrived        %lld\n", static_cast<long long>(rep.arrived));
  std::printf("late           %lld  (fraction %.6g)\n",
              static_cast<long long>(rep.late), rep.late_fraction());
  std::printf("late by dominant cause:\n");
  for (std::size_t c = 0; c < dmp::obs::kNumLateCauses; ++c) {
    if (rep.by_cause[c] == 0) continue;
    std::printf("  %-15s %lld\n",
                std::string(late_cause_name(static_cast<LateCause>(c))).c_str(),
                static_cast<long long>(rep.by_cause[c]));
  }
  (void)az;
}

int cmd_summary(const TraceAnalyzer& az, double tau_s) {
  std::printf("mu             %.6g pkts/s\n", az.mu_pps());
  std::printf("epoch          %lld ns\n", static_cast<long long>(az.epoch_ns()));
  std::printf("packets traced %zu\n", az.timelines().size());
  print_attribution(az, az.attribute(tau_s), tau_s);
  return 0;
}

int cmd_packet(const TraceAnalyzer& az, std::int64_t number) {
  const PacketTimeline* tl = az.timeline(number);
  if (!tl) {
    std::fprintf(stderr, "packet %lld not in trace\n",
                 static_cast<long long>(number));
    return 1;
  }
  std::printf("packet %lld  path %d  transmissions %u  drops %u\n",
              static_cast<long long>(tl->packet), tl->path, tl->transmissions,
              tl->drops);
  auto station = [&](const char* name, std::int64_t t_ns) {
    if (t_ns < 0) {
      std::printf("  %-12s -\n", name);
    } else {
      std::printf("  %-12s %.9f s\n", name, rel_s(az, t_ns));
    }
  };
  station("generate", tl->gen_ns);
  station("pull", tl->pull_ns);
  station("tcp_enqueue", tl->enqueue_ns);
  for (const auto& send : tl->sends) {
    std::printf("  %-12s %.9f s  seq %lld attempt %u%s%s  cwnd %.6g "
                "ssthresh %.6g\n",
                "tcp_send", rel_s(az, send.t_ns),
                static_cast<long long>(send.seq), send.attempt,
                send.reason == dmp::obs::RtxReason::kNone ? "" : " ",
                send.reason == dmp::obs::RtxReason::kNone
                    ? ""
                    : std::string(rtx_reason_name(send.reason)).c_str(),
                send.cwnd, send.ssthresh);
  }
  for (const auto& hop : tl->hops) {
    if (hop.dropped) {
      std::printf("  %-12s %.9f s  hop %d  DROPPED\n", "link",
                  rel_s(az, hop.enqueue_ns), hop.hop);
    } else if (hop.dequeue_ns >= 0) {
      std::printf("  %-12s %.9f s  hop %d  queued %.9f s\n", "link",
                  rel_s(az, hop.enqueue_ns), hop.hop,
                  static_cast<double>(hop.dequeue_ns - hop.enqueue_ns) * 1e-9);
    } else {
      std::printf("  %-12s %.9f s  hop %d  (still queued at end)\n", "link",
                  rel_s(az, hop.enqueue_ns), hop.hop);
    }
  }
  station("sink_rx", tl->sink_rx_ns);
  station("deliver", tl->deliver_ns);
  station("arrive", tl->arrive_ns);
  std::printf("  waits: pre-tx %.9f s  link-queue %.9f s  reorder %.9f s\n",
              static_cast<double>(tl->pre_tx_wait_ns()) * 1e-9,
              static_cast<double>(tl->link_queue_wait_ns()) * 1e-9,
              static_cast<double>(tl->reorder_wait_ns()) * 1e-9);
  return 0;
}

int cmd_paths(const TraceAnalyzer& az) {
  std::printf("%5s %10s %7s %7s %6s %12s %12s %12s %12s\n", "path",
              "delivered", "drops", "rtx", "rtos", "qwait_p50_s",
              "qwait_p90_s", "qwait_p99_s", "qwait_max_s");
  for (const auto& s : az.path_stats()) {
    std::printf("%5d %10llu %7llu %7llu %6llu %12.6g %12.6g %12.6g %12.6g\n",
                s.path, static_cast<unsigned long long>(s.packets_delivered),
                static_cast<unsigned long long>(s.drops),
                static_cast<unsigned long long>(s.retransmissions),
                static_cast<unsigned long long>(s.rtos), s.queue_wait_p50_s,
                s.queue_wait_p90_s, s.queue_wait_p99_s, s.queue_wait_max_s);
  }
  return 0;
}

int cmd_rtx(const TraceAnalyzer& az) {
  const auto rtx = az.retransmitted_packets();
  std::printf("%llu retransmitted packet(s)\n",
              static_cast<unsigned long long>(rtx.size()));
  for (const PacketTimeline* tl : rtx) {
    std::printf("packet %lld  path %d  attempts %u  drops %u  reasons:",
                static_cast<long long>(tl->packet), tl->path,
                tl->transmissions, tl->drops);
    for (const auto& send : tl->sends) {
      if (send.attempt <= 1) continue;
      std::printf(" %s@%.6fs",
                  std::string(rtx_reason_name(send.reason)).c_str(),
                  rel_s(az, send.t_ns));
    }
    std::printf("\n");
  }
  return 0;
}

int cmd_causes(const TraceAnalyzer& az, double tau_s, std::int64_t limit) {
  const auto rep = az.attribute(tau_s);
  print_attribution(az, rep, tau_s);
  std::printf("%8s %12s %12s %s\n", "packet", "deadline_s", "arrived_s",
              "cause");
  std::int64_t shown = 0;
  for (const auto& v : rep.verdicts) {
    if (limit >= 0 && shown++ >= limit) {
      std::printf("... (%zu total; raise --limit)\n", rep.verdicts.size());
      break;
    }
    std::printf("%8lld %12.6f %12.6f %s\n", static_cast<long long>(v.packet),
                static_cast<double>(v.deadline_rel_ns) * 1e-9,
                static_cast<double>(v.arrive_rel_ns) * 1e-9,
                std::string(late_cause_name(v.cause)).c_str());
  }
  return 0;
}

int cmd_timeline(const TraceAnalyzer& az, const Flags& flags) {
  dmp::obs::TimelineOptions options;
  if (const char* csv = flags.text("--telemetry")) {
    options.telemetry_csv = csv;
  }
  options.max_packets = flags.integer("--max-packets", -1);
  if (const char* out = flags.text("--out")) {
    if (!dmp::obs::write_chrome_trace(az, out, options)) {
      std::fprintf(stderr, "error: failed to write %s\n", out);
      return 2;
    }
    std::printf("wrote %s\n", out);
    return 0;
  }
  const std::string json = dmp::obs::chrome_trace_json(az, options);
  std::fwrite(json.data(), 1, json.size(), stdout);
  std::fputc('\n', stdout);
  return 0;
}

// `percentiles` reads a `*_sketches.jsonl` artifact, not a flight trace —
// dispatched before the trace load in main().
int cmd_percentiles(const char* path, const Flags& flags) {
  const std::vector<double> qs = flags.numbers("--q", {0.5, 0.95, 0.99});
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "error: cannot open %s\n", path);
    return 2;
  }
  std::vector<dmp::obs::NamedSketch> sketches;
  try {
    sketches = dmp::obs::read_sketches_jsonl(in);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  std::printf("%-28s %10s", "sketch", "count");
  for (double q : qs) {
    char label[16];
    std::snprintf(label, sizeof label, "p%g", q);
    std::printf(" %11s", label);
  }
  std::printf("\n");
  for (const auto& [name, sketch] : sketches) {
    std::printf("%-28s %10llu", name.c_str(),
                static_cast<unsigned long long>(sketch.count()));
    for (double q : qs) {
      if (sketch.count() == 0) {
        std::printf(" %11s", "-");
      } else {
        std::printf(" %11.6g", sketch.quantile(q));
      }
    }
    std::printf("\n");
  }
  if (sketches.empty()) {
    std::fprintf(stderr,
                 "error: no sketches in %s (empty or truncated artifact?)\n",
                 path);
    return 2;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) {
    usage();
    return 1;
  }
  const std::string cmd = argv[1];
  // The flags each command reads.
  const std::map<std::string, std::vector<const char*>> commands = {
      {"summary", {"--tau="}},
      {"packet", {}},
      {"paths", {}},
      {"rtx", {}},
      {"causes", {"--tau=", "--limit="}},
      {"timeline", {"--telemetry=", "--out=", "--max-packets="}},
      {"percentiles", {"--q="}},
  };
  const auto command = commands.find(cmd);
  if (command == commands.end()) {
    usage();
    return 1;
  }
  const Flags flags(argc, argv, 3, command->second);
  if (cmd == "percentiles") return cmd_percentiles(argv[2], flags);
  const double tau_s = flags.number("--tau", 4.0);
  FlightRecorder recorder;
  try {
    recorder = dmp::obs::read_flight_trace_file(argv[2]);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  // A trace a recorder actually wrote always contains events; an empty
  // load means the input is not a trace (empty file, or one truncated
  // before any event survived) and an empty summary would be misleading.
  if (recorder.events().empty()) {
    std::fprintf(stderr,
                 "error: %s contains no flight-recorder events (empty or "
                 "truncated trace?)\n",
                 argv[2]);
    return 2;
  }
  const TraceAnalyzer az(recorder);

  if (cmd == "summary") return cmd_summary(az, tau_s);
  if (cmd == "packet") {
    if (argc < 4) {
      usage();
      return 1;
    }
    return cmd_packet(az, dmp::tools::parse_integer(argv[3], "packet"));
  }
  if (cmd == "paths") return cmd_paths(az);
  if (cmd == "rtx") return cmd_rtx(az);
  if (cmd == "timeline") return cmd_timeline(az, flags);
  return cmd_causes(az, tau_s, flags.integer("--limit", 50));
}
