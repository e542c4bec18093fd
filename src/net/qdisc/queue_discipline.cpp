#include "net/qdisc/queue_discipline.hpp"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <stdexcept>

#include "net/qdisc/codel.hpp"
#include "net/qdisc/droptail.hpp"
#include "net/qdisc/fq_pie.hpp"
#include "net/qdisc/pie.hpp"

namespace dmp {

namespace {

[[noreturn]] void bad_spec(const std::string& message) {
  throw std::invalid_argument{message + " (accepted: " +
                              qdisc_spec_grammar() + ")"};
}

// Strict full-token millisecond parse; "5x", "" and non-finite are errors.
double parse_ms(const std::string& spec, const std::string& token,
                const char* what, double max_ms) {
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(token.c_str(), &end);
  if (end == token.c_str() || *end != '\0' || errno == ERANGE ||
      !std::isfinite(v)) {
    bad_spec("bad " + std::string(what) + " '" + token + "' in qdisc spec '" +
             spec + "'");
  }
  if (!(v > 0.0) || v > max_ms) {
    bad_spec(std::string(what) + " " + token + " out of range (0, " +
             std::to_string(static_cast<long long>(max_ms)) +
             "] ms in qdisc spec '" + spec + "'");
  }
  return v;
}

// Splits `rest` at the first comma into at most two millisecond tokens.
void parse_ms_pair(const std::string& spec, const std::string& rest,
                   const char* first_what, const char* second_what,
                   double second_max_ms, double* first_s, double* second_s) {
  const std::size_t comma = rest.find(',');
  const std::string first_tok = rest.substr(0, comma);
  *first_s = parse_ms(spec, first_tok, first_what, kQdiscMaxTargetMs) / 1e3;
  if (comma == std::string::npos) return;
  const std::string second_tok = rest.substr(comma + 1);
  if (second_tok.find(',') != std::string::npos) {
    bad_spec("qdisc spec '" + spec + "' has too many parameters");
  }
  *second_s = parse_ms(spec, second_tok, second_what, second_max_ms) / 1e3;
}

}  // namespace

std::string_view qdisc_drop_reason_name(QdiscDropReason reason) {
  switch (reason) {
    case QdiscDropReason::kOverlimit: return "overlimit";
    case QdiscDropReason::kEarly: return "early";
  }
  return "?";
}

const char* qdisc_spec_grammar() {
  return "droptail, pie[:target_ms[,tupdate_ms]], fq_pie[:flows], "
         "codel[:target_ms[,interval_ms]]";
}

const char* QdiscSpec::kind_name() const {
  switch (kind) {
    case Kind::kDropTail: return "droptail";
    case Kind::kPie: return "pie";
    case Kind::kFqPie: return "fq_pie";
    case Kind::kCoDel: return "codel";
  }
  return "?";
}

QdiscSpec QdiscSpec::parse(const std::string& spec) {
  QdiscSpec out;
  out.text = spec;
  if (spec == "droptail") {
    out.kind = Kind::kDropTail;
    return out;
  }
  // An AQM name, alone or with a non-empty parameter list after a colon.
  for (const Kind kind : {Kind::kPie, Kind::kCoDel, Kind::kFqPie}) {
    out.kind = kind;
    const std::string name = out.kind_name();
    if (spec.rfind(name, 0) != 0 ||
        (spec.size() > name.size() && spec[name.size()] != ':')) {
      continue;
    }
    if (spec.size() == name.size()) return out;
    if (spec.size() == name.size() + 1) {
      bad_spec("qdisc spec '" + spec + "' has an empty parameter list");
    }
    const std::string token = spec.substr(name.size() + 1);
    if (kind == Kind::kPie) {
      parse_ms_pair(spec, token, "target", "tupdate", kQdiscMaxTargetMs,
                    &out.target_s, &out.interval_s);
    } else if (kind == Kind::kCoDel) {
      parse_ms_pair(spec, token, "target", "interval", kQdiscMaxIntervalMs,
                    &out.target_s, &out.interval_s);
    } else {
      errno = 0;
      char* end = nullptr;
      const long flows = std::strtol(token.c_str(), &end, 10);
      if (end == token.c_str() || *end != '\0' || errno == ERANGE) {
        bad_spec("bad flow count '" + token + "' in qdisc spec '" + spec +
                 "'");
      }
      if (flows < 1 || flows > kFqPieMaxFlows) {
        bad_spec("flow count " + std::to_string(flows) + " out of range [1, " +
                 std::to_string(kFqPieMaxFlows) + "] in qdisc spec '" + spec +
                 "'");
      }
      out.flows = static_cast<int>(flows);
    }
    return out;
  }
  bad_spec("unknown qdisc '" + spec + "'");
}

std::unique_ptr<QueueDiscipline> make_queue_discipline(
    const QdiscSpec& spec, std::size_t buffer_packets) {
  switch (spec.kind) {
    case QdiscSpec::Kind::kDropTail:
      return std::make_unique<DropTailQdisc>(buffer_packets);
    case QdiscSpec::Kind::kPie: {
      PieParams params;
      if (spec.target_s > 0.0) params.target_s = spec.target_s;
      if (spec.interval_s > 0.0) params.tupdate_s = spec.interval_s;
      return std::make_unique<PieQdisc>(buffer_packets, params, spec.seed);
    }
    case QdiscSpec::Kind::kFqPie: {
      PieParams params;
      if (spec.target_s > 0.0) params.target_s = spec.target_s;
      if (spec.interval_s > 0.0) params.tupdate_s = spec.interval_s;
      const int flows = spec.flows > 0 ? spec.flows : kFqPieDefaultFlows;
      return std::make_unique<FqPieQdisc>(buffer_packets, flows, params,
                                          spec.seed);
    }
    case QdiscSpec::Kind::kCoDel: {
      CoDelParams params;
      if (spec.target_s > 0.0) params.target_s = spec.target_s;
      if (spec.interval_s > 0.0) params.interval_s = spec.interval_s;
      return std::make_unique<CoDelQdisc>(buffer_packets, params);
    }
  }
  return nullptr;  // unreachable
}

}  // namespace dmp
