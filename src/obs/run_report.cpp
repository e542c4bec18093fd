#include "obs/run_report.hpp"

#include <cstdio>
#include <fstream>

#include "util/json.hpp"

namespace dmp::obs {

namespace {

// Appends `"key":value` pairs of a name-sorted map as one JSON object.
template <typename Map, typename Render>
void append_object(std::string& out, const Map& map, Render render) {
  out += '{';
  bool first = true;
  for (const auto& [name, value] : map) {
    if (!first) out += ',';
    first = false;
    append_json_string(out, name);
    out += ':';
    render(out, value);
  }
  out += '}';
}

}  // namespace

void RunReport::set_scalar(const std::string& key, double v) {
  // Empty RunningStats/Histogram extrema arrive here as +-inf sentinels,
  // which render as null.
  std::string& slot = meta_[key];
  slot.clear();
  append_json_number(slot, v, kJsonStreamDigits);
}

void RunReport::set_scalar(const std::string& key, std::int64_t v) {
  meta_[key] = std::to_string(v);
}

void RunReport::set_text(const std::string& key, const std::string& v) {
  std::string& slot = meta_[key];
  slot.clear();
  append_json_string(slot, v);
}

void RunReport::set_series(const std::string& key,
                           const std::vector<double>& v) {
  series_[key] = v;
}

std::string RunReport::to_json(const MetricsRegistry* registry) const {
  std::string out = "{\n\"meta\":";
  append_object(out, meta_,
                [](std::string& o, const std::string& v) { o += v; });
  out += ",\n\"series\":";
  append_object(out, series_, [](std::string& o, const std::vector<double>& v) {
    o += '[';
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (i != 0) o += ',';
      append_json_number(o, v[i], kJsonStreamDigits);
    }
    o += ']';
  });
  out += ",\n\"counters\":";
  if (registry) {
    append_object(out, registry->counters(),
                  [](std::string& o, const Counter& c) {
                    o += std::to_string(c.value());
                  });
  } else {
    out += "{}";
  }
  out += ",\n\"gauges\":";
  if (registry) {
    append_object(out, registry->gauges(), [](std::string& o, const Gauge& g) {
      append_json_number(o, g.value(), kJsonStreamDigits);
    });
  } else {
    out += "{}";
  }
  out += ",\n\"histograms\":";
  if (registry) {
    append_object(out, registry->histograms(),
                  [](std::string& o, const Histogram& h) {
                    o += "{\"count\":" + std::to_string(h.count());
                    const std::pair<const char*, double> fields[] = {
                        {"sum", h.sum()},
                        {"mean", h.mean()},
                        {"min", h.min()},
                        {"max", h.max()},
                        {"p50", h.quantile(0.50)},
                        {"p90", h.quantile(0.90)},
                        {"p99", h.quantile(0.99)}};
                    for (const auto& [key, value] : fields) {
                      o += ",\"";
                      o += key;
                      o += "\":";
                      append_json_number(o, value, kJsonStreamDigits);
                    }
                    o += '}';
                  });
  } else {
    out += "{}";
  }
  out += "\n}\n";
  return out;
}

bool RunReport::write(const std::string& path,
                      const MetricsRegistry* registry) const {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "warning: cannot open run report output: %s\n",
                 path.c_str());
    return false;
  }
  out << to_json(registry);
  if (!out.flush()) {
    std::fprintf(stderr, "warning: failed writing report: %s\n", path.c_str());
    return false;
  }
  return true;
}

}  // namespace dmp::obs
