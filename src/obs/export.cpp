#include "obs/export.h"

#include <charconv>
#include <fstream>
#include <limits>
#include <string>

namespace dosm::obs {
namespace {

/// Shortest round-trip decimal rendering (std::to_chars), so exports are
/// byte-stable across runs and locales.
std::string format_double(double v) {
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  if (ec != std::errc{}) return "0";
  return std::string(buf, end);
}

/// Metric names are restricted to [a-z0-9_.] by the registry; help strings
/// are free-form and need minimal JSON escaping.
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Prometheus metric name: dosm_ prefix, '.' separators become '_'.
std::string prom_name(const std::string& name) {
  std::string out = "dosm_";
  out.reserve(out.size() + name.size());
  for (const char c : name) out += c == '.' ? '_' : c;
  return out;
}

}  // namespace

std::string to_json(const MetricsSnapshot& snapshot) {
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& c : snapshot.counters) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + c.name + "\": " + std::to_string(c.value);
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"gauges\": {";
  first = true;
  for (const auto& g : snapshot.gauges) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + g.name + "\": " + std::to_string(g.value);
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"histograms\": {";
  first = true;
  for (const auto& h : snapshot.histograms) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + h.name + "\": {\"count\": " + std::to_string(h.count) +
           ", \"sum\": " + format_double(h.sum) + ", \"buckets\": [";
    for (std::size_t i = 0; i < h.buckets.size(); ++i) {
      if (i) out += ", ";
      out += "{\"le\": \"";
      out += i < h.upper_bounds.size() ? format_double(h.upper_bounds[i])
                                       : std::string("+Inf");
      out += "\", \"n\": " + std::to_string(h.buckets[i]) + "}";
    }
    out += "]}";
  }
  out += first ? "}\n" : "\n  }\n";
  out += "}\n";
  return out;
}

std::string to_prometheus(const MetricsSnapshot& snapshot) {
  std::string out;
  for (const auto& c : snapshot.counters) {
    const std::string name = prom_name(c.name);
    if (!c.help.empty())
      out += "# HELP " + name + " " + json_escape(c.help) + "\n";
    out += "# TYPE " + name + " counter\n";
    out += name + " " + std::to_string(c.value) + "\n";
  }
  for (const auto& g : snapshot.gauges) {
    const std::string name = prom_name(g.name);
    if (!g.help.empty())
      out += "# HELP " + name + " " + json_escape(g.help) + "\n";
    out += "# TYPE " + name + " gauge\n";
    out += name + " " + std::to_string(g.value) + "\n";
  }
  for (const auto& h : snapshot.histograms) {
    const std::string name = prom_name(h.name);
    if (!h.help.empty())
      out += "# HELP " + name + " " + json_escape(h.help) + "\n";
    out += "# TYPE " + name + " histogram\n";
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < h.buckets.size(); ++i) {
      cumulative += h.buckets[i];
      const std::string le = i < h.upper_bounds.size()
                                 ? format_double(h.upper_bounds[i])
                                 : std::string("+Inf");
      out += name + "_bucket{le=\"" + le + "\"} " + std::to_string(cumulative) +
             "\n";
    }
    out += name + "_sum " + format_double(h.sum) + "\n";
    out += name + "_count " + std::to_string(h.count) + "\n";
  }
  return out;
}

void write_metrics_file(const std::string& path,
                        const MetricsRegistry& registry) {
  const MetricsSnapshot snap = registry.snapshot();
  const bool prom =
      path.size() >= 5 && path.compare(path.size() - 5, 5, ".prom") == 0;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("obs: cannot open metrics file: " + path);
  // Flushed before the check: output smaller than the stream buffer meets a
  // full disk only at the flush.
  out << (prom ? to_prometheus(snap) : to_json(snap)) << std::flush;
  if (!out) throw std::runtime_error("obs: failed writing metrics file: " + path);
}

}  // namespace dosm::obs
