// Order statistics, the metric registries, and the result printer.
#include "report.h"

#include <malloc.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// BENCHMARK.json "end_to_end": every workload reports each of these.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"run_cpu_s", "s"},
    {"peak_rss_mb", "MiB"},
};

// BENCHMARK.json "per_layer": printed by every traced run; a layer the
// workload does not exercise reads 0.
constexpr MetricDef kPerLayer[] = {
    {"ingest.busy_s", "s"},
    {"ingest.packets_per_s", "1/s"},
    {"ingest.bytes", "bytes"},
    {"ingest.skipped", "count"},
    {"ingest.dropped_batches", "count"},
    {"telescope.detect_s", "s"},
    {"telescope.detect_1t_s", "s"},
    {"telescope.packets", "count"},
    {"telescope.backscatter_packets", "count"},
    {"telescope.flows_filtered", "count"},
    {"telescope.events", "count"},
    {"telescope.accept_ratio", "ratio"},
    {"amppot.consolidate_s", "s"},
    {"amppot.consolidate_1t_s", "s"},
    {"amppot.requests", "count"},
    {"amppot.requests_per_s", "1/s"},
    {"amppot.events", "count"},
    {"core.fuse_s", "s"},
    {"core.fused_events", "count"},
    {"core.streaming_s", "s"},
    {"core.days", "count"},
    {"core.alerts", "count"},
    {"query.publish_s", "s"},
    {"query.seal_p50_us", "us"},
    {"query.seal_p99_us", "us"},
    {"query.exec_p50_us.count", "us"},
    {"query.exec_p50_us.unique_targets", "us"},
    {"query.exec_p50_us.daily_attacks", "us"},
    {"query.exec_p50_us.top_targets", "us"},
    {"query.exec_p50_us.top_asns", "us"},
    {"query.exec_p50_us.top_countries", "us"},
    {"storage.write_s", "s"},
    {"storage.bytes_per_event", "bytes"},
    {"storage.compression", "ratio"},
    {"storage.open_s", "s"},
    {"storage.segment_loads", "count"},
    {"storage.cache_hit_ratio", "ratio"},
    {"storage.block_skip_ratio", "ratio"},
    {"subscribe.ingest_s", "s"},
    {"subscribe.tick_s", "s"},
    {"subscribe.fetch_us", "us"},
    {"subscribe.watchers", "count"},
    {"subscribe.scan_list", "count"},
    {"subscribe.notifications", "count"},
    {"subscribe.dropped", "count"},
    {"serve.parse_us", "us"},
    {"serve.execute_us", "us"},
    {"serve.hit_cpu_us", "us"},
    {"serve.miss_cpu_us", "us"},
    {"serve.cache_hit_ratio", "ratio"},
    {"serve.rejected", "count"},
    {"serve.queue_depth_max", "count"},
    {"serve.non2xx", "count"},
    {"loadgen.lateness_p99_ms", "ms"},
    {"loadgen.backlog_max", "count"},
    {"trace.coverage", "ratio"},
    {"trace.overhead_s", "s"},
    {"trace.share_telescope", "ratio"},
    {"trace.share_amppot", "ratio"},
};

template <std::size_t N>
const MetricDef* find_def(const MetricDef (&defs)[N], const std::string& name) {
  for (const MetricDef& def : defs)
    if (name == def.name) return &def;
  return nullptr;
}

void set_named(std::vector<std::pair<std::string, double>>& metrics,
               const std::string& name, double value) {
  for (auto& [key, old] : metrics) {
    if (key == name) {
      old = value;
      return;
    }
  }
  metrics.emplace_back(name, value);
}

double lookup(const std::vector<std::pair<std::string, double>>& metrics,
              const std::string& name, bool& found) {
  for (const auto& [key, value] : metrics) {
    if (key == name) {
      found = true;
      return value;
    }
  }
  found = false;
  return 0.0;
}

std::string json_escape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

}  // namespace

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double tail_percentile(std::size_t samples) {
  for (const double pct : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    if (static_cast<double>(samples) * (1.0 - pct / 100.0) >= 10.0) return pct;
  }
  return 0.0;
}

LatencySummary summarize(const std::vector<double>& values) {
  LatencySummary summary;
  summary.samples = values.size();
  summary.p50 = median(values);
  summary.tail_pct = tail_percentile(values.size());
  summary.tail = summary.tail_pct > 0.0
                     ? quantile(values, summary.tail_pct / 100.0)
                     : summary.p50;
  return summary;
}

std::string describe(const LatencySummary& s, const std::string& unit) {
  std::ostringstream out;
  out << "p50 " << fmt(s.p50) << " " << unit;
  if (s.tail_pct > 0.0)
    out << ", p" << fmt(s.tail_pct) << " " << fmt(s.tail) << " " << unit;
  else
    out << ", no tail (fewer than 20 samples)";
  out << " (n=" << s.samples << ")";
  return out.str();
}

void Result::set_e2e(const std::string& name, double value) {
  if (find_def(kEndToEnd, name) == nullptr)
    throw std::logic_error("unregistered end-to-end metric " + name);
  set_named(e2e, name, value);
}

void Result::set_layer(const std::string& name, double value) {
  if (find_def(kPerLayer, name) == nullptr)
    throw std::logic_error("unregistered per-layer metric " + name);
  set_named(layer, name, value);
}

void Result::input(const std::string& name, const std::string& value) {
  inputs.emplace_back(name, value);
}

void Result::input(const std::string& name, double value) {
  inputs.emplace_back(name, fmt(value));
}

void Result::check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  ++mismatches;
  std::cerr << "perfbench: oracle mismatch: " << what << "\n";
}

std::string fmt(double value) {
  if (value == std::floor(value) && std::fabs(value) < 1e15)
    return std::to_string(static_cast<long long>(value));
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, value);
  return ec == std::errc() ? std::string(buf, end) : std::string("0");
}

double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double thread_cpu_s() {
  timespec t{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t);
  return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_nsec) * 1e-9;
}

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

double reset_peak_rss() {
  malloc_trim(0);
  {
    std::ofstream clear("/proc/self/clear_refs");
    clear << "5" << std::flush;
    if (!clear) throw std::runtime_error("cannot reset VmHWM via /proc/self/clear_refs");
  }
  return peak_rss_mib();
}

int emit(const Options& options, const Env& env, Result& result) {
  std::cout << "== perfbench " << options.workload << " seed " << options.seed
            << (options.trace ? " (traced)" : "") << " ==\n";
  for (const std::string& line : result.lines) std::cout << line << "\n";

  // The environment + inputs record: one JSON line, also kept on disk.
  std::ostringstream record;
  record << "{\"record\":{\"workload\":\"" << options.workload
         << "\",\"seed\":" << options.seed
         << ",\"trace\":" << (options.trace ? 1 : 0)
         << ",\"seconds\":" << fmt(options.seconds)
         << ",\"hw_threads\":" << env.hw_threads << ",\"build_type\":\""
         << json_escape(env.build_type) << "\",\"compiler\":\""
         << json_escape(env.compiler) << "\",\"git_commit\":\""
         << json_escape(options.commit) << "\",\"inputs\":{";
  for (std::size_t i = 0; i < result.inputs.size(); ++i) {
    record << (i ? "," : "") << "\"" << json_escape(result.inputs[i].first)
           << "\":\"" << json_escape(result.inputs[i].second) << "\"";
  }
  record << "},\"attempted\":" << result.attempted
         << ",\"failed\":" << result.failed << "}}";
  std::cout << record.str() << "\n";
  {
    std::ofstream keep(options.out_dir + "/record-" + options.workload +
                       "-seed" + std::to_string(options.seed) + "-trace" +
                       (options.trace ? "1" : "0") + ".json");
    keep << record.str() << "\n";
  }

  std::ostringstream last;
  last << "{\"correct\":" << (result.mismatches == 0 ? "true" : "false")
       << ",\"attempted\":" << result.attempted
       << ",\"failed\":" << result.failed << ",\"metrics\":{";
  bool first = true;
  auto put = [&](const MetricDef& def, double value) {
    last << (first ? "" : ",") << "\"" << def.name << "\":{\"value\":"
         << fmt(value) << ",\"unit\":\"" << def.unit << "\"}";
    first = false;
  };
  if (options.trace) {
    for (const MetricDef& def : kPerLayer) {
      bool found = false;
      const double value = lookup(result.layer, def.name, found);
      put(def, value);
    }
  } else {
    for (const MetricDef& def : kEndToEnd) {
      bool found = false;
      const double value = lookup(result.e2e, def.name, found);
      if (!found) {
        std::cerr << "perfbench: workload did not report " << def.name << "\n";
        return 1;
      }
      put(def, value);
    }
  }
  last << "}}";
  if (result.mismatches != 0) {
    std::cerr << "perfbench: " << result.mismatches
              << " oracle mismatches; no result printed\n";
    return 1;
  }
  std::cout << last.str() << std::endl;
  return 0;
}

}  // namespace perfbench
