// Shared plumbing for the end-to-end benchmark: clock, order statistics,
// the per-run result record, and the options every workload receives.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds (steady_clock); every timing in the benchmark
/// uses this one clock so spans, latencies and pass times compare.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// User + system CPU seconds of the whole process so far (all threads).
double process_cpu_s();
/// CPU seconds the calling thread has used so far.
double thread_cpu_s();

/// FNV-1a 64: digests of outputs compared against an oracle later.
inline std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

inline double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  int threads = 1;          // hardware threads (nproc)
  std::string out_dir;      // spans, records and the history archive
  std::string commit = "unknown";
};

/// Sorted-copy order statistics (nearest rank). Empty input yields 0.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// The highest of 99.9 / 99 / 95 / 90 / 75 / 50 that still has at least
/// ten samples beyond it (0 when there are fewer than 20 samples).
double tail_percentile(std::size_t samples);

/// Latency summary: median plus the highest percentile with >= 10 samples
/// beyond it, and the sample count both rest on.
struct LatencySummary {
  std::size_t samples = 0;
  double p50 = 0.0;
  double tail_pct = 0.0;
  double tail = 0.0;
};
LatencySummary summarize(const std::vector<double>& values);

/// One workload run's outcome. Metric values are set by name; every name
/// in the per-layer registry (report.cpp) is printed, 0 where the
/// workload does not exercise that layer.
struct Result {
  std::vector<std::pair<std::string, double>> e2e;    // --trace 0 metrics
  std::vector<std::pair<std::string, double>> layer;  // --trace 1 metrics
  std::vector<std::string> lines;                     // human report
  std::vector<std::pair<std::string, std::string>> inputs;  // sizes, mix
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t mismatches = 0;  // oracle disagreements: exit non-zero

  void set_e2e(const std::string& name, double value);
  void set_layer(const std::string& name, double value);
  void input(const std::string& name, const std::string& value);
  void input(const std::string& name, double value);
  void line(const std::string& text) { lines.push_back(text); }
  /// Counts one checked operation; a false `ok` is a failure and a
  /// mismatch.
  void check(bool ok, const std::string& what);
};

/// Formats with enough digits to round-trip.
std::string fmt(double value);

/// Peak resident set (VmHWM) of this process in MiB.
double peak_rss_mib();
/// Returns freed heap to the system and resets VmHWM to the current
/// resident set (writes "5" to /proc/self/clear_refs), so a later
/// peak_rss_mib() is the timed phase's peak with the inputs resident
/// rather than set-up's. Returns that resident set in MiB; throws when
/// the kernel refuses the reset.
double reset_peak_rss();

/// Runs `fn` `times` times and returns the median wall seconds of one call
/// (set-ups keep the last call's product).
template <typename Fn>
double median_seconds(int times, Fn&& fn) {
  std::vector<double> took;
  for (int i = 0; i < times; ++i) {
    const std::int64_t t0 = now_ns();
    fn();
    took.push_back(seconds_since(t0));
  }
  return median(took);
}

int run_capture(const Options& options, Result& result);
int run_history(const Options& options, Result& result);
int run_live(const Options& options, Result& result);

}  // namespace perfbench
