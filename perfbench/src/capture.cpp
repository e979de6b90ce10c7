// Workload `capture`: the paper's detection stage, as `dosmeter detect
// --pcap` runs it, plus the honeypot logs.
//
// Set-up: parallel::make_workload generates both inputs from the seed, cut
// to fixed sizes so every seed offers the same amount of work (see the
// constants below). The telescope capture is serialized once to in-memory
// pcap bytes; the honeypot logs are kept as HoneypotLog spans and never
// cleared, so every pass consolidates the same requests.
//
// Timed pass: ingest::run_ingest (batch sink) -> ParallelBackscatterDetector
// -> parallel_consolidate -> core::from_telescope/from_amppot + canonical
// sort, at nproc threads. Every pass's fused events must equal the
// sequential oracle (telescope::Pipeline + RsdosPlugin, HoneypotFleet::
// harvest on a separately built fleet), computed once after timing.
#include <algorithm>
#include <istream>
#include <sstream>
#include <streambuf>
#include <string>
#include <vector>

#include "amppot/fleet.h"
#include "core/event.h"
#include "core/serialize.h"
#include "ingest/pipeline.h"
#include "net/pcap.h"
#include "parallel/detect.h"
#include "parallel/workload.h"
#include "report.h"
#include "telescope/pipeline.h"
#include "trace.h"

namespace perfbench {
namespace {

using namespace dosm;

// Input sizes. The generator's reflection attacks are heavy-tailed
// (lognormal rates and durations), so one large window's request total
// swings severalfold by seed. The honeypot input is therefore built from
// consecutive 30-second make_workload chunks (each with a seed derived from
// the workload seed), shifted end to end, until it holds exactly kRequests
// requests; the telescope capture is cut to its first kPackets packets.
// Offered work, set-up time and memory are then nearly seed-independent:
// short chunks clip attack durations, which bounds the largest chunk the
// generator materializes at once and spreads requests over many victims.
// The mix is set so that telescope ingest+detect and honeypot
// consolidation each take over a third of a pass (checked when traced).
constexpr int kDirectAttacks = 1200;
constexpr double kTelescopeWindowS = 4.0 * 3600.0;
constexpr std::size_t kPackets = 900'000;
constexpr int kChunkAttacks = 6;
constexpr double kChunkWindowS = 30.0;
constexpr std::uint64_t kRequests = 8'000'000;
constexpr int kSetupRepeats = 3;

/// Read-only streambuf over the pcap bytes (no copy per pass).
class MemBuf : public std::streambuf {
 public:
  explicit MemBuf(const std::string& data) {
    char* base = const_cast<char*>(data.data());
    setg(base, base, base + data.size());
  }
};

using RequestLog = std::vector<amppot::RequestRecord>;

struct Inputs {
  std::string pcap;
  std::size_t packets = 0;
  std::vector<RequestLog> request_logs;    // one per honeypot, time-ordered
  std::vector<parallel::HoneypotLog> logs;  // spans over request_logs
  std::uint64_t requests = 0;
  int chunks = 0;
};

std::size_t count_before(const RequestLog& log, double t) {
  return static_cast<std::size_t>(
      std::lower_bound(log.begin(), log.end(), t,
                       [](const amppot::RequestRecord& r, double v) {
                         return r.ts < v;
                       }) -
      log.begin());
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t k) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + k + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Inputs make_inputs(std::uint64_t seed) {
  Inputs in;
  {
    parallel::WorkloadConfig config;
    config.seed = seed;
    config.direct_attacks = kDirectAttacks;
    config.reflection_attacks = 0;
    config.window_s = kTelescopeWindowS;
    parallel::DetectWorkload workload = parallel::make_workload(config);
    if (workload.packets.size() > kPackets) workload.packets.resize(kPackets);
    in.packets = workload.packets.size();
    std::ostringstream encoded(std::ios::binary);
    net::PcapWriter writer(encoded);
    for (const auto& rec : workload.packets) writer.write_packet(rec);
    in.pcap = std::move(encoded).str();
  }

  // Per honeypot, the cut slice of every chunk; joined at exact size below
  // so set-up memory does not depend on vector growth.
  std::vector<std::vector<RequestLog>> slices;
  for (std::uint64_t k = 0; in.requests < kRequests; ++k) {
    parallel::WorkloadConfig config;
    config.seed = derive_seed(seed, k);
    config.direct_attacks = 0;
    config.reflection_attacks = kChunkAttacks;
    config.window_s = kChunkWindowS;
    const parallel::DetectWorkload chunk = parallel::make_workload(config);
    const auto honeypots = chunk.fleet->honeypots();
    slices.resize(honeypots.size());
    // Take the whole chunk, or the smallest time prefix that completes
    // kRequests.
    double cut = kChunkWindowS + 1.0;
    auto before = [&](double t) {
      std::uint64_t n = 0;
      for (const auto& honeypot : honeypots) n += count_before(honeypot.log(), t);
      return n;
    };
    const std::uint64_t need = kRequests - in.requests;
    if (before(cut) > need) {
      double lo = 0.0;
      for (int i = 0; i < 64; ++i) {
        const double mid = 0.5 * (lo + cut);
        if (before(mid) >= need) cut = mid;
        else lo = mid;
      }
    }
    const double offset = static_cast<double>(k) * kChunkWindowS;
    for (std::size_t h = 0; h < honeypots.size(); ++h) {
      const auto& log = honeypots[h].log();
      RequestLog part(log.begin(), log.begin() + static_cast<std::ptrdiff_t>(count_before(log, cut)));
      for (amppot::RequestRecord& request : part) request.ts += offset;
      in.requests += part.size();
      slices[h].push_back(std::move(part));
    }
    ++in.chunks;
  }
  in.request_logs.resize(slices.size());
  for (std::size_t h = 0; h < slices.size(); ++h) {
    std::size_t total = 0;
    for (const RequestLog& part : slices[h]) total += part.size();
    in.request_logs[h].reserve(total);
    for (const RequestLog& part : slices[h])
      in.request_logs[h].insert(in.request_logs[h].end(), part.begin(), part.end());
    slices[h] = {};
    in.logs.push_back({static_cast<std::int32_t>(h), in.request_logs[h]});
  }
  return in;
}

std::string serialize(const std::vector<core::AttackEvent>& events) {
  std::ostringstream out(std::ios::binary);
  core::write_events(out, events);
  return std::move(out).str();
}

std::vector<core::AttackEvent> fuse(
    const std::vector<telescope::TelescopeEvent>& telescope_events,
    const std::vector<amppot::AmpPotEvent>& honeypot_events) {
  std::vector<core::AttackEvent> events;
  events.reserve(telescope_events.size() + honeypot_events.size());
  for (const auto& e : telescope_events) events.push_back(core::from_telescope(e));
  for (const auto& e : honeypot_events) events.push_back(core::from_amppot(e));
  std::sort(events.begin(), events.end(), core::canonical_less);
  return events;
}

/// The sequential reference: per-packet PcapReader into Pipeline +
/// RsdosPlugin, and HoneypotFleet::harvest over a fleet rebuilt from the
/// cut logs.
std::string oracle(const Inputs& in) {
  telescope::Pipeline pipeline;
  auto& rsdos = pipeline.emplace_plugin<telescope::RsdosPlugin>();
  {
    MemBuf buf(in.pcap);
    std::istream stream(&buf);
    net::PcapReader reader(stream);
    pipeline.replay(reader);
  }
  pipeline.finish();
  std::vector<telescope::TelescopeEvent> telescope_events = rsdos.events();
  parallel::canonical_sort(telescope_events);

  amppot::HoneypotFleet fleet(0, static_cast<int>(in.request_logs.size()));
  for (std::size_t h = 0; h < in.logs.size(); ++h)
    for (const auto& request : in.logs[h].requests) fleet.deliver(h, request);
  const auto honeypot_events = fleet.harvest();
  return serialize(fuse(telescope_events, honeypot_events));
}

struct PassOutput {
  std::vector<core::AttackEvent> fused;
  ingest::IngestStats ingest;
  parallel::TelescopeDetectStats telescope;
  std::size_t telescope_events = 0;
  std::size_t honeypot_events = 0;
  double seconds = 0.0;
  double cpu_s = 0.0;
};

PassOutput run_pass(const Inputs& in, const parallel::ParallelConfig& pc) {
  PassOutput out;
  const double cpu0 = process_cpu_s();
  const std::int64_t t0 = now_ns();
  {
    Span pass("capture.pass");
    std::vector<net::PacketRecord> packets;
    {
      Span span("ingest.run_ingest");
      packets.reserve(in.packets);
      MemBuf buf(in.pcap);
      std::istream stream(&buf);
      const ingest::RecordBatchSink sink =
          [&packets](std::span<const net::PacketRecord> batch) {
            packets.insert(packets.end(), batch.begin(), batch.end());
          };
      out.ingest = ingest::run_ingest(stream, ingest::IngestOptions{}, sink);
    }
    std::vector<telescope::TelescopeEvent> telescope_events;
    {
      Span span("telescope.detect");
      parallel::ParallelBackscatterDetector detector(pc);
      telescope_events = detector.detect(packets);
      out.telescope = detector.stats();
    }
    std::vector<amppot::AmpPotEvent> honeypot_events;
    {
      Span span("amppot.consolidate");
      honeypot_events = parallel::parallel_consolidate(in.logs, {}, pc);
    }
    {
      Span span("core.fuse");
      out.fused = fuse(telescope_events, honeypot_events);
    }
    out.telescope_events = telescope_events.size();
    out.honeypot_events = honeypot_events.size();
    Span release("capture.release");
    packets = {};
  }
  out.seconds = seconds_since(t0);
  out.cpu_s = process_cpu_s() - cpu0;
  return out;
}

}  // namespace

int run_capture(const Options& options, Result& result) {
  Inputs in;
  const double setup_s = median_seconds(kSetupRepeats, [&] {
    in = Inputs{};
    in = make_inputs(options.seed);
  });
  const parallel::ParallelConfig pc{options.threads, 0};

  result.input("packets", static_cast<double>(in.packets));
  result.input("pcap_bytes", static_cast<double>(in.pcap.size()));
  result.input("requests", static_cast<double>(in.requests));
  result.input("honeypots", static_cast<double>(in.logs.size()));
  result.input("honeypot_chunks", static_cast<double>(in.chunks));
  result.input("threads", static_cast<double>(options.threads));
  result.line("inputs: " + std::to_string(in.packets) + " packets (" +
              std::to_string(in.pcap.size()) + " pcap bytes), " +
              std::to_string(in.requests) + " honeypot requests over " +
              std::to_string(in.logs.size()) + " honeypots, " +
              std::to_string(options.threads) + " threads");

  const double rss_start_mb = reset_peak_rss();
  const double untraced_budget = options.trace ? options.seconds / 2 : options.seconds;
  std::vector<double> untraced, untraced_cpu;
  std::vector<std::uint64_t> digests;  // per pass; checked against the oracle
  std::size_t first_events = 0;
  std::uint64_t dropped = 0;
  auto check_pass = [&](const PassOutput& out) {
    digests.push_back(fnv1a(serialize(out.fused)));
    if (first_events == 0) first_events = out.honeypot_events;
    result.check(out.honeypot_events == first_events &&
                     out.ingest.packets == in.packets,
                 "capture: a repetition's event or packet count changed");
    dropped += out.ingest.dropped_batches;
  };
  const std::int64_t start = now_ns();
  while (untraced.size() < 3 || seconds_since(start) < untraced_budget) {
    const PassOutput out = run_pass(in, pc);
    check_pass(out);
    untraced.push_back(out.seconds);
    untraced_cpu.push_back(out.cpu_s);
  }
  const double run_s = median(untraced);
  const LatencySummary pass = summarize(untraced);
  result.set_e2e("setup_s", setup_s);
  result.set_e2e("run_cpu_s", median(untraced_cpu));
  // Read before the oracle runs: its memory is the benchmark's, not the run's.
  const double peak_mb = peak_rss_mib();
  result.set_e2e("peak_rss_mb", peak_mb);
  result.line("peak_rss_mb: " + fmt(peak_mb) + " MiB (" + fmt(rss_start_mb) +
              " MiB resident when timing began)");
  result.line("setup_s: " + fmt(setup_s) + " s (median of " +
              std::to_string(kSetupRepeats) + ")");
  result.line("run_s: " + describe(pass, "s"));
  result.line("run_cpu_s: " + describe(summarize(untraced_cpu), "s") + " process CPU per pass");

  // Every pass, traced ones included, against the sequential oracle.
  auto finish = [&] {
    const std::uint64_t expected = fnv1a(oracle(in));
    for (const std::uint64_t digest : digests)
      result.check(digest == expected, "capture: fused events differ from the sequential oracle");
    result.failed += dropped;
    result.line("error_rate: " +
                fmt(static_cast<double>(result.failed) / static_cast<double>(result.attempted)) +
                " ratio (" + std::to_string(result.failed) + " of " +
                std::to_string(result.attempted) + ")");
    return 0;
  };
  if (!options.trace) return finish();

  // Traced passes: one run id per pass; per-layer metrics are medians.
  Tracer& tracer = Tracer::get();
  tracer.enable(true);
  std::vector<PassOutput> traced;
  const std::int64_t traced_start = now_ns();
  while (traced.size() < 3 || seconds_since(traced_start) < options.seconds / 2) {
    tracer.set_run(static_cast<std::uint32_t>(traced.size() + 1));
    PassOutput out = run_pass(in, pc);
    check_pass(out);
    out.fused = {};
    traced.push_back(std::move(out));
  }
  tracer.enable(false);

  auto per_run = [&](auto&& fn) {
    std::vector<double> values;
    for (std::uint32_t run = 1; run <= traced.size(); ++run)
      values.push_back(fn(run, traced[run - 1]));
    return median(values);
  };
  const auto& last = traced.back();
  const double ingest_s =
      per_run([&](std::uint32_t r, const PassOutput&) { return tracer.busy_s(r, "ingest.run_ingest"); });
  result.set_layer("ingest.busy_s", ingest_s);
  result.set_layer("ingest.packets_per_s", static_cast<double>(last.ingest.packets) / ingest_s);
  result.set_layer("ingest.bytes", static_cast<double>(last.ingest.bytes));
  result.set_layer("ingest.skipped",
                   static_cast<double>(last.ingest.skipped_link + last.ingest.skipped_truncated +
                                       last.ingest.skipped_undecodable));
  result.set_layer("ingest.dropped_batches", static_cast<double>(dropped));

  result.set_layer("telescope.detect_s",
                   per_run([&](std::uint32_t r, const PassOutput&) { return tracer.busy_s(r, "telescope.detect"); }));
  result.set_layer("telescope.packets", static_cast<double>(last.telescope.packets_seen));
  result.set_layer("telescope.backscatter_packets",
                   static_cast<double>(last.telescope.backscatter_packets));
  result.set_layer("telescope.flows_filtered", static_cast<double>(last.telescope.flows_filtered));
  result.set_layer("telescope.events", static_cast<double>(last.telescope.events_emitted));
  const double attempts =
      static_cast<double>(last.telescope.events_emitted + last.telescope.flows_filtered);
  result.set_layer("telescope.accept_ratio",
                   attempts > 0 ? static_cast<double>(last.telescope.events_emitted) / attempts : 0.0);

  const double consolidate_s = per_run(
      [&](std::uint32_t r, const PassOutput&) { return tracer.busy_s(r, "amppot.consolidate"); });
  result.set_layer("amppot.consolidate_s", consolidate_s);
  result.set_layer("amppot.requests", static_cast<double>(in.requests));
  result.set_layer("amppot.requests_per_s", static_cast<double>(in.requests) / consolidate_s);
  result.set_layer("amppot.events", static_cast<double>(last.honeypot_events));

  result.set_layer("core.fuse_s",
                   per_run([&](std::uint32_t r, const PassOutput&) { return tracer.busy_s(r, "core.fuse"); }));
  result.set_layer("core.fused_events",
                   static_cast<double>(last.telescope_events + last.honeypot_events));

  result.set_layer("trace.coverage",
                   per_run([&](std::uint32_t r, const PassOutput&) { return tracer.coverage(r, "capture.pass"); }));
  std::vector<double> traced_s;
  for (const auto& out : traced) traced_s.push_back(out.seconds);
  const double traced_run_s = median(traced_s);
  result.set_layer("trace.overhead_s", traced_run_s - run_s);
  const double telescope_share = per_run([&](std::uint32_t r, const PassOutput&) {
    return (tracer.busy_s(r, "ingest.run_ingest") + tracer.busy_s(r, "telescope.detect")) /
           tracer.busy_s(r, "capture.pass");
  });
  const double amppot_share = per_run([&](std::uint32_t r, const PassOutput&) {
    return tracer.busy_s(r, "amppot.consolidate") / tracer.busy_s(r, "capture.pass");
  });
  result.set_layer("trace.share_telescope", telescope_share);
  result.set_layer("trace.share_amppot", amppot_share);

  // Single-thread baselines of the two parallel stages (same calls, 1 thread).
  std::vector<net::PacketRecord> packets;
  {
    MemBuf buf(in.pcap);
    std::istream stream(&buf);
    packets = ingest::read_packets(stream);
  }
  const parallel::ParallelConfig one{1, 0};
  result.set_layer("telescope.detect_1t_s", median_seconds(3, [&] {
    parallel::ParallelBackscatterDetector detector(one);
    detector.detect(packets);
  }));
  result.set_layer("amppot.consolidate_1t_s", median_seconds(3, [&] {
    parallel::parallel_consolidate(in.logs, {}, one);
  }));

  result.line("traced run_s: " + fmt(traced_run_s) + " s (overhead " +
              fmt(traced_run_s - run_s) + " s over " + std::to_string(traced.size()) +
              " traced passes)");
  result.line("traced wall shares: telescope ingest+detect " + fmt(telescope_share) +
              ", honeypot consolidation " + fmt(amppot_share) + " (each should be >= 1/3)");
  return finish();
}

}  // namespace perfbench
