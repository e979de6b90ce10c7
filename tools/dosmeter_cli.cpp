// dosmeter — command-line runner for the full characterization pipeline.
//
// Usage (every subcommand's --help lists its flags and defaults):
//   dosmeter [--seed N] [--days N] [--domains N] [--direct N] [--reflection N]
//            [--out DIR] [--save-events F] [--quiet]
//     builds a simulated world, runs every analysis, prints a report to
//     stdout, and optionally writes CSV reports into DIR.
//   dosmeter detect   packet-level detection (telescope backscatter +
//                     honeypot consolidation) through the sharded parallel
//                     layer, or over a pcap through the batched ingest
//                     front end; byte-identical output for any --threads
//   dosmeter query    one query (filters + aggregation) over a simulated
//                     world or a --load-events dump
//   dosmeter metrics  exercises every instrumented layer and renders the
//                     metrics registry; --listen keeps serving /metrics
//   dosmeter serve    the HTTP/JSON query server, with the dataset replayed
//                     day by day into the /subscribe + /watch feed
//   dosmeter watch    one subscription replayed through the push dispatcher
//   dosmeter archive save|load   seals a snapshot into a compressed segment
//                     archive, or queries one back through the tiered path
//
// One flag grammar: each flag is one row of a table (Flag) holding a typed,
// whole-value, range-checked parser. Query filters and watch predicates are
// not parsed here — they pass as (key, value) pairs to the serve layer's
// /query and /subscribe grammars, so the CLI and HTTP accept the same values
// with the same limits and messages. A rejected flag exits 2 with the
// subcommand's usage; a runtime failure exits 1.
#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <iostream>
#include <limits>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>

#include "common/strings.h"
#include "common/table.h"
#include "core/impact.h"
#include "core/joint.h"
#include "core/mail_impact.h"
#include "core/migration_analysis.h"
#include "core/ports.h"
#include "core/serialize.h"
#include "core/streaming.h"
#include "core/taxonomy.h"
#include "dps/classifier.h"
#include "ingest/pipeline.h"
#include "net/pcap.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "parallel/detect.h"
#include "parallel/workload.h"
#include "query/engine.h"
#include "query/snapshot.h"
#include "serve/api.h"
#include "serve/server.h"
#include "serve/subscribe_api.h"
#include "sim/scenario.h"
#include "storage/archive.h"
#include "storage/tiered.h"
#include "subscribe/dispatcher.h"

namespace {

using namespace dosm;

// ---------------------------------------------------------------------------
// The flag table.
// ---------------------------------------------------------------------------

[[noreturn]] void usage(std::string_view help, int code) {
  std::cout << help;
  std::exit(code);
}

[[noreturn]] void fail(std::string_view help, std::string_view error) {
  std::cerr << error << "\n";
  usage(help, 2);
}

/// One command-line flag. `apply` receives the flag's value (empty for a
/// switch) and returns an error message, or empty when it accepted it.
struct Flag {
  std::string_view name;
  bool takes_value = true;
  std::function<std::string(std::string_view)> apply;
};
using Flags = std::vector<Flag>;

/// A numeric flag: the whole value must parse as a T inside [lo, hi].
template <typename T>
Flag number(std::string_view name, T lo, T hi, std::function<void(T)> set) {
  return {name, true, [=](std::string_view text) {
            T value{};
            if (serve::parse_number(text, value) && value >= lo &&
                value <= hi) {
              set(value);
              return std::string();
            }
            std::ostringstream error;
            error << name << " must be ";
            if (hi == std::numeric_limits<T>::max() &&
                std::numeric_limits<T>::digits >= 31)  // at least int-wide
              error << ">= " << +lo;
            else
              error << "in [" << +lo << ", " << +hi << "]";
            return error.str();
          }};
}

template <typename T>
Flag number(std::string_view name, T& out, std::type_identity_t<T> lo = 0,
            std::type_identity_t<T> hi = std::numeric_limits<T>::max()) {
  return number<T>(name, lo, hi, [&out](T value) { out = value; });
}

Flag text(std::string_view name, std::string& out) {
  return {name, true, [&out](std::string_view value) {
            out = value;
            return std::string();
          }};
}

Flag toggle(std::string_view name, bool& out) {
  return {name, false, [&out](std::string_view) {
            out = true;
            return std::string();
          }};
}

/// A flag the serve layer parses: `--min-intensity X` becomes the
/// parameter ("min_intensity", "X"); a switch passes "1".
Flag param(std::string_view name, serve::Params& out, bool takes_value = true) {
  std::string key(name.substr(2));
  std::replace(key.begin(), key.end(), '-', '_');
  return {name, takes_value, [key, takes_value, &out](std::string_view value) {
            out.emplace_back(key, takes_value ? std::string(value) : "1");
            return std::string();
          }};
}

/// Applies argv[first..] to `flags`. --help/-h prints `help` and exits 0; a
/// missing value, an unknown flag or a rejected value exits 2.
void parse_flags(int argc, char** argv, int first, const Flags& flags,
                 std::string_view command, std::string_view help) {
  for (int i = first; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--help" || arg == "-h") usage(help, 0);
    const auto flag = std::find_if(
        flags.begin(), flags.end(),
        [arg](const Flag& f) { return f.name == arg; });
    if (flag == flags.end())
      fail(help, "unknown " + std::string(command) + "option: " +
                     std::string(arg));
    if (flag->takes_value && i + 1 >= argc)
      fail(help, "missing value for " + std::string(arg));
    const std::string error = flag->apply(flag->takes_value ? argv[++i] : "");
    if (!error.empty()) fail(help, error);
  }
}

/// Runs a serve-layer grammar over flag parameters, behind the same
/// duplicate-key reject as HTTP; a rejected parameter exits 2.
template <typename Grammar>
serve::ApiCall parse_params(const serve::Params& params, std::string_view help,
                            Grammar grammar) {
  std::string error = serve::find_duplicate(params);
  serve::ApiCall call =
      error.empty() ? grammar(params) : serve::bad_request(std::move(error));
  if (!call.error.empty()) fail(help, call.error);
  return call;
}

/// --seed/--days/--domains/--direct/--reflection: the simulated world.
void add_world_flags(Flags& flags, sim::ScenarioConfig& scenario) {
  flags.push_back(number("--seed", scenario.seed));
  flags.push_back(number<int>("--days", 2, 36500, [&scenario](int days) {
    scenario.window.end = civil_from_days(
        days_from_civil(scenario.window.start) + days - 1);
  }));
  flags.push_back(number("--domains", scenario.hosting.num_domains, 1));
  flags.push_back(number("--direct", scenario.attacker.direct_per_day));
  flags.push_back(number("--reflection", scenario.attacker.reflection_per_day));
}

/// The filter and aggregation flags of `query` and `archive load`, parsed
/// by the /query grammar (serve/api.h).
void add_query_flags(Flags& flags, serve::Params& params) {
  for (const std::string_view name :
       {"--from", "--to", "--source", "--prefix", "--asn", "--country",
        "--port", "--min-intensity", "--agg", "--k"})
    flags.push_back(param(name, params));
  flags.push_back(param("--explain", params, /*takes_value=*/false));
}

// ---------------------------------------------------------------------------
// Shared pipeline steps.
// ---------------------------------------------------------------------------

/// A dataset to load: a simulated world or a binary event dump, plus the
/// snapshot build knobs of the subcommands that index it.
struct Dataset {
  sim::ScenarioConfig scenario;
  std::string load_events;  // binary event dump instead of a simulated world
  int threads = 1;
  int segment_days = 0;
};

/// The world flags plus --load-events.
void add_dataset_flags(Flags& flags, Dataset& data) {
  add_world_flags(flags, data.scenario);
  flags.push_back(text("--load-events", data.load_events));
}

/// --threads/--segment-days: byte-identical output for any value.
void add_build_flags(Flags& flags, Dataset& data) {
  flags.push_back(number("--threads", data.threads, 1));
  flags.push_back(number("--segment-days", data.segment_days));
}

/// A loaded dataset. Only a simulated world carries the metadata that
/// resolves ASN and country; on a dump those columns stay unknown.
struct Loaded {
  std::unique_ptr<sim::World> world;  // null for an event dump
  std::vector<core::AttackEvent> dump;

  std::span<const core::AttackEvent> events() const {
    return world ? world->store.events() : dump;
  }
};

Loaded load_dataset(const Dataset& data) {
  Loaded loaded;
  if (!data.load_events.empty()) {
    loaded.dump = core::load_events(data.load_events);
    std::cerr << "[dosmeter] loaded " << loaded.dump.size() << " events from "
              << data.load_events << "\n";
  } else {
    std::cerr << "[dosmeter] building " << data.scenario.window.num_days()
              << "-day world (seed " << data.scenario.seed << ")...\n";
    loaded.world = sim::build_world(data.scenario);
  }
  return loaded;
}

/// A build context without metadata: ASN and country resolve to unknown.
query::BuildContext bare_context() {
  static const meta::PrefixToAsMap pfx2as;
  static const meta::GeoDatabase geo;
  return {pfx2as, geo};
}

std::shared_ptr<const query::Snapshot> build_snapshot(const Dataset& data,
                                                      const Loaded& loaded) {
  query::BuildContext ctx =
      loaded.world ? query::BuildContext{loaded.world->population.pfx2as(),
                                         loaded.world->population.geo()}
                   : bare_context();
  ctx.threads = data.threads;
  ctx.segment_days = data.segment_days;
  return query::Snapshot::build(data.scenario.window, loaded.events(), ctx,
                                /*version=*/1);
}

/// Feeds `events` in canonical order to `ingest`, calling `close_day`
/// whenever the study day changes; the caller closes the last day.
template <typename Ingest, typename CloseDay>
void replay_by_day(std::span<const core::AttackEvent> events,
                   const StudyWindow& window, Ingest ingest,
                   CloseDay close_day) {
  std::vector<core::AttackEvent> sorted(events.begin(), events.end());
  std::sort(sorted.begin(), sorted.end(), core::canonical_less);
  int open_day = -1;
  for (const auto& event : sorted) {
    const auto t = static_cast<UnixSeconds>(event.start);
    const int day = window.contains(t) ? window.day_of(t) : -1;
    if (day != open_day && open_day != -1) close_day();
    open_day = day;
    ingest(event);
  }
}

/// The packet-level pipeline's output: parallel telescope detection plus,
/// given a fleet, parallel honeypot consolidation, fused in canonical order.
struct Detection {
  parallel::TelescopeDetectStats stats;
  std::size_t telescope_events = 0;
  std::size_t honeypot_events = 0;
  std::vector<core::AttackEvent> events;
};

Detection detect_and_fuse(std::span<const net::PacketRecord> packets,
                          amppot::HoneypotFleet* fleet,
                          const parallel::ParallelConfig& config) {
  parallel::ParallelBackscatterDetector detector(config);
  const auto telescope_events = detector.detect(packets);
  const std::vector<amppot::AmpPotEvent> honeypot_events =
      fleet ? parallel::parallel_harvest(*fleet, {}, config)
            : std::vector<amppot::AmpPotEvent>{};
  Detection out{detector.stats(), telescope_events.size(),
                honeypot_events.size(), {}};
  out.events.reserve(telescope_events.size() + honeypot_events.size());
  for (const auto& event : telescope_events)
    out.events.push_back(core::from_telescope(event));
  for (const auto& event : honeypot_events)
    out.events.push_back(core::from_amppot(event));
  std::sort(out.events.begin(), out.events.end(), core::canonical_less);
  return out;
}

void write_events(const std::string& path,
                  std::span<const core::AttackEvent> events) {
  if (path.empty()) return;
  core::save_events(path, events);
  std::cerr << "[dosmeter] wrote " << events.size() << " events to " << path
            << "\n";
}

void write_metrics(const std::string& path) {
  if (path.empty()) return;
  obs::write_metrics_file(path, obs::MetricsRegistry::global());
  std::cerr << "[dosmeter] wrote metrics to " << path << "\n";
}

void write_file(const std::filesystem::path& path, const std::string& content) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path.string());
  out << content;
}

// ---------------------------------------------------------------------------
// `dosmeter detect` — packet-level detection via the parallel pipeline.
// ---------------------------------------------------------------------------

constexpr std::string_view kDetectHelp =
    "dosmeter detect — packet-level detection (sharded parallel pipeline)\n"
    "  --seed N        workload seed (default 42)\n"
    "  --direct N      ground-truth spoofed attacks (default 400)\n"
    "  --reflection N  ground-truth reflection attacks (default 120)\n"
    "  --hours H       capture window length in hours (default 4)\n"
    "  --pcap F        replay a pcap capture through the batched ingest\n"
    "                  front end (src/ingest) instead of the synthetic\n"
    "                  workload; telescope detection only\n"
    "  --batch-frames N   frames per ingest batch (default 4096)\n"
    "  --ring-capacity N  ingest ring capacity in batches (default 8)\n"
    "  --ring-policy P    block|drop on a full ring (default block;\n"
    "                     drop trades determinism for capture latency)\n"
    "  --save-pcap F   write the synthetic telescope capture to F\n"
    "                  (LINKTYPE_RAW) and exit\n"
    "  --threads N     worker threads (default 1)\n"
    "  --shards N      victim-hash telescope shards (default: one per\n"
    "                  thread)\n"
    "  --save-events F write the fused events as a binary dump\n"
    "  --metrics-out F write pipeline metrics after the run\n"
    "                  (.prom -> Prometheus text, else JSON)\n"
    "  --quiet         suppress the text summary\n"
    "Output is byte-identical for every --threads/--shards setting, every\n"
    "--batch-frames/--ring-capacity setting (with the block policy), and\n"
    "with or without --metrics-out.\n";

int detect_main(int argc, char** argv) {
  parallel::WorkloadConfig workload;
  parallel::ParallelConfig parallel;
  ingest::IngestOptions ingest;
  std::string pcap_in, save_pcap, events_out, metrics_out;
  bool quiet = false;
  parse_flags(
      argc, argv, 2,
      {number("--seed", workload.seed),
       number("--direct", workload.direct_attacks),
       number("--reflection", workload.reflection_attacks),
       number<double>("--hours", 0.0, std::numeric_limits<double>::max(),
                      [&workload](double hours) {
                        workload.window_s = hours * 3600.0;
                      }),
       number("--threads", parallel.threads, 1),
       number("--shards", parallel.shards),
       text("--pcap", pcap_in),
       text("--save-pcap", save_pcap),
       number("--batch-frames", ingest.batch_frames, 1),
       number("--ring-capacity", ingest.ring_capacity, 1),
       {"--ring-policy", true,
        [&ingest](std::string_view value) -> std::string {
          if (value == "block")
            ingest.policy = ingest::Backpressure::kBlock;
          else if (value == "drop")
            ingest.policy = ingest::Backpressure::kDrop;
          else
            return "--ring-policy must be block or drop";
          return {};
        }},
       text("--save-events", events_out),
       text("--metrics-out", metrics_out),
       toggle("--quiet", quiet)},
      "detect ", kDetectHelp);

  // --pcap: the capture comes from a file through the batched ingest front
  // end instead of the synthetic workload generator (telescope path only —
  // there are no honeypot logs in a pcap).
  std::vector<net::PacketRecord> capture_packets;
  std::unique_ptr<amppot::HoneypotFleet> fleet;
  if (!pcap_in.empty()) {
    std::ifstream pcap(pcap_in, std::ios::binary);
    if (!pcap) {
      std::cerr << "cannot open " << pcap_in << "\n";
      return 2;
    }
    capture_packets = ingest::read_packets(pcap, ingest);
    std::cerr << "[dosmeter] capture: " << capture_packets.size()
              << " packets from " << pcap_in << " (batched ingest, "
              << parallel.threads << " threads)\n";
  } else {
    auto generated = parallel::make_workload(workload);
    capture_packets = std::move(generated.packets);
    fleet = std::move(generated.fleet);
    std::cerr << "[dosmeter] capture: " << capture_packets.size()
              << " telescope packets, " << fleet->total_requests()
              << " honeypot requests (" << parallel.threads << " threads, "
              << parallel.effective_shards() << " shards)\n";
  }

  if (!save_pcap.empty()) {
    std::ofstream out(save_pcap, std::ios::binary);
    if (!out) {
      std::cerr << "cannot write " << save_pcap << "\n";
      return 2;
    }
    net::PcapWriter writer(out);
    for (const auto& rec : capture_packets) writer.write_packet(rec);
    std::cerr << "[dosmeter] wrote " << writer.frames_written()
              << " frames to " << save_pcap << "\n";
    return 0;
  }

  const Detection detection =
      detect_and_fuse(capture_packets, fleet.get(), parallel);
  if (!quiet) {
    const auto& stats = detection.stats;
    print_section(std::cout, "Packet-level detection");
    TextTable table({"stage", "count"});
    table.add_row({"telescope packets", std::to_string(stats.packets_seen)});
    table.add_row({"backscatter packets",
                   std::to_string(stats.backscatter_packets)});
    table.add_row({"flows under thresholds",
                   std::to_string(stats.flows_filtered)});
    table.add_row({"telescope events",
                   std::to_string(detection.telescope_events)});
    table.add_row({"honeypot events",
                   std::to_string(detection.honeypot_events)});
    std::cout << table;
  }
  write_events(events_out, detection.events);
  write_metrics(metrics_out);
  return 0;
}

// ---------------------------------------------------------------------------
// `dosmeter query` — ad-hoc queries against the indexed event store.
// ---------------------------------------------------------------------------

constexpr std::string_view kQueryHelp =
    "dosmeter query — ad-hoc queries over the fused event dataset\n"
    "dataset (pick one):\n"
    "  --seed/--days/--domains/--direct/--reflection   simulate a world\n"
    "  --load-events F   query a binary event dump (dosmeter --save-events);\n"
    "                    ASN/country columns resolve only with a simulated\n"
    "                    world, so those filters match nothing on a dump\n"
    "filters (ANDed):\n"
    "  --from YYYY-MM-DD     events starting on/after this day\n"
    "  --to YYYY-MM-DD       events starting on/before this day\n"
    "  --source S            telescope | honeypot | combined\n"
    "  --prefix A.B.C.D/L    target inside the CIDR prefix\n"
    "  --asn N               origin AS of the target\n"
    "  --country CC          geolocated country of the target\n"
    "  --port N              dominant victim port\n"
    "  --min-intensity X     raw intensity >= X\n"
    "aggregation:\n"
    "  --agg A    summary | daily | top-targets | top-asns | top-countries\n"
    "             | events   (default: summary)\n"
    "  --k N      rows for top-k / events listings (default 10)\n"
    "  --threads N  worker threads for the snapshot build (default 1;\n"
    "               identical output for any value)\n"
    "  --segment-days N  days per sealed snapshot segment (default 0 =\n"
    "               one segment; identical output for any value)\n"
    "  --explain  print the planner's chosen access path\n"
    "  --metrics-out F  write pipeline metrics after the run\n"
    "                   (.prom -> Prometheus text, else JSON)\n";

/// Runs one parsed /query call and prints its table — shared by `dosmeter
/// query` (in-memory snapshots) and `dosmeter archive load` (tiered
/// snapshots), so both render byte-identical output for the same dataset.
void print_aggregation(const query::Snapshot& snapshot,
                       const serve::ApiCall& call) {
  const query::Query& q = call.query;
  const std::size_t k = call.k;
  std::cout << "query: " << query::to_string(q) << "\n";
  if (call.explain)
    std::cout << "plan:  " << query::to_string(snapshot.plan(q)) << "\n";

  if (call.agg == "summary") {
    std::cout << "events:         " << snapshot.count(q) << "\n";
    std::cout << "unique targets: " << snapshot.unique_targets(q) << "\n";
  } else if (call.agg == "daily") {
    const auto daily = snapshot.daily_attacks(q);
    TextTable table({"date", "attacks"});
    for (int d = 0; d < daily.num_days(); ++d) {
      if (daily.at(d) == 0.0) continue;
      table.add_row({to_string(snapshot.window().date_of_day(d)),
                     fixed(daily.at(d), 0)});
    }
    std::cout << table;
  } else if (call.agg == "top-targets") {
    TextTable table({"target", "events"});
    for (const auto& row : snapshot.top_targets(q, k))
      table.add_row({row.target.to_string(), std::to_string(row.events)});
    std::cout << table;
  } else if (call.agg == "top-asns") {
    TextTable table({"asn", "targets", "events"});
    for (const auto& row : snapshot.top_asns(q, k))
      table.add_row({"AS" + std::to_string(row.asn),
                     std::to_string(row.targets), std::to_string(row.events)});
    std::cout << table;
  } else if (call.agg == "top-countries") {
    TextTable table({"country", "targets", "share"});
    for (const auto& row : snapshot.top_countries(q, k))
      table.add_row({row.country.to_string(), std::to_string(row.targets),
                     percent(row.share, 2)});
    std::cout << table;
  } else {  // events
    const auto rows = snapshot.match_rows(q);
    TextTable table({"start", "target", "source", "intensity", "port"});
    for (std::size_t i = 0; i < rows.size() && i < k; ++i) {
      const auto row = rows[i];
      table.add_row({fixed(snapshot.start_at(row), 0),
                     snapshot.target_at(row).to_string(),
                     snapshot.source_at(row) == core::EventSource::kTelescope
                         ? "telescope"
                         : "honeypot",
                     fixed(snapshot.intensity_at(row), 2),
                     std::to_string(snapshot.top_port_at(row))});
    }
    std::cout << table;
    if (rows.size() > k)
      std::cout << "(" << rows.size() - k << " more rows; raise --k)\n";
  }
}

int query_main(int argc, char** argv) {
  Dataset data;
  serve::Params params;
  std::string metrics_out;
  Flags flags{text("--metrics-out", metrics_out)};
  add_dataset_flags(flags, data);
  add_build_flags(flags, data);
  add_query_flags(flags, params);
  parse_flags(argc, argv, 2, flags, "query ", kQueryHelp);
  const serve::ApiCall call =
      parse_params(params, kQueryHelp, [&data](const serve::Params& p) {
        return serve::parse_query_params(p, data.scenario.window);
      });

  const Loaded loaded = load_dataset(data);
  const auto snapshot = build_snapshot(data, loaded);
  std::cerr << "[dosmeter] snapshot ready: " << snapshot->size()
            << " events indexed in " << snapshot->num_segments()
            << " segment(s)\n";
  print_aggregation(*snapshot, call);
  write_metrics(metrics_out);
  return 0;
}

// ---------------------------------------------------------------------------
// `dosmeter metrics` — exercise every instrumented layer, show the registry.
// ---------------------------------------------------------------------------

constexpr std::string_view kMetricsHelp =
    "dosmeter metrics — pipeline observability view\n"
    "Runs a small end-to-end workload through every instrumented layer\n"
    "(telescope flow table, honeypot fleet, parallel workers, streaming\n"
    "fusion, query engine) and renders the metrics registry.\n"
    "  --seed N       workload seed (default 42)\n"
    "  --format F     table | json | prom (default table)\n"
    "  --out F        also write the registry to F (.prom -> Prometheus)\n"
    "  --listen [A:]P keep running and serve the registry live at\n"
    "                 http://A:P/metrics — a passthrough to the query\n"
    "                 server (`dosmeter serve`), which scrapes the same\n"
    "                 process-wide registry and adds its own serve.*\n"
    "                 series (requests, cache, admission drops, latency)\n";

int metrics_main(int argc, char** argv) {
  std::uint64_t seed = 42;
  std::string format = "table";
  std::string out;
  std::optional<serve::ServerConfig> listen;  // keep serving /metrics
  parse_flags(
      argc, argv, 2,
      {number("--seed", seed),
       {"--format", true,
        [&format](std::string_view value) -> std::string {
          if (value != "table" && value != "json" && value != "prom")
            return "--format must be table|json|prom";
          format = value;
          return {};
        }},
       text("--out", out),
       {"--listen", true,
        [&listen](std::string_view value) -> std::string {
          serve::ServerConfig server;
          const std::size_t colon = value.rfind(':');
          if (colon != std::string_view::npos)
            server.bind_address = value.substr(0, colon);
          const std::string_view port =
              colon == std::string_view::npos ? value : value.substr(colon + 1);
          if (!serve::parse_number(port, server.port))
            return "--listen must be [A:]P with P in [0, 65535]";
          listen = server;
          return {};
        }}},
      "metrics ", kMetricsHelp);

  // 1. Packet-level detection (telescope + amppot + parallel metrics).
  parallel::WorkloadConfig workload_config;
  workload_config.seed = seed;
  workload_config.direct_attacks = 40;
  workload_config.reflection_attacks = 12;
  workload_config.window_s = 3600.0;
  auto workload = parallel::make_workload(workload_config);
  std::vector<core::AttackEvent> events =
      detect_and_fuse(workload.packets, workload.fleet.get(), {2, 0}).events;

  // 2. Streaming fusion + serving layer (fusion, serialize, query metrics).
  // Workload timestamps are capture-relative seconds; shift them into the
  // study window so both fusion and the snapshot accept them.
  const StudyWindow window = sim::ScenarioConfig{}.window;
  const auto base = static_cast<double>(window.start_time());
  for (auto& event : events) {
    event.start += base;
    event.end += base;
  }
  core::StreamingFusion fusion(window, {}, [](const core::DaySummary&) {});
  for (const auto& event : events) fusion.ingest(event);
  fusion.finish();

  query::QueryEngine engine;
  engine.publish(query::Snapshot::build(window, events, bare_context(), 1));
  const auto snapshot = engine.snapshot();
  snapshot->count(query::Query());  // full scan
  query::Query by_time;
  by_time.between(base, base + 1800.0);
  snapshot->count(by_time);  // time-range plan
  if (!events.empty()) {
    query::Query by_target;
    by_target.in_prefix(net::Prefix(events.front().target, 32));
    snapshot->count(by_target);  // postings plan + clipping
  }

  std::cerr << "[dosmeter] exercised " << events.size()
            << " events through detection, fusion, and serving layers\n";

  // 3. Render the registry.
  const auto snap = obs::MetricsRegistry::global().snapshot();
  if (format == "json") {
    std::cout << obs::to_json(snap);
  } else if (format == "prom") {
    std::cout << obs::to_prometheus(snap);
  } else {
    print_section(std::cout, "Counters");
    TextTable counters({"metric", "value", "help"});
    for (const auto& c : snap.counters)
      counters.add_row({c.name, std::to_string(c.value), c.help});
    std::cout << counters;
    if (!snap.gauges.empty()) {
      print_section(std::cout, "Gauges");
      TextTable gauges({"metric", "value", "help"});
      for (const auto& g : snap.gauges)
        gauges.add_row({g.name, std::to_string(g.value), g.help});
      std::cout << gauges;
    }
    if (!snap.histograms.empty()) {
      print_section(std::cout, "Histograms");
      TextTable hists({"metric", "count", "mean_ms", "help"});
      for (const auto& h : snap.histograms) {
        const double mean_ms =
            h.count ? h.sum / static_cast<double>(h.count) * 1e3 : 0.0;
        hists.add_row({h.name, std::to_string(h.count), fixed(mean_ms, 3),
                       h.help});
      }
      std::cout << hists;
    }
  }
  write_metrics(out);
  if (listen) {
    const serve::Server server(*listen, engine);
    std::cerr << "[dosmeter] serving metrics at http://"
              << listen->bind_address << ":" << server.port()
              << "/metrics (Ctrl-C to stop)\n";
    std::promise<void>().get_future().wait();  // serve until killed
  }
  return 0;
}

// ---------------------------------------------------------------------------
// `dosmeter serve` — the HTTP/JSON query server (src/serve).
// ---------------------------------------------------------------------------

constexpr std::string_view kServeHelp =
    "dosmeter serve — HTTP/JSON query server over the fused event dataset\n"
    "dataset (pick one):\n"
    "  --seed/--days/--domains/--direct/--reflection   simulate a world\n"
    "  --load-events F   serve a binary event dump (dosmeter --save-events)\n"
    "server:\n"
    "  --address A       bind address (default 127.0.0.1)\n"
    "  --port N          TCP port (default 8080; 0 picks an ephemeral\n"
    "                    port, printed on startup)\n"
    "  --workers N       worker threads (default 4)\n"
    "  --queue N         pending-connection capacity; beyond it the\n"
    "                    acceptor answers 429 (default 64)\n"
    "  --cache-bytes N   result-cache budget in bytes (default 8 MiB;\n"
    "                    0 disables caching)\n"
    "  --max-rows N      per-query row budget -> 422 (default unlimited)\n"
    "  --max-millis N    per-query time budget -> 422 (default unlimited)\n"
    "  --threads N       snapshot build threads (default 1)\n"
    "  --segment-days N  days per snapshot segment (default 0 = one)\n"
    "subscriptions:\n"
    "  --tick-millis N   delay between replayed study days on the live\n"
    "                    alert feed (default 100; 0 replays instantly).\n"
    "                    The dataset's events stream through the push\n"
    "                    dispatcher day by day, so /subscribe + /watch\n"
    "                    clients see a live feed.\n"
    "endpoints: /  /healthz  /metrics  /query  /subscribe  /watch — see\n"
    "src/serve/api.h for the /query parameters (same filters as\n"
    "`dosmeter query`) and src/serve/subscribe_api.h for /subscribe and\n"
    "/watch.\n";

int serve_main(int argc, char** argv) {
  Dataset data;
  serve::ServerConfig server_config;
  server_config.port = 8080;
  int tick_millis = 100;
  Flags flags{text("--address", server_config.bind_address),
              number("--port", server_config.port),
              number("--workers", server_config.workers, 1),
              number("--queue", server_config.queue_capacity),
              number("--cache-bytes", server_config.cache_bytes),
              number("--max-rows", server_config.max_rows),
              number("--max-millis", server_config.max_millis),
              number("--tick-millis", tick_millis)};
  add_dataset_flags(flags, data);
  add_build_flags(flags, data);
  parse_flags(argc, argv, 2, flags, "serve ", kServeHelp);

  // Keeps the loaded events around for the live subscription replay below.
  const Loaded loaded = load_dataset(data);
  std::shared_ptr<const query::Snapshot> snapshot =
      build_snapshot(data, loaded);
  std::cerr << "[dosmeter] snapshot ready: " << snapshot->size()
            << " events indexed in " << snapshot->num_segments()
            << " segment(s)\n";

  query::QueryEngine engine;
  engine.publish(std::move(snapshot));

  subscribe::DispatcherConfig dispatcher_config;
  dispatcher_config.window = data.scenario.window;
  if (loaded.world != nullptr) {
    dispatcher_config.pfx2as = &loaded.world->population.pfx2as();
    dispatcher_config.geo = &loaded.world->population.geo();
  }
  subscribe::Dispatcher dispatcher(dispatcher_config);
  const serve::Server server(server_config, engine, &dispatcher);
  std::cerr << "[dosmeter] serving at http://" << server_config.bind_address
            << ":" << server.port() << "/query (" << server_config.workers
            << " workers, queue " << server_config.queue_capacity
            << ", cache " << server_config.cache_bytes
            << " bytes; Ctrl-C to stop)\n";

  // Live feed: replay the dataset through the dispatcher day by day so
  // /subscribe + /watch clients get a stream instead of a fait accompli.
  std::thread replay([&] {
    replay_by_day(
        loaded.events(), data.scenario.window,
        [&dispatcher](const core::AttackEvent& event) {
          dispatcher.ingest(event);
        },
        [&dispatcher, tick_millis] {
          dispatcher.tick();
          if (tick_millis > 0)
            std::this_thread::sleep_for(std::chrono::milliseconds(tick_millis));
        });
    dispatcher.tick();
    std::cerr << "[dosmeter] replay complete: "
              << dispatcher.events_ingested()
              << " events dispatched to subscribers\n";
  });
  std::promise<void>().get_future().wait();  // serve until killed
  replay.join();                             // unreachable; keeps the thread owned
  return 0;
}

// ---------------------------------------------------------------------------
// `dosmeter watch` — replay a dataset through the subscription dispatcher.
// ---------------------------------------------------------------------------

constexpr std::string_view kWatchHelp =
    "dosmeter watch — replay a dataset through the subscription layer\n"
    "Registers one subscription, replays the dataset's events through the\n"
    "push dispatcher (one tick per study day, streaming-fusion spike\n"
    "alerts included), and prints the notifications a live watcher would\n"
    "have received. The same predicate fields drive the query server's\n"
    "/subscribe + /watch endpoints (`dosmeter serve`).\n"
    "dataset (pick one):\n"
    "  --seed/--days/--domains/--direct/--reflection   simulate a world\n"
    "  --load-events F   replay a binary event dump (dosmeter\n"
    "                    --save-events); ASN/country resolve only with a\n"
    "                    simulated world, so those filters match nothing\n"
    "                    on a dump\n"
    "predicate (ANDed; none = firehose):\n"
    "  --prefix A.B.C.D/L  victim inside the CIDR prefix\n"
    "  --asn N             victim's origin AS\n"
    "  --country CC        victim's geolocated country\n"
    "  --proto N           IP protocol of the attack (6=TCP, 17=UDP)\n"
    "  --kind K            new-attack | attack-spike | target-spike\n"
    "output:\n"
    "  --max N             notifications to print (default 50; 0 = all)\n";

int watch_main(int argc, char** argv) {
  Dataset data;
  serve::Params params;
  std::size_t max = 50;
  Flags flags{number("--max", max)};
  add_dataset_flags(flags, data);
  for (const std::string_view name :
       {"--prefix", "--asn", "--country", "--proto", "--kind"})
    flags.push_back(param(name, params));
  parse_flags(argc, argv, 2, flags, "watch ", kWatchHelp);
  const subscribe::Predicate predicate =
      parse_params(params, kWatchHelp, serve::parse_subscribe_params)
          .predicate;

  const Loaded loaded = load_dataset(data);
  subscribe::DispatcherConfig config;
  config.window = data.scenario.window;
  if (loaded.world != nullptr) {
    config.pfx2as = &loaded.world->population.pfx2as();
    config.geo = &loaded.world->population.geo();
  }
  subscribe::Dispatcher dispatcher(config);
  const subscribe::SubscriptionId id = dispatcher.subscribe(predicate);
  std::cerr << "[dosmeter] watching " << predicate.to_string() << " over "
            << loaded.events().size() << " events\n";

  // The dispatcher doubles as the fusion's alert sink, so day-level spike
  // alerts dispatch alongside the per-event kNewAttack alerts.
  core::StreamingFusion fusion(config.window, {},
                               [](const core::DaySummary&) {}, &dispatcher);
  replay_by_day(
      loaded.events(), config.window,
      [&](const core::AttackEvent& event) {
        fusion.ingest(event);
        dispatcher.ingest(event);
      },
      [&dispatcher] { dispatcher.tick(); });
  fusion.finish();
  dispatcher.tick();

  const auto result = dispatcher.fetch(id, 0, max);
  if (!result) {
    std::cerr << "dosmeter: subscription vanished mid-replay\n";
    return 1;
  }
  TextTable table({"seq", "kind", "day", "victim", "asn", "cc", "proto",
                   "intensity", "folds"});
  for (const auto& n : result->notifications) {
    const core::Alert& alert = n.alert;
    if (alert.has_event) {
      table.add_row(
          {std::to_string(n.seq), core::to_string(alert.kind),
           std::to_string(alert.day), alert.event.target.to_string(),
           alert.asn == meta::kUnknownAsn ? "-"
                                          : "AS" + std::to_string(alert.asn),
           alert.country.is_set() ? alert.country.to_string() : "-",
           std::to_string(alert.event.ip_proto),
           fixed(alert.event.intensity, 1), std::to_string(n.coalesced)});
    } else {
      table.add_row({std::to_string(n.seq), core::to_string(alert.kind),
                     std::to_string(alert.day),
                     fixed(alert.value, 0) + " vs " + fixed(alert.baseline, 1),
                     "-", "-", "-", "-", std::to_string(n.coalesced)});
    }
  }
  std::cout << table;
  std::cout << result->notifications.size() << " notification(s)";
  if (result->pending > 0)
    std::cout << ", " << result->pending << " more queued (raise --max)";
  std::cout << "; " << result->dropped << " dropped; "
            << dispatcher.alerts_dispatched() << " alerts dispatched total\n";
  return 0;
}

// ---------------------------------------------------------------------------
// `dosmeter archive` — seal snapshots to disk, query them back tiered.
// ---------------------------------------------------------------------------

constexpr std::string_view kArchiveHelp =
    "dosmeter archive — compressed on-disk segment archives (src/storage)\n"
    "  dosmeter archive save --file F [dataset] [--threads N]\n"
    "                        [--segment-days N (default 7)]\n"
    "    seals the dataset's snapshot segments into archive F and prints\n"
    "    the compression ratio vs the raw in-memory columns.\n"
    "    dataset: --seed/--days/--domains/--direct/--reflection to\n"
    "    simulate a world, or --load-events F for a binary event dump.\n"
    "  dosmeter archive load --file F [--hot-days N] [--cache-bytes N]\n"
    "                        [filters] [--agg A] [--k N] [--explain]\n"
    "                        [--metrics-out F]\n"
    "    opens F as a tiered snapshot — the trailing --hot-days stay\n"
    "    resident, everything older decodes on demand through an LRU\n"
    "    cache of --cache-bytes (0 = no cache) — and runs one query.\n"
    "    Filters and aggregations are those of `dosmeter query`; results\n"
    "    are byte-identical to querying the archived dataset in memory,\n"
    "    for any --hot-days / --cache-bytes.\n";

int archive_main(int argc, char** argv) {
  if (argc < 3) usage(kArchiveHelp, 2);
  const std::string_view mode = argv[2];
  if (mode == "--help" || mode == "-h") usage(kArchiveHelp, 0);
  if (mode != "save" && mode != "load")
    fail(kArchiveHelp, "archive mode must be save|load");

  std::string file;
  Dataset data;  // save
  data.segment_days = 7;
  query::BuildContext ctx = bare_context();  // load
  serve::Params params;
  std::string metrics_out;
  Flags flags{text("--file", file),
              number("--hot-days", ctx.hot_days),
              number("--cache-bytes", ctx.cold_cache_bytes),
              text("--metrics-out", metrics_out)};
  add_dataset_flags(flags, data);
  add_build_flags(flags, data);
  add_query_flags(flags, params);
  parse_flags(argc, argv, 3, flags, "archive ", kArchiveHelp);
  if (file.empty())
    fail(kArchiveHelp, "archive " + std::string(mode) + " needs --file");
  const auto parse_query = [&params](const StudyWindow& window) {
    return parse_params(params, kArchiveHelp,
                        [&window](const serve::Params& p) {
                          return serve::parse_query_params(p, window);
                        });
  };
  parse_query(data.scenario.window);  // reject bad filters before any work

  if (mode == "save") {
    // Same dataset paths as `dosmeter query`, then one write_archive call.
    const Loaded loaded = load_dataset(data);
    const auto snapshot = build_snapshot(data, loaded);
    const std::uint64_t archive_bytes = storage::write_archive(file, *snapshot);
    const std::uint64_t raw_bytes = snapshot->size() * 42;  // SoA bytes/row
    std::cout << "archived " << snapshot->size() << " events in "
              << snapshot->num_segments() << " segment(s) to " << file
              << "\n";
    std::cout << "bytes: " << archive_bytes << " compressed vs " << raw_bytes
              << " raw columns (" << fixed(double(raw_bytes) /
                                               double(std::max<std::uint64_t>(
                                                   archive_bytes, 1)),
                                           2)
              << "x)\n";
    return 0;
  }

  // load: open tiered, run one query through the hot/cold machinery. Day
  // filters resolve against the archive's own window.
  const auto snapshot = storage::open_tiered(file, ctx, /*version=*/1);
  std::cerr << "[dosmeter] opened " << file << ": " << snapshot->size()
            << " events in " << snapshot->num_segments() << " segment(s), "
            << (snapshot->fully_resident() ? "all hot" : "tiered") << "\n";
  print_aggregation(*snapshot, parse_query(snapshot->window()));
  write_metrics(metrics_out);
  return 0;
}

// ---------------------------------------------------------------------------
// `dosmeter` — the full characterization report.
// ---------------------------------------------------------------------------

constexpr std::string_view kReportHelp =
    "dosmeter — macroscopic DoS-ecosystem characterization\n"
    "  --seed N        world seed (default 42)\n"
    "  --days N        study window length in days (default 731)\n"
    "  --domains N     Web domains in the namespace (default 60000)\n"
    "  --direct N      ground-truth direct attacks/day (default 440)\n"
    "  --reflection N  ground-truth reflection attacks/day (default 75)\n"
    "  --out DIR       write CSV reports into DIR\n"
    "  --save-events F write the detected events as a binary dump\n"
    "  --quiet         suppress the text report\n"
    "subcommands:\n"
    "  dosmeter query --help    ad-hoc queries over the event store\n"
    "  dosmeter detect --help   packet-level parallel detection\n"
    "  dosmeter metrics --help  pipeline observability view\n"
    "  dosmeter serve --help    HTTP/JSON query server\n"
    "  dosmeter watch --help    push-based subscription replay\n"
    "  dosmeter archive --help  on-disk segment archives\n";

int report_main(int argc, char** argv) {
  sim::ScenarioConfig config;
  std::string out_dir, events_out;
  bool quiet = false;
  Flags flags{text("--out", out_dir), text("--save-events", events_out),
              toggle("--quiet", quiet)};
  add_world_flags(flags, config);
  parse_flags(argc, argv, 1, flags, "", kReportHelp);

  std::cerr << "[dosmeter] building " << config.window.num_days()
            << "-day world (seed " << config.seed << ", "
            << config.hosting.num_domains << " domains)...\n";
  const auto world = sim::build_world(config);
  std::cerr << "[dosmeter] " << world->store.size() << " detected events ("
            << world->truth.size() << " ground-truth attacks)\n";

  const auto& pfx2as = world->population.pfx2as();
  const dps::Classifier classifier(world->providers, world->names);
  const auto timelines = dps::all_timelines(world->dns, classifier);
  const core::ImpactAnalysis impact(world->store, world->dns);
  const core::MailImpactAnalysis mail(world->store, world->dns);
  const core::JointAttackAnalysis joint(world->store);
  const auto taxonomy = core::classify_websites(impact, timelines, world->dns);
  const core::MigrationAnalysis migration(impact, timelines);

  if (!quiet) {
    print_section(std::cout, "Attack events");
    TextTable table({"source", "#events", "#targets", "#/24s", "#ASNs"});
    for (const auto filter :
         {core::SourceFilter::kTelescope, core::SourceFilter::kHoneypot,
          core::SourceFilter::kCombined}) {
      const auto summary = world->store.summarize(filter, pfx2as);
      table.add_row({core::to_string(filter),
                     human_count(double(summary.events)),
                     human_count(double(summary.unique_targets)),
                     human_count(double(summary.unique_slash24)),
                     human_count(double(summary.unique_asns))});
    }
    std::cout << table;
    std::cout << "joint: " << joint.common_targets() << " common targets, "
              << joint.joint_targets() << " simultaneous\n";

    print_section(std::cout, "Web impact");
    std::cout << "sites ever on attacked IPs: " << impact.attacked_domains()
              << "/" << impact.web_domains() << " ("
              << percent(impact.attacked_domain_fraction(), 1) << "); daily "
              << fixed(impact.affected_daily().daily_mean(), 0) << " ("
              << percent(impact.affected_daily().daily_mean() /
                             double(impact.web_domains()),
                         2)
              << ")\n";
    std::cout << "mail: " << mail.affected_domains() << "/"
              << mail.mail_domains() << " domains' MX hosts attacked\n";

    print_section(std::cout, "DPS taxonomy");
    std::cout << render_taxonomy(taxonomy);
    std::cout << "attack-driven migration cases: " << migration.cases().size()
              << "\n";
  }

  write_events(events_out, world->store.events());

  if (!out_dir.empty()) {
    const std::filesystem::path dir(out_dir);
    std::filesystem::create_directories(dir);

    // Daily series CSV.
    const auto breakdown =
        world->store.daily_breakdown(core::SourceFilter::kCombined, pfx2as);
    TextTable daily({"date", "attacks", "unique_targets", "targeted_slash16",
                     "targeted_asns", "affected_sites", "affected_mail"});
    for (int d = 0; d < breakdown.attacks.num_days(); ++d) {
      daily.add_row({to_string(world->window.date_of_day(d)),
                     fixed(breakdown.attacks.at(d), 0),
                     fixed(breakdown.unique_targets.at(d), 0),
                     fixed(breakdown.targeted_slash16.at(d), 0),
                     fixed(breakdown.targeted_asns.at(d), 0),
                     fixed(impact.affected_daily().at(d), 0),
                     fixed(mail.affected_daily().at(d), 0)});
    }
    write_file(dir / "daily.csv", daily.to_csv());

    // Provider counts CSV.
    const auto counts = dps::provider_customer_counts(timelines, world->providers);
    TextTable providers({"provider", "customers"});
    for (const auto& provider : world->providers.all())
      providers.add_row({provider.name, std::to_string(counts[provider.id])});
    write_file(dir / "providers.csv", providers.to_csv());

    // Events CSV (every detected event).
    TextTable events({"source", "target", "start_unix", "duration_s",
                      "intensity", "protocol"});
    for (const auto& event : world->store.events()) {
      events.add_row(
          {event.is_telescope() ? "telescope" : "honeypot",
           event.target.to_string(), fixed(event.start, 0),
           fixed(event.duration(), 0), fixed(event.intensity, 3),
           event.is_telescope() ? core::service_name(event.top_port, true)
                                : amppot::to_string(event.reflection)});
    }
    write_file(dir / "events.csv", events.to_csv());

    // Migration cases CSV.
    TextTable cases({"domain", "trigger_day", "migration_day", "delay_days",
                     "site_max_intensity"});
    for (const auto& mc : migration.cases()) {
      cases.add_row({world->dns.entry(mc.domain).name,
                     std::to_string(mc.trigger_attack_day),
                     std::to_string(mc.migration_day),
                     std::to_string(mc.delay_days),
                     fixed(mc.site_max_intensity, 5)});
    }
    write_file(dir / "migrations.csv", cases.to_csv());

    std::cerr << "[dosmeter] wrote daily.csv, providers.csv, events.csv, "
                 "migrations.csv to "
              << dir << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) try {
  constexpr std::pair<std::string_view, int (*)(int, char**)> kSubcommands[] = {
      {"query", query_main},     {"detect", detect_main},
      {"metrics", metrics_main}, {"serve", serve_main},
      {"watch", watch_main},     {"archive", archive_main}};
  for (const auto& [name, run] : kSubcommands)
    if (argc > 1 && argv[1] == name) return run(argc, argv);
  return report_main(argc, argv);
} catch (const std::exception& e) {
  std::cerr << "dosmeter: " << e.what() << "\n";
  return 1;
}
