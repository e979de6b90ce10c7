// dosmeter — command-line runner for the full characterization pipeline.
//
// Builds a simulated world (or a paper-default one), runs every analysis,
// prints a report to stdout, and optionally exports machine-readable CSVs.
//
// Usage:
//   dosmeter [options]
//     --seed N            world seed                  (default 42)
//     --days N            study window length in days (default 731)
//     --domains N         Web domains in the namespace (default 60000)
//     --direct N          ground-truth direct attacks/day      (default 440)
//     --reflection N      ground-truth reflection attacks/day  (default 75)
//     --out DIR           write CSV reports into DIR
//     --quiet             suppress the text report
//     --help
//
//   dosmeter query [world options] [--load-events F] [filters] [aggregations]
//     runs ad-hoc queries against the indexed event store (src/query);
//     see query_usage() below for the filter/aggregation flags.
//
//   dosmeter detect [--seed N] [--threads N] [--shards N] [--save-events F]
//     runs the packet-level detection pipeline (telescope backscatter +
//     honeypot consolidation) over a synthetic capture through the sharded
//     parallel execution layer; output is byte-identical for any --threads.
//
//   dosmeter metrics [--seed N] [--format table|json|prom] [--out F]
//     exercises every instrumented pipeline layer over a small workload and
//     renders the observability registry (src/obs). `detect` and `query`
//     also accept --metrics-out F to dump their metrics after the run;
//     instrumentation never perturbs analysis output (event dumps are
//     byte-identical with metrics on or off). `--listen` passes through to
//     `dosmeter serve`, whose /metrics endpoint scrapes the same registry
//     live.
//
//   dosmeter serve [world options] [--port N] [--workers N] ...
//     starts the HTTP/JSON query server (src/serve) over a simulated
//     world's snapshot, with a live subscription feed (/subscribe, /watch)
//     replaying the dataset day by day; see serve_usage() below.
//
//   dosmeter watch [world options] [--prefix P] [--asn N] [--kind K] ...
//     registers one subscription predicate, replays the dataset through
//     the push dispatcher (src/subscribe), and prints the notifications a
//     live watcher would have received; see watch_usage() below.
//
//   dosmeter archive save|load ...
//     seals a snapshot into the compressed on-disk segment archive
//     (src/storage) and queries it back through the tiered hot/cold path;
//     see archive_usage() below.
#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <future>
#include <iostream>
#include <optional>
#include <string>
#include <thread>

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
#include "serve/server.h"
#include "sim/scenario.h"
#include "storage/archive.h"
#include "storage/tiered.h"
#include "subscribe/dispatcher.h"

namespace {

using namespace dosm;

struct Options {
  sim::ScenarioConfig scenario;
  std::string out_dir;
  std::string save_events;  // binary event dump to write
  bool quiet = false;
};

[[noreturn]] void usage(int code) {
  std::cout <<
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
  std::exit(code);
}

Options parse_options(int argc, char** argv) {
  Options options;
  auto need_value = [&](int& i) -> std::string {
    if (i + 1 >= argc) {
      std::cerr << "missing value for " << argv[i] << "\n";
      usage(2);
    }
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") usage(0);
    else if (arg == "--seed") options.scenario.seed = std::stoull(need_value(i));
    else if (arg == "--days") {
      const int days = std::stoi(need_value(i));
      if (days < 2) {
        std::cerr << "--days must be >= 2\n";
        usage(2);
      }
      options.scenario.window.end = civil_from_days(
          days_from_civil(options.scenario.window.start) + days - 1);
    } else if (arg == "--domains") {
      options.scenario.hosting.num_domains = std::stoi(need_value(i));
    } else if (arg == "--direct") {
      options.scenario.attacker.direct_per_day = std::stod(need_value(i));
    } else if (arg == "--reflection") {
      options.scenario.attacker.reflection_per_day = std::stod(need_value(i));
    } else if (arg == "--out") {
      options.out_dir = need_value(i);
    } else if (arg == "--save-events") {
      options.save_events = need_value(i);
    } else if (arg == "--quiet") {
      options.quiet = true;
    } else {
      std::cerr << "unknown option: " << arg << "\n";
      usage(2);
    }
  }
  return options;
}

void write_file(const std::filesystem::path& path, const std::string& content) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path.string());
  out << content;
}

// ---------------------------------------------------------------------------
// `dosmeter detect` — packet-level detection via the parallel pipeline.
// ---------------------------------------------------------------------------

struct DetectOptions {
  parallel::WorkloadConfig workload;
  parallel::ParallelConfig parallel;
  ingest::IngestOptions ingest;
  std::string pcap_in;
  std::string save_pcap;
  std::string save_events;
  std::string metrics_out;
  bool quiet = false;
};

[[noreturn]] void detect_usage(int code) {
  std::cout <<
      "dosmeter detect — packet-level detection (sharded parallel pipeline)\n"
      "  --seed N        workload seed (default 42)\n"
      "  --direct N      ground-truth spoofed attacks (default 400)\n"
      "  --reflection N  ground-truth reflection attacks (default 120)\n"
      "  --hours H       capture window length in hours (default 4)\n"
      "  --pcap F        replay a pcap capture through the batched ingest\n"
      "                  front end (src/ingest) instead of the synthetic\n"
      "                  workload; telescope detection only\n"
      "  --batch-frames N   frames per ingest batch (default 512)\n"
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
  std::exit(code);
}

DetectOptions parse_detect_options(int argc, char** argv) {
  DetectOptions options;
  auto need_value = [&](int& i) -> std::string {
    if (i + 1 >= argc) {
      std::cerr << "missing value for " << argv[i] << "\n";
      detect_usage(2);
    }
    return argv[++i];
  };
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") detect_usage(0);
    else if (arg == "--seed") options.workload.seed = std::stoull(need_value(i));
    else if (arg == "--direct") {
      options.workload.direct_attacks = std::stoi(need_value(i));
    } else if (arg == "--reflection") {
      options.workload.reflection_attacks = std::stoi(need_value(i));
    } else if (arg == "--hours") {
      options.workload.window_s = std::stod(need_value(i)) * 3600.0;
    } else if (arg == "--threads") {
      options.parallel.threads = std::stoi(need_value(i));
    } else if (arg == "--shards") {
      options.parallel.shards = std::stoi(need_value(i));
    } else if (arg == "--pcap") {
      options.pcap_in = need_value(i);
    } else if (arg == "--save-pcap") {
      options.save_pcap = need_value(i);
    } else if (arg == "--batch-frames") {
      options.ingest.batch_frames =
          static_cast<std::size_t>(std::stoul(need_value(i)));
    } else if (arg == "--ring-capacity") {
      options.ingest.ring_capacity =
          static_cast<std::size_t>(std::stoul(need_value(i)));
    } else if (arg == "--ring-policy") {
      const std::string policy = need_value(i);
      if (policy == "block") {
        options.ingest.policy = ingest::Backpressure::kBlock;
      } else if (policy == "drop") {
        options.ingest.policy = ingest::Backpressure::kDrop;
      } else {
        std::cerr << "--ring-policy must be block or drop\n";
        detect_usage(2);
      }
    } else if (arg == "--save-events") {
      options.save_events = need_value(i);
    } else if (arg == "--metrics-out") {
      options.metrics_out = need_value(i);
    } else if (arg == "--quiet") {
      options.quiet = true;
    } else {
      std::cerr << "unknown detect option: " << arg << "\n";
      detect_usage(2);
    }
  }
  if (options.parallel.threads < 1 || options.parallel.shards < 0) {
    std::cerr << "--threads must be >= 1 and --shards >= 0\n";
    detect_usage(2);
  }
  if (options.ingest.batch_frames < 1 || options.ingest.ring_capacity < 1) {
    std::cerr << "--batch-frames and --ring-capacity must be >= 1\n";
    detect_usage(2);
  }
  return options;
}

int detect_main(int argc, char** argv) {
  const DetectOptions options = parse_detect_options(argc, argv);

  // --pcap: the capture comes from a file through the batched ingest front
  // end instead of the synthetic workload generator (telescope path only —
  // there are no honeypot logs in a pcap).
  std::vector<net::PacketRecord> capture_packets;
  std::unique_ptr<amppot::HoneypotFleet> fleet;
  if (!options.pcap_in.empty()) {
    std::ifstream pcap(options.pcap_in, std::ios::binary);
    if (!pcap) {
      std::cerr << "cannot open " << options.pcap_in << "\n";
      return 2;
    }
    capture_packets = ingest::read_packets(pcap, options.ingest);
    std::cerr << "[dosmeter] capture: " << capture_packets.size()
              << " packets from " << options.pcap_in << " (batched ingest, "
              << options.parallel.threads << " threads)\n";
  } else {
    auto workload = parallel::make_workload(options.workload);
    capture_packets = std::move(workload.packets);
    fleet = std::move(workload.fleet);
    std::cerr << "[dosmeter] capture: " << capture_packets.size()
              << " telescope packets, " << fleet->total_requests()
              << " honeypot requests (" << options.parallel.threads
              << " threads, " << options.parallel.effective_shards()
              << " shards)\n";
  }

  if (!options.save_pcap.empty()) {
    std::ofstream out(options.save_pcap, std::ios::binary);
    if (!out) {
      std::cerr << "cannot write " << options.save_pcap << "\n";
      return 2;
    }
    net::PcapWriter writer(out);
    for (const auto& rec : capture_packets) writer.write_packet(rec);
    std::cerr << "[dosmeter] wrote " << writer.frames_written()
              << " frames to " << options.save_pcap << "\n";
    return 0;
  }

  parallel::ParallelBackscatterDetector detector(options.parallel);
  const auto telescope_events = detector.detect(capture_packets);
  const std::vector<amppot::AmpPotEvent> honeypot_events =
      fleet ? parallel::parallel_harvest(*fleet, {}, options.parallel)
            : std::vector<amppot::AmpPotEvent>{};

  std::vector<core::AttackEvent> events;
  events.reserve(telescope_events.size() + honeypot_events.size());
  for (const auto& event : telescope_events)
    events.push_back(core::from_telescope(event));
  for (const auto& event : honeypot_events)
    events.push_back(core::from_amppot(event));
  std::sort(events.begin(), events.end(), core::canonical_less);

  if (!options.quiet) {
    const auto& stats = detector.stats();
    print_section(std::cout, "Packet-level detection");
    TextTable table({"stage", "count"});
    table.add_row({"telescope packets", std::to_string(stats.packets_seen)});
    table.add_row({"backscatter packets",
                   std::to_string(stats.backscatter_packets)});
    table.add_row({"flows under thresholds",
                   std::to_string(stats.flows_filtered)});
    table.add_row({"telescope events", std::to_string(telescope_events.size())});
    table.add_row({"honeypot events", std::to_string(honeypot_events.size())});
    std::cout << table;
  }

  if (!options.save_events.empty()) {
    core::save_events(options.save_events, events);
    std::cerr << "[dosmeter] wrote " << events.size() << " events to "
              << options.save_events << "\n";
  }
  if (!options.metrics_out.empty()) {
    obs::write_metrics_file(options.metrics_out, obs::MetricsRegistry::global());
    std::cerr << "[dosmeter] wrote metrics to " << options.metrics_out << "\n";
  }
  return 0;
}

// ---------------------------------------------------------------------------
// `dosmeter query` — ad-hoc queries against the indexed event store.
// ---------------------------------------------------------------------------

struct QueryOptions {
  sim::ScenarioConfig scenario;
  std::string load_events;  // binary dump instead of a simulated world
  query::Query query;
  std::optional<CivilDate> from;
  std::optional<CivilDate> to;
  std::string agg = "summary";
  std::size_t k = 10;
  int threads = 1;
  int segment_days = 0;
  bool explain = false;
  std::string metrics_out;
};

[[noreturn]] void query_usage(int code) {
  std::cout <<
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
  std::exit(code);
}

/// Runs one aggregation and prints its table — shared by `dosmeter query`
/// (in-memory snapshots) and `dosmeter archive load` (tiered snapshots), so
/// both paths render byte-identical output for the same dataset. Returns
/// false on an unknown aggregation name.
bool print_aggregation(const query::Snapshot& snapshot,
                       const StudyWindow& window, const query::Query& q,
                       const std::string& agg, std::size_t k, bool explain) {
  std::cout << "query: " << query::to_string(q) << "\n";
  if (explain)
    std::cout << "plan:  " << query::to_string(snapshot.plan(q)) << "\n";

  if (agg == "summary") {
    std::cout << "events:         " << snapshot.count(q) << "\n";
    std::cout << "unique targets: " << snapshot.unique_targets(q) << "\n";
  } else if (agg == "daily") {
    const auto daily = snapshot.daily_attacks(q);
    TextTable table({"date", "attacks"});
    for (int d = 0; d < daily.num_days(); ++d) {
      if (daily.at(d) == 0.0) continue;
      table.add_row({to_string(window.date_of_day(d)), fixed(daily.at(d), 0)});
    }
    std::cout << table;
  } else if (agg == "top-targets") {
    TextTable table({"target", "events"});
    for (const auto& row : snapshot.top_targets(q, k))
      table.add_row({row.target.to_string(), std::to_string(row.events)});
    std::cout << table;
  } else if (agg == "top-asns") {
    TextTable table({"asn", "targets", "events"});
    for (const auto& row : snapshot.top_asns(q, k))
      table.add_row({"AS" + std::to_string(row.asn),
                     std::to_string(row.targets), std::to_string(row.events)});
    std::cout << table;
  } else if (agg == "top-countries") {
    TextTable table({"country", "targets", "share"});
    for (const auto& row : snapshot.top_countries(q, k))
      table.add_row({row.country.to_string(), std::to_string(row.targets),
                     percent(row.share, 2)});
    std::cout << table;
  } else if (agg == "events") {
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
  } else {
    return false;
  }
  return true;
}

QueryOptions parse_query_options(int argc, char** argv) {
  QueryOptions options;
  auto need_value = [&](int& i) -> std::string {
    if (i + 1 >= argc) {
      std::cerr << "missing value for " << argv[i] << "\n";
      query_usage(2);
    }
    return argv[++i];
  };
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") query_usage(0);
    else if (arg == "--seed") options.scenario.seed = std::stoull(need_value(i));
    else if (arg == "--days") {
      const int days = std::stoi(need_value(i));
      if (days < 2) {
        std::cerr << "--days must be >= 2\n";
        query_usage(2);
      }
      options.scenario.window.end = civil_from_days(
          days_from_civil(options.scenario.window.start) + days - 1);
    } else if (arg == "--domains") {
      options.scenario.hosting.num_domains = std::stoi(need_value(i));
    } else if (arg == "--direct") {
      options.scenario.attacker.direct_per_day = std::stod(need_value(i));
    } else if (arg == "--reflection") {
      options.scenario.attacker.reflection_per_day = std::stod(need_value(i));
    } else if (arg == "--load-events") {
      options.load_events = need_value(i);
    } else if (arg == "--from") {
      options.from = parse_civil(need_value(i));
    } else if (arg == "--to") {
      options.to = parse_civil(need_value(i));
    } else if (arg == "--source") {
      const std::string value = need_value(i);
      if (value == "telescope")
        options.query.from_source(core::SourceFilter::kTelescope);
      else if (value == "honeypot")
        options.query.from_source(core::SourceFilter::kHoneypot);
      else if (value == "combined")
        options.query.from_source(core::SourceFilter::kCombined);
      else {
        std::cerr << "--source must be telescope|honeypot|combined\n";
        query_usage(2);
      }
    } else if (arg == "--prefix") {
      options.query.in_prefix(net::Prefix::parse(need_value(i)));
    } else if (arg == "--asn") {
      options.query.in_asn(static_cast<meta::Asn>(std::stoul(need_value(i))));
    } else if (arg == "--country") {
      options.query.in_country(meta::CountryCode(need_value(i)));
    } else if (arg == "--port") {
      options.query.on_port(static_cast<std::uint16_t>(std::stoi(need_value(i))));
    } else if (arg == "--min-intensity") {
      options.query.at_least(std::stod(need_value(i)));
    } else if (arg == "--agg") {
      options.agg = need_value(i);
    } else if (arg == "--k") {
      options.k = static_cast<std::size_t>(std::stoul(need_value(i)));
    } else if (arg == "--threads") {
      options.threads = std::stoi(need_value(i));
      if (options.threads < 1) {
        std::cerr << "--threads must be >= 1\n";
        query_usage(2);
      }
    } else if (arg == "--segment-days") {
      options.segment_days = std::stoi(need_value(i));
      if (options.segment_days < 0) {
        std::cerr << "--segment-days must be >= 0\n";
        query_usage(2);
      }
    } else if (arg == "--explain") {
      options.explain = true;
    } else if (arg == "--metrics-out") {
      options.metrics_out = need_value(i);
    } else {
      std::cerr << "unknown query option: " << arg << "\n";
      query_usage(2);
    }
  }
  return options;
}

int query_main(int argc, char** argv) {
  QueryOptions options = parse_query_options(argc, argv);

  // Materialize the snapshot: either over a simulated world (full metadata)
  // or over a binary event dump (empty metadata).
  std::shared_ptr<const query::Snapshot> snapshot;
  StudyWindow window = options.scenario.window;
  const meta::PrefixToAsMap empty_pfx2as;
  const meta::GeoDatabase empty_geo;
  std::unique_ptr<sim::World> world;
  if (!options.load_events.empty()) {
    const auto events = core::load_events(options.load_events);
    std::cerr << "[dosmeter] loaded " << events.size() << " events from "
              << options.load_events << "\n";
    snapshot = query::Snapshot::build(
        window, events,
        query::BuildContext{empty_pfx2as, empty_geo, options.threads,
                            options.segment_days});
  } else {
    std::cerr << "[dosmeter] building " << window.num_days()
              << "-day world (seed " << options.scenario.seed << ")...\n";
    world = sim::build_world(options.scenario);
    snapshot = query::Snapshot::from_store(
        world->store,
        query::BuildContext{world->population.pfx2as(),
                            world->population.geo(), options.threads,
                            options.segment_days});
  }
  std::cerr << "[dosmeter] snapshot ready: " << snapshot->size()
            << " events indexed in " << snapshot->num_segments()
            << " segment(s)\n";

  // Day filters resolve against the snapshot's window.
  if (options.from || options.to) {
    const double begin =
        options.from ? static_cast<double>(unix_from_civil(*options.from))
                     : static_cast<double>(window.start_time());
    const double end =
        options.to ? static_cast<double>(unix_from_civil(*options.to) +
                                         kSecondsPerDay)
                   : static_cast<double>(window.end_time());
    options.query.between(begin, end);
  }
  if (!print_aggregation(*snapshot, window, options.query, options.agg,
                         options.k, options.explain)) {
    std::cerr << "unknown aggregation: " << options.agg << "\n";
    query_usage(2);
  }
  if (!options.metrics_out.empty()) {
    obs::write_metrics_file(options.metrics_out, obs::MetricsRegistry::global());
    std::cerr << "[dosmeter] wrote metrics to " << options.metrics_out << "\n";
  }
  return 0;
}

// ---------------------------------------------------------------------------
// `dosmeter metrics` — exercise every instrumented layer, show the registry.
// ---------------------------------------------------------------------------

struct MetricsOptions {
  std::uint64_t seed = 42;
  std::string format = "table";  // table | json | prom
  std::string out;
  std::string listen;  // [ADDR:]PORT — keep serving /metrics live
};

[[noreturn]] void metrics_usage(int code) {
  std::cout <<
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
  std::exit(code);
}

MetricsOptions parse_metrics_options(int argc, char** argv) {
  MetricsOptions options;
  auto need_value = [&](int& i) -> std::string {
    if (i + 1 >= argc) {
      std::cerr << "missing value for " << argv[i] << "\n";
      metrics_usage(2);
    }
    return argv[++i];
  };
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") metrics_usage(0);
    else if (arg == "--seed") options.seed = std::stoull(need_value(i));
    else if (arg == "--format") options.format = need_value(i);
    else if (arg == "--out") options.out = need_value(i);
    else if (arg == "--listen") options.listen = need_value(i);
    else {
      std::cerr << "unknown metrics option: " << arg << "\n";
      metrics_usage(2);
    }
  }
  if (options.format != "table" && options.format != "json" &&
      options.format != "prom") {
    std::cerr << "--format must be table|json|prom\n";
    metrics_usage(2);
  }
  return options;
}

int metrics_main(int argc, char** argv) {
  const MetricsOptions options = parse_metrics_options(argc, argv);

  // 1. Packet-level detection (telescope + amppot + parallel metrics).
  parallel::WorkloadConfig workload_config;
  workload_config.seed = options.seed;
  workload_config.direct_attacks = 40;
  workload_config.reflection_attacks = 12;
  workload_config.window_s = 3600.0;
  auto workload = parallel::make_workload(workload_config);
  const parallel::ParallelConfig pc{2, 0};
  parallel::ParallelBackscatterDetector detector(pc);
  const auto telescope_events = detector.detect(workload.packets);
  const auto honeypot_events = parallel::parallel_harvest(*workload.fleet, {}, pc);

  std::vector<core::AttackEvent> events;
  events.reserve(telescope_events.size() + honeypot_events.size());
  for (const auto& event : telescope_events)
    events.push_back(core::from_telescope(event));
  for (const auto& event : honeypot_events)
    events.push_back(core::from_amppot(event));
  std::sort(events.begin(), events.end(), core::canonical_less);

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

  const meta::PrefixToAsMap empty_pfx2as;
  const meta::GeoDatabase empty_geo;
  query::QueryEngine engine;
  engine.publish(query::Snapshot::build(
      window, events, query::BuildContext{empty_pfx2as, empty_geo}, 1));
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
  if (options.format == "json") {
    std::cout << obs::to_json(snap);
  } else if (options.format == "prom") {
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
  if (!options.out.empty()) {
    obs::write_metrics_file(options.out, obs::MetricsRegistry::global());
    std::cerr << "[dosmeter] wrote metrics to " << options.out << "\n";
  }
  if (!options.listen.empty()) {
    serve::ServerConfig server_config;
    const std::size_t colon = options.listen.rfind(':');
    const std::string port_text = colon == std::string::npos
                                      ? options.listen
                                      : options.listen.substr(colon + 1);
    if (colon != std::string::npos)
      server_config.bind_address = options.listen.substr(0, colon);
    server_config.port = static_cast<std::uint16_t>(std::stoul(port_text));
    const serve::Server server(server_config, engine);
    std::cerr << "[dosmeter] serving metrics at http://"
              << server_config.bind_address << ":" << server.port()
              << "/metrics (Ctrl-C to stop)\n";
    std::promise<void>().get_future().wait();  // serve until killed
  }
  return 0;
}

// ---------------------------------------------------------------------------
// `dosmeter serve` — the HTTP/JSON query server (src/serve).
// ---------------------------------------------------------------------------

struct ServeOptions {
  sim::ScenarioConfig scenario;
  std::string load_events;
  serve::ServerConfig server;
  int threads = 1;
  int segment_days = 0;
  int tick_millis = 100;
};

[[noreturn]] void serve_usage(int code) {
  std::cout <<
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
  std::exit(code);
}

ServeOptions parse_serve_options(int argc, char** argv) {
  ServeOptions options;
  options.server.port = 8080;
  auto need_value = [&](int& i) -> std::string {
    if (i + 1 >= argc) {
      std::cerr << "missing value for " << argv[i] << "\n";
      serve_usage(2);
    }
    return argv[++i];
  };
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") serve_usage(0);
    else if (arg == "--seed") options.scenario.seed = std::stoull(need_value(i));
    else if (arg == "--days") {
      const int days = std::stoi(need_value(i));
      if (days < 2) {
        std::cerr << "--days must be >= 2\n";
        serve_usage(2);
      }
      options.scenario.window.end = civil_from_days(
          days_from_civil(options.scenario.window.start) + days - 1);
    } else if (arg == "--domains") {
      options.scenario.hosting.num_domains = std::stoi(need_value(i));
    } else if (arg == "--direct") {
      options.scenario.attacker.direct_per_day = std::stod(need_value(i));
    } else if (arg == "--reflection") {
      options.scenario.attacker.reflection_per_day = std::stod(need_value(i));
    } else if (arg == "--load-events") {
      options.load_events = need_value(i);
    } else if (arg == "--address") {
      options.server.bind_address = need_value(i);
    } else if (arg == "--port") {
      options.server.port = static_cast<std::uint16_t>(std::stoul(need_value(i)));
    } else if (arg == "--workers") {
      options.server.workers = std::stoul(need_value(i));
      if (options.server.workers == 0) {
        std::cerr << "--workers must be >= 1\n";
        serve_usage(2);
      }
    } else if (arg == "--queue") {
      options.server.queue_capacity = std::stoul(need_value(i));
    } else if (arg == "--cache-bytes") {
      options.server.cache_bytes = std::stoul(need_value(i));
    } else if (arg == "--max-rows") {
      options.server.max_rows = std::stoull(need_value(i));
    } else if (arg == "--max-millis") {
      options.server.max_millis = std::stoull(need_value(i));
    } else if (arg == "--threads") {
      options.threads = std::stoi(need_value(i));
      if (options.threads < 1) {
        std::cerr << "--threads must be >= 1\n";
        serve_usage(2);
      }
    } else if (arg == "--segment-days") {
      options.segment_days = std::stoi(need_value(i));
      if (options.segment_days < 0) {
        std::cerr << "--segment-days must be >= 0\n";
        serve_usage(2);
      }
    } else if (arg == "--tick-millis") {
      options.tick_millis = std::stoi(need_value(i));
      if (options.tick_millis < 0) {
        std::cerr << "--tick-millis must be >= 0\n";
        serve_usage(2);
      }
    } else {
      std::cerr << "unknown serve option: " << arg << "\n";
      serve_usage(2);
    }
  }
  return options;
}

int serve_main(int argc, char** argv) {
  const ServeOptions options = parse_serve_options(argc, argv);

  // Materialize the snapshot the same way `dosmeter query` does, keeping
  // the event list around for the live subscription replay below.
  std::shared_ptr<const query::Snapshot> snapshot;
  const StudyWindow window = options.scenario.window;
  const meta::PrefixToAsMap empty_pfx2as;
  const meta::GeoDatabase empty_geo;
  std::unique_ptr<sim::World> world;
  std::vector<core::AttackEvent> events;
  if (!options.load_events.empty()) {
    events = core::load_events(options.load_events);
    std::cerr << "[dosmeter] loaded " << events.size() << " events from "
              << options.load_events << "\n";
    snapshot = query::Snapshot::build(
        window, events,
        query::BuildContext{empty_pfx2as, empty_geo, options.threads,
                            options.segment_days},
        /*version=*/1);
  } else {
    std::cerr << "[dosmeter] building " << window.num_days()
              << "-day world (seed " << options.scenario.seed << ")...\n";
    world = sim::build_world(options.scenario);
    events.assign(world->store.events().begin(), world->store.events().end());
    snapshot = query::Snapshot::from_store(
        world->store,
        query::BuildContext{world->population.pfx2as(),
                            world->population.geo(), options.threads,
                            options.segment_days},
        /*version=*/1);
  }
  std::cerr << "[dosmeter] snapshot ready: " << snapshot->size()
            << " events indexed in " << snapshot->num_segments()
            << " segment(s)\n";

  query::QueryEngine engine;
  engine.publish(std::move(snapshot));

  subscribe::DispatcherConfig dispatcher_config;
  dispatcher_config.window = window;
  if (world != nullptr) {
    dispatcher_config.pfx2as = &world->population.pfx2as();
    dispatcher_config.geo = &world->population.geo();
  }
  subscribe::Dispatcher dispatcher(dispatcher_config);
  const serve::Server server(options.server, engine, &dispatcher);
  std::cerr << "[dosmeter] serving at http://" << options.server.bind_address
            << ":" << server.port() << "/query (" << options.server.workers
            << " workers, queue " << options.server.queue_capacity
            << ", cache " << options.server.cache_bytes
            << " bytes; Ctrl-C to stop)\n";

  // Live feed: replay the dataset through the dispatcher day by day so
  // /subscribe + /watch clients get a stream instead of a fait accompli.
  std::thread replay([&options, &dispatcher, &events, window] {
    std::sort(events.begin(), events.end(), core::canonical_less);
    int open_day = -1;
    for (const auto& event : events) {
      const auto t = static_cast<UnixSeconds>(event.start);
      const int day = window.contains(t) ? window.day_of(t) : -1;
      if (day != open_day && open_day != -1) {
        dispatcher.tick();
        if (options.tick_millis > 0)
          std::this_thread::sleep_for(
              std::chrono::milliseconds(options.tick_millis));
      }
      open_day = day;
      dispatcher.ingest(event);
    }
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

struct WatchOptions {
  sim::ScenarioConfig scenario;
  std::string load_events;
  subscribe::Predicate predicate;
  std::size_t max = 50;
};

[[noreturn]] void watch_usage(int code) {
  std::cout <<
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
  std::exit(code);
}

WatchOptions parse_watch_options(int argc, char** argv) {
  WatchOptions options;
  auto need_value = [&](int& i) -> std::string {
    if (i + 1 >= argc) {
      std::cerr << "missing value for " << argv[i] << "\n";
      watch_usage(2);
    }
    return argv[++i];
  };
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") watch_usage(0);
    else if (arg == "--seed") options.scenario.seed = std::stoull(need_value(i));
    else if (arg == "--days") {
      const int days = std::stoi(need_value(i));
      if (days < 2) {
        std::cerr << "--days must be >= 2\n";
        watch_usage(2);
      }
      options.scenario.window.end = civil_from_days(
          days_from_civil(options.scenario.window.start) + days - 1);
    } else if (arg == "--domains") {
      options.scenario.hosting.num_domains = std::stoi(need_value(i));
    } else if (arg == "--direct") {
      options.scenario.attacker.direct_per_day = std::stod(need_value(i));
    } else if (arg == "--reflection") {
      options.scenario.attacker.reflection_per_day = std::stod(need_value(i));
    } else if (arg == "--load-events") {
      options.load_events = need_value(i);
    } else if (arg == "--prefix") {
      options.predicate.match_prefix(net::Prefix::parse(need_value(i)));
    } else if (arg == "--asn") {
      options.predicate.match_asn(
          static_cast<meta::Asn>(std::stoul(need_value(i))));
    } else if (arg == "--country") {
      options.predicate.match_country(meta::CountryCode(need_value(i)));
    } else if (arg == "--proto") {
      options.predicate.match_proto(
          static_cast<std::uint8_t>(std::stoi(need_value(i))));
    } else if (arg == "--kind") {
      const std::string name = need_value(i);
      const auto kind = core::parse_alert_kind(name);
      if (!kind) {
        std::cerr << "--kind must be new-attack|attack-spike|target-spike\n";
        watch_usage(2);
      }
      options.predicate.match_kind(*kind);
    } else if (arg == "--max") {
      options.max = static_cast<std::size_t>(std::stoul(need_value(i)));
    } else {
      std::cerr << "unknown watch option: " << arg << "\n";
      watch_usage(2);
    }
  }
  return options;
}

int watch_main(int argc, char** argv) {
  const WatchOptions options = parse_watch_options(argc, argv);

  std::vector<core::AttackEvent> events;
  subscribe::DispatcherConfig config;
  config.window = options.scenario.window;
  std::unique_ptr<sim::World> world;
  if (!options.load_events.empty()) {
    events = core::load_events(options.load_events);
    std::cerr << "[dosmeter] loaded " << events.size() << " events from "
              << options.load_events << "\n";
  } else {
    std::cerr << "[dosmeter] building " << config.window.num_days()
              << "-day world (seed " << options.scenario.seed << ")...\n";
    world = sim::build_world(options.scenario);
    events.assign(world->store.events().begin(), world->store.events().end());
    config.pfx2as = &world->population.pfx2as();
    config.geo = &world->population.geo();
  }
  std::sort(events.begin(), events.end(), core::canonical_less);

  subscribe::Dispatcher dispatcher(config);
  const subscribe::SubscriptionId id = dispatcher.subscribe(options.predicate);
  std::cerr << "[dosmeter] watching " << options.predicate.to_string()
            << " over " << events.size() << " events\n";

  // The dispatcher doubles as the fusion's alert sink, so day-level spike
  // alerts dispatch alongside the per-event kNewAttack alerts.
  core::StreamingFusion fusion(config.window, {},
                               [](const core::DaySummary&) {}, &dispatcher);
  int open_day = -1;
  for (const auto& event : events) {
    const auto t = static_cast<UnixSeconds>(event.start);
    const int day = config.window.contains(t) ? config.window.day_of(t) : -1;
    if (day != open_day && open_day != -1) dispatcher.tick();
    open_day = day;
    fusion.ingest(event);
    dispatcher.ingest(event);
  }
  fusion.finish();
  dispatcher.tick();

  const auto result = dispatcher.fetch(id, 0, options.max);
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

struct ArchiveOptions {
  std::string mode;  // save | load
  std::string file;
  // save:
  sim::ScenarioConfig scenario;
  std::string load_events;
  int threads = 1;
  int segment_days = 7;
  // load:
  int hot_days = 0;
  std::size_t cache_bytes = 64u << 20;
  query::Query query;
  std::optional<CivilDate> from;
  std::optional<CivilDate> to;
  std::string agg = "summary";
  std::size_t k = 10;
  bool explain = false;
  std::string metrics_out;
};

[[noreturn]] void archive_usage(int code) {
  std::cout <<
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
  std::exit(code);
}

ArchiveOptions parse_archive_options(int argc, char** argv) {
  ArchiveOptions options;
  if (argc < 3) archive_usage(2);
  options.mode = argv[2];
  if (options.mode == "--help" || options.mode == "-h") archive_usage(0);
  if (options.mode != "save" && options.mode != "load") {
    std::cerr << "archive mode must be save|load\n";
    archive_usage(2);
  }
  auto need_value = [&](int& i) -> std::string {
    if (i + 1 >= argc) {
      std::cerr << "missing value for " << argv[i] << "\n";
      archive_usage(2);
    }
    return argv[++i];
  };
  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") archive_usage(0);
    else if (arg == "--file") options.file = need_value(i);
    else if (arg == "--seed") options.scenario.seed = std::stoull(need_value(i));
    else if (arg == "--days") {
      const int days = std::stoi(need_value(i));
      if (days < 2) {
        std::cerr << "--days must be >= 2\n";
        archive_usage(2);
      }
      options.scenario.window.end = civil_from_days(
          days_from_civil(options.scenario.window.start) + days - 1);
    } else if (arg == "--domains") {
      options.scenario.hosting.num_domains = std::stoi(need_value(i));
    } else if (arg == "--direct") {
      options.scenario.attacker.direct_per_day = std::stod(need_value(i));
    } else if (arg == "--reflection") {
      options.scenario.attacker.reflection_per_day = std::stod(need_value(i));
    } else if (arg == "--load-events") {
      options.load_events = need_value(i);
    } else if (arg == "--threads") {
      options.threads = std::stoi(need_value(i));
      if (options.threads < 1) {
        std::cerr << "--threads must be >= 1\n";
        archive_usage(2);
      }
    } else if (arg == "--segment-days") {
      options.segment_days = std::stoi(need_value(i));
      if (options.segment_days < 0) {
        std::cerr << "--segment-days must be >= 0\n";
        archive_usage(2);
      }
    } else if (arg == "--hot-days") {
      options.hot_days = std::stoi(need_value(i));
    } else if (arg == "--cache-bytes") {
      options.cache_bytes = std::stoul(need_value(i));
    } else if (arg == "--from") {
      options.from = parse_civil(need_value(i));
    } else if (arg == "--to") {
      options.to = parse_civil(need_value(i));
    } else if (arg == "--source") {
      const std::string value = need_value(i);
      if (value == "telescope")
        options.query.from_source(core::SourceFilter::kTelescope);
      else if (value == "honeypot")
        options.query.from_source(core::SourceFilter::kHoneypot);
      else if (value == "combined")
        options.query.from_source(core::SourceFilter::kCombined);
      else {
        std::cerr << "--source must be telescope|honeypot|combined\n";
        archive_usage(2);
      }
    } else if (arg == "--prefix") {
      options.query.in_prefix(net::Prefix::parse(need_value(i)));
    } else if (arg == "--asn") {
      options.query.in_asn(static_cast<meta::Asn>(std::stoul(need_value(i))));
    } else if (arg == "--country") {
      options.query.in_country(meta::CountryCode(need_value(i)));
    } else if (arg == "--port") {
      options.query.on_port(static_cast<std::uint16_t>(std::stoi(need_value(i))));
    } else if (arg == "--min-intensity") {
      options.query.at_least(std::stod(need_value(i)));
    } else if (arg == "--agg") {
      options.agg = need_value(i);
    } else if (arg == "--k") {
      options.k = static_cast<std::size_t>(std::stoul(need_value(i)));
    } else if (arg == "--explain") {
      options.explain = true;
    } else if (arg == "--metrics-out") {
      options.metrics_out = need_value(i);
    } else {
      std::cerr << "unknown archive option: " << arg << "\n";
      archive_usage(2);
    }
  }
  if (options.file.empty()) {
    std::cerr << "archive " << options.mode << " needs --file\n";
    archive_usage(2);
  }
  return options;
}

int archive_main(int argc, char** argv) {
  ArchiveOptions options = parse_archive_options(argc, argv);
  const meta::PrefixToAsMap empty_pfx2as;
  const meta::GeoDatabase empty_geo;

  if (options.mode == "save") {
    // Same dataset paths as `dosmeter query`, then one write_archive call.
    std::shared_ptr<const query::Snapshot> snapshot;
    std::unique_ptr<sim::World> world;
    if (!options.load_events.empty()) {
      const auto events = core::load_events(options.load_events);
      std::cerr << "[dosmeter] loaded " << events.size() << " events from "
                << options.load_events << "\n";
      snapshot = query::Snapshot::build(
          options.scenario.window, events,
          query::BuildContext{empty_pfx2as, empty_geo, options.threads,
                              options.segment_days});
    } else {
      std::cerr << "[dosmeter] building " << options.scenario.window.num_days()
                << "-day world (seed " << options.scenario.seed << ")...\n";
      world = sim::build_world(options.scenario);
      snapshot = query::Snapshot::from_store(
          world->store,
          query::BuildContext{world->population.pfx2as(),
                              world->population.geo(), options.threads,
                              options.segment_days});
    }
    const std::uint64_t archive_bytes =
        storage::write_archive(options.file, *snapshot);
    const std::uint64_t raw_bytes = snapshot->size() * 42;  // SoA bytes/row
    std::cout << "archived " << snapshot->size() << " events in "
              << snapshot->num_segments() << " segment(s) to " << options.file
              << "\n";
    std::cout << "bytes: " << archive_bytes << " compressed vs " << raw_bytes
              << " raw columns (" << fixed(double(raw_bytes) /
                                               double(std::max<std::uint64_t>(
                                                   archive_bytes, 1)),
                                           2)
              << "x)\n";
    return 0;
  }

  // load: open tiered, run one query through the hot/cold machinery.
  query::BuildContext ctx{empty_pfx2as, empty_geo};
  ctx.hot_days = options.hot_days;
  ctx.cold_cache_bytes = options.cache_bytes;
  const auto snapshot = storage::open_tiered(options.file, ctx, /*version=*/1);
  const StudyWindow window = snapshot->window();
  std::cerr << "[dosmeter] opened " << options.file << ": " << snapshot->size()
            << " events in " << snapshot->num_segments() << " segment(s), "
            << (snapshot->fully_resident() ? "all hot" : "tiered") << "\n";

  if (options.from || options.to) {
    const double begin =
        options.from ? static_cast<double>(unix_from_civil(*options.from))
                     : static_cast<double>(window.start_time());
    const double end =
        options.to ? static_cast<double>(unix_from_civil(*options.to) +
                                         kSecondsPerDay)
                   : static_cast<double>(window.end_time());
    options.query.between(begin, end);
  }
  if (!print_aggregation(*snapshot, window, options.query, options.agg,
                         options.k, options.explain)) {
    std::cerr << "unknown aggregation: " << options.agg << "\n";
    archive_usage(2);
  }
  if (!options.metrics_out.empty()) {
    obs::write_metrics_file(options.metrics_out, obs::MetricsRegistry::global());
    std::cerr << "[dosmeter] wrote metrics to " << options.metrics_out << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) try {
  if (argc > 1 && std::string(argv[1]) == "query") return query_main(argc, argv);
  if (argc > 1 && std::string(argv[1]) == "detect")
    return detect_main(argc, argv);
  if (argc > 1 && std::string(argv[1]) == "metrics")
    return metrics_main(argc, argv);
  if (argc > 1 && std::string(argv[1]) == "serve")
    return serve_main(argc, argv);
  if (argc > 1 && std::string(argv[1]) == "watch")
    return watch_main(argc, argv);
  if (argc > 1 && std::string(argv[1]) == "archive")
    return archive_main(argc, argv);
  const Options options = parse_options(argc, argv);
  const auto& config = options.scenario;

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

  if (!options.quiet) {
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

  if (!options.save_events.empty()) {
    std::vector<core::AttackEvent> events(world->store.events().begin(),
                                          world->store.events().end());
    core::save_events(options.save_events, events);
    std::cerr << "[dosmeter] wrote " << events.size() << " events to "
              << options.save_events << "\n";
  }

  if (!options.out_dir.empty()) {
    const std::filesystem::path dir(options.out_dir);
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
} catch (const std::exception& e) {
  std::cerr << "dosmeter: " << e.what() << "\n";
  return 1;
}
