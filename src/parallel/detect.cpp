#include "parallel/detect.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "obs/metrics.h"
#include "obs/timer.h"
#include "parallel/merge.h"
#include "parallel/shard.h"
#include "parallel/work_queue.h"
#include "telescope/backscatter.h"

namespace dosm::parallel {
namespace {

struct ShardMetrics {
  obs::Counter& shard_packets;
  obs::Counter& shard_events;
  obs::Histogram& merge_seconds;

  static ShardMetrics& get() {
    static ShardMetrics metrics = [] {
      auto& reg = obs::MetricsRegistry::global();
      return ShardMetrics{
          reg.counter("parallel.shard_backscatter_packets",
                      "Backscatter packets processed across shards"),
          reg.counter("parallel.shard_events",
                      "Events emitted by shard and per-log tasks before the "
                      "final merge"),
          reg.histogram("parallel.merge_seconds",
                        "Final merge time (telescope k-way merge, fleet "
                        "merge)",
                        obs::latency_buckets()),
      };
    }();
    return metrics;
  }
};

/// A FlowTable sweep point of the whole capture: the packet whose arrival
/// fires the sweep, and its timestamp.
struct SweepTick {
  std::uint32_t index;
  double ts;
};

/// Where FlowTable::sweep fires on `packets`, by the same rule from the same
/// start (last_sweep_ = 0; fire when now - last_sweep_ >= 60), read from the
/// timestamps alone.
std::vector<SweepTick> sweep_ticks(std::span<const net::PacketRecord> packets) {
  std::vector<SweepTick> ticks;
  double last_sweep = 0.0;
  for (std::size_t i = 0; i < packets.size(); ++i) {
    const double ts = packets[i].timestamp();
    if (ts - last_sweep >= 60.0) {
      ticks.push_back({static_cast<std::uint32_t>(i), ts});
      last_sweep = ts;
    }
  }
  return ticks;
}

/// Appends the index of every backscatter packet in packets[begin, end) to
/// the bucket of its victim's shard (one bucket per shard).
void bucket_backscatter(std::span<const net::PacketRecord> packets,
                        std::size_t begin, std::size_t end,
                        std::span<std::vector<std::uint32_t>> buckets) {
  for (std::size_t i = begin; i < end; ++i) {
    const auto& rec = packets[i];
    if (!telescope::is_backscatter(rec)) continue;
    const auto victim = telescope::classify_backscatter(rec).victim;
    buckets[shard_of(victim, buckets.size())].push_back(
        static_cast<std::uint32_t>(i));
  }
}

}  // namespace

bool telescope_event_less(const telescope::TelescopeEvent& a,
                          const telescope::TelescopeEvent& b) {
  return std::tie(a.start, a.victim) < std::tie(b.start, b.victim);
}

bool amppot_event_less(const amppot::AmpPotEvent& a,
                       const amppot::AmpPotEvent& b) {
  return std::tie(a.start, a.victim, a.protocol) <
         std::tie(b.start, b.victim, b.protocol);
}

void canonical_sort(std::vector<telescope::TelescopeEvent>& events) {
  std::sort(events.begin(), events.end(), telescope_event_less);
}

void canonical_sort(std::vector<amppot::AmpPotEvent>& events) {
  std::sort(events.begin(), events.end(), amppot_event_less);
}

ParallelBackscatterDetector::ParallelBackscatterDetector(
    ParallelConfig parallel, telescope::ClassifierThresholds thresholds,
    double flow_timeout_s)
    : parallel_(parallel),
      thresholds_(thresholds),
      flow_timeout_s_(flow_timeout_s) {}

std::vector<telescope::TelescopeEvent> ParallelBackscatterDetector::detect(
    std::span<const net::PacketRecord> packets) {
  if (packets.size() > std::numeric_limits<std::uint32_t>::max())
    throw std::length_error("capture exceeds 2^32 packets");
  const std::size_t num_shards = parallel_.effective_shards();

  // With several shards, two read-only passes over the capture run side by
  // side: one finds the sweep points, the others bucket contiguous chunks.
  // A shard's buckets, concatenated in chunk order, hold ascending indices.
  const auto num_chunks =
      static_cast<std::size_t>(std::max(parallel_.threads, 1));
  std::vector<SweepTick> ticks;
  std::vector<std::vector<std::uint32_t>> buckets(num_chunks * num_shards);
  if (num_shards > 1) {
    run_tasks(num_chunks + 1, parallel_.threads, [&](std::size_t task) {
      if (task == 0) {
        ticks = sweep_ticks(packets);
        return;
      }
      const std::size_t chunk = task - 1;
      bucket_backscatter(
          packets, packets.size() * chunk / num_chunks,
          packets.size() * task / num_chunks,
          std::span(buckets).subspan(chunk * num_shards, num_shards));
    });
  }

  std::vector<std::vector<telescope::TelescopeEvent>> per_shard(num_shards);
  std::vector<TelescopeDetectStats> shard_stats(num_shards);
  run_tasks(num_shards, parallel_.threads, [&](std::size_t shard) {
    auto& events = per_shard[shard];
    TelescopeDetectStats& stats = shard_stats[shard];
    telescope::FlowTable table(
        [&](const telescope::TelescopeEvent& event) {
          if (telescope::passes_thresholds_recorded(event, thresholds_)) {
            ++stats.events_emitted;
            events.push_back(event);
          } else {
            ++stats.flows_filtered;
          }
        },
        flow_timeout_s_);
    auto add = [&](const net::PacketRecord& rec) {
      ++stats.backscatter_packets;
      table.add(rec.timestamp(), telescope::classify_backscatter(rec),
                rec.ip_len, rec.dst);
    };
    if (num_shards == 1) {
      // A lone shard owns every packet, so the capture itself is its
      // partition and its own packets fire the sweeps.
      for (const auto& rec : packets) {
        if (telescope::is_backscatter(rec))
          add(rec);
        else
          table.advance(rec.timestamp());
      }
    } else {
      // Merge this shard's packets with the broadcast sweep ticks in
      // capture order; a tick goes before the packet at its own index, as
      // the sequential sweep runs before that packet is added.
      std::size_t next_tick = 0;
      for (std::size_t chunk = 0; chunk < num_chunks; ++chunk) {
        for (const std::uint32_t i : buckets[chunk * num_shards + shard]) {
          while (next_tick < ticks.size() && ticks[next_tick].index <= i)
            table.advance(ticks[next_tick++].ts);
          add(packets[i]);
        }
      }
      while (next_tick < ticks.size()) table.advance(ticks[next_tick++].ts);
    }
    table.flush();
    std::sort(events.begin(), events.end(), telescope_event_less);
  });

  stats_ = TelescopeDetectStats{};
  stats_.packets_seen = packets.size();
  for (const auto& s : shard_stats) {
    stats_.backscatter_packets += s.backscatter_packets;
    stats_.flows_filtered += s.flows_filtered;
    stats_.events_emitted += s.events_emitted;
  }
  ShardMetrics& metrics = ShardMetrics::get();
  metrics.shard_packets.add(stats_.backscatter_packets);
  metrics.shard_events.add(stats_.events_emitted);
  const obs::ScopedTimer merge_timer(metrics.merge_seconds);
  return kway_merge(std::move(per_shard), telescope_event_less);
}

std::vector<amppot::AmpPotEvent> parallel_consolidate(
    std::span<const HoneypotLog> logs, const amppot::ConsolidatorConfig& config,
    const ParallelConfig& parallel) {
  // Stage 1 is per honeypot: one task per log, results slotted by log index.
  std::vector<std::vector<amppot::AmpPotEvent>> per_log(logs.size());
  run_tasks(logs.size(), parallel.threads, [&](std::size_t i) {
    per_log[i] =
        amppot::consolidate_log(logs[i].requests, config, logs[i].honeypot_id);
  });

  std::size_t total = 0;
  for (const auto& events : per_log) total += events.size();
  std::vector<amppot::AmpPotEvent> stage1;
  stage1.reserve(total);
  for (const auto& events : per_log)
    stage1.insert(stage1.end(), events.begin(), events.end());

  // Stage 2 sorts on a total order, so its output — already canonical — is a
  // pure function of the stage-1 event set.
  ShardMetrics& metrics = ShardMetrics::get();
  metrics.shard_events.add(stage1.size());
  const obs::ScopedTimer merge_timer(metrics.merge_seconds);
  return amppot::merge_fleet_events(std::move(stage1));
}

std::vector<amppot::AmpPotEvent> parallel_harvest(
    amppot::HoneypotFleet& fleet, const amppot::ConsolidatorConfig& config,
    const ParallelConfig& parallel) {
  std::vector<HoneypotLog> logs;
  logs.reserve(fleet.size());
  for (const auto& honeypot : fleet.honeypots())
    logs.push_back({honeypot.id(), honeypot.log()});
  auto events = parallel_consolidate(logs, config, parallel);
  fleet.clear_logs();
  return events;
}

}  // namespace dosm::parallel
