#include "storage/metrics.h"

#include "obs/timer.h"

namespace dosm::storage {

Metrics& Metrics::get() {
  static Metrics metrics = [] {
    auto& reg = obs::MetricsRegistry::global();
    return Metrics{
        reg.counter("storage.archive.segments_written",
                    "Segments sealed into archive files"),
        reg.counter("storage.archive.bytes_written",
                    "Compressed archive bytes written"),
        reg.counter("storage.archive.raw_bytes",
                    "Raw SoA byte equivalent of archived rows"),
        reg.counter("storage.segment.loads",
                    "Cold segments decoded from an archive"),
        reg.counter("storage.segment.bytes_read",
                    "Compressed blob bytes read for cold loads"),
        reg.histogram("storage.load_seconds",
                      "Cold segment load time: read, CRC, decode, index build",
                      obs::latency_buckets()),
        reg.counter("storage.cache.hits", "Segment-cache hits"),
        reg.counter("storage.cache.misses", "Segment-cache misses"),
        reg.counter("storage.cache.evictions",
                    "Segments evicted by the cache byte budget"),
        reg.gauge("storage.cache.resident_bytes",
                  "Decoded segment bytes resident in the cache"),
        reg.gauge("storage.cache.resident_segments",
                  "Decoded segments resident in the cache"),
        reg.counter("storage.zone.block_skips",
                    "Blocks excluded from cold scans by zone maps"),
        reg.counter("storage.zone.segment_skips",
                    "Cold segments never fetched thanks to zone clipping"),
    };
  }();
  return metrics;
}

}  // namespace dosm::storage
