// storage.* instrumentation: archive writes, cold-segment loads, the
// byte-budgeted segment cache, and zone-map pruning effectiveness. Same obs
// contract as every other Metrics struct in the repo: registered once on
// the process-wide registry, updates lock-free.
#pragma once

#include "obs/metrics.h"

namespace dosm::storage {

struct Metrics {
  // Archive writer.
  obs::Counter& segments_written;
  obs::Counter& bytes_written;       // compressed archive bytes
  obs::Counter& raw_bytes_archived;  // 42 B/row SoA equivalent

  // Archive reader / cold loads.
  obs::Counter& segment_loads;  // blobs decoded from disk
  obs::Counter& bytes_read;
  obs::Histogram& load_seconds;  // read + CRC + decode + index build

  // Segment cache (tiered store).
  obs::Counter& cache_hits;
  obs::Counter& cache_misses;
  obs::Counter& cache_evictions;
  obs::Gauge& resident_bytes;     // decoded segment bytes held by the cache
  obs::Gauge& resident_segments;

  // Zone-map pruning.
  obs::Counter& zone_block_skips;    // blocks excluded by clip()
  obs::Counter& zone_segment_skips;  // whole cold segments never fetched

  static Metrics& get();
};

}  // namespace dosm::storage
