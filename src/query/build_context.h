// The consolidated snapshot-construction surface.
//
// Every path that materializes columnar segments — the batch
// Snapshot::build and the streaming SnapshotPublisher — needs the same
// ingredients: the metadata joins resolved at build time (pfx2as, geo) and
// the segment and tier layout. BuildContext is that one bag of arguments.
// Set a knob by name (`{.pfx2as = m, .geo = g, .segment_days = 7}`), never
// by position: the knobs are all integers, so a positional list that skips
// one silently shifts the rest.
//
// Lifetimes: the metadata maps are BORROWED. For the batch builders they
// must stay alive for the duration of the build call; a SnapshotPublisher
// borrows them for its whole life, so there they must outlive the
// publisher itself. The finished Snapshot never touches them again (ASN
// and country are resolved into columns during the build).
#pragma once

#include <cstddef>

#include "meta/geo.h"
#include "meta/pfx2as.h"

namespace dosm::query {

struct BuildContext {
  /// Routeviews-style prefix-to-AS map; resolved per event at build time.
  const meta::PrefixToAsMap& pfx2as;
  /// Geolocation database; resolved per event at build time.
  const meta::GeoDatabase& geo;
  /// Batch-build segmentation: days per sealed FrameSegment. 0 keeps the
  /// whole dataset in a single segment (the full-rebuild layout). The
  /// streaming SnapshotPublisher always seals one segment per completed
  /// day regardless of this knob — that is its publish contract.
  int segment_days = 0;

  // Tiered-storage spill knobs, honored by storage::open_tiered when a
  // snapshot is materialized over an on-disk archive (src/storage). Pure
  // in-memory builds ignore both; results are byte-identical for any
  // setting — the knobs move bytes between tiers, never change answers.

  /// Trailing window days kept resident (hot) when opening an archive: a
  /// segment stays in memory iff it contains a start within the last
  /// `hot_days` days of the study window. 0 spills every segment cold.
  int hot_days = 0;
  /// Byte budget for the decoded cold-segment LRU cache (estimated decoded
  /// size, columns + index). 0 disables caching: every cold access decodes
  /// afresh and drops the segment when the query finishes.
  std::size_t cold_cache_bytes = 64u << 20;
};

}  // namespace dosm::query
