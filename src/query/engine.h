// The concurrent serving layer: snapshot-swap publication.
//
// Readers call QueryEngine::snapshot() — a lock-free atomic load of a
// shared_ptr<const Snapshot> — and run any number of queries against the
// immutable snapshot they obtained; they never block and can never observe
// torn state, because published snapshots are never mutated. The streaming
// path (SnapshotPublisher) seals each completed day that has events into a
// new FrameSegment and publishes a snapshot whose segment list reuses every
// previously sealed segment by pointer — an O(new-day) publish. Readers
// holding an old snapshot keep it alive until they drop it.
//
// This is the §9 "near-realtime fusion, extraction, correlation" serving
// model: one writer, many ad-hoc query clients.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/streaming.h"
#include "query/build_context.h"
#include "query/event_frame.h"
#include "query/segment.h"
#include "query/snapshot.h"

namespace dosm::query {

class QueryEngine {
 public:
  /// Starts empty (snapshot() returns nullptr) or with an initial snapshot.
  explicit QueryEngine(std::shared_ptr<const Snapshot> initial = nullptr);

  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  /// The current snapshot; lock-free, safe from any thread. May be null
  /// before the first publish.
  std::shared_ptr<const Snapshot> snapshot() const;

  /// Atomically replaces the served snapshot. Throws std::invalid_argument
  /// on a null snapshot or a version not greater than the current one
  /// (readers rely on versions to detect swaps).
  void publish(std::shared_ptr<const Snapshot> next);

  std::uint64_t publishes() const { return publishes_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::shared_ptr<const Snapshot>> current_;
  std::atomic<std::uint64_t> publishes_{0};
};

/// Bridges canonically ordered streaming ingest to snapshot publication.
/// Days close on a DayClock (common/time.h); out-of-window events are not
/// ingested.
/// Each completed day with events is sealed ONCE into an immutable
/// FrameSegment (a gap day publishes nothing); the publish assembles a new
/// segment list sharing all prior segments by pointer, so publish cost is
/// O(rows in the sealed day), not O(all history) — while a reader still
/// always sees a whole-day-consistent dataset. ctx.segment_days does not
/// apply to the streaming path.
class SnapshotPublisher {
 public:
  /// The engine is borrowed and must outlive the publisher. The day
  /// builder borrows ctx's metadata, so the metadata must outlive the
  /// publisher too (see BuildContext).
  SnapshotPublisher(QueryEngine& engine, StudyWindow window,
                    const BuildContext& ctx);

  /// Ingests one event; throws std::invalid_argument when it is
  /// canonically less than the event before it (core::canonical_less).
  /// Seals + publishes each non-empty day the clock closes.
  void ingest(const core::AttackEvent& event);

  /// Seals and publishes the open (possibly partial) day.
  void finish();

  std::uint64_t events_ingested() const { return events_ingested_; }
  std::uint64_t snapshots_published() const { return snapshots_published_; }
  /// Segments sealed so far == non-empty days completed (each sealed once).
  std::size_t segments_sealed() const { return sealed_.size(); }

 private:
  void seal_and_publish();

  QueryEngine* engine_;
  StudyWindow window_;
  std::vector<std::shared_ptr<const FrameSegment>> sealed_;
  FrameBuilder day_builder_;
  DayClock clock_;
  std::optional<core::AttackEvent> last_;  // previous input (order check)
  std::uint64_t events_ingested_ = 0;
  std::uint64_t snapshots_published_ = 0;
  std::uint64_t next_version_ = 1;
};

}  // namespace dosm::query
