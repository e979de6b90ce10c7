// Immutable per-day (or per-day-range) building block of a Snapshot.
//
// A FrameSegment owns one columnar EventFrame plus the FrameIndex built
// over it. Segments are sealed exactly once — when a batch build buckets
// its input, or when the streaming publisher completes a day — and are
// immutable afterwards, so consecutive snapshots share sealed segments by
// shared_ptr (structural sharing: a day-boundary publish re-uses every
// previously sealed segment by pointer and pays only for the new day).
//
// Ordering invariant: segments are keyed by non-overlapping start-time
// buckets (pre-window, window days, post-window). The input events arrive
// in canonical order (core::canonical_less) and each bucket is a
// contiguous run of them, so every start in bucket k is strictly less than
// every start in bucket k+1 and the concatenation of a snapshot's segments
// is EXACTLY the row order of a monolithic full rebuild — which is what
// lets the property suite demand bit-identical aggregation results, row
// ids included, at any granularity.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "query/build_context.h"
#include "query/event_frame.h"
#include "query/index.h"

namespace dosm::query {

class FrameSegment {
 public:
  /// Builds the index over the given frame; prefer seal_segment().
  explicit FrameSegment(EventFrame frame)
      : frame_(std::move(frame)), index_(frame_) {}

  FrameSegment(const FrameSegment&) = delete;
  FrameSegment& operator=(const FrameSegment&) = delete;

  const EventFrame& frame() const { return frame_; }
  const FrameIndex& index() const { return index_; }
  std::size_t size() const { return frame_.size(); }

  /// Start-time bounds (inclusive); valid only for non-empty segments,
  /// which is all of them — empty buckets are never sealed.
  double start_min() const { return frame_.start().front(); }
  double start_max() const { return frame_.start().back(); }

  /// True when [t0, t1) can contain at least one of this segment's starts.
  bool overlaps(double t0, double t1) const {
    return start_min() < t1 && start_max() >= t0;
  }

 private:
  EventFrame frame_;
  FrameIndex index_;
};

/// Seals one segment from an accumulated builder, which is left empty:
/// frame build + index build, with query.segment.* seal metrics recorded.
/// The builder must be non-empty.
std::shared_ptr<const FrameSegment> seal_segment(FrameBuilder& builder);

/// Buckets a canonically ordered event span by start time and seals one
/// segment per non-empty bucket, in time order. Throws
/// std::invalid_argument when an event is canonically less than the one
/// before it (core::canonical_less). ctx.segment_days controls
/// granularity: 0 seals everything into a single segment; k > 0 groups
/// window days into runs of k, with out-of-window events (if any) in their
/// own pre/post buckets. The metadata in ctx is borrowed only for the
/// duration of the call.
std::vector<std::shared_ptr<const FrameSegment>> build_segments(
    StudyWindow window, std::span<const core::AttackEvent> events,
    const BuildContext& ctx);

}  // namespace dosm::query
