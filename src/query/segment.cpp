#include "query/segment.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "obs/metrics.h"
#include "obs/timer.h"

namespace dosm::query {
namespace {

struct SegmentMetrics {
  obs::Counter& sealed;
  obs::Counter& rows_sealed;
  obs::Histogram& seal_seconds;

  static SegmentMetrics& get() {
    static SegmentMetrics metrics = [] {
      auto& reg = obs::MetricsRegistry::global();
      return SegmentMetrics{
          reg.counter("query.segment.sealed",
                      "Immutable frame segments sealed (built once)"),
          reg.counter("query.segment.rows_sealed",
                      "Event rows materialized into sealed segments"),
          reg.histogram("query.segment.seal_seconds",
                        "Per-segment frame + index build time",
                        obs::latency_buckets()),
      };
    }();
    return metrics;
  }
};

}  // namespace

std::shared_ptr<const FrameSegment> seal_segment(FrameBuilder& builder) {
  SegmentMetrics& metrics = SegmentMetrics::get();
  const obs::ScopedTimer timer(metrics.seal_seconds);
  auto segment = std::make_shared<const FrameSegment>(builder.build());
  metrics.sealed.inc();
  metrics.rows_sealed.add(segment->size());
  return segment;
}

std::vector<std::shared_ptr<const FrameSegment>> build_segments(
    StudyWindow window, std::span<const core::AttackEvent> events,
    const BuildContext& ctx) {
  if (!std::is_sorted(events.begin(), events.end(), core::canonical_less))
    throw std::invalid_argument(
        "build_segments: events must be in canonical order");

  // Bucket keys order like event starts: everything before the window,
  // then runs of segment_days window days, then everything at/after the
  // window end. The span is start-sorted, so each bucket is one contiguous
  // run and a key change seals the run before it.
  const auto key_of = [&](const core::AttackEvent& event) {
    if (ctx.segment_days <= 0) return 0;
    const int day = window.event_day(event.start);
    if (day >= 0) return day / ctx.segment_days;
    return static_cast<UnixSeconds>(event.start) < window.start_time()
               ? std::numeric_limits<int>::min()
               : std::numeric_limits<int>::max();
  };

  std::vector<std::shared_ptr<const FrameSegment>> segments;
  FrameBuilder builder(window, ctx.pfx2as, ctx.geo);
  std::size_t begin = 0;
  while (begin < events.size()) {
    const int key = key_of(events[begin]);
    std::size_t end = begin + 1;
    while (end < events.size() && key_of(events[end]) == key) ++end;
    builder.add(events.subspan(begin, end - begin));
    segments.push_back(seal_segment(builder));
    begin = end;
  }
  return segments;
}

}  // namespace dosm::query
