#include "query/engine.h"

#include <stdexcept>
#include <utility>

#include "obs/metrics.h"
#include "obs/timer.h"

namespace dosm::query {
namespace {

struct EngineMetrics {
  obs::Counter& snapshot_swaps;
  obs::Gauge& snapshot_events;
  obs::Histogram& publish_seconds;
  obs::Counter& segments_reused;

  static EngineMetrics& get() {
    static EngineMetrics metrics = [] {
      auto& reg = obs::MetricsRegistry::global();
      return EngineMetrics{
          reg.counter("query.snapshot_swaps",
                      "Snapshots atomically published to the query engine"),
          reg.gauge("query.snapshot_events",
                    "Events in the most recently published snapshot"),
          reg.histogram("query.publish_seconds",
                        "Seal-new-day-and-publish time (incremental)",
                        obs::latency_buckets()),
          reg.counter("query.segment.reused",
                      "Previously sealed segments shared by pointer into a "
                      "newly published snapshot"),
      };
    }();
    return metrics;
  }
};

}  // namespace

QueryEngine::QueryEngine(std::shared_ptr<const Snapshot> initial)
    : current_(std::move(initial)) {
  if (snapshot()) publishes_.store(1, std::memory_order_relaxed);
}

std::shared_ptr<const Snapshot> QueryEngine::snapshot() const {
  return current_.load(std::memory_order_acquire);
}

void QueryEngine::publish(std::shared_ptr<const Snapshot> next) {
  if (!next) throw std::invalid_argument("QueryEngine::publish: null snapshot");
  const auto current = snapshot();
  if (current && next->version() <= current->version())
    throw std::invalid_argument(
        "QueryEngine::publish: snapshot version must increase");
  EngineMetrics& metrics = EngineMetrics::get();
  metrics.snapshot_events.set(static_cast<std::int64_t>(next->size()));
  metrics.snapshot_swaps.inc();
  current_.store(std::move(next), std::memory_order_release);
  publishes_.fetch_add(1, std::memory_order_relaxed);
}

SnapshotPublisher::SnapshotPublisher(QueryEngine& engine, StudyWindow window,
                                     const BuildContext& ctx)
    : engine_(&engine),
      window_(window),
      day_builder_(window, ctx.pfx2as, ctx.geo),
      clock_(window) {}

void SnapshotPublisher::ingest(const core::AttackEvent& event) {
  if (last_ && core::canonical_less(event, *last_))
    throw std::invalid_argument(
        "SnapshotPublisher: events must arrive in canonical order");
  last_ = event;
  if (clock_.advance(event.start, [this](int) { seal_and_publish(); }) < 0)
    return;
  day_builder_.add(event);
  ++events_ingested_;
}

void SnapshotPublisher::finish() {
  clock_.finish([this](int) { seal_and_publish(); });
}

void SnapshotPublisher::seal_and_publish() {
  if (day_builder_.size() == 0) return;  // a gap day has nothing to seal
  EngineMetrics& metrics = EngineMetrics::get();
  const obs::ScopedTimer timer(metrics.publish_seconds);
  metrics.segments_reused.add(sealed_.size());
  sealed_.push_back(seal_segment(day_builder_));
  engine_->publish(
      std::make_shared<const Snapshot>(window_, sealed_, next_version_));
  ++next_version_;
  ++snapshots_published_;
}

}  // namespace dosm::query
