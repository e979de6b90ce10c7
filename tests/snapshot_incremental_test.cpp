// Segmented incremental snapshots: segment bucketing, structural sharing
// across publishes (O(new-day) publish cost), QueryEngine::publish error
// paths, publisher version monotonicity, and a publisher/reader stress run
// (the latter is in the TSan job's target list alongside
// query_concurrency_test).
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "query/engine.h"
#include "query/scan.h"
#include "query/segment.h"
#include "query/snapshot.h"
#include "sim/scenario.h"

namespace dosm::query {
namespace {

using core::AttackEvent;
using net::Ipv4Addr;

AttackEvent event_at(const StudyWindow& window, int day, double offset_s) {
  AttackEvent event;
  event.target = Ipv4Addr(10, 0, 0, static_cast<std::uint8_t>(day + 1));
  event.start = static_cast<double>(window.day_start(day)) + offset_s;
  event.end = event.start + 60.0;
  event.intensity = 1.0;
  return event;
}

class SegmentBucketingTest : public ::testing::Test {
 protected:
  SegmentBucketingTest() {
    window_.end = civil_from_days(days_from_civil(window_.start) + 9);
  }
  BuildContext ctx(int segment_days) const {
    return {.pfx2as = pfx2as_, .geo = geo_, .segment_days = segment_days};
  }

  StudyWindow window_{};
  meta::PrefixToAsMap pfx2as_;
  meta::GeoDatabase geo_;
};

TEST_F(SegmentBucketingTest, SegmentDaysControlsGranularity) {
  std::vector<AttackEvent> events;
  for (int day = 0; day < 9; ++day) {
    events.push_back(event_at(window_, day, 100.0));
    events.push_back(event_at(window_, day, 200.0));
  }

  const auto single = build_segments(window_, events, ctx(0));
  ASSERT_EQ(single.size(), 1u);
  EXPECT_EQ(single[0]->size(), events.size());

  const auto daily = build_segments(window_, events, ctx(1));
  ASSERT_EQ(daily.size(), 9u);
  for (const auto& segment : daily) EXPECT_EQ(segment->size(), 2u);

  const auto coarse = build_segments(window_, events, ctx(4));
  ASSERT_EQ(coarse.size(), 3u);  // days 0-3, 4-7, 8
  EXPECT_EQ(coarse[0]->size(), 8u);
  EXPECT_EQ(coarse[1]->size(), 8u);
  EXPECT_EQ(coarse[2]->size(), 2u);

  // Segments cover strictly increasing, non-overlapping start ranges.
  for (std::size_t i = 1; i < daily.size(); ++i)
    EXPECT_GT(daily[i]->start_min(), daily[i - 1]->start_max());
}

TEST_F(SegmentBucketingTest, OutOfWindowEventsGetTheirOwnBuckets) {
  std::vector<AttackEvent> events;
  AttackEvent before = event_at(window_, 0, 100.0);
  before.start = static_cast<double>(window_.start_time()) - 3600.0;
  AttackEvent after = event_at(window_, 0, 100.0);
  after.start = static_cast<double>(window_.end_time()) + 3600.0;
  events.push_back(before);
  events.push_back(event_at(window_, 2, 100.0));
  events.push_back(event_at(window_, 6, 100.0));
  events.push_back(after);

  const auto segments = build_segments(window_, events, ctx(5));
  // pre-window, days 0-4, days 5-8 (9-day window), post-window.
  ASSERT_EQ(segments.size(), 4u);
  for (const auto& segment : segments) EXPECT_EQ(segment->size(), 1u);
  EXPECT_LT(segments.front()->start_max(),
            static_cast<double>(window_.start_time()));
  EXPECT_GE(segments.back()->start_min(),
            static_cast<double>(window_.end_time()));

  // A snapshot assembled from them still answers like the oracle.
  const Snapshot snap(window_, segments, 1);
  const ScanOracle oracle(events, window_, pfx2as_, geo_);
  EXPECT_EQ(snap.count(Query{}), oracle.count(Query{}));
  EXPECT_EQ(snap.size(), events.size());
}

TEST_F(SegmentBucketingTest, SnapshotRejectsMisorderedOrNullSegments) {
  std::vector<AttackEvent> events{event_at(window_, 1, 0.0),
                                  event_at(window_, 5, 0.0)};
  auto segments = build_segments(window_, events, ctx(1));
  ASSERT_EQ(segments.size(), 2u);
  std::swap(segments[0], segments[1]);
  EXPECT_THROW(Snapshot(window_, segments, 1), std::invalid_argument);
  segments[0] = nullptr;
  EXPECT_THROW(Snapshot(window_, segments, 1), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// QueryEngine::publish error paths (satellite coverage).
// ---------------------------------------------------------------------------

TEST(QueryEnginePublishTest, RejectsNullAndNonIncreasingVersions) {
  StudyWindow window;
  meta::PrefixToAsMap pfx2as;
  meta::GeoDatabase geo;
  const BuildContext ctx{pfx2as, geo};
  QueryEngine engine;

  EXPECT_THROW(engine.publish(nullptr), std::invalid_argument);
  EXPECT_EQ(engine.snapshot(), nullptr);  // failed publish leaves no state
  EXPECT_EQ(engine.publishes(), 0u);

  engine.publish(Snapshot::build(window, {}, ctx, 5));
  // Equal and lower versions are both rejected, and the served snapshot
  // stays untouched by the failed publishes.
  EXPECT_THROW(engine.publish(Snapshot::build(window, {}, ctx, 5)),
               std::invalid_argument);
  EXPECT_THROW(engine.publish(Snapshot::build(window, {}, ctx, 4)),
               std::invalid_argument);
  EXPECT_THROW(engine.publish(nullptr), std::invalid_argument);
  ASSERT_NE(engine.snapshot(), nullptr);
  EXPECT_EQ(engine.snapshot()->version(), 5u);
  EXPECT_EQ(engine.publishes(), 1u);

  engine.publish(Snapshot::build(window, {}, ctx, 6));
  EXPECT_EQ(engine.snapshot()->version(), 6u);
  EXPECT_EQ(engine.publishes(), 2u);
}

// ---------------------------------------------------------------------------
// Incremental publisher: structural sharing + version monotonicity.
// ---------------------------------------------------------------------------

TEST(SnapshotPublisherTest, PublishesShareSealedSegmentsByPointer) {
  const auto world = sim::build_world(sim::ScenarioConfig::small());
  const BuildContext ctx{world->population.pfx2as(), world->population.geo()};
  QueryEngine engine;
  SnapshotPublisher publisher(engine, world->window, ctx);

  std::vector<std::shared_ptr<const Snapshot>> published;
  std::uint64_t last_version = 0;
  for (const auto& event : world->store.events()) {
    publisher.ingest(event);
    const auto snap = engine.snapshot();
    if (snap && snap->version() != last_version) {
      last_version = snap->version();
      published.push_back(snap);
    }
  }
  publisher.finish();
  published.push_back(engine.snapshot());

  ASSERT_GE(published.size(), 3u);
  for (std::size_t i = 0; i < published.size(); ++i) {
    // Versions are exactly 1..N in publish order, one segment per publish.
    EXPECT_EQ(published[i]->version(), i + 1);
    EXPECT_EQ(published[i]->num_segments(), i + 1);
    if (i == 0) continue;
    // Structural sharing: every prior segment is reused BY POINTER; only
    // the newly sealed day is new. This is what makes publishes O(new-day).
    const auto prev = published[i - 1]->segments();
    const auto curr = published[i]->segments();
    for (std::size_t s = 0; s < prev.size(); ++s)
      EXPECT_EQ(curr[s].get(), prev[s].get()) << "publish " << i;
  }

  EXPECT_EQ(publisher.segments_sealed(), publisher.snapshots_published());
  EXPECT_EQ(publisher.snapshots_published(), published.size());

  // The incrementally accumulated snapshot equals a batch full rebuild,
  // row ids included.
  const auto full =
      Snapshot::build(world->window, world->store.events(), ctx);
  const auto& final_snap = *published.back();
  ASSERT_EQ(final_snap.size(), full->size());
  EXPECT_EQ(final_snap.match_rows(Query{}), full->match_rows(Query{}));
  EXPECT_EQ(final_snap.unique_targets(Query{}), full->unique_targets(Query{}));
  Query telescope;
  telescope.from_source(core::SourceFilter::kTelescope);
  EXPECT_EQ(final_snap.count(telescope), full->count(telescope));
  EXPECT_EQ(final_snap.country_ranking(Query{}).size(),
            full->country_ranking(Query{}).size());
}

// Run under TSan (tools/check.sh tsan) this proves sealed-segment sharing
// introduces no data race: readers aggregate over segments that the
// publisher is concurrently re-listing into new snapshots.
TEST(SnapshotPublisherTest, SegmentedPublishStressWithConcurrentReaders) {
  const auto world = sim::build_world(sim::ScenarioConfig::small());
  const BuildContext ctx{world->population.pfx2as(), world->population.geo()};
  QueryEngine engine;
  // Seed an empty v0 snapshot so readers always have something to query
  // (the publisher's first real publish is v1 with one segment).
  engine.publish(Snapshot::build(world->window, {}, ctx, 0));

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> reads{0};
  const auto reader = [&] {
    std::uint64_t last_version = 0;
    while (!done.load(std::memory_order_acquire)) {
      const auto snap = engine.snapshot();
      ASSERT_NE(snap, nullptr);
      ASSERT_GE(snap->version(), last_version);
      last_version = snap->version();
      // Whole-day consistency: row count partitions exactly across
      // segments, and an aggregation over all segments stays coherent.
      std::size_t rows = 0;
      for (const auto& segment : snap->segments()) rows += segment->size();
      ASSERT_EQ(rows, snap->size());
      ASSERT_EQ(snap->count(Query{}), snap->size());
      ASSERT_EQ(snap->num_segments(), snap->version());
      reads.fetch_add(1, std::memory_order_relaxed);
    }
  };

  std::vector<std::thread> readers;
  readers.reserve(3);
  for (int t = 0; t < 3; ++t) readers.emplace_back(reader);

  SnapshotPublisher publisher(engine, world->window, ctx);
  std::thread writer([&] {
    for (const auto& event : world->store.events()) publisher.ingest(event);
    publisher.finish();
    done.store(true, std::memory_order_release);
  });

  writer.join();
  for (auto& t : readers) t.join();

  EXPECT_GE(publisher.snapshots_published(), 2u);
  EXPECT_GT(reads.load(), 0u);
}

}  // namespace
}  // namespace dosm::query
