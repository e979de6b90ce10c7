// Tiered-storage correctness: codec round-trips, archive round-trip
// identity, and the hard contract of src/storage — byte-identical
// aggregation results hot vs cold vs in-memory, for every aggregation, at
// any cache budget — plus LRU eviction, zone-map pruning metrics, and the
// v1 golden-archive compatibility pin (readers load v1 forever).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "query/budget.h"
#include "query/query.h"
#include "query/snapshot.h"
#include "sim/scenario.h"
#include "storage/archive.h"
#include "storage/codec.h"
#include "storage/metrics.h"
#include "storage/tiered.h"

namespace dosm::storage {
namespace {

using core::AttackEvent;
using core::EventSource;

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

/// Removes the file when the test scope ends.
struct TempFile {
  explicit TempFile(std::string p) : path(std::move(p)) {}
  ~TempFile() { std::remove(path.c_str()); }
  std::string path;
};

// ---------------------------------------------------------------------------
// Column codecs: every shape round-trips bit-exactly.
// ---------------------------------------------------------------------------

template <typename T>
std::vector<T> int_round_trip(const std::vector<T>& values) {
  ByteWriter out;
  encode_column(out, std::span<const T>(values));
  const auto encoded = out.data();
  ByteReader in(encoded, "test");
  std::vector<T> decoded;
  if constexpr (std::is_same_v<T, std::uint8_t>)
    decoded = decode_column_u8(in, static_cast<std::uint32_t>(values.size()));
  else if constexpr (std::is_same_v<T, std::uint16_t>)
    decoded = decode_column_u16(in, static_cast<std::uint32_t>(values.size()));
  else if constexpr (std::is_same_v<T, std::uint32_t>)
    decoded = decode_column_u32(in, static_cast<std::uint32_t>(values.size()));
  else
    decoded = decode_column_i32(in, static_cast<std::uint32_t>(values.size()));
  EXPECT_TRUE(in.done());
  return decoded;
}

TEST(CodecTest, IntegerShapesRoundTrip) {
  Rng rng(42);
  // Constant (dict/bitpack degenerate), sorted (delta), random (raw or
  // bitpack), few-distinct (dict), and a multi-block sweep past kBlockRows.
  std::vector<std::uint32_t> constant(10000, 7u);
  EXPECT_EQ(int_round_trip(constant), constant);

  std::vector<std::uint32_t> sorted;
  for (std::uint32_t i = 0; i < 9000; ++i)
    sorted.push_back(3 * i + static_cast<std::uint32_t>(rng.next_below(3)));
  EXPECT_EQ(int_round_trip(sorted), sorted);

  std::vector<std::uint32_t> random;
  for (int i = 0; i < 5000; ++i)
    random.push_back(static_cast<std::uint32_t>(rng.next_below(1u << 31)));
  EXPECT_EQ(int_round_trip(random), random);

  std::vector<std::uint16_t> dictish;
  const std::uint16_t table[] = {53, 80, 123, 443, 9999};
  for (int i = 0; i < 8000; ++i) dictish.push_back(table[rng.next_below(5)]);
  EXPECT_EQ(int_round_trip(dictish), dictish);

  std::vector<std::uint8_t> bytes;
  for (int i = 0; i < 4097; ++i)  // one row past the block boundary
    bytes.push_back(static_cast<std::uint8_t>(rng.next_below(2)));
  EXPECT_EQ(int_round_trip(bytes), bytes);

  std::vector<std::int32_t> days;
  for (int i = 0; i < 6000; ++i)
    days.push_back(i % 97 == 0 ? -1 : i / 100);  // -1 sentinel + slow ramp
  EXPECT_EQ(int_round_trip(days), days);

  EXPECT_EQ(int_round_trip(std::vector<std::uint32_t>{}),
            std::vector<std::uint32_t>{});
  EXPECT_EQ(int_round_trip(std::vector<std::uint32_t>{0xffffffffu}),
            std::vector<std::uint32_t>{0xffffffffu});
}

std::vector<double> f64_round_trip(const std::vector<double>& values) {
  ByteWriter out;
  encode_column(out, std::span<const double>(values));
  const auto encoded = out.data();
  ByteReader in(encoded, "test");
  const auto decoded =
      decode_column_f64(in, static_cast<std::uint32_t>(values.size()));
  EXPECT_TRUE(in.done());
  return decoded;
}

void expect_bit_identical(const std::vector<double>& a,
                          const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  if (!a.empty()) {
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0);
  }
}

TEST(CodecTest, DoubleShapesRoundTripBitExactly) {
  Rng rng(7);
  // Second-granularity sorted timestamps: the scaled-delta sweet spot.
  std::vector<double> seconds;
  double t = 1.4e9;
  for (int i = 0; i < 9000; ++i) {
    t += static_cast<double>(rng.next_below(900));
    seconds.push_back(t);
  }
  expect_bit_identical(f64_round_trip(seconds), seconds);
  {
    // ...and it must actually compress: sorted second timestamps collapse
    // to far under the 8 raw bytes per value.
    ByteWriter out;
    encode_column(out, std::span<const double>(seconds));
    EXPECT_LT(out.size(), seconds.size() * 3);
  }

  // Continuous doubles: must fall back to raw and stay bit-exact.
  std::vector<double> continuous;
  for (int i = 0; i < 5000; ++i)
    continuous.push_back(rng.uniform(-1e9, 1e9));
  expect_bit_identical(f64_round_trip(continuous), continuous);

  // Tenths/hundredths (intensities), negatives, zero, and huge values that
  // overflow the scaled-integer guard.
  std::vector<double> mixed = {0.0,   -0.0,  1.5,    -2.25,  3.125,
                               1e16,  -1e16, 0.1,    0.2,    0.3,
                               1e300, 5.0,   -700.5, 1234.25};
  for (int i = 0; i < 3000; ++i)
    mixed.push_back(static_cast<double>(rng.next_below(100000)) / 100.0);
  expect_bit_identical(f64_round_trip(mixed), mixed);

  expect_bit_identical(f64_round_trip({}), {});
}

TEST(CodecTest, EncodingIsDeterministic) {
  Rng rng(99);
  std::vector<std::uint32_t> values;
  for (int i = 0; i < 10000; ++i)
    values.push_back(static_cast<std::uint32_t>(rng.next_below(1000)));
  ByteWriter a, b;
  encode_column(a, std::span<const std::uint32_t>(values));
  encode_column(b, std::span<const std::uint32_t>(values));
  EXPECT_EQ(a.data(), b.data());
}

// ---------------------------------------------------------------------------
// Archive round trip: every decoded column is bit-identical to the frame
// that was written.
// ---------------------------------------------------------------------------

std::shared_ptr<const query::Snapshot> world_snapshot(
    const sim::World& world, int segment_days) {
  return query::Snapshot::build(
      world.store.window(), world.store.events(),
      query::BuildContext{.pfx2as = world.population.pfx2as(),
                          .geo = world.population.geo(),
                          .segment_days = segment_days});
}

template <typename T>
void expect_column_identical(std::span<const T> a, std::span<const T> b) {
  ASSERT_EQ(a.size(), b.size());
  if (!a.empty()) {
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(T)), 0);
  }
}

TEST(ArchiveTest, RoundTripIsBitIdentical) {
  const auto world = sim::build_world(sim::ScenarioConfig::small());
  const auto snapshot = world_snapshot(*world, /*segment_days=*/7);
  ASSERT_GT(snapshot->num_segments(), 2u);

  const TempFile file(temp_path("dosm_roundtrip.dosarch"));
  const std::uint64_t written = write_archive(file.path, *snapshot);
  EXPECT_EQ(written, std::filesystem::file_size(file.path));

  const ArchiveReader reader(file.path);
  ASSERT_EQ(reader.num_segments(), snapshot->num_segments());
  EXPECT_EQ(reader.window().start, snapshot->window().start);
  EXPECT_EQ(reader.window().end, snapshot->window().end);
  for (std::uint32_t id = 0; id < reader.num_segments(); ++id) {
    const auto& original = *snapshot->segments()[id];
    const auto loaded = reader.load(id);
    const auto& a = original.frame();
    const auto& b = loaded->frame();
    ASSERT_EQ(a.size(), b.size());
    expect_column_identical(a.start(), b.start());
    expect_column_identical(a.end(), b.end());
    expect_column_identical(a.intensity(), b.intensity());
    expect_column_identical(a.target(), b.target());
    expect_column_identical(a.source(), b.source());
    expect_column_identical(a.ip_proto(), b.ip_proto());
    expect_column_identical(a.top_port(), b.top_port());
    expect_column_identical(a.asn(), b.asn());
    expect_column_identical(a.country(), b.country());
    expect_column_identical(a.day(), b.day());
    EXPECT_EQ(reader.meta(id).rows, a.size());
    EXPECT_EQ(reader.meta(id).start_min, original.start_min());
    EXPECT_EQ(reader.meta(id).start_max, original.start_max());
  }
}

TEST(ArchiveTest, WriterRejectsColdSnapshots) {
  const auto world = sim::build_world(sim::ScenarioConfig::small());
  const auto snapshot = world_snapshot(*world, /*segment_days=*/7);
  const TempFile file(temp_path("dosm_reject.dosarch"));
  write_archive(file.path, *snapshot);
  query::BuildContext ctx{world->population.pfx2as(),
                          world->population.geo()};
  ctx.hot_days = 0;
  const auto tiered = open_tiered(file.path, ctx);
  ASSERT_FALSE(tiered->fully_resident());
  const TempFile out(temp_path("dosm_reject2.dosarch"));
  EXPECT_THROW(write_archive(out.path, *tiered), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// The hard contract: hot vs cold vs in-memory byte-identity for all six
// aggregations, at any cache budget and hot/cold split.
// ---------------------------------------------------------------------------

std::vector<query::Query> contract_queries(const StudyWindow& window) {
  const double t0 = static_cast<double>(window.start_time());
  std::vector<query::Query> queries;
  queries.emplace_back();  // unfiltered
  query::Query by_time;
  by_time.between(t0 + 3.0 * kSecondsPerDay, t0 + 11.0 * kSecondsPerDay);
  queries.push_back(by_time);
  query::Query by_source;
  by_source.from_source(core::SourceFilter::kHoneypot);
  queries.push_back(by_source);
  query::Query mixed;
  mixed.from_source(core::SourceFilter::kTelescope);
  mixed.between(t0 + 1.5 * kSecondsPerDay, t0 + 20.0 * kSecondsPerDay);
  mixed.at_least(10.0);
  queries.push_back(mixed);
  query::Query by_port;
  by_port.on_port(53);
  queries.push_back(by_port);
  return queries;
}

void expect_identical_answers(const query::Snapshot& expected,
                              const query::Snapshot& actual,
                              const query::Query& q, const char* label) {
  EXPECT_EQ(actual.count(q), expected.count(q)) << label;
  for (const auto key :
       {query::DistinctKey::kTarget, query::DistinctKey::kSlash24,
        query::DistinctKey::kSlash16, query::DistinctKey::kAsn})
    EXPECT_EQ(actual.distinct(q, key), expected.distinct(q, key)) << label;
  const auto expected_daily = expected.daily_attacks(q);
  const auto actual_daily = actual.daily_attacks(q);
  ASSERT_EQ(actual_daily.num_days(), expected_daily.num_days()) << label;
  for (int d = 0; d < expected_daily.num_days(); ++d)
    ASSERT_EQ(actual_daily.at(d), expected_daily.at(d)) << label;
  EXPECT_EQ(actual.top_targets(q, 7), expected.top_targets(q, 7)) << label;
  EXPECT_EQ(actual.top_asns(q, 7), expected.top_asns(q, 7)) << label;
  const auto expected_countries = expected.country_ranking(q);
  const auto actual_countries = actual.country_ranking(q);
  ASSERT_EQ(actual_countries.size(), expected_countries.size()) << label;
  for (std::size_t i = 0; i < expected_countries.size(); ++i) {
    EXPECT_EQ(actual_countries[i].country, expected_countries[i].country)
        << label;
    EXPECT_EQ(actual_countries[i].targets, expected_countries[i].targets)
        << label;
    ASSERT_EQ(actual_countries[i].share, expected_countries[i].share) << label;
  }
  // Global row ids are part of the contract: the tiered layout must not
  // renumber anything.
  EXPECT_EQ(actual.match_rows(q), expected.match_rows(q)) << label;
}

struct TierParam {
  int hot_days;
  std::size_t cache_bytes;
};

class TieredIdentityTest : public ::testing::TestWithParam<TierParam> {};

TEST_P(TieredIdentityTest, AggregationsMatchInMemorySnapshotExactly) {
  const auto [hot_days, cache_bytes] = GetParam();
  const auto world = sim::build_world(sim::ScenarioConfig::small());
  const auto hot = world_snapshot(*world, /*segment_days=*/7);
  const TempFile file(temp_path("dosm_identity.dosarch"));
  write_archive(file.path, *hot);

  query::BuildContext ctx{world->population.pfx2as(),
                          world->population.geo()};
  ctx.hot_days = hot_days;
  ctx.cold_cache_bytes = cache_bytes;
  const auto tiered = open_tiered(file.path, ctx);
  ASSERT_EQ(tiered->size(), hot->size());
  ASSERT_EQ(tiered->num_segments(), hot->num_segments());

  for (const auto& q : contract_queries(hot->window()))
    expect_identical_answers(*hot, *tiered, q,
                             query::to_string(q).c_str());
}

INSTANTIATE_TEST_SUITE_P(
    BudgetsAndSplits, TieredIdentityTest,
    ::testing::Values(TierParam{0, 0},            // all cold, no cache
                      TierParam{0, 4096},         // all cold, thrashing cache
                      TierParam{0, 256u << 20},   // all cold, everything fits
                      TierParam{10, 64u << 20},   // mixed hot/cold
                      TierParam{100000, 0}));     // all hot

TEST(TieredIdentityTest, RowBudgetOutcomeIsTierIndependent) {
  const auto world = sim::build_world(sim::ScenarioConfig::small());
  const auto hot = world_snapshot(*world, /*segment_days=*/7);
  const TempFile file(temp_path("dosm_budget.dosarch"));
  write_archive(file.path, *hot);
  query::BuildContext ctx{world->population.pfx2as(),
                          world->population.geo()};
  ctx.hot_days = 0;
  ctx.cold_cache_bytes = 0;
  const auto cold = open_tiered(file.path, ctx);

  query::Query q;
  q.from_source(core::SourceFilter::kTelescope);
  const std::uint64_t matching = hot->count(q);
  ASSERT_GT(matching, 2u);

  // One row under the matched count: both tiers must throw; exactly the
  // matched count: both must succeed with identical results.
  query::ExecBudget tight;
  tight.max_rows = matching - 1;
  EXPECT_THROW(hot->count(q, tight), query::BudgetExceeded);
  EXPECT_THROW(cold->count(q, tight), query::BudgetExceeded);
  query::ExecBudget exact;
  exact.max_rows = matching;
  EXPECT_EQ(hot->count(q, exact), matching);
  EXPECT_EQ(cold->count(q, exact), matching);
  EXPECT_EQ(cold->match_rows(q, exact), hot->match_rows(q, exact));
}

// ---------------------------------------------------------------------------
// Segment cache: LRU eviction under a byte budget, hits on re-access, and
// honest storage.* gauges.
// ---------------------------------------------------------------------------

TEST(SegmentCacheTest, EvictsUnderBudgetAndHitsWithinIt) {
  const auto world = sim::build_world(sim::ScenarioConfig::small());
  const auto hot = world_snapshot(*world, /*segment_days=*/7);
  const TempFile file(temp_path("dosm_cache.dosarch"));
  write_archive(file.path, *hot);
  Metrics& metrics = Metrics::get();

  // Budget sized to roughly one segment: a full scan must evict.
  const std::size_t rows_per_segment = hot->size() / hot->num_segments();
  query::BuildContext ctx{world->population.pfx2as(),
                          world->population.geo()};
  ctx.hot_days = 0;
  ctx.cold_cache_bytes = rows_per_segment * kDecodedBytesPerRow * 3 / 2;
  {
    const auto cold = open_tiered(file.path, ctx);
    const std::uint64_t evictions_before = metrics.cache_evictions.value();
    EXPECT_EQ(cold->count(query::Query{}), hot->size());
    EXPECT_GT(metrics.cache_evictions.value(), evictions_before);
    EXPECT_LE(metrics.resident_bytes.value(),
              static_cast<std::int64_t>(ctx.cold_cache_bytes));
  }
  // Provider destruction releases its share of the resident gauges.
  EXPECT_EQ(metrics.resident_bytes.value(), 0);
  EXPECT_EQ(metrics.resident_segments.value(), 0);

  // A budget that fits everything: the second scan is pure cache hits.
  ctx.cold_cache_bytes = 256u << 20;
  const auto cold = open_tiered(file.path, ctx);
  EXPECT_EQ(cold->count(query::Query{}), hot->size());
  const std::uint64_t loads_before = metrics.segment_loads.value();
  const std::uint64_t hits_before = metrics.cache_hits.value();
  EXPECT_EQ(cold->count(query::Query{}), hot->size());
  EXPECT_EQ(metrics.segment_loads.value(), loads_before);
  EXPECT_GT(metrics.cache_hits.value(), hits_before);
}

TEST(SegmentCacheTest, ZeroBudgetDecodesAfreshEveryTime) {
  const auto world = sim::build_world(sim::ScenarioConfig::small());
  const auto hot = world_snapshot(*world, /*segment_days=*/7);
  const TempFile file(temp_path("dosm_nocache.dosarch"));
  write_archive(file.path, *hot);
  query::BuildContext ctx{world->population.pfx2as(),
                          world->population.geo()};
  ctx.hot_days = 0;
  ctx.cold_cache_bytes = 0;
  const auto cold = open_tiered(file.path, ctx);
  Metrics& metrics = Metrics::get();
  const std::uint64_t loads_before = metrics.segment_loads.value();
  EXPECT_EQ(cold->count(query::Query{}), hot->size());
  const std::uint64_t after_first = metrics.segment_loads.value();
  EXPECT_GE(after_first - loads_before, cold->num_segments());
  EXPECT_EQ(cold->count(query::Query{}), hot->size());
  EXPECT_GE(metrics.segment_loads.value() - after_first,
            cold->num_segments());
  EXPECT_EQ(metrics.resident_bytes.value(), 0);
}

// ---------------------------------------------------------------------------
// Zone maps: the planner never touches cold segments (or blocks) outside
// the query's time range.
// ---------------------------------------------------------------------------

TEST(ZoneMapTest, TimeClippedQueriesSkipColdSegmentsAndBlocks) {
  // Hand-built events at a fixed cadence: 20k rows in one segment is five
  // 4096-row blocks, so a narrow time range must clip whole blocks out.
  StudyWindow window;
  window.end = civil_from_days(days_from_civil(window.start) + 29);
  const double t0 = static_cast<double>(window.start_time());
  std::vector<AttackEvent> events;
  for (int i = 0; i < 20000; ++i) {
    AttackEvent event;
    event.target = net::Ipv4Addr(10, 0, static_cast<std::uint8_t>(i / 256),
                                 static_cast<std::uint8_t>(i % 256));
    event.start = t0 + i * 100.0;
    event.end = event.start + 60.0;
    event.source = EventSource::kTelescope;
    event.intensity = 1.0 + (i % 50);
    events.push_back(event);
  }
  const meta::PrefixToAsMap pfx2as;
  const meta::GeoDatabase geo;
  const auto hot = query::Snapshot::build(
      window, events,
      query::BuildContext{.pfx2as = pfx2as, .geo = geo, .segment_days = 0});
  ASSERT_EQ(hot->num_segments(), 1u);
  const TempFile file(temp_path("dosm_zones.dosarch"));
  write_archive(file.path, *hot);

  query::BuildContext ctx{pfx2as, geo};
  ctx.hot_days = 0;
  ctx.cold_cache_bytes = 0;
  const auto cold = open_tiered(file.path, ctx);
  Metrics& metrics = Metrics::get();

  // A range covering only rows ~8000..9000 lives in block 1 of 5.
  query::Query narrow;
  narrow.between(t0 + 8000 * 100.0, t0 + 9000 * 100.0);
  const std::uint64_t skips_before = metrics.zone_block_skips.value();
  EXPECT_EQ(cold->count(narrow), hot->count(narrow));
  EXPECT_GE(metrics.zone_block_skips.value() - skips_before, 3u);

  // A range entirely before the segment: the slot metadata alone excludes
  // it — no load, no read.
  query::Query outside;
  outside.between(t0 - 5000.0, t0 - 1.0);
  const std::uint64_t loads_before = metrics.segment_loads.value();
  EXPECT_EQ(cold->count(outside), 0u);
  EXPECT_EQ(metrics.segment_loads.value(), loads_before);
}

// ---------------------------------------------------------------------------
// Format compatibility: the checked-in v1 golden archive must load forever.
// ---------------------------------------------------------------------------

/// The deterministic dataset the golden archive was generated from (see
/// tools/make_golden_archive.cpp). Integral timestamps and quarter-step
/// intensities keep every column platform-independent and bit-stable.
std::vector<AttackEvent> golden_events() {
  StudyWindow window;
  window.end = civil_from_days(days_from_civil(window.start) + 13);
  const double t0 = static_cast<double>(window.start_time());
  std::vector<AttackEvent> events;
  for (int i = 0; i < 5000; ++i) {
    AttackEvent event;
    event.target = net::Ipv4Addr(
        static_cast<std::uint8_t>(10 + i % 4), 0,
        static_cast<std::uint8_t>((i / 7) % 16),
        static_cast<std::uint8_t>(i % 251));
    event.start = t0 + i * 211.0;
    event.end = event.start + 120.0 + (i % 13) * 30.0;
    event.source = i % 3 ? EventSource::kTelescope : EventSource::kHoneypot;
    event.intensity = 0.25 * (1 + i % 400);
    if (event.source == EventSource::kTelescope) {
      const std::uint16_t ports[] = {0, 53, 80, 123, 443};
      event.top_port = ports[i % 5];
      event.ip_proto = i % 5 ? 6 : 17;
    }
    events.push_back(event);
  }
  return events;
}

StudyWindow golden_window() {
  StudyWindow window;
  window.end = civil_from_days(days_from_civil(window.start) + 13);
  return window;
}

TEST(GoldenArchiveTest, V1ArchiveLoadsForever) {
  const std::string golden = DOSM_STORAGE_GOLDEN;
  ASSERT_TRUE(std::filesystem::exists(golden))
      << golden << " missing — regenerate with tools/make_golden_archive";
  const auto events = golden_events();
  const meta::PrefixToAsMap pfx2as;
  const meta::GeoDatabase geo;
  const auto expected = query::Snapshot::build(
      golden_window(), events,
      query::BuildContext{.pfx2as = pfx2as, .geo = geo, .segment_days = 3});

  query::BuildContext ctx{pfx2as, geo};
  ctx.hot_days = 0;
  ctx.cold_cache_bytes = 1u << 20;
  const auto loaded = open_tiered(golden, ctx);
  ASSERT_EQ(loaded->size(), expected->size());
  ASSERT_EQ(loaded->num_segments(), expected->num_segments());
  for (const auto& q : contract_queries(golden_window()))
    expect_identical_answers(*expected, *loaded, q,
                             query::to_string(q).c_str());
}

}  // namespace
}  // namespace dosm::storage
