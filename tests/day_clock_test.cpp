// The day clock (common/time.h): one rule for "which day is this event"
// (StudyWindow::event_day) and one for "a day just ended" (DayClock), with
// one test per clause of the clock's contract, plus a cross-consumer check
// that fusion, the snapshot publisher, the dispatcher ticks and the Web
// impact join all close the same days on a stream with a gap day and
// events on both sides of the window.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "common/time.h"
#include "core/event_store.h"
#include "core/impact.h"
#include "core/streaming.h"
#include "dns/snapshot.h"
#include "meta/geo.h"
#include "meta/pfx2as.h"
#include "query/engine.h"
#include "subscribe/dispatcher.h"

namespace dosm {
namespace {

// A ten-day window keeps the day arithmetic readable.
const StudyWindow kWindow{{2015, 3, 1}, {2015, 3, 10}};

double at(int day, double offset_s = 3600.0) {
  return static_cast<double>(kWindow.day_start(day)) + offset_s;
}

struct Closes {
  std::vector<int> days;
  auto recorder() {
    return [this](int day) { days.push_back(day); };
  }
};

TEST(StudyWindowTest, EventDayIsMinusOneOutsideTheWindow) {
  const auto start = static_cast<double>(kWindow.start_time());
  const auto end = static_cast<double>(kWindow.end_time());
  EXPECT_EQ(kWindow.event_day(start - 0.5), -1);
  EXPECT_EQ(kWindow.event_day(start), 0);
  EXPECT_EQ(kWindow.event_day(at(3, 86399.9)), 3);
  EXPECT_EQ(kWindow.event_day(end - 0.5), kWindow.num_days() - 1);
  EXPECT_EQ(kWindow.event_day(end), -1);
}

TEST(DayClockTest, ThrowsWhenStartDecreases) {
  DayClock clock(kWindow);
  Closes closes;
  clock.advance(at(2, 100.0), closes.recorder());
  EXPECT_THROW(clock.advance(at(2, 99.0), closes.recorder()),
               std::invalid_argument);
  // Before the window the order is enforced too.
  DayClock early(kWindow);
  early.advance(at(0, -50.0), closes.recorder());
  EXPECT_THROW(early.advance(at(0, -60.0), closes.recorder()),
               std::invalid_argument);
  EXPECT_TRUE(closes.days.empty());
}

TEST(DayClockTest, ClosesEveryDayBeforeTheEventsDayGapDaysIncluded) {
  DayClock clock(kWindow);
  Closes closes;
  EXPECT_EQ(clock.advance(at(1), closes.recorder()), 1);
  EXPECT_TRUE(closes.days.empty());
  EXPECT_EQ(clock.advance(at(4), closes.recorder()), 4);
  EXPECT_EQ(closes.days, (std::vector<int>{1, 2, 3}));
  clock.finish(closes.recorder());
  EXPECT_EQ(closes.days, (std::vector<int>{1, 2, 3, 4}));
}

TEST(DayClockTest, BeforeWindowEventsOpenAndCloseNothing) {
  DayClock clock(kWindow);
  Closes closes;
  EXPECT_EQ(clock.advance(at(0, -10.0), closes.recorder()), -1);
  // The first in-window event opens its own day, not day 0.
  EXPECT_EQ(clock.advance(at(2), closes.recorder()), 2);
  EXPECT_TRUE(closes.days.empty());
  clock.finish(closes.recorder());
  EXPECT_EQ(closes.days, (std::vector<int>{2}));
}

TEST(DayClockTest, PostWindowEventClosesTheOpenDay) {
  DayClock clock(kWindow);
  Closes closes;
  clock.advance(at(5), closes.recorder());
  const auto end = static_cast<double>(kWindow.end_time());
  EXPECT_EQ(clock.advance(end, closes.recorder()), -1);
  EXPECT_EQ(closes.days, (std::vector<int>{5}));  // not the days up to 9
  clock.advance(end + 7200.0, closes.recorder());
  clock.finish(closes.recorder());
  EXPECT_EQ(closes.days, (std::vector<int>{5}));
}

TEST(DayClockTest, FinishOnAnEmptyClockClosesNothing) {
  DayClock clock(kWindow);
  Closes closes;
  clock.finish(closes.recorder());
  EXPECT_TRUE(closes.days.empty());
  clock.advance(at(3), closes.recorder());
  clock.finish(closes.recorder());
  clock.finish(closes.recorder());  // the open day closes exactly once
  EXPECT_EQ(closes.days, (std::vector<int>{3}));
}

TEST(DayClockTest, MidnightBelongsToTheDayItStarts) {
  DayClock clock(kWindow);
  Closes closes;
  EXPECT_EQ(clock.advance(at(3, -0.5), closes.recorder()), 2);
  EXPECT_EQ(clock.advance(at(3, 0.0), closes.recorder()), 3);
  EXPECT_EQ(closes.days, (std::vector<int>{2}));
  // A tie on the same start is in order and closes nothing.
  EXPECT_EQ(clock.advance(at(3, 0.0), closes.recorder()), 3);
  EXPECT_EQ(closes.days, (std::vector<int>{2}));
}

// One stream, four consumers. Day 1 has two events, day 2 none (a gap
// day), day 3 one; one event starts before the window and one after it.
TEST(DayClockTest, EveryConsumerClosesTheSameDays) {
  using core::AttackEvent;
  using core::EventSource;
  const net::Ipv4Addr a(10, 0, 0, 1);
  const net::Ipv4Addr b(10, 0, 0, 2);
  const net::Ipv4Addr c(10, 0, 0, 3);  // its own coalescing bucket
  const auto event = [](net::Ipv4Addr target, double start,
                        EventSource source) {
    AttackEvent e;
    e.source = source;
    e.target = target;
    e.start = start;
    e.end = start + 600.0;
    e.intensity = 1.0;
    return e;
  };
  const core::EventStore store(
      kWindow, {event(c, at(0, -3600.0), EventSource::kTelescope),
                event(a, at(1), EventSource::kTelescope),
                event(b, at(1, 7200.0), EventSource::kHoneypot),
                event(a, at(3), EventSource::kTelescope),
                event(b, static_cast<double>(kWindow.end_time()) + 60.0,
                      EventSource::kHoneypot)});

  std::vector<int> summaries;
  core::StreamingFusion fusion(
      kWindow, {},
      [&summaries](const core::DaySummary& s) { summaries.push_back(s.day); });

  const meta::PrefixToAsMap pfx2as;
  const meta::GeoDatabase geo;
  query::QueryEngine engine;
  query::SnapshotPublisher publisher(engine, kWindow, {pfx2as, geo});
  std::vector<int> seals;
  const auto note_seal = [&] {
    const auto snap = engine.snapshot();
    if (snap && snap->version() > seals.size())
      seals.push_back(snap->segments().back()->frame().day()[0]);
  };

  subscribe::DispatcherConfig config;
  config.window = kWindow;
  subscribe::Dispatcher dispatcher(config);
  const subscribe::SubscriptionId firehose =
      dispatcher.subscribe(subscribe::Predicate{});
  std::vector<int> ticks;
  std::vector<std::size_t> delivered;
  std::uint64_t cursor = 0;
  const auto tick = [&](int day) {
    dispatcher.tick();
    const auto got = dispatcher.fetch(firehose, cursor, 0);
    ASSERT_TRUE(got.has_value());
    cursor = got->next_cursor;
    ticks.push_back(day);
    delivered.push_back(got->notifications.size());
  };

  // Driven the way `dosmeter watch` drives the dispatcher.
  DayClock clock(kWindow);
  for (const AttackEvent& e : store.events()) {
    clock.advance(e.start, tick);
    fusion.ingest(e);
    publisher.ingest(e);
    note_seal();
    dispatcher.ingest(e);
  }
  // The post-window event already closed day 3 everywhere.
  EXPECT_EQ(summaries, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(seals, (std::vector<int>{1, 3}));
  EXPECT_EQ(ticks, (std::vector<int>{1, 2, 3}));
  fusion.finish();
  publisher.finish();
  note_seal();
  clock.finish(tick);  // day 3 is already closed: no fourth tick
  EXPECT_EQ(summaries, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(fusion.events_ingested(), 3u);
  // One version per non-empty day; the gap day publishes nothing.
  EXPECT_EQ(seals, (std::vector<int>{1, 3}));
  EXPECT_EQ(publisher.snapshots_published(), 2u);
  EXPECT_EQ(engine.snapshot()->size(), 3u);
  // The gap day's tick delivers nothing. Day 1's tick also carries the
  // pre-window event's alert, which no earlier day could close.
  EXPECT_EQ(ticks, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(delivered, (std::vector<std::size_t>{3, 0, 1}));
  // As in `dosmeter watch`, a last tick flushes the post-window alert.
  dispatcher.tick();
  EXPECT_EQ(dispatcher.fetch(firehose, cursor, 0)->notifications.size(), 1u);

  // The Web impact join closes the same days: both targets host a site.
  dns::SnapshotStore dns(kWindow.num_days());
  for (const auto& [name, ip] : {std::pair{"a.example", a},
                                 std::pair{"b.example", b}}) {
    dns::WebsiteRecord record;
    record.www_a = ip;
    dns.record_change(dns.add_domain(name, 0), 0, record);
  }
  dns.build_reverse_index();
  const core::ImpactAnalysis impact(store, dns);
  std::vector<int> affected_days;
  for (int d = 0; d < kWindow.num_days(); ++d)
    if (impact.affected_daily().at(d) > 0.0) affected_days.push_back(d);
  EXPECT_EQ(affected_days, seals);
  EXPECT_DOUBLE_EQ(impact.affected_daily().at(1), 2.0);
  EXPECT_DOUBLE_EQ(impact.affected_daily().at(3), 1.0);
}

}  // namespace
}  // namespace dosm
