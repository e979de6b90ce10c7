// The subscription layer, bottom to top: predicate semantics and canonical
// text, the FlatMap behind the postings, the posting-index vs
// scan-all-oracle property suite (exact match sets AND delivery order,
// under churn), and the Dispatcher contracts — coalescing, drop policy,
// cursor fetch against a linear reference, long-poll wake.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "core/alert.h"
#include "subscribe/dispatcher.h"
#include "subscribe/flat_map.h"
#include "subscribe/index.h"
#include "subscribe/oracle.h"
#include "subscribe/subscription.h"

namespace dosm::subscribe {
namespace {

core::AttackEvent event_on(std::string_view target, double start = 1000.0,
                           std::uint8_t proto = 6) {
  core::AttackEvent event;
  event.target = net::Ipv4Addr::parse(target);
  event.start = start;
  event.end = start + 60.0;
  event.intensity = 50.0;
  event.ip_proto = proto;
  event.top_port = 80;
  return event;
}

core::Alert alert_on(std::string_view target, std::uint8_t proto = 6,
                     meta::Asn asn = meta::kUnknownAsn,
                     meta::CountryCode country = {}) {
  return core::event_alert(event_on(target, 1000.0, proto), /*day=*/3, asn,
                           country);
}

// ---------------------------------------------------------------------------
// Predicate semantics.
// ---------------------------------------------------------------------------

TEST(PredicateTest, ConjunctionOverEventAttributes) {
  const core::Alert alert =
      alert_on("10.1.2.3", 17, meta::Asn{65001}, meta::CountryCode("DE"));

  EXPECT_TRUE(Predicate{}.matches(alert));  // firehose
  EXPECT_TRUE(
      Predicate{}.match_prefix(net::Prefix::parse("10.1.2.3/32")).matches(alert));
  EXPECT_TRUE(
      Predicate{}.match_prefix(net::Prefix::parse("10.1.2.0/24")).matches(alert));
  EXPECT_FALSE(
      Predicate{}.match_prefix(net::Prefix::parse("10.9.0.0/16")).matches(alert));
  EXPECT_TRUE(Predicate{}.match_asn(meta::Asn{65001}).matches(alert));
  EXPECT_FALSE(Predicate{}.match_asn(meta::Asn{65002}).matches(alert));
  EXPECT_TRUE(
      Predicate{}.match_country(meta::CountryCode("DE")).matches(alert));
  EXPECT_FALSE(
      Predicate{}.match_country(meta::CountryCode("US")).matches(alert));
  EXPECT_TRUE(Predicate{}.match_proto(17).matches(alert));
  EXPECT_FALSE(Predicate{}.match_proto(6).matches(alert));
  EXPECT_TRUE(
      Predicate{}.match_kind(core::AlertKind::kNewAttack).matches(alert));
  EXPECT_FALSE(
      Predicate{}.match_kind(core::AlertKind::kAttackSpike).matches(alert));

  // The conjunction: one failing field rules the alert out.
  EXPECT_FALSE(Predicate{}
                   .match_asn(meta::Asn{65001})
                   .match_proto(6)
                   .matches(alert));
}

TEST(PredicateTest, VictimFieldsNeverMatchVictimlessSpikes) {
  const core::Alert spike =
      core::spike_alert(core::AlertKind::kAttackSpike, /*day=*/5, 100.0, 40.0);
  EXPECT_TRUE(Predicate{}.matches(spike));
  EXPECT_TRUE(
      Predicate{}.match_kind(core::AlertKind::kAttackSpike).matches(spike));
  EXPECT_FALSE(
      Predicate{}.match_kind(core::AlertKind::kTargetSpike).matches(spike));
  EXPECT_FALSE(
      Predicate{}.match_prefix(net::Prefix::parse("0.0.0.0/0")).matches(spike));
  EXPECT_FALSE(Predicate{}.match_asn(meta::Asn{1}).matches(spike));
  EXPECT_FALSE(Predicate{}.match_proto(6).matches(spike));
}

TEST(PredicateTest, CanonicalTextIsOrderedAndComplete) {
  EXPECT_EQ(Predicate{}.to_string(), "*");
  EXPECT_EQ(Predicate{}.match_asn(meta::Asn{65001}).to_string(), "asn=65001");
  const Predicate full = Predicate{}
                             .match_prefix(net::Prefix::parse("10.0.0.0/24"))
                             .match_asn(meta::Asn{65001})
                             .match_country(meta::CountryCode("US"))
                             .match_proto(17)
                             .match_kind(core::AlertKind::kTargetSpike);
  EXPECT_EQ(full.to_string(),
            "pfx=10.0.0.0/24;asn=65001;cc=US;proto=17;kind=target-spike");
}

TEST(PredicateTest, ValidateRejectsUnsetCountry) {
  EXPECT_THROW(validate(Predicate{}.match_country(meta::CountryCode{})),
               std::invalid_argument);
  validate(Predicate{}.match_country(meta::CountryCode("US")));  // fine
}

// ---------------------------------------------------------------------------
// FlatMap vs std::unordered_map.
// ---------------------------------------------------------------------------

/// Deliberately weak: neighbouring keys share a home slot near the end of
/// the table, so clusters form, wrap around, and erase has to shift them
/// back.
struct ClusteringHash {
  std::size_t operator()(std::uint64_t key) const {
    return static_cast<std::size_t>(key / 4) - 32;
  }
};

TEST(FlatMapTest, AgreesWithUnorderedMapUnderChurn) {
  Rng rng(0xf1a7u);
  FlatMap<std::uint64_t, int, ClusteringHash> flat;
  std::unordered_map<std::uint64_t, int> model;
  constexpr std::uint64_t kKeys = 96;
  for (int step = 0; step < 20000; ++step) {
    const std::uint64_t key = rng.next_below(kKeys);
    const auto op = rng.next_below(100);
    if (op < 50) {
      const int value = step;
      const auto [slot, inserted] = flat.try_emplace(key, value);
      const auto [it, model_inserted] = model.try_emplace(key, value);
      ASSERT_EQ(inserted, model_inserted) << "step " << step;
      ASSERT_EQ(*slot, it->second) << "step " << step;
      ++*slot;
      ++it->second;
    } else if (op < 95) {
      ASSERT_EQ(flat.erase(key), model.erase(key) == 1) << "step " << step;
    } else if (op < 96) {
      flat.clear();
      model.clear();
    }
    ASSERT_EQ(flat.size(), model.size()) << "step " << step;
    if (step % 97 == 0) {
      for (std::uint64_t k = 0; k < kKeys; ++k) {
        const int* found = flat.find(k);
        const auto it = model.find(k);
        ASSERT_EQ(found != nullptr, it != model.end()) << "key " << k;
        if (found != nullptr) {
          EXPECT_EQ(*found, it->second) << "key " << k;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Index vs oracle property suite.
// ---------------------------------------------------------------------------

TEST(SubscriptionIndexTest, InsertionMustBeMonotone) {
  SubscriptionIndex index;
  index.insert(1, Predicate{});
  index.insert(5, Predicate{});
  EXPECT_THROW(index.insert(5, Predicate{}), std::invalid_argument);
  EXPECT_THROW(index.insert(3, Predicate{}), std::invalid_argument);
}

TEST(SubscriptionIndexTest, OnlyTheFirehoseLandsOnTheScanList) {
  SubscriptionIndex index;
  index.insert(1, Predicate{});  // firehose
  index.insert(2, Predicate{}.match_prefix(net::Prefix::parse("10.0.0.0/8")));
  index.insert(3, Predicate{}.match_prefix(net::Prefix::parse("10.0.0.0/24")));
  index.insert(4, Predicate{}.match_prefix(net::Prefix::parse("10.0.0.1/32")));
  index.insert(5, Predicate{}.match_prefix(net::Prefix::parse("0.0.0.0/0")));
  index.insert(6, Predicate{}
                      .match_prefix(net::Prefix::parse("10.0.0.0/16"))
                      .match_kind(core::AlertKind::kNewAttack));
  index.insert(7, Predicate{}.match_kind(core::AlertKind::kAttackSpike));
  EXPECT_EQ(index.scan_list_size(), 1u);
  EXPECT_EQ(index.size(), 7u);

  // Short prefixes are posting hits: an alert under 10.0.0.0/8 but outside
  // the /16 draws only the /8 and /0 watchers (and the firehose).
  std::vector<SubscriptionId> candidates;
  index.collect_candidates(alert_on("10.9.9.9"), candidates);
  EXPECT_EQ(candidates, (std::vector<SubscriptionId>{1, 2, 5}));
}

/// Pools deliberately small so predicates and alerts collide often — the
/// interesting cases are shared /24s, shared ASNs, shared kinds, and
/// addresses nested under prefixes of every length from /32 to /0.
const char* kAddrPool[] = {"10.0.0.1",   "10.0.0.2",   "10.0.1.1",
                           "10.0.1.9",   "10.7.0.1",   "172.16.0.4",
                           "192.0.2.55", "192.0.2.56", "10.0.15.3",
                           "10.0.16.1",  "10.12.0.1",  "10.200.3.4",
                           "172.20.1.1", "8.8.8.8"};
const char* kPrefixPool[] = {"10.0.0.0/8",     "10.0.0.0/16",   "10.0.0.0/24",
                             "10.0.1.0/24",    "10.0.0.1/32",   "10.0.1.1/32",
                             "192.0.2.0/24",   "192.0.2.55/32", "10.0.0.0/20",
                             "10.0.16.0/20",   "10.0.0.0/12",   "172.16.0.0/12",
                             "192.0.0.0/16",   "0.0.0.0/0"};

template <std::size_t N>
const char* pick(Rng& rng, const char* const (&pool)[N]) {
  return pool[rng.next_below(N)];
}

Predicate random_predicate(Rng& rng) {
  Predicate p;
  if (rng.bernoulli(0.5))
    p.match_prefix(net::Prefix::parse(pick(rng, kPrefixPool)));
  if (rng.bernoulli(0.25))
    p.match_asn(meta::Asn{static_cast<meta::Asn>(65001 + rng.next_below(3))});
  if (rng.bernoulli(0.2))
    p.match_country(meta::CountryCode(rng.bernoulli(0.5) ? "US" : "DE"));
  if (rng.bernoulli(0.2)) p.match_proto(rng.bernoulli(0.5) ? 6 : 17);
  if (rng.bernoulli(0.3))
    p.match_kind(static_cast<core::AlertKind>(rng.next_below(3)));
  return p;
}

core::Alert random_alert(Rng& rng) {
  if (rng.bernoulli(0.2)) {
    const auto kind = rng.bernoulli(0.5) ? core::AlertKind::kAttackSpike
                                         : core::AlertKind::kTargetSpike;
    return core::spike_alert(kind, static_cast<int>(rng.next_below(30)),
                             rng.uniform(10.0, 500.0), 25.0);
  }
  const meta::Asn asn =
      rng.bernoulli(0.3) ? meta::kUnknownAsn
                         : static_cast<meta::Asn>(65001 + rng.next_below(3));
  const meta::CountryCode country =
      rng.bernoulli(0.3) ? meta::CountryCode{}
                         : meta::CountryCode(rng.bernoulli(0.5) ? "US" : "DE");
  return core::event_alert(
      event_on(pick(rng, kAddrPool), rng.uniform(0.0, 1e6),
               rng.bernoulli(0.5) ? 6 : 17),
      static_cast<int>(rng.next_below(30)), asn, country);
}

TEST(SubscriptionIndexTest, MatchesExactlyTheScanOracleUnderChurn) {
  Rng rng(0x5eedu);
  SubscriptionIndex index;
  ScanOracle oracle;
  std::vector<Predicate> predicates;  // id - 1 -> predicate
  const auto lookup = [&predicates](SubscriptionId id) -> const Predicate& {
    return predicates[id - 1];
  };

  constexpr std::size_t kSubs = 400;
  for (SubscriptionId id = 1; id <= kSubs; ++id) {
    const Predicate p = random_predicate(rng);
    predicates.push_back(p);
    index.insert(id, p);
    oracle.insert(id, p);
  }

  std::vector<SubscriptionId> via_index;
  std::vector<SubscriptionId> via_oracle;
  const auto check = [&](const core::Alert& alert, const char* phase) {
    via_index.clear();
    via_oracle.clear();
    index.match(alert, lookup, via_index);
    oracle.match(alert, via_oracle);
    ASSERT_EQ(via_index, via_oracle) << phase;
  };

  constexpr int kAlerts = 600;
  for (int i = 0; i < kAlerts; ++i) check(random_alert(rng), "full");

  // Churn: every third subscription leaves; the survivors must keep
  // matching identically.
  for (SubscriptionId id = 3; id <= kSubs; id += 3) {
    EXPECT_TRUE(index.erase(id, predicates[id - 1]));
    oracle.erase(id);
  }
  EXPECT_FALSE(index.erase(3, predicates[2]));  // already gone
  for (int i = 0; i < kAlerts; ++i) check(random_alert(rng), "after-churn");

  // Late arrivals keep ids monotone and matchable.
  for (SubscriptionId id = kSubs + 1; id <= kSubs + 50; ++id) {
    const Predicate p = random_predicate(rng);
    predicates.push_back(p);
    index.insert(id, p);
    oracle.insert(id, p);
  }
  for (int i = 0; i < kAlerts; ++i) check(random_alert(rng), "after-growth");
}

// ---------------------------------------------------------------------------
// Dispatcher contracts.
// ---------------------------------------------------------------------------

TEST(DispatcherTest, DeliversInDispatchOrderMatchingTheOracle) {
  Rng rng(0xd15cu);
  Dispatcher dispatcher;
  ScanOracle oracle;
  std::vector<Predicate> predicates;
  constexpr std::size_t kSubs = 50;
  for (SubscriptionId want = 1; want <= kSubs; ++want) {
    const Predicate p = random_predicate(rng);
    const SubscriptionId id = dispatcher.subscribe(p);
    ASSERT_EQ(id, want);  // monotone assignment
    predicates.push_back(p);
    oracle.insert(id, p);
  }

  // Distinct victims (and distinct spike days) per alert → no coalescing,
  // so per-subscription delivery must replay the oracle-filtered alert
  // sequence exactly.
  std::vector<core::Alert> history;
  for (int i = 0; i < 200; ++i) {
    core::Alert alert = random_alert(rng);
    if (alert.has_event)
      alert.event.target = net::Ipv4Addr{static_cast<std::uint32_t>(
          0x0a000000u + static_cast<std::uint32_t>(i))};
    else
      alert.day = i;  // unique coalescing bucket per spike
    history.push_back(alert);
    dispatcher.on_alert(alert);
  }
  dispatcher.tick();

  std::vector<SubscriptionId> matched;
  for (SubscriptionId id = 1; id <= kSubs; ++id) {
    std::vector<const core::Alert*> expected;
    for (const core::Alert& alert : history)
      if (predicates[id - 1].matches(alert)) expected.push_back(&alert);
    const auto result = dispatcher.fetch(id, 0, 0);
    ASSERT_TRUE(result.has_value());
    ASSERT_EQ(result->notifications.size(), expected.size()) << "sub " << id;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      const Notification& n = result->notifications[i];
      EXPECT_EQ(n.seq, i + 1) << "sub " << id;
      EXPECT_EQ(n.alert.kind, expected[i]->kind);
      EXPECT_EQ(n.alert.has_event, expected[i]->has_event);
      if (n.alert.has_event) {
        EXPECT_EQ(n.alert.event.target.value(),
                  expected[i]->event.target.value());
      }
    }
  }
}

TEST(DispatcherTest, CoalescesSameVictimWithinATick) {
  Dispatcher dispatcher;
  const SubscriptionId id = dispatcher.subscribe(Predicate{});
  dispatcher.ingest(event_on("10.1.1.1", 100.0));
  dispatcher.ingest(event_on("10.1.1.1", 160.0));  // folds
  dispatcher.ingest(event_on("10.2.2.2", 170.0));
  dispatcher.tick();
  // A new tick opens a new bucket for the same victim.
  dispatcher.ingest(event_on("10.1.1.1", 400.0));
  dispatcher.tick();

  const auto result = dispatcher.fetch(id, 0, 0);
  ASSERT_TRUE(result.has_value());
  ASSERT_EQ(result->notifications.size(), 3u);
  EXPECT_EQ(result->notifications[0].seq, 1u);
  EXPECT_EQ(result->notifications[0].coalesced, 1u);
  EXPECT_EQ(result->notifications[0].alert.event.target.to_string(),
            "10.1.1.1");
  EXPECT_EQ(result->notifications[1].coalesced, 0u);
  EXPECT_EQ(result->notifications[2].seq, 3u);
  EXPECT_EQ(result->notifications[2].coalesced, 0u);
}

TEST(DispatcherTest, DropOldestAtTheQueueBound) {
  DispatcherConfig config;
  config.max_pending = 2;
  Dispatcher dispatcher(config);
  const SubscriptionId id = dispatcher.subscribe(Predicate{});
  for (int i = 0; i < 5; ++i) {
    dispatcher.ingest(
        event_on("10.0.0." + std::to_string(i + 1), 100.0 * (i + 1)));
    dispatcher.tick();
  }
  const auto result = dispatcher.fetch(id, 0, 0);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->dropped, 3u);
  ASSERT_EQ(result->notifications.size(), 2u);
  // The survivors are the NEWEST two — seqs expose the gap.
  EXPECT_EQ(result->notifications[0].seq, 4u);
  EXPECT_EQ(result->notifications[1].seq, 5u);
}

TEST(DispatcherTest, CursorFetchIsDeterministicAndPaged) {
  Dispatcher dispatcher;
  const SubscriptionId id = dispatcher.subscribe(Predicate{});
  for (int i = 0; i < 3; ++i)
    dispatcher.ingest(event_on("10.0.0." + std::to_string(i + 1), 100.0));
  dispatcher.tick();

  const auto page = dispatcher.fetch(id, 0, 2);
  ASSERT_TRUE(page.has_value());
  ASSERT_EQ(page->notifications.size(), 2u);
  EXPECT_EQ(page->next_cursor, 2u);
  EXPECT_EQ(page->pending, 1u);

  const auto rest = dispatcher.fetch(id, page->next_cursor, 0);
  ASSERT_TRUE(rest.has_value());
  ASSERT_EQ(rest->notifications.size(), 1u);
  EXPECT_EQ(rest->notifications[0].seq, 3u);
  EXPECT_EQ(rest->pending, 0u);

  // Replaying any cursor returns identical deliveries.
  const auto replay_a = dispatcher.fetch(id, 0, 2);
  const auto replay_b = dispatcher.fetch(id, 0, 2);
  ASSERT_TRUE(replay_a.has_value() && replay_b.has_value());
  ASSERT_EQ(replay_a->notifications.size(), replay_b->notifications.size());
  for (std::size_t i = 0; i < replay_a->notifications.size(); ++i)
    EXPECT_EQ(replay_a->notifications[i].seq, replay_b->notifications[i].seq);

  const auto drained = dispatcher.fetch(id, 3, 0);
  ASSERT_TRUE(drained.has_value());
  EXPECT_TRUE(drained->notifications.empty());
  EXPECT_EQ(drained->next_cursor, 3u);
}

/// Reference model of one subscription's delivery: stage with a linear
/// same-victim scan, flush at tick, evict the oldest past the bound.
struct ModelQueue {
  std::vector<Notification> queue;
  std::vector<Notification> staged;
  std::uint64_t next_seq = 1;
  std::uint64_t dropped = 0;

  static bool same_bucket(const core::Alert& a, const core::Alert& b) {
    if (a.kind != b.kind || a.has_event != b.has_event) return false;
    return a.has_event ? a.event.target == b.event.target : a.day == b.day;
  }
  void stage(const core::Alert& alert) {
    for (Notification& n : staged) {
      if (same_bucket(n.alert, alert)) {
        ++n.coalesced;
        return;
      }
    }
    staged.push_back(Notification{next_seq++, 0, alert});
  }
  void tick(std::size_t max_pending) {
    queue.insert(queue.end(), staged.begin(), staged.end());
    staged.clear();
    if (queue.size() > max_pending) {
      const std::size_t excess = queue.size() - max_pending;
      queue.erase(queue.begin(),
                  queue.begin() + static_cast<std::ptrdiff_t>(excess));
      dropped += excess;
    }
  }
  /// The linear filter fetch() must agree with.
  FetchResult fetch(std::uint64_t cursor, std::size_t max_items) const {
    FetchResult result;
    result.next_cursor = cursor;
    result.dropped = dropped;
    for (const Notification& n : queue) {
      if (n.seq <= cursor) continue;
      if (max_items != 0 && result.notifications.size() >= max_items) {
        ++result.pending;
        continue;
      }
      result.notifications.push_back(n);
      result.next_cursor = n.seq;
    }
    return result;
  }
};

void expect_same_fetch(const FetchResult& got, const FetchResult& want,
                       const std::string& where) {
  EXPECT_EQ(got.next_cursor, want.next_cursor) << where;
  EXPECT_EQ(got.pending, want.pending) << where;
  EXPECT_EQ(got.dropped, want.dropped) << where;
  ASSERT_EQ(got.notifications.size(), want.notifications.size()) << where;
  for (std::size_t i = 0; i < got.notifications.size(); ++i) {
    const Notification& g = got.notifications[i];
    const Notification& w = want.notifications[i];
    EXPECT_EQ(g.seq, w.seq) << where;
    EXPECT_EQ(g.coalesced, w.coalesced) << where;
    EXPECT_EQ(g.alert.kind, w.alert.kind) << where;
    EXPECT_EQ(g.alert.day, w.alert.day) << where;
    EXPECT_EQ(g.alert.has_event, w.alert.has_event) << where;
    EXPECT_EQ(g.alert.event.target, w.alert.event.target) << where;
    EXPECT_EQ(g.alert.event.start, w.alert.event.start) << where;
    EXPECT_EQ(g.alert.value, w.alert.value) << where;
  }
}

TEST(DispatcherTest, FetchAndCoalescingMatchALinearReference) {
  for (const std::size_t max_pending : {std::size_t{1}, std::size_t{3},
                                        std::size_t{16}}) {
    Rng rng(0xfe7c + max_pending);
    DispatcherConfig config;
    config.max_pending = max_pending;
    Dispatcher dispatcher(config);
    const std::vector<Predicate> predicates = {
        Predicate{},
        Predicate{}.match_prefix(net::Prefix::parse("10.0.0.0/16")),
        Predicate{}.match_kind(core::AlertKind::kAttackSpike)};
    std::vector<ModelQueue> models(predicates.size());
    for (const Predicate& p : predicates) dispatcher.subscribe(p);

    // Few victims and spike days per tick, so folds are frequent, and more
    // new victims per run than the largest bound, so drops are forced.
    for (int tick = 0; tick < 24; ++tick) {
      const auto alerts = rng.next_below(9);
      for (std::uint64_t i = 0; i < alerts; ++i) {
        core::Alert alert;
        if (rng.bernoulli(0.3)) {
          alert = core::spike_alert(core::AlertKind::kAttackSpike,
                                    static_cast<int>(rng.next_below(3)),
                                    rng.uniform(10.0, 500.0), 25.0);
        } else {
          const std::string victim =
              (rng.bernoulli(0.7) ? "10.0.0." : "10.1.0.") +
              std::to_string(1 + rng.next_below(6));
          alert = core::event_alert(event_on(victim, rng.uniform(0.0, 1e6)),
                                    tick, meta::kUnknownAsn, {});
        }
        dispatcher.on_alert(alert);
        for (std::size_t s = 0; s < predicates.size(); ++s)
          if (predicates[s].matches(alert)) models[s].stage(alert);
      }
      dispatcher.tick();
      for (ModelQueue& model : models) model.tick(max_pending);
    }

    for (std::size_t s = 0; s < predicates.size(); ++s) {
      const ModelQueue& model = models[s];
      EXPECT_GT(model.dropped, 0u) << "max_pending=" << max_pending;
      const SubscriptionId id = s + 1;
      for (std::uint64_t cursor = 0; cursor <= model.next_seq + 1; ++cursor) {
        for (const std::size_t max_items :
             {std::size_t{0}, std::size_t{1}, std::size_t{5}}) {
          const auto got = dispatcher.fetch(id, cursor, max_items);
          ASSERT_TRUE(got.has_value());
          expect_same_fetch(*got, model.fetch(cursor, max_items),
                            "max_pending=" + std::to_string(max_pending) +
                                " sub=" + std::to_string(id) +
                                " cursor=" + std::to_string(cursor) +
                                " max_items=" + std::to_string(max_items));
        }
      }
    }
  }
}

TEST(DispatcherTest, UnsubscribeMidTickLeavesNoBucketToFoldInto) {
  Dispatcher dispatcher;
  const SubscriptionId old_id = dispatcher.subscribe(Predicate{});
  dispatcher.ingest(event_on("10.1.1.1", 100.0));
  dispatcher.ingest(event_on("10.1.1.1", 110.0));  // folds into old_id's
  EXPECT_TRUE(dispatcher.unsubscribe(old_id));
  const SubscriptionId new_id = dispatcher.subscribe(Predicate{});
  dispatcher.ingest(event_on("10.1.1.1", 200.0));  // opens a fresh bucket
  dispatcher.ingest(event_on("10.1.1.1", 210.0));  // folds into it
  dispatcher.ingest(event_on("10.2.2.2", 220.0));
  dispatcher.tick();

  EXPECT_FALSE(dispatcher.fetch(old_id, 0, 0).has_value());
  const auto result = dispatcher.fetch(new_id, 0, 0);
  ASSERT_TRUE(result.has_value());
  ASSERT_EQ(result->notifications.size(), 2u);
  EXPECT_EQ(result->notifications[0].seq, 1u);
  EXPECT_EQ(result->notifications[0].coalesced, 1u);
  EXPECT_EQ(result->notifications[0].alert.event.start, 200.0);
  EXPECT_EQ(result->notifications[1].seq, 2u);
  EXPECT_EQ(result->notifications[1].coalesced, 0u);
  EXPECT_EQ(result->notifications[1].alert.event.target.to_string(),
            "10.2.2.2");
  EXPECT_EQ(result->dropped, 0u);
}

TEST(DispatcherTest, LongPollWakesOnTickAndOnUnsubscribe) {
  Dispatcher dispatcher;
  const SubscriptionId id = dispatcher.subscribe(Predicate{});

  std::optional<FetchResult> polled;
  std::thread poller([&] { polled = dispatcher.fetch(id, 0, 0, 10000); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  dispatcher.ingest(event_on("10.5.5.5", 100.0));
  dispatcher.tick();
  poller.join();
  ASSERT_TRUE(polled.has_value());
  ASSERT_EQ(polled->notifications.size(), 1u);

  // A long-poller on an id that is unsubscribed mid-wait must observe the
  // removal, not block out the full window.
  const SubscriptionId doomed = dispatcher.subscribe(Predicate{});
  std::optional<FetchResult> after_removal = FetchResult{};
  std::thread waiter(
      [&] { after_removal = dispatcher.fetch(doomed, 0, 0, 10000); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  dispatcher.unsubscribe(doomed);
  waiter.join();
  EXPECT_FALSE(after_removal.has_value());
}

TEST(DispatcherTest, LifecycleEdges) {
  DispatcherConfig zero;
  zero.max_pending = 0;
  EXPECT_THROW(Dispatcher{zero}, std::invalid_argument);

  Dispatcher dispatcher;
  EXPECT_THROW(
      dispatcher.subscribe(Predicate{}.match_country(meta::CountryCode{})),
      std::invalid_argument);
  EXPECT_FALSE(dispatcher.fetch(1, 0, 0).has_value());
  EXPECT_FALSE(dispatcher.unsubscribe(1));

  const SubscriptionId id = dispatcher.subscribe(Predicate{});
  EXPECT_EQ(dispatcher.active_subscriptions(), 1u);
  EXPECT_TRUE(dispatcher.unsubscribe(id));
  EXPECT_FALSE(dispatcher.unsubscribe(id));
  EXPECT_EQ(dispatcher.active_subscriptions(), 0u);
  EXPECT_FALSE(dispatcher.fetch(id, 0, 0).has_value());
  // Ids are never reused after an unsubscribe.
  EXPECT_GT(dispatcher.subscribe(Predicate{}), id);
}

}  // namespace
}  // namespace dosm::subscribe
