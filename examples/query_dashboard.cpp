// Query-engine demo: replay the fused event stream through the snapshot
// publisher and render a periodic "operations dashboard" from the latest
// published snapshot — the serving pattern behind `dosmeter query`.
//
// The publisher swaps a fresh immutable snapshot into the QueryEngine at
// every day boundary; the dashboard only ever reads whatever snapshot is
// current, exactly like a concurrent reader would (see
// tests/query_concurrency_test.cpp for the multi-threaded version).
//
//   $ ./query_dashboard [seed]
#include <cstdlib>
#include <iostream>

#include "common/strings.h"
#include "common/table.h"
#include "query/engine.h"
#include "query/snapshot.h"
#include "sim/scenario.h"

int main(int argc, char** argv) {
  using namespace dosm;

  sim::ScenarioConfig config = sim::ScenarioConfig::small();
  config.window.end = {2015, 8, 27};  // 180 days
  if (argc > 1) config.seed = std::strtoull(argv[1], nullptr, 10);
  const auto world = sim::build_world(config);
  std::cout << "Replaying " << world->store.size()
            << " fused events through the snapshot publisher...\n";

  query::QueryEngine engine;
  query::SnapshotPublisher publisher(
      engine, world->window,
      query::BuildContext{world->population.pfx2as(),
                          world->population.geo()});

  const int report_every = 30;  // days
  int next_report = report_every;
  const auto dashboard = [&] {
    const auto snap = engine.snapshot();
    if (!snap) return;
    const double now =
        static_cast<double>(world->window.day_start(next_report));
    const double week = 7.0 * static_cast<double>(kSecondsPerDay);
    query::Query last_week = query::Query{}.between(now - week, now);

    std::cout << "\n== day " << next_report << " (snapshot v"
              << snap->version() << ", " << snap->size()
              << " events indexed) ==\n";
    std::cout << "last 7 days: " << snap->count(last_week) << " attacks on "
              << snap->unique_targets(last_week) << " targets\n";
    TextTable countries({"country", "targets", "share"});
    for (const auto& row : snap->top_countries(last_week, 3))
      countries.add_row({row.country.to_string(), std::to_string(row.targets),
                         percent(row.share, 1)});
    std::cout << countries;
    TextTable victims({"victim", "events this week"});
    for (const auto& row : snap->top_targets(last_week, 3))
      victims.add_row({row.target.to_string(), std::to_string(row.events)});
    std::cout << victims;
  };

  for (const auto& event : world->store.events()) {
    publisher.ingest(event);
    const auto snap = engine.snapshot();
    if (snap && world->window.event_day(event.start) >= next_report) {
      dashboard();
      next_report += report_every;
    }
  }
  publisher.finish();

  const auto final_snap = engine.snapshot();
  std::cout << "\nFinal snapshot v" << final_snap->version() << ": "
            << final_snap->size() << " events, "
            << publisher.snapshots_published() << " snapshots published, "
            << final_snap->unique_targets(query::Query{})
            << " unique targets overall\n";
  return 0;
}
