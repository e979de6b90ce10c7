// Quickstart: build a small simulated world, run both detection pipelines,
// fuse the events, and print the headline numbers of the paper's analysis.
//
//   $ ./quickstart [seed]
#include <cstdlib>
#include <iostream>

#include "common/strings.h"
#include "core/joint.h"
#include "core/ports.h"
#include "query/snapshot.h"
#include "sim/scenario.h"

int main(int argc, char** argv) {
  using namespace dosm;

  sim::ScenarioConfig config = sim::ScenarioConfig::small();
  if (argc > 1) config.seed = std::strtoull(argv[1], nullptr, 10);

  std::cout << "Building a " << config.window.num_days()
            << "-day world (seed " << config.seed << ")...\n";
  const auto world = sim::build_world(config);

  std::cout << "\nGround truth: " << world->truth.size() << " attacks, "
            << world->dns.num_domains() << " Web domains, "
            << world->hosting.hosters().size() << " hosters\n";

  // Table-1 style summary of what the detectors saw, from the query
  // snapshot every rollup runs on.
  const auto snapshot = query::Snapshot::build(
      world->store.window(), world->store.events(),
      {world->population.pfx2as(), world->population.geo()});
  using enum query::DistinctKey;
  for (const auto filter :
       {core::SourceFilter::kTelescope, core::SourceFilter::kHoneypot,
        core::SourceFilter::kCombined}) {
    const auto q = query::Query{}.from_source(filter);
    std::cout << "  " << core::to_string(filter) << ": " << snapshot->count(q)
              << " events, " << snapshot->distinct(q, kTarget) << " targets, "
              << snapshot->distinct(q, kSlash24) << " /24s, "
              << snapshot->distinct(q, kSlash16) << " /16s, "
              << snapshot->distinct(q, kAsn) << " ASNs\n";
  }

  // Daily view of the busiest day.
  const auto attacks = snapshot->daily_attacks(query::Query{});
  const auto targets =
      query::daily_distinct(*snapshot, query::Query{}, kTarget);
  const int busiest = attacks.argmax();
  std::cout << "\nBusiest day: " << to_string(world->window.date_of_day(busiest))
            << " with " << attacks.at(busiest) << " attacks on "
            << targets.at(busiest) << " targets\n";

  // Joint attacks.
  const core::JointAttackAnalysis joint(world->store);
  std::cout << "Targets in both datasets: " << joint.common_targets()
            << "; hit simultaneously: " << joint.joint_targets() << "\n";

  // Protocol mixes.
  std::cout << "\nRandomly-spoofed attack protocols:";
  for (const auto& row : core::ip_protocol_distribution(world->store))
    std::cout << "  " << row.label << " " << percent(row.share, 1);
  std::cout << "\nReflection vectors:";
  for (const auto& row : core::reflection_distribution(world->store))
    std::cout << "  " << row.label << " " << percent(row.share, 1);
  std::cout << "\n";
  return 0;
}
