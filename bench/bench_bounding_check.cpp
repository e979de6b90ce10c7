// §6 bounding-problem check: attacks overlapping the edges of the
// observation window can be misclassified (preexisting customers that
// actually migrated just before the window; non-migrating sites that
// migrate just after). The paper verifies robustness by shortening the
// attack data by one month on either end and re-running the taxonomy; the
// class distribution must move only negligibly.
#include <cmath>

#include "bench_common.h"
#include "core/taxonomy.h"
#include "dps/classifier.h"

namespace {

dosm::core::TaxonomyCounts taxonomy_with_clipped_attacks(
    const dosm::sim::World& world, int clip_days) {
  using namespace dosm;
  const double lo =
      static_cast<double>(world.window.day_start(clip_days));
  const double hi = static_cast<double>(
      world.window.day_start(world.window.num_days() - clip_days));
  std::vector<core::AttackEvent> kept;
  for (const auto& event : world.store.events()) {
    if (event.start >= lo && event.start < hi) kept.push_back(event);
  }
  const core::EventStore clipped(world.window, std::move(kept));

  const dps::Classifier classifier(world.providers, world.names);
  const auto timelines = dps::all_timelines(world.dns, classifier);
  const core::ImpactAnalysis impact(clipped, world.dns);
  return core::classify_websites(impact, timelines, world.dns);
}

}  // namespace

int main() {
  using namespace dosm;
  bench::print_header(
      "Bounding-problem check (§6)",
      "shortening the attack data by one month on either end has a "
      "negligible effect on the Web-site class distribution");

  const auto& world = bench::shared_world();
  const auto full = taxonomy_with_clipped_attacks(world, 0);
  const auto clipped = taxonomy_with_clipped_attacks(world, 30);

  auto pct = [](std::uint64_t a, std::uint64_t b) {
    return b ? 100.0 * double(a) / double(b) : 0.0;
  };
  struct Row {
    const char* label;
    double full_pct;
    double clipped_pct;
  };
  const Row rows[] = {
      {"attacked share", pct(full.attacked, full.total),
       pct(clipped.attacked, clipped.total)},
      {"attacked & preexisting", pct(full.attacked_preexisting, full.attacked),
       pct(clipped.attacked_preexisting, clipped.attacked)},
      {"attacked & migrating", pct(full.attacked_migrating, full.attacked),
       pct(clipped.attacked_migrating, clipped.attacked)},
      {"unattacked & preexisting",
       pct(full.not_attacked_preexisting, full.not_attacked),
       pct(clipped.not_attacked_preexisting, clipped.not_attacked)},
      {"unattacked & migrating",
       pct(full.not_attacked_migrating, full.not_attacked),
       pct(clipped.not_attacked_migrating, clipped.not_attacked)},
  };

  TextTable table({"class", "full window", "clipped 1 month/side", "delta"});
  double max_delta = 0.0;
  for (const auto& row : rows) {
    const double delta = row.clipped_pct - row.full_pct;
    max_delta = std::max(max_delta, std::fabs(delta));
    table.add_row({row.label, fixed(row.full_pct, 2) + "%",
                   fixed(row.clipped_pct, 2) + "%",
                   fixed(delta, 2) + "pp"});
  }
  std::cout << table;
  std::cout << "\nLargest shift: " << fixed(max_delta, 2)
            << "pp -> misclassification at the window edges is "
            << (max_delta < 3.0 ? "negligible (matches the paper's check)"
                                : "NOT negligible")
            << "\n";
  return 0;
}
