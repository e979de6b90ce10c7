// Figure 1 — attacks, unique targets, targeted /16s and ASNs over time, for
// the telescope, honeypot, and combined datasets (three panels). Prints the
// monthly-resampled series plus the paper's headline daily averages.
#include "bench_common.h"

namespace {

void print_panel(const dosm::query::Snapshot& snapshot,
                 dosm::core::SourceFilter filter, double paper_daily) {
  using namespace dosm;
  using enum query::DistinctKey;
  const auto q = query::Query{}.from_source(filter);
  const auto attacks = snapshot.daily_attacks(q);
  const auto daily_targets = query::daily_distinct(snapshot, q, kTarget);
  const auto daily_slash16 = query::daily_distinct(snapshot, q, kSlash16);
  const auto daily_asns = query::daily_distinct(snapshot, q, kAsn);
  std::cout << "\n-- " << core::to_string(filter) << " --\n";
  std::cout << "daily avg attacks: " << fixed(attacks.daily_mean(), 1)
            << " (paper: " << human_count(paper_daily, 1) << "/day at full "
            << "scale)\n";

  TextTable table({"month", "attacks/day", "targets/day", "/16s/day",
                   "ASNs/day"});
  const auto& window = snapshot.window();
  int month_start = 0;
  CivilDate current = window.date_of_day(0);
  for (int d = 0; d <= attacks.num_days(); ++d) {
    const CivilDate date = d < attacks.num_days()
                               ? window.date_of_day(d)
                               : CivilDate{9999, 1, 1};
    if (date.year != current.year || date.month != current.month) {
      const int days = d - month_start;
      double total = 0, targets = 0, s16 = 0, asns = 0;
      for (int i = month_start; i < d; ++i) {
        total += attacks.at(i);
        targets += daily_targets.at(i);
        s16 += daily_slash16.at(i);
        asns += daily_asns.at(i);
      }
      char label[16];
      std::snprintf(label, sizeof(label), "%04d-%02u", current.year,
                    current.month);
      table.add_row({label, fixed(total / days, 1), fixed(targets / days, 1),
                     fixed(s16 / days, 1), fixed(asns / days, 1)});
      current = date;
      month_start = d;
    }
  }
  std::cout << table;
}

}  // namespace

int main() {
  using namespace dosm;
  bench::print_header(
      "Figure 1: attack events over time (3 panels)",
      "telescope avg 17.1k/day; honeypot avg 11.6k/day; combined 28.7k/day; "
      "targets spread over thousands of ASNs daily");

  const auto& snapshot = bench::shared_snapshot();
  print_panel(snapshot, core::SourceFilter::kTelescope, 17.1e3);
  print_panel(snapshot, core::SourceFilter::kHoneypot, 11.6e3);
  print_panel(snapshot, core::SourceFilter::kCombined, 28.7e3);

  // Shape: combined daily targets < sum of per-source targets (same-day
  // co-targeting, the paper's note under Figure 1).
  const auto daily_targets = [&](core::SourceFilter filter) {
    return query::daily_distinct(snapshot, query::Query{}.from_source(filter),
                                 query::DistinctKey::kTarget);
  };
  const auto combined = daily_targets(core::SourceFilter::kCombined);
  const auto telescope = daily_targets(core::SourceFilter::kTelescope);
  const auto honeypot = daily_targets(core::SourceFilter::kHoneypot);
  int subadditive_days = 0, days_with_both = 0;
  for (int d = 0; d < combined.num_days(); ++d) {
    if (telescope.at(d) > 0 && honeypot.at(d) > 0) {
      ++days_with_both;
      if (combined.at(d) < telescope.at(d) + honeypot.at(d))
        ++subadditive_days;
    }
  }
  std::cout << "\nDays where combined targets < telescope+honeypot targets: "
            << subadditive_days << "/" << days_with_both
            << " (same-day co-targeting exists)\n";
  return 0;
}
