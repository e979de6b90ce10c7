// Figure 5 — attack events of medium or higher intensity over time (both
// datasets combined; "medium+" = intensity at or above its dataset's mean).
#include "bench_common.h"

int main() {
  using namespace dosm;
  bench::print_header(
      "Figure 5: medium+-intensity attacks over time",
      "~1.4k/day on average vs 28.7k/day overall (i.e. ~5% of events)");

  const auto& world = bench::shared_world();
  const auto& snapshot = bench::shared_snapshot();
  const core::IntensityScale scale(world.store.events());
  const double telescope_mean = scale.mean(core::EventSource::kTelescope);
  const double honeypot_mean = scale.mean(core::EventSource::kHoneypot);
  const auto all = snapshot.daily_attacks(query::Query{});
  // Medium+ is per source (raw intensity at or above that source's mean),
  // so it is the sum of one thresholded series per source.
  using enum core::SourceFilter;
  auto medium = snapshot.daily_attacks(
      query::Query{}.from_source(kTelescope).at_least(telescope_mean));
  const auto medium_honeypot = snapshot.daily_attacks(
      query::Query{}.from_source(kHoneypot).at_least(honeypot_mean));
  for (int d = 0; d < medium.num_days(); ++d)
    medium.add(d, medium_honeypot.at(d));

  std::cout << "mean telescope intensity threshold: "
            << fixed(telescope_mean, 1) << " pps; honeypot: "
            << fixed(honeypot_mean, 1) << " rps\n\n";

  TextTable table({"quarter", "all attacks/day", "medium+/day", "medium share"});
  const auto& window = world.window;
  for (int q = 0; q * 91 < all.num_days(); ++q) {
    const int start = q * 91;
    const int end = std::min(start + 91, all.num_days());
    double total = 0, med = 0;
    for (int d = start; d < end; ++d) {
      total += all.at(d);
      med += medium.at(d);
    }
    const int days = end - start;
    table.add_row({to_string(window.date_of_day(start)),
                   fixed(total / days, 1), fixed(med / days, 1),
                   percent(total > 0 ? med / total : 0.0, 1)});
  }
  std::cout << table;

  const double share = medium.total() / all.total();
  std::cout << "\nOverall medium+ share: " << percent(share, 1)
            << " (paper: 1.4k/28.7k = 4.9%)\n";
  std::cout << "Peak medium+ day: "
            << to_string(window.date_of_day(medium.argmax())) << " with "
            << medium.max() << " events (campaign days drive spikes)\n";
  return 0;
}
