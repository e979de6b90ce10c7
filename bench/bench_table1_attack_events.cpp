// Table 1 — DoS attack events data: events / unique targets / /24s / /16s /
// ASNs per source and combined, over the two-year window.
#include "bench_common.h"

int main() {
  using namespace dosm;
  bench::print_header(
      "Table 1: DoS attack events data (2015-03-01 .. 2017-02-28)",
      "telescope 12.47M events/2.45M targets/0.77M /24s; honeypot 8.43M/"
      "4.18M/1.72M; combined 20.90M events, 2.19M /24s (~1/3 of active /24s)");

  const auto& snapshot = bench::shared_snapshot();

  TextTable table({"source", "#events", "#targets", "#/24s", "#/16s", "#ASNs",
                   "events/target"});
  struct PaperRow {
    const char* name;
    double events, targets, s24;
  };
  const PaperRow paper[] = {
      {"paper: Network Telescope", 12.47e6, 2.45e6, 0.77e6},
      {"paper: Amplification Honeypot", 8.43e6, 4.18e6, 1.72e6},
      {"paper: Combined", 20.90e6, 6.34e6, 2.19e6},
  };
  const core::SourceFilter filters[] = {core::SourceFilter::kTelescope,
                                        core::SourceFilter::kHoneypot,
                                        core::SourceFilter::kCombined};
  using enum query::DistinctKey;
  std::uint64_t events[3], targets[3];
  for (int i = 0; i < 3; ++i) {
    const auto q = query::Query{}.from_source(filters[i]);
    events[i] = snapshot.count(q);
    targets[i] = snapshot.distinct(q, kTarget);
    table.add_row(
        {core::to_string(filters[i]), human_count(double(events[i])),
         human_count(double(targets[i])),
         human_count(double(snapshot.distinct(q, kSlash24))),
         human_count(double(snapshot.distinct(q, kSlash16))),
         human_count(double(snapshot.distinct(q, kAsn))),
         fixed(targets[i] ? double(events[i]) / double(targets[i]) : 0.0, 2)});
    table.add_row({paper[i].name, human_count(paper[i].events),
                   human_count(paper[i].targets), human_count(paper[i].s24),
                   "-", "-",
                   fixed(paper[i].events / paper[i].targets, 2)});
  }
  std::cout << table;

  // Shape checks the paper emphasizes: the telescope has more events per
  // target (follow-up attacks), the honeypot more unique targets; the
  // combined target set is sub-additive (overlap, §4).
  const double events_per_target_t = double(events[0]) / double(targets[0]);
  const double events_per_target_h = double(events[1]) / double(targets[1]);
  std::cout << "\nShape: events/target telescope " << fixed(events_per_target_t, 2)
            << " vs honeypot " << fixed(events_per_target_h, 2)
            << (events_per_target_t > events_per_target_h
                    ? "  [matches paper: telescope higher]"
                    : "  [MISMATCH: paper has telescope higher]")
            << "\n";
  const auto overlap = targets[0] + targets[1] - targets[2];
  std::cout << "Target overlap between datasets: " << overlap << " ("
            << percent(double(overlap) / double(targets[2]), 2)
            << " of combined; paper: 282k of 6.34M = 4.4%)\n";
  return 0;
}
