// Figure 3 — intensity distribution of telescope events (max backscatter
// packets/sec in any minute; x256 estimates the rate at the victim).
#include "bench_common.h"

int main() {
  using namespace dosm;
  bench::print_header(
      "Figure 3: telescope intensity CDF",
      "~70% of attacks <= ~2 pps at the telescope (512 pps at victim); ~17% "
      "> 10 pps; mean 107, median 1");

  const auto& world = bench::shared_world();
  EmpiricalDistribution dist;
  for (const auto& event : world.store.events())
    if (event.is_telescope()) dist.add(event.intensity);

  TextTable table({"pps (max, at telescope)", "x256 at victim", "CDF"});
  for (const double x : {0.5, 1.0, 2.0, 5.0, 10.0, 100.0, 1000.0, 10000.0, 100000.0}) {
    table.add_row({fixed(x, 1), human_count(x * 256.0, 0),
                   percent(dist.cdf(x), 1)});
  }
  std::cout << table;
  std::cout << "\nmean " << fixed(dist.mean(), 1) << " (paper 107), median "
            << fixed(dist.median(), 2) << " (paper 1)\n";
  std::cout << "Share above 10 pps: " << percent(1.0 - dist.cdf(10.0), 1)
            << " (paper ~17%)\n";
  std::cout << "Shape: steep low-end curve with a many-decade tail: "
            << (dist.cdf(2.0) > 0.5 && dist.max() > 1000.0 ? "holds"
                                                           : "VIOLATED")
            << "\n";
  return 0;
}
