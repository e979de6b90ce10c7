// Table 6 — reflection protocol distribution of honeypot attack events.
#include <map>

#include "bench_common.h"
#include "core/ports.h"

int main() {
  using namespace dosm;
  bench::print_header(
      "Table 6: reflection protocol distribution (honeypots)",
      "NTP 40.08%, DNS 26.17%, CharGen 22.37%, SSDP 8.38%, RIPv1 2.27%, "
      "Other 0.73%");

  const auto& world = bench::shared_world();
  const auto rows = core::reflection_distribution(world.store);
  const std::map<std::string, double> paper{
      {"NTP", 0.4008},  {"DNS", 0.2617},  {"CharGen", 0.2237},
      {"SSDP", 0.0838}, {"RIPv1", 0.0227}, {"Other", 0.0073}};

  TextTable table({"vector", "#events", "share", "paper share"});
  bool order_ok = true;
  double prev = 1.0;
  for (const auto& row : rows) {
    const auto it = paper.find(row.label);
    table.add_row({row.label, human_count(double(row.events)),
                   percent(row.share, 2),
                   it != paper.end() ? percent(it->second, 2) : "-"});
    if (row.label != "Other") {
      if (row.share > prev) order_ok = false;
      prev = row.share;
    }
  }
  std::cout << table;
  std::cout << "\nShape: NTP > DNS > CharGen > SSDP > RIPv1 ordering: "
            << (order_ok && rows[0].label == "NTP" ? "holds" : "VIOLATED")
            << "\n";
  return 0;
}
