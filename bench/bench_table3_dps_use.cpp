// Table 3 — DDoS Protection Service use: Web sites per provider, detected
// from DNS fingerprints exactly as the paper's methodology does.
#include <map>

#include "bench_common.h"
#include "dps/classifier.h"
#include "dps/migration.h"

int main() {
  using namespace dosm;
  bench::print_header(
      "Table 3: DDoS Protection Service use",
      "Neustar 10.78M, DOSarrest 7.04M, Akamai 5.86M, Verisign 4.34M, "
      "CloudFlare 4.27M, Incapsula 3.78M, F5 3.58M, CenturyLink 0.87M, "
      "Level 3 0.47M, VirtualRoad <100");

  const auto& world = bench::shared_world();
  const dps::Classifier classifier(world.providers, world.names);
  const auto timelines = dps::all_timelines(world.dns, classifier);
  const auto counts = dps::provider_customer_counts(timelines, world.providers);

  const std::map<std::string, double> paper{
      {"Akamai", 5.86e6},   {"CenturyLink", 0.87e6}, {"CloudFlare", 4.27e6},
      {"DOSarrest", 7.04e6}, {"F5", 3.58e6},          {"Incapsula", 3.78e6},
      {"Level 3", 0.47e6},  {"Neustar", 10.78e6},    {"Verisign", 4.34e6},
      {"VirtualRoad", 50.0}};

  double paper_total = 0.0;
  std::uint64_t measured_total = 0;
  for (const auto& [name, sites] : paper) paper_total += sites;
  for (const auto& provider : world.providers.all())
    measured_total += counts[provider.id];

  TextTable table(
      {"provider", "#Web sites", "share", "paper #", "paper share"});
  // Rank by measured count, descending.
  std::vector<dps::ProviderId> order;
  for (const auto& provider : world.providers.all()) order.push_back(provider.id);
  std::sort(order.begin(), order.end(), [&](auto a, auto b) {
    return counts[a] > counts[b];
  });
  for (const auto id : order) {
    const auto& provider = world.providers.provider(id);
    const double paper_sites = paper.at(provider.name);
    table.add_row({provider.name, human_count(double(counts[id])),
                   percent(double(counts[id]) / double(measured_total), 1),
                   human_count(paper_sites),
                   percent(paper_sites / paper_total, 1)});
  }
  std::cout << table;

  // Shape checks: Neustar leads, VirtualRoad is negligible.
  const auto neustar = *world.providers.find("Neustar");
  const auto virtualroad = *world.providers.find("VirtualRoad");
  bool neustar_leads = true;
  for (const auto id : order)
    if (counts[id] > counts[neustar]) neustar_leads = false;
  std::cout << "\nShape: Neustar leads: " << (neustar_leads ? "yes" : "NO")
            << "; VirtualRoad customers: " << counts[virtualroad]
            << " (paper: <100 at full scale)\n";
  return 0;
}
