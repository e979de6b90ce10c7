#include "dataset.h"

#include <algorithm>
#include <map>

namespace perfbench {
namespace {

template <typename Key>
std::vector<Key> ranked(const std::map<Key, std::uint64_t>& counts) {
  std::vector<std::pair<Key, std::uint64_t>> entries(counts.begin(),
                                                     counts.end());
  std::stable_sort(entries.begin(), entries.end(),
                   [](const auto& a, const auto& b) { return a.second > b.second; });
  std::vector<Key> out;
  out.reserve(entries.size());
  for (const auto& [key, count] : entries) out.push_back(key);
  return out;
}

}  // namespace

const dosm::meta::PrefixToAsMap& Dataset::pfx2as() const {
  return world->population.pfx2as();
}

const dosm::meta::GeoDatabase& Dataset::geo() const {
  return world->population.geo();
}

dosm::query::BuildContext Dataset::context() const {
  return dosm::query::BuildContext{pfx2as(), geo()};
}

Dataset make_dataset(std::uint64_t seed) {
  dosm::sim::ScenarioConfig config;
  config.seed = seed;
  Dataset data;
  data.world = dosm::sim::build_world(config);
  data.window = data.world->window;
  const auto events = data.world->store.events();
  data.events.assign(events.begin(), events.end());
  std::sort(data.events.begin(), data.events.end(), dosm::core::canonical_less);

  std::map<std::uint32_t, std::uint64_t> targets, s24, s16;
  std::map<dosm::meta::Asn, std::uint64_t> asns;
  std::map<std::string, std::uint64_t> countries;
  std::map<std::uint16_t, std::uint64_t> ports;
  for (const auto& event : data.events) {
    const std::uint32_t ip = event.target.value();
    ++targets[ip];
    ++s24[ip & 0xffffff00u];
    ++s16[ip & 0xffff0000u];
    const dosm::meta::Asn asn = data.pfx2as().origin(event.target);
    if (asn != dosm::meta::kUnknownAsn) ++asns[asn];
    const dosm::meta::CountryCode cc = data.geo().locate(event.target);
    if (cc.is_set()) ++countries[cc.to_string()];
    if (event.is_telescope() && event.top_port != 0) ++ports[event.top_port];
  }
  data.targets = ranked(targets);
  data.slash24s = ranked(s24);
  data.slash16s = ranked(s16);
  data.asns = ranked(asns);
  for (const std::string& cc : ranked(countries))
    data.countries.emplace_back(cc);
  data.ports = ranked(ports);
  return data;
}

}  // namespace perfbench
