#include "sim/migration_model.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

namespace dosm::sim {

MigrationModel::MigrationModel(std::uint64_t seed, HostingEcosystem& hosting,
                               dns::SnapshotStore& store, StudyWindow window,
                               MigrationConfig config)
    : rng_(seed),
      hosting_(hosting),
      store_(store),
      window_(window),
      config_(config) {}

double MigrationModel::intensity_rank(const GroundTruthAttack& attack) const {
  const auto& pool = attack.kind == AttackKind::kDirect
                         ? direct_intensities_
                         : reflection_intensities_;
  if (pool.empty()) return 0.5;
  const double value = attack.kind == AttackKind::kDirect
                           ? attack.victim_pps
                           : attack.per_reflector_rps;
  // Midpoint rank of the tie group, so a cluster of identical top values
  // still ranks near 1 rather than at its lower bound.
  const auto lo = std::lower_bound(pool.begin(), pool.end(), value);
  const auto hi = std::upper_bound(pool.begin(), pool.end(), value);
  const double mid =
      (static_cast<double>(lo - pool.begin()) + static_cast<double>(hi - pool.begin())) /
      2.0;
  return mid / static_cast<double>(pool.size());
}

int MigrationModel::sample_delay(double rank) {
  const double p_urgent =
      std::min(0.98, config_.urgent_base +
                         config_.urgent_gain * std::pow(rank, config_.urgent_power));
  // The minimum DNS-visible delay is one day: a record changed hours after
  // the attack only shows up in the *next* daily snapshot, so a same-day
  // flip would (wrongly) hide the triggering attack from the day-granular
  // join.
  if (rng_.bernoulli(p_urgent)) return 1;
  const double days =
      rng_.lognormal(config_.slow_delay_mu, config_.slow_delay_sigma);
  return 2 + static_cast<int>(std::min(days, 150.0));
}

std::vector<MigrationRecord> MigrationModel::apply(
    std::span<const GroundTruthAttack> attacks) {
  const int days = window_.num_days();

  // Intensity pools for percentile ranks, plus a duration pool: a long
  // outage also creates urgency (Figure 11), even though duration does not
  // drive the migration *decision* the way intensity does.
  direct_intensities_.clear();
  reflection_intensities_.clear();
  durations_.clear();
  for (const auto& attack : attacks) {
    if (attack.kind == AttackKind::kDirect)
      direct_intensities_.push_back(attack.victim_pps);
    else
      reflection_intensities_.push_back(attack.per_reflector_rps);
    durations_.push_back(attack.duration_s);
  }
  std::sort(direct_intensities_.begin(), direct_intensities_.end());
  std::sort(reflection_intensities_.begin(), reflection_intensities_.end());
  std::sort(durations_.begin(), durations_.end());

  std::vector<bool> domain_decided(store_.num_domains(), false);
  std::vector<std::uint16_t> exposures(store_.num_domains(), 0);
  std::vector<bool> hoster_decided(hosting_.hosters().size(), false);
  // IPs hit by trigger-worthy attacks so far (wholesale moves cover the
  // hoster's *attacked* infrastructure, as in the Wix case where the moved
  // sites sat on the attacked shared IPs).
  std::unordered_set<std::uint32_t> triggered_ips;
  std::vector<MigrationRecord> proposals;

  // Spontaneous background adoption, decided upfront. Only independently
  // operated sites (self-hosted or micro-shared) adopt on their own; a
  // shared-hosting customer does not CNAME to a DPS independently of its
  // hoster.
  store_.for_each_domain([&](dns::DomainId id, const dns::DomainEntry& entry) {
    const auto& site = hosting_.site(id);
    if (site.preexisting != dps::kNoProvider) return;
    if (site.hoster >= 0) return;
    if (!rng_.bernoulli(config_.spontaneous_fraction)) return;
    if (entry.first_seen_day >= days - 1) return;
    MigrationRecord record;
    record.domain = id;
    record.decision_day = static_cast<int>(
        rng_.uniform_int(entry.first_seen_day, days - 1));
    record.migration_day = record.decision_day;
    record.provider = hosting_.sample_provider(rng_);
    record.attack_driven = false;
    proposals.push_back(record);
    domain_decided[id] = true;
  });

  // Attack-driven decisions, in time order.
  for (const auto& attack : attacks) {
    const int day = window_.event_day(attack.start);
    if (day < 0) continue;
    const double rank = intensity_rank(attack);
    if (rank < config_.min_trigger_rank) continue;
    if (attack.duration_s < config_.min_trigger_duration_s) continue;
    triggered_ips.insert(attack.target.value());
    // Urgency blends intensity with duration; the *decision* to migrate
    // stays intensity-driven (the paper's Figure 9-11 asymmetry).
    const auto dur_lo = std::lower_bound(durations_.begin(), durations_.end(),
                                         attack.duration_s);
    const double dur_rank = static_cast<double>(dur_lo - durations_.begin()) /
                            static_cast<double>(durations_.size());
    const double urgency = std::max(rank, dur_rank);
    const double boost =
        1.0 + config_.intensity_probability_boost * std::pow(rank, 8.0);

    const int hoster_index = hosting_.hoster_of_ip(attack.target);
    const bool colossal_target =
        hosting_.domains_on_origin(attack.target).size() >=
        config_.max_wholesale_cohost;
    if (hoster_index >= 0 && !colossal_target &&
        !hoster_decided[static_cast<std::size_t>(hoster_index)] &&
        rng_.bernoulli(std::min(0.9, config_.hoster_base_probability * boost))) {
      // Wholesale hoster migration: every eligible customer moves at once.
      hoster_decided[static_cast<std::size_t>(hoster_index)] = true;
      const auto provider = hosting_.sample_provider(rng_);
      const int delay = sample_delay(urgency);
      const auto& hoster =
          hosting_.hosters()[static_cast<std::size_t>(hoster_index)];
      for (const auto& ip : hoster.ips) {
        if (!triggered_ips.contains(ip.value())) continue;
        const auto& moved = hosting_.domains_on_origin(ip);
        if (moved.size() >= config_.max_wholesale_cohost) continue;
        for (const auto domain : moved) {
          if (domain_decided[domain]) continue;
          const auto& site = hosting_.site(domain);
          if (site.preexisting != dps::kNoProvider) continue;
          if (site.first_seen > day) continue;
          MigrationRecord record;
          record.domain = domain;
          record.decision_day = day;
          record.migration_day = std::min(day + delay, days - 1);
          record.provider = provider;
          record.attack_driven = true;
          record.hoster_wide = true;
          proposals.push_back(record);
          domain_decided[domain] = true;
        }
      }
      continue;
    }

    // Individual site decisions on the attacked IP. A site sharing an IP
    // with thousands of others rarely even notices an ordinary attack (the
    // hoster absorbs it), so the per-site probability shrinks with the
    // co-hosting magnitude — but an extreme attack takes the whole IP down
    // for everyone, and urgency overrides the damping (§6: intense attacks
    // sharply accelerate migration).
    const auto& cohosted = hosting_.domains_on_origin(attack.target);
    const double cohost_scale =
        1.0 / std::max<double>(1.0, static_cast<double>(cohosted.size()));
    const double p_site =
        std::min(0.9, config_.site_base_probability * boost * cohost_scale);
    for (const auto domain : cohosted) {
      if (domain_decided[domain]) continue;
      const auto& site = hosting_.site(domain);
      if (site.preexisting != dps::kNoProvider) continue;
      if (site.first_seen > day) continue;
      if (exposures[domain] >= config_.habituation_exposures) continue;
      ++exposures[domain];
      if (!rng_.bernoulli(p_site)) continue;
      MigrationRecord record;
      record.domain = domain;
      record.decision_day = day;
      record.migration_day = std::min(day + sample_delay(urgency), days - 1);
      record.provider = hosting_.sample_provider(rng_);
      record.attack_driven = true;
      proposals.push_back(record);
      domain_decided[domain] = true;
    }
  }

  // Apply in migration-day order (one change per domain, so ordering is
  // only needed for deterministic output).
  std::sort(proposals.begin(), proposals.end(),
            [](const MigrationRecord& a, const MigrationRecord& b) {
              if (a.migration_day != b.migration_day)
                return a.migration_day < b.migration_day;
              return a.domain < b.domain;
            });
  for (const auto& record : proposals) {
    auto protected_rec =
        hosting_.protected_record(record.domain, record.provider, rng_);
    store_.record_change(record.domain, record.migration_day, protected_rec);
  }
  return proposals;
}

}  // namespace dosm::sim
