// Mail-infrastructure impact (§8 future work, implemented).
//
// The paper observes that MX hosts — e.g. GoDaddy's shared mail exchangers,
// used by tens of millions of domains — are frequently attacked, and
// proposes studying the impact of DoS on mail infrastructure; the authors
// instrumented their measurement to collect the needed RRs. This analysis
// is the Web-impact join transposed to MX records: an attack on IP x on day
// d (potentially) affects mail delivery for every domain whose MX host
// resolved to x that day.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/stats.h"
#include "core/event_store.h"
#include "dns/snapshot.h"

namespace dosm::core {

class MailImpactAnalysis {
 public:
  /// Runs the join. `dns` must have its reverse index built.
  MailImpactAnalysis(const EventStore& store, const dns::SnapshotStore& dns);

  /// Unique domains whose mail infrastructure sat on an attacked IP, per
  /// day.
  const DailySeries& affected_daily() const { return affected_daily_; }

  /// Distinct domains whose MX host was ever on an attacked IP.
  std::uint64_t affected_domains() const { return affected_domains_; }

  /// Domains that ever published an MX record (the denominator).
  std::uint64_t mail_domains() const { return mail_domains_; }

  double affected_fraction() const {
    return mail_domains_ ? static_cast<double>(affected_domains_) /
                               static_cast<double>(mail_domains_)
                         : 0.0;
  }

  /// Attacked IPs that served mail for at least one domain.
  std::uint64_t mail_hosting_targets() const { return mail_hosting_targets_; }

  /// Per-IP share of all (domain x attack) mail involvements, descending —
  /// identifies the heavily shared exchangers (the GoDaddy-mail analog).
  std::vector<std::pair<net::Ipv4Addr, std::uint64_t>> top_mail_targets(
      std::size_t n) const;

 private:
  DailySeries affected_daily_;
  std::uint64_t affected_domains_ = 0;
  std::uint64_t mail_domains_ = 0;
  std::uint64_t mail_hosting_targets_ = 0;
  std::vector<std::pair<net::Ipv4Addr, std::uint64_t>> involvements_;
};

}  // namespace dosm::core
