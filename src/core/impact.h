// Web-impact analysis (§5): joining attack events against the historical
// DNS mapping to find the Web sites (potentially) affected by every attack.
//
// The join is per event: an attack on IP x starting on day d affects every
// Web site whose www label resolved to x on d. From the joined stream the
// analysis materializes: the daily affected-site series (Figure 7, all and
// medium+ intensity), the co-hosting histogram (Figure 6), the per-domain
// attack histories that §6 consumes, and the protocol-emphasis statistics
// for Web-hosting targets.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/stats.h"
#include "core/event_store.h"
#include "core/ports.h"
#include "dns/snapshot.h"

namespace dosm::core {

/// One attack that touched a domain (compact; millions may exist).
struct AttackTouch {
  std::int32_t day = 0;          // day offset of the attack start
  float norm_intensity = 0.0f;   // per-source normalized intensity
  float duration_s = 0.0f;
  bool honeypot = false;
};

/// A domain's attack history over the window.
struct DomainAttackInfo {
  std::vector<AttackTouch> touches;  // ascending by day

  bool attacked() const { return !touches.empty(); }
  std::uint32_t attack_count() const {
    return static_cast<std::uint32_t>(touches.size());
  }
  int first_attack_day() const { return touches.empty() ? -1 : touches.front().day; }
  double max_norm_intensity() const;
  /// Longest honeypot-observed attack duration (§6 uses honeypot durations
  /// only, since successful attacks truncate telescope durations).
  double max_honeypot_duration() const;
  /// Latest attack day <= `day`, or -1 (the migration-triggering attack).
  int latest_attack_on_or_before(int day) const;
  /// Latest day of a honeypot attack with duration >= `min_s` that starts
  /// on or before `day`, or -1.
  int latest_long_attack_on_or_before(int day, double min_s) const;
};

class ImpactAnalysis {
 public:
  /// Runs the full join. `dns` must have its reverse index built. Intensities
  /// are normalized on the IntensityScale of this store's events.
  ImpactAnalysis(const EventStore& store, const dns::SnapshotStore& dns);

  /// Figure 7: unique Web sites on attacked IPs, per day.
  const DailySeries& affected_daily() const { return affected_daily_; }

  /// Figure 7 bottom: same, medium+ intensity events only.
  const DailySeries& affected_daily_medium() const {
    return affected_daily_medium_;
  }

  /// Figure 6: per attacked hosting IP, the co-hosting magnitude at the
  /// time of its first attack.
  const LogBinHistogram& cohosting_histogram() const { return cohosting_; }

  /// Attacked target IPs that hosted at least one site (572 k analog).
  std::uint64_t web_hosting_targets() const { return web_hosting_targets_; }

  /// Distinct domains ever on an attacked IP (the 134 M / 64% analog).
  std::uint64_t attacked_domains() const { return attacked_domains_; }

  /// Domains that ever had a Web site in the window (denominator of 64%).
  std::uint64_t web_domains() const { return web_domains_; }

  double attacked_domain_fraction() const {
    return web_domains_ ? static_cast<double>(attacked_domains_) /
                              static_cast<double>(web_domains_)
                        : 0.0;
  }

  /// Per-domain attack history (indexed by DomainId).
  const DomainAttackInfo& domain_info(dns::DomainId id) const {
    return info_.at(id);
  }
  std::span<const DomainAttackInfo> all_domain_info() const { return info_; }

  /// §5 protocol emphasis on Web-hosting targets: TCP share of telescope
  /// events (93.4% in the paper, up from 79.4% overall).
  double tcp_share_on_web_targets() const { return tcp_share_; }
  /// Web-port share of single-port TCP events on Web-hosting targets
  /// (87.60%, up from 69.36%).
  double web_port_share_on_web_targets() const { return web_port_share_; }
  /// NTP share of honeypot events on Web-hosting targets (54.69%).
  double ntp_share_on_web_targets() const { return ntp_share_; }

  /// Days with the largest affected-site counts (the §5 peak case studies),
  /// descending by count.
  std::vector<std::pair<int, double>> top_peaks(std::size_t n) const;

 private:
  DailySeries affected_daily_;
  DailySeries affected_daily_medium_;
  LogBinHistogram cohosting_;
  std::vector<DomainAttackInfo> info_;
  std::uint64_t web_hosting_targets_ = 0;
  std::uint64_t attacked_domains_ = 0;
  std::uint64_t web_domains_ = 0;
  double tcp_share_ = 0.0;
  double web_port_share_ = 0.0;
  double ntp_share_ = 0.0;
};

}  // namespace dosm::core
