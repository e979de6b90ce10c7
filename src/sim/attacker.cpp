#include "sim/attacker.h"

#include <algorithm>
#include <cmath>

#include "core/ports.h"
#include "net/headers.h"

namespace dosm::sim {

using amppot::ReflectionProtocol;

namespace {

constexpr std::size_t kRepeatPoolSize = 4096;

/// Table-8a TCP service mix among single-port attacks. Attacks on
/// Web-hosting IPs concentrate on Web ports (87.6%, §5); the blend over all
/// targets reproduces the overall 48.68% HTTP / 20.68% HTTPS split.
std::uint16_t sample_tcp_port(Rng& rng, bool joint, bool web_target) {
  const double u = rng.uniform();
  double http = web_target ? 0.615 : 0.435;
  double https = web_target ? 0.262 : 0.190;
  if (joint) http += 0.02;  // joint attacks skew to HTTP (50.23%, §4)
  if (u < http) return 80;
  if (u < http + https) return 443;
  if (u < http + https + 0.0112) return 3306;
  if (u < http + https + 0.0112 + 0.0107) return 53;
  if (u < http + https + 0.0112 + 0.0107 + 0.0099) return 1723;
  // Tail spread over the rest of the port range.
  return static_cast<std::uint16_t>(rng.uniform_int(1, 65535));
}

/// Table-8b UDP service mix; joint attacks concentrate on 27015 (53%).
std::uint16_t sample_udp_port(Rng& rng, bool joint) {
  const double u = rng.uniform();
  const double steam = joint ? 0.53 : 0.1854;
  if (u < steam) return 27015;
  if (u < steam + 0.0204) return 37547;
  if (u < steam + 0.0204 + 0.0141) return 32124;
  if (u < steam + 0.0204 + 0.0141 + 0.0139) return 28183;
  if (u < steam + 0.0204 + 0.0141 + 0.0139 + 0.0130) return 3306;
  return static_cast<std::uint16_t>(rng.uniform_int(1, 65535));
}

ReflectionProtocol sample_reflector(Rng& rng, bool web_target, bool joint) {
  // Table 6 baseline: NTP .4008, DNS .2617, CharGen .2237, SSDP .0838,
  // RIPv1 .0227, other .0073. Web targets skew to NTP (54.69%, §5); joint
  // attacks skew to NTP (47.0%) with CharGen halved (11.5%, §4).
  double ntp = 0.4008, dns = 0.2617, chargen = 0.2237, ssdp = 0.0838,
         rip = 0.0227;
  if (web_target) {
    ntp = 0.5469;
    dns = 0.22;
    chargen = 0.13;
    ssdp = 0.07;
    rip = 0.02;
  } else if (joint) {
    ntp = 0.47;
    dns = 0.28;
    chargen = 0.115;
    ssdp = 0.09;
    rip = 0.03;
  }
  const double u = rng.uniform();
  if (u < ntp) return ReflectionProtocol::kNtp;
  if (u < ntp + dns) return ReflectionProtocol::kDns;
  if (u < ntp + dns + chargen) return ReflectionProtocol::kCharGen;
  if (u < ntp + dns + chargen + ssdp) return ReflectionProtocol::kSsdp;
  if (u < ntp + dns + chargen + ssdp + rip) return ReflectionProtocol::kRipv1;
  // Tail: MSSQL, TFTP, QOTD.
  const double v = rng.uniform();
  if (v < 0.5) return ReflectionProtocol::kMssql;
  if (v < 0.8) return ReflectionProtocol::kTftp;
  return ReflectionProtocol::kQotd;
}

double reflector_rate_factor(ReflectionProtocol protocol) {
  // Per-protocol intensity offsets (Figure 4: NTP has the heaviest tail).
  switch (protocol) {
    case ReflectionProtocol::kNtp:
      return 1.45;
    case ReflectionProtocol::kDns:
      return 1.0;
    case ReflectionProtocol::kCharGen:
      return 0.75;
    case ReflectionProtocol::kSsdp:
      return 0.9;
    case ReflectionProtocol::kRipv1:
      return 0.5;
    default:
      return 0.6;
  }
}

}  // namespace

Attacker::Attacker(std::uint64_t seed, const Population& population,
                   const HostingEcosystem& hosting, StudyWindow window,
                   AttackerConfig config)
    : rng_(seed),
      population_(population),
      hosting_(hosting),
      window_(window),
      config_(config) {}

double Attacker::day_rate_multiplier(int day) const {
  // Mild growth over the window plus weekly structure: the paper's time
  // series trend upward with visible plateaus.
  const double progress =
      static_cast<double>(day) / static_cast<double>(window_.num_days());
  const double growth = 0.85 + 0.4 * progress;
  const double weekly = 1.0 + 0.08 * std::sin(2.0 * 3.14159265358979 *
                                              static_cast<double>(day) / 7.0);
  return growth * weekly;
}

net::Ipv4Addr Attacker::pick_target(bool reflection) {
  const double repeat_p = reflection ? config_.repeat_fraction_reflection
                                     : config_.repeat_fraction_direct;
  auto& pool = reflection ? recent_reflection_ : recent_direct_;
  if (!pool.empty() && rng_.bernoulli(repeat_p))
    return pool[rng_.next_below(pool.size())];

  const double hosting_p = reflection
                               ? config_.hosting_target_fraction_reflection
                               : config_.hosting_target_fraction_direct;
  net::Ipv4Addr target;
  bool hosting_target = false;
  if (rng_.bernoulli(hosting_p)) {
    // Mostly origin hosting IPs; occasionally the DPS front itself.
    target = rng_.bernoulli(config_.dps_target_fraction)
                 ? hosting_.sample_dps_front_ip(rng_)
                 : hosting_.sample_hosting_ip(rng_);
    hosting_target = true;
  } else {
    target = population_.sample_address(rng_);
  }
  // Follow-up attack campaigns are a gamer/booter phenomenon: grudges
  // against individual (broadband, game-server) hosts. Web-hosting IPs
  // mostly see one-off attacks — the paper finds only ~14% of Web sites
  // attacked more than once — so they stay out of the repeat pool.
  if (!hosting_target) {
    if (pool.size() < kRepeatPoolSize) {
      pool.push_back(target);
    } else {
      pool[rng_.next_below(kRepeatPoolSize)] = target;
    }
  }
  return target;
}

void Attacker::pick_ports(GroundTruthAttack& attack, bool joint,
                          bool web_target) {
  const bool tcp =
      attack.ip_proto == static_cast<std::uint8_t>(net::IpProto::kTcp);
  const bool udp =
      attack.ip_proto == static_cast<std::uint8_t>(net::IpProto::kUdp);
  if (!tcp && !udp) return;  // ICMP/other floods are portless
  // Table 7: 60.6% single-port; joint attacks 77.1% single-port.
  const double single_p = joint ? 0.771 : 0.606;
  const int num_ports =
      rng_.bernoulli(single_p) ? 1 : static_cast<int>(rng_.uniform_int(2, 8));
  for (int i = 0; i < num_ports; ++i) {
    attack.ports.push_back(tcp ? sample_tcp_port(rng_, joint, web_target)
                               : sample_udp_port(rng_, joint));
  }
  std::sort(attack.ports.begin(), attack.ports.end());
  attack.ports.erase(std::unique(attack.ports.begin(), attack.ports.end()),
                     attack.ports.end());
}

GroundTruthAttack Attacker::make_direct(net::Ipv4Addr target, double start,
                                        bool joint) {
  GroundTruthAttack attack;
  attack.kind = AttackKind::kDirect;
  attack.target = target;
  attack.start = start;

  // Table 5 protocol mix, conditioned on the target class: attacks on
  // Web-hosting IPs are overwhelmingly TCP (93.4%, §5); the blend over all
  // targets reproduces the overall 79.4 / 15.9 / 4.5 split.
  const bool web_target = hosting_.hosts_websites(target);
  const double p_tcp = web_target ? 0.934 : 0.779;
  const double p_udp = web_target ? 0.045 : 0.169;
  const double p_icmp = web_target ? 0.018 : 0.047;
  const double u = rng_.uniform();
  if (u < p_tcp)
    attack.ip_proto = static_cast<std::uint8_t>(net::IpProto::kTcp);
  else if (u < p_tcp + p_udp)
    attack.ip_proto = static_cast<std::uint8_t>(net::IpProto::kUdp);
  else if (u < p_tcp + p_udp + p_icmp)
    attack.ip_proto = static_cast<std::uint8_t>(net::IpProto::kIcmp);
  else
    attack.ip_proto = static_cast<std::uint8_t>(net::IpProto::kIgmp);
  pick_ports(attack, joint, web_target);

  attack.duration_s = std::clamp(
      rng_.lognormal(config_.direct_duration_mu, config_.direct_duration_sigma),
      45.0, 2.0 * 86400.0);
  // Intensity at the telescope (pps); ground truth is x256. A small
  // heavy-hitter component (large booters / botnets) carries the mean far
  // above the median, as in Figure 3 (mean 107 vs median 1). Record-scale
  // attacks aim at specific individual victims (a business, a game server,
  // one OVH customer); heavily co-hosted infrastructure sees frequent but
  // moderate attacks, which is why the paper's top intensity percentiles
  // are not populated by mass-hosted sites (§6).
  double scope_pps = rng_.lognormal(config_.direct_intensity_mu,
                                    config_.direct_intensity_sigma);
  // DPS fronts serve every protected customer: colossal by construction.
  const std::size_t cohost = hosting_.is_dps_front(target)
                                 ? 100000
                                 : hosting_.domains_on_origin(target).size();
  if (cohost <= 2 && rng_.bernoulli(0.010))
    scope_pps *= rng_.uniform(50.0, 1000.0);
  if (cohost >= 200) scope_pps = std::min(scope_pps, 400.0);
  const bool web = attack.ports.size() == 1 && core::is_web_port(attack.ports[0]);
  if (web) {
    scope_pps *= config_.web_intensity_factor;
    attack.duration_s *= config_.web_duration_factor;
    attack.duration_s = std::max(attack.duration_s, 45.0);
  }
  scope_pps = std::min(scope_pps, 2.0e5);
  attack.victim_pps = scope_pps * 256.0;
  attack.response_rate = rng_.uniform(0.6, 1.0);
  return attack;
}

GroundTruthAttack Attacker::make_reflection(net::Ipv4Addr target, double start,
                                            bool joint) {
  GroundTruthAttack attack;
  attack.kind = AttackKind::kReflection;
  attack.target = target;
  attack.start = start;
  const bool web_target = hosting_.hosts_websites(target);
  attack.reflector = sample_reflector(rng_, web_target, joint);
  attack.duration_s =
      std::clamp(rng_.lognormal(config_.reflection_duration_mu,
                                config_.reflection_duration_sigma),
                 20.0, 30.0 * 3600.0);
  attack.per_reflector_rps =
      rng_.lognormal(config_.reflection_intensity_mu,
                     config_.reflection_intensity_sigma) *
      reflector_rate_factor(attack.reflector);
  // Heavy-hitter component: a small share of reflection attacks use huge
  // request rates (Figure 4's tail into hundreds of thousands rps); like
  // direct record attacks, these aim at specific individual victims.
  const std::size_t cohost = hosting_.is_dps_front(target)
                                 ? 100000
                                 : hosting_.domains_on_origin(target).size();
  if (cohost <= 2 && rng_.bernoulli(0.010))
    attack.per_reflector_rps *= rng_.uniform(20.0, 200.0);
  attack.per_reflector_rps = std::min(attack.per_reflector_rps, 3.0e5);
  if (cohost >= 200)
    attack.per_reflector_rps = std::min(attack.per_reflector_rps, 1500.0);
  attack.reflector_count = static_cast<int>(rng_.uniform_int(200, 8000));
  // Attackers harvest reflector lists via scanning; most lists include most
  // of the fleet (24 instances suffice to catch most attacks, §3.1.2).
  attack.honeypots_hit = static_cast<int>(rng_.uniform_int(10, 24));
  return attack;
}

std::vector<GroundTruthAttack> Attacker::generate() {
  std::vector<GroundTruthAttack> attacks;
  const int days = window_.num_days();

  // Campaign days against mega hosters (Figure-7 peaks). One campaign hits
  // a DPS front IP (the DOSarrest mega co-hosting case). Campaigns keep 10
  // days clear of both window edges; windows shorter than 20 days have no
  // such room and draw from every day.
  const bool edge_margin = days >= 20;
  const std::int64_t first_day = edge_margin ? 10 : 0;
  const std::int64_t last_day = edge_margin ? days - 10 : std::max(days - 1, 0);
  std::vector<int> campaign_days;
  for (int c = 0; c < config_.num_campaigns; ++c)
    campaign_days.push_back(
        static_cast<int>(rng_.uniform_int(first_day, last_day)));
  std::sort(campaign_days.begin(), campaign_days.end());

  for (int day = 0; day < days; ++day) {
    const double day_start = static_cast<double>(window_.day_start(day));
    const double mult = day_rate_multiplier(day);

    const auto n_direct = rng_.poisson(config_.direct_per_day * mult);
    for (std::uint64_t i = 0; i < n_direct; ++i) {
      const double start = day_start + rng_.uniform(0.0, 86400.0);
      attacks.push_back(make_direct(pick_target(false), start, false));
    }

    const auto n_reflection = rng_.poisson(config_.reflection_per_day * mult);
    for (std::uint64_t i = 0; i < n_reflection; ++i) {
      const double start = day_start + rng_.uniform(0.0, 86400.0);
      const auto target = pick_target(true);
      const bool joint = rng_.bernoulli(config_.joint_fraction);
      auto reflection = make_reflection(target, start, joint);
      if (joint) {
        // Simultaneous direct attack on the same target (e.g. SYN flood +
        // NTP reflection), overlapping in time.
        auto direct = make_direct(
            target, start + rng_.uniform(0.0, reflection.duration_s * 0.5),
            true);
        direct.duration_s =
            std::max(60.0, std::min(direct.duration_s,
                                    reflection.duration_s * 1.5));
        direct.joint = true;
        reflection.joint = true;
        attacks.push_back(std::move(reflection));
        attacks.push_back(std::move(direct));
      } else {
        attacks.push_back(std::move(reflection));
      }
    }

    // Campaigns: a burst of intense attacks on one mega hoster's IPs.
    if (std::binary_search(campaign_days.begin(), campaign_days.end(), day)) {
      const auto& hosters = hosting_.hosters();
      std::size_t mega_count = 0;
      for (const auto& h : hosters)
        if (h.mega) ++mega_count;
      const auto pick = rng_.next_below(mega_count);
      std::size_t seen = 0;
      const Hoster* victim_hoster = nullptr;
      for (const auto& h : hosters) {
        if (!h.mega) continue;
        if (seen++ == pick) {
          victim_hoster = &h;
          break;
        }
      }
      const int burst = static_cast<int>(rng_.uniform_int(12, 28));
      for (int b = 0; b < burst; ++b) {
        const auto target =
            victim_hoster->ips[rng_.next_below(victim_hoster->ips.size())];
        const double start = day_start + rng_.uniform(0.0, 86400.0);
        auto direct = make_direct(target, start, true);
        // Campaign attacks are high intensity (drives Figure 7 bottom) but
        // stay below record scale (see the heavy-hitter note above).
        direct.victim_pps =
            std::min(std::max(direct.victim_pps, 256.0 * 150.0) *
                         rng_.uniform(1.0, 2.5),
                     256.0 * 400.0);
        direct.ports = {rng_.bernoulli(0.7) ? std::uint16_t{80}
                                            : std::uint16_t{443}};
        attacks.push_back(std::move(direct));
        if (rng_.bernoulli(0.6)) {
          auto reflection = make_reflection(target, start + 60.0, true);
          reflection.per_reflector_rps *= rng_.uniform(2.0, 8.0);
          // Campaign reflections run long (the Wix-style multi-hour sieges
          // behind Figure 11).
          if (rng_.bernoulli(0.5)) {
            reflection.duration_s =
                std::max(reflection.duration_s, rng_.uniform(3.5, 9.0) * 3600.0);
          }
          attacks.push_back(std::move(reflection));
        }
      }
    }
  }

  std::sort(attacks.begin(), attacks.end(),
            [](const GroundTruthAttack& a, const GroundTruthAttack& b) {
              return a.start < b.start;
            });
  return attacks;
}

}  // namespace dosm::sim
