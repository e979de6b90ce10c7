// Peak attribution (§5 case studies).
//
// The paper drills into the Figure-7 peaks by identifying the "larger
// parties" behind the attacked IPs — via BGP routing (prefix-to-AS), shared
// name servers, and shared CNAME expansions. This module implements that
// detection-side attribution: for a given day it groups the affected Web
// sites by the origin AS of the attacked IP and by the sites' name-server /
// CNAME names, never consulting simulator ground truth.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/event_store.h"
#include "dns/names.h"
#include "dns/snapshot.h"
#include "meta/pfx2as.h"

namespace dosm::core {

/// One attributed party on a peak day.
struct PeakParty {
  meta::Asn asn = 0;          // origin AS of the attacked IP(s)
  std::string name;           // AS organization (or "ASxxxx")
  std::string common_ns;      // shared name server among affected sites ("" = mixed)
  std::uint64_t attacked_ips = 0;
  std::uint64_t affected_sites = 0;  // unique sites across this party's IPs
  bool joint_attacked = false;       // any of its IPs hit by both detectors
};

/// Attributes the affected Web sites of `day` to parties, descending by
/// affected sites. `dns` must be reverse-indexed. A party is joint-attacked
/// when one of its events that day took part in a joint attack
/// (JointAttackAnalysis).
std::vector<PeakParty> attribute_peak(const EventStore& store,
                                      const dns::SnapshotStore& dns,
                                      const dns::NameTable& names, int day,
                                      const meta::PrefixToAsMap& pfx2as,
                                      const meta::AsRegistry& registry);

}  // namespace dosm::core
