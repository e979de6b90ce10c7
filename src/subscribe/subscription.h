// Subscription predicates: what a watcher wants to hear about.
//
// ROADMAP item 5: consumers stop polling /query and instead register
// interest — a victim prefix (/32 down to /0), an origin ASN, a country,
// an IP protocol, an alert kind, or any conjunction of those — and the
// streaming pipeline pushes matching alerts to them. A predicate is a
// conjunction: every set field must match for the alert to be delivered.
// An all-empty predicate is the firehose (matches every alert).
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "core/alert.h"
#include "meta/geo.h"
#include "meta/pfx2as.h"
#include "net/ipv4.h"

namespace dosm::subscribe {

/// Monotonically assigned, never reused. 0 is not a valid id.
using SubscriptionId = std::uint64_t;

struct Predicate {
  /// Victim address must fall inside this prefix.
  std::optional<net::Prefix> prefix;
  /// Victim's origin AS (as resolved by the dispatcher's pfx2as map).
  std::optional<meta::Asn> asn;
  /// Victim's country (as resolved by the dispatcher's geo database).
  std::optional<meta::CountryCode> country;
  /// Attack traffic IP protocol (6 = TCP, 17 = UDP, ...).
  std::optional<std::uint8_t> ip_proto;
  /// Alert kind; unset matches every kind.
  std::optional<core::AlertKind> kind;

  Predicate& match_prefix(net::Prefix p) { prefix = p; return *this; }
  Predicate& match_asn(meta::Asn a) { asn = a; return *this; }
  Predicate& match_country(meta::CountryCode c) { country = c; return *this; }
  Predicate& match_proto(std::uint8_t p) { ip_proto = p; return *this; }
  Predicate& match_kind(core::AlertKind k) { kind = k; return *this; }

  /// True when every set field matches the alert. Victim-attribute fields
  /// (prefix/asn/country/ip_proto) can only match alerts that carry an
  /// event; a spike alert has no victim, so any such field rules it out.
  bool matches(const core::Alert& alert) const;

  /// Canonical text form, e.g. "pfx=10.0.0.0/24;asn=65001;kind=new-attack".
  /// Field order is fixed; unset fields are omitted; "*" for the firehose.
  std::string to_string() const;
};

/// Throws std::invalid_argument for predicates the index cannot serve
/// meaningfully (currently: a country field that is not set to a real
/// code — CountryCode{} would silently match nothing).
void validate(const Predicate& predicate);

}  // namespace dosm::subscribe
