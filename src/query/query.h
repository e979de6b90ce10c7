// The query model: composable filters + the aggregations the serving layer
// answers.
//
// A Query is a conjunction of optional predicates over the fused event
// dataset. Every execution path — the indexed Snapshot and the linear
// ScanOracle — answers the same Query with the same semantics, which the
// property tests enforce pairwise:
//
//   time           event START falls in [t0, t1) (the paper counts an event
//                  toward the day its start falls on, §5 fn. 15)
//   source         telescope / honeypot / combined
//   prefix         target address inside the CIDR prefix
//   asn            origin ASN of the target (Routeviews-style pfx2as)
//   country        geolocated country of the target
//   port           dominant victim port equals (telescope events; honeypot
//                  rows carry port 0)
//   min_intensity  raw intensity >= threshold (per-source scale, §4)
//
// Aggregations: count, distinct targets / /24s / /16s / ASNs (Table 1; per
// day, Figure 1), per-day attack series (Figures 1 and 5), top-k victims,
// top-k ASNs, country ranking (Table 4). Rankings order by unique targets
// descending with ascending key tie-breaks so results are deterministic.
// These executors are the only implementation of the paper's rollups.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "core/event.h"
#include "meta/geo.h"
#include "meta/pfx2as.h"
#include "net/ipv4.h"

namespace dosm::query {

/// Half-open time interval in unix seconds.
struct TimeRange {
  double begin = 0.0;
  double end = 0.0;
};

struct Query {
  std::optional<TimeRange> time;
  core::SourceFilter source = core::SourceFilter::kCombined;
  std::optional<net::Prefix> prefix;
  std::optional<meta::Asn> asn;
  std::optional<meta::CountryCode> country;
  std::optional<std::uint16_t> port;
  std::optional<double> min_intensity;

  // Fluent builders so call sites read like the query they express.
  Query& between(double t0, double t1) {
    time = TimeRange{t0, t1};
    return *this;
  }
  Query& from_source(core::SourceFilter filter) {
    source = filter;
    return *this;
  }
  Query& in_prefix(net::Prefix p) {
    prefix = p;
    return *this;
  }
  Query& in_asn(meta::Asn a) {
    asn = a;
    return *this;
  }
  Query& in_country(meta::CountryCode c) {
    country = c;
    return *this;
  }
  Query& on_port(std::uint16_t p) {
    port = p;
    return *this;
  }
  Query& at_least(double intensity) {
    min_intensity = intensity;
    return *this;
  }

  /// Canonical 64-bit hash over EVERY filter field (presence and value),
  /// platform-stable: fields are folded in a fixed order with distinct
  /// per-field tags, doubles by bit pattern, so two queries collide only if
  /// they are semantically different yet hash-equal (the result cache pairs
  /// this key with the canonical string to rule even that out). Any change
  /// to any field changes the key (unit-tested); extending Query means
  /// extending this function and its test.
  std::uint64_t cache_key() const;
};

/// Human-readable filter list, e.g. for --explain output.
std::string to_string(const Query& query);

/// What Snapshot::distinct counts: the target address, its /24 or /16
/// network, or its origin AS. Unannounced space (kUnknownAsn) is not an
/// AS, so the ASN key skips it, as the Table-1 rollup and top_asns do.
enum class DistinctKey : std::uint8_t { kTarget, kSlash24, kSlash16, kAsn };

/// Top-k entry for per-victim rankings (ordered by events desc, addr asc).
struct TargetCount {
  net::Ipv4Addr target;
  std::uint64_t events = 0;

  bool operator==(const TargetCount&) const = default;
};

/// Top-k entry for per-AS rankings (ordered by unique targets desc, events
/// desc, asn asc). Unannounced space (kUnknownAsn) is excluded, matching
/// the Table-1 ASN rollup.
struct AsnCount {
  meta::Asn asn = meta::kUnknownAsn;
  std::uint64_t targets = 0;
  std::uint64_t events = 0;

  bool operator==(const AsnCount&) const = default;
};

/// Which access path the planner chose for a query.
enum class IndexChoice : std::uint8_t {
  kFullScan,   // no usable index; verify every row
  kTimeRange,  // contiguous start-sorted row range
  kTarget32,   // exact-target hash postings
  kSlash24,    // /24 hash postings
  kAsn,        // origin-AS hash postings
  kCountry,    // country hash postings
  kPort,       // top-port hash postings
};

std::string to_string(IndexChoice choice);

/// The planner's decision plus its candidate cardinality (rows the executor
/// must verify — the cost the planner minimized).
struct QueryPlan {
  IndexChoice choice = IndexChoice::kFullScan;
  std::uint64_t candidates = 0;
};

std::string to_string(const QueryPlan& plan);

}  // namespace dosm::query
