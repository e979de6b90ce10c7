// Columnar storage for the fused attack-event dataset (query subsystem).
//
// The fused event list (core::EventStore) and the streaming path both hold
// AttackEvent structs (array-of-structs). Ad-hoc queries touch only a few
// hot fields per predicate, so the serving layer re-materializes those
// fields as columns (struct-of-arrays): one contiguous vector per field,
// rows sorted by (start, target, source). Metadata joins that the analyses repeat per
// event — origin ASN (pfx2as) and country (geo) — are resolved once at
// build time and stored as columns of their own.
//
// An EventFrame is immutable after build(); snapshots share it by
// shared_ptr (see query/snapshot.h).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/time.h"
#include "core/event.h"
#include "meta/geo.h"
#include "meta/pfx2as.h"

namespace dosm::query {

/// Country code packed into 16 bits for columnar storage ('U'<<8 | 'S').
using PackedCountry = std::uint16_t;

PackedCountry pack_country(meta::CountryCode country);
meta::CountryCode unpack_country(PackedCountry packed);

/// Immutable SoA view of the hot event fields plus resolved metadata.
/// Rows are sorted by (start, target, source); a row id is an index into
/// every column.
/// The ten frame columns as plain vectors — the exchange type between the
/// frame and the on-disk columnar archive (src/storage), which encodes and
/// decodes columns wholesale.
struct FrameColumns {
  std::vector<double> start;
  std::vector<double> end;
  std::vector<double> intensity;
  std::vector<std::uint32_t> target;
  std::vector<std::uint8_t> source;
  std::vector<std::uint8_t> ip_proto;
  std::vector<std::uint16_t> top_port;
  std::vector<meta::Asn> asn;
  std::vector<PackedCountry> country;
  std::vector<std::int32_t> day;
};

class EventFrame {
 public:
  EventFrame() = default;

  /// Reassembles a frame from already-materialized columns — the archive
  /// reader's path. Throws std::invalid_argument when column lengths
  /// disagree or `start` is not sorted ascending; the metadata columns are
  /// taken as-is (they were resolved when the frame was first built), so
  /// the result is byte-identical to the frame that was archived.
  static EventFrame from_columns(StudyWindow window, FrameColumns columns);

  std::size_t size() const { return start_.size(); }
  bool empty() const { return start_.empty(); }
  const StudyWindow& window() const { return window_; }

  std::span<const double> start() const { return start_; }
  std::span<const double> end() const { return end_; }
  std::span<const double> intensity() const { return intensity_; }
  std::span<const std::uint32_t> target() const { return target_; }
  std::span<const std::uint8_t> source() const { return source_; }
  std::span<const std::uint8_t> ip_proto() const { return ip_proto_; }
  std::span<const std::uint16_t> top_port() const { return top_port_; }
  /// Origin ASN of the target, meta::kUnknownAsn for unannounced space.
  std::span<const meta::Asn> asn() const { return asn_; }
  /// Country of the target (packed); pack of unknown_country() if unmapped.
  std::span<const PackedCountry> country() const { return country_; }
  /// Day offset of the event start within the window; -1 outside it.
  std::span<const std::int32_t> day() const { return day_; }

  net::Ipv4Addr target_at(std::size_t row) const {
    return net::Ipv4Addr(target_[row]);
  }
  core::EventSource source_at(std::size_t row) const {
    return static_cast<core::EventSource>(source_[row]);
  }

 private:
  friend class FrameBuilder;

  StudyWindow window_;
  std::vector<double> start_;
  std::vector<double> end_;
  std::vector<double> intensity_;
  std::vector<std::uint32_t> target_;
  std::vector<std::uint8_t> source_;
  std::vector<std::uint8_t> ip_proto_;
  std::vector<std::uint16_t> top_port_;
  std::vector<meta::Asn> asn_;
  std::vector<PackedCountry> country_;
  std::vector<std::int32_t> day_;
};

/// Accumulates events and materializes an EventFrame. The metadata maps are
/// borrowed for the builder's lifetime; lookups happen in add(), so build()
/// is a pure sort + gather.
class FrameBuilder {
 public:
  FrameBuilder(StudyWindow window, const meta::PrefixToAsMap& pfx2as,
               const meta::GeoDatabase& geo);

  void add(const core::AttackEvent& event);
  void add(std::span<const core::AttackEvent> events);

  std::size_t size() const { return rows_.size(); }

  /// Sorts rows by (start, target, source, insertion index) and emits the
  /// frame. The trailing index makes the key a total order, so the sorted
  /// permutation — and the frame — is identical however the sort is
  /// executed. The builder keeps its rows; the streaming publisher seals
  /// each day from a fresh builder instead of rebuilding.
  EventFrame build() const;

  /// Same frame, built with up to `threads` workers: rows are block-sorted
  /// in parallel, k-way merged deterministically, and the columns gathered
  /// concurrently. Byte-identical to build() for any thread count.
  EventFrame build(int threads) const;

 private:
  struct Row {
    double start = 0.0;
    double end = 0.0;
    double intensity = 0.0;
    std::uint32_t target = 0;
    std::uint8_t source = 0;
    std::uint8_t ip_proto = 0;
    std::uint16_t top_port = 0;
    meta::Asn asn = meta::kUnknownAsn;
    PackedCountry country = 0;
    std::int32_t day = -1;
  };

  StudyWindow window_;
  const meta::PrefixToAsMap* pfx2as_;
  const meta::GeoDatabase* geo_;
  std::vector<Row> rows_;
};

}  // namespace dosm::query
