// Columnar storage for the fused attack-event dataset (query subsystem).
//
// The fused event list (core::EventStore) and the streaming path both hold
// AttackEvent structs (array-of-structs). Ad-hoc queries touch only a few
// hot fields per predicate, so the serving layer re-materializes those
// fields as columns (struct-of-arrays): one contiguous vector per field,
// rows in the events' canonical order (core::canonical_less), which the
// builder takes as given and never re-sorts. Metadata joins that the
// analyses repeat per event — origin ASN (pfx2as) and country (geo) — are
// resolved once at build time and stored as columns of their own.
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

/// The ten frame columns as plain vectors: the frame's storage, what
/// FrameBuilder appends to, and the exchange type with the on-disk columnar
/// archive (src/storage), which encodes and decodes columns wholesale.
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

/// Immutable SoA view of the hot event fields plus resolved metadata.
/// Rows are in the order of the events they came from (canonical, see
/// core::canonical_less); a row id is an index into every column.
class EventFrame {
 public:
  EventFrame() = default;

  /// Assembles a frame from materialized columns: FrameBuilder's and the
  /// archive reader's path. Throws std::invalid_argument when column
  /// lengths disagree or `start` is not sorted ascending; the metadata
  /// columns are taken as-is (an archived frame keeps the ones resolved
  /// when it was first built, so it reloads byte-identical).
  static EventFrame from_columns(StudyWindow window, FrameColumns columns);

  std::size_t size() const { return columns_.start.size(); }
  bool empty() const { return columns_.start.empty(); }
  const StudyWindow& window() const { return window_; }

  std::span<const double> start() const { return columns_.start; }
  std::span<const double> end() const { return columns_.end; }
  std::span<const double> intensity() const { return columns_.intensity; }
  std::span<const std::uint32_t> target() const { return columns_.target; }
  std::span<const std::uint8_t> source() const { return columns_.source; }
  std::span<const std::uint8_t> ip_proto() const { return columns_.ip_proto; }
  std::span<const std::uint16_t> top_port() const { return columns_.top_port; }
  /// Origin ASN of the target, meta::kUnknownAsn for unannounced space.
  std::span<const meta::Asn> asn() const { return columns_.asn; }
  /// Country of the target (packed); pack of unknown_country() if unmapped.
  std::span<const PackedCountry> country() const { return columns_.country; }
  /// Day offset of the event start within the window; -1 outside it.
  std::span<const std::int32_t> day() const { return columns_.day; }

  net::Ipv4Addr target_at(std::size_t row) const {
    return net::Ipv4Addr(columns_.target[row]);
  }
  core::EventSource source_at(std::size_t row) const {
    return static_cast<core::EventSource>(columns_.source[row]);
  }

 private:
  StudyWindow window_;
  FrameColumns columns_;
};

/// Appends events as frame rows, in the order given, and materializes an
/// EventFrame. The metadata maps are borrowed for the builder's lifetime;
/// lookups happen in add(), so build() only hands the columns over.
class FrameBuilder {
 public:
  FrameBuilder(StudyWindow window, const meta::PrefixToAsMap& pfx2as,
               const meta::GeoDatabase& geo);

  void add(const core::AttackEvent& event);
  void add(std::span<const core::AttackEvent> events);

  std::size_t size() const { return columns_.start.size(); }

  /// Emits the frame, its columns trimmed to size, and leaves the builder
  /// empty for the next one.
  EventFrame build();

 private:
  StudyWindow window_;
  const meta::PrefixToAsMap* pfx2as_;
  const meta::GeoDatabase* geo_;
  FrameColumns columns_;
};

}  // namespace dosm::query
