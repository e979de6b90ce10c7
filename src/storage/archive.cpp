#include "storage/archive.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <mutex>
#include <stdexcept>

#include "obs/timer.h"
#include "storage/codec.h"
#include "storage/metrics.h"

namespace dosm::storage {
namespace {

// Sanity caps, enforced BEFORE any proportional allocation so a hostile
// TOC cannot drive an over-allocation. Far above anything the repo's
// default 731-day world produces, far below anything that could hurt.
constexpr std::uint32_t kMaxSegments = 1u << 20;
constexpr std::uint32_t kMaxSegmentRows = 1u << 28;
constexpr std::uint64_t kMaxTotalRows = 1ull << 31;

std::uint32_t blocks_of(std::uint32_t rows) {
  return (rows + kBlockRows - 1) / kBlockRows;
}

void encode_civil(ByteWriter& out, CivilDate date) {
  out.u32(static_cast<std::uint32_t>(date.year));
  out.u8(static_cast<std::uint8_t>(date.month));
  out.u8(static_cast<std::uint8_t>(date.day));
}

CivilDate decode_civil(ByteReader& in) {
  CivilDate date;
  date.year = static_cast<int>(in.u32());
  date.month = in.u8();
  date.day = in.u8();
  if (date.month < 1 || date.month > 12 || date.day < 1 || date.day > 31)
    in.fail("civil date");
  return date;
}

/// One segment's columns -> compressed blob (rows, 10 length-prefixed
/// columns, CRC).
std::vector<std::uint8_t> encode_segment(const query::FrameSegment& segment) {
  const query::EventFrame& frame = segment.frame();
  ByteWriter blob;
  blob.u32(static_cast<std::uint32_t>(frame.size()));
  const auto column = [&](const auto& values) {
    ByteWriter encoded;
    encode_column(encoded, values);
    blob.u32(static_cast<std::uint32_t>(encoded.size()));
    blob.bytes(encoded.data());
  };
  column(frame.start());
  column(frame.end());
  column(frame.intensity());
  column(frame.target());
  column(frame.source());
  column(frame.ip_proto());
  column(frame.top_port());
  column(frame.asn());
  column(frame.country());
  column(frame.day());
  blob.u32(crc32(blob.data()));
  return blob.take();
}

}  // namespace

struct ArchiveReader::Impl {
  // One shared stream cursor: reads are short (one blob each) and decoding
  // happens outside this lock in load(), so serialization here only covers
  // the seek+read pair.
  mutable std::mutex io_mutex;
  mutable std::ifstream file;
  std::string path;
};

std::uint64_t write_archive(const std::string& path,
                            const query::Snapshot& snapshot) {
  if (!snapshot.fully_resident())
    throw std::invalid_argument(
        "write_archive: snapshot holds cold segments; archive the resident "
        "original");
  return write_archive(path, snapshot.window(), snapshot.segments());
}

std::uint64_t write_archive(
    const std::string& path, const StudyWindow& window,
    std::span<const std::shared_ptr<const query::FrameSegment>> segments) {
  Metrics& metrics = Metrics::get();
  ByteWriter header;
  header.bytes(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(kArchiveMagic),
      sizeof(kArchiveMagic)));
  encode_civil(header, window.start);
  encode_civil(header, window.end);
  header.u32(static_cast<std::uint32_t>(segments.size()));

  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw core::SerializeError("archive: cannot write " + path);
  const auto put = [&](std::span<const std::uint8_t> bytes) {
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  };
  put(header.data());

  std::uint64_t offset = header.size();
  std::uint64_t raw_bytes = 0;
  ByteWriter toc;
  for (const auto& segment : segments) {
    if (segment == nullptr || segment->size() == 0)
      throw std::invalid_argument("write_archive: null or empty segment");
    const std::vector<std::uint8_t> blob = encode_segment(*segment);
    put(blob);

    const query::EventFrame& frame = segment->frame();
    const auto rows = static_cast<std::uint32_t>(frame.size());
    toc.u64(offset);
    toc.u64(blob.size());
    toc.u32(rows);
    toc.f64(segment->start_min());
    toc.f64(segment->start_max());
    toc.u32(blocks_of(rows));
    for (std::uint32_t at = 0; at < rows; at += kBlockRows) {
      const std::uint32_t end = std::min(rows, at + kBlockRows);
      // start is sorted ascending, so the block zone is its edge values.
      toc.f64(frame.start()[at]);
      toc.f64(frame.start()[end - 1]);
    }
    offset += blob.size();
    raw_bytes += static_cast<std::uint64_t>(rows) * 42;  // SoA bytes/row
  }

  const std::uint64_t toc_offset = offset;
  const std::uint32_t toc_crc = crc32(toc.data());
  put(toc.data());
  ByteWriter tail;
  tail.u64(toc_offset);
  tail.u32(toc_crc);
  tail.bytes(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(kArchiveTailMagic),
      sizeof(kArchiveTailMagic)));
  put(tail.data());
  out.flush();
  if (!out) throw core::SerializeError("archive: write failed for " + path);

  const std::uint64_t total = offset + toc.size() + tail.size();
  metrics.segments_written.add(segments.size());
  metrics.bytes_written.add(total);
  metrics.raw_bytes_archived.add(raw_bytes);
  return total;
}

ArchiveReader::ArchiveReader(const std::string& path)
    : impl_(std::make_unique<Impl>()) {
  impl_->path = path;
  impl_->file.open(path, std::ios::binary);
  if (!impl_->file)
    throw core::SerializeError("archive: cannot open " + path);
  impl_->file.seekg(0, std::ios::end);
  const std::int64_t size = impl_->file.tellg();
  constexpr std::uint64_t kHeaderBytes = 8 + 12 + 4;
  constexpr std::uint64_t kTailBytes = 8 + 4 + 8;
  if (size < 0 ||
      static_cast<std::uint64_t>(size) < kHeaderBytes + kTailBytes)
    throw core::SerializeError("archive: truncated file " + path);
  file_size_ = static_cast<std::uint64_t>(size);

  const auto read_at = [&](std::uint64_t at,
                           std::uint64_t n) -> std::vector<std::uint8_t> {
    std::vector<std::uint8_t> bytes(n);
    impl_->file.seekg(static_cast<std::streamoff>(at));
    impl_->file.read(reinterpret_cast<char*>(bytes.data()),
                     static_cast<std::streamsize>(n));
    if (!impl_->file)
      throw core::SerializeError("archive: read failed in " + path);
    return bytes;
  };

  // Header: magic + window + segment count.
  const std::vector<std::uint8_t> head = read_at(0, kHeaderBytes);
  ByteReader header(head, "header");
  const auto magic = header.bytes(sizeof(kArchiveMagic));
  if (std::memcmp(magic.data(), kArchiveMagic, sizeof(kArchiveMagic)) != 0)
    throw core::SerializeError("archive: bad magic in " + path);
  window_.start = decode_civil(header);
  window_.end = decode_civil(header);
  if (!(window_.start <= window_.end)) header.fail("window order");
  const std::uint32_t num_segments = header.u32();
  if (num_segments > kMaxSegments) header.fail("segment count");
  // Each TOC entry is at least 40 bytes, so the count is only plausible if
  // the TOC region can hold it — checked before reserving anything.
  constexpr std::uint64_t kMinTocEntry = 8 + 8 + 4 + 8 + 8 + 4;

  // Tail: TOC offset + CRC + tail magic.
  const std::vector<std::uint8_t> tail =
      read_at(file_size_ - kTailBytes, kTailBytes);
  ByteReader tail_reader(tail, "tail");
  const std::uint64_t toc_offset = tail_reader.u64();
  const std::uint32_t toc_crc = tail_reader.u32();
  const auto tail_magic = tail_reader.bytes(sizeof(kArchiveTailMagic));
  if (std::memcmp(tail_magic.data(), kArchiveTailMagic,
                  sizeof(kArchiveTailMagic)) != 0)
    throw core::SerializeError("archive: bad tail magic in " + path);
  if (toc_offset < kHeaderBytes || toc_offset > file_size_ - kTailBytes)
    tail_reader.fail("TOC offset");

  // TOC: validated against the CRC before any entry is trusted.
  const std::vector<std::uint8_t> toc_bytes =
      read_at(toc_offset, file_size_ - kTailBytes - toc_offset);
  if (crc32(toc_bytes) != toc_crc)
    throw core::SerializeError("archive: TOC CRC mismatch in " + path);
  ByteReader toc(toc_bytes, "TOC");
  if (static_cast<std::uint64_t>(num_segments) * kMinTocEntry >
      toc_bytes.size())
    toc.fail("segment count exceeds TOC size");
  meta_.reserve(num_segments);
  std::uint64_t expected_offset = kHeaderBytes;
  std::uint64_t total_rows = 0;
  for (std::uint32_t i = 0; i < num_segments; ++i) {
    SegmentMeta meta;
    meta.offset = toc.u64();
    meta.length = toc.u64();
    meta.rows = toc.u32();
    meta.start_min = toc.f64();
    meta.start_max = toc.f64();
    const std::uint32_t num_blocks = toc.u32();
    if (meta.rows == 0 || meta.rows > kMaxSegmentRows) toc.fail("row count");
    total_rows += meta.rows;
    if (total_rows > kMaxTotalRows) toc.fail("total rows");
    if (meta.offset != expected_offset || meta.length == 0 ||
        meta.offset + meta.length > toc_offset)
      toc.fail("segment bounds");
    if (!(meta.start_min <= meta.start_max)) toc.fail("segment start range");
    if (num_blocks != blocks_of(meta.rows)) toc.fail("block count");
    // A block costs at least 5 bytes per column (tag + length) in the blob,
    // so a row count the blob cannot plausibly hold is rejected here —
    // decode allocations are sized from rows, and this keeps them bounded
    // by a small multiple of the real file size.
    if (static_cast<std::uint64_t>(num_blocks) * 50 > meta.length)
      toc.fail("row count exceeds blob size");
    if (static_cast<std::uint64_t>(num_blocks) * 16 > toc.remaining())
      toc.fail("block count exceeds TOC size");
    meta.zones.reserve(num_blocks);
    for (std::uint32_t b = 0; b < num_blocks; ++b) {
      BlockZone zone{toc.f64(), toc.f64()};
      if (!(zone.start_min <= zone.start_max)) toc.fail("block zone order");
      meta.zones.push_back(zone);
    }
    expected_offset = meta.offset + meta.length;
    meta_.push_back(std::move(meta));
  }
  if (!toc.done()) toc.fail("trailing bytes");
  if (expected_offset != toc_offset) toc.fail("segment coverage");
}

ArchiveReader::~ArchiveReader() = default;

std::shared_ptr<const query::FrameSegment> ArchiveReader::load(
    std::uint32_t id) const {
  Metrics& metrics = Metrics::get();
  obs::ScopedTimer timer(metrics.load_seconds);
  const SegmentMeta& meta = meta_.at(id);
  std::vector<std::uint8_t> blob(meta.length);
  {
    const std::lock_guard<std::mutex> lock(impl_->io_mutex);
    impl_->file.clear();
    impl_->file.seekg(static_cast<std::streamoff>(meta.offset));
    impl_->file.read(reinterpret_cast<char*>(blob.data()),
                     static_cast<std::streamsize>(blob.size()));
    if (!impl_->file)
      throw core::SerializeError("archive: read failed in " + impl_->path);
  }
  if (blob.size() < 8) throw core::SerializeError("archive: blob too short");
  const std::span<const std::uint8_t> body(blob.data(), blob.size() - 4);
  ByteReader crc_reader(
      std::span<const std::uint8_t>(blob).subspan(blob.size() - 4), "CRC");
  if (crc32(body) != crc_reader.u32())
    throw core::SerializeError("archive: segment CRC mismatch in " +
                               impl_->path);

  ByteReader in(body, "segment");
  const std::uint32_t rows = in.u32();
  if (rows != meta.rows)
    in.fail("row count disagrees with TOC");
  query::FrameColumns columns;
  const auto length_checked = [&](auto decode) {
    const std::uint32_t len = in.u32();
    if (len > in.remaining()) in.fail("column length");
    ByteReader col(in.bytes(len), "column");
    auto values = decode(col, rows);
    if (!col.done()) col.fail("trailing bytes in column");
    return values;
  };
  columns.start = length_checked(decode_column_f64);
  columns.end = length_checked(decode_column_f64);
  columns.intensity = length_checked(decode_column_f64);
  columns.target = length_checked(decode_column_u32);
  columns.source = length_checked(decode_column_u8);
  columns.ip_proto = length_checked(decode_column_u8);
  columns.top_port = length_checked(decode_column_u16);
  columns.asn = length_checked(decode_column_u32);
  columns.country = length_checked(decode_column_u16);
  columns.day = length_checked(decode_column_i32);
  if (!in.done()) in.fail("trailing bytes after columns");

  // Cross-checks against the (CRC-trusted) TOC and the frame invariants the
  // query layer relies on. from_columns re-validates sortedness and column
  // lengths; day offsets must stay inside the window (they index
  // DailySeries slots downstream).
  if (columns.start.front() != meta.start_min ||
      columns.start.back() != meta.start_max)
    in.fail("start bounds disagree with TOC");
  const int num_days = window_.num_days();
  for (const std::int32_t day : columns.day)
    if (day < -1 || day >= num_days) in.fail("day offset out of window");
  std::shared_ptr<const query::FrameSegment> segment;
  try {
    segment = std::make_shared<const query::FrameSegment>(
        query::EventFrame::from_columns(window_, std::move(columns)));
  } catch (const std::invalid_argument& error) {
    throw core::SerializeError(std::string("archive: ") + error.what());
  }
  metrics.segment_loads.inc();
  metrics.bytes_read.add(meta.length);
  return segment;
}

query::RowRange ArchiveReader::clip(std::uint32_t id, double t0, double t1,
                                    std::uint64_t* blocks_skipped) const {
  const SegmentMeta& meta = meta_.at(id);
  const auto num_blocks = static_cast<std::uint32_t>(meta.zones.size());
  // Zones are ordered (start-sorted rows), so the overlapping blocks form a
  // contiguous run: the first block whose max reaches t0 through the last
  // block whose min is below t1.
  std::uint32_t first = 0;
  while (first < num_blocks && meta.zones[first].start_max < t0) ++first;
  std::uint32_t last = num_blocks;
  while (last > first && meta.zones[last - 1].start_min >= t1) --last;
  if (blocks_skipped != nullptr)
    *blocks_skipped = num_blocks - (last - first);
  if (first >= last) return {0, 0};
  return {first * kBlockRows, std::min(meta.rows, last * kBlockRows)};
}

}  // namespace dosm::storage
