#include "storage/codec.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <type_traits>

namespace dosm::storage {
namespace {

// Codec tags. Integer and double columns draw from disjoint ranges so a
// tag smeared across column kinds by corruption is rejected outright.
enum IntCodec : std::uint8_t {
  kRaw = 0,
  kDelta = 1,
  kDict = 2,
  kBitpack = 3,
};
enum DoubleCodec : std::uint8_t {
  kRaw64 = 16,
  kScaledDelta = 17,
};

constexpr std::array<double, 4> kScales = {1.0, 10.0, 100.0, 1000.0};

std::uint32_t bit_width_of(std::uint64_t v) {
  return v == 0 ? 0 : static_cast<std::uint32_t>(std::bit_width(v));
}

/// LSB-first fixed-width bit packing.
void pack_bits(ByteWriter& out, std::span<const std::uint64_t> values,
               std::uint32_t bits) {
  std::uint64_t acc = 0;
  std::uint32_t filled = 0;
  for (const std::uint64_t v : values) {
    acc |= v << filled;
    filled += bits;
    while (filled >= 8) {
      out.u8(static_cast<std::uint8_t>(acc & 0xff));
      acc >>= 8;
      filled -= 8;
    }
  }
  if (filled > 0) out.u8(static_cast<std::uint8_t>(acc & 0xff));
}

std::vector<std::uint64_t> unpack_bits(ByteReader& in, std::uint32_t count,
                                       std::uint32_t bits) {
  std::vector<std::uint64_t> values;
  values.reserve(count);
  const std::uint64_t mask =
      bits >= 64 ? ~0ull : ((1ull << bits) - 1);
  const std::size_t nbytes = (static_cast<std::size_t>(count) * bits + 7) / 8;
  const auto packed = in.bytes(nbytes);
  std::uint64_t acc = 0;
  std::uint32_t filled = 0;
  std::size_t next = 0;
  for (std::uint32_t i = 0; i < count; ++i) {
    while (filled < bits) {
      acc |= static_cast<std::uint64_t>(packed[next++]) << filled;
      filled += 8;
    }
    values.push_back(acc & mask);
    acc >>= bits;
    filled -= bits;
  }
  return values;
}

// ---------------------------------------------------------------------------
// Integer blocks (templated over the column value type).
// ---------------------------------------------------------------------------

template <typename T>
void encode_int_block(ByteWriter& out, std::span<const T> block) {
  // Candidate 1: raw.
  ByteWriter raw;
  for (const T v : block) {
    if constexpr (sizeof(T) == 1) raw.u8(static_cast<std::uint8_t>(v));
    else if constexpr (sizeof(T) == 2) raw.u16(static_cast<std::uint16_t>(v));
    else raw.u32(static_cast<std::uint32_t>(v));
  }

  // Candidate 2: zigzag delta varint.
  ByteWriter delta;
  std::int64_t prev = 0;
  for (const T v : block) {
    const auto cur = static_cast<std::int64_t>(v);
    delta.varint(zigzag_encode(cur - prev));
    prev = cur;
  }

  // Candidate 3: dictionary (sorted distinct values + bitpacked indexes).
  std::vector<std::int64_t> distinct(block.begin(), block.end());
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()),
                 distinct.end());
  ByteWriter dict;
  dict.u16(static_cast<std::uint16_t>(distinct.size()));
  for (const std::int64_t v : distinct) {
    if constexpr (sizeof(T) == 1) dict.u8(static_cast<std::uint8_t>(v));
    else if constexpr (sizeof(T) == 2) dict.u16(static_cast<std::uint16_t>(v));
    else dict.u32(static_cast<std::uint32_t>(v));
  }
  const std::uint32_t index_bits = bit_width_of(distinct.size() - 1);
  if (index_bits > 0) {
    std::vector<std::uint64_t> indexes;
    indexes.reserve(block.size());
    for (const T v : block) {
      const auto it = std::lower_bound(distinct.begin(), distinct.end(),
                                       static_cast<std::int64_t>(v));
      indexes.push_back(
          static_cast<std::uint64_t>(it - distinct.begin()));
    }
    pack_bits(dict, indexes, index_bits);
  }

  // Candidate 4: min-offset bitpack.
  std::int64_t lo = std::numeric_limits<std::int64_t>::max();
  std::int64_t hi = std::numeric_limits<std::int64_t>::min();
  for (const T v : block) {
    lo = std::min(lo, static_cast<std::int64_t>(v));
    hi = std::max(hi, static_cast<std::int64_t>(v));
  }
  ByteWriter pack;
  pack.varint(zigzag_encode(lo));
  const std::uint32_t pack_bits_width =
      bit_width_of(static_cast<std::uint64_t>(hi - lo));
  pack.u8(static_cast<std::uint8_t>(pack_bits_width));
  if (pack_bits_width > 0) {
    std::vector<std::uint64_t> offsets;
    offsets.reserve(block.size());
    for (const T v : block)
      offsets.push_back(
          static_cast<std::uint64_t>(static_cast<std::int64_t>(v) - lo));
    pack_bits(pack, offsets, pack_bits_width);
  }

  // Smallest wins; ties break toward the lowest tag so the choice is
  // deterministic.
  const std::array<std::pair<std::uint8_t, const ByteWriter*>, 4> candidates =
      {{{kRaw, &raw}, {kDelta, &delta}, {kDict, &dict}, {kBitpack, &pack}}};
  const auto* best = &candidates[0];
  for (const auto& candidate : candidates)
    if (candidate.second->size() < best->second->size()) best = &candidate;
  out.u8(best->first);
  out.u32(static_cast<std::uint32_t>(best->second->size()));
  out.bytes(best->second->data());
}

template <typename T>
void decode_int_block(ByteReader& in, std::uint32_t rows,
                      std::vector<T>& out) {
  const std::uint8_t codec = in.u8();
  const std::uint32_t len = in.u32();
  if (len > in.remaining()) in.fail("block length past end");
  ByteReader block(in.bytes(len), "block");
  const auto push = [&](std::int64_t v) {
    // Every integer column is decoded through i64; a value outside the
    // column type's range is corruption, not data.
    if constexpr (std::is_signed_v<T>) {
      if (v < std::numeric_limits<T>::min() ||
          v > std::numeric_limits<T>::max())
        block.fail("value out of column range");
    } else {
      if (v < 0 || static_cast<std::uint64_t>(v) >
                       std::numeric_limits<T>::max())
        block.fail("value out of column range");
    }
    out.push_back(static_cast<T>(v));
  };
  switch (codec) {
    case kRaw: {
      for (std::uint32_t i = 0; i < rows; ++i) {
        if constexpr (sizeof(T) == 1) out.push_back(static_cast<T>(block.u8()));
        else if constexpr (sizeof(T) == 2)
          out.push_back(static_cast<T>(block.u16()));
        else out.push_back(static_cast<T>(block.u32()));
      }
      break;
    }
    case kDelta: {
      std::int64_t prev = 0;
      for (std::uint32_t i = 0; i < rows; ++i) {
        prev += zigzag_decode(block.varint());
        push(prev);
      }
      break;
    }
    case kDict: {
      const std::uint16_t count = block.u16();
      if (count == 0 || count > rows) block.fail("dictionary size");
      std::vector<std::int64_t> distinct;
      distinct.reserve(count);
      for (std::uint16_t i = 0; i < count; ++i) {
        // Entries are stored as raw column-width words; cast back through T
        // so signed columns sign-extend (the day column's -1 sentinel).
        if constexpr (sizeof(T) == 1)
          distinct.push_back(static_cast<T>(block.u8()));
        else if constexpr (sizeof(T) == 2)
          distinct.push_back(static_cast<T>(block.u16()));
        else
          distinct.push_back(static_cast<T>(block.u32()));
      }
      const std::uint32_t bits = bit_width_of(count - 1u);
      if (bits == 0) {
        for (std::uint32_t i = 0; i < rows; ++i) push(distinct[0]);
      } else {
        const auto indexes = unpack_bits(block, rows, bits);
        for (const std::uint64_t index : indexes) {
          if (index >= count) block.fail("dictionary index");
          push(distinct[index]);
        }
      }
      break;
    }
    case kBitpack: {
      const std::int64_t lo = zigzag_decode(block.varint());
      const std::uint32_t bits = block.u8();
      if (bits > 33) block.fail("bitpack width");
      if (bits == 0) {
        for (std::uint32_t i = 0; i < rows; ++i) push(lo);
      } else {
        const auto offsets = unpack_bits(block, rows, bits);
        for (const std::uint64_t offset : offsets)
          push(lo + static_cast<std::int64_t>(offset));
      }
      break;
    }
    default:
      block.fail("unknown integer codec");
  }
  if (!block.done()) block.fail("trailing bytes in block");
}

// ---------------------------------------------------------------------------
// Double blocks.
// ---------------------------------------------------------------------------

bool bitwise_equal(double a, double b) {
  std::uint64_t ua = 0, ub = 0;
  std::memcpy(&ua, &a, sizeof(ua));
  std::memcpy(&ub, &b, sizeof(ub));
  return ua == ub;
}

/// The smallest scale index for which every value is bit-exactly
/// value == round(value * scale) / scale, or -1. Exactness is verified per
/// value at encode time, which is what makes decode byte-identical.
int pick_scale(std::span<const double> block) {
  for (std::size_t s = 0; s < kScales.size(); ++s) {
    bool ok = true;
    for (const double v : block) {
      if (!std::isfinite(v) || std::abs(v) >= 4.0e15) {
        ok = false;
        break;
      }
      const double scaled = v * kScales[s];
      const auto i = static_cast<std::int64_t>(std::llrint(scaled));
      if (!bitwise_equal(static_cast<double>(i) / kScales[s], v)) {
        ok = false;
        break;
      }
    }
    if (ok) return static_cast<int>(s);
  }
  return -1;
}

void encode_double_block(ByteWriter& out, std::span<const double> block) {
  const int scale = pick_scale(block);
  ByteWriter best;
  std::uint8_t tag = kRaw64;
  if (scale >= 0) {
    best.u8(static_cast<std::uint8_t>(scale));
    const double factor = kScales[static_cast<std::size_t>(scale)];
    std::int64_t prev = 0;
    for (const double v : block) {
      const auto cur = static_cast<std::int64_t>(std::llrint(v * factor));
      best.varint(zigzag_encode(cur - prev));
      prev = cur;
    }
    tag = kScaledDelta;
  }
  const std::size_t raw_size = block.size() * sizeof(double);
  if (tag == kRaw64 || best.size() >= raw_size) {
    ByteWriter raw;
    for (const double v : block) raw.f64(v);
    best = std::move(raw);
    tag = kRaw64;
  }
  out.u8(tag);
  out.u32(static_cast<std::uint32_t>(best.size()));
  out.bytes(best.data());
}

void decode_double_block(ByteReader& in, std::uint32_t rows,
                         std::vector<double>& out) {
  const std::uint8_t codec = in.u8();
  const std::uint32_t len = in.u32();
  if (len > in.remaining()) in.fail("block length past end");
  ByteReader block(in.bytes(len), "block");
  switch (codec) {
    case kRaw64:
      for (std::uint32_t i = 0; i < rows; ++i) out.push_back(block.f64());
      break;
    case kScaledDelta: {
      const std::uint8_t scale = block.u8();
      if (scale >= kScales.size()) block.fail("scale index");
      std::int64_t prev = 0;
      for (std::uint32_t i = 0; i < rows; ++i) {
        prev += zigzag_decode(block.varint());
        out.push_back(static_cast<double>(prev) / kScales[scale]);
      }
      break;
    }
    default:
      block.fail("unknown double codec");
  }
  if (!block.done()) block.fail("trailing bytes in block");
}

template <typename T, typename BlockFn>
void encode_blocks(ByteWriter& out, std::span<const T> values, BlockFn fn) {
  for (std::size_t at = 0; at < values.size(); at += kBlockRows)
    fn(out, values.subspan(at, std::min<std::size_t>(kBlockRows,
                                                     values.size() - at)));
  if (values.empty()) {
    // Columns are never empty in practice (empty segments are not sealed),
    // but an empty column still encodes as zero blocks.
  }
}

template <typename T, typename BlockFn>
std::vector<T> decode_blocks(ByteReader& in, std::uint32_t rows, BlockFn fn) {
  std::vector<T> out;
  out.reserve(rows);
  for (std::uint32_t at = 0; at < rows; at += kBlockRows)
    fn(in, std::min(kBlockRows, rows - at), out);
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// ByteReader / ByteWriter
// ---------------------------------------------------------------------------

void ByteReader::need(std::size_t n) const {
  if (bytes_.size() - pos_ < n)
    throw core::SerializeError("archive: truncated " + std::string(what_));
}

void ByteReader::fail(const std::string& detail) const {
  throw core::SerializeError("archive: corrupt " + std::string(what_) + ": " +
                             detail);
}

std::uint8_t ByteReader::u8() {
  need(1);
  return bytes_[pos_++];
}

std::uint16_t ByteReader::u16() {
  need(2);
  const auto v = static_cast<std::uint16_t>(
      bytes_[pos_] | (static_cast<std::uint16_t>(bytes_[pos_ + 1]) << 8));
  pos_ += 2;
  return v;
}

std::uint32_t ByteReader::u32() {
  need(4);
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | bytes_[pos_ + static_cast<std::size_t>(i)];
  pos_ += 4;
  return v;
}

std::uint64_t ByteReader::u64() {
  need(8);
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | bytes_[pos_ + static_cast<std::size_t>(i)];
  pos_ += 8;
  return v;
}

double ByteReader::f64() {
  const std::uint64_t bits = u64();
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::uint64_t ByteReader::varint() {
  std::uint64_t v = 0;
  for (std::uint32_t shift = 0; shift < 70; shift += 7) {
    const std::uint8_t byte = u8();
    if (shift == 63 && (byte & 0xfe) != 0) fail("varint overflow");
    v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) return v;
  }
  fail("varint too long");
}

std::span<const std::uint8_t> ByteReader::bytes(std::size_t n) {
  need(n);
  const auto slice = bytes_.subspan(pos_, n);
  pos_ += n;
  return slice;
}

void ByteWriter::u16(std::uint16_t v) {
  out_.push_back(static_cast<std::uint8_t>(v & 0xff));
  out_.push_back(static_cast<std::uint8_t>(v >> 8));
}

void ByteWriter::u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out_.push_back(static_cast<std::uint8_t>(v & 0xff));
    v >>= 8;
  }
}

void ByteWriter::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out_.push_back(static_cast<std::uint8_t>(v & 0xff));
    v >>= 8;
  }
}

void ByteWriter::f64(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  u64(bits);
}

void ByteWriter::varint(std::uint64_t v) {
  while (v >= 0x80) {
    out_.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out_.push_back(static_cast<std::uint8_t>(v));
}

void ByteWriter::bytes(std::span<const std::uint8_t> data) {
  out_.insert(out_.end(), data.begin(), data.end());
}

std::uint32_t crc32(std::span<const std::uint8_t> bytes) {
  static const std::array<std::uint32_t, 256> kTable = [] {
    std::array<std::uint32_t, 256> table{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k)
        c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
      table[i] = c;
    }
    return table;
  }();
  std::uint32_t crc = 0xffffffffu;
  for (const std::uint8_t byte : bytes)
    crc = kTable[(crc ^ byte) & 0xff] ^ (crc >> 8);
  return crc ^ 0xffffffffu;
}

std::uint64_t zigzag_encode(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

std::int64_t zigzag_decode(std::uint64_t v) {
  return static_cast<std::int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

void encode_column(ByteWriter& out, std::span<const std::uint8_t> values) {
  encode_blocks(out, values, encode_int_block<std::uint8_t>);
}
void encode_column(ByteWriter& out, std::span<const std::uint16_t> values) {
  encode_blocks(out, values, encode_int_block<std::uint16_t>);
}
void encode_column(ByteWriter& out, std::span<const std::uint32_t> values) {
  encode_blocks(out, values, encode_int_block<std::uint32_t>);
}
void encode_column(ByteWriter& out, std::span<const std::int32_t> values) {
  encode_blocks(out, values, encode_int_block<std::int32_t>);
}
void encode_column(ByteWriter& out, std::span<const double> values) {
  encode_blocks(out, values, encode_double_block);
}

std::vector<std::uint8_t> decode_column_u8(ByteReader& in,
                                           std::uint32_t rows) {
  return decode_blocks<std::uint8_t>(in, rows, decode_int_block<std::uint8_t>);
}
std::vector<std::uint16_t> decode_column_u16(ByteReader& in,
                                             std::uint32_t rows) {
  return decode_blocks<std::uint16_t>(in, rows,
                                      decode_int_block<std::uint16_t>);
}
std::vector<std::uint32_t> decode_column_u32(ByteReader& in,
                                             std::uint32_t rows) {
  return decode_blocks<std::uint32_t>(in, rows,
                                      decode_int_block<std::uint32_t>);
}
std::vector<std::int32_t> decode_column_i32(ByteReader& in,
                                            std::uint32_t rows) {
  return decode_blocks<std::int32_t>(in, rows, decode_int_block<std::int32_t>);
}
std::vector<double> decode_column_f64(ByteReader& in, std::uint32_t rows) {
  return decode_blocks<double>(in, rows, decode_double_block);
}

}  // namespace dosm::storage
