// Batched ingest tests: SPSC ring units, batched-vs-sequential identity
// (packets and TelescopeEvents, parameterized over batch size x ring
// capacity), the ingest-edge bugfix regressions (mid-stream I/O errors,
// snaplen truncation, VLAN tags), and skip accounting.
#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "ingest/batch.h"
#include "ingest/decode.h"
#include "ingest/pipeline.h"
#include "ingest/ring.h"
#include "net/pcap.h"
#include "obs/metrics.h"
#include "telescope/pipeline.h"

namespace dosm {
namespace {

using ingest::BatchedPcapReader;
using ingest::FrameBatch;
using ingest::IngestOptions;
using ingest::SpscRing;
using net::PacketRecord;
using net::PcapReader;
using net::PcapWriter;

// ---------------------------------------------------------------------------
// Fixtures
// ---------------------------------------------------------------------------

/// Full-field comparison key; any divergence between the sequential and
/// batched front ends must be visible here.
auto record_key(const PacketRecord& rec) {
  return std::make_tuple(rec.ts_sec, rec.ts_usec, rec.src.value(),
                         rec.dst.value(), rec.proto, rec.ip_len, rec.ttl,
                         rec.src_port, rec.dst_port, rec.tcp_flags,
                         rec.icmp_type, rec.icmp_code, rec.has_quoted,
                         rec.quoted_proto, rec.quoted_src.value(),
                         rec.quoted_dst.value(), rec.quoted_src_port,
                         rec.quoted_dst_port);
}

auto event_key(const telescope::TelescopeEvent& e) {
  return std::make_tuple(e.victim, e.start, e.end, e.packets, e.bytes,
                         e.unique_sources, e.num_ports, e.top_port,
                         e.attack_proto, e.max_pps);
}

/// Seeded backscatter-like capture: bursts of SYN/ACK + RST + ICMP replies
/// and error messages from a few hundred "victims", dense enough that the
/// RS-DoS detector emits events (thresholds: 25 packets / 60 s / 0.5 pps).
std::vector<PacketRecord> make_capture(std::uint64_t seed, int packets) {
  Rng rng(seed);
  std::vector<PacketRecord> out;
  out.reserve(static_cast<std::size_t>(packets));
  double ts = 1425168000.0;
  for (int i = 0; i < packets; ++i) {
    ts += rng.uniform(0.0, 0.05);
    PacketRecord rec;
    rec.ts_sec = static_cast<UnixSeconds>(ts);
    rec.ts_usec = static_cast<std::uint32_t>((ts - static_cast<double>(rec.ts_sec)) * 1e6);
    // Few victims, many packets each: clears the Moore thresholds
    // (>= 25 packets, >= 60 s, >= 0.5 pps in some minute).
    const auto victim = static_cast<std::uint32_t>(rng.next_below(24));
    rec.src = net::Ipv4Addr(0x0a000000u + victim);
    rec.dst = net::Ipv4Addr(0x2c000000u + static_cast<std::uint32_t>(rng.next_below(1 << 16)));
    rec.ttl = 64;
    switch (rng.next_below(5)) {
      case 0:
      case 1: {  // TCP SYN/ACK backscatter
        rec.proto = static_cast<std::uint8_t>(net::IpProto::kTcp);
        rec.src_port = static_cast<std::uint16_t>(80 + rng.next_below(3));
        rec.dst_port = static_cast<std::uint16_t>(1024 + rng.next_below(60000));
        rec.tcp_flags = net::tcp_flags::kSyn | net::tcp_flags::kAck;
        break;
      }
      case 2: {  // TCP RST
        rec.proto = static_cast<std::uint8_t>(net::IpProto::kTcp);
        rec.src_port = 443;
        rec.dst_port = static_cast<std::uint16_t>(1024 + rng.next_below(60000));
        rec.tcp_flags = net::tcp_flags::kRst;
        break;
      }
      case 3: {  // ICMP echo reply
        rec.proto = static_cast<std::uint8_t>(net::IpProto::kIcmp);
        rec.icmp_type = static_cast<std::uint8_t>(net::IcmpType::kEchoReply);
        break;
      }
      default: {  // ICMP dest-unreachable quoting a UDP datagram
        rec.proto = static_cast<std::uint8_t>(net::IpProto::kIcmp);
        rec.icmp_type =
            static_cast<std::uint8_t>(net::IcmpType::kDestUnreachable);
        rec.icmp_code = 3;
        rec.has_quoted = true;
        rec.quoted_proto = static_cast<std::uint8_t>(net::IpProto::kUdp);
        rec.quoted_src = rec.dst;
        rec.quoted_dst = rec.src;
        rec.quoted_src_port = static_cast<std::uint16_t>(1024 + rng.next_below(60000));
        rec.quoted_dst_port = 53;
        break;
      }
    }
    out.push_back(rec);
  }
  return out;
}

std::string to_pcap(const std::vector<PacketRecord>& packets) {
  std::ostringstream out(std::ios::binary);
  PcapWriter writer(out);
  for (const auto& rec : packets) writer.write_packet(rec);
  return out.str();
}

std::vector<PacketRecord> sequential_packets(const std::string& pcap) {
  std::istringstream in(pcap, std::ios::binary);
  PcapReader reader(in);
  std::vector<PacketRecord> out;
  while (auto rec = reader.next_packet()) out.push_back(*rec);
  return out;
}

void expect_same_packets(const std::vector<PacketRecord>& a,
                         const std::vector<PacketRecord>& b,
                         const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (std::size_t i = 0; i < a.size(); ++i)
    ASSERT_EQ(record_key(a[i]), record_key(b[i])) << label << " packet " << i;
}

std::uint64_t counter_value(const char* name) {
  const auto snapshot = obs::MetricsRegistry::global().snapshot();
  for (const auto& counter : snapshot.counters)
    if (counter.name == name) return counter.value;
  return 0;
}

// ---------------------------------------------------------------------------
// SPSC ring units
// ---------------------------------------------------------------------------

TEST(SpscRing, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(SpscRing<int>(1).capacity(), 2u);
  EXPECT_EQ(SpscRing<int>(2).capacity(), 2u);
  EXPECT_EQ(SpscRing<int>(3).capacity(), 4u);
  EXPECT_EQ(SpscRing<int>(8).capacity(), 8u);
  EXPECT_EQ(SpscRing<int>(9).capacity(), 16u);
}

TEST(SpscRing, FifoOrderAndDrainAfterClose) {
  SpscRing<int> ring(4);
  for (int i = 0; i < 4; ++i) {
    int v = i;
    EXPECT_TRUE(ring.try_push(v));
  }
  int overflow = 99;
  EXPECT_FALSE(ring.try_push(overflow));
  EXPECT_EQ(overflow, 99);  // intact on failure
  ring.close();
  int out = -1;
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(ring.pop(out));
    EXPECT_EQ(out, i);
  }
  EXPECT_FALSE(ring.pop(out));  // closed and drained
  EXPECT_EQ(ring.stats().pushed.load(), 4u);
  EXPECT_EQ(ring.stats().popped.load(), 4u);
}

TEST(SpscRing, TryPopOnEmptyRingFails) {
  SpscRing<int> ring(2);
  int out = 0;
  EXPECT_FALSE(ring.try_pop(out));
  int v = 7;
  EXPECT_TRUE(ring.try_push(v));
  EXPECT_TRUE(ring.try_pop(out));
  EXPECT_EQ(out, 7);
  EXPECT_FALSE(ring.try_pop(out));
}

// ---------------------------------------------------------------------------
// Batched reader vs sequential reader
// ---------------------------------------------------------------------------

TEST(BatchedPcapReader, SlicesSameFramesAsSequential) {
  const auto packets = make_capture(7, 500);
  const std::string pcap = to_pcap(packets);

  std::istringstream seq_in(pcap, std::ios::binary);
  PcapReader seq(seq_in);
  std::vector<net::CapturedFrame> seq_frames;
  while (auto frame = seq.next_frame()) seq_frames.push_back(*frame);

  std::istringstream bat_in(pcap, std::ios::binary);
  BatchedPcapReader batched(bat_in, /*chunk_bytes=*/4096);
  EXPECT_EQ(batched.link_type(), seq.link_type());
  FrameBatch batch;
  std::size_t i = 0;
  while (batched.next_batch(batch, 37)) {
    for (const auto& frame : batch.frames) {
      ASSERT_LT(i, seq_frames.size());
      EXPECT_EQ(frame.ts_sec, seq_frames[i].ts_sec);
      EXPECT_EQ(frame.ts_usec, seq_frames[i].ts_usec);
      EXPECT_EQ(frame.orig_len, seq_frames[i].orig_len);
      const auto payload = batch.payload(frame);
      ASSERT_EQ(payload.size(), seq_frames[i].bytes.size());
      EXPECT_EQ(std::memcmp(payload.data(), seq_frames[i].bytes.data(),
                            payload.size()),
                0);
      ++i;
    }
  }
  EXPECT_EQ(i, seq_frames.size());
  EXPECT_EQ(batched.frames_read(), seq_frames.size());
}

TEST(BatchedPcapReader, ReadsByteSwappedFiles) {
  // Reuse the sequential reader's swapped-file handling as the oracle on a
  // hand-built big-endian capture.
  std::ostringstream out(std::ios::binary);
  auto put_be = [&](std::uint32_t v) {
    char b[4] = {static_cast<char>(v >> 24), static_cast<char>(v >> 16),
                 static_cast<char>(v >> 8), static_cast<char>(v)};
    out.write(b, 4);
  };
  auto put_be16 = [&](std::uint16_t v) {
    char b[2] = {static_cast<char>(v >> 8), static_cast<char>(v)};
    out.write(b, 2);
  };
  put_be(net::kPcapMagic);
  put_be16(2);
  put_be16(4);
  put_be(0);
  put_be(0);
  put_be(65535);
  put_be(net::kLinkTypeRaw);
  const auto packet = net::encode_packet(make_capture(1, 1)[0]);
  put_be(42);
  put_be(7);
  put_be(static_cast<std::uint32_t>(packet.size()));
  put_be(static_cast<std::uint32_t>(packet.size()));
  out.write(reinterpret_cast<const char*>(packet.data()),
            static_cast<std::streamsize>(packet.size()));
  const std::string pcap = out.str();

  std::istringstream in(pcap, std::ios::binary);
  const auto batched = ingest::read_packets(in);
  expect_same_packets(batched, sequential_packets(pcap), "swapped");
  ASSERT_EQ(batched.size(), 1u);
  EXPECT_EQ(batched[0].ts_sec, 42);
  EXPECT_EQ(batched[0].ts_usec, 7u);
}

TEST(BatchedPcapReader, ThrowsOnTruncatedRecordBody) {
  std::string pcap = to_pcap(make_capture(3, 5));
  pcap.resize(pcap.size() - 5);
  std::istringstream in(pcap, std::ios::binary);
  BatchedPcapReader reader(in, 4096);
  FrameBatch batch;
  // The 4 intact frames come back first; the truncated 5th throws next.
  ASSERT_TRUE(reader.next_batch(batch, 1024));
  EXPECT_EQ(batch.size(), 4u);
  EXPECT_THROW(reader.next_batch(batch, 1024), std::runtime_error);
}

TEST(BatchedPcapReader, ThrowsOnImplausibleRecordLength) {
  std::ostringstream out(std::ios::binary);
  PcapWriter writer(out);
  std::string pcap = out.str();
  const std::uint32_t caplen = (1u << 26) + 1;
  const char hdr[16] = {0, 0, 0, 0, 0, 0, 0, 0,
                        static_cast<char>(caplen & 0xff),
                        static_cast<char>((caplen >> 8) & 0xff),
                        static_cast<char>((caplen >> 16) & 0xff),
                        static_cast<char>(caplen >> 24),
                        0, 0, 0, 0};
  pcap.append(hdr, 16);
  std::istringstream in(pcap, std::ios::binary);
  BatchedPcapReader reader(in, 4096);
  FrameBatch batch;
  EXPECT_THROW(reader.next_batch(batch, 16), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Parameterized identity: packets and detector events, batched == sequential
// ---------------------------------------------------------------------------

class IngestIdentity
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(IngestIdentity, PacketsMatchSequential) {
  const auto [batch_frames, ring_capacity] = GetParam();
  const std::string pcap = to_pcap(make_capture(11, 3000));
  const auto expected = sequential_packets(pcap);
  ASSERT_FALSE(expected.empty());

  IngestOptions options;
  options.batch_frames = batch_frames;
  options.ring_capacity = ring_capacity;
  options.read_chunk_bytes = 8192;  // force many refills
  std::istringstream in(pcap, std::ios::binary);
  const auto batched = ingest::read_packets(in, options);
  expect_same_packets(batched, expected,
                      "batch=" + std::to_string(batch_frames) +
                          " ring=" + std::to_string(ring_capacity));
}

TEST_P(IngestIdentity, TelescopeEventsMatchSequential) {
  const auto [batch_frames, ring_capacity] = GetParam();
  const std::string pcap = to_pcap(make_capture(13, 4000));

  std::istringstream seq_in(pcap, std::ios::binary);
  PcapReader reader(seq_in);
  telescope::Pipeline seq_pipeline;
  auto& seq_rsdos = seq_pipeline.emplace_plugin<telescope::RsdosPlugin>();
  const std::uint64_t seq_count = seq_pipeline.replay(reader);
  seq_pipeline.finish();

  IngestOptions options;
  options.batch_frames = batch_frames;
  options.ring_capacity = ring_capacity;
  std::istringstream bat_in(pcap, std::ios::binary);
  telescope::Pipeline bat_pipeline;
  auto& bat_rsdos = bat_pipeline.emplace_plugin<telescope::RsdosPlugin>();
  const std::uint64_t bat_count = bat_pipeline.replay(bat_in, options);
  bat_pipeline.finish();

  EXPECT_EQ(bat_count, seq_count);
  ASSERT_FALSE(seq_rsdos.events().empty())
      << "fixture too sparse to exercise the detector";
  ASSERT_EQ(bat_rsdos.events().size(), seq_rsdos.events().size());
  for (std::size_t i = 0; i < seq_rsdos.events().size(); ++i)
    ASSERT_EQ(event_key(bat_rsdos.events()[i]), event_key(seq_rsdos.events()[i]))
        << "event " << i;
}

INSTANTIATE_TEST_SUITE_P(
    BatchAndRingMatrix, IngestIdentity,
    ::testing::Combine(::testing::Values(std::size_t{1}, std::size_t{64},
                                         std::size_t{4096}),
                       ::testing::Values(std::size_t{2}, std::size_t{8},
                                         std::size_t{64})));

// ---------------------------------------------------------------------------
// Bugfix regressions: mid-stream I/O error (batched path)
// ---------------------------------------------------------------------------

/// A streambuf that serves `good` bytes and then fails like a broken pipe:
/// underflow throws, which istream::read converts to badbit (not eofbit).
class FailingStreamBuf : public std::streambuf {
 public:
  FailingStreamBuf(std::string data, std::size_t good)
      : data_(std::move(data).substr(0, good)) {
    setg(data_.data(), data_.data(), data_.data() + data_.size());
  }

 protected:
  int_type underflow() override { throw std::runtime_error("simulated I/O error"); }

 private:
  std::string data_;
};

TEST(IngestErrors, BatchedReaderThrowsOnMidCaptureStreamError) {
  const auto packets = make_capture(5, 40);
  const std::string pcap = to_pcap(packets);
  FailingStreamBuf buf(pcap, pcap.size() - 30);  // fail inside the capture
  std::istream in(&buf);
  IngestOptions options;
  options.read_chunk_bytes = 4096;
  std::vector<PacketRecord> seen;
  EXPECT_THROW(
      ingest::run_ingest(in, options,
                         [&](const PacketRecord& rec) { seen.push_back(rec); }),
      std::runtime_error);
  // Every packet before the failure point was still delivered, in order.
  const auto expected = sequential_packets(pcap);
  ASSERT_LT(seen.size(), expected.size());
  for (std::size_t i = 0; i < seen.size(); ++i)
    ASSERT_EQ(record_key(seen[i]), record_key(expected[i]));
}

// ---------------------------------------------------------------------------
// Skip accounting: truncated and link-layer skips, batched == sequential
// ---------------------------------------------------------------------------

/// Ethernet capture mixing plain, VLAN-tagged, QinQ, ARP, and runt frames.
std::string make_ethernet_pcap() {
  std::ostringstream out(std::ios::binary);
  PcapWriter writer(out, net::kLinkTypeEthernet);
  const auto base = make_capture(17, 6);
  auto eth_frame = [](const std::vector<std::uint8_t>& ip,
                      std::vector<std::uint8_t> tags) {
    std::vector<std::uint8_t> frame(12, 0xaa);
    // Element-wise: GCC 12 -Warray-bounds misfires on a range insert here.
    for (const std::uint8_t tag : tags) frame.push_back(tag);
    frame.push_back(0x08);
    frame.push_back(0x00);
    frame.insert(frame.end(), ip.begin(), ip.end());
    return frame;
  };
  // Plain IPv4.
  writer.write_frame(100, 0, eth_frame(net::encode_packet(base[0]), {}));
  // Single 802.1Q tag (TPID 0x8100, TCI 0x0064).
  writer.write_frame(101, 0,
                     eth_frame(net::encode_packet(base[1]),
                               {0x81, 0x00, 0x00, 0x64}));
  // QinQ: 802.1ad outer + 802.1Q inner.
  writer.write_frame(102, 0,
                     eth_frame(net::encode_packet(base[2]),
                               {0x88, 0xa8, 0x00, 0xc8, 0x81, 0x00, 0x00, 0x64}));
  // ARP (skipped at the link layer).
  std::vector<std::uint8_t> arp(42, 0);
  arp[12] = 0x08;
  arp[13] = 0x06;
  writer.write_frame(103, 0, arp);
  // Runt frame (shorter than an Ethernet header).
  writer.write_frame(104, 0, std::vector<std::uint8_t>(9, 0));
  // VLAN tag cut short (no room for the inner EtherType).
  std::vector<std::uint8_t> cut_tag(15, 0xaa);
  cut_tag[12] = 0x81;
  cut_tag[13] = 0x00;
  cut_tag[14] = 0x00;
  writer.write_frame(105, 0, cut_tag);
  return out.str();
}

TEST(IngestSkips, VlanAndLinkSkipsMatchSequential) {
  const std::string pcap = make_ethernet_pcap();
  const auto expected = sequential_packets(pcap);
  // Plain + VLAN + QinQ decode; ARP, runt, and cut-tag frames are skipped.
  ASSERT_EQ(expected.size(), 3u);

  const std::uint64_t link_before = counter_value("ingest.skipped.link");
  std::istringstream in(pcap, std::ios::binary);
  IngestOptions options;
  options.batch_frames = 2;
  std::vector<PacketRecord> batched;
  const auto stats = ingest::run_ingest(
      in, options, [&](const PacketRecord& rec) { batched.push_back(rec); });
  expect_same_packets(batched, expected, "ethernet");
  EXPECT_EQ(stats.frames, 6u);
  EXPECT_EQ(stats.packets, 3u);
  EXPECT_EQ(stats.skipped_link, 3u);
  EXPECT_EQ(stats.skipped_truncated, 0u);
  EXPECT_EQ(counter_value("ingest.skipped.link"), link_before + 3u);
}

TEST(IngestSkips, SnaplenTruncatedFramesAreCountedNotDecoded) {
  // A 24-byte snaplen cuts every 40-byte TCP packet mid-transport-header;
  // total_length (40) exceeds the capture (24) so the frame must be skipped.
  std::ostringstream out(std::ios::binary);
  PcapWriter writer(out, net::kLinkTypeRaw, /*snaplen=*/24);
  const auto packets = make_capture(19, 8);
  for (const auto& rec : packets)
    writer.write_frame(rec.ts_sec, rec.ts_usec, net::encode_packet(rec));
  const std::string pcap = out.str();

  EXPECT_TRUE(sequential_packets(pcap).empty());

  const std::uint64_t truncated_before =
      counter_value("ingest.skipped.truncated");
  std::istringstream in(pcap, std::ios::binary);
  std::vector<PacketRecord> batched;
  const auto stats = ingest::run_ingest(
      in, {}, [&](const PacketRecord& rec) { batched.push_back(rec); });
  EXPECT_TRUE(batched.empty());
  EXPECT_EQ(stats.frames, 8u);
  EXPECT_EQ(stats.skipped_truncated, 8u);
  EXPECT_EQ(counter_value("ingest.skipped.truncated"), truncated_before + 8u);
}

// ---------------------------------------------------------------------------
// Drop policy
// ---------------------------------------------------------------------------

TEST(IngestDropPolicy, DropsAreCountedNeverSilent) {
  // Tiny ring + a sink slow enough (per batch) that the producer laps it.
  const std::string pcap = to_pcap(make_capture(23, 2000));
  IngestOptions options;
  options.batch_frames = 16;
  options.ring_capacity = 2;
  options.policy = ingest::Backpressure::kDrop;
  std::istringstream in(pcap, std::ios::binary);
  std::uint64_t sunk = 0;
  volatile std::uint64_t spin_sink = 0;
  const auto stats = ingest::run_ingest(in, options, [&](const PacketRecord&) {
    ++sunk;
    for (int i = 0; i < 2000; ++i) spin_sink = spin_sink + 1;
  });
  // Conservation: every frame read is either delivered or counted dropped.
  EXPECT_EQ(stats.frames + stats.dropped_frames, 2000u);
  EXPECT_EQ(stats.packets, sunk);
  if (stats.dropped_batches > 0) {
    EXPECT_GT(stats.dropped_frames, 0u);
  }
}

}  // namespace
}  // namespace dosm
