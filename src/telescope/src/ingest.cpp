#include "orion/telescope/ingest.hpp"

#include <stdexcept>
#include <utility>

#include "orion/telescope/checkpoint.hpp"

namespace orion::telescope {

namespace {

constexpr std::uint64_t kIngestTag = checkpoint_tag('I', 'N', 'G', '1');

void put_packet(CheckpointWriter& w, const pkt::Packet& p) {
  w.i64(p.timestamp.since_epoch().total_nanos());
  w.u64(p.tuple.src.value());
  w.u64(p.tuple.dst.value());
  w.u64(std::uint64_t{p.tuple.src_port} << 16 | p.tuple.dst_port);
  w.u8(static_cast<std::uint8_t>(p.tuple.proto));
  w.u64(p.ip_id);
  w.u8(p.ttl);
  w.u8(p.tcp_flags);
  w.u64(p.tcp_seq);
  w.u64(p.tcp_window);
  w.u8(p.icmp_type);
  w.u64(p.wire_length);
}

pkt::Packet get_packet(CheckpointReader& r) {
  pkt::Packet p;
  p.timestamp = net::SimTime::at(net::Duration::nanos(r.i64("packet timestamp")));
  p.tuple.src = net::Ipv4Address(r.narrow<std::uint32_t>("packet src"));
  p.tuple.dst = net::Ipv4Address(r.narrow<std::uint32_t>("packet dst"));
  const std::uint32_t ports = r.narrow<std::uint32_t>("packet ports");
  p.tuple.src_port = static_cast<std::uint16_t>(ports >> 16);
  p.tuple.dst_port = static_cast<std::uint16_t>(ports);
  p.tuple.proto = static_cast<net::IpProto>(r.u8("packet proto"));
  p.ip_id = r.narrow<std::uint16_t>("packet ip_id");
  p.ttl = r.u8("packet ttl");
  p.tcp_flags = r.u8("packet tcp_flags");
  p.tcp_seq = r.narrow<std::uint32_t>("packet tcp_seq");
  p.tcp_window = r.narrow<std::uint16_t>("packet tcp_window");
  p.icmp_type = r.u8("packet icmp_type");
  p.wire_length = r.narrow<std::uint16_t>("packet wire_length");
  return p;
}

}  // namespace

ResilientIngest::ResilientIngest(ReorderConfig config, ReorderBuffer::Sink sink,
                                 ReorderBuffer::Sink quarantine)
    : config_(config),
      sink_(std::move(sink)),
      quarantine_(std::move(quarantine)),
      buffer_(
          config_,
          [this](const pkt::Packet& p) {
            ++health_.delivered;
            sink_(p);
          },
          [this](const pkt::Packet& p) {
            if (quarantine_) quarantine_(p);
          }) {}

void ResilientIngest::observe(const pkt::Packet& packet) {
  ++health_.ingested;
  switch (buffer_.push(packet)) {
    case ReorderBuffer::Outcome::Buffered:
      break;
    case ReorderBuffer::Outcome::Reordered:
      ++health_.reordered;
      break;
    case ReorderBuffer::Outcome::Late:
      ++health_.dropped_late;
      break;
    case ReorderBuffer::Outcome::LateOverflow:
      ++health_.dropped_overflow;
      break;
  }
}

void ResilientIngest::finish() { buffer_.flush(); }

const PipelineHealth& ResilientIngest::health() const {
  health_.buffered = buffer_.buffered();
  return health_;
}

void ResilientIngest::checkpoint(CheckpointWriter& writer) const {
  writer.tag(kIngestTag);
  writer.i64(config_.window.total_nanos());
  writer.u64(config_.max_buffered);
  writer.u64(health_.ingested);
  writer.u64(health_.delivered);
  writer.u64(health_.reordered);
  writer.u64(health_.dropped_late);
  writer.u64(health_.dropped_overflow);
  writer.i64(buffer_.max_seen().since_epoch().total_nanos());
  writer.i64(buffer_.watermark().since_epoch().total_nanos());
  writer.u8(buffer_.saw_packet() ? 1 : 0);
  writer.u64(buffer_.overflow_releases());
  writer.u64(buffer_.held().size());
  for (const pkt::Packet& p : buffer_.held()) put_packet(writer, p);
}

void ResilientIngest::restore(CheckpointReader& reader) {
  reader.expect_tag(kIngestTag, "ResilientIngest");
  if (net::Duration::nanos(reader.i64("reorder window")) != config_.window ||
      reader.u64("max buffered") != config_.max_buffered) {
    throw ConfigMismatchError("ResilientIngest configuration mismatch");
  }
  health_.ingested = reader.u64("ingested");
  health_.delivered = reader.u64("delivered");
  health_.reordered = reader.u64("reordered");
  health_.dropped_late = reader.u64("dropped late");
  health_.dropped_overflow = reader.u64("dropped overflow");
  const auto max_seen = net::SimTime::at(net::Duration::nanos(reader.i64("max seen")));
  const auto watermark = net::SimTime::at(net::Duration::nanos(reader.i64("watermark")));
  const bool saw_packet = reader.u8("saw packet") != 0;
  const std::uint64_t overflow_releases = reader.u64("overflow releases");
  const std::uint64_t held_count = reader.u64("held count");
  if (held_count > config_.max_buffered) {
    throw std::runtime_error("checkpoint: held count exceeds buffer bound");
  }
  std::vector<pkt::Packet> held;
  held.reserve(static_cast<std::size_t>(held_count));
  for (std::uint64_t i = 0; i < held_count; ++i) held.push_back(get_packet(reader));
  buffer_.restore_state(std::move(held), max_seen, watermark, saw_packet,
                        overflow_releases);
}

}  // namespace orion::telescope
