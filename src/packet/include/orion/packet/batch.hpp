// Columnar (structure-of-arrays) packet batch — the unit of work on the
// batched hot path from generator through ring to aggregator.
//
// Layout: one contiguous column per header field the pipeline reads
// (timestamp, addresses, ports, protocol, flags, plus the side-channel
// fields the tool fingerprints need: ip_id, tcp_seq, ttl, tcp_window,
// icmp_type, wire_length). Hot-loop consumers stream down the columns they
// need instead of striding over 64-byte Packet records, and the arena is
// reusable: clear() resets the size but keeps every column's capacity, so a
// recycled batch performs zero allocations in steady state.
//
// The bridge is lossless both ways: push_back(Packet) → packet_at(i)
// round-trips every field, which is what lets the batched consumers
// promise byte-identical results for any chunking (see DESIGN.md §11).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "orion/netbase/aligned.hpp"
#include "orion/packet/fingerprint.hpp"
#include "orion/packet/packet.hpp"

namespace orion::pkt {

static_assert(net::kColumnAlignment >= 64,
              "SIMD batch kernels assume cache-line-aligned columns");

class PacketBatch {
 public:
  PacketBatch() = default;
  explicit PacketBatch(std::size_t capacity) { reserve(capacity); }

  std::size_t size() const { return ts_ns_.size(); }
  bool empty() const { return ts_ns_.empty(); }

  /// Resets size to zero; keeps column capacity (no deallocation).
  void clear() {
    ts_ns_.clear();
    src_.clear();
    dst_.clear();
    src_port_.clear();
    dst_port_.clear();
    proto_.clear();
    tcp_flags_.clear();
    icmp_type_.clear();
    ttl_.clear();
    ip_id_.clear();
    tcp_window_.clear();
    tcp_seq_.clear();
    wire_len_.clear();
  }

  void reserve(std::size_t n) {
    ts_ns_.reserve(n);
    src_.reserve(n);
    dst_.reserve(n);
    src_port_.reserve(n);
    dst_port_.reserve(n);
    proto_.reserve(n);
    tcp_flags_.reserve(n);
    icmp_type_.reserve(n);
    ttl_.reserve(n);
    ip_id_.reserve(n);
    tcp_window_.reserve(n);
    tcp_seq_.reserve(n);
    wire_len_.reserve(n);
  }

  /// Appends one packet, splitting it into the columns (lossless).
  void push_back(const Packet& p) {
    ts_ns_.push_back(p.timestamp.since_epoch().total_nanos());
    src_.push_back(p.tuple.src.value());
    dst_.push_back(p.tuple.dst.value());
    src_port_.push_back(p.tuple.src_port);
    dst_port_.push_back(p.tuple.dst_port);
    proto_.push_back(static_cast<std::uint8_t>(p.tuple.proto));
    tcp_flags_.push_back(p.tcp_flags);
    icmp_type_.push_back(p.icmp_type);
    ttl_.push_back(p.ttl);
    ip_id_.push_back(p.ip_id);
    tcp_window_.push_back(p.tcp_window);
    tcp_seq_.push_back(p.tcp_seq);
    wire_len_.push_back(p.wire_length);
  }

  /// Copies record i of another batch onto the end of this one.
  void append_record(const PacketBatch& other, std::size_t i) {
    append_records(other, std::span<const std::size_t>(&i, 1));
  }

  /// Gathers the records `indices` of another batch, in that order, onto
  /// the end of this one, column by column (the dispatcher's scatter:
  /// one call per shard instead of one append_record per record).
  template <typename Index>
  void append_records(const PacketBatch& other, std::span<const Index> indices) {
    gather(ts_ns_, other.ts_ns_, indices);
    gather(src_, other.src_, indices);
    gather(dst_, other.dst_, indices);
    gather(src_port_, other.src_port_, indices);
    gather(dst_port_, other.dst_port_, indices);
    gather(proto_, other.proto_, indices);
    gather(tcp_flags_, other.tcp_flags_, indices);
    gather(icmp_type_, other.icmp_type_, indices);
    gather(ttl_, other.ttl_, indices);
    gather(ip_id_, other.ip_id_, indices);
    gather(tcp_window_, other.tcp_window_, indices);
    gather(tcp_seq_, other.tcp_seq_, indices);
    gather(wire_len_, other.wire_len_, indices);
  }

  /// Reassembles record i as a Packet — the exact inverse of push_back.
  Packet packet_at(std::size_t i) const {
    Packet p;
    p.timestamp = net::SimTime::at(net::Duration::nanos(ts_ns_[i]));
    p.tuple.src = net::Ipv4Address(src_[i]);
    p.tuple.dst = net::Ipv4Address(dst_[i]);
    p.tuple.src_port = src_port_[i];
    p.tuple.dst_port = dst_port_[i];
    p.tuple.proto = static_cast<net::IpProto>(proto_[i]);
    p.tcp_flags = tcp_flags_[i];
    p.icmp_type = icmp_type_[i];
    p.ttl = ttl_[i];
    p.ip_id = ip_id_[i];
    p.tcp_window = tcp_window_[i];
    p.tcp_seq = tcp_seq_[i];
    p.wire_length = wire_len_[i];
    return p;
  }

  // Per-record accessors used by the batch hot loops.
  net::SimTime timestamp(std::size_t i) const {
    return net::SimTime::at(net::Duration::nanos(ts_ns_[i]));
  }
  std::int64_t timestamp_nanos(std::size_t i) const { return ts_ns_[i]; }
  net::Ipv4Address src(std::size_t i) const { return net::Ipv4Address(src_[i]); }
  net::Ipv4Address dst(std::size_t i) const { return net::Ipv4Address(dst_[i]); }
  std::uint16_t src_port(std::size_t i) const { return src_port_[i]; }
  std::uint16_t dst_port(std::size_t i) const { return dst_port_[i]; }
  net::IpProto proto(std::size_t i) const {
    return static_cast<net::IpProto>(proto_[i]);
  }
  std::uint16_t wire_length(std::size_t i) const { return wire_len_[i]; }

  /// Same classifier cores as Packet::traffic_type() / fingerprint_of(),
  /// evaluated straight from the columns (no Packet reassembly).
  TrafficType traffic_type(std::size_t i) const {
    return classify_traffic(proto(i), tcp_flags_[i], icmp_type_[i]);
  }
  ScanTool tool(std::size_t i) const {
    return classify_tool(proto(i), dst(i), dst_port_[i], ip_id_[i], tcp_seq_[i]);
  }

  // Raw column views (for the benchmarks, the SIMD classify kernels, and
  // column-streaming consumers). Columns are 64-byte aligned (aligned.hpp)
  // so vector loads never straddle cache lines.
  const net::aligned_vector<std::int64_t>& ts_ns() const { return ts_ns_; }
  const net::aligned_vector<std::uint32_t>& src_col() const { return src_; }
  const net::aligned_vector<std::uint32_t>& dst_col() const { return dst_; }
  const net::aligned_vector<std::uint16_t>& src_port_col() const {
    return src_port_;
  }
  const net::aligned_vector<std::uint16_t>& dst_port_col() const {
    return dst_port_;
  }
  const net::aligned_vector<std::uint8_t>& proto_col() const { return proto_; }
  const net::aligned_vector<std::uint8_t>& tcp_flags_col() const {
    return tcp_flags_;
  }
  const net::aligned_vector<std::uint8_t>& icmp_type_col() const {
    return icmp_type_;
  }
  const net::aligned_vector<std::uint16_t>& ip_id_col() const { return ip_id_; }
  const net::aligned_vector<std::uint32_t>& tcp_seq_col() const {
    return tcp_seq_;
  }

 private:
  template <typename T, typename Index>
  static void gather(net::aligned_vector<T>& to, const net::aligned_vector<T>& from,
                     std::span<const Index> indices) {
    const std::size_t at = to.size();
    to.resize(at + indices.size());
    T* out = to.data() + at;
    for (std::size_t j = 0; j < indices.size(); ++j) out[j] = from[indices[j]];
  }

  net::aligned_vector<std::int64_t> ts_ns_;
  net::aligned_vector<std::uint32_t> src_;
  net::aligned_vector<std::uint32_t> dst_;
  net::aligned_vector<std::uint16_t> src_port_;
  net::aligned_vector<std::uint16_t> dst_port_;
  net::aligned_vector<std::uint8_t> proto_;
  net::aligned_vector<std::uint8_t> tcp_flags_;
  net::aligned_vector<std::uint8_t> icmp_type_;
  net::aligned_vector<std::uint8_t> ttl_;
  net::aligned_vector<std::uint16_t> ip_id_;
  net::aligned_vector<std::uint16_t> tcp_window_;
  net::aligned_vector<std::uint32_t> tcp_seq_;
  net::aligned_vector<std::uint16_t> wire_len_;
};

}  // namespace orion::pkt
