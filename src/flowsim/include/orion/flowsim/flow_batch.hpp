// Columnar (structure-of-arrays) flow batch — the unit of work on the
// batched flow path from NetFlow decode through the impact join.
//
// Layout: one contiguous column per field the flow consumers read
// (timestamp, addresses, ports, protocol, packet/byte counters, router).
// Hot-loop consumers (the FlowImpactAnalyzer index build, the NetFlow
// bridge) stream down the columns they need instead of striding over
// row records, and the arena is reusable: clear() resets the size but
// keeps every column's capacity, so a recycled batch performs zero
// allocations in steady state. This is the flow-side sibling of
// pkt::PacketBatch (DESIGN.md §11 / §12).
//
// The bridge is lossless both ways: push_back(FlowRecord) → record_at(i)
// round-trips every field, which is what lets the batched join promise
// byte-identical results to the scalar path (tests/flowjoin_test.cpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "orion/netbase/aligned.hpp"
#include "orion/netbase/ipv4.hpp"
#include "orion/packet/packet.hpp"

namespace orion::flowsim {

/// Wire protocol number of a traffic type (the NetFlow v5 `prot` field).
/// One definition shared by the v5 codec, the bridge and the batch
/// accessors — the flow-side sibling of pkt::classify_traffic.
constexpr std::uint8_t protocol_number_of(pkt::TrafficType type) {
  switch (type) {
    case pkt::TrafficType::TcpSyn: return 6;
    case pkt::TrafficType::Udp: return 17;
    case pkt::TrafficType::IcmpEchoReq: return 1;
    case pkt::TrafficType::Other: break;
  }
  return 6;
}

/// Inverse of protocol_number_of: unknown protocol numbers map to Other.
constexpr pkt::TrafficType traffic_type_of(std::uint8_t protocol) {
  switch (protocol) {
    case 6: return pkt::TrafficType::TcpSyn;
    case 17: return pkt::TrafficType::Udp;
    case 1: return pkt::TrafficType::IcmpEchoReq;
    default: return pkt::TrafficType::Other;
  }
}

/// One flow row: a sampled flow aggregate as a collector sees it. The
/// scalar bridge type of FlowBatch, not used on the hot loops.
struct FlowRecord {
  std::int64_t ts_ns = 0;  // flow-day start (sim time, nanoseconds)
  net::Ipv4Address src;
  net::Ipv4Address dst;  // zero when not retained (privacy aggregation)
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint8_t proto = 6;       // wire protocol number
  std::uint64_t packets = 0;    // SAMPLED packet count
  std::uint64_t bytes = 0;      // sampled octets
  std::uint16_t router = 0;     // border router the flow was exported from

  friend constexpr auto operator<=>(const FlowRecord&,
                                    const FlowRecord&) = default;
};

class FlowBatch {
 public:
  FlowBatch() = default;
  explicit FlowBatch(std::size_t capacity) { reserve(capacity); }

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
    packets_.clear();
    bytes_.clear();
    router_.clear();
  }

  void reserve(std::size_t n) {
    ts_ns_.reserve(n);
    src_.reserve(n);
    dst_.reserve(n);
    src_port_.reserve(n);
    dst_port_.reserve(n);
    proto_.reserve(n);
    packets_.reserve(n);
    bytes_.reserve(n);
    router_.reserve(n);
  }

  /// Appends one flow row, splitting it into the columns (lossless).
  void push_back(const FlowRecord& r) {
    ts_ns_.push_back(r.ts_ns);
    src_.push_back(r.src.value());
    dst_.push_back(r.dst.value());
    src_port_.push_back(r.src_port);
    dst_port_.push_back(r.dst_port);
    proto_.push_back(r.proto);
    packets_.push_back(r.packets);
    bytes_.push_back(r.bytes);
    router_.push_back(r.router);
  }

  /// Copies row i of another batch onto the end of this one (used to
  /// re-chunk a sorted router-day batch into ragged spans).
  void append_record(const FlowBatch& other, std::size_t i) {
    ts_ns_.push_back(other.ts_ns_[i]);
    src_.push_back(other.src_[i]);
    dst_.push_back(other.dst_[i]);
    src_port_.push_back(other.src_port_[i]);
    dst_port_.push_back(other.dst_port_[i]);
    proto_.push_back(other.proto_[i]);
    packets_.push_back(other.packets_[i]);
    bytes_.push_back(other.bytes_[i]);
    router_.push_back(other.router_[i]);
  }

  /// Appends rows [lo, hi) of any column set that has this batch's nine
  /// columns as same-named span members (store::FlowView over a mapped
  /// FDE1 block): a column-wise copy, no row reassembly.
  template <typename Columns>
  void append_columns(const Columns& from, std::size_t lo, std::size_t hi) {
    const auto append = [lo, hi](auto& column, const auto& source) {
      column.insert(column.end(), source.begin() + lo, source.begin() + hi);
    };
    append(ts_ns_, from.ts_ns);
    append(src_, from.src);
    append(dst_, from.dst);
    append(src_port_, from.src_port);
    append(dst_port_, from.dst_port);
    append(proto_, from.proto);
    append(packets_, from.packets);
    append(bytes_, from.bytes);
    append(router_, from.router);
  }

  /// Row-for-row, field-for-field equality.
  friend bool operator==(const FlowBatch&, const FlowBatch&) = default;

  /// Reassembles row i as a FlowRecord — the exact inverse of push_back.
  FlowRecord record_at(std::size_t i) const {
    FlowRecord r;
    r.ts_ns = ts_ns_[i];
    r.src = net::Ipv4Address(src_[i]);
    r.dst = net::Ipv4Address(dst_[i]);
    r.src_port = src_port_[i];
    r.dst_port = dst_port_[i];
    r.proto = proto_[i];
    r.packets = packets_[i];
    r.bytes = bytes_[i];
    r.router = router_[i];
    return r;
  }

  // Per-row accessors used by the batch hot loops.
  std::int64_t ts_ns(std::size_t i) const { return ts_ns_[i]; }
  net::Ipv4Address src(std::size_t i) const { return net::Ipv4Address(src_[i]); }
  net::Ipv4Address dst(std::size_t i) const { return net::Ipv4Address(dst_[i]); }
  std::uint16_t src_port(std::size_t i) const { return src_port_[i]; }
  std::uint16_t dst_port(std::size_t i) const { return dst_port_[i]; }
  std::uint8_t proto(std::size_t i) const { return proto_[i]; }
  std::uint64_t packets(std::size_t i) const { return packets_[i]; }
  std::uint64_t bytes(std::size_t i) const { return bytes_[i]; }
  std::uint16_t router(std::size_t i) const { return router_[i]; }

  /// Same protocol-number core as the v5 codec, evaluated straight from
  /// the proto column (no row reassembly).
  pkt::TrafficType traffic_type(std::size_t i) const {
    return traffic_type_of(proto_[i]);
  }

  // Raw column views (for the benchmarks and column-streaming consumers).
  const net::aligned_vector<std::int64_t>& ts_ns_col() const { return ts_ns_; }
  const net::aligned_vector<std::uint32_t>& src_col() const { return src_; }
  const net::aligned_vector<std::uint32_t>& dst_col() const { return dst_; }
  const net::aligned_vector<std::uint16_t>& src_port_col() const { return src_port_; }
  const net::aligned_vector<std::uint16_t>& dst_port_col() const { return dst_port_; }
  const net::aligned_vector<std::uint8_t>& proto_col() const { return proto_; }
  const net::aligned_vector<std::uint64_t>& packets_col() const { return packets_; }
  const net::aligned_vector<std::uint64_t>& bytes_col() const { return bytes_; }
  const net::aligned_vector<std::uint16_t>& router_col() const { return router_; }

 private:
  net::aligned_vector<std::int64_t> ts_ns_;
  net::aligned_vector<std::uint32_t> src_;
  net::aligned_vector<std::uint32_t> dst_;
  net::aligned_vector<std::uint16_t> src_port_;
  net::aligned_vector<std::uint16_t> dst_port_;
  net::aligned_vector<std::uint8_t> proto_;
  net::aligned_vector<std::uint64_t> packets_;
  net::aligned_vector<std::uint64_t> bytes_;
  net::aligned_vector<std::uint16_t> router_;
};

}  // namespace orion::flowsim
