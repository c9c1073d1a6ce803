#include "orion/flowsim/netflow_bridge.hpp"

#include <algorithm>

namespace orion::flowsim {

std::vector<std::vector<std::uint8_t>> export_router_day(
    const RouterDay& day, std::uint32_t sampling_rate, std::uint8_t engine_id) {
  std::vector<std::vector<std::uint8_t>> packets;
  std::vector<NetflowV5Record> batch;
  NetflowV5Header header;
  header.engine_id = engine_id;
  header.sampling_interval = static_cast<std::uint16_t>(sampling_rate & 0x3FFF);

  std::uint32_t sequence = 0;
  const auto flush = [&]() {
    if (batch.empty()) return;
    header.flow_sequence = sequence;
    packets.push_back(encode_netflow_v5(header, batch));
    sequence += static_cast<std::uint32_t>(batch.size());
    batch.clear();
  };

  const FlowBatch& rows = day.rows;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    NetflowV5Record record;
    record.src = rows.src(i);
    record.dst_port = rows.dst_port(i);
    record.protocol = rows.proto(i);
    // v5 counters are 32-bit; split oversized flows across records.
    std::uint64_t remaining = rows.packets(i);
    while (remaining > 0) {
      const std::uint32_t chunk = static_cast<std::uint32_t>(
          std::min<std::uint64_t>(remaining, 0xFFFFFFFFull));
      record.packets = chunk;
      record.octets = chunk * 40;  // SYN-sized
      batch.push_back(record);
      if (batch.size() == kNetflowV5MaxRecords) flush();
      remaining -= chunk;
    }
  }
  flush();
  return packets;
}

FlowBatch ingest_flow_batch(const std::vector<std::vector<std::uint8_t>>& packets,
                            std::size_t& rejected, std::uint16_t router,
                            std::int64_t ts_ns) {
  FlowBatch batch;
  rejected = 0;
  for (const auto& wire : packets) {
    if (!decode_netflow_v5_into(wire, batch, router, ts_ns)) ++rejected;
  }
  return batch;
}

FlowBatch fold_flow_batch(const FlowBatch& decoded, std::uint16_t router,
                          std::int64_t day) {
  std::vector<KeyedCount> counts;
  counts.reserve(decoded.size());
  for (std::size_t i = 0; i < decoded.size(); ++i) {
    counts.push_back({{decoded.src(i), decoded.dst_port(i),
                       decoded.traffic_type(i)},
                      decoded.packets(i)});
  }
  return canonical_rows(std::move(counts), router, day);
}

}  // namespace orion::flowsim
