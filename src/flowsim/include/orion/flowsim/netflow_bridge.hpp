// Bridges the simulated flow cells and the NetFlow v5 wire format:
// export a RouterDay's rows as a stream of v5 export packets (what the
// simulated router would actually emit toward a collector) and fold
// received packets back into canonical rows (what a collector ingests).
// Rows surviving the round trip prove the whole collection path speaks
// real NetFlow.
#pragma once

#include <cstdint>
#include <vector>

#include "orion/flowsim/flow_batch.hpp"
#include "orion/flowsim/flows.hpp"
#include "orion/flowsim/netflow5.hpp"

namespace orion::flowsim {

/// Serializes a router-day's rows, in their canonical order, as NetFlow
/// v5 export packets (30 records each, sequence numbers chained; flows
/// over 2^32 - 1 packets split across adjacent records).
std::vector<std::vector<std::uint8_t>> export_router_day(
    const RouterDay& day, std::uint32_t sampling_rate, std::uint8_t engine_id);

/// Collector side, batched: decodes every export packet straight into one
/// columnar FlowBatch arena (rows appear in wire order, split oversized
/// flows as adjacent rows). Packets failing to decode are counted in
/// `rejected` and contribute no rows.
FlowBatch ingest_flow_batch(const std::vector<std::vector<std::uint8_t>>& packets,
                            std::size_t& rejected, std::uint16_t router = 0,
                            std::int64_t ts_ns = 0);

/// Collector side, folded: the canonical_rows of decoded rows, so split
/// oversized flows merge back into one row. For a cell's export stream,
/// fold_flow_batch(ingest_flow_batch(export_router_day(cell)), router,
/// day) gives back cell.rows (tests/flowjoin_test.cpp).
FlowBatch fold_flow_batch(const FlowBatch& decoded, std::uint16_t router,
                          std::int64_t day);

}  // namespace orion::flowsim
