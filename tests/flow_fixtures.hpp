// Flow fixtures for the suites that hand-build flow data or query it.
//
// A simulated cell is its canonical rows plus totals (flowsim::RouterDay),
// and the analyzer reads only FDE1 bytes, so a hand-built dataset is a
// grid of cells sealed by flowsim::canonical_rows, queried through its
// in-memory FDE1 image.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "orion/flowsim/flows.hpp"
#include "orion/impact/flow_join.hpp"
#include "orion/store/fde1.hpp"
#include "orion/store/mapped_flow.hpp"

namespace orion::test_flows {

/// Every (router, day) cell of [start_day, end_day), router-major and
/// empty: the grid a FlowDataset holds, for a fixture to fill.
inline std::vector<flowsim::RouterDay> grid(std::int64_t start_day,
                                            std::int64_t end_day) {
  std::vector<flowsim::RouterDay> cells;
  for (std::size_t router = 0; router < flowsim::kRouterCount; ++router) {
    for (std::int64_t day = start_day; day < end_day; ++day) {
      flowsim::RouterDay cell;
      cell.router = static_cast<std::uint16_t>(router);
      cell.day = day;
      cells.push_back(std::move(cell));
    }
  }
  return cells;
}

/// Seals hand-listed sampled counts into `cell`'s rows.
inline void set_rows(flowsim::RouterDay& cell,
                     std::vector<flowsim::KeyedCount> counts) {
  cell.rows = flowsim::canonical_rows(std::move(counts), cell.router, cell.day);
}

/// A dataset's in-memory FDE1 image and an analyzer over it. Build it in
/// place; the analyzer points at the image.
struct ImageAnalyzer {
  explicit ImageAnalyzer(const flowsim::FlowDataset& flows)
      : image(store::fde1_image(flows)), analyzer(&image) {}
  ImageAnalyzer(const ImageAnalyzer&) = delete;
  ImageAnalyzer& operator=(const ImageAnalyzer&) = delete;

  store::MappedFlowStore image;
  impact::FlowImpactAnalyzer analyzer;
};

/// The reference report of one cell: the scalar join over an index built
/// straight from the dataset's rows, independent of any FDE1 bytes.
inline impact::RouterDayReport reference_report(
    const flowsim::FlowDataset& flows, std::size_t router, std::int64_t day,
    const detect::IpSet& sources) {
  const flowsim::RouterDay& cell = flows.at(router, day);
  impact::FlowSourceIndex index;
  index.append(cell.rows);
  index.finalize();
  return impact::join_flow_index_scalar(index, sources, flows.sampling_rate(),
                                        cell.total_packets, router, day);
}

}  // namespace orion::test_flows
