// Sampled-NetFlow simulation at the ISP border: turns the scanner
// population's analytic arrivals plus the user-traffic model into
// per-router per-day flow rows, the substrate for Tables 2, 4 and 8.
// Each cell is generated in the form FDE1 stores (DESIGN.md §12.1).
#pragma once

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "orion/asdb/registry.hpp"
#include "orion/flowsim/flow_batch.hpp"
#include "orion/flowsim/routing.hpp"
#include "orion/flowsim/sampler.hpp"
#include "orion/flowsim/user_traffic.hpp"
#include "orion/netbase/five_tuple.hpp"
#include "orion/netbase/prefix.hpp"
#include "orion/packet/packet.hpp"
#include "orion/scangen/population.hpp"

namespace orion::flowsim {

struct FlowSimConfig {
  net::PrefixSet isp_space;
  std::int64_t start_day = 0;  // inclusive
  std::int64_t end_day = 1;    // exclusive
  std::uint32_t sampling_rate = 100;
  SamplingMode sampling_mode = SamplingMode::Random;
  std::uint64_t seed = 5;
  /// Share of user traffic crossing each border router.
  std::array<double, kRouterCount> user_router_share = {{0.36, 0.33, 0.31}};
  UserTrafficConfig user;
};

/// A sampled flow aggregate: source + destination port + traffic type
/// (destination addresses are not retained, mirroring the paper's
/// privacy-conscious aggregation).
struct FlowKey {
  net::Ipv4Address src;
  std::uint16_t dst_port = 0;
  pkt::TrafficType type = pkt::TrafficType::TcpSyn;

  friend constexpr auto operator<=>(const FlowKey&, const FlowKey&) = default;
};

/// A SAMPLED packet count for one flow key (multiply by the sampling rate
/// for the standard NetFlow volume estimate).
using KeyedCount = std::pair<FlowKey, std::uint64_t>;

/// Seals one (router, day) cell's sampled counts — any order, repeated
/// keys allowed — into its canonical rows: sorted by (src, dst_port,
/// type), one row per key with the counts summed, each stamped with the
/// day start, `router` and 40 bytes per SYN-sized packet (dst and
/// src_port zero). generate_flows, the NetFlow collector fold and FDE1
/// all hold flows in exactly this form.
FlowBatch canonical_rows(std::vector<KeyedCount> counts, std::uint16_t router,
                         std::int64_t day);

/// One (router, day) cell of flow data — what one FDE1 segment stores.
struct RouterDay {
  std::uint16_t router = 0;
  std::int64_t day = 0;
  /// Ground-truth totals (what SNMP interface counters would report).
  std::uint64_t total_packets = 0;
  std::uint64_t user_packets = 0;
  std::uint64_t scanner_packets = 0;
  /// The sampled flows, in canonical_rows form.
  FlowBatch rows;
};

class FlowDataset {
 public:
  /// `cells` holds every (router, day) cell of the config's window,
  /// router-major — FDE1's segment order (std::invalid_argument
  /// otherwise).
  FlowDataset(FlowSimConfig config, std::vector<RouterDay> cells);

  const RouterDay& at(std::size_t router, std::int64_t day) const;
  const std::vector<RouterDay>& cells() const { return cells_; }
  std::int64_t start_day() const { return config_.start_day; }
  std::int64_t end_day() const { return config_.end_day; }
  std::uint32_t sampling_rate() const { return config_.sampling_rate; }
  const FlowSimConfig& config() const { return config_; }

 private:
  FlowSimConfig config_;
  std::vector<RouterDay> cells_;
};

/// Runs the border simulation for a scanner population over the window.
/// Each scanner's traffic enters via the router its (stable) route maps
/// to; per-day arrival counts are binomially thinned from the session
/// model and split across overlapped days.
FlowDataset generate_flows(const scangen::Population& population,
                           const asdb::Registry& registry,
                           const PeeringPolicy& policy, FlowSimConfig config);

}  // namespace orion::flowsim
