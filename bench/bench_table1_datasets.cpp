// Table 1 — Description of Datasets: packets, source IPs, destination IPs
// and events for Darknet-1/2 and the two flow windows.
#include <iostream>
#include <unordered_set>

#include "common.hpp"

int main() {
  using namespace orion;
  const bench::World& world = bench::World::instance();

  bench::print_header(
      "Table 1: Description of Datasets",
      "Darknet-1: 1,098B pkts / 123M srcs / 0.475M dsts / 26B events; "
      "Darknet-2: 833B / 57M / 0.475M / 32B; Flows-1: 7,560B pkts / 7M srcs; "
      "Flows-2: 770B pkts / 2.7M srcs (scaled world => smaller absolutes, "
      "same orderings)");

  report::Table table({"", "Darknet-1", "Darknet-2", "Flows-1", "Flows-2"});

  // Darknet columns come straight from the event datasets (+ noise).
  const auto darknet_packets = [&](int year) {
    std::uint64_t noise = 0;
    for (const std::uint64_t n : world.noise_series(year)) noise += n;
    return world.dataset(year).total_packets() + noise;
  };

  // Flow columns come from the border simulation over the paper's windows.
  const auto flows1 =
      bench::merit_flows(world, 2022, bench::flows1_start(), bench::flows1_end());
  const auto flows2 =
      bench::merit_flows(world, 2022, bench::flows2_day(), bench::flows2_day() + 1);

  struct FlowStats {
    std::uint64_t packets = 0;
    std::size_t sources = 0;
  };
  const auto flow_stats = [](const flowsim::FlowDataset& flows) {
    FlowStats stats;
    std::unordered_set<net::Ipv4Address> sources;
    for (std::size_t router = 0; router < flowsim::kRouterCount; ++router) {
      for (std::int64_t day = flows.start_day(); day < flows.end_day(); ++day) {
        const flowsim::RouterDay& rd = flows.at(router, day);
        stats.packets += rd.total_packets;
        for (const std::uint32_t src : rd.rows.src_col()) {
          sources.insert(net::Ipv4Address(src));
        }
      }
    }
    stats.sources = sources.size();
    return stats;
  };
  const FlowStats f1 = flow_stats(flows1);
  const FlowStats f2 = flow_stats(flows2);

  table.add_row({"Packets (M)",
                 report::fmt_double(darknet_packets(2021) / 1e6, 0),
                 report::fmt_double(darknet_packets(2022) / 1e6, 0),
                 report::fmt_double(f1.packets / 1e6, 0),
                 report::fmt_double(f2.packets / 1e6, 0)});
  // Flow source counts only cover scanners with sampled flows — user-side
  // sources are modeled in aggregate, mirrored by the dash in the paper's
  // event row.
  table.add_row({"Source IPs (K)",
                 report::fmt_double(world.dataset(2021).unique_sources() / 1e3, 1),
                 report::fmt_double(world.dataset(2022).unique_sources() / 1e3, 1),
                 report::fmt_double(f1.sources / 1e3, 1) + " (scanners)",
                 report::fmt_double(f2.sources / 1e3, 1) + " (scanners)"});
  table.add_row({"Dest. IPs (K)",
                 report::fmt_double(world.scenario().darknet().total_addresses() / 1e3, 1),
                 report::fmt_double(world.scenario().darknet().total_addresses() / 1e3, 1),
                 report::fmt_double(world.scenario().merit().total_addresses() / 1e3, 1),
                 report::fmt_double(world.scenario().merit().total_addresses() / 1e3, 1)});
  table.add_row({"Total Events (K)",
                 report::fmt_double(world.dataset(2021).event_count() / 1e3, 1),
                 report::fmt_double(world.dataset(2022).event_count() / 1e3, 1),
                 "-", "-"});
  std::cout << table.to_ascii();

  std::cout << "\nshape checks vs paper:\n"
            << "  Flows packets >> Darknet packets:  "
            << (f1.packets > darknet_packets(2022) ? "yes" : "NO") << "\n"
            << "  source-IP counts same order of magnitude across years\n"
               "  (deviation: the paper's Darknet-1 has 2.2x MORE sources; our\n"
               "  scaled 2022 carries a larger small-scanner tail to reproduce\n"
               "  the Definition-2 threshold drop, see EXPERIMENTS.md):  "
            << (world.dataset(2021).unique_sources() * 3 >
                        world.dataset(2022).unique_sources()
                    ? "yes"
                    : "NO")
            << "\n";
  return 0;
}
