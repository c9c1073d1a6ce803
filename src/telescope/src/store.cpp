#include "orion/telescope/store.hpp"

#include <ostream>

namespace orion::telescope {

void write_events_csv(const EventDataset& dataset, std::ostream& out) {
  out << "src,dst_port,type,start_ns,end_ns,packets,unique_dests,"
         "zmap_pkts,masscan_pkts,mirai_pkts,other_pkts\n";
  for (const DarknetEvent& e : dataset.events()) {
    out << e.key.src.to_string() << ',' << e.key.dst_port << ','
        << to_string(e.key.type) << ',' << e.start.since_epoch().total_nanos()
        << ',' << e.end.since_epoch().total_nanos() << ',' << e.packets << ','
        << e.unique_dests;
    for (const std::uint64_t t : e.packets_by_tool) out << ',' << t;
    out << '\n';
  }
}

}  // namespace orion::telescope
