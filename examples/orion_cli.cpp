// orion_cli — command-line front-end to the orionscan pipeline.
//
//   orion_cli simulate  --out events.ode2 [--scenario tiny|paper] [--year 2021|2022]
//   orion_cli aggregate --pcap capture.pcap --darknet 198.18.0.0/22 --out events.ode2
//   orion_cli filter    --in events.ode2 --out clean.ode2
//   orion_cli detect    --in events.ode2 --lists lists.csv
//                       [--dispersion 0.10] [--alpha2 0.028] [--alpha3 2e-4]
//   orion_cli export    --in events.ode2 --csv events.csv
//   orion_cli summary   --in events.ode2
//   orion_cli inspect   --in events.ode2
//   orion_cli flow-impact --in events.ode2 [--flows flows.fde1]
//                       [--scenario tiny|paper] [--year 2021|2022]
//                       [--days N] [--sampling-rate N]
//   orion_cli flow-convert --in flows.{fde1,nfv5,csv} --out flows.fde1
//                       [--block-flows N] [--sampling-rate N] [--router N]
//   orion_cli flow-inspect --in flows.{fde1,nfv5,csv}
//   orion_cli serve-query --port N [--host H] [--kind impact|info|ping]
//                       [--router N] [--day N] [--sources IP,IP,...]
//                       [--tenant NAME]
//   orion_cli cpu
//   orion_cli help
//
// Subcommands live in a declarative registry (kCommands): name, flag
// synopsis, one-line description, handler. usage() and `orion_cli help`
// are generated from it, and main() dispatches through it.
//
// Event datasets travel in the ODE2 columnar format (store/ode2.hpp):
// every event-writing command writes it, and every --in flag opens it with
// MappedEventStore. Flow datasets travel in the FDE1 columnar format
// (store/fde1.hpp), and every flow-reading path sniffs FDE1 vs the legacy
// inputs (NetFlow v5 export-packet streams, flow CSV).
// Daily AH lists use the CSV format of detect/lists.hpp.
//
// Every per-cell impact/store answer — local (flow-impact, flow-inspect)
// or remote (serve-query against a running orion_serve) — is a typed
// serve::QueryRequest executed by serve::execute_query, so the CLI and
// the daemon can never drift apart.
#include <algorithm>
#include <charconv>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "orion/detect/detector.hpp"
#include "orion/flowsim/netflow5.hpp"
#include "orion/detect/list_diff.hpp"
#include "orion/detect/lists.hpp"
#include "orion/detect/spoof_filter.hpp"
#include "orion/impact/flow_join.hpp"
#include "orion/netbase/crc32.hpp"
#include "orion/netbase/simd.hpp"
#include "orion/packet/pcap.hpp"
#include "orion/report/table.hpp"
#include "orion/scangen/event_synth.hpp"
#include "orion/scangen/scenario.hpp"
#include "orion/serve/client.hpp"
#include "orion/serve/engine.hpp"
#include "orion/serve/protocol.hpp"
#include "orion/store/fde1.hpp"
#include "orion/store/mapped.hpp"
#include "orion/store/mapped_flow.hpp"
#include "orion/store/ode2.hpp"
#include "orion/telescope/capture.hpp"
#include "orion/telescope/store.hpp"

namespace {

using namespace orion;

using Flags = std::map<std::string, std::string>;

int cmd_simulate(const Flags& flags);
int cmd_aggregate(const Flags& flags);
int cmd_filter(const Flags& flags);
int cmd_detect(const Flags& flags);
int cmd_export(const Flags& flags);
int cmd_summary(const Flags& flags);
int cmd_inspect(const Flags& flags);
int cmd_diff(const Flags& flags);
int cmd_flow_impact(const Flags& flags);
int cmd_flow_convert(const Flags& flags);
int cmd_flow_inspect(const Flags& flags);
int cmd_serve_query(const Flags& flags);
int cmd_cpu(const Flags& flags);
int cmd_help(const Flags& flags);

/// One subcommand: everything usage(), `orion_cli help` and main()'s
/// dispatch need, in one row. Adding a command is adding a row.
struct Command {
  const char* name;
  const char* synopsis;  // flag summary, shown by usage()
  const char* brief;     // one-line description, shown by `help`
  int (*handler)(const Flags& flags);
};

constexpr Command kCommands[] = {
    {"simulate", "--out FILE [--scenario tiny|paper] [--year 2021|2022]",
     "synthesize a darknet event dataset from a scenario", cmd_simulate},
    {"aggregate", "--pcap FILE --darknet CIDR --out FILE [--timeout-min N]",
     "aggregate a pcap into darknet events", cmd_aggregate},
    {"filter", "--in FILE --out FILE [--darknet CIDR]",
     "drop spoofed/misconfigured traffic from an event dataset", cmd_filter},
    {"detect",
     "--in FILE [--lists FILE] [--dispersion F] [--alpha2 F] [--alpha3 F]",
     "run the three AH definitions and print per-definition counts",
     cmd_detect},
    {"export", "--in FILE --csv FILE", "export an event dataset as CSV",
     cmd_export},
    {"summary", "--in FILE", "print event dataset totals", cmd_summary},
    {"inspect", "--in FILE", "verify an ODE2 archive and print metadata",
     cmd_inspect},
    {"diff", "--old LISTS.csv --new LISTS.csv",
     "diff two daily AH lists (churn, added, removed)", cmd_diff},
    {"flow-impact",
     "--in FILE [--flows FILE] [--scenario tiny|paper]\n"
     "              [--year 2021|2022] [--days N] [--sampling-rate N]\n"
     "              [--dispersion F]",
     "join AH sources against border flows (Table 2 rows)", cmd_flow_impact},
    {"flow-convert",
     "--in FILE --out FILE [--block-flows N]\n"
     "              [--sampling-rate N] [--router N]",
     "lift FDE1/NetFlow-v5/CSV flows into an FDE1 archive", cmd_flow_convert},
    {"flow-inspect", "--in FILE",
     "verify an FDE1/NFV5/CSV flow input and print metadata",
     cmd_flow_inspect},
    {"serve-query",
     "--port N [--host H] [--kind impact|info|ping]\n"
     "              [--router N] [--day N] [--sources IP,IP,...] [--tenant NAME]",
     "query a running orion_serve daemon over the OQP1 protocol",
     cmd_serve_query},
    {"cpu", "", "print the detected/active SIMD tier and CPU features",
     cmd_cpu},
    {"help", "", "list every command with a one-line description", cmd_help},
};

[[noreturn]] void usage(const std::string& error = "") {
  if (!error.empty()) std::cerr << "error: " << error << "\n\n";
  std::cerr << "usage: orion_cli <command> [options]\n";
  for (const Command& command : kCommands) {
    std::string line = "  ";
    line += command.name;
    const std::size_t pad = line.size() < 14 ? 14 - line.size() : 1;
    line.append(pad, ' ');
    line += command.synopsis;
    std::cerr << line << "\n";
  }
  std::cerr << "run `orion_cli help` for one-line descriptions\n";
  std::exit(2);
}

std::map<std::string, std::string> parse_flags(int argc, char** argv, int from) {
  std::map<std::string, std::string> flags;
  for (int i = from; i < argc; ++i) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) usage("unexpected argument: " + key);
    if (i + 1 >= argc) usage("missing value for " + key);
    flags[key.substr(2)] = argv[++i];
  }
  return flags;
}

std::string require(const std::map<std::string, std::string>& flags,
                    const std::string& key) {
  const auto it = flags.find(key);
  if (it == flags.end()) usage("missing required --" + key);
  return it->second;
}

std::string get_or(const std::map<std::string, std::string>& flags,
                   const std::string& key, const std::string& fallback) {
  const auto it = flags.find(key);
  return it == flags.end() ? fallback : it->second;
}

/// Runs read() on the event archive at `path`: opening it, or scanning it
/// in place. A failure exits 1 naming the file.
template <typename Read>
auto loading(const std::string& path, Read&& read) {
  try {
    return read();
  } catch (const std::exception& e) {
    std::cerr << "error: cannot load " << path << ": " << e.what() << "\n";
    std::exit(1);
  }
}

telescope::EventDataset load_dataset(const std::string& path) {
  return loading(path, [&] { return store::MappedEventStore(path).to_dataset(); });
}

/// Opens the event archive at `path` for a scan in place, CRC-checking
/// every block first: the scans read rows without a check of their own.
/// A failure exits 1 naming the file.
store::MappedEventStore open_verified(const std::string& path) {
  return loading(path, [&] {
    store::MappedEventStore events(path);
    const std::size_t bad = events.verify_blocks();
    if (bad != events.block_count()) {
      throw std::runtime_error("ode2 store: block " + std::to_string(bad) + " CRC mismatch");
    }
    return events;
  });
}

void save_dataset(const telescope::EventDataset& dataset, const std::string& path) {
  try {
    store::write_events_ode2_file(dataset, path);
  } catch (const std::exception& e) {
    std::cerr << "error: cannot write " << path << ": " << e.what() << "\n";
    std::exit(1);
  }
  std::cout << "wrote " << dataset.event_count() << " events to " << path << "\n";
}

net::PrefixSet parse_prefix_set(const std::string& cidr) {
  const auto p = net::Prefix::parse(cidr);
  if (!p) {
    std::cerr << "error: bad CIDR: " << cidr << "\n";
    std::exit(1);
  }
  return net::PrefixSet({*p});
}

int cmd_simulate(const std::map<std::string, std::string>& flags) {
  const std::string out = require(flags, "out");
  const std::string which = get_or(flags, "scenario", "tiny");
  const int year = std::stoi(get_or(flags, "year", "2021"));
  if (year != 2021 && year != 2022) usage("--year must be 2021 or 2022");

  const scangen::Scenario scenario{which == "paper" ? scangen::paper_scaled()
                                   : which == "tiny" ? scangen::tiny()
                                                     : (usage("--scenario must be tiny or paper"),
                                                        scangen::tiny())};
  const auto& population = year == 2021 ? scenario.population_2021()
                                        : scenario.population_2022();
  const telescope::EventDataset dataset(
      scangen::synthesize_events(
          population, {.darknet_size = scenario.darknet().total_addresses(),
                       .seed = scenario.config().seed}),
      scenario.darknet().total_addresses());
  save_dataset(dataset, out);
  return 0;
}

int cmd_aggregate(const std::map<std::string, std::string>& flags) {
  const std::string pcap_path = require(flags, "pcap");
  const std::string out = require(flags, "out");
  const net::PrefixSet dark = parse_prefix_set(require(flags, "darknet"));

  telescope::AggregatorConfig config;
  const std::string timeout = get_or(flags, "timeout-min", "");
  config.timeout = timeout.empty()
                       ? telescope::derive_timeout(dark.total_addresses(), 100.0,
                                                   net::Duration::days(2))
                       : net::Duration::minutes(std::stoll(timeout));
  telescope::TelescopeCapture capture(dark, config);
  pkt::PcapReader reader(pcap_path);
  while (auto packet = reader.next()) capture.observe(*packet);
  std::cout << "read " << reader.packets_read() << " packets ("
            << reader.skipped() << " skipped) from " << pcap_path << "\n";
  save_dataset(capture.finish(), out);
  return 0;
}

int cmd_filter(const std::map<std::string, std::string>& flags) {
  const telescope::EventDataset dataset = load_dataset(require(flags, "in"));
  const std::string dark = get_or(flags, "darknet", "");
  net::PrefixSet dark_space;
  if (!dark.empty()) dark_space = parse_prefix_set(dark);

  detect::SpoofFilter filter({}, dark_space);
  detect::SpoofFilterStats stats;
  auto clean = filter.run(dataset.events(), stats);
  std::cout << "clean " << stats.clean << " | bogon " << stats.bogon
            << " | own-space " << stats.own_space << " | misconfig "
            << stats.misconfiguration << " | spoofed-burst "
            << stats.backscatter << "\n";
  save_dataset(telescope::EventDataset(std::move(clean), dataset.darknet_size()),
               require(flags, "out"));
  return 0;
}

int cmd_detect(const std::map<std::string, std::string>& flags) {
  const std::string in = require(flags, "in");
  const auto events = open_verified(in);
  detect::DetectorConfig config;
  config.dispersion_threshold = std::stod(get_or(flags, "dispersion", "0.10"));
  config.packet_volume_alpha = std::stod(get_or(flags, "alpha2", "0.028"));
  config.port_count_alpha = std::stod(get_or(flags, "alpha3", "2e-4"));
  try {
    detect::validate(config);
  } catch (const std::invalid_argument& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }

  const detect::DetectionResult result = loading(
      in, [&] { return detect::AggressiveScannerDetector(config).detect(events); });

  report::Table table({"definition", "AH IPs", "threshold", "qualifying events"});
  for (const detect::Definition d : detect::kAllDefinitions) {
    const detect::DefinitionResult& def = result.of(d);
    table.add_row({to_string(d), report::fmt_count(def.ips.size()),
                   def.threshold == 0 ? ">=10% dispersion"
                                      : report::fmt_count(def.threshold),
                   report::fmt_count(def.qualifying_events)});
  }
  std::cout << table.to_ascii();

  const auto lists_path = flags.find("lists");
  if (lists_path != flags.end()) {
    std::ofstream out(lists_path->second, std::ios::trunc);
    if (!out) {
      std::cerr << "error: cannot open " << lists_path->second << "\n";
      return 1;
    }
    const auto entries = detect::build_daily_lists(result);
    detect::write_daily_lists_csv(entries, out);
    std::cout << "\nwrote " << entries.size() << " daily-list entries to "
              << lists_path->second << "\n";
  }
  return 0;
}

int cmd_export(const std::map<std::string, std::string>& flags) {
  const telescope::EventDataset dataset = load_dataset(require(flags, "in"));
  std::ofstream out(require(flags, "csv"), std::ios::trunc);
  if (!out) {
    std::cerr << "error: cannot open output csv\n";
    return 1;
  }
  telescope::write_events_csv(dataset, out);
  std::cout << "exported " << dataset.event_count() << " events\n";
  return 0;
}

int cmd_diff(const std::map<std::string, std::string>& flags) {
  const auto load = [](const std::string& path) {
    std::ifstream in(path);
    if (!in) {
      std::cerr << "error: cannot open " << path << "\n";
      std::exit(1);
    }
    return detect::read_daily_lists_csv(in);
  };
  const auto old_entries = load(require(flags, "old"));
  const auto new_entries = load(require(flags, "new"));
  const detect::ListDiff diff = detect::diff_daily_lists(old_entries, new_entries);
  std::cout << "added " << diff.added.size() << " | removed "
            << diff.removed.size() << " | stable " << diff.stable
            << " | churn " << report::fmt_percent(diff.churn(), 1) << "\n";
  for (const net::Ipv4Address ip : diff.added) {
    std::cout << "+ " << ip.to_string() << "\n";
  }
  for (const net::Ipv4Address ip : diff.removed) {
    std::cout << "- " << ip.to_string() << "\n";
  }
  return 0;
}

int cmd_inspect(const std::map<std::string, std::string>& flags) {
  const std::string in = require(flags, "in");
  try {
    const store::MappedEventStore store(in);
    const std::size_t first_bad = store.verify_blocks();
    report::Table table({"metric", "value"});
    table.add_row({"darknet size", report::fmt_count(store.darknet_size())});
    table.add_row({"events", report::fmt_count(store.event_count())});
    table.add_row({"blocks", report::fmt_count(store.block_count()) + " x " +
                                 report::fmt_count(store.block_events()) +
                                 " events"});
    table.add_row({"file bytes", report::fmt_count(store.file_bytes())});
    table.add_row({"mapped", store.mapped() ? "mmap" : "buffered fallback"});
    if (store.event_count() > 0) {
      table.add_row({"first day", net::day_label(store.first_day())});
      table.add_row({"last day", net::day_label(store.last_day())});
    }
    table.add_row({"block CRCs", first_bad == store.block_count()
                                     ? "all clean"
                                     : "FIRST BAD: block " +
                                           std::to_string(first_bad)});
    std::cout << table.to_ascii();
    return first_bad == store.block_count() ? 0 : 1;
  } catch (const std::exception& e) {
    // Strict open failed; report what salvage can still recover.
    const store::Ode2SalvageResult salvage = store::read_events_ode2_salvage(in);
    report::Table table({"metric", "value"});
    table.add_row({"strict open", std::string("FAILED: ") + e.what()});
    table.add_row({"declared events", report::fmt_count(salvage.declared_count)});
    table.add_row({"recovered events", report::fmt_count(salvage.recovered_count)});
    table.add_row({"footer intact", salvage.footer_intact ? "yes" : "NO"});
    if (!salvage.error.empty()) table.add_row({"error", salvage.error});
    std::cout << table.to_ascii();
    return 1;
  }
}

// ------------------------------------------------------------- flow I/O
//
// Every flow-reading path funnels through here: sniff the input, read
// FDE1 directly, and lift the legacy inputs (NetFlow v5 export-packet
// streams, flow CSV) into the same representation.

constexpr std::int64_t kNanosPerDayCli = 86'400'000'000'000;

/// Parses a NetFlow v5 export-packet stream into FlowRecords: every
/// record is stamped with its packet header's unix_secs and the given
/// router id (v5 exports carry no router field).
std::vector<flowsim::FlowRecord> read_netflow_v5_flows(
    const std::string& path, std::uint16_t router, std::uint32_t* sampling_out) {
  std::ifstream in(path, std::ios::binary);
  const std::vector<char> raw{std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>()};
  const std::span<const std::uint8_t> bytes{
      reinterpret_cast<const std::uint8_t*>(raw.data()), raw.size()};

  std::vector<flowsim::FlowRecord> records;
  std::size_t offset = 0;
  bool first = true;
  while (offset < bytes.size()) {
    const auto packet = flowsim::decode_netflow_v5(bytes.subspan(offset));
    if (!packet) {
      std::cerr << "error: bad NetFlow v5 packet at byte " << offset << "\n";
      std::exit(1);
    }
    if (first && sampling_out != nullptr) {
      const std::uint32_t interval = packet->header.sampling_interval & 0x3FFF;
      if (interval != 0) *sampling_out = interval;
      first = false;
    }
    const std::int64_t ts_ns =
        static_cast<std::int64_t>(packet->header.unix_secs) * 1'000'000'000;
    for (const flowsim::NetflowV5Record& r : packet->records) {
      flowsim::FlowRecord flow;
      flow.ts_ns = ts_ns;
      flow.src = r.src;
      flow.dst = r.dst;
      flow.src_port = r.src_port;
      flow.dst_port = r.dst_port;
      flow.proto = r.protocol;
      flow.packets = r.packets;
      flow.bytes = r.octets;
      flow.router = router;
      records.push_back(flow);
    }
    offset += flowsim::kNetflowV5HeaderSize +
              packet->records.size() * flowsim::kNetflowV5RecordSize;
  }
  return records;
}

/// Parses the flow CSV form:
///   router,ts_ns,src,dst,src_port,dst_port,proto,packets,bytes
/// (header line optional; blank lines skipped). A malformed row is an
/// error naming its line, never a wrapped or partial value.
std::vector<flowsim::FlowRecord> read_csv_flows(const std::string& path) {
  std::ifstream in(path);
  std::vector<flowsim::FlowRecord> records;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    if (line_no == 1 && line.rfind("router", 0) == 0) continue;  // header
    const auto bad = [&](const std::string& what) {
      std::cerr << "error: " << path << ":" << line_no << ": " << what << "\n";
      std::exit(1);
    };
    std::stringstream row(line);
    std::string field;
    std::vector<std::string> fields;
    while (std::getline(row, field, ',')) fields.push_back(field);
    if (fields.size() != 9) bad("expected 9 comma-separated fields");
    const auto src = net::Ipv4Address::parse(fields[2]);
    const auto dst = net::Ipv4Address::parse(fields[3]);
    if (!src || !dst) bad("bad address");
    flowsim::FlowRecord flow;
    flow.src = *src;
    flow.dst = *dst;
    // The whole field, digits only ('-' only for ts_ns), in range.
    const auto parse = [&](std::size_t column, const char* name, auto& out) {
      const std::string& text = fields[column];
      const char* end = text.data() + text.size();
      const auto [stop, ec] = std::from_chars(text.data(), end, out);
      if (ec != std::errc{} || stop != end) bad(std::string("bad ") + name);
    };
    parse(0, "router", flow.router);
    parse(1, "ts_ns", flow.ts_ns);
    parse(4, "src_port", flow.src_port);
    parse(5, "dst_port", flow.dst_port);
    parse(6, "proto", flow.proto);
    parse(7, "packets", flow.packets);
    parse(8, "bytes", flow.bytes);
    records.push_back(flow);
  }
  return records;
}

/// A flow input in FDE1's form: its (router, day) cells and their window.
struct LiftedFlows {
  std::uint32_t sampling_rate = 0;
  std::int64_t start_day = 0;
  std::int64_t end_day = 0;
  std::vector<flowsim::RouterDay> cells;
};

/// Groups loose flow records into the sorted per-(router, day) cells FDE1
/// requires, every record kept as its own row (split NetFlow records are
/// not merged). External data has no SNMP side, so each cell's
/// total_packets is the sampled-count-scaled estimate at the rate the
/// archive header records, lifted.sampling_rate (user/scanner splits stay
/// zero), the same rate the analyzer scales matched packets by.
void group_records(std::vector<flowsim::FlowRecord> records,
                   LiftedFlows& lifted) {
  std::sort(records.begin(), records.end(),
            [](const flowsim::FlowRecord& a, const flowsim::FlowRecord& b) {
              return std::tuple(a.router, a.ts_ns / kNanosPerDayCli, a.src,
                                a.dst_port, flowsim::traffic_type_of(a.proto)) <
                     std::tuple(b.router, b.ts_ns / kNanosPerDayCli, b.src,
                                b.dst_port, flowsim::traffic_type_of(b.proto));
            });
  std::vector<flowsim::RouterDay>& cells = lifted.cells;
  for (const flowsim::FlowRecord& r : records) {
    const std::int64_t day = r.ts_ns / kNanosPerDayCli;
    if (cells.empty() || cells.back().router != r.router ||
        cells.back().day != day) {
      cells.emplace_back();
      cells.back().router = r.router;
      cells.back().day = day;
    }
    cells.back().rows.push_back(r);
    cells.back().total_packets += r.packets * lifted.sampling_rate;
  }
  const auto [first, last] = std::minmax_element(
      cells.begin(), cells.end(),
      [](const auto& a, const auto& b) { return a.day < b.day; });
  if (first != cells.end()) {
    lifted.start_day = first->day;
    lifted.end_day = last->day + 1;
  }
}

/// Lifts any sniffable flow input into FDE1 cells. An FDE1 input is
/// copied cell by cell (segments and totals exactly, ready to re-block);
/// legacy inputs are grouped and sorted.
LiftedFlows lift_flows(const std::string& in, std::uint32_t sampling_rate,
                       std::uint16_t router) {
  const std::string format = store::sniff_flow_format(in);
  LiftedFlows lifted;
  lifted.sampling_rate = sampling_rate;
  if (format == "FDE1") {
    const store::MappedFlowStore mapped(in);
    lifted.sampling_rate = mapped.sampling_rate();
    lifted.start_day = mapped.start_day();
    lifted.end_day = mapped.end_day();
    lifted.cells.reserve(mapped.segments().size());
    for (const store::FlowSegment& seg : mapped.segments()) {
      lifted.cells.push_back(mapped.cell(seg));
    }
  } else if (format == "NFV5") {
    // The stream's sampling interval, when it declares one, replaces
    // --sampling-rate before group_records scales any total by it.
    group_records(read_netflow_v5_flows(in, router, &lifted.sampling_rate), lifted);
  } else if (format == "CSV") {
    group_records(read_csv_flows(in), lifted);
  } else {
    std::cerr << "error: " << in << " is not an FDE1/NFV5/CSV flow input\n";
    std::exit(1);
  }
  return lifted;
}

int cmd_flow_convert(const std::map<std::string, std::string>& flags) {
  const std::string in = require(flags, "in");
  const std::string out = require(flags, "out");
  const std::uint64_t block_flows = std::stoull(
      get_or(flags, "block-flows", std::to_string(store::kFde1DefaultBlockFlows)));
  const auto sampling_rate = static_cast<std::uint32_t>(
      std::stoul(get_or(flags, "sampling-rate", "100")));
  const auto router =
      static_cast<std::uint16_t>(std::stoul(get_or(flags, "router", "0")));
  const LiftedFlows lifted = lift_flows(in, sampling_rate, router);
  const std::uint64_t bytes = store::write_flows_fde1_file(
      lifted.sampling_rate, lifted.start_day, lifted.end_day, lifted.cells, out,
      block_flows);
  const store::MappedFlowStore mapped(out);
  std::cout << "wrote " << mapped.flow_count() << " flows in "
            << mapped.segments().size() << " (router, day) segments ("
            << bytes << " bytes, " << block_flows << " flows/block) to "
            << out << "\n";
  return 0;
}

int cmd_flow_inspect(const std::map<std::string, std::string>& flags) {
  const std::string in = require(flags, "in");
  const std::string format = store::sniff_flow_format(in);
  std::cout << "format: " << format << "\n";
  if (format == "NFV5") {
    std::uint32_t sampling = 0;
    const auto records = read_netflow_v5_flows(in, 0, &sampling);
    std::cout << records.size() << " flow records"
              << (sampling ? " (1:" + std::to_string(sampling) + " sampled)"
                           : "")
              << "; run flow-convert to archive as FDE1\n";
    return 0;
  }
  if (format == "CSV") {
    std::cout << read_csv_flows(in).size()
              << " flow records; run flow-convert to archive as FDE1\n";
    return 0;
  }
  if (format != "FDE1") {
    std::cerr << "error: " << in << " is not an FDE1/NFV5/CSV flow input\n";
    return 1;
  }
  try {
    const store::MappedFlowStore mapped(in);
    const std::size_t first_bad = mapped.verify_blocks();
    // The store-facing half of the report goes through the same typed
    // query the daemon serves — one StoreInfo request, one answer shape.
    serve::EngineBackend backend;
    backend.flows = &mapped;
    serve::QueryRequest request;
    request.kind = serve::QueryKind::StoreInfo;
    const serve::QueryResponse response = serve::execute_query(request, backend);
    if (response.status != serve::Status::Ok) {
      std::cerr << "error: " << response.error << "\n";
      return 1;
    }
    const serve::StoreInfoBody& info = response.info;
    report::Table table({"metric", "value"});
    table.add_row({"sampling rate", "1:" + std::to_string(info.sampling_rate)});
    table.add_row({"flows", report::fmt_count(info.flow_count)});
    table.add_row({"segments", report::fmt_count(info.segment_count)});
    table.add_row({"window", net::day_label(info.start_day) + " .. " +
                                 net::day_label(info.end_day - 1)});
    table.add_row({"blocks", report::fmt_count(mapped.block_count()) + " x " +
                                 report::fmt_count(mapped.block_flows()) +
                                 " flows"});
    table.add_row({"file bytes", report::fmt_count(mapped.file_bytes())});
    table.add_row({"mapped", mapped.mapped() ? "mmap" : "buffered fallback"});
    table.add_row({"block CRCs", first_bad == mapped.block_count()
                                     ? "all clean"
                                     : "FIRST BAD: block " +
                                           std::to_string(first_bad)});
    std::cout << table.to_ascii();
    return first_bad == mapped.block_count() ? 0 : 1;
  } catch (const std::exception& e) {
    const store::Fde1SalvageResult salvage = store::read_flows_fde1_salvage(in);
    report::Table table({"metric", "value"});
    table.add_row({"strict open", std::string("FAILED: ") + e.what()});
    table.add_row({"declared flows", report::fmt_count(salvage.declared_count)});
    table.add_row({"recovered flows", report::fmt_count(salvage.recovered_count)});
    table.add_row({"footer intact", salvage.footer_intact ? "yes" : "NO"});
    if (!salvage.error.empty()) table.add_row({"error", salvage.error});
    std::cout << table.to_ascii();
    return 1;
  }
}

int cmd_flow_impact(const std::map<std::string, std::string>& flags) {
  const std::string in = require(flags, "in");
  const auto events = open_verified(in);
  if (events.event_count() == 0) {
    std::cerr << "error: empty event dataset\n";
    return 1;
  }

  const std::string which = get_or(flags, "scenario", "tiny");
  if (which != "tiny" && which != "paper") {
    usage("--scenario must be tiny or paper");
  }
  const int year = std::stoi(get_or(flags, "year", "2021"));
  if (year != 2021 && year != 2022) usage("--year must be 2021 or 2022");
  const scangen::Scenario scenario{which == "paper" ? scangen::paper_scaled()
                                                    : scangen::tiny()};
  const auto& population = year == 2021 ? scenario.population_2021()
                                        : scenario.population_2022();

  // AH from the darknet's perspective of the given events.
  detect::DetectorConfig detector;
  detector.dispersion_threshold =
      std::stod(get_or(flags, "dispersion", "0.10"));
  const detect::DetectionResult result = loading(
      in, [&] { return detect::AggressiveScannerDetector(detector).detect(events); });
  const detect::IpSet& ah =
      result.of(detect::Definition::AddressDispersion).ips;
  std::cout << ah.size() << " definition-1 AH sources detected\n";

  // The flow side, always FDE1 queried zero-copy through MappedFlowStore:
  // an at-rest archive (--flows, sniffed FDE1 vs legacy NetFlow v5 / CSV,
  // which lift to an in-memory image), or the in-memory image of
  // simulated sampled NetFlow at the ISP border over the event window.
  const std::int64_t days = std::stoll(get_or(flags, "days", "7"));
  const auto sampling_rate = static_cast<std::uint32_t>(
      std::stoul(get_or(flags, "sampling-rate", "100")));
  std::optional<store::MappedFlowStore> mapped;
  const auto flows_path = flags.find("flows");
  if (flows_path != flags.end()) {
    const std::string& path = flows_path->second;
    const std::string format = store::sniff_flow_format(path);
    if (format == "FDE1") {
      mapped.emplace(path);
    } else {
      const LiftedFlows lifted = lift_flows(path, sampling_rate, 0);
      mapped.emplace(store::fde1_image(lifted.sampling_rate, lifted.start_day,
                                       lifted.end_day, lifted.cells));
      std::cout << "lifted " << format << " input to an in-memory FDE1 image\n";
    }
  } else {
    flowsim::FlowSimConfig config;
    config.isp_space = scenario.merit();
    config.start_day = events.first_day();
    config.end_day = std::min(events.last_day() + 1, config.start_day + days);
    if (config.end_day <= config.start_day) {
      config.end_day = config.start_day + 1;
    }
    config.sampling_rate = sampling_rate;
    config.user.base_pps = 4000;
    config.user.cache_fraction = 0.55;
    mapped.emplace(store::fde1_image(
        generate_flows(population, scenario.registry(),
                       flowsim::PeeringPolicy::merit_like(), std::move(config))));
  }
  const std::int64_t start_day = mapped->start_day();
  std::int64_t end_day = std::min(mapped->end_day(), start_day + days);
  if (end_day <= start_day) end_day = start_day + 1;
  const impact::FlowImpactAnalyzer analyzer(&*mapped);
  // Indexes for every (router, day) cell build in parallel, straight from
  // the column spans.
  analyzer.prebuild_indexes();

  // The Table 2 rows: one typed FlowImpact query per (router, day) cell,
  // executed by the same serve::execute_query the daemon runs — the CLI
  // is just a local client of the unified query API. Cells an external
  // archive never exported answer Status::NotFound and print as "-".
  serve::EngineBackend backend;
  backend.analyzer = &analyzer;
  backend.flows = &*mapped;
  serve::QueryRequest request;
  request.kind = serve::QueryKind::FlowImpact;
  request.tenant = "cli";
  request.sources.assign(ah.begin(), ah.end());
  report::Table table({"date", "router-1", "router-2", "router-3",
                       "visibility % (r1/r2/r3)"});
  for (std::int64_t day = start_day; day < end_day; ++day) {
    std::vector<std::string> row{net::day_label(day)};
    std::string visibility;
    for (std::size_t router = 0; router < flowsim::kRouterCount; ++router) {
      if (router) visibility += " / ";
      request.router = static_cast<std::uint32_t>(router);
      request.day = day;
      const serve::QueryResponse response =
          serve::execute_query(request, backend);
      if (response.status == serve::Status::NotFound) {
        row.push_back("-");
        visibility += "-";
        continue;
      }
      if (response.status != serve::Status::Ok) {
        std::cerr << "error: " << response.error << "\n";
        return 1;
      }
      const serve::FlowImpactBody& report = response.impact;
      row.push_back(report::fmt_count(report.matched_packets) + " (" +
                    report::fmt_double(report.percentage(), 2) + "%)");
      visibility += report::fmt_double(report.visibility_percent(), 1);
    }
    row.push_back(visibility);
    table.add_row(row);
  }
  std::cout << table.to_ascii();
  return 0;
}

int cmd_cpu(const std::map<std::string, std::string>& flags) {
  if (!flags.empty()) usage("cpu takes no options");
  report::Table table({"property", "value"});
  table.add_row({"simd compiled in", net::simd::compiled_in() ? "yes" : "no"});
  table.add_row({"detected tier", net::simd::to_string(net::simd::detected_level())});
  table.add_row({"active tier", net::simd::to_string(net::simd::active_level())});
  std::string tiers;
  for (const net::simd::Level level : net::simd::available_levels()) {
    if (!tiers.empty()) tiers += " ";
    tiers += net::simd::to_string(level);
  }
  table.add_row({"available tiers", tiers});
  table.add_row({"features", net::simd::feature_string()});
  table.add_row({"hardware crc32", net::crc32_hw_available() ? "yes" : "no"});
  table.add_row({"hardware threads",
                 std::to_string(std::thread::hardware_concurrency())});
  std::cout << table.to_ascii();
  std::cout << "active tier honors ORION_SIMD_LEVEL"
               " (scalar|sse42|avx2|neon; clamped to detected)\n";
  return 0;
}

int cmd_summary(const std::map<std::string, std::string>& flags) {
  const telescope::EventDataset dataset = load_dataset(require(flags, "in"));
  report::Table table({"metric", "value"});
  table.add_row({"darknet size", report::fmt_count(dataset.darknet_size())});
  table.add_row({"events", report::fmt_count(dataset.event_count())});
  table.add_row({"packets", report::fmt_count(dataset.total_packets())});
  table.add_row({"unique sources", report::fmt_count(dataset.unique_sources())});
  table.add_row({"first day", net::day_label(dataset.first_day())});
  table.add_row({"last day", net::day_label(dataset.last_day())});
  std::cout << table.to_ascii();
  return 0;
}

int cmd_serve_query(const Flags& flags) {
  serve::QueryRequest request;
  request.tenant = get_or(flags, "tenant", "cli");
  const std::string kind = get_or(flags, "kind", "impact");
  if (kind == "ping") {
    request.kind = serve::QueryKind::Ping;
  } else if (kind == "info") {
    request.kind = serve::QueryKind::StoreInfo;
  } else if (kind == "impact") {
    request.kind = serve::QueryKind::FlowImpact;
    request.router =
        static_cast<std::uint32_t>(std::stoul(require(flags, "router")));
    request.day = std::stoll(require(flags, "day"));
    std::stringstream list(get_or(flags, "sources", ""));
    std::string item;
    while (std::getline(list, item, ',')) {
      if (item.empty()) continue;
      const auto ip = net::Ipv4Address::parse(item);
      if (!ip) {
        std::cerr << "error: bad source address: " << item << "\n";
        return 1;
      }
      request.sources.push_back(*ip);
    }
  } else {
    usage("--kind must be impact, info or ping");
  }

  serve::Client client;
  try {
    client.connect(get_or(flags, "host", "127.0.0.1"),
                   static_cast<std::uint16_t>(
                       std::stoul(require(flags, "port"))));
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  const serve::QueryResponse response = client.call(request);
  if (response.status != serve::Status::Ok) {
    std::cerr << "error: " << serve::to_string(response.status)
              << (response.error.empty() ? "" : ": " + response.error)
              << " (generation " << response.generation << ")\n";
    return 1;
  }
  report::Table table({"metric", "value"});
  table.add_row({"generation", report::fmt_count(response.generation)});
  if (response.kind == serve::QueryKind::StoreInfo) {
    const serve::StoreInfoBody& info = response.info;
    table.add_row({"sampling rate", "1:" + std::to_string(info.sampling_rate)});
    table.add_row({"flows", report::fmt_count(info.flow_count)});
    table.add_row({"segments", report::fmt_count(info.segment_count)});
    table.add_row({"window", net::day_label(info.start_day) + " .. " +
                                 net::day_label(info.end_day - 1)});
    table.add_row({"events", info.has_events
                                 ? report::fmt_count(info.event_count)
                                 : std::string("(not published)")});
  } else if (response.kind == serve::QueryKind::FlowImpact) {
    const serve::FlowImpactBody& body = response.impact;
    table.add_row({"router-day", std::to_string(body.router) + " / " +
                                     net::day_label(body.day)});
    table.add_row({"matched packets",
                   report::fmt_count(body.matched_packets) + " of " +
                       report::fmt_count(body.total_packets) + " (" +
                       report::fmt_double(body.percentage(), 2) + "%)"});
    table.add_row({"matched sources",
                   report::fmt_count(body.matched_sources) + " of " +
                       report::fmt_count(body.probed_sources) + " (" +
                       report::fmt_double(body.visibility_percent(), 1) +
                       "% visible)"});
    table.add_row({"protocol mix (tcp-syn/udp/icmp)",
                   report::fmt_count(body.protocols[0]) + " / " +
                       report::fmt_count(body.protocols[1]) + " / " +
                       report::fmt_count(body.protocols[2])});
    std::string top_ports;
    std::vector<std::pair<std::uint16_t, std::uint64_t>> ports = body.ports;
    std::sort(ports.begin(), ports.end(),
              [](const auto& a, const auto& b) { return a.second > b.second; });
    for (std::size_t i = 0; i < ports.size() && i < 5; ++i) {
      if (i) top_ports += ", ";
      top_ports += std::to_string(ports[i].first) + ":" +
                   report::fmt_count(ports[i].second);
    }
    table.add_row({"top ports", top_ports.empty() ? "(none)" : top_ports});
  } else {
    table.add_row({"status", "ok (pong)"});
  }
  std::cout << table.to_ascii();
  return 0;
}

int cmd_help(const Flags& flags) {
  if (!flags.empty()) usage("help takes no options");
  report::Table table({"command", "description"});
  for (const Command& command : kCommands) {
    table.add_row({command.name, command.brief});
  }
  std::cout << table.to_ascii();
  std::cout << "\nusage: orion_cli <command> [--flag value ...]\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  const std::string command = argv[1];
  for (const Command& entry : kCommands) {
    if (command == entry.name) {
      return entry.handler(parse_flags(argc, argv, 2));
    }
  }
  usage("unknown command: " + command);
}
