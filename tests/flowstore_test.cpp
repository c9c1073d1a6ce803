// FDE1 columnar flow archive (DESIGN.md §15): byte-identical round trips
// at any block size, CRC/salvage behavior mirroring ODE2's corpus, and
// the zero-copy query() contract — FlowImpactAnalyzer over a mapped FDE1
// file and over the same dataset's in-memory FDE1 image must both return
// the RouterDayReports of the scalar reference join over the dataset's
// own rows, for every cell, at any block size and prebuild thread count.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <unistd.h>
#include <vector>

#include "orion/flowsim/netflow5.hpp"
#include "orion/flowsim/netflow_bridge.hpp"
#include "orion/impact/flow_join.hpp"
#include "orion/scangen/scenario.hpp"
#include "orion/store/fde1.hpp"
#include "orion/store/mapped_flow.hpp"

#include "crc_pins.hpp"
#include "flow_fixtures.hpp"

namespace orion::store {
namespace {

net::Ipv4Address ip(const char* text) { return *net::Ipv4Address::parse(text); }

/// A simulated multi-day flow dataset over the tiny scenario (same feed
/// as tests/flowjoin_test.cpp): binomial sampling, oversized flows and
/// empty router-days all occur naturally.
flowsim::FlowDataset tiny_flows() {
  const scangen::Scenario scenario{scangen::tiny()};
  flowsim::FlowSimConfig config;
  config.isp_space = scenario.merit();
  config.start_day = 2;
  config.end_day = 7;
  config.sampling_rate = 100;
  config.seed = 77;
  config.user.base_pps = 2000;
  return generate_flows(scenario.population_2021(), scenario.registry(),
                        flowsim::PeeringPolicy::merit_like(), config);
}

detect::IpSet tiny_sources() {
  const scangen::Scenario scenario{scangen::tiny()};
  detect::IpSet set;
  for (const auto& s : scenario.population_2021().scanners) {
    if (s.category == scangen::Category::CloudScanner) set.insert(s.source);
  }
  set.insert(ip("192.0.2.1"));
  set.insert(ip("192.0.2.200"));
  return set;
}

/// RAII temp file seeded with the given bytes (PID in the path: gtest
/// tests run as separate concurrent ctest processes).
class TempFile {
 public:
  explicit TempFile(const std::string& bytes, const char* tag = "fde1") {
    static int counter = 0;
    path_ = (std::filesystem::temp_directory_path() /
             ("orion_flowstore_test_" + std::to_string(::getpid()) + "_" +
              std::to_string(++counter) + "_" + tag))
                .string();
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }
  std::string contents() const {
    std::ifstream in(path_, std::ios::binary);
    return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
  }

 private:
  std::string path_;
};

std::string fde1_bytes(const flowsim::FlowDataset& flows,
                       std::uint64_t block_flows = kFde1DefaultBlockFlows) {
  const TempFile file("", "written");
  write_flows_fde1_file(flows, file.path(), block_flows);
  return file.contents();
}

/// A window whose cells sampled nothing: two segments that carry only
/// interface counters.
std::vector<flowsim::RouterDay> empty_cells() {
  std::vector<flowsim::RouterDay> segments(2);
  segments[0].router = 0;
  segments[0].day = 10;
  segments[0].total_packets = 777;
  segments[1].router = 2;
  segments[1].day = 12;
  segments[1].user_packets = 5;
  return segments;
}

std::string fde1_bytes(std::uint32_t sampling_rate, std::int64_t start_day,
                       std::int64_t end_day,
                       const std::vector<flowsim::RouterDay>& segments) {
  const TempFile file("", "written");
  write_flows_fde1_file(sampling_rate, start_day, end_day, segments,
                        file.path());
  return file.contents();
}

/// Every row of the archive in order, gathered through for_each_span.
flowsim::FlowBatch all_rows(const MappedFlowStore& store) {
  flowsim::FlowBatch all(store.flow_count());
  store.for_each_span(0, store.flow_count(),
                      [&all](const FlowView& view, std::size_t lo, std::size_t hi) {
                        all.append_columns(view, lo, hi);
                      });
  return all;
}

/// The expected global row stream: each cell's rows, router-major.
flowsim::FlowBatch expected_rows(const flowsim::FlowDataset& flows) {
  flowsim::FlowBatch all;
  for (const flowsim::RouterDay& cell : flows.cells()) {
    for (std::size_t i = 0; i < cell.rows.size(); ++i) {
      all.append_record(cell.rows, i);
    }
  }
  return all;
}

void expect_same_report(const impact::RouterDayReport& a,
                        const impact::RouterDayReport& b) {
  EXPECT_EQ(a.impact.router, b.impact.router);
  EXPECT_EQ(a.impact.day, b.impact.day);
  EXPECT_EQ(a.impact.matched_packets, b.impact.matched_packets);
  EXPECT_EQ(a.impact.total_packets, b.impact.total_packets);
  EXPECT_EQ(a.impact.matched_sources, b.impact.matched_sources);
  EXPECT_EQ(a.protocols, b.protocols);
  EXPECT_EQ(a.ports.rows(), b.ports.rows());
  EXPECT_EQ(a.ports.spilled_weight(), b.ports.spilled_weight());
  EXPECT_EQ(a.ports.spilled_adds(), b.ports.spilled_adds());
  EXPECT_EQ(a.probed_sources, b.probed_sources);
}

// ------------------------------------------------------------ round trip

TEST(Fde1, RoundTripsAtAnyBlockSize) {
  const flowsim::FlowDataset flows = tiny_flows();
  const flowsim::FlowBatch expected = expected_rows(flows);
  ASSERT_GT(expected.size(), 0u);

  for (const std::uint64_t block_flows : {std::uint64_t{1}, std::uint64_t{3},
                                          std::uint64_t{64}, std::uint64_t{1024},
                                          std::uint64_t{1} << 20}) {
    const TempFile file(fde1_bytes(flows, block_flows));
    const MappedFlowStore store(file.path());

    EXPECT_EQ(store.sampling_rate(), flows.sampling_rate());
    EXPECT_EQ(store.flow_count(), expected.size());
    EXPECT_EQ(store.start_day(), flows.start_day());
    EXPECT_EQ(store.end_day(), flows.end_day());
    EXPECT_EQ(store.block_flows(), block_flows);
    EXPECT_EQ(store.verify_blocks(), store.block_count());

    const flowsim::FlowBatch all = all_rows(store);
    ASSERT_EQ(all.size(), expected.size());
    for (std::size_t i = 0; i < all.size(); ++i) {
      EXPECT_EQ(all.record_at(i), expected.record_at(i)) << "row " << i;
    }

    // Segment index: one cell per (router, day), row ranges that tile
    // [0, flow_count), totals matching the simulator's ground truth, and
    // each cell's rows read back whole.
    const auto window =
        static_cast<std::size_t>(flows.end_day() - flows.start_day());
    ASSERT_EQ(store.segments().size(), flowsim::kRouterCount * window);
    std::uint64_t cursor = 0;
    for (const FlowSegment& seg : store.segments()) {
      const flowsim::RouterDay& rd = flows.at(seg.router, seg.day);
      EXPECT_EQ(seg.row_begin, cursor);
      EXPECT_EQ(seg.row_end - seg.row_begin, rd.rows.size());
      EXPECT_EQ(seg.total_packets, rd.total_packets);
      EXPECT_EQ(seg.user_packets, rd.user_packets);
      EXPECT_EQ(seg.scanner_packets, rd.scanner_packets);
      EXPECT_TRUE(store.cell(seg).rows == rd.rows)
          << "cell " << seg.router << "/" << seg.day;
      cursor = seg.row_end;
    }
    EXPECT_EQ(cursor, store.flow_count());
  }
}

// Writer bytes pinned to constants recorded while a std::ostream writer
// still existed next to the io::File one (they wrote identical bytes).
// Sizes plus a CRC over everything the footer CRC seals.
TEST(Fde1Pins, WriterBytes) {
  const std::string flows = fde1_bytes(tiny_flows(), 64);
  EXPECT_EQ(flows.size(), 86148u);
  EXPECT_EQ(test_pins::archive_crc(flows), 0x8d87110bu);
  const std::string cells = fde1_bytes(50, 10, 13, empty_cells());
  EXPECT_EQ(cells.size(), 172u);
  EXPECT_EQ(test_pins::archive_crc(cells), 0xe459b6e4u);
}

TEST(Fde1, EmptySegmentsAndEmptyArchiveRoundTrip) {
  // A window whose cells sampled nothing still archives its counters.
  const TempFile file(fde1_bytes(50, 10, 13, empty_cells()));
  const MappedFlowStore store(file.path());
  EXPECT_EQ(store.flow_count(), 0u);
  EXPECT_EQ(store.block_count(), 0u);
  ASSERT_EQ(store.segments().size(), 2u);
  EXPECT_EQ(store.segments()[0].total_packets, 777u);
  EXPECT_EQ(store.row_range(0, 10), (std::pair<std::uint64_t, std::uint64_t>{0, 0}));
  EXPECT_EQ(store.segment(1, 10), nullptr);
  EXPECT_EQ(store.segment(0, 11), nullptr);

  // And the fully empty window.
  const TempFile empty_file(fde1_bytes(50, 0, 0, {}));
  const MappedFlowStore empty_store(empty_file.path());
  EXPECT_EQ(empty_store.flow_count(), 0u);
  EXPECT_TRUE(empty_store.segments().empty());
}

TEST(Fde1, WriterValidatesSegmentsAndRowOrder) {
  const TempFile file("", "rejected");
  const auto write = [&file](const std::vector<flowsim::RouterDay>& segments,
                             std::uint64_t block_flows = kFde1DefaultBlockFlows) {
    write_flows_fde1_file(10, 0, 5, segments, file.path(), block_flows);
  };

  // Segments out of (router, day) order.
  std::vector<flowsim::RouterDay> unordered(2);
  unordered[0].router = 1;
  unordered[0].day = 3;
  unordered[1].router = 1;
  unordered[1].day = 3;
  EXPECT_THROW(write(unordered), std::invalid_argument);

  // Segment day outside the declared window.
  std::vector<flowsim::RouterDay> outside(1);
  outside[0].day = 9;
  EXPECT_THROW(write(outside), std::invalid_argument);

  // Row carrying the wrong router for its segment.
  std::vector<flowsim::RouterDay> wrong_router(1);
  wrong_router[0].router = 1;
  wrong_router[0].day = 0;
  flowsim::FlowRecord r;
  r.router = 2;
  wrong_router[0].rows.push_back(r);
  EXPECT_THROW(write(wrong_router), std::invalid_argument);

  // Rows out of (src, dst_port, type) order.
  std::vector<flowsim::RouterDay> disorder(1);
  disorder[0].router = 0;
  disorder[0].day = 0;
  flowsim::FlowRecord a;
  a.src = ip("10.0.0.9");
  flowsim::FlowRecord b;
  b.src = ip("10.0.0.1");
  disorder[0].rows.push_back(a);
  disorder[0].rows.push_back(b);
  EXPECT_THROW(write(disorder), std::invalid_argument);

  // Bad block size.
  EXPECT_THROW(write({}, 0), std::invalid_argument);

  // A day window wider than 2^16 days, which no reader would open.
  EXPECT_THROW(write_flows_fde1_file(10, 0, (std::int64_t{1} << 16) + 1, {},
                                     file.path()),
               std::invalid_argument);
  EXPECT_NO_THROW(
      write_flows_fde1_file(10, 0, std::int64_t{1} << 16, {}, file.path()));
  EXPECT_NO_THROW(MappedFlowStore{file.path()});
}

// ------------------------------------------------------------- sniffing

TEST(Fde1, SniffsFlowInputFormats) {
  const flowsim::FlowDataset flows = tiny_flows();
  const TempFile fde1(fde1_bytes(flows, 64));
  EXPECT_EQ(sniff_flow_format(fde1.path()), "FDE1");

  const auto packet = flowsim::encode_netflow_v5(
      flowsim::NetflowV5Header{}, std::vector<flowsim::NetflowV5Record>(2));
  const TempFile nfv5(std::string(packet.begin(), packet.end()), "nfv5");
  EXPECT_EQ(sniff_flow_format(nfv5.path()), "NFV5");

  const TempFile csv("router,ts_ns,src,dst,src_port,dst_port,proto,packets,bytes\n",
                     "csv");
  EXPECT_EQ(sniff_flow_format(csv.path()), "CSV");

  const TempFile junk(std::string("\x7f\x45\x4c\x46\x02\x01", 6), "junk");
  EXPECT_EQ(sniff_flow_format(junk.path()), "?");
}

// ---------------------------------------------------- strict-open checks

TEST(MappedFlowStore, RejectsCorruptHeaderAndFooter) {
  const flowsim::FlowDataset flows = tiny_flows();
  const std::string clean = fde1_bytes(flows, 32);

  {  // magic
    std::string bytes = clean;
    bytes[0] = 'X';
    const TempFile file(bytes);
    EXPECT_THROW(MappedFlowStore{file.path()}, std::runtime_error);
  }
  {  // header field bit flip breaks the header CRC
    std::string bytes = clean;
    bytes[17] = static_cast<char>(bytes[17] ^ 0x40);
    const TempFile file(bytes);
    EXPECT_THROW(MappedFlowStore{file.path()}, std::runtime_error);
  }
  {  // footer CRC (last 4 bytes)
    std::string bytes = clean;
    bytes.back() = static_cast<char>(bytes.back() ^ 1);
    const TempFile file(bytes);
    EXPECT_THROW(MappedFlowStore{file.path()}, std::runtime_error);
  }
  {  // truncation
    const TempFile file(clean.substr(0, clean.size() / 2));
    EXPECT_THROW(MappedFlowStore{file.path()}, std::runtime_error);
  }
  {  // block payload corruption is lazy: open succeeds, verify catches it
    std::string bytes = clean;
    bytes[kFde1HeaderBytes + 3] = static_cast<char>(bytes[kFde1HeaderBytes + 3] ^ 0x10);
    const TempFile file(bytes);
    const MappedFlowStore store(file.path());
    EXPECT_EQ(store.verify_blocks(), 0u);
  }
}

// -------------------------------------------------------------- salvage

TEST(Fde1Salvage, CleanArchiveIsComplete) {
  const flowsim::FlowDataset flows = tiny_flows();
  const TempFile file(fde1_bytes(flows, 16));
  const Fde1SalvageResult result = read_flows_fde1_salvage(file.path());
  EXPECT_TRUE(result.footer_intact);
  EXPECT_TRUE(result.complete);
  EXPECT_TRUE(result.error.empty());
  EXPECT_EQ(result.recovered_count, result.declared_count);
  EXPECT_EQ(result.sampling_rate, flows.sampling_rate());
  EXPECT_EQ(result.start_day, flows.start_day());
  EXPECT_EQ(result.end_day, flows.end_day());
  EXPECT_FALSE(result.segments.empty());
}

TEST(Fde1Salvage, BitFlippedBlockRecoversPrecedingBlocks) {
  const flowsim::FlowDataset flows = tiny_flows();
  const std::string clean = fde1_bytes(flows, 16);
  const TempFile clean_file(clean);
  const MappedFlowStore store(clean_file.path());
  ASSERT_GE(store.block_count(), 3u);

  // Flip one byte inside block 2's payload.
  std::string bytes = clean;
  const std::size_t at = static_cast<std::size_t>(store.blocks()[2].offset) + 5;
  bytes[at] = static_cast<char>(bytes[at] ^ 0x20);
  const TempFile file(bytes);

  const Fde1SalvageResult result = read_flows_fde1_salvage(file.path());
  EXPECT_TRUE(result.footer_intact);  // footer survived; block 2 did not
  EXPECT_FALSE(result.complete);
  EXPECT_NE(result.error.find("block 2"), std::string::npos);
  EXPECT_EQ(result.recovered_count, 2 * 16u);
  // The recovered prefix is byte-identical to the original rows.
  const flowsim::FlowBatch expected = expected_rows(flows);
  for (std::size_t i = 0; i < result.rows.size(); ++i) {
    EXPECT_EQ(result.rows.record_at(i), expected.record_at(i));
  }
  // Footer-intact salvage still reports the segment index.
  EXPECT_EQ(result.segments.size(), store.segments().size());
}

TEST(Fde1Salvage, TruncationCorpusRecoversEveryCompletePrefix) {
  const flowsim::FlowDataset flows = tiny_flows();
  const std::string clean = fde1_bytes(flows, 16);
  const TempFile clean_file(clean);
  const MappedFlowStore store(clean_file.path());
  const std::uint64_t n = store.flow_count();

  // Cut the file at a spread of lengths from "nothing" to "all but one
  // byte": salvage must never throw, never fabricate rows, and always
  // recover exactly the complete blocks that fit (footer gone -> order-
  // validated geometry walk).
  for (std::size_t cut = 0; cut < clean.size(); cut += 97) {
    const TempFile file(clean.substr(0, cut));
    const Fde1SalvageResult result = read_flows_fde1_salvage(file.path());
    EXPECT_FALSE(result.complete);
    if (cut < kFde1HeaderBytes) {
      EXPECT_EQ(result.recovered_count, 0u);
      continue;
    }
    EXPECT_EQ(result.declared_count, n);
    EXPECT_FALSE(result.footer_intact);
    std::uint64_t fit = 0;
    std::uint64_t offset = kFde1HeaderBytes;
    while (fit < n) {
      const std::uint64_t rows = std::min<std::uint64_t>(16, n - fit);
      if (offset + fde1_block_bytes(rows) > cut) break;
      offset += fde1_block_bytes(rows);
      fit += rows;
    }
    EXPECT_EQ(result.recovered_count, fit) << "cut " << cut;
  }
  {  // all but the final CRC byte: footer fails, every block recovers
    const TempFile file(clean.substr(0, clean.size() - 1));
    const Fde1SalvageResult result = read_flows_fde1_salvage(file.path());
    EXPECT_FALSE(result.footer_intact);
    EXPECT_EQ(result.recovered_count, n);
  }
}

TEST(Fde1Salvage, FooterlessSalvageStopsAtDisorderedBlock) {
  const flowsim::FlowDataset flows = tiny_flows();
  const std::string clean = fde1_bytes(flows, 16);
  const TempFile clean_file(clean);
  const MappedFlowStore store(clean_file.path());
  ASSERT_GE(store.block_count(), 3u);  // block 1 is full (16 rows)

  // Wreck the footer AND set block 1's first router to 0xFFFF so row 0
  // outranks row 1 in the global order. Structural salvage must keep
  // block 0 and stop at the disorder (the footer can't arbitrate).
  std::string bytes = clean;
  bytes.back() = static_cast<char>(bytes.back() ^ 1);
  const std::size_t router_col_off =
      static_cast<std::size_t>(store.blocks()[1].offset) + 36 * 16;
  bytes[router_col_off + 0] = static_cast<char>(0xFF);
  bytes[router_col_off + 1] = static_cast<char>(0xFF);
  const TempFile file(bytes);

  const Fde1SalvageResult result = read_flows_fde1_salvage(file.path());
  EXPECT_FALSE(result.footer_intact);
  EXPECT_FALSE(result.complete);
  EXPECT_EQ(result.recovered_count, 16u);
  EXPECT_NE(result.error.find("out of order"), std::string::npos);
}

// ------------------------------------------------------------- zone maps

TEST(MappedFlowStore, ZoneMapsPruneWithoutChangingResults) {
  const flowsim::FlowDataset flows = tiny_flows();
  const TempFile file(fde1_bytes(flows, 8));
  const MappedFlowStore store(file.path());

  // Pick a real source from the middle of the archive.
  const std::uint32_t target = store.record(store.flow_count() / 2).src.value();

  std::uint64_t full_hits = 0;
  std::size_t pruned_blocks = 0;
  store.for_each_block(0, 0xFFFFFFFFu, [&](const FlowView& view) {
    ++pruned_blocks;
    for (std::size_t i = 0; i < view.rows(); ++i) {
      if (view.src[i] == target) ++full_hits;
    }
  });
  EXPECT_EQ(pruned_blocks, store.block_count());

  std::uint64_t zone_hits = 0;
  std::size_t visited = 0;
  store.for_each_block(target, target, [&](const FlowView& view) {
    ++visited;
    for (std::size_t i = 0; i < view.rows(); ++i) {
      if (view.src[i] == target) ++zone_hits;
    }
  });
  EXPECT_EQ(zone_hits, full_hits);
  EXPECT_GT(full_hits, 0u);
  EXPECT_LT(visited, store.block_count());  // the maps actually pruned
}

// ------------------------------------- zero-copy query() equivalence

TEST(FlowImpactAnalyzer, Fde1QueryIsByteIdenticalToMemoryAtAnyBlockSize) {
  const flowsim::FlowDataset flows = tiny_flows();
  const detect::IpSet ips = tiny_sources();
  const impact::SourceSet sources(ips);
  const MappedFlowStore image(fde1_image(flows));
  const impact::FlowImpactAnalyzer memory(&image);
  EXPECT_FALSE(image.mapped());

  for (const std::uint64_t block_flows :
       {std::uint64_t{1}, std::uint64_t{64}, std::uint64_t{1024}}) {
    const TempFile file(fde1_bytes(flows, block_flows));
    const MappedFlowStore store(file.path());
    const impact::FlowImpactAnalyzer cold(&store);

    for (std::size_t router = 0; router < flowsim::kRouterCount; ++router) {
      for (std::int64_t day = flows.start_day(); day < flows.end_day();
           ++day) {
        const impact::RouterDayReport ref =
            test_flows::reference_report(flows, router, day, ips);
        const impact::RouterDayReport a = memory.query(router, day, sources);
        const impact::RouterDayReport b = cold.query(router, day, sources);
        expect_same_report(a, ref);
        expect_same_report(b, ref);
        expect_same_report(cold.query_scalar(router, day, ips), ref);
      }
    }
    // Out-of-range cells throw exactly like FlowDataset::at.
    for (const impact::FlowImpactAnalyzer* analyzer : {&memory, &cold}) {
      EXPECT_THROW(
          analyzer->query(flowsim::kRouterCount, flows.start_day(), sources),
          std::out_of_range);
      EXPECT_THROW(analyzer->query(0, flows.end_day(), sources),
                   std::out_of_range);
    }
    EXPECT_THROW(flows.at(flowsim::kRouterCount, flows.start_day()),
                 std::out_of_range);

    // impact_table walks every cell in router-major order on both.
    const auto mem_table = memory.impact_table(ips);
    const auto cold_table = cold.impact_table(ips);
    ASSERT_EQ(mem_table.size(), flows.cells().size());
    ASSERT_EQ(cold_table.size(), flows.cells().size());
    for (std::size_t i = 0; i < mem_table.size(); ++i) {
      const flowsim::RouterDay& cell = flows.cells()[i];
      const impact::RouterDayImpact ref =
          test_flows::reference_report(flows, cell.router, cell.day, ips)
              .impact;
      for (const impact::RouterDayImpact& got : {mem_table[i], cold_table[i]}) {
        EXPECT_EQ(got.router, cell.router);
        EXPECT_EQ(got.day, cell.day);
        EXPECT_EQ(got.matched_packets, ref.matched_packets);
        EXPECT_EQ(got.total_packets, ref.total_packets);
        EXPECT_EQ(got.matched_sources, ref.matched_sources);
      }
    }
  }
}

TEST(FlowImpactAnalyzer, ParallelPrebuildIsInvariantAcrossThreadCounts) {
  const flowsim::FlowDataset flows = tiny_flows();
  const detect::IpSet ips = tiny_sources();
  const impact::SourceSet sources(ips);
  const TempFile file(fde1_bytes(flows, 64));
  const MappedFlowStore store(file.path());

  const impact::FlowImpactAnalyzer lazy(&store);
  for (const std::size_t n_threads : {std::size_t{1}, std::size_t{2},
                                      std::size_t{3}, std::size_t{8}}) {
    const impact::FlowImpactAnalyzer parallel(&store);
    parallel.prebuild_indexes(n_threads);
    parallel.prebuild_indexes(n_threads);  // idempotent
    for (std::size_t router = 0; router < flowsim::kRouterCount; ++router) {
      for (std::int64_t day = flows.start_day(); day < flows.end_day();
           ++day) {
        expect_same_report(parallel.query(router, day, sources),
                           lazy.query(router, day, sources));
      }
    }
  }

  // The in-memory image prebuilds the same way.
  const MappedFlowStore image(fde1_image(flows));
  const impact::FlowImpactAnalyzer memory(&image);
  memory.prebuild_indexes(4);
  expect_same_report(memory.query(0, flows.start_day(), sources),
                     lazy.query(0, flows.start_day(), sources));
}

TEST(MappedFlowStore, CellsReproduceQueries) {
  const flowsim::FlowDataset flows = tiny_flows();
  const detect::IpSet ips = tiny_sources();
  const impact::SourceSet sources(ips);
  const TempFile file(fde1_bytes(flows));
  const MappedFlowStore store(file.path());

  std::vector<flowsim::RouterDay> cells;
  for (const FlowSegment& seg : store.segments()) cells.push_back(store.cell(seg));
  ASSERT_EQ(cells.size(), flows.cells().size());
  for (std::size_t c = 0; c < flows.cells().size(); ++c) {
    const flowsim::RouterDay& a = flows.cells()[c];
    const flowsim::RouterDay& b = cells[c];
    EXPECT_EQ(b.router, a.router);
    EXPECT_EQ(b.day, a.day);
    EXPECT_EQ(b.total_packets, a.total_packets);
    EXPECT_EQ(b.user_packets, a.user_packets);
    EXPECT_EQ(b.scanner_packets, a.scanner_packets);
    EXPECT_TRUE(b.rows == a.rows) << "cell " << c;
  }
  const impact::FlowImpactAnalyzer a(&store);
  const MappedFlowStore round_image(fde1_image(
      store.sampling_rate(), store.start_day(), store.end_day(), cells));
  EXPECT_EQ(round_image.sampling_rate(), flows.sampling_rate());
  const impact::FlowImpactAnalyzer b(&round_image);
  for (std::size_t router = 0; router < flowsim::kRouterCount; ++router) {
    for (std::int64_t day = flows.start_day(); day < flows.end_day(); ++day) {
      expect_same_report(a.query(router, day, sources),
                         b.query(router, day, sources));
    }
  }
}

TEST(MappedFlowStore, CellsKeepTheirCountersAndAnyRouter) {
  const TempFile file(fde1_bytes(50, 10, 13, empty_cells()));
  const MappedFlowStore store(file.path());
  ASSERT_NE(store.segment(0, 10), nullptr);
  ASSERT_NE(store.segment(2, 12), nullptr);
  EXPECT_EQ(store.cell(*store.segment(0, 10)).total_packets, 777u);
  EXPECT_EQ(store.cell(*store.segment(2, 12)).user_packets, 5u);
  EXPECT_TRUE(store.cell(*store.segment(2, 12)).rows.empty());
  EXPECT_EQ(store.segment(1, 11), nullptr);  // a cell the archive lacks

  // cell() takes any router.
  std::vector<flowsim::RouterDay> far(1);
  far[0].router = 7;
  far[0].day = 10;
  far[0].total_packets = 9;
  const TempFile far_file(fde1_bytes(50, 10, 11, far));
  const MappedFlowStore far_store(far_file.path());
  EXPECT_EQ(far_store.cell(far_store.segments()[0]).router, 7u);
  EXPECT_EQ(far_store.cell(far_store.segments()[0]).total_packets, 9u);
}

TEST(Fde1, InMemoryImageIsTheFileBytes) {
  const flowsim::FlowDataset flows = tiny_flows();
  for (const std::uint64_t block_flows :
       {std::uint64_t{1}, std::uint64_t{3}, std::uint64_t{64},
        std::uint64_t{1024}, std::uint64_t{1} << 20}) {
    const FileBytes image = fde1_image(flows, block_flows);
    const std::string file = fde1_bytes(flows, block_flows);
    ASSERT_EQ(image.size(), file.size());
    EXPECT_EQ(std::memcmp(image.data(), file.data(), file.size()), 0)
        << block_flows << " flows/block";
  }
  const FileBytes cells = fde1_image(50, 10, 13, empty_cells());
  const std::string cells_file = fde1_bytes(50, 10, 13, empty_cells());
  ASSERT_EQ(cells.size(), cells_file.size());
  EXPECT_EQ(std::memcmp(cells.data(), cells_file.data(), cells_file.size()), 0);

  // The in-memory open runs the same strict checks as the file open.
  const std::string clean = fde1_bytes(flows, 32);
  const auto image_of = [](const std::string& bytes) {
    std::vector<std::uint64_t> words((bytes.size() + 7) / 8, 0);
    std::memcpy(words.data(), bytes.data(), bytes.size());
    return FileBytes::adopt(std::move(words), bytes.size());
  };
  EXPECT_NO_THROW(MappedFlowStore{image_of(clean)});
  std::string flipped = clean;
  flipped[17] = static_cast<char>(flipped[17] ^ 0x40);
  EXPECT_THROW(MappedFlowStore{image_of(flipped)}, std::runtime_error);
  EXPECT_THROW(MappedFlowStore{image_of(clean.substr(0, clean.size() / 2))},
               std::runtime_error);
  EXPECT_THROW(FileBytes::adopt(std::vector<std::uint64_t>(1), 9),
               std::invalid_argument);
  // And the in-memory writer validates like the file writer.
  std::vector<flowsim::RouterDay> outside(1);
  outside[0].day = 9;
  EXPECT_THROW(fde1_image(10, 0, 5, outside), std::invalid_argument);
}

TEST(MappedFlowStore, RecordAccessorMatchesBatchAndBoundsChecks) {
  const flowsim::FlowDataset flows = tiny_flows();
  const TempFile file(fde1_bytes(flows, 8));
  const MappedFlowStore store(file.path());
  const flowsim::FlowBatch all = all_rows(store);
  for (std::uint64_t row = 0; row < store.flow_count();
       row += 1 + store.flow_count() / 17) {
    EXPECT_EQ(store.record(row), all.record_at(static_cast<std::size_t>(row)));
  }
  EXPECT_THROW(store.record(store.flow_count()), std::runtime_error);
}

}  // namespace
}  // namespace orion::store
