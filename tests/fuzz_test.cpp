// Seeded, structure-aware fuzzing of the ODE2 and FDE1 readers, of the
// NetFlow v5 decoders, of the aggregator's AGG2 checkpoint restore and of
// the OMF1 archive manifest load (label fuzz; `ctest --preset fuzz` runs
// it under asan-ubsan).
//
// Each input is a small valid archive with one mutation: bit flips,
// a truncation, lying header or footer counts and offsets (including
// +2^61, alone or two fields at once), or a rewritten word inside a
// block. Most mutations then reseal the header, block and footer CRCs,
// so they reach the checks behind the CRCs. Every input must satisfy:
//  - the strict open succeeds or throws std::runtime_error;
//  - salvage never throws, and its footer is intact exactly when the
//    strict open succeeds (both call the same header and footer parse);
//  - on an open store, verify_blocks, to_dataset, detect and
//    DailyDarknetMix (ODE2), or cell() of every segment,
//    prebuild_indexes(2) and one query (FDE1), finish or throw a
//    std::exception.
// Splice inputs join a prefix of one valid archive to the suffix of
// another at block or footer boundaries (ODE2 with ODE2, FDE1 with FDE1,
// or crossed with the magic rewritten) and must meet the same properties:
// the two formats share one frame parse, which must still apply each
// format's own limits.
// NetFlow v5 inputs are a tiny-scenario cell's export stream (full
// 30-record packets and a split oversized flow) with one packet mutated
// by bit flips, a truncation, a lying record count (0, 31, 0xFFFF, ±1)
// or version, or a prefix of it spliced onto another packet.
// decode_netflow_v5 and decode_netflow_v5_into must accept exactly the
// same packets with the same rows field for field, a rejected _into
// must append nothing, and ingest_flow_batch must count exactly the
// packets decode_netflow_v5 rejects.
// AGG2 inputs are an aggregator checkpoint over a dark space whose size
// is not a multiple of 64, with live events on both sides of the
// list/bitmap boundary (destination counts 3, 32, 33 and 300 against a
// 33-word bitmap), mutated by bit flips, truncation, lying destination
// counts (among them 32, 33 and 34) and event counts, offsets at or past
// the darknet size, out-of-order offsets, set padding bits, bitmap bits
// flipped so the popcount leaves the count (or the count follows), and
// offsets moved within their neighbours, three in four with the frame CRC
// resealed. Restore must succeed or throw std::runtime_error, and after a
// success checkpoint -> restore -> checkpoint must be byte-stable.
// OMF1 inputs are an archive manifest with three entries from two
// publishes, mutated by bit flips, truncation, lying entry counts and
// string lengths, lying generations and sizes, entry files that contain
// '/' or '..', and entry generations above the manifest's; most reseal the
// CRC. The strict ArchiveDir open must load or throw ArchiveError, and a
// loaded entry must name a file inside the directory; a serve::StoreCache
// must keep its generation unless the manifest loads, and then adopt
// exactly the manifest's generation; recover_archive must not throw.
// Iteration i draws its mutation from kSeed + i, so a failing iteration
// replays alone. Inputs that once broke a reader are kept as named
// regression cases at the end.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "orion/detect/detector.hpp"
#include "orion/flowsim/netflow5.hpp"
#include "orion/flowsim/netflow_bridge.hpp"
#include "orion/impact/flow_join.hpp"
#include "orion/netbase/crc32.hpp"
#include "orion/scangen/scenario.hpp"
#include "orion/serve/store_cache.hpp"
#include "orion/store/archive.hpp"
#include "orion/store/fde1.hpp"
#include "orion/store/mapped.hpp"
#include "orion/store/mapped_flow.hpp"
#include "orion/store/ode2.hpp"
#include "orion/telescope/aggregator.hpp"
#include "orion/telescope/checkpoint.hpp"

#include "crc_pins.hpp"
#include "flow_fixtures.hpp"

namespace orion::store {
namespace {

constexpr std::uint64_t kSeed = 0x0DE2FDE1;
constexpr std::size_t kIterations = 8000;  // per format

/// One temp path per test process, rewritten for every input.
class FuzzFile {
 public:
  FuzzFile()
      : path_((std::filesystem::temp_directory_path() /
               ("orion_fuzz_test_" + std::to_string(::getpid())))
                  .string()) {}
  ~FuzzFile() { std::remove(path_.c_str()); }
  const std::string& put(const std::string& bytes) const {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    return path_;
  }
  std::string contents() const {
    std::ifstream in(path_, std::ios::binary);
    return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
  }

 private:
  std::string path_;
};

std::uint64_t load(const std::string& bytes, std::size_t at) {
  std::uint64_t v = 0;
  std::memcpy(&v, bytes.data() + at, 8);
  return v;
}

void store_u64(std::string& bytes, std::size_t at, std::uint64_t v) {
  std::memcpy(bytes.data() + at, &v, 8);
}

void store_u32(std::string& bytes, std::size_t at, std::uint32_t v) {
  std::memcpy(bytes.data() + at, &v, 4);
}

/// Where a valid base archive keeps what the mutator targets and reseals.
struct Layout {
  std::size_t footer = 0;
  std::vector<std::pair<std::size_t, std::size_t>> blocks;  // offset, bytes
  std::size_t block_crcs = 0;  // offset of the footer's block CRC array
  std::vector<std::size_t> fields;  // u64 counts, offsets, days and keys
};

/// The four u64 header fields both formats share: darknet size or
/// sampling rate, row count, block size and footer offset.
void add_header_fields(Layout& layout) {
  for (const std::size_t at : {8, 16, 24, 32}) layout.fields.push_back(at);
}

Layout ode2_layout(const std::string& bytes) {
  Layout layout;
  add_header_fields(layout);
  const std::uint64_t n = load(bytes, 16);
  const std::uint64_t b = load(bytes, 24);
  layout.footer = static_cast<std::size_t>(load(bytes, 32));
  std::size_t offset = kOde2HeaderBytes;
  for (std::uint64_t k = 0; k * b < n; ++k) {
    const auto block =
        static_cast<std::size_t>(ode2_block_bytes(std::min(b, n - k * b)));
    layout.blocks.emplace_back(offset, block);
    layout.fields.push_back(offset);  // row 0's start_ns
    offset += block;
  }
  const std::size_t f = layout.footer;
  const std::size_t days = static_cast<std::size_t>(load(bytes, f + 16));
  for (std::size_t at = f; at < f + 32 + 8 * (days + 1); at += 8) {
    layout.fields.push_back(at);  // window, counts, day_start
  }
  const std::size_t metas = f + 32 + 8 * (days + 1);
  for (std::size_t k = 0; k < layout.blocks.size(); ++k) {
    layout.fields.push_back(metas + kOde2BlockMetaBytes * k);      // offset
    layout.fields.push_back(metas + kOde2BlockMetaBytes * k + 8);  // min_day
  }
  layout.block_crcs = metas + kOde2BlockMetaBytes * layout.blocks.size();
  return layout;
}

Layout fde1_layout(const std::string& bytes) {
  Layout layout;
  add_header_fields(layout);
  const std::uint64_t n = load(bytes, 16);
  const std::uint64_t b = load(bytes, 24);
  layout.footer = static_cast<std::size_t>(load(bytes, 32));
  std::size_t offset = kFde1HeaderBytes;
  for (std::uint64_t k = 0; k * b < n; ++k) {
    const std::uint64_t rows = std::min(b, n - k * b);
    const auto block = static_cast<std::size_t>(fde1_block_bytes(rows));
    layout.blocks.emplace_back(offset, block);
    layout.fields.push_back(offset);                                // ts
    layout.fields.push_back(offset + static_cast<std::size_t>(24 * rows));  // src
    offset += block;
  }
  const std::size_t f = layout.footer;
  const std::size_t segments = static_cast<std::size_t>(load(bytes, f + 16));
  for (std::size_t at = f; at < f + 32 + kFde1SegmentBytes * segments; at += 8) {
    layout.fields.push_back(at);  // window, counts, segment entries
  }
  const std::size_t metas = f + 32 + kFde1SegmentBytes * segments;
  for (std::size_t k = 0; k < layout.blocks.size(); ++k) {
    layout.fields.push_back(metas + kFde1BlockMetaBytes * k);
  }
  layout.block_crcs = metas + kFde1BlockMetaBytes * layout.blocks.size();
  return layout;
}

/// Recomputes the header CRC, each block's CRC and the footer CRC at the
/// base layout's positions, as far as the mutated bytes still hold them.
void reseal(std::string& bytes, const Layout& layout) {
  if (bytes.size() < 40) return;
  store_u32(bytes, 4, test_pins::crc_of(bytes.substr(0, 40), 8));
  for (std::size_t k = 0; k < layout.blocks.size(); ++k) {
    const auto [offset, size] = layout.blocks[k];
    if (offset + size > bytes.size() || layout.block_crcs + 4 * k + 4 > bytes.size()) {
      return;
    }
    store_u32(bytes, layout.block_crcs + 4 * k,
              test_pins::crc_of(bytes.substr(offset, size)));
  }
  if (layout.footer + 4 <= bytes.size()) {
    store_u32(bytes, bytes.size() - 4,
              test_pins::crc_of(bytes, layout.footer, 4));
  }
}

/// The mutation of iteration `i`, drawn from kSeed + i alone.
std::string mutate(const std::string& base, const Layout& layout, std::size_t i) {
  std::mt19937_64 rng(kSeed + i);
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  const auto lie = [&](std::uint64_t v) -> std::uint64_t {
    switch (pick(8)) {
      case 0: return v + 1;
      case 1: return v - 1;
      case 2: return v + (std::uint64_t{1} << 61);
      case 3: return v - (std::uint64_t{1} << 61);
      case 4: return v * 2;
      case 5: return 0;
      case 6: return ~std::uint64_t{0};
      default: return rng();
    }
  };
  std::string bytes = base;
  bool sealed = pick(4) != 0;
  switch (pick(layout.blocks.empty() ? 4 : 5)) {
    case 0:  // bit flips anywhere
      for (std::size_t n = 1 + pick(4); n > 0; --n) {
        bytes[pick(bytes.size())] ^= static_cast<char>(1u << pick(8));
      }
      break;
    case 1:  // truncation
      bytes.resize(pick(bytes.size()));
      sealed = false;
      break;
    case 2: {  // one lying field
      const std::size_t at = layout.fields[pick(layout.fields.size())];
      store_u64(bytes, at, lie(load(bytes, at)));
      break;
    }
    case 3: {  // two fields moved by the same delta, so they still agree
      const std::size_t a = layout.fields[pick(layout.fields.size())];
      const std::size_t b = layout.fields[pick(layout.fields.size())];
      const std::uint64_t delta = lie(0);
      store_u64(bytes, a, load(bytes, a) + delta);
      if (b != a) store_u64(bytes, b, load(bytes, b) + delta);
      break;
    }
    default: {  // one rewritten word inside a block
      const auto [offset, size] = layout.blocks[pick(layout.blocks.size())];
      const std::size_t at = offset + 8 * pick(size / 8);
      store_u64(bytes, at, lie(load(bytes, at)));
      break;
    }
  }
  if (sealed) reseal(bytes, layout);
  return bytes;
}

/// Runs `step`; a std::exception is an accepted outcome, anything else a
/// failure. Crashes and sanitizer reports end the test process.
void finishes_or_throws(const std::string& what, const char* step,
                        const std::function<void()>& run) {
  try {
    run();
  } catch (const std::exception&) {
  } catch (...) {
    ADD_FAILURE() << what << ": " << step << " threw a non-std exception";
  }
}

/// At least a fifth of the inputs must pass the strict open, or the
/// fuzzer only exercises the CRC and geometry checks.
void expect_reach(const char* format, std::size_t opened, std::size_t inputs,
                  const char* passed = "passed the strict open") {
  std::printf("[fuzz] %s: %zu of %zu inputs %s\n", format, opened, inputs, passed);
  EXPECT_GE(opened * 5, inputs) << format;
}

const detect::AggressiveScannerDetector& detector() {
  static const detect::AggressiveScannerDetector instance(
      {.dispersion_threshold = 0.10,
       .packet_volume_alpha = 0.028,
       .port_count_alpha = 2e-4});
  return instance;
}

net::Ipv4Address source(std::uint32_t i) { return net::Ipv4Address(0xCB007100u + i); }

detect::IpSet probe_sources() {
  detect::IpSet set;
  for (std::uint32_t i = 0; i < 37; i += 3) set.insert(source(i));
  return set;
}

// ------------------------------------------------------------------ ODE2

/// 100 events over 13 days in blocks of 16, the shape store_test uses.
telescope::EventDataset ode2_base_dataset() {
  std::vector<telescope::DarknetEvent> events;
  for (int i = 0; i < 100; ++i) {
    telescope::DarknetEvent e;
    e.key.src = source(static_cast<std::uint32_t>(i % 37));
    e.key.dst_port = static_cast<std::uint16_t>(i % 7 == 0 ? 0 : 6379);
    e.key.type = i % 7 == 0 ? pkt::TrafficType::IcmpEchoReq
                            : pkt::TrafficType::TcpSyn;
    e.start = net::SimTime::at(net::Duration::seconds(11000 * i));
    e.end = e.start + net::Duration::seconds(40);
    e.packets = 10 + static_cast<std::uint64_t>(i);
    e.unique_dests = 5 + static_cast<std::uint64_t>(i);
    e.packets_by_tool[telescope::tool_index(pkt::ScanTool::ZMap)] = e.packets;
    events.push_back(e);
  }
  return telescope::EventDataset(std::move(events), 4096);
}

std::string ode2_file(const telescope::EventDataset& dataset, const FuzzFile& file) {
  write_events_ode2_file(dataset, file.put(""), 16);
  return file.contents();
}

/// Checks every property on one input; true when the strict open succeeded.
bool expect_ode2_properties(const FuzzFile& file, const std::string& bytes,
                            const std::string& what) {
  const std::string& path = file.put(bytes);
  std::optional<Ode2SalvageResult> salvage;
  try {
    salvage = read_events_ode2_salvage(path);
  } catch (const std::exception& e) {
    ADD_FAILURE() << what << ": salvage threw " << e.what();
  }
  std::optional<MappedEventStore> store;
  try {
    store.emplace(path);
  } catch (const std::runtime_error&) {
  } catch (const std::exception& e) {
    ADD_FAILURE() << what << ": strict open threw a non-runtime_error: " << e.what();
  }
  if (salvage) {
    EXPECT_EQ(salvage->footer_intact, store.has_value()) << what;
    EXPECT_EQ(salvage->recovered_count, salvage->dataset.event_count()) << what;
  }
  if (!store) return false;
  finishes_or_throws(what, "verify_blocks", [&] {
    if (store->verify_blocks() == store->block_count() && salvage) {
      EXPECT_TRUE(salvage->complete) << what;
      EXPECT_EQ(salvage->recovered_count, store->event_count()) << what;
    }
  });
  finishes_or_throws(what, "to_dataset", [&] { (void)store->to_dataset(); });
  finishes_or_throws(what, "detect", [&] { (void)detector().detect(*store); });
  finishes_or_throws(what, "DailyDarknetMix",
                     [&] { impact::DailyDarknetMix mix(*store, probe_sources()); });
  return true;
}

TEST(Fuzz, Ode2SeededMutations) {
  const FuzzFile file;
  std::size_t opened = 0;
  for (const telescope::EventDataset& dataset :
       {ode2_base_dataset(), telescope::EventDataset({}, 512)}) {
    const std::string base = ode2_file(dataset, file);
    const Layout layout = ode2_layout(base);
    for (std::size_t i = 0; i < kIterations / 2; ++i) {
      opened += expect_ode2_properties(
          file, mutate(base, layout, i),
          "ode2 base " + std::to_string(dataset.event_count()) + " iteration " +
              std::to_string(i));
    }
  }
  expect_reach("ode2", opened, kIterations);
}

// ------------------------------------------------------------------ FDE1

/// Every router over 4 days, a few sampled keys per cell (some cells
/// empty), written in blocks of 8 rows so cells straddle blocks.
flowsim::FlowDataset fde1_base_flows() {
  flowsim::FlowSimConfig config;
  config.start_day = 10;
  config.end_day = 14;
  config.sampling_rate = 100;
  std::vector<flowsim::RouterDay> cells = test_flows::grid(10, 14);
  for (std::size_t router = 0; router < flowsim::kRouterCount; ++router) {
    for (std::size_t day = 0; day < 4; ++day) {
      flowsim::RouterDay& rd = cells[router * 4 + day];
      rd.user_packets = 1000 * (router + 1);
      rd.scanner_packets = 100 * (day + 1);
      rd.total_packets = rd.user_packets + rd.scanner_packets;
      std::vector<flowsim::KeyedCount> counts;
      for (std::uint32_t k = 0; k < (router + day) % 5; ++k) {
        const flowsim::FlowKey key{source(k * 5 + static_cast<std::uint32_t>(day)),
                                   static_cast<std::uint16_t>(22 + k),
                                   k % 2 ? pkt::TrafficType::Udp
                                         : pkt::TrafficType::TcpSyn};
        counts.push_back({key, 3 + k});
      }
      test_flows::set_rows(rd, std::move(counts));
    }
  }
  return flowsim::FlowDataset(std::move(config), std::move(cells));
}

std::string fde1_file(const FuzzFile& file) {
  write_flows_fde1_file(fde1_base_flows(), file.put(""), 8);
  return file.contents();
}

/// Checks every property on one input; true when the strict open succeeded.
bool expect_fde1_properties(const FuzzFile& file, const std::string& bytes,
                            const std::string& what) {
  const std::string& path = file.put(bytes);
  std::optional<Fde1SalvageResult> salvage;
  try {
    salvage = read_flows_fde1_salvage(path);
  } catch (const std::exception& e) {
    ADD_FAILURE() << what << ": salvage threw " << e.what();
  }
  std::optional<MappedFlowStore> store;
  try {
    store.emplace(path);
  } catch (const std::runtime_error&) {
  } catch (const std::exception& e) {
    ADD_FAILURE() << what << ": strict open threw a non-runtime_error: " << e.what();
  }
  if (salvage) {
    EXPECT_EQ(salvage->footer_intact, store.has_value()) << what;
    EXPECT_EQ(salvage->recovered_count, salvage->rows.size()) << what;
  }
  if (!store) return false;
  finishes_or_throws(what, "verify_blocks", [&] {
    if (store->verify_blocks() == store->block_count() && salvage) {
      EXPECT_TRUE(salvage->complete) << what;
      EXPECT_EQ(salvage->recovered_count, store->flow_count()) << what;
    }
  });
  finishes_or_throws(what, "cells", [&] {
    for (const FlowSegment& seg : store->segments()) (void)store->cell(seg);
  });
  const impact::FlowImpactAnalyzer analyzer(&*store);
  finishes_or_throws(what, "prebuild_indexes", [&] { analyzer.prebuild_indexes(2); });
  if (!store->segments().empty()) {
    const FlowSegment& cell = store->segments().front();
    finishes_or_throws(what, "query", [&] {
      (void)analyzer.query(cell.router, cell.day, probe_sources());
    });
  }
  return true;
}


TEST(Fuzz, Fde1SeededMutations) {
  const FuzzFile file;
  const std::string base = fde1_file(file);
  const Layout layout = fde1_layout(base);
  std::size_t opened = 0;
  for (std::size_t i = 0; i < kIterations; ++i) {
    opened += expect_fde1_properties(file, mutate(base, layout, i),
                                     "fde1 iteration " + std::to_string(i));
  }
  expect_reach("fde1", opened, kIterations);
}

// -------------------------------------------------------------- splices

/// 60 events over 20 days from day 40, other sources and ports than
/// ode2_base_dataset: a second valid ODE2 body to splice with.
telescope::EventDataset ode2_other_dataset() {
  std::vector<telescope::DarknetEvent> events;
  for (int i = 0; i < 60; ++i) {
    telescope::DarknetEvent e;
    e.key.src = source(static_cast<std::uint32_t>(100 + i % 11));
    e.key.dst_port = static_cast<std::uint16_t>(23 + i % 3);
    e.key.type = pkt::TrafficType::TcpSyn;
    e.start = net::SimTime::at(net::Duration::days(40) +
                               net::Duration::seconds(29000 * i));
    e.end = e.start + net::Duration::seconds(5);
    e.packets = 3 + static_cast<std::uint64_t>(i);
    e.unique_dests = 2;
    events.push_back(e);
  }
  return telescope::EventDataset(std::move(events), 65536);
}

/// Routers 0 and 2 over 3 days from day 30 with other keys than
/// fde1_base_flows: a second valid FDE1 body to splice with.
flowsim::FlowDataset fde1_other_flows() {
  flowsim::FlowSimConfig config;
  config.start_day = 30;
  config.end_day = 33;
  config.sampling_rate = 1000;
  std::vector<flowsim::RouterDay> cells = test_flows::grid(30, 33);
  for (flowsim::RouterDay& rd : cells) {
    if (rd.router == 1) continue;
    rd.total_packets = 5000 + static_cast<std::uint64_t>(rd.day);
    std::vector<flowsim::KeyedCount> counts;
    for (std::uint32_t k = 0; k < 6; ++k) {
      counts.push_back({{source(200 + 3 * k), static_cast<std::uint16_t>(80 + k),
                         pkt::TrafficType::TcpSyn},
                        1 + k});
    }
    test_flows::set_rows(rd, std::move(counts));
  }
  return flowsim::FlowDataset(std::move(config), std::move(cells));
}

/// A valid archive and the block and footer boundaries a splice cuts at.
struct SpliceSource {
  std::string bytes;
  bool ode2 = false;
  std::vector<std::size_t> cuts;
};

SpliceSource splice_source(std::string bytes, bool ode2) {
  const Layout layout = ode2 ? ode2_layout(bytes) : fde1_layout(bytes);
  SpliceSource source{std::move(bytes), ode2, {0, kOde2HeaderBytes}};
  for (const auto& [offset, size] : layout.blocks) source.cuts.push_back(offset + size);
  source.cuts.push_back(layout.footer);
  source.cuts.push_back(layout.block_crcs);
  source.cuts.push_back(source.bytes.size());
  return source;
}

/// Reseals a spliced frame as far as its own header describes it: each
/// block CRC in the footer's array, the footer CRC, the header CRC.
void reseal_splice(std::string& bytes, bool ode2) {
  if (bytes.size() < 40) return;
  const std::uint64_t n = load(bytes, 16);
  const std::uint64_t b = load(bytes, 24);
  const std::uint64_t footer = load(bytes, 32);
  if (footer >= 40 && footer <= bytes.size() && bytes.size() - footer >= 36) {
    const std::uint64_t blocks = b == 0 ? 0 : n / b + (n % b != 0);
    if (n <= (1u << 20) && 4 * blocks + 36 <= bytes.size() - footer) {
      const std::size_t crcs = bytes.size() - 4 - 4 * static_cast<std::size_t>(blocks);
      std::size_t offset = kOde2HeaderBytes;
      for (std::uint64_t k = 0; k < blocks; ++k) {
        const std::uint64_t rows = std::min(b, n - k * b);
        const auto size = static_cast<std::size_t>(ode2 ? ode2_block_bytes(rows)
                                                        : fde1_block_bytes(rows));
        if (offset + size > footer) break;
        store_u32(bytes, crcs + 4 * static_cast<std::size_t>(k),
                  test_pins::crc_of(bytes.substr(offset, size)));
        offset += size;
      }
    }
    store_u32(bytes, bytes.size() - 4,
              test_pins::crc_of(bytes, static_cast<std::size_t>(footer), 4));
  }
  store_u32(bytes, 4, test_pins::crc_of(bytes.substr(0, 40), 8));
}

// Splices of two valid frames: a prefix of one archive up to a block or
// footer boundary joined to the suffix of another from such a boundary
// — two ODE2 archives, two FDE1 archives, or one of each with the magic
// rewritten to either format. Half the headers are refitted to the tail's
// geometry, and three in four inputs are resealed as far as the spliced
// header describes the file. Every input must meet the same
// properties as the seeded mutations, read as the format its magic names.
TEST(Fuzz, ArchiveFrameSplices) {
  const FuzzFile file;
  const auto ode2_bytes = [&file](const telescope::EventDataset& events,
                                  std::uint64_t block_events) {
    write_events_ode2_file(events, file.put(""), block_events);
    return splice_source(file.contents(), true);
  };
  const auto fde1_bytes = [&file](const flowsim::FlowDataset& flows,
                                  std::uint64_t block_flows) {
    write_flows_fde1_file(flows, file.put(""), block_flows);
    return splice_source(file.contents(), false);
  };
  const std::vector<SpliceSource> ode2 = {
      ode2_bytes(ode2_base_dataset(), 16), ode2_bytes(ode2_other_dataset(), 16),
      ode2_bytes(ode2_other_dataset(), 7)};
  const std::vector<SpliceSource> fde1 = {
      fde1_bytes(fde1_base_flows(), 8), fde1_bytes(fde1_other_flows(), 8),
      fde1_bytes(fde1_other_flows(), 5)};

  constexpr std::size_t kSplices = 2000;
  std::size_t opened = 0;
  for (std::size_t i = 0; i < kSplices; ++i) {
    std::mt19937_64 rng(kSeed + i);
    const auto pick = [&rng](std::size_t n) {
      return static_cast<std::size_t>(rng() % n);
    };
    const std::vector<SpliceSource>& first = i % 3 == 1 ? fde1 : ode2;
    const std::vector<SpliceSource>& second = i % 3 == 0 ? ode2 : fde1;
    const std::size_t a = pick(first.size());
    std::size_t b = pick(second.size());
    if (&first == &second && b == a) b = (b + 1) % second.size();
    const SpliceSource& head = first[a];
    const SpliceSource& tail = second[b];
    // Half the cuts are the same boundary of both sources (the k-th block
    // end), where two frames of one block size line up.
    const std::size_t j = pick(head.cuts.size());
    const std::size_t head_cut = head.cuts[j];
    const std::size_t tail_cut = pick(2) == 0
                                     ? tail.cuts[std::min(j, tail.cuts.size() - 1)]
                                     : tail.cuts[pick(tail.cuts.size())];
    std::string bytes = head.bytes.substr(0, head_cut) + tail.bytes.substr(tail_cut);
    if (head_cut >= 40 && pick(2) == 0) {
      // Half keep the head's header; the rest take the tail's row count
      // and block size, with its footer offset moved by the splice.
      store_u64(bytes, 16, load(tail.bytes, 16));
      store_u64(bytes, 24, load(tail.bytes, 24));
      store_u64(bytes, 32, load(tail.bytes, 32) + head_cut - tail_cut);
    }
    bool as_ode2 = head.ode2;
    if (head.ode2 != tail.ode2) {
      as_ode2 = pick(2) == 0;
      if (bytes.size() >= 4) bytes.replace(0, 4, as_ode2 ? "ODE2" : "FDE1");
    }
    if (pick(4) != 0) reseal_splice(bytes, as_ode2);
    const std::string what = "splice " + std::to_string(i);
    opened += as_ode2 ? expect_ode2_properties(file, bytes, what)
                      : expect_fde1_properties(file, bytes, what);
  }
  std::printf("[fuzz] splice: %zu of %zu opened\n", opened, kSplices);
  EXPECT_GT(opened, 0u);
}

// ------------------------------------------------------------ NetFlow v5

/// A tiny-scenario cell plus one flow too big for v5's 32-bit counters,
/// so its export stream holds full 30-record packets and a split flow.
flowsim::RouterDay nfv5_base_cell() {
  const scangen::Scenario scenario{scangen::tiny()};
  flowsim::FlowSimConfig config;
  config.isp_space = scenario.merit();
  config.start_day = 2;
  config.end_day = 3;
  config.seed = 77;
  const flowsim::FlowDataset flows =
      generate_flows(scenario.population_2021(), scenario.registry(),
                     flowsim::PeeringPolicy::merit_like(), config);
  flowsim::RouterDay cell = flows.at(0, 2);
  std::vector<flowsim::KeyedCount> counts;
  for (std::size_t i = 0; i < cell.rows.size(); ++i) {
    counts.push_back({{cell.rows.src(i), cell.rows.dst_port(i),
                       cell.rows.traffic_type(i)},
                      cell.rows.packets(i)});
  }
  counts.push_back({{source(1), 123, pkt::TrafficType::Udp},
                    (std::uint64_t{1} << 33) + 7});
  test_flows::set_rows(cell, std::move(counts));
  return cell;
}

using Nfv5Stream = std::vector<std::vector<std::uint8_t>>;

void put_be16(std::vector<std::uint8_t>& packet, std::size_t at,
              std::uint16_t v) {
  if (packet.size() < at + 2) return;
  packet[at] = static_cast<std::uint8_t>(v >> 8);
  packet[at + 1] = static_cast<std::uint8_t>(v);
}

/// The mutation of iteration `i` of a base export stream, drawn from
/// kSeed + i: one packet takes bit flips, a truncation, a lying record
/// count or version, or becomes a prefix of itself spliced onto another
/// packet. Returns the index of the mutated packet.
std::size_t mutate_nfv5(Nfv5Stream& stream, std::size_t i) {
  std::mt19937_64 rng(kSeed + i);
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  const std::size_t at = pick(stream.size());
  std::vector<std::uint8_t>& packet = stream[at];
  const std::uint16_t count = static_cast<std::uint16_t>(
      (packet[2] << 8) | packet[3]);
  switch (pick(5)) {
    case 0:  // bit flips
      for (std::size_t flips = 1 + pick(3); flips > 0; --flips) {
        packet[pick(packet.size())] ^= static_cast<std::uint8_t>(1u << pick(8));
      }
      break;
    case 1:  // truncation at any byte
      packet.resize(pick(packet.size()));
      break;
    case 2: {  // a lying record count
      const std::uint16_t lies[] = {0, 31, 0xFFFF,
                                    static_cast<std::uint16_t>(count + 1),
                                    static_cast<std::uint16_t>(count - 1)};
      put_be16(packet, 2, lies[pick(5)]);
      break;
    }
    case 3: {  // a lying version
      const std::uint16_t lies[] = {0, 1, 4, 6, 9, 0x0500, 0xFFFF};
      put_be16(packet, 0, lies[pick(7)]);
      break;
    }
    default: {  // a prefix of this packet spliced onto another
      const std::vector<std::uint8_t>& other = stream[pick(stream.size())];
      std::vector<std::uint8_t> spliced(packet.begin(),
                                        packet.begin() + static_cast<std::ptrdiff_t>(
                                                             pick(packet.size() + 1)));
      const std::size_t from = rng() % 2 ? 0 : std::min(spliced.size(), other.size());
      spliced.insert(spliced.end(), other.begin() + static_cast<std::ptrdiff_t>(from),
                     other.end());
      packet = std::move(spliced);
      break;
    }
  }
  return at;
}

/// Checks every property on one mutated stream; true when its mutated
/// packet still decodes.
bool expect_nfv5_properties(const Nfv5Stream& stream, std::size_t mutated,
                            const std::string& what) {
  std::size_t scalar_rejects = 0;
  std::size_t accepted_rows = 0;
  for (const std::vector<std::uint8_t>& wire : stream) {
    const auto scalar = flowsim::decode_netflow_v5(wire);
    flowsim::FlowBatch batch;
    flowsim::FlowRecord sentinel;
    sentinel.packets = 99;
    batch.push_back(sentinel);  // _into appends after what is there
    const auto header = flowsim::decode_netflow_v5_into(wire, batch, 2, 555);
    EXPECT_EQ(scalar.has_value(), header.has_value()) << what;
    if (!scalar || !header) {
      EXPECT_EQ(batch.size(), 1u) << what;
      scalar_rejects += !scalar;
      continue;
    }
    EXPECT_EQ(header->flow_sequence, scalar->header.flow_sequence) << what;
    EXPECT_EQ(header->sampling_interval, scalar->header.sampling_interval) << what;
    EXPECT_EQ(header->unix_secs, scalar->header.unix_secs) << what;
    if (batch.size() != 1 + scalar->records.size()) {
      ADD_FAILURE() << what << ": _into appended " << batch.size() - 1
                    << " rows for " << scalar->records.size() << " records";
      continue;
    }
    EXPECT_EQ(batch.record_at(0), sentinel) << what;
    for (std::size_t r = 0; r < scalar->records.size(); ++r) {
      const flowsim::NetflowV5Record& rec = scalar->records[r];
      flowsim::FlowRecord expected;
      expected.ts_ns = 555;
      expected.src = rec.src;
      expected.dst = rec.dst;
      expected.src_port = rec.src_port;
      expected.dst_port = rec.dst_port;
      expected.proto = rec.protocol;
      expected.packets = rec.packets;
      expected.bytes = rec.octets;
      expected.router = 2;
      EXPECT_EQ(batch.record_at(1 + r), expected) << what << " record " << r;
    }
    accepted_rows += scalar->records.size();
  }
  std::size_t rejected = 0;
  const flowsim::FlowBatch all = flowsim::ingest_flow_batch(stream, rejected);
  EXPECT_EQ(rejected, scalar_rejects) << what;
  EXPECT_EQ(all.size(), accepted_rows) << what;
  return flowsim::decode_netflow_v5(stream[mutated]).has_value();
}

TEST(Fuzz, Netflow5SeededMutations) {
  const flowsim::RouterDay cell = nfv5_base_cell();
  const Nfv5Stream base = flowsim::export_router_day(cell, 100, 3);
  ASSERT_GE(base.size(), 2u);
  ASSERT_EQ(flowsim::decode_netflow_v5(base.front())->records.size(),
            flowsim::kNetflowV5MaxRecords);
  std::size_t rejected = 0;
  const flowsim::FlowBatch decoded = flowsim::ingest_flow_batch(base, rejected);
  ASSERT_EQ(rejected, 0u);
  ASSERT_GT(decoded.size(), cell.rows.size());  // the oversized flow split
  ASSERT_TRUE(flowsim::fold_flow_batch(decoded, cell.router, cell.day) == cell.rows);

  std::size_t decodes = 0;
  for (std::size_t i = 0; i < kIterations; ++i) {
    Nfv5Stream stream = base;
    const std::size_t mutated = mutate_nfv5(stream, i);
    decodes += expect_nfv5_properties(stream, mutated,
                                      "nfv5 iteration " + std::to_string(i));
  }
  std::printf("[fuzz] nfv5: %zu of %zu mutated packets decoded\n", decodes,
              kIterations);
  EXPECT_GT(decodes, 0u);
  EXPECT_LT(decodes, kIterations);
}

// ------------------------------------------------------------------ AGG2

/// A two-prefix dark space of 2,080 addresses: one chunk, whose array
/// holds up to 64 keys before it becomes a bitmap. Its checkpoint bitmap
/// takes 33 words, the last with 32 bits past the dark space.
net::PrefixSet agg2_dark_space() {
  return net::PrefixSet({*net::Prefix::parse("10.20.0.0/21"),
                         *net::Prefix::parse("10.30.0.0/27")});
}
constexpr std::uint64_t kAgg2Darknet = 2080;
constexpr std::uint64_t kAgg2Words = (kAgg2Darknet + 63) / 64;

telescope::AggregatorConfig agg2_config() {
  telescope::AggregatorConfig config;
  config.timeout = net::Duration::hours(1);
  config.live_reserve = 16;
  return config;
}

std::vector<std::uint8_t> agg2_frame(const telescope::EventAggregator& agg) {
  telescope::CheckpointWriter writer;
  agg.checkpoint(writer);
  std::vector<std::uint8_t> frame;
  writer.finish(frame);
  return frame;
}

/// An aggregator checkpoint with four live events on both sides of the
/// list/bitmap boundary: 3 and 32 destinations (offset lists), 33 and
/// 300 (bitmaps).
std::vector<std::uint8_t> agg2_base_frame() {
  telescope::EventAggregator agg(agg2_dark_space(), agg2_config(), {});
  const net::PrefixSet dark = agg2_dark_space();
  const std::pair<std::uint32_t, std::uint64_t> scans[] = {
      {0xCB007101u, 3}, {0xCB007102u, kAgg2Words - 1}, {0xCB007103u, kAgg2Words},
      {0xCB007104u, 300}};
  pkt::PacketBatch batch;
  for (std::uint64_t i = 0; i < 300; ++i) {
    for (const auto& [src, dests] : scans) {
      if (i >= dests) continue;
      pkt::Packet p;
      p.timestamp = net::SimTime::at(net::Duration::seconds(static_cast<std::int64_t>(i)));
      p.tuple.src = net::Ipv4Address(src);
      p.tuple.dst = dark.address_at(i * 2027 % kAgg2Darknet);
      p.tuple.dst_port = 23;
      p.tuple.proto = net::IpProto::Tcp;
      p.tcp_flags = 0x02;  // SYN
      batch.push_back(p);
    }
  }
  agg.observe_batch(batch);
  return agg2_frame(agg);
}

/// Where the base AGG2 payload keeps each live event's destination count
/// and its offsets or bitmap words (offsets into the payload).
struct Agg2Layout {
  std::size_t live_count = 0;
  struct Entry {
    std::size_t count, first;  // the count, the first offset or word
    std::uint64_t dests;
    bool bitmap() const { return dests >= kAgg2Words; }
    std::size_t items() const { return bitmap() ? kAgg2Words : dests; }
  };
  std::vector<Entry> entries;
};

constexpr std::size_t kFrameHead = 4 + 8 + 8;  // magic, version, length

Agg2Layout agg2_layout(const std::vector<std::uint8_t>& frame) {
  const std::string payload(frame.begin() + kFrameHead, frame.end() - 4);
  const std::uint64_t prefixes = load(payload, 8 + 2 * 8);
  Agg2Layout layout;
  layout.live_count = 8 + 2 * 8 + 8 + prefixes * 16 + 1 + 2 * 8 + 5 * 8;
  std::size_t at = layout.live_count + 8;
  for (std::uint64_t e = load(payload, layout.live_count); e > 0; --e) {
    at += 8 + 8 + 1 + 3 * 8 + sizeof(telescope::ToolPackets);
    Agg2Layout::Entry entry{at, at + 8, load(payload, at)};
    layout.entries.push_back(entry);
    at = entry.first + 8 * entry.items();
  }
  return layout;
}

/// The mutation of iteration `i` of a base AGG2 frame, drawn from kSeed + i.
std::vector<std::uint8_t> mutate_agg2(const std::vector<std::uint8_t>& frame,
                                      const Agg2Layout& layout, std::size_t i) {
  std::mt19937_64 rng(kSeed + i);
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  std::string payload(frame.begin() + kFrameHead, frame.end() - 4);
  const Agg2Layout::Entry& entry = layout.entries[pick(layout.entries.size())];
  const std::size_t item_at = entry.first + 8 * pick(entry.items());
  const std::size_t last_word = entry.first + 8 * (kAgg2Words - 1);
  switch (pick(9)) {
    case 0:  // bit flips anywhere
      for (std::size_t n = 1 + pick(4); n > 0; --n) {
        payload[pick(payload.size())] ^= static_cast<char>(1u << pick(8));
      }
      break;
    case 1:  // truncation
      payload.resize(pick(payload.size()));
      break;
    case 2: {  // a lying count, around the list/bitmap boundary among others
      const std::uint64_t lies[] = {kAgg2Words - 1, kAgg2Words, kAgg2Words + 1,
                                    entry.dests + 1, entry.dests - 1, 0,
                                    kAgg2Darknet, kAgg2Darknet + 1,
                                    entry.dests + (std::uint64_t{1} << 61), rng()};
      store_u64(payload, entry.count, lies[pick(10)]);
      break;
    }
    case 3: {  // an offset at or past the darknet size
      if (entry.bitmap()) break;
      const std::uint64_t offsets[] = {kAgg2Darknet, kAgg2Darknet + 1, std::uint64_t{1} << 16,
                                       std::uint64_t{1} << 32, ~std::uint64_t{0}, rng()};
      store_u64(payload, item_at, offsets[pick(6)]);
      break;
    }
    case 4:  // an offset out of order: the next one's value, or the previous one's
      if (entry.bitmap() || entry.dests < 2) break;
      if (item_at + 8 < entry.first + 8 * entry.dests) {
        store_u64(payload, item_at, load(payload, item_at + 8) + pick(2));
      } else {
        store_u64(payload, item_at, load(payload, item_at - 8) - pick(2));
      }
      break;
    case 5:  // a set padding bit, alone or with the count raised to match
      if (!entry.bitmap()) break;
      store_u64(payload, last_word,
                load(payload, last_word) |
                    std::uint64_t{1} << (kAgg2Darknet % 64 + pick(64 - kAgg2Darknet % 64)));
      if (pick(2) == 0) store_u64(payload, entry.count, entry.dests + 1);
      break;
    case 6: {  // one bit flipped inside the dark space: a popcount unlike
               // the count, or the count moved to match
      if (!entry.bitmap()) break;
      const std::uint64_t offset = pick(kAgg2Darknet);
      const std::size_t word_at = entry.first + 8 * (offset / 64);
      const std::uint64_t bit = std::uint64_t{1} << (offset % 64);
      const std::uint64_t word = load(payload, word_at) ^ bit;
      store_u64(payload, word_at, word);
      if (pick(2) == 0) {
        store_u64(payload, entry.count, (word & bit) != 0 ? entry.dests + 1 : entry.dests - 1);
      }
      break;
    }
    case 7: {  // a valid set: one offset moved strictly between its neighbours
      if (entry.bitmap()) break;
      const bool first = item_at == entry.first;
      const bool last = item_at + 8 == entry.first + 8 * entry.dests;
      const std::uint64_t lo = first ? 0 : load(payload, item_at - 8) + 1;
      const std::uint64_t hi = last ? kAgg2Darknet : load(payload, item_at + 8);
      store_u64(payload, item_at, lo + rng() % (hi - lo));
      break;
    }
    default:  // a lying live-event count
      store_u64(payload, layout.live_count,
                load(payload, layout.live_count) + 1 - 2 * pick(2));
      break;
  }
  if (pick(4) == 0) {  // unsealed: the old CRC over the new bytes
    std::vector<std::uint8_t> out(frame.begin(), frame.begin() + kFrameHead);
    out.insert(out.end(), payload.begin(), payload.end());
    out.insert(out.end(), frame.end() - 4, frame.end());
    return out;
  }
  telescope::CheckpointWriter writer;
  writer.bytes({reinterpret_cast<const std::uint8_t*>(payload.data()), payload.size()});
  std::vector<std::uint8_t> out;
  writer.finish(out);
  return out;
}

/// Restore succeeds or throws std::runtime_error; after a success,
/// checkpoint -> restore -> checkpoint is byte-stable. True on success.
bool expect_agg2_properties(const std::vector<std::uint8_t>& frame,
                            const std::string& what) {
  telescope::EventAggregator agg(agg2_dark_space(), agg2_config(), {});
  try {
    telescope::CheckpointReader reader(frame);
    agg.restore(reader);
  } catch (const std::runtime_error&) {
    return false;
  } catch (const std::exception& e) {
    ADD_FAILURE() << what << ": restore threw a non-runtime_error: " << e.what();
    return false;
  }
  const std::vector<std::uint8_t> once = agg2_frame(agg);
  telescope::EventAggregator again(agg2_dark_space(), agg2_config(), {});
  telescope::CheckpointReader reader(once);
  again.restore(reader);
  EXPECT_EQ(agg2_frame(again), once) << what;
  return true;
}

TEST(Fuzz, Agg2SeededMutations) {
  ASSERT_EQ(agg2_dark_space().total_addresses(), kAgg2Darknet);
  const std::vector<std::uint8_t> base = agg2_base_frame();
  const Agg2Layout layout = agg2_layout(base);
  ASSERT_EQ(layout.entries.size(), 4u);
  // Key order: the 3-, 32-, 33- and 300-destination scans.
  EXPECT_EQ(layout.entries[0].dests, 3u);
  EXPECT_EQ(layout.entries[1].dests, kAgg2Words - 1);
  EXPECT_EQ(layout.entries[2].dests, kAgg2Words);
  EXPECT_EQ(layout.entries[3].dests, 300u);
  EXPECT_FALSE(layout.entries[1].bitmap());
  EXPECT_TRUE(layout.entries[2].bitmap());
  ASSERT_EQ(base.size(), kFrameHead + layout.entries[3].first + 8 * kAgg2Words + 4);
  ASSERT_TRUE(expect_agg2_properties(base, "agg2 base"));
  std::size_t restored = 0;
  for (std::size_t i = 0; i < kIterations; ++i) {
    restored += expect_agg2_properties(mutate_agg2(base, layout, i),
                                       "agg2 iteration " + std::to_string(i));
  }
  expect_reach("agg2", restored, kIterations, "restored");
}

// ------------------------------------------------------------------ OMF1

/// An OMF1 manifest held in a string, with where the mutator aims.
struct Omf1 {
  std::string bytes;
  std::vector<std::size_t> counts;   // the entry count, every string length
  std::vector<std::size_t> numbers;  // the generations and entry sizes
};

void reseal_omf1(std::string& bytes) {
  if (bytes.size() >= 8) store_u32(bytes, 4, test_pins::crc_of(bytes, 8));
}

/// The manifest ArchiveDir writes for `entries` at `generation`.
Omf1 omf1(std::uint64_t generation, const std::vector<ManifestEntry>& entries) {
  Omf1 out;
  std::string& b = out.bytes;
  b = std::string("OMF1") + std::string(4, '\0');
  const auto u64 = [&b](std::uint64_t v) {
    b.append(8, '\0');
    store_u64(b, b.size() - 8, v);
  };
  const auto str = [&](const std::string& s) {
    out.counts.push_back(b.size());
    u64(s.size());
    b += s;
  };
  out.numbers.push_back(b.size());
  u64(generation);
  out.counts.push_back(b.size());
  u64(entries.size());
  for (const ManifestEntry& e : entries) {
    str(e.name);
    str(e.file);
    out.numbers.push_back(b.size());
    u64(e.generation);
    out.numbers.push_back(b.size());
    u64(e.bytes);
    b.append(4, '\0');
    store_u32(b, b.size() - 4, e.crc);
  }
  reseal_omf1(b);
  return out;
}

/// The mutation of iteration `i` of the base manifest, drawn from kSeed + i.
std::string mutate_omf1(std::uint64_t generation,
                        const std::vector<ManifestEntry>& entries, std::size_t i) {
  std::mt19937_64 rng(kSeed + i);
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  std::vector<ManifestEntry> edited = entries;
  ManifestEntry& entry = edited[pick(edited.size())];
  const Omf1 base = omf1(generation, entries);
  std::string bytes = base.bytes;
  bool sealed = pick(4) != 0;
  switch (pick(6)) {
    case 0:  // bit flips anywhere
      for (std::size_t n = 1 + pick(4); n > 0; --n) {
        bytes[pick(bytes.size())] ^= static_cast<char>(1u << pick(8));
      }
      break;
    case 1:  // truncation
      bytes.resize(pick(bytes.size()));
      sealed = false;
      break;
    case 2: {  // a lying entry count or string length
      const std::size_t at = base.counts[pick(base.counts.size())];
      const std::uint64_t v = load(bytes, at);
      const std::uint64_t lies[] = {v + 1, v - 1, 0, v + (std::uint64_t{1} << 61),
                                    std::uint64_t{1} << 16, rng()};
      store_u64(bytes, at, lies[pick(6)]);
      break;
    }
    case 3: {  // a lying generation or size
      const std::size_t at = base.numbers[pick(base.numbers.size())];
      const std::uint64_t v = load(bytes, at);
      const std::uint64_t lies[] = {v + 1, v - 1, 0, ~std::uint64_t{0}, rng()};
      store_u64(bytes, at, lies[pick(5)]);
      break;
    }
    case 4: {  // an entry file that leaves the directory or names another
      const std::string files[] = {"../omf1_victim", "../" + entry.file,
                                   "sub/" + entry.file, "..", ".", "/",
                                   entry.file + "/..", entry.name + ".g0",
                                   edited[pick(edited.size())].file};
      entry.file = files[pick(std::size(files))];
      bytes = omf1(generation, edited).bytes;
      break;
    }
    default:  // an entry from a generation the manifest has not reached
      entry.generation = generation + 1 + pick(3);
      if (pick(2) == 0) entry.file = entry.name + ".g" + std::to_string(entry.generation);
      bytes = omf1(generation, edited).bytes;
      break;
  }
  if (sealed) reseal_omf1(bytes);
  return bytes;
}

TEST(Fuzz, Omf1SeededMutations) {
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("orion_fuzz_omf1_" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(dir);
  std::uint64_t generation = 0;
  std::vector<ManifestEntry> entries;
  std::map<std::string, std::string> files;  // the base archive, manifest included
  {
    const flowsim::FlowDataset flows = fde1_base_flows();
    const telescope::EventDataset events = ode2_base_dataset();
    ArchiveDir archive(dir);
    archive.publish_many({{"flows", flows_fde1_writer(flows, 8)},
                          {"events", events_ode2_writer(events, 16)}});
    archive.publish_many(
        {{"flows", flows_fde1_writer(flows, 5)},
         {"notes", [](net::io::File& f) { f.write("three entries", 13); }}});
    generation = archive.generation();
    entries = archive.entries();
    for (const auto& it : std::filesystem::directory_iterator(dir)) {
      std::ifstream in(it.path(), std::ios::binary);
      files[it.path().filename().string()].assign(
          std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
    }
  }
  ASSERT_EQ(generation, 2u);
  ASSERT_EQ(entries.size(), 3u);
  ASSERT_EQ(files.size(), 4u);  // flows.g2, events.g1, notes.g2, MANIFEST
  ASSERT_EQ(omf1(generation, entries).bytes, files[kManifestName]);

  const auto reset = [&](const std::string& manifest) {
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    for (const auto& [name, bytes] : files) {
      std::ofstream(dir + "/" + name, std::ios::binary)
          << (name == kManifestName ? manifest : bytes);
    }
  };
  reset(files[kManifestName]);
  serve::StoreCache cache(dir, "flows", "events");
  ASSERT_TRUE(cache.refresh());

  std::size_t loaded = 0;
  for (std::size_t i = 0; i < kIterations; ++i) {
    const std::string what = "omf1 iteration " + std::to_string(i);
    reset(mutate_omf1(generation, entries, i));
    std::optional<std::uint64_t> opened;
    try {
      const ArchiveDir archive(dir);
      opened = archive.generation();
      for (const ManifestEntry& e : archive.entries()) {
        EXPECT_TRUE(e.file.find('/') == std::string::npos && e.file != "." &&
                    e.file != "..")
            << what << ": entry file '" << e.file << "'";
      }
      ++loaded;
    } catch (const ArchiveError&) {
    } catch (const std::exception& e) {
      ADD_FAILURE() << what << ": strict open threw a non-ArchiveError: " << e.what();
    }
    const bool swapped = cache.refresh();
    if (swapped) {
      EXPECT_TRUE(opened && *opened != generation) << what;
      EXPECT_EQ(cache.current()->generation, opened.value_or(0)) << what;
      reset(files[kManifestName]);
      ASSERT_TRUE(cache.refresh()) << what;
    } else {
      EXPECT_EQ(cache.current()->generation, generation) << what;
    }
    try {
      recover_archive(dir);
    } catch (...) {
      ADD_FAILURE() << what << ": recover_archive threw";
    }
  }
  std::printf("[fuzz] omf1: %zu of %zu manifests passed the strict open\n",
              loaded, kIterations);
  EXPECT_GT(loaded, 0u);
  std::filesystem::remove_all(dir);
}

// --------------------------------------------------- regression inputs

// A footer's day_count and last_day raised by 2^61 under a resealed CRC:
// 8 * (day_count + 1) wrapped to the real footer size and the strict open
// threw std::length_error from the day-index allocation.
TEST(FuzzRegression, Ode2FooterDayCountRaisedBy2To61) {
  const FuzzFile file;
  std::string bytes = ode2_file(ode2_base_dataset(), file);
  const Layout layout = ode2_layout(bytes);
  for (const std::size_t field : {8, 16}) {
    const std::size_t at = layout.footer + field;
    store_u64(bytes, at, load(bytes, at) + (std::uint64_t{1} << 61));
  }
  reseal(bytes, layout);
  expect_ode2_properties(file, bytes, "day_count + 2^61");
  EXPECT_THROW(MappedEventStore{file.put(bytes)}, std::runtime_error);
}

// Row 0's start moved 400 days past the footer's window, no reseal: the
// strict open passed, then detect and DailyDarknetMix indexed per-day
// tables past their end.
TEST(FuzzRegression, Ode2RowStartOutsideTheDayWindow) {
  const FuzzFile file;
  std::string bytes = ode2_file(ode2_base_dataset(), file);
  store_u64(bytes, kOde2HeaderBytes,
            load(bytes, kOde2HeaderBytes) +
                static_cast<std::uint64_t>(net::Duration::days(400).total_nanos()));
  expect_ode2_properties(file, bytes, "start + 400 days");
  const MappedEventStore store(file.put(bytes));
  EXPECT_THROW(detector().detect(store), std::runtime_error);
}

// One src of block 0 overwritten, size kept: the rows of the first cell
// reach the index build out of order, and the throw escaped a prebuild
// worker thread (std::terminate).
TEST(FuzzRegression, Fde1BitRottedSourceInBlock0) {
  const FuzzFile file;
  std::string bytes = fde1_file(file);
  {
    // The first row of the first cell with two or more rows, in block 0.
    const MappedFlowStore clean(file.put(bytes));
    const FlowView block0 = clean.block(0);
    std::size_t row = 0;
    for (const FlowSegment& seg : clean.segments()) {
      if (seg.row_end - seg.row_begin >= 2) {
        row = static_cast<std::size_t>(seg.row_begin);
        break;
      }
    }
    ASSERT_LT(row + 1, block0.rows());
    const auto src = reinterpret_cast<const char*>(block0.src.data() + row) -
                     reinterpret_cast<const char*>(block0.ts_ns.data());
    store_u32(bytes, clean.blocks()[0].offset + static_cast<std::size_t>(src),
              0xFFFFFFFFu);
  }
  expect_fde1_properties(file, bytes, "rotted src");
  const MappedFlowStore store(file.put(bytes));
  EXPECT_THROW(impact::FlowImpactAnalyzer(&store).prebuild_indexes(2),
               std::invalid_argument);
}

// Entries naming a generation the manifest has not reached, a name
// publish refuses, or "../victim", under a valid CRC: each loaded, and the
// last let the next publish's GC unlink a file outside the archive.
TEST(FuzzRegression, Omf1EntryOutsideTheArchiveIsCorruptAndItsFileSurvives) {
  const std::string root =
      (std::filesystem::temp_directory_path() /
       ("orion_fuzz_omf1_escape_" + std::to_string(::getpid())))
          .string();
  const std::string dir = root + "/archive";
  std::filesystem::remove_all(root);
  const auto blob = [](net::io::File& f) { f.write("blob", 4); };
  ArchiveDir(dir).publish("a", blob);
  std::ofstream(root + "/victim") << "not the archive's";
  const ManifestEntry good = ArchiveDir(dir).entries().front();

  ManifestEntry future = good;
  future.generation = 2;
  future.file = "a.g2";
  ManifestEntry unnamed = good;
  unnamed.name = "../a";
  unnamed.file = "../a.g1";
  ManifestEntry escaped = good;
  escaped.file = "../victim";
  for (const ManifestEntry& bad : {future, unnamed, escaped}) {
    std::ofstream(dir + "/" + kManifestName, std::ios::binary | std::ios::trunc)
        << omf1(1, {bad}).bytes;
    EXPECT_THROW(ArchiveDir{dir}, ArchiveError) << bad.file;
  }

  EXPECT_FALSE(recover_archive(dir).manifest_valid);
  ArchiveDir archive(dir);
  archive.publish("a", blob);
  EXPECT_TRUE(std::filesystem::exists(root + "/victim"));
  EXPECT_TRUE(archive.verify("a"));
  std::filesystem::remove_all(root);
}

}  // namespace
}  // namespace orion::store
