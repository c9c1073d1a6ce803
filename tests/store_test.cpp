// ODE2 columnar store tests: round trips at any block size, writer bytes
// pinned to constants, the zero-copy query surface (day index, zone maps,
// parallel_scan), the strict-open and salvage corrupt-input corpus, and
// the analysis-equivalence pins (detection and darknet mixes fed from an
// mmap'ed archive must match the materialized-dataset paths exactly).
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "orion/detect/detector.hpp"
#include "orion/impact/flow_join.hpp"
#include "orion/scangen/event_synth.hpp"
#include "orion/scangen/scenario.hpp"
#include "orion/store/mapped.hpp"
#include "orion/store/ode2.hpp"
#include "orion/telescope/capture.hpp"

#include "crc_pins.hpp"

namespace orion::store {
namespace {

using telescope::DarknetEvent;
using telescope::EventDataset;

/// 100 events spanning ~13 days: same shape as telescope_test's sample
/// but spread across days so the day index and zone maps have structure.
EventDataset sample_dataset() {
  std::vector<DarknetEvent> events;
  for (int i = 0; i < 100; ++i) {
    DarknetEvent e;
    e.key.src = net::Ipv4Address(0xCB007100u + static_cast<std::uint32_t>(i % 37));
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
  return EventDataset(std::move(events), 4096);
}

/// RAII temp file seeded with the given bytes. The path embeds the PID:
/// gtest tests run as separate concurrent ctest processes, so a bare
/// counter would collide across them.
class TempFile {
 public:
  explicit TempFile(const std::string& bytes, const char* tag = "ode2") {
    static int counter = 0;
    path_ = (std::filesystem::temp_directory_path() /
             ("orion_store_test_" + std::to_string(::getpid()) + "_" +
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

std::string ode2_bytes(const EventDataset& dataset,
                       std::uint64_t block_events = kOde2DefaultBlockEvents) {
  const TempFile file("", "written");
  write_events_ode2_file(dataset, file.path(), block_events);
  return file.contents();
}

/// Same darknet size and the same events; DarknetEvent's operator==
/// compares every field the format encodes.
void expect_identical(const EventDataset& a, const EventDataset& b) {
  EXPECT_EQ(a.darknet_size(), b.darknet_size());
  ASSERT_EQ(a.event_count(), b.event_count());
  for (std::size_t i = 0; i < a.event_count(); ++i) {
    EXPECT_EQ(a.events()[i], b.events()[i]) << "event " << i;
  }
}

// ------------------------------------------------------------- round trip

TEST(Ode2RoundTrip, DatasetSurvivesByteIdentical) {
  const EventDataset original = sample_dataset();
  const TempFile file(ode2_bytes(original));
  const MappedEventStore store(file.path());
  EXPECT_EQ(store.event_count(), 100u);
  EXPECT_EQ(store.darknet_size(), 4096u);
  EXPECT_EQ(store.first_day(), original.first_day());
  EXPECT_EQ(store.last_day(), original.last_day());
  EXPECT_EQ(store.verify_blocks(), store.block_count());
  expect_identical(original, store.to_dataset());
}

TEST(Ode2RoundTrip, EveryBlockSizeYieldsTheSameDataset) {
  const EventDataset original = sample_dataset();
  for (const std::uint64_t block_events : {1u, 3u, 16u, 100u, 1024u}) {
    const TempFile file(ode2_bytes(original, block_events));
    const MappedEventStore store(file.path());
    const std::uint64_t expect_blocks =
        (100 + block_events - 1) / block_events;
    EXPECT_EQ(store.block_count(), expect_blocks) << block_events;
    expect_identical(original, store.to_dataset());
  }
}

TEST(Ode2RoundTrip, EmptyDatasetRoundTrips) {
  const EventDataset original({}, 512);
  const TempFile file(ode2_bytes(original));
  const MappedEventStore store(file.path());
  EXPECT_EQ(store.event_count(), 0u);
  EXPECT_EQ(store.block_count(), 0u);
  EXPECT_EQ(store.darknet_size(), 512u);
  EXPECT_EQ(store.to_dataset().event_count(), 0u);
  std::size_t visited = 0;
  store.for_each_event([&](const EventRow&) { ++visited; });
  EXPECT_EQ(visited, 0u);
}

TEST(Ode2RoundTrip, WriterRejectsBadBlockSize) {
  const EventDataset dataset = sample_dataset();
  const TempFile file("", "rejected");
  EXPECT_THROW(write_events_ode2_file(dataset, file.path(), 0),
               std::invalid_argument);
  EXPECT_THROW(
      write_events_ode2_file(dataset, file.path(), std::uint64_t{1} << 60),
      std::invalid_argument);
}

// ------------------------------------------------------ zero-copy queries

TEST(MappedStore, DayRangeMatchesLinearScan) {
  const EventDataset dataset = sample_dataset();
  const TempFile file(ode2_bytes(dataset, 16));
  const MappedEventStore store(file.path());
  for (std::int64_t day = dataset.first_day() - 1;
       day <= dataset.last_day() + 1; ++day) {
    std::uint64_t lo = dataset.event_count(), hi = 0, count = 0;
    for (std::size_t i = 0; i < dataset.event_count(); ++i) {
      if (dataset.events()[i].day() != day) continue;
      lo = std::min<std::uint64_t>(lo, i);
      hi = std::max<std::uint64_t>(hi, i + 1);
      ++count;
    }
    const auto [begin, end] = store.day_range(day);
    if (count == 0) {
      EXPECT_EQ(begin, end) << "day " << day;
    } else {
      EXPECT_EQ(begin, lo) << "day " << day;
      EXPECT_EQ(end, hi) << "day " << day;
    }
    std::uint64_t visited = 0;
    std::uint64_t packets = 0;
    store.for_each_event_on_day(day, [&](const EventRow& e) {
      EXPECT_EQ(e.day(), day);
      packets += e.packets;
      ++visited;
    });
    EXPECT_EQ(visited, count) << "day " << day;
  }
}

TEST(MappedStore, EventAccessorMatchesDataset) {
  const EventDataset dataset = sample_dataset();
  const TempFile file(ode2_bytes(dataset, 7));
  const MappedEventStore store(file.path());
  for (std::size_t i = 0; i < dataset.event_count(); ++i) {
    EXPECT_EQ(store.event(i), dataset.events()[i]) << "row " << i;
  }
  EXPECT_THROW(store.event(dataset.event_count()), std::runtime_error);
}

TEST(MappedStore, ZoneMapPruningLosesNoMatchingRows) {
  const EventDataset dataset = sample_dataset();
  const TempFile file(ode2_bytes(dataset, 8));
  const MappedEventStore store(file.path());
  const std::int64_t day_lo = dataset.first_day() + 2;
  const std::int64_t day_hi = dataset.first_day() + 5;
  const std::uint32_t src_lo = 0xCB007100u + 5;
  const std::uint32_t src_hi = 0xCB007100u + 20;

  std::uint64_t expected = 0;
  for (const DarknetEvent& e : dataset.events()) {
    if (e.day() >= day_lo && e.day() <= day_hi &&
        e.key.src.value() >= src_lo && e.key.src.value() <= src_hi) {
      ++expected;
    }
  }
  ASSERT_GT(expected, 0u);

  // Blocks are a superset (zone maps prune, never filter rows); the
  // row-level predicate inside the visited blocks must find every match.
  std::uint64_t found = 0;
  store.for_each_block(day_lo, day_hi, src_lo, src_hi,
                       [&](const BlockView& view) {
                         for (std::size_t i = 0; i < view.rows(); ++i) {
                           const std::int64_t day =
                               net::SimTime::at(
                                   net::Duration::nanos(view.start_ns[i]))
                                   .day();
                           if (day >= day_lo && day <= day_hi &&
                               view.src[i] >= src_lo && view.src[i] <= src_hi) {
                             ++found;
                           }
                         }
                       });
  EXPECT_EQ(found, expected);

  // A (day, src) window matching nothing visits no blocks at all.
  std::size_t blocks_visited = 0;
  store.for_each_block(dataset.last_day() + 10, dataset.last_day() + 20, 0,
                       0xFFFFFFFFu,
                       [&](const BlockView&) { ++blocks_visited; });
  EXPECT_EQ(blocks_visited, 0u);
}

TEST(MappedStore, ParallelScanIdenticalForAnyThreadCount) {
  const EventDataset dataset = sample_dataset();
  const TempFile file(ode2_bytes(dataset, 4));  // 25 blocks
  const MappedEventStore store(file.path());

  // The state records a per-block digest in visit order, so any change in
  // partitioning or merge order shows up as a different vector.
  struct Digests {
    std::vector<std::uint64_t> per_block;
  };
  const auto scan = [&](std::size_t n_threads) {
    return store.parallel_scan<Digests>(
        n_threads,
        [](Digests& state, const BlockView& view) {
          std::uint64_t digest = view.first_row * 1000003u;
          for (std::size_t i = 0; i < view.rows(); ++i) {
            digest = digest * 31 + view.packets[i] + view.src[i];
          }
          state.per_block.push_back(digest);
        },
        [](Digests& into, Digests&& from) {
          into.per_block.insert(into.per_block.end(), from.per_block.begin(),
                                from.per_block.end());
        });
  };

  const Digests reference = scan(1);
  ASSERT_EQ(reference.per_block.size(), store.block_count());
  for (const std::size_t n : {2u, 3u, 4u, 7u, 16u, 64u}) {
    EXPECT_EQ(scan(n).per_block, reference.per_block) << n << " threads";
  }
  EXPECT_EQ(scan(0).per_block, reference.per_block);  // hardware default
}

// A throwing per_block reaches the caller as the first failure in block
// order at every thread count, instead of ending the process.
TEST(MappedStore, ParallelScanHandsBackTheFirstFailureInBlockOrder) {
  const EventDataset dataset = sample_dataset();
  const TempFile file(ode2_bytes(dataset, 4));  // 25 blocks
  const MappedEventStore store(file.path());
  const auto scan = [&](std::size_t n_threads, std::vector<std::uint64_t> bad) {
    struct Count {
      std::size_t blocks = 0;
    };
    return store.parallel_scan<Count>(
        n_threads,
        [&bad](Count& state, const BlockView& view) {
          const std::uint64_t k = view.first_row / 4;
          if (std::find(bad.begin(), bad.end(), k) != bad.end()) {
            throw std::runtime_error("block " + std::to_string(k));
          }
          ++state.blocks;
        },
        [](Count& into, Count&& from) { into.blocks += from.blocks; });
  };
  ASSERT_EQ(store.block_count(), 25u);
  for (const std::size_t n : {1u, 2u, 4u}) {
    for (const std::vector<std::uint64_t>& bad :
         {std::vector<std::uint64_t>{0}, {12}, {24}, {20, 3}, {13, 24}}) {
      const std::string first = "block " + std::to_string(
                                               *std::min_element(bad.begin(), bad.end()));
      try {
        scan(n, bad);
        ADD_FAILURE() << n << " threads: no exception";
      } catch (const std::runtime_error& e) {
        EXPECT_EQ(e.what(), first) << n << " threads";
      }
    }
    EXPECT_EQ(scan(n, {}).blocks, 25u);
  }
}

// ------------------------------------------------- strict-open rejection

TEST(MappedStore, StrictOpenRejectsCorruption) {
  const std::string bytes = ode2_bytes(sample_dataset(), 16);
  {  // bad magic
    std::string bad = bytes;
    bad[0] = 'X';
    const TempFile file(bad);
    EXPECT_THROW(MappedEventStore{file.path()}, std::runtime_error);
  }
  {  // header payload flip breaks the header CRC
    std::string bad = bytes;
    bad[9] ^= 0x40;
    const TempFile file(bad);
    EXPECT_THROW(MappedEventStore{file.path()}, std::runtime_error);
  }
  {  // truncation anywhere breaks the geometry
    const TempFile file(bytes.substr(0, bytes.size() / 2));
    EXPECT_THROW(MappedEventStore{file.path()}, std::runtime_error);
  }
  {  // footer flip breaks the footer CRC
    std::string bad = bytes;
    bad[bad.size() - 3] ^= 0x01;
    const TempFile file(bad);
    EXPECT_THROW(MappedEventStore{file.path()}, std::runtime_error);
  }
  {  // block payload corruption is lazy: open succeeds, verify catches it
    std::string bad = bytes;
    bad[kOde2HeaderBytes + ode2_block_bytes(16) + 5] ^= 0x10;  // block 1
    const TempFile file(bad);
    const MappedEventStore store(file.path());
    EXPECT_EQ(store.verify_blocks(), 1u);
  }
}

// A footer whose day_count and last_day both grew by 2^61 under a resealed
// CRC: the day window still looks consistent and 8 * (day_count + 1)
// wraps back to the real footer size, so an unbounded day_count reached
// the day-index allocation.
TEST(MappedStore, StrictOpenBoundsTheFooterDayCount) {
  std::string bytes = ode2_bytes(sample_dataset(), 16);
  std::uint64_t footer = 0;
  std::memcpy(&footer, bytes.data() + 32, 8);
  for (const std::size_t field : {8, 16}) {  // last_day, day_count
    std::uint64_t v = 0;
    std::memcpy(&v, bytes.data() + footer + field, 8);
    v += std::uint64_t{1} << 61;
    std::memcpy(bytes.data() + footer + field, &v, 8);
  }
  const std::uint32_t crc = test_pins::crc_of(bytes, footer, 4);
  std::memcpy(bytes.data() + bytes.size() - 4, &crc, 4);
  const TempFile file(bytes);
  EXPECT_THROW(MappedEventStore{file.path()}, std::runtime_error);
  const Ode2SalvageResult salvage = read_events_ode2_salvage(file.path());
  EXPECT_FALSE(salvage.footer_intact);
  EXPECT_EQ(salvage.recovered_count, 100u);
}

// --------------------------- corrupt-input corpus: truncation + bit flips

TEST(Ode2Salvage, CleanFileIsComplete) {
  const TempFile file(ode2_bytes(sample_dataset(), 16));
  const Ode2SalvageResult result = read_events_ode2_salvage(file.path());
  EXPECT_TRUE(result.complete);
  EXPECT_TRUE(result.footer_intact);
  EXPECT_TRUE(result.error.empty());
  EXPECT_EQ(result.declared_count, 100u);
  EXPECT_EQ(result.recovered_count, 100u);
  expect_identical(sample_dataset(), result.dataset);
}

TEST(Ode2Salvage, RecoversBlockPrefixOfTruncatedFile) {
  const EventDataset original = sample_dataset();
  const std::string bytes = ode2_bytes(original, 16);  // 6x16 + 1x4 rows
  const std::uint64_t block_bytes = ode2_block_bytes(16);
  // Sweep truncation points: block boundary, one byte in, one byte short
  // of the next boundary — salvage must recover exactly the complete
  // blocks preceding the cut, via header geometry (the footer is gone).
  for (const std::uint64_t keep_blocks : {0u, 1u, 3u, 6u}) {
    for (const std::uint64_t extra : {std::uint64_t{0}, std::uint64_t{1},
                                      block_bytes - 1}) {
      const std::uint64_t cut =
          kOde2HeaderBytes + keep_blocks * block_bytes + extra;
      if (cut >= bytes.size()) continue;
      const TempFile file(bytes.substr(0, cut));
      const Ode2SalvageResult result = read_events_ode2_salvage(file.path());
      EXPECT_FALSE(result.complete);
      EXPECT_FALSE(result.footer_intact);
      EXPECT_FALSE(result.error.empty());
      EXPECT_EQ(result.declared_count, 100u);
      EXPECT_EQ(result.recovered_count, keep_blocks * 16) << "cut at " << cut;
      // Recovered prefix is the original's, byte for byte.
      for (std::size_t i = 0; i < result.recovered_count; ++i) {
        EXPECT_EQ(result.dataset.events()[i], original.events()[i]);
      }
      // The strict reader throws the whole archive away on the same input.
      EXPECT_THROW(MappedEventStore{file.path()}, std::runtime_error);
    }
  }
}

TEST(Ode2Salvage, FooterLossAloneStillRecoversEverything) {
  const std::string bytes = ode2_bytes(sample_dataset(), 16);
  const std::uint64_t data_end =
      kOde2HeaderBytes + 6 * ode2_block_bytes(16) + ode2_block_bytes(4);
  const TempFile file(bytes.substr(0, data_end));
  const Ode2SalvageResult result = read_events_ode2_salvage(file.path());
  EXPECT_FALSE(result.complete);
  EXPECT_FALSE(result.footer_intact);
  EXPECT_EQ(result.recovered_count, 100u);  // all blocks, no footer
  expect_identical(sample_dataset(), result.dataset);
}

TEST(Ode2Salvage, FooterCrcCatchesBlockBitFlip) {
  std::string bytes = ode2_bytes(sample_dataset(), 16);
  // Flip one payload byte of block 2: the footer is intact, so the
  // per-block CRCs stop recovery exactly there.
  bytes[kOde2HeaderBytes + 2 * ode2_block_bytes(16) + 11] ^= 0x04;
  const TempFile file(bytes);
  const Ode2SalvageResult result = read_events_ode2_salvage(file.path());
  EXPECT_FALSE(result.complete);
  EXPECT_TRUE(result.footer_intact);
  EXPECT_EQ(result.recovered_count, 32u);
  EXPECT_NE(result.error.find("CRC"), std::string::npos);
}

TEST(Ode2Salvage, StopsAtBitFlippedTrafficTypeWithoutFooter) {
  std::string bytes = ode2_bytes(sample_dataset(), 16);
  // No footer (truncated off) AND a type-column byte of block 1 flipped
  // out of range: geometry-mode salvage keeps block 0 only.
  const std::uint64_t block_bytes = ode2_block_bytes(16);
  const std::uint64_t type_col = kOde2HeaderBytes + block_bytes + 70 * 16;
  bytes[type_col + 3] = static_cast<char>(0x7F);
  const std::uint64_t data_end = kOde2HeaderBytes + 6 * block_bytes +
                                 ode2_block_bytes(4);
  const TempFile file(bytes.substr(0, data_end));
  const Ode2SalvageResult result = read_events_ode2_salvage(file.path());
  EXPECT_FALSE(result.complete);
  EXPECT_EQ(result.recovered_count, 16u);
  EXPECT_NE(result.error.find("traffic type"), std::string::npos);
}

TEST(Ode2Salvage, BadMagicRecoversNothing) {
  std::string bytes = ode2_bytes(sample_dataset());
  bytes[1] = '!';
  const TempFile file(bytes);
  const Ode2SalvageResult result = read_events_ode2_salvage(file.path());
  EXPECT_FALSE(result.complete);
  EXPECT_EQ(result.declared_count, 0u);
  EXPECT_EQ(result.recovered_count, 0u);
  EXPECT_NE(result.error.find("magic"), std::string::npos);
}

TEST(Ode2Salvage, TruncatedHeaderRecoversNothing) {
  const std::string bytes = ode2_bytes(sample_dataset());
  for (const std::size_t cut : {0u, 2u, 4u, 17u, 39u}) {
    const TempFile file(bytes.substr(0, cut));
    const Ode2SalvageResult result = read_events_ode2_salvage(file.path());
    EXPECT_FALSE(result.complete);
    EXPECT_EQ(result.recovered_count, 0u) << "cut at " << cut;
  }
}

// A directory opens for reading and can report a 2^63 - 1 end offset,
// which must not size a buffer: both readers refuse it as unopenable.
TEST(Ode2Salvage, DirectoryIsNotAnArchive) {
  const std::string dir = std::filesystem::temp_directory_path().string();
  EXPECT_THROW(MappedEventStore{dir}, std::runtime_error);
  const Ode2SalvageResult result = read_events_ode2_salvage(dir);
  EXPECT_FALSE(result.complete);
  EXPECT_EQ(result.recovered_count, 0u);
  EXPECT_EQ(result.error, "ode2 store: cannot open " + dir);
}

// ------------------------------------- analysis equivalence (zero-copy)

EventDataset synthesized_dataset() {
  const scangen::Scenario scenario{scangen::tiny()};
  return EventDataset(
      scangen::synthesize_events(
          scenario.population_2021(),
          {.darknet_size = scenario.darknet().total_addresses(),
           .seed = scenario.config().seed}),
      scenario.darknet().total_addresses());
}

// Writer bytes pinned to constants recorded while a std::ostream writer
// still existed next to the io::File one (they wrote identical bytes).
// Sizes plus a CRC over everything the footer CRC seals.
TEST(Ode2Pins, WriterBytes) {
  const EventDataset dataset = synthesized_dataset();
  const std::string wide = ode2_bytes(dataset, 1024);
  EXPECT_EQ(wide.size(), 187120u);
  EXPECT_EQ(test_pins::archive_crc(wide), 0x514a0040u);
  const std::string narrow = ode2_bytes(dataset, 16);
  EXPECT_EQ(narrow.size(), 192952u);
  EXPECT_EQ(test_pins::archive_crc(narrow), 0xea07a1e8u);
  const std::string empty = ode2_bytes(EventDataset({}, 512));
  EXPECT_EQ(empty.size(), 84u);
  EXPECT_EQ(test_pins::archive_crc(empty), 0x99adc9f1u);
}

TEST(ZeroCopyAnalysis, DetectionMatchesDatasetPath) {
  const EventDataset dataset = synthesized_dataset();
  const TempFile file(ode2_bytes(dataset));
  const MappedEventStore store(file.path());

  const detect::AggressiveScannerDetector detector(
      {.dispersion_threshold = 0.10,
       .packet_volume_alpha = 0.028,
       .port_count_alpha = 2e-4});
  const detect::DetectionResult a = detector.detect(dataset);
  const detect::DetectionResult b = detector.detect(store);

  EXPECT_EQ(a.first_day, b.first_day);
  EXPECT_EQ(a.last_day, b.last_day);
  EXPECT_EQ(a.total_events, b.total_events);
  EXPECT_EQ(a.darknet_size, b.darknet_size);
  EXPECT_EQ(a.total_event_packets_per_day, b.total_event_packets_per_day);
  for (const detect::Definition d : detect::kAllDefinitions) {
    const detect::DefinitionResult& ra = a.of(d);
    const detect::DefinitionResult& rb = b.of(d);
    EXPECT_EQ(ra.ips, rb.ips) << to_string(d);
    EXPECT_EQ(ra.threshold, rb.threshold) << to_string(d);
    EXPECT_EQ(ra.qualifying_events, rb.qualifying_events) << to_string(d);
    EXPECT_EQ(ra.daily, rb.daily) << to_string(d);
    EXPECT_EQ(ra.active, rb.active) << to_string(d);
    EXPECT_EQ(ra.daily_ah_packets, rb.daily_ah_packets) << to_string(d);
  }
}

TEST(ZeroCopyAnalysis, DarknetMixesMatchDatasetPath) {
  const EventDataset dataset = synthesized_dataset();
  const TempFile file(ode2_bytes(dataset));
  const MappedEventStore store(file.path());

  detect::IpSet sources;
  for (std::size_t i = 0; i < dataset.event_count(); i += 3) {
    sources.insert(dataset.events()[i].key.src);
  }

  const impact::DailyDarknetMix from_dataset(dataset, sources);
  const impact::DailyDarknetMix from_store(store, sources);
  EXPECT_EQ(from_dataset.first_day(), from_store.first_day());
  EXPECT_EQ(from_dataset.last_day(), from_store.last_day());
  for (std::int64_t day = dataset.first_day() - 1;
       day <= dataset.last_day() + 1; ++day) {
    EXPECT_EQ(from_dataset.protocols(day), from_store.protocols(day))
        << "day " << day;
    EXPECT_EQ(from_dataset.ports(day).counts(), from_store.ports(day).counts())
        << "day " << day;
  }
}

// to_dataset() materializes every row, so it CRC-checks every block: a
// flipped byte in block 1 fails there, naming the block, where it once
// came back as a dataset with one wrong field.
TEST(MappedStore, ToDatasetRejectsABlockWhoseCrcFails) {
  std::string bytes = ode2_bytes(sample_dataset(), 16);
  bytes[kOde2HeaderBytes + ode2_block_bytes(16) + 5] ^= 0x10;  // block 1
  const TempFile file(bytes);
  const MappedEventStore store(file.path());
  ASSERT_EQ(store.verify_blocks(), 1u);
  try {
    (void)store.to_dataset();
    ADD_FAILURE() << "to_dataset() accepted a block whose CRC fails";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "ode2 store: block 1 CRC mismatch");
  }
}

// A row whose start day lies outside the footer's window, under a
// resealed block CRC: to_dataset() raises the error for_each_event
// raises, where it once handed the row out.
TEST(MappedStore, ToDatasetRejectsARowOutsideTheDayWindow) {
  std::string bytes = ode2_bytes(sample_dataset(), 16);
  // Block 1's start column comes first: row 16's start_ns, 400 days later.
  const std::size_t block1 = kOde2HeaderBytes + ode2_block_bytes(16);
  std::int64_t start_ns = 0;
  std::memcpy(&start_ns, bytes.data() + block1, 8);
  start_ns += net::Duration::days(400).total_nanos();
  std::memcpy(bytes.data() + block1, &start_ns, 8);
  // Reseal: block 1's CRC after the footer's window, counts, day index and
  // seven block metas, then the footer CRC.
  std::uint64_t footer = 0;
  std::uint64_t days = 0;
  std::memcpy(&footer, bytes.data() + 32, 8);
  std::memcpy(&days, bytes.data() + footer + 16, 8);
  const std::size_t crcs = footer + 32 + 8 * (days + 1) + kOde2BlockMetaBytes * 7;
  const std::uint32_t block_crc =
      test_pins::crc_of(bytes.substr(block1, ode2_block_bytes(16)));
  std::memcpy(bytes.data() + crcs + 4, &block_crc, 4);
  const std::uint32_t footer_crc = test_pins::crc_of(bytes, footer, 4);
  std::memcpy(bytes.data() + bytes.size() - 4, &footer_crc, 4);

  const TempFile file(bytes);
  const MappedEventStore store(file.path());
  ASSERT_EQ(store.verify_blocks(), store.block_count());
  const std::string want = "ode2 store: row 16 starts outside the day window";
  try {
    (void)store.to_dataset();
    ADD_FAILURE() << "to_dataset() handed out a row outside the day window";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(e.what(), want);
  }
  try {
    store.for_each_event([](const EventRow&) {});
    ADD_FAILURE() << "for_each_event() handed out a row outside the day window";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(e.what(), want);
  }
}

// Block payloads are not CRC-checked on the strict open, so a row can
// claim a start day outside the footer's window. Consumers index per-day
// tables by it; the store refuses to hand such a row out.
TEST(ZeroCopyAnalysis, RowOutsideTheDayWindowIsATypedError) {
  const EventDataset dataset = sample_dataset();
  std::string bytes = ode2_bytes(dataset, 16);
  // Block 0's start column comes first: row 0's start_ns, 400 days later.
  std::int64_t start_ns = 0;
  std::memcpy(&start_ns, bytes.data() + kOde2HeaderBytes, 8);
  start_ns += net::Duration::days(400).total_nanos();
  std::memcpy(bytes.data() + kOde2HeaderBytes, &start_ns, 8);
  const TempFile file(bytes);
  const MappedEventStore store(file.path());
  EXPECT_EQ(store.verify_blocks(), 0u);

  const detect::AggressiveScannerDetector detector(
      {.dispersion_threshold = 0.10,
       .packet_volume_alpha = 0.028,
       .port_count_alpha = 2e-4});
  EXPECT_THROW(detector.detect(store), std::runtime_error);
  const detect::IpSet sources{dataset.events().front().key.src};
  EXPECT_THROW(impact::DailyDarknetMix(store, sources), std::runtime_error);
}

}  // namespace
}  // namespace orion::store
