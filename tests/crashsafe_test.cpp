// Crash-safety and self-healing properties (DESIGN.md §13). Three layers:
//
//  1. The failpoint I/O seam (net::io): deterministic fail-at-Nth-call
//     injection of ENOSPC / short writes / EINTR / process death at the
//     syscall boundary, and the File wrapper's recovery semantics.
//  2. The archive publication protocol (store::ArchiveDir): the crash
//     MATRIX test re-runs a two-artifact publish cycle killing the
//     process at every counted I/O call and proves the recovered archive
//     is always atomically the pre- or the post-publication state —
//     never a torn mix — with partial files swept and accounted.
//  3. The supervised ParallelPipeline: injected worker deaths heal by
//     snapshot + replay restart and the merged output stays
//     byte-identical to the fault-free serial run; the restart budget,
//     the backpressure escalation ladder (accept → shed-with-accounting
//     → hard stall), and the SpscRing cooperative stop token.
//
// Runs under the `crashsafe` ctest label and the asan-ubsan and tsan
// presets.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "orion/detect/streaming.hpp"
#include "orion/netbase/crc32.hpp"
#include "orion/netbase/io.hpp"
#include "orion/scangen/packet_gen.hpp"
#include "orion/scangen/scenario.hpp"
#include "orion/store/archive.hpp"
#include "orion/store/fde1.hpp"
#include "orion/store/mapped.hpp"
#include "orion/store/ode2.hpp"
#include "orion/telescope/capture.hpp"
#include "orion/telescope/checkpoint.hpp"
#include "orion/telescope/parallel.hpp"
#include "orion/telescope/spsc_ring.hpp"

#include "crc_pins.hpp"

namespace orion {
namespace {

namespace fs = std::filesystem;
using net::io::FaultFs;
using net::io::FaultKind;
using net::io::IoOp;

/// Every test disarms the global failpoint registry on exit so a failing
/// assertion cannot leak an armed fault into the next test.
class CrashSafeTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultFs::instance().reset(); }
  void TearDown() override { FaultFs::instance().reset(); }

  std::string temp_dir(const std::string& tag) {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    const std::string dir =
        (fs::temp_directory_path() /
         ("orion_crashsafe_" + std::string(info->name()) + "_" + tag))
            .string();
    fs::remove_all(dir);
    return dir;
  }
};

using FailpointIo = CrashSafeTest;
using Archive = CrashSafeTest;
using CrashMatrix = CrashSafeTest;

std::vector<std::uint8_t> pattern_bytes(std::size_t n, std::uint8_t seed) {
  std::vector<std::uint8_t> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::uint8_t>(seed + i * 7);
  }
  return out;
}

// ---------------------------------------------------------------------------
// 1. Failpoint I/O seam
// ---------------------------------------------------------------------------

TEST_F(FailpointIo, WriteRoundTripCountsCallsAndTracksCrc) {
  const std::string dir = temp_dir("rt");
  fs::create_directories(dir);
  const std::string path = dir + "/file.bin";
  const std::vector<std::uint8_t> payload = pattern_bytes(1000, 3);

  FaultFs::instance().reset();
  {
    net::io::File f = net::io::File::create(path);
    f.write(payload);
    f.sync();
    EXPECT_EQ(f.bytes_written(), payload.size());
    EXPECT_EQ(f.write_crc(), net::Crc32::of(payload));
    f.close();
  }
  // open + write + fsync + close at minimum — the ledger a crash matrix
  // is sized from.
  EXPECT_GE(FaultFs::instance().calls(), 4u);
  EXPECT_EQ(net::io::read_file(path), payload);
}

TEST_F(FailpointIo, InjectedEnospcSurfacesAsTypedIoError) {
  const std::string dir = temp_dir("enospc");
  fs::create_directories(dir);
  net::io::File f = net::io::File::create(dir + "/file.bin");
  const auto payload = pattern_bytes(64, 1);
  // The op filter suppresses a count-matching call of the wrong kind:
  // call #1 after arming is the Write, not a Fsync, so nothing fires.
  FaultFs::instance().arm(FaultKind::Error, 1, IoOp::Fsync);
  f.write(payload);
  EXPECT_EQ(FaultFs::instance().fired(), 0u);
  // Re-arm (resets the call counter): now call #1 IS the fsync.
  FaultFs::instance().arm(FaultKind::Error, 1, IoOp::Fsync);
  try {
    f.sync();
    FAIL() << "armed fsync fault did not fire";
  } catch (const net::io::IoError& err) {
    EXPECT_EQ(err.op(), IoOp::Fsync);
    EXPECT_EQ(err.errno_value(), 28 /* ENOSPC */);
    EXPECT_NE(std::string(err.what()).find("fsync"), std::string::npos);
  }
  EXPECT_EQ(FaultFs::instance().fired(), 1u);
}

TEST_F(FailpointIo, ArmedErrnoIsInjectedNotHardcoded) {
  const std::string dir = temp_dir("errno");
  fs::create_directories(dir);
  net::io::File f = net::io::File::create(dir + "/file.bin");
  const auto payload = pattern_bytes(32, 4);
  // arm()'s err parameter must reach the thrown IoError — a test arming
  // EIO is probing a different failure mode than ENOSPC.
  FaultFs::instance().arm(FaultKind::Error, 1, IoOp::Write, EIO);
  try {
    f.write(payload);
    FAIL() << "armed write fault did not fire";
  } catch (const net::io::IoError& err) {
    EXPECT_EQ(err.op(), IoOp::Write);
    EXPECT_EQ(err.errno_value(), EIO);
  }
  EXPECT_EQ(FaultFs::instance().fired(), 1u);
}

TEST_F(FailpointIo, ReadsAreCountedAndFailAsTypedReadErrors) {
  const std::string dir = temp_dir("read");
  fs::create_directories(dir);
  const std::string path = dir + "/file.bin";
  const auto payload = pattern_bytes(128, 6);
  {
    net::io::File f = net::io::File::create(path);
    f.write(payload);
    f.close();
  }
  // Reads sit in the failpoint ledger like every other wrapped call:
  // open + at least one data read + the EOF read.
  FaultFs::instance().reset();
  EXPECT_EQ(net::io::read_file(path), payload);
  EXPECT_GE(FaultFs::instance().calls(), 3u);
  // Call #1 is read_file's open; call #2 is the first read.
  FaultFs::instance().arm(FaultKind::Error, 2, IoOp::Read, EIO);
  try {
    net::io::read_file(path);
    FAIL() << "armed read fault did not fire";
  } catch (const net::io::IoError& err) {
    EXPECT_EQ(err.op(), IoOp::Read);
    EXPECT_EQ(err.errno_value(), EIO);
    EXPECT_NE(std::string(err.what()).find("read"), std::string::npos);
  }
  EXPECT_EQ(FaultFs::instance().fired(), 1u);
}

TEST_F(FailpointIo, ShortWriteIsCompletedByTheWrapper) {
  const std::string dir = temp_dir("short");
  fs::create_directories(dir);
  const std::string path = dir + "/file.bin";
  const auto payload = pattern_bytes(4096, 9);
  net::io::File f = net::io::File::create(path);
  FaultFs::instance().arm(FaultKind::ShortWrite, 1, IoOp::Write);
  f.write(payload);
  f.close();
  EXPECT_EQ(FaultFs::instance().fired(), 1u);
  FaultFs::instance().reset();
  // The wrapper's completion loop must hide the short write entirely —
  // full contents on disk and counters over the full span.
  EXPECT_EQ(net::io::read_file(path), payload);
}

TEST_F(FailpointIo, EintrIsRetriedTransparently) {
  const std::string dir = temp_dir("eintr");
  fs::create_directories(dir);
  const std::string path = dir + "/file.bin";
  const auto payload = pattern_bytes(512, 5);
  net::io::File f = net::io::File::create(path);
  FaultFs::instance().arm(FaultKind::Eintr, 1, IoOp::Write);
  f.write(payload);
  f.close();
  EXPECT_EQ(FaultFs::instance().fired(), 1u);
  FaultFs::instance().reset();
  EXPECT_EQ(net::io::read_file(path), payload);
}

TEST_F(FailpointIo, SimulatedCrashIsNotCatchableAsRuntimeError) {
  // Generic catch (std::runtime_error) sites must never swallow a crash:
  // if they could, in-flight cleanup would run and the simulated disk
  // state would diverge from a real crash's.
  static_assert(
      !std::is_base_of_v<std::runtime_error, net::io::SimulatedCrash>);
  const std::string dir = temp_dir("crash");
  fs::create_directories(dir);
  net::io::File f = net::io::File::create(dir + "/file.bin");
  const auto payload = pattern_bytes(16, 2);
  FaultFs::instance().arm(FaultKind::Crash, 1, IoOp::Write);
  EXPECT_THROW(f.write(payload), net::io::SimulatedCrash);
}

TEST_F(FailpointIo, CheckpointWriterPropagatesInjectedFailures) {
  const std::string dir = temp_dir("ckpt");
  fs::create_directories(dir);
  telescope::CheckpointWriter writer;
  writer.tag(telescope::checkpoint_tag('T', 'S', 'T', '1'));
  writer.u64(42);
  net::io::File f = net::io::File::create(dir + "/snap.ocp");
  FaultFs::instance().arm(FaultKind::Error, 1, IoOp::Write);
  EXPECT_THROW(writer.finish(f), net::io::IoError);
}

// ---------------------------------------------------------------------------
// 2. Archive publication
// ---------------------------------------------------------------------------

telescope::EventDataset make_dataset(std::uint32_t salt) {
  std::vector<telescope::DarknetEvent> events;
  events.reserve(40);
  for (std::uint32_t i = 0; i < 40; ++i) {
    telescope::DarknetEvent e;
    e.key.src = net::Ipv4Address(0x0A000000u + salt * 4096 + i);
    e.key.dst_port = static_cast<std::uint16_t>((salt * 13 + i * 7) % 1024);
    e.key.type = pkt::TrafficType::TcpSyn;
    e.start = net::SimTime::at(
        net::Duration::nanos(static_cast<std::int64_t>(i) * 1000000));
    e.end = net::SimTime::at(
        net::Duration::nanos(static_cast<std::int64_t>(i) * 1000000 + 500));
    e.packets = 100 + i + salt;
    e.unique_dests = 1 + i % 7;
    for (std::size_t t = 0; t < e.packets_by_tool.size(); ++t) {
      e.packets_by_tool[t] = salt + t;
    }
    events.push_back(e);
  }
  return telescope::EventDataset(std::move(events), 4096);
}

store::ArchiveDir::Writer blob_writer(std::uint64_t salt) {
  return [salt](net::io::File& f) {
    telescope::CheckpointWriter w;
    w.tag(telescope::checkpoint_tag('T', 'S', 'T', '3'));
    for (std::uint64_t i = 0; i < 16; ++i) w.u64(salt * 1000 + i);
    w.finish(f);
  };
}

/// The archive's full live state: logical name -> exact file bytes.
std::map<std::string, std::vector<std::uint8_t>> live_state(
    const std::string& dir) {
  store::ArchiveDir archive(dir);
  std::map<std::string, std::vector<std::uint8_t>> state;
  for (const store::ManifestEntry& e : archive.entries()) {
    state[e.name] = net::io::read_file(archive.path_of(e));
  }
  return state;
}

std::size_t count_files(const std::string& dir, const std::string& infix) {
  std::size_t n = 0;
  for (const auto& it : fs::directory_iterator(dir)) {
    if (it.path().filename().string().find(infix) != std::string::npos) ++n;
  }
  return n;
}

// The column writers' I/O sequence on multi-block archives: create, one
// write for the header, one per block and one for the footer, then fsync
// and close. The crash matrix is sized from these counted calls, so they
// are pinned: 40 events in blocks of 16 (3 blocks), 40 flows in two cells
// in blocks of 8 (5 blocks).
TEST_F(Archive, ColumnWritersMakeOneWritePerFramePiece) {
  const std::string dir = temp_dir("calls");
  fs::create_directories(dir);
  FaultFs::instance().reset();
  store::write_events_ode2_file(make_dataset(1), dir + "/events.ode2", 16);
  EXPECT_EQ(FaultFs::instance().calls(), 1u + 1 + 3 + 1 + 2);

  std::vector<flowsim::RouterDay> cells(2);
  for (std::size_t c = 0; c < cells.size(); ++c) {
    cells[c].router = static_cast<std::uint16_t>(2 * c);
    cells[c].day = 5;
    cells[c].total_packets = 1000;
    std::vector<flowsim::KeyedCount> counts;
    for (std::uint32_t i = 0; i < 20; ++i) {
      counts.push_back({{net::Ipv4Address(0x0A000000u + i), 23,
                         pkt::TrafficType::TcpSyn},
                        1 + i});
    }
    cells[c].rows =
        flowsim::canonical_rows(std::move(counts), cells[c].router, cells[c].day);
  }
  FaultFs::instance().reset();
  store::write_flows_fde1_file(100, 5, 6, cells, dir + "/flows.fde1", 8);
  EXPECT_EQ(FaultFs::instance().calls(), 1u + 1 + 5 + 1 + 2);
}

TEST_F(Archive, PublishResolveVerifyRoundTrip) {
  const std::string dir = temp_dir("rt");
  store::ArchiveDir archive(dir);
  EXPECT_EQ(archive.generation(), 0u);
  EXPECT_FALSE(archive.find("events").has_value());

  const telescope::EventDataset dataset = make_dataset(1);
  const store::ManifestEntry entry =
      store::publish_events_ode2(archive, "events", dataset);
  EXPECT_EQ(entry.generation, 1u);
  EXPECT_EQ(entry.file, "events.g1");
  EXPECT_TRUE(archive.verify("events"));

  store::MappedEventStore mapped = store::open_mapped_events(archive, "events");
  EXPECT_EQ(mapped.event_count(), dataset.event_count());

  // Republishing swaps the generation and garbage-collects the old file.
  store::publish_events_ode2(archive, "events", make_dataset(2));
  EXPECT_EQ(archive.generation(), 2u);
  EXPECT_EQ(archive.find("events")->file, "events.g2");
  EXPECT_TRUE(archive.verify("events"));
  EXPECT_FALSE(net::io::path_exists(dir + "/events.g1"));

  // A fresh open through the manifest sees the same state.
  store::ArchiveDir reopened(dir);
  EXPECT_EQ(reopened.generation(), 2u);
  ASSERT_TRUE(reopened.find("events").has_value());
  EXPECT_TRUE(reopened.verify("events"));
}

TEST_F(Archive, PublishManyIsOneAtomicSwap) {
  const std::string dir = temp_dir("many");
  store::ArchiveDir archive(dir);
  const telescope::EventDataset dataset = make_dataset(3);
  const auto entries = archive.publish_many(
      {{"events",
        [&](net::io::File& f) { store::write_events_ode2(dataset, f); }},
       {"checkpoint", blob_writer(3)}});
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].generation, entries[1].generation);
  EXPECT_EQ(archive.generation(), 1u);
  EXPECT_TRUE(archive.verify("events"));
  EXPECT_TRUE(archive.verify("checkpoint"));
}

TEST_F(Archive, RejectsIllegalArtifactNames) {
  store::ArchiveDir archive(temp_dir("names"));
  const auto noop = [](net::io::File&) {};
  EXPECT_THROW(archive.publish("", noop), store::ArchiveError);
  EXPECT_THROW(archive.publish("a/b", noop), store::ArchiveError);
  EXPECT_THROW(archive.publish("MANIFEST", noop), store::ArchiveError);
  EXPECT_THROW(archive.publish("x.tmp.1", noop), store::ArchiveError);
  EXPECT_THROW(archive.publish("x.g3", noop), store::ArchiveError);
  EXPECT_THROW(
      archive.publish_many({{"a", noop}, {"a", noop}}), store::ArchiveError);
}

TEST_F(Archive, RecoverySweepsTemporariesAndOrphansReadersNeverSeeThem) {
  const std::string dir = temp_dir("sweep");
  {
    store::ArchiveDir archive(dir);
    store::publish_events_ode2(archive, "events", make_dataset(4));
  }
  // Plant the debris a crash mid-publication leaves behind: an abandoned
  // temporary and a generation file the manifest never referenced.
  std::ofstream(dir + "/events.tmp.9") << "partial write";
  std::ofstream(dir + "/ghost.g3") << "orphaned generation";

  // Readers resolve through the manifest, so the debris is invisible
  // even before the sweep.
  {
    store::ArchiveDir archive(dir);
    EXPECT_FALSE(archive.find("ghost").has_value());
    EXPECT_TRUE(archive.verify("events"));
  }

  const store::RecoverReport report = store::recover_archive(dir);
  EXPECT_TRUE(report.manifest_valid);
  EXPECT_EQ(report.removed_temporaries, 1u);
  EXPECT_EQ(report.removed_orphans, 1u);
  EXPECT_EQ(report.live_entries, 1u);
  EXPECT_FALSE(net::io::path_exists(dir + "/events.tmp.9"));
  EXPECT_FALSE(net::io::path_exists(dir + "/ghost.g3"));

  // The sweep is idempotent and the live artifact untouched.
  EXPECT_TRUE(store::recover_archive(dir).clean());
  EXPECT_TRUE(store::ArchiveDir(dir).verify("events"));
}

TEST_F(Archive, CorruptManifestIsQuarantinedWithItsGenerations) {
  const std::string dir = temp_dir("corrupt");
  {
    store::ArchiveDir archive(dir);
    store::publish_events_ode2(archive, "events", make_dataset(5));
  }
  // Flip one payload byte: the CRC must reject the whole manifest.
  {
    std::fstream f(dir + "/MANIFEST",
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(12);
    const char old = static_cast<char>(f.get());
    f.seekp(12);
    f.put(static_cast<char>(old ^ 0x5A));
  }
  EXPECT_THROW(store::ArchiveDir{dir}, store::ArchiveError);

  const store::RecoverReport report = store::recover_archive(dir);
  EXPECT_TRUE(report.manifest_present);
  EXPECT_FALSE(report.manifest_valid);
  // Manifest + the generation file it named: quarantined, not deleted —
  // they may be the only surviving copies.
  EXPECT_EQ(report.quarantined, 2u);
  EXPECT_EQ(report.live_entries, 0u);
  EXPECT_TRUE(net::io::path_exists(dir + "/MANIFEST.quarantine"));
  EXPECT_TRUE(net::io::path_exists(dir + "/events.g1.quarantine"));

  // The archive serves empty afterwards and a new history can begin.
  store::ArchiveDir archive(dir);
  EXPECT_EQ(archive.generation(), 0u);
  store::publish_events_ode2(archive, "events", make_dataset(6));
  EXPECT_TRUE(archive.verify("events"));
}

TEST_F(Archive, DamagedLiveEntryIsReported) {
  const std::string dir = temp_dir("damaged");
  {
    store::ArchiveDir archive(dir);
    store::publish_events_ode2(archive, "events", make_dataset(7));
  }
  fs::resize_file(dir + "/events.g1", 10);
  const store::RecoverReport report = store::recover_archive(dir);
  EXPECT_EQ(report.damaged_entries, 1u);
  EXPECT_FALSE(report.clean());
  EXPECT_FALSE(store::ArchiveDir(dir).verify("events"));
  EXPECT_THROW(store::open_mapped_events(store::ArchiveDir(dir), "events"),
               std::exception);
}

// ---------------------------------------------------------------------------
// 2b. The crash matrix (acceptance criterion)
// ---------------------------------------------------------------------------

/// One publish cycle: seed the archive with state A, then (optionally
/// crashing at counted call k) publish state B over it via one atomic
/// batch. Returns true when the second publish completed.
bool run_publish_cycle(const std::string& dir, bool arm_crash,
                       std::uint64_t k) {
  fs::remove_all(dir);
  const telescope::EventDataset dataset_a = make_dataset(10);
  const telescope::EventDataset dataset_b = make_dataset(20);
  {
    store::ArchiveDir archive(dir);
    archive.publish_many(
        {{"events",
          [&](net::io::File& f) { store::write_events_ode2(dataset_a, f); }},
         {"checkpoint", blob_writer(10)}});
  }
  FaultFs::instance().reset();
  if (arm_crash) FaultFs::instance().arm(FaultKind::Crash, k);
  bool completed = true;
  try {
    store::ArchiveDir archive(dir);
    archive.publish_many(
        {{"events",
          [&](net::io::File& f) { store::write_events_ode2(dataset_b, f); }},
         {"checkpoint", blob_writer(20)}});
  } catch (const net::io::SimulatedCrash&) {
    completed = false;
  }
  // Disarm only after a crash run: the fault-free run's caller reads
  // calls() to size the matrix, and reset() would zero it.
  if (arm_crash) FaultFs::instance().reset();
  return completed;
}

TEST_F(CrashMatrix, EveryFailpointLeavesPreOrPostStateNeverTorn) {
  const std::string dir = temp_dir("matrix");

  // Fault-free run sizes the matrix and captures both consistent states.
  ASSERT_TRUE(run_publish_cycle(dir, false, 0));
  const std::uint64_t total_calls = FaultFs::instance().calls();
  ASSERT_GE(total_calls, 10u) << "publish cycle too small to be a matrix";
  const auto post_state = live_state(dir);
  ASSERT_EQ(post_state.size(), 2u);

  fs::remove_all(dir);
  {
    store::ArchiveDir archive(dir);
    archive.publish_many(
        {{"events",
          [&](net::io::File& f) {
            store::write_events_ode2(make_dataset(10), f);
          }},
         {"checkpoint", blob_writer(10)}});
  }
  const auto pre_state = live_state(dir);
  ASSERT_EQ(pre_state.size(), 2u);
  ASSERT_NE(pre_state, post_state);

  std::size_t pre_count = 0;
  std::size_t post_count = 0;
  std::size_t swept_something = 0;
  for (std::uint64_t k = 1; k <= total_calls; ++k) {
    const bool completed = run_publish_cycle(dir, true, k);
    ASSERT_FALSE(completed) << "crash armed at call " << k << " never fired";

    // The process "died" at call k. Recovery owns crash consistency.
    const store::RecoverReport report = store::recover_archive(dir);
    if (!report.clean()) ++swept_something;
    EXPECT_EQ(report.quarantined, 0u)
        << "a crash must never corrupt the manifest (k=" << k << ")";
    EXPECT_EQ(report.damaged_entries, 0u) << "torn live entry at k=" << k;

    const auto recovered = live_state(dir);
    const bool is_pre = recovered == pre_state;
    const bool is_post = recovered == post_state;
    EXPECT_TRUE(is_pre || is_post)
        << "torn archive state after crash at call " << k << " of "
        << total_calls;
    if (is_pre) ++pre_count;
    if (is_post) ++post_count;

    // Both artifacts byte-verified, the sweep idempotent, and no debris
    // left for readers to trip on.
    store::ArchiveDir archive(dir);
    EXPECT_TRUE(archive.verify("events")) << "k=" << k;
    EXPECT_TRUE(archive.verify("checkpoint")) << "k=" << k;
    EXPECT_TRUE(store::recover_archive(dir).clean()) << "k=" << k;
    EXPECT_EQ(count_files(dir, ".tmp."), 0u) << "k=" << k;
  }
  // The matrix must actually straddle the commit point: crashes before
  // the manifest rename land pre, crashes after land post, and at least
  // one crash left partial files for the sweep.
  EXPECT_GT(pre_count, 0u);
  EXPECT_GT(post_count, 0u);
  EXPECT_GT(swept_something, 0u);
  EXPECT_EQ(pre_count + post_count, static_cast<std::size_t>(total_calls));
}

// ---------------------------------------------------------------------------
// 3. Supervised pipeline
// ---------------------------------------------------------------------------

const scangen::Scenario& scenario() {
  static const scangen::Scenario s{scangen::tiny()};
  return s;
}

std::vector<pkt::Packet> packet_stream(std::int64_t days) {
  scangen::PacketStreamGenerator generator(
      scenario().population_2021().scanners, scenario().darknet(),
      net::SimTime::epoch(), net::SimTime::epoch() + net::Duration::days(days),
      {.seed = 17, .exact_targets = true, .stable_streams = true});
  std::vector<pkt::Packet> packets;
  while (auto p = generator.next()) packets.push_back(*p);
  return packets;
}

detect::StreamingConfig detector_config() {
  detect::StreamingConfig config;
  config.base = {.dispersion_threshold = scenario().config().def1_dispersion,
                 .packet_volume_alpha = scenario().config().def2_alpha,
                 .port_count_alpha = scenario().config().def3_alpha};
  config.warmup_samples = 500;
  return config;
}

telescope::ParallelConfig supervised_config(std::size_t shards) {
  telescope::ParallelConfig config;
  config.shards = shards;
  config.batch_size = 64;
  config.ring_capacity = 8;
  config.aggregator.timeout = scenario().event_timeout();
  config.detector = detector_config();
  config.supervisor.enabled = true;
  config.supervisor.max_restarts = 5;
  config.supervisor.snapshot_interval = 4;
  config.supervisor.backoff_base = std::chrono::microseconds(1);
  config.supervisor.backoff_cap = std::chrono::microseconds(100);
  return config;
}

TEST_F(CrashSafeTest, SupervisedMergeByteIdenticalAfterWorkerDeaths) {
  const std::vector<pkt::Packet> packets = packet_stream(4);

  // Serial fault-free reference.
  telescope::TelescopeCapture capture(scenario().darknet(),
                                      {.timeout = scenario().event_timeout()});
  for (const pkt::Packet& p : packets) capture.observe(p);
  const telescope::EventDataset serial_dataset = capture.finish();
  detect::StreamingDetector detector(detector_config(),
                                     scenario().darknet().total_addresses());
  std::vector<detect::StreamingDayResult> serial_days;
  for (const telescope::DarknetEvent& e : serial_dataset.events()) {
    for (auto& day : detector.observe(e)) serial_days.push_back(std::move(day));
  }
  if (auto last = detector.finish()) serial_days.push_back(std::move(*last));

  // Supervised run: kill every shard's worker twice at deterministic
  // batch sequence numbers. The exchange() guards make each kill fire
  // exactly once — the replayed batch passes the second time, which is
  // precisely the restart-from-snapshot path under test.
  constexpr std::size_t kShards = 4;
  std::array<std::atomic<bool>, kShards> killed_early{};
  std::array<std::atomic<bool>, kShards> killed_late{};
  telescope::ParallelConfig config = supervised_config(kShards);
  config.supervisor.fault_hook = [&](std::size_t shard, std::uint64_t seq) {
    if (seq == 5 && !killed_early[shard].exchange(true)) {
      throw std::runtime_error("injected early worker death");
    }
    if (seq == 29 && !killed_late[shard].exchange(true)) {
      throw std::runtime_error("injected late worker death");
    }
  };
  telescope::ParallelPipeline pipeline(scenario().darknet(), config);
  for (const pkt::Packet& p : packets) pipeline.observe(p);
  const telescope::ParallelResult result = pipeline.finish();

  // All eight deaths must actually have happened and healed.
  for (std::size_t s = 0; s < kShards; ++s) {
    EXPECT_TRUE(killed_early[s].load()) << "shard " << s;
    EXPECT_TRUE(killed_late[s].load()) << "shard " << s;
  }
  EXPECT_EQ(result.health.worker_restarts, 2u * kShards);

  // Identical merged output: the same darknet size and the same events,
  // field by field, as the fault-free serial run.
  EXPECT_EQ(result.dataset.darknet_size(), serial_dataset.darknet_size());
  EXPECT_EQ(result.dataset.events(), serial_dataset.events());

  ASSERT_EQ(result.days.size(), serial_days.size());
  for (std::size_t i = 0; i < serial_days.size(); ++i) {
    EXPECT_EQ(result.days[i], serial_days[i]) << "day index " << i;
  }

  // Lossless accounting despite eight worker deaths.
  EXPECT_EQ(result.health.ingested, packets.size());
  EXPECT_EQ(result.health.delivered, packets.size());
  EXPECT_EQ(result.health.dropped(), 0u);
  EXPECT_TRUE(result.health.consistent());
}

// Regression: a supervised pipeline resumed from a checkpoint must seed
// every shard's supervision snapshot from the restored state. A worker
// dying before its first periodic snapshot previously hit the
// empty-snapshot rebuild path and healed to a FRESH shard, silently
// discarding everything the checkpoint carried — the exact combination
// live_monitor --supervise --archive exercises on auto-resume.
TEST_F(CrashSafeTest, SupervisedRestoreHealsDeathBeforeFirstSnapshot) {
  const std::vector<pkt::Packet> packets = packet_stream(4);
  const std::size_t cut = packets.size() / 2;

  // Serial fault-free reference over the whole stream.
  telescope::TelescopeCapture capture(scenario().darknet(),
                                      {.timeout = scenario().event_timeout()});
  for (const pkt::Packet& p : packets) capture.observe(p);
  const telescope::EventDataset serial_dataset = capture.finish();
  detect::StreamingDetector detector(detector_config(),
                                     scenario().darknet().total_addresses());
  std::vector<detect::StreamingDayResult> serial_days;
  for (const telescope::DarknetEvent& e : serial_dataset.events()) {
    for (auto& day : detector.observe(e)) serial_days.push_back(std::move(day));
  }
  if (auto last = detector.finish()) serial_days.push_back(std::move(*last));

  constexpr std::size_t kShards = 4;
  telescope::ParallelConfig config = supervised_config(kShards);
  // So large that no worker ever takes a periodic snapshot: every
  // injected death lands in the restored-but-never-snapshotted window.
  config.supervisor.snapshot_interval = std::size_t{1} << 20;

  std::vector<std::uint8_t> snapshot;
  {
    telescope::ParallelPipeline pipeline(scenario().darknet(), config);
    for (std::size_t i = 0; i < cut; ++i) pipeline.observe(packets[i]);
    telescope::CheckpointWriter writer;
    pipeline.checkpoint(writer);
    writer.finish(snapshot);
  }

  // Kill each shard's worker on the very first post-resume batch.
  std::array<std::atomic<bool>, kShards> killed{};
  config.supervisor.fault_hook = [&](std::size_t shard, std::uint64_t seq) {
    if (seq == 0 && !killed[shard].exchange(true)) {
      throw std::runtime_error("injected death before first snapshot");
    }
  };
  telescope::ParallelPipeline resumed(scenario().darknet(), config);
  telescope::CheckpointReader reader(snapshot);
  resumed.restore(reader);
  EXPECT_EQ(resumed.packets_ingested(), cut);
  for (std::size_t i = cut; i < packets.size(); ++i) {
    resumed.observe(packets[i]);
  }
  const telescope::ParallelResult result = resumed.finish();

  std::size_t kills = 0;
  for (const auto& k : killed) kills += k.load() ? 1u : 0u;
  ASSERT_GT(kills, 0u) << "no post-resume batch ever reached a worker";
  EXPECT_EQ(result.health.worker_restarts, kills);

  // Healed + resumed must equal the fault-free serial run — including
  // every event only the checkpoint carried.
  EXPECT_EQ(result.dataset.darknet_size(), serial_dataset.darknet_size());
  EXPECT_EQ(result.dataset.events(), serial_dataset.events());
  ASSERT_EQ(result.days.size(), serial_days.size());
  for (std::size_t i = 0; i < serial_days.size(); ++i) {
    EXPECT_EQ(result.days[i], serial_days[i]) << "day index " << i;
  }
  EXPECT_EQ(result.health.ingested, packets.size());
  EXPECT_EQ(result.health.delivered, packets.size());
  EXPECT_TRUE(result.health.consistent());
}

// The checkpoint request is in band and logged like any batch: a worker
// that dies on it is healed, replays the request and writes its section.
TEST_F(CrashSafeTest, SupervisedCheckpointHealsDeathOnTheRequest) {
  using test_pins::checkpoint_bytes;
  using test_pins::payload_crc;
  const std::vector<pkt::Packet> packets = packet_stream(4);
  const std::size_t cut = packets.size() / 2;
  constexpr std::size_t kShards = 4;

  // Unsupervised reference: the snapshot at the cut, then the
  // uninterrupted run to the end.
  telescope::ParallelConfig plain = supervised_config(kShards);
  plain.supervisor.enabled = false;
  telescope::ParallelPipeline reference(scenario().darknet(), plain);
  for (std::size_t i = 0; i < cut; ++i) reference.observe(packets[i]);
  const std::string want_frame = checkpoint_bytes(reference);
  for (std::size_t i = cut; i < packets.size(); ++i) reference.observe(packets[i]);
  const telescope::ParallelResult want = reference.finish();

  // Every worker dies on the second checkpoint's request. The first one
  // flushed the pending batches, so the requests are all it pushes.
  std::atomic<bool> at_request{false};
  std::array<std::atomic<bool>, kShards> killed{};
  telescope::ParallelConfig config = supervised_config(kShards);
  config.supervisor.fault_hook = [&](std::size_t shard, std::uint64_t) {
    if (at_request.load() && !killed[shard].exchange(true)) {
      throw std::runtime_error("injected death on the checkpoint request");
    }
  };
  telescope::ParallelPipeline pipeline(scenario().darknet(), config);
  for (std::size_t i = 0; i < cut; ++i) pipeline.observe(packets[i]);
  ASSERT_EQ(payload_crc(checkpoint_bytes(pipeline)), payload_crc(want_frame));
  at_request.store(true);
  const std::string frame = checkpoint_bytes(pipeline);
  at_request.store(false);
  for (std::size_t s = 0; s < kShards; ++s) {
    EXPECT_TRUE(killed[s].load()) << "shard " << s;
  }
  EXPECT_EQ(frame.size(), want_frame.size());
  EXPECT_EQ(payload_crc(frame), payload_crc(want_frame));

  const auto expect_uninterrupted = [&](const telescope::ParallelResult& got) {
    EXPECT_EQ(got.dataset.events(), want.dataset.events());
    ASSERT_EQ(got.days.size(), want.days.size());
    for (std::size_t i = 0; i < want.days.size(); ++i) {
      EXPECT_EQ(got.days[i], want.days[i]) << "day index " << i;
    }
    EXPECT_EQ(got.health.ingested, packets.size());
    EXPECT_EQ(got.health.delivered, packets.size());
    EXPECT_TRUE(got.health.consistent());
  };

  // The healed pipeline runs on to the uninterrupted result...
  for (std::size_t i = cut; i < packets.size(); ++i) pipeline.observe(packets[i]);
  const telescope::ParallelResult healed = pipeline.finish();
  EXPECT_EQ(healed.health.worker_restarts, kShards);
  expect_uninterrupted(healed);

  // ...and so does a pipeline restored from its snapshot.
  telescope::ParallelPipeline resumed(scenario().darknet(), supervised_config(kShards));
  telescope::CheckpointReader reader(test_pins::frame_bytes(frame));
  resumed.restore(reader);
  for (std::size_t i = cut; i < packets.size(); ++i) resumed.observe(packets[i]);
  const telescope::ParallelResult restored = resumed.finish();
  EXPECT_EQ(restored.health.worker_restarts, 0u);
  expect_uninterrupted(restored);
}

// finish() closes each shard on its own worker, at the stop batch, which
// fires the fault hook like a data batch. One worker dies on its close and
// another on its last data batch; both heal, replay and close again, and
// the merged result is the serial path's.
TEST_F(CrashSafeTest, SupervisedFinishHealsDeathOnTheClose) {
  const std::vector<pkt::Packet> packets = packet_stream(4);
  telescope::TelescopeCapture capture(scenario().darknet(),
                                      {.timeout = scenario().event_timeout()});
  for (const pkt::Packet& p : packets) capture.observe(p);
  const telescope::EventDataset serial_dataset = capture.finish();
  detect::StreamingDetector detector(detector_config(),
                                     scenario().darknet().total_addresses());
  std::vector<detect::StreamingDayResult> serial_days;
  for (const telescope::DarknetEvent& e : serial_dataset.events()) {
    for (auto& day : detector.observe(e)) serial_days.push_back(std::move(day));
  }
  if (auto last = detector.finish()) serial_days.push_back(std::move(*last));

  // A fault-free run lists each shard's ring sequences: the last is its
  // stop batch, the one before it its last data batch.
  constexpr std::size_t kShards = 3;
  std::array<std::vector<std::uint64_t>, kShards> seen;
  {
    telescope::ParallelConfig config = supervised_config(kShards);
    config.supervisor.fault_hook = [&seen](std::size_t shard, std::uint64_t seq) {
      seen[shard].push_back(seq);
    };
    telescope::ParallelPipeline pipeline(scenario().darknet(), config);
    for (const pkt::Packet& p : packets) pipeline.observe(p);
    (void)pipeline.finish();
  }
  for (const auto& seqs : seen) ASSERT_GE(seqs.size(), 2u);
  const std::uint64_t close_seq = seen[0].back();
  const std::uint64_t last_data_seq = seen[1][seen[1].size() - 2];

  std::atomic<bool> killed_close{false};
  std::atomic<bool> killed_data{false};
  telescope::ParallelConfig config = supervised_config(kShards);
  config.supervisor.fault_hook = [&](std::size_t shard, std::uint64_t seq) {
    if (shard == 0 && seq == close_seq && !killed_close.exchange(true)) {
      throw std::runtime_error("injected death on the close");
    }
    if (shard == 1 && seq == last_data_seq && !killed_data.exchange(true)) {
      throw std::runtime_error("injected death on the last data batch");
    }
  };
  telescope::ParallelPipeline pipeline(scenario().darknet(), config);
  for (const pkt::Packet& p : packets) pipeline.observe(p);
  const telescope::ParallelResult result = pipeline.finish();

  EXPECT_TRUE(killed_close.load());
  EXPECT_TRUE(killed_data.load());
  EXPECT_EQ(result.health.worker_restarts, 2u);
  EXPECT_EQ(result.dataset.events(), serial_dataset.events());
  EXPECT_EQ(result.dataset.unique_sources(), serial_dataset.unique_sources());
  ASSERT_EQ(result.days.size(), serial_days.size());
  for (std::size_t i = 0; i < serial_days.size(); ++i) {
    EXPECT_EQ(result.days[i], serial_days[i]) << "day index " << i;
  }
  for (std::size_t d = 0; d < 3; ++d) {
    EXPECT_EQ(result.ips[d], detector.ips(detect::kAllDefinitions[d])) << "definition " << d;
  }
  EXPECT_EQ(result.health.ingested, packets.size());
  EXPECT_EQ(result.health.delivered, packets.size());
  EXPECT_TRUE(result.health.consistent());
}

TEST_F(CrashSafeTest, RestartBudgetExhaustionThrowsShardFailure) {
  telescope::ParallelConfig config = supervised_config(2);
  config.supervisor.max_restarts = 2;
  config.supervisor.snapshot_interval = 1;
  config.batch_size = 8;
  // Shard 0's worker dies on every single batch: unhealable.
  config.supervisor.fault_hook = [](std::size_t shard, std::uint64_t) {
    if (shard == 0) throw std::runtime_error("persistent worker fault");
  };
  telescope::ParallelPipeline pipeline(scenario().darknet(), config);
  const std::vector<pkt::Packet> packets = packet_stream(1);
  try {
    for (const pkt::Packet& p : packets) pipeline.observe(p);
    pipeline.finish();
    FAIL() << "restart budget exhaustion did not surface";
  } catch (const telescope::ShardFailure& err) {
    EXPECT_NE(std::string(err.what()).find("persistent worker fault"),
              std::string::npos);
    EXPECT_NE(std::string(err.what()).find("2 restart"), std::string::npos);
  }
  // The pipeline is permanently failed but must not hang: further calls
  // rethrow and the destructor's stop tokens tear it down cleanly (this
  // test completing IS the no-hang assertion).
  EXPECT_THROW(pipeline.finish(), telescope::ShardFailure);
}

TEST_F(CrashSafeTest, UnsupervisedWorkerPanicIsSurfacedNotHung) {
  telescope::ParallelConfig config = supervised_config(2);
  config.supervisor.enabled = false;  // hook still fires: panic, no healing
  config.batch_size = 8;
  std::atomic<bool> killed{false};
  config.supervisor.fault_hook = [&](std::size_t shard, std::uint64_t) {
    if (shard == 0 && !killed.exchange(true)) {
      throw std::runtime_error("unsupervised death");
    }
  };
  telescope::ParallelPipeline pipeline(scenario().darknet(), config);
  const std::vector<pkt::Packet> packets = packet_stream(1);
  EXPECT_THROW(
      {
        for (const pkt::Packet& p : packets) pipeline.observe(p);
        pipeline.finish();
      },
      telescope::ShardFailure);
}

TEST_F(CrashSafeTest, BackpressureLadderShedsWithAccountingThenStalls) {
  telescope::ParallelConfig config;
  config.shards = 1;
  config.batch_size = 1;
  config.ring_capacity = 2;
  config.aggregator.timeout = scenario().event_timeout();
  config.detector = detector_config();
  config.backpressure.escalate_after = 2;
  config.backpressure.shed_budget = 3;
  // Brake the worker so the ring is reliably full when the dispatcher
  // escalates (the hook fires whenever set, supervised or not).
  config.supervisor.fault_hook = [](std::size_t, std::uint64_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  };
  telescope::ParallelPipeline pipeline(scenario().darknet(), config);
  const std::vector<pkt::Packet> packets = packet_stream(1);
  const std::size_t feed = std::min<std::size_t>(packets.size(), 300);
  for (std::size_t i = 0; i < feed; ++i) pipeline.observe(packets[i]);
  const telescope::ParallelResult result = pipeline.finish();

  // The full ladder ran: 3 batches (of 1 packet) shed with accounting,
  // then the exhausted budget forced hard stalls — and every packet is
  // still accounted for.
  EXPECT_EQ(result.health.dropped_shed, 3u);
  EXPECT_GE(result.health.stalls, 1u);
  EXPECT_EQ(result.health.ingested, feed);
  EXPECT_EQ(result.health.delivered, feed - 3);
  EXPECT_EQ(result.health.dropped(), 3u);
  EXPECT_TRUE(result.health.consistent());
}

TEST_F(CrashSafeTest, DefaultPolicyNeverSheds) {
  // Escalation off (the default): tiny ring + slow-ish worker still
  // loses nothing — the deterministic contract of DESIGN.md §9.
  telescope::ParallelConfig config;
  config.shards = 2;
  config.batch_size = 4;
  config.ring_capacity = 2;
  config.aggregator.timeout = scenario().event_timeout();
  config.detector = detector_config();
  telescope::ParallelPipeline pipeline(scenario().darknet(), config);
  const std::vector<pkt::Packet> packets = packet_stream(1);
  for (const pkt::Packet& p : packets) pipeline.observe(p);
  const telescope::ParallelResult result = pipeline.finish();
  EXPECT_EQ(result.health.dropped_shed, 0u);
  EXPECT_EQ(result.health.delivered, packets.size());
  EXPECT_TRUE(result.health.consistent());
}

TEST_F(CrashSafeTest, SpscRingStopTokenUnblocksIdleConsumer) {
  telescope::SpscRing<int> ring(4);
  std::atomic<int> consumed{0};
  std::thread consumer([&] {
    unsigned spins = 0;
    int value = 0;
    for (;;) {
      if (ring.try_pop(value)) {
        consumed.fetch_add(1);
        continue;
      }
      if (ring.stop_requested()) return;
      telescope::spsc_backoff(spins);
    }
  });
  int v = 1;
  ASSERT_TRUE(ring.try_push(v));
  v = 2;
  ASSERT_TRUE(ring.try_push(v));
  // The token is sticky and only honored when idle: both queued items
  // are drained before the consumer exits.
  ring.request_stop();
  consumer.join();
  EXPECT_EQ(consumed.load(), 2);
  EXPECT_TRUE(ring.stop_requested());
}

}  // namespace
}  // namespace orion
