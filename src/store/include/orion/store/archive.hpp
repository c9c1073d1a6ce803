// Crash-safe archive publication: atomic generation swaps behind a
// CRC-guarded manifest (DESIGN.md §13).
//
// Every durable artifact the pipeline emits (ODE2 event stores, OCP1
// checkpoints, flow archives) is published into an archive directory
// under a generation-numbered file name, through the write-ahead
// protocol:
//
//   1. write    <name>.tmp.<gen>     (io::File, failpoint-instrumented)
//   2. fsync    the tmp file         (data durable before it is visible)
//   3. rename   -> <name>.g<gen>     (atomic: old or new, never torn)
//   4. publish  MANIFEST.tmp.<gen> -> MANIFEST the same way
//   5. fsync    the directory        (the renames themselves durable)
//
// The MANIFEST ("OMF1", CRC-32-guarded, written atomically like any
// other artifact) records the live generation set: logical name ->
// generation file, size, CRC. Readers resolve names through it and
// therefore never see a half-written file — a crash at ANY syscall in
// the protocol leaves the manifest referencing either the complete old
// generation or the complete new one (the crash-matrix property test
// enumerates every failpoint and proves exactly that). Orphaned
// temporaries and superseded or unreferenced generation files are swept
// by recover() at startup; in-flight publication code never cleans up
// after a failure, so the simulated-crash and real-crash disk states
// stay identical.
//
// publish_many() amortizes the manifest update and directory fsync over
// a batch of artifacts — the fsync-batched publish mode bench_faulttol
// compares against per-file publish().
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "orion/netbase/io.hpp"
#include "orion/store/fde1.hpp"
#include "orion/store/ode2.hpp"

namespace orion::store {

/// The manifest's file name in an archive directory. Step 4's rename onto
/// it is the commit point, so a watcher that sees a file of this name
/// moved into the directory has seen a new generation go live.
inline constexpr char kManifestName[] = "MANIFEST";

/// One live artifact in the manifest.
struct ManifestEntry {
  std::string name;     // logical name, e.g. "events" or "pipeline.ocp"
  std::string file;     // directory-relative generation file, "<name>.g<N>"
  std::uint64_t generation = 0;
  std::uint64_t bytes = 0;
  std::uint32_t crc = 0;  // CRC-32 of the file's contents
};

/// What the startup sweep found and did.
struct RecoverReport {
  bool manifest_present = false;
  bool manifest_valid = false;
  std::uint64_t live_entries = 0;
  std::uint64_t removed_temporaries = 0;  // <name>.tmp.<gen> leftovers
  std::uint64_t removed_orphans = 0;      // generation files not in the manifest
  std::uint64_t quarantined = 0;          // undecodable files renamed *.quarantine
  std::uint64_t damaged_entries = 0;      // manifest entries missing/short on disk
  std::string detail;                     // first problem seen, for operators

  bool clean() const {
    return removed_temporaries == 0 && removed_orphans == 0 &&
           quarantined == 0 && damaged_entries == 0;
  }
};

class ArchiveDir {
 public:
  /// Opens (creating if absent) the archive directory and loads the
  /// manifest. A missing manifest is an empty archive; a corrupt one
  /// throws ArchiveError — run recover() via recover_archive() first
  /// when opening archives that may have seen crashes or disk damage.
  explicit ArchiveDir(std::string dir);

  const std::string& dir() const { return dir_; }
  /// Generation of the live manifest (0: empty archive, nothing ever
  /// published).
  std::uint64_t generation() const { return generation_; }
  const std::vector<ManifestEntry>& entries() const { return entries_; }

  std::optional<ManifestEntry> find(const std::string& name) const;
  /// Full path of the live generation file for `name`, if published.
  std::optional<std::string> resolve(const std::string& name) const;
  std::string path_of(const ManifestEntry& entry) const;

  /// Streams one artifact's bytes into the supplied file. Must not keep
  /// the File beyond the call.
  using Writer = std::function<void(net::io::File&)>;

  /// Durably publishes one artifact under `name` (replacing any live
  /// generation of the same name). Throws net::io::IoError on I/O
  /// failure and lets net::io::SimulatedCrash escape untouched; in both
  /// cases the live manifest still describes the pre-publication state
  /// and recover() will sweep the partial files.
  ManifestEntry publish(const std::string& name, const Writer& writer);

  /// Publishes a batch of artifacts under ONE manifest update and one
  /// directory fsync — atomically: readers see all of them or none.
  std::vector<ManifestEntry> publish_many(
      const std::vector<std::pair<std::string, Writer>>& items);

  /// Startup sweep: re-reads the manifest (falling back to an empty view
  /// if it is missing; quarantining it if corrupt), deletes orphaned
  /// temporaries and unreferenced generation files, and verifies each
  /// live entry's size against the manifest. Never throws on damage —
  /// the report says what it found.
  RecoverReport recover();

  /// Verifies the live entry `name` byte-for-byte against its manifest
  /// CRC. True when present and intact.
  bool verify(const std::string& name) const;

 private:
  struct Tolerant {};
  /// Recovery-path constructor: loads what it can of a corrupt manifest
  /// instead of throwing (recover() then quarantines it).
  ArchiveDir(std::string dir, Tolerant);
  friend RecoverReport recover_archive(const std::string& dir);

  void load_manifest(bool allow_corrupt);
  void write_manifest(const std::vector<ManifestEntry>& entries,
                      std::uint64_t generation);

  std::string dir_;
  std::uint64_t generation_ = 0;
  std::vector<ManifestEntry> entries_;
};

/// Typed archive-level failure (corrupt manifest, bad artifact name).
class ArchiveError : public std::runtime_error {
 public:
  explicit ArchiveError(const std::string& what)
      : std::runtime_error("archive: " + what) {}
};

/// Convenience: open + sweep in one call (the startup path every reader
/// and daemon should use).
RecoverReport recover_archive(const std::string& dir);

class MappedEventStore;
class MappedFlowStore;

/// Publishes `dataset` as the live ODE2 artifact `name` (atomic swap).
ManifestEntry publish_events_ode2(
    ArchiveDir& archive, const std::string& name,
    const telescope::EventDataset& dataset,
    std::uint64_t block_events = kOde2DefaultBlockEvents);

/// Publishes a whole flow window as the live FDE1 artifact `name`
/// through the §13 write-ahead protocol — the crash-safe at-rest form of
/// live flow collection (the ROADMAP FDE1 follow-on).
ManifestEntry publish_flows_fde1(
    ArchiveDir& archive, const std::string& name,
    const flowsim::FlowDataset& flows,
    std::uint64_t block_flows = kFde1DefaultBlockFlows);

/// Writer factories for ArchiveDir::publish_many composition: publish an
/// event store and a flow archive under ONE manifest commit, so a
/// watching daemon (serve::StoreCache) sees both generations flip in the
/// same atomic instant. The referenced dataset must outlive the publish
/// call; the writers borrow it.
ArchiveDir::Writer events_ode2_writer(
    const telescope::EventDataset& dataset,
    std::uint64_t block_events = kOde2DefaultBlockEvents);
ArchiveDir::Writer flows_fde1_writer(
    const flowsim::FlowDataset& flows,
    std::uint64_t block_flows = kFde1DefaultBlockFlows);

/// Opens the live generation of `name` as a zero-copy store. Resolution
/// goes through the manifest, so orphaned temporaries and partial
/// generations are invisible; the mapped size is cross-checked against
/// the manifest entry. Throws ArchiveError when `name` has never been
/// published (or its file was damaged to a different size).
MappedEventStore open_mapped_events(const ArchiveDir& archive,
                                    const std::string& name);

/// Flow-side sibling of open_mapped_events: the live FDE1 generation of
/// `name`, size-checked against the manifest.
MappedFlowStore open_mapped_flows(const ArchiveDir& archive,
                                  const std::string& name);

}  // namespace orion::store
