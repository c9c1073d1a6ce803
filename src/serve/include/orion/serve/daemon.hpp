// orion_serve's core: a long-running epoll daemon serving concurrent
// OQP1 queries over published ODE2/FDE1 archives (DESIGN.md §16).
//
// Thread structure:
//   - one event-loop thread owns ALL socket I/O (accept, frame
//     reassembly, in-order response writes) plus admission control and
//     generation swaps: an inotify watch adopts a generation at its
//     manifest commit rename, and the manifest poll is the fallback.
//     Frames are parsed in place in the connection's read buffer and
//     each request is decoded straight from its payload's bytes;
//   - a small worker pool executes queries. A worker drains the whole
//     ready queue at once, puts each task's sources in canonical form
//     (sorted, distinct) once, and groups the tasks by a hash of
//     (kind, router, day, generation, sources), confirmed field by field
//     on a hit; the tenant is not part of it. Co-arriving probes for the
//     same cell with the same source set share ONE index walk and one
//     canonical encoding — the response bytes are computed once and
//     fanned out (stats().shared_computations counts the rides). Each
//     task carries the shared_ptr of the snapshot it was admitted under,
//     so a mid-run generation swap never migrates or tears an in-flight
//     query.
//
// Responses go back strictly in per-connection request order (clients
// may pipeline), whatever order workers finish in. Admission is a
// per-tenant token bucket refilled by wall-clock time; an empty bucket
// answers Status::Overloaded immediately instead of queueing — a slow
// tenant cannot wedge the worker pool for everyone else.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

namespace orion::serve {

/// Token-bucket admission per tenant. capacity == 0 disables admission
/// control (every request admitted) — the default for trusted local use.
struct AdmissionConfig {
  double capacity = 0;
  double refill_per_sec = 0;
};

struct DaemonConfig {
  /// Archive mode: watch this ArchiveDir's manifest; swap generations
  /// atomically whenever a new one is published.
  std::string archive_dir;
  std::string flows_artifact = "flows";
  std::string events_artifact = "events";
  /// Static mode (exclusive with archive_dir): serve one FDE1 file,
  /// generation 0, no swaps.
  std::string fde1_path;

  /// TCP port on 127.0.0.1; 0 binds an ephemeral port (see port()).
  std::uint16_t port = 0;
  std::size_t workers = 2;
  /// Fallback manifest poll period (archive mode). A commit is adopted at
  /// its rename when the directory can be watched; the poll covers file
  /// systems without inotify and a replaced directory.
  int refresh_ms = 50;
  AdmissionConfig admission;
  /// Group identical co-arriving queries onto one computation.
  bool batching = true;
};

struct ServeStats {
  std::uint64_t accepted_connections = 0;
  std::uint64_t requests = 0;
  std::uint64_t responses = 0;
  /// Requests answered by riding another request's computation.
  std::uint64_t shared_computations = 0;
  std::uint64_t overload_rejections = 0;
  std::uint64_t bad_requests = 0;
  std::uint64_t generation_swaps = 0;
};

class Daemon {
 public:
  explicit Daemon(DaemonConfig config);
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Binds, loads the initial snapshot (an empty archive is fine — the
  /// loop adopts the first published generation), and spawns the
  /// event loop + workers. Throws std::runtime_error on bind failure or
  /// an unreadable fde1_path.
  void start();

  /// Idempotent; joins every thread.
  void stop();

  /// The bound port (valid after start()).
  std::uint16_t port() const;

  /// Generation currently serving (0 when none loaded yet).
  std::uint64_t generation() const;

  ServeStats stats() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace orion::serve
