// OQP1 — the typed query protocol of orion_serve (DESIGN.md §16).
//
// One request/response pair is THE query API of the repository: the
// daemon speaks it over length-prefixed frames, and orion_cli's
// flow-impact / flow-inspect / serve-query subcommands build the same
// QueryRequest structs and run them through serve::execute_query —
// locally or across a socket, the answer is the same bytes. That
// byte-identity is not cosmetic: bench_serve's equivalence gate compares
// the daemon's wire payloads against locally executed responses on the
// same store generation, so every field here is encoded canonically
// (little-endian, ports sorted ascending, no map-iteration order leaks).
//
//   frame    := len u32 | payload[len]          (len excludes itself)
//   request  := "OQP1" | kind u8 | tenant str16 | router u32 | day i64
//               | source_count u32 | source u32[source_count]
//   response := "OQR1" | status u8 | kind u8 | generation u64
//               | error str16 | body
//   body     := (FlowImpact) router u32 | day i64 | matched_packets u64
//               | total_packets u64 | matched_sources u64
//               | probed_sources u64 | protocols u64[3]
//               | ports_bound u64 | ports_spilled_weight u64
//               | ports_spilled_adds u64 | port_count u32
//               | (port u16, estimate u64)[port_count]   (port ascending)
//            |  (StoreInfo) sampling_rate u32 | flow_count u64
//               | start_day i64 | end_day i64 | segment_count u64
//               | has_events u8 | event_count u64
//            |  (Ping) empty
//   str16    := len u16 | bytes[len]
//
// Frames are capped (kMaxFramePayload) so a malformed or hostile length
// prefix cannot balloon a connection buffer; decoders never throw on
// foreign bytes — they return false with a diagnostic, and the daemon
// answers Status::BadRequest or drops the connection.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "orion/netbase/ipv4.hpp"

namespace orion::serve {

/// What a request asks for. FlowImpact is the workhorse: one probe fills
/// every Section-4 number for a (router, day, sources) cell — the same
/// RouterDayReport FlowImpactAnalyzer::query() returns, on the wire.
enum class QueryKind : std::uint8_t {
  Ping = 0,       // liveness + generation check
  StoreInfo = 1,  // archive window / geometry metadata
  FlowImpact = 2, // Tables 2/3/4, Figure 5, Table 8 for one cell
};

enum class Status : std::uint8_t {
  Ok = 0,
  BadRequest = 1,  // undecodable or semantically invalid request
  NotFound = 2,    // no such (router, day) cell in the live generation
  Overloaded = 3,  // tenant token bucket empty — retry later
  ServerError = 4, // unexpected failure; error carries the diagnostic
};

const char* to_string(QueryKind kind);
const char* to_string(Status status);

/// Hard cap on one frame's payload: a full /16 of sources plus headroom.
constexpr std::uint32_t kMaxFramePayload = 1u << 26;  // 64 MiB
constexpr std::uint32_t kMaxSources = 1u << 24;
constexpr std::size_t kMaxTenantBytes = 256;

struct QueryRequest {
  QueryKind kind = QueryKind::Ping;
  /// Admission-control identity; empty means the default tenant.
  std::string tenant;
  std::uint32_t router = 0;
  std::int64_t day = 0;
  /// The AH list to join (FlowImpact only). Order and duplicates do not
  /// matter: the executor collapses them (impact::canonicalize_sources),
  /// and so does the daemon's batching identity — kind, router, day,
  /// canonical sources and the store generation, never the tenant — under
  /// which co-arriving requests share one computation (DESIGN.md §16.2).
  std::vector<net::Ipv4Address> sources;
};

/// FlowImpact body: impact::RouterDayReport flattened to totals. Ports
/// are the Figure-5 estimates, sorted by port number so the encoding is
/// canonical; the bound/spill triple carries stats::TopK's bounded-mode
/// accounting across the wire losslessly.
struct FlowImpactBody {
  std::uint32_t router = 0;
  std::int64_t day = 0;
  std::uint64_t matched_packets = 0;
  std::uint64_t total_packets = 0;
  std::uint64_t matched_sources = 0;
  std::uint64_t probed_sources = 0;
  std::uint64_t protocols[3] = {0, 0, 0};
  std::uint64_t ports_bound = 0;
  std::uint64_t ports_spilled_weight = 0;
  std::uint64_t ports_spilled_adds = 0;
  std::vector<std::pair<std::uint16_t, std::uint64_t>> ports;

  double percentage() const {
    return total_packets == 0 ? 0.0
                              : 100.0 * static_cast<double>(matched_packets) /
                                    static_cast<double>(total_packets);
  }
  double visibility_percent() const {
    return probed_sources == 0
               ? 0.0
               : 100.0 * static_cast<double>(matched_sources) /
                     static_cast<double>(probed_sources);
  }

  friend bool operator==(const FlowImpactBody&,
                         const FlowImpactBody&) = default;
};

struct StoreInfoBody {
  std::uint32_t sampling_rate = 0;
  std::uint64_t flow_count = 0;
  std::int64_t start_day = 0;
  std::int64_t end_day = 0;
  std::uint64_t segment_count = 0;
  bool has_events = false;
  std::uint64_t event_count = 0;

  friend bool operator==(const StoreInfoBody&, const StoreInfoBody&) = default;
};

struct QueryResponse {
  Status status = Status::Ok;
  QueryKind kind = QueryKind::Ping;
  /// Store generation that answered — the snapshot-isolation witness:
  /// a response is byte-identical to a direct query on this generation.
  std::uint64_t generation = 0;
  std::string error;
  FlowImpactBody impact;  // valid when kind == FlowImpact && status == Ok
  StoreInfoBody info;     // valid when kind == StoreInfo && status == Ok

  friend bool operator==(const QueryResponse&, const QueryResponse&) = default;
};

/// Canonical payload encodings (no frame prefix).
std::vector<std::uint8_t> encode_request(const QueryRequest& request);
std::vector<std::uint8_t> encode_response(const QueryResponse& response);

/// Strict decoders: false (with a diagnostic in `error`) on bad magic,
/// truncation, trailing bytes, or any cap violation. Never throw.
bool decode_request(std::span<const std::uint8_t> payload,
                    QueryRequest& request, std::string& error);
bool decode_response(std::span<const std::uint8_t> payload,
                     QueryResponse& response, std::string& error);

/// Appends `payload` as one length-prefixed frame to `out`.
void append_frame(std::vector<std::uint8_t>& out,
                  std::span<const std::uint8_t> payload);

/// Incremental frame extraction over the unread bytes of an accumulation
/// buffer. Returns
///   +1  a complete frame: [*begin, *end) of `buffer` is the payload
///    0  need more bytes
///   -1  protocol violation (oversized length prefix) — drop the peer
/// The frame takes `buffer`'s first *end bytes (begin is 4, the prefix):
/// the daemon parses a whole read in place by advancing the span past
/// each frame and decodes each payload where it lies.
int try_extract_frame(std::span<const std::uint8_t> buffer, std::size_t* begin,
                      std::size_t* end);

}  // namespace orion::serve
