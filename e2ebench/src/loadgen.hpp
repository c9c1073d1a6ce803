// The query side: the request mix, the closed- and open-loop load
// generators that drive the daemon over real sockets, and the verifier
// that replays every response against execute_query_bytes on the
// generation it claims.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "orion/impact/flow_join.hpp"
#include "orion/serve/client.hpp"
#include "orion/serve/protocol.hpp"
#include "orion/serve/store_cache.hpp"
#include "setup.hpp"
#include "trace.hpp"

namespace e2e {

/// The source lists a FlowImpact request can carry.
struct SourceLists {
  /// Per day: the sources that newly qualified under D1, D2, D3.
  std::vector<std::array<std::vector<net::Ipv4Address>, 3>> daily;
  /// Cumulative union of the three definitions' AH sets.
  std::vector<net::Ipv4Address> union_all;
  std::vector<net::Ipv4Address> cloud_botnet;
};

/// A request of the mix's fixed pool, with its encoded size worked out
/// once so the load generators count request bytes without re-encoding.
struct PooledRequest {
  serve::QueryRequest request;
  std::size_t encoded_bytes = 0;
};

/// A fixed pool of requests and a seeded draw over it (the draw sequence
/// is the query schedule). The shape is an assumption; README.md gives
/// the reason for each number:
///   - 90% FlowImpact, 5% StoreInfo, 5% Ping;
///   - FlowImpact cells (router, day) Zipf-ranked with exponent 1 by
///     recency: the newest day's routers first, the oldest day's last;
///   - the source list drawn uniformly from the day's D1/D2/D3 list, the
///     cumulative union and the cloud+botnet sources.
class RequestMix {
 public:
  explicit RequestMix(const SourceLists& lists);

  const PooledRequest& draw(std::mt19937_64& rng) const;

 private:
  std::vector<PooledRequest> pool_;  // cells x kinds, StoreInfo, Ping
  std::vector<double> rank_cdf_;
};

/// The answered requests of a load phase, folded by (request, response
/// bytes): a response is stored once and counted, however often the
/// daemon sent it. The harness's memory then does not grow with the
/// number of answered queries, so the timed phase's peak RSS stays the
/// library's. Entries are bounded by pool requests x generations.
class ResponseTally {
 public:
  struct Entry {
    const serve::QueryRequest* request = nullptr;
    std::vector<std::uint8_t> raw;
    std::uint64_t count = 0;
  };

  void add(const serve::QueryRequest* request, std::vector<std::uint8_t> raw,
           std::uint64_t count = 1);
  void merge(ResponseTally&& other);

  const std::vector<Entry>& entries() const { return entries_; }
  /// Responses added, counting repeats.
  std::uint64_t total() const { return total_; }

 private:
  std::vector<Entry> entries_;
  std::unordered_multimap<std::size_t, std::size_t> by_hash_;  // -> entries_
  std::uint64_t total_ = 0;
};

struct LoopResult {
  ResponseTally responses;
  /// Open loop only: response time from each request's scheduled send
  /// time, and actual send time minus scheduled send time. Both grow
  /// with the fixed rate, not with the daemon's throughput.
  std::vector<double> latency_ms;
  std::vector<double> late_ms;
  double seconds = 0;
  std::uint64_t sent = 0;
  std::uint64_t request_bytes = 0;
  /// Requests that got no response (connection error).
  std::uint64_t lost = 0;
};

/// Closed loop: one thread, `connections` connections, each keeping
/// `window` requests outstanding, for `seconds`; then drains.
LoopResult closed_loop(std::uint16_t port, const RequestMix& mix,
                       std::uint64_t seed, double seconds,
                       std::size_t connections, std::size_t window);

/// Open loop at a fixed rate on one connection: a sender thread sends on
/// schedule whatever the daemon does, a receiver thread collects the
/// in-order responses. Runs from start() until stop().
class OpenLoop {
 public:
  OpenLoop(std::uint16_t port, const RequestMix& mix, std::uint64_t seed,
           double qps);
  ~OpenLoop();
  OpenLoop(const OpenLoop&) = delete;
  OpenLoop& operator=(const OpenLoop&) = delete;

  void start();
  LoopResult stop();

 private:
  void send_loop();
  void recv_loop();

  std::uint16_t port_;
  const RequestMix& mix_;
  std::uint64_t seed_;
  double qps_;

  serve::Client client_;
  std::atomic<bool> stop_{false};
  std::mutex mu_;
  std::condition_variable cv_;
  /// (request, scheduled send) in send order; the receiver matches the
  /// in-order responses against it. Guarded by mu_, like everything below.
  std::vector<std::pair<const PooledRequest*, Clock::time_point>> inflight_;
  std::uint64_t sent_ = 0;  // written to the socket
  bool sender_done_ = false;
  LoopResult result_;
  Clock::time_point started_;
  std::thread sender_;
  std::thread receiver_;
};

/// Replays responses against execute_query_bytes on the generation each
/// claims, loading every generation's snapshot from its kept files.
class Verifier {
 public:
  explicit Verifier(const std::map<std::uint64_t, GenerationFiles>& generations);

  /// Checks every response of `tally`; a response fails on a non-Ok
  /// status, an unknown generation or a byte mismatch (the first few
  /// reasons go to stderr). Returns the number of failed responses.
  std::uint64_t check(const ResponseTally& tally);

  std::uint64_t checked() const { return checked_; }
  std::uint64_t failures() const { return failures_; }
  /// Means over every checked response (each weighs once, so the
  /// figures follow the mix): execute_query_bytes, FlowImpactAnalyzer::
  /// query with a prebuilt SourceSet (FlowImpact only), and the client
  /// codec (encode_request + decode_response).
  double execute_us() const;
  double impact_query_us() const;
  double codec_us() const;
  /// Mean snapshot load (mmap + index prebuild) per generation.
  double load_snapshot_s() const;

 private:
  struct Expected {
    std::vector<std::uint8_t> bytes;
    double execute_us = 0;
    double impact_us = -1;  // < 0: not a FlowImpact request
  };
  const serve::StoreSnapshot* snapshot(std::uint64_t generation);
  bool check(const ResponseTally::Entry& entry);

  const std::map<std::uint64_t, GenerationFiles>& generations_;
  std::map<std::uint64_t, std::shared_ptr<serve::StoreSnapshot>> snapshots_;
  std::map<std::pair<const serve::QueryRequest*, std::uint64_t>, Expected>
      expected_;
  std::uint64_t checked_ = 0;
  std::uint64_t failures_ = 0;
  double execute_us_sum_ = 0;
  double impact_us_sum_ = 0;
  std::uint64_t impact_count_ = 0;
  double codec_us_sum_ = 0;
  double load_s_sum_ = 0;
};

}  // namespace e2e
