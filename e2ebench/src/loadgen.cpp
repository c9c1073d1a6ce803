#include "loadgen.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <string>
#include <string_view>

#include "orion/flowsim/routing.hpp"
#include "orion/netbase/shard.hpp"
#include "orion/serve/engine.hpp"
#include "orion/store/mapped.hpp"
#include "orion/store/mapped_flow.hpp"

namespace e2e {

namespace {

/// Popularity falls off as 1/rank (the classic Zipf law).
constexpr double kZipfExponent = 1.0;
constexpr std::size_t kCells = flowsim::kRouterCount * kDays;
/// Source lists per cell: D1, D2, D3, the union, cloud+botnet.
constexpr std::size_t kListKinds = 5;

PooledRequest pooled(serve::QueryRequest request) {
  PooledRequest p;
  p.encoded_bytes = serve::encode_request(request).size();
  p.request = std::move(request);
  return p;
}

serve::QueryRequest flow_impact(std::uint32_t router, std::int64_t day,
                                std::vector<net::Ipv4Address> sources) {
  serve::QueryRequest r;
  r.kind = serve::QueryKind::FlowImpact;
  r.tenant = "e2ebench";
  r.router = router;
  r.day = day;
  r.sources = std::move(sources);
  return r;
}

serve::QueryRequest of_kind(serve::QueryKind kind) {
  serve::QueryRequest r;
  r.kind = kind;
  r.tenant = "e2ebench";
  return r;
}

double micros_since(Clock::time_point t0) {
  return 1e6 * seconds_between(t0, Clock::now());
}

std::size_t hash_of(const serve::QueryRequest* request,
                    const std::vector<std::uint8_t>& raw) {
  const std::string_view bytes(reinterpret_cast<const char*>(raw.data()),
                               raw.size());
  return std::hash<std::string_view>{}(bytes) ^
         (std::hash<const void*>{}(request) * 0x9E3779B97F4A7C15ULL);
}

}  // namespace

RequestMix::RequestMix(const SourceLists& lists) {
  // Pool order is popularity rank: rank k is day kDays-1-k/3 (newest
  // first), router k%3.
  for (std::size_t rank = 0; rank < kCells; ++rank) {
    const auto router = static_cast<std::uint32_t>(rank % flowsim::kRouterCount);
    const auto day = static_cast<std::int64_t>(kDays - 1) -
                     static_cast<std::int64_t>(rank / flowsim::kRouterCount);
    const auto& daily = lists.daily.at(static_cast<std::size_t>(day));
    for (std::size_t d = 0; d < 3; ++d) {
      pool_.push_back(pooled(flow_impact(router, day, daily[d])));
    }
    pool_.push_back(pooled(flow_impact(router, day, lists.union_all)));
    pool_.push_back(pooled(flow_impact(router, day, lists.cloud_botnet)));
  }
  pool_.push_back(pooled(of_kind(serve::QueryKind::StoreInfo)));
  pool_.push_back(pooled(of_kind(serve::QueryKind::Ping)));

  double total = 0;
  for (std::size_t k = 0; k < kCells; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), kZipfExponent);
    rank_cdf_.push_back(total);
  }
  for (double& c : rank_cdf_) c /= total;
}

const PooledRequest& RequestMix::draw(std::mt19937_64& rng) const {
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  const double u = unit(rng);
  if (u >= 0.95) return pool_.back();               // Ping
  if (u >= 0.90) return pool_[pool_.size() - 2];    // StoreInfo
  const auto rank = static_cast<std::size_t>(
      std::lower_bound(rank_cdf_.begin(), rank_cdf_.end(), unit(rng)) -
      rank_cdf_.begin());
  return pool_[std::min(rank, kCells - 1) * kListKinds +
               std::uniform_int_distribution<std::size_t>(0, kListKinds - 1)(rng)];
}

void ResponseTally::add(const serve::QueryRequest* request,
                        std::vector<std::uint8_t> raw, std::uint64_t count) {
  total_ += count;
  const std::size_t h = hash_of(request, raw);
  const auto [first, last] = by_hash_.equal_range(h);
  for (auto it = first; it != last; ++it) {
    Entry& e = entries_[it->second];
    if (e.request == request && e.raw == raw) {
      e.count += count;
      return;
    }
  }
  by_hash_.emplace(h, entries_.size());
  entries_.push_back({request, std::move(raw), count});
}

void ResponseTally::merge(ResponseTally&& other) {
  for (Entry& e : other.entries_) add(e.request, std::move(e.raw), e.count);
  other = ResponseTally{};
}

LoopResult closed_loop(std::uint16_t port, const RequestMix& mix,
                       std::uint64_t seed, double seconds,
                       std::size_t connections, std::size_t window) {
  LoopResult result;
  std::mt19937_64 rng(net::derive_seed(seed, 3));
  struct Conn {
    serve::Client client;
    std::deque<const serve::QueryRequest*> outstanding;
  };
  std::vector<Conn> conns(connections);
  for (Conn& c : conns) c.client.connect("127.0.0.1", port);

  const auto send_one = [&](Conn& c) {
    const PooledRequest& p = mix.draw(rng);
    result.request_bytes += p.encoded_bytes;
    c.outstanding.push_back(&p.request);
    c.client.send(p.request);
    ++result.sent;
  };

  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  for (Conn& c : conns) {
    for (std::size_t i = 0; i < window; ++i) send_one(c);
  }
  bool pending = true;
  while (pending) {
    pending = false;
    for (Conn& c : conns) {
      if (c.outstanding.empty()) continue;
      std::vector<std::uint8_t> raw = c.client.recv_raw();
      const bool more = Clock::now() < deadline;
      result.responses.add(c.outstanding.front(), std::move(raw));
      c.outstanding.pop_front();
      if (more) send_one(c);
      pending = pending || !c.outstanding.empty();
    }
  }
  result.seconds = seconds_between(start, Clock::now());
  return result;
}

OpenLoop::OpenLoop(std::uint16_t port, const RequestMix& mix,
                   std::uint64_t seed, double qps)
    : port_(port), mix_(mix), seed_(seed), qps_(qps) {}

OpenLoop::~OpenLoop() {
  if (sender_.joinable() || receiver_.joinable()) (void)stop();
}

void OpenLoop::start() {
  client_.connect("127.0.0.1", port_);
  started_ = Clock::now();
  sender_ = std::thread([this] { send_loop(); });
  receiver_ = std::thread([this] { recv_loop(); });
}

void OpenLoop::send_loop() {
  std::mt19937_64 rng(net::derive_seed(seed_, 4));
  const auto interval = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / qps_));
  for (std::uint64_t i = 0; !stop_.load(std::memory_order_relaxed); ++i) {
    const auto due = started_ + interval * static_cast<std::int64_t>(i);
    std::this_thread::sleep_until(due);
    if (stop_.load(std::memory_order_relaxed)) break;
    const PooledRequest& p = mix_.draw(rng);
    const auto now = Clock::now();
    {
      std::lock_guard<std::mutex> lock(mu_);
      inflight_.emplace_back(&p, due);
      result_.late_ms.push_back(1e3 * seconds_between(due, now));
      result_.request_bytes += p.encoded_bytes;
    }
    try {
      client_.send(p.request);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "open loop: send failed: %s\n", e.what());
      break;
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++sent_;
    }
    cv_.notify_one();
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    sender_done_ = true;
  }
  cv_.notify_one();
}

void OpenLoop::recv_loop() {
  std::uint64_t received = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return sent_ > received || sender_done_; });
      if (sent_ == received) break;  // sender finished, all answered
    }
    std::vector<std::uint8_t> raw;
    try {
      raw = client_.recv_raw();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "open loop: receive failed: %s\n", e.what());
      break;
    }
    const auto done = Clock::now();
    std::lock_guard<std::mutex> lock(mu_);
    const auto [p, due] = inflight_[received];
    result_.latency_ms.push_back(1e3 * seconds_between(due, done));
    result_.responses.add(&p->request, std::move(raw));
    ++received;
  }
}

LoopResult OpenLoop::stop() {
  stop_.store(true, std::memory_order_relaxed);
  if (sender_.joinable()) sender_.join();
  if (receiver_.joinable()) receiver_.join();
  client_.close();
  std::lock_guard<std::mutex> lock(mu_);
  result_.seconds = seconds_between(started_, Clock::now());
  result_.sent = inflight_.size();
  result_.lost = result_.sent - result_.responses.total();
  return std::move(result_);
}

Verifier::Verifier(const std::map<std::uint64_t, GenerationFiles>& generations)
    : generations_(generations) {}

const serve::StoreSnapshot* Verifier::snapshot(std::uint64_t generation) {
  const auto it = snapshots_.find(generation);
  if (it != snapshots_.end()) return it->second.get();
  auto snap = std::make_shared<serve::StoreSnapshot>();
  snap->generation = generation;
  if (generation != 0) {
    const auto files = generations_.find(generation);
    if (files == generations_.end()) return nullptr;
    // The same steps as serve::load_snapshot, on the kept files.
    ScopedSpan span("serve.load_snapshot", generation);
    const auto t0 = Clock::now();
    snap->flows.emplace(files->second.flows);
    if (!files->second.events.empty()) {
      snap->events.emplace(files->second.events);
    }
    snap->analyzer.emplace(&*snap->flows);
    snap->analyzer->prebuild_indexes();
    load_s_sum_ += seconds_between(t0, Clock::now());
  }
  snapshots_[generation] = snap;
  return snap.get();
}

std::uint64_t Verifier::check(const ResponseTally& tally) {
  std::uint64_t failed = 0;
  for (const ResponseTally::Entry& entry : tally.entries()) {
    if (!check(entry)) failed += entry.count;
  }
  return failed;
}

bool Verifier::check(const ResponseTally::Entry& entry) {
  checked_ += entry.count;
  const serve::QueryRequest& request = *entry.request;
  const auto fail = [&](const std::string& why) {
    if (failures_ < 5) {
      std::fprintf(stderr, "verify: %s (request kind %s, %llu responses)\n",
                   why.c_str(), serve::to_string(request.kind),
                   static_cast<unsigned long long>(entry.count));
    }
    failures_ += entry.count;
    return false;
  };
  serve::QueryResponse decoded;
  std::string error;
  bool decoded_ok = false;
  {
    ScopedSpan span("serve.client_codec", checked_);
    const auto t0 = Clock::now();
    (void)serve::encode_request(request);
    decoded_ok = serve::decode_response(entry.raw, decoded, error);
    codec_us_sum_ += micros_since(t0) * static_cast<double>(entry.count);
  }
  if (!decoded_ok) return fail("undecodable response: " + error);
  if (decoded.status != serve::Status::Ok) {
    return fail(std::string("status ") + serve::to_string(decoded.status) +
                ": " + decoded.error);
  }
  const serve::StoreSnapshot* snap = snapshot(decoded.generation);
  if (snap == nullptr) {
    return fail("unknown generation " + std::to_string(decoded.generation));
  }
  const auto key = std::make_pair(entry.request, decoded.generation);
  auto it = expected_.find(key);
  if (it == expected_.end()) {
    Expected e;
    {
      ScopedSpan span("serve.execute", decoded.generation);
      const auto t0 = Clock::now();
      e.bytes = serve::execute_query_bytes(request, snap->backend());
      e.execute_us = micros_since(t0);
    }
    if (request.kind == serve::QueryKind::FlowImpact) {
      const impact::SourceSet sources(request.sources);
      ScopedSpan span("impact.query", decoded.generation);
      const auto t0 = Clock::now();
      (void)snap->analyzer->query(request.router, request.day, sources);
      e.impact_us = micros_since(t0);
    }
    it = expected_.emplace(key, std::move(e)).first;
  }
  const auto n = static_cast<double>(entry.count);
  execute_us_sum_ += it->second.execute_us * n;
  if (it->second.impact_us >= 0) {
    impact_us_sum_ += it->second.impact_us * n;
    impact_count_ += entry.count;
  }
  if (entry.raw != it->second.bytes) {
    return fail("response differs from execute_query_bytes on generation " +
                std::to_string(decoded.generation));
  }
  return true;
}

double Verifier::execute_us() const {
  return checked_ == 0 ? 0 : execute_us_sum_ / static_cast<double>(checked_);
}
double Verifier::impact_query_us() const {
  return impact_count_ == 0 ? 0
                            : impact_us_sum_ / static_cast<double>(impact_count_);
}
double Verifier::codec_us() const {
  return checked_ == 0 ? 0 : codec_us_sum_ / static_cast<double>(checked_);
}
double Verifier::load_snapshot_s() const {
  std::size_t loaded = 0;
  for (const auto& [generation, snap] : snapshots_) loaded += generation != 0;
  return loaded == 0 ? 0 : load_s_sum_ / static_cast<double>(loaded);
}

}  // namespace e2e
