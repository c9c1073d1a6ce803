// e2ebench — the repository's end-to-end benchmark.
//
//   $ e2ebench --workload NAME --seed N --seconds S --trace 0|1
//              [--out-dir DIR] [--work-dir DIR]
//
// Drives the library path from outside, as a deployment would: scangen
// packets -> ParallelPipeline (telescope aggregation + streaming
// detection) -> D1-D3 AH lists -> ArchiveDir::publish_many of OCP1/ODE2/
// FDE1 generations -> the serve::Daemon's generation swap -> OQP1 queries
// answered through impact. Workloads (setup.cpp) are shapes of that one
// path. The last stdout line is the result:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// with the end-to-end metrics untraced (--trace 0) or the per-layer
// metrics traced (--trace 1). A full record (environment stamp, both
// metric sets, sample counts) goes to DIR/<workload>.seed<N>.trace<T>.json
// and a traced run's spans to a .spans.jsonl beside it.
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "loadgen.hpp"
#include "orion/detect/streaming.hpp"
#include "orion/netbase/shard.hpp"
#include "orion/netbase/simd.hpp"
#include "orion/serve/client.hpp"
#include "orion/telescope/capture.hpp"
#include "orion/telescope/checkpoint.hpp"
#include "setup.hpp"
#include "trace.hpp"

namespace e2e {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 17;
  double seconds = 30;
  bool trace = false;
  std::string out_dir = ".bench_build/results";
  std::string work_dir = ".bench_build/work";
};

/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 3;

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())) - 1);
  return v[std::min(idx, v.size() - 1)];
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

/// The i-th quartile (i = 1 or 3) by Python's statistics.quantiles
/// (exclusive method), so the run's own figures match the tooling's.
double quartile(std::vector<double> v, int i) {
  if (v.empty()) return 0;
  if (v.size() == 1) return v[0];
  std::sort(v.begin(), v.end());
  const auto n = static_cast<long>(v.size());
  const long m = (n + 1) * i;
  const long j = std::clamp(m / 4, 1L, n - 1);
  const long delta = m - j * 4;
  return (v[static_cast<std::size_t>(j - 1)] * static_cast<double>(4 - delta) +
          v[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
         4.0;
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Current resident set and its high-water mark, in MB.
std::pair<double, double> rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  double rss = 0, hwm = 0;
  while (std::getline(in, line)) {
    if (line.rfind("VmRSS:", 0) == 0) rss = std::stod(line.substr(6)) / 1024.0;
    if (line.rfind("VmHWM:", 0) == 0) hwm = std::stod(line.substr(6)) / 1024.0;
  }
  return {rss, hwm};
}

/// Resets the RSS high-water mark to the current RSS.
bool reset_peak_rss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  return static_cast<bool>(out);
}

bool same_result(const telescope::ParallelResult& a,
                 const telescope::ParallelResult& b) {
  return a.dataset.events() == b.dataset.events() && a.days == b.days &&
         a.ips == b.ips;
}

/// The sorted union of the D1-D3 AH sets.
std::vector<net::Ipv4Address> union_of(const std::array<detect::IpSet, 3>& ips) {
  detect::IpSet all;
  for (const auto& set : ips) all.insert(set.begin(), set.end());
  std::vector<net::Ipv4Address> v(all.begin(), all.end());
  std::sort(v.begin(), v.end());
  return v;
}

store::ArchiveDir::Writer timed_writer(const char* span_name,
                                       store::ArchiveDir::Writer writer) {
  return [span_name, writer = std::move(writer)](net::io::File& f) {
    ScopedSpan span(span_name);
    writer(f);
  };
}

/// Appends one load-generator result to another.
void append(LoopResult& into, LoopResult&& from) {
  into.responses.merge(std::move(from.responses));
  into.latency_ms.insert(into.latency_ms.end(), from.latency_ms.begin(),
                         from.latency_ms.end());
  into.late_ms.insert(into.late_ms.end(), from.late_ms.begin(), from.late_ms.end());
  into.seconds += from.seconds;
  into.sent += from.sent;
  into.request_bytes += from.request_bytes;
  into.lost += from.lost;
}

/// The lists the query mix draws from: a pass's per-day D1-D3 lists, the
/// union of its AH sets, and the population's cloud + botnet sources.
SourceLists lists_of(const telescope::ParallelResult& result, const World& world) {
  SourceLists lists;
  lists.daily.resize(kDays);
  for (const auto& day : result.days) {
    if (day.day >= 0 && day.day < kDays) {
      lists.daily[static_cast<std::size_t>(day.day)] = day.daily;
    }
  }
  lists.union_all = union_of(result.ips);
  lists.cloud_botnet = world.cloud_botnet();
  return lists;
}

/// What one ingest pass measured.
struct Pass {
  double ingest_s = 0;
  double freshness_ms = -1;  // negative: the closed day was not answered
  double checkpoint_bytes = 0;
  std::uint64_t bytes_written = 0;
  telescope::PipelineHealth health;
  std::optional<telescope::ParallelResult> result;
};

/// Everything the timed phase shares across passes.
struct Run {
  const World& world;
  Service& service;
  serve::Client probe;  // the freshness queries' own connection
  std::deque<serve::QueryRequest> probe_requests;
  ResponseTally probe_responses;
};

/// After a publish: waits until the daemon serves `generation`, then asks
/// for the closed day. Returns the freshness in ms measured from
/// `last_accept`, or a negative value when the day could not be queried.
double answer_day(Run& run, std::uint64_t generation, std::int64_t day,
                  std::vector<net::Ipv4Address> sources,
                  Clock::time_point last_accept) {
  {
    ScopedSpan span("serve.adopt_wait", static_cast<std::uint64_t>(day));
    const auto deadline = Clock::now() + std::chrono::seconds(5);
    while (run.service.daemon().generation() < generation) {
      if (Clock::now() > deadline) return -1;
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }
  serve::QueryRequest& request = run.probe_requests.emplace_back();
  request.kind = serve::QueryKind::FlowImpact;
  request.tenant = "e2ebench";
  request.router = static_cast<std::uint32_t>(day % flowsim::kRouterCount);
  request.day = day;
  request.sources = std::move(sources);
  std::vector<std::uint8_t> raw;
  {
    ScopedSpan span("serve.freshness_query", static_cast<std::uint64_t>(day));
    raw = run.probe.call_raw(request);
  }
  const double ms = 1e3 * seconds_between(last_accept, Clock::now());
  serve::QueryResponse response;
  std::string error;
  const bool ok = serve::decode_response(raw, response, error) &&
                  response.status == serve::Status::Ok &&
                  response.generation >= generation;
  run.probe_responses.add(&request, std::move(raw));
  return ok ? ms : -1;
}

Pass run_pass(Run& run, std::size_t index) {
  ScopedSpan pass_span("ingest.pass", index);
  const World& world = run.world;
  Pass pass;
  telescope::ParallelPipeline pipeline(world.scenario().darknet(),
                                       world.pipeline_config(kShards));
  const auto& batches = world.batches();
  const auto& days = world.batch_days();

  const auto t_start = Clock::now();
  for (std::size_t i = 0; i < batches.size(); ++i) {
    ScopedSpan span("pipeline.observe_batch", static_cast<std::uint64_t>(days[i]));
    pipeline.observe_batch(batches[i]);
  }
  const auto last_accept = Clock::now();

  // The window closes: snapshot, merge, publish lists + events + flows,
  // answer the last day from the generation that holds it.
  const std::int64_t last_day = days.back();
  telescope::CheckpointWriter writer;
  double checkpoint_s = 0;
  {
    ScopedSpan span("pipeline.checkpoint", static_cast<std::uint64_t>(last_day));
    const auto t0 = Clock::now();
    pipeline.checkpoint(writer);
    checkpoint_s = seconds_between(t0, Clock::now());
  }
  pass.checkpoint_bytes = static_cast<double>(writer.payload_size());
  {
    ScopedSpan span("pipeline.finish");
    pass.result.emplace(pipeline.finish());
  }
  pass.health = pass.result->health;
  // Ingest time: first observe_batch to finish() returning, without the
  // final snapshot (which belongs to publication, not to ingest).
  pass.ingest_s = seconds_between(t_start, Clock::now()) - checkpoint_s;

  const std::uint64_t gen = run.service.publish(
      {{"checkpoint", timed_writer("store.ocp1_write",
                                   [&](net::io::File& f) { writer.finish(f); })},
       {"events", timed_writer("store.ode2_write",
                               store::events_ode2_writer(pass.result->dataset))},
       {"flows", timed_writer("store.fde1_write",
                              store::flows_fde1_writer(world.flows()))}},
      &pass.bytes_written);
  pass.freshness_ms =
      answer_day(run, gen, last_day, union_of(pass.result->ips), last_accept);
  return pass;
}

/// The serial TelescopeCapture + StreamingDetector result on the same
/// packets — the reference every pass must equal.
struct Reference {
  telescope::EventDataset dataset;
  std::vector<detect::StreamingDayResult> days;
  std::array<detect::IpSet, 3> ips;
};

Reference serial_reference(const World& world) {
  const telescope::ParallelConfig config = world.pipeline_config(1);
  telescope::TelescopeCapture capture(world.scenario().darknet(),
                                      config.aggregator);
  {
    ScopedSpan span("telescope.capture");
    for (const auto& batch : world.batches()) capture.observe_batch(batch);
  }
  Reference ref{capture.finish(), {}, {}};
  detect::StreamingDetector detector(
      config.detector, world.scenario().darknet().total_addresses());
  {
    ScopedSpan span("detect.streaming");
    for (const auto& e : ref.dataset.events()) {
      for (auto& day : detector.observe(e)) ref.days.push_back(std::move(day));
    }
    if (auto last = detector.finish()) ref.days.push_back(std::move(*last));
  }
  for (std::size_t d = 0; d < 3; ++d) {
    ref.ips[d] = detector.ips(detect::kAllDefinitions[d]);
  }
  return ref;
}

/// A shard worker's busy time: each shard's net::shard_of partition
/// replayed alone through a TelescopeCapture. Returns the slowest shard.
double shard_aggregate_seconds(const World& world) {
  const telescope::ParallelConfig config = world.pipeline_config(kShards);
  double slowest = 0;
  pkt::PacketBatch part(kIngestBatch);
  for (std::size_t s = 0; s < kShards; ++s) {
    telescope::TelescopeCapture capture(world.scenario().darknet(),
                                        config.aggregator);
    double busy = 0;
    for (const auto& batch : world.batches()) {
      part.clear();
      for (std::size_t i = 0; i < batch.size(); ++i) {
        if (net::shard_of(batch.src(i), kShards) == s) part.append_record(batch, i);
      }
      ScopedSpan span("telescope.aggregate", s);
      const auto t0 = Clock::now();
      capture.observe_batch(part);
      busy += seconds_between(t0, Clock::now());
    }
    const auto t0 = Clock::now();
    (void)capture.finish();
    busy += seconds_between(t0, Clock::now());
    slowest = std::max(slowest, busy);
  }
  return slowest;
}

std::string json_array(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    out += (i ? ", " : "") + num(values[i]);
  }
  return out + "]";
}

std::string json_metrics(const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out << "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": "
        << num(metrics[i].value) << ", \"unit\": \"" << metrics[i].unit
        << "\"}";
  }
  out << "}";
  return out.str();
}

int usage() {
  std::cerr << "usage: e2ebench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--out-dir DIR] [--work-dir DIR]\n"
               "workloads:";
  for (const Workload& w : workloads()) std::cerr << " " << w.name;
  std::cerr << "\n";
  return 2;
}

int run_benchmark(const Args& args) {
  const Workload* wp = find_workload(args.workload);
  if (wp == nullptr) return usage();
  const Workload& w = *wp;
  if (args.trace) Trace::enable();
#if defined(__GLIBC__)
  // Pin glibc's mmap threshold at its default, 128 KiB. Setting it turns
  // off the adaptive raise that follows each free of an mmapped chunk.
  // Left adaptive, whether a pass's large growing buffers were mmapped
  // (realloc by mremap) or heap-copied (old and new both resident) varied
  // from run to run, and the peak RSS with it by about 15 MB.
  ::mallopt(M_MMAP_THRESHOLD, 128 * 1024);
#endif
  const std::string work_dir =
      args.work_dir + "/" + w.name + "." + std::to_string(::getpid());
  std::filesystem::create_directories(args.out_dir);

  // ---- set-up, repeated; the median is setup_s, the last one is kept.
  std::vector<double> setup_s;
  std::unique_ptr<World> world;
  std::unique_ptr<Service> service;
  for (int rep = 0; rep < kSetups; ++rep) {
    service.reset();
    world.reset();
    ScopedSpan span("setup.build", static_cast<std::uint64_t>(rep));
    const auto t0 = Clock::now();
    world = std::make_unique<World>(args.seed);
    service = std::make_unique<Service>(work_dir, w.daemon_workers);
    // The operator's border-flow archive is there before any list.
    service->publish({{"flows", timed_writer("store.fde1_write",
                                             store::flows_fde1_writer(
                                                 world->flows()))}});
    service->start_daemon();
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }
  std::fprintf(stderr, "[%s] seed %llu: %llu packets in %zu batches, setup %.3f s (median of %zu)\n",
               w.name, static_cast<unsigned long long>(args.seed),
               static_cast<unsigned long long>(world->packets()),
               world->batches().size(), median(setup_s), setup_s.size());

  // ---- timed phase: rounds of (ingest pass, closed-loop slice,
  // open-loop slice), so every metric samples the whole run.
#if defined(__GLIBC__)
  ::malloc_trim(0);  // hand the earlier set-ups' freed inputs back first
#endif
  const bool peak_reset = reset_peak_rss();
  const double rss_base = rss_mb().first;
  Run run{*world, *service, {}, {}, {}};
  run.probe.connect("127.0.0.1", service->daemon().port());
  const serve::ServeStats stats0 = service->daemon().stats();

  const auto rounds = static_cast<std::size_t>(
      std::max(1L, std::lround(args.seconds * w.rounds_per_second)));
  const double closed_slice = w.closed_share * args.seconds / static_cast<double>(rounds);
  const double open_slice = w.open_share * args.seconds / static_cast<double>(rounds);
  std::vector<Pass> pass_results;
  bool passes_agree = true;
  std::optional<RequestMix> mix;
  LoopResult closed, open;
  std::vector<double> round_qps;
  // Each round's open-loop percentiles (the record states the count).
  std::vector<double> round_p50, round_p90, round_p99;
  for (std::size_t r = 0; r < rounds; ++r) {
#if defined(__GLIBC__)
    // What the last round freed goes back first, so every round starts
    // from the same footing and the peak is one round's working set on
    // top of what the run keeps, not the allocator's retention across
    // rounds (which made the peak land in one of two modes).
    if (r > 0) ::malloc_trim(0);
#endif
    Pass pass = run_pass(run, r);
    if (!pass_results.empty()) {
      passes_agree =
          passes_agree && same_result(*pass.result, *pass_results[0].result);
      pass.result.reset();  // keep only the first pass's (identical) output
    }
    pass_results.push_back(std::move(pass));
    if (!mix) mix.emplace(lists_of(*pass_results[0].result, *world));
    if (closed_slice > 0) {
      LoopResult slice = closed_loop(service->daemon().port(), *mix,
                                     net::derive_seed(args.seed, 200 + r),
                                     closed_slice, 4, 8);
      round_qps.push_back(static_cast<double>(slice.responses.total()) /
                          slice.seconds);
      append(closed, std::move(slice));
    }
    if (open_slice > 0) {
      OpenLoop loop(service->daemon().port(), *mix,
                    net::derive_seed(args.seed, 300 + r), w.open_qps);
      loop.start();
      std::this_thread::sleep_for(std::chrono::duration<double>(open_slice));
      LoopResult slice = loop.stop();
      round_p50.push_back(percentile(slice.latency_ms, 0.50));
      round_p90.push_back(percentile(slice.latency_ms, 0.90));
      round_p99.push_back(percentile(slice.latency_ms, 0.99));
      append(open, std::move(slice));
    }
  }
  const telescope::ParallelResult& result = *pass_results[0].result;
  const double rss_peak = rss_mb().second;
  const serve::ServeStats stats1 = service->daemon().stats();
  const int refresh_ms = service->refresh_ms();
  run.probe.close();

  // ---- correctness, outside the timed phase
  std::uint64_t attempted = 0, failed = 0;
  std::vector<double> ingest_pps, freshness_ms, checkpoint_bytes;
  std::uint64_t dropped = 0, stalls = 0, bytes_written = 0;
  bool health_ok = true;
  for (const Pass& pass : pass_results) {
    dropped += pass.health.dropped();
    stalls += pass.health.stalls;
    health_ok = health_ok && pass.health.consistent() &&
                pass.health.ingested == world->packets();
    ingest_pps.push_back(static_cast<double>(world->packets()) / pass.ingest_s);
    checkpoint_bytes.push_back(pass.checkpoint_bytes);
    if (pass.freshness_ms >= 0) {
      freshness_ms.push_back(pass.freshness_ms);
    } else {
      ++failed;  // a missed freshness query
    }
    bytes_written += pass.bytes_written;
    attempted += world->packets() + 1;
  }
  failed += dropped;

  const Reference ref = serial_reference(*world);
  const bool events_ok = ref.dataset.events() == result.dataset.events();
  const bool days_ok = ref.days == result.days;
  const bool ips_ok = ref.ips == result.ips;
  double aggregate_s = 0;
  if (args.trace) aggregate_s = shard_aggregate_seconds(*world);

  Verifier verifier(service->generations());
  std::uint64_t lost = 0;
  for (const LoopResult* loop : {&closed, &open}) {
    failed += verifier.check(loop->responses);
    attempted += loop->sent;
    lost += loop->lost;
  }
  failed += verifier.check(run.probe_responses);
  failed += lost;
  service.reset();  // stops the daemon and joins its threads

  const bool correct = events_ok && days_ok && ips_ok && passes_agree &&
                       health_ok && failed == 0;

  // ---- metrics
  std::vector<Metric> e2e = {
      {"setup_s", "s", median(setup_s)},
      // Per-round figures are reported at the fast-side quartile over
      // the run's rounds: the shared host only ever slows a round down,
      // so a round it stalled reads as an outlier and is set aside.
      {"ingest_pps", "packets/s", quartile(ingest_pps, 3)},
      {"freshness_ms", "ms", quartile(freshness_ms, 1)},
      {"query_qps", "queries/s", quartile(round_qps, 3)},
      {"rss_growth_mb", "MB", rss_peak - rss_base},
  };
  // Open-loop latency, timed from each request's scheduled send time.
  // Queueing turns a host stall of a few milliseconds into a several-fold
  // jump in these percentiles, so they are reported unbounded: with the
  // per-layer metrics, and in every record.
  const std::vector<Metric> latency = {
      {"query_p50_ms", "ms", quartile(round_p50, 1)},
      {"query_p90_ms", "ms", quartile(round_p90, 1)},
      {"query_p99_ms", "ms", quartile(round_p99, 1)},
  };

  std::vector<Metric> layers;
  if (args.trace) {
    const std::vector<Span> spans = Trace::active()->spans();
    const auto setups = static_cast<double>(setup_s.size());
    const auto np = static_cast<double>(rounds);
    const std::uint64_t requests = stats1.requests - stats0.requests;
    const std::uint64_t sent = closed.sent + open.sent;
    const std::uint64_t request_bytes = closed.request_bytes + open.request_bytes;
    layers = {
        {"scangen.generate_s", "s", sum(durations(spans, "scangen.generate")) / setups},
        {"flowsim.generate_s", "s", sum(durations(spans, "flowsim.generate")) / setups},
        {"pipeline.observe_batch_s", "s",
         sum(durations(spans, "pipeline.observe_batch")) / np},
        {"pipeline.observe_batch_p99_us", "us",
         1e6 * percentile(durations(spans, "pipeline.observe_batch"), 0.99)},
        {"pipeline.finish_s", "s", mean(durations(spans, "pipeline.finish"))},
        {"pipeline.checkpoint_s", "s", mean(durations(spans, "pipeline.checkpoint"))},
        {"pipeline.checkpoint_bytes", "bytes", mean(checkpoint_bytes)},
        {"pipeline.dropped", "count", static_cast<double>(dropped)},
        {"pipeline.stalls", "count", static_cast<double>(stalls)},
        {"telescope.aggregate_s", "s", aggregate_s},
        {"telescope.events", "count", static_cast<double>(ref.dataset.event_count())},
        {"detect.streaming_s", "s", sum(durations(spans, "detect.streaming"))},
        {"detect.ah_d1", "count", static_cast<double>(ref.ips[0].size())},
        {"detect.ah_d2", "count", static_cast<double>(ref.ips[1].size())},
        {"detect.ah_d3", "count", static_cast<double>(ref.ips[2].size())},
        {"store.fde1_write_s", "s", mean(durations(spans, "store.fde1_write"))},
        {"store.ode2_write_s", "s", mean(durations(spans, "store.ode2_write"))},
        {"store.publish_s", "s", mean(durations(spans, "store.publish"))},
        {"store.bytes_written", "bytes", static_cast<double>(bytes_written)},
        {"serve.load_snapshot_s", "s", verifier.load_snapshot_s()},
        {"serve.adopt_wait_ms", "ms", 1e3 * mean(durations(spans, "serve.adopt_wait"))},
        {"serve.execute_us", "us", verifier.execute_us()},
        {"serve.client_codec_us", "us", verifier.codec_us()},
        {"serve.shared_ratio", "ratio",
         requests == 0 ? 0
                       : static_cast<double>(stats1.shared_computations -
                                             stats0.shared_computations) /
                             static_cast<double>(requests)},
        {"serve.request_bytes_mean", "bytes",
         sent == 0 ? 0 : static_cast<double>(request_bytes) / static_cast<double>(sent)},
        {"serve.overload_rejections", "count",
         static_cast<double>(stats1.overload_rejections - stats0.overload_rejections)},
        {"serve.bad_requests", "count",
         static_cast<double>(stats1.bad_requests - stats0.bad_requests)},
        {"impact.query_us", "us", verifier.impact_query_us()},
        {"loadgen.late_p99_ms", "ms", percentile(open.late_ms, 0.99)},
    };
    layers.insert(layers.end(), latency.begin(), latency.end());
  }

  // ---- report
  const std::string stem = args.out_dir + "/" + w.name + ".seed" +
                           std::to_string(args.seed) + ".trace" +
                           (args.trace ? "1" : "0");
  std::ostringstream env;
  env << "{\"hardware_concurrency\": " << std::thread::hardware_concurrency()
      << ", \"simd_level\": \"" << net::simd::to_string(net::simd::active_level())
      << "\", \"simd_features\": \"" << net::simd::feature_string()
      << "\", \"build_type\": \"" << E2E_BUILD_TYPE
      << "\", \"archive_fs\": \"" << filesystem_type(args.work_dir)
      << "\", \"shards\": " << kShards
      << ", \"daemon_workers\": " << w.daemon_workers
      << ", \"daemon_refresh_ms\": " << refresh_ms
      << ", \"open_loop_qps\": " << num(w.open_qps)
      << ", \"days\": " << kDays << ", \"packets\": " << world->packets()
      << ", \"peak_rss_reset\": " << (peak_reset ? "true" : "false") << "}";
  std::ostringstream samples;
  samples << "{\"pooled_p99_ms\": " << num(percentile(open.latency_ms, 0.99))
          << ", \"open_loop\": " << open.latency_ms.size()
          << ", \"closed_loop\": " << closed.responses.total()
          << ", \"setup_s\": " << json_array(setup_s)
          << ", \"ingest_pps\": " << json_array(ingest_pps)
          << ", \"freshness_ms\": " << json_array(freshness_ms)
          << ", \"query_qps\": " << json_array(round_qps)
          << ", \"query_p50_ms\": " << json_array(round_p50)
          << ", \"query_p90_ms\": " << json_array(round_p90)
          << ", \"query_p99_ms\": " << json_array(round_p99) << "}";
  std::ostringstream checks;
  checks << "{\"events_equal_serial\": " << (events_ok ? "true" : "false")
         << ", \"days_equal_serial\": " << (days_ok ? "true" : "false")
         << ", \"ah_sets_equal_serial\": " << (ips_ok ? "true" : "false")
         << ", \"passes_agree\": " << (passes_agree ? "true" : "false")
         << ", \"health_consistent\": " << (health_ok ? "true" : "false")
         << ", \"responses_checked\": " << verifier.checked()
         << ", \"response_failures\": " << verifier.failures()
         << ", \"lost\": " << lost << "}";
  {
    std::ofstream out(stem + ".json", std::ios::trunc);
    out << "{\"workload\": \"" << w.name << "\", \"seed\": " << args.seed
        << ", \"seconds\": " << num(args.seconds)
        << ", \"trace\": " << (args.trace ? 1 : 0) << ", \"env\": " << env.str()
        << ", \"correct\": " << (correct ? "true" : "false")
        << ", \"attempted\": " << attempted << ", \"failed\": " << failed
        << ", \"fail_frac\": "
        << num(static_cast<double>(failed) / static_cast<double>(attempted))
        << ", \"samples\": " << samples.str() << ", \"checks\": " << checks.str()
        << ", \"end_to_end\": " << json_metrics(e2e)
        << ", \"open_loop_latency\": " << json_metrics(latency)
        << ", \"per_layer\": " << json_metrics(layers)
        << ", \"result_digest\": {\"events\": " << result.dataset.event_count()
        << ", \"ah\": [" << result.ips[0].size() << ", " << result.ips[1].size()
        << ", " << result.ips[2].size() << "]}}\n";
  }
  if (args.trace) Trace::active()->write_jsonl(stem + ".spans.jsonl");
  std::filesystem::remove_all(work_dir);

  std::fprintf(stderr, "[%s] checks %s; fail_frac %.3g (%llu of %llu)\n", w.name,
               checks.str().c_str(),
               static_cast<double>(failed) / static_cast<double>(attempted),
               static_cast<unsigned long long>(failed),
               static_cast<unsigned long long>(attempted));
  for (const Metric& m : args.trace ? layers : e2e) {
    std::fprintf(stderr, "  %-32s %16.6g %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
  std::cout << "# env " << env.str() << "\n";
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": " << json_metrics(args.trace ? layers : e2e)
            << "}" << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  e2e::Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      args.workload = argv[++i];
      have_workload = true;
    } else if (arg == "--seed" && has_value) {
      args.seed = std::stoull(argv[++i]);
    } else if (arg == "--seconds" && has_value) {
      args.seconds = std::stod(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      args.trace = std::string(argv[++i]) != "0";
    } else if (arg == "--out-dir" && has_value) {
      args.out_dir = argv[++i];
    } else if (arg == "--work-dir" && has_value) {
      args.work_dir = argv[++i];
    } else {
      return e2e::usage();
    }
  }
  if (!have_workload || args.seconds <= 0) return e2e::usage();
  try {
    return e2e::run_benchmark(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2ebench: %s\n", e.what());
    return 1;
  }
}
