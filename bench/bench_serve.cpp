// bench_serve — the orion_serve daemon under concurrent load.
//
//   $ ./bench_serve [--reps R] [--json PATH] [--smoke]
//
// Serves a tiny-scenario flow archive from an in-process daemon and
// drives it two ways: the batched mode (persistent connections, each
// client pipelining a window of requests, the daemon sharing index
// walks across identical co-arriving queries) against the single-shot
// baseline (a fresh connection per query, one query in flight — what N
// sequential `orion_cli serve-query` invocations cost). Acceptance:
// >= 2x aggregate throughput for 4 batched clients vs 4 sequential
// single-shot clients on one core.
//
// The equivalence gate is always on: EVERY response the daemon returns
// — in both modes, and through a mid-run generation swap published
// while the batched clients are in flight — must be byte-identical to
// serve::execute_query_bytes() run directly against a snapshot of the
// generation the response claims. The swap is adopted at its manifest
// commit (the daemon's inotify watch; the poll keeps its default period),
// and the time from commit to adoption is reported. Each mode runs --reps
// times (default 5): single-shot over 750 requests per client, batched
// over 12,000 per client so its timed region also lasts >= 100 ms; the
// table and the speedup compare queries/s of the best reps,
// BENCH_serve.json also keeps the median and worst. --smoke runs the gate once at 2 clients (including the swap)
// without asserting the timing; --json writes BENCH_serve.json recording
// the speedup alongside the gate verdict and hardware_concurrency.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common.hpp"
#include "orion/flowsim/flows.hpp"
#include "orion/scangen/scenario.hpp"
#include "orion/serve/client.hpp"
#include "orion/serve/daemon.hpp"
#include "orion/serve/engine.hpp"
#include "orion/serve/protocol.hpp"
#include "orion/serve/store_cache.hpp"
#include "orion/store/archive.hpp"

namespace {

using namespace orion;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Tiny-scenario border flows; base_pps distinguishes generations so a
/// swap actually changes the served bytes.
flowsim::FlowDataset tiny_flows(const scangen::Scenario& scenario,
                                std::uint32_t base_pps) {
  flowsim::FlowSimConfig config;
  config.isp_space = scenario.merit();
  config.start_day = 2;
  config.end_day = 5;
  config.sampling_rate = 100;
  config.user.base_pps = base_pps;
  return generate_flows(scenario.population_2021(), scenario.registry(),
                        flowsim::PeeringPolicy::merit_like(), config);
}

/// The query mix: a FlowImpact probe per (router, day) cell with the
/// cloud-scanner sources, plus StoreInfo and Ping. Clients cycle it.
std::vector<serve::QueryRequest> build_requests(
    const scangen::Scenario& scenario, const flowsim::FlowDataset& flows) {
  std::vector<net::Ipv4Address> sources;
  for (const auto& s : scenario.population_2021().scanners) {
    if (s.category == scangen::Category::CloudScanner) {
      sources.push_back(s.source);
      if (sources.size() == 32) break;
    }
  }
  std::vector<serve::QueryRequest> requests;
  for (std::size_t router = 0; router < flowsim::kRouterCount; ++router) {
    for (std::int64_t day = flows.start_day(); day < flows.end_day(); ++day) {
      serve::QueryRequest r;
      r.kind = serve::QueryKind::FlowImpact;
      r.tenant = "bench";
      r.router = static_cast<std::uint32_t>(router);
      r.day = day;
      r.sources = sources;
      requests.push_back(std::move(r));
    }
  }
  serve::QueryRequest info;
  info.kind = serve::QueryKind::StoreInfo;
  info.tenant = "bench";
  requests.push_back(info);
  serve::QueryRequest ping;
  ping.kind = serve::QueryKind::Ping;
  ping.tenant = "bench";
  requests.push_back(ping);
  return requests;
}

/// (request index, raw response frame payload) — everything the gate
/// needs to replay the query directly.
using RawResponse = std::pair<std::size_t, std::vector<std::uint8_t>>;

struct RunResult {
  std::vector<double> latencies_ms;
  std::vector<RawResponse> raws;
};

/// Baseline: one query per TCP connection, strictly sequential — the
/// aggregate cost of `clients` tenants each running single-shot CLI
/// invocations back to back.
RunResult run_single_shot(std::uint16_t port,
                          const std::vector<serve::QueryRequest>& requests,
                          std::size_t clients, std::size_t per_client) {
  RunResult result;
  for (std::size_t c = 0; c < clients; ++c) {
    for (std::size_t i = 0; i < per_client; ++i) {
      const std::size_t idx = i % requests.size();
      const auto start = Clock::now();
      serve::Client client;
      client.connect("127.0.0.1", port);
      std::vector<std::uint8_t> raw = client.call_raw(requests[idx]);
      client.close();
      result.latencies_ms.push_back(1000.0 *
                                    seconds_between(start, Clock::now()));
      result.raws.emplace_back(idx, std::move(raw));
    }
  }
  return result;
}

/// Batched: `clients` threads, each with ONE persistent connection and a
/// pipeline window of outstanding requests. Identical co-arriving
/// queries ride one computation inside the daemon.
RunResult run_batched(std::uint16_t port,
                      const std::vector<serve::QueryRequest>& requests,
                      std::size_t clients, std::size_t per_client,
                      std::size_t window) {
  std::vector<RunResult> per(clients);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      serve::Client client;
      client.connect("127.0.0.1", port);
      std::deque<Clock::time_point> sent;
      std::size_t next_send = 0;
      std::size_t next_recv = 0;
      while (next_recv < per_client) {
        while (next_send < per_client && sent.size() < window) {
          client.send(requests[next_send % requests.size()]);
          sent.push_back(Clock::now());
          ++next_send;
        }
        std::vector<std::uint8_t> raw = client.recv_raw();
        per[c].latencies_ms.push_back(
            1000.0 * seconds_between(sent.front(), Clock::now()));
        sent.pop_front();
        per[c].raws.emplace_back(next_recv % requests.size(), std::move(raw));
        ++next_recv;
      }
    });
  }
  for (auto& t : threads) t.join();
  RunResult result;
  for (auto& p : per) {
    result.latencies_ms.insert(result.latencies_ms.end(),
                               p.latencies_ms.begin(), p.latencies_ms.end());
    for (auto& r : p.raws) result.raws.push_back(std::move(r));
  }
  return result;
}

/// The mid-run swap phase: clients keep pipelining while the main thread
/// publishes a NEW flow generation into the watched archive. The daemon
/// must flip atomically — every response stays byte-identical to a
/// direct query on whichever generation it claims, and post-swap
/// responses must actually arrive (the swap is observed, not skipped).
struct SwapPhase {
  std::vector<RawResponse> raws;
  bool swap_served = false;  // at least one response from the new generation
  double adopt_ms = -1;      // commit to first served; < 0: never adopted
};

SwapPhase run_swap_phase(
    serve::Daemon& daemon, const std::string& archive_dir,
    const std::vector<serve::QueryRequest>& requests, std::size_t clients,
    std::size_t window, const flowsim::FlowDataset& next_flows,
    std::map<std::uint64_t, std::shared_ptr<const serve::StoreSnapshot>>&
        snapshots) {
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> responses{0};
  std::vector<std::vector<RawResponse>> per(clients);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      serve::Client client;
      client.connect("127.0.0.1", daemon.port());
      std::deque<std::size_t> outstanding;
      std::size_t next_send = 0;
      auto pump_one = [&] {
        std::vector<std::uint8_t> raw = client.recv_raw();
        per[c].emplace_back(outstanding.front(), std::move(raw));
        outstanding.pop_front();
        responses.fetch_add(1, std::memory_order_relaxed);
      };
      while (!stop.load(std::memory_order_relaxed)) {
        while (outstanding.size() < window) {
          const std::size_t idx = next_send++ % requests.size();
          client.send(requests[idx]);
          outstanding.push_back(idx);
        }
        pump_one();
      }
      while (!outstanding.empty()) pump_one();
    });
  }

  // Let generation-1 traffic flow, then publish the next generation
  // under the clients' feet.
  while (responses.load(std::memory_order_relaxed) < clients * 8) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  store::ArchiveDir archive(archive_dir);
  archive.publish_many({{"flows", store::flows_fde1_writer(next_flows)}});
  const auto committed = Clock::now();
  const std::uint64_t target = archive.generation();

  // Wait for the daemon to adopt it (pushed by the manifest watch, not
  // the poll), then keep the pipelines running long enough that
  // new-generation responses definitely land.
  SwapPhase phase;
  bool adopted = false;
  for (int i = 0; i < 40000 && !adopted; ++i) {
    adopted = daemon.generation() == target;
    if (!adopted) std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  if (adopted) phase.adopt_ms = 1000.0 * seconds_between(committed, Clock::now());
  snapshots[target] = serve::load_snapshot(archive, "flows", "events");
  const std::uint64_t mark = responses.load(std::memory_order_relaxed);
  const std::uint64_t goal = mark + clients * (window + 2);
  for (int i = 0;
       i < 4000 && responses.load(std::memory_order_relaxed) < goal; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : threads) t.join();

  for (auto& p : per) {
    for (auto& r : p) phase.raws.push_back(std::move(r));
  }
  if (adopted) {
    for (const auto& [idx, raw] : phase.raws) {
      (void)idx;
      serve::QueryResponse decoded;
      std::string error;
      if (serve::decode_response(raw, decoded, error) &&
          decoded.generation == target) {
        phase.swap_served = true;
        break;
      }
    }
  }
  return phase;
}

/// Every raw response must equal execute_query_bytes() on a snapshot of
/// the generation it claims. Returns the number of mismatches.
std::size_t gate_mismatches(
    const std::vector<RawResponse>& raws,
    const std::vector<serve::QueryRequest>& requests,
    const std::map<std::uint64_t,
                   std::shared_ptr<const serve::StoreSnapshot>>& snapshots,
    const char* phase) {
  std::size_t bad = 0;
  for (const auto& [idx, raw] : raws) {
    serve::QueryResponse decoded;
    std::string error;
    if (!serve::decode_response(raw, decoded, error)) {
      std::fprintf(stderr, "[%s] undecodable response: %s\n", phase,
                   error.c_str());
      ++bad;
      continue;
    }
    const auto it = snapshots.find(decoded.generation);
    if (it == snapshots.end()) {
      std::fprintf(stderr, "[%s] response claims unknown generation %llu\n",
                   phase,
                   static_cast<unsigned long long>(decoded.generation));
      ++bad;
      continue;
    }
    const std::vector<std::uint8_t> expected =
        serve::execute_query_bytes(requests[idx], it->second->backend());
    if (raw != expected) {
      std::fprintf(stderr,
                   "[%s] byte mismatch: request %zu, generation %llu, "
                   "got %zu bytes vs %zu expected\n",
                   phase, idx,
                   static_cast<unsigned long long>(decoded.generation),
                   raw.size(), expected.size());
      ++bad;
    }
  }
  return bad;
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const auto idx = static_cast<std::size_t>(
      q * static_cast<double>(values.size() - 1) + 0.5);
  return values[std::min(idx, values.size() - 1)];
}

}  // namespace

int main(int argc, char** argv) {
  int reps = 5;
  bool smoke = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--reps" && i + 1 < argc) {
      reps = std::stoi(argv[++i]);
    } else if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg == "--smoke") {
      smoke = true;
    } else {
      std::cerr << "usage: bench_serve [--reps R] [--json PATH] [--smoke]\n";
      return 1;
    }
  }

  bench::print_header(
      "orion_serve under load (batched pipelined clients vs single-shot)",
      "Acceptance: >= 2x aggregate throughput for 4 batched clients vs 4 "
      "sequential single-shot invocations, every response byte-identical "
      "to a direct engine query on its own store generation — including "
      "across a mid-run generation swap.");

  const std::size_t clients = smoke ? 2 : 4;
  const std::size_t per_client = smoke ? 40 : 750;
  const std::size_t batched_per_client = smoke ? 40 : 12'000;
  const std::size_t window = smoke ? 8 : 16;
  if (smoke) reps = 1;

  const std::string dir =
      "/tmp/orion_bench_serve." + std::to_string(::getpid());
  std::filesystem::remove_all(dir);

  const scangen::Scenario scenario{scangen::tiny()};
  const flowsim::FlowDataset gen1 = tiny_flows(scenario, 2000);
  const flowsim::FlowDataset gen2 = tiny_flows(scenario, 2600);

  std::map<std::uint64_t, std::shared_ptr<const serve::StoreSnapshot>>
      snapshots;
  {
    store::ArchiveDir archive(dir);
    archive.publish_many({{"flows", store::flows_fde1_writer(gen1)}});
    const auto snap = serve::load_snapshot(archive, "flows", "events");
    snapshots[snap->generation] = snap;
  }
  const std::vector<serve::QueryRequest> requests =
      build_requests(scenario, gen1);

  serve::DaemonConfig config;
  config.archive_dir = dir;
  config.port = 0;  // ephemeral
  config.workers = 2;
  config.batching = true;

  std::size_t mismatches = 0;
  double single_qps = 0, batched_qps = 0, speedup = 0;
  bench::Timing single_time, batched_time;
  double sp50 = 0, sp95 = 0, sp99 = 0, bp50 = 0, bp95 = 0, bp99 = 0;
  bool swap_served = false;
  double swap_adopt_ms = -1;
  serve::ServeStats stats;
  {
    serve::Daemon daemon(config);
    daemon.start();

    // Every rep's responses are pooled, so the gate checks all of them.
    RunResult single, batched;
    const auto pool = [](RunResult& into, RunResult run) {
      into.latencies_ms.insert(into.latencies_ms.end(), run.latencies_ms.begin(),
                               run.latencies_ms.end());
      for (auto& r : run.raws) into.raws.push_back(std::move(r));
    };
    single_time = bench::time_reps(reps, [&] {
      pool(single, run_single_shot(daemon.port(), requests, clients, per_client));
    });
    batched_time = bench::time_reps(reps, [&] {
      pool(batched, run_batched(daemon.port(), requests, clients,
                                batched_per_client, window));
    });
    const SwapPhase swap = run_swap_phase(daemon, dir, requests, clients,
                                          window, gen2, snapshots);
    stats = daemon.stats();
    daemon.stop();

    mismatches += gate_mismatches(single.raws, requests, snapshots, "single");
    mismatches +=
        gate_mismatches(batched.raws, requests, snapshots, "batched");
    mismatches += gate_mismatches(swap.raws, requests, snapshots, "swap");
    swap_served = swap.swap_served;
    swap_adopt_ms = swap.adopt_ms;

    single_qps = static_cast<double>(clients * per_client) / single_time.best;
    batched_qps =
        static_cast<double>(clients * batched_per_client) / batched_time.best;
    speedup = batched_qps / single_qps;
    sp50 = percentile(single.latencies_ms, 0.50);
    sp95 = percentile(single.latencies_ms, 0.95);
    sp99 = percentile(single.latencies_ms, 0.99);
    bp50 = percentile(batched.latencies_ms, 0.50);
    bp95 = percentile(batched.latencies_ms, 0.95);
    bp99 = percentile(batched.latencies_ms, 0.99);
  }
  std::filesystem::remove_all(dir);

  const bool gate_ok = mismatches == 0 && swap_served;
  if (!swap_served) {
    std::fprintf(stderr,
                 "swap phase never served the new generation — the "
                 "generation swap was not exercised\n");
  }

  if (smoke) {
    std::printf("clients=%zu per_client=%zu shared=%llu swaps=%llu "
                "adopt_ms=%.2f\n",
                clients, per_client,
                static_cast<unsigned long long>(stats.shared_computations),
                static_cast<unsigned long long>(stats.generation_swaps),
                swap_adopt_ms);
    std::cout << (gate_ok ? "SMOKE OK\n" : "SMOKE FAILED\n");
    return gate_ok ? 0 : 1;
  }

  report::Table table({"mode", "seconds (best)", "queries/s", "p50 ms",
                       "p95 ms", "p99 ms", "speedup"});
  char buf[7][32];
  std::snprintf(buf[0], sizeof buf[0], "%.4f", single_time.best);
  std::snprintf(buf[1], sizeof buf[1], "%.0f", single_qps);
  std::snprintf(buf[2], sizeof buf[2], "%.3f", sp50);
  std::snprintf(buf[3], sizeof buf[3], "%.3f", sp95);
  std::snprintf(buf[4], sizeof buf[4], "%.3f", sp99);
  table.add_row({"single-shot", buf[0], buf[1], buf[2], buf[3], buf[4],
                 "1.00x"});
  std::snprintf(buf[0], sizeof buf[0], "%.4f", batched_time.best);
  std::snprintf(buf[1], sizeof buf[1], "%.0f", batched_qps);
  std::snprintf(buf[2], sizeof buf[2], "%.3f", bp50);
  std::snprintf(buf[3], sizeof buf[3], "%.3f", bp95);
  std::snprintf(buf[4], sizeof buf[4], "%.3f", bp99);
  std::snprintf(buf[5], sizeof buf[5], "%.2fx", speedup);
  table.add_row({"batched x" + std::to_string(clients), buf[0], buf[1],
                 buf[2], buf[3], buf[4], buf[5]});
  std::cout << table.to_ascii();
  std::printf(
      "\nshared computations: %llu   generation swaps: %llu   "
      "swap adopted %.2f ms after its commit   equivalence gate: %s\n",
      static_cast<unsigned long long>(stats.shared_computations),
      static_cast<unsigned long long>(stats.generation_swaps), swap_adopt_ms,
      gate_ok ? "ok" : "FAILED");
  std::printf("batched serving speedup: %.2fx %s\n", speedup,
              speedup >= 2.0 ? "(acceptance >= 2x met)"
                             : "(below the 2x acceptance bar)");

  if (!json_path.empty()) {
    std::ofstream out(json_path, std::ios::trunc);
    out << "{\n"
        << "  \"bench\": \"serve\",\n"
        << "  \"clients\": " << clients << ",\n"
        << "  \"requests_per_client\": " << per_client << ",\n"
        << "  \"batched_requests_per_client\": " << batched_per_client
        << ",\n"
        << "  \"pipeline_window\": " << window << ",\n"
        << "  \"reps\": " << reps << ",\n"
        << "  \"hardware_concurrency\": " << std::thread::hardware_concurrency()
        << ",\n"
        << "  \"equivalence_ok\": " << (gate_ok ? "true" : "false") << ",\n"
        << "  \"swap_generation_served\": " << (swap_served ? "true" : "false")
        << ",\n"
        << "  \"shared_computations\": " << stats.shared_computations << ",\n"
        << "  \"generation_swaps\": " << stats.generation_swaps << ",\n"
        << "  \"swap_adopt_ms\": " << swap_adopt_ms << ",\n"
        << "  \"runs\": [\n"
        << "    {\"config\": \"single-shot\", \"seconds\": " << single_time.best
        << ", \"median_seconds\": " << single_time.median
        << ", \"worst_seconds\": " << single_time.worst
        << ", \"qps\": " << single_qps << ", \"p50_ms\": " << sp50
        << ", \"p95_ms\": " << sp95 << ", \"p99_ms\": " << sp99
        << ", \"speedup\": 1.0},\n"
        << "    {\"config\": \"batched\", \"seconds\": " << batched_time.best
        << ", \"median_seconds\": " << batched_time.median
        << ", \"worst_seconds\": " << batched_time.worst
        << ", \"qps\": " << batched_qps << ", \"p50_ms\": " << bp50
        << ", \"p95_ms\": " << bp95 << ", \"p99_ms\": " << bp99
        << ", \"speedup\": " << speedup << "}\n"
        << "  ],\n"
        << "  \"speedup\": " << speedup << "\n"
        << "}\n";
    std::cout << "wrote " << json_path << "\n";
  }
  return gate_ok ? 0 : 1;
}
