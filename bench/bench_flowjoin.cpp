// Single-core flow-join throughput: the pinned scalar four-pass reference
// (join_flow_index_scalar — the pre-redesign per-table algorithm) vs the
// batched one-probe query() core (pre-hashed SourceSet + prefetch-ahead
// FlowSourceIndex probe, DESIGN.md §12).
//
// The workload is the paper's Section 4 loop: every (router, day,
// definition) cell of the Table 2/8 window over the paper-scaled
// simulated NetFlow. Per-(router,day) indexes are built (and cached)
// outside the timed region, so both paths time pure join work.
//
// Both paths join over the flows' in-memory FDE1 image. Before any
// timing, an equivalence gate asserts both are byte-identical to the
// scalar reference join over an index built from the dataset's own rows,
// for every cell AND for indexes rebuilt from FlowBatch spans at several
// chunkings (sizes 1, 64, 1024 and a ragged random mix); a mismatch fails
// the run.
//
//   $ ./bench_flowjoin [--reps R] [--json PATH] [--smoke]
//
// --json writes BENCH_flowjoin.json recording the acceptance number
// (>= 3x single-core join throughput) alongside equivalence_ok, with the
// best, median and worst seconds over --reps and hardware_concurrency. --smoke
// runs the equivalence gate only, on the tiny scenario (fast; used by
// the ctest "flowjoin" label).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "orion/impact/flow_join.hpp"
#include "orion/scangen/scenario.hpp"
#include "orion/store/fde1.hpp"
#include "orion/store/mapped_flow.hpp"

namespace {

using namespace orion;

bool same_report(const impact::RouterDayReport& a,
                 const impact::RouterDayReport& b) {
  return a.impact.router == b.impact.router && a.impact.day == b.impact.day &&
         a.impact.matched_packets == b.impact.matched_packets &&
         a.impact.total_packets == b.impact.total_packets &&
         a.impact.matched_sources == b.impact.matched_sources &&
         a.protocols == b.protocols && a.ports == b.ports &&
         a.probed_sources == b.probed_sources;
}

/// Rebuilds a router-day index from its sorted batch re-chunked into
/// `sizes`-cycled spans (the arbitrary-slicing half of the §12 contract).
impact::FlowSourceIndex chunked_index(const flowsim::FlowBatch& batch,
                                      const std::vector<std::size_t>& sizes) {
  impact::FlowSourceIndex index;
  flowsim::FlowBatch chunk;
  std::size_t i = 0;
  std::size_t size_at = 0;
  while (i < batch.size()) {
    const std::size_t take =
        std::min(sizes[size_at++ % sizes.size()], batch.size() - i);
    chunk.clear();
    for (std::size_t j = 0; j < take; ++j) chunk.append_record(batch, i + j);
    index.append(chunk);
    i += take;
  }
  index.finalize();
  return index;
}

struct Cell {
  std::size_t router = 0;
  std::int64_t day = 0;
  std::size_t definition = 0;
};

/// The equivalence gate: batched query() over the FDE1 image vs the
/// scalar reference join over the dataset's own rows on every cell, plus
/// chunking invariance of the index build on the first cell of each
/// router.
bool equivalence_gate(const flowsim::FlowDataset& flows,
                      const impact::FlowImpactAnalyzer& analyzer,
                      const std::vector<detect::IpSet>& definitions,
                      const std::vector<Cell>& cells) {
  bool ok = true;
  for (const Cell& cell : cells) {
    const auto reference = bench::reference_report(
        flows, cell.router, cell.day, definitions[cell.definition]);
    const auto batched =
        analyzer.query(cell.router, cell.day, definitions[cell.definition]);
    const auto scalar = analyzer.query_scalar(cell.router, cell.day,
                                              definitions[cell.definition]);
    if (!same_report(batched, reference) || !same_report(scalar, reference)) {
      std::cout << "equivalence MISMATCH at router " << cell.router << " day "
                << cell.day << " definition " << cell.definition << "\n";
      ok = false;
    }
  }
  std::cout << "equivalence over " << cells.size()
            << " (router, day, definition) cells: " << (ok ? "ok" : "MISMATCH")
            << "\n";

  // Chunking invariance: the same index (and so the same report) must come
  // out of any batch slicing.
  std::mt19937 rng(3);
  std::vector<std::size_t> ragged;
  for (int i = 0; i < 23; ++i) ragged.push_back(1 + rng() % 200);
  const std::vector<std::vector<std::size_t>> chunkings = {
      {1}, {64}, {1024}, ragged};
  const impact::SourceSet sources(definitions[0]);
  for (std::size_t router = 0; router < flowsim::kRouterCount; ++router) {
    const std::int64_t day = flows.start_day();
    const flowsim::RouterDay& rd = flows.at(router, day);
    const auto ref = analyzer.query(router, day, definitions[0]);
    for (const auto& sizes : chunkings) {
      const impact::FlowSourceIndex index = chunked_index(rd.rows, sizes);
      const auto report =
          impact::join_flow_index(index, sources, flows.sampling_rate(),
                                  rd.total_packets, router, day);
      if (!same_report(report, ref)) {
        std::cout << "chunking MISMATCH at router " << router << " span size "
                  << sizes[0] << "\n";
        ok = false;
      }
    }
  }
  std::cout << "index chunking invariance (spans 1/64/1024/ragged): "
            << (ok ? "ok" : "MISMATCH") << "\n";
  return ok;
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
      std::cerr << "usage: bench_flowjoin [--reps R] [--json PATH] [--smoke]\n";
      return 1;
    }
  }

  bench::print_header(
      "Batched flow join (query() vs the scalar four-pass reference)",
      "Acceptance: >= 3x single-core join throughput on the Section 4 "
      "loop, with the batched join byte-identical to scalar on every "
      "cell and at every index chunking.");

  // --smoke joins over the tiny scenario (no paper-scale World build).
  if (smoke) {
    const scangen::Scenario scenario{scangen::tiny()};
    flowsim::FlowSimConfig config;
    config.isp_space = scenario.merit();
    config.start_day = 2;
    config.end_day = 5;
    config.sampling_rate = 100;
    config.user.base_pps = 2000;
    const flowsim::FlowDataset flows =
        generate_flows(scenario.population_2021(), scenario.registry(),
                       flowsim::PeeringPolicy::merit_like(), config);
    detect::IpSet ah;
    for (const auto& s : scenario.population_2021().scanners) {
      if (s.category == scangen::Category::CloudScanner) ah.insert(s.source);
    }
    const std::vector<detect::IpSet> definitions = {ah};
    std::vector<Cell> cells;
    for (std::size_t router = 0; router < flowsim::kRouterCount; ++router) {
      for (std::int64_t day = flows.start_day(); day < flows.end_day(); ++day) {
        cells.push_back({router, day, 0});
      }
    }
    const store::MappedFlowStore image(store::fde1_image(flows));
    const impact::FlowImpactAnalyzer analyzer(&image);
    const bool ok = equivalence_gate(flows, analyzer, definitions, cells);
    std::cout << (ok ? "SMOKE OK\n" : "SMOKE FAILED\n");
    return ok ? 0 : 1;
  }

  // The paper-scale Section 4 workload: the 2022 detection's three AH
  // definitions joined against the Table 2 flow week at all routers.
  const auto& world = bench::World::instance();
  const flowsim::FlowDataset flows = bench::merit_flows(
      world, 2022, bench::flows1_start(), bench::flows1_end());
  std::vector<detect::IpSet> definitions;
  for (const detect::Definition d : detect::kAllDefinitions) {
    definitions.push_back(world.detection(2022).of(d).ips);
  }

  std::vector<Cell> cells;
  for (std::size_t router = 0; router < flowsim::kRouterCount; ++router) {
    for (std::int64_t day = flows.start_day(); day < flows.end_day(); ++day) {
      for (std::size_t d = 0; d < definitions.size(); ++d) {
        cells.push_back({router, day, d});
      }
    }
  }

  const store::MappedFlowStore image(store::fde1_image(flows));
  const impact::FlowImpactAnalyzer analyzer(&image);
  // Warm the per-(router, day) index cache so both paths time pure joins.
  for (const Cell& cell : cells) {
    analyzer.query(cell.router, cell.day, impact::SourceSet());
  }
  std::size_t total_probes = 0;
  for (const Cell& cell : cells) total_probes += definitions[cell.definition].size();
  std::cout << "workload: " << cells.size() << " cells, " << total_probes
            << " source probes per sweep\n\n";

  // --- Equivalence gate (always; timing is meaningless on divergence).
  const bool equivalence_ok =
      equivalence_gate(flows, analyzer, definitions, cells);
  std::cout << (equivalence_ok ? "\nbatched join byte-identical to scalar\n\n"
                               : "\nBATCHED JOIN DIVERGED FROM SCALAR\n\n");

  // --- Timing. SourceSets are hoisted per definition, exactly as the
  // table drivers use the API.
  std::vector<impact::SourceSet> sets;
  sets.reserve(definitions.size());
  for (const auto& d : definitions) sets.emplace_back(d);

  volatile std::uint64_t sink = 0;  // keep the joins observable
  const bench::Timing scalar = bench::time_reps(reps, [&] {
    std::uint64_t acc = 0;
    for (const Cell& cell : cells) {
      acc += analyzer
                 .query_scalar(cell.router, cell.day,
                               definitions[cell.definition])
                 .impact.matched_packets;
    }
    sink = sink + acc;
  });
  const bench::Timing batched = bench::time_reps(reps, [&] {
    std::uint64_t acc = 0;
    for (const Cell& cell : cells) {
      acc += analyzer.query(cell.router, cell.day, sets[cell.definition])
                 .impact.matched_packets;
    }
    sink = sink + acc;
  });

  const double scalar_rate = static_cast<double>(total_probes) / scalar.best;
  const double batched_rate =
      static_cast<double>(total_probes) / batched.best;
  const double speedup = scalar.best / batched.best;

  report::Table table(
      {"configuration", "seconds (best)", "source-probes/sec", "speedup"});
  char buf[3][64];
  std::snprintf(buf[0], sizeof buf[0], "%.4f", scalar.best);
  std::snprintf(buf[1], sizeof buf[1], "%.0f", scalar_rate);
  table.add_row({"scalar four-pass", buf[0], buf[1], "1.00x"});
  std::snprintf(buf[0], sizeof buf[0], "%.4f", batched.best);
  std::snprintf(buf[1], sizeof buf[1], "%.0f", batched_rate);
  std::snprintf(buf[2], sizeof buf[2], "%.2fx", speedup);
  table.add_row({"batched query()", buf[0], buf[1], buf[2]});
  std::cout << table.to_ascii();
  std::printf("\nbatched join speedup: %.2fx %s\n", speedup,
              speedup >= 3.0 ? "(acceptance >= 3x met)"
                             : "(below the 3x acceptance bar)");

  if (!json_path.empty()) {
    std::ofstream out(json_path, std::ios::trunc);
    out << "{\n"
        << "  \"bench\": \"flowjoin\",\n"
        << "  \"scenario\": \"paper\",\n"
        << "  \"cells\": " << cells.size() << ",\n"
        << "  \"source_probes\": " << total_probes << ",\n"
        << "  \"reps\": " << reps << ",\n"
        << "  \"hardware_concurrency\": " << std::thread::hardware_concurrency()
        << ",\n"
        << "  \"equivalence_ok\": " << (equivalence_ok ? "true" : "false")
        << ",\n"
        << "  \"runs\": [\n"
        << "    {\"config\": \"scalar\", \"seconds\": " << scalar.best
        << ", \"median_seconds\": " << scalar.median
        << ", \"worst_seconds\": " << scalar.worst
        << ", \"probes_per_sec\": " << scalar_rate
        << ", \"speedup_vs_scalar\": 1.0},\n"
        << "    {\"config\": \"batched\", \"seconds\": " << batched.best
        << ", \"median_seconds\": " << batched.median
        << ", \"worst_seconds\": " << batched.worst
        << ", \"probes_per_sec\": " << batched_rate
        << ", \"speedup_vs_scalar\": " << speedup << "}\n"
        << "  ],\n"
        << "  \"speedup\": " << speedup << "\n"
        << "}\n";
    std::cout << "wrote " << json_path << "\n";
  }
  return equivalence_ok ? 0 : 1;
}
