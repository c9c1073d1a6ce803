#!/usr/bin/env python3
"""Summarise a traced e2ebench run.

    python3 e2ebench/trace_report.py RECORD.trace1.json [--untraced RECORD]

RECORD is a traced result record (<workload>.seed<N>.trace1.json); its
spans are read from the .spans.jsonl beside it. Prints

  1. self time per layer: each span's duration minus the part its child
     spans cover, summed by layer (the span name before the first '.');
  2. every per-layer metric by name and unit, next to the end-to-end
     metric it is meant to move;
  3. tracing overhead: the traced run's end-to-end numbers against an
     untraced run of the same workload and seed (by default the
     .trace0.json beside RECORD, when present).
"""
import argparse
import collections
import json
import os

# Which end-to-end metric each per-layer metric should move.
MOVES = {
    "scangen.generate_s": "setup_s",
    "flowsim.generate_s": "setup_s",
    "pipeline.observe_batch_s": "ingest_pps",
    "pipeline.observe_batch_p99_us": "ingest_pps",
    "pipeline.finish_s": "ingest_pps",
    "pipeline.checkpoint_s": "freshness_ms",
    "pipeline.checkpoint_bytes": "freshness_ms",
    "pipeline.dropped": "failed",
    "pipeline.stalls": "failed",
    "telescope.aggregate_s": "ingest_pps",
    "telescope.events": "(correctness witness)",
    "detect.streaming_s": "ingest_pps",
    "detect.ah_d1": "(correctness witness)",
    "detect.ah_d2": "(correctness witness)",
    "detect.ah_d3": "(correctness witness)",
    "store.fde1_write_s": "freshness_ms",
    "store.ode2_write_s": "freshness_ms",
    "store.publish_s": "freshness_ms",
    "store.bytes_written": "freshness_ms",
    "serve.load_snapshot_s": "freshness_ms",
    "serve.adopt_wait_ms": "freshness_ms",
    "serve.execute_us": "query_qps",
    "serve.client_codec_us": "query_qps",
    "serve.shared_ratio": "query_qps",
    "serve.request_bytes_mean": "query_qps",
    "serve.overload_rejections": "failed",
    "serve.bad_requests": "failed",
    "impact.query_us": "query_qps",
    "loadgen.late_p99_ms": "query_p50/p90/p99_ms (validity)",
    "query_p50_ms": "(open-loop latency; unbounded, host stalls swing it)",
    "query_p90_ms": "(open-loop latency; unbounded, host stalls swing it)",
    "query_p99_ms": "(open-loop latency; unbounded, host stalls swing it)",
}


def self_time(spans_path):
    spans = []
    with open(spans_path) as f:
        for line in f:
            spans.append(json.loads(line))
    child = collections.Counter()
    for s in spans:
        if s["parent"]:
            child[s["parent"]] += s["end_ns"] - s["start_ns"]
    layers = collections.defaultdict(lambda: [0, 0.0, 0.0])
    for s in spans:
        dur = s["end_ns"] - s["start_ns"]
        layer = layers[s["name"].split(".")[0]]
        layer[0] += 1
        layer[1] += dur * 1e-9
        layer[2] += max(0, dur - child[s["id"]]) * 1e-9
    return layers


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("record")
    parser.add_argument("--untraced")
    args = parser.parse_args()
    with open(args.record) as f:
        record = json.load(f)
    stem = args.record[: -len(".json")]
    print(f"{record['workload']} seed {record['seed']}: "
          f"correct={record['correct']} failed={record['failed']}/"
          f"{record['attempted']}  env={json.dumps(record['env'])}")

    print("\nself time by layer (span time minus child spans):")
    print(f"  {'layer':12s} {'spans':>8s} {'total s':>10s} {'self s':>10s}")
    for name, (n, total, own) in sorted(self_time(stem + ".spans.jsonl").items(),
                                        key=lambda kv: -kv[1][2]):
        print(f"  {name:12s} {n:8d} {total:10.4f} {own:10.4f}")

    print("\nper-layer metrics -> the end-to-end metric each should move:")
    for name, m in record["per_layer"].items():
        print(f"  {name:32s} {m['value']:>14.6g} {m['unit']:6s} -> "
              f"{MOVES.get(name, '?')}")

    untraced = args.untraced or stem.replace(".trace1", ".trace0") + ".json"
    if os.path.exists(untraced):
        with open(untraced) as f:
            base = json.load(f)["end_to_end"]
        print(f"\ntracing overhead (traced vs {os.path.basename(untraced)}):")
        for name, m in record["end_to_end"].items():
            if name in base and base[name]["value"]:
                b = base[name]["value"]
                print(f"  {name:16s} {m['value']:>14.6g} vs {b:>14.6g} "
                      f"{m['unit']:10s} {100 * (m['value'] - b) / b:+7.2f}%")
    else:
        print(f"\nno untraced record at {untraced}; tracing overhead not shown")


if __name__ == "__main__":
    main()
