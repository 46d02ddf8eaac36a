"""The repository benchmark: one command, three workloads.

Usage, from the repository root::

    python3 perfbench/run.py --workload app_stream --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``
with tracing off. ``--trace 1`` is a separate run that measures the
same workload untraced and then traced, and reports the per-layer
metrics; it also writes a Chrome trace-event file and the per-layer
self-time table to ``.perfbench_out/``. Every run checks every served
window for correctness and exits non-zero on a mismatch. The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.

The benchmark simulates from the sources under ``src/``; without them
it exits with an error and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench_out")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("app_stream", "fft2048", "fleet"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def report_stats(reports) -> Counter:
    """Launch, store-cache and resilience counters over served reports."""
    stats = Counter()
    for report in reports:
        stats.update(report.store_stats)
        for name in ("retries", "late_results"):
            stats[name] += report.resilience.get(name, 0)
        for window in report.windows:
            for launch in window.launches:
                stats["launches"] += 1
                stats["kernel_cycles"] += launch.cycles
                stats["reference_launches"] += launch.engine == "reference"
                stats["accelerated_loops"] += (
                    launch.superblocks or {}
                ).get("accelerated_loops", 0)
    return stats


def layer_metrics(traced) -> dict:
    """The per-layer metrics of one traced run, per served window."""
    from perfbench.tracer import count_marks, layer_of, layer_table

    self_s = Counter()
    inclusive = Counter()
    counts = Counter()
    wall = 0.0
    for group in traced.groups:
        rows, group_wall = layer_table(group.spans, group.metric_roots)
        wall += group_wall
        for name, (own, incl, _) in rows.items():
            self_s[layer_of(name)] += own
            inclusive[name] += incl
        counts.update(count_marks(group.spans, group.marks,
                                  group.metric_roots))
    net_self = Counter()
    net_counts = Counter()
    if traced.net is not None:
        rows, _ = layer_table(traced.net.spans, traced.net.metric_roots)
        for name, (own, _, _) in rows.items():
            net_self[layer_of(name)] += own
        net_counts.update(count_marks(
            traced.net.spans, traced.net.marks, traced.net.metric_roots))
    stats = report_stats(traced.reports)
    windows = traced.windows

    def ms(seconds):
        return seconds * 1e3 / windows

    def per(count):
        return count / windows

    def ratio(part, whole):
        return part / whole if whole else 0.0

    def misses(kind):
        return ratio(stats[f"{kind}_misses"],
                     stats[f"{kind}_hits"] + stats[f"{kind}_misses"])

    return {
        "kernels.build_ms_per_window": (ms(self_s["kernels.build"]), "ms"),
        "kernels.configs_per_window": (per(counts["configs"]), "count"),
        "core.store_ms_per_window": (ms(inclusive["core.store"]), "ms"),
        "core.stores_per_window": (per(stats["stores"]), "count"),
        "core.dedup_hit_ratio": (
            ratio(stats["dedup_hits"], stats["stores"]), "ratio"),
        "core.encode_miss_ratio": (misses("encode"), "ratio"),
        "core.hazard_miss_ratio": (misses("hazard"), "ratio"),
        "core.analysis_miss_ratio": (misses("analysis"), "ratio"),
        "engine.launch_ms_per_window": (
            ms(inclusive["engine.launch"]), "ms"),
        "engine.compile_ms_per_window": (
            ms(inclusive["engine.compile"]), "ms"),
        "engine.analysis_ms_per_window": (
            ms(inclusive["engine.analysis"]), "ms"),
        "engine.execute_ms_per_window": (
            ms(self_s["engine.execute"]), "ms"),
        "engine.sim_cycles_per_host_s": (
            ratio(stats["kernel_cycles"], self_s["engine.execute"]),
            "cycles/s"),
        "engine.launches_per_window": (per(stats["launches"]), "count"),
        "engine.reference_fallback_ratio": (
            ratio(stats["reference_launches"], stats["launches"]), "ratio"),
        "engine.accelerated_loops_per_window": (
            per(stats["accelerated_loops"]), "count"),
        "soc.stage_ms_per_window": (ms(self_s["soc.stage"]), "ms"),
        "soc.staged_words_per_window": (
            per(counts["staged_words"]), "words"),
        "energy.fold_ms_per_window": (ms(self_s["energy.fold"]), "ms"),
        "energy.folds_per_window": (per(counts["folds"]), "count"),
        "app.host_ms_per_window": (ms(self_s["app.host"]), "ms"),
        "serve.scheduler_ms_per_window": (
            ms(self_s["serve.scheduler"]), "ms"),
        "net.frames_per_window": (
            per(net_counts["frames_out"] + net_counts["frames_in"]),
            "count"),
        "net.bytes_per_window": (
            per(net_counts["bytes_out"] + net_counts["bytes_in"]), "B"),
        "net.codec_ms_per_window": (ms(net_self["net.codec"]), "ms"),
        "net.server_cpu_ms_per_window": (ms(traced.server_cpu_s), "ms"),
        "net.retry_ratio": (
            per(stats["retries"] + stats["late_results"]), "ratio"),
        "trace.wall_ms_per_window": (ms(wall), "ms"),
        "trace.overhead_pct": (
            100.0 * (traced.plain_rate / traced.traced_rate - 1.0), "%"),
    }


def write_trace_outputs(name: str, traced) -> str:
    """Chrome trace + self-time tables under ``.perfbench_out/``."""
    from perfbench.tracer import (
        chrome_events,
        format_table,
        layer_table,
        write_chrome_trace,
    )

    os.makedirs(OUT_DIR, exist_ok=True)
    groups = list(traced.groups)
    if traced.net is not None:
        groups.append(traced.net)
    events = []
    tables = {}
    for pid, group in enumerate(groups, start=1):
        events += chrome_events(group.spans, pid, f"{group.title} #{pid}")
        rows, wall = layer_table(group.spans, group.table_roots)
        merged, merged_wall = tables.get(group.title, ({}, 0.0))
        for span, (own, incl, calls) in rows.items():
            o, i, c = merged.get(span, (0.0, 0.0, 0))
            merged[span] = (o + own, i + incl, c + calls)
        tables[group.title] = (merged, merged_wall + wall)
    write_chrome_trace(os.path.join(OUT_DIR, f"{name}-trace.json"), events)
    text = "\n".join(
        format_table(title, rows, wall, traced.windows)
        for title, (rows, wall) in tables.items()
    )
    with open(os.path.join(OUT_DIR, f"{name}-layers.txt"), "w",
              encoding="utf-8") as handle:
        handle.write(text + "\n")
    return text


def stop_resource_tracker() -> None:
    """Stop and reap the resource tracker that spawning children starts,
    so no process of the run outlives it."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("perfbench: src/repro is missing; nothing to benchmark",
              file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    try:
        if args.trace:
            from perfbench.tracer import Tracer

            traced = workload.traced(args.seed, args.seconds, Tracer())
            print(write_trace_outputs(args.workload, traced))
            check = traced.check
            metrics = layer_metrics(traced)
        else:
            check = workload.measure(args.seed, args.seconds)
            metrics = check.metrics()
            check.notes.append(check.wall_note())
    finally:
        stop_resource_tracker()
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    for note in check.notes:
        print(f"{args.workload} {note}")
    correct = check.failed == 0
    print(f"{args.workload} failed_window_ratio = "
          f"{check.failed / check.attempted:.6g} "
          f"({check.failed}/{check.attempted})")
    print(json.dumps({
        "correct": correct,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
