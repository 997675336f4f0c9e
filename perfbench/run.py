"""Run one benchmark workload and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 12 --trace 0

Workloads (``BENCHMARK.json`` documents each one): ``sweep``, ``fuzz``,
``serve`` and ``replay``.

``--trace 0`` measures the end-to-end metrics (``setup_s``,
``throughput_per_s``, ``latency_p50_s``, ``latency_tail_s``,
``peak_rss_mb``).  ``--trace 1`` is a separate run: the workload runs
once untraced, then once with spans around every layer's public calls
(``spans.py``), and prints the per-layer metrics, a self-time table,
``trace.overhead_ratio`` and the path of a Chrome-trace JSON.

Every run checks the simulator's outputs; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  A wrong output makes the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

from common import OUT_DIR, measure_setup, metric, reap_children, \
    require_source, tail

#: Per-layer metrics that are the self time of one span name.
SELF_TIME_METRICS = {
    "vgiw.self_s": "vgiw.run",
    "sgmf.self_s": "sgmf.run",
    "simt.self_s": "simt.run",
    "interp.verify_s": "interp.interpret",
    "compiler.optimize_s": "compiler.optimize",
    "compiler.vgiw_compile_s": "compiler.vgiw_compile",
    "compiler.sgmf_map_s": "compiler.sgmf_map",
    "resultcache.key_s": "resultcache.key",
    "resultcache.get_s": "resultcache.get",
    "resultcache.put_s": "resultcache.put",
    "serve.submit_s": "serve.submit",
    "fuzz.generate_s": "fuzz.generate",
    "fuzz.oracle_s": "fuzz.oracle",
    "kernels.workload_s": "kernels.workload",
    "power.energy_s": "power.energy",
    "evalharness.self_s": "evalharness.run",
}
#: Per-layer metrics the workload measures itself, with their units.
WORKLOAD_METRICS = {
    "resultcache.hit_ratio": "ratio",
    "resultcache.disk_hits": "count",
    "resultcache.disk_writes": "count",
    "resultcache.disk_errors": "count",
    "serve.queue_s_p50": "s",
    "serve.compile_s_p50": "s",
    "serve.execute_s_p50": "s",
    "serve.overhead_s_p50": "s",
    "serve.batch_mean_size": "count",
    "serve.rejected": "count",
    "serve.over_limit": "count",
    "loadgen.late_s_max": "s",
    "fuzz.divergent": "count",
    "fuzz.unmappable_ratio": "ratio",
}


def end_to_end(name: str, seed: int, seconds: float):
    import workloads

    cls = workloads.WORKLOADS[name]
    setup_times = measure_setup(name, cls.setup_repeats)
    out = _run_once(cls, seed, seconds, None)
    label, value = tail(out.latencies)
    if label == "max" and out.tail_label:
        label = out.tail_label
    print(f"setup_s: median of {len(setup_times)} fresh-interpreter "
          f"set-ups: {', '.join(f'{t:.3f}' for t in setup_times)}")
    print(f"latency: {len(out.latencies)} samples; latency_tail_s is "
          f"{label}")
    metrics = {
        "setup_s": metric(statistics.median(setup_times), "s"),
        "throughput_per_s": metric(out.throughput, "1/s"),
        "latency_p50_s": metric(statistics.median(out.latencies), "s"),
        "latency_tail_s": metric(value, "s"),
        "peak_rss_mb": metric(out.peak_rss_mb, "MB"),
    }
    return out, metrics


def _run_once(cls, seed, seconds, rec):
    workload = cls()
    try:
        workload.setup()
        return workload.run(seed, seconds, rec)
    finally:
        workload.teardown()


def traced(name: str, seed: int, seconds: float):
    import workloads
    from spans import ENGINE_SPANS, SpanRecorder

    cls = workloads.WORKLOADS[name]
    base = _run_once(cls, seed, seconds, None)
    rec = SpanRecorder()
    model = {}
    keep = getattr(cls, "model_keep", lambda request: True)

    def hook_for(engine):
        def hook(request, result):
            stats = workloads.engine_stats(result)
            rec.count(f"{engine}.events", stats["events"])
            if keep(request):
                model[(request, engine)] = stats
        return hook

    for span, engine in ENGINE_SPANS.items():
        rec.on_result(span, hook_for(engine))
    rec.install()
    try:
        t0 = time.perf_counter()
        out = _run_once(cls, seed, seconds, rec)
        wall = time.perf_counter() - t0
    finally:
        rec.uninstall()
    model.update(out.model)
    if base.failed:
        out.failed += base.failed
        out.errors[:0] = base.errors

    layers = {m: metric(rec.self_s(span), "s")
              for m, span in SELF_TIME_METRICS.items()}
    for span, engine in ENGINE_SPANS.items():
        events = rec.counts.get(f"{engine}.events", 0)
        ns = rec.self_ns.get(span, 0)
        layers[f"{span.split('.')[0]}.ns_per_event"] = metric(
            ns / events if events else 0.0, "ns")
    hits = rec.counts.get("compiler.cache_hits", 0) + out.worker_compile_hits
    lookups = (hits + rec.counts.get("compiler.cache_misses", 0)
               + out.worker_compile_misses)
    layers["compiler.cache_hit_ratio"] = metric(
        hits / lookups if lookups else 0.0, "ratio")
    for key, unit in WORKLOAD_METRICS.items():
        layers[key] = metric(out.layers.get(key, 0.0), unit)
    layers.update(_model_metrics(model))
    # Operation i is the same work in both runs (same row, case or
    # request), so compare the operations both runs completed.
    k = min(len(out.latencies), len(base.latencies))
    base_s = sum(base.latencies[:k])
    overhead = sum(out.latencies[:k]) / base_s if base_s else 0.0
    layers["trace.overhead_ratio"] = metric(overhead, "ratio")

    path = os.path.join(OUT_DIR, f"trace-{name}-seed{seed}.json")
    rec.write_chrome_trace(path, out.trace_events)
    print(f"chrome trace: {os.path.relpath(path)} "
          f"({len(rec.spans)} spans kept, {rec.dropped} dropped)")
    _print_self_table(rec, wall)
    if out.worker_split:
        total = sum(out.latencies)
        print(f"worker-side split of {len(out.latencies)} requests "
              f"(from responses; share of summed latency {total:.3f} s):")
        for stage, seconds in out.worker_split.items():
            print(f"  {stage:<24}{'':>10}{seconds:>12.4f}"
                  f"{seconds / total:>9.1%}")
    print(f"trace.overhead_ratio: {overhead:.4f} (summed latency of the "
          f"first {k} operations, traced over untraced)")
    return out, layers


def _model_metrics(model):
    """Sums of the modelled statistics: identical between two versions
    of the simulator unless the modelled design changed."""
    total = {}
    cycles = {"fermi": 0.0, "vgiw": 0.0, "sgmf": 0.0}
    for (_, engine), stats in model.items():
        cycles[engine] += stats["cycles"]
        for key, value in stats.items():
            total[key] = total.get(key, 0) + value

    def ratio(num, den):
        return num / den if den else 0.0

    def level(name):
        hits = total.get(f"{name}.read_hits", 0) \
            + total.get(f"{name}.write_hits", 0)
        misses = total.get(f"{name}.read_misses", 0) \
            + total.get(f"{name}.write_misses", 0)
        return hits + misses, ratio(hits, hits + misses)

    l1, l1_ratio = level("l1")
    l2, l2_ratio = level("l2")
    row_hits = total.get("dram.row_hits", 0)
    row_misses = total.get("dram.row_misses", 0)
    return {
        "vgiw.sim_cycles": metric(cycles["vgiw"], "cycles"),
        "sgmf.sim_cycles": metric(cycles["sgmf"], "cycles"),
        "simt.sim_cycles": metric(cycles["fermi"], "cycles"),
        "memory.l1_accesses": metric(l1, "count"),
        "memory.l1_hit_ratio": metric(l1_ratio, "ratio"),
        "memory.l2_accesses": metric(l2, "count"),
        "memory.l2_hit_ratio": metric(l2_ratio, "ratio"),
        "memory.dram_accesses": metric(
            total.get("dram.reads", 0) + total.get("dram.writes", 0),
            "count"),
        "memory.dram_row_hit_ratio": metric(
            ratio(row_hits, row_hits + row_misses), "ratio"),
    }


def _print_self_table(rec, wall: float) -> None:
    print(f"per-layer self time over {wall:.3f} s of traced set-up and "
          f"timed phase (memory host time is inside engine self time):")
    print(f"  {'span':<24}{'calls':>10}{'self_s':>12}{'share':>9}")
    accounted = 0.0
    for span in sorted(rec.self_ns, key=rec.self_ns.get, reverse=True):
        self_s = rec.self_s(span)
        accounted += self_s
        print(f"  {span:<24}{rec.calls[span]:>10}{self_s:>12.4f}"
              f"{self_s / wall:>9.1%}")
    rest = wall - accounted
    # Spans of concurrent client threads overlap in wall time, so the
    # remainder goes negative when they do.
    print(f"  {'(wall minus spans)':<24}{'':>10}{rest:>12.4f}"
          f"{rest / wall:>9.1%}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep", "fuzz", "serve", "replay"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    require_source()
    try:
        if args.trace:
            out, metrics = traced(args.workload, args.seed, args.seconds)
        else:
            out, metrics = end_to_end(args.workload, args.seed,
                                      args.seconds)
    finally:
        reap_children()
    for line in out.notes:
        print(line)
    for error in out.errors:
        print(f"FAILED: {error}")
    correct = out.failed == 0 and out.attempted > 0
    print(json.dumps({"correct": correct, "attempted": out.attempted,
                      "failed": out.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
