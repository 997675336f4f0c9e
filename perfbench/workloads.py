"""The four workloads: set-up, timed phase and output checks.

Each workload is a class with ``setup()`` (what a user pays before the
first operation), ``run(seed, seconds, rec)`` (the timed phase, which
returns an :class:`Outcome`) and ``teardown()``.  ``rec`` is a
:class:`spans.SpanRecorder` in a traced run and ``None`` otherwise; the
workloads only use it to attribute spans to request ids.

``repro`` is imported inside ``setup()`` so that the set-up probe
(``setup_probe.py``) times exactly the imports each workload needs.
"""

from __future__ import annotations

import json
import os
import queue
import random
import shutil
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from common import REFERENCE_DIR, ROOT, PeakRSS, reap_children, scratch_dir

SWEEP_REFERENCE = os.path.join(REFERENCE_DIR, "sweep_small.json")
DIGEST_REFERENCE = os.path.join(REFERENCE_DIR, "digests_tiny.json")
GOLDEN_CYCLES = os.path.join(ROOT, "benchmarks", "golden_cycles_small.json")

#: Open-loop rate of the serve workload (see ``Serve``).
SERVE_RATE_PER_S = 6.5
#: Extra requests per round for a few hot kernels.  With them the
#: cheapest kernels make about three quarters of a round and the slowest
#: about a sixth, so the median and the p90 fall inside dense clusters
#: of request cost rather than in the gaps between kernels.
SERVE_HOT = {"nn/euclid": 36, "particlefilter/normalize_weights": 35,
             "lavamd/kernel_gpu_cuda": 12}
#: Latency above this counts as a missed request (``serve.over_limit``).
SERVE_LATENCY_LIMIT_S = 2.0
REPLAY_CLIENTS = 2
#: The fuzz workload's modelled counts cover this many leading cases, so
#: they compare exactly across runs whose time box ends at another case.
FUZZ_MODEL_CASES = 100
#: Fuzz outcomes that are a failed operation (``unmappable`` is benign).
FUZZ_FAILURES = frozenset({"mismatch", "missing-store", "hang",
                           "runtime-error", "compile-error"})


def engine_stats(result) -> Dict[str, float]:
    """The modelled statistics of one engine run: cycles, simulated
    events (fabric node fires, or Fermi lane operations) and the
    L1/L2/DRAM counters."""
    events = (result.sm.lane_ops if result.engine == "fermi"
              else result.fabric.node_fires)
    out: Dict[str, float] = {"cycles": float(result.cycles),
                             "events": int(events)}
    for level in ("l1", "l2"):
        stats = getattr(result, level)
        for name in ("read_hits", "read_misses", "write_hits",
                     "write_misses"):
            out[f"{level}.{name}"] = int(getattr(stats, name))
    for name in ("reads", "writes", "row_hits", "row_misses"):
        out[f"dram.{name}"] = int(getattr(result.dram, name))
    return out


def run_stats(run) -> Dict[str, Optional[Dict[str, float]]]:
    """:func:`engine_stats` of every machine of a ``KernelRun``."""
    return {eng: None if getattr(run, eng) is None
            else engine_stats(getattr(run, eng))
            for eng in ("fermi", "vgiw", "sgmf")}


def load_json(path: str):
    with open(path) as fh:
        return json.load(fh)


@dataclass
class Outcome:
    """What one timed phase measured."""

    #: host seconds of each completed operation
    latencies: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: completed operations per host second of the timed phase
    throughput: float = 0.0
    peak_rss_mb: float = 0.0
    #: label of the tail when it is not a percentile (``max (row)``)
    tail_label: Optional[str] = None
    #: first few failure descriptions
    errors: List[str] = field(default_factory=list)
    #: human-readable lines printed before the result
    notes: List[str] = field(default_factory=list)
    #: per-layer metrics the workload measures itself
    layers: Dict[str, float] = field(default_factory=dict)
    #: modelled statistics of out-of-process runs,
    #: ``{(request id, engine): engine_stats}``
    model: Dict[Any, Dict[str, float]] = field(default_factory=dict)
    #: compile-cache hits and misses inside worker processes
    worker_compile_hits: int = 0
    worker_compile_misses: int = 0
    #: extra Chrome-trace events (the worker-side split of serve)
    trace_events: List[dict] = field(default_factory=list)
    #: summed worker-side seconds per stage, from the serve responses
    worker_split: Dict[str, float] = field(default_factory=dict)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(message)


# ----------------------------------------------------------------------
class Sweep:
    """The Table 2 ``run_suite(scale="small")`` sweep, one row at a time.

    Serial, verification on, a fresh in-memory compile cache per pass,
    no result cache.  One operation is one kernel row through the
    public runner.  Whole passes are measured until at least ``seconds``
    have elapsed; a pass takes longer than a run's budget, so a run is
    one pass.  The registry fixes the inputs: the seed is not used.
    """

    setup_repeats = 3

    def setup(self) -> None:
        from repro.compiler.cache import CompileCache
        from repro.evalharness import RunOptions, run_suite
        from repro.kernels.registry import all_names
        self.CompileCache, self.RunOptions = CompileCache, RunOptions
        self.run_suite, self.names = run_suite, all_names()

    def teardown(self) -> None:
        pass

    def run(self, seed: int, seconds: float, rec) -> Outcome:
        reference = load_json(SWEEP_REFERENCE)
        golden = load_json(GOLDEN_CYCLES)
        rss = PeakRSS()
        out = Outcome()
        row_s: Dict[str, float] = {}
        runs: Dict[str, Any] = {}
        t0 = time.perf_counter()
        while True:
            opts = self.RunOptions(scale="small", cache=self.CompileCache())
            for name in self.names:
                if rec is not None:
                    rec.set_request(name)
                out.attempted += 1
                start = time.perf_counter()
                suite = self.run_suite([name], options=opts)
                elapsed = time.perf_counter() - start
                out.latencies.append(elapsed)
                row_s[name] = max(row_s.get(name, 0.0), elapsed)
                if suite.degraded:
                    out.fail(f"{name}: degraded row")
                    continue
                runs[name] = suite[name]
                got = run_stats(suite[name])
                if got != reference.get(name):
                    out.fail(f"{name}: modelled statistics drifted from "
                             f"{os.path.basename(SWEEP_REFERENCE)}")
                want = golden.get(name, {})
                if {e: None if s is None else s["cycles"]
                        for e, s in got.items()} != want:
                    out.fail(f"{name}: cycles differ from "
                             f"golden_cycles_small.json")
            if time.perf_counter() - t0 >= seconds:
                break
        out.throughput = len(out.latencies) / (time.perf_counter() - t0)
        out.peak_rss_mb = rss.sample()
        slowest = max(row_s, key=row_s.get)
        out.tail_label = f"max over {len(self.names)} rows ({slowest})"
        out.notes.extend(_speedup_notes(runs))
        return out


def _speedup_notes(runs: Dict[str, Any]) -> List[str]:
    """Modelled geomean speedups beside the paper's means."""
    if not runs:
        return []
    vs_fermi = [r.speedup_vs_fermi for r in runs.values()]
    vs_sgmf = [r.speedup_vs_sgmf for r in runs.values()
               if r.speedup_vs_sgmf is not None]
    lines = [
        "modelled geomean speedup (simulated cycles; unvalidated "
        "against hardware, reduced-scale gap explained in DESIGN.md "
        "section 5.0):",
        f"  VGIW over Fermi: {statistics.geometric_mean(vs_fermi):.3f}x "
        f"over {len(vs_fermi)} kernels  (paper: mean > 3x, "
        f"docs/paper-claims.md claim 17)",
    ]
    if vs_sgmf:
        lines.append(
            f"  VGIW over SGMF:  {statistics.geometric_mean(vs_sgmf):.3f}x"
            f" over {len(vs_sgmf)} mappable kernels  (paper: mean 1.45x,"
            f" docs/paper-claims.md claim 19)")
    return lines


# ----------------------------------------------------------------------
class Fuzz:
    """A seeded differential fuzz campaign, ``jobs=1``, no reduction.

    Closed loop, one client; one operation is one generated case.  Every
    case is a new kernel, so the compile cache always misses.  The
    campaign's own time budget ends the run after ``seconds``.
    """

    setup_repeats = 5

    @staticmethod
    def model_keep(case) -> bool:
        """Only the leading cases count towards the modelled sums."""
        return case is not None and case < FUZZ_MODEL_CASES

    def setup(self) -> None:
        from repro.fuzz import CampaignConfig, run_campaign
        self.CampaignConfig, self.run_campaign = CampaignConfig, run_campaign

    def teardown(self) -> None:
        pass

    def run(self, seed: int, seconds: float, rec) -> Outcome:
        rss = PeakRSS()
        out = Outcome()
        if rec is not None:
            rec.set_request(0)
        divergent = unmappable = 0
        last = [time.perf_counter()]

        def progress(index, report) -> None:
            nonlocal divergent, unmappable
            now = time.perf_counter()
            out.latencies.append(now - last[0])
            last[0] = now
            if rec is not None:
                rec.set_request(index + 1)
            statuses = {o.status for o in report.outcomes}
            divergent += report.divergent
            unmappable += "unmappable" in statuses
            bad = sorted(statuses & FUZZ_FAILURES)
            if bad:
                out.fail(f"case {index} (seed {report.seed}): "
                         f"{', '.join(bad)}")

        config = self.CampaignConfig(seed=seed, count=1_000_000, jobs=1,
                                     reduce=False, time_budget=seconds)
        t0 = last[0] = time.perf_counter()
        self.run_campaign(config, progress=progress)
        out.attempted = len(out.latencies)
        out.throughput = out.attempted / (time.perf_counter() - t0)
        out.peak_rss_mb = rss.sample()
        out.layers["fuzz.divergent"] = divergent
        out.layers["fuzz.unmappable_ratio"] = (unmappable
                                               / max(1, out.attempted))
        return out


# ----------------------------------------------------------------------
class _Service:
    """Shared pieces of the two workloads that drive ``repro.serve``."""

    setup_repeats = 3

    def _import(self) -> None:
        from repro.evalharness import RunOptions
        from repro.kernels.registry import all_names
        from repro.serve import ExecutionService, SubmitRequest
        self.ExecutionService, self.SubmitRequest = (ExecutionService,
                                                     SubmitRequest)
        self.options = RunOptions(scale="tiny")
        self.names = all_names()
        self.reference = load_json(DIGEST_REFERENCE)
        self.rss = PeakRSS()

    def request(self, kernel: str):
        return self.SubmitRequest(kernel, self.options, want_run=True,
                                  client="perfbench")

    def _stop(self, svc) -> None:
        self.rss.sample()
        svc.stop()

    def teardown(self) -> None:
        if getattr(self, "svc", None) is not None:
            self._stop(self.svc)
            self.svc = None
        reap_children()


class Serve(_Service):
    """A seeded open-loop request stream into a 2-worker service.

    ``scale="tiny"``, no result cache.  One generator thread submits at
    a fixed rate of :data:`SERVE_RATE_PER_S`; each round of the stream
    holds every Table 2 kernel once plus the :data:`SERVE_HOT` extras,
    in an order drawn from the seed.  Latency is timed from each
    request's due time.  The service's dispatcher leaves a free worker
    idle while one batch is in flight, so its open-loop capacity is
    about one worker's: 18 requests/s of this mix on the 2-core
    reference host at full speed, and half that while the shared host
    runs slow.  The rate sits near half of the two.
    """

    def setup(self) -> None:
        self._import()
        self.svc = self.ExecutionService(workers=2).start()
        # Warm both workers: two distinct kernels cannot share a batch.
        tickets = [self.svc.submit(self.request(k))
                   for k in ("gaussian/Fan1", "nn/euclid")]
        for ticket in tickets:
            resp = self.svc.wait(ticket, timeout=120)
            if resp is None or resp.status != "ok":
                raise RuntimeError(f"serve warm-up of {ticket.kernel}: "
                                   f"{resp and resp.status}")

    def stream(self, seed: int, seconds: float) -> List[str]:
        rnd = list(self.names) + [k for k, extra in SERVE_HOT.items()
                                  for _ in range(extra)]
        rounds = max(1, round(SERVE_RATE_PER_S * seconds / len(rnd)))
        rng = random.Random(seed)
        out: List[str] = []
        for _ in range(rounds):
            order = list(rnd)
            rng.shuffle(order)
            out.extend(order)
        return out

    def run(self, seed: int, seconds: float, rec) -> Outcome:
        svc = self.svc
        stream = self.stream(seed, seconds)
        out = Outcome(attempted=len(stream))
        sent_q: "queue.Queue" = queue.Queue()
        interval = 1.0 / SERVE_RATE_PER_S
        late: List[float] = []
        t0 = time.monotonic() + 0.05

        def generate() -> None:
            for i, kernel in enumerate(stream):
                due = t0 + i * interval
                delay = due - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
                if rec is not None:
                    rec.set_request(i)
                sent = time.monotonic()
                late.append(sent - due)
                sent_q.put((i, kernel, due, sent,
                            svc.submit(self.request(kernel))))

        gen = threading.Thread(target=generate, name="perfbench-loadgen")
        gen.start()
        end = t0
        split = {"queue_s": [], "compile_s": [], "execute_s": [],
                 "overhead_s": []}
        sizes: List[int] = []
        rejected = 0
        for _ in stream:
            i, kernel, due, sent, ticket = sent_q.get()
            resp = svc.wait(ticket, timeout=120)
            if resp is None:
                out.fail(f"request {i} ({kernel}): no response")
                continue
            latency = sent - due + resp.total_s
            end = max(end, sent + resp.total_s)
            rejected += resp.status == "rejected"
            if resp.status != "ok":
                out.fail(f"request {i} ({kernel}): {resp.status} "
                         f"{resp.error_type}: {resp.error}")
                continue
            if resp.digest != self.reference[kernel]:
                out.fail(f"request {i} ({kernel}): digest differs from "
                         f"serial run_kernel")
                continue
            out.latencies.append(latency)
            for key, value in (("queue_s", resp.queue_s),
                               ("compile_s", resp.compile_s),
                               ("execute_s", resp.execute_s)):
                split[key].append(value)
            split["overhead_s"].append(resp.total_s - resp.queue_s
                                       - resp.compile_s - resp.execute_s)
            sizes.append(resp.batch_size)
            for engine, stats in run_stats(resp.run).items():
                if stats is not None:
                    out.model[(i, engine)] = stats
            out.trace_events.extend(_worker_events(i, kernel, sent, resp))
        gen.join()
        out.throughput = len(out.latencies) / (end - t0)
        out.peak_rss_mb = self.rss.sample()
        for key, values in split.items():
            out.layers[f"serve.{key}_p50"] = (statistics.median(values)
                                              if values else 0.0)
            out.worker_split[f"serve.{key[:-2]}"] = sum(values)
        out.layers["serve.batch_mean_size"] = (statistics.fmean(sizes)
                                               if sizes else 0.0)
        out.layers["serve.rejected"] = rejected
        out.layers["serve.over_limit"] = out.failed + sum(
            lat > SERVE_LATENCY_LIMIT_S for lat in out.latencies)
        out.layers["loadgen.late_s_max"] = max(late) if late else 0.0
        out.worker_compile_hits = svc.cache_stats.get("hits", 0)
        out.worker_compile_misses = svc.cache_stats.get("misses", 0)
        return out


def _worker_events(i, kernel, sent, resp) -> List[dict]:
    """Chrome-trace spans of one request's worker-side split, laid end
    to end from its submission (the response carries durations only).
    Timestamps are µs of the monotonic clock."""
    events = []
    start = sent
    for name, dur in (("serve.queue", resp.queue_s),
                      ("serve.compile", resp.compile_s),
                      ("serve.execute", resp.execute_s)):
        events.append({"name": name, "cat": "serve", "ph": "X",
                       "ts": start * 1e6, "dur": dur * 1e6,
                       "pid": "serve (from responses)", "tid": i % 8,
                       "args": {"request": i, "kernel": kernel,
                                "batch": resp.batch_id}})
        start += dur
    return events


class Replay(_Service):
    """A warm result-cache replay through the service.

    Set-up populates a result-cache directory through a 2-worker
    service (the cache's write path), then starts a fresh 2-worker
    service reading it.  Closed loop, :data:`REPLAY_CLIENTS` clients,
    each drawing Table 2 kernels from its own seeded stream; every
    response must come back ``"cached"``.  The memory tier holds every
    key, so after the first read of each key from disk all hits are
    memory hits.
    """

    def setup(self) -> None:
        self._import()
        self.cache_dir = scratch_dir("replay-cache")
        writer = self.ExecutionService(
            workers=2, result_cache_dir=self.cache_dir).start()
        try:
            tickets = [writer.submit(self.request(k)) for k in self.names]
            for ticket in tickets:
                resp = writer.wait(ticket, timeout=120)
                if resp is None or resp.status != "ok":
                    raise RuntimeError(f"replay populate of {ticket.kernel}:"
                                       f" {resp and resp.status}")
                if resp.digest != self.reference[resp.kernel]:
                    raise RuntimeError(f"replay populate of {ticket.kernel}:"
                                       f" digest differs from serial "
                                       f"run_kernel")
        finally:
            self._stop(writer)
        self.writer_stats = writer.result_cache.stats()
        self.svc = self.ExecutionService(
            workers=2, result_cache_dir=self.cache_dir).start()

    def teardown(self) -> None:
        super().teardown()
        if getattr(self, "cache_dir", None) is not None:
            shutil.rmtree(self.cache_dir, ignore_errors=True)

    def run(self, seed: int, seconds: float, rec) -> Outcome:
        svc = self.svc
        out = Outcome()
        per_client: List[List[float]] = [[] for _ in range(REPLAY_CLIENTS)]
        problems: List[str] = []
        first: Dict[str, Any] = {}

        def client(c: int) -> None:
            rng = random.Random(seed * REPLAY_CLIENTS + c)
            lat = per_client[c]
            names, reference = self.names, self.reference
            n = 0
            while time.perf_counter() < deadline:
                kernel = rng.choice(names)
                if rec is not None:
                    rec.set_request(f"c{c}-{n}")
                n += 1
                start = time.perf_counter()
                resp = svc.wait(svc.submit(self.request(kernel)),
                                timeout=60)
                lat.append(time.perf_counter() - start)
                if resp is None or resp.status != "cached":
                    problems.append(f"{kernel}: {resp and resp.status}")
                elif resp.digest != reference[kernel]:
                    problems.append(f"{kernel}: digest differs from "
                                    f"serial run_kernel")
                elif kernel not in first:
                    first[kernel] = resp.run

        t0 = time.perf_counter()
        deadline = t0 + seconds
        threads = [threading.Thread(target=client, args=(c,),
                                    name=f"perfbench-client-{c}")
                   for c in range(REPLAY_CLIENTS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        wall = time.perf_counter() - t0
        for lat in per_client:
            out.latencies.extend(lat)
        out.attempted = len(out.latencies)
        for message in problems:
            out.fail(message)
        out.throughput = (out.attempted - out.failed) / wall
        out.peak_rss_mb = self.rss.sample()
        # Replay serves stored results: count each kernel's model once.
        for kernel, run in first.items():
            for engine, stats in run_stats(run).items():
                if stats is not None:
                    out.model[(kernel, engine)] = stats
        reads = svc.result_cache.stats()
        lookups = reads["hits"] + reads["misses"]
        out.layers.update({
            "resultcache.hit_ratio": reads["hits"] / max(1, lookups),
            "resultcache.disk_hits": reads["disk_hits"],
            "resultcache.disk_errors": (reads["disk_errors"]
                                        + self.writer_stats["disk_errors"]),
            "resultcache.disk_writes": self.writer_stats["disk_writes"],
        })
        return out


WORKLOADS = {"sweep": Sweep, "fuzz": Fuzz, "serve": Serve,
             "replay": Replay}
