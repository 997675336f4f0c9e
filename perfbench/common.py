"""Shared helpers of the benchmark: paths, percentiles, memory, set-up.

Nothing here imports ``repro``: the set-up probes time a fresh
interpreter importing the simulator, so the harness itself must not
have paid for that import already.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import shutil
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE_DIR = os.path.join(HERE, "reference")
#: Everything a run leaves behind (traces, result-cache directories)
#: lives here, inside the checkout, and is ignored by git.
OUT_DIR = os.path.join(ROOT, ".perfbench")

#: Percentiles the tail may be reported at, highest first.  The tail is
#: the highest one with at least ten samples beyond it.
TAIL_LADDER = (99.0, 90.0, 80.0, 50.0)
TAIL_MIN_BEYOND = 10


def require_source() -> None:
    """Put ``src`` on the import path, or exit non-zero without a result
    when the checkout holds no simulator to measure."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.stderr.write(f"perfbench: no simulator source at {SRC}\n")
        sys.exit(2)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def scratch_dir(name: str) -> str:
    """A fresh, empty directory under :data:`OUT_DIR`."""
    path = os.path.join(OUT_DIR, "tmp", f"{name}-{os.getpid()}")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def percentile(ordered: Sequence[float], p: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def tail(samples: Sequence[float]) -> Tuple[str, float]:
    """``(label, value)`` of the latency tail.

    The tail is the highest :data:`TAIL_LADDER` percentile with at least
    ten samples beyond it.  When only the median qualifies, the median
    says nothing about the tail, so the maximum is reported instead.
    """
    ordered = sorted(samples)
    n = len(ordered)
    for p in TAIL_LADDER[:-1]:
        if n - math.ceil(p / 100.0 * n) >= TAIL_MIN_BEYOND:
            return f"p{p:g}", percentile(ordered, p)
    return "max", ordered[-1]


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        v = float(values[0])
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _hwm_kb(pid: int) -> int:
    """Peak resident set (``VmHWM``) of one process, in KiB; 0 when the
    process is gone."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class PeakRSS:
    """Peak resident memory of this process plus its live worker
    processes, sampled at the points a workload chooses (worker pools
    are sampled just before they are stopped)."""

    def __init__(self) -> None:
        self.peak_mb = 0.0

    def sample(self) -> float:
        kb = _hwm_kb(os.getpid())
        kb += sum(_hwm_kb(p.pid) for p in multiprocessing.active_children())
        self.peak_mb = max(self.peak_mb, kb / 1024.0)
        return self.peak_mb


def reap_children(timeout: float = 30.0) -> None:
    """Wait for every worker process this run started; kill stragglers."""
    deadline = time.monotonic() + timeout
    for proc in multiprocessing.active_children():
        proc.join(max(0.0, deadline - time.monotonic()))
        if proc.is_alive():
            proc.kill()
            proc.join(5.0)


def measure_setup(workload: str, repeats: int) -> List[float]:
    """Host seconds from launching a fresh interpreter to the point where
    ``workload`` could start its first operation, ``repeats`` times.

    Each probe runs ``setup_probe.py``, which performs the workload's
    set-up, prints ``ready``, tears the set-up down and exits.
    """
    probe = os.path.join(HERE, "setup_probe.py")
    times: List[float] = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, probe, workload], cwd=ROOT,
            stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline().strip()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            rc = proc.wait(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line != "ready" or rc != 0:
            raise RuntimeError(
                f"set-up probe for {workload} failed (exit {rc}, "
                f"said {line!r})")
        times.append(elapsed)
    return times


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": float(value), "unit": unit}
