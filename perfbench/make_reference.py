"""Regenerate the benchmark's reference files.

* ``reference/sweep_small.json`` — the modelled statistics of every
  (kernel, machine) pair of the Table 2 ``small`` sweep: cycles,
  simulated events and L1/L2/DRAM counters.  Refused unless its cycles
  equal ``benchmarks/golden_cycles_small.json``.
* ``reference/digests_tiny.json`` — the result digest of a serial
  ``run_kernel`` of every Table 2 kernel at ``scale="tiny"``, which the
  serve and replay workloads compare every response against.

Regenerate only when the timing model itself changes::

    python3 perfbench/make_reference.py
"""

import json
import os
import sys

from common import require_source
from workloads import (DIGEST_REFERENCE, GOLDEN_CYCLES, SWEEP_REFERENCE,
                       load_json, run_stats)


def _write(path, doc) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main() -> int:
    require_source()
    from repro.evalharness import RunOptions, run_kernel, run_suite
    from repro.kernels.registry import all_names
    from repro.serve import result_digest

    suite = run_suite(options=RunOptions(scale="small"))
    if suite.degraded:
        print(f"degraded rows: {suite.degraded}", file=sys.stderr)
        return 1
    sweep = {name: run_stats(run) for name, run in suite.items()}
    cycles = {name: {e: None if s is None else s["cycles"]
                     for e, s in engines.items()}
              for name, engines in sweep.items()}
    if cycles != load_json(GOLDEN_CYCLES):
        print("cycles differ from benchmarks/golden_cycles_small.json",
              file=sys.stderr)
        return 1
    _write(SWEEP_REFERENCE, sweep)

    digests = {name: result_digest(run_kernel(
        name, options=RunOptions(scale="tiny"))) for name in all_names()}
    _write(DIGEST_REFERENCE, digests)
    return 0


if __name__ == "__main__":
    sys.exit(main())
