"""Steadiness report: run one workload N times and judge each metric.

Runs ``run.py`` once per seed and prints, for every end-to-end metric in
``BENCHMARK.json``, the median, the quartiles (as
``statistics.quantiles(n=4)`` gives them) and the spread -- the
interquartile distance as a share of the median -- against the metric's
bound.  A spread above the bound is flagged ``UNRESOLVED``: a change of
that size could not be told from noise.  ``--against`` compares the
medians with a saved earlier report and flags any metric whose median
got worse by more than its bound.  Usage::

    python3 perfbench/steady.py --workload serve --runs 5 --save a.json
    python3 perfbench/steady.py --workload serve --runs 5 --against a.json
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

from common import ROOT, quartiles


def _run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                         f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"seed {seed}: wrong output\n{proc.stdout[-2000:]}")
    return result


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--save", help="write the measured values here")
    parser.add_argument("--against", help="an earlier --save file")
    args = parser.parse_args(argv)

    values = {m["name"]: [] for m in bench["end_to_end"]}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        t0 = time.perf_counter()
        result = _run(args.workload, seed, args.seconds)
        for name, vals in values.items():
            vals.append(result["metrics"][name]["value"])
        print(f"seed {seed}: {time.perf_counter() - t0:.1f} s wall, "
              f"{result['attempted']} operations, "
              f"{result['failed']} failed", flush=True)
    earlier = {}
    if args.against:
        with open(args.against) as fh:
            earlier = json.load(fh)["values"]

    print(f"\n{args.workload}: {args.runs} runs of {args.seconds} s")
    print(f"  {'metric':<18}{'median':>12}{'q1':>12}{'q3':>12}"
          f"{'spread':>9}{'bound':>7}  verdict")
    unresolved = 0
    for m in bench["end_to_end"]:
        name, bound = m["name"], m["bound"]
        q1, med, q3 = quartiles(values[name])
        spread = (q3 - q1) / med if med else float("inf")
        if spread > bound:
            verdict = "UNRESOLVED"
            unresolved += name != "setup_s"
        elif spread > bound / 3:
            verdict = "within bound"
        else:
            verdict = "steady"
        if name in earlier:
            _, old, _ = quartiles(earlier[name])
            change = (med - old) / old if old else 0.0
            worse = change if m["better"] == "lower" else -change
            verdict += (f"; median {change:+.1%} vs earlier"
                        + (" REGRESSED" if worse > bound else ""))
        print(f"  {name:<18}{med:>12.6g}{q1:>12.6g}{q3:>12.6g}"
              f"{spread:>9.1%}{bound:>7.2f}  {verdict}")
    if args.save:
        with open(args.save, "w") as fh:
            json.dump({"workload": args.workload, "values": values}, fh,
                      indent=1)
    return 1 if unresolved else 0


if __name__ == "__main__":
    sys.exit(main())
