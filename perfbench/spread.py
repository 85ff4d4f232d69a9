"""Run-to-run spread of the end-to-end metrics, and the baseline record.

    python3 perfbench/spread.py [--record FILE]

runs ``run.py`` once for each of ten seeds on every workload, each in a
fresh process,
and prints per metric the median and the distance between
the first and third quartile as a share of the median, next to the bound
in BENCHMARK.json.  With ``--record`` it also makes one traced run per
workload and writes medians, quartiles, per-layer metrics, host and left-out
inputs to FILE.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import workloads as wl
from inputs import ROOT

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
SEEDS = list(range(100, 110))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError("%s exited %d:\n%s" % (" ".join(cmd), proc.returncode, proc.stderr))
    lines = proc.stdout.splitlines()
    return json.loads(lines[-1]), lines[:-1], elapsed


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", default=None, metavar="FILE")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {"host": {"nproc": os.cpu_count(), "python": platform.python_version(),
                       "machine": platform.machine()},
              "run_seconds": spec["run_seconds"], "seeds": SEEDS, "workloads": {},
              "left_out": wl.EXCLUDED}
    ok = True
    for workload in wl.WORKLOADS:
        values, elapsed = {}, []
        for seed in SEEDS:
            result, _, secs = run_once(workload, seed, spec["run_seconds"], 0)
            elapsed.append(secs)
            ok = ok and result["correct"] and result["failed"] == 0
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print("%s seed %d: %.1f s, %s" % (workload, seed, secs, " ".join(
                "%s=%.5g" % (n, m["value"]) for n, m in result["metrics"].items())), flush=True)
        summary = {}
        for name, vals in values.items():
            med, q1, q3, share = spread(vals)
            flag = "" if name == "setup_s" or share < bounds[name] / 3 else "  <-- above bound/3"
            print("  %-14s median %.6g  q1 %.6g  q3 %.6g  spread %.4f  bound %.2f%s"
                  % (name, med, q1, q3, share, bounds[name], flag), flush=True)
            summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": share,
                             "values": vals}
        print("  run time: median %.1f s, max %.1f s" % (statistics.median(elapsed), max(elapsed)))
        record["workloads"][workload] = {"end_to_end": summary}
        if args.record:
            result, lines, _ = run_once(workload, SEEDS[0], spec["run_seconds"], 1)
            record["workloads"][workload]["traced"] = {
                "seed": SEEDS[0],
                "per_layer": {n: m["value"] for n, m in result["metrics"].items()},
                "report": lines,
            }
    if args.record:
        with open(args.record, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
