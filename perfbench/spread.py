#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports each metric's spread.

    python3 perfbench/spread.py --workloads md_cold,lite_churn --seeds 1-10
    python3 perfbench/spread.py --seeds 1-10 --out perfbench/baseline.json
    python3 perfbench/spread.py --seeds 1-10 --trace 1 \\
        --out perfbench/baseline_layers.json
    python3 perfbench/spread.py --compare perfbench/baseline.json \\
        perfbench/baseline_repeat.json

Every run is a full-size run of BENCHMARK.json's run_seconds. For every
workload and metric it prints the median, the quartiles (Python's
statistics.quantiles(values, n=4)) and the spread, (q3 - q1) / median, next
to the metric's bound from BENCHMARK.json. The rule is the one the bounds
stand for: a spread above its bound fails (setup_s is exempt: only its
median is compared). With --trace 0 it also summarizes the first set-up of
each run on its own (setup_s_first), which shows what the median of a run's
set-ups buys. --out writes the figures, each run's values and digest
included, as a record. --compare A B runs nothing: it prints how far each
end-to-end median of record B lies from record A in the worse direction
and fails on a move beyond the metric's bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    started = time.monotonic()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          check=False)
    wall = time.monotonic() - started
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit("%s seed %d failed (exit %d)" %
                         (workload, seed, done.returncode))

    def report_line(prefix):
        return next((l[2:] for l in lines if l.startswith(prefix)), "")

    setups = report_line("# setup_s per set-up:").split(":")[-1].split()
    return {"result": json.loads(lines[-1]), "wall": wall,
            "digest": report_line("# digest"), "host": report_line("# host"),
            "first_setup_s": float(setups[0]) if setups else None}


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    # A metric whose median is 0 (a counter that stays 0) has no spread.
    spread = (q3 - q1) / med if med else None
    return {"median": med, "q1": q1, "q3": q3, "spread": spread}


def compare(bench, path_a, path_b):
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    with open(path_a) as f:
        a = json.load(f)["workloads"]
    with open(path_b) as f:
        b = json.load(f)["workloads"]
    flagged = 0
    print("%-12s %-16s %12s %12s %8s %6s" %
          ("workload", "metric", "median A", "median B", "worse", "bound"))
    for workload in a:
        for name, m in metrics.items():
            if workload not in b or name not in a[workload]["metrics"] or \
                    name not in b[workload]["metrics"]:
                continue
            ma = a[workload]["metrics"][name]["median"]
            mb = b[workload]["metrics"][name]["median"]
            worse = (mb - ma) / ma if m["better"] == "lower" else \
                (ma - mb) / ma
            flag = "  <-- worse than bound" if worse > m["bound"] else ""
            flagged += bool(flag)
            print("%-12s %-16s %12.6g %12.6g %8.4f %6.2f%s" %
                  (workload, name, ma, mb, worse, m["bound"], flag))
    return 1 if flagged else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads",
                        help="comma-separated; default: every workload")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write a record here")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two records instead of running")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    if args.compare:
        return compare(bench, *args.compare)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    seeds = parse_seeds(args.seeds)
    workloads = args.workloads.split(",") if args.workloads else \
        [w["name"] for w in bench["workloads"]]

    record = {"run_seconds": seconds, "trace": args.trace, "seeds": seeds,
              "workloads": {}}
    flagged = 0
    for workload in workloads:
        runs = []
        for seed in seeds:
            run = run_once(workload, seed, seconds, args.trace)
            if not run["result"]["correct"]:
                raise SystemExit("%s seed %d: output check failed" %
                                 (workload, seed))
            runs.append(run)
            print("%s seed %d: %.1f s wall; %s | %s" %
                  (workload, seed, run["wall"], run["digest"], run["host"]),
                  flush=True)
        values, units = {}, {}
        for run in runs:
            for name, metric in run["result"]["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
        if args.trace == 0 and all(r["first_setup_s"] for r in runs):
            values["setup_s_first"] = [r["first_setup_s"] for r in runs]
            units["setup_s_first"] = "s"
        entry = {"runs": len(runs), "wall_s_max": max(r["wall"] for r in runs),
                 "digests": [r["digest"] for r in runs],
                 "hosts": [r["host"] for r in runs], "metrics": {}}
        print("%-34s %12s %12s %12s %8s %6s" %
              (workload, "median", "q1", "q3", "spread", "bound"))
        for name, vals in values.items():
            s = summarize(vals)
            s["unit"] = units[name]
            s["values"] = vals
            entry["metrics"][name] = s
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and \
                    s["spread"] is not None and s["spread"] > bound:
                flag = "  <-- above bound"
                flagged += 1
            print("  %-32s %12.6g %12.6g %12.6g %8s %6s%s" %
                  (name, s["median"], s["q1"], s["q3"],
                   "-" if s["spread"] is None else "%.4f" % s["spread"],
                   "" if bound is None else "%.2f" % bound, flag))
        record["workloads"][workload] = entry
    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1, sort_keys=True)
            f.write("\n")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
