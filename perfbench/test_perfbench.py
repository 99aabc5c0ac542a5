#!/usr/bin/env python3
"""Fast self-test of the benchmark in small mode (about a minute).

    python3 perfbench/test_perfbench.py

Checks, for every workload: the untraced and traced runs pass their output
checks and report exactly the metrics BENCHMARK.json lists, with its
units; one seed gives one digest and another seed a different one. Then a
directory holding only BENCHMARK.json and perfbench/ must make run.py exit
non-zero without printing a result. Exit 0 when everything holds.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, trace, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace), "--small"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          check=False, timeout=600)


def digest(stdout):
    for line in stdout.splitlines():
        if line.startswith("# digest"):
            return line.split(": ")[1].split()[0]
    return None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    failures = []

    def check(cond, what):
        print(("ok   " if cond else "FAIL ") + what, flush=True)
        if not cond:
            failures.append(what)

    for workload in [w["name"] for w in bench["workloads"]]:
        digests = {}
        for trace, seed, key in ((0, 1, "end_to_end"), (1, 1, "per_layer"),
                                 (0, 2, "end_to_end")):
            done = run(workload, seed, trace)
            name = "%s trace=%d seed=%d" % (workload, trace, seed)
            check(done.returncode == 0, name + " exits 0")
            if done.returncode != 0:
                sys.stderr.write(done.stdout[-2000:] + done.stderr[-2000:])
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            check(sorted(result) == ["attempted", "correct", "failed",
                                     "metrics"], name + " result keys")
            check(result["correct"] and result["failed"] == 0 and
                  result["attempted"] >= 1, name + " output checks pass")
            want = {m["name"]: m["unit"] for m in bench[key]}
            got = {n: m["unit"] for n, m in result["metrics"].items()}
            check(got == want, name + " reports the " + key + " metrics")
            if key == "end_to_end":
                check(all(m["value"] > 0 for m in result["metrics"].values()),
                      name + " end-to-end metrics are nonzero")
            digests.setdefault(seed, set()).add(digest(done.stdout))
        check(len(digests.get(1, ())) == 1, workload + " digest repeats")
        check(digests.get(1) != digests.get(2),
              workload + " digest changes with the seed")

    bare = os.path.join(ROOT, ".bench_run", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    done = run("md_cold", 1, 0, cwd=bare)
    check(done.returncode != 0 and '"correct"' not in done.stdout,
          "bare directory exits non-zero without a result")
    shutil.rmtree(bare, ignore_errors=True)

    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
