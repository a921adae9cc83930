#!/usr/bin/env python3
"""Noise checks for the benchmark, driven by `run.sh --selfcheck|--spread`.

selfcheck  Runs all workloads as two interleaved sets (A B A B A B) of the
           same binary at one seed.  Per metric: both set medians, their
           relative gap in the worsening direction, and the bound.  Exits
           non-zero if a gap exceeds its bound or an exact metric differs
           between any two runs.
spread     Runs every workload on ten seeds.  Per metric: the distance
           between the first and third quartile as a share of the median,
           against the bound (target: below a third of it; `setup_s` is
           exempt from the hard limit, as in the driver's acceptance rule).

Usage: noise.py <mode> <benchmark binary> <node binary> [--seed S] [--seconds N]
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
CONTRACT = json.load(open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")))
# Metrics that must repeat bit-for-bit at a fixed seed.  `fleet` allocates
# from several threads, so its allocator counters are only steady.
EXACT = {"sim_rounds", "ratio_max", "msgs_per_token", "stretch_max", "allocs_per_pass",
         "peak_alloc_bytes"}
NOT_EXACT = {("fleet", "allocs_per_pass"), ("fleet", "peak_alloc_bytes")}


def run(bench_bin, node_bin, workload, seed, seconds):
    out = subprocess.run(
        [bench_bin, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0", "--node-bin", node_bin],
        check=True, capture_output=True, text=True,
    ).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect run\n{out}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def worsening(metric, first, second):
    """Relative change from `first` to `second`, positive when worse."""
    change = (second - first) / first
    return change if metric["better"] == "lower" else -change


def selfcheck(bench_bin, node_bin, seed, seconds):
    sets = {"A": [], "B": []}
    for label in "ABABAB":
        sets[label].append({
            w["name"]: run(bench_bin, node_bin, w["name"], seed, seconds)
            for w in CONTRACT["workloads"]
        })
        print(f"# set {label} done", flush=True)
    breaches = 0
    print(f"{'workload':<14} {'metric':<17} {'median A':>16} {'median B':>16} {'gap':>8} {'bound':>6}")
    for w in CONTRACT["workloads"]:
        for metric in CONTRACT["end_to_end"]:
            name = metric["name"]
            values = {k: [r[w["name"]][name] for r in runs] for k, runs in sets.items()}
            a, b = (statistics.median(values[k]) for k in "AB")
            gap = max(worsening(metric, a, b), worsening(metric, b, a))
            verdict = ""
            if gap > metric["bound"]:
                verdict = "  BREACH"
                breaches += 1
            exact = name in EXACT and (w["name"], name) not in NOT_EXACT
            if exact and len(set(values["A"] + values["B"])) != 1:
                verdict += "  NOT EXACT"
                breaches += 1
            print(f"{w['name']:<14} {name:<17} {a:>16.9g} {b:>16.9g} {gap:>8.2%} "
                  f"{metric['bound']:>6.0%}{verdict}")
    return breaches


def spread(bench_bin, node_bin, seed, seconds):
    breaches = 0
    print(f"{'workload':<14} {'metric':<17} {'median':>16} {'iqr/median':>11} {'bound':>6}")
    for w in CONTRACT["workloads"]:
        runs = [run(bench_bin, node_bin, w["name"], seed + i, seconds) for i in range(10)]
        for metric in CONTRACT["end_to_end"]:
            values = [r[metric["name"]] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            share = (q3 - q1) / statistics.median(values)
            verdict = ""
            if share > metric["bound"] and metric["name"] != "setup_s":
                verdict = "  BREACH"
                breaches += 1
            elif share > metric["bound"] / 3:
                verdict = "  above a third of the bound"
            print(f"{w['name']:<14} {metric['name']:<17} {statistics.median(values):>16.9g} "
                  f"{share:>11.2%} {metric['bound']:>6.0%}{verdict}", flush=True)
    return breaches


def main():
    mode, bench_bin, node_bin, *rest = sys.argv[1:]
    options = dict(zip(rest[::2], rest[1::2]))
    seed = int(options.get("--seed", "0x5EED0001"), 0)
    seconds = options.get("--seconds", CONTRACT["run_seconds"])
    breaches = {"selfcheck": selfcheck, "spread": spread}[mode](bench_bin, node_bin, seed, seconds)
    print(f"# {mode}: {breaches} breach(es)")
    sys.exit(1 if breaches else 0)


if __name__ == "__main__":
    main()
