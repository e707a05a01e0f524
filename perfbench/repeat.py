#!/usr/bin/env python3
"""Repeatability report: run each workload with several seeds and
summarise every end-to-end metric's median, quartiles and spread.

    python3 perfbench/repeat.py [--runs 10] [--traced 2]
                                [--workloads rollout_zoo,tier_dup]
                                [--out perfbench/REPEATABILITY.md]

Run from the repository root. Seeds are 1..runs. The spread is the
interquartile distance as a share of the median, from
statistics.quantiles(values, n=4); the bound is BENCHMARK.json's. Traced
runs (seeds 1..traced) report the tracing overhead. For tier_dup the
report also gives each ladder rate's p99 over the runs and the goodput
the same runs would give at other latency limits: the record the limit
was calibrated from. Raw results go to .bench_run/repeat.json; --out
writes the Markdown report.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# tier_dup's per-rate summary line (tier_dup.cc, climbLadder).
RATE_LINE = re.compile(
    r"^phase rate_([\d.]+)\s+sent\s+\d+ succeeded\s+\d+ failed\s+(\d+) "
    r"median of (\d+) windows: .* p99 ([\d.]+) ms, backlog grew in (\d+)")
LIMITS_MS = (25, 50, 75, 100, 150)


def run_once(workload, seed, seconds, trace):
    t0 = time.time()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True)
    wall = time.time() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} trace {trace} failed "
                 f"(exit {proc.returncode}):\n{proc.stderr[-2000:]}")
    res = json.loads(lines[-1])
    res["wall_s"] = wall
    res["rates"] = [dict(rps=float(m[1]), failed=int(m[2]), windows=int(m[3]),
                         p99=float(m[4]), grew=int(m[5]))
                    for m in map(RATE_LINE.match, lines) if m]
    return res


def goodput(rates, limit):
    """tier_dup's goodput_rps rule (tier_dup.cc, goodput) at `limit`."""
    def meets(r):
        return (not r["failed"] and 2 * r["grew"] <= r["windows"]
                and r["p99"] <= limit)
    if not meets(rates[0]):
        return rates[0]["rps"] * min(1.0, limit / rates[0]["p99"])
    for a, b in zip(rates, rates[1:]):
        if meets(b):
            continue
        if b["failed"] or b["p99"] <= a["p99"]:
            return a["rps"]
        f = (limit - a["p99"]) / (b["p99"] - a["p99"])
        return a["rps"] + (b["rps"] - a["rps"]) * min(1.0, max(0.0, f))
    return rates[-1]["rps"]


def calibration(runs):
    """Markdown tables: p99 per ladder rate, goodput per candidate limit."""
    out = ["| rate (req/s) | runs | p99 median (ms) | p99 min-max (ms) |",
           "|---|---|---|---|"]
    for rps in sorted({r["rps"] for run in runs for r in run["rates"]}):
        v = [r["p99"] for run in runs for r in run["rates"] if r["rps"] == rps]
        out.append(f"| {rps:g} | {len(v)} | {statistics.median(v):.1f} | "
                   f"{min(v):.1f}-{max(v):.1f} |")
    out += ["", "| limit (ms) | goodput median (req/s) | q1 | q3 | spread |",
            "|---|---|---|---|---|"]
    for limit in LIMITS_MS:
        s = summarise([goodput(run["rates"], limit) for run in runs])
        out.append(f"| {limit} | {s['median']:.0f} | {s['q1']:.0f} | "
                   f"{s['q3']:.0f} | {s['spread']:.3f} |")
    return out


def summarise(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf")}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--traced", type=int, default=2)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--out", default="")
    a = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = (a.workloads.split(",") if a.workloads
                 else [w["name"] for w in bench["workloads"]])
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    raw = {}
    lines = [f"Seeds 1..{a.runs}, {bench['run_seconds']} s per run; "
             f"spread = (q3 - q1) / median.", ""]
    for w in workloads:
        runs = [run_once(w, s, bench["run_seconds"], 0)
                for s in range(1, a.runs + 1)]
        traced = [run_once(w, s, bench["run_seconds"], 1)
                  for s in range(1, a.traced + 1)]
        raw[w] = {"untraced": runs, "traced": traced}
        start = len(lines)
        lines += [f"## {w}", "",
                  "| metric | median | q1 | q3 | spread | bound |",
                  "|---|---|---|---|---|---|"]
        for name in bounds:
            s = summarise([r["metrics"][name]["value"] for r in runs])
            flag = "" if s["spread"] <= bounds[name] / 3 else " (over 1/3)"
            lines.append(f"| {name} | {s['median']:.4g} | {s['q1']:.4g} | "
                         f"{s['q3']:.4g} | {s['spread']:.3f}{flag} | "
                         f"{bounds[name]} |")
        walls = [r["wall_s"] for r in runs]
        failed = sum(r["failed"] for r in runs)
        lines += ["", f"Runs: {len(runs)}, all correct: "
                  f"{all(r['correct'] for r in runs)}, failed ops: {failed}, "
                  f"wall per run {min(walls):.1f}-{max(walls):.1f} s."]
        if traced:
            ov = [r["metrics"]["trace.overhead_frac"]["value"] for r in traced]
            lines.append(f"Tracing overhead (trace.overhead_frac, "
                         f"{len(ov)} traced runs): "
                         + ", ".join(f"{v:+.3f}" for v in ov) + ".")
        lines.append("")
        if all(r["rates"] for r in runs):
            lines += calibration(runs) + [""]
        print("\n".join(lines[start:]), flush=True)
    os.makedirs(os.path.join(ROOT, ".bench_run"), exist_ok=True)
    with open(os.path.join(ROOT, ".bench_run", "repeat.json"), "w") as f:
        json.dump(raw, f)
    if a.out:
        with open(a.out, "w") as f:
            f.write("\n".join(lines))


if __name__ == "__main__":
    main()
