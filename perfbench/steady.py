#!/usr/bin/env python3
"""Steadiness check: two sets of runs of one commit, side by side.

    python3 perfbench/steady.py

For every workload in BENCHMARK.json it makes two sets of 10 runs of
`run_seconds` each, set A on seeds 1..10 and set B on seeds 101..110,
alternating which set runs first. For every end-to-end metric it prints
each set's median, quartiles (Python's statistics.quantiles, n=4) and
spread (quartile distance over median) next to the metric's bound, and
how far set B's median lies from set A's, in either direction. The same
spreads and shift of the unscaled figures follow on a `raw` line; they
are not gated. It also checks that every run is correct and that the
share of failed operations is the same in every run. Exits 1 when a
spread (other than `setup_s`'s) or a shift exceeds its bound.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402

RUNS = 10
SETS = 2


def one_run(exe, workload, seed, seconds):
    """Returns the run's result and its unscaled metrics."""
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0",
           "--work", os.path.join(HERE, ".work")]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["raw"]


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med


def main():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    exe = run.build()
    ok = True
    for w in [w["name"] for w in bench["workloads"]]:
        sets = [[] for _ in range(SETS)]
        for i in range(RUNS):
            order = range(SETS) if i % 2 == 0 else reversed(range(SETS))
            for s in order:
                res, raw = one_run(exe, w, 1 + 100 * s + i, seconds)
                sets[s].append((res, raw))
                print(f"{w} set {'AB'[s]} run {i + 1}: correct={res['correct']} "
                      f"attempted={res['attempted']} failed={res['failed']}",
                      file=sys.stderr)
        results = [r for runs in sets for r, _ in runs]
        print(f"\n== {w}: {RUNS} runs per set, {seconds} s each")
        shares = {r["failed"] / r["attempted"] for r in results}
        correct = all(r["correct"] for r in results)
        print(f"correct in every run: {correct}; failed shares seen: "
              f"{sorted(shares)}")
        ok &= correct and len(shares) == 1
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            for kind, pick in (("", lambda r: r[0]["metrics"][name]["value"]),
                               ("raw", lambda r: r[1][name]["value"])):
                row = f"{name:<18} {kind:<3} bound {bound:<5}"
                meds = []
                for s, runs in enumerate(sets):
                    med, q1, q3, spread = summary([pick(r) for r in runs])
                    meds.append(med)
                    wide = name != "setup_s" and spread >= bound / 3
                    row += (f" | {'AB'[s]} med {med:11.4f} q1 {q1:11.4f} "
                            f"q3 {q3:11.4f} spread {spread:6.3f}"
                            f"{' WIDE' if wide and not kind else ''}")
                    if not kind:
                        ok &= name == "setup_s" or spread < bound
                shift = abs(meds[1] - meds[0]) / meds[0]
                moved = shift > bound
                row += f" | shift {shift:.3f}{' MOVED' if moved and not kind else ''}"
                if not kind:
                    ok &= not moved
                print(row)
    print("\nsteady" if ok else "\nNOT steady")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
