#!/usr/bin/env python3
"""Noise-aware paired comparison of two checkouts on the repo benchmark.

Record runs (each pair runs both sides on the same seed; the side that
goes first alternates from pair to pair):

    python3 perfbench/compare.py run --parent ../parent --change . \
        --out pairs.jsonl --pairs 10

Leave out --change to record one side only, e.g. to check how steady the
benchmark is on one commit. Then report:

    python3 perfbench/compare.py report pairs.jsonl

For every workload and end-to-end metric the report prints each side's
median and quartiles, the parent's spread (quartile distance over median)
next to the metric's bound from BENCHMARK.json, the share of pairs each
side won (ties count for neither), and a verdict:

  improved    the change won at least 9 pairs in 10 and the medians differ
              by more than the parent's quartile distance
  regressed   the change's median is worse than the parent's by more than
              the bound
  no worse    neither of the above
  unresolved  the parent's spread is wider than the bound, unless every
              change run beat every parent run (then "improved")

With one side only, the report prints its figures and marks each spread
that is not below a third of the bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def run_once(root, workload, seed, seconds):
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=root, stdout=subprocess.PIPE,
                          text=True, timeout=1200)
    if done.returncode != 0:
        raise SystemExit(f"{root}: {' '.join(command)} exited with "
                         f"{done.returncode}")
    return json.loads(done.stdout.strip().split("\n")[-1])


def record(args):
    spec = json.loads(SPEC.read_text())
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    sides = [("parent", args.parent)]
    if args.change:
        sides.append(("change", args.change))
    with open(args.out, "a") as out:
        for workload in workloads:
            for pair in range(args.pairs):
                seed = args.first_seed + pair
                order = sides if pair % 2 == 0 else sides[::-1]
                for position, (side, root) in enumerate(order):
                    result = run_once(root, workload, seed, seconds)
                    out.write(json.dumps({
                        "side": side, "workload": workload, "seed": seed,
                        "pair": pair, "position": position,
                        "result": result}) + "\n")
                    out.flush()
                    print(f"{workload} seed={seed} {side}: "
                          f"correct={result['correct']} "
                          f"failed={result['failed']}/{result['attempted']}",
                          file=sys.stderr)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def verdict(parent, change, bound, higher_is_better):
    """Returns (change pair wins, parent pair wins, verdict)."""
    sign = 1.0 if higher_is_better else -1.0
    wins_change = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    wins_parent = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    pm, cm = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(parent)
    spread = (q3 - q1) / abs(pm)
    every_run_better = (min(change) > max(parent) if higher_is_better
                        else max(change) < min(parent))
    if spread > bound and not every_run_better:
        result = "unresolved"
    elif every_run_better or (wins_change >= 0.9 * len(parent)
                              and sign * (cm - pm) > q3 - q1):
        result = "improved"
    elif sign * (pm - cm) / abs(pm) > bound:
        result = "regressed"
    else:
        result = "no worse"
    return wins_change, wins_parent, result


def report(args):
    spec = json.loads(SPEC.read_text())
    runs = {}
    failed = []
    for line in open(args.file):
        r = json.loads(line)
        runs.setdefault((r["side"], r["workload"]), {})[r["pair"]] = r["result"]
        if not r["result"]["correct"] or r["result"]["failed"]:
            failed.append(f"{r['side']} {r['workload']} seed={r['seed']}")
    workloads = [w["name"] for w in spec["workloads"]]
    unsteady = 0
    for workload in workloads:
        parent = runs.get(("parent", workload), {})
        change = runs.get(("change", workload), {})
        if not parent:
            continue
        pairs = sorted(set(parent) & set(change)) if change else sorted(parent)
        print(f"\n== {workload}: {len(pairs)} "
              f"{'pairs' if change else 'runs'}")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            higher = metric["better"] == "higher"
            p = [parent[i]["metrics"][name]["value"] for i in pairs]
            pm = statistics.median(p)
            q1, q3 = quartiles(p)
            spread = (q3 - q1) / abs(pm)
            line = (f"  {name:<22} parent {pm:12.6g} [{q1:.6g}, {q3:.6g}]"
                    f" spread {100 * spread:5.2f}% (bound {100 * bound:g}%)")
            if change:
                c = [change[i]["metrics"][name]["value"] for i in pairs]
                cq1, cq3 = quartiles(c)
                wins_c, wins_p, result = verdict(p, c, bound, higher)
                line += (f" | change {statistics.median(c):12.6g} "
                         f"[{cq1:.6g}, {cq3:.6g}] wins change "
                         f"{wins_c}/{len(pairs)} parent {wins_p}/{len(pairs)}"
                         f" -> {result}")
            elif name != "setup_s" and spread >= bound / 3:
                line += "  <- not below a third of the bound"
                unsteady += 1
            print(line)
    if failed:
        print("\nruns with failed operations: " + ", ".join(failed))
    return 1 if failed or unsteady else 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter, epilog=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="record runs")
    run.add_argument("--parent", required=True, help="parent checkout root")
    run.add_argument("--change", help="change checkout root")
    run.add_argument("--out", required=True, help="JSON-lines file to append")
    run.add_argument("--workloads", help="comma list (default: all)")
    run.add_argument("--pairs", type=int, default=10)
    run.add_argument("--first-seed", type=int, default=1)
    run.add_argument("--seconds", type=int,
                     help="run length (default: BENCHMARK.json run_seconds)")
    rep = sub.add_parser("report", help="summarize recorded runs")
    rep.add_argument("file")
    args = parser.parse_args()
    if args.command == "run":
        record(args)
        return 0
    return report(args)


if __name__ == "__main__":
    sys.exit(main())
