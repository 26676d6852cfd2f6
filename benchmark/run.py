#!/usr/bin/env python3
"""Builds the benchmark and the daemons from source, then runs a workload.

Run from the root of a checkout:

    python3 benchmark/run.py --workload W --seed N --seconds S --trace 0|1
    python3 benchmark/run.py steady --workload W [--runs 10] [--seconds S]
    python3 benchmark/run.py compare --parent DIR --workload W [--pairs 10] [--seconds S]

The first form runs one workload (anonymize-mix, service-mix, or
all) and ends its standard output with the result object. `steady` repeats
a workload over seeds 1, 2, ... and prints, per end-to-end metric, the
median, the quartiles and the spread against the bound in BENCHMARK.json.
`compare` alternates runs of a parent checkout and this one on the same
seeds and prints each side's median and quartiles and the change's win
share. Builds go to $CARGO_TARGET_DIR, by default .bench_build in the
checkout.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIRST_SEED = 1


def target_dir(root):
    return Path(os.environ.get("CARGO_TARGET_DIR") or root / ".bench_build").resolve()


def build(root, target):
    """Builds the benchmark package and the chameleond/chameleon_gate bins."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    steps = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(root / "benchmark" / "Cargo.toml")],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(root / "Cargo.toml"),
         "-p", "chameleon-server", "--bin", "chameleond", "--bin", "chameleon_gate"],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            sys.exit(f"build failed: {' '.join(cmd)}")


def bench_cmd(target, workload, seed, seconds, trace, size):
    release = target / "release"
    return [str(release / "chameleon-benchmark"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
            "--bin-dir", str(release), "--size", size]


def run_once(root, target, workload, seed, seconds, trace, size="full", echo=False):
    """Runs one workload; returns (exit code, result object or None)."""
    done = subprocess.run(bench_cmd(target, workload, seed, seconds, trace, size),
                          cwd=root, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if echo:
        sys.stdout.write(done.stdout)
    elif done.returncode != 0:
        sys.stderr.write(done.stdout)
    try:
        return done.returncode, json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return done.returncode, None


def bounds(root):
    """End-to-end metric name -> (better, bound)."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return spec, {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else float("inf")


def win_share(parent, change, better):
    """Share of pairs the change wins; ties count for neither side."""
    wins = sum(1 for p, c in zip(parent, change)
               if (c < p if better == "lower" else c > p))
    return wins / len(parent)


def steady(args):
    spec, table = bounds(ROOT)
    seconds = args.seconds or spec["run_seconds"]
    target = target_dir(ROOT)
    build(ROOT, target)
    values, failed = {}, 0
    for i in range(args.runs):
        seed = FIRST_SEED + i
        code, result = run_once(ROOT, target, args.workload, seed, seconds, 0)
        if code != 0 or result is None or not result["correct"]:
            failed += 1
            print(f"seed {seed}: run failed (exit {code})")
            continue
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{n}={m['value']:.6g}" for n, m in result["metrics"].items() if n in table))
    print(f"\n{args.workload}: {args.runs - failed} of {args.runs} runs correct")
    for name, vals in values.items():
        q1, med, q3 = quartiles(vals)
        bound = table[name][1]
        print(f"{name:14s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
              f"spread {spread(vals):.4f}  bound {bound}  "
              f"{'ok' if spread(vals) <= bound / 3 else 'WIDE'}")
    return 1 if failed else 0


def compare(args):
    spec, table = bounds(ROOT)
    seconds = args.seconds or spec["run_seconds"]
    parent = Path(args.parent).resolve()
    sides = {"parent": parent, "change": ROOT}
    targets = {side: target_dir(root) if root == ROOT else root / ".bench_build"
               for side, root in sides.items()}
    for side, root in sides.items():
        build(root, targets[side])
    values = {"parent": {}, "change": {}}
    for i in range(args.pairs):
        seed = FIRST_SEED + i
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        results = {}
        for side in order:
            code, result = run_once(sides[side], targets[side], args.workload, seed,
                                    seconds, 0)
            if code != 0 or result is None or not result["correct"]:
                sys.exit(f"pair {i}: {side} run failed (exit {code})")
            results[side] = result
        for side, result in results.items():
            for name, m in result["metrics"].items():
                values[side].setdefault(name, []).append(m["value"])
        print(f"pair {i} (seed {seed}, {order[0]} first) done")
    print(f"\n{args.workload}: {args.pairs} pairs")
    for name, (better, bound) in table.items():
        p, c = values["parent"].get(name), values["change"].get(name)
        if not p or not c:
            continue
        pq, cq = quartiles(p), quartiles(c)
        share = win_share(p, c, better)
        diff = cq[1] - pq[1]
        gain = share >= 0.9 and abs(diff) > pq[2] - pq[0]
        worse = diff > bound * pq[1] if better == "lower" else -diff > bound * pq[1]
        verdict = "gain" if gain else ("REGRESSION" if worse else "no change beyond bound")
        print(f"{name:14s} parent median {pq[1]:.6g} [q1 {pq[0]:.6g}, q3 {pq[2]:.6g}]  "
              f"change median {cq[1]:.6g} [q1 {cq[0]:.6g}, q3 {cq[2]:.6g}]  "
              f"win share {share:.2f}  -> {verdict}")
    return 0


def main():
    if len(sys.argv) > 1 and sys.argv[1] in ("steady", "compare"):
        mode = sys.argv[1]
        p = argparse.ArgumentParser(prog=f"run.py {mode}")
        p.add_argument("--workload", required=True)
        p.add_argument("--seconds", type=int, default=None)
        if mode == "steady":
            p.add_argument("--runs", type=int, default=10)
            return steady(p.parse_args(sys.argv[2:]))
        p.add_argument("--parent", required=True)
        p.add_argument("--pairs", type=int, default=10)
        return compare(p.parse_args(sys.argv[2:]))
    p = argparse.ArgumentParser(prog="run.py")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--size", choices=("full", "small"), default="full")
    args = p.parse_args()
    target = target_dir(ROOT)
    build(ROOT, target)
    code, _ = run_once(ROOT, target, args.workload, args.seed, args.seconds, args.trace,
                       args.size, echo=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
