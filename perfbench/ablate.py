#!/usr/bin/env python3
"""One-off tier ablation for the benchmark's workloads.

    python3 perfbench/ablate.py [--pairs 10] [--seconds 2] [--workload W]...

For each workload and each execution tier (batch, group, lockstep), run
the perfbench binary with every tier on and with that tier off, back to
back, for --pairs pairs, alternating which side runs first and giving
each pair a seed of its own. Reports each side's median wall time with quartiles,
how many pairs the all-on side won, and whether both sides produced the
same op digests. This is a diagnostic, not a gate; README.md records
its result.

At --jobs > 1 the runner does not batch (ScenarioContext::poolMap), and
the analyzer takes no tier options, so parallel_capacity is ablated for
lockstep only.
"""

import argparse
import json
import statistics
import subprocess

from run import BINARY, OUT, WORKLOADS, build

TIERS = ("batch", "group", "lockstep")


def measure(workload, seed, seconds, disable):
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--out", str(OUT)]
    if disable:
        cmd += ["--disable", disable]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, check=True,
                         text=True).stdout
    reps = [json.loads(line) for line in out.splitlines()]
    reps = [rep for rep in reps if rep.get("phase") == "timed"]
    digests = [[op[:3] for op in rep["ops"]] for rep in reps]
    return statistics.median(rep["wall_s"] for rep in reps), digests[0]


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"{q2:.4g} [{q1:.4g}, {q3:.4g}]"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=2)
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    args = parser.parse_args()
    build()
    OUT.mkdir(parents=True, exist_ok=True)

    print("| workload | tier off | all on: median wall s [q1, q3] | "
          "tier off: median wall s [q1, q3] | off / on | all-on wins | "
          "same digests |")
    print("| --- | --- | --- | --- | --- | --- | --- |")
    for workload in args.workload or WORKLOADS:
        tiers = ("lockstep",) if workload == "parallel_capacity" else TIERS
        for tier in tiers:
            on, off, wins, same = [], [], 0, True
            for pair in range(args.pairs):
                seed = 1000 + pair
                sides = [None, tier] if pair % 2 == 0 else [tier, None]
                result = {side: measure(workload, seed, args.seconds, side)
                          for side in sides}
                on.append(result[None][0])
                off.append(result[tier][0])
                wins += on[-1] < off[-1]
                same &= result[None][1] == result[tier][1]
            print(f"| {workload} | {tier} | {quartiles(on)} | "
                  f"{quartiles(off)} | "
                  f"{statistics.median(off) / statistics.median(on):.2f} | "
                  f"{wins} of {args.pairs} | {'yes' if same else 'NO'} |",
                  flush=True)


if __name__ == "__main__":
    main()
