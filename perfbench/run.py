#!/usr/bin/env python3
"""End-to-end benchmark of the Hacky Racers simulator.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Builds perfbench/perfbench.cc
against the program's own CMake build (into .bench_build/), then for S
seconds starts the perfbench binary once per repetition, one process
after another, as a user starts the CLI once per run. Each process
reports its set-up time and one repetition. Every op is checked: its
own status, its digest against the committed golden values
(perfbench/golden.json) or against the first repetition at this seed,
and the logical work counters. The last line of stdout is one JSON
object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
run alternates untraced and traced processes and reports the per-layer
metrics. `--workload all` runs the four workloads in turn, each ending
with its own JSON line.
README.md in this directory describes the workloads and metrics.

    --write-golden   record the golden values for the workload from
                     this run (at the committed seed) instead of
                     checking them
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
OUT = ROOT / ".bench_build" / "out"
BINARY = BUILD / "perfbench"
GOLDEN = HERE / "golden.json"

WORKLOADS = ["channel_noise", "sweep_forwarded", "sweep_divergent",
             "parallel_capacity"]
CHILD_TIMEOUT_S = 120

# Logical work counters: fixed by (workload, seed), whichever tier or
# thread schedule served the work.
LOGICAL = ["machine.runs_total", "machine.run_instrs.sum",
           "runner.trials_requested", "sweep.points_total",
           "channel.symbols_sent"]

# Flight-recorder span -> per-layer self-time metric.
SPANS = {
    "runner.scenario": "runner.scenario_s",
    "sweep.point": "sweep.point_s",
    "pool.build": "pool.build_s",
    "pool.restore": "pool.restore_s",
    "batch.leader": "batch.leader_s",
    "channel.run": "channel.run_s",
    "bench.analysis": "analysis.run_s",
}

# Registry counters reported as they are.
COUNTERS = [
    "lockstep.forwards_total", "lockstep.refusals_total",
    "lockstep.cycles_skipped",
    "batch.trials_total", "batch.leaders_total",
    "batch.followers_replayed", "batch.followers_stepped",
    "batch.followers_peeled", "batch.followers_scalar",
    "group.lanes_peeled",
    "decode.hits_total", "decode.misses_total", "decode.aliases_total",
    "machine.runs_total", "machine.run_instrs.count",
    "machine.run_instrs.sum", "machine.replays_clean",
    "machine.replays_diverged",
    "pool.machines_built", "pool.leases_total", "pool.leases_reused",
    "sweep.points_total", "sweep.points_failed",
    "channel.symbols_sent", "channel.symbol_errors",
    "channel.frames_synced",
]


def log(text):
    """Human-readable report lines; the JSON result is printed last."""
    print(text, flush=True)


def build():
    """Configure once, then let the build tool decide what is stale.
    Compiler temporaries go under .bench_build/ too, so the benchmark
    writes nothing outside the checkout."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise SystemExit("perfbench: run from a checkout of the program "
                         "(no CMakeLists.txt or src/ next to perfbench/)")
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    if not (BUILD / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release", *generator],
                       stdout=sys.stderr, check=True, env=env)
    subprocess.run(["cmake", "--build", str(BUILD), "--target", "perfbench",
                    "-j", "4"], stdout=sys.stderr, check=True, env=env)


def run_child(args, workload, seed, flags=()):
    """One perfbench process: (seconds from launch to its first call,
    jobs, its repetition lines)."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--out", str(OUT), *flags]
    launched = time.monotonic_ns()
    try:
        out = subprocess.run(cmd, stdout=subprocess.PIPE, check=True,
                             text=True, timeout=CHILD_TIMEOUT_S).stdout
    except (subprocess.CalledProcessError,
            subprocess.TimeoutExpired) as error:
        raise SystemExit(f"perfbench: binary failed: {error}")
    lines = [json.loads(line) for line in out.splitlines() if line.strip()]
    setup = (lines[0]["mono_ns"] - launched) / 1e9
    return setup, lines[0]["jobs"], [line for line in lines
                                     if line["kind"] == "rep"]


def run_reps(args, workload, golden_seed):
    """The golden process, then one process per repetition until the
    run's time is spent. A process is started only while at least half
    a typical repetition fits, so runs end close to --seconds. With
    --trace 1, untraced and traced processes alternate."""
    setup, reps = [], []
    if golden_seed is not None:
        seconds, jobs, lines = run_child(args, workload, golden_seed,
                                         ["--golden"])
        setup.append(seconds)
        reps += lines
    start = time.monotonic()
    spans = []   # host seconds per process, launch to exit
    while True:
        launched = time.monotonic()
        traced = args.trace and len(spans) % 2 == 1
        seconds, jobs, lines = run_child(
            args, workload, args.seed,
            ["--trace", "1"] if traced else [])
        setup.append(seconds)
        reps += lines
        spans.append(time.monotonic() - launched)
        left = args.seconds - (time.monotonic() - start)
        if left <= statistics.median(spans) / 2 and \
                len(spans) >= 1 + args.trace:
            return setup, jobs, reps


def check(reps, golden):
    """Mark every op ok or failed; return (attempted, failed, notes)."""
    notes = []
    reference = {}   # op name -> digest, from the first timed rep
    ref_counters = None
    attempted = failed = 0
    for rep in reps:
        counters = {k: rep["counters"].get(k, 0) for k in LOGICAL}
        bad_counters = False
        if rep["phase"] == "golden" and golden is not None:
            bad_counters = counters != golden["counters"]
        elif rep["phase"] == "timed" and ref_counters is None:
            ref_counters = counters
        elif rep["phase"] != "golden":
            bad_counters = counters != ref_counters
        if bad_counters:
            notes.append(f"{rep['phase']} rep: logical counters {counters}")
        for name, ok, digest, seeded in rep["ops"]:
            if not seeded or rep["phase"] == "golden":
                expected = (golden or {}).get("ops", {}).get(name, digest)
            else:
                expected = reference.setdefault(name, digest)
            attempted += 1
            if not ok or digest != expected or bad_counters:
                failed += 1
                notes.append(f"{rep['phase']} rep: op {name} "
                             f"ok={ok} digest={digest} expected={expected}")
        if rep["events_dropped"]:
            notes.append(f"traced rep dropped {rep['events_dropped']} "
                         "events")
    return attempted, failed, notes


def self_times(trace_file):
    """Per-name self time (s) of the complete spans of one recording:
    a span's duration minus the part its child spans on the same thread
    cover."""
    with open(trace_file) as handle:
        events = json.load(handle)["traceEvents"]
    by_thread = {}
    for event in events:
        if event.get("ph") == "X":
            by_thread.setdefault(event["tid"], []).append(event)
    totals = {}
    for spans in by_thread.values():
        spans.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack = []   # open spans: [end, name, duration minus children]
        for span in spans:
            while stack and stack[-1][0] <= span["ts"]:
                _, name, own = stack.pop()
                totals[name] = totals.get(name, 0.0) + own
            if stack:
                stack[-1][2] -= span["dur"]
            stack.append([span["ts"] + span["dur"], span["name"],
                          span["dur"]])
        for _, name, own in stack:
            totals[name] = totals.get(name, 0.0) + own
    return {name: us / 1e6 for name, us in totals.items()}


def median_of(reps, key):
    return statistics.median(rep[key] for rep in reps)


def tail(values):
    """The highest percentile with at least ten samples beyond it."""
    ranked = sorted(values)
    k = len(ranked) - 10
    if k < 1:
        return "too few for a tail percentile"
    return f"p{100 * k / len(ranked):.0f} {ranked[k - 1]:.6g}"


def ratio(part, base):
    return part / base if base else 0.0


def end_to_end(timed, setup):
    """Timings are medians; their samples go along into the report."""
    samples = {
        "wall_s": ([rep["wall_s"] for rep in timed], "s"),
        "setup_s": (setup, "s"),
        "cpu_s": ([rep["cpu_s"] for rep in timed], "s"),
        "sim_minstr_per_s":
            ([rep["counters"]["machine.run_instrs.sum"] / rep["wall_s"] / 1e6
              for rep in timed], "Minstr/s"),
        "peak_rss_mb": ([rep["peak_rss_kb"] / 1024 for rep in timed], "MiB"),
    }
    return {name: (statistics.median(values), unit, values)
            for name, (values, unit) in samples.items()}


def per_layer(timed, traced, jobs):
    counters = {name: statistics.median(rep["counters"].get(name, 0)
                                        for rep in timed)
                for name in COUNTERS}
    wall = median_of(timed, "wall_s")
    traced_wall = median_of(traced, "wall_s")
    out = {name: (value, "count") for name, value in counters.items()}
    c = counters
    followers = sum(c[f"batch.followers_{k}"]
                    for k in ("replayed", "stepped", "peeled", "scalar"))
    lockstep_tries = c["lockstep.forwards_total"] + \
        c["lockstep.refusals_total"]
    lookups = c["decode.hits_total"] + c["decode.aliases_total"] + \
        c["decode.misses_total"]
    out.update({
        "host_ns_per_sim_instr":
            (ratio(wall * 1e9, c["machine.run_instrs.sum"]), "ns"),
        "lockstep.attempts_total": (lockstep_tries, "count"),
        "lockstep.accept_ratio":
            (ratio(c["lockstep.forwards_total"], lockstep_tries), "ratio"),
        "batch.followers_total": (followers, "count"),
        "batch.useful_ratio":
            (ratio(c["batch.followers_replayed"] +
                   c["batch.followers_stepped"], followers), "ratio"),
        "decode.lookups_total": (lookups, "count"),
        "decode.hit_ratio":
            (ratio(c["decode.hits_total"] + c["decode.aliases_total"],
                   lookups), "ratio"),
        "parallel_efficiency":
            (ratio(median_of(timed, "cpu_s"), wall * jobs), "ratio"),
        "trace.overhead_frac": (ratio(traced_wall - wall, wall), "fraction"),
        "trace.events_dropped":
            (sum(rep["events_dropped"] for rep in traced), "count"),
    })
    folded = [self_times(rep["trace_file"]) for rep in traced]
    for span, metric in SPANS.items():
        out[metric] = (statistics.median(f.get(span, 0.0) for f in folded),
                       "s")
    log(f"  lockstep: {c['lockstep.forwards_total']:.0f} of "
        f"{lockstep_tries:.0f} attempts forwarded")
    log(f"  batch: {c['batch.followers_replayed'] + c['batch.followers_stepped']:.0f}"
        f" of {followers:.0f} followers served by replay or group step")
    log(f"  decode: {c['decode.hits_total'] + c['decode.aliases_total']:.0f} "
        f"of {lookups:.0f} lookups hit")
    log(f"  trace: {len(traced)} traced vs {len(timed)} untraced reps, "
        f"overhead {ratio(traced_wall - wall, wall):+.3f} of untraced wall")
    return {name: (value, unit, None) for name, (value, unit) in out.items()}


def keep_last_trace(traced, workload):
    files = [Path(rep["trace_file"]) for rep in traced]
    final = OUT / f"trace_{workload}.json"
    files[-1].replace(final)
    for path in files[:-1]:
        path.unlink()
    log(f"  Perfetto trace of the last traced rep: {final}")


def run_workload(args, workload, goldens):
    """Run one workload, report it, and print its JSON result line."""
    golden = goldens.get(workload)
    golden_seed = golden["seed"] if golden else None
    if args.write_golden:
        golden, golden_seed = None, args.seed

    setup, jobs, reps = run_reps(args, workload, golden_seed)
    timed = [rep for rep in reps if rep["phase"] == "timed"]
    traced = [rep for rep in reps if rep["phase"] == "traced"]

    if args.write_golden:
        first = next(rep for rep in reps if rep["phase"] == "golden")
        goldens[workload] = {
            "seed": args.seed,
            "counters": {k: first["counters"].get(k, 0) for k in LOGICAL},
            "ops": {name: digest for rep in (first, timed[0])
                    for name, _, digest, _ in rep["ops"]},
        }
        GOLDEN.write_text(json.dumps(goldens, indent=1, sort_keys=True)
                          + "\n")
        log(f"perfbench: golden values for {workload} written")

    attempted, failed, notes = check(reps, golden)
    for note in notes[:20]:
        log(f"perfbench: FAIL {note}")
    dropped = sum(rep["events_dropped"] for rep in traced)
    correct = failed == 0 and dropped == 0 and \
        (golden is not None or args.write_golden)

    log(f"perfbench: {workload} seed {args.seed}, {len(timed)} timed "
        f"and {len(traced)} traced reps in {args.seconds:g} s, one "
        f"process each, jobs {jobs}")
    log(f"  ops_failed_frac: {ratio(failed, attempted):.6g} fraction "
        f"({failed} of {attempted} ops failed)")
    if args.trace:
        metrics = per_layer(timed, traced, jobs)
        keep_last_trace(traced, workload)
    else:
        metrics = end_to_end(timed, setup)
    for name, (value, unit, samples) in sorted(metrics.items()):
        note = f" (median of {len(samples)}; {tail(samples)})" \
            if samples else ""
        log(f"  {name}: {value:.6g} {unit}{note}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }), flush=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true")
    args = parser.parse_args()

    try:
        build()
    except subprocess.CalledProcessError as error:
        raise SystemExit(f"perfbench: build failed: {error}")
    OUT.mkdir(parents=True, exist_ok=True)
    goldens = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}
    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        run_workload(args, workload, goldens)


if __name__ == "__main__":
    main()
