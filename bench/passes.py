#!/usr/bin/env python3
"""Run the benchmark several times and summarize each metric.

Runs the command in BENCHMARK.json once per (workload, seed, repeat) from
the repository root, appends every result to a JSON-lines file, and prints
per workload and metric the median, the quartiles and the spread: the
distance between the quartiles as a share of the median, next to the
end-to-end bound. It also prints each run's wall time and simulated-results
digest, so two sets of runs can be compared.

    python3 bench/passes.py --workloads tt-400k,cw-2m --seeds 1-10 --out runs.jsonl
    python3 bench/passes.py --summarize bench/results/seed42-set1.jsonl

Exits 1 if a run fails or reports "correct": false.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run_once(workload, seed, seconds, trace):
    cmd = MANIFEST["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    digest = next((l.split()[1] for l in lines if l.startswith("sim_digest ")), None)
    result = json.loads(lines[-1]) if proc.returncode in (0, 1) and lines else None
    return {
        "workload": workload, "seed": seed, "trace": trace, "seconds": seconds,
        "exit": proc.returncode, "wall_s": wall, "sim_digest": digest, "result": result,
    }


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med if med else float("nan")


def summarize(records):
    bounds = {m["name"]: m["bound"] for m in MANIFEST["end_to_end"]}
    by_workload = {}
    for r in records:
        by_workload.setdefault(r["workload"], []).append(r)
    for workload, runs in by_workload.items():
        ok = [r for r in runs if r["result"]]
        print(f"\n{workload}: {len(runs)} runs, wall s "
              + " ".join(f"{r['wall_s']:.1f}" for r in runs))
        print("  digests " + " ".join(f"{r['seed']}:{r['sim_digest']}" for r in runs))
        names = list(ok[0]["result"]["metrics"]) if ok else []
        for name in names:
            values = [r["result"]["metrics"][name]["value"] for r in ok]
            unit = ok[0]["result"]["metrics"][name]["unit"]
            if len(values) < 2:
                print(f"  {name:<28} {values[0]:>16.6g} {unit}")
                continue
            q1, med, q3, sp = spread(values)
            bound = bounds.get(name)
            flag = "" if bound is None else f"  bound {bound:<5} {'ok' if sp < bound / 3 else 'WIDE'}"
            print(f"  {name:<28} median {med:>14.6g}  q1 {q1:>14.6g}  q3 {q3:>14.6g}"
                  f"  spread {sp:.4f} {unit}{flag}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in MANIFEST["workloads"]))
    ap.add_argument("--seeds", default="42")
    ap.add_argument("--repeat", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=MANIFEST["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=pathlib.Path)
    ap.add_argument("--summarize", type=pathlib.Path)
    args = ap.parse_args()

    if args.summarize:
        summarize([json.loads(l) for l in args.summarize.read_text().splitlines() if l])
        return 0
    records, bad = [], 0
    # Workloads alternate within each (seed, repeat), so a slow spell of
    # the host spreads over all of them instead of landing on one.
    for seed in seeds(args.seeds):
        for _ in range(args.repeat):
            for workload in args.workloads.split(","):
                r = run_once(workload, seed, args.seconds, args.trace)
                records.append(r)
                good = r["exit"] == 0 and r["result"] and r["result"]["correct"]
                bad += not good
                print(f"{workload} seed {seed}: exit {r['exit']}, {r['wall_s']:.1f} s", file=sys.stderr)
                if args.out:
                    with args.out.open("a") as f:
                        f.write(json.dumps(r) + "\n")
    summarize(records)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
