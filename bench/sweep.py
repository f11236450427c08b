#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise the spread.

    python3 bench/sweep.py --seeds 1-10 [--trace 0|1] [--out FILE]

Runs ``bench/run.py`` once per (workload, seed), one run at a time, from
the root of the checkout, on every workload of BENCHMARK.json with its
``run_seconds``.  For every metric it prints the median, the
quartiles as ``statistics.quantiles(values, n=4)`` gives them, and the
spread (Q3 - Q1) / median next to the metric's bound in BENCHMARK.json.
With one seed it is the single command that prints every workload's
metrics under the names of bench/NOTES.md.  ``--out`` writes the runs,
the summary and the machine description as JSON (a point of the
performance trajectory, such as ``bench/results/baseline.json``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def parse_seeds(text: str) -> List[int]:
    seeds: List[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarise(values: List[float]) -> Dict[str, float]:
    median = statistics.median(values)
    if len(values) < 2:
        return {"median": median}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None}


def machine() -> Dict[str, object]:
    info: Dict[str, object] = {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
    }
    try:
        import mpmath
        info["mpmath"] = mpmath.__version__
        info["mpmath_backend"] = mpmath.libmp.BACKEND
    except ImportError:
        pass
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                            capture_output=True, text=True)
    if commit.returncode == 0:
        info["commit"] = commit.stdout.strip()
    return info


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    results: Dict[str, object] = {"machine": machine(), "seconds": seconds,
                                  "trace": args.trace, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in parse_seeds(args.seeds):
            command = [sys.executable, str(BENCH / "run.py"), "--workload",
                       workload, "--seed", str(seed), "--seconds",
                       str(seconds), "--trace", str(args.trace)]
            done = subprocess.run(command, cwd=ROOT, capture_output=True,
                                  text=True, timeout=900)
            if done.returncode != 0:
                print(done.stderr, file=sys.stderr)
                raise SystemExit(f"{workload} seed {seed}: exit "
                                 f"{done.returncode}")
            result = json.loads(done.stdout.strip().splitlines()[-1])
            detail = json.loads((BENCH / "out" / (
                f"{workload}-seed{seed}-trace{args.trace}.json")).read_text())
            runs.append({"seed": seed, "result": result,
                         "view": detail["view"],
                         "regions": detail.get("regions")})
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}",
                  flush=True)

        summary = {}
        for name in runs[0]["result"]["metrics"]:
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            summary[name] = {"unit": runs[0]["result"]["metrics"][name]["unit"],
                             **summarise(values)}
            if name in bounds:
                summary[name]["bound"] = bounds[name]
        view = {}
        for name in runs[0]["view"]:
            values = [r["view"][name]["value"] for r in runs]
            view[name] = {"unit": runs[0]["view"][name]["unit"],
                          "n": runs[0]["view"][name]["n"], **summarise(values)}
        results["workloads"][workload] = {"runs": runs, "summary": summary,
                                          "view": view}

        print(f"== {workload} ({len(runs)} runs)")
        for name, s in {**summary, **view}.items():
            line = f"  {name:<58} median {s['median']:.6g} {s['unit']}"
            if s.get("spread") is not None:
                line += f"  Q1 {s['q1']:.6g}  Q3 {s['q3']:.6g}  " \
                        f"spread {s['spread']:.4f}"
            if "bound" in s:
                line += f"  bound {s['bound']}  " + (
                    "ok" if (s.get("spread") or 0) < s["bound"] / 3
                    else "ABOVE bound/3")
            print(line)
        if workload == "evaluate":
            for r in runs:
                shares = ", ".join(
                    f"{k} {v['point_share']:.4f} of points/"
                    f"{v['time_share']:.3f} of time"
                    for k, v in r["regions"].items())
                print(f"  seed {r['seed']}: {shares}")

    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(results, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
