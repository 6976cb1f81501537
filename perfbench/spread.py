"""Run the benchmark once per seed and report each metric's median, quartiles
and spread (quartile distance over median) against the bound that
``BENCHMARK.json`` fixes for it.

    python3 perfbench/spread.py --workload planted --seeds 0 1 2 3 4
    python3 perfbench/spread.py --workload all --seeds 0-9 --out spread.json

Runs are sequential, one process at a time.  Exits 1 if a run fails, is
incorrect, or a spread reaches a third of its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(tokens: list[str]) -> list[int]:
    seeds = []
    for tok in tokens:
        lo, _, hi = tok.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list[str], float]:
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(lines[-1]), lines[:-1], time.perf_counter() - t0


def summarise(workload: str, results: list[dict], bounds: dict[str, float]) -> tuple[dict, bool]:
    ok = all(r["correct"] and r["failed"] == 0 for r in results)
    summary = {}
    for metric in results[0]["metrics"]:
        values = [r["metrics"][metric]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds.get(metric)
        steady = bound is None or spread < bound / 3
        ok &= steady
        summary[metric] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                           "bound": bound, "unit": results[0]["metrics"][metric]["unit"],
                           "values": values}
        flag = "" if steady else "  <-- spread >= bound/3"
        bound_txt = "" if bound is None else f" bound {bound}"
        print(f"{workload:12s} {metric:40s} median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} "
              f"spread {spread:.4f}{bound_txt}{flag}")
    return summary, ok


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seeds", nargs="+", required=True, help="seeds or ranges like 0-9")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", help="write the summary as JSON to this file")
    args = parser.parse_args(argv)
    bounds = {} if args.trace else {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    report, ok = {}, True
    for workload in names if args.workload == "all" else [args.workload]:
        results, run_s, env = [], [], None
        for seed in seeds:
            result, lines, elapsed = run(workload, seed, args.seconds, args.trace)
            results.append(result)
            run_s.append(elapsed)
            env = env or next((json.loads(l.split(" env ", 1)[1]) for l in lines
                               if l.startswith(f"{workload} env ")), None)
        summary, steady = summarise(workload, results, bounds)
        ok &= steady
        print(f"{workload:12s} run time: median {statistics.median(run_s):.1f} s, "
              f"max {max(run_s):.1f} s")
        report[workload] = {"seeds": seeds, "seconds": args.seconds, "env": env,
                            "run_s": run_s, "metrics": summary}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
