"""Pinned pillarkit benchmark.

    python3 perfbench/run.py --workload planted --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 15 --trace 0

Builds one workload's seeded inputs from the sources in ``src/``, runs the
library's public entry points on them, checks every certificate, and prints
one metric per line followed by a JSON result as the last line.  With
``--trace 1`` it runs one untraced and one traced pass and reports
per-layer metrics instead; see ``perfbench/README.md`` for every metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

from refclock import ScaledClock
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent

# Metric names and units, as BENCHMARK.json lists them.  Per-layer names
# are "<span>.<field>" or "<layer>.self_s"; _layer_value reads the fields.
# Times in seconds are listed only for spans and layers that every workload
# enters; one that some workload never enters is counted instead, so that no
# time reads a constant 0.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = [(m["name"], m["unit"]) for m in SPEC["end_to_end"]]
PER_LAYER = [(m["name"], m["unit"]) for m in SPEC["per_layer"]]
_AMOUNT_FIELDS = {"vertices", "samples"}
_COUNTERS = ("kraken.anchors", "kraken.links_p", "kraken.links_q")
# Largest share of a traced search instance's wall time that its top-level
# spans may leave uncovered.  Span self times add up to the covered time, so
# this bounds the part of the instance that no layer metric accounts for.
UNTRACED_TOLERANCE = 0.05
# setup_s is a median over at least this many builds; with 12 it spread up
# to 8% across seeds on pillar_rr, a third of its bound
MIN_SETUP_BUILDS = 24


def _layer_value(metric, rows, layer_self, counters, second_half, overhead, untraced):
    if metric == "trace.overhead_s":
        return overhead
    if metric == "trace.untraced_share":
        return untraced
    if metric == "kraken.second_half_calls":
        return second_half
    if metric in _COUNTERS:
        return counters[metric]
    span, _, field = metric.rpartition(".")
    if field == "self_s":
        return layer_self[span]
    row = rows.get(span, {"calls": 0, "returns": 0, "s": 0.0, "amount": 0})
    if field == "ok_ratio":
        return row["returns"] / row["calls"] if row["calls"] else 0.0
    if field in _AMOUNT_FIELDS:
        return row["amount"]
    if field in ("calls", "builds"):
        return row["calls"]
    return row["s"]


def environment() -> dict:
    """What a result depends on besides the workload and seed."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "pillarkit").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    revision = "none"
    if (ROOT / ".git").exists():
        try:
            revision = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                      text=True, timeout=10).stdout.strip() or "none"
        except (OSError, subprocess.SubprocessError):
            pass
    return {"python": platform.python_version(),
            "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED"),
            "nproc": os.cpu_count(), "revision": revision,
            "source_sha256": digest.hexdigest()}


class Pass:
    """One timed pass over a workload's instances: elapsed, raw and scaled
    seconds (see refclock.py) and the outcome of each."""

    def __init__(self, workload, seeds, graphs, clock, tracer=None):
        self.elapsed: list[float] = []
        self.raw: list[float] = []
        self.scaled: list[float] = []
        self.outcomes = []
        for i, (s, g) in enumerate(zip(seeds, graphs)):
            if tracer is not None:
                tracer.current_tag = i
            outcome, elapsed, raw, scaled = clock.measure(_attempt, workload, g, s)
            self.elapsed.append(elapsed)
            self.raw.append(raw)
            self.scaled.append(scaled)
            self.outcomes.append(outcome)

    def digest(self) -> str:
        h = hashlib.sha256()
        for o in self.outcomes:
            h.update((o.certificate or "no certificate\n").encode())
        return h.hexdigest()

    def failed(self) -> int:
        return sum(1 for o in self.outcomes if o.certificate is None or o.failures)

    def invalid(self) -> list[str]:
        return [f for o in self.outcomes if o.certificate is not None for f in o.failures]


def _attempt(workload, g, seed):
    from workloads import Outcome

    try:
        return workload.solve(g, seed)
    except Exception as exc:  # a starved or crashed instance is counted, the run goes on
        print(f"instance seed {seed} failed:", file=sys.stderr)
        traceback.print_exc()
        return Outcome(None, [f"{type(exc).__name__}: {exc}"])


def _build(workload, seed):
    import pillarkit as pk

    return pk.load_graph(pk.save_graph(workload.build(seed)))


def build_inputs(workload, seeds, clock):
    """Each instance's graph after the save/load round trip, the scaled
    seconds of every build, and problems.  Workloads with fewer than
    MIN_SETUP_BUILDS instances build inputs again, in seed order, until there
    are that many builds; a rebuilt input must equal the first."""
    graphs, scaled, problems = [], [], []
    for k in range(max(MIN_SETUP_BUILDS, len(seeds))):
        i = k % len(seeds)
        g, _, _, sc = clock.measure(_build, workload, seeds[i])
        scaled.append(sc)
        if k < len(seeds):
            graphs.append(g)
        elif g != graphs[i]:
            problems.append(f"[setup] seed {seeds[i]} built a different graph the second time")
    return graphs, scaled, problems


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_untraced(name, workload, seeds, out):
    clock = ScaledClock()
    graphs, setup_times, problems = build_inputs(workload, seeds, clock)
    p = Pass(workload, seeds, graphs, clock)
    metrics = {
        "wall_s": sum(p.scaled),
        "instance_p50_s": statistics.median(p.scaled),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb(),
    }
    problems += [f"[certificate] {f}" for f in p.invalid()]
    out(f"{name} instances {len(seeds)} set-up builds {len(setup_times)}")
    # only planted has ten or more instances beyond its 90th percentile,
    # so this is printed but not one of the gated end-to-end metrics
    p90 = statistics.quantiles(p.scaled, n=10, method="inclusive")[-1]
    out(f"{name} instance_p90_s {p90} s")
    out(f"{name} raw_wall_s {sum(p.raw)} s")
    out(f"{name} digest {p.digest()}")
    return metrics, END_TO_END, len(seeds), p.failed(), problems


def run_traced(name, workload, seeds, out):
    clock = ScaledClock()
    tracer = Tracer()
    with tracer:  # set-up spans keep the tag -1: they belong to no instance
        graphs, _, problems = build_inputs(workload, seeds, clock)
    plain = Pass(workload, seeds, graphs, clock)
    with tracer:
        traced = Pass(workload, seeds, graphs, clock, tracer)
    overhead = sum(traced.scaled) - sum(plain.scaled)
    rows, covered = tracer.analyse()
    layer_self: dict[str, float] = defaultdict(float)
    for span, row in rows.items():
        layer_self[span.split(".", 1)[0]] += row["self_s"]
    counters: dict[str, int] = defaultdict(int)
    for o in traced.outcomes:
        for k, v in o.counters.items():
            counters[k] += v
    second_half = len(tracer.enclosing("primitives.find_large_ball", "kraken.robust_kraken"))
    # only search instances are checked: the set-up's uncovered part is the
    # benchmark's own input builder, not pillarkit
    untraced = [wall - covered.get(i, 0.0) for i, wall in enumerate(traced.elapsed)]
    untraced_share = sum(untraced) / sum(traced.elapsed)
    metrics = {m: _layer_value(m, rows, layer_self, counters, second_half, overhead,
                               untraced_share)
               for m, _ in PER_LAYER}

    problems += [f"[certificate] {f}" for p in (plain, traced) for f in p.invalid()]
    if plain.digest() != traced.digest():
        problems.append("[trace] traced certificates differ from untraced ones")
    for i, (wall, rest) in enumerate(zip(traced.elapsed, untraced)):
        if not 0 <= rest <= UNTRACED_TOLERANCE * wall:
            problems.append(f"[trace] tag {i}: spans leave {rest:.6f} s of {wall:.6f} s "
                            f"untraced")
    out(f"{name} spans {len(tracer)}")
    out(f"{name} digest {traced.digest()}")
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"{name}.spans")
    attempted = 2 * len(seeds)
    failed = plain.failed() + traced.failed()
    return metrics, PER_LAYER, attempted, failed, problems


def run_one(name, seed, seconds, trace) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import pillarkit
    except ImportError as exc:
        print(f"perfbench: cannot import pillarkit from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if Path(pillarkit.__file__).resolve().parent != ROOT / "src" / "pillarkit":
        print(f"perfbench: pillarkit imported from {pillarkit.__file__}, "
              f"not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    seeds = workload.instance_seeds(seed, seconds, trace=bool(trace))
    lines: list[str] = []
    out = lines.append
    out(f"{name} env {json.dumps(environment(), sort_keys=True)}")
    if trace:
        metrics, units, attempted, failed, problems = run_traced(name, workload, seeds, out)
    else:
        metrics, units, attempted, failed, problems = run_untraced(name, workload, seeds, out)
    out(f"{name} fail_frac {failed / attempted} ratio")
    for metric, unit in units:
        out(f"{name} {metric} {metrics[metric]} {unit}")
    for p in problems:
        out(f"{name} problem {p}")
    print("\n".join(lines))
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": {m: {"value": metrics[m], "unit": u} for m, u in units}}
    print(json.dumps(result), flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in SPEC["workloads"]] + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="run length; the number of instances scales with it "
                             "(at 15: 16 pillar_rr, 400 planted, 4 kraken_hubs)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.workload != "all":
        return run_one(args.workload, args.seed, args.seconds, args.trace)
    status = 0
    for name in (w["name"] for w in SPEC["workloads"]):
        # one process per workload, so each reports its own peak memory
        child = subprocess.run([sys.executable, __file__, "--workload", name,
                                "--seed", str(args.seed), "--seconds", str(args.seconds),
                                "--trace", str(args.trace)])
        status = max(status, child.returncode)
    return status


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        # pin string hashing, so set iteration order repeats run to run
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": "0"})
    sys.exit(main())
