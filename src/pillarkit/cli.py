"""Command-line front end: graph generation, structure search, certificate
verification, and a small benchmark.

Exit codes are uniform across subcommands: 0 success/valid, 1 search
starved or certificate invalid, 2 malformed input, 3 a broken internal
invariant (a bug in pillarkit, not in the input).  Subcommands raise, and
``main`` maps each exception to its exit code in one place.  Every randomized
subcommand takes its seed from --seed or the config file; there is no
ambient entropy.
"""

from __future__ import annotations

import argparse
import csv
import inspect
import os
import random
import sys
import time

from . import generators
from .certificates import dumps_certificate, loads_certificate, verify_certificate
from .config import RunConfig, load_config
from .errors import (InternalError, LengthNotRealizedError, NoPathError, PillarkitError,
                     PreconditionError, StageError)
from .expander import EXPANSION_SAMPLE_CAP, EXPANSION_TRIALS, check_expansion
from .graph import Graph, ball, load_graph, save_graph
from .kraken import robust_kraken
from .pillar import find_pillar
from .primitives import Q3_CAP, connect_short, find_q3_bruteforce, find_q3_sampled

# every generator parameter, by flag name and type
_GENERATOR_FLAGS = {"n": int, "d": int, "s": int, "ell": int, "a": int, "b": int,
                    "p": float, "dim": int, "seed": int}


def _read_graph(path: str) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return load_graph(fh.read())


def _read_config(path: str | None, seed: int | None) -> RunConfig:
    cfg = load_config(path) if path else RunConfig()
    if seed is not None:
        cfg.overrides["seed"] = seed
    return cfg


def cmd_generate(args: argparse.Namespace) -> int:
    make = generators.GENERATORS[args.kind]
    params = inspect.signature(make).parameters
    # each generator parameter is the flag of the same name, and no other flag is taken
    for name in _GENERATOR_FLAGS:
        if name not in params and getattr(args, name) is not None:
            raise PreconditionError(f"--{name} is not a flag of the {args.kind} generator")
    values = [_need(args, name) for name in params]
    # fail before generating; "a" truncates nothing, and a file made here
    # goes again if the generator fails
    fresh = not os.path.exists(args.out)
    open(args.out, "a", encoding="utf-8").close()
    try:
        g = make(*values)
    except PillarkitError:
        if fresh:
            os.remove(args.out)
        raise
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(save_graph(g))
    print(f"wrote {g.n} vertices, {g.m} edges to {args.out}")
    return 0


def _need(args: argparse.Namespace, name: str):
    val = getattr(args, name, None)
    if val is None:
        raise PreconditionError(f"--{name} is required for this generator")
    return val


def cmd_find(args: argparse.Namespace) -> int:
    g = _read_graph(args.graph)
    cfg = _read_config(args.config, args.seed)
    if args.out:  # fail before the search; "a" truncates nothing
        open(args.out, "a", encoding="utf-8").close()
    if args.target == "q3":
        if g.n <= Q3_CAP:
            cert = find_q3_bruteforce(g)
            how = "exhaustive"
        else:
            cert = find_q3_sampled(g, cfg.resolve(g.n).seed)
            how = "sampled"
        if cert is None:
            print(f"not found: no cube ({how} search, n={g.n})")
            return 1
    elif args.target == "kraken":
        cert = robust_kraken(g, frozenset(), cfg)
    else:
        cert = find_pillar(g, cfg)
    text = dumps_certificate(cert)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"certificate written to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    g = _read_graph(args.graph)
    with open(args.cert, "r", encoding="utf-8") as fh:
        data = loads_certificate(fh.read())
    if data["kind"] != args.kind:
        raise PreconditionError(f"certificate is a {data['kind']!r}, expected {args.kind!r}")
    report = verify_certificate(g, data)
    if report.valid:
        print("valid")
        return 0
    for clause, message in report.failures:
        print(f"invalid [{clause}]: {message}")
    return 1


def cmd_bench(args: argparse.Namespace) -> int:
    g = _read_graph(args.graph)
    cfg = _read_config(args.config, args.seed)
    rc = cfg.resolve(g.n)
    rng = random.Random(rc.seed)
    writer = csv.writer(sys.stdout)
    writer.writerow(["operation", "runs", "work_units", "wall_time_s"])

    runs, units = 0, 0
    t0 = time.perf_counter()
    if g.n > 0:
        for _ in range(16):
            v = rng.randrange(g.n)
            units += len(ball(g, [v], 3))
            runs += 1
    writer.writerow(["ball_growth", runs, units, f"{time.perf_counter() - t0:.6f}"])

    runs, units = 0, 0
    t0 = time.perf_counter()
    if g.n >= 8:
        size = max(1, min(10, g.n // 8))
        for _ in range(8):
            picks = rng.sample(range(g.n), 2 * size + 1)
            a, b, w = picks[:size], picks[size:2 * size], picks[2 * size:]
            try:
                units += connect_short(g, a, b, w, rc.params).length
            except NoPathError:
                pass
            runs += 1
    writer.writerow(["connect_short", runs, units, f"{time.perf_counter() - t0:.6f}"])

    runs, units = 0, 0
    t0 = time.perf_counter()
    if g.n > 0:
        report = check_expansion(g, rc.params, "sampled", seed=rc.seed,
                                 trials=EXPANSION_TRIALS,
                                 sample_cap=EXPANSION_SAMPLE_CAP)
        runs = 1
        units = report.samples
    writer.writerow(["check_expansion_sampled", runs, units,
                     f"{time.perf_counter() - t0:.6f}"])
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="pillarkit",
                                 description="Search sparse graphs for pillars and "
                                             "their kraken scaffolding.")
    sub = ap.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a graph as an edge list")
    gen.add_argument("kind", choices=sorted(generators.GENERATORS))
    for name, kind in _GENERATOR_FLAGS.items():
        gen.add_argument(f"--{name}", type=kind)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=cmd_generate)

    find = sub.add_parser("find", help="search for a structure, emit a certificate")
    find.add_argument("target", choices=["q3", "kraken", "pillar"])
    find.add_argument("--graph", required=True)
    find.add_argument("--config")
    find.add_argument("--seed", type=int)
    find.add_argument("--out")
    find.set_defaults(func=cmd_find)

    ver = sub.add_parser("verify", help="check a certificate against a graph")
    ver.add_argument("kind", choices=["pillar", "kraken", "q3", "expansion"])
    ver.add_argument("--graph", required=True)
    ver.add_argument("--cert", required=True)
    ver.set_defaults(func=cmd_verify)

    bench = sub.add_parser("bench", help="time the core primitives, CSV to stdout")
    bench.add_argument("--graph", required=True)
    bench.add_argument("--config")
    bench.add_argument("--seed", type=int)
    bench.set_defaults(func=cmd_bench)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except StageError as exc:  # a generator has nothing to find, only a stage that starved
        print(f"{'starved' if args.command == 'generate' else 'not found'}: {exc}")
        for key, val in sorted(exc.details.items()):
            print(f"  {key} = {val}")
        return 1
    except (NoPathError, LengthNotRealizedError) as exc:
        print(f"not found: {exc}")
        return 1
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    # unreadable or refused input; a UnicodeDecodeError is no OSError
    except (OSError, UnicodeDecodeError, PillarkitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
