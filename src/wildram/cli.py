"""Command line entry point.

Subcommands: report, simulate, corpus, euler.  JSON is the canonical
output (--json); the default human view is derived from it.  Exit codes:
0 all verdicts pass, 2 a verdict failed (a counterexample to an expected
identity), 1 operational error, a usage error included.
"""

from __future__ import annotations

import argparse
import json
import sys

from .blowup import (CrossCheckError, DepthCapError, SimulationConfig,
                     resolve, simulation_as_dict, tree_as_dot)
from .corpus import run_corpus
from .euler import SurfaceConfig, euler_delta
from .parsing import ParseError, parse_field, parse_polynomial
from .report import InputSpec, StageError, build_report


class _Parser(argparse.ArgumentParser):
    """Exits 1 on a usage error: argparse's own status, 2, would read as
    a failed verdict.  The subcommand parsers are of this class too."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_input_args(sub):
    defaults = SimulationConfig()     # blowup.py owns the simulation defaults
    sub.add_argument("expr", help="polynomial, e.g. 't1^-2*t2 + g*t2^-1'")
    sub.add_argument("--field", default="2^1", help="coefficient field, p or p^k")
    sub.add_argument("--type", default="II", choices=["I", "II"],
                     help="number of boundary branches through the point")
    sub.add_argument("--mode", default=defaults.mode,
                     choices=["candidates", "sweep"])
    sub.add_argument("--sweep-degree", type=int, default=defaults.sweep_degree)
    sub.add_argument("--depth-cap", type=int, default=defaults.depth_cap)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--json", action="store_true", help="emit the full JSON")


def _spec_from_args(args):
    config = SimulationConfig(mode=args.mode, sweep_degree=args.sweep_degree,
                              depth_cap=args.depth_cap)
    return InputSpec(field=args.field,
                     branches=1 if args.type == "I" else 2,
                     expr=args.expr, seed=args.seed, config=config)


def _print_report(report):
    data = report.data
    print(f"input        {data['input']['expr']}  over GF({data['input']['field']})"
          f"  type {data['input']['type']}")
    rep = data["good_representative"]
    print(f"reduced      g = {rep['g']}"
          + ("   [constant added]" if rep["constant_added"] else ""))
    print(f"staircase    {data['staircase']}")
    print(f"essential    {data['essential']}")
    print(f"clean        {data['clean']}")
    swans = data["swans"]
    print(f"swan         t1={swans['t1']}  t2={swans['t2']}  E={swans['E']}")
    print(f"recursive    {data['recursive_total']}")
    print(f"closed form  {data['closed_form']}")
    print(f"bound        {data['bound']}")
    sim = data["simulation"]
    print(f"blow-up r_x  {sim['r_x']}  (depth {sim['depth']},"
          f" good regime {sim['good_regime']})")
    print("verdicts")
    for name, verdict in report.verdicts.items():
        mark = "pass" if verdict["pass"] else "FAIL"
        extra = {k: v for k, v in verdict.items() if k != "pass"}
        print(f"  {mark}  {name}  {extra}")


def main(argv=None):
    parser = _Parser(
        prog="wildram",
        description="ramification invariants of degree-p covers of surfaces")
    subs = parser.add_subparsers(dest="command", required=True)

    rep = subs.add_parser("report", help="full pipeline plus agreement verdicts")
    _add_input_args(rep)

    sim = subs.add_parser("simulate", help="blow-up simulation only")
    _add_input_args(sim)
    sim.add_argument("--dot", metavar="FILE", help="write the tree as DOT")

    cor = subs.add_parser("corpus", help="seeded differential suites")
    cor.add_argument("--seed", type=int, default=1)
    cor.add_argument("--count", type=int, default=1000)
    cor.add_argument("--mode", default="staircase",
                     choices=["staircase", "laurent"])
    cor.add_argument("--simulate", action="store_true",
                     help="include simulator checks in laurent mode")
    cor.add_argument("--json", action="store_true")

    eul = subs.add_parser("euler", help="global Euler-characteristic delta")
    eul.add_argument("config", help="JSON file with components, intersections,"
                                    " klog, r_sum")
    eul.add_argument("--json", action="store_true")

    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except CrossCheckError as err:
        # a failed internal cross-check is a found counterexample, not an
        # operational failure
        print(f"error: {err}", file=sys.stderr)
        return 2
    except StageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2 if isinstance(err.original, CrossCheckError) else 1
    except (ParseError, ValueError, OSError, DepthCapError) as err:
        # the depth cap is an operational failure, as in a report's
        # simulation stage
        print(f"error: {err}", file=sys.stderr)
        return 1


def _dispatch(args):
    if args.command == "report":
        report = build_report(_spec_from_args(args))
        if args.json:
            print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
        else:
            _print_report(report)
        return 0 if report.passed else 2

    if args.command == "simulate":
        spec = _spec_from_args(args)
        ctx = parse_field(spec.field)
        f = parse_polynomial(spec.expr, ctx)
        result = resolve(f, spec.branches, spec.config)
        if args.dot:
            with open(args.dot, "w", encoding="utf-8") as handle:
                handle.write(tree_as_dot(result.root))
        if args.json:
            print(json.dumps(simulation_as_dict(result), indent=2,
                             sort_keys=True))
        else:
            print(f"r_x = {result.total}  depth = {result.depth}  "
                  f"good regime = {result.good_regime}")
        return 0

    if args.command == "corpus":
        summary = run_corpus(args.seed, args.count, args.mode,
                             simulate=args.simulate)
        if args.json:
            print(json.dumps(summary, indent=2, sort_keys=True))
        else:
            for name, entry in summary["checks"].items():
                line = f"{name}: {entry['pass']} pass, {entry['fail']} fail"
                if entry["counterexamples"]:
                    line += f"  e.g. {entry['counterexamples'][0]}"
                print(line)
            print("all pass" if summary["all_pass"] else "FAILURES FOUND")
        return 0 if summary["all_pass"] else 2

    if args.command == "euler":
        with open(args.config, encoding="utf-8") as handle:
            config = SurfaceConfig.from_dict(json.load(handle))
        result = euler_delta(config)
        if args.json:
            print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
        else:
            print(f"(Sw,Sw) = {result.sw_self}   (Sw,Klog) = {result.sw_klog}"
                  f"   delta = {result.delta}")
        return 0

    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
