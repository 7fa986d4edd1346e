"""Command line interface: compute, census, verify, switch.

Exit codes: 0 success (including oracle-only runs on B2 graphs), 1 file or
input errors, 2 a computed disagreement between the rank side and the census
(`report.broken_identity` names it) or a usage error, which argparse reports
with the usage of the command named, or of falk3 when none is.
"""

import argparse
import functools
import json
import sys

from .census import census, phi3_formula
from .errors import FalkError
from .generate import GenConfig, enumerate_all, sample_stream
from .graph_io import parse_graph, parse_sigma, serialize
from .report import broken_identity, build_report, render_text, to_json_dict


def _load(path: str):
    with open(path, encoding="utf-8") as fh:
        return parse_graph(fh.read())


def _cmd_compute(args) -> int:
    g = _load(args.path)
    report = build_report(g)
    if args.json:
        print(json.dumps(to_json_dict(report), indent=2))
    else:
        print(render_text(report))
    if report.agreement is False:
        print(f"broken identity: {broken_identity(g, report)}", file=sys.stderr)
        return 2
    return 0


def _cmd_census(args) -> int:
    g = _load(args.path)
    c = census(g)
    if args.json:
        print(json.dumps({"n": g.n, "census": c.as_dict(), "phi3_formula": phi3_formula(c)}, indent=2))
    else:
        counts = " ".join(f"{k}={v}" for k, v in c.as_dict().items())
        print(counts)
        print(f"phi3 (census)  {phi3_formula(c)}")
    return 0


def _cmd_verify(args) -> int:
    if args.exhaustive:
        ell = args.vertices
        if ell >= 5:
            # 2^25 (about 3.4e7) graphs at 5 vertices take hours; the count
            # stays symbolic because the integer 2^(ell^2) itself gets huge
            raise FalkError(
                f"--exhaustive on {ell} vertices would enumerate "
                f"4^C({ell},2)*2^{ell} = 2^{ell * ell} graphs, too many to finish; "
                f"sample them with --samples instead"
            )
        stream = enumerate_all(ell)
    else:
        cfg = GenConfig(
            ell=args.vertices,
            edge_prob_pos=args.pos,
            edge_prob_neg=args.neg,
            loop_prob=args.loop,
            seed=args.seed,
            samples=args.samples,
        )
        stream = sample_stream(cfg)
    total = agreed = 0
    first_bad = None
    for g in stream:
        total += 1
        report = build_report(g)
        if report.agreement:
            agreed += 1
        elif first_bad is None:
            first_bad = f"broken identity: {broken_identity(g, report)}\n{serialize(g)}"
    print(f"{agreed}/{total} graphs agree")
    if agreed != total:
        print(f"first counterexample:\n{first_bad}", end="")
        return 2
    return 0


def _cmd_switch(args) -> int:
    g = _load(args.path)
    sigma = parse_sigma(args.sigma, g.ell)
    print(serialize(g.switch(sigma)), end="")
    return 0


@functools.cache
def _parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each command's own parser by name, built once per process.

    Its actions and groups point back at each other, so a parser built per
    call would be cyclic garbage that only a full collection frees.
    """
    parser = argparse.ArgumentParser(
        prog="falk3",
        description="Third invariant of a signed-graph arrangement, two independent ways.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}

    p = commands["compute"] = sub.add_parser("compute", help="full report: ranks, census, agreement")
    p.set_defaults(handler=_cmd_compute)
    p.add_argument("path", help="graph file")
    p.add_argument("--json", action="store_true", help="machine-readable output")

    p = commands["census"] = sub.add_parser("census", help="subgraph census and the closed-form value")
    p.set_defaults(handler=_cmd_census)
    p.add_argument("path", help="graph file")
    p.add_argument("--json", action="store_true", help="machine-readable output")

    p = commands["verify"] = sub.add_parser(
        "verify", help="cross-validate formula against oracle on many graphs"
    )
    p.set_defaults(handler=_cmd_verify)
    p.add_argument("--vertices", type=int, required=True, help="number of vertices")
    p.add_argument("--samples", type=int, default=100, help="random samples to draw")
    p.add_argument("--seed", type=int, default=0, help="PRNG seed")
    p.add_argument("--exhaustive", action="store_true", help="enumerate every graph instead of sampling")
    p.add_argument("--pos", type=float, default=0.5, help="positive edge probability")
    p.add_argument("--neg", type=float, default=0.3, help="negative edge probability")
    p.add_argument("--loop", type=float, default=0.3, help="loop probability")

    p = commands["switch"] = sub.add_parser("switch", help="apply a switching function and print the graph")
    p.set_defaults(handler=_cmd_switch)
    p.add_argument("path", help="graph file")
    p.add_argument("--sigma", required=True, help="comma-separated +/- per vertex")
    return parser, commands


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, commands = _parser()
    # the top-level parser would only read argv[0] and hand the rest to the
    # command's own parser, so a named command goes to that parser at once;
    # anything else (no command, -h, an unknown command) gets the top level
    command = commands.get(argv[0]) if argv else None
    args = command.parse_args(argv[1:]) if command else parser.parse_args(argv)
    try:
        return args.handler(args)
    except (FalkError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
