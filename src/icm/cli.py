"""Command-line front end: `icm <verb> [args] [--out PATH] [--format ...]`.

Exit codes: 0 success (or boolean true), 1 boolean false / failed checks,
2 usage, parse, or domain errors (an unreadable or non-UTF-8 map file, an
unwritable `--out` path and a closed stdout included), 3 violated
preconditions, 4 resource cap or an integer too long for Python to print.
The library reads the cap from ICM_BREAKPOINT_CAP (`core._check_cap`), so
every verb that composes, counts laps, or builds a tent or a pullback graph
is bounded by it.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

from . import entropy as ent
from . import oracle, pwl, setvalued as sv
from .core import PLMap, compose, iterate, rat, tent
from .decompose import (common_fixed_point, decompose,
                        primary_critical_values)
from .errors import DomainError, IcmError, ParseError, ResourceError


def parse_map_file(path: str) -> PLMap:
    try:
        return pwl.read_map(path)
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _write_out(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        try:
            with open(out, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise DomainError(f"cannot write {out}: {exc}") from exc


# -- graph emission ------------------------------------------------------------

def emit_graph(segments: sv.SegmentSet, fmt: str,
               xlines: tuple[Fraction, ...] = (),
               ylines: tuple[Fraction, ...] = ()) -> str:
    if fmt == "csv":
        rows = ["x1,y1,x2,y2"]
        rows += [f"{s.a[0]},{s.a[1]},{s.b[0]},{s.b[1]}" for s in segments]
        return "\n".join(rows) + "\n"
    if fmt == "svg":
        return _svg(segments, xlines, ylines)
    raise DomainError(f"unknown graph format {fmt!r}")


def _svg(segments: sv.SegmentSet, xlines, ylines) -> str:
    pad, size = 40.0, 560.0

    def sx(v: Fraction) -> str:
        return f"{pad + float(v) * size:.12g}"

    def sy(v: Fraction) -> str:
        return f"{pad + (1.0 - float(v)) * size:.12g}"

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="640" height="640" '
        f'viewBox="0 0 640 640">',
        f'<rect x="{pad:.12g}" y="{pad:.12g}" width="{size:.12g}" '
        f'height="{size:.12g}" fill="none" stroke="black"/>',
    ]
    for x in xlines:
        parts.append(f'<line x1="{sx(x)}" y1="{sy(Fraction(0))}" x2="{sx(x)}" '
                     f'y2="{sy(Fraction(1))}" stroke="gray" '
                     f'stroke-dasharray="6 4"/>')
    for y in ylines:
        parts.append(f'<line x1="{sx(Fraction(0))}" y1="{sy(y)}" '
                     f'x2="{sx(Fraction(1))}" y2="{sy(y)}" stroke="gray" '
                     f'stroke-dasharray="6 4"/>')
    for s in segments:
        if s.is_point:
            parts.append(f'<circle cx="{sx(s.a[0])}" cy="{sy(s.a[1])}" '
                         f'r="4" fill="black"/>')
        else:
            parts.append(f'<line x1="{sx(s.a[0])}" y1="{sy(s.a[1])}" '
                         f'x2="{sx(s.b[0])}" y2="{sy(s.b[1])}" '
                         f'stroke="black" stroke-width="2"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# -- command handlers ------------------------------------------------------------

def _cmd_tent(args) -> int:
    _write_out(pwl.dump_map_text(tent(args.n)), args.out)
    return 0


def _cmd_eval(args) -> int:
    f = parse_map_file(args.map)
    print(f(rat(args.x)))
    return 0


def _cmd_compose(args) -> int:
    f, g = parse_map_file(args.f), parse_map_file(args.g)
    _write_out(pwl.dump_map_text(compose(f, g)), args.out)
    return 0


def _cmd_iterate(args) -> int:
    f = parse_map_file(args.map)
    _write_out(pwl.dump_map_text(iterate(f, args.k)), args.out)
    return 0


def _cmd_decide(args) -> int:
    f, g = parse_map_file(args.f), parse_map_file(args.g)
    result = getattr(sv, args.predicate)(f, g)
    print("true" if result else "false")
    return 0 if result else 1


def _cmd_graph(args) -> int:
    f, g = parse_map_file(args.f), parse_map_file(args.g)
    graph = (sv.forward_graph(f, g) if args.kind == "forward"
             else sv.pullback_graph(f, g))
    xlines = f.critical_points().xs
    ylines = g.critical_points().xs
    _write_out(emit_graph(graph, args.format, xlines, ylines), args.out)
    return 0


def _cmd_features(args) -> int:
    f, g = parse_map_file(args.f), parse_map_file(args.g)
    for feat in getattr(sv, args.feature)(f, g):
        print(f"{feat.location[0]} {feat.location[1]} {feat.kind}")
    return 0


def _cmd_profile(args) -> int:
    f, g = parse_map_file(args.f), parse_map_file(args.g)
    prof = sv.profile(f, g)
    print(f"hats h_1..h_n: {list(prof.hat_counts)}")
    print(f"endpoints e_0..e_n: {list(prof.endpoint_counts)}")
    print(f"total hats: {prof.total_hats}")
    print(f"total endpoints: {prof.total_endpoints}")
    print(f"end-hat present: {str(prof.has_end_hat).lower()}")
    print(f"chain sums: {list(prof.chain_sums)} (each >= 2: "
          f"{str(prof.chain_holds).lower()})")
    print(f"count bound holds: {str(prof.count_bound_holds).lower()}")
    print(f"parity bound holds: {str(prof.parity_bound_holds).lower()}")
    return 0


def _cmd_verify(args) -> int:
    f, g = parse_map_file(args.f), parse_map_file(args.g)
    report = sv.verify_strong_consequences(f, g)
    if args.oracle is not None:
        agrees = oracle.brute_force_strong_commute(f, g, args.oracle)
        report.add(f"oracle-agreement-n{args.oracle}", agrees)
    print(report)
    return 0 if report.passed else 1


def _cmd_decompose(args) -> int:
    f, g = parse_map_file(args.f), parse_map_file(args.g)
    decomposition = decompose(f, g)
    if args.format == "json":
        _write_out(json.dumps(decomposition.as_dict(), indent=2) + "\n",
                   args.out)
    else:
        lines = [f"case: {decomposition.case}",
                 f"points: {' '.join(str(p) for p in decomposition.points)}"]
        if decomposition.reverser:
            lines.append(f"reverser: {decomposition.reverser}")
        for block in decomposition.blocks:
            tags = ", ".join(f"{k}: {info.tag} -> {info.image}"
                             for k, info in block.restrictions)
            lines.append(f"{block.interval}: {tags}")
        _write_out("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_fixed_points(args) -> int:
    f = parse_map_file(args.map)
    fixed = f.fixed_points()
    print("isolated: " + " ".join(str(p) for p in fixed.isolated))
    print("segments: " + " ".join(str(s) for s in fixed.segments))
    return 0


def _cmd_common_fixed_point(args) -> int:
    f, g = parse_map_file(args.f), parse_map_file(args.g)
    print(common_fixed_point(f, g))
    return 0


def _cmd_primary_values(args) -> int:
    f = parse_map_file(args.map)
    pv = primary_critical_values(f)
    print("values: " + " ".join(str(v) for v in pv.values))
    print(f"start index: {pv.start_index}")
    print("exacting: " + " ".join("?" if t is None else str(t)
                                  for t in pv.exacting))
    print(f"orientation: {pv.orientation}")
    return 0


def _cmd_entropy(args) -> int:
    if args.iters < 1:
        raise DomainError("k_max must be a positive integer")
    if args.g is not None and args.method != "auto":
        raise DomainError(f"--method {args.method} takes one map, not two")
    f = parse_map_file(args.f)
    if args.g is not None:
        g = parse_map_file(args.g)
        print(f"{ent.entropy_setvalued(f, g, k_max=args.iters):.12g}")
        return 0
    route = ent._route(f, args.method, args.iters)
    if isinstance(route, ent.LapSequence):
        k, count = route.laps[-1]
        print(f"log({count})/{k} ~= {route.estimate:.12g}")
    else:
        print(f"log {route.spectral_radius:.12g} ~= "
              f"{ent.entropy_markov(route):.12g}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="icm",
        description="Exact piecewise-linear interval dynamics toolkit")
    sub = parser.add_subparsers(dest="verb", required=True)

    def add(name, handler, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(handler=handler)
        return p

    p = add("tent", _cmd_tent, help="write the symmetric n-tent map")
    p.add_argument("n", type=int)
    p.add_argument("--out")

    p = add("eval", _cmd_eval, help="evaluate a map at a rational point")
    p.add_argument("map")
    p.add_argument("x")

    p = add("compose", _cmd_compose, help="exact composition f∘g")
    p.add_argument("f")
    p.add_argument("g")
    p.add_argument("--out")

    p = add("iterate", _cmd_iterate, help="k-fold iterate of a map")
    p.add_argument("map")
    p.add_argument("k", type=int)
    p.add_argument("--out")

    # The parser is built once per process, so it holds the names of the
    # `sv` functions, not the functions: they are looked up at call time, and
    # a wrapper installed on the module after the first call is the one called.
    p = add("commute", _cmd_decide, help="decide f∘g = g∘f")
    p.set_defaults(predicate="commute")
    p.add_argument("f")
    p.add_argument("g")

    p = add("strong-commute", _cmd_decide,
            help="decide f∘g⁻¹ = g⁻¹∘f as set-valued maps")
    p.set_defaults(predicate="strongly_commute")
    p.add_argument("f")
    p.add_argument("g")

    p = add("graph", _cmd_graph, help="emit a set-valued composition graph")
    p.add_argument("f")
    p.add_argument("g")
    p.add_argument("--kind", choices=["forward", "pullback"],
                   default="forward")
    p.add_argument("--format", choices=["csv", "svg"], default="csv")
    p.add_argument("--out")

    p = add("hats", _cmd_features, help="hats of the graph of g⁻¹∘f")
    p.set_defaults(feature="hats")
    p.add_argument("f")
    p.add_argument("g")

    p = add("endpoints", _cmd_features, help="endpoints of the graph of g⁻¹∘f")
    p.set_defaults(feature="endpoints")
    p.add_argument("f")
    p.add_argument("g")

    p = add("profile", _cmd_profile, help="hat/endpoint counts and inequalities")
    p.add_argument("f")
    p.add_argument("g")

    p = add("verify", _cmd_verify,
            help="check the consequences of strong commutation")
    p.add_argument("f")
    p.add_argument("g")
    p.add_argument("--oracle", type=int, nargs="?", const=360, default=None,
                   help="also cross-check with the grid oracle (default n=360)")

    p = add("decompose", _cmd_decompose, help="invariant-interval decomposition")
    p.add_argument("f")
    p.add_argument("g")
    p.add_argument("--format", choices=["json", "text"], default="json")
    p.add_argument("--out")

    p = add("fixed-points", _cmd_fixed_points, help="exact fixed set of a map")
    p.add_argument("map")

    p = add("common-fixed-point", _cmd_common_fixed_point,
            help="least common fixed point of a strongly commuting pair")
    p.add_argument("f")
    p.add_argument("g")

    p = add("entropy", _cmd_entropy, help="topological entropy")
    p.add_argument("f")
    p.add_argument("g", nargs="?", default=None,
                   help="second map: entropy of the set-valued composition")
    p.add_argument("--method", choices=["auto", "lap", "markov"],
                   default="auto")
    p.add_argument("--iters", type=int, default=12)

    p = add("primary-values", _cmd_primary_values,
            help="primary critical values, exacting points, orientation")
    p.add_argument("map")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.handler(args)
        sys.stdout.flush()  # a closed pipe fails here, not at exit
        return code
    except BrokenPipeError as exc:
        # the interpreter flushes stdout again on exit: send that to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: cannot write stdout: {exc}", file=sys.stderr)
        return 2
    except IcmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, DomainError):
            return 2
        return 4 if isinstance(exc, ResourceError) else 3
    except ValueError as exc:
        # `str` of an int past sys.get_int_max_str_digits() (Python 3.11+)
        if "integer string conversion" not in str(exc):
            raise
        print("error: the output holds an integer of more than "
              f"{sys.get_int_max_str_digits()} digits, past Python's limit "
              "on integer string conversion", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
