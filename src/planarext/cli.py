"""Command-line surface over the bounds, constructions, and the oracle.

Exit codes: 0 on success (including a confirmed or realizable-only
verdict), 2 when verification disproves the closed form (the oracle
built a better graph than the bound allows), 1 on usage or input errors
and on requests beyond the enumeration budget.

Each command imports only the modules it runs: `bound` loads
`planarext.bounds` alone, and only `table` and `verify` load the oracle.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    from .graphs import Graph


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; 2 is reserved for falsification here
    def error(self, message: str) -> None:
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


_G6_HELP = "a graph6 string, or - to read one from standard input"


def _read_graph(arg: str) -> Graph:
    """The graph that a g6 argument names.

    "-" is never graph6 (its byte is below 63), so it stands for standard
    input, which carries graphs too long for one command-line argument.
    """
    from .serialize import graph6_decode

    return graph6_decode(sys.stdin.read().strip() if arg == "-" else arg)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="planarext",
        description="Edge-extremal planar graphs with bounded degree and matching number.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bound", help="print the maximum edge count for a class")
    p.add_argument("d", type=int)
    p.add_argument("nu", type=int)
    p.add_argument(
        "--class",
        dest="cls",
        choices=("planar", "general", "outerplanar"),
        default="planar",
    )

    p = sub.add_parser("construct", help="emit an edge-extremal construction")
    p.add_argument("d", type=int)
    p.add_argument("nu", type=int)
    p.add_argument(
        "--class", dest="cls", choices=("planar", "general"), default="planar"
    )
    p.add_argument("--format", choices=("g6", "dot", "json"), default="g6")

    p = sub.add_parser("check", help="certify a graph against class parameters")
    p.add_argument("g6", help=_G6_HELP)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--nu", type=int, required=True)

    p = sub.add_parser("table", help="best component edge counts per matching number")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)

    p = sub.add_parser("verify", help="compare the enumeration oracle to the formula")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--nu", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--checkpoint", default=None)

    p = sub.add_parser("color", help="properly edge-color a graph with at most Δ+1 colors")
    p.add_argument("g6", help=_G6_HELP)

    p = sub.add_parser("realize", help="search for a planar graph with given degrees")
    p.add_argument(
        "degrees",
        nargs="+",
        help="degree tokens, each 'k' or 'k^count' (e.g. 5^10 4)",
    )
    p.add_argument("--timeout", type=float, default=30.0)

    return parser


def _parse_degree_tokens(tokens: Sequence[str]) -> list[int]:
    from .serialize import _G6_MAX_ORDER

    pairs: list[tuple[int, int]] = []
    for tok in tokens:
        base, sep, count = tok.partition("^")
        try:
            value = int(base)
            repeat = int(count) if sep else 1
        except ValueError:
            raise ValueError(f"bad degree token {tok!r} (want 'k' or 'k^count')") from None
        if repeat < 0:
            raise ValueError(f"bad repeat count in {tok!r}")
        pairs.append((value, repeat))
    total = sum(repeat for _value, repeat in pairs)
    # graph6 prints no larger order
    if total > _G6_MAX_ORDER:
        raise ValueError(f"at most {_G6_MAX_ORDER} degrees, got {total}")
    return [value for value, repeat in pairs for _ in range(repeat)]


def _run(args: argparse.Namespace) -> int:
    # with d < 1 or nu < 1 the class is empty: nothing to bound, build or certify
    if args.command in ("bound", "construct", "check") and (args.d < 1 or args.nu < 1):
        raise ValueError(f"d and nu must be at least 1, got d={args.d}, nu={args.nu}")

    if args.command == "bound":
        from .bounds import max_edges_general, max_edges_outerplanar, max_edges_planar

        fn = {
            "planar": max_edges_planar,
            "general": max_edges_general,
            "outerplanar": max_edges_outerplanar,
        }[args.cls]
        print(fn(args.d, args.nu))
        return 0

    if args.command == "construct":
        from .constructions import extremal_general, pivotal_planar
        from .serialize import dot_export, graph6_encode

        build = pivotal_planar if args.cls == "planar" else extremal_general
        g = build(args.d, args.nu)
        if args.format == "g6":
            print(graph6_encode(g))
        elif args.format == "dot":
            print(dot_export(g), end="")
        else:
            payload = {
                "d": args.d,
                "nu": args.nu,
                "class": args.cls,
                "n": g.n,
                "edge_count": g.m,
                "graph_g6": graph6_encode(g),
            }
            print(json.dumps(payload, indent=2))
        return 0

    if args.command == "check":
        from .serialize import certificate

        report = certificate(_read_graph(args.g6), args.d, args.nu)
        print(report.to_json())
        return 0

    if args.command in ("table", "verify"):
        from .enumeration import BudgetExceededError
        from .oracle import FalsificationError, component_table, verify_theorem
        from .serialize import graph6_encode

        # no other command can raise these two
        try:
            if args.command == "table":
                payload = [
                    {
                        "mu": rec.mu,
                        "best_edges": rec.best_edges,
                        "exhaustive": rec.exhaustive,
                        "witness_g6": graph6_encode(rec.witness),
                    }
                    for rec in component_table(args.d, args.n_max)
                ]
            else:
                verdict = verify_theorem(
                    args.d,
                    args.nu,
                    args.n_max,
                    workers=args.workers,
                    checkpoint=args.checkpoint,
                )
                payload = {
                    "d": args.d,
                    "nu": args.nu,
                    "n_max": args.n_max,
                    "status": verdict.status,
                    "oracle_value": verdict.oracle_value,
                    "formula_value": verdict.formula_value,
                }
        except FalsificationError as exc:
            print(f"planarext: FALSIFIED: {exc}", file=sys.stderr)
            return 2
        except BudgetExceededError as exc:
            print(f"planarext: error: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(payload, indent=2))
        return 0

    if args.command == "color":
        from .coloring import vizing_color

        g = _read_graph(args.g6)
        coloring = vizing_color(g)
        payload = {
            "palette_size": coloring.palette_size,
            "edges": [
                {"u": u, "v": v, "color": coloring.color_of[(u, v)]}
                for u, v in sorted(coloring.color_of)
            ],
        }
        print(json.dumps(payload, indent=2))
        return 0

    from .realize import realize_degree_sequence_planar
    from .serialize import graph6_encode

    degrees = _parse_degree_tokens(args.degrees)
    result = realize_degree_sequence_planar(degrees, budget=args.timeout)
    payload = {
        "degrees": sorted(degrees, reverse=True),
        "status": result.status,
        "graph_g6": None if result.graph is None else graph6_encode(result.graph),
    }
    print(json.dumps(payload, indent=2))
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _run(args)
    except BrokenPipeError:
        # the reader left: the exit-time flush of stdout goes nowhere too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, OSError) as exc:
        print(f"planarext: error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("planarext: error: out of memory", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
