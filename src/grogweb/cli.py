"""Command-line front end.

Subcommands: jaco, competition, grog solve, grog run, enumerate, verify.
stdout carries data, stderr carries diagnostics; --out redirects the data
to a file.  Exit codes: 0 success / all asserts pass, 1 assertion or
strategy failure or a skipped assert, 2 usage, parse or cap error.

Each subcommand imports the modules it uses when it runs, so `jaco`,
`competition` and `--help` never load the game engine, web enumeration
or the claim harness, and `grog` loads the engine but not the other two.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import chain

from .graphs import GraphError

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def _load_json_file(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (ValueError, RecursionError) as exc:
        # ValueError covers malformed JSON, bytes that are not UTF-8 and an
        # integer past Python's digit limit; RecursionError deep nesting
        raise GraphError(f"invalid JSON in {path}: {exc}") from None


def _emit(text: str, out: str | None, rest=()) -> None:
    """Write `text`, then each string of `rest`, to the file `out` or stdout."""
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.writelines(rest)
    else:
        sys.stdout.write(text)
        sys.stdout.writelines(rest)


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _arc_list(arcs) -> str:
    return " ".join(f"({t},{h})" for t, h in arcs)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_jaco(args) -> int:
    from .graphs import digraph_to_dot
    from .jaco import build_jaco, jaco_to_json

    jg = build_jaco(args.n)
    if args.format == "json":
        text = _json_text(jaco_to_json(jg))
    elif args.format == "dot":
        text = digraph_to_dot(jg.digraph)
    else:
        jaconian = "none" if jg.jaconian is None else str(jg.jaconian)
        text = (
            f"Jaco graph of order {jg.n} ({len(jg.digraph.arcs)} arcs)\n"
            f"arcs: {_arc_list(jg.digraph.arcs)}\n"
            f"jaconian vertex: {jaconian}\n"
        )
    _emit(text, args.out)
    return EXIT_OK


def cmd_competition(args) -> int:
    from .competition import (
        check_theorem_1_1,
        competition_graph,
        competition_to_dot,
        competition_to_json,
        jaco_competition_closed_form,
    )
    from .graphs import digraph_from_json
    from .jaco import build_jaco

    if args.input is None and args.jaco is None:
        raise GraphError("competition needs an input graph file or --jaco N")
    if args.input is not None and args.jaco is not None:
        raise GraphError("competition takes an input graph file or --jaco N, not both")
    if args.check:
        if args.jaco is None:
            raise GraphError("--check needs --jaco N")
        result = check_theorem_1_1(args.jaco)
        if result.all_equal:
            _emit("equal\n", args.out)
            return EXIT_OK
        bad = [r for r in result.results if not r["equal"]][0]
        _emit(f"MISMATCH at n={bad['n']}: missing={bad['missing']} extra={bad['extra']}\n", args.out)
        return EXIT_FAIL
    if args.closed_form:
        if args.jaco is None:
            raise GraphError("--closed-form needs --jaco N")
        comp = jaco_competition_closed_form(args.jaco)
    else:
        if args.jaco is not None:
            d = build_jaco(args.jaco).digraph
        else:
            d = digraph_from_json(_load_json_file(args.input))
        comp = competition_graph(d)
    if args.format == "json":
        text = _json_text(competition_to_json(comp))
    elif args.format == "dot":
        text = competition_to_dot(comp)
    else:
        text = (
            f"competition graph on {comp.ugraph.n} vertices\n"
            f"edges: {_arc_list(comp.ugraph.edges) or '(none)'}\n"
            f"isolated: {' '.join(map(str, comp.isolated)) or '(none)'}\n"
        )
    _emit(text, args.out)
    return EXIT_OK


def cmd_grog_solve(args) -> int:
    from .engine import Web, solve_exact, solve_result_to_json
    from .graphs import digraph_from_json

    web = Web(digraph_from_json(_load_json_file(args.input)))
    result = solve_exact(web)
    if args.format == "json":
        text = _json_text(solve_result_to_json(result, include_witness=args.witness))
    else:
        lines = [
            f"grog number: {result.grog}",
            f"max predations: {result.max_predations}",
            f"states explored: {result.states_explored}",
        ]
        if args.witness:
            steps = ", ".join(
                f"({b.predator} -> {' '.join(map(str, sorted(b.prey)))})"
                for b in result.witness
            )
            lines.append(f"witness: {steps or '(empty)'}")
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return EXIT_OK


def cmd_grog_run(args) -> int:
    from .engine import StrategyError, Web, run_result_to_json, run_strategy, strategy_from_json
    from .graphs import digraph_from_json

    web = Web(digraph_from_json(_load_json_file(args.input)))
    strategy = strategy_from_json(_load_json_file(args.strategy))
    try:
        result = run_strategy(web, strategy, require_exit=args.require_exit)
    except StrategyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    if args.format == "json":
        text = _json_text(run_result_to_json(result))
    else:
        text = (
            f"residual: {result.residual}\n"
            f"predations: {result.predation_count}\n"
            f"final population: {' '.join(map(str, result.final_state.pop))}\n"
        )
    _emit(text, args.out)
    return EXIT_OK


def cmd_enumerate(args) -> int:
    from .engine import enumerate_greedy, solve_exact
    from .graphs import digraph_to_json, ugraph_from_json, ugraph_to_json, underlying
    from .webs import (
        check_web_order,
        complete_graph,
        cycle_graph,
        enumerate_webs,
        grog_and_distribution,
        path_graph,
        star_graph,
        web_count_formula,
    )

    families = {
        "path": path_graph,
        "cycle": cycle_graph,
        "star": star_graph,
        "complete": complete_graph,
    }
    if args.graph in families:
        if args.n is None:
            raise GraphError(f"--graph {args.graph} needs --n")
        check_web_order(args.n)  # before the family builds a base of that order
        base = families[args.graph](args.n)
    else:
        base = ugraph_from_json(_load_json_file(args.graph))
    if args.format == "csv" and not args.distribution:
        raise GraphError("csv output needs --distribution")
    # grog_and_distribution checks the base before anything is counted; one walk
    # of the label placements gives both graph-level values.  The raw stream
    # repeats each web |Aut| times
    grog, witness, histogram, aut = grog_and_distribution(base)
    formula = web_count_formula(base.n, len(base.edges))
    distribution = {r: c * (1 if args.dedup else aut) for r, c in histogram.items()}
    web_count = sum(distribution.values())
    # only the greedy counts depend on orientation, so only --distribution
    # walks the webs, and csv, which prints no count, walks none
    greedy = (
        (w, enumerate_greedy(w)) for w in enumerate_webs(base, dedup=args.dedup)
    ) if args.distribution and args.format != "csv" else ()

    def json_rows():
        """Each web's row, indented as json.dumps indents it inside "webs";
        one exact solve per labelled edge set."""
        solved: dict[tuple[tuple[int, int], ...], int] = {}
        for w, g in greedy:
            key = underlying(w.digraph).edges
            if key not in solved:
                solved[key] = solve_exact(w).grog
            row = {
                "arcs": [list(a) for a in w.digraph.arcs],
                "grog": solved[key],
                "greedy_count": g.count,
                "greedy_min": g.min_residual,
            }
            yield "    " + json.dumps(row, indent=2).replace("\n", "\n    ")

    rest = ()
    if args.format == "csv":
        text = "residual,count\n" + "".join(f"{r},{c}\n" for r, c in distribution.items())
    elif args.format == "json":
        obj = {
            "base": ugraph_to_json(base),
            "dedup": args.dedup,
            "web_count": web_count,
            "formula_count": formula,
            "grog": grog,
            "witness": digraph_to_json(witness.digraph),
        }
        if not args.distribution:
            text = _json_text(obj)
        else:
            obj["distribution"] = [
                {"residual": r, "count": c} for r, c in distribution.items()
            ]
            obj["webs"] = []
            # the rows stream into the empty list
            head, tail = _json_text(obj).rsplit("[]", 1)
            rows = json_rows()
            text = f"{head}[\n{next(rows)}"
            rest = chain((",\n" + row for row in rows), ("\n  ]" + tail,))
    else:
        lines = [
            f"base graph: n={base.n}, {len(base.edges)} edges",
            f"webs enumerated: {web_count}{' (dedup)' if args.dedup else ''}"
            f"    half-formula count: {formula}",
            f"grog number g(G) = {grog}",
        ]
        if args.distribution:
            counts = {g.count for _, g in greedy}
            lines.append("residual distribution:")
            lines += [f"  {r}: {c}" for r, c in distribution.items()]
            lines.append(f"greedy strategies per web: min {min(counts)}, max {max(counts)}")
        text = "\n".join(lines) + "\n"
    _emit(text, args.out, rest)
    return EXIT_OK


def _verify_summary(report: dict) -> str:
    lines = [f"{'claim':<22}{'mode':<14}{'status':<10}{'instances':>9}"]
    for claim in report["claims"]:
        lines.append(
            f"{claim['id']:<22}{claim['mode']:<14}{claim['status']:<10}{claim['instances']:>9}"
        )
        for failure in claim["failures"][:3]:
            lines.append(f"    counterexample: {json.dumps(failure)}")
        reason = claim["values"].get("skip_reason")
        if reason:
            lines.append(f"    skipped: {reason}")
    lines.append(f"overall: {report['status']}")
    return "\n".join(lines) + "\n"


def cmd_verify(args) -> int:
    from . import claims

    if args.claim and args.claim not in claims.CLAIM_INFO:
        print(f"error: unknown claim id {args.claim!r}", file=sys.stderr)
        print(f"known ids: {', '.join(claims.CLAIM_ORDER)}", file=sys.stderr)
        return EXIT_USAGE
    ids = [args.claim] if args.claim else claims.CLAIM_ORDER
    config = claims.HarnessConfig(seed=args.seed)
    if args.n_max is not None:
        fields = {claims.CLAIM_INFO[cid][2] for cid in ids} - {None}
        config = config._replace(**dict.fromkeys(fields, args.n_max))
    report = claims.run_claims(ids, config)

    # with --out the JSON report goes to the file and the summary to stdout
    if args.out:
        _emit(_json_text(report), args.out)
    if args.format == "json" and not args.out:
        _emit(_json_text(report), None)
    else:
        _emit(_verify_summary(report), None)
    return EXIT_OK if report["status"] == "pass" else EXIT_FAIL


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grogweb",
        description="Jaco graphs, competition graphs, and exact grog numbers of predation webs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, formats):
        p.add_argument("--format", choices=formats, default="text")
        p.add_argument("--out", metavar="PATH", help="write output to a file instead of stdout")

    p = sub.add_parser("jaco", help="construct a Jaco graph")
    p.add_argument("--n", type=int, required=True)
    common(p, ["text", "json", "dot"])
    p.set_defaults(func=cmd_jaco)

    p = sub.add_parser("competition", help="competition graph of a digraph")
    p.add_argument("input", nargs="?", help="digraph JSON file")
    p.add_argument("--jaco", type=int, metavar="N", help="use the Jaco graph of order N as input")
    p.add_argument("--closed-form", action="store_true", help="use the Jaco closed form (n >= 5)")
    p.add_argument("--check", action="store_true",
                   help="compare closed form and direct computation for 5..N")
    common(p, ["text", "json", "dot"])
    p.set_defaults(func=cmd_competition)

    p = sub.add_parser("grog", help="solve a web or replay a strategy")
    gsub = p.add_subparsers(dest="grog_command", required=True)

    ps = gsub.add_parser("solve", help="exact grog number of a web")
    ps.add_argument("input", help="digraph JSON file")
    ps.add_argument("--witness", action="store_true", help="include a witness strategy")
    common(ps, ["text", "json"])
    ps.set_defaults(func=cmd_grog_solve)

    pr = gsub.add_parser("run", help="replay a strategy file against a web")
    pr.add_argument("input", help="digraph JSON file")
    pr.add_argument("--strategy", required=True, help="strategy JSON file")
    pr.add_argument("--require-exit", action="store_true",
                    help="fail unless the strategy reaches a terminal state")
    common(pr, ["text", "json"])
    pr.set_defaults(func=cmd_grog_run)

    p = sub.add_parser("enumerate", help="enumerate the webs of a base graph")
    p.add_argument("--graph", required=True,
                   help="path | cycle | star | complete (with --n), or a graph JSON file")
    p.add_argument("--n", type=int)
    p.add_argument("--dedup", action="store_true", help="emit each distinct web once")
    p.add_argument("--distribution", action="store_true",
                   help="include the residual histogram and per-web greedy counts")
    common(p, ["text", "json", "csv"])
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("verify", help="machine-check the claim catalog")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--all", action="store_true", help="run every claim (default)")
    group.add_argument("--claim", metavar="ID", help="run a single claim by id")
    p.add_argument("--n-max", type=int, help="override the range cap of range-based claims")
    p.add_argument("--seed", type=int, default=42)
    common(p, ["text", "json"])
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (GraphError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
