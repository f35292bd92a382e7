"""Command-line front end.

Exit codes: 0 success, 1 property failure, 2 parse error, 3 semantic error
(unknown vertex, unsupported graph, negative verify bound, a non-prime
``--prime`` or one past the int64-exact bound), 4 resource cutoff, 5
internal error (any other exception; one ``internal error:`` line on stderr).
An exception inside a ``verify`` or ``oracle-check`` row check is recorded as
a failure of its rows (exit 1); only one outside the row checks exits 5.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields

from .errors import (
    GraphDocumentError,
    GraphMismatchError,
    InvalidArgumentError,
    LatticeTooLargeError,
    OracleDimensionError,
    OracleUnsupportedError,
    UnknownVertexError,
)
from .graphdoc import dump_graph_json, load_graph
from .hereditary import hs_closure, lattice_pass, lattice_with_regularity
from .ideals import analyze, perp, quotient_graph
from .oracle import block_cache, build_oracle
from .verify import VerifyConfig, oracle_checks_for_graph, run_verification


def _format_names(names) -> str:
    return "{" + ", ".join(names) + "}"


def _split_generators(raw: str):
    return [v for v in (part.strip() for part in raw.split(",")) if v]


def cmd_analyze(args) -> int:
    graph = load_graph(args.graph)
    generators = graph.vertex_subset(_split_generators(args.generators))
    report = analyze(graph, generators)
    if args.json:
        print(json.dumps(report.to_json_dict(), indent=2, sort_keys=True))
        return 0
    q = report.quotient
    print(f"graph: {len(graph.vertices)} vertices, {len(graph.edges)} edges")
    print(f"ideal vertex set: {_format_names(sorted(report.ideal.vertices))}")
    print(f"backward closure: {_format_names(sorted(report.bar_closure))}")
    print(f"perp vertex set: {_format_names(sorted(report.perp_set))}")
    print(f"double perp vertex set: {_format_names(sorted(report.double_perp_set))}")
    print(f"regular: {'yes' if report.is_regular else 'no'}")
    print(
        f"quotient graph: {len(q.vertices)} vertices, {len(q.edges)} edges "
        f"({_format_names(sorted(q.vertices))})"
    )
    print(f"quotient satisfies condition (L): {'yes' if report.quotient_condition_l else 'no'}")
    print(f"exit-free cycle sets match: {'yes' if report.pc_bijection_holds else 'no'}")
    return 0


def cmd_lattice(args) -> int:
    graph = load_graph(args.graph)
    if args.dot:
        print(_lattice_dot(graph, list(lattice_with_regularity(graph))), end="")
        return 0
    if args.json:
        _write_lattice_json(graph, sys.stdout)
        return 0
    count, listing = lattice_pass(graph, lambda v: v + ", ", "")
    print(f"{count} hereditary saturated sets")
    for members, reg in listing:
        sys.stdout.write(f"{{{members[:-2]}}} regular={'yes' if reg else 'no'}\n")
    return 0


def _write_lattice_json(graph, out) -> None:
    """Write ``json.dump(entries, out, indent=2)`` and a newline, one set at a time.

    ``entries`` is ``[{"vertices": [...sorted names], "is_regular": flag}]``
    over the sets of the lattice pass, in its order.  Each vertex name is
    encoded once, with the separator that follows it in a member list, into
    the pass's per-chunk tables, so the pass hands each set over as its member
    list already written: the writer cuts the last separator and writes the
    entry, and no set object is formed.  Each entry is written as soon as the
    pass yields it, so the writer holds neither the document nor the listing.
    A graph past the cutoff is refused before anything is written.
    """
    _, listing = lattice_pass(graph, lambda v: json.dumps(v) + ",\n      ", "")
    opening = "[\n"
    for members, reg in listing:
        vertices = f"[\n      {members[:-8]}\n    ]" if members else "[]"  # cut the last ",\n      "
        flag = "true" if reg else "false"
        out.write(f'{opening}  {{\n    "vertices": {vertices},\n    "is_regular": {flag}\n  }}')
        opening = ",\n"
    out.write("\n]\n")


def _lattice_dot(graph, flagged) -> str:
    """Hasse diagram: one node per set, an arrow from each set to each upper cover.

    Every upper cover of a is the closure of a plus one vertex (any vertex of
    the cover outside a generates it over a), and the minimal such closures
    are exactly the covers: at most |vertices| closures per set.  Each label
    is a DOT quoted string: a backslash or a quote in a name is escaped.
    """
    lines = ["digraph hs_lattice {", "  rankdir=BT;"]
    position = {}
    for i, (h, reg) in enumerate(flagged):
        position[h.vertices] = i
        label = _format_names(h.sorted_vertices()).replace("\\", "\\\\").replace('"', '\\"')
        if reg:
            label += "\\nregular"
        lines.append(f'  n{i} [label="{label}"];')
    for i, (a, _reg) in enumerate(flagged):
        above = {
            hs_closure(graph, a.vertices | {v}).vertices
            for v in graph.vertices
            if v not in a.vertices
        }
        covers = sorted(position[b] for b in above if not any(c < b for c in above))
        lines.extend(f"  n{i} -> n{j};" for j in covers)
    lines.append("}")
    return "\n".join(lines) + "\n"


def cmd_quotient(args) -> int:
    graph = load_graph(args.graph)
    generators = graph.vertex_subset(_split_generators(args.generators))
    quotient = quotient_graph(graph, hs_closure(graph, generators))
    print(dump_graph_json(quotient), end="")
    return 0


def cmd_perp(args) -> int:
    graph = load_graph(args.graph)
    generators = graph.vertex_subset(_split_generators(args.generators))
    h = hs_closure(graph, generators)
    annihilator = perp(h).vertices  # bar(H) is its complement: one backward search
    payload = {
        "ideal": sorted(h.vertices),
        "bar_closure": sorted(v for v in graph.vertices if v not in annihilator),
        "perp": sorted(annihilator),
    }
    if args.json:
        print(json.dumps(payload, indent=2))
        return 0
    print(f"ideal vertex set: {_format_names(payload['ideal'])}")
    print(f"backward closure: {_format_names(payload['bar_closure'])}")
    print(f"perp vertex set: {_format_names(payload['perp'])}")
    return 0


def cmd_verify(args) -> int:
    cfg = VerifyConfig(
        max_vertices=args.max_vertices,
        max_edges=args.max_edges,
        trials=args.trials,
        seed=args.seed,
        prime=args.prime,
    )
    matrix = run_verification(cfg)
    if args.json:
        print(json.dumps(matrix.to_json_dict(), indent=2, sort_keys=True))
    else:
        print(matrix.render_text(), end="")
    return 0 if matrix.passed else 1


@block_cache()
def cmd_oracle_check(args) -> int:
    graph = load_graph(args.graph)
    algebra = build_oracle(graph, args.prime)
    counts, failures = oracle_checks_for_graph(graph, args.prime, algebra=algebra, trials=0)
    print(f"oracle dimension: {algebra.dimension} over GF({args.prime})")
    failed_rows = {f.row for f in failures}
    for row, trials in counts.items():
        status = "FAIL" if row in failed_rows else "ok"
        print(f"{row:<38} {trials:>6} checks  {status}")
    for f in failures:
        print(f"failure[{f.row}]: {f.detail}")
    return 0 if not failures else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="leavitt",
        description=(
            "Graded and regular ideals of Leavitt path algebras of finite graphs, "
            "computed on vertex sets and cross-checked by a matrix oracle."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="regularity report for the ideal generated by vertices")
    p.add_argument("--graph", required=True, help="graph document (JSON)")
    p.add_argument("--generators", default="", help="comma-separated vertex ids")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("lattice", help="all hereditary saturated sets with regularity flags")
    p.add_argument("--graph", required=True)
    p.add_argument("--dot", action="store_true", help="emit a DOT Hasse diagram")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_lattice)

    p = sub.add_parser("quotient", help="quotient graph by the ideal generated by vertices")
    p.add_argument("--graph", required=True)
    p.add_argument("--generators", default="")
    p.set_defaults(func=cmd_quotient)

    p = sub.add_parser("perp", help="annihilator ideal of the ideal generated by vertices")
    p.add_argument("--graph", required=True)
    p.add_argument("--generators", default="")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_perp)

    p = sub.add_parser("verify", help="run the property suites and print the pass/fail matrix")
    for field in fields(VerifyConfig):
        p.add_argument("--" + field.name.replace("_", "-"), type=int, default=field.default)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("oracle-check", help="matrix-oracle agreement for one acyclic graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--prime", type=int, default=2)
    p.set_defaults(func=cmd_oracle_check)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except GraphDocumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (
        UnknownVertexError, GraphMismatchError, OracleUnsupportedError, InvalidArgumentError
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (LatticeTooLargeError, OracleDimensionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except Exception as exc:  # a crash outside the row checks is neither a user error nor a failure
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
