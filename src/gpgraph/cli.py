"""Command-line front end.

Subcommands:
  group build SPEC      construct a group and emit its Cayley table
  graph gp|pg SPEC      emit GP(G) or P(G) under an explicit convention
  check SPEC            completeness / component / planarity summary
  verify                run the theorem harness over the catalog
"""

from __future__ import annotations

import argparse
import sys

from .catalog import build, parse_spec
from .groups import cayley_table_lines, write_cayley_table
from .planarity import is_planar
from .powergraph import VertexConvention, generalized_power_graph, power_graph
from .verify import (
    VerifyConfig,
    _graph_facts,
    format_report_line,
    punctured_counterexample_free,
    reports_to_json,
    run_all,
)

CONVENTION_FLAGS = [c.value for c in VertexConvention]


def _add_convention(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--convention", required=True, choices=CONVENTION_FLAGS,
        help="vertex set rule (mandatory; the theorems are convention-sensitive)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gpgraph",
        description="Power graphs of finite groups: build, inspect, verify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_group = sub.add_parser("group", help="group-level operations")
    group_sub = p_group.add_subparsers(dest="group_command", required=True)
    p_build = group_sub.add_parser("build", help="construct a group, emit its Cayley table")
    p_build.add_argument("spec", help="group spec, e.g. cyclic:12, gq:16, product:(dihedral:4)x(cyclic:3)")
    p_build.add_argument("--out", help="write the table here instead of stdout")

    p_graph = sub.add_parser("graph", help="emit a power graph")
    graph_sub = p_graph.add_subparsers(dest="graph_command", required=True)
    for name, help_text in (("gp", "generalized power graph GP(G)"),
                            ("pg", "classical power graph P(G)")):
        sp = graph_sub.add_parser(name, help=help_text)
        sp.add_argument("spec")
        _add_convention(sp)
        sp.add_argument("--dot", help="write DOT output here")
        sp.add_argument("--edges", help="write edge-list output here")

    p_check = sub.add_parser("check", help="summary for one group")
    p_check.add_argument("spec")
    _add_convention(p_check)

    p_verify = sub.add_parser("verify", help="run the theorem-verification harness")
    p_verify.add_argument("--max-order", type=int, default=64)
    p_verify.add_argument("--conventions", default="strict,punctured",
                          help="comma-separated list of conventions (default strict,punctured; "
                               "all four: strict,strict-id,punctured,full)")
    p_verify.add_argument("--json", help="write the JSON report here")
    p_verify.add_argument("--workers", type=int, default=1,
                          help="ignored; kept so existing command lines still run")
    p_verify.add_argument("--no-dedupe", action="store_true",
                          help="keep fingerprint-duplicate catalog entries")
    return parser


def _cmd_group_build(args) -> int:
    group = build(parse_spec(args.spec))
    if args.out:
        write_cayley_table(group, args.out)
    else:
        sys.stdout.writelines(cayley_table_lines(group))
    return 0


def _cmd_graph(args) -> int:
    group = build(parse_spec(args.spec))
    convention = VertexConvention.from_flag(args.convention)
    builder = generalized_power_graph if args.graph_command == "gp" else power_graph
    graph = builder(group, convention)
    wrote = False
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(graph.to_dot())
        wrote = True
    if args.edges:
        with open(args.edges, "w", encoding="utf-8") as fh:
            fh.write(graph.to_edge_list())
        wrote = True
    if not wrote:
        sys.stdout.write(graph.to_edge_list())
    return 0


def _cmd_check(args) -> int:
    spec = parse_spec(args.spec)
    group = build(spec)
    convention = VertexConvention.from_flag(args.convention)
    graph = generalized_power_graph(group, convention)
    [facts] = _graph_facts(group.prime_subgroup_incidence()[graph.labels], [graph.v], [group.n])
    verdict = is_planar(graph)
    sizes = sorted(facts["component_sizes"], reverse=True)
    print(f"group: {spec.to_text()} ({spec.name}, order {group.n})")
    print(f"convention: {convention.value}")
    print(f"vertices: {graph.v}")
    print(f"edges: {graph.edge_count()}")
    print(f"complete: {'yes' if facts['complete'] else 'no'}")
    print(f"components: {len(sizes)}" + (f" (sizes: {', '.join(map(str, sizes))})" if sizes else ""))
    print(f"components all complete: {'yes' if facts['components_complete'] else 'no'}")
    print(f"planar: {'yes' if verdict.planar else 'no'} (method: {verdict.method})")
    return 0


def _cmd_verify(args) -> int:
    conventions = tuple(
        VertexConvention.from_flag(flag.strip())
        for flag in args.conventions.split(",")
        if flag.strip()
    )
    config = VerifyConfig(
        max_order=args.max_order,
        conventions=conventions,
        dedupe=not args.no_dedupe,
    )
    reports = run_all(config)
    for report in reports:
        print(format_report_line(report))
    discrepancies = [(r, f) for r in reports for f in r.discrepancies]
    if discrepancies:
        print("\nconvention discrepancies (not counterexamples):")
        for r, f in discrepancies:
            print(f"  {r.theorem} [{r.convention}] {f.group}: {f.observed}, "
                  f"classification says {f.expected}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(reports_to_json(reports))
    return 0 if punctured_counterexample_free(reports) else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "group":
            return _cmd_group_build(args)
        if args.command == "graph":
            return _cmd_graph(args)
        if args.command == "check":
            return _cmd_check(args)
        return _cmd_verify(args)
    except (ValueError, OSError) as exc:
        # spec parse errors, bad family parameters, table validation failures
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
