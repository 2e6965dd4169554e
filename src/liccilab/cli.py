"""Command line surface.

Subcommands: ``construct`` (graph builders to ideal documents), ``betti``,
``licci``, ``dual``, ``link`` and ``verify-paper``.  All documents are the
JSON forms from :mod:`liccilab.serialize`; ideals read from a file or
stdin.  Exit codes: 0 success, 1 verification failure, 2 bad input.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import serialize
from .betti import betti_table, invariants, taylor_oracle
from .graphs import build, complementary_edge_ideal, edge_ideal, suspension, t_path_ideal
from .harness import DEFAULT_SEED, TASKS, task_ids, verify_paper
from .licci import classify, hu_decide
from .linkage import verify_direct_link
from .monomial import IdealError, MonomialIdeal
from .polarization import depolarize_suspension
from .squarefree import alexander_dual, minimal_primes


def _read_json(path: str):
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise IdealError(f"cannot read document {path!r}: {exc}") from exc


def _read_ideal(path: str) -> MonomialIdeal:
    return serialize.ideal_from_doc(_read_json(path))


def _graph_from_args(args) -> "Graph":
    if args.graph:
        return serialize.graph_from_doc(_read_json(args.graph))
    if not args.kind:
        raise IdealError("give --graph FILE or --kind with its parameters")
    if args.kind == "edge_list" and args.edges:
        try:
            edges = json.loads(args.edges)
        except json.JSONDecodeError as exc:
            raise IdealError(f"--edges is not JSON: {exc}") from exc
        return serialize.graph_from_doc({"n": args.n, "edges": edges})
    params = {}
    if args.n is not None:
        params["n"] = args.n
    if args.k is not None:
        params["k"] = args.k
    if args.isolated is not None:
        params["isolated"] = args.isolated
    return build(args.kind, **params)


def _cmd_construct(args) -> int:
    g = _graph_from_args(args)
    t = args.t
    if args.what == "edge":
        ideal = edge_ideal(g)
    elif args.what == "path":
        ideal = t_path_ideal(g, t)
    elif args.what == "complementary":
        ideal = complementary_edge_ideal(g)
    elif args.what == "suspension":
        ideal = t_path_ideal(suspension(g, t), t)
    else:
        ideal = depolarize_suspension(g, t)
    doc = serialize.ideal_to_doc(ideal)
    if args.text:
        doc = serialize.ideal_to_text_doc(ideal)
    print(serialize.dumps(doc))
    return 0


def _cmd_betti(args) -> int:
    ideal = _read_ideal(args.ideal)
    field = serialize.field_from_doc(args.field)
    engine = taylor_oracle if args.oracle else betti_table
    table = engine(ideal, field)
    inv = invariants(table, ideal)
    doc = serialize.table_to_doc(table)
    doc["invariants"] = {
        "pd": inv.pd,
        "reg": inv.reg,
        "depth": inv.depth,
        "is_CM": inv.is_CM,
        "is_gorenstein": inv.is_gorenstein,
        "has_linear_resolution": inv.has_linear_resolution,
        "alpha": inv.alpha,
        "height": ideal.height(),
    }
    print(serialize.dumps(doc))
    print(table.render(), file=sys.stderr)
    return 0


def _cmd_licci(args) -> int:
    ideal = _read_ideal(args.ideal)
    if args.artinian_only:
        verdict = hu_decide(ideal)
    else:
        verdict = classify(ideal, serialize.field_from_doc(args.field))
    print(serialize.dumps(serialize.verdict_to_doc(verdict)))
    return 0


def _cmd_dual(args) -> int:
    ideal = _read_ideal(args.ideal)
    dual = alexander_dual(ideal)
    primes = minimal_primes(ideal)
    doc = {
        "dual": serialize.ideal_to_doc(dual),
        "minimal_primes": [[ideal.vars[i] for i in p] for p in primes],
    }
    print(serialize.dumps(doc))
    return 0


def _cmd_link(args) -> int:
    first = _read_ideal(args.first)
    second = _read_ideal(args.second)
    regseq = _read_ideal(args.regseq)
    report = verify_direct_link(first, second, regseq.gens)
    print(serialize.dumps(serialize.report_to_doc(report)))
    return 0 if report.passed else 1


def _cmd_verify_paper(args) -> int:
    if args.list:
        for tid in task_ids():
            print(f"{tid}: {TASKS[tid][0]}")
        return 0
    try:
        summary = verify_paper(args.tasks or None, seed=args.seed)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    print(summary.render())
    return 0 if summary.passed else 1


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="licci-cli",
        description="exact computations with monomial ideals: Betti tables, "
        "licci verdicts, Alexander duals, linkage reports",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="build an ideal from a graph")
    c.add_argument("what", choices=["edge", "path", "complementary", "suspension", "depolarize"])
    c.add_argument("--graph", help="graph document (JSON file or -)")
    c.add_argument("--kind", choices=["cycle", "complete", "path", "star", "edge_list"])
    c.add_argument("--n", type=int)
    c.add_argument("--k", type=int, help="star edge count")
    c.add_argument("--isolated", type=int, help="extra isolated vertices for star")
    c.add_argument("--edges", help="JSON list of 1-based pairs for edge_list")
    c.add_argument("--t", type=int, default=2, help="path length parameter (default 2)")
    c.add_argument("--text", action="store_true", help="emit generators in text form")
    c.set_defaults(func=_cmd_construct)

    b = sub.add_parser("betti", help="Betti table and invariants of an ideal")
    b.add_argument("--ideal", required=True, help="ideal document (JSON file or -)")
    b.add_argument("--field", default="q", help="q or fp:<p> (default q)")
    b.add_argument("--oracle", action="store_true", help="use the Taylor-complex engine")
    b.set_defaults(func=_cmd_betti)

    l = sub.add_parser("licci", help="licci verdict with citations and trace")
    l.add_argument("--ideal", required=True)
    l.add_argument("--field", default="q")
    l.add_argument(
        "--artinian-only",
        action="store_true",
        help="run only the Artinian standard-form iteration",
    )
    l.set_defaults(func=_cmd_licci)

    d = sub.add_parser("dual", help="Alexander dual and minimal primes")
    d.add_argument("--ideal", required=True)
    d.set_defaults(func=_cmd_dual)

    k = sub.add_parser("link", help="verify a monomial direct link")
    k.add_argument("--first", required=True)
    k.add_argument("--second", required=True)
    k.add_argument("--regseq", required=True, help="ideal document listing the sequence")
    k.set_defaults(func=_cmd_link)

    v = sub.add_parser("verify-paper", help="run the verification harness")
    v.add_argument("tasks", nargs="*", help="task ids (default: all)")
    v.add_argument("--list", action="store_true", help="list tasks and exit")
    v.add_argument("--seed", type=int, default=DEFAULT_SEED)
    v.set_defaults(func=_cmd_verify_paper)

    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except IdealError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
