"""Command-line front end: build, convert, audit, search, certify, report.

Every command writes deterministic output (sorted keys, canonical edge order)
to stdout or --out, so identical invocations produce byte-identical files.
Exit codes: 0 success; 1 verification or certification failure (audit does not
hold, no leaf root found, imported model does not verify); 2 usage errors,
including unreadable or unparsable input files.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Callable, TypeVar

from .audit import lower_bound_certificate, report_to_json_obj, report_to_text
from .certify import (
    build_feasibility_system,
    certify_leaf_power,
    system_to_lp_text,
    weighted_leafroot_to_json_obj,
)
from .graphs import graph_from_json_obj, graph_to_dot, graph_to_json_obj
from .jsonio import dumps
from .models import (
    expand_rs,
    rs_model_from_json_obj,
    rs_model_to_dot,
    rs_model_to_json_obj,
    subtree_model_to_dot,
    subtree_model_to_json_obj,
    subtree_model_violations,
)
from .rn import MAX_EXPONENTIAL_N, build_exponential_rs_model, build_rdp_model, build_rn
from .roots import (
    brute_force_leaf_rank,
    leafroot_from_json_obj,
    leafroot_to_dot,
    leafroot_to_json_obj,
    leafroot_to_rs,
    rs_to_leafroot,
)

T = TypeVar("T")


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _fail(message: str, code: int) -> int:
    print(message, file=sys.stderr)
    return code


def _read(path: str, parse: Callable[[object], T], what: str) -> T | None:
    """The parsed JSON file, or None after a one-line message on stderr."""
    try:
        return parse(json.loads(Path(path).read_text()))
    except (OSError, ValueError) as exc:
        _fail(f"cannot load {what}: {exc}", 2)
        return None


def _cmd_build_rn(args: argparse.Namespace) -> int:
    try:
        r = build_rn(args.n)
    except ValueError as exc:
        return _fail(str(exc), 2)
    text = (
        dumps(graph_to_json_obj(r.graph))
        if args.format == "json"
        else graph_to_dot(r.graph, name=f"R{args.n}")
    )
    _emit(text, args.out)
    return 0


def _cmd_rdp_model(args: argparse.Namespace) -> int:
    try:
        model = build_rdp_model(build_rn(args.n))
    except ValueError as exc:
        return _fail(str(exc), 2)
    text = (
        dumps(subtree_model_to_json_obj(model))
        if args.format == "json"
        else subtree_model_to_dot(model, name=f"RDP{args.n}")
    )
    _emit(text, args.out)
    return 0


def _cmd_rs_model(args: argparse.Namespace) -> int:
    try:
        model = build_exponential_rs_model(build_rn(args.n))
    except ValueError as exc:
        return _fail(str(exc), 2)
    text = (
        dumps(rs_model_to_json_obj(model))
        if args.format == "json"
        else rs_model_to_dot(model, name=f"RS{args.n}")
    )
    _emit(text, args.out)
    return 0


def _cmd_audit(args: argparse.Namespace) -> int:
    if args.model is None and args.n is None:
        return _fail("audit needs --n or --model", 2)
    if args.model is not None:
        model = _read(args.model, rs_model_from_json_obj, "model")
        if model is None:
            return 2
        n = len(model.graph.vertices) // 4
        if args.n is not None and args.n != n:
            return _fail(f"--n {args.n} does not match the model ({n})", 2)
    else:
        n = args.n
    try:
        r = build_rn(n)
    except ValueError as exc:
        return _fail(str(exc), 2)
    if args.model is None:
        try:
            model = build_exponential_rs_model(r)
        except ValueError as exc:
            return _fail(str(exc), 2)
    try:
        report = lower_bound_certificate(r, model)
    except ValueError as exc:
        return _fail(str(exc), 1)

    if args.format == "json":
        obj = report_to_json_obj(report)
        if not report.holds:
            obj = {"model": rs_model_to_json_obj(model), "report": obj}
        text = dumps(obj)
    else:
        text = report_to_text(report)
        if not report.holds:
            text += "offending model:\n" + dumps(rs_model_to_json_obj(model))
    _emit(text, args.out)
    return 0 if report.holds else 1


def _cmd_leafrank(args: argparse.Namespace) -> int:
    graph = _read(args.graph, graph_from_json_obj, "graph")
    if graph is None:
        return 2
    try:
        rank = brute_force_leaf_rank(graph, args.max_nodes, args.max_k)
    except ValueError as exc:
        return _fail(str(exc), 2)
    _emit(("unknown" if rank is None else str(rank)) + "\n", args.out)
    return 0 if rank is not None else 1


def _cmd_certify(args: argparse.Namespace) -> int:
    graph = _read(args.graph, graph_from_json_obj, "graph")
    if graph is None:
        return 2
    try:
        witness = certify_leaf_power(graph, args.max_internal)
    except ValueError as exc:
        return _fail(str(exc), 2)
    if witness is None:
        _emit("no root within bound\n", args.out)
        return 1
    if args.format == "json":
        text = dumps(weighted_leafroot_to_json_obj(witness))
    else:
        system = build_feasibility_system(graph, witness.host, witness.placement)
        lines = ["certified: weighted leaf root found", f"margin: {witness.margin}"]
        for (u, v), w in sorted(witness.weights.items()):
            lines.append(f"weight {u} -- {v}: {w}")
        for vertex, leaf in sorted(witness.placement.items()):
            lines.append(f"place {vertex} at {leaf}")
        text = "\n".join(lines) + "\n\n" + system_to_lp_text(system)
    _emit(text, args.out)
    return 0


def _cmd_convert(args: argparse.Namespace) -> int:
    if args.source == "leafroot":
        root = _read(args.input, leafroot_from_json_obj, "leaf root")
        if root is None:
            return 2
        model = leafroot_to_rs(root)
        text = (
            dumps(rs_model_to_json_obj(model))
            if args.format == "json"
            else rs_model_to_dot(model)
        )
    else:
        model = _read(args.input, rs_model_from_json_obj, "model")
        if model is None:
            return 2
        problems = subtree_model_violations(expand_rs(model))
        if problems:
            return _fail(f"model does not verify: {problems[0]}", 1)
        try:
            root = rs_to_leafroot(model)
        except ValueError as exc:
            return _fail(str(exc), 2)
        text = (
            dumps(leafroot_to_json_obj(root))
            if args.format == "json"
            else leafroot_to_dot(root)
        )
    _emit(text, args.out)
    return 0


def _report_rows(n_min: int, n_max: int) -> list[dict]:
    rows = []
    for n in range(n_min, n_max + 1):
        r = build_rn(n)
        model = build_exponential_rs_model(r)
        max_radius = max(model.radii[v] for v in model.graph.vertices)
        rows.append(
            {
                "n": n,
                "vertices": 4 * n,
                "lower_bound": 2 ** (n - 2),
                "max_radius": max_radius,
                "upper_bound": 2 * max_radius + 2,
                "lower_bound_in_parameter": f"2^({n}-2)",
                "lower_bound_in_vertices": f"2^(({4 * n}-8)/4)",
            }
        )
    return rows


def _cmd_report(args: argparse.Namespace) -> int:
    if not 3 <= args.n_min <= args.n_max <= MAX_EXPONENTIAL_N:
        return _fail(
            f"range must satisfy 3 <= n-min <= n-max <= {MAX_EXPONENTIAL_N}", 2
        )
    rows = _report_rows(args.n_min, args.n_max)
    if args.format == "json":
        text = dumps(rows)
    else:
        header = (
            f"{'n':>3} {'vertices':>8} {'lower':>8} {'upper':>10} "
            f"{'max_radius':>10}  bound in n / in vertices"
        )
        lines = [header]
        for row in rows:
            lines.append(
                f"{row['n']:>3} {row['vertices']:>8} {row['lower_bound']:>8} "
                f"{row['upper_bound']:>10} {row['max_radius']:>10}  "
                f"{row['lower_bound_in_parameter']} = "
                f"{row['lower_bound_in_vertices']} = {row['lower_bound']}"
            )
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="leafpower",
        description="Leaf powers, tree representations, and the hard family R_n.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, formats: tuple[str, ...]) -> None:
        p.add_argument("--format", choices=formats, default=formats[0])
        p.add_argument("--out", default=None, help="output file (default stdout)")

    p = sub.add_parser("build-rn", help="construct the graph R_n")
    p.add_argument("--n", type=int, required=True)
    add_common(p, ("json", "dot"))
    p.set_defaults(func=_cmd_build_rn)

    p = sub.add_parser("rdp-model", help="caterpillar model of R_n (root-directed paths)")
    p.add_argument("--n", type=int, required=True)
    add_common(p, ("json", "dot"))
    p.set_defaults(func=_cmd_rdp_model)

    p = sub.add_parser("rs-model", help="exponential-radius ball model of R_n")
    p.add_argument("--n", type=int, required=True)
    add_common(p, ("json", "dot"))
    p.set_defaults(func=_cmd_rs_model)

    p = sub.add_parser("audit", help="run the lower-bound checks on a ball model of R_n")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--model", default=None, help="ball model JSON (default: built-in)")
    add_common(p, ("text", "json"))
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser("leafrank", help="brute-force leaf rank of a tiny graph")
    p.add_argument("--graph", required=True, help="graph JSON file")
    p.add_argument("--max-nodes", type=int, required=True)
    p.add_argument("--max-k", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_leafrank)

    p = sub.add_parser("certify", help="search for an exact weighted leaf root")
    p.add_argument("--graph", required=True, help="graph JSON file")
    p.add_argument("--max-internal", type=int, required=True)
    add_common(p, ("json", "text"))
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("convert", help="convert between leaf roots and ball models")
    p.add_argument(
        "--from",
        dest="source",
        choices=("leafroot", "rs"),
        required=True,
    )
    p.add_argument("--input", required=True)
    add_common(p, ("json", "dot"))
    p.set_defaults(func=_cmd_convert)

    p = sub.add_parser("report", help="bounds table for a range of n")
    p.add_argument("--n-min", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)
    add_common(p, ("text", "json"))
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
