"""Command-line front end: build, convert, audit, search, census, certify, report.

Every command writes deterministic output (sorted keys, canonical edge order)
to stdout or --out, so identical invocations produce byte-identical files.
Exit codes: 0 success; 1 verification or certification failure (audit does not
hold, no leaf root found, imported model does not verify); 2 usage errors,
including unreadable or unparsable input files and an --out file that cannot
be written.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from pathlib import Path
from typing import Callable, NamedTuple, TextIO, TypeVar

from .audit import lower_bound_certificate, report_to_json_obj, report_to_text
from .census import leaf_rank_census
from .certify import (
    build_feasibility_system,
    certify_leaf_power,
    system_to_lp_text,
    weighted_leafroot_to_json_obj,
    witness_margin,
)
from .graphs import graph_from_json_obj, graph_to_dot, graph_to_json_obj
from .jsonio import dumps
from .models import (
    RSModel,
    rs_model_from_json_obj,
    rs_model_to_dot,
    rs_model_to_json_obj,
    rs_model_violations,
    subtree_model_to_dot,
    subtree_model_to_json_obj,
)
from .rn import (
    MAX_EXPONENTIAL_N,
    _check_exponential_n,
    build_exponential_rs_model,
    build_rdp_model,
    build_rn,
    rn_shape,
)
from .roots import (
    brute_force_leaf_rank,
    leafroot_from_json_obj,
    leafroot_to_dot,
    leafroot_to_json_obj,
    leafroot_to_rs,
    rs_to_leafroot,
)

T = TypeVar("T")

#: What a command hands to :func:`main`: the text to write and the exit code.  A refusal
#: raises ValueError (exit 2) or _Refused (exit 1) instead, and then nothing is written.
Result = tuple[str, int]


class _Refused(ValueError):
    """Input that reads but does not verify: exit 1 with the message, no output."""


def _read(path: str, parse: Callable[[object], T], what: str) -> T:
    """The parsed UTF-8 JSON file; ValueError with a one-line message if it cannot be read."""
    try:
        return parse(json.loads(Path(path).read_text(encoding="utf-8")))
    except (OSError, ValueError, RecursionError) as exc:
        raise ValueError(f"cannot load {what}: {exc}") from None


def _write(path: str, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot write output: {exc}") from None


def _emit(stream: TextIO, text: str) -> None:
    """Write ``text`` as the UTF-8 bytes an ``--out`` file would hold, whatever the locale."""
    if hasattr(stream, "buffer"):  # not a StringIO under contextlib's redirects
        stream.flush()
        stream.buffer.write(text.encode("utf-8"))
        stream.buffer.flush()
    else:
        stream.write(text)


def _json_or_dot(
    args: argparse.Namespace, obj: object, to_json_obj: Callable, to_dot: Callable, **dot: str
) -> Result:
    if args.format == "json":
        return dumps(to_json_obj(obj)), 0
    return to_dot(obj, **dot), 0


class _Builder(NamedTuple):
    """One command that prints an object built from ``--n``."""

    help: str
    build: Callable[[int], object]
    to_json_obj: Callable[[object], object]
    to_dot: Callable[..., str]
    dot_prefix: str


def _exponential_model(n: int) -> RSModel:
    """R_n's exponential ball model; a too-large n is refused before R_n is built."""
    _check_exponential_n(n)
    return build_exponential_rs_model(build_rn(n))


_BUILDERS = {
    "build-rn": _Builder(
        "construct the graph R_n",
        lambda n: build_rn(n).graph, graph_to_json_obj, graph_to_dot, "R",
    ),
    "rdp-model": _Builder(
        "caterpillar model of R_n (root-directed paths)",
        lambda n: build_rdp_model(build_rn(n)),
        subtree_model_to_json_obj, subtree_model_to_dot, "RDP",
    ),
    "rs-model": _Builder(
        "exponential-radius ball model of R_n",
        _exponential_model,
        rs_model_to_json_obj, rs_model_to_dot, "RS",
    ),
}


def _cmd_build(args: argparse.Namespace) -> Result:
    row = args.builder
    obj = row.build(args.n)
    return _json_or_dot(args, obj, row.to_json_obj, row.to_dot, name=f"{row.dot_prefix}{args.n}")


def _cmd_audit(args: argparse.Namespace) -> Result:
    if args.model is None and args.n is None:
        raise ValueError("audit needs --n or --model")
    model = None if args.model is None else _read(args.model, rs_model_from_json_obj, "model")
    n = args.n if model is None else len(model.graph.vertices) // 4
    if args.n is not None and args.n != n:
        raise ValueError(f"--n {args.n} does not match the model ({n})")
    if model is None:
        _check_exponential_n(n)
    elif n < 3:
        raise _Refused("not a model of R_n: R_n has at least 12 vertices")
    elif rn_shape(n) != (frozenset(model.graph.vertices), len(model.graph.edges)):
        raise _Refused("not a model of R_n: the model's graph differs")
    r = build_rn(n)
    if model is None:
        model = build_exponential_rs_model(r)
    try:
        report = lower_bound_certificate(r, model)
    except ValueError as exc:
        raise _Refused(str(exc)) from None
    if args.format == "json":
        obj = report_to_json_obj(report)
        if not report.holds:
            obj = {"model": rs_model_to_json_obj(model), "report": obj}
        text = dumps(obj)
    else:
        text = report_to_text(report)
        if not report.holds:
            text += "offending model:\n" + dumps(rs_model_to_json_obj(model))
    return text, 0 if report.holds else 1


def _cmd_leafrank(args: argparse.Namespace) -> Result:
    graph = _read(args.graph, graph_from_json_obj, "graph")
    rank = brute_force_leaf_rank(graph, args.max_nodes, args.max_k)
    return ("unknown" if rank is None else str(rank)) + "\n", 0 if rank is not None else 1


def _cmd_census(args: argparse.Namespace) -> Result:
    return dumps(leaf_rank_census(args.max_vertices, args.max_nodes, args.max_k)), 0


def _cmd_certify(args: argparse.Namespace) -> Result:
    graph = _read(args.graph, graph_from_json_obj, "graph")
    witness = certify_leaf_power(graph, args.max_internal)
    if witness is None:
        return "no root within bound\n", 1
    if args.format == "json":
        return dumps(weighted_leafroot_to_json_obj(witness)), 0
    system = build_feasibility_system(graph, witness.host, witness.placement)
    lines = ["certified: weighted leaf root found", f"margin: {witness_margin(witness)}"]
    lines += [f"weight {u} -- {v}: {w}" for (u, v), w in sorted(witness.lengths.items())]
    lines += [f"place {vertex} at {leaf}" for vertex, leaf in sorted(witness.placement.items())]
    return "\n".join(lines) + "\n\n" + system_to_lp_text(system), 0


def _cmd_convert(args: argparse.Namespace) -> Result:
    if args.source == "leafroot":
        root = _read(args.input, leafroot_from_json_obj, "leaf root")
        return _json_or_dot(args, leafroot_to_rs(root), rs_model_to_json_obj, rs_model_to_dot)
    model = _read(args.input, rs_model_from_json_obj, "model")
    if problems := rs_model_violations(model):
        raise _Refused(f"model does not verify: {problems[0]}")
    return _json_or_dot(args, rs_to_leafroot(model), leafroot_to_json_obj, leafroot_to_dot)


def _cmd_report(args: argparse.Namespace) -> Result:
    if not 3 <= args.n_min <= args.n_max <= MAX_EXPONENTIAL_N:
        raise ValueError(f"range must satisfy 3 <= n-min <= n-max <= {MAX_EXPONENTIAL_N}")
    rows = []
    for n in range(args.n_min, args.n_max + 1):
        model = build_exponential_rs_model(build_rn(n))
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
    if args.format == "json":
        return dumps(rows), 0
    columns = ("n", "vertices", "lower_bound", "upper_bound", "max_radius")
    bound = ("lower_bound_in_parameter", "lower_bound_in_vertices", "lower_bound")
    cells = "{:>3} {:>8} {:>8} {:>10} {:>10}  {}".format
    lines = [cells("n", "vertices", "lower", "upper", "max_radius", "bound in n / in vertices")]
    for row in rows:
        lines.append(cells(*(row[c] for c in columns), " = ".join(str(row[b]) for b in bound)))
    return "\n".join(lines) + "\n", 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="leafpower", description="Leaf powers, tree representations, and the hard family R_n."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, formats: tuple[str, ...]) -> None:
        p.add_argument("--format", choices=formats, default=formats[0])
        p.add_argument("--out", default=None, help="output file (default stdout)")

    for name, row in _BUILDERS.items():
        p = sub.add_parser(name, help=row.help)
        p.add_argument("--n", type=int, required=True)
        add_common(p, ("json", "dot"))
        p.set_defaults(func=_cmd_build, builder=row)

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

    p = sub.add_parser("census", help="brute-force leaf ranks of all small chordal graphs")
    p.add_argument("--max-vertices", type=int, required=True)
    p.add_argument("--max-nodes", type=int, required=True)
    p.add_argument("--max-k", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_census)

    p = sub.add_parser("certify", help="search for an exact weighted leaf root")
    p.add_argument("--graph", required=True, help="graph JSON file")
    p.add_argument("--max-internal", type=int, required=True)
    add_common(p, ("json", "text"))
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("convert", help="convert between leaf roots and ball models")
    p.add_argument("--from", dest="source", choices=("leafroot", "rs"), required=True)
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
    """Run one command; the only place that writes output or maps errors to exit codes."""
    args = build_parser().parse_args(argv)
    # The package makes no reference cycles (tests/test_package.py checks every
    # command), so reference counting frees all a command allocates and the
    # cyclic collector would only walk R_n's large trees to find nothing.
    enabled = gc.isenabled()
    gc.disable()
    try:
        text, code = args.func(args)
        if args.out is not None:
            _write(args.out, text)
        else:
            _emit(sys.stdout, text)
    except ValueError as exc:
        _emit(sys.stderr, f"{exc}\n")
        return 1 if isinstance(exc, _Refused) else 2
    finally:
        if enabled:
            gc.enable()
    return code


if __name__ == "__main__":
    sys.exit(main())
