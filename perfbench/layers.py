"""Per-layer tracing: spans and counts recorded around the program's public functions.

:class:`Tracer` replaces each function in :data:`TARGETS` by a wrapper in
every ``leafpower`` module namespace that holds it (``models.distances_from``
and ``roots.distances_from`` are the same object), and puts the originals back
on :meth:`Tracer.uninstall`.  A wrapper records one span (name, start, end,
parent) per call, or per ``next()`` for a generator, and may add counts taken
from the arguments and the result.  Spans stay in memory; a layer's self time
is its spans' durations minus the time covered by their child spans.
"""

from __future__ import annotations

import contextlib
import inspect
import statistics
import sys
import time
from typing import Callable

Counts = dict[str, int]


def _add(counts: Counts, key: str, value: int) -> None:
    counts[key] = counts.get(key, 0) + value


#: (module, attribute, counting hook).  The attribute "Tree.build" is the
#: static method on the class.  Hooks get (counts, args, result); for
#: generators the result is the yielded item.
TARGETS: tuple[tuple[str, str, Callable | None], ...] = (
    ("leafpower.cli", "main", None),
    ("leafpower.rn", "build_rn", None),
    ("leafpower.rn", "build_exponential_rs_model",
     lambda c, a, r: _add(c, "rn.host_nodes", len(r.host.nodes))),
    ("leafpower.graphs", "maximal_cliques", None),
    ("leafpower.trees", "Tree.build", lambda c, a, r: _add(c, "trees.build_nodes", len(r.nodes))),
    ("leafpower.trees", "distances_from", lambda c, a, r: _add(c, "trees.bfs_nodes", len(r))),
    ("leafpower.trees", "tree_path", None),
    ("leafpower.trees", "connecting_path", None),
    ("leafpower.models", "expand_rs",
     lambda c, a, r: _add(c, "models.ball_nodes", sum(map(len, r.assignment.values())))),
    ("leafpower.models", "subtree_model_violations", None),
    ("leafpower.models", "rs_model_violations", None),
    ("leafpower.audit", "branch_points", None),
    ("leafpower.audit", "lower_bound_certificate", None),
    ("leafpower.roots", "rs_to_leafroot", lambda c, a, r: _add(c, "roots.root_nodes", len(r.host.nodes))),
    ("leafpower.roots", "verify_leaf_root", None),
    ("leafpower.roots", "brute_force_leaf_rank", None),
    ("leafpower.enumtrees", "nonisomorphic_trees", None),
    ("leafpower.enumtrees", "trees_with_leaf_count", None),
    ("leafpower.enumtrees", "topology_trees", None),
    ("leafpower.enumtrees", "leaf_orbits", None),
    ("leafpower.enumtrees", "leaf_orbit_representatives", None),
    ("leafpower.certify", "certify_leaf_power", None),
    ("leafpower.certify", "build_feasibility_system", None),
    ("leafpower.certify", "solve_feasibility",
     lambda c, a, r: _add(c, "certify.lp_feasible", int(r.feasible))),
    ("leafpower.exactlp", "maximize", lambda c, a, r: _add(c, "exactlp.rows", len(a[1]))),
)

#: Per-layer metric -> (unit, how it is computed).  A tuple of span names is
#: the sum of their self times; "calls:"/"yields:" count spans; other strings
#: name a count kept by a hook.
METRICS: dict[str, tuple[str, object]] = {
    "rn.build_s": ("s", ("rn.build_rn", "rn.build_exponential_rs_model")),
    "rn.host_nodes": ("count", "rn.host_nodes"),
    "graphs.maximal_cliques_s": ("s", ("graphs.maximal_cliques",)),
    "trees.build_s": ("s", ("trees.Tree.build",)),
    "trees.build_nodes": ("count", "trees.build_nodes"),
    "trees.distances_from_s": ("s", ("trees.distances_from",)),
    "trees.distances_from_calls": ("count", "calls:trees.distances_from"),
    "trees.bfs_nodes": ("count", "trees.bfs_nodes"),
    "trees.tree_path_s": ("s", ("trees.tree_path",)),
    "trees.tree_path_calls": ("count", "calls:trees.tree_path"),
    "trees.connecting_path_s": ("s", ("trees.connecting_path",)),
    "models.expand_rs_s": ("s", ("models.expand_rs",)),
    "models.ball_nodes": ("count", "models.ball_nodes"),
    "models.violations_s": ("s", ("models.subtree_model_violations", "models.rs_model_violations")),
    "audit.branch_points_s": ("s", ("audit.branch_points",)),
    "audit.certificate_s": ("s", ("audit.lower_bound_certificate",)),
    "roots.rs_to_leafroot_s": ("s", ("roots.rs_to_leafroot",)),
    "roots.root_nodes": ("count", "roots.root_nodes"),
    "roots.verify_leaf_root_s": ("s", ("roots.verify_leaf_root",)),
    "roots.brute_force_s": ("s", ("roots.brute_force_leaf_rank",)),
    "roots.hosts_tried": ("count", "yields:enumtrees.trees_with_leaf_count"),
    "enumtrees.nonisomorphic_trees_s": ("s", ("enumtrees.nonisomorphic_trees",)),
    "enumtrees.trees_enumerated": ("count", "yields:enumtrees.nonisomorphic_trees"),
    "enumtrees.topologies": ("count", "yields:enumtrees.topology_trees"),
    "enumtrees.leaf_orbits_s": ("s", ("enumtrees.leaf_orbits", "enumtrees.leaf_orbit_representatives")),
    "certify.candidates": ("count", "calls:certify.build_feasibility_system"),
    "certify.build_system_s": ("s", ("certify.build_feasibility_system",)),
    "certify.lp_feasible_ratio": ("ratio", None),
    "exactlp.solves": ("count", "calls:exactlp.maximize"),
    "exactlp.solve_s": ("s", ("exactlp.maximize",)),
    "exactlp.solve_ms_p50": ("ms", None),
    "exactlp.rows": ("count", "exactlp.rows"),
    "cli.self_s": ("s", ("cli.main",)),
    "cli.output_bytes": ("bytes", "cli.output_bytes"),
}


class Tracer:
    """Spans and counts of one traced round; install, run, uninstall.

    Spans hold wall-clock times; ``scale`` (reference seconds per wall second
    over the round, see clock.py) converts the layer times to the scale of
    the end-to-end metrics.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counts = {}
        self.scale = 1.0
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ recording

    def _open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _wrap(self, name: str, fn: Callable, hook: Callable | None) -> Callable:
        tracer = self

        if inspect.isgeneratorfunction(fn):

            def wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    index = tracer._open(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(index)
                    _add(tracer.counts, "yields:" + name, 1)
                    if hook:
                        hook(tracer.counts, args, item)
                    yield item

        else:

            def wrapper(*args, **kwargs):
                index = tracer._open(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._close(index)
                _add(tracer.counts, "calls:" + name, 1)
                if hook:
                    hook(tracer.counts, args, result)
                return result

        wrapper.__wrapped__ = fn
        return wrapper

    # --------------------------------------------------------- installation

    def install(self) -> None:
        """Put a wrapper in place of every target, wherever a module holds it."""
        modules = [m for key, m in sys.modules.items() if key == "leafpower" or key.startswith("leafpower.")]
        for module_name, attr, hook in TARGETS:
            name = module_name.removeprefix("leafpower.") + "." + attr
            if attr == "Tree.build":
                cls = sys.modules[module_name].Tree
                original = cls.__dict__["build"]
                self._restore.append((cls, "build", original))
                cls.build = staticmethod(self._wrap(name, original.__func__, hook))
                continue
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(name, original, hook)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        """Put every original object back."""
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    # ------------------------------------------------------------ reporting

    def self_times(self) -> dict[str, float]:
        """Total self time per span name."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        totals: dict[str, float] = {}
        for (name, *_), t in zip(self.spans, own):
            totals[name] = totals.get(name, 0.0) + t
        return totals

    def layer_times(self) -> dict[str, float]:
        """Every time-valued per-layer metric of this round, in reference seconds."""
        own = self.self_times()
        out = {
            metric: sum(own.get(span, 0.0) for span in how) * self.scale
            for metric, (_, how) in METRICS.items()
            if isinstance(how, tuple)
        }
        solves = [end - start for name, start, end, _ in self.spans if name == "exactlp.maximize"]
        out["exactlp.solve_ms_p50"] = statistics.median(solves) * 1000 * self.scale if solves else 0.0
        return out

    def layer_counts(self) -> dict[str, float]:
        """Every count-valued per-layer metric of this round."""
        out = {
            metric: self.counts.get(how, 0)
            for metric, (_, how) in METRICS.items()
            if isinstance(how, str)
        }
        solved = self.counts.get("calls:certify.solve_feasibility", 0)
        out["certify.lp_feasible_ratio"] = self.counts.get("certify.lp_feasible", 0) / solved if solved else 0.0
        return out
