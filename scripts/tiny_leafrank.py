#!/usr/bin/env python3
"""Exhaustive leaf-rank table for all small graphs.

Enumerates every graph on up to ``--max-vertices`` vertices (one per
isomorphism class, via the networkx graph atlas), runs the exhaustive
leaf-rank search on each, and prints a table plus a per-rank census.  Ranks
reported as ``?`` mean the search found no leaf root within the host budget;
that is an honest "unknown", not a proof that none exists.

Example:
    python3 scripts/tiny_leafrank.py --max-vertices 4 --max-nodes 8
    python3 scripts/tiny_leafrank.py --max-vertices 5 --max-nodes 10 --max-k 2
"""
from __future__ import annotations

import argparse
import sys
from collections import Counter
from dataclasses import dataclass

import networkx as nx

from leafpower import Graph, brute_force_leaf_rank


@dataclass(frozen=True)
class TableConfig:
    max_vertices: int
    max_nodes: int
    max_k: int | None


def parse_args(argv: list[str] | None = None) -> TableConfig:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-vertices", type=int, default=4,
                        help="largest graph order to include (default 4, cap 6)")
    parser.add_argument("--max-nodes", type=int, default=8,
                        help="host-tree node budget for the search (default 8)")
    parser.add_argument("--max-k", type=int, default=None,
                        help="optional cap on the distance threshold")
    args = parser.parse_args(argv)
    if not 1 <= args.max_vertices <= 6:
        parser.error("max-vertices must be between 1 and 6")
    if args.max_nodes < 2:
        parser.error("max-nodes must be at least 2")
    if args.max_nodes < args.max_vertices:
        parser.error("max-nodes must be at least max-vertices")
    if args.max_k is not None and args.max_k < 1:
        parser.error("max-k must be at least 1")
    return TableConfig(args.max_vertices, args.max_nodes, args.max_k)


def atlas_graphs(max_vertices: int) -> list[Graph]:
    graphs = []
    for g in nx.graph_atlas_g():
        if g.number_of_nodes() == 0 or g.number_of_nodes() > max_vertices:
            continue
        names = {node: f"v{node}" for node in g.nodes}
        graphs.append(Graph.build(
            sorted(names.values()),
            [(names[u], names[v]) for u, v in g.edges],
        ))
    return graphs


def main(argv: list[str] | None = None) -> int:
    config = parse_args(argv)
    census: Counter[str] = Counter()
    header = f"{'#':>4} {'verts':>6} {'edges':>6} {'rank':>5}  edge list"
    print(header)
    print("-" * len(header))
    for index, graph in enumerate(atlas_graphs(config.max_vertices)):
        rank = brute_force_leaf_rank(
            graph, config.max_nodes, max_k=config.max_k
        )
        label = "?" if rank is None else str(rank)
        census[label] += 1
        edge_list = " ".join(f"{u}{v}".replace("v", "") for u, v in graph.edges)
        print(f"{index:>4} {graph.n:>6} {len(graph.edges):>6} {label:>5}  "
              f"{edge_list or '-'}")
    print()
    print("census by rank:")
    for label in sorted(census, key=lambda s: (s == "?", s)):
        print(f"  rank {label}: {census[label]} graph(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
