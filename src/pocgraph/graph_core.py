"""Core data model: graphs, vertex weights, colorings, orientations, and text I/O.

Vertices are 1-based contiguous ids. Per-vertex arrays (weights, colors) are
tuples of length n indexed by ``vertex - 1``. All values are immutable after
construction; every operation here is a pure function.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable


class FormatError(ValueError):
    """Malformed graph/coloring/orientation text, reported with a line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 1..n.

    ``edges`` holds normalized pairs (u, v) with u < v; loops and duplicates
    are rejected at construction.
    """

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        n = self.n
        if n < 0:
            raise ValueError(f"vertex count must be >= 0, got {n}")
        for u, v in self.edges:
            if not (1 <= u < v <= n):
                if u == v:
                    raise ValueError(f"loop at vertex {u}")
                raise ValueError(f"edge ({u},{v}) not normalized or out of range 1..{n}")

    @staticmethod
    def from_edges(n: int, pairs: Iterable[tuple[int, int]]) -> Graph:
        """Build a graph from unordered pairs, normalizing and rejecting duplicates."""
        seen: set[tuple[int, int]] = set()
        for u, v in pairs:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            e = (u, v) if u < v else (v, u)
            if e in seen:
                raise ValueError(f"duplicate edge {{{e[0]},{e[1]}}}")
            seen.add(e)
        return Graph(n, frozenset(seen))

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def adjacency(self) -> tuple[frozenset[int], ...]:
        """Neighbor sets indexed by vertex id (index 0 unused)."""
        adj: list[set[int]] = [set() for _ in range(self.n + 1)]
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return tuple(frozenset(s) for s in adj)

    def neighbors(self, v: int) -> frozenset[int]:
        return self.adjacency[v]

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def has_edge(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self.edges

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)


@dataclass(frozen=True)
class WeightedGraph:
    """A graph together with a positive integer weight per vertex."""

    graph: Graph
    weights: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.weights) != self.graph.n:
            raise ValueError(
                f"expected {self.graph.n} weights, got {len(self.weights)}"
            )
        if not self.weights or min(self.weights) >= 1:
            return
        for v, w in enumerate(self.weights, start=1):
            if w < 1:
                raise ValueError(f"vertex {v}: weight must be >= 1, got {w}")

    @property
    def n(self) -> int:
        return self.graph.n

    def weight(self, v: int) -> int:
        return self.weights[v - 1]

    @cached_property
    def weight_values(self) -> tuple[int, ...]:
        """Sorted distinct weight values."""
        return tuple(sorted(set(self.weights)))


@dataclass(frozen=True)
class Coloring:
    """A color per vertex plus the declared palette size (colors live in 1..palette)."""

    colors: tuple[int, ...]
    palette: int

    def __post_init__(self) -> None:
        if self.palette < 0:
            raise ValueError(f"palette must be >= 0, got {self.palette}")
        if not self.colors or 1 <= min(self.colors) and max(self.colors) <= self.palette:
            return
        for v, c in enumerate(self.colors, start=1):
            if not (1 <= c <= self.palette):
                raise ValueError(
                    f"vertex {v}: color {c} outside palette 1..{self.palette}"
                )

    def color(self, v: int) -> int:
        return self.colors[v - 1]


@dataclass(frozen=True)
class Orientation:
    """One arc (tail, head) per edge of an underlying graph."""

    graph: Graph
    arcs: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        normalized = {(t, h) if t < h else (h, t) for t, h in self.arcs}
        if len(normalized) == len(self.arcs) and normalized == self.graph.edges:
            return
        covered: set[tuple[int, int]] = set()  # walk the arcs to name the first fault
        for t, h in self.arcs:
            e = (t, h) if t < h else (h, t)
            if e not in self.graph.edges:
                raise ValueError(f"arc ({t},{h}) is not an edge of the underlying graph")
            if e in covered:
                raise ValueError(f"edge {{{e[0]},{e[1]}}} oriented twice")
            covered.add(e)
        if len(covered) != self.graph.m:
            missing = self.graph.edges - covered
            u, v = sorted(missing)[0]
            raise ValueError(f"edge {{{u},{v}}} has no orientation")

    @cached_property
    def out_neighbors(self) -> tuple[frozenset[int], ...]:
        """Out-neighbor sets indexed by vertex id (index 0 unused)."""
        out: list[set[int]] = [set() for _ in range(self.graph.n + 1)]
        for t, h in self.arcs:
            out[t].add(h)
        return tuple(frozenset(s) for s in out)

    def sorted_arcs(self) -> list[tuple[int, int]]:
        return sorted(self.arcs)


# ---------------------------------------------------------------------------
# WPOC text format
#
#   # comment lines start with '#'
#   p wpoc <n> <m>          exactly once, first non-comment line
#   v <id> <weight>         n lines, id = 1..n each exactly once, weight >= 1
#   e <u> <v>               m lines, u != v, unordered, no duplicates
# ---------------------------------------------------------------------------


def _int_fields(parts: list[str], lineno: int, kind: str, count: int) -> list[int]:
    if len(parts) != count + 1:
        raise FormatError(
            f"'{kind}' line needs {count} integer fields, got {len(parts) - 1}", lineno
        )
    try:
        return [int(p) for p in parts[1:]]
    except ValueError:
        raise FormatError(f"non-integer field in '{kind}' line", lineno) from None


def parse_wpoc(text: str) -> WeightedGraph:
    """Parse the WPOC text format into a WeightedGraph.

    Malformed lines, duplicate edges, loops, weights < 1, and out-of-range ids
    all raise FormatError with the offending line number.
    """
    n = m = -1
    weights: dict[int, int] = {}
    edges: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if not parts:
            continue
        tag = parts[0]
        if tag == "e" and n >= 0:  # most lines are edges, so they are parsed inline
            if len(parts) != 3:
                got = len(parts) - 1
                raise FormatError(f"'e' line needs 2 integer fields, got {got}", lineno)
            try:
                u = int(parts[1])
                v = int(parts[2])
            except ValueError:
                raise FormatError("non-integer field in 'e' line", lineno) from None
            if u == v:
                raise FormatError(f"loop at vertex {u}", lineno)
            if not (1 <= u <= n and 1 <= v <= n):
                raise FormatError(f"edge ({u},{v}) out of range 1..{n}", lineno)
            e = (u, v) if u < v else (v, u)
            if e in edges:
                raise FormatError(f"duplicate edge {{{e[0]},{e[1]}}}", lineno)
            edges.add(e)
        elif tag.startswith("#"):
            continue
        elif tag == "p":
            if n >= 0:
                raise FormatError("duplicate 'p' line", lineno)
            if len(parts) != 4 or parts[1] != "wpoc":
                raise FormatError("expected 'p wpoc <n> <m>'", lineno)
            n, m = _int_fields(parts[1:], lineno, "p", 2)
            if n < 0 or m < 0:
                raise FormatError("vertex/edge counts must be >= 0", lineno)
        elif n < 0:
            raise FormatError("first non-comment line must be 'p wpoc <n> <m>'", lineno)
        elif tag == "v":
            vid, w = _int_fields(parts, lineno, "v", 2)
            if not (1 <= vid <= n):
                raise FormatError(f"vertex id {vid} out of range 1..{n}", lineno)
            if vid in weights:
                raise FormatError(f"vertex {vid} declared twice", lineno)
            if w < 1:
                raise FormatError(f"vertex {vid}: weight must be >= 1, got {w}", lineno)
            weights[vid] = w
        else:
            raise FormatError(f"unknown line type {tag!r}", lineno)
    if n < 0:
        raise FormatError("missing 'p wpoc <n> <m>' line")
    if len(weights) != n:
        # ids are distinct and in 1..n, so one of the first len(weights) + 1 is absent
        missing = next(v for v in range(1, len(weights) + 2) if v not in weights)
        raise FormatError(f"missing 'v' line for vertex {missing}")
    if len(edges) != m:
        raise FormatError(f"'p' line declares {m} edges, found {len(edges)}")
    return WeightedGraph(
        Graph(n, frozenset(edges)), tuple(map(weights.__getitem__, range(1, n + 1)))
    )


def serialize_wpoc(g: WeightedGraph) -> str:
    """Render a WeightedGraph in the canonical WPOC layout (p, v..., e... sorted)."""
    lines = [f"p wpoc {g.n} {g.graph.m}"]
    lines += [f"v {v} {w}" for v, w in enumerate(g.weights, start=1)]
    lines += [f"e {u} {v}" for u, v in g.graph.sorted_edges()]
    return "\n".join(lines) + "\n"


def parse_coloring(text: str, n: int) -> Coloring:
    """Parse a coloring file: 'palette <k>' then one 'c <id> <color>' per vertex."""
    palette = -1
    colors: dict[int, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "palette":
            if palette >= 0:
                raise FormatError("duplicate 'palette' line", lineno)
            (palette,) = _int_fields(parts, lineno, "palette", 1)
        elif palette < 0:
            raise FormatError("first non-comment line must be 'palette <k>'", lineno)
        elif parts[0] == "c":
            vid, c = _int_fields(parts, lineno, "c", 2)
            if not (1 <= vid <= n):
                raise FormatError(f"vertex id {vid} out of range 1..{n}", lineno)
            if vid in colors:
                raise FormatError(f"vertex {vid} colored twice", lineno)
            colors[vid] = c
        else:
            raise FormatError(f"unknown line type {parts[0]!r}", lineno)
    if palette < 0:
        raise FormatError("missing 'palette' line")
    if len(colors) != n:
        missing = sorted(set(range(1, n + 1)) - set(colors))
        raise FormatError(f"missing color for vertex {missing[0]}")
    try:
        return Coloring(tuple(colors[v] for v in range(1, n + 1)), palette)
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def serialize_coloring(c: Coloring) -> str:
    lines = [f"palette {c.palette}"]
    lines += [f"c {v} {color}" for v, color in enumerate(c.colors, start=1)]
    return "\n".join(lines) + "\n"


def parse_orientation(text: str, graph: Graph) -> Orientation:
    """Parse an orientation file ('a <tail> <head>' per edge) against its graph."""
    arcs: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] != "a":
            raise FormatError(f"unknown line type {parts[0]!r}", lineno)
        t, h = _int_fields(parts, lineno, "a", 2)
        if not (1 <= t <= graph.n and 1 <= h <= graph.n):
            raise FormatError(f"arc ({t},{h}) out of range 1..{graph.n}", lineno)
        arcs.add((t, h))
    try:
        return Orientation(graph, frozenset(arcs))
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def serialize_orientation(d: Orientation) -> str:
    return "\n".join(f"a {t} {h}" for t, h in d.sorted_arcs()) + "\n"


# ---------------------------------------------------------------------------
# Elementary operations
# ---------------------------------------------------------------------------


def normalize_weights(g: WeightedGraph) -> WeightedGraph:
    """Replace weights by their ranks: distinct values w1 < ... < ws map to 1..s.

    Idempotent, and preserves the sign of w(u) - w(v) for every vertex pair,
    so it never changes which colorings are valid.
    """
    rank = {w: i for i, w in enumerate(g.weight_values, start=1)}
    return WeightedGraph(g.graph, tuple(rank[w] for w in g.weights))


def complement(g: Graph) -> Graph:
    """All vertex pairs not present in g."""
    missing = (
        (u, v)
        for u, v in itertools.combinations(range(1, g.n + 1), 2)
        if (u, v) not in g.edges
    )
    return Graph(g.n, frozenset(missing))


# ---------------------------------------------------------------------------
# Standard constructions
# ---------------------------------------------------------------------------


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, ((i, i + 1) for i in range(1, n)))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError(f"cycle needs n >= 3, got {n}")
    return Graph.from_edges(n, [(i, i + 1) for i in range(1, n)] + [(n, 1)])


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, itertools.combinations(range(1, n + 1), 2))


def complete_multipartite_graph(part_sizes: Iterable[int]) -> Graph:
    """Complete multipartite graph; vertices are numbered part by part."""
    sizes = list(part_sizes)
    if any(s < 1 for s in sizes):
        raise ValueError("part sizes must be >= 1")
    parts: list[range] = []
    start = 1
    for s in sizes:
        parts.append(range(start, start + s))
        start += s
    edges = [
        (u, v)
        for i, j in itertools.combinations(range(len(sizes)), 2)
        for u in parts[i]
        for v in parts[j]
    ]
    return Graph.from_edges(start - 1, edges)


def random_weighted_graph(rng: random.Random, n: int, p: float, t: int) -> WeightedGraph:
    """G(n, p) with uniform weights in 1..t, deterministic for a fixed rng state."""
    # checked before the first draw, so a seeded stream stays as it was
    if not 0 <= p <= 1:
        raise ValueError(f"p must be in [0, 1], got {p}")
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    edges = [
        (u, v)
        for u, v in itertools.combinations(range(1, n + 1), 2)
        if rng.random() < p
    ]
    weights = tuple(rng.randint(1, t) for _ in range(n))
    return WeightedGraph(Graph.from_edges(n, edges), weights)
