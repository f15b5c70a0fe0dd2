"""Properly ordered coloring: validity checking, greedy constructions, and the
orientation <-> coloring correspondences.

A coloring c of a weighted graph is a POC when, across every edge uv:

* w(u) > w(v) implies c(u) > c(v), and
* w(u) = w(v) implies c(u) != c(v).

An acyclic orientation is *good* when every arc runs from a weakly heavier
tail to a weakly lighter head. Good acyclic orientations and POCs translate
into each other. Coloring each vertex of a good acyclic orientation with its
height, the number of vertices on a longest directed path starting at it,
gives a POC whose palette equals the longest directed path. Orienting each
edge of a POC from the larger color to the smaller gives a good acyclic
orientation whose longest directed path is at most the palette.
"""

from __future__ import annotations

import graphlib
from typing import Iterable, Iterator, Sequence

from . import oracles
from .graph_core import Coloring, Graph, Orientation, WeightedGraph, normalize_weights


def _violations(g: WeightedGraph, c: Coloring) -> Iterator[tuple[int, int]]:
    """The edges breaking the POC conditions, in no particular order."""
    if len(c.colors) != g.n:
        raise ValueError(f"coloring has {len(c.colors)} entries, graph has {g.n}")
    w = (0, *g.weights)
    col = (0, *c.colors)
    # the heavier end needs the larger color, equal weights different colors
    return (
        (u, v)
        for u, v in g.graph.edges
        if (
            col[u] <= col[v] if w[u] > w[v]
            else col[u] >= col[v] if w[u] < w[v]
            else col[u] == col[v]
        )
    )


def first_violation(g: WeightedGraph, c: Coloring) -> tuple[int, int] | None:
    """First edge (in sorted order) breaking the POC conditions, or None."""
    return min(_violations(g, c), default=None)


def is_valid_poc(g: WeightedGraph, c: Coloring) -> bool:
    return next(_violations(g, c), None) is None


def _weight_order(g: WeightedGraph) -> list[int]:
    """Vertices in non-decreasing weight order, equal weights by ascending id."""
    # the sort is stable, so equal weights keep the ascending ids of the range
    return sorted(range(1, g.n + 1), key=(0, *g.weights).__getitem__)


def _greedy_colors(order: list[int], neighbors: Sequence[Iterable[int]]) -> tuple[int, ...]:
    """Colors of vertices 1..n (``order`` lists each once): along ``order``,
    each vertex gets one more than the largest color among its already
    colored ``neighbors[v]``, or 1 if there are none."""
    colors = [0] * (len(order) + 1)
    for v in order:
        top = 0  # uncolored neighbors read 0, below every color
        for u in neighbors[v]:
            if colors[u] > top:
                top = colors[u]
        colors[v] = top + 1
    return tuple(colors[1:])


def greedy_poc(g: WeightedGraph) -> Coloring:
    """Weight-ordered greedy coloring (CLI algo ``f``).

    Processes vertices by non-decreasing weight (ties by ascending id); each
    vertex gets one more than the largest color among its already-processed
    neighbors, or color 1 if there are none. Always yields a valid POC, and
    never uses more colors than the order of a longest path in the graph.
    """
    if g.n < 1:
        raise ValueError("graph must have at least one vertex")
    body = _greedy_colors(_weight_order(g), g.graph.adjacency)
    return Coloring(body, max(body))


def layered_stack_coloring(g: WeightedGraph) -> Coloring:
    """Stacked per-weight-class coloring.

    Weights are rank-normalized to 1..t; each class subgraph gets an optimal
    proper coloring, and the color blocks are stacked in weight order so the
    result is a POC with at most t * chi(G) colors.
    """
    if g.n < 1:
        raise ValueError("graph must have at least one vertex")
    g = normalize_weights(g)
    # Each class graph is the subgraph its members induce: members keep their
    # ascending-id order as new ids 1..k, and its edges are inserted in g's
    # edge order.
    members: list[list[int]] = [[] for _ in range(max(g.weights) + 1)]
    local = [0] * (g.n + 1)
    for v, value in enumerate(g.weights, start=1):
        members[value].append(v)
        local[v] = len(members[value])
    class_edges: list[list[tuple[int, int]]] = [[] for _ in members]
    for u, v in g.graph.edges:
        if g.weight(u) == g.weight(v):
            class_edges[g.weight(u)].append((local[u], local[v]))
    colors = [0] * (g.n + 1)
    offset = 0
    for value in range(1, len(members)):
        sub = Graph(len(members[value]), frozenset(class_edges[value]))
        sub_coloring = oracles.proper_coloring_exact(sub)
        for v in members[value]:
            colors[v] = offset + sub_coloring.color(local[v])
        offset += sub_coloring.palette
    body = tuple(colors[1:])
    return Coloring(body, offset)


def build_good_orientation(g: WeightedGraph) -> Orientation:
    """Canonical good acyclic orientation: heavier -> lighter across weights,
    lower id -> higher id inside a weight class."""
    w = (0, *g.weights)
    # u < v by normalization, so (u, v) is also the in-class arc
    return Orientation(
        g.graph, frozenset([(v, u) if w[v] > w[u] else (u, v) for u, v in g.graph.edges])
    )


def _heads_first(d: Orientation) -> list[int]:
    """Kahn's order of the vertices with every arc's head before its tail.

    Raises graphlib.CycleError when d contains a directed cycle.
    """
    out = d.out_neighbors
    indegree = [0] * (d.graph.n + 1)
    for heads in out:
        for h in heads:
            indegree[h] += 1
    order = [v for v in range(1, d.graph.n + 1) if not indegree[v]]
    for v in order:  # tails first; the loop also visits what it appends
        for h in out[v]:
            indegree[h] -= 1
            if not indegree[h]:
                order.append(h)
    if len(order) < d.graph.n:
        raise graphlib.CycleError("nodes are in a cycle")
    order.reverse()
    return order


def _good_heads_first(g: WeightedGraph, d: Orientation) -> list[int] | None:
    """``_heads_first(d)`` when d is a good acyclic orientation of g, else None."""
    if d.graph != g.graph:
        raise ValueError("orientation does not match the graph")
    w = (0, *g.weights)
    if any(w[t] < w[h] for t, h in d.arcs):
        return None
    try:
        return _heads_first(d)
    except graphlib.CycleError:
        return None


def is_good_acyclic(g: WeightedGraph, d: Orientation) -> bool:
    """True iff d has no directed cycle and w(tail) >= w(head) on every arc."""
    return _good_heads_first(g, d) is not None


def dag_longest_path(d: Orientation) -> int:
    """Number of vertices of a longest directed path in an acyclic orientation.

    Raises graphlib.CycleError when the orientation contains a directed cycle.
    """
    return max(_greedy_colors(_heads_first(d), d.out_neighbors), default=0)


def greedy_poc_from_orientation(g: WeightedGraph, d: Orientation) -> Coloring:
    """Greedy coloring along a good acyclic orientation (CLI algo ``fprime``).

    Vertices are processed heads first, so every out-neighbor is colored
    before its tail; each vertex gets one more than the largest color among
    its out-neighbors, or 1 if it has none. That color is the vertex's height,
    the number of vertices on a longest directed path starting at it, so the
    palette equals the longest directed path of d.

    Raises ValueError when d is not a good acyclic orientation of g.
    """
    order = _good_heads_first(g, d)
    if order is None:
        raise ValueError("orientation is not good acyclic for this weighting")
    body = _greedy_colors(order, d.out_neighbors)
    return Coloring(body, max(body))


def orientation_from_coloring(g: WeightedGraph, c: Coloring) -> Orientation:
    """Orient every edge from the larger color to the smaller one.

    Requires c to be a valid POC; the result is good and acyclic, and its
    longest directed path has at most c.palette vertices.
    """
    violation = first_violation(g, c)
    if violation is not None:
        raise ValueError(f"coloring is not a valid POC (edge {violation})")
    col = (0, *c.colors)
    # colors differ on every edge of a POC
    return Orientation(
        g.graph, frozenset([(u, v) if col[u] > col[v] else (v, u) for u, v in g.graph.edges])
    )


# Witness certificates: no oracle imports this module, so none checks itself.


def path_problem(g: Graph, path: Sequence[int]) -> str | None:
    """None when ``path`` lists distinct vertices of g, each adjacent to the next."""
    simple = len(set(path)) == len(path) and all(1 <= v <= g.n for v in path)
    if simple and all(g.has_edge(u, v) for u, v in zip(path, path[1:])):
        return None
    return f"{path} is not a simple path of the graph"


def coloring_problem(g: WeightedGraph, c: Coloring, value: int) -> str | None:
    """None when c is a POC of g with palette ``value``: it shows chi_POC <= value."""
    violation = first_violation(g, c)
    if violation is not None:
        return f"fails validation on edge {violation}"
    return None if c.palette == value else f"has palette {c.palette}, not {value}"


def orientation_problem(g: WeightedGraph, d: Orientation, value: int) -> str | None:
    """None when d is good acyclic for g with longest dipath ``value``: it shows ell' <= value."""
    order = _good_heads_first(g, d)
    if order is not None and max(_greedy_colors(order, d.out_neighbors), default=0) == value:
        return None
    return f"is not good acyclic with longest path {value}"
