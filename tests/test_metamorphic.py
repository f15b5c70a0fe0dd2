"""Metamorphic relations for the exact oracles, on seeded random instances.

The paired oracles catch a bug in one of them; these relations catch one in
what they share (``Graph``, ``WeightedGraph``, the weak-ordering walk): a
relabelling changes no value and maps every witness along, a disjoint union
takes the max over its parts, and splitting a weight class into two
consecutive ranks never lowers chi_POC.
"""

from __future__ import annotations

import random

from pocgraph import Coloring, Graph, Orientation, WeightedGraph, random_weighted_graph
from pocgraph import oracles, poc_engine


def _instance(rng: random.Random, nmax: int) -> WeightedGraph:
    n = rng.randint(1, nmax)
    return random_weighted_graph(rng, n, rng.random(), rng.randint(1, n))


def _values(wg: WeightedGraph) -> tuple[int, ...]:
    """chi_POC, ell', ell, chi and f of wg."""
    return (
        oracles.chi_poc_exact(wg)[0],
        oracles.ell_prime_orientation(wg)[0],
        len(oracles.longest_path_witness(wg.graph)),
        oracles.chromatic_number(wg.graph),
        oracles.f_argmax(wg.graph)[0],
    )


def _relabel(wg: WeightedGraph, label: list[int]) -> WeightedGraph:
    """wg with vertex v renamed label[v - 1]."""
    graph = Graph.from_edges(wg.n, ((label[u - 1], label[v - 1]) for u, v in wg.graph.edges))
    weights = [0] * wg.n
    for v, w in enumerate(wg.weights, start=1):
        weights[label[v - 1] - 1] = w
    return WeightedGraph(graph, tuple(weights))


def _relabel_colors(c: Coloring, label: list[int]) -> Coloring:
    colors = [0] * len(c.colors)
    for v, color in enumerate(c.colors, start=1):
        colors[label[v - 1] - 1] = color
    return Coloring(tuple(colors), c.palette)


def _union(a: WeightedGraph, b: WeightedGraph) -> WeightedGraph:
    """The disjoint union, with b's vertices numbered after a's."""
    edges = a.graph.edges | {(u + a.n, v + a.n) for u, v in b.graph.edges}
    return WeightedGraph(Graph(a.n + b.n, frozenset(edges)), a.weights + b.weights)


def test_relabelling_keeps_every_value_and_maps_every_witness():
    rng = random.Random(3601)
    for _ in range(400):
        wg = _instance(rng, 7)
        label = list(range(1, wg.n + 1))
        rng.shuffle(label)
        moved = _relabel(wg, label)
        assert _values(moved) == _values(wg), (wg, label)
        chi_poc, coloring = oracles.chi_poc_exact(wg)
        assert poc_engine.coloring_problem(moved, _relabel_colors(coloring, label), chi_poc) is None
        lprime, d = oracles.ell_prime_orientation(wg)
        arcs = frozenset((label[t - 1], label[h - 1]) for t, h in d.arcs)
        assert poc_engine.orientation_problem(moved, Orientation(moved.graph, arcs), lprime) is None
        path = oracles.longest_path_witness(wg.graph)
        assert poc_engine.path_problem(moved.graph, [label[v - 1] for v in path]) is None
        # a proper coloring is a POC of the graph with every weight equal
        proper = _relabel_colors(oracles.proper_coloring_exact(wg.graph), label)
        flat = WeightedGraph(moved.graph, (1,) * wg.n)
        assert poc_engine.coloring_problem(flat, proper, oracles.chromatic_number(wg.graph)) is None
        f, weights = oracles.f_argmax(wg.graph)
        attained = _relabel(WeightedGraph(wg.graph, weights), label)
        assert attained.graph == moved.graph
        assert oracles.chi_poc_exact(attained)[0] == f


def test_disjoint_union_takes_the_max_over_its_parts():
    rng = random.Random(3602)
    for _ in range(400):
        a, b = _instance(rng, 4), _instance(rng, 4)
        union = _union(a, b)
        assert _values(union) == tuple(map(max, _values(a), _values(b))), (a, b)
        assert not oracles.has_hamiltonian_path(union.graph), (a, b)


def test_splitting_a_weight_class_never_lowers_chi_poc():
    # every POC of the split weighting is a POC of the original one: the
    # split only orders some edges inside the class, so chi_POC cannot fall
    rng = random.Random(3603)
    splits = 0
    for _ in range(400):
        wg = _instance(rng, 8)
        ranks = sorted(set(wg.weights))
        rank = rng.choice(ranks)
        members = [v for v in range(1, wg.n + 1) if wg.weight(v) == rank]
        if len(members) < 2:
            continue
        upper = set(rng.sample(members, rng.randint(1, len(members) - 1)))
        split = tuple(
            w + (w > rank or v in upper) for v, w in enumerate(wg.weights, start=1)
        )
        assert len(set(split)) == len(ranks) + 1
        assert oracles.chi_poc_exact(WeightedGraph(wg.graph, split))[0] >= (
            oracles.chi_poc_exact(wg)[0]
        ), (wg, split)
        splits += 1
    assert splits > 100
