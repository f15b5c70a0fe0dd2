from __future__ import annotations

import random
from typing import Iterable

import graphlib
import pytest

from pocgraph import (
    Coloring,
    Graph,
    Orientation,
    WeightedGraph,
    build_good_orientation,
    complete_graph,
    dag_longest_path,
    first_violation,
    greedy_poc,
    greedy_poc_from_orientation,
    is_good_acyclic,
    is_valid_poc,
    layered_stack_coloring,
    normalize_weights,
    orientation_from_coloring,
    parse_wpoc,
    path_graph,
    random_weighted_graph,
    serialize_wpoc,
)
from pocgraph.oracles import longest_path_exact


def _all_directed_paths_longest(d: Orientation) -> int:
    """Brute-force reference for dag_longest_path: walk every directed path."""
    out = d.out_neighbors
    best = 1 if d.graph.n else 0

    def walk(v: int, seen: set[int]) -> None:
        nonlocal best
        best = max(best, len(seen))
        for u in out[v]:
            if u not in seen:
                seen.add(u)
                walk(u, seen)
                seen.remove(u)

    for start in range(1, d.graph.n + 1):
        walk(start, {start})
    return best


# ---------------------------------------------------------------------------
# validity checking
# ---------------------------------------------------------------------------


def test_c4w_unique_coloring_is_valid(c4w):
    assert is_valid_poc(c4w, Coloring((1, 2, 2, 3), 3))


def test_c4w_equal_weight_violation_reports_first_edge(c4w):
    assert first_violation(c4w, Coloring((1, 1, 2, 3), 3)) == (1, 2)


def test_chem_reference_coloring_is_valid(chem):
    assert is_valid_poc(chem, Coloring((1, 2, 3, 3, 4, 5), 5))


def test_length_mismatch_raises(c4w):
    with pytest.raises(ValueError, match="entries"):
        is_valid_poc(c4w, Coloring((1, 2, 3), 3))


def _breaks(g: WeightedGraph, c: Coloring, u: int, v: int) -> bool:
    wu, wv = g.weights[u - 1], g.weights[v - 1]
    cu, cv = c.colors[u - 1], c.colors[v - 1]
    return (wu > wv and cu <= cv) or (wu < wv and cu >= cv) or (wu == wv and cu == cv)


def test_first_violation_is_the_least_violating_edge():
    rng = random.Random(24)
    several = unsorted_first = 0
    for _ in range(400):
        n = rng.randint(2, 30)
        g = random_weighted_graph(rng, n, rng.random(), rng.randint(1, 4))
        c = Coloring(tuple(rng.randint(1, 3) for _ in range(n)), 3)
        expected = None
        for u, v in g.graph.sorted_edges():
            if _breaks(g, c, u, v):
                expected = (u, v)
                break
        assert first_violation(g, c) == expected
        assert is_valid_poc(g, c) == (expected is None)
        broken = [e for e in g.graph.edges if _breaks(g, c, *e)]
        several += len(broken) > 1
        # the unsorted edge set meets some other violating edge first
        unsorted_first += bool(broken) and broken[0] != expected
    assert several >= 200 and unsorted_first >= 50, (several, unsorted_first)


class _UnreadableEdges(frozenset):
    def __iter__(self):
        raise AssertionError("an edge was read")


def test_length_mismatch_raises_before_reading_edges(c4w):
    g = WeightedGraph(Graph(c4w.n, c4w.graph.edges), c4w.weights)
    object.__setattr__(g.graph, "edges", _UnreadableEdges(c4w.graph.edges))
    for check in (first_violation, is_valid_poc):
        with pytest.raises(ValueError, match="coloring has 3 entries, graph has 4"):
            check(g, Coloring((1, 2, 3), 3))


def test_heavier_needs_strictly_larger_color():
    g = WeightedGraph(path_graph(2), (1, 2))
    assert not is_valid_poc(g, Coloring((2, 1), 2))
    assert not is_valid_poc(g, Coloring((1, 1), 1))
    assert is_valid_poc(g, Coloring((1, 2), 2))


# ---------------------------------------------------------------------------
# greedy coloring
# ---------------------------------------------------------------------------


def test_greedy_on_c4w(c4w):
    c = greedy_poc(c4w)
    assert c.colors == (1, 2, 2, 3)
    assert c.palette == 3


def test_greedy_on_edgeless_graph():
    g = WeightedGraph(Graph(3, frozenset()), (4, 1, 9))
    assert greedy_poc(g).colors == (1, 1, 1)


def test_greedy_on_decreasing_path():
    # processing order is v3, v2, v1; each sees its already-colored neighbor
    g = WeightedGraph(path_graph(3), (3, 2, 1))
    c = greedy_poc(g)
    assert c.colors == (3, 2, 1)
    assert is_valid_poc(g, c)
    assert c.palette == longest_path_exact(g.graph) == 3


def test_greedy_exhaustive_small_instances():
    from pocgraph.oracles import enumerate_graphs, weak_orderings

    for n in range(1, 5):
        for g in enumerate_graphs(n):
            bound = longest_path_exact(g)
            for weights in weak_orderings(n):
                wg = WeightedGraph(g, weights)
                c = greedy_poc(wg)
                assert is_valid_poc(wg, c)
                assert c.palette <= bound


# ---------------------------------------------------------------------------
# layered stack coloring
# ---------------------------------------------------------------------------


def test_stack_coloring_on_c4w(c4w):
    c = layered_stack_coloring(c4w)
    assert c.colors == (1, 2, 3, 4)
    assert is_valid_poc(c4w, c)
    assert c.palette <= 3 * 2  # t * chi(G)


def test_stack_coloring_single_weight_is_proper_optimum():
    from pocgraph import complete_graph

    g = WeightedGraph(complete_graph(3), (1, 1, 1))
    c = layered_stack_coloring(g)
    assert sorted(c.colors) == [1, 2, 3]
    assert is_valid_poc(g, c)


def test_stack_coloring_single_vertex():
    g = WeightedGraph(Graph(1, frozenset()), (5,))
    assert layered_stack_coloring(g).colors == (1,)


def test_stack_coloring_blocks_are_increasing():
    rng = random.Random(11)
    for _ in range(50):
        g = random_weighted_graph(rng, rng.randint(1, 8), 0.5, 3)
        gn = normalize_weights(g)
        c = layered_stack_coloring(g)
        assert is_valid_poc(g, c)
        for u in range(1, g.n + 1):
            for v in range(1, g.n + 1):
                if gn.weight(u) < gn.weight(v):
                    assert c.color(u) < c.color(v)


def _induced_subgraph(g: Graph, s: Iterable[int]) -> tuple[Graph, dict[int, int]]:
    """Subgraph induced by the vertex set s, plus the old->new id map.

    New ids are 1..|s| in increasing order of the old ids.
    """
    keep = sorted(set(s))
    for v in keep:
        if not (1 <= v <= g.n):
            raise ValueError(f"vertex id {v} out of range 1..{g.n}")
    idmap = {old: new for new, old in enumerate(keep, start=1)}
    edges = frozenset(
        (idmap[u], idmap[v]) for u, v in g.edges if u in idmap and v in idmap
    )
    return Graph(len(keep), edges), idmap


def test_induced_subgraph_examples(c4w):
    sub, idmap = _induced_subgraph(c4w.graph, {1, 2})
    assert sub.n == 2 and sub.edges == frozenset({(1, 2)})
    assert idmap == {1: 1, 2: 2}

    empty, idmap = _induced_subgraph(c4w.graph, set())
    assert empty.n == 0 and empty.m == 0 and idmap == {}

    k4 = complete_graph(4)
    tri, _ = _induced_subgraph(k4, {2, 3, 4})
    assert tri == complete_graph(3)

    with pytest.raises(ValueError, match="out of range"):
        _induced_subgraph(k4, {5})


def _reference_stack_coloring(g: WeightedGraph) -> Coloring:
    """Per-class members plus _induced_subgraph, rescanning g once per class."""
    from pocgraph import proper_coloring_exact

    g = normalize_weights(g)
    colors = [0] * (g.n + 1)
    offset = 0
    for value in range(1, max(g.weights) + 1):
        members = [v for v in range(1, g.n + 1) if g.weight(v) == value]
        sub, idmap = _induced_subgraph(g.graph, members)
        sub_coloring = proper_coloring_exact(sub)
        for v in members:
            colors[v] = offset + sub_coloring.color(idmap[v])
        offset += sub_coloring.palette
    return Coloring(tuple(colors[1:]), offset)


def test_stack_coloring_matches_induced_subgraph_reference():
    rng = random.Random(18)
    for _ in range(400):
        n = rng.randint(1, 12)
        t = rng.choice([1, 2, 3, n, n])
        g = random_weighted_graph(rng, n, rng.random(), t)
        assert layered_stack_coloring(g) == _reference_stack_coloring(g)


# ---------------------------------------------------------------------------
# orientations
# ---------------------------------------------------------------------------


def test_build_good_orientation_tie_rule():
    g = WeightedGraph(path_graph(2), (1, 1))
    assert build_good_orientation(g).arcs == frozenset({(1, 2)})


def test_build_good_orientation_c4w(c4w):
    d = build_good_orientation(c4w)
    assert d.arcs == frozenset({(3, 1), (4, 2), (4, 3), (1, 2)})
    assert is_good_acyclic(c4w, d)


def test_orientation_points_toward_light_end():
    g = WeightedGraph(path_graph(3), (1, 2, 3))
    assert build_good_orientation(g).arcs == frozenset({(2, 1), (3, 2)})


def test_is_good_acyclic_rejects_uphill_arc(c4w):
    d = Orientation(c4w.graph, frozenset({(1, 3), (4, 2), (4, 3), (1, 2)}))
    assert not is_good_acyclic(c4w, d)  # 1 -> 3 runs from weight 1 to weight 2


def test_is_good_acyclic_rejects_directed_triangle():
    from pocgraph import complete_graph

    g = WeightedGraph(complete_graph(3), (1, 1, 1))
    cyclic = Orientation(g.graph, frozenset({(1, 2), (2, 3), (3, 1)}))
    assert not is_good_acyclic(g, cyclic)


def test_is_good_acyclic_mismatched_graph(c4w):
    other = WeightedGraph(path_graph(2), (1, 1))
    with pytest.raises(ValueError, match="match"):
        is_good_acyclic(c4w, build_good_orientation(other))


def test_good_orientation_property_random():
    rng = random.Random(12)
    for _ in range(500):
        g = random_weighted_graph(rng, rng.randint(1, 10), rng.random(), rng.randint(1, 5))
        assert is_good_acyclic(g, build_good_orientation(g))


# ---------------------------------------------------------------------------
# longest directed path
# ---------------------------------------------------------------------------


def test_dag_longest_path_single_vertex():
    assert dag_longest_path(Orientation(Graph(1, frozenset()), frozenset())) == 1


def test_dag_longest_path_directed_path():
    g = Graph.from_edges(3, [(1, 2), (2, 3)])
    assert dag_longest_path(Orientation(g, frozenset({(1, 2), (2, 3)}))) == 3


def test_dag_longest_path_c4w_orientation(c4w):
    d = Orientation(c4w.graph, frozenset({(3, 1), (4, 2), (4, 3), (1, 2)}))
    assert _all_directed_paths_longest(d) == 4
    assert dag_longest_path(d) == 4


def test_dag_longest_path_matches_brute_force_random():
    rng = random.Random(13)
    for _ in range(200):
        g = random_weighted_graph(rng, rng.randint(1, 8), rng.random(), 4)
        d = build_good_orientation(g)
        assert dag_longest_path(d) == _all_directed_paths_longest(d)


def test_dag_longest_path_raises_on_cycle():
    from pocgraph import complete_graph

    g = complete_graph(3)
    cyclic = Orientation(g, frozenset({(1, 2), (2, 3), (3, 1)}))
    with pytest.raises(graphlib.CycleError):
        dag_longest_path(cyclic)


# ---------------------------------------------------------------------------
# oriented greedy
# ---------------------------------------------------------------------------


def test_oriented_greedy_c4w_low_orientation(c4w):
    d = Orientation(c4w.graph, frozenset({(3, 1), (4, 2), (4, 3), (2, 1)}))
    c = greedy_poc_from_orientation(c4w, d)
    assert c.colors == (1, 2, 2, 3)
    assert c.palette == dag_longest_path(d) == 3


def test_oriented_greedy_edgeless():
    g = WeightedGraph(Graph(4, frozenset()), (2, 1, 2, 5))
    d = build_good_orientation(g)
    assert greedy_poc_from_orientation(g, d).colors == (1, 1, 1, 1)


def test_oriented_greedy_rejects_bad_orientation(c4w):
    bad = Orientation(c4w.graph, frozenset({(1, 3), (4, 2), (4, 3), (1, 2)}))
    with pytest.raises(ValueError, match="good acyclic"):
        greedy_poc_from_orientation(c4w, bad)


def test_oriented_greedy_within_dipath_bound_random():
    rng = random.Random(14)
    for _ in range(500):
        g = random_weighted_graph(rng, rng.randint(1, 10), rng.random(), rng.randint(1, 4))
        d = build_good_orientation(g)
        c = greedy_poc_from_orientation(g, d)
        assert is_valid_poc(g, c)
        assert c.palette == dag_longest_path(d)


def test_oriented_greedy_all_good_orientations_small():
    """The palette equals the longest dipath for every good acyclic orientation."""
    from pocgraph.oracles import enumerate_graphs, weak_orderings

    for n in range(1, 4):
        for g in enumerate_graphs(n):
            edges = g.sorted_edges()
            for weights in weak_orderings(n):
                wg = WeightedGraph(g, weights)
                for bits in range(1 << len(edges)):
                    arcs = frozenset(
                        (u, v) if not bits >> i & 1 else (v, u)
                        for i, (u, v) in enumerate(edges)
                    )
                    d = Orientation(g, arcs)
                    if not is_good_acyclic(wg, d):
                        continue
                    c = greedy_poc_from_orientation(wg, d)
                    assert is_valid_poc(wg, c)
                    assert c.palette == dag_longest_path(d)


# Test-local copy of the graphlib engine that the heads-first pass replaced:
# a TopologicalSorter per weight class, the greedy loop along that order, and
# a separate DP for the longest directed path.


def _old_greedy(order: list[int], neighbors, n: int) -> Coloring:
    colors = [0] * (n + 1)
    for v in order:
        prev = [colors[u] for u in neighbors[v] if colors[u]]
        colors[v] = max(prev) + 1 if prev else 1
    body = tuple(colors[1:])
    return Coloring(body, max(body))


def _old_greedy_poc(g: WeightedGraph) -> Coloring:
    order = sorted(range(1, g.n + 1), key=lambda v: (g.weight(v), v))
    return _old_greedy(order, g.graph.adjacency, g.n)


def _old_is_good_acyclic(g: WeightedGraph, d: Orientation) -> bool:
    if any(g.weight(t) < g.weight(h) for t, h in d.arcs):
        return False
    ts = graphlib.TopologicalSorter({v: [] for v in range(1, g.n + 1)})
    for t, h in d.arcs:
        ts.add(h, t)
    try:
        ts.prepare()
    except graphlib.CycleError:
        return False
    return True


def _old_dag_longest_path(d: Orientation) -> int:
    n = d.graph.n
    ts = graphlib.TopologicalSorter({v: [] for v in range(1, n + 1)})
    preds: dict[int, list[int]] = {v: [] for v in range(1, n + 1)}
    for t, h in d.arcs:
        ts.add(h, t)
        preds[h].append(t)
    depth = {v: 1 for v in range(1, n + 1)}
    for v in ts.static_order():
        for p in preds[v]:
            depth[v] = max(depth[v], depth[p] + 1)
    return max(depth.values()) if depth else 0


def _old_greedy_poc_from_orientation(g: WeightedGraph, d: Orientation) -> Coloring:
    if not _old_is_good_acyclic(g, d):
        raise ValueError("orientation is not good acyclic for this weighting")
    order: list[int] = []
    for value in sorted(set(g.weights)):
        members = {v for v in range(1, g.n + 1) if g.weight(v) == value}
        ts = graphlib.TopologicalSorter({v: [] for v in members})
        for t, h in d.arcs:
            if t in members and h in members:
                ts.add(t, h)
        ts.prepare()
        while ts.is_active():
            ready = sorted(ts.get_ready())
            order.extend(ready)
            ts.done(*ready)
    return _old_greedy(order, d.out_neighbors, g.n)


def _outcome(f, *args):
    try:
        return ("value", f(*args))
    except Exception as exc:  # the exception type is part of the contract
        return ("raises", type(exc))


def _random_orientations(rng: random.Random, g: WeightedGraph) -> list[Orientation]:
    """The canonical good orientation, a random good one (weight, then a random
    rank inside each class), and a random one, often uphill or cyclic."""
    rank = {v: (g.weight(v), rng.random()) for v in range(1, g.n + 1)}
    good = frozenset((u, v) if rank[u] > rank[v] else (v, u) for u, v in g.graph.edges)
    wild = frozenset((u, v) if rng.random() < 0.5 else (v, u) for u, v in g.graph.edges)
    return [build_good_orientation(g), Orientation(g.graph, good), Orientation(g.graph, wild)]


def test_engine_matches_graphlib_reference():
    rng = random.Random(19)
    kinds = {"good": 0, "bad": 0, "cyclic": 0}
    for _ in range(1500):
        n = rng.randint(1, 12)
        g = random_weighted_graph(rng, n, rng.random(), rng.randint(1, n))
        assert greedy_poc(g) == _old_greedy_poc(g)
        for d in _random_orientations(rng, g):
            good = _old_is_good_acyclic(g, d)
            assert is_good_acyclic(g, d) == good
            assert _outcome(dag_longest_path, d) == _outcome(_old_dag_longest_path, d)
            assert _outcome(greedy_poc_from_orientation, g, d) == _outcome(
                _old_greedy_poc_from_orientation, g, d
            )
            cyclic = _outcome(dag_longest_path, d)[0] == "raises"
            kinds["cyclic" if cyclic else "good" if good else "bad"] += 1
    assert min(kinds.values()) >= 100, kinds


def _noisy_wpoc_text(rng: random.Random, n: int, weights: list[int], edges: list) -> str:
    """WPOC text for the graph with its lines shuffled, pairs in either order,
    comments, blank lines, indentation and tabs."""
    lines = [f"v {v}\t{w}" for v, w in enumerate(weights, start=1)]
    lines += [f"e {u}\t{v}" if rng.random() < 0.5 else f"  e {v} {u}" for u, v in edges]
    lines += ["# a comment", "  # an indented comment", "", "\t"]
    rng.shuffle(lines)
    return f"# header\np wpoc {n} {len(edges)}\n" + "\n".join(lines) + "\n"


def _reference_good_arcs(weights: list[int], edges: list) -> frozenset:
    """Heavier end to lighter end; lower id to higher id between equal weights."""
    return frozenset(
        (u, v) if (weights[u - 1], -u) > (weights[v - 1], -v) else (v, u) for u, v in edges
    )


def test_linear_layer_matches_references_on_large_graphs():
    """The parser, serializer, greedy, canonical orientation, oriented greedy
    and longest dipath give the references' bytes and values on G(n, p)."""
    rng = random.Random(23)
    for n in (200, 300, 400):
        for t in (2, 7, n):
            edges = [
                (u, v)
                for u in range(1, n + 1)
                for v in range(u + 1, n + 1)
                if rng.random() < 10 / (n - 1)
            ]
            values = rng.sample(range(1, 10**9), t)
            weights = [values[i % t] for i in range(n)]
            rng.shuffle(weights)
            g = parse_wpoc(_noisy_wpoc_text(rng, n, weights, edges))
            canonical = f"p wpoc {n} {len(edges)}\n"
            canonical += "".join(f"v {v} {w}\n" for v, w in enumerate(weights, start=1))
            canonical += "".join(f"e {u} {v}\n" for u, v in sorted(edges))
            assert serialize_wpoc(g) == canonical
            assert greedy_poc(g) == _old_greedy_poc(g)
            d = build_good_orientation(g)
            assert d.arcs == _reference_good_arcs(weights, edges)
            assert greedy_poc_from_orientation(g, d) == _old_greedy_poc_from_orientation(g, d)
            assert dag_longest_path(d) == _old_dag_longest_path(d)


# ---------------------------------------------------------------------------
# coloring -> orientation
# ---------------------------------------------------------------------------


def test_orientation_from_coloring_c4w(c4w):
    d = orientation_from_coloring(c4w, Coloring((1, 2, 2, 3), 3))
    assert d.arcs == frozenset({(2, 1), (3, 1), (4, 2), (4, 3)})
    assert dag_longest_path(d) == 3


def test_orientation_from_coloring_triangle_tournament():
    from pocgraph import complete_graph

    g = WeightedGraph(complete_graph(3), (1, 1, 1))
    d = orientation_from_coloring(g, Coloring((1, 2, 3), 3))
    assert dag_longest_path(d) == 3
    assert is_good_acyclic(g, d)


def test_orientation_from_coloring_rejects_invalid(c4w):
    with pytest.raises(ValueError, match="not a valid POC"):
        orientation_from_coloring(c4w, Coloring((1, 1, 2, 3), 3))


def test_orientation_from_coloring_bound_random():
    rng = random.Random(15)
    for _ in range(500):
        g = random_weighted_graph(rng, rng.randint(1, 10), rng.random(), rng.randint(1, 4))
        c = greedy_poc(g)
        d = orientation_from_coloring(g, c)
        assert is_good_acyclic(g, d)
        assert dag_longest_path(d) <= c.palette


# ---------------------------------------------------------------------------
# composition properties
# ---------------------------------------------------------------------------


def test_composition_sandwich_random():
    rng = random.Random(16)
    for _ in range(300):
        g = random_weighted_graph(rng, rng.randint(1, 10), rng.random(), rng.randint(1, 5))
        c = greedy_poc_from_orientation(g, build_good_orientation(g))
        assert is_valid_poc(g, c)


def test_validity_invariant_under_normalization():
    rng = random.Random(17)
    for _ in range(200):
        g = random_weighted_graph(rng, rng.randint(1, 8), rng.random(), rng.randint(1, 30))
        c = greedy_poc(g)
        assert is_valid_poc(normalize_weights(g), c) == is_valid_poc(g, c)
        broken = Coloring(tuple(1 for _ in range(g.n)), 1)
        assert is_valid_poc(normalize_weights(g), broken) == is_valid_poc(g, broken)
