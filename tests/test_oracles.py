from __future__ import annotations

import ast
import functools
import gc
import importlib.util
import itertools
import math
import random
import tracemalloc
from pathlib import Path
from typing import Iterator

import pytest

from pocgraph import (
    DEFAULT_CAPS,
    CapExceeded,
    Coloring,
    Graph,
    OracleCaps,
    WeightedGraph,
    chi_poc_exact,
    chi_poc_t,
    chi_poc_t_argmax,
    chromatic_number,
    complete_graph,
    complete_multipartite_graph,
    cycle_graph,
    ell_prime_exact,
    ell_prime_orientation,
    enumerate_graphs,
    enumerate_pocs,
    f_argmax,
    f_exact,
    has_hamiltonian_path,
    is_good_acyclic,
    is_valid_poc,
    iter_pocs,
    longest_path_exact,
    longest_path_witness,
    path_graph,
    proper_coloring_exact,
    random_weighted_graph,
    weak_orderings,
)
import pocgraph.multipartite as multipartite_mod
import pocgraph.oracles as oracles_mod
import pocgraph.poc_engine as poc_engine_mod
from pocgraph.poc_engine import dag_longest_path
from pocgraph.selftest import _prop2_family

from conftest import naive_chi_poc


# ---------------------------------------------------------------------------
# chromatic number
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "graph,chi",
    [
        (complete_multipartite_graph((2, 3)), 2),
        (cycle_graph(5), 3),
        (complete_graph(4), 4),
        (Graph(3, frozenset()), 1),
        (path_graph(1), 1),
    ],
)
def test_chromatic_number_examples(graph, chi):
    assert chromatic_number(graph) == chi


def test_proper_coloring_witness_is_proper():
    rng = random.Random(21)
    for _ in range(80):
        g = random_weighted_graph(rng, rng.randint(1, 9), rng.random(), 1).graph
        c = proper_coloring_exact(g)
        assert c.palette == chromatic_number(g)
        for u, v in g.edges:
            assert c.color(u) != c.color(v)


def test_chromatic_number_greedy_never_below_exact():
    # exact result is a genuine minimum: no proper coloring with one color less
    rng = random.Random(22)
    for _ in range(30):
        g = random_weighted_graph(rng, rng.randint(2, 6), rng.random(), 1).graph
        chi = chromatic_number(g)
        if chi > 1:
            found = False
            for colors in itertools.product(range(1, chi), repeat=g.n):
                if all(colors[u - 1] != colors[v - 1] for u, v in g.edges):
                    found = True
                    break
            assert not found


# ---------------------------------------------------------------------------
# longest path
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "graph,ell",
    [
        (cycle_graph(4), 4),
        (complete_multipartite_graph((1, 3)), 3),
        (complete_multipartite_graph((2, 3)), 5),
        (path_graph(1), 1),
        (Graph(4, frozenset()), 1),
        (Graph(0, frozenset()), 0),
    ],
)
def test_longest_path_examples(graph, ell):
    assert longest_path_exact(graph) == ell


def _longest_path_by_dfs(g: Graph) -> int:
    """Brute-force reference: extend every simple path from every start."""
    best = 0

    def extend(v: int, seen: set[int]) -> None:
        nonlocal best
        best = max(best, len(seen))
        for u in g.adjacency[v] - seen:
            seen.add(u)
            extend(u, seen)
            seen.remove(u)

    for start in range(1, g.n + 1):
        extend(start, {start})
    return best


def _small_and_random_graphs():
    for n in range(1, 7):
        yield from enumerate_graphs(n)
    rng = random.Random(23)
    for _ in range(60):
        yield random_weighted_graph(rng, rng.randint(1, 9), rng.random(), 1).graph


def test_longest_path_witness_is_a_path():
    for g in _small_and_random_graphs():
        path = longest_path_witness(g)
        assert len(path) == longest_path_exact(g) == _longest_path_by_dfs(g)
        assert len(set(path)) == len(path)
        for u, v in zip(path, path[1:]):
            assert g.has_edge(u, v)


def test_longest_path_cap():
    with pytest.raises(CapExceeded, match="longest_path_n"):
        longest_path_exact(Graph(25, frozenset()), OracleCaps())


# ---------------------------------------------------------------------------
# chi_poc
# ---------------------------------------------------------------------------


def test_chi_poc_c4w(c4w):
    value, witness = chi_poc_exact(c4w)
    assert value == 3
    assert is_valid_poc(c4w, witness)


def test_chi_poc_triangle_equal_weights():
    g = WeightedGraph(complete_graph(3), (2, 2, 2))
    assert chi_poc_exact(g)[0] == 3 == chromatic_number(g.graph)


def test_chi_poc_chem(chem):
    value, witness = chi_poc_exact(chem)
    assert value == 4
    assert is_valid_poc(chem, witness)
    assert ell_prime_exact(chem) == 4


def test_chi_poc_matches_naive_reference():
    rng = random.Random(24)
    for _ in range(120):
        g = random_weighted_graph(rng, rng.randint(1, 5), rng.random(), rng.randint(1, 4))
        assert chi_poc_exact(g)[0] == naive_chi_poc(g)


def test_chi_poc_cap():
    g = WeightedGraph(Graph(13, frozenset()), (1,) * 13)
    with pytest.raises(CapExceeded, match="chi_poc_n"):
        chi_poc_exact(g)


# ---------------------------------------------------------------------------
# ell'
# ---------------------------------------------------------------------------


def test_ell_prime_c4w_both_orientations(c4w):
    # only the equal-weight edge 1-2 is free; check both choices by hand
    from pocgraph import Orientation

    forced = {(3, 1), (4, 2), (4, 3)}
    values = set()
    for free in [(1, 2), (2, 1)]:
        d = Orientation(c4w.graph, frozenset(forced | {free}))
        values.add(dag_longest_path(d))
    assert values == {3, 4}
    assert ell_prime_exact(c4w) == 3


def test_ell_prime_triangle_equal_weights():
    g = WeightedGraph(complete_graph(3), (1, 1, 1))
    assert ell_prime_exact(g) == 3


def test_ell_prime_chem_forced_chain(chem):
    # free edges 2-3 and 4-5; all four orientations keep the chain 6->5->3->1
    assert ell_prime_exact(chem) == 4


def test_ell_prime_witness_is_good_acyclic_and_attains():
    rng = random.Random(25)
    for _ in range(100):
        g = random_weighted_graph(rng, rng.randint(1, 7), rng.random(), rng.randint(1, 4))
        value, witness = ell_prime_orientation(g)
        assert is_good_acyclic(g, witness)
        assert dag_longest_path(witness) == value


def test_ell_prime_cap():
    # one class on a vertices has at most a! orientations, so every instance
    # with n <= 8 stays within the default cap: K8 has 8! = 40 320
    g = WeightedGraph(complete_graph(8), (1,) * 8)
    assert ell_prime_exact(g) == 8
    k4 = WeightedGraph(complete_graph(4), (1,) * 4)  # 4! = 24 orientations
    assert ell_prime_exact(k4, OracleCaps(ell_prime_orientations=24)) == 4
    with pytest.raises(CapExceeded, match="ell_prime_orientations=23"):
        ell_prime_exact(k4, OracleCaps(ell_prime_orientations=23))
    p4 = WeightedGraph(path_graph(4), (1,) * 4)  # a tree: 2^3 orientations
    assert ell_prime_exact(p4, OracleCaps(ell_prime_orientations=8)) == 2
    with pytest.raises(CapExceeded, match="ell_prime_orientations=7"):
        ell_prime_exact(p4, OracleCaps(ell_prime_orientations=7))


@pytest.mark.parametrize("n", [18, 40, 2000])
def test_ell_prime_cap_counts_a_spanning_forest_first(n, monkeypatch):
    # an equal-weight path on n vertices is its own spanning tree, with
    # 2^(n-1) orientations; counting its edges stops at the first past the
    # cap, before the listing builds the class's n^2-bit orientation masks
    _forbid(monkeypatch, "_class_options")
    limit = DEFAULT_CAPS.ell_prime_orientations
    with pytest.raises(CapExceeded, match="ell_prime_orientations") as info:
        ell_prime_exact(WeightedGraph(path_graph(n), (1,) * n))
    assert info.value.limit == limit
    assert info.value.actual == 2**17


def test_ell_prime_refusal_memory_grows_linearly():
    # the class's neighbour masks, m ints of up to m bits, are built only once
    # the class fits the cap, so refusing a path four times longer takes about
    # four times the memory, not the sixteen that those masks would
    def peak(n: int) -> int:
        g = WeightedGraph(path_graph(n), (1,) * n)
        tracemalloc.start()
        try:
            with pytest.raises(CapExceeded, match="ell_prime_orientations"):
                ell_prime_exact(g)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(12000) < 6 * peak(3000)


def test_ell_prime_cap_stops_listing_early():
    # K9 has 9! = 362 880 orientations but a spanning tree of 8 edges (2^8),
    # so its count starts; it stops at the first option past the cap
    limit = DEFAULT_CAPS.ell_prime_orientations
    with pytest.raises(CapExceeded, match="ell_prime_orientations") as info:
        ell_prime_exact(WeightedGraph(complete_graph(9), (1,) * 9))
    assert info.value.actual == limit + 1


def test_ell_prime_cap_bounds_the_product_over_classes():
    # each class is under the cap but not their product: two equal-weight
    # paths of 10 edges (2^10 each, 2^20 together) are refused by the second
    # path's spanning tree; K5 then K7 (120 * 5040) only while listing K7
    assert ell_prime_exact(WeightedGraph(path_graph(11), (1,) * 11)) == 2
    assert ell_prime_exact(WeightedGraph(complete_graph(7), (1,) * 7)) == 7
    paths = [(v, v + 1) for v in range(1, 11)] + [(v, v + 1) for v in range(12, 22)]
    cliques = [*itertools.combinations(range(1, 6), 2), *itertools.combinations(range(6, 13), 2)]
    limit = DEFAULT_CAPS.ell_prime_orientations
    for g in (
        WeightedGraph(Graph(22, frozenset(paths)), (1,) * 11 + (2,) * 11),
        WeightedGraph(Graph(12, frozenset(cliques)), (1,) * 5 + (2,) * 7),
    ):
        with pytest.raises(CapExceeded, match="ell_prime_orientations") as info:
            ell_prime_exact(g)
        assert limit < info.value.actual <= 2 * limit


def test_theorem3_agreement_exhaustive_n4():
    for n in range(1, 5):
        for g in enumerate_graphs(n):
            for weights in weak_orderings(n):
                wg = WeightedGraph(g, weights)
                assert chi_poc_exact(wg)[0] == ell_prime_exact(wg)


def _stanley_count(k: int, edges) -> int:
    """|P_G(-1)| for a graph on k vertices: the number of its acyclic orientations
    (Stanley, "Acyclic orientations of graphs", 1973), with P_G found by
    deletion-contraction, P(G) = P(G - e) - P(G / e)."""

    @functools.lru_cache(maxsize=None)
    def at_minus_one(k: int, es: frozenset) -> int:
        if not es:
            return (-1) ** k
        e = min(es)
        rest = es - {e}
        a, b = e
        merged = frozenset(
            (min(x, y), max(x, y))
            for x, y in ((a if x == b else x, a if y == b else y) for x, y in rest)
            if x != y
        )
        return at_minus_one(k, rest) - at_minus_one(k - 1, merged)

    return abs(at_minus_one(k, frozenset(edges)))


def _class_enumerator_problem(edges) -> str | None:
    members = sorted({x for e in edges for x in e})
    intra = sorted(edges)
    decided, stanley = oracles_mod._class_edges(members, intra)
    counted = oracles_mod._class_count(len(members), decided, 1, DEFAULT_CAPS)
    index = {x: i for i, x in enumerate(members)}
    near = [0] * len(members)
    for u, v in intra:
        near[index[u]] |= 1 << index[v]
        near[index[v]] |= 1 << index[u]
    kept: list = []
    # decoded as the search decodes them
    options = list(oracles_mod._class_orders(members, decided, near, kept))
    expected = _stanley_count(len(members), intra)
    if len(options) != expected:
        return f"{len(options)} orientations, |P_G(-1)| = {expected}"
    if kept != options:
        return "the kept orders are not the drawn ones"
    if stanley != min(2 ** len(intra), math.factorial(len(members))):
        return f"Stanley bound {stanley} for {len(members)} members, {len(intra)} edges"
    if counted != expected:
        return f"counted {counted} orientations, |P_G(-1)| = {expected}"
    if len(set(options)) != len(options):
        return "an orientation repeats"
    for order in options:
        if sorted(v for v, _ in order) != members:
            return f"order {order} does not list the members once each"
        position = {v: i for i, (v, _) in enumerate(order)}
        arcs = [(v, h) for v, heads in order for h in heads]
        if sorted((min(a), max(a)) for a in arcs) != intra:
            return f"order {order} does not orient every intra edge exactly once"
        if any(position[h] > position[t] for t, h in arcs):
            return f"order {order} is not heads-first"
    return None


def test_class_enumerator_counts_acyclic_orientations():
    for n in range(1, 7):
        for g in enumerate_graphs(n):
            assert _class_enumerator_problem(g.sorted_edges()) is None, g
    rng = random.Random(1973)
    for _ in range(40):
        n = rng.randint(2, 8)
        p = rng.uniform(0.2, 0.6)
        edges = [e for e in itertools.combinations(range(1, n + 1), 2) if rng.random() < p]
        assert _class_enumerator_problem(edges) is None, (n, edges)


def test_class_edges_reads_m_factorial_against_2_to_the_k():
    # the dense rule (2^k > m! decides edge 0 first) and the bound
    # min(2^k, m!) against m! in full: on cliques (dense from K3 on), at
    # 2^k = m! (m = 2, k = 1), and on long paths, whose m! is far above 2^k
    classes = [list(itertools.combinations(range(1, m + 1), 2)) for m in range(2, 10)]
    classes += [[(i, i + 1) for i in range(1, m)] for m in (2, 3, 5, 12, 3000)]
    classes += [[(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)], [(1, 2), (1, 3), (2, 3), (3, 4)]]
    for intra in classes:
        members = sorted({x for e in intra for x in e})
        index = {x: i for i, x in enumerate(members)}
        listed = [(index[u], index[v]) for u, v in intra]
        arcs, orders = 2 ** len(intra), math.factorial(len(members))
        edges, stanley = oracles_mod._class_edges(members, intra)
        assert edges == (listed if arcs > orders else listed[::-1]), intra[:3]
        assert stanley == min(arcs, orders), intra[:3]


def _reference_heights(n: int, arcs) -> dict[int, int] | None:
    """Each vertex's height (vertices on a longest directed path starting
    there) by depth-first search, or None if the arcs close a cycle."""
    out = {v: [] for v in range(1, n + 1)}
    for t, h in arcs:
        out[t].append(h)
    height, busy = {}, set()

    def visit(v):
        if v in busy:
            raise ValueError("cycle")
        if v not in height:
            busy.add(v)
            height[v] = 1 + max((visit(x) for x in out[v]), default=0)
            busy.discard(v)
        return height[v]

    try:
        for v in out:
            visit(v)
    except ValueError:
        return None
    return height


def _reference_classes(g: WeightedGraph):
    """The forced arcs, and each equal-weight class's intra edges by ascending
    weight."""
    forced, intra = [], {}
    for u, v in g.graph.sorted_edges():
        wu, wv = g.weight(u), g.weight(v)
        if wu == wv:
            intra.setdefault(wu, []).append((u, v))
        else:
            forced.append((u, v) if wu > wv else (v, u))
    return forced, [edges for _, edges in sorted(intra.items())]


def _reference_clique_floors(g: WeightedGraph) -> list[int]:
    """Each class's clique bound, from every clique of its members taken by
    brute force: the best order of a clique's forced-arc heights b along one
    directed path, min over permutations of max_j (b_j + |K| - 1 - j)."""
    forced, classes = _reference_classes(g)
    height = _reference_heights(g.n, forced)
    floors = []
    for edges in classes:
        members = sorted({x for e in edges for x in e})
        bound = 0
        for size in range(1, len(members) + 1):
            for clique in itertools.combinations(members, size):
                if all(pair in edges for pair in itertools.combinations(clique, 2)):
                    b = [height[x] for x in clique]
                    bound = max(bound, min(
                        max(h + size - 1 - j for j, h in enumerate(perm))
                        for perm in itertools.permutations(b)
                    ))
        floors.append(bound)
    return floors


def _reference_ell_prime(g: WeightedGraph) -> dict:
    """ell' by the plain search that fixes the witness order: every orientation
    of each class in bit order (bit i flips intra edge i), the acyclic ones kept
    and sorted by arc tuple when 2^k > m!; the product over the classes by
    ascending weight; a longest-path DP per candidate; the first strict minimum.
    Also returns the forced arcs' longest path, the largest class clique bound
    and whether the first minimum comes before the end of the product."""
    forced, classes = _reference_classes(g)

    def longest(arcs) -> int | None:
        height = _reference_heights(g.n, arcs)
        return None if height is None else max(height.values())

    options = []
    for edges in classes:
        members = {x for e in edges for x in e}
        found = []
        for bits in range(1 << len(edges)):
            arcs = tuple((v, u) if bits >> i & 1 else (u, v) for i, (u, v) in enumerate(edges))
            if longest(arcs) is not None:
                found.append(arcs)
        if 2 ** len(edges) > math.factorial(len(members)):
            found.sort()
        options.append(found)
    combos = list(itertools.product(*options))
    best = None
    for i, combo in enumerate(combos):
        arcs = set(forced).union(*combo)
        value = longest(arcs)
        if best is None or value < best[0]:
            best = (value, frozenset(arcs), i)
    return {
        "value": best[0],
        "arcs": best[1],
        "forced_floor": longest(forced),
        "clique_floor": max(_reference_clique_floors(g), default=0),
        "early": best[2] + 1 < len(combos),
    }


def test_ell_prime_witness_matches_reference_search():
    rng = random.Random(2102)
    cases = [WeightedGraph(complete_graph(4), (1, 1, 1, 1))]
    for _ in range(30):  # one all-equal class, mostly dense
        n = rng.randint(4, 5)
        cases.append(random_weighted_graph(rng, n, rng.uniform(0.6, 0.9), 1))
    for _ in range(150):  # several classes with intra edges
        n = rng.randint(5, 7)
        cases.append(random_weighted_graph(rng, n, rng.uniform(0.3, 0.7), rng.randint(2, 3)))
    kinds = set()
    for g in cases:
        ref = _reference_ell_prime(g)
        got, witness = ell_prime_orientation(g)
        assert (got, witness.arcs) == (ref["value"], ref["arcs"]), g
        members = {x for u, v in g.graph.edges if g.weight(u) == g.weight(v) for x in (u, v)}
        classes = {g.weight(v) for v in members}
        intra = sum(g.weight(u) == g.weight(v) for u, v in g.graph.edges)
        if len(classes) == 1 and len(members) == g.n and 2**intra > math.factorial(g.n):
            kinds.add("dense all-equal class")
        if len(classes) >= 2:
            kinds.add("several classes")
        if ref["early"] and ref["value"] == ref["forced_floor"]:
            kinds.add("stopped at the floor")
        if ref["early"] and ref["value"] == ref["clique_floor"] > ref["forced_floor"]:
            kinds.add("stopped at the class-clique floor above the forced floor")
    assert kinds == {
        "dense all-equal class",
        "several classes",
        "stopped at the floor",
        "stopped at the class-clique floor above the forced floor",
    }


def _spy(monkeypatch, name: str) -> list:
    """Record each return value of an oracles helper, still returning it."""
    real = getattr(oracles_mod, name)
    seen = []

    def spy(*args):
        seen.append(real(*args))
        return seen[-1]

    monkeypatch.setattr(oracles_mod, name, spy)
    return seen


def test_class_clique_floor_is_sound_and_matches_every_clique(monkeypatch):
    """On every weighted graph with n <= 4, each class's bound is the brute-force
    best over all its cliques, and no bound passes ell'."""
    floors = _spy(monkeypatch, "_class_clique_floor")
    above_forced = attained = 0
    for n in range(1, 5):
        for g in enumerate_graphs(n):
            for weights in weak_orderings(n):
                wg = WeightedGraph(g, weights)
                floors.clear()
                value = ell_prime_exact(wg)
                assert floors == _reference_clique_floors(wg), wg
                assert max(floors, default=0) <= value, wg
                forced, _ = _reference_classes(wg)
                forced_floor = max(_reference_heights(n, forced).values())
                if max(floors, default=0) > forced_floor:
                    above_forced += 1
                    attained += max(floors) == value
    assert (above_forced, attained) == (117, 107)


def _listing_spec(members: list[int], intra: list[tuple[int, int]]) -> list[int]:
    """The acyclic orientations of one class in the listing's documented
    order, as reachability ints (row x, bit y set when x reaches y, by
    position in ``members``), found by trying all 2^k arc choices: a dense
    class (2^k > m!) sorted by arc tuple, any other by the bitmask of its
    reversed edges."""
    m, k = len(members), len(intra)
    index = {x: i for i, x in enumerate(members)}
    found = []
    for mask in range(2**k):
        arcs = tuple((v, u) if mask >> i & 1 else (u, v) for i, (u, v) in enumerate(intra))
        rows = [1 << x for x in range(m)]
        for t, h in arcs:
            rows[index[t]] |= 1 << index[h]
        for y in range(m):  # Warshall's transitive closure
            for x in range(m):
                if rows[x] >> y & 1:
                    rows[x] |= rows[y]
        if any(rows[index[h]] >> index[t] & 1 for t, h in arcs):
            continue  # a cycle
        reach = sum(rows[x] << (x * m) for x in range(m))
        found.append((arcs if 2**k > math.factorial(m) else mask, reach))
    return [reach for _, reach in sorted(found)]


def test_class_options_draws_the_listing_in_its_order():
    """The listing yields exactly the acyclic orientations, in its documented order."""
    classes = [g.sorted_edges() for n in range(1, 7) for g in enumerate_graphs(n)]
    rng = random.Random(1977)
    for _ in range(300):
        n = rng.randint(2, 8)
        p = rng.uniform(0.1, 0.9)
        intra = [e for e in itertools.combinations(range(1, n + 1), 2) if rng.random() < p]
        if len(intra) <= 10:  # the spec tries all 2^k arc choices
            classes.append(intra)
    dense = 0
    for intra in classes:
        members = sorted({x for e in intra for x in e})
        edges, _ = oracles_mod._class_edges(members, intra)
        listed = list(oracles_mod._class_options(len(members), edges))
        assert listed == _listing_spec(members, intra), intra
        dense += 2 ** len(intra) > math.factorial(len(members))
    assert dense > 50  # both edge orders are covered


def _spy_yields(monkeypatch, name: str) -> list:
    """Record each item that an oracles generator yields, as it yields it."""
    real = getattr(oracles_mod, name)
    seen = []

    def spy(*args):
        for item in real(*args):
            seen.append(item)
            yield item

    monkeypatch.setattr(oracles_mod, name, spy)
    return seen


def _forbid(monkeypatch, *names: str) -> None:
    def forbidden(*args, **kwargs):
        raise AssertionError("a forbidden helper ran")

    for name in names:
        monkeypatch.setattr(oracles_mod, name, forbidden)


def test_ell_prime_converts_only_the_options_it_visits(monkeypatch):
    # Kn with equal weights has n! options and a clique bound of n, which the
    # first option attains; n! is within the cap, so nothing is counted and
    # the search draws and converts that one option and stops
    _forbid(monkeypatch, "_class_count")
    drawn = _spy_yields(monkeypatch, "_class_options")
    converted = _spy_yields(monkeypatch, "_class_orders")
    for n in (6, 8):
        g = WeightedGraph(complete_graph(n), (1,) * n)
        drawn.clear()
        converted.clear()
        value, witness = ell_prime_orientation(g)
        assert len(drawn) == len(converted) == 1
        if n <= 6:
            ref = _reference_ell_prime(g)
            assert (value, witness.arcs) == (ref["value"], ref["arcs"])
        else:
            # the reference would scan 2^28 orientations; a dense class's
            # first option in it is the least arc tuple, every edge run (u, v)
            assert witness.arcs == g.graph.edges
        assert value == n


def test_ell_prime_lists_a_class_whose_bound_passes_the_cap():
    # an equal-weight C4 has min(2^4, 4!) = 16 as its bound but 14 acyclic
    # orientations: under caps of 14 and 15 it is counted before the search,
    # and the answer is the reference's; under 13 it is refused
    g = WeightedGraph(cycle_graph(4), (1,) * 4)
    ref = _reference_ell_prime(g)
    for limit in (14, 15):
        with pytest.MonkeyPatch.context() as monkeypatch:
            counts = _spy(monkeypatch, "_class_count")
            value, witness = ell_prime_orientation(g, OracleCaps(ell_prime_orientations=limit))
        assert counts == [14]
        assert (value, witness.arcs) == (ref["value"], ref["arcs"])
    with pytest.raises(CapExceeded, match="ell_prime_orientations=13 exceeded .instance needs 14"):
        ell_prime_exact(g, OracleCaps(ell_prime_orientations=13))
    # at the bound itself no class is counted
    with pytest.MonkeyPatch.context() as monkeypatch:
        _forbid(monkeypatch, "_class_count")
        value, witness = ell_prime_orientation(g, OracleCaps(ell_prime_orientations=16))
    assert (value, witness.arcs) == (ref["value"], ref["arcs"])


def test_ell_prime_matches_the_reference_under_small_caps():
    """Under caps around each instance's bound, ell' counts its classes or not
    and answers as the reference does, or refuses exactly when the product of
    the classes' counts passes the cap."""
    rng = random.Random(1978)
    paths = set()
    for _ in range(150):
        g = random_weighted_graph(rng, rng.randint(3, 6), rng.uniform(0.3, 0.9), rng.randint(1, 3))
        ref = _reference_ell_prime(g)
        _, classes = _reference_classes(g)
        counts = [_stanley_count(len({x for e in es for x in e}), es) for es in classes]
        listed = math.prod(counts)
        bound = math.prod(
            min(2 ** len(es), math.factorial(len({x for e in es for x in e}))) for es in classes
        )
        for limit in {listed - 1, listed, bound - 1, bound}:
            if limit < 1:
                continue
            caps = OracleCaps(ell_prime_orientations=limit)
            if listed > limit:
                with pytest.raises(CapExceeded):
                    ell_prime_orientation(g, caps)
                paths.add("refused")
                continue
            value, witness = ell_prime_orientation(g, caps)
            assert (value, witness.arcs) == (ref["value"], ref["arcs"]), (g, limit)
            paths.add("not counted" if bound <= limit else "counted")
    assert paths == {"refused", "not counted", "counted"}


# ---------------------------------------------------------------------------
# weak orderings
# ---------------------------------------------------------------------------


def _reference_ordered_partitions(
    items: tuple[int, ...], max_blocks: int | None
) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Ordered partitions in the sweeps' order, block by block: the first
    block by size, then in ``itertools.combinations`` order, the rest
    recursively."""
    if not items:
        yield ()
        return
    if max_blocks is not None and max_blocks <= 0:
        return
    rest_max = None if max_blocks is None else max_blocks - 1
    for size in range(1, len(items) + 1):
        for block in itertools.combinations(items, size):
            rest = tuple(x for x in items if x not in block)
            for others in _reference_ordered_partitions(rest, rest_max):
                yield (block,) + others


def _block_weights(blocks: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
    weights = [0] * sum(len(b) for b in blocks)
    for rank, block in enumerate(blocks, start=1):
        for v in block:
            weights[v - 1] = rank
    return tuple(weights)


@functools.lru_cache(maxsize=None)
def _reference_weightings(n: int, max_blocks: int | None) -> tuple[tuple[int, ...], ...]:
    """The weight tuples of ``_reference_ordered_partitions`` of 1..n, listed
    once per key."""
    items = tuple(range(1, n + 1))
    return tuple(map(_block_weights, _reference_ordered_partitions(items, max_blocks)))


def test_weak_ordering_counts():
    # the Fubini numbers, OEIS A000670
    fubini = [1, 1, 3, 13, 75, 541, 4683, 47293, 545835]
    assert [sum(1 for _ in weak_orderings(n)) for n in range(9)] == fubini


def test_weighting_count_is_the_weak_ordering_count():
    # what the sweeps' ``weightings`` cap reads, without listing a weighting:
    # the weak orderings with exactly k blocks, k! S(n, k), S(n, k) being the
    # Stirling numbers of the second kind by their recurrence
    stirling = [[1]]
    for n in range(1, 13):
        row = stirling[-1] + [0]
        stirling.append([0] + [k * row[k] + row[k - 1] for k in range(1, n + 1)])
    for n in range(1, 8):
        blocks = [max(w) for w in weak_orderings(n)]
        for k in range(n + 2):
            surjections = math.factorial(k) * (stirling[n][k] if k <= n else 0)
            assert oracles_mod._weighting_count(n, k) == blocks.count(k) == surjections, (n, k)
            if 1 <= k <= n:
                listed = sum(1 for _ in weak_orderings(n, blocks=k))
                assert listed == surjections, (n, k)
    for n, k, count in ((8, 8, 40320), (9, 9, 362880), (9, 3, 18150), (10, 10, 3628800),
                        (10, 5, 5103000), (12, 3, 519156)):
        assert oracles_mod._weighting_count(n, k) == math.factorial(k) * stirling[n][k] == count


def test_weak_ordering_block_cap():
    assert sum(1 for _ in weak_orderings(4, blocks=1)) == 1
    assert sum(1 for _ in weak_orderings(4, blocks=2)) == 14  # 2*S(4,2)


def test_weak_orderings_are_distinct_and_cover():
    seen = set()
    for weights in weak_orderings(4):
        assert weights not in seen
        seen.add(weights)
        assert len(weights) == 4 and set(weights) == set(range(1, max(weights) + 1))
    with pytest.raises(ValueError, match="n must be >= 0"):
        next(weak_orderings(-1))


def _weak_orderings_outside(n: int) -> None:
    """``blocks`` outside 1..n is refused, 0 and n + 1 included."""
    for blocks in (0, n + 1):
        with pytest.raises(ValueError, match=r"^need 1 <= blocks <= n"):
            next(weak_orderings(n, blocks=blocks))


def test_weak_orderings_are_the_surjections():
    # independent source: every map {1..n} -> {1..k} onto {1..k}, for every k
    # or, with blocks=k, for that k alone
    for n in range(7):
        for blocks in (None, *range(1, n + 1)):
            expected = {
                w
                for k in (range(n + 1) if blocks is None else (blocks,))
                for w in itertools.product(range(1, k + 1), repeat=n)
                if set(w) == set(range(1, k + 1))
            }
            listed = list(weak_orderings(n, blocks=blocks))
            assert len(listed) == len(expected) and set(listed) == expected, (n, blocks)
        _weak_orderings_outside(n)


def test_weak_orderings_keep_the_reference_order():
    for n in range(8):
        reference = _reference_weightings(n, None)
        assert tuple(weak_orderings(n)) == reference, n
        for k in range(1, n + 1):
            expected = [w for w in reference if max(w) == k]
            assert list(weak_orderings(n, blocks=k)) == expected, (n, k)
        _weak_orderings_outside(n)


def test_weak_orderings_leave_no_cycle_behind():
    # the recursive walker holds itself, and so its split cache, in a cycle;
    # a walk that ends, is closed early or is dropped unfinished breaks it,
    # so the cache is freed at once, not at the next collection
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for n, blocks in ((5, None), (7, 3)):
            assert sum(1 for _ in weak_orderings(n, blocks=blocks))
            closed = weak_orderings(n, blocks=blocks)
            next(closed)
            closed.close()
            dropped = weak_orderings(n, blocks=blocks)
            next(dropped)
            del dropped
        gc.collect()
        left = [o for o in gc.garbage if getattr(o, "__qualname__", "").startswith("weak_orderings")]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert not left


# ---------------------------------------------------------------------------
# f and chi_poc_t
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "graph,value",
    [(path_graph(3), 3), (cycle_graph(4), 4), (complete_multipartite_graph((1, 3)), 3)],
)
def test_f_examples(graph, value):
    assert f_exact(graph) == value


def test_f_star_by_naive_maximum():
    # independent route: max of the naive chi_poc over all 75 weak orderings
    star = complete_multipartite_graph((1, 3))
    best = max(
        naive_chi_poc(WeightedGraph(star, weights)) for weights in weak_orderings(4)
    )
    assert best == 3 == f_exact(star)


def test_f_cap():
    # f walks the n! total orders: n = 9 is admitted, n = 10 is not
    assert oracles_mod._weighting_count(9, 9) <= DEFAULT_CAPS.weightings
    with pytest.raises(
        CapExceeded, match=r"^cap weightings=1000000 exceeded \(instance needs 3628800\)$"
    ):
        f_exact(Graph(10, frozenset()))


def test_chi_poc_t_is_chromatic_number_at_one():
    rng = random.Random(26)
    for _ in range(40):
        g = random_weighted_graph(rng, rng.randint(1, 6), rng.random(), 1).graph
        assert chi_poc_t(g, 1) == chromatic_number(g)


@pytest.mark.parametrize(
    "parts,t,value",
    [((2, 3), 5, 5), ((1, 3), 3, 3)],
)
def test_chi_poc_t_bipartite_examples(parts, t, value):
    assert chi_poc_t(complete_multipartite_graph(parts), t) == value


def test_chi_poc_t_monotone_small():
    for n in range(1, 5):
        for g in enumerate_graphs(n):
            values = [chi_poc_t(g, t) for t in range(1, n + 2)]
            assert all(a <= b for a, b in zip(values, values[1:]))


def test_sweep_caps_and_errors():
    g = path_graph(5)
    small = OracleCaps(chi_poc_n=4)
    with pytest.raises(CapExceeded, match=r"^cap chi_poc_n=4 exceeded \(instance needs 5\)$"):
        f_argmax(g, small)
    with pytest.raises(CapExceeded, match="chi_poc_n=4") as info:
        chi_poc_t_argmax(g, 2, small)
    assert info.value.cap == "chi_poc_n"
    # 5! = 120 total orders of 5 vertices, 2! S(5, 2) = 30 weak orderings
    # with exactly 2 blocks
    with pytest.raises(CapExceeded, match=r"^cap weightings=119 exceeded \(instance needs 120\)$"):
        f_argmax(g, OracleCaps(weightings=119))
    with pytest.raises(CapExceeded, match=r"^cap weightings=29 exceeded \(instance needs 30\)$"):
        chi_poc_t_argmax(g, 2, OracleCaps(weightings=29))
    assert f_argmax(g, OracleCaps(weightings=120)) == f_argmax(g)
    assert chi_poc_t_argmax(g, 2, OracleCaps(weightings=30)) == chi_poc_t_argmax(g, 2)
    with pytest.raises(ValueError, match=r"^t must be >= 1, got 0$"):
        chi_poc_t_argmax(g, 0)
    for empty in (f_argmax, lambda g: chi_poc_t_argmax(g, 1)):
        with pytest.raises(ValueError, match="at least one vertex"):
            empty(Graph(0, frozenset()))


# ---------------------------------------------------------------------------
# the weighting sweeps against a copy of the per-weighting search
# ---------------------------------------------------------------------------


def _reference_chi_poc(g: WeightedGraph) -> tuple[int, tuple[int, ...]]:
    """chi_poc_exact as it was before its set-up was shared: every call ranks
    the weights, sorts, bounds and finds a clique afresh."""
    rank = {x: i for i, x in enumerate(sorted(set(g.weights)), start=1)}
    w = tuple(rank[x] for x in g.weights)
    n = g.n
    adj = g.graph.adjacency
    order = sorted(range(1, n + 1), key=lambda v: (w[v - 1], -len(adj[v]), v))
    by_weight = sorted(range(1, n + 1), key=lambda v: w[v - 1])
    ending = [1] * (n + 1)
    for v in by_weight:
        for u in adj[v]:
            if w[u - 1] < w[v - 1] and ending[u] + 1 > ending[v]:
                ending[v] = ending[u] + 1
    starting = [1] * (n + 1)
    for v in reversed(by_weight):
        for u in adj[v]:
            if w[u - 1] > w[v - 1] and starting[u] + 1 > starting[v]:
                starting[v] = starting[u] + 1
    clique: list[int] = []
    for v in sorted(range(1, n + 1), key=lambda v: (-len(adj[v]), v)):
        if all(u in adj[v] for u in clique):
            clique.append(v)
    lower = max(max(ending[1:]), len(clique))
    colors = [0] * (n + 1)

    def assign(i: int, theta: int) -> bool:
        if i == n:
            return True
        v = order[i]
        lo = ending[v]
        hi = theta - starting[v] + 1
        taken = set()
        for u in adj[v]:
            cu = colors[u]
            if not cu:
                continue
            if w[u - 1] < w[v - 1]:
                if cu >= lo:
                    lo = cu + 1
            else:
                taken.add(cu)
        for c in range(lo, hi + 1):
            if c in taken:
                continue
            colors[v] = c
            if assign(i + 1, theta):
                return True
        colors[v] = 0
        return False

    for theta in range(lower, n + 1):
        if assign(0, theta):
            return theta, tuple(colors[1:])
    raise AssertionError("unreachable")


def _reference_sweep(
    g: Graph, t: int | None = None, exactly_t: bool = False
) -> tuple[int, tuple[int, ...]]:
    """f_argmax (t=None) or chi_poc_t_argmax: a fresh search per weak ordering,
    listed by the test's own ``_reference_weightings``. With exactly_t, only
    the weightings with exactly t values (t <= n)."""
    orderings = _reference_weightings(g.n, None if t is None else min(t, g.n))
    best, best_weights = 0, ()
    for weights in orderings:
        if exactly_t and max(weights) != t:
            continue
        value, _ = _reference_chi_poc(WeightedGraph(g, weights))
        if value > best:
            best, best_weights = value, weights
            if best == g.n:
                break
    return best, best_weights


def test_chi_poc_exact_matches_reference_search():
    rng = random.Random(28)
    for _ in range(1000):
        n = rng.randint(1, 9)
        g = random_weighted_graph(rng, n, rng.random(), rng.randint(1, 12))
        value, witness = chi_poc_exact(g)
        assert (value, witness.colors) == _reference_chi_poc(g), g
        assert witness.palette == value


def test_poc_search_meets_its_above_contract():
    """solve(row, above) on every weighting of every graph with n <= 5 and
    every above in 0..n: the value is max(above, chi_POC) and the colors are
    a POC within it; a value above ``above`` comes with the reference's
    witness."""
    for n in range(1, 6):
        weightings = list(weak_orderings(n))
        for g in enumerate_graphs(n):
            solve = oracles_mod._poc_search(g)
            edges = g.sorted_edges()
            for weights in weightings:
                chi, witness = _reference_chi_poc(WeightedGraph(g, weights))
                row = (0, *weights)
                for above in range(n + 1):
                    value, colors = solve(row, above)
                    assert value == max(above, chi), (g, weights, above)
                    assert all(1 <= c <= value for c in colors[1:]), (g, weights, above)
                    for u, v in edges:
                        a, b = (u, v) if row[u] <= row[v] else (v, u)
                        if row[a] < row[b]:
                            assert colors[a] < colors[b], (g, weights, above, colors)
                        else:
                            assert colors[a] != colors[b], (g, weights, above, colors)
                    if value > above:
                        assert tuple(colors[1:]) == witness, (g, weights, above)


def _sweep_graphs():
    yield from (g for n in range(1, 6) for g in enumerate_graphs(n))
    yield from random.Random(29).sample(list(enumerate_graphs(6)), 3)


def test_sweeps_match_reference_sweep():
    # for t <= n, at most t values and exactly t give the same value and
    # witness (see chi_poc_t_argmax), so the witness has min(t, n) values
    for g in _sweep_graphs():
        assert f_argmax(g) == _reference_sweep(g), g
        for t in range(1, g.n + 2):
            result = chi_poc_t_argmax(g, t)
            assert result == _reference_sweep(g, t), (g, t)
            assert len(set(result[1])) == min(t, g.n), (g, t, result)
            if t <= g.n:
                assert result == _reference_sweep(g, t, True), (g, t)


def test_multipartite_sweeps_match_reference_sweep():
    # K(3,3,3): a 9-vertex code is 81 bits, wider than a 64-bit word
    for parts in ((2, 2, 3), (1, 3, 4), (3, 3, 3)):
        g = complete_multipartite_graph(parts)
        for t in (1, 2, 3):
            result = chi_poc_t_argmax(g, t)
            assert result == _reference_sweep(g, t), (parts, t)
            assert len(set(result[1])) == t, (parts, t, result)
            assert result == _reference_sweep(g, t, True), (parts, t)


def _digest_tool():
    path = Path(__file__).resolve().parents[1] / "tools" / "digest.py"
    spec = importlib.util.spec_from_file_location("digest_tool", path)
    digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digest)
    return digest


def test_sweeps_digest_is_pinned():
    # the witness contract of f_argmax and chi_poc_t_argmax, "the first
    # maximiser in weak_orderings order", as the digest tool's sweeps section
    # over every graph with n <= 4, its first 3 + 8 + 20 + 66 = 97 lines; it
    # changes only with that contract
    digest = _digest_tool()
    assert digest.summarize(itertools.islice(digest.sweeps_lines(), 97)) == (
        97, 0, "cccaebb7a7c60920652b75d948b02c8b9f7d91f6d2cff243ee1919fe46bdd57a"
    )


def test_ellprime_digest_is_pinned():
    # the witness contract of ell_prime_orientation, "the first orientation
    # in its option order that attains the minimum", as the digest tool's
    # ellprime section over every weighting, in weak_orderings order, of
    # every graph with n <= 4, its first 1 + 2*3 + 4*13 + 11*75 = 884 lines;
    # it changes only with that contract or with that order
    digest = _digest_tool()
    assert digest.summarize(itertools.islice(digest.ellprime_lines(), 884)) == (
        884, 0, "cc83fb48414fd643960511458474643fd4d16a0d26b47f24725b53f92e1c9088"
    )


def test_chipoc_digest_is_pinned():
    # the witness contract of chi_poc_exact, "the first coloring that
    # _poc_search's descent reaches at the least palette", as the digest
    # tool's chipoc section over every weighting, in weak_orderings order, of
    # every graph with n <= 4, its first 884 lines, as for ellprime; it
    # changes only with that contract or with that order
    digest = _digest_tool()
    assert digest.summarize(itertools.islice(digest.chipoc_lines(), 884)) == (
        884, 0, "b10d2dcecf52ff0f1bf641128a31ee4c95fb56d1329197de7875f68a78ad41d5"
    )


def test_h_digest_is_pinned():
    # the witness contract of h_argmax, "the first weighting in
    # part_weightings order that attains the maximum", as the digest tool's
    # h section over every ordered tuple of part sizes with n <= 4, its first
    # (6 + 4) * 3 = 30 lines; it changes only with that contract or order
    digest = _digest_tool()
    assert digest.summarize(itertools.islice(digest.h_lines(), 30)) == (
        30, 0, "18b4d6080b2382b8093588be947484f8214e584306d3e811f545e38ba7d178c0"
    )


def test_paths_digest_is_pinned():
    # the witness contracts of longest_path_witness and proper_coloring_exact,
    # with has_hamiltonian_path, as the digest tool's paths section over every
    # graph with n <= 4, its first 1 + 2 + 4 + 11 = 18 lines; it changes only
    # with one of those contracts or with enumerate_graphs' order
    digest = _digest_tool()
    assert digest.summarize(itertools.islice(digest.paths_lines(), 18)) == (
        18, 0, "d25562273dc5726283a2304fa86ccc00609c94bd7667693e63004bddc5032f00"
    )


def test_mocs_digest_is_pinned():
    # the witness contract of find_max_spaths, "a largest family, then the
    # fewest components, then the lexicographically least", with g_value and
    # mocs_coloring, as the digest tool's mocs section over every
    # part_weightings row of every ordered tuple of part sizes with n <= 4,
    # its first 265 lines; it changes only with one of those contracts or
    # with part_weightings' order
    digest = _digest_tool()
    assert digest.summarize(itertools.islice(digest.mocs_lines(), 265)) == (
        265, 0, "da262de9b94b2060aa83e6203ab4516a474c69c7108f0ad6380f57023dc3f6aa"
    )


def _reversed(weights: tuple[int, ...]) -> tuple[int, ...]:
    top = max(weights)
    return tuple(top + 1 - x for x in weights)


def test_reversed_weighting_has_the_same_chi_poc():
    # c -> theta + 1 - c maps the POCs of w onto those of its reversal
    for n in range(1, 5):
        for g in enumerate_graphs(n):
            naive = {
                w: naive_chi_poc(WeightedGraph(g, w)) for w in weak_orderings(n)
            }
            assert all(value == naive[_reversed(w)] for w, value in naive.items()), g
    for g in enumerate_graphs(5):
        exact = {
            w: chi_poc_exact(WeightedGraph(g, w))[0] for w in weak_orderings(5)
        }
        assert all(value == exact[_reversed(w)] for w, value in exact.items()), g


def test_sweep_keeps_the_first_of_each_reversed_pair():
    # the rule the table applies: w comes no later than its reversal exactly
    # when (|B_k|, B_k) >= (|B_1|, B_1), B_r being the sorted block of rank r
    for n in range(1, 6):
        for blocks in (None, *range(1, min(3, n) + 1)):
            order = list(weak_orderings(n, blocks=blocks))
            position = {w: i for i, w in enumerate(order)}
            for w in order:
                first = tuple(v for v in range(1, n + 1) if w[v - 1] == 1)
                last = tuple(v for v in range(1, n + 1) if w[v - 1] == max(w))
                earlier = position[w] <= position[_reversed(w)]
                assert earlier == ((len(last), last) >= (len(first), first)), w


def _table_rows(n: int, k: int) -> list[tuple[tuple[int, ...], int]]:
    """The table's rows as (weights, decoded code) pairs."""
    ranks, codes = oracles_mod._sweep_weightings(n, k)
    width = (n * n + 7) // 8
    assert type(ranks) is bytes and type(codes) is bytes
    assert len(ranks) % (n + 1) == 0 and len(codes) == len(ranks) // (n + 1) * width
    rows = [ranks[i:i + n + 1] for i in range(0, len(ranks), n + 1)]
    assert all(row[0] == 0 for row in rows)
    decoded = [
        int.from_bytes(codes[i:i + width], "little") for i in range(0, len(codes), width)
    ]
    return [(tuple(row[1:]), code) for row, code in zip(rows, decoded)]


def _strictly_lighter(weights: tuple[int, ...]) -> int:
    """Vertex v's field (bits (v-1)*n upward) is the set of vertices lighter than v."""
    n = len(weights)
    return sum(
        1 << (v * n + u)
        for v in range(n)
        for u in range(n)
        if weights[u] < weights[v]
    )


def test_sweep_table_is_the_unreversed_weak_orderings():
    keys = sorted({(n, min(b, n)) for n in range(1, 7) for b in (n, 1, 2, 3)})
    keys += [(7, 3), (7, 7), (8, 3)]
    for n, k in keys:
        order = [w for w in _reference_weightings(n, k) if max(w) == k]
        assert list(weak_orderings(n, blocks=k)) == order, (n, k)
        if k == n:  # the total orders: vertices by rank in permutations order
            by_rank = [tuple(sorted(range(1, n + 1), key=lambda v: w[v - 1])) for w in order]
            assert by_rank == list(itertools.permutations(range(1, n + 1))), n
        position = {w: i for i, w in enumerate(order)}
        expected = [w for w in order if position[w] <= position[_reversed(w)]]
        rows = _table_rows(n, k)
        assert [weights for weights, _ in rows] == expected, (n, k)
        # one of each reversed pair; with k = 1, the one-block weighting
        assert len(rows) == (len(order) + 1) // 2, (n, k)
        for weights, code in rows:
            assert code == _strictly_lighter(weights), (n, k, weights)
    # a key outside 1 <= k <= n has no table: refused, and nothing is cached
    before = oracles_mod._sweep_weightings.cache_info().currsize
    for n, k in ((3, 4), (3, 0), (1, 2)):
        with pytest.raises(ValueError):
            oracles_mod._sweep_weightings(n, k)
    assert oracles_mod._sweep_weightings.cache_info().currsize == before
    # an argmax is a tuple of ints, not bytes or a slice of the table
    for n in range(1, 5):
        for g in enumerate_graphs(n):
            results = [f_argmax(g)]
            results += [chi_poc_t_argmax(g, t) for t in range(1, n + 2)]
            for _, weights in results:
                assert type(weights) is tuple and len(weights) == n, (g, weights)
                assert all(type(x) is int for x in weights), (g, weights)


def test_sweep_table_is_built_once_per_key(monkeypatch):
    real = oracles_mod.weak_orderings
    generations: dict[tuple[int, int | None], int] = {}

    def counting(n, *, blocks=None):
        generations[n, blocks] = generations.get((n, blocks), 0) + 1
        return real(n, blocks=blocks)

    oracles_mod._sweep_weightings.cache_clear()
    monkeypatch.setattr(oracles_mod, "weak_orderings", counting)
    for n in range(1, 6):
        for g in enumerate_graphs(n):
            f_argmax(g)
            for t in (1, 2, 3):
                chi_poc_t_argmax(g, t)
    # t >= n allows every weak ordering, so it reads f's table
    keys = {(n, min(b, n)) for n in range(1, 6) for b in (n, 1, 2, 3)}
    assert set(generations) == keys
    assert max(generations.values()) == 1, generations


def test_t_at_least_n_reads_fs_table():
    g = complete_multipartite_graph((1, 4))
    oracles_mod._sweep_weightings.cache_clear()
    f_argmax(g)
    chi_poc_t_argmax(g, g.n)
    chi_poc_t_argmax(g, g.n + 3)
    assert oracles_mod._sweep_weightings.cache_info().currsize == 1


def test_sweep_caps_refuse_before_building_a_table():
    before = oracles_mod._sweep_weightings.cache_info()
    g = path_graph(10)
    with pytest.raises(CapExceeded) as info:
        f_argmax(g)
    assert (info.value.cap, info.value.actual) == ("weightings", 3628800)
    # exactly 5 blocks: 5! S(10, 5) = 5 103 000 weak orderings; t >= n
    # counts the 10! total orders
    for t, actual in ((5, 5103000), (10, 3628800), (12, 3628800)):
        with pytest.raises(CapExceeded) as info:
            chi_poc_t_argmax(g, t)
        assert (info.value.cap, info.value.actual) == ("weightings", actual), t
    small = OracleCaps(chi_poc_n=4)
    with pytest.raises(CapExceeded) as info:
        f_argmax(path_graph(5), small)
    assert info.value.cap == "chi_poc_n"
    with pytest.raises(CapExceeded) as info:
        chi_poc_t_argmax(path_graph(5), 2, small)
    assert info.value.cap == "chi_poc_n"
    after = oracles_mod._sweep_weightings.cache_info()
    assert after.currsize == before.currsize
    assert after.hits + after.misses == before.hits + before.misses  # not even looked up


def _edge_signs(g: Graph, weights: tuple[int, ...]) -> tuple[int, ...]:
    """Per edge (u, v), u < v: 1 if u is heavier, -1 if lighter, 0 if equal."""
    return tuple(
        (weights[u - 1] > weights[v - 1]) - (weights[u - 1] < weights[v - 1])
        for u, v in g.sorted_edges()
    )


def _spy_solves(monkeypatch) -> list[tuple[int, int, tuple[int, ...]]]:
    """Record (above, value, weights) for each call of a prepared
    ``_poc_search``."""
    real = oracles_mod._poc_search
    seen = []

    def spying(g):
        solve = real(g)

        def spy(w, above):
            value, colors = solve(w, above)
            seen.append((above, value, tuple(w[1:])))
            return value, colors

        return spy

    monkeypatch.setattr(oracles_mod, "_poc_search", spying)
    return seen


def test_sweep_pattern_key_is_exact(monkeypatch):
    """A row's code ANDed with the graph's adjacency is its comparison pattern
    on the edges, which fixes chi_POC, so a sweep solves each pattern once."""
    for n in range(1, 6):
        for k in sorted({min(b, n) for b in (n, 1, 2, 3)}):
            rows = _table_rows(n, k)
            for g in enumerate_graphs(n):
                adjacency = sum(
                    1 << ((v - 1) * n + u - 1) for v in range(1, n + 1) for u in g.adjacency[v]
                )
                signs_of: dict[int, tuple[int, ...]] = {}
                key_of: dict[tuple[int, ...], int] = {}
                chi_of: dict[int, int] = {}
                for weights, code in rows:
                    key, signs = code & adjacency, _edge_signs(g, weights)
                    assert signs_of.setdefault(key, signs) == signs, (g, weights)
                    assert key_of.setdefault(signs, key) == key, (g, weights)
                    chi = chi_poc_exact(WeightedGraph(g, weights))[0]
                    assert chi_of.setdefault(key, chi) == chi, (g, weights)

    solves = _spy_solves(monkeypatch)
    assert f_argmax(Graph(6, frozenset()))[0] == 1
    assert len(solves) == 1
    for n in range(1, 6):
        for g in enumerate_graphs(n):
            sweeps = [(n, lambda: f_argmax(g))]
            sweeps += [(min(t, n), lambda t=t: chi_poc_t_argmax(g, t)) for t in (1, 2, 3)]
            for k, sweep in sweeps:
                patterns = {_edge_signs(g, weights) for weights, _ in _table_rows(n, k)}
                solves.clear()
                sweep()
                assert 1 <= len(solves) <= len(patterns), (g, k)


def _twin_classes(g: Graph) -> list[list[int]]:
    """The classes of u ~ v when N(u) - {v} = N(v) - {u}, members ascending."""
    adj = g.adjacency
    classes: list[list[int]] = []
    for v in range(1, g.n + 1):
        for members in classes:
            if adj[members[0]] - {v} == adj[v] - {members[0]}:
                members.append(v)
                break
        else:
            classes.append([v])
    return classes


def _twin_sorted(weights: tuple[int, ...], classes: list[list[int]]) -> tuple[int, ...]:
    """weights with each twin class's ranks sorted: lower ids get lower ranks."""
    out = list(weights)
    for members in classes:
        for v, rank in zip(members, sorted(weights[v - 1] for v in members)):
            out[v - 1] = rank
    return tuple(out)


def test_twin_sorting_moves_a_weighting_earlier_and_keeps_chi_poc():
    """The premise of the sweep's twin skip: a twin swap is an automorphism,
    and sorting a weighting inside its twin classes gives one that
    weak_orderings lists earlier."""
    for n in range(1, 6):
        for k in range(1, n + 1):
            order = list(weak_orderings(n, blocks=k))
            position = {w: i for i, w in enumerate(order)}
            for g in enumerate_graphs(n):
                classes = _twin_classes(g)
                for i, weights in enumerate(order):
                    twin_sorted = _twin_sorted(weights, classes)
                    if twin_sorted == weights:
                        continue
                    assert position[twin_sorted] < i, (g, weights)
                    assert (
                        _reference_chi_poc(WeightedGraph(g, twin_sorted))[0]
                        == _reference_chi_poc(WeightedGraph(g, weights))[0]
                    ), (g, weights)


def test_sweep_solves_the_first_twin_sorted_row_of_each_pattern(monkeypatch):
    """The sweep solves, in table order, the first row of each edge pattern
    among the rows sorted inside every twin class, until best reaches n."""
    solves = _spy_solves(monkeypatch)
    cases = [
        (g, k, lambda g=g, k=k: chi_poc_t_argmax(g, k))
        for n in range(1, 6)
        for g in enumerate_graphs(n)
        for k in range(1, n + 1)
    ]
    k233 = complete_multipartite_graph((2, 3, 3))
    cases.append((k233, 3, lambda: chi_poc_t_argmax(k233, 3)))
    for g, k, sweep in cases:
        classes = _twin_classes(g)
        expected, patterns = [], set()
        for weights, _ in _table_rows(g.n, k):
            signs = _edge_signs(g, weights)
            if _twin_sorted(weights, classes) == weights and signs not in patterns:
                patterns.add(signs)
                expected.append(weights)
        solves.clear()
        value, _ = sweep()
        solved = [weights for _, _, weights in solves]
        assert solved == expected[:len(solved)], (g, k)
        assert len(solved) == len(expected) or value == g.n, (g, k)


def test_f_sweep_builds_chain_bounds_only_to_improve(monkeypatch):
    """Over a total order, first fit colors each vertex with the longest
    increasing path ending there, a lower bound on chi_POC, so it is optimal:
    a pattern that cannot raise f's running best never reaches the chain
    bounds, and one that can reaches them at most once."""
    bounds = _spy(monkeypatch, "_increasing_chain_bounds")
    solves = _spy_solves(monkeypatch)
    for n in range(1, 7):
        for g in enumerate_graphs(n):
            bounds.clear()
            solves.clear()
            f_argmax(g)
            assert len(bounds) <= sum(value > above for above, value, _ in solves), g


def test_total_order_patterns_are_the_acyclic_orientations():
    """Over the total orders, f's table, the pattern keys ``code & adjacency``
    together with their reversals are exactly the acyclic orientations of G
    (a key orients each edge heavier -> lighter), and there are |P_G(-1)|
    of them (Stanley 1973), counted here by deletion-contraction.

    Each key is checked to orient every edge once and to be acyclic, so
    |P_G(-1)| distinct such keys are all the acyclic orientations."""
    for n in range(1, 7):
        rows = _table_rows(n, n)
        for g in enumerate_graphs(n):
            adjacency = sum(
                1 << ((v - 1) * n + u - 1) for v in range(1, n + 1) for u in g.adjacency[v]
            )
            keys = {code & adjacency for _, code in rows}
            # the reversal swaps every arc: the edge bits the key leaves out
            orientations = keys | {adjacency ^ key for key in keys}
            assert len(orientations) == _stanley_count(n, g.edges), g
            for key in orientations:
                heads = [key >> (v * n) & ((1 << n) - 1) for v in range(n)]
                for u, v in g.edges:  # exactly one of u -> v and v -> u
                    assert (heads[u - 1] >> (v - 1) & 1) != (heads[v - 1] >> (u - 1) & 1), g
                left = (1 << n) - 1
                while left:  # peel off the sinks of what is left
                    sinks = sum(1 << v for v in range(n) if left >> v & 1 and not heads[v] & left)
                    assert sinks, (g, key)  # a cycle has no sink
                    left ^= sinks


def _connected_partitions(g: Graph) -> Iterator[list[tuple[int, ...]]]:
    """The partitions of g's vertices into blocks that each induce a connected
    subgraph: the flats of g's graphic arrangement."""

    def partitions(items: tuple[int, ...]) -> Iterator[list[tuple[int, ...]]]:
        if not items:
            yield []
            return
        first, rest = items[0], items[1:]
        for size in range(len(rest) + 1):
            for others in itertools.combinations(rest, size):
                left = tuple(x for x in rest if x not in others)
                for tail in partitions(left):
                    yield [(first, *others), *tail]

    def connected(block: tuple[int, ...]) -> bool:
        reached, todo = {block[0]}, [block[0]]
        while todo:
            v = todo.pop()
            for u in g.adjacency[v]:
                if u in block and u not in reached:
                    reached.add(u)
                    todo.append(u)
        return len(reached) == len(block)

    for partition in partitions(tuple(range(1, g.n + 1))):
        if all(connected(block) for block in partition):
            yield partition


def test_weak_ordering_patterns_are_the_arrangement_faces():
    """The distinct edge-sign vectors over every weak ordering are the faces of
    g's graphic arrangement (Zaslavsky 1975): one per connected partition pi
    and acyclic orientation of the contraction g / pi, |P_{g/pi}(-1)| of them
    by deletion-contraction. Totals over all graphs: 1, 4, 26, 313, 5 140."""
    totals = []
    for n in range(1, 6):
        weightings = list(weak_orderings(n))
        total = 0
        for g in enumerate_graphs(n):
            patterns = {_edge_signs(g, w) for w in weightings}
            faces = 0
            for partition in _connected_partitions(g):
                block_of = {v: i for i, block in enumerate(partition) for v in block}
                contracted = {
                    (min(block_of[u], block_of[v]), max(block_of[u], block_of[v]))
                    for u, v in g.edges
                    if block_of[u] != block_of[v]
                }
                faces += _stanley_count(len(partition), contracted)
            assert len(patterns) == faces, g
            total += faces
        totals.append(total)
    assert totals == [1, 4, 26, 313, 5140]


# ---------------------------------------------------------------------------
# POC enumeration
# ---------------------------------------------------------------------------


def test_enumerate_pocs_c4w(c4w):
    assert enumerate_pocs(c4w, 3) == 1
    assert [c.colors for c in iter_pocs(c4w, 3)] == [(1, 2, 2, 3)]
    assert enumerate_pocs(c4w, 2) == 0


def test_enumerate_pocs_two_isolated_equal():
    g = WeightedGraph(Graph(2, frozenset()), (1, 1))
    assert enumerate_pocs(g, 1) == 1


def test_enumerate_pocs_counts_functions():
    # single vertex with palette 2: both color choices count
    g = WeightedGraph(Graph(2, frozenset()), (1, 1))
    assert enumerate_pocs(g, 2) == 4


def test_enumerate_pocs_matches_naive_filter():
    rng = random.Random(27)
    for _ in range(40):
        g = random_weighted_graph(rng, rng.randint(1, 4), rng.random(), rng.randint(1, 3))
        for theta in range(1, g.n + 1):
            naive = sum(
                1
                for colors in itertools.product(range(1, theta + 1), repeat=g.n)
                if is_valid_poc(g, Coloring(colors, theta))
            )
            assert enumerate_pocs(g, theta) == naive


def test_enumerate_pocs_caps_and_bounds(c4w):
    with pytest.raises(ValueError, match="theta"):
        enumerate_pocs(c4w, 5)
    big = WeightedGraph(Graph(11, frozenset()), (1,) * 11)
    with pytest.raises(CapExceeded, match="enum_pocs_n"):
        enumerate_pocs(big, 2)


# ---------------------------------------------------------------------------
# graph enumeration and Hamiltonian paths
# ---------------------------------------------------------------------------


def test_enumerate_graphs_counts_match_known_values():
    assert [sum(1 for _ in enumerate_graphs(n)) for n in range(1, 7)] == [
        1,
        2,
        4,
        11,
        34,
        156,
    ]


def _reference_canonical_masks(n: int) -> tuple[int, ...]:
    """Every edge mask on n vertices that no relabelling makes smaller, in
    ascending order, by a scan over all 2^(n(n-1)/2) masks."""
    pairs = list(itertools.combinations(range(n), 2))
    index = {p: i for i, p in enumerate(pairs)}
    tables = [
        tuple(index[min(perm[u], perm[v]), max(perm[u], perm[v])] for u, v in pairs)
        for perm in itertools.permutations(range(n))
    ]
    masks = []
    for mask in range(1 << len(pairs)):
        bits = [i for i in range(len(pairs)) if mask >> i & 1]
        for table in tables:
            if sum(1 << table[b] for b in bits) < mask:
                break
        else:
            masks.append(mask)
    return tuple(masks)


def test_canonical_masks_extend_the_smaller_ones_like_the_full_scan():
    for n in range(1, 7):
        assert oracles_mod._canonical_masks(n) == _reference_canonical_masks(n), n


def test_enumerate_graphs_refuses_n_above_6():
    with pytest.raises(ValueError, match="n <= 6"):
        next(enumerate_graphs(7))


def test_enumerate_graphs_pairwise_nonisomorphic_n4():
    def canon(g: Graph) -> frozenset:
        best = None
        for perm in itertools.permutations(range(1, g.n + 1)):
            mapped = frozenset(
                (min(perm[u - 1], perm[v - 1]), max(perm[u - 1], perm[v - 1]))
                for u, v in g.edges
            )
            key = tuple(sorted(mapped))
            if best is None or key < best:
                best = key
        return frozenset(best)

    seen = set()
    for g in enumerate_graphs(4):
        c = canon(g)
        assert c not in seen
        seen.add(c)


def test_enumerate_graphs_matches_graph_atlas():
    """Every atlas graph with n <= 6 (Read & Wilson, An Atlas of Graphs) is
    isomorphic to exactly one representative, so the representatives are
    also pairwise non-isomorphic."""
    nx = pytest.importorskip("networkx")

    def degrees(g) -> tuple[int, ...]:
        return tuple(sorted(d for _, d in g.degree()))

    atlas = [a for a in nx.graph_atlas_g() if 1 <= len(a) <= 6]
    for n in range(1, 7):
        buckets: dict[tuple[int, ...], list] = {}
        for g in enumerate_graphs(n):
            rep = nx.Graph()
            rep.add_nodes_from(range(1, n + 1))
            rep.add_edges_from(g.edges)
            buckets.setdefault(degrees(rep), []).append(rep)
        of_order = [a for a in atlas if len(a) == n]
        assert len(of_order) == sum(len(b) for b in buckets.values())
        for a in of_order:
            matches = [r for r in buckets.get(degrees(a), []) if nx.is_isomorphic(a, r)]
            assert len(matches) == 1, (n, sorted(a.edges))


def test_hamiltonian_path_examples():
    assert has_hamiltonian_path(cycle_graph(4))
    assert has_hamiltonian_path(path_graph(5))
    assert not has_hamiltonian_path(complete_multipartite_graph((1, 3)))
    assert not has_hamiltonian_path(Graph(3, frozenset()))
    assert has_hamiltonian_path(Graph(1, frozenset()))


def test_f_equals_n_iff_hamiltonian_n5():
    for n in range(1, 6):
        for g in enumerate_graphs(n):
            assert (f_exact(g) == n) == has_hamiltonian_path(g)


# ---------------------------------------------------------------------------
# independence of the paired oracles
# ---------------------------------------------------------------------------


def _package_imports(module) -> dict[str, set[str]]:
    """The pocgraph modules that a module's source imports, each with the
    names it takes from them ("*" for the module itself)."""
    with open(module.__file__) as source:
        tree = ast.parse(source.read())
    found: dict[str, set[str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "pocgraph":
                    found.setdefault(a.name.removeprefix("pocgraph."), set()).add("*")
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and (node.module or "").split(".")[0] != "pocgraph":
                continue
            module_name = (node.module or "").removeprefix("pocgraph").lstrip(".")
            for a in node.names:
                if module_name:
                    found.setdefault(module_name, set()).add(a.name)
                else:
                    found.setdefault(a.name, set()).add("*")
    return found


def test_oracles_import_nothing_but_graph_core():
    assert set(_package_imports(oracles_mod)) == {"graph_core"}
    assert set(_package_imports(poc_engine_mod)) == {"graph_core", "oracles"}
    # h is checked against chi_poc(G;t): the MOCs side may share the caps and
    # the proper-coloring oracle, never a POC search
    assert _package_imports(multipartite_mod)["oracles"] <= {
        "DEFAULT_CAPS", "CapExceeded", "OracleCaps", "proper_coloring_exact"
    }


def _package_sources() -> dict[str, ast.Module]:
    package = Path(poc_engine_mod.__file__).parent
    return {path.name: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}


def test_validity_never_runs_the_greedy(monkeypatch):
    """is_valid_poc certifies the greedy, so it must not reuse its loop."""
    rng = random.Random(25)
    cases = []
    for _ in range(200):
        g = random_weighted_graph(rng, rng.randint(2, 12), rng.random(), rng.randint(1, 4))
        cases.append((g, poc_engine_mod.greedy_poc(g)))

    def forbidden(*args, **kwargs):
        raise AssertionError("validity ran the greedy's code")

    for name in ("_greedy_colors", "_weight_order"):
        monkeypatch.setattr(poc_engine_mod, name, forbidden)
    with pytest.raises(AssertionError, match="greedy's code"):
        poc_engine_mod.greedy_poc(cases[0][0])
    rejected = 0
    for g, coloring in cases:
        assert is_valid_poc(g, coloring)
        flat = Coloring((1,) * g.n, 1)
        assert is_valid_poc(g, flat) == (g.graph.m == 0)
        rejected += g.graph.m > 0
    assert rejected >= 150


def _theorem3_sample() -> list[WeightedGraph]:
    """Seeded instances for the independence guards: several classes with
    intra edges, and instances whose first minimum comes before the end of
    the ell' product at the forced floor and at a class-clique floor above it."""
    rng = random.Random(1976)
    cases = [random_weighted_graph(rng, rng.randint(2, 6), rng.random(), rng.randint(1, 4))
             for _ in range(120)]
    kinds = set()
    for g in cases:
        ref = _reference_ell_prime(g)
        if len({g.weight(u) for u, v in g.graph.edges if g.weight(u) == g.weight(v)}) >= 2:
            kinds.add("several classes")
        if ref["early"] and ref["value"] == ref["forced_floor"]:
            kinds.add("forced floor")
        if ref["early"] and ref["value"] == ref["clique_floor"] > ref["forced_floor"]:
            kinds.add("clique floor")
    assert kinds == {"several classes", "forced floor", "clique floor"}
    return cases


def test_ell_prime_never_runs_the_chi_poc_search(monkeypatch):
    """Theorem 3 compares ell' with chi_POC, so neither may run the other's code."""
    cases = [(g, chi_poc_exact(g)[0]) for g in _theorem3_sample()]

    def forbidden(*args, **kwargs):
        raise AssertionError("ell' ran the chi_POC search's code")

    for name in (
        "_poc_search", "_greedy_clique", "_dsatur_coloring", "_increasing_chain_bounds",
        "chromatic_number", "chi_poc_exact",
    ):
        monkeypatch.setattr(oracles_mod, name, forbidden)
    with pytest.raises(AssertionError, match="chi_POC search's code"):
        oracles_mod.chi_poc_exact(cases[0][0])
    for g, value in cases:
        assert ell_prime_exact(g) == value, g


def test_chi_poc_never_runs_the_ell_prime_search(monkeypatch):
    cases = [(g, ell_prime_exact(g)) for g in _theorem3_sample()]

    def forbidden(*args, **kwargs):
        raise AssertionError("chi_POC ran the ell' search's code")

    for name in (
        "_class_edges", "_class_options", "_class_count", "_class_orders",
        "_class_clique_floor", "ell_prime_orientation",
    ):
        monkeypatch.setattr(oracles_mod, name, forbidden)
    with pytest.raises(AssertionError, match="ell' search's code"):
        oracles_mod.ell_prime_orientation(cases[0][0])
    for g, value in cases:
        assert chi_poc_exact(g)[0] == value, g


def test_no_module_imports_gc():
    for name, tree in _package_sources().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                assert "gc" not in {a.name for a in node.names}, name
            elif isinstance(node, ast.ImportFrom):
                assert node.module != "gc", name


def test_only_the_cli_reads_the_environment_and_only_poc_caps():
    keys = []
    for name, tree in _package_sources().items():
        uses = keyed = 0
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "os":
                assert not {a.name for a in node.names} & {"environ", "getenv"}, name
            if isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv"):
                uses += 1
            # os.environ.get("KEY", ...) and os.environ["KEY"]
            target = None
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                if node.func.attr == "get" and node.args:
                    target, key = node.func.value, node.args[0]
            elif isinstance(node, ast.Subscript):
                target, key = node.value, node.slice
            if isinstance(target, ast.Attribute) and target.attr == "environ":
                keyed += 1
                keys.append((name, getattr(key, "value", None)))
        assert uses == keyed, f"{name} reads the environment other than by a named key"
    assert keys == [("cli.py", "POC_CAPS")]


def test_sweeps_never_consult_longest_paths(monkeypatch):
    """f and chi_poc(G;t) are computed without ell(G) or Hamiltonicity, so
    Theorem 1 and its corollary compare two independent computations."""

    def forbidden(*args, **kwargs):
        raise AssertionError("a weighting sweep consulted a longest-path routine")

    for name in ("longest_path_exact", "longest_path_witness", "has_hamiltonian_path"):
        monkeypatch.setattr(oracles_mod, name, forbidden)
    for n in range(1, 6):
        for g in enumerate_graphs(n):
            assert 1 <= oracles_mod.f_argmax(g)[0] <= n
            for t in (1, 2, 3):
                assert 1 <= oracles_mod.chi_poc_t_argmax(g, t)[0] <= n


def test_g_and_h_never_enumerate_mocs(monkeypatch):
    """g reads the canonical MOCs alone, so h, which Proposition 2 compares
    with chi_poc(G;t), never lists every MOCs."""

    def forbidden(*args, **kwargs):
        raise AssertionError("g or h enumerated every MOCs")

    monkeypatch.setattr(multipartite_mod, "enumerate_mocs", forbidden)
    for sizes in _prop2_family():
        for t in (1, 2, 3):
            value, weights = multipartite_mod.h_argmax(sizes, t)
            inst = multipartite_mod.MultipartiteInstance(sizes, weights)
            assert multipartite_mod.g_value(inst) == value
