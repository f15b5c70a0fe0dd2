from __future__ import annotations

import ast
import functools
import itertools
import math
import random
from typing import Iterator

import pytest

from pocgraph import (
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
    g = WeightedGraph(complete_graph(8), (1,) * 8)
    with pytest.raises(CapExceeded, match="ell_prime_intra_edges"):
        ell_prime_exact(g)


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
    options = oracles_mod._class_options(members, intra)
    expected = _stanley_count(len(members), intra)
    if len(options) != expected:
        return f"{len(options)} orientations, |P_G(-1)| = {expected}"
    if len({bits for bits, _ in options}) != len(options):
        return "an orientation repeats"
    for bits, order in options:
        if sorted(v for v, _ in order) != members:
            return f"order {order} does not list the members once each"
        position = {v: i for i, (v, _) in enumerate(order)}
        arcs = {(v, h) for v, heads in order for h in heads}
        if arcs != set(oracles_mod._class_arcs(intra, bits)):
            return f"order {order} does not carry the arcs of bits {bits}"
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


def _reference_ell_prime(g: WeightedGraph) -> tuple[int, frozenset, bool]:
    """ell' by the plain search that fixes the witness order: every orientation
    of each class in bit order (bit i flips intra edge i), the acyclic ones kept
    and sorted by arc tuple when 2^k > m!; the product over the classes by
    ascending weight; a longest-path DP per candidate; the first strict minimum,
    stopping at the longest path of the forced arcs. Also returns whether the
    search stopped there before the end of the product."""
    rank = {x: i for i, x in enumerate(sorted(set(g.weights)))}
    w = [rank[x] for x in g.weights]
    forced, intra = [], {}
    for u, v in g.graph.sorted_edges():
        if w[u - 1] == w[v - 1]:
            intra.setdefault(w[u - 1], []).append((u, v))
        else:
            forced.append((u, v) if w[u - 1] > w[v - 1] else (v, u))

    def longest(arcs) -> int | None:
        out = {v: [] for v in range(1, g.n + 1)}
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
            return max(visit(v) for v in out)
        except ValueError:
            return None

    options = []
    for _, edges in sorted(intra.items()):
        members = {x for e in edges for x in e}
        found = []
        for bits in range(1 << len(edges)):
            arcs = tuple((v, u) if bits >> i & 1 else (u, v) for i, (u, v) in enumerate(edges))
            if longest(arcs) is not None:
                found.append(arcs)
        if 2 ** len(edges) > math.factorial(len(members)):
            found.sort()
        options.append(found)
    floor = longest(forced)
    combos = list(itertools.product(*options))
    best = None
    for i, combo in enumerate(combos):
        arcs = set(forced).union(*combo)
        value = longest(arcs)
        if best is None or value < best[0]:
            best = (value, frozenset(arcs))
            if value == floor:
                return value, best[1], i + 1 < len(combos)
    return best[0], best[1], False


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
        value, arcs, stopped_early = _reference_ell_prime(g)
        got, witness = ell_prime_orientation(g, OracleCaps(ell_prime_intra_edges=28))
        assert (got, witness.arcs) == (value, arcs), g
        members = {x for u, v in g.graph.edges if g.weight(u) == g.weight(v) for x in (u, v)}
        classes = {g.weight(v) for v in members}
        intra = sum(g.weight(u) == g.weight(v) for u, v in g.graph.edges)
        if len(classes) == 1 and len(members) == g.n and 2**intra > math.factorial(g.n):
            kinds.add("dense all-equal class")
        if len(classes) >= 2:
            kinds.add("several classes")
        if stopped_early:
            kinds.add("stopped at the floor")
    assert kinds == {"dense all-equal class", "several classes", "stopped at the floor"}


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


def test_weak_ordering_counts():
    # the Fubini numbers, OEIS A000670
    fubini = [1, 1, 3, 13, 75, 541, 4683, 47293, 545835]
    assert [sum(1 for _ in weak_orderings(n)) for n in range(9)] == fubini


def test_weak_ordering_block_cap():
    assert sum(1 for _ in weak_orderings(4, max_blocks=1)) == 1
    assert sum(1 for _ in weak_orderings(4, max_blocks=2)) == 15  # 1 + 2*S(4,2)


def test_weak_orderings_are_distinct_and_cover():
    seen = set()
    for weights in weak_orderings(4):
        assert weights not in seen
        seen.add(weights)
        assert len(weights) == 4 and set(weights) == set(range(1, max(weights) + 1))
    with pytest.raises(ValueError, match="n must be >= 0"):
        next(weak_orderings(-1))


def test_weak_orderings_are_the_surjections():
    # independent source: every map {1..n} -> {1..top} onto some {1..k}
    for n in range(7):
        for max_blocks in (None, *range(n + 2)):
            top = n if max_blocks is None else min(max_blocks, n)
            expected = {
                w
                for w in itertools.product(range(1, top + 1), repeat=n)
                if set(w) == set(range(1, max(w, default=0) + 1))
            }
            listed = list(weak_orderings(n, max_blocks))
            assert len(listed) == len(expected) and set(listed) == expected, (n, max_blocks)


def test_weak_orderings_keep_the_reference_order():
    for n in range(8):
        for max_blocks in (None, *range(n + 1)):
            expected = [
                _block_weights(blocks)
                for blocks in _reference_ordered_partitions(tuple(range(1, n + 1)), max_blocks)
            ]
            assert list(weak_orderings(n, max_blocks)) == expected, (n, max_blocks)


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
    with pytest.raises(CapExceeded, match="f_n"):
        f_exact(Graph(9, frozenset()))


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


def test_chi_poc_t_surjective_flag():
    g = complete_multipartite_graph((1, 3))
    for t in (1, 2, 3, 4):
        loose = chi_poc_t(g, t)
        strict = chi_poc_t(g, t, surjective_only=True)
        assert strict <= loose
        assert loose == max(
            chi_poc_t(g, s, surjective_only=True) for s in range(1, t + 1)
        )
    with pytest.raises(ValueError, match="surjective"):
        chi_poc_t(g, 5, surjective_only=True)


def test_sweep_caps_and_errors():
    g = path_graph(5)
    small = OracleCaps(chi_poc_n=4)
    with pytest.raises(CapExceeded, match=r"^cap chi_poc_n=4 exceeded \(instance needs 5\)$"):
        f_argmax(g, small)
    for surjective_only in (False, True):
        with pytest.raises(CapExceeded, match="chi_poc_n=4") as info:
            chi_poc_t_argmax(g, 2, small, surjective_only)
        assert info.value.cap == "chi_poc_n"
    with pytest.raises(CapExceeded, match=r"^cap f_n=4 exceeded \(instance needs 5\)$"):
        f_argmax(g, OracleCaps(f_n=4, chi_poc_n=4))
    with pytest.raises(CapExceeded, match=r"^cap chi_poc_t_n=4 exceeded \(instance needs 5\)$"):
        chi_poc_t_argmax(g, 2, OracleCaps(chi_poc_t_n=4, chi_poc_n=4))
    with pytest.raises(ValueError, match=r"^t must be >= 1, got 0$"):
        chi_poc_t_argmax(g, 0)
    with pytest.raises(ValueError, match=r"^no surjective weighting with 6 values on 5 vertices$"):
        chi_poc_t_argmax(g, 6, surjective_only=True)
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
    g: Graph, t: int | None = None, surjective_only: bool = False
) -> tuple[int, tuple[int, ...]]:
    """f_argmax (t=None) or chi_poc_t_argmax: a fresh search per weak ordering."""
    orderings = weak_orderings(g.n, None if t is None else min(t, g.n))
    best, best_weights = 0, ()
    for weights in orderings:
        if surjective_only and max(weights) != t:
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


def _sweep_graphs():
    yield from (g for n in range(1, 6) for g in enumerate_graphs(n))
    yield from random.Random(29).sample(list(enumerate_graphs(6)), 3)


def test_sweeps_match_reference_sweep():
    for g in _sweep_graphs():
        assert f_argmax(g) == _reference_sweep(g), g
        for t in range(1, g.n + 2):
            assert chi_poc_t_argmax(g, t) == _reference_sweep(g, t), (g, t)
            if t <= g.n:
                assert chi_poc_t_argmax(g, t, surjective_only=True) == _reference_sweep(
                    g, t, True
                ), (g, t)


def test_multipartite_sweeps_match_reference_sweep():
    # K(3,3,3): a 9-vertex code is 81 bits, wider than a 64-bit word
    caps = OracleCaps(chi_poc_t_n=9)
    for parts in ((2, 2, 3), (1, 3, 4), (3, 3, 3)):
        g = complete_multipartite_graph(parts)
        for t in (1, 2, 3):
            assert chi_poc_t_argmax(g, t, caps) == _reference_sweep(g, t), (parts, t)
            assert chi_poc_t_argmax(g, t, caps, True) == _reference_sweep(g, t, True), (parts, t)


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
        for max_blocks in (None, 1, 2, 3):
            order = list(weak_orderings(n, max_blocks))
            position = {w: i for i, w in enumerate(order)}
            for w in order:
                first = tuple(v for v in range(1, n + 1) if w[v - 1] == 1)
                last = tuple(v for v in range(1, n + 1) if w[v - 1] == max(w))
                earlier = position[w] <= position[_reversed(w)]
                assert earlier == ((len(last), last) >= (len(first), first)), w


def _table_rows(n: int, max_blocks: int | None) -> list[tuple[tuple[int, ...], int]]:
    """The table's rows as (weights, decoded code) pairs."""
    ranks, codes = oracles_mod._sweep_weightings(n, max_blocks)
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
    keys = [(n, b) for n in range(1, 7) for b in (None, 1, 2, 3)] + [(7, 3), (8, 3)]
    for n, max_blocks in keys:
        order = list(weak_orderings(n, max_blocks))
        position = {w: i for i, w in enumerate(order)}
        expected = [w for w in order if position[w] <= position[_reversed(w)]]
        rows = _table_rows(n, max_blocks)
        assert [weights for weights, _ in rows] == expected, (n, max_blocks)
        # one of each reversed pair, and the one-block weighting
        assert len(rows) == 1 + (len(order) - 1) // 2, (n, max_blocks)
        for weights, code in rows:
            assert code == _strictly_lighter(weights), (n, max_blocks, weights)
    # an argmax is a tuple of ints, not bytes or a slice of the table
    for n in range(1, 5):
        for g in enumerate_graphs(n):
            results = [f_argmax(g)]
            results += [chi_poc_t_argmax(g, t) for t in (1, 2, 3)]
            results += [chi_poc_t_argmax(g, t, surjective_only=True) for t in range(1, n + 1)]
            for _, weights in results:
                assert type(weights) is tuple and len(weights) == n, (g, weights)
                assert all(type(x) is int for x in weights), (g, weights)


def test_sweep_table_is_built_once_per_key(monkeypatch):
    real = oracles_mod.weak_orderings
    generations: dict[tuple[int, int | None], int] = {}

    def counting(n, max_blocks=None):
        generations[n, max_blocks] = generations.get((n, max_blocks), 0) + 1
        return real(n, max_blocks)

    oracles_mod._sweep_weightings.cache_clear()
    monkeypatch.setattr(oracles_mod, "weak_orderings", counting)
    for n in range(1, 6):
        for g in enumerate_graphs(n):
            f_argmax(g)
            for t in (1, 2, 3):
                chi_poc_t_argmax(g, t)
    # t >= n allows every weak ordering, so it reads f's table
    keys = {
        (n, None if b is None or b >= n else b) for n in range(1, 6) for b in (None, 1, 2, 3)
    }
    assert set(generations) == keys
    assert max(generations.values()) == 1, generations


def test_t_at_least_n_reads_fs_table():
    g = complete_multipartite_graph((1, 4))
    oracles_mod._sweep_weightings.cache_clear()
    f_argmax(g)
    chi_poc_t_argmax(g, g.n)
    chi_poc_t_argmax(g, g.n, surjective_only=True)
    chi_poc_t_argmax(g, g.n + 3)
    assert oracles_mod._sweep_weightings.cache_info().currsize == 1


def test_sweep_caps_refuse_before_building_a_table():
    before = oracles_mod._sweep_weightings.cache_info()
    g = path_graph(9)
    with pytest.raises(CapExceeded) as info:
        f_argmax(g)
    assert info.value.cap == "f_n"
    for surjective_only in (False, True):
        with pytest.raises(CapExceeded) as info:
            chi_poc_t_argmax(g, 3, surjective_only=surjective_only)
        assert info.value.cap == "chi_poc_t_n"
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


def test_sweep_pattern_key_is_exact(monkeypatch):
    """A row's code ANDed with the graph's adjacency is its comparison pattern
    on the edges, which fixes chi_POC, so a sweep solves each pattern once."""
    for n in range(1, 6):
        for max_blocks in (None, 1, 2, 3):
            rows = _table_rows(n, max_blocks)
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

    real = oracles_mod._poc_search
    solved = 0

    def counting(g):
        solve = real(g)

        def counted(w, above):
            nonlocal solved
            solved += 1
            return solve(w, above)

        return counted

    monkeypatch.setattr(oracles_mod, "_poc_search", counting)
    assert f_argmax(Graph(6, frozenset()))[0] == 1
    assert solved == 1
    for n in range(1, 6):
        for g in enumerate_graphs(n):
            sweeps = [(None, None, lambda: f_argmax(g))]
            for t in (1, 2, 3):
                b = min(t, n)
                sweeps.append((b, None, lambda t=t: chi_poc_t_argmax(g, t)))
                if t <= n:
                    sweeps.append((b, t, lambda t=t: chi_poc_t_argmax(g, t, surjective_only=True)))
            for max_blocks, blocks, sweep in sweeps:
                patterns = {
                    _edge_signs(g, weights)
                    for weights, _ in _table_rows(n, max_blocks)
                    if blocks is None or max(weights) == blocks
                }
                solved = 0
                sweep()
                assert 1 <= solved <= len(patterns), (g, max_blocks, blocks)


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

    atlas = [a for a in nx.graph_atlas_g() if 1 <= a.number_of_nodes() <= 6]
    for n in range(1, 7):
        buckets: dict[tuple[int, ...], list] = {}
        for g in enumerate_graphs(n):
            rep = nx.Graph()
            rep.add_nodes_from(range(1, n + 1))
            rep.add_edges_from(g.edges)
            buckets.setdefault(degrees(rep), []).append(rep)
        of_order = [a for a in atlas if a.number_of_nodes() == n]
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
