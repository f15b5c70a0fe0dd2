from __future__ import annotations

import itertools
import math
import random

import pytest

from pocgraph import (
    CapExceeded,
    MocsDecomposition,
    MultipartiteInstance,
    OracleCaps,
    SPaths,
    WeightedGraph,
    bipartite_chi_poc_t,
    bipartite_layered_coloring,
    chi_poc_t,
    chromatic_number,
    complete_graph,
    complete_multipartite_graph,
    complete_to_multipartite,
    completion_coloring,
    cycle_graph,
    enumerate_mocs,
    find_max_spaths,
    find_mocs,
    g_value,
    h_value,
    is_valid_poc,
    mocs_coloring,
    multipartite_upper_bound,
    validate_spaths,
    weak_orderings,
)
from pocgraph.multipartite import part_weightings
from pocgraph.oracles import enumerate_graphs


@pytest.fixture()
def k135_inst(k135) -> MultipartiteInstance:
    return MultipartiteInstance((1, 3, 5), k135.weights)


def brute_force_max_clique_total(inst: MultipartiteInstance) -> int:
    """Independent maximality reference: per weight value, the largest set of
    pairwise-adjacent vertices of that weight, found by subset enumeration."""
    graph = inst.graph
    total = 0
    for value in range(1, inst.t + 1):
        vertices = [v for v in range(1, inst.n + 1) if inst.weight(v) == value]
        best = 0
        for size in range(1, len(vertices) + 1):
            for subset in itertools.combinations(vertices, size):
                if all(graph.has_edge(u, v) for u, v in itertools.combinations(subset, 2)):
                    best = max(best, size)
        total += best
    return total


def brute_force_max_spaths_size(inst: MultipartiteInstance, mocs: MocsDecomposition) -> int:
    """Independent maximality reference for the path family: every weight-sorted
    vertex subset of every part is a path candidate; subsets of candidates are
    filtered through the standalone validator."""
    candidates = []
    for members in inst.parts:
        for size in range(2, len(members) + 1):
            for subset in itertools.combinations(members, size):
                ordered = tuple(sorted(subset, key=inst.weight))
                try:
                    validate_spaths(inst, mocs, SPaths((ordered,)))
                except ValueError:
                    continue
                candidates.append(ordered)
    best = 0
    for count in range(0, len(candidates) + 1):
        for family in itertools.combinations(candidates, count):
            try:
                validate_spaths(inst, mocs, SPaths(tuple(family)))
            except ValueError:
                continue
            best = max(best, sum(len(p) for p in family))
    return best


# ---------------------------------------------------------------------------
# instance type
# ---------------------------------------------------------------------------


def test_instance_validation():
    with pytest.raises(ValueError, match="2 parts"):
        MultipartiteInstance((3,), (1, 1, 1))
    with pytest.raises(ValueError, match="part sizes"):
        MultipartiteInstance((0, 2), (1, 1))
    with pytest.raises(ValueError, match="expected 3 weights"):
        MultipartiteInstance((1, 2), (1, 1))


def test_instance_layout(k135_inst):
    assert k135_inst.parts == ((1,), (2, 3, 4), (5, 6, 7, 8, 9))
    assert k135_inst.part_index == (0, 1, 1, 1, 2, 2, 2, 2, 2)
    assert k135_inst.k == 3 and k135_inst.n == 9 and k135_inst.t == 4
    assert k135_inst.is_normalized


def test_instance_normalized():
    inst = MultipartiteInstance((1, 1), (2, 9))
    assert not inst.is_normalized
    assert inst.normalized().weights == (1, 2)


# ---------------------------------------------------------------------------
# MOCs
# ---------------------------------------------------------------------------


def test_find_mocs_k135(k135_inst):
    mocs = find_mocs(k135_inst)
    assert mocs.cliques == ((1, 2, 5), (6,), (3, 7), (4, 8))
    assert mocs.total_size == 8
    assert [len(c) for c in mocs.cliques] == [3, 1, 2, 2]


def test_find_mocs_requires_normalized():
    inst = MultipartiteInstance((1, 1), (1, 3))
    with pytest.raises(ValueError, match="weight value 2 unused"):
        find_mocs(inst)


def test_find_mocs_singletons():
    inst = MultipartiteInstance((1, 1, 1), (1, 2, 3))
    assert find_mocs(inst).cliques == ((1,), (2,), (3,))


def test_find_mocs_single_weight_takes_one_per_part():
    inst = MultipartiteInstance((2, 3), (1, 1, 1, 1, 1))
    mocs = find_mocs(inst)
    assert mocs.cliques == ((1, 3),)


def test_mocs_total_is_maximum_by_brute_force():
    rng = random.Random(31)
    for _ in range(40):
        k = rng.randint(2, 3)
        sizes = tuple(rng.randint(1, 3) for _ in range(k))
        t = rng.randint(1, 3)
        raw = [rng.randint(1, t) for _ in range(sum(sizes))]
        rank = {w: i for i, w in enumerate(sorted(set(raw)), start=1)}
        inst = MultipartiteInstance(sizes, tuple(rank[w] for w in raw))
        assert find_mocs(inst).total_size == brute_force_max_clique_total(inst)


def test_enumerate_mocs_k135(k135_inst):
    all_mocs = enumerate_mocs(k135_inst)
    assert len(all_mocs) == 2  # weight-2 clique is {6} or {9}
    assert {m.cliques[1] for m in all_mocs} == {(6,), (9,)}
    assert all_mocs[0] == find_mocs(k135_inst)


def test_enumerate_mocs_forced_cases():
    assert len(enumerate_mocs(MultipartiteInstance((1, 1, 1), (1, 2, 3)))) == 1
    assert len(enumerate_mocs(MultipartiteInstance((2, 2), (1, 2, 1, 2)))) == 1


def test_enumerate_mocs_cap():
    inst = MultipartiteInstance((3, 3), (1, 1, 1, 1, 1, 1))
    with pytest.raises(CapExceeded, match="mocs_product"):
        enumerate_mocs(inst, OracleCaps(mocs_product=4))


# ---------------------------------------------------------------------------
# path families
# ---------------------------------------------------------------------------


def test_find_max_spaths_k135(k135_inst):
    mocs = find_mocs(k135_inst)
    s = find_max_spaths(k135_inst, mocs)
    assert s.paths == ((5, 6, 7), (3, 4))  # reported light cliques first
    assert s.vertex_count == 5 and s.q == 2
    assert brute_force_max_spaths_size(k135_inst, mocs) == 5


def test_spaths_empty_for_distinct_weight_complete_graph():
    inst = MultipartiteInstance((1, 1, 1), (1, 2, 3))
    s = find_max_spaths(inst, find_mocs(inst))
    assert s.paths == () and s.vertex_count == 0 and s.q == 0


def test_spaths_2x2_instance_takes_single_path():
    inst = MultipartiteInstance((2, 2), (1, 2, 1, 2))
    mocs = find_mocs(inst)
    s = find_max_spaths(inst, mocs)
    assert s.vertex_count == 2 and s.q == 1
    assert brute_force_max_spaths_size(inst, mocs) == 2


def test_validate_spaths_rejections(k135_inst):
    mocs = find_mocs(k135_inst)
    with pytest.raises(ValueError, match="fewer than 2"):
        validate_spaths(k135_inst, mocs, SPaths(((5,),)))
    with pytest.raises(ValueError, match="multiple parts"):
        validate_spaths(k135_inst, mocs, SPaths(((5, 3),)))
    with pytest.raises(ValueError, match="step up"):
        validate_spaths(k135_inst, mocs, SPaths(((5, 7),)))
    with pytest.raises(ValueError, match="not in its weight clique"):
        validate_spaths(k135_inst, mocs, SPaths(((9, 7),)))  # z5 not in H_2
    with pytest.raises(ValueError, match="more than one common clique"):
        validate_spaths(
            k135_inst,
            MocsDecomposition(((1, 2, 5), (6,), (3, 7), (4, 8))),
            SPaths(((3, 4), (7, 8))),  # disjoint but share cliques H_3 and H_4
        )
    with pytest.raises(ValueError, match="used by two paths"):
        validate_spaths(
            k135_inst,
            MocsDecomposition(((1, 2, 5), (6,), (3, 7), (4, 8))),
            SPaths(((5, 6, 7), (6, 7))),
        )
    with pytest.raises(ValueError, match="interior"):
        validate_spaths(
            k135_inst,
            MocsDecomposition(((1, 2, 5), (6,), (3, 7), (4, 8))),
            SPaths(((6, 7, 8),)),  # interior 7 shares H_3 with vertex 3
        )


def test_spaths_respect_interval_chain_order():
    # paths are reported from the light cliques toward the heavy ones
    inst = MultipartiteInstance((3, 3), (1, 2, 3, 1, 2, 3))
    mocs = find_mocs(inst)
    s = find_max_spaths(inst, mocs)
    assert s.vertex_count == 4  # 2t - 2
    starts = [inst.weight(p[0]) for p in s.paths]
    assert starts == sorted(starts)


# ---------------------------------------------------------------------------
# the clique-by-clique coloring
# ---------------------------------------------------------------------------


def test_mocs_coloring_k135_matches_worked_example(k135, k135_inst):
    mocs = find_mocs(k135_inst)
    s = find_max_spaths(k135_inst, mocs)
    c = mocs_coloring(k135_inst, mocs, s)
    assert c.colors == (1, 2, 4, 4, 3, 3, 3, 5, 3)
    assert c.palette == 5 == mocs.total_size - s.vertex_count + s.q
    assert c.color(9) == 3  # the leftover weight-2 vertex copies z2
    assert is_valid_poc(k135, c)


def test_mocs_coloring_k11():
    inst = MultipartiteInstance((1, 1), (1, 2))
    c = mocs_coloring(inst, find_mocs(inst), find_max_spaths(inst, find_mocs(inst)))
    assert c.colors == (1, 2)


def test_mocs_coloring_2x2_uses_three_colors():
    inst = MultipartiteInstance((2, 2), (1, 2, 1, 2))
    mocs = find_mocs(inst)
    c = mocs_coloring(inst, mocs, find_max_spaths(inst, mocs))
    assert c.palette == 3  # 4 - 2 + 1
    assert is_valid_poc(inst.weighted_graph(), c)


def test_mocs_coloring_exact_count_over_family():
    for sizes in [(1, 2), (2, 2), (1, 1, 2), (2, 2, 2), (1, 2, 3)]:
        n = sum(sizes)
        for weights in weak_orderings(n, max_blocks=3):
            inst = MultipartiteInstance(sizes, weights)
            for mocs in enumerate_mocs(inst):
                s = find_max_spaths(inst, mocs)
                c = mocs_coloring(inst, mocs, s)
                assert c.palette == mocs.total_size - s.vertex_count + s.q
                assert c.palette == g_value(inst)
                assert is_valid_poc(inst.weighted_graph(), c)


# ---------------------------------------------------------------------------
# g and h
# ---------------------------------------------------------------------------


def test_g_value_examples(k135_inst):
    assert g_value(k135_inst) == 5
    assert g_value(MultipartiteInstance((1, 1), (1, 2))) == 2
    assert g_value(MultipartiteInstance((2, 2), (1, 2, 1, 2))) == 3


@pytest.mark.parametrize(
    "sizes,t,value",
    [((1, 3), 3, 3), ((2, 3), 5, 5), ((2, 2), 2, 3)],
)
def test_h_value_examples(sizes, t, value):
    assert h_value(sizes, t) == value


def test_h_value_cap():
    with pytest.raises(CapExceeded, match="h_weightings"):
        h_value((3, 3), 3, OracleCaps(h_weightings=5))


def test_part_weightings_are_the_sorted_weak_orderings():
    # every choice of one weight multiset per part, in product order; their
    # normal forms are the weak orderings with at most t blocks that are
    # sorted inside each part
    for sizes in [(1, 2), (2, 2), (1, 1, 2), (2, 3), (1, 2, 3)]:
        n = sum(sizes)
        starts = list(itertools.accumulate(sizes, initial=0))
        for t in (1, 2, 3, 4):
            listed = list(part_weightings(sizes, t))
            choices = 1
            for size in sizes:
                choices *= math.comb(size + t - 1, size)
            assert len(listed) == choices, (sizes, t)
            sorted_inside = {
                w
                for w in weak_orderings(n, t)
                if all(
                    list(w[a:b]) == sorted(w[a:b]) for a, b in zip(starts, starts[1:])
                )
            }
            assert set(listed) == sorted_inside, (sizes, t)


def test_h_matches_brute_force_worst_case_small():
    caps = OracleCaps()
    for sizes in [(1, 1), (1, 2), (2, 2), (1, 1, 1), (1, 1, 2)]:
        graph = complete_multipartite_graph(sizes)
        for t in (1, 2, 3):
            assert h_value(sizes, t) == chi_poc_t(graph, t, caps)


# ---------------------------------------------------------------------------
# bipartite results
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("m,n,t,value", [(1, 1, 3, 2), (2, 3, 5, 5), (2, 5, 6, 5)])
def test_bipartite_formula(m, n, t, value):
    assert bipartite_chi_poc_t(m, n, t) == value


def test_bipartite_formula_preconditions():
    with pytest.raises(ValueError, match="t >= 2m\\+1"):
        bipartite_chi_poc_t(2, 3, 4)
    with pytest.raises(ValueError, match="1 <= m <= n"):
        bipartite_chi_poc_t(3, 2, 9)


def test_bipartite_layered_k25_worked_example():
    # X = {a1, a2} = ids 1,2; Y = {b1..b5} = ids 3..7
    weights = (2, 4, 1, 3, 3, 5, 5)
    c = bipartite_layered_coloring(2, 5, weights)
    assert c.colors == (2, 4, 1, 3, 3, 5, 5)
    assert c.palette == 5 == 2 * 2 + 1


def test_bipartite_layered_k11():
    assert bipartite_layered_coloring(1, 1, (4, 9)).palette == 2


def test_bipartite_layered_star_single_weight():
    c = bipartite_layered_coloring(1, 5, (1,) * 6)
    assert c.colors == (2, 1, 1, 1, 1, 1)
    assert c.palette <= 3


def test_bipartite_layered_random_within_bound():
    rng = random.Random(32)
    for m in range(1, 4):
        for n in range(m, 7):
            for _ in range(40):
                weights = tuple(rng.randint(1, 9) for _ in range(m + n))
                c = bipartite_layered_coloring(m, n, weights)
                wg = WeightedGraph(complete_multipartite_graph((m, n)), weights)
                assert is_valid_poc(wg, c)
                assert c.palette <= 2 * m + 1


def test_multipartite_upper_bound_examples():
    assert multipartite_upper_bound(2, 3) == 4
    assert multipartite_upper_bound(3, 2) == 5
    assert multipartite_upper_bound(2, 1) == 2
    with pytest.raises(ValueError, match="k >= 2"):
        multipartite_upper_bound(1, 3)


def test_g_within_corollary_bound():
    rng = random.Random(33)
    for _ in range(60):
        k = rng.randint(2, 3)
        sizes = tuple(rng.randint(1, 3) for _ in range(k))
        t = rng.randint(1, 3)
        raw = [rng.randint(1, t) for _ in range(sum(sizes))]
        rank = {w: i for i, w in enumerate(sorted(set(raw)), start=1)}
        inst = MultipartiteInstance(sizes, tuple(rank[w] for w in raw))
        assert g_value(inst) <= multipartite_upper_bound(k, inst.t)


# ---------------------------------------------------------------------------
# completion to multipartite
# ---------------------------------------------------------------------------


def test_complete_to_multipartite_c5():
    sizes, vmap = complete_to_multipartite(cycle_graph(5))
    assert sorted(sizes, reverse=True) == [2, 2, 1]
    assert sorted(vmap) == [1, 2, 3, 4, 5]
    assert sorted(vmap.values()) == [1, 2, 3, 4, 5]


def test_complete_to_multipartite_k4():
    sizes, _ = complete_to_multipartite(complete_graph(4))
    assert sizes == (1, 1, 1, 1)


def test_complete_to_multipartite_k23():
    sizes, _ = complete_to_multipartite(complete_multipartite_graph((2, 3)))
    assert sorted(sizes) == [2, 3]


def test_complete_to_multipartite_preserves_edges():
    for g in enumerate_graphs(4):
        if g.m == 0:
            continue
        sizes, vmap = complete_to_multipartite(g)
        big = complete_multipartite_graph(sizes)
        for u, v in g.edges:
            assert big.has_edge(vmap[u], vmap[v])


def test_complete_to_multipartite_rejects_edgeless():
    from pocgraph import Graph

    with pytest.raises(ValueError, match="edgeless"):
        complete_to_multipartite(Graph(3, frozenset()))


def test_completion_coloring_bound():
    for n in range(2, 5):
        for g in enumerate_graphs(n):
            if g.m == 0:
                continue
            chi = chromatic_number(g)
            for weights in weak_orderings(n):
                wg = WeightedGraph(g, weights)
                c = completion_coloring(wg)
                t = len(set(wg.weights))
                assert is_valid_poc(wg, c)
                assert c.palette <= (chi - 1) * t + 1
