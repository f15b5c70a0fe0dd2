"""POC machinery for weighted complete multipartite graphs.

For a weighted complete multipartite graph with weight values 1..t, pick one
clique H_i per weight value (at most one vertex per part, all of weight i)
so that the total size is maximum; these are the *maximum ordered cliques*
(MOCs). Colors can then be saved by locating families of vertex-disjoint
paths in the complement whose weights step up by exactly one: every such
path lies inside one part, so its vertices may share a single color. The
coloring built this way uses exactly

    sum |H_i|  -  |V(S)|  +  q(S)

colors, where S is the chosen path family and q(S) its component count.
Every MOCs fills the same (weight value, part) slots, and the best path
family depends only on those slots and the clique sizes, so this quantity is
the same for every MOCs: it is g(...; w), read off the canonical MOCs.
Maximizing g over all weightings with values in 1..t gives h(..., t), which
equals the worst-case POC palette of the graph over such weightings.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from math import comb, prod
from typing import Iterator, Sequence

from .graph_core import (
    Coloring,
    Graph,
    WeightedGraph,
    complete_multipartite_graph,
    normalize_weights,
)
from .oracles import DEFAULT_CAPS, CapExceeded, OracleCaps, proper_coloring_exact
from .poc_engine import first_violation, greedy_poc


@dataclass(frozen=True)
class MultipartiteInstance:
    """Weighted complete multipartite graph; vertices are numbered part by part."""

    part_sizes: tuple[int, ...]
    weights: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.part_sizes) < 2:
            raise ValueError("need at least 2 parts")
        if any(s < 1 for s in self.part_sizes):
            raise ValueError("part sizes must be >= 1")
        if len(self.weights) != sum(self.part_sizes):
            raise ValueError(
                f"expected {sum(self.part_sizes)} weights, got {len(self.weights)}"
            )
        if any(w < 1 for w in self.weights):
            raise ValueError("weights must be >= 1")

    @property
    def k(self) -> int:
        return len(self.part_sizes)

    @property
    def n(self) -> int:
        return len(self.weights)

    @property
    def t(self) -> int:
        return max(self.weights)

    @property
    def is_normalized(self) -> bool:
        return set(self.weights) == set(range(1, self.t + 1))

    @cached_property
    def parts(self) -> tuple[tuple[int, ...], ...]:
        out = []
        start = 1
        for size in self.part_sizes:
            out.append(tuple(range(start, start + size)))
            start += size
        return tuple(out)

    @cached_property
    def part_index(self) -> tuple[int, ...]:
        """0-based part of each vertex, indexed by vertex - 1."""
        idx = [0] * self.n
        for p, members in enumerate(self.parts):
            for v in members:
                idx[v - 1] = p
        return tuple(idx)

    @cached_property
    def graph(self) -> Graph:
        return complete_multipartite_graph(self.part_sizes)

    def weighted_graph(self) -> WeightedGraph:
        return WeightedGraph(self.graph, self.weights)

    def weight(self, v: int) -> int:
        return self.weights[v - 1]

    def normalized(self) -> MultipartiteInstance:
        normed = normalize_weights(self.weighted_graph())
        return MultipartiteInstance(self.part_sizes, normed.weights)


@dataclass(frozen=True)
class MocsDecomposition:
    """One clique of each weight value 1..t; cliques[i] holds the weight-(i+1) clique."""

    cliques: tuple[tuple[int, ...], ...]

    @property
    def total_size(self) -> int:
        return sum(len(c) for c in self.cliques)

    def covered(self) -> frozenset[int]:
        return frozenset(v for c in self.cliques for v in c)


@dataclass(frozen=True)
class SPaths:
    """Vertex-disjoint weight-consecutive paths in the complement, low weights first."""

    paths: tuple[tuple[int, ...], ...]

    @property
    def vertex_count(self) -> int:
        return sum(len(p) for p in self.paths)

    @property
    def q(self) -> int:
        return len(self.paths)


def _require_normalized(inst: MultipartiteInstance) -> None:
    if not inst.is_normalized:
        used = set(inst.weights)
        missing = sorted(set(range(1, inst.t + 1)) - used)
        raise ValueError(
            f"weight value {missing[0]} unused: normalize the instance first"
        )


def validate_mocs(inst: MultipartiteInstance, mocs: MocsDecomposition) -> None:
    """Raise ValueError unless mocs is a valid ordered-clique family for inst.

    Checks weight membership, the one-vertex-per-part clique property, and
    nonemptiness. Maximality of the total size is by construction here and is
    cross-checked by brute force in the test suite.
    """
    _require_normalized(inst)
    if len(mocs.cliques) != inst.t:
        raise ValueError(f"expected {inst.t} cliques, got {len(mocs.cliques)}")
    for i, clique in enumerate(mocs.cliques, start=1):
        if not clique:
            raise ValueError(f"clique for weight {i} is empty")
        parts_seen = set()
        for v in clique:
            if not (1 <= v <= inst.n):
                raise ValueError(f"vertex {v} out of range")
            if inst.weight(v) != i:
                raise ValueError(f"vertex {v} has weight {inst.weight(v)}, not {i}")
            p = inst.part_index[v - 1]
            if p in parts_seen:
                raise ValueError(f"clique for weight {i} uses part {p} twice")
            parts_seen.add(p)


def _slots(inst: MultipartiteInstance) -> list[tuple[int, list[int]]]:
    """(weight value, candidate vertices) for each part holding that value."""
    _require_normalized(inst)
    return [
        (value, hits)
        for value in range(1, inst.t + 1)
        for members in inst.parts
        if (hits := [v for v in members if inst.weight(v) == value])
    ]


def _mocs(
    t: int, slots: list[tuple[int, list[int]]], combo: Sequence[int]
) -> MocsDecomposition:
    """The family that takes combo[i] for slots[i]."""
    cliques = [tuple(v for (w, _), v in zip(slots, combo) if w == i) for i in range(1, t + 1)]
    return MocsDecomposition(tuple(cliques))


def find_mocs(inst: MultipartiteInstance) -> MocsDecomposition:
    """The canonical maximum ordered cliques: for each weight value, one vertex
    from every part containing that value, lowest id first."""
    slots = _slots(inst)
    return _mocs(inst.t, slots, [hits[0] for _, hits in slots])


def enumerate_mocs(
    inst: MultipartiteInstance, caps: OracleCaps = DEFAULT_CAPS
) -> list[MocsDecomposition]:
    """All maximum ordered-clique families, in deterministic order; the first
    is ``find_mocs(inst)``."""
    slots = _slots(inst)
    size = prod(len(hits) for _, hits in slots)
    if size > caps.mocs_product:
        raise CapExceeded("mocs_product", caps.mocs_product, size)
    choices = itertools.product(*(hits for _, hits in slots))
    return [_mocs(inst.t, slots, combo) for combo in choices]


def validate_spaths(
    inst: MultipartiteInstance, mocs: MocsDecomposition, s: SPaths
) -> None:
    """Raise ValueError unless s satisfies the path-family rules for mocs:

    * each path has >= 2 vertices, lies inside one part, steps up in weight by
      exactly 1, and consists of clique vertices; interior vertices of longer
      paths must be the sole member of their clique;
    * paths are vertex-disjoint and any two meet at most one common clique;
    * every clique hosts at most 2 path vertices; total size is at most 2t-2.
    """
    seen: set[int] = set()
    intervals: list[tuple[int, int]] = []
    for path in s.paths:
        if len(path) < 2:
            raise ValueError(f"path {path} has fewer than 2 vertices")
        parts = {inst.part_index[v - 1] for v in path}
        if len(parts) != 1:
            raise ValueError(f"path {path} spans multiple parts")
        for prev, cur in zip(path, path[1:]):
            if inst.weight(cur) != inst.weight(prev) + 1:
                raise ValueError(f"path {path} weights do not step up by 1")
        for v in path:
            if v in seen:
                raise ValueError(f"vertex {v} used by two paths")
            seen.add(v)
            if v not in mocs.cliques[inst.weight(v) - 1]:
                raise ValueError(f"path vertex {v} is not in its weight clique")
        for v in path[1:-1]:
            if len(mocs.cliques[inst.weight(v) - 1]) != 1:
                raise ValueError(
                    f"interior path vertex {v} shares its clique with other vertices"
                )
        intervals.append((inst.weight(path[0]), inst.weight(path[-1])))
    for (a1, b1), (a2, b2) in itertools.combinations(intervals, 2):
        overlap = min(b1, b2) - max(a1, a2) + 1
        if overlap > 1:
            raise ValueError("two paths meet more than one common clique")
    for i, clique in enumerate(mocs.cliques, start=1):
        if sum(1 for v in clique if v in seen) > 2:
            raise ValueError(f"clique for weight {i} hosts more than 2 path vertices")
    if s.vertex_count > max(2 * inst.t - 2, 0):
        raise ValueError(f"path family has {s.vertex_count} > 2t-2 vertices")


def find_max_spaths(inst: MultipartiteInstance, mocs: MocsDecomposition) -> SPaths:
    """A largest valid path family for mocs; among those, fewest components;
    among those, lexicographically least. The empty family is always valid."""
    validate_mocs(inst, mocs)
    t = inst.t
    slot: dict[tuple[int, int], int] = {}  # (weight value, part) -> clique vertex
    for value in range(1, t + 1):
        for v in mocs.cliques[value - 1]:
            slot[(value, inst.part_index[v - 1])] = v

    candidates: list[tuple[int, int, int, tuple[int, ...]]] = []  # (a, part, b, vertices)
    for part in range(inst.k):
        for a in range(1, t):
            if (a, part) not in slot:
                continue
            for b in range(a + 1, t + 1):
                if (b, part) not in slot:
                    break
                if b > a + 1 and len(mocs.cliques[b - 2]) != 1:
                    break  # weight b-1 just became an interior vertex
                vertices = tuple(slot[(i, part)] for i in range(a, b + 1))
                candidates.append((a, part, b, vertices))
    candidates.sort()

    best_key: tuple[int, int, tuple[tuple[int, ...], ...]] | None = None
    best_paths: tuple[tuple[int, ...], ...] = ()
    suffix_sizes = [0] * (len(candidates) + 1)
    for i in range(len(candidates) - 1, -1, -1):
        suffix_sizes[i] = suffix_sizes[i + 1] + len(candidates[i][3])

    chosen: list[tuple[int, int, int, tuple[int, ...]]] = []

    def compatible(cand: tuple[int, int, int, tuple[int, ...]]) -> bool:
        a, part, b, _ = cand
        cover = [0] * (t + 1)
        for a2, part2, b2, _ in chosen:
            overlap = min(b, b2) - max(a, a2) + 1
            if part2 == part and overlap > 0:
                return False  # same part: would reuse a clique vertex
            if overlap > 1:
                return False
            for i in range(a2, b2 + 1):
                cover[i] += 1
        for i in range(a, b + 1):
            if cover[i] + 1 > 2:
                return False
        return True

    def search(idx: int, total: int) -> None:
        nonlocal best_key, best_paths
        if best_key is not None and total + suffix_sizes[idx] < -best_key[0]:
            return
        if idx == len(candidates):
            paths = tuple(
                sorted((c[3] for c in chosen), key=lambda p: (inst.weight(p[0]), p))
            )
            key = (-total, len(paths), paths)
            if best_key is None or key < best_key:
                best_key = key
                best_paths = paths
            return
        cand = candidates[idx]
        if compatible(cand):
            chosen.append(cand)
            search(idx + 1, total + len(cand[3]))
            chosen.pop()
        search(idx + 1, total)

    search(0, 0)
    result = SPaths(best_paths)
    validate_spaths(inst, mocs, result)
    return result


def mocs_coloring(
    inst: MultipartiteInstance, mocs: MocsDecomposition, s: SPaths
) -> Coloring:
    """The clique-by-clique POC: consecutive color runs over H_1..H_t, one
    shared color per path of s, leftover vertices copying a same-weight,
    same-part clique vertex.

    Uses exactly ``mocs.total_size - s.vertex_count + s.q`` colors; any
    violation of the POC conditions or of that count is an internal error.
    """
    validate_mocs(inst, mocs)
    validate_spaths(inst, mocs, s)
    t = inst.t
    paths = sorted(s.paths, key=lambda p: (inst.weight(p[0]), p))
    path_of: dict[int, int] = {}
    for idx, path in enumerate(paths):
        for v in path:
            path_of[v] = idx
    path_colored = [False] * len(paths)
    colors: dict[int, int] = {}
    highest = 0

    for value in range(1, t + 1):
        members = sorted(mocs.cliques[value - 1])
        already = [v for v in members if v in colors]
        if len(already) > 1:
            raise AssertionError("two colored path vertices in one clique")
        if already:
            # continue the run at the propagated path color
            base = colors[already[0]]
            rest = [v for v in members if v not in colors]
        else:
            base = highest
            rest = members
        # color toward a path start so the next path continues from the top
        fresh_starts = [v for v in rest if v in path_of]
        if len(fresh_starts) > 1:
            raise AssertionError("two path starts in one clique")
        ordered = [v for v in rest if v not in path_of] + fresh_starts
        for step, v in enumerate(ordered, start=1):
            colors[v] = base + step
        for v in members:
            if v in path_of and not path_colored[path_of[v]]:
                path_colored[path_of[v]] = True
                for u in paths[path_of[v]]:
                    colors[u] = colors[v]
        highest = max(highest, max(colors[v] for v in members))

    in_cliques = mocs.covered()
    for v in range(1, inst.n + 1):
        if v in in_cliques:
            continue
        part = inst.part_index[v - 1]
        partner = None
        for u in mocs.cliques[inst.weight(v) - 1]:
            if inst.part_index[u - 1] == part:
                partner = u
                break
        if partner is None:
            raise AssertionError(
                f"no same-part clique vertex of weight {inst.weight(v)} for vertex {v}"
            )
        colors[v] = colors[partner]

    body = tuple(colors[v] for v in range(1, inst.n + 1))
    expected = mocs.total_size - s.vertex_count + s.q
    if max(body) != expected:
        raise AssertionError(
            f"coloring uses {max(body)} colors, construction promises {expected}"
        )
    result = Coloring(body, expected)
    violation = first_violation(inst.weighted_graph(), result)
    if violation is not None:
        raise AssertionError(f"construction violated the POC rules on edge {violation}")
    return result


def g_value(inst: MultipartiteInstance) -> int:
    """total clique size - |V(S)| + q(S) for the canonical MOCs and its best
    path family S. Every MOCs gives the same value: the path search reads
    only which (weight value, part) slots are filled and the clique sizes,
    and those are the same for every MOCs."""
    mocs = find_mocs(inst)
    s = find_max_spaths(inst, mocs)
    return mocs.total_size - s.vertex_count + s.q


def part_weightings(part_sizes: tuple[int, ...], t: int) -> Iterator[tuple[int, ...]]:
    """The weightings with values in 1..t, one sorted weight multiset per part
    (vertices inside a part are interchangeable), in ``itertools.product``
    order over the parts, each rank-normalized. Different choices can
    normalize to the same weights; nothing is deduplicated."""
    for assignment in itertools.product(
        *(itertools.combinations_with_replacement(range(1, t + 1), size) for size in part_sizes)
    ):
        raw = tuple(w for group in assignment for w in group)
        rank = {w: i for i, w in enumerate(sorted(set(raw)), start=1)}
        yield tuple(rank[w] for w in raw)


def h_argmax(
    part_sizes: tuple[int, ...], t: int, caps: OracleCaps = DEFAULT_CAPS
) -> tuple[int, tuple[int, ...]]:
    """max of g over all weightings with values in 1..t, plus a weighting
    attaining it.

    Weightings come from ``part_weightings``, deduplicated.
    """
    if len(part_sizes) < 2:
        raise ValueError("need at least 2 parts")
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    combos = 1
    for size in part_sizes:
        combos *= comb(size + t - 1, t - 1)
    if combos > caps.h_weightings:
        raise CapExceeded("h_weightings", caps.h_weightings, combos)
    seen: set[tuple[int, ...]] = set()
    best = 0
    best_weights: tuple[int, ...] = ()
    for weights in part_weightings(part_sizes, t):
        if weights in seen:
            continue
        seen.add(weights)
        value = g_value(MultipartiteInstance(part_sizes, weights))
        if value > best:
            best, best_weights = value, weights
    return best, best_weights


def h_value(
    part_sizes: tuple[int, ...], t: int, caps: OracleCaps = DEFAULT_CAPS
) -> int:
    return h_argmax(part_sizes, t, caps)[0]


# ---------------------------------------------------------------------------
# Complete bipartite formulas and construction
# ---------------------------------------------------------------------------


def bipartite_chi_poc_t(m: int, n: int, t: int) -> int:
    """Worst-case POC palette of the complete bipartite graph over weightings
    with t values, valid in the regime t >= 2m+1: min(m+n, 2m+1)."""
    if not 1 <= m <= n:
        raise ValueError(f"need 1 <= m <= n, got m={m}, n={n}")
    if t < 2 * m + 1:
        raise ValueError(f"formula requires t >= 2m+1 = {2 * m + 1}, got t={t}")
    return min(m + n, 2 * m + 1)


def bipartite_layered_coloring(m: int, n: int, weights: tuple[int, ...]) -> Coloring:
    """POC of the complete bipartite graph with at most 2m+1 colors.

    Vertices 1..m are the small side X, m+1..m+n the large side Y. X is split
    into weight-sorted singletons X_1..X_m colored 2i; each Y vertex joins the
    first block Y_i whose X anchor is at least as heavy and is colored 2i-1.
    For n <= m+1 the graph has a Hamiltonian path and the weight-ordered
    greedy already achieves the optimum m+n, so it is used directly.
    """
    if not 1 <= m <= n:
        raise ValueError(f"need 1 <= m <= n, got m={m}, n={n}")
    if len(weights) != m + n:
        raise ValueError(f"expected {m + n} weights, got {len(weights)}")
    wg = WeightedGraph(complete_multipartite_graph((m, n)), weights)
    if n <= m + 1:
        return greedy_poc(wg)
    anchors = sorted(range(1, m + 1), key=lambda v: (weights[v - 1], v))
    colors = [0] * (m + n + 1)
    for i, x in enumerate(anchors, start=1):
        colors[x] = 2 * i
    for y in range(m + 1, m + n + 1):
        block = m + 1
        for i, x in enumerate(anchors, start=1):
            if weights[y - 1] <= weights[x - 1]:
                block = i
                break
        colors[y] = 2 * block - 1
    body = tuple(colors[1:])
    result = Coloring(body, max(body))
    violation = first_violation(wg, result)
    if violation is not None:
        raise AssertionError(f"construction violated the POC rules on edge {violation}")
    return result


def multipartite_upper_bound(k: int, t: int) -> int:
    """Palette ceiling (k-1)t + 1 for complete multipartite graphs with k parts
    and t weight values."""
    if k < 2:
        raise ValueError(f"need k >= 2 parts, got {k}")
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    return (k - 1) * t + 1


def complete_to_multipartite(g: Graph) -> tuple[tuple[int, ...], dict[int, int]]:
    """Complete a graph to a complete multipartite graph on the color classes
    of an optimal proper coloring.

    Returns the part sizes and the map from original vertex ids to the
    part-by-part numbering of the multipartite graph. Every original edge maps
    to a multipartite edge. Edgeless graphs are rejected (one class only).
    """
    if g.n < 1:
        raise ValueError("graph must have at least one vertex")
    if g.m == 0:
        raise ValueError("edgeless graph: a single class is not multipartite")
    coloring = proper_coloring_exact(g)
    classes: list[list[int]] = [[] for _ in range(coloring.palette)]
    for v in range(1, g.n + 1):
        classes[coloring.color(v) - 1].append(v)
    vertex_map: dict[int, int] = {}
    nxt = 1
    for group in classes:
        for v in sorted(group):
            vertex_map[v] = nxt
            nxt += 1
    return tuple(len(group) for group in classes), vertex_map


def completion_coloring(g: WeightedGraph, caps: OracleCaps = DEFAULT_CAPS) -> Coloring:
    """POC of g obtained by completing to a multipartite graph, running the
    MOCs construction there, and pulling colors back. Palette is at most
    (chi(G) - 1) * t + 1 where t is the number of distinct weight values."""
    sizes, vmap = complete_to_multipartite(g.graph)
    placed = [0] * g.n
    for old, new in vmap.items():
        placed[new - 1] = g.weight(old)
    inst = MultipartiteInstance(sizes, tuple(placed)).normalized()
    mocs = find_mocs(inst)
    s = find_max_spaths(inst, mocs)
    lifted = mocs_coloring(inst, mocs, s)
    body = tuple(lifted.color(vmap[v]) for v in range(1, g.n + 1))
    result = Coloring(body, lifted.palette)
    violation = first_violation(g, result)
    if violation is not None:
        raise AssertionError(f"pulled-back coloring violates the POC rules on {violation}")
    return result
