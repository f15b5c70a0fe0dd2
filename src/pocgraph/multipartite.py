"""POC machinery for weighted complete multipartite graphs.

For a weighted complete multipartite graph with weight values 1..t, pick one
clique H_i per weight value (at most one vertex per part, all of weight i)
so that the total size is maximum; these are the *maximum ordered cliques*
(MOCs). Colors can then be saved by locating families of vertex-disjoint
paths in the complement whose weights step up by exactly one: every such
path lies inside one part, so its vertices may share a single color. A
path family S for a MOCs follows two rules:

* each path has at least 2 vertices, all clique vertices of one part, with
  weights a, a+1, ..., b; each interior vertex is the sole member of its
  clique;
* the paths are vertex-disjoint, and the weight intervals [a, b] of any two
  share at most one value.

So each interval covers at least one segment [i, i+1], and no two intervals
share a segment. Two bounds follow. No clique holds more than 2 path
vertices: a third interval through value i would share a segment with one of
the other two. And |V(S)| <= 2t - 2: a path on s segments has s + 1 <= 2s
vertices, and the paths share none of the t - 1 segments.

The coloring built this way uses exactly

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
    """Raise ValueError unless mocs is a maximum ordered-clique family for inst.

    Checks weight membership, the one-vertex-per-part clique property,
    nonemptiness and maximality. A clique of a complete multipartite graph
    holds at most one vertex per part, so the weight-i clique is largest
    exactly when it takes a vertex from every part holding weight i.
    """
    _require_normalized(inst)
    if len(mocs.cliques) != inst.t:
        raise ValueError(f"expected {inst.t} cliques, got {len(mocs.cliques)}")
    filled: set[tuple[int, int]] = set()
    for i, clique in enumerate(mocs.cliques, start=1):
        if not clique:
            raise ValueError(f"clique for weight {i} is empty")
        for v in clique:
            if not (1 <= v <= inst.n):
                raise ValueError(f"vertex {v} out of range")
            if inst.weight(v) != i:
                raise ValueError(f"vertex {v} has weight {inst.weight(v)}, not {i}")
            p = inst.part_index[v - 1]
            if (i, p) in filled:
                raise ValueError(f"clique for weight {i} uses part {p} twice")
            filled.add((i, p))
    missing = set(zip(inst.weights, inst.part_index)) - filled
    if missing:
        i, p = min(missing)
        raise ValueError(f"clique for weight {i} misses part {p}, which holds that weight")


def _slot_map(inst: MultipartiteInstance, mocs: MocsDecomposition) -> dict[tuple[int, int], int]:
    """(weight value, part) -> the clique vertex of mocs in that slot."""
    return {
        (value, inst.part_index[v - 1]): v
        for value, clique in enumerate(mocs.cliques, start=1)
        for v in clique
    }


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
    """Raise ValueError unless s follows the path-family rules of the module
    docstring for mocs. The two bounds stated there, at most 2 path vertices
    per clique and |V(S)| <= 2t - 2, follow from the rules and are not
    checked."""
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


def find_max_spaths(inst: MultipartiteInstance, mocs: MocsDecomposition) -> SPaths:
    """A largest valid path family for mocs; among those, fewest components;
    among those, lexicographically least. The empty family is always valid.

    Two candidate paths fit together exactly when they share no vertex and no
    segment [i, i+1] of their weight intervals, so each candidate carries a
    bit mask of each and the search tests a candidate with two ANDs."""
    validate_mocs(inst, mocs)
    t = inst.t
    slot = _slot_map(inst, mocs)
    # (vertices, segment mask, vertex mask) in (start, part, end) order, the
    # order a family is reported in: a lower part has lower vertex ids
    candidates: list[tuple[tuple[int, ...], int, int]] = []
    for a in range(1, t):
        for part in range(inst.k):
            if (a, part) not in slot:
                continue
            for b in range(a + 1, t + 1):
                if (b, part) not in slot:
                    break
                if b > a + 1 and len(mocs.cliques[b - 2]) != 1:
                    break  # weight b-1 just became an interior vertex
                vertices = tuple(slot[(i, part)] for i in range(a, b + 1))
                vbits = sum(1 << v for v in vertices)
                candidates.append((vertices, (1 << b) - (1 << a), vbits))

    suffix_sizes = [0] * (len(candidates) + 1)
    for i in range(len(candidates) - 1, -1, -1):
        suffix_sizes[i] = suffix_sizes[i + 1] + len(candidates[i][0])
    best: tuple[int, int, tuple[tuple[int, ...], ...]] = (1, 0, ())  # worse than any family
    chosen: list[tuple[int, ...]] = []

    def search(idx: int, total: int, used_segs: int, used_vbits: int) -> None:
        nonlocal best
        if total + suffix_sizes[idx] < -best[0]:
            return
        if idx == len(candidates):
            best = min(best, (-total, len(chosen), tuple(chosen)))
            return
        vertices, seg, vbits = candidates[idx]
        if not (seg & used_segs or vbits & used_vbits):
            chosen.append(vertices)
            search(idx + 1, total + len(vertices), used_segs | seg, used_vbits | vbits)
            chosen.pop()
        search(idx + 1, total, used_segs, used_vbits)

    search(0, 0, 0, 0)
    result = SPaths(best[2])
    validate_spaths(inst, mocs, result)
    return result


def mocs_coloring(
    inst: MultipartiteInstance, mocs: MocsDecomposition, s: SPaths
) -> Coloring:
    """The clique-by-clique POC: consecutive color runs over H_1..H_t, one
    shared color per path of s, leftover vertices copying a same-weight,
    same-part clique vertex.

    A path takes the top color of its first clique's run. Its interior
    cliques are singletons, so they add no color, and its last vertex holds
    the highest color used below its last clique. Each clique's run therefore
    starts just above the highest color so far.

    Uses exactly ``mocs.total_size - s.vertex_count + s.q`` colors; any
    violation of the POC conditions or of that count is an internal error.
    """
    validate_mocs(inst, mocs)
    validate_spaths(inst, mocs, s)
    path_of = {v: path for path in s.paths for v in path}
    colors: dict[int, int] = {}
    highest = 0
    for clique in mocs.cliques:
        # an uncolored path vertex is its path's start; it comes last, so its
        # path takes the top color of the run
        for v in sorted((v for v in clique if v not in colors), key=lambda v: (v in path_of, v)):
            highest += 1
            for u in path_of.get(v, (v,)):
                colors[u] = highest

    slot = _slot_map(inst, mocs)  # maps a clique vertex's own slot to itself
    body = tuple(
        colors[slot[(inst.weight(v), inst.part_index[v - 1])]] for v in range(1, inst.n + 1)
    )
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
    order over the parts, each rank-normalized and yielded only where it
    first occurs.

    An assignment's normal form is itself an assignment (sorted inside each
    part, values at most t) and is at most it at every position, so it comes
    first in product order: the normal forms are yielded where they occur as
    assignments, the ones whose values are exactly 1..max."""
    for assignment in itertools.product(
        *(itertools.combinations_with_replacement(range(1, t + 1), size) for size in part_sizes)
    ):
        weights = tuple(w for group in assignment for w in group)
        if len(set(weights)) == max(weights, default=0):
            yield weights


def h_argmax(
    part_sizes: tuple[int, ...], t: int, caps: OracleCaps = DEFAULT_CAPS
) -> tuple[int, tuple[int, ...]]:
    """max of g over all weightings with values in 1..t, plus the first
    weighting in ``part_weightings`` order attaining it. The ``weightings``
    cap counts the choices of one weight multiset per part.

    g runs once per signature, the sorted tuple of per-part value masks, and
    a weighting whose signature came earlier is skipped. This is exact: g
    reads only which (value, part) slots are filled and the clique sizes
    (see ``g_value``), and relabelling the parts maps path families to path
    families of the same size and component count, so g is a function of
    the multiset of per-part value sets. A skipped weighting has an earlier
    one with the same g, and the best is replaced only on a strictly greater
    value, so the witness is unchanged."""
    if len(part_sizes) < 2:
        raise ValueError("need at least 2 parts")
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    combos = prod(comb(size + t - 1, t - 1) for size in part_sizes)
    if combos > caps.weightings:
        raise CapExceeded("weightings", caps.weightings, combos)
    spans = list(itertools.pairwise(itertools.accumulate(part_sizes, initial=0)))
    seen: set[tuple[int, ...]] = set()
    best = 0
    best_weights: tuple[int, ...] = ()
    for weights in part_weightings(part_sizes, t):
        key = tuple(sorted(sum(1 << w for w in set(weights[a:b])) for a, b in spans))
        if key in seen:
            continue
        seen.add(key)
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


def completion_coloring(g: WeightedGraph) -> Coloring:
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
