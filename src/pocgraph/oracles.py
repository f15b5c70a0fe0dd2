"""Exact oracles: every coloring/path quantity computed by independent
exhaustive or branch-and-bound search.

These are the ground truth the rest of the package is checked against.
``chi_poc_exact`` (backtracking over colorings) and ``ell_prime_orientation``
(a search over good acyclic orientations) are deliberately implemented as two
unrelated searches that share no code, so that their agreement (Theorem 3) is
a meaningful cross-validation.

The chi_POC backtracking has one body, ``_poc_search``, prepared once per
graph: adjacency, degree order and clique bound do not depend on the weights.
It reads weights indexed by vertex id (index 0 unused). ``chi_poc_exact``
prepares it for one weighting. The sweep ``chi_poc_t_argmax``, and
``f_argmax``, which is that sweep with t = n, prepare it once per graph and
run it only on the weightings with exactly min(t, n) values
(``weak_orderings(n, blocks=k)``), since the first maximiser over every weak
ordering with at most t values is one of them; for f these are the total
orders. They walk one cached table of weightings per (n, min(t, n))
(``_sweep_weightings``) that every graph and every t share. They skip
reversed weightings, skip weightings unsorted inside a twin class, skip
repeated edge-comparison patterns, try the running best's palette first and
try first fit before any search: five exact savings, set out in
``chi_poc_t_argmax``. No saving consults a longest path, so f stays
independent of ell(G).

``ell_prime_orientation`` only chooses the orientation of each equal-weight
class, since every other edge is forced heavier -> lighter. It takes the
classes from lightest to heaviest and computes vertex heights as it goes.
A finished class's heights are final, so a partial choice whose heights
already reach the best value found is pruned, and the search stops at a
floor every orientation reaches: the forced arcs' longest path, or a clique
inside one class, which any acyclic orientation puts on one directed path.
Options are drawn one at a time in a fixed order, each turned into the
order the search reads only when first reached, and the witness is the first
orientation in that order that attains the minimum. When the cap can bind,
each class is first counted by walking the same options.

Every search respects a cap from :class:`OracleCaps`; exceeding a cap raises
:class:`CapExceeded` instead of silently approximating.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields
from functools import lru_cache
from typing import Callable, Iterator, Sequence

from .graph_core import Coloring, Graph, Orientation, WeightedGraph, normalize_weights


@dataclass(frozen=True)
class OracleCaps:
    """Search-size limits: vertex, orientation or weighting counts, not timeouts."""

    longest_path_n: int = 20
    chi_poc_n: int = 12
    ell_prime_orientations: int = 100_000
    enum_pocs_n: int = 10
    mocs_product: int = 1_000_000
    weightings: int = 1_000_000


DEFAULT_CAPS = OracleCaps()

_CAP_NAMES = tuple(f.name for f in fields(OracleCaps))


class CapExceeded(RuntimeError):
    """An oracle was asked for a search larger than its configured cap."""

    def __init__(self, cap: str, limit: int, actual: int):
        self.cap = cap
        self.limit = limit
        self.actual = actual
        super().__init__(f"cap {cap}={limit} exceeded (instance needs {actual})")


def caps_with_overrides(spec: str, base: OracleCaps = DEFAULT_CAPS) -> OracleCaps:
    """Apply 'name=value,name=value' overrides (the POC_CAPS syntax) to a cap set."""
    values = {f.name: getattr(base, f.name) for f in fields(OracleCaps)}
    for item in spec.split(","):
        item = item.strip()
        if not item:
            continue
        name, sep, value = item.partition("=")
        if not sep or name not in _CAP_NAMES:
            raise ValueError(f"unknown cap override {item!r} (known: {', '.join(_CAP_NAMES)})")
        if not value.strip().isdecimal():
            raise ValueError(f"cap override {item!r} needs a non-negative integer")
        values[name] = int(value)
    return OracleCaps(**values)


# ---------------------------------------------------------------------------
# Weak orderings (ordered set partitions) - the canonical weight functions
# ---------------------------------------------------------------------------


def weak_orderings(n: int, *, blocks: int | None = None) -> Iterator[tuple[int, ...]]:
    """Every ordered set partition of 1..n as a weight tuple: ``w[v - 1]`` is
    the rank 1..k of v's block. With ``blocks=k`` (1 <= k <= n, else
    ``ValueError``) only those with exactly k blocks, in the same order; for
    k = n these are the total orders, and the vertices listed by rank come in
    ``itertools.permutations`` order.

    The first block is any nonempty subset, taken by size and then in
    ``itertools.combinations`` order, and the rest follows recursively. A
    block at rank r takes at most ``len(items) - owed`` members, where
    ``owed = blocks - r`` (0 without ``blocks``) leaves one member for each
    later rank, and the last rank (n, or ``blocks``) takes every remaining
    vertex, so no branch is dead. A remainder's (block, rest) splits depend
    on owed, so they are listed once per (remainder, owed) and call, in
    ``splits[owed]``, and kept only from rank 3 on: a rank-2 remainder is the
    complement of one first block, so it never recurs. They are freed as soon
    as the walk ends or is closed.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if blocks is not None and not 1 <= blocks <= n:
        raise ValueError(f"need 1 <= blocks <= n, got n={n}, blocks={blocks}")
    if n == 0:
        yield ()
        return
    last = n if blocks is None else blocks
    w = [0] * n
    splits: list[dict[tuple[int, ...], list[tuple[tuple[int, ...], tuple[int, ...]]]]] = [
        {} for _ in range(last)
    ]

    def extend(items: tuple[int, ...], rank: int) -> Iterator[tuple[int, ...]]:
        if rank == last:
            for v in items:
                w[v] = rank
            yield tuple(w)
            return
        owed = 0 if blocks is None else blocks - rank
        pairs = splits[owed].get(items)
        if pairs is None:
            pairs = [
                (block, tuple(x for x in items if x not in block))
                for size in range(1, len(items) - owed + 1)
                for block in itertools.combinations(items, size)
            ]
            if rank >= 3:
                splits[owed][items] = pairs
        for block, rest in pairs:
            for v in block:
                w[v] = rank
            if rest:
                yield from extend(rest, rank + 1)
            else:
                yield tuple(w)

    try:
        yield from extend(tuple(range(n)), 1)
    finally:
        del extend  # it holds itself, and so ``splits``, in a reference cycle


# ---------------------------------------------------------------------------
# Chromatic number (branch and bound)
# ---------------------------------------------------------------------------


def _greedy_clique(g: Graph) -> list[int]:
    order = sorted(range(1, g.n + 1), key=lambda v: (-g.degree(v), v))
    clique: list[int] = []
    for v in order:
        if all(g.has_edge(v, u) for u in clique):
            clique.append(v)
    return clique


def _dsatur_coloring(g: Graph) -> list[int]:
    """Greedy upper bound; returns colors indexed by vertex id (index 0 unused)."""
    colors = [0] * (g.n + 1)
    saturation: list[set[int]] = [set() for _ in range(g.n + 1)]
    uncolored = set(range(1, g.n + 1))
    while uncolored:
        v = max(uncolored, key=lambda u: (len(saturation[u]), g.degree(u), -u))
        c = 1
        while c in saturation[v]:
            c += 1
        colors[v] = c
        for u in g.neighbors(v):
            saturation[u].add(c)
        uncolored.remove(v)
    return colors


def _k_coloring(g: Graph, k: int) -> list[int] | None:
    """Proper coloring with at most k colors via backtracking, or None."""
    order = sorted(range(1, g.n + 1), key=lambda v: (-g.degree(v), v))
    colors = [0] * (g.n + 1)

    def assign(i: int, used: int) -> bool:
        if i == len(order):
            return True
        v = order[i]
        taken = {colors[u] for u in g.neighbors(v) if colors[u]}
        for c in range(1, min(k, used + 1) + 1):  # first use of color c: c = used+1
            if c in taken:
                continue
            colors[v] = c
            if assign(i + 1, max(used, c)):
                return True
        colors[v] = 0
        return False

    return colors if assign(0, 0) else None


def proper_coloring_exact(g: Graph) -> Coloring:
    """An optimal proper coloring (palette = chromatic number)."""
    if g.n == 0:
        return Coloring((), 0)
    lower = len(_greedy_clique(g))
    greedy = _dsatur_coloring(g)
    upper = max(greedy[1:])
    for k in range(lower, upper):
        result = _k_coloring(g, k)
        if result is not None:
            return Coloring(tuple(result[1:]), k)
    return Coloring(tuple(greedy[1:]), upper)


def chromatic_number(g: Graph) -> int:
    return proper_coloring_exact(g).palette


# ---------------------------------------------------------------------------
# Longest paths
# ---------------------------------------------------------------------------


def longest_path_exact(g: Graph, caps: OracleCaps = DEFAULT_CAPS) -> int:
    """Number of vertices of a longest simple path (see longest_path_witness)."""
    return len(longest_path_witness(g, caps))


def longest_path_witness(g: Graph, caps: OracleCaps = DEFAULT_CAPS) -> tuple[int, ...]:
    """A longest simple path, by subset dynamic programming.

    State: dp[mask] = bitmask of endpoints v such that some simple path visits
    exactly the vertices of mask and ends at v. The path is reconstructed
    backwards from a largest reachable mask.
    """
    if g.n > caps.longest_path_n:
        raise CapExceeded("longest_path_n", caps.longest_path_n, g.n)
    n = g.n
    if n == 0:
        return ()
    adj = [0] * n
    for u, v in g.edges:
        adj[u - 1] |= 1 << (v - 1)
        adj[v - 1] |= 1 << (u - 1)
    dp = [0] * (1 << n)
    for v in range(n):
        dp[1 << v] = 1 << v
    best_mask, best_end = 1, 0
    for mask in range(1, 1 << n):
        ends = dp[mask]
        if not ends:
            continue
        if mask.bit_count() > best_mask.bit_count():
            best_mask, best_end = mask, (ends & -ends).bit_length() - 1
        scan = ends
        while scan:
            vbit = scan & -scan
            scan ^= vbit
            ext = adj[vbit.bit_length() - 1] & ~mask
            while ext:
                ubit = ext & -ext
                ext ^= ubit
                dp[mask | ubit] |= ubit
    path = [best_end]
    mask = best_mask
    while mask.bit_count() > 1:
        rest = mask ^ (1 << path[-1])
        prev = dp[rest] & adj[path[-1]]
        assert prev, "DP state has no predecessor"
        path.append((prev & -prev).bit_length() - 1)
        mask = rest
    return tuple(v + 1 for v in reversed(path))


def has_hamiltonian_path(g: Graph) -> bool:
    """Direct depth-first search for a Hamiltonian path (independent of
    longest_path_exact, which uses subset DP)."""
    n = g.n
    if n <= 1:
        return True
    if g.m < n - 1:
        return False
    adj = g.adjacency
    visited = set()

    def extend(v: int) -> bool:
        if len(visited) == n:
            return True
        for u in sorted(adj[v] - visited):
            visited.add(u)
            if extend(u):
                return True
            visited.remove(u)
        return False

    for start in range(1, n + 1):
        visited = {start}
        if extend(start):
            return True
    return False


# ---------------------------------------------------------------------------
# chi_POC by backtracking
# ---------------------------------------------------------------------------


def _increasing_chain_bounds(
    adj: tuple[frozenset[int], ...], w: Sequence[int], by_weight: list[int]
) -> tuple[list[int], list[int]]:
    """Per-vertex longest strictly-weight-increasing path ending at / starting
    at each vertex (counting the vertex itself), for vertices ``by_weight`` in
    non-decreasing weight order. Colors must strictly increase along such
    paths, which yields hard per-vertex color bounds."""
    ending = [1] * len(adj)
    for v in by_weight:
        wv = w[v]
        for u in adj[v]:
            if w[u] < wv and ending[u] + 1 > ending[v]:
                ending[v] = ending[u] + 1
    starting = [1] * len(adj)
    for v in reversed(by_weight):
        wv = w[v]
        for u in adj[v]:
            if w[u] > wv and starting[u] + 1 > starting[v]:
                starting[v] = starting[u] + 1
    return ending, starting


def _poc_search(g: Graph) -> Callable[[Sequence[int], int], tuple[int, list[int]]]:
    """The chi_POC backtracking, prepared once per graph.

    Returns ``solve(weights, above)``. ``weights`` are ranks 1..k indexed by
    vertex id (index 0 unused), such as a row of ``_sweep_weightings``. If
    chi_POC exceeds ``above``, solve returns it and a witness as a colors
    list indexed by vertex id (index 0 unused). Otherwise
    it returns ``above`` and a POC within ``above`` colors: a sweep that only
    wants a value above its running best need not learn the exact one.

    Palette sizes are tried upward from a lower bound (longest forced
    increasing chain, clique size), backtracking over color assignments in
    non-decreasing weight order with per-vertex color windows from the chain
    bounds. When the lower bound is at most ``above``, the palette of exactly
    ``above`` colors is tried first; if it fails, every smaller one fails too,
    because a POC within theta colors is one within theta + 1.

    Before any of that, solve runs first fit along the same order: each
    vertex takes the least color above its colored lighter neighbours' and
    unlike its colored equal-weight neighbours' (heavier ones are not colored
    yet). If no color passes max(above, clique), solve returns
    max(above, top), top the largest color used, and first fit's colors,
    which are the ones the search would return:

    - first fit is the search's first descent at any palette theta >= top.
      By induction along the order, a vertex's first-fit color is at least
      its ``ending`` bound, so the search's least candidate is first fit's;
      colors strictly rise along an increasing path, so first fit's color
      c(v) has c(v) + starting[v] - 1 <= top <= theta and the window never
      cuts it off;
    - when top <= above, lower <= chi_POC <= top <= above, so the search
      tries ``above`` first and returns the first descent;
    - when above < top <= clique, top = chi_POC = clique = lower, so the
      search's first palette is ``clique`` and it returns the first descent.

    A sweep's weighting that cannot beat the running best often ends here.
    Over a total order first fit gives each vertex its ``ending`` bound, so
    its top is chi_POC.
    """
    n = g.n
    adj = g.adjacency
    base = sorted(range(1, n + 1), key=lambda v: (-len(adj[v]), v))
    clique = len(_greedy_clique(g))

    def solve(w: Sequence[int], above: int) -> tuple[int, list[int]]:
        # stable, so ties keep the (-degree, v) order of base
        order = sorted(base, key=w.__getitem__)
        colors = [0] * (n + 1)
        # first fit: the search's first descent, kept if it stays within limit
        limit = max(above, clique)
        top = 0
        for v in order:
            wv = w[v]
            c = 1
            taken = set()
            for u in adj[v]:
                cu = colors[u]
                if not cu:
                    continue
                if w[u] < wv:
                    if cu >= c:
                        c = cu + 1
                else:
                    taken.add(cu)
            while c in taken:
                c += 1
            if c > limit:
                colors = [0] * (n + 1)
                break
            colors[v] = c
            if c > top:
                top = c
        else:
            return max(above, top), colors
        ending, starting = _increasing_chain_bounds(adj, w, order)
        lower = max(max(ending), clique)

        def assign(i: int, theta: int) -> bool:
            if i == n:
                return True
            v = order[i]
            wv = w[v]
            lo = ending[v]
            hi = theta - starting[v] + 1
            taken = set()
            for u in adj[v]:
                cu = colors[u]
                if not cu:
                    continue
                if w[u] < wv:
                    if cu >= lo:
                        lo = cu + 1
                else:  # equal weight: heavier neighbors are never colored yet
                    taken.add(cu)
            for c in range(lo, hi + 1):
                if c in taken:
                    continue
                colors[v] = c
                if assign(i + 1, theta):
                    return True
            colors[v] = 0
            return False

        if lower <= above:
            if assign(0, above):
                return above, colors
            lower = above + 1
        for theta in range(lower, n + 1):
            if assign(0, theta):
                return theta, colors
        raise AssertionError("ranking the vertices by weight is always a POC with n colors")

    return solve


def chi_poc_exact(
    g: WeightedGraph, caps: OracleCaps = DEFAULT_CAPS
) -> tuple[int, Coloring]:
    """Minimum POC palette size plus a witness coloring, by backtracking over
    color assignments (see ``_poc_search``)."""
    if g.n > caps.chi_poc_n:
        raise CapExceeded("chi_poc_n", caps.chi_poc_n, g.n)
    if g.n < 1:
        raise ValueError("graph must have at least one vertex")
    theta, colors = _poc_search(g.graph)((0, *normalize_weights(g).weights), 0)
    return theta, Coloring(tuple(colors[1:]), theta)


# ---------------------------------------------------------------------------
# ell' by class-by-class heights over good acyclic orientations
# ---------------------------------------------------------------------------

# One acyclic orientation of an equal-weight class as the search reads it: a
# heads-first order of ``(vertex, in-class heads)`` pairs, which lists every
# intra arc once.
_ClassOption = tuple[tuple[int, tuple[int, ...]], ...]


def _class_edges(
    members: list[int], intra: list[tuple[int, int]]
) -> tuple[list[tuple[int, int]], int]:
    """The intra edges of one equal-weight class as pairs of member
    positions, in the order that ``_class_options`` decides them, and the
    class's Stanley bound min(2^k, m!) on its acyclic orientations. A dense
    class (2^k > m!) decides edge 0 first, any other class edge k-1 first.

    m! is multiplied out only until it reaches 2^k: both the rule and the
    bound read m! only through its comparison with 2^k.
    """
    index = {x: i for i, x in enumerate(members)}
    edges = [(index[u], index[v]) for u, v in intra]
    arcs = 2 ** len(intra)
    orders = 1  # m!, or the first 1 * 2 * ... * j to reach 2^k
    for j in range(2, len(members) + 1):
        if orders >= arcs:
            break
        orders *= j
    if arcs <= orders:  # not dense
        edges.reverse()
    return edges, min(arcs, orders)


def _class_options(m: int, edges: list[tuple[int, int]]) -> Iterator[int]:
    """Every acyclic orientation of a class of m members, in search order,
    drawn one at a time with no cap.

    A partial orientation is its reachability, one int of m rows of m bits,
    row x holding the members that x reaches (x included). These ints have
    m^2 bits, so they are built only once the listing is first drawn, after
    a class that may be refused has been counted (``_class_count``).

    The intra edges ``edges`` are decided one at a time in ``_class_edges``'
    order, (u, v) before (v, u), leaving out an arc whose head already
    reaches its tail, which would close a cycle; some arc always remains.
    The walk is depth-first on an explicit stack, so that each option costs
    the same at every depth: it takes the first arc left at each edge and
    stacks the other, if any, for later. A dense class's options then come
    in ascending order of their arc tuples; any other class's in ascending
    order of the number whose bit i is set when intra edge i is reversed.
    In an acyclic orientation an intra edge {x, y} runs x -> y exactly when
    x reaches y, so the reachability holds the arcs too, and
    ``_class_orders`` reads them back into the heads-first order that the
    search reads.
    """
    empty = sum(1 << (x * m + x) for x in range(m))  # x reaches x
    firsts = sum(1 << (x * m) for x in range(m))  # bit 0 of every row
    row = (1 << m) - 1
    k = len(edges)
    stack = [(0, empty)]
    while stack:
        i, reach = stack.pop()
        while i < k:
            u, v = edges[i]
            i += 1
            # adding an arc t -> h: every row that reaches t now reaches all
            # that h reaches
            if reach >> (v * m + u) & 1:  # v reaches u, so u -> v is left out
                reach |= (reach >> v & firsts) * (reach >> (u * m) & row)
            else:
                if not reach >> (u * m + v) & 1:  # v -> u remains, for later
                    stack.append((i, reach | (reach >> v & firsts) * (reach >> (u * m) & row)))
                reach |= (reach >> u & firsts) * (reach >> (v * m) & row)
        yield reach


def _class_count(m: int, edges: list[tuple[int, int]], before: int, caps: OracleCaps) -> int:
    """The number of ``_class_options``' options of a class of m members with
    the intra edges ``edges``, or ``CapExceeded`` once ``before``, the
    product of the earlier classes' counts, times this class's count passes
    ``ell_prime_orientations``.

    A class of m members in c components has a spanning forest of m - c
    edges, each of whose 2^(m-c) orientations extends to a different acyclic
    orientation, so the forest's edges are counted first and the class is
    refused, before any orientation is built, at the first edge that takes
    ``before`` times 2^edges past the cap; under the default, every walked
    class has m - c <= 16 and, with two members or more per component,
    m <= 32. The options are then counted as they are drawn, and the class
    is refused at the first count that takes the product past the cap.
    Either way a refusal reports at most twice the cap.
    """
    root = list(range(m))
    least = before  # doubles with each spanning-forest edge found
    for a, b in edges:
        while root[a] != a:
            root[a] = root[root[a]]
            a = root[a]
        while root[b] != b:
            root[b] = root[root[b]]
            b = root[b]
        if a != b:
            root[a] = b
            least *= 2
            if least > caps.ell_prime_orientations:
                raise CapExceeded("ell_prime_orientations", caps.ell_prime_orientations, least)
    count = 0
    for _ in _class_options(m, edges):
        count += 1
        if before * count > caps.ell_prime_orientations:
            raise CapExceeded("ell_prime_orientations", caps.ell_prime_orientations, before * count)
    return count


def _class_clique_floor(members: list[int], near: list[int], height: Sequence[int]) -> int:
    """A lower bound on the top height of one equal-weight class in every good
    acyclic orientation, from its maximal cliques.

    An acyclic orientation makes a clique K a transitive tournament, so K
    lies on one directed path, each member at least one above the next. With
    b the forced-arc-only heights ``height`` of K's members in ascending
    order, the member at rank j from the bottom of that path has height at
    least b_j' + |K| - 1 - j for whichever b_j' sits there, and the least
    that maximum can be, over all orders, is max_j (b_j + |K| - 1 - j): an
    exchange argument puts the larger forced heights higher. A clique's
    bound is at least any sub-clique's, so the maximal cliques suffice; they
    are found by Bron-Kerbosch with pivoting (Tomita, Tanaka and Takahashi,
    2006) over the class's intra edges, ``near[x]`` holding x's intra
    neighbours.
    """
    bound = 0

    def expand(clique: list[int], some: int, done: int) -> None:
        nonlocal bound
        if not some:
            if not done:  # clique is maximal
                b = sorted(height[members[x]] for x in clique)
                top = len(b) - 1
                bound = max(bound, max(h + top - j for j, h in enumerate(b)))
            return
        rest, pivot_near = some | done, 0
        while rest:
            bit = rest & -rest
            rest ^= bit
            cover = near[bit.bit_length() - 1]
            if (some & cover).bit_count() > (some & pivot_near).bit_count():
                pivot_near = cover
        scan = some & ~pivot_near
        while scan:
            bit = scan & -scan
            scan ^= bit
            x = bit.bit_length() - 1
            expand(clique + [x], some & near[x], done & near[x])
            some ^= bit
            done |= bit

    expand([], (1 << len(members)) - 1, 0)
    return bound


def _class_orders(
    members: list[int], edges: list[tuple[int, int]], near: list[int], orders: list[_ClassOption]
) -> Iterator[_ClassOption]:
    """Each option of the class ``members`` (``_class_options``), drawn only
    when asked for, as a heads-first order; each order is also appended to
    ``orders``, which later visits read instead.

    ``near[x]`` holds x's intra neighbours, so x's heads are the ones it
    reaches; a head reaches strictly fewer members than its tail, so sorting
    members by that count puts heads first. Equal ``(vertex, heads)`` pairs
    are shared between the class's orders.
    """
    m = len(members)
    row = (1 << m) - 1
    interned: dict[tuple[int, int], tuple[int, tuple[int, ...]]] = {}
    for reach in _class_options(m, edges):
        rows = [reach >> (x * m) & row for x in range(m)]
        counts = [r.bit_count() for r in rows]
        order = []
        for x in sorted(range(m), key=counts.__getitem__):
            heads = rows[x] & near[x]
            pair = interned.get((x, heads))
            if pair is None:
                pair = interned[x, heads] = (
                    members[x],
                    tuple(members[y] for y in range(m) if heads >> y & 1),
                )
            order.append(pair)
        orders.append(tuple(order))
        yield orders[-1]


def ell_prime_orientation(
    g: WeightedGraph, caps: OracleCaps = DEFAULT_CAPS
) -> tuple[int, Orientation]:
    """Minimum over good acyclic orientations of the longest directed path,
    with a witness orientation.

    Arcs between different weights are forced heavier -> lighter; equal-weight
    edges range over all orientations whose restriction to each weight class
    is acyclic (a good orientation can only have directed cycles inside one
    class, so this is exactly the good acyclic family).

    The search picks one orientation per class with intra edges, lightest
    class first, and computes each vertex's height (vertices on a longest
    directed path starting there) as it goes: 1 + the largest height among
    its out-neighbours, which are lighter or in its own class. The heights
    of a finished class never change, so a choice whose running maximum
    already reaches the best value found is pruned with everything below it.

    The search stops at a floor that every candidate reaches. Every
    candidate contains the forced arcs, so it reaches their longest path.
    It also reaches each class's clique bound (``_class_clique_floor``): an
    acyclic orientation makes a clique K inside one class a transitive
    tournament, so K lies on one directed path, and with b the forced-arc
    heights of K's members in ascending order its top has height at least
    max_j (b_j + |K| - 1 - j). The floor is the largest of these. A class's
    bound is computed only once the class is known to fit the cap, so the
    cap bounds that work too.

    The cap ``ell_prime_orientations`` bounds the candidates, the product of
    the classes' option counts. A class of m members with k intra edges has
    at most min(2^k, m!) acyclic orientations (Stanley, "Acyclic
    orientations of graphs", 1973), which ``_class_edges`` returns with the
    class's edges in decision order. When the product of these bounds
    passes the cap, each class is counted before the search by
    ``_class_count``, which refuses the instance as that function sets out;
    otherwise no class can be refused and nothing is counted. Each class
    draws its options from ``_class_options`` through ``_class_orders``
    only when the search runs past the ones it has drawn, and each becomes
    a heads-first order as it is drawn; later visits from other choices of
    the lighter classes reuse that order.

    Witness contract: candidates are visited in ``itertools.product`` order
    over the classes by ascending weight, each class's options in the order
    of ``_class_options``, and the witness is the first candidate that
    attains the minimum. Pruning never skips a candidate that beats the best
    so far, and the floor is at most the minimum, so the search stops at
    that first minimal candidate or later: the witness depends on neither.
    """
    if g.n < 1:
        raise ValueError("graph must have at least one vertex")
    gn = normalize_weights(g)
    n = gn.n
    w = gn.weights
    forced: list[tuple[int, int]] = []
    lighter: list[list[int]] = [[] for _ in range(n + 1)]
    intra_by_class: dict[int, list[tuple[int, int]]] = {}
    for u, v in gn.graph.sorted_edges():
        if w[u - 1] > w[v - 1]:
            forced.append((u, v))
            lighter[u].append(v)
        elif w[v - 1] > w[u - 1]:
            forced.append((v, u))
            lighter[v].append(u)
        else:
            intra_by_class.setdefault(w[u - 1], []).append((u, v))

    height = [0] * (n + 1)
    by_weight = sorted(range(1, n + 1), key=lambda v: w[v - 1])
    for v in by_weight:  # forced arcs only: every candidate's paths include these
        height[v] = 1 + max((height[x] for x in lighter[v]), default=0)
    floor = max(height)

    # Each class's count is at most its Stanley bound, so when the product of
    # the bounds is within the cap no class can be refused and none is counted
    classes = []
    for c, intra in sorted(intra_by_class.items()):
        members = sorted({x for e in intra for x in e})
        classes.append((c, members, *_class_edges(members, intra)))
    bound = math.prod(stanley for *_, stanley in classes)

    # A stage: the vertices without intra edges up to and including one
    # class's weight, that class's members, the orders of its options drawn
    # so far, and the rest of them, each drawn only when the search runs past
    # the end of the orders. A last stage with a single empty order holds the
    # vertices above the heaviest class.
    stages = []
    placed = 0
    product = 1  # the product of the option counts of the classes counted so far
    for c, members, edges, _ in classes:
        upto = placed
        while upto < n and w[by_weight[upto] - 1] <= c:
            upto += 1
        if bound > caps.ell_prime_orientations:
            product *= _class_count(len(members), edges, product, caps)
        # each member's intra neighbours, as bits; m ints of up to m bits, so
        # built only once the class fits the cap
        near = [0] * len(members)
        for a, b in edges:
            near[a] |= 1 << b
            near[b] |= 1 << a
        floor = max(floor, _class_clique_floor(members, near, height))
        fixed = [(v, lighter[v]) for v in by_weight[placed:upto] if v not in members]
        orders: list[_ClassOption] = []
        stages.append((fixed, members, orders, _class_orders(members, edges, near, orders)))
        placed = upto
    if placed < n:
        stages.append(([(v, lighter[v]) for v in by_weight[placed:]], [], [()], iter(())))

    best = n + 1  # above every candidate's value
    best_choice: list[_ClassOption] = []
    choice: list[_ClassOption] = [()] * len(stages)
    last = len(stages) - 1

    def search(s: int, reached: int) -> bool:
        """Extend the choices below stage s; True once the floor is attained."""
        nonlocal best, best_choice
        fixed, members, orders, drawn = stages[s]
        for v, heads in fixed:
            height[v] = 1 + max((height[x] for x in heads), default=0)
            reached = max(reached, height[v])
        if reached >= best:
            return False
        base = {v: 1 + max((height[x] for x in lighter[v]), default=0) for v in members}
        for order in itertools.chain(orders, drawn):
            top = reached
            for v, heads in order:
                h = base[v]
                for x in heads:
                    if height[x] >= h:
                        h = height[x] + 1
                height[v] = h
                if h > top:
                    top = h
            if top >= best:
                continue
            choice[s] = order
            if s < last:
                if search(s + 1, top):
                    return True
            else:
                best = top
                best_choice = choice[:]
                if best == floor:
                    return True
        return False

    search(0, 0)
    # search reaches itself through its closure; dropping the name frees the
    # stages' drawn orders and their generators now, not at the next cyclic
    # collection
    del search
    arcs = set(forced)
    arcs.update((v, h) for order in best_choice for v, heads in order for h in heads)
    return best, Orientation(gn.graph, frozenset(arcs))


def ell_prime_exact(g: WeightedGraph, caps: OracleCaps = DEFAULT_CAPS) -> int:
    return ell_prime_orientation(g, caps)[0]


# ---------------------------------------------------------------------------
# Aggregates over weight functions
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _sweep_weightings(n: int, k: int) -> tuple[bytes, bytes]:
    """The weightings of ``weak_orderings(n, blocks=k)`` (1 <= k <= n), in
    its order, less each one whose reversal came earlier (see
    ``chi_poc_t_argmax``), as two tables built in one pass, once per key, and
    shared by every graph and t.

    The first block is picked by size, then in lexicographic order, so the
    reversal of (B_1, ..., B_k) came earlier exactly when
    (|B_k|, B_k) < (|B_1|, B_1). Two distinct blocks are disjoint, so their
    sorted tuples first differ at their least members, which
    ``w.count(rank)`` and ``w.index(rank)`` read off the tuple. A one-block
    weighting is its own reversal and is kept.

    ``ranks`` packs each weighting into a row of n + 1 bytes: ``row[v]`` is
    vertex v's rank and ``row[0] = 0``, so a row is a vertex-indexed weight
    list for ``_poc_search``. ``codes`` packs the same weighting's order into
    ``(n * n + 7) // 8`` little-endian bytes: bits ``(v - 1) * n`` upward
    hold vertex v's field, whose bit u - 1 is set when u is strictly lighter
    than v. ANDed with a graph's adjacency in the same layout, a code keeps
    each vertex's lighter neighbours: the weighting's comparison pattern on
    the edges. ``chi_poc_t_argmax`` solves only the first row of each
    pattern in its sweep, among the rows it does not skip by twin class: a
    code ANDed with a mask of twin pairs tests those.
    """
    ranks = bytearray()
    codes = bytearray()
    width = (n * n + 7) // 8
    bits = [1 << v for v in range(n)]
    # bit 0 of each member's field, so that lighter * spread[members] writes
    # the set ``lighter`` into every member's field
    spread = [sum(1 << v * n for v in range(n) if mask >> v & 1) for mask in range(1 << n)]
    for w in weak_orderings(n, blocks=k):
        if (w.count(k), w.index(k)) < (w.count(1), w.index(1)):
            continue
        members = [0] * (k + 1)
        for rank, bit in zip(w, bits):
            members[rank] |= bit
        code = lighter = 0
        for block in members:
            code += lighter * spread[block]
            lighter += block
        ranks.append(0)
        ranks += bytes(w)
        codes += code.to_bytes(width, "little")
    return bytes(ranks), bytes(codes)


@lru_cache(maxsize=None)
def _weighting_count(n: int, k: int) -> int:
    """How many weightings ``weak_orderings(n, blocks=k)`` yields: the
    surjections onto k ranks, k! S(n, k), by inclusion-exclusion."""
    return sum((-1) ** j * math.comb(k, j) * (k - j) ** n for j in range(k + 1))


def chi_poc_t_argmax(
    g: Graph, t: int, caps: OracleCaps = DEFAULT_CAPS
) -> tuple[int, tuple[int, ...]]:
    """Worst-case POC palette over weightings with at most t distinct values,
    plus a weighting attaining it: the first in ``weak_orderings`` order.

    By rank normalization it suffices to range over the weak orderings of the
    vertex set with at most t blocks. The sweep walks only those with exactly
    k = min(t, n) blocks, which changes neither the value nor the witness:

    - splitting a weight class into two consecutive ranks only turns some
      ``!=`` edges into strict ones, and a POC of the split weighting is one
      of the unsplit weighting, so chi_POC cannot drop;
    - in ``weak_orderings`` order, splitting the least member off the first
      block with two or more members gives an earlier weighting: the blocks
      before it are unchanged and the split-off block is smaller;
    - so a weighting with fewer than min(t, n) values has an earlier one,
      still within t values, with at least the same chi_POC, and the first
      maximiser uses exactly min(t, n) values. It is also the first
      maximiser among the weightings with exactly that many values, which
      is what the sweep returns.

    The sweep prepares one search per graph (``_poc_search``) and walks one
    cached table per (n, k) (``_sweep_weightings``) whose rows are
    vertex-indexed weights (index 0 unused), built once and shared by every
    graph and every t. It skips work in five exact ways:

    - a weighting whose reversal w -> k + 1 - w came earlier is skipped: the
      reversal maps each POC c to theta + 1 - c, so both have the same
      chi_POC, and the best is replaced only on a strictly greater value;
    - a weighting is skipped when some twin class of g (vertices with equal
      open neighbourhoods, or equal closed ones) does not give its lower ids
      the lower ranks; one AND of the row's code tests every class. Swapping
      two twins is an automorphism, so it keeps chi_POC. Sorting the ranks
      inside each class gives a weighting that ``weak_orderings`` lists
      earlier: at the first rank whose blocks differ, the sorted one's block
      takes, in each class, the least ids left, so it is componentwise at
      most the other and comes first in ``combinations`` order. If the
      sorted weighting's reversal came earlier still, that reversal stands
      for it. So every skipped weighting has an earlier one in the table
      with equal chi_POC, and the first maximiser is never skipped; the
      skip reads no longest path;
    - a weighting is skipped before it is solved when an earlier solved one
      has the same comparison pattern on the edges: the row's code
      ANDed with g's adjacency, which names each vertex's strictly lighter
      neighbours. A POC's conditions compare the weights of an edge's ends
      and nothing else, so the pattern fixes chi_POC. Solving that earlier row
      left the best at least that value, so the witness is still the first
      row to attain the maximum. The pattern reads no longest path;
    - a weighting is first tried at the running best's palette. A POC there
      means it cannot beat the best; none there means none with fewer colors
      (a POC within theta colors is one within theta + 1), so its search goes
      on from best + 1;
    - before its chain bounds are built, a weighting is colored by first fit
      (see ``_poc_search``). A first-fit coloring within the best's palette
      settles it without a search, as one within the clique size does.

    The ``best == n`` ceiling ends the sweep early. The ``weightings``
    cap counts the weightings walked: k! S(n, k), the surjections onto k
    ranks.
    """
    n = g.n
    if n < 1:
        raise ValueError("graph must have at least one vertex")
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    if n > caps.chi_poc_n:
        raise CapExceeded("chi_poc_n", caps.chi_poc_n, n)
    k = min(t, n)  # t >= n allows every weak ordering: the same table as f's
    count = _weighting_count(n, k)
    if count > caps.weightings:
        raise CapExceeded("weightings", caps.weightings, count)
    solve = _poc_search(g)
    ranks, codes = _sweep_weightings(n, k)
    stride = n + 1
    width = (n * n + 7) // 8
    adjacency = 0  # the layout of a code: v's field holds v's neighbours
    for u, v in g.edges:
        adjacency |= 1 << (u - 1) * n + v - 1 | 1 << (v - 1) * n + u - 1
    # u's field holds bit v - 1 for the next member v > u of u's twin class:
    # set in a code when v is lighter than u. An open neighbourhood never
    # equals a closed one (N(x) = N[y] would put y in N(x), so x in N(x)),
    # so one map keyed by both finds false and true twins.
    twins = 0
    last: dict[frozenset[int], int] = {}
    for v, hood in enumerate(g.adjacency[1:], start=1):
        for key in (hood, hood | {v}):
            if key in last:
                twins |= 1 << (last[key] - 1) * n + v - 1
            last[key] = v
    seen: set[int] = set()
    best = 0
    best_weights: tuple[int, ...] = ()
    for start, at in zip(range(0, len(ranks), stride), range(0, len(codes), width)):
        code = int.from_bytes(codes[at:at + width], "little")
        if code & twins:
            continue
        pattern = code & adjacency
        if pattern in seen:
            continue
        seen.add(pattern)
        row = ranks[start:start + stride]
        value, _ = solve(row, best)
        if value > best:
            best, best_weights = value, tuple(row[1:])
            if best == n:  # the trivial ceiling: no weighting needs more
                break
    return best, best_weights


def chi_poc_t(g: Graph, t: int, caps: OracleCaps = DEFAULT_CAPS) -> int:
    return chi_poc_t_argmax(g, t, caps)[0]


def f_argmax(g: Graph, caps: OracleCaps = DEFAULT_CAPS) -> tuple[int, tuple[int, ...]]:
    """Worst-case POC palette over all weight functions, plus a weighting
    attaining it: the first in ``weak_orderings`` order.

    This is ``chi_poc_t_argmax`` with t = n, so by its lemma the sweep walks
    the total orders alone: the first maximiser is one of them.
    """
    return chi_poc_t_argmax(g, g.n, caps)


def f_exact(g: Graph, caps: OracleCaps = DEFAULT_CAPS) -> int:
    return f_argmax(g, caps)[0]


# ---------------------------------------------------------------------------
# POC enumeration at a fixed palette
# ---------------------------------------------------------------------------


def iter_pocs(
    g: WeightedGraph, theta: int, caps: OracleCaps = DEFAULT_CAPS
) -> Iterator[Coloring]:
    """All valid POCs c: V -> {1..theta}, counted as functions, in
    lexicographic order of the color tuple."""
    if g.n > caps.enum_pocs_n:
        raise CapExceeded("enum_pocs_n", caps.enum_pocs_n, g.n)
    if not (1 <= theta <= g.n):
        raise ValueError(f"theta must be in 1..{g.n}, got {theta}")
    n = g.n
    w = g.weights
    adj = g.graph.adjacency
    colors = [0] * (n + 1)

    def assign(v: int) -> Iterator[Coloring]:
        if v > n:
            yield Coloring(tuple(colors[1:]), theta)
            return
        for c in range(1, theta + 1):
            ok = True
            for u in adj[v]:
                cu = colors[u]
                if not cu:
                    continue
                if w[u - 1] > w[v - 1]:
                    ok = cu > c
                elif w[u - 1] < w[v - 1]:
                    ok = cu < c
                else:
                    ok = cu != c
                if not ok:
                    break
            if ok:
                colors[v] = c
                yield from assign(v + 1)
                colors[v] = 0

    return assign(1)


def enumerate_pocs(g: WeightedGraph, theta: int, caps: OracleCaps = DEFAULT_CAPS) -> int:
    """Number of valid POCs using colors from {1..theta} (palette fixed)."""
    return sum(1 for _ in iter_pocs(g, theta, caps))


# ---------------------------------------------------------------------------
# Exhaustive small-graph families
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _canonical_masks(n: int) -> tuple[int, ...]:
    """The least edge mask of each isomorphism class of n-vertex graphs, in
    ascending order (see ``enumerate_graphs``)."""
    if n <= 1:
        return (0,)
    pairs = list(itertools.combinations(range(n), 2))
    index = {p: i for i, p in enumerate(pairs)}
    tables = []
    for perm in itertools.permutations(range(n)):
        table = tuple(
            index[(perm[u], perm[v]) if perm[u] < perm[v] else (perm[v], perm[u])]
            for u, v in pairs
        )
        tables.append(table)
    tables = tables[1:]  # drop the identity
    masks = []
    for top in _canonical_masks(n - 1):
        for mask in range(top << (n - 1), (top + 1) << (n - 1)):
            bits = []
            m = mask
            while m:
                bits.append((m & -m).bit_length() - 1)
                m &= m - 1
            minimal = True
            for table in tables:
                img = 0
                for b in bits:
                    img |= 1 << table[b]
                if img < mask:
                    minimal = False
                    break
            if minimal:
                masks.append(mask)
    return tuple(masks)


def enumerate_graphs(n: int) -> Iterator[Graph]:
    """All graphs on n vertices, one labeled representative per isomorphism
    class (the representative with the least edge mask), in ascending order
    of that mask.

    Bit i of a mask is the i-th vertex pair in ``itertools.combinations``
    order, so vertex 0's n - 1 pairs are the lowest bits and the bits above
    them are the pairs of G - 0 in the same order. A relabelling that fixes
    vertex 0 permutes the upper bits among themselves, so the upper part of a
    least mask is itself a least (n - 1)-vertex mask. The candidates are
    therefore each (n - 1)-vertex representative extended by every set of
    vertex 0's pairs, and each is kept when no relabelling of its n! makes it
    smaller. Desk scale only: n = 7 would scan 156 * 2^6 candidates under
    5040 tables (about 9 s).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > 6:
        raise ValueError(f"enumerate_graphs supports n <= 6, got n={n}")
    pairs = list(itertools.combinations(range(n), 2))
    for mask in _canonical_masks(n):
        edges = frozenset(
            (u + 1, v + 1) for i, (u, v) in enumerate(pairs) if mask >> i & 1
        )
        yield Graph(n, edges)
