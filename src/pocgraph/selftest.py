"""Exhaustive verification suites behind ``pocgraph selftest`` and the
acceptance tests.

Each check compares an independent oracle against a construction or a closed
formula on an exhaustive small family (graphs up to isomorphism at desk
scale) plus seeded random instances. ``quick`` keeps every family small
enough for a few seconds of runtime; ``full`` runs the complete desk-scale
families. A check returns what it observed, or stops at its first bad
instance and raises ``_Failed`` naming it; ``run_check`` reports that, or a
crash, as a failed result.

``CHECKS`` is the one table of checks. Each row holds the check's claim and
its family at each scale of ``SCALES``; ``run_selftest`` runs the rows in
order, and the acceptance tests are generated from their criterion numbers
and time budgets.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass, field
from functools import cache
from typing import Callable, Iterator, Mapping

from . import multipartite as mp
from . import oracles, poc_engine
from .fixtures import load_fixture
from .graph_core import (
    Coloring,
    Graph,
    Orientation,
    WeightedGraph,
    complement,
    complete_multipartite_graph,
    normalize_weights,
    parse_coloring,
    parse_orientation,
    parse_wpoc,
    random_weighted_graph,
    serialize_coloring,
    serialize_orientation,
    serialize_wpoc,
)
from .oracles import DEFAULT_CAPS, OracleCaps

# each scale names the ``Check`` field that holds a check's family at it
SCALES = ("quick", "full")


@dataclass
class CheckResult:
    name: str
    passed: bool
    observed: str
    expected: str
    elapsed_ms: float


@dataclass
class RunReport:
    scale: str
    checks: list[CheckResult]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)


class _Context:
    """One run's scale and caps, its families of graphs, and f with a
    weighting that attains it, chi and a longest path of each graph, each
    computed once per run: several checks read the same values, and a memo
    lookup is cheapest when its graph is the very object it was computed
    for."""

    def __init__(self, scale: str, caps: OracleCaps) -> None:
        if scale not in SCALES:
            raise ValueError(f"scale must be one of {', '.join(SCALES)}; got {scale!r}")
        self.scale, self.caps = scale, caps
        self._of_order = cache(lambda n: tuple(oracles.enumerate_graphs(n)))
        self.f = cache(lambda g: oracles.f_argmax(g, caps))
        self.chi = cache(lambda g: oracles.chromatic_number(g))
        self.path = cache(lambda g: oracles.longest_path_witness(g, caps))

    def graphs(self, nmax: int) -> Iterator[Graph]:
        """Every graph with 1 <= n <= nmax vertices, up to isomorphism."""
        for n in range(1, nmax + 1):
            yield from self._of_order(n)

    def weighted(self, nmax: int) -> Iterator[WeightedGraph]:
        """Every graph of ``graphs(nmax)`` under every weighting up to order
        (``weak_orderings``), graph by graph."""
        for n in range(1, nmax + 1):
            weightings = list(oracles.weak_orderings(n))
            for g in self._of_order(n):
                for weights in weightings:
                    yield WeightedGraph(g, weights)


class _Failed(Exception):
    """Raised by a check at its first bad instance, with what it observed
    there; what it expected is the claim of the check's row."""

    def __init__(self, observed: str) -> None:
        super().__init__(observed)
        self.observed = observed


def _tag(g: WeightedGraph) -> str:
    """Compact single-line instance description for failure messages."""
    edges = ",".join(f"{u}-{v}" for u, v in g.graph.sorted_edges())
    weights = ",".join(str(w) for w in g.weights)
    return f"n={g.n} w={weights} e={edges or '-'}"


def _graph_tag(g: Graph) -> str:
    edges = ",".join(f"{u}-{v}" for u, v in g.sorted_edges())
    return f"n={g.n} e={edges or '-'}"


# ---------------------------------------------------------------------------
# Fixture checks
# ---------------------------------------------------------------------------


def check_c4w_fixture(ctx: _Context) -> str:
    g = load_fixture("C4W")
    value, witness = oracles.chi_poc_exact(g, ctx.caps)
    pocs3 = list(oracles.iter_pocs(g, 3, ctx.caps))
    pocs2 = oracles.enumerate_pocs(g, 2, ctx.caps)
    observed = (
        f"chi_poc={value} pocs@3={len(pocs3)} "
        f"unique={pocs3[0].colors if pocs3 else None} pocs@2={pocs2}"
    )
    if poc_engine.coloring_problem(g, witness, value):
        raise _Failed(f"{observed} witness={witness.colors} is not a POC in {value} colors")
    return observed


def check_k135_fixture(ctx: _Context) -> str:
    g = load_fixture("K135")
    inst = mp.MultipartiteInstance((1, 3, 5), g.weights)
    mocs = mp.find_mocs(inst)
    s = mp.find_max_spaths(inst, mocs)
    coloring = mp.mocs_coloring(inst, mocs, s)
    gv = mp.g_value(inst)
    observed = (
        f"total={mocs.total_size} V(S)={s.vertex_count} q={s.q} g={gv} "
        f"palette={coloring.palette} c(z5)={coloring.color(9)}"
    )
    if not poc_engine.is_valid_poc(g, coloring):
        raise _Failed(f"{observed} coloring={coloring.colors} is not a POC")
    return observed


def check_chem_fixture(ctx: _Context) -> str:
    g = load_fixture("CHEM")
    reference = Coloring((1, 2, 3, 3, 4, 5), 5)
    ref_ok = poc_engine.is_valid_poc(g, reference)
    value, witness = oracles.chi_poc_exact(g, ctx.caps)
    lprime = oracles.ell_prime_exact(g, ctx.caps)
    pocs3 = oracles.enumerate_pocs(g, 3, ctx.caps)
    observed = f"reference_valid={ref_ok} chi_poc={value} ell_prime={lprime} pocs@3={pocs3}"
    if poc_engine.coloring_problem(g, witness, value):
        raise _Failed(f"{observed} witness={witness.colors} is not a POC in {value} colors")
    return observed


# ---------------------------------------------------------------------------
# Theorem suites
# ---------------------------------------------------------------------------


def check_theorem1(ctx: _Context, *, nmax: int) -> str:
    """f(G) equals the order of a longest path, over all graphs up to iso.
    Each side is shown by its object: the weighting that attains f, solved
    again, and the path, walked edge by edge."""
    count = 0
    for g in ctx.graphs(nmax):
        (f, weights), path = ctx.f(g), ctx.path(g)
        if poc_engine.path_problem(g, path):
            raise _Failed(f"longest path witness {path} is not a simple path of {_graph_tag(g)}")
        if f != len(path):
            raise _Failed(f"f={f} longest_path={len(path)} on {_graph_tag(g)}")
        wg = WeightedGraph(g, weights)
        chi_poc, coloring = oracles.chi_poc_exact(wg, ctx.caps)
        if chi_poc != f or poc_engine.coloring_problem(wg, coloring, f):
            raise _Failed(f"f_argmax weighting gives chi_poc={chi_poc}, not f={f}, on {_tag(wg)}")
        count += 1
    return f"f == longest_path on {count} graphs (n <= {nmax})"


def _theorem3_one(ctx: _Context, wg: WeightedGraph) -> None:
    chi_poc, witness = oracles.chi_poc_exact(wg, ctx.caps)
    lprime, d = oracles.ell_prime_orientation(wg, ctx.caps)
    if chi_poc != lprime:
        raise _Failed(f"chi_poc={chi_poc} ell_prime={lprime} on {_tag(wg)}")
    if poc_engine.coloring_problem(wg, witness, chi_poc):
        raise _Failed(f"invalid witness coloring on {_tag(wg)}")
    # greedy along a good acyclic d colors with its longest dipath: chi_POC <= ell'
    if poc_engine.orientation_problem(wg, d, lprime):
        raise _Failed(
            f"ell_prime witness is not good acyclic with longest dipath {lprime} on {_tag(wg)}"
        )
    # and the coloring, oriented from larger color to smaller, bounds ell':
    # its longest dipath is at most the palette, and below it only if the
    # palette is not the least
    problem = poc_engine.orientation_problem(
        wg, poc_engine.orientation_from_coloring(wg, witness), chi_poc
    )
    if problem:
        raise _Failed(f"chi_poc witness oriented by color {problem} on {_tag(wg)}")
    chi = ctx.chi(wg.graph)
    if not chi <= chi_poc <= wg.n:
        raise _Failed(f"sandwich chi={chi} chi_poc={chi_poc} n={wg.n} violated on {_tag(wg)}")


def check_theorem3(ctx: _Context, *, nmax: int, rounds: int) -> str:
    """chi_POC(G,w) = ell'(G,w): backtracking vs orientation enumeration."""
    count = 0
    for wg in ctx.weighted(nmax):
        _theorem3_one(ctx, wg)
        count += 1
    rng = random.Random(3403)
    for _ in range(rounds):
        n = rng.randint(1, 8)
        wg = random_weighted_graph(rng, n, rng.uniform(0.15, 0.85), rng.randint(1, 4))
        _theorem3_one(ctx, wg)
        count += 1
    return f"oracles agree on {count} instances (exhaustive n <= {nmax} + {rounds} random)"


def check_theorem4(ctx: _Context, *, rounds: int) -> str:
    """Bipartite worst case min(m+n, 2m+1): formula vs brute force, plus the
    layered construction on random weightings."""
    for m in range(1, 4):
        for n in range(m, 4):
            t = 2 * m + 1
            formula = mp.bipartite_chi_poc_t(m, n, t)
            brute = oracles.chi_poc_t(complete_multipartite_graph((m, n)), t, ctx.caps)
            if formula != brute or formula != min(m + n, 2 * m + 1):
                raise _Failed(
                    f"K({m},{n}) t={t}: formula={formula} brute={brute}"
                    f" min(m+n, 2m+1)={min(m + n, 2 * m + 1)}"
                )
    rng = random.Random(3404)
    for m in range(1, 4):
        for n in range(m, 7):
            limit = 2 * m + 1
            for _ in range(rounds):
                weights = tuple(rng.randint(1, rng.randint(1, m + n)) for _ in range(m + n))
                coloring = mp.bipartite_layered_coloring(m, n, weights)
                wg = WeightedGraph(complete_multipartite_graph((m, n)), weights)
                if not poc_engine.is_valid_poc(wg, coloring):
                    raise _Failed(f"invalid layered coloring on {_tag(wg)}")
                if coloring.palette > limit:
                    raise _Failed(f"palette={coloring.palette} > 2m+1={limit} on {_tag(wg)}")
    return "formula matches brute force; layered coloring within 2m+1"


def _prop2_family(nmax: int = 9) -> list[tuple[int, ...]]:
    """Part sizes of 2 or 3 parts of 1-3 vertices each, with at most nmax
    vertices in all (the default, 9, keeps every one)."""
    return [
        sizes
        for k in (2, 3)
        for sizes in itertools.combinations_with_replacement((1, 2, 3), k)
        if sum(sizes) <= nmax
    ]


def check_proposition2(ctx: _Context, *, nmax: int) -> str:
    """h (MOCs construction, maximized over weightings) equals the brute-force
    worst case chi_poc_t on the whole small multipartite family."""
    count = 0
    for sizes in _prop2_family(nmax):
        graph = complete_multipartite_graph(sizes)
        for t in (1, 2, 3):
            h = mp.h_value(sizes, t, ctx.caps)
            brute = oracles.chi_poc_t(graph, t, ctx.caps)
            if h != brute:
                raise _Failed(f"parts={sizes} t={t}: h={h} chi_poc_t={brute}")
            count += 1
    return f"h == chi_poc_t on {count} (parts, t) instances"


def check_proposition1_exhaustive(ctx: _Context, *, nmax: int) -> str:
    """Every MOCs coloring on the small multipartite family is a valid POC and
    uses exactly total - |V(S)| + q colors (the count is asserted inside the
    construction; here every weighting and every MOCs choice is driven), and
    that count is g, which reads the canonical MOCs alone."""
    count = 0
    for sizes in _prop2_family(nmax):
        for weights in mp.part_weightings(sizes, 3):
            inst = mp.MultipartiteInstance(sizes, weights)
            gv = mp.g_value(inst)
            for mocs in mp.enumerate_mocs(inst, ctx.caps):
                s = mp.find_max_spaths(inst, mocs)
                try:
                    mp.mocs_coloring(inst, mocs, s)
                except AssertionError as exc:
                    raise _Failed(f"{exc} on {_tag(inst.weighted_graph())}") from exc
                colors = mocs.total_size - s.vertex_count + s.q
                if colors != gv:
                    tag = f"MOCs {mocs.cliques} of {_tag(inst.weighted_graph())}"
                    raise _Failed(f"{tag} gives {colors} colors and misses g={gv}")
                count += 1
    return f"{count} MOCs colorings valid with exact color count"


def check_theorem2(ctx: _Context, *, nmax: int) -> str:
    """Palette ratio (chi_poc_t - 1) <= t (chi - 1) across all suite families,
    plus sharpness when every part carries all t weights."""
    for g in ctx.graphs(nmax):
        chi = ctx.chi(g)
        for t in (1, 2, 3):
            value = oracles.chi_poc_t(g, t, ctx.caps)
            if value - 1 > t * (chi - 1):
                raise _Failed(
                    f"chi_poc_t={value} chi={chi} t={t} break chi_poc_t - 1 <= t (chi - 1)"
                    f" on {_graph_tag(g)}"
                )
            if g.m == 0 and value != 1:
                raise _Failed(f"edgeless chi_poc_t={value}, not 1, on {_graph_tag(g)}")
    for k in (2, 3):
        for t in (2, 3):
            sizes = (t,) * k
            weights = tuple(range(1, t + 1)) * k
            inst = mp.MultipartiteInstance(sizes, weights)
            bound = mp.multipartite_upper_bound(k, t)
            chi_poc, _ = oracles.chi_poc_exact(inst.weighted_graph(), ctx.caps)
            h = mp.h_value(sizes, t, ctx.caps)
            if chi_poc != bound or h != bound:
                raise _Failed(
                    f"k={k} t={t}: chi_poc={chi_poc} h={h} bound={bound}, not both (k-1)t+1"
                )
            for mocs in mp.enumerate_mocs(inst, ctx.caps):
                s = mp.find_max_spaths(inst, mocs)
                if s.vertex_count != 2 * t - 2:
                    raise _Failed(f"k={k} t={t}: V(S)={s.vertex_count}, not 2t-2={2 * t - 2}")
    return "ratio bound holds; sharp family attains (k-1)t+1 with V(S)=2t-2"


def check_theorem2_constructive(ctx: _Context, *, nmax: int) -> str:
    """Completing to a multipartite graph and pulling the MOCs coloring back
    yields a valid POC of the original graph within (chi-1)t + 1 colors."""
    count = 0
    for wg in ctx.weighted(nmax):
        if wg.graph.m == 0:
            continue
        coloring = mp.completion_coloring(wg)
        chi, t = ctx.chi(wg.graph), len(set(wg.weights))
        if not poc_engine.is_valid_poc(wg, coloring):
            raise _Failed(f"invalid completion coloring on {_tag(wg)}")
        if coloring.palette > (chi - 1) * t + 1:
            raise _Failed(f"palette={coloring.palette} > ({chi}-1)*{t}+1 on {_tag(wg)}")
        count += 1
    return f"completion POC within bound on {count} instances"


def _height_problem(d: Orientation, c: Coloring) -> str | None:
    """Why c is not the coloring of every vertex by its height in d (the
    number of vertices on a longest directed path starting there), or None.

    Colors that fall along every arc are at least the heights; a vertex
    colored k > 1 with an out-neighbor colored k - 1 starts a directed path
    of k vertices, so its color is at most its height. A palette equal to
    the largest color is then d's longest directed path. Read from the arcs
    alone, so that it shares no code with the greedy it certifies.
    """
    below = set()
    for t, h in d.arcs:
        if c.color(t) <= c.color(h):
            return f"color {c.color(t)} of {t} does not fall along arc {t}->{h}"
        below.add((t, c.color(h)))
    for v, color in enumerate(c.colors, start=1):
        if color > 1 and (v, color - 1) not in below:
            return f"vertex {v} has color {color} and no out-neighbor colored {color - 1}"
    if c.palette != max(c.colors, default=0):
        return f"palette {c.palette} is not the largest color"
    return None


def check_algorithm_bounds(ctx: _Context, *, rounds: int) -> str:
    """Greedy and orientation-greedy colorings on seeded random instances:
    validity, palette bounds, and the coloring -> orientation direction."""
    rng = random.Random(3408)
    for _ in range(rounds):
        n = rng.randint(1, 10)
        wg = random_weighted_graph(rng, n, rng.uniform(0.1, 0.9), rng.randint(1, n))
        greedy = poc_engine.greedy_poc(wg)
        if not poc_engine.is_valid_poc(wg, greedy):
            raise _Failed(f"greedy invalid on {_tag(wg)}")
        lp = len(ctx.path(wg.graph))
        if greedy.palette > lp:
            raise _Failed(f"greedy palette={greedy.palette} > longest_path={lp} on {_tag(wg)}")
        d = poc_engine.build_good_orientation(wg)
        if not poc_engine.is_good_acyclic(wg, d):
            raise _Failed(f"built orientation not good acyclic on {_tag(wg)}")
        oriented = poc_engine.greedy_poc_from_orientation(wg, d)
        problem = _height_problem(d, oriented)
        if problem or not poc_engine.is_valid_poc(wg, oriented):
            raise _Failed(f"oriented greedy {problem or 'is not a valid POC'} on {_tag(wg)}")
        dipath = poc_engine.dag_longest_path(poc_engine.orientation_from_coloring(wg, greedy))
        if dipath > greedy.palette:
            raise _Failed(f"dipath {dipath} > palette {greedy.palette} on {_tag(wg)}")
        normed = normalize_weights(wg)
        if poc_engine.is_valid_poc(normed, greedy) != poc_engine.is_valid_poc(wg, greedy):
            raise _Failed(f"validity changed by normalization on {_tag(wg)}")
    return f"all bounds hold on {rounds} random instances (n <= 10)"


def check_hamiltonian_corollary(ctx: _Context, *, nmax: int) -> str:
    """f(G) = n exactly when a direct search finds a Hamiltonian path."""
    count = 0
    for g in ctx.graphs(nmax):
        f = ctx.f(g)[0]
        ham = oracles.has_hamiltonian_path(g)
        if (f == g.n) != ham:
            raise _Failed(f"f={f} n={g.n} hamiltonian={ham} on {_graph_tag(g)}")
        count += 1
    return f"corollary holds on {count} graphs (n <= {nmax})"


# ---------------------------------------------------------------------------
# Module-invariant checks
# ---------------------------------------------------------------------------


def check_roundtrip(ctx: _Context, *, rounds: int) -> str:
    rng = random.Random(3411)
    for _ in range(rounds):
        n = rng.randint(1, 9)
        wg = random_weighted_graph(rng, n, rng.uniform(0.0, 1.0), rng.randint(1, 9))
        if parse_wpoc(serialize_wpoc(wg)) != wg:
            raise _Failed(f"wpoc roundtrip changed {_tag(wg)}")
        coloring = poc_engine.greedy_poc(wg)
        if parse_coloring(serialize_coloring(coloring), n) != coloring:
            raise _Failed(f"coloring roundtrip changed on {_tag(wg)}")
        d = poc_engine.build_good_orientation(wg)
        if parse_orientation(serialize_orientation(d), wg.graph) != d:
            raise _Failed(f"orientation roundtrip changed on {_tag(wg)}")
    return f"parse(serialize(x)) == x on {rounds} random instances"


def check_normalize(ctx: _Context, *, rounds: int) -> str:
    rng = random.Random(3412)
    for _ in range(rounds):
        n = rng.randint(1, 9)
        wg = random_weighted_graph(rng, n, 0.5, rng.randint(1, 50))
        once = normalize_weights(wg)
        if normalize_weights(once) != once:
            raise _Failed(f"not idempotent on {_tag(wg)}")
        if set(once.weights) != set(range(1, len(set(wg.weights)) + 1)):
            raise _Failed(f"ranks {sorted(set(once.weights))} not contiguous on {_tag(wg)}")
        for u, v in itertools.combinations(range(1, n + 1), 2):
            before = (wg.weight(u) > wg.weight(v)) - (wg.weight(u) < wg.weight(v))
            after = (once.weight(u) > once.weight(v)) - (once.weight(u) < once.weight(v))
            if before != after:
                raise _Failed(f"order of ({u},{v}) changed on {_tag(wg)}")
    return f"idempotent and order-preserving on {rounds} instances"


def check_complement(ctx: _Context, *, nmax: int) -> str:
    for g in ctx.graphs(nmax):
        cc = complement(complement(g))
        if cc != g:
            raise _Failed(f"involution failed on {_graph_tag(g)}")
        if g.m + complement(g).m != g.n * (g.n - 1) // 2:
            raise _Failed(f"edge counts off, m + m' != n(n-1)/2, on {_graph_tag(g)}")
    return f"involution and edge-count identity on all graphs n <= {nmax}"


def check_greedy_exhaustive(ctx: _Context, *, nmax: int) -> str:
    """Greedy POC validity and the longest-path palette bound on every
    weighting of every small graph."""
    count = 0
    graph = None
    for wg in ctx.weighted(nmax):
        if wg.graph is not graph:  # one graph's weightings come together
            graph, lp = wg.graph, len(ctx.path(wg.graph))
        coloring = poc_engine.greedy_poc(wg)
        if not poc_engine.is_valid_poc(wg, coloring):
            raise _Failed(f"greedy invalid on {_tag(wg)}")
        if coloring.palette > lp:
            raise _Failed(f"palette={coloring.palette} > longest_path={lp} on {_tag(wg)}")
        count += 1
    return f"greedy valid and bounded on {count} weighted instances"


def check_oriented_greedy_all_orientations(ctx: _Context, *, nmax: int) -> str:
    """Oriented greedy colors each vertex by its height, so its palette is
    the longest dipath, for *every* good acyclic orientation of every small
    weighted graph."""
    count = 0
    for wg in ctx.weighted(nmax):
        edges = wg.graph.sorted_edges()
        for bits in range(1 << len(edges)):
            arcs = frozenset(
                (u, v) if not bits >> i & 1 else (v, u) for i, (u, v) in enumerate(edges)
            )
            d = Orientation(wg.graph, arcs)
            if not poc_engine.is_good_acyclic(wg, d):
                continue
            coloring = poc_engine.greedy_poc_from_orientation(wg, d)
            problem = _height_problem(d, coloring)
            if problem or not poc_engine.is_valid_poc(wg, coloring):
                raise _Failed(
                    f"{problem or 'not a valid POC'} arcs={sorted(arcs)} on {_tag(wg)}"
                )
            count += 1
    return f"bound holds for all {count} good acyclic orientations"


def check_chi_poc_t_monotone(ctx: _Context, *, nmax: int) -> str:
    for g in ctx.graphs(nmax):
        values = [oracles.chi_poc_t(g, t, ctx.caps) for t in range(1, g.n + 2)]
        if values[0] != ctx.chi(g):
            raise _Failed(f"t=1 gives {values[0]}, not chi={ctx.chi(g)}, on {_graph_tag(g)}")
        if any(a > b for a, b in zip(values, values[1:])):
            raise _Failed(f"not monotone: {values} on {_graph_tag(g)}")
    return f"monotone in t with chi at t=1 on all graphs n <= {nmax}"


@dataclass(frozen=True)
class Check:
    """One row of the check table: ``criterion`` is the acceptance criterion
    the check gates (None if it gates none; the acceptance tests then run it
    at quick scale), ``budget_s`` the wall time the acceptance tests allow
    it, and ``claim`` what the check asserts, reported as the expected side
    of a failure. ``quick`` and ``full`` are its family at each scale of
    ``SCALES``, passed to ``run`` as keyword arguments; ``run`` returns what
    it observed or raises ``_Failed``. An ``exact`` row passes only if it
    observed its claim word for word."""

    name: str
    run: Callable[..., str]
    criterion: int | None
    budget_s: float
    claim: str
    quick: Mapping[str, int] = field(default_factory=dict)
    full: Mapping[str, int] = field(default_factory=dict)
    exact: bool = False


CHECKS: tuple[Check, ...] = (
    Check("c4w-fixture", check_c4w_fixture, 1, 1.0,
          "chi_poc=3 pocs@3=1 unique=(1, 2, 2, 3) pocs@2=0", exact=True),
    Check("k135-fixture", check_k135_fixture, 2, 1.0,
          "total=8 V(S)=5 q=2 g=5 palette=5 c(z5)=3", exact=True),
    Check("chem-fixture", check_chem_fixture, 9, 1.0,
          "reference_valid=True chi_poc=4 ell_prime=4 pocs@3=0", exact=True),
    Check("theorem1-f-equals-longest-path", check_theorem1, 3, 600.0,
          "f == longest_path, each shown by its witness",
          quick={"nmax": 5}, full={"nmax": 6}),
    Check("theorem3-chi-poc-equals-ell-prime", check_theorem3, 4, 300.0,
          "chi_poc == ell_prime, each witness valid, chi <= chi_poc <= n",
          quick={"nmax": 4, "rounds": 150}, full={"nmax": 5, "rounds": 500}),
    Check("theorem4-bipartite-formula", check_theorem4, 5, 300.0,
          "chi_poc_t(K(m,n); 2m+1) == formula == min(m+n, 2m+1);"
          " layered coloring is a POC within 2m+1",
          quick={"rounds": 30}, full={"rounds": 100}),
    Check("proposition1-mocs-coloring", check_proposition1_exhaustive, 6, 600.0,
          "every MOCs coloring is a POC with total - |V(S)| + q == g colors",
          quick={"nmax": 7}, full={"nmax": 9}),
    Check("proposition2-h-matches-oracle", check_proposition2, 6, 600.0,
          "h == chi_poc_t", quick={"nmax": 7}, full={"nmax": 9}),
    Check("theorem2-ratio-and-sharpness", check_theorem2, 7, 120.0,
          "chi_poc_t - 1 <= t (chi - 1); sharp instances reach (k-1)t+1 with V(S) == 2t-2",
          quick={"nmax": 4}, full={"nmax": 5}),
    Check("theorem2-constructive", check_theorem2_constructive, None, 120.0,
          "completion coloring is a POC within (chi-1)t+1 colors",
          quick={"nmax": 4}, full={"nmax": 5}),
    Check("algorithm-bounds-random", check_algorithm_bounds, 8, 120.0,
          "greedy is a POC within the longest path; oriented greedy colors by height",
          quick={"rounds": 200}, full={"rounds": 1000}),
    Check("hamiltonian-path-corollary", check_hamiltonian_corollary, 10, 600.0,
          "f == n iff Hamiltonian path", quick={"nmax": 5}, full={"nmax": 6}),
    Check("wpoc-roundtrip", check_roundtrip, None, 60.0,
          "parse(serialize(x)) == x", quick={"rounds": 100}, full={"rounds": 300}),
    Check("normalize-weights", check_normalize, None, 60.0,
          "normalize_weights is idempotent, order-preserving, with ranks 1..s",
          quick={"rounds": 100}, full={"rounds": 300}),
    Check("complement-involution", check_complement, None, 60.0,
          "complement is an involution and m + m' == n(n-1)/2",
          quick={"nmax": 5}, full={"nmax": 5}),
    Check("greedy-poc-exhaustive", check_greedy_exhaustive, None, 300.0,
          "greedy is a POC within the longest path", quick={"nmax": 5}, full={"nmax": 6}),
    Check("oriented-greedy-all-orientations", check_oriented_greedy_all_orientations, None,
          120.0, "oriented greedy is a POC coloring each vertex by its height",
          quick={"nmax": 3}, full={"nmax": 4}),
    Check("chi-poc-t-monotone", check_chi_poc_t_monotone, None, 60.0,
          "chi_poc_t is monotone in t and equals chi at t=1",
          quick={"nmax": 4}, full={"nmax": 4}),
)


def run_check(check: Check, ctx: _Context) -> CheckResult:
    """Run one check on its family at ctx's scale; its ``_Failed`` or a crash
    is a failed result, not a crashed run."""
    start = time.perf_counter()
    expected = check.claim
    try:
        observed = check.run(ctx, **getattr(check, ctx.scale))
        passed = not check.exact or observed == check.claim
    except _Failed as failed:
        passed, observed = False, failed.observed
    except Exception as exc:
        passed, observed, expected = False, f"{type(exc).__name__}: {exc}", "no error"
    elapsed = (time.perf_counter() - start) * 1000.0
    return CheckResult(check.name, passed, observed, expected, elapsed)


def run_selftest(scale: str = "quick", caps: OracleCaps = DEFAULT_CAPS) -> RunReport:
    ctx = _Context(scale, caps)
    return RunReport(scale, [run_check(check, ctx) for check in CHECKS])
