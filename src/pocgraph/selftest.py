"""Exhaustive verification suites behind ``pocgraph selftest`` and the
acceptance tests.

Each check compares an independent oracle against a construction or a closed
formula on an exhaustive small family (graphs up to isomorphism at desk
scale) plus seeded random instances. ``quick`` keeps every family small
enough for a few seconds of runtime; ``full`` runs the complete desk-scale
families. Failures always name the offending instance.

``CHECKS`` is the one table of checks: ``run_selftest`` runs its rows in
order, and the acceptance tests are generated from its criterion numbers and
time budgets.
"""

from __future__ import annotations

import dataclasses
import itertools
import random
import time
from dataclasses import dataclass, field
from typing import Callable

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


@dataclass
class _Context:
    scale: str
    caps: OracleCaps
    f_values: dict[Graph, int] = field(default_factory=dict)

    @property
    def full(self) -> bool:
        return self.scale == "full"

    def f(self, g: Graph) -> int:
        """f(G), computed once per graph per run: theorem1 and the
        Hamiltonian corollary read the same values."""
        if g not in self.f_values:
            self.f_values[g] = oracles.f_exact(g, self.caps)
        return self.f_values[g]


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


def check_c4w_fixture(ctx: _Context) -> tuple[bool, str, str]:
    g = load_fixture("C4W")
    value, witness = oracles.chi_poc_exact(g, ctx.caps)
    pocs3 = list(oracles.iter_pocs(g, 3, ctx.caps))
    pocs2 = oracles.enumerate_pocs(g, 2, ctx.caps)
    observed = (
        f"chi_poc={value} pocs@3={len(pocs3)} "
        f"unique={pocs3[0].colors if pocs3 else None} pocs@2={pocs2}"
    )
    expected = "chi_poc=3 pocs@3=1 unique=(1, 2, 2, 3) pocs@2=0"
    ok = (
        value == 3
        and poc_engine.is_valid_poc(g, witness)
        and len(pocs3) == 1
        and pocs3[0].colors == (1, 2, 2, 3)
        and pocs2 == 0
    )
    return ok, observed, expected


def check_k135_fixture(ctx: _Context) -> tuple[bool, str, str]:
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
    expected = "total=8 V(S)=5 q=2 g=5 palette=5 c(z5)=3"
    ok = (
        mocs.total_size == 8
        and s.vertex_count == 5
        and s.q == 2
        and gv == 5
        and coloring.palette == 5
        and coloring.color(9) == 3
        and poc_engine.is_valid_poc(g, coloring)
    )
    return ok, observed, expected


def check_chem_fixture(ctx: _Context) -> tuple[bool, str, str]:
    g = load_fixture("CHEM")
    reference = Coloring((1, 2, 3, 3, 4, 5), 5)
    ref_ok = poc_engine.is_valid_poc(g, reference)
    value, witness = oracles.chi_poc_exact(g, ctx.caps)
    lprime = oracles.ell_prime_exact(g, ctx.caps)
    pocs3 = oracles.enumerate_pocs(g, 3, ctx.caps)
    observed = f"reference_valid={ref_ok} chi_poc={value} ell_prime={lprime} pocs@3={pocs3}"
    expected = "reference_valid=True chi_poc=4 ell_prime=4 pocs@3=0"
    ok = (
        ref_ok
        and value == 4
        and lprime == 4
        and pocs3 == 0
        and poc_engine.is_valid_poc(g, witness)
    )
    return ok, observed, expected


# ---------------------------------------------------------------------------
# Theorem suites
# ---------------------------------------------------------------------------


def check_theorem1(ctx: _Context) -> tuple[bool, str, str]:
    """f(G) equals the order of a longest path, over all graphs up to iso."""
    nmax = 6 if ctx.full else 5
    count = 0
    for n in range(1, nmax + 1):
        for g in oracles.enumerate_graphs(n):
            f = ctx.f(g)
            lp = oracles.longest_path_exact(g, ctx.caps)
            if f != lp:
                return False, f"f={f} longest_path={lp} on {_graph_tag(g)}", "f == longest_path"
            count += 1
    return True, f"f == longest_path on {count} graphs (n <= {nmax})", "f == longest_path"


def _theorem3_one(ctx: _Context, wg: WeightedGraph) -> str | None:
    chi_poc, witness = oracles.chi_poc_exact(wg, ctx.caps)
    lprime = oracles.ell_prime_exact(wg, ctx.caps)
    if chi_poc != lprime:
        return f"chi_poc={chi_poc} ell_prime={lprime} on {_tag(wg)}"
    if not poc_engine.is_valid_poc(wg, witness):
        return f"invalid witness coloring on {_tag(wg)}"
    chi = oracles.chromatic_number(wg.graph)
    if not chi <= chi_poc <= wg.n:
        return f"sandwich chi={chi} chi_poc={chi_poc} n={wg.n} violated on {_tag(wg)}"
    return None


def check_theorem3(ctx: _Context) -> tuple[bool, str, str]:
    """chi_POC(G,w) = ell'(G,w): backtracking vs orientation enumeration."""
    caps = dataclasses.replace(
        ctx.caps, ell_prime_intra_edges=max(ctx.caps.ell_prime_intra_edges, 28)
    )
    ctx = dataclasses.replace(ctx, caps=caps)
    nmax = 5 if ctx.full else 4
    rounds = 500 if ctx.full else 150
    count = 0
    for n in range(1, nmax + 1):
        weightings = list(oracles.weak_orderings(n))
        for g in oracles.enumerate_graphs(n):
            for weights in weightings:
                problem = _theorem3_one(ctx, WeightedGraph(g, weights))
                if problem:
                    return False, problem, "chi_poc == ell_prime"
                count += 1
    rng = random.Random(3403)
    for _ in range(rounds):
        n = rng.randint(1, 8)
        wg = random_weighted_graph(rng, n, rng.uniform(0.15, 0.85), rng.randint(1, 4))
        problem = _theorem3_one(ctx, wg)
        if problem:
            return False, problem, "chi_poc == ell_prime"
        count += 1
    return (
        True,
        f"oracles agree on {count} instances (exhaustive n <= {nmax} + {rounds} random)",
        "chi_poc == ell_prime",
    )


def check_theorem4(ctx: _Context) -> tuple[bool, str, str]:
    """Bipartite worst case min(m+n, 2m+1): formula vs brute force, plus the
    layered construction on random weightings."""
    for m in range(1, 4):
        for n in range(m, 4):
            t = 2 * m + 1
            formula = mp.bipartite_chi_poc_t(m, n, t)
            brute = oracles.chi_poc_t(complete_multipartite_graph((m, n)), t, ctx.caps)
            if formula != brute or formula != min(m + n, 2 * m + 1):
                return (
                    False,
                    f"K({m},{n}) t={t}: formula={formula} brute={brute}",
                    "formula == brute == min(m+n, 2m+1)",
                )
    rng = random.Random(3404)
    rounds = 100 if ctx.full else 30
    for m in range(1, 4):
        for n in range(m, 7):
            limit = 2 * m + 1
            for _ in range(rounds):
                weights = tuple(rng.randint(1, rng.randint(1, m + n)) for _ in range(m + n))
                coloring = mp.bipartite_layered_coloring(m, n, weights)
                wg = WeightedGraph(complete_multipartite_graph((m, n)), weights)
                if not poc_engine.is_valid_poc(wg, coloring):
                    return False, f"invalid layered coloring on {_tag(wg)}", "valid POC"
                if coloring.palette > limit:
                    return (
                        False,
                        f"palette={coloring.palette} > {limit} on {_tag(wg)}",
                        "palette <= 2m+1",
                    )
    return True, "formula matches brute force; layered coloring within 2m+1", "Theorem 4"


def _prop2_family() -> list[tuple[int, ...]]:
    return [
        sizes
        for k in (2, 3)
        for sizes in itertools.combinations_with_replacement((1, 2, 3), k)
    ]


def check_proposition2(ctx: _Context) -> tuple[bool, str, str]:
    """h (MOCs construction, maximized over weightings) equals the brute-force
    worst case chi_poc_t on the whole small multipartite family."""
    caps = dataclasses.replace(ctx.caps, chi_poc_t_n=max(ctx.caps.chi_poc_t_n, 9))
    tmax = 3
    count = 0
    for sizes in _prop2_family():
        if not ctx.full and sum(sizes) > 7:
            continue
        graph = complete_multipartite_graph(sizes)
        for t in range(1, tmax + 1):
            h = mp.h_value(sizes, t, caps)
            brute = oracles.chi_poc_t(graph, t, caps)
            if h != brute:
                return (
                    False,
                    f"parts={sizes} t={t}: h={h} chi_poc_t={brute}",
                    "h == chi_poc_t",
                )
            count += 1
    return True, f"h == chi_poc_t on {count} (parts, t) instances", "h == chi_poc_t"


def check_proposition1_exhaustive(ctx: _Context) -> tuple[bool, str, str]:
    """Every MOCs coloring on the small multipartite family is a valid POC and
    uses exactly total - |V(S)| + q colors (the count is asserted inside the
    construction; here every weighting and every MOCs choice is driven), and
    that count is g, which reads the canonical MOCs alone."""
    count = 0
    for sizes in _prop2_family():
        if not ctx.full and sum(sizes) > 7:
            continue
        for weights in mp.part_weightings(sizes, 3):
            inst = mp.MultipartiteInstance(sizes, weights)
            gv = mp.g_value(inst)
            for mocs in mp.enumerate_mocs(inst, ctx.caps):
                s = mp.find_max_spaths(inst, mocs)
                try:
                    mp.mocs_coloring(inst, mocs, s)
                except AssertionError as exc:
                    wg = inst.weighted_graph()
                    return False, f"{exc} on {_tag(wg)}", "valid POC with exact count"
                if mocs.total_size - s.vertex_count + s.q != gv:
                    tag = f"MOCs {mocs.cliques} of {_tag(inst.weighted_graph())}"
                    return False, f"{tag} misses g={gv}", "every MOCs gives g"
                count += 1
    return True, f"{count} MOCs colorings valid with exact color count", "Proposition 1"


def check_theorem2(ctx: _Context) -> tuple[bool, str, str]:
    """Palette ratio (chi_poc_t - 1) <= t (chi - 1) across all suite families,
    plus sharpness when every part carries all t weights."""
    nmax = 5 if ctx.full else 4
    for n in range(1, nmax + 1):
        for g in oracles.enumerate_graphs(n):
            chi = oracles.chromatic_number(g)
            for t in (1, 2, 3):
                value = oracles.chi_poc_t(g, t, ctx.caps)
                if value - 1 > t * (chi - 1):
                    return (
                        False,
                        f"chi_poc_t={value} chi={chi} t={t} on {_graph_tag(g)}",
                        "chi_poc_t - 1 <= t (chi - 1)",
                    )
                if g.m == 0 and value != 1:
                    return False, f"edgeless chi_poc_t={value}", "edgeless graphs use 1 color"
    for m in range(1, 4):
        for n in range(m, 4):
            t = 2 * m + 1
            value = mp.bipartite_chi_poc_t(m, n, t)
            if value - 1 > t:  # chi = 2
                return False, f"K({m},{n}) ratio breached", "ratio bound"
    caps = dataclasses.replace(ctx.caps, chi_poc_n=max(ctx.caps.chi_poc_n, 9))
    for k in (2, 3):
        for t in (2, 3):
            sizes = (t,) * k
            weights = tuple(range(1, t + 1)) * k
            inst = mp.MultipartiteInstance(sizes, weights)
            bound = (k - 1) * t + 1
            chi_poc, _ = oracles.chi_poc_exact(inst.weighted_graph(), caps)
            h = mp.h_value(sizes, t, caps)
            if chi_poc != bound or h != bound:
                return (
                    False,
                    f"k={k} t={t}: chi_poc={chi_poc} h={h} bound={bound}",
                    "sharp instances reach (k-1)t+1",
                )
            for mocs in mp.enumerate_mocs(inst, caps):
                s = mp.find_max_spaths(inst, mocs)
                if s.vertex_count != 2 * t - 2:
                    return (
                        False,
                        f"k={k} t={t}: V(S)={s.vertex_count}",
                        "V(S) == 2t-2 on sharp instances",
                    )
    return True, "ratio bound holds; sharp family attains (k-1)t+1 with V(S)=2t-2", "Theorem 2"


def check_theorem2_constructive(ctx: _Context) -> tuple[bool, str, str]:
    """Completing to a multipartite graph and pulling the MOCs coloring back
    yields a valid POC of the original graph within (chi-1)t + 1 colors."""
    nmax = 5 if ctx.full else 4
    count = 0
    for n in range(2, nmax + 1):
        weightings = list(oracles.weak_orderings(n))
        for g in oracles.enumerate_graphs(n):
            if g.m == 0:
                continue
            chi = oracles.chromatic_number(g)
            for weights in weightings:
                wg = WeightedGraph(g, weights)
                coloring = mp.completion_coloring(wg, ctx.caps)
                t = len(set(wg.weights))
                if not poc_engine.is_valid_poc(wg, coloring):
                    return False, f"invalid completion coloring on {_tag(wg)}", "valid POC"
                if coloring.palette > (chi - 1) * t + 1:
                    return (
                        False,
                        f"palette={coloring.palette} > ({chi}-1)*{t}+1 on {_tag(wg)}",
                        "palette <= (chi-1)t+1",
                    )
                count += 1
    return True, f"completion POC within bound on {count} instances", "constructive Theorem 2"


def check_algorithm_bounds(ctx: _Context) -> tuple[bool, str, str]:
    """Greedy and orientation-greedy colorings on seeded random instances:
    validity, palette bounds, and the coloring -> orientation direction."""
    rounds = 1000 if ctx.full else 200
    rng = random.Random(3408)
    for _ in range(rounds):
        n = rng.randint(1, 10)
        wg = random_weighted_graph(rng, n, rng.uniform(0.1, 0.9), rng.randint(1, n))
        greedy = poc_engine.greedy_poc(wg)
        if not poc_engine.is_valid_poc(wg, greedy):
            return False, f"greedy invalid on {_tag(wg)}", "greedy is a POC"
        lp = oracles.longest_path_exact(wg.graph, ctx.caps)
        if greedy.palette > lp:
            return (
                False,
                f"greedy palette={greedy.palette} > longest_path={lp} on {_tag(wg)}",
                "palette <= longest path",
            )
        d = poc_engine.build_good_orientation(wg)
        if not poc_engine.is_good_acyclic(wg, d):
            return False, f"built orientation not good acyclic on {_tag(wg)}", "good acyclic"
        oriented = poc_engine.greedy_poc_from_orientation(wg, d)
        bound = poc_engine.dag_longest_path(d)
        if not poc_engine.is_valid_poc(wg, oriented) or oriented.palette > bound:
            return (
                False,
                f"oriented greedy palette={oriented.palette} dipath={bound} on {_tag(wg)}",
                "valid POC with palette <= longest dipath",
            )
        back = poc_engine.orientation_from_coloring(wg, greedy)
        if poc_engine.dag_longest_path(back) > greedy.palette:
            return (
                False,
                f"dipath {poc_engine.dag_longest_path(back)} > palette {greedy.palette} on {_tag(wg)}",
                "dipath <= palette",
            )
        normed = normalize_weights(wg)
        if poc_engine.is_valid_poc(normed, greedy) != poc_engine.is_valid_poc(wg, greedy):
            return False, f"validity changed by normalization on {_tag(wg)}", "invariant"
    return True, f"all bounds hold on {rounds} random instances (n <= 10)", "algorithm bounds"


def check_hamiltonian_corollary(ctx: _Context) -> tuple[bool, str, str]:
    """f(G) = n exactly when a direct search finds a Hamiltonian path."""
    nmax = 6 if ctx.full else 5
    count = 0
    for n in range(1, nmax + 1):
        for g in oracles.enumerate_graphs(n):
            f = ctx.f(g)
            ham = oracles.has_hamiltonian_path(g)
            if (f == n) != ham:
                return (
                    False,
                    f"f={f} n={n} hamiltonian={ham} on {_graph_tag(g)}",
                    "f == n iff Hamiltonian path",
                )
            count += 1
    return True, f"corollary holds on {count} graphs (n <= {nmax})", "Hamiltonian corollary"


# ---------------------------------------------------------------------------
# Module-invariant checks
# ---------------------------------------------------------------------------


def check_roundtrip(ctx: _Context) -> tuple[bool, str, str]:
    rng = random.Random(3411)
    rounds = 300 if ctx.full else 100
    for _ in range(rounds):
        n = rng.randint(1, 9)
        wg = random_weighted_graph(rng, n, rng.uniform(0.0, 1.0), rng.randint(1, 9))
        if parse_wpoc(serialize_wpoc(wg)) != wg:
            return False, f"wpoc roundtrip changed {_tag(wg)}", "identity"
        coloring = poc_engine.greedy_poc(wg)
        if parse_coloring(serialize_coloring(coloring), n) != coloring:
            return False, f"coloring roundtrip changed on {_tag(wg)}", "identity"
        d = poc_engine.build_good_orientation(wg)
        if parse_orientation(serialize_orientation(d), wg.graph) != d:
            return False, f"orientation roundtrip changed on {_tag(wg)}", "identity"
    return True, f"parse(serialize(x)) == x on {rounds} random instances", "round trip"


def check_normalize(ctx: _Context) -> tuple[bool, str, str]:
    rng = random.Random(3412)
    rounds = 300 if ctx.full else 100
    for _ in range(rounds):
        n = rng.randint(1, 9)
        wg = random_weighted_graph(rng, n, 0.5, rng.randint(1, 50))
        once = normalize_weights(wg)
        if normalize_weights(once) != once:
            return False, f"not idempotent on {_tag(wg)}", "idempotent"
        if set(once.weights) != set(range(1, len(set(wg.weights)) + 1)):
            return False, f"ranks not contiguous on {_tag(wg)}", "ranks 1..s"
        for u, v in itertools.combinations(range(1, n + 1), 2):
            before = (wg.weight(u) > wg.weight(v)) - (wg.weight(u) < wg.weight(v))
            after = (once.weight(u) > once.weight(v)) - (once.weight(u) < once.weight(v))
            if before != after:
                return False, f"order of ({u},{v}) changed on {_tag(wg)}", "order preserved"
    return True, f"idempotent and order-preserving on {rounds} instances", "normalize"


def check_complement(ctx: _Context) -> tuple[bool, str, str]:
    nmax = 5
    for n in range(1, nmax + 1):
        for g in oracles.enumerate_graphs(n):
            cc = complement(complement(g))
            if cc != g:
                return False, f"involution failed on {_graph_tag(g)}", "involution"
            if g.m + complement(g).m != n * (n - 1) // 2:
                return False, f"edge counts off on {_graph_tag(g)}", "m + m' = n(n-1)/2"
    return True, f"involution and edge-count identity on all graphs n <= {nmax}", "complement"


def check_greedy_exhaustive(ctx: _Context) -> tuple[bool, str, str]:
    """Greedy POC validity and the longest-path palette bound on every
    weighting of every small graph."""
    nmax = 6 if ctx.full else 5
    count = 0
    for n in range(1, nmax + 1):
        weightings = list(oracles.weak_orderings(n))
        for g in oracles.enumerate_graphs(n):
            lp = oracles.longest_path_exact(g, ctx.caps)
            for weights in weightings:
                wg = WeightedGraph(g, weights)
                coloring = poc_engine.greedy_poc(wg)
                if not poc_engine.is_valid_poc(wg, coloring):
                    return False, f"greedy invalid on {_tag(wg)}", "greedy is a POC"
                if coloring.palette > lp:
                    return (
                        False,
                        f"palette={coloring.palette} > longest_path={lp} on {_tag(wg)}",
                        "palette <= longest path",
                    )
                count += 1
    return True, f"greedy valid and bounded on {count} weighted instances", "greedy exhaustive"


def check_oriented_greedy_all_orientations(ctx: _Context) -> tuple[bool, str, str]:
    """Oriented greedy stays within the longest-dipath bound for *every* good
    acyclic orientation of every small weighted graph."""
    nmax = 4 if ctx.full else 3
    count = 0
    for n in range(1, nmax + 1):
        weightings = list(oracles.weak_orderings(n))
        for g in oracles.enumerate_graphs(n):
            edges = g.sorted_edges()
            for weights in weightings:
                wg = WeightedGraph(g, weights)
                for bits in range(1 << len(edges)):
                    arcs = frozenset(
                        (u, v) if not bits >> i & 1 else (v, u)
                        for i, (u, v) in enumerate(edges)
                    )
                    d = Orientation(g, arcs)
                    if not poc_engine.is_good_acyclic(wg, d):
                        continue
                    coloring = poc_engine.greedy_poc_from_orientation(wg, d)
                    bound = poc_engine.dag_longest_path(d)
                    if not poc_engine.is_valid_poc(wg, coloring) or coloring.palette > bound:
                        return (
                            False,
                            f"palette={coloring.palette} dipath={bound} arcs={sorted(arcs)} on {_tag(wg)}",
                            "valid POC within dipath bound",
                        )
                    count += 1
    return True, f"bound holds for all {count} good acyclic orientations", "oriented greedy"


def check_chi_poc_t_monotone(ctx: _Context) -> tuple[bool, str, str]:
    nmax = 4
    for n in range(1, nmax + 1):
        for g in oracles.enumerate_graphs(n):
            values = [oracles.chi_poc_t(g, t, ctx.caps) for t in range(1, n + 2)]
            if values[0] != oracles.chromatic_number(g):
                return False, f"t=1 gives {values[0]} on {_graph_tag(g)}", "t=1 equals chi"
            if any(a > b for a, b in zip(values, values[1:])):
                return False, f"not monotone: {values} on {_graph_tag(g)}", "monotone in t"
    return True, f"monotone in t with chi at t=1 on all graphs n <= {nmax}", "monotonicity"


@dataclass(frozen=True)
class Check:
    """One row of the check table: ``criterion`` is the acceptance criterion
    the check gates (None if it gates none; the acceptance tests then run it
    at quick scale), ``budget_s`` the wall time the acceptance tests allow
    it."""

    name: str
    run: Callable[[_Context], tuple[bool, str, str]]
    criterion: int | None
    budget_s: float


CHECKS: tuple[Check, ...] = (
    Check("c4w-fixture", check_c4w_fixture, 1, 1.0),
    Check("k135-fixture", check_k135_fixture, 2, 1.0),
    Check("chem-fixture", check_chem_fixture, 9, 1.0),
    Check("theorem1-f-equals-longest-path", check_theorem1, 3, 600.0),
    Check("theorem3-chi-poc-equals-ell-prime", check_theorem3, 4, 300.0),
    Check("theorem4-bipartite-formula", check_theorem4, 5, 300.0),
    Check("proposition1-mocs-coloring", check_proposition1_exhaustive, 6, 600.0),
    Check("proposition2-h-matches-oracle", check_proposition2, 6, 600.0),
    Check("theorem2-ratio-and-sharpness", check_theorem2, 7, 120.0),
    Check("theorem2-constructive", check_theorem2_constructive, None, 120.0),
    Check("algorithm-bounds-random", check_algorithm_bounds, 8, 120.0),
    Check("hamiltonian-path-corollary", check_hamiltonian_corollary, 10, 600.0),
    Check("wpoc-roundtrip", check_roundtrip, None, 60.0),
    Check("normalize-weights", check_normalize, None, 60.0),
    Check("complement-involution", check_complement, None, 60.0),
    Check("greedy-poc-exhaustive", check_greedy_exhaustive, None, 300.0),
    Check("oriented-greedy-all-orientations", check_oriented_greedy_all_orientations, None, 120.0),
    Check("chi-poc-t-monotone", check_chi_poc_t_monotone, None, 60.0),
)


def run_selftest(
    scale: str = "quick",
    caps: OracleCaps = DEFAULT_CAPS,
    names: tuple[str, ...] | None = None,
) -> RunReport:
    if scale not in ("quick", "full"):
        raise ValueError(f"scale must be 'quick' or 'full', got {scale!r}")
    ctx = _Context(scale, caps)
    results = []
    for check in CHECKS:
        if names is not None and check.name not in names:
            continue
        start = time.perf_counter()
        try:
            passed, observed, expected = check.run(ctx)
        except Exception as exc:  # a crash is a failed check, not a crashed run
            passed, observed, expected = False, f"{type(exc).__name__}: {exc}", "no error"
        elapsed = (time.perf_counter() - start) * 1000.0
        results.append(CheckResult(check.name, passed, observed, expected, elapsed))
    return RunReport(scale=scale, checks=results)
