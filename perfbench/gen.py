"""Seeded workload inputs, made by the benchmark's own code.

The program only ever sees the WPOC texts built here, so a change to the
program's own generators cannot change a workload. Everything is a pure
function of (workload, seed, blocks, size): the same arguments give the same
inputs.
"""

from __future__ import annotations

import itertools
import math
import random

import refcheck

# agreement: each block holds one instance per equal-weight edge count k in
# the band. ell' enumerates a product of per-class orientation counts that
# grows as 2^k, so spreading k evenly lets both the per-call cost and the
# product carry weight. The vertex count cycles over the n that can hold k
# equal-weight edges, which keeps the work steady from seed to seed.
AGREEMENT = {
    "full": {"band": range(0, 14), "n": range(5, 10)},
    "tiny": {"band": range(0, 8), "n": range(5, 8)},
}

# sweeps: every graph on n <= small_n vertices, plus one graph drawn from each
# of ``blocks`` strata of the sample_n graphs ordered by edge count.
SWEEPS = {
    "full": {"small_n": 5, "sample_n": 6, "mp_vertices": 8},
    "tiny": {"small_n": 3, "sample_n": 4, "mp_vertices": 4},
}

# large: each block runs this (n, t) schedule on fresh graphs; t = None
# means distinct weights (t = n), the usual case for real-valued weights.
LARGE = {
    "full": {
        "degree": 10.0,
        "schedule": [
            (1000, None), (1000, 2), (1500, 16), (1500, 400), (2000, 2),
            (2000, 64), (2500, 8), (2500, 250), (3000, 3), (3000, 30),
        ],
    },
    "tiny": {"degree": 6.0, "schedule": [(60, None), (80, 2), (100, 7)]},
}

MULTIPARTITE_T = (1, 2, 3)


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def wpoc_text(n: int, weights, edges) -> str:
    lines = [f"p wpoc {n} {len(edges)}"]
    lines += [f"v {v} {w}" for v, w in enumerate(weights, start=1)]
    lines += [f"e {u} {v}" for u, v in edges]
    return "\n".join(lines) + "\n"


def agreement_instance(rng: random.Random, n: int, intra: int) -> dict:
    """A weighted graph on n vertices with 1-4 weight values and exactly
    ``intra`` equal-weight edges; edges between weights appear with a
    density drawn per instance."""
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    while True:
        t = rng.randint(1, 4)
        weights = [rng.randint(1, t) for _ in range(n)]
        equal = [(u, v) for u, v in pairs if weights[u - 1] == weights[v - 1]]
        if len(equal) >= intra:
            break
    density = rng.uniform(0.2, 0.8)
    edges = rng.sample(equal, intra)
    edges += [(u, v) for u, v in pairs if weights[u - 1] != weights[v - 1] and rng.random() < density]
    edges.sort()
    return {"n": n, "weights": weights, "edges": edges}


def agreement_inputs(seed: int, blocks: int, size: str = "full") -> list[dict]:
    spec = AGREEMENT[size]
    rng = rng_for("agreement", seed)
    out = []
    for block in range(blocks):
        for intra in spec["band"]:
            ns = [n for n in spec["n"] if n * (n - 1) // 2 >= intra]
            out.append(agreement_instance(rng, ns[block % len(ns)], intra))
    for inst in out:
        inst["text"] = wpoc_text(inst["n"], inst["weights"], inst["edges"])
    return out


def gnp_edges(rng: random.Random, n: int, p: float) -> list[tuple[int, int]]:
    """G(n, p) edges by geometric skipping over the pairs (Batagelj and
    Brandes 2005), linear in n + m."""
    edges = []
    log_q = math.log(1.0 - p)
    v, w = 1, -1
    while v < n:
        w += 1 + int(math.log(1.0 - rng.random()) / log_q)
        while w >= v and v < n:
            w -= v
            v += 1
        if v < n:
            edges.append((w + 1, v + 1))
    return edges


def large_inputs(seed: int, blocks: int, size: str = "full") -> list[str]:
    """WPOC texts only: the checks re-read them with refcheck's own parser,
    so the benchmark's copy of the inputs stays small beside the program's
    peak RSS."""
    spec = LARGE[size]
    rng = rng_for("large", seed)
    out = []
    for n, t in spec["schedule"] * blocks:
        t = n if t is None else t
        edges = gnp_edges(rng, n, spec["degree"] / (n - 1))
        # t distinct values spread over a wide range, every value used
        values = sorted(rng.sample(range(1, 10**9), t))
        weights = [values[i % t] for i in range(n)]
        rng.shuffle(weights)
        out.append(wpoc_text(n, weights, edges))
    return out


def multipartite_cases(max_vertices: int) -> list[dict]:
    """Fixed (parts, t) cases: every 2- and 3-part graph with part sizes in
    1..3 and at most ``max_vertices`` vertices, for t = 1, 2, 3."""
    cases = []
    for k in (2, 3):
        for parts in itertools.combinations_with_replacement((1, 2, 3), k):
            n = sum(parts)
            if n > max_vertices:
                continue
            text = wpoc_text(n, [1] * n, refcheck.multipartite_edges(parts))
            for t in MULTIPARTITE_T:
                cases.append({"parts": list(parts), "t": t, "text": text})
    return cases


def sweeps_selection(seed: int, graphs_by_n: dict[int, list], blocks: int, size: str = "full") -> list:
    """The run's graphs, as (graph, edges) pairs: all with n <= small_n, then
    one drawn from each of ``blocks`` consecutive runs of the sample_n graphs
    ordered by edge count (stratifying keeps the cost steady from seed to
    seed)."""
    spec = SWEEPS[size]
    rng = rng_for("sweeps", seed)
    chosen = [g for n in range(1, spec["small_n"] + 1) for g in graphs_by_n[n]]
    pool = sorted(graphs_by_n[spec["sample_n"]], key=lambda g: len(g[1]))
    strata = min(blocks, len(pool))
    for i in range(strata):
        lo, hi = i * len(pool) // strata, (i + 1) * len(pool) // strata
        chosen.append(pool[rng.randrange(lo, hi)])
    return chosen
