"""Reference computations that check the program's outputs.

Nothing here imports pocgraph. Every value is recomputed from plain
integers, tuples and sets, by methods that differ from the program's, so a
fault in the program cannot hide behind the same fault in its checker.

Conventions: vertices are 1..n, ``weights`` and ``colors`` are sequences
indexed by ``vertex - 1``, ``edges`` and ``arcs`` are iterables of pairs.
"""

from __future__ import annotations

import itertools


def neighbours(n: int, edges) -> list[set[int]]:
    adj: list[set[int]] = [set() for _ in range(n + 1)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def poc_problem(n: int, weights, edges, colors, palette: int) -> str | None:
    """Why ``colors`` is not a properly ordered colouring within ``palette``
    colours that uses all of them, or None when it is one."""
    if len(colors) != n:
        return f"{len(colors)} colours for {n} vertices"
    if n and (min(colors) < 1 or max(colors) != palette):
        return f"colours span {min(colors)}..{max(colors)}, palette is {palette}"
    for u, v in edges:
        wu, wv, cu, cv = weights[u - 1], weights[v - 1], colors[u - 1], colors[v - 1]
        if wu == wv and cu == cv:
            return f"equal weights and equal colours on edge {u}-{v}"
        if wu != wv and (wu > wv) != (cu > cv):
            return f"colour order breaks weight order on edge {u}-{v}"
    return None


def longest_dipath(n: int, arcs) -> int | None:
    """Vertices on a longest directed path (Kahn's order, then a DP over it),
    or None when the arcs close a directed cycle."""
    succ: list[list[int]] = [[] for _ in range(n + 1)]
    indeg = [0] * (n + 1)
    for t, h in arcs:
        succ[t].append(h)
        indeg[h] += 1
    ready = [v for v in range(1, n + 1) if indeg[v] == 0]
    depth = [1] * (n + 1)
    seen = 0
    while ready:
        v = ready.pop()
        seen += 1
        for h in succ[v]:
            if depth[v] + 1 > depth[h]:
                depth[h] = depth[v] + 1
            indeg[h] -= 1
            if indeg[h] == 0:
                ready.append(h)
    if seen != n:
        return None
    return max(depth[1:], default=0)


def orientation_problem(n: int, weights, edges, arcs) -> str | None:
    """Why ``arcs`` is not a good acyclic orientation of the weighted graph,
    or None when it is one."""
    wanted = {(min(u, v), max(u, v)) for u, v in edges}
    got = [(min(t, h), max(t, h)) for t, h in arcs]
    if len(got) != len(set(got)) or set(got) != wanted:
        return "arcs do not orient every edge exactly once"
    for t, h in arcs:
        if weights[t - 1] < weights[h - 1]:
            return f"arc {t}->{h} runs from the lighter to the heavier end"
    if longest_dipath(n, arcs) is None:
        return "arcs close a directed cycle"
    return None


def _colourable(n: int, adj, allowed) -> bool:
    """Backtracking in vertex order 1..n; ``allowed(v, c, colors)`` decides
    whether vertex v may take colour c given the colours of 1..v-1."""
    colors = [0] * (n + 1)

    def place(v: int) -> bool:
        if v > n:
            return True
        for c in allowed(v, colors):
            colors[v] = c
            if place(v + 1):
                return True
        colors[v] = 0
        return False

    return place(1)


def chromatic_number(n: int, edges) -> int:
    """Smallest k admitting a proper k-colouring."""
    if n == 0:
        return 0
    adj = neighbours(n, edges)
    for k in range(1, n + 1):
        def allowed(v, colors, k=k):
            used = {colors[u] for u in adj[v] if u < v}
            return [c for c in range(1, k + 1) if c not in used]

        if _colourable(n, adj, allowed):
            return k
    raise AssertionError("n colours always suffice")


def chi_poc(n: int, weights, edges) -> int:
    """Smallest palette admitting a properly ordered colouring, by
    exhaustive search over colourings in vertex order."""
    adj = neighbours(n, edges)
    for theta in range(1, n + 1):
        def allowed(v, colors, theta=theta):
            out = []
            for c in range(1, theta + 1):
                for u in adj[v]:
                    if u > v:
                        continue
                    wu, wv, cu = weights[u - 1], weights[v - 1], colors[u]
                    if (wu == wv and cu == c) or (wu > wv and cu <= c) or (wu < wv and cu >= c):
                        break
                else:
                    out.append(c)
            return out

        if _colourable(n, adj, allowed):
            return theta
    raise AssertionError("ranking vertices by weight always gives a POC")


def longest_path(n: int, edges) -> int:
    """Vertices on a longest simple path, by depth-first search from every vertex."""
    adj = neighbours(n, edges)
    best = min(n, 1)

    def walk(v: int, seen: set[int]) -> None:
        nonlocal best
        best = max(best, len(seen))
        for u in adj[v]:
            if u not in seen:
                seen.add(u)
                walk(u, seen)
                seen.remove(u)

    for v in range(1, n + 1):
        walk(v, {v})
    return best


def has_hamiltonian_path(n: int, edges) -> bool:
    """Some ordering of all n vertices has every consecutive pair adjacent."""
    adj = neighbours(n, edges)
    return any(
        all(b in adj[a] for a, b in zip(perm, perm[1:]))
        for perm in itertools.permutations(range(1, n + 1))
    )


def weight_order_chain(n: int, weights, edges) -> int:
    """Vertices on a longest path whose vertices increase in the order
    (weight, id): the palette the weight-ordered greedy must use."""
    rank = {v: (weights[v - 1], v) for v in range(1, n + 1)}
    adj = neighbours(n, edges)
    chain = {}
    for v in sorted(range(1, n + 1), key=rank.__getitem__):
        chain[v] = 1 + max((chain[u] for u in adj[v] if rank[u] < rank[v]), default=0)
    return max(chain.values(), default=0)


def parse_wpoc(text: str) -> tuple[int, tuple[int, ...], frozenset[tuple[int, int]]]:
    """(n, weights, normalised edge set) of a WPOC text, without validation
    beyond what the comparison with the expected graph needs."""
    n, weights, edges = -1, {}, set()
    for line in text.splitlines():
        parts = line.split("#", 1)[0].split()
        if not parts:
            continue
        if parts[0] == "p":
            n = int(parts[2])
        elif parts[0] == "v":
            weights[int(parts[1])] = int(parts[2])
        elif parts[0] == "e":
            u, v = int(parts[1]), int(parts[2])
            edges.add((min(u, v), max(u, v)))
    return n, tuple(weights.get(v, 0) for v in range(1, n + 1)), frozenset(edges)


def graph_counts(max_n: int) -> list[int]:
    """Graphs on 1..max_n vertices up to isomorphism (OEIS A000088)."""
    return [1, 1, 2, 4, 11, 34, 156, 1044][1 : max_n + 1]


def multipartite_edges(parts) -> list[tuple[int, int]]:
    """Edges of the complete multipartite graph, vertices numbered part by part."""
    owner = [i for i, size in enumerate(parts) for _ in range(size)]
    return [
        (u, v)
        for u, v in itertools.combinations(range(1, len(owner) + 1), 2)
        if owner[u - 1] != owner[v - 1]
    ]
