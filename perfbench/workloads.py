"""The three workloads: their inputs, one operation each, and the checks of
every operation's output against refcheck.

A workload is built from (seed, blocks, size). ``inputs()`` is what set-up
loads through the program; ``bind()`` receives the loaded objects; ``run(i)``
is operation i, the only code the benchmark times; ``check(i, out)`` returns
None or the reason the output is wrong.
"""

from __future__ import annotations

import gen
import refcheck


class Agreement:
    """Theorem 3: chi_POC(G, w) by backtracking equals ell'(G, w) by
    orientation enumeration, on small weighted graphs."""

    name = "agreement"
    brute_force_n = 6

    def __init__(self, seed: int, blocks: int, size: str) -> None:
        self.instances = gen.agreement_inputs(seed, blocks, size)

    def inputs(self) -> dict:
        return {"texts": [inst["text"] for inst in self.instances]}

    def bind(self, pg, loaded: dict) -> None:
        self.pg = pg
        self.graphs = loaded["graphs"]

    def __len__(self) -> int:
        return len(self.instances)

    def run(self, i: int):
        oracles, poc_engine = self.pg.oracles, self.pg.poc_engine
        g = self.graphs[i]
        value, coloring = oracles.chi_poc_exact(g)
        ell, orientation = oracles.ell_prime_orientation(g)
        chi = oracles.chromatic_number(g.graph)
        valid = poc_engine.is_valid_poc(g, coloring)
        return value, coloring.colors, coloring.palette, ell, orientation.arcs, chi, valid

    def check(self, i: int, out) -> str | None:
        value, colors, palette, ell, arcs, chi, valid = out
        inst = self.instances[i]
        n, w, e = inst["n"], inst["weights"], inst["edges"]
        if value != ell:
            return f"chi_poc_exact {value} != ell_prime_orientation {ell}"
        if palette != value:
            return f"witness palette {palette} != chi_poc {value}"
        problem = refcheck.poc_problem(n, w, e, colors, value)
        if problem:
            return f"witness colouring: {problem}"
        if not valid:
            return "is_valid_poc rejects a valid witness"
        problem = refcheck.orientation_problem(n, w, e, arcs)
        if problem:
            return f"witness orientation: {problem}"
        if refcheck.longest_dipath(n, arcs) != ell:
            return f"witness orientation's longest dipath != ell' {ell}"
        true_chi = refcheck.chromatic_number(n, e)
        if chi != true_chi:
            return f"chromatic_number {chi} != {true_chi}"
        if not chi <= value <= n:
            return f"chi {chi} <= chi_poc {value} <= n {n} fails"
        if n <= self.brute_force_n:
            brute = refcheck.chi_poc(n, w, e)
            if brute != value:
                return f"brute-force chi_POC {brute} != {value}"
        return None


class Sweeps:
    """Theorem 1 and the chi_POC(G; t) sweeps on graphs up to isomorphism,
    plus h against chi_POC(G; t) on complete multipartite graphs."""

    name = "sweeps"
    ts = (1, 2, 3)

    def __init__(self, seed: int, blocks: int, size: str) -> None:
        self.seed, self.blocks, self.size = seed, blocks, size
        spec = gen.SWEEPS[size]
        self.max_n = spec["sample_n"]
        self.cases = gen.multipartite_cases(spec["mp_vertices"])

    def inputs(self) -> dict:
        return {"texts": [case["text"] for case in self.cases], "enumerate_max_n": self.max_n}

    def bind(self, pg, loaded: dict) -> None:
        self.pg = pg
        self.counts = [len(loaded["graphs_by_n"][n]) for n in range(1, self.max_n + 1)]
        by_n = {
            n: [(g, sorted(g.edges)) for g in graphs]
            for n, graphs in loaded["graphs_by_n"].items()
        }
        picked = gen.sweeps_selection(self.seed, by_n, self.blocks, self.size)
        self.ops = [("graph", g, edges) for g, edges in picked]
        self.ops += [("mp", g.graph, case) for g, case in zip(loaded["graphs"], self.cases)]

    def setup_problem(self) -> str | None:
        expected = refcheck.graph_counts(self.max_n)
        if self.counts != expected:
            return f"enumerate_graphs class counts {self.counts} != {expected}"
        return None

    def __len__(self) -> int:
        return len(self.ops)

    def run(self, i: int):
        oracles = self.pg.oracles
        kind, g, extra = self.ops[i]
        if kind == "graph":
            f = oracles.f_argmax(g)
            per_t = [oracles.chi_poc_t_argmax(g, t) for t in self.ts]
            return f, per_t, oracles.longest_path_exact(g), oracles.has_hamiltonian_path(g)
        parts, t = tuple(extra["parts"]), extra["t"]
        return self.pg.multipartite.h_argmax(parts, t), oracles.chi_poc_t_argmax(g, t)

    @staticmethod
    def _attains(n, edges, weights, value, max_values) -> str | None:
        if len(weights) != n or len(set(weights)) > max_values or min(weights) < 1:
            return f"argmax weighting {weights} is not a weighting with <= {max_values} values"
        attained = refcheck.chi_poc(n, weights, edges)
        if attained != value:
            return f"argmax weighting {weights} gives chi_POC {attained}, not {value}"
        return None

    def check(self, i: int, out) -> str | None:
        kind, g, extra = self.ops[i]
        if kind == "graph":
            return self._check_graph(g.n, extra, out)
        return self._check_multipartite(extra, out)

    def _check_graph(self, n, edges, out) -> str | None:
        (f, fw), per_t, lp, ham = out
        ell = refcheck.longest_path(n, edges)
        true_ham = refcheck.has_hamiltonian_path(n, edges)
        chi = refcheck.chromatic_number(n, edges)
        if f != ell:
            return f"f {f} != longest path {ell} (Theorem 1)"
        if lp != ell:
            return f"longest_path_exact {lp} != {ell}"
        if ham != true_ham or (f == n) != true_ham:
            return f"Hamiltonian path {true_ham}, has_hamiltonian_path {ham}, f {f}, n {n}"
        values = [v for v, _ in per_t]
        if values[0] != chi:
            return f"chi_poc_t(t=1) {values[0]} != chromatic number {chi}"
        if values != sorted(values) or values[-1] > f:
            return f"chi_poc_t over t={self.ts} is {values}, not monotone up to f {f}"
        for t, v in zip(self.ts, values):
            if v - 1 > t * (chi - 1):
                return f"chi_poc_t(t={t}) {v}: v - 1 > t (chi - 1) with chi {chi}"
        problem = self._attains(n, edges, fw, f, n)
        for t, (v, w) in zip(self.ts, per_t):
            problem = problem or self._attains(n, edges, w, v, t)
        return problem

    def _check_multipartite(self, case, out) -> str | None:
        (h, hw), (c, cw) = out
        parts, t = case["parts"], case["t"]
        n, k = sum(parts), len(parts)
        edges = refcheck.multipartite_edges(parts)
        bound = (k - 1) * t + 1
        if h != c:
            return f"parts {parts} t {t}: h {h} != chi_poc_t {c}"
        if h > bound:
            return f"parts {parts} t {t}: h {h} > (k-1)t+1 = {bound}"
        if min(parts) >= t and h != bound:
            return f"parts {parts} t {t}: every part holds all t weights, yet h {h} != {bound}"
        return self._attains(n, edges, hw, h, t) or self._attains(n, edges, cw, c, t)


class Large:
    """The linear-time constructions on G(n, p) with n = 1000-3000, from
    parsing to serialising."""

    name = "large"

    def __init__(self, seed: int, blocks: int, size: str) -> None:
        self.texts = gen.large_inputs(seed, blocks, size)

    def inputs(self) -> dict:
        return {"texts": self.texts, "retain": False}

    def bind(self, pg, loaded: dict) -> None:
        self.pg = pg

    def __len__(self) -> int:
        return len(self.texts)

    def run(self, i: int):
        graph_core, poc_engine = self.pg.graph_core, self.pg.poc_engine
        g = graph_core.parse_wpoc(self.texts[i])
        greedy = poc_engine.greedy_poc(g)
        valid = poc_engine.is_valid_poc(g, greedy)
        d = poc_engine.build_good_orientation(g)
        oriented = poc_engine.greedy_poc_from_orientation(g, d)
        longest = poc_engine.dag_longest_path(d)
        return greedy, valid, d.arcs, oriented, longest, graph_core.serialize_wpoc(g)

    def check(self, i: int, out) -> str | None:
        greedy, valid, arcs, oriented, longest, text = out
        expected = refcheck.parse_wpoc(self.texts[i])
        n, w, e = expected
        for label, c in (("greedy_poc", greedy), ("greedy_poc_from_orientation", oriented)):
            problem = refcheck.poc_problem(n, w, e, c.colors, c.palette)
            if problem:
                return f"{label}: {problem}"
        if not valid:
            return "is_valid_poc rejects the greedy colouring"
        chain = refcheck.weight_order_chain(n, w, e)
        if greedy.palette != chain:
            return f"greedy_poc palette {greedy.palette} != weight-order chain {chain}"
        problem = refcheck.orientation_problem(n, w, e, arcs)
        if problem:
            return f"build_good_orientation: {problem}"
        dipath = refcheck.longest_dipath(n, arcs)
        if longest != dipath:
            return f"dag_longest_path {longest} != {dipath}"
        if oriented.palette != dipath:
            return f"greedy_poc_from_orientation palette {oriented.palette} != longest dipath {dipath}"
        if refcheck.parse_wpoc(text) != expected:
            return "serialize_wpoc does not give back the parsed graph"
        return None


WORKLOADS = {cls.name: cls for cls in (Agreement, Sweeps, Large)}
