"""Identity digest of pocgraph's oracles over fixed instance families, for
comparing two source trees.

Usage: python tools/digest.py SOURCE_ROOT

SOURCE_ROOT is a checkout of this repository; its ``src/pocgraph`` is the
package run. Each section runs one oracle family and turns every result into
one line: the value and its witness, or ``refused`` with the cap and its
limit. A refusal's ``actual`` count is left out: it is how far the count had
got when it passed the cap, which depends on how the count is taken, not on
the instance. For each section the script prints its name, the number of
lines, the number of refusals and a sha256 over the lines; two trees whose
oracles agree in value, witness and refusal print the same sections.

- ``ellprime``: ``ell_prime_orientation``, the value and the sorted witness
  arcs. The instances are every weighting (up to order) of every graph with
  n <= 5, then ``GRAPHS`` G(n, p) instances seeded with ``SEED``, n <= 9,
  weights in 1..t, t <= 4, each run under the default caps and under a
  random ``ell_prime_orientations`` cap of 1-1000.
- ``sweeps``: ``f_argmax`` and ``chi_poc_t_argmax`` for t = 1..n+1, the value
  and the witness weighting, on every graph with n <= 6; then
  ``chi_poc_t_argmax`` for t = 1..3 on ``SWEEP_GRAPHS`` G(n, p) graphs for
  each n in ``SWEEP_N``, seeded with ``SEED``. All under the default caps.
- ``chipoc``: ``chi_poc_exact``, the value and the witness colors, on every
  weighting (up to order) of every graph with n <= 5, then ``GRAPHS`` G(n, p)
  instances seeded with ``SEED``, n <= ``CHIPOC_N``, weights in 1..t, t <= n.
  All under the default caps.
- ``h``: ``h_argmax``, the value and the witness weighting, on every ordered
  tuple of 2 or 3 part sizes in 1..4 with n <= 9, by n, at t = 1..3. All
  under the default caps.
- ``paths``: one line per graph with ``longest_path_witness``,
  ``has_hamiltonian_path`` and ``proper_coloring_exact`` (palette and
  colors), on every graph with n <= 6, then ``PATH_GRAPHS`` G(n, p) graphs
  seeded with ``SEED``, n <= ``PATH_N``. All under the default caps.
- ``mocs``: one line per weighting with ``g_value``, the canonical MOCs'
  ``find_max_spaths`` paths and their ``mocs_coloring`` colors, on every
  ``part_weightings`` row of every ordered tuple of 2 or 3 part sizes in 1..4
  with n <= 8, by n, at t = 1..3.

``tools/digest.expected`` holds this tree's output, so
``PYTHONPATH=src python tools/digest.py . | diff - tools/digest.expected``
checks a change against it.

Uses the standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import random
import sys
from pathlib import Path
from typing import Iterable, Iterator

SEED = 7
GRAPHS = 3000
SWEEP_GRAPHS = 40
SWEEP_N = (7, 8)
CHIPOC_N = 10
PATH_GRAPHS = 300
PATH_N = 12


def ellprime_lines() -> Iterator[str]:
    import pocgraph
    from pocgraph import oracles

    def run(g: pocgraph.WeightedGraph, caps: oracles.OracleCaps) -> str:
        try:
            value, witness = oracles.ell_prime_orientation(g, caps)
        except oracles.CapExceeded as exc:
            return f"refused {exc.cap}={exc.limit}"
        return f"{value} {sorted(witness.arcs)}"

    for n in range(1, 6):
        weightings = list(oracles.weak_orderings(n))
        for graph in oracles.enumerate_graphs(n):
            for weights in weightings:
                yield run(pocgraph.WeightedGraph(graph, weights), oracles.DEFAULT_CAPS)
    rng = random.Random(SEED)
    for _ in range(GRAPHS):
        n = rng.randint(1, 9)
        g = pocgraph.random_weighted_graph(rng, n, rng.random(), rng.randint(1, 4))
        yield run(g, oracles.DEFAULT_CAPS)
        yield run(g, oracles.OracleCaps(ell_prime_orientations=rng.randint(1, 1000)))


def sweeps_lines() -> Iterator[str]:
    """The ``sweeps`` section, lazily: the graphs with n <= 4 come first."""
    import pocgraph
    from pocgraph import oracles

    def run(g: pocgraph.Graph, t: int | None) -> str:
        try:
            if t is None:
                value, weights = oracles.f_argmax(g)
            else:
                value, weights = oracles.chi_poc_t_argmax(g, t)
        except oracles.CapExceeded as exc:
            return f"refused {exc.cap}={exc.limit}"
        return f"{value} {weights}"

    for n in range(1, 7):
        for g in oracles.enumerate_graphs(n):
            yield run(g, None)
            for t in range(1, n + 2):
                yield run(g, t)
    rng = random.Random(SEED)
    for n in SWEEP_N:
        for _ in range(SWEEP_GRAPHS):
            g = pocgraph.random_weighted_graph(rng, n, rng.random(), 1).graph
            for t in (1, 2, 3):
                yield run(g, t)


def chipoc_lines() -> Iterator[str]:
    """The ``chipoc`` section, lazily: the graphs with n <= 4 come first."""
    import pocgraph
    from pocgraph import oracles

    def run(g: pocgraph.WeightedGraph) -> str:  # n <= 10 is within chi_poc_n's default
        value, witness = oracles.chi_poc_exact(g)
        return f"{value} {witness.colors}"

    for n in range(1, 6):
        weightings = list(oracles.weak_orderings(n))
        for graph in oracles.enumerate_graphs(n):
            for weights in weightings:
                yield run(pocgraph.WeightedGraph(graph, weights))
    rng = random.Random(SEED)
    for _ in range(GRAPHS):
        n = rng.randint(1, CHIPOC_N)
        yield run(pocgraph.random_weighted_graph(rng, n, rng.random(), rng.randint(1, n)))


def h_lines() -> Iterator[str]:
    """The ``h`` section, lazily: the part tuples with n <= 4 come first."""
    from pocgraph import multipartite, oracles

    def run(parts: tuple[int, ...], t: int) -> str:
        try:
            value, weights = multipartite.h_argmax(parts, t)
        except oracles.CapExceeded as exc:
            return f"refused {exc.cap}={exc.limit}"
        return f"{value} {weights}"

    for n in range(2, 10):
        for k in (2, 3):
            for parts in itertools.product(range(1, 5), repeat=k):
                if sum(parts) == n:
                    for t in (1, 2, 3):
                        yield run(parts, t)


def paths_lines() -> Iterator[str]:
    """The ``paths`` section, lazily: the graphs with n <= 4 come first."""
    import pocgraph
    from pocgraph import oracles

    def run(g: pocgraph.Graph) -> str:  # n <= 12 is within longest_path_n's default
        coloring = oracles.proper_coloring_exact(g)
        path = oracles.longest_path_witness(g)
        return f"{path} {oracles.has_hamiltonian_path(g)} {coloring.palette} {coloring.colors}"

    for n in range(1, 7):
        for g in oracles.enumerate_graphs(n):
            yield run(g)
    rng = random.Random(SEED)
    for _ in range(PATH_GRAPHS):
        n = rng.randint(1, PATH_N)
        yield run(pocgraph.random_weighted_graph(rng, n, rng.random(), 1).graph)


def mocs_lines() -> Iterator[str]:
    """The ``mocs`` section, lazily: the part tuples with n <= 4 come first."""
    from pocgraph import multipartite as mp

    def run(inst: mp.MultipartiteInstance) -> str:
        mocs = mp.find_mocs(inst)
        s = mp.find_max_spaths(inst, mocs)
        return f"{mp.g_value(inst)} {s.paths} {mp.mocs_coloring(inst, mocs, s).colors}"

    for n in range(2, 9):
        for k in (2, 3):
            for parts in itertools.product(range(1, 5), repeat=k):
                if sum(parts) == n:
                    for t in (1, 2, 3):
                        for weights in mp.part_weightings(parts, t):
                            yield run(mp.MultipartiteInstance(parts, weights))


def summarize(lines: Iterable[str]) -> tuple[int, int, str]:
    """(lines, refusals, sha256) over one section's lines."""
    digest = hashlib.sha256()
    count = refusals = 0
    for line in lines:
        digest.update(line.encode() + b"\n")
        count += 1
        refusals += line.startswith("refused")
    return count, refusals, digest.hexdigest()


SECTIONS = {
    "ellprime": ellprime_lines,
    "sweeps": sweeps_lines,
    "chipoc": chipoc_lines,
    "h": h_lines,
    "paths": paths_lines,
    "mocs": mocs_lines,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("root", type=Path, help="source root holding src/pocgraph")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.root.resolve() / "src"))
    for name, lines in SECTIONS.items():
        count, refusals, sha = summarize(lines())
        print(f"section {name}")
        print(f"lines {count}")
        print(f"refusals {refusals}")
        print(f"sha256 {sha}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
