"""Digest of ell' over a fixed instance family, for comparing two source trees.

Usage: python tools/ell_prime_digest.py SOURCE_ROOT

SOURCE_ROOT is a checkout of this repository; its ``src/pocgraph`` is the
package run. The instances are every weighting (up to order) of every graph
with n <= 5, then ``GRAPHS`` G(n, p) instances seeded with ``SEED``, n <= 9,
weights in 1..t, t <= 4, each run under the default caps and under a random
``ell_prime_orientations`` cap of 1-1000. Each run gives one line: the
value and the sorted witness arcs, or ``refused`` with the cap and its
limit. A refusal's ``actual`` count is left out: it is how far the count
had got when it passed the cap, which depends on how the count is taken,
not on the instance. The script prints the number of lines, the number of
refusals and a sha256 over the lines; two trees whose ell' agrees in value,
witness and refusal print the same three lines.

Uses the standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import random
import sys
from pathlib import Path

SEED = 7
GRAPHS = 3000


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("root", type=Path, help="source root holding src/pocgraph")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.root.resolve() / "src"))
    import pocgraph
    from pocgraph import oracles

    digest = hashlib.sha256()
    lines = refusals = 0

    def record(g: pocgraph.WeightedGraph, caps: oracles.OracleCaps) -> None:
        nonlocal lines, refusals
        try:
            value, witness = oracles.ell_prime_orientation(g, caps)
            line = f"{value} {sorted(witness.arcs)}"
        except oracles.CapExceeded as exc:
            line = f"refused {exc.cap}={exc.limit}"
            refusals += 1
        digest.update(line.encode() + b"\n")
        lines += 1

    for n in range(1, 6):
        weightings = list(oracles.weak_orderings(n))
        for graph in oracles.enumerate_graphs(n):
            for weights in weightings:
                record(pocgraph.WeightedGraph(graph, weights), oracles.DEFAULT_CAPS)
    rng = random.Random(SEED)
    for _ in range(GRAPHS):
        n = rng.randint(1, 9)
        g = pocgraph.random_weighted_graph(rng, n, rng.random(), rng.randint(1, 4))
        record(g, oracles.DEFAULT_CAPS)
        record(g, oracles.OracleCaps(ell_prime_orientations=rng.randint(1, 1000)))
    print(f"lines {lines}")
    print(f"refusals {refusals}")
    print(f"sha256 {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
