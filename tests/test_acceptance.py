"""Acceptance gate: one test per criterion of a table, each printing a
pass/fail line.

Every criterion is exact (no tolerances); the stated per-criterion time
budgets are asserted as well. POC_ACCEPTANCE_SCALE=quick shrinks the
exhaustive families for fast local runs (the default is the full desk-scale
suite).
"""

from __future__ import annotations

import os
import time

import pytest

from pocgraph.oracles import DEFAULT_CAPS
from pocgraph.selftest import _Context, CHECKS

SCALE = os.environ.get("POC_ACCEPTANCE_SCALE", "full")

_CHECKS = dict(CHECKS)


@pytest.fixture(scope="module")
def ctx() -> _Context:
    # shared across criteria so the f values from criterion 3 feed criterion 10
    return _Context(scale=SCALE, caps=DEFAULT_CAPS, jobs=1, f_cache={})


def _run_criterion(capsys, ctx, number: int, check_name: str, budget_s: float):
    start = time.perf_counter()
    passed, observed, expected = _CHECKS[check_name](ctx)
    elapsed = time.perf_counter() - start
    status = "PASS" if passed else "FAIL"
    with capsys.disabled():
        print(
            f"\nACCEPTANCE criterion-{number:02d} [{check_name}] {status} "
            f"({elapsed:.2f}s, scale={ctx.scale}): {observed}"
        )
    assert passed, f"criterion {number}: observed {observed}; expected {expected}"
    assert elapsed < budget_s, f"criterion {number} took {elapsed:.1f}s (budget {budget_s}s)"


# (criterion, test name suffix, selftest checks, budget in seconds per check)
CRITERIA: tuple[tuple[int, str, tuple[str, ...], float], ...] = (
    # chi_poc(C4W) = 3 with (1,2,2,3) the unique 3-color POC and none with 2.
    (1, "c4w_fixture", ("c4w-fixture",), 1.0),
    # MOCs total 8, paths 5 vertices in 2 components, g = 5 = 8-5+2, and the
    # 5-color construction with the leftover vertex colored 3.
    (2, "k135_fixture", ("k135-fixture",), 1.0),
    # f equals the longest-path order on every small graph up to isomorphism.
    (3, "theorem1", ("theorem1-f-equals-longest-path",), 600.0),
    # Backtracking chi_poc equals orientation-enumeration ell-prime,
    # exhaustively and on seeded random instances.
    (4, "theorem3", ("theorem3-chi-poc-equals-ell-prime",), 300.0),
    # Bipartite worst case equals min(m+n, 2m+1) and the layered construction
    # stays within 2m+1 colors.
    (5, "theorem4", ("theorem4-bipartite-formula",), 300.0),
    # h equals the brute-force worst case on the whole small multipartite
    # family (with the per-MOCs coloring construction also exercised).
    (6, "proposition2", ("proposition1-mocs-coloring", "proposition2-h-matches-oracle"), 600.0),
    # Palette ratio bound across all suite families; equality and V(S)=2t-2
    # on the all-weights-per-part instances.
    (7, "theorem2_and_sharpness", ("theorem2-ratio-and-sharpness",), 120.0),
    # Greedy and orientation colorings valid and within their path bounds on
    # seeded random instances.
    (8, "algorithm_bounds", ("algorithm-bounds-random",), 120.0),
    # Reference coloring verifies; the exact optimum is 4 by both oracles and
    # 3 colors admit no POC.
    (9, "chem_fixture", ("chem-fixture",), 1.0),
    # f reaches n exactly on graphs with a Hamiltonian path (direct search).
    (10, "hamiltonian_corollary", ("hamiltonian-path-corollary",), 600.0),
)


def _criterion_test(number: int, checks: tuple[str, ...], budget_s: float):
    def test(capsys, ctx):
        for check_name in checks:
            _run_criterion(capsys, ctx, number, check_name, budget_s)

    return test


# One test per row, in table order (criterion 3 fills the f cache that
# criterion 10 reads), named test_criterion_NN_<suffix> so that test ids are
# stable across changes to the table.
for _number, _suffix, _checks, _budget in CRITERIA:
    globals()[f"test_criterion_{_number:02d}_{_suffix}"] = _criterion_test(
        _number, _checks, _budget
    )
