"""Acceptance gate generated from ``selftest.CHECKS``: one test per acceptance
criterion, plus one quick-scale test per check that gates no criterion. Each
prints a pass/fail line.

Every check is exact (no tolerances); each row's time budget is asserted as
well. POC_ACCEPTANCE_SCALE=quick shrinks the criterion tests' exhaustive
families for fast local runs (the default is the full desk-scale suite).
"""

from __future__ import annotations

import inspect
import os

import pytest

from pocgraph import Coloring, WeightedGraph, build_good_orientation, path_graph
from pocgraph.oracles import DEFAULT_CAPS
from pocgraph.selftest import CHECKS, SCALES, Check, _Context, _height_problem, run_check

SCALE = os.environ.get("POC_ACCEPTANCE_SCALE", "full")

# Test name suffix per criterion, so that test ids stay stable.
SUFFIXES = {
    1: "c4w_fixture",
    2: "k135_fixture",
    3: "theorem1",
    4: "theorem3",
    5: "theorem4",
    6: "proposition2",
    7: "theorem2_and_sharpness",
    8: "algorithm_bounds",
    9: "chem_fixture",
    10: "hamiltonian_corollary",
}

# The observed string of every row at quick scale and of every criterion row
# at full scale, so that a family that silently loses instances fails.
OBSERVED = {
    ("quick", "c4w-fixture"): "chi_poc=3 pocs@3=1 unique=(1, 2, 2, 3) pocs@2=0",
    ("quick", "k135-fixture"): "total=8 V(S)=5 q=2 g=5 palette=5 c(z5)=3",
    ("quick", "chem-fixture"): "reference_valid=True chi_poc=4 ell_prime=4 pocs@3=0",
    ("quick", "theorem1-f-equals-longest-path"): "f == longest_path on 52 graphs (n <= 5)",
    ("quick", "theorem3-chi-poc-equals-ell-prime"):
        "oracles agree on 1034 instances (exhaustive n <= 4 + 150 random)",
    ("quick", "theorem4-bipartite-formula"):
        "formula matches brute force; layered coloring within 2m+1",
    ("quick", "proposition1-mocs-coloring"): "4107 MOCs colorings valid with exact color count",
    ("quick", "proposition2-h-matches-oracle"): "h == chi_poc_t on 42 (parts, t) instances",
    ("quick", "theorem2-ratio-and-sharpness"):
        "ratio bound holds; sharp family attains (k-1)t+1 with V(S)=2t-2",
    ("quick", "theorem2-constructive"): "completion POC within bound on 792 instances",
    ("quick", "algorithm-bounds-random"): "all bounds hold on 200 random instances (n <= 10)",
    ("quick", "hamiltonian-path-corollary"): "corollary holds on 52 graphs (n <= 5)",
    ("quick", "wpoc-roundtrip"): "parse(serialize(x)) == x on 100 random instances",
    ("quick", "normalize-weights"): "idempotent and order-preserving on 100 instances",
    ("quick", "complement-involution"): "involution and edge-count identity on all graphs n <= 5",
    ("quick", "greedy-poc-exhaustive"): "greedy valid and bounded on 19278 weighted instances",
    ("quick", "oriented-greedy-all-orientations"):
        "bound holds for all 81 good acyclic orientations",
    ("quick", "chi-poc-t-monotone"): "monotone in t with chi at t=1 on all graphs n <= 4",
    ("full", "c4w-fixture"): "chi_poc=3 pocs@3=1 unique=(1, 2, 2, 3) pocs@2=0",
    ("full", "k135-fixture"): "total=8 V(S)=5 q=2 g=5 palette=5 c(z5)=3",
    ("full", "chem-fixture"): "reference_valid=True chi_poc=4 ell_prime=4 pocs@3=0",
    ("full", "theorem1-f-equals-longest-path"): "f == longest_path on 208 graphs (n <= 6)",
    ("full", "theorem3-chi-poc-equals-ell-prime"):
        "oracles agree on 19778 instances (exhaustive n <= 5 + 500 random)",
    ("full", "theorem4-bipartite-formula"):
        "formula matches brute force; layered coloring within 2m+1",
    ("full", "proposition1-mocs-coloring"): "16201 MOCs colorings valid with exact color count",
    ("full", "proposition2-h-matches-oracle"): "h == chi_poc_t on 48 (parts, t) instances",
    ("full", "theorem2-ratio-and-sharpness"):
        "ratio bound holds; sharp family attains (k-1)t+1 with V(S)=2t-2",
    ("full", "algorithm-bounds-random"): "all bounds hold on 1000 random instances (n <= 10)",
    ("full", "hamiltonian-path-corollary"): "corollary holds on 208 graphs (n <= 6)",
}

# One context per scale for the whole module, so that the f values computed
# for criterion 3 are read again by criterion 10.
_CONTEXTS = {scale: _Context(scale, DEFAULT_CAPS) for scale in {SCALE, "quick"}}


def _run(capsys, check: Check) -> None:
    if check.criterion is None:
        label, ctx = "check", _CONTEXTS["quick"]
    else:
        label, ctx = f"criterion-{check.criterion:02d}", _CONTEXTS[SCALE]
    result = run_check(check, ctx)
    elapsed = result.elapsed_ms / 1000.0
    status = "PASS" if result.passed else "FAIL"
    with capsys.disabled():
        print(
            f"\nACCEPTANCE {label} [{check.name}] {status} "
            f"({elapsed:.2f}s, scale={ctx.scale}): {result.observed}"
        )
    assert result.passed, f"{label}: observed {result.observed}; expected {result.expected}"
    assert result.observed == OBSERVED[ctx.scale, check.name]
    assert elapsed < check.budget_s, f"{label} took {elapsed:.1f}s (budget {check.budget_s}s)"


def _make_test(checks: tuple[Check, ...]):
    def test(capsys):
        for check in checks:
            _run(capsys, check)

    return test


# Test name -> the checks it runs: one test per criterion in criterion order
# (criterion 6 runs two checks), then one per check without a criterion.
GENERATED: dict[str, tuple[Check, ...]] = {
    f"test_criterion_{number:02d}_{suffix}": tuple(c for c in CHECKS if c.criterion == number)
    for number, suffix in sorted(SUFFIXES.items())
}
GENERATED.update(
    (f"test_check_{c.name.replace('-', '_')}", (c,)) for c in CHECKS if c.criterion is None
)
for _name, _checks in GENERATED.items():
    globals()[_name] = _make_test(_checks)


def test_table_integrity():
    names = [c.name for c in CHECKS]
    assert len(names) == len(set(names))
    assert {c.criterion for c in CHECKS} - {None} == set(range(1, 11)) == set(SUFFIXES)
    assert sorted(c.name for checks in GENERATED.values() for c in checks) == sorted(names)
    # no hand-written test shadows a generated one
    assert all(globals()[name].__name__ == "test" for name in GENERATED)


def test_every_row_has_one_family_per_scale_that_its_check_takes():
    for check in CHECKS:
        families = [getattr(check, scale) for scale in SCALES]
        assert all(family.keys() == families[0].keys() for family in families), check.name
        for family in families:
            inspect.signature(check.run).bind(None, **family)


def test_context_refuses_an_unknown_scale():
    # a mistyped POC_ACCEPTANCE_SCALE fails here, not after running quick families
    with pytest.raises(ValueError, match="'ful'"):
        _Context("ful", DEFAULT_CAPS)


def test_height_certificate_refuses_heights_plus_one():
    # the oriented-greedy checks certify colors as heights from the arcs alone
    g = WeightedGraph(path_graph(3), (3, 2, 1))
    d = build_good_orientation(g)
    assert d.arcs == {(1, 2), (2, 3)}
    assert _height_problem(d, Coloring((3, 2, 1), 3)) is None
    problem = _height_problem(d, Coloring((4, 3, 2), 4))
    assert problem == "vertex 3 has color 2 and no out-neighbor colored 1"
    assert _height_problem(d, Coloring((3, 2, 1), 4)) == "palette 4 is not the largest color"
    assert _height_problem(d, Coloring((2, 2, 1), 2)).startswith("color 2 of 1 does not fall")
