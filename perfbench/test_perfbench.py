"""Tests of the benchmark itself: each checker rejects a corrupted output, and
the tiny size runs every workload end to end in seconds.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import loading
import refcheck
from workloads import Agreement, Large, Sweeps

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def pg():
    return loading.import_program()


def bound(pg, cls, seed=1):
    wl = cls(seed, 1, "tiny")
    wl.bind(pg, loading.load(pg, wl.inputs()))
    return wl


def first_op(wl, wanted):
    for i in range(len(wl)):
        out = wl.run(i)
        assert wl.check(i, out) is None
        if wanted(i, out):
            return i, out
    raise AssertionError("no operation of the tiny workload fits the test")


def test_refcheck_small_cases():
    path3 = [(1, 2), (2, 3)]
    triangle = [(1, 2), (2, 3), (1, 3)]
    assert refcheck.chi_poc(3, (1, 2, 3), path3) == 3
    assert refcheck.chi_poc(3, (1, 1, 1), path3) == 2
    assert refcheck.chromatic_number(3, triangle) == 3
    assert refcheck.longest_path(4, [(1, 2), (1, 3), (1, 4)]) == 3
    assert refcheck.has_hamiltonian_path(3, path3)
    assert not refcheck.has_hamiltonian_path(4, [(1, 2), (1, 3), (1, 4)])
    assert refcheck.longest_dipath(3, [(1, 2), (2, 3)]) == 3
    assert refcheck.longest_dipath(3, [(1, 2), (2, 3), (3, 1)]) is None
    assert refcheck.weight_order_chain(3, (3, 1, 2), path3) == 2
    assert refcheck.graph_counts(6) == [1, 2, 4, 11, 34, 156]


def test_agreement_rejects_one_colour_changed(pg):
    wl = bound(pg, Agreement)
    i, out = first_op(wl, lambda i, out: wl.instances[i]["edges"])
    value, colors, *rest = out
    u, v = wl.instances[i]["edges"][0]
    corrupted = list(colors)
    corrupted[u - 1] = colors[v - 1]
    assert wl.check(i, (value, tuple(corrupted), *rest)) is not None


def test_agreement_rejects_ell_prime_off_by_one(pg):
    wl = bound(pg, Agreement)
    i, out = first_op(wl, lambda i, out: True)
    value, colors, palette, ell, *rest = out
    for wrong in (ell - 1, ell + 1):
        assert wl.check(i, (value, colors, palette, wrong, *rest)) is not None


def test_sweeps_rejects_argmax_weighting_below_its_value(pg):
    wl = bound(pg, Sweeps)

    def f_above_chi(i, out):
        return wl.ops[i][0] == "graph" and out[0][0] > out[1][0][0]

    i, out = first_op(wl, f_above_chi)
    (f, _), *rest = out
    n = wl.ops[i][1].n
    # one weight everywhere: chi_POC is then the chromatic number, below f
    assert wl.check(i, ((f, (1,) * n), *rest)) is not None


def test_sweeps_rejects_wrong_class_counts(pg):
    wl = bound(pg, Sweeps)
    assert wl.setup_problem() is None
    wl.counts[-1] += 1
    assert wl.setup_problem() is not None


def test_large_rejects_palette_above_longest_dipath(pg):
    wl = bound(pg, Large)
    i, out = first_op(wl, lambda i, out: True)
    greedy, valid, arcs, oriented, longest, text = out
    # raising one top-coloured vertex keeps a valid POC but adds a colour
    top = oriented.colors.index(oriented.palette)
    colors = list(oriented.colors)
    colors[top] += 1
    wider = pg.graph_core.Coloring(tuple(colors), oriented.palette + 1)
    n, w, e = refcheck.parse_wpoc(wl.texts[i])
    assert refcheck.poc_problem(n, w, e, wider.colors, wider.palette) is None
    assert wl.check(i, (greedy, valid, arcs, wider, longest, text)) is not None


def test_missing_program_is_refused(monkeypatch):
    monkeypatch.setattr(loading, "SRC", HERE / "no-such-src")
    with pytest.raises(loading.ProgramMissing):
        loading.import_program()


def run_tiny(*args: str) -> list[str]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--size", "tiny", "--seconds", "1", *args],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()


def test_tiny_runs_every_workload_with_every_end_to_end_metric():
    result = json.loads(run_tiny("--workload", "all", "--seed", "7")[-1])
    names = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert set(result) == {w["name"] for w in BENCHMARK["workloads"]}
    for summary in result.values():
        assert summary["correct"] and summary["failed"] == 0 and summary["attempted"] > 0
        assert {k: v["unit"] for k, v in summary["metrics"].items()} == names
        assert all(v["value"] > 0 for v in summary["metrics"].values())


@pytest.mark.parametrize("workload", ["agreement", "sweeps", "large"])
def test_tiny_traced_run_writes_every_per_layer_metric(workload):
    summary = json.loads(run_tiny("--workload", workload, "--seed", "2", "--trace", "1")[-1])
    names = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in summary["metrics"].items()} == names
    assert summary["correct"] and summary["failed"] == 0
