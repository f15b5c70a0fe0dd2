from __future__ import annotations

import argparse
import dataclasses
import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from pocgraph import (
    Coloring,
    Orientation,
    WeightedGraph,
    cli,
    oracles,
    parse_coloring,
    parse_wpoc,
    path_graph,
    poc_engine,
    selftest,
    serialize_wpoc,
)
from pocgraph.fixtures import fixture_text


@pytest.fixture()
def c4w_file(tmp_path):
    path = tmp_path / "C4W.wpoc"
    path.write_text(fixture_text("C4W"))
    return str(path)


@pytest.fixture()
def chem_file(tmp_path):
    path = tmp_path / "CHEM.wpoc"
    path.write_text(fixture_text("CHEM"))
    return str(path)


def run(capsys, *argv):
    rc = cli.main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


# ---------------------------------------------------------------------------
# color / verify closed loop
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("algo", ["f", "fprime", "stack", "exact"])
def test_color_then_verify_is_valid(capsys, tmp_path, c4w_file, algo):
    out_file = str(tmp_path / "colors.txt")
    rc, out, _ = run(capsys, "color", c4w_file, "--algo", algo, "-o", out_file)
    assert rc == 0
    assert f"algo {algo}" in out
    rc, out, _ = run(capsys, "verify", c4w_file, out_file)
    assert rc == 0
    assert "result VALID" in out


def test_color_exact_c4w_palette(capsys, c4w_file):
    rc, out, _ = run(capsys, "color", c4w_file, "--algo", "exact")
    assert rc == 0
    assert "palette 3" in out


def test_color_f_c4w_colors(capsys, c4w_file):
    rc, out, _ = run(capsys, "color", c4w_file, "--algo", "f")
    assert rc == 0
    coloring = parse_coloring(
        "\n".join(l for l in out.splitlines() if l.split()[0] in ("palette", "c")), 4
    )
    assert coloring.colors == (1, 2, 2, 3)


def test_color_exact_chem(capsys, chem_file):
    rc, out, _ = run(capsys, "color", chem_file, "--algo", "exact")
    assert rc == 0
    assert "palette 4" in out


def test_color_multipartite_requires_consistent_parts(capsys, tmp_path, c4w_file):
    rc, _, err = run(capsys, "color", c4w_file, "--algo", "multipartite", "--parts", "2,2")
    assert rc == 2
    assert "does not match" in err

    k13 = tmp_path / "k13.wpoc"
    k13.write_text("p wpoc 4 3\nv 1 1\nv 2 1\nv 3 2\nv 4 3\ne 1 2\ne 1 3\ne 1 4\n")
    rc, out, _ = run(capsys, "color", str(k13), "--algo", "multipartite", "--parts", "1,3")
    assert rc == 0


def test_verify_invalid_names_edge(capsys, tmp_path, c4w_file):
    bad = tmp_path / "bad.txt"
    bad.write_text("palette 3\nc 1 1\nc 2 1\nc 3 2\nc 4 3\n")
    rc, out, _ = run(capsys, "verify", c4w_file, str(bad))
    assert rc == 1
    assert "result INVALID" in out
    assert "edge 1 2" in out


def test_verify_chem_reference(capsys, tmp_path, chem_file):
    ref = tmp_path / "ref.txt"
    ref.write_text("palette 5\nc 1 1\nc 2 2\nc 3 3\nc 4 3\nc 5 4\nc 6 5\n")
    rc, out, _ = run(capsys, "verify", chem_file, str(ref))
    assert rc == 0 and "result VALID" in out


def test_parse_error_exits_2(capsys, tmp_path):
    broken = tmp_path / "broken.wpoc"
    broken.write_text("p wpoc 2 1\nv 1 1\nv 2 1\ne 1 1\n")
    rc, _, err = run(capsys, "verify", str(broken), str(broken))
    assert rc == 2
    assert "line 4" in err


def test_missing_file_exits_2(capsys):
    rc, _, err = run(capsys, "color", "/nonexistent/file.wpoc")
    assert rc == 2


# ---------------------------------------------------------------------------
# orient
# ---------------------------------------------------------------------------


def test_orient_c4w(capsys, c4w_file):
    rc, out, _ = run(capsys, "orient", c4w_file)
    assert rc == 0
    assert "longest_dipath 4" in out
    arcs = {tuple(map(int, l.split()[1:])) for l in out.splitlines() if l.startswith("a ")}
    assert arcs == {(3, 1), (4, 2), (4, 3), (1, 2)}


def test_orient_dot(capsys, c4w_file):
    rc, out, _ = run(capsys, "orient", c4w_file, "--dot")
    assert rc == 0
    assert "digraph {" in out and "3 -> 1;" in out


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------


def test_oracle_f_on_unweighted_c4(capsys, tmp_path):
    c4 = tmp_path / "c4.wpoc"
    c4.write_text("p wpoc 4 4\nv 1 1\nv 2 1\nv 3 1\nv 4 1\ne 1 2\ne 2 3\ne 3 4\ne 1 4\n")
    rc, out, _ = run(capsys, "oracle", str(c4), "f")
    assert rc == 0 and "f 4" in out


def test_oracle_chipoct_k23(capsys, tmp_path):
    k23 = tmp_path / "k23.wpoc"
    k23.write_text(
        "p wpoc 5 6\nv 1 1\nv 2 1\nv 3 1\nv 4 1\nv 5 1\n"
        "e 1 3\ne 1 4\ne 1 5\ne 2 3\ne 2 4\ne 2 5\n"
    )
    rc, out, _ = run(capsys, "oracle", str(k23), "chipoct", "--t", "5")
    assert rc == 0 and "chipoct 5" in out


def test_oracle_chipoct_witness_uses_t_values(capsys, c4w_file):
    # the first worst weighting with at most t values uses exactly min(t, n)
    rc, out, _ = run(capsys, "oracle", c4w_file, "chipoct", "--t", "2", "--witness")
    assert rc == 0
    lines = [line for line in out.splitlines() if line.startswith("weights ")]
    assert len(lines) == 1
    assert len(set(lines[0].split()[1].split(","))) == 2


def test_oracle_chipoct_requires_t(capsys, c4w_file):
    rc, _, err = run(capsys, "oracle", c4w_file, "chipoct")
    assert rc == 2 and "--t" in err


def test_oracle_ellprime_c4w_with_witness(capsys, c4w_file):
    rc, out, _ = run(capsys, "oracle", c4w_file, "ellprime", "--witness")
    assert rc == 0
    assert "ellprime 3" in out
    assert "a 2 1" in out  # the witness orients the equal-weight edge downward


def test_oracle_chipoc_witness_verifies(capsys, tmp_path, chem_file):
    rc, out, _ = run(capsys, "oracle", chem_file, "chipoc", "--witness")
    assert rc == 0 and "chipoc 4" in out
    witness = tmp_path / "w.txt"
    witness.write_text(
        "\n".join(l for l in out.splitlines() if l.split()[0] in ("palette", "c")) + "\n"
    )
    rc, out, _ = run(capsys, "verify", chem_file, str(witness))
    assert rc == 0


@pytest.mark.parametrize("fault", ["reversed arcs", "longest dipath off by one"])
def test_oracle_ellprime_checks_its_witness_before_printing(capsys, monkeypatch, c4w_file, fault):
    g = parse_wpoc(fixture_text("C4W"))
    value, d = oracles.ell_prime_orientation(g)
    if fault == "reversed arcs":  # every forced arc now runs uphill
        d = Orientation(g.graph, frozenset((h, t) for t, h in d.arcs))
    else:
        value += 1
    monkeypatch.setattr(oracles, "ell_prime_orientation", lambda g, caps: (value, d))
    message = f"internal error: ellprime witness is not good acyclic with longest path {value}"
    for flag in (["--witness"], []):  # the flag only decides what is printed
        rc, out, err = run(capsys, "oracle", c4w_file, "ellprime", *flag)
        assert (rc, out) == (1, "")
        assert message in err


def test_oracle_chipoc_checks_its_witness_before_printing(capsys, monkeypatch, c4w_file):
    g = parse_wpoc(fixture_text("C4W"))
    flat = Coloring((1,) * g.n, 1)
    monkeypatch.setattr(oracles, "chi_poc_exact", lambda g, caps: (1, flat))
    edge = min(g.graph.edges)
    for flag in (["--witness"], []):
        rc, out, err = run(capsys, "oracle", c4w_file, "chipoc", *flag)
        assert (rc, out) == (1, "")
        assert f"internal error: chipoc witness fails validation on edge {edge}" in err


def test_oracle_chi_checks_its_witness_before_printing(capsys, monkeypatch, c4w_file):
    flat = Coloring((1,) * 4, 1)
    monkeypatch.setattr(oracles, "proper_coloring_exact", lambda g: flat)
    for flag in (["--witness"], []):
        rc, out, err = run(capsys, "oracle", c4w_file, "chi", *flag)
        assert (rc, out) == (1, "")
        assert "internal error: chi witness fails validation on edge (1, 2)" in err


@pytest.mark.parametrize("path", [(1, 2, 1), (2, 1, 4), (4, 3, 5)])
def test_oracle_ell_checks_its_witness_before_printing(capsys, monkeypatch, c4w_file, path):
    # a repeated vertex, a missing edge 1-4, and a vertex C4W does not have
    monkeypatch.setattr(oracles, "longest_path_witness", lambda g, caps: path)
    for flag in (["--witness"], []):
        rc, out, err = run(capsys, "oracle", c4w_file, "ell", *flag)
        assert (rc, out) == (1, "")
        assert f"internal error: ell witness {path} is not a simple path of the graph" in err


@pytest.mark.parametrize("fault", ["value off by one", "invalid coloring"])
@pytest.mark.parametrize("quantity", ["f", "chipoct"])
def test_oracle_sweep_checks_its_witness_before_printing(
    capsys, monkeypatch, c4w_file, quantity, fault
):
    # the weighting is the witness: solved again, it must need the value's colors
    argv = ["oracle", c4w_file, quantity, *(["--t", "2"] if quantity == "chipoct" else [])]
    if fault == "value off by one":  # C4W has f 4 and chipoct 3 at t = 2
        message = "has palette 4, not 5" if quantity == "f" else "has palette 3, not 4"
        name = "f_argmax" if quantity == "f" else "chi_poc_t_argmax"
        real = getattr(oracles, name)

        def one_more(*args):
            value, weights = real(*args)
            return value + 1, weights

        monkeypatch.setattr(oracles, name, one_more)
    else:
        message = "fails validation on edge (1, 2)"
        monkeypatch.setattr(oracles, "chi_poc_exact", lambda g, caps: (1, Coloring((1,) * 4, 1)))
    for flag in (["--witness"], []):
        rc, out, err = run(capsys, *argv, *flag)
        assert (rc, out) == (1, "")
        assert f"internal error: {quantity} witness {message}" in err


def test_oracle_ell_witness_path(capsys, monkeypatch, c4w_file):
    real = oracles.longest_path_witness
    calls = []
    monkeypatch.setattr(
        oracles, "longest_path_witness", lambda g, caps: calls.append(g) or real(g, caps)
    )
    rc, out, _ = run(capsys, "oracle", c4w_file, "ell", "--witness")
    assert rc == 0 and "ell 4" in out
    path_line = next(l for l in out.splitlines() if l.startswith("path "))
    assert len(path_line.split()[1].split("-")) == 4
    assert len(calls) == 1  # the value is the witness's length, not a second DP


def test_cap_exceeded_exits_3(capsys, monkeypatch, c4w_file):
    monkeypatch.setenv("POC_CAPS", "chi_poc_n=2")
    rc, _, err = run(capsys, "oracle", c4w_file, "chipoc")
    assert rc == 3
    assert "chi_poc_n" in err


def test_ellprime_refuses_a_long_equal_weight_path_in_little_memory(tmp_path):
    # 2^1999 orientations: a spanning forest's count refuses the class before
    # any listing, which would need gigabytes for a class this size; the child
    # runs under a 512 MB address-space limit so that it cannot take them
    n = 2000
    path = tmp_path / "path.wpoc"
    path.write_text(serialize_wpoc(WeightedGraph(path_graph(n), (1,) * n)))
    limit = 512 << 20
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from pocgraph.cli import main; sys.exit(main())",
         "oracle", str(path), "ellprime"],
        env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1]), "POC_CAPS": ""},
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 3, proc.stderr
    assert "cap ell_prime_orientations=100000 exceeded (instance needs 131072)" in proc.stderr


def test_unknown_cap_exits_2(capsys, monkeypatch, c4w_file):
    monkeypatch.setenv("POC_CAPS", "nope=1")
    rc, _, err = run(capsys, "oracle", c4w_file, "chipoc")
    assert rc == 2 and "unknown cap" in err


def test_removed_sweep_cap_exits_2(capsys, monkeypatch, c4w_file):
    # the per-sweep vertex caps are gone: the weightings cap bounds every sweep
    monkeypatch.setenv("POC_CAPS", "f_n=9")
    rc, out, err = run(capsys, "oracle", c4w_file, "f")
    assert rc == 2 and out == ""
    assert "unknown cap override 'f_n=9'" in err and "weightings" in err


def test_removed_ell_prime_cap_exits_2(capsys, monkeypatch, c4w_file):
    # ell' is bounded by the orientations it lists, not by its equal-weight edges
    monkeypatch.setenv("POC_CAPS", "ell_prime_intra_edges=28")
    rc, out, err = run(capsys, "oracle", c4w_file, "ellprime")
    assert rc == 2 and out == ""
    assert "unknown cap override 'ell_prime_intra_edges=28'" in err
    assert "ell_prime_orientations" in err


def test_removed_surjective_flag_exits_2(capsys, c4w_file):
    # chi_poc(G;t) has one reading: at most t values, which for t <= n is exactly t
    with pytest.raises(SystemExit) as info:
        run(capsys, "oracle", c4w_file, "chipoct", "--t", "2", "--surjective")
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "unrecognized arguments: --surjective" in captured.err


@pytest.mark.parametrize("value", ["abc", "-3", "", "2.5"])
def test_bad_cap_value_exits_2_naming_the_cap(capsys, monkeypatch, c4w_file, value):
    monkeypatch.setenv("POC_CAPS", f"chi_poc_n=12,weightings={value}")
    rc, out, err = run(capsys, "oracle", c4w_file, "chipoc")
    assert rc == 2 and out == ""
    assert f"'weightings={value}'" in err and "non-negative integer" in err


def test_readme_caps_table_lists_every_cap_with_its_default():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Oracle caps\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \| (\d+) \|", section, re.MULTILINE)
    fields = dataclasses.fields(oracles.OracleCaps)
    assert rows == [(f.name, str(f.default)) for f in fields]


def test_readme_documents_every_cli_option():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    subparsers = next(
        a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    missing = [
        (command, action.option_strings)
        for command, parser in subparsers.choices.items()
        for action in parser._actions
        if action.option_strings and action.dest != "help"
        if not any(re.search(rf"{re.escape(o)}(?![\w-])", readme) for o in action.option_strings)
    ]
    assert missing == []


# ---------------------------------------------------------------------------
# multipartite
# ---------------------------------------------------------------------------


def test_multipartite_k135(capsys):
    rc, out, _ = run(
        capsys,
        "multipartite",
        "--parts", "1,3,5",
        "--weights", "1,1,3,4,1,2,3,4,2",
    )
    assert rc == 0
    assert "mocs_total 8" in out
    assert "spaths_vertices 5" in out
    assert "spaths_q 2" in out
    assert "g 5" in out
    assert "palette 5" in out


def test_multipartite_many_mocs_needs_no_enumeration(capsys):
    # 5**9 MOCs: more than the mocs_product cap, which g never consults
    part = "1,1,1,1,1,2,2,2,2,2,3,3,3,3,3"
    rc, out, _ = run(
        capsys, "multipartite", "--parts", "15,15,15", "--weights", ",".join([part] * 3)
    )
    assert rc == 0
    lines = out.splitlines()
    assert "g 7" in lines
    assert "spaths_vertices 4" in lines
    assert "spaths_q 2" in lines


def test_multipartite_h_mode(capsys):
    rc, out, _ = run(capsys, "multipartite", "--parts", "2,2", "--t", "2")
    assert rc == 0
    assert "h 3" in out


def test_multipartite_needs_weights_or_t(capsys):
    rc, _, err = run(capsys, "multipartite", "--parts", "2,2")
    assert rc == 2


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------


def test_generate_is_deterministic(capsys):
    rc1, out1, _ = run(capsys, "generate", "random", "--n", "8", "--p", "0.5", "--t", "3", "--seed", "7")
    rc2, out2, _ = run(capsys, "generate", "random", "--n", "8", "--p", "0.5", "--t", "3", "--seed", "7")
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_generate_path_matches_p3w(capsys, p3w):
    rc, out, _ = run(capsys, "generate", "path", "--n", "3", "--weights", "1,2,3")
    assert rc == 0
    assert parse_wpoc(out) == p3w


def test_generate_multipartite_matches_k135(capsys, k135):
    rc, out, _ = run(
        capsys,
        "generate", "multipartite",
        "--parts", "1,3,5",
        "--weights", "1,1,3,4,1,2,3,4,2",
    )
    assert rc == 0
    assert parse_wpoc(out) == k135


@pytest.mark.parametrize("option, value", [("--p", "1.5"), ("--p", "-1"), ("--t", "0")])
def test_generate_random_rejects_bad_p_and_t(capsys, option, value):
    argv = {"--n": "5", "--p": "0.5", "--t": "3", option: value}
    rc, out, err = run(capsys, "generate", "random", *(x for item in argv.items() for x in item))
    assert (rc, out) == (2, "")
    assert f"error: {option[2:]} must be" in err


def test_generate_cycle_rejects_small_n(capsys):
    rc, _, err = run(capsys, "generate", "cycle", "--n", "2")
    assert rc == 2


# ---------------------------------------------------------------------------
# selftest
# ---------------------------------------------------------------------------


def _only_checks(monkeypatch, *names):
    monkeypatch.setattr(selftest, "CHECKS", tuple(c for c in selftest.CHECKS if c.name in names))


def test_selftest_subset_passes(monkeypatch):
    # fixture checks only: every check runs under its own acceptance test
    _only_checks(monkeypatch, "c4w-fixture", "k135-fixture", "chem-fixture")
    report = selftest.run_selftest("quick")
    assert report.ok
    assert len(report.checks) == 3


def test_selftest_cli_reports_checks(capsys, monkeypatch):
    _only_checks(monkeypatch, "c4w-fixture", "chem-fixture")
    rc, out, err = run(capsys, "selftest", "--scale", "quick")
    assert rc == 0
    assert "check c4w-fixture pass" in out
    assert "2/2 checks passed" in err


def _break_ell_prime(monkeypatch):
    real = oracles.ell_prime_orientation

    def off_by_one(g, caps=oracles.DEFAULT_CAPS):
        value, d = real(g, caps)
        return value + 1, d

    monkeypatch.setattr(oracles, "ell_prime_orientation", off_by_one)


def test_selftest_fault_injection_names_instance(monkeypatch):
    """Deliberately breaking one oracle must fail the run and name the instance."""
    _break_ell_prime(monkeypatch)
    _only_checks(monkeypatch, "theorem3-chi-poc-equals-ell-prime")
    report = selftest.run_selftest("quick")
    assert not report.ok
    failing = report.checks[0]
    assert "chi_poc=" in failing.observed and "n=" in failing.observed


def test_selftest_exit_code_on_failure(capsys, monkeypatch):
    _break_ell_prime(monkeypatch)
    _only_checks(monkeypatch, "theorem3-chi-poc-equals-ell-prime")
    rc, out, _ = run(capsys, "selftest", "--scale", "quick")
    assert rc == 1
    assert "fail theorem3-chi-poc-equals-ell-prime" in out
    assert "n=" in out  # the failing instance is named
    (fail,) = [line for line in out.splitlines() if line.startswith("fail ")]
    (row,) = selftest.CHECKS
    assert fail.endswith(f" expected={row.claim}")


def test_selftest_exact_row_fails_on_any_other_observation(monkeypatch):
    # a fixture row's claim is its observed string, so one count off fails it
    _only_checks(monkeypatch, "c4w-fixture")
    monkeypatch.setattr(oracles, "enumerate_pocs", lambda g, palette, caps: 1)
    (result,) = selftest.run_selftest("quick").checks
    assert not result.passed
    assert result.observed == "chi_poc=3 pocs@3=1 unique=(1, 2, 2, 3) pocs@2=1"
    assert result.expected == "chi_poc=3 pocs@3=1 unique=(1, 2, 2, 3) pocs@2=0"


def test_selftest_theorem1_checks_both_witnesses(monkeypatch):
    """f's weighting is solved again and the longest path is walked, so a
    wrong witness fails theorem1 even where f and ell agree."""
    real_f, real_path = oracles.f_argmax, oracles.longest_path_witness
    _only_checks(monkeypatch, "theorem1-f-equals-longest-path")
    with monkeypatch.context() as patch:
        # all weights equal give chi(G), below f on the path P3
        patch.setattr(oracles, "f_argmax", lambda g, caps: (real_f(g, caps)[0], (1,) * g.n))
        (result,) = selftest.run_selftest("quick").checks
    assert not result.passed
    assert result.observed == (
        "f_argmax weighting gives chi_poc=2, not f=3, on n=3 w=1,1,1 e=1-2,1-3"
    )
    with monkeypatch.context() as patch:
        # as long as the path, but its first vertex repeated
        patch.setattr(
            oracles, "longest_path_witness", lambda g, caps: real_path(g, caps)[:1] * g.n
        )
        (result,) = selftest.run_selftest("quick").checks
    assert not result.passed
    assert result.observed == "longest path witness (1, 1) is not a simple path of n=2 e=-"
    assert selftest.run_selftest("quick").ok


def test_selftest_theorem3_orients_the_chi_poc_witness(monkeypatch):
    """Both oracles agree on a value one too high, each with a witness that
    passes its own check; the coloring, oriented by color, has a shorter
    longest dipath, so theorem3 fails on it."""
    wg = WeightedGraph(path_graph(3), (1, 1, 1))
    ctx = selftest._Context("quick", oracles.DEFAULT_CAPS)
    selftest._theorem3_one(ctx, wg)
    chi_poc, coloring = oracles.chi_poc_exact(wg)
    d = Orientation(wg.graph, frozenset({(1, 2), (2, 3)}))  # a real good dipath of 3
    assert chi_poc == 2 and poc_engine.orientation_problem(wg, d, 3) is None
    # ell' is given d; chi_POC its optimal coloring, declared with one color more
    monkeypatch.setattr(oracles, "ell_prime_orientation", lambda g, caps: (3, d))
    monkeypatch.setattr(oracles, "chi_poc_exact", lambda g, caps: (3, Coloring(coloring.colors, 3)))
    with pytest.raises(selftest._Failed) as failed:
        selftest._theorem3_one(ctx, wg)
    assert failed.value.observed == (
        "chi_poc witness oriented by color is not good acyclic with longest path 3"
        " on n=3 w=1,1,1 e=1-2,2-3"
    )


@pytest.mark.parametrize(
    "cap, value, check",
    [
        ("chi_poc_n", 3, "theorem2-ratio-and-sharpness"),
        # K4 with all weights equal has 24 orientations
        ("ell_prime_orientations", 10, "theorem3-chi-poc-equals-ell-prime"),
    ],
)
def test_selftest_runs_under_the_callers_caps(monkeypatch, cap, value, check):
    _only_checks(monkeypatch, check)
    report = selftest.run_selftest("quick", caps=oracles.OracleCaps(**{cap: value}))
    (result,) = report.checks
    assert not result.passed
    assert f"cap {cap}={value} exceeded" in result.observed
