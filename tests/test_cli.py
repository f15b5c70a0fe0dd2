from __future__ import annotations

import pytest

from pocgraph import cli, oracles, parse_coloring, parse_wpoc, selftest
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


def test_oracle_ell_witness_path(capsys, c4w_file):
    rc, out, _ = run(capsys, "oracle", c4w_file, "ell", "--witness")
    assert rc == 0 and "ell 4" in out
    path_line = next(l for l in out.splitlines() if l.startswith("path "))
    assert len(path_line.split()[1].split("-")) == 4


def test_cap_exceeded_exits_3(capsys, monkeypatch, c4w_file):
    monkeypatch.setenv("POC_CAPS", "chi_poc_n=2")
    rc, _, err = run(capsys, "oracle", c4w_file, "chipoc")
    assert rc == 3
    assert "chi_poc_n" in err


def test_unknown_cap_exits_2(capsys, monkeypatch, c4w_file):
    monkeypatch.setenv("POC_CAPS", "nope=1")
    rc, _, err = run(capsys, "oracle", c4w_file, "chipoc")
    assert rc == 2 and "unknown cap" in err


@pytest.mark.parametrize("value", ["abc", "-3", "", "2.5"])
def test_bad_cap_value_exits_2_naming_the_cap(capsys, monkeypatch, c4w_file, value):
    monkeypatch.setenv("POC_CAPS", f"chi_poc_n=12,f_n={value}")
    rc, out, err = run(capsys, "oracle", c4w_file, "chipoc")
    assert rc == 2 and out == ""
    assert f"'f_n={value}'" in err and "non-negative integer" in err


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


def test_generate_cycle_rejects_small_n(capsys):
    rc, _, err = run(capsys, "generate", "cycle", "--n", "2")
    assert rc == 2


# ---------------------------------------------------------------------------
# selftest
# ---------------------------------------------------------------------------


def test_selftest_subset_passes(capsys):
    # fixture checks only: every check runs under its own acceptance test
    report = selftest.run_selftest("quick", names=("c4w-fixture", "k135-fixture", "chem-fixture"))
    assert report.ok
    assert len(report.checks) == 3


def _only_checks(monkeypatch, *names):
    monkeypatch.setattr(selftest, "CHECKS", tuple(c for c in selftest.CHECKS if c.name in names))


def test_selftest_cli_reports_checks(capsys, monkeypatch):
    _only_checks(monkeypatch, "c4w-fixture", "chem-fixture")
    rc, out, err = run(capsys, "selftest", "--scale", "quick")
    assert rc == 0
    assert "check c4w-fixture pass" in out
    assert "2/2 checks passed" in err


def _break_ell_prime(monkeypatch):
    real = oracles.ell_prime_exact
    monkeypatch.setattr(oracles, "ell_prime_exact", lambda g, caps=None: real(g) + 1)


def test_selftest_fault_injection_names_instance(monkeypatch):
    """Deliberately breaking one oracle must fail the run and name the instance."""
    _break_ell_prime(monkeypatch)
    report = selftest.run_selftest("quick", names=("theorem3-chi-poc-equals-ell-prime",))
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
