import collections
import contextlib
import csv
import dataclasses
import functools
import hashlib
import io
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graftlab import DomainError, cli, geometry, hypersolve, identities, sampling, spectral, variation


def run(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr().out
    return code, out


def test_verify_passes_and_reports(capsys):
    code, out = run(["verify", "--seed", "3"], capsys)
    assert code == 0
    payload = json.loads(out)
    reports = payload["reports"]
    assert len(reports) == 11
    assert all(r["pass"] for r in reports)
    names = {r["identity"] for r in reports}
    assert "master_identity" in names
    assert "slice_condition" in names


def test_verify_deterministic_modulo_timestamp(tmp_path):
    outs = []
    for i in range(2):
        path = tmp_path / f"rep{i}.json"
        assert cli.main(["verify", "--seed", "5", "--out", str(path)]) == 0
        data = json.loads(path.read_text())
        data.pop("generated_at")
        data["config"].pop("out")
        outs.append(json.dumps(data, sort_keys=True))
    assert outs[0] == outs[1]


def test_verify_unreachable_tolerance_fails(capsys):
    code, out = run(["verify", "--tol", "1e-16"], capsys)
    assert code == 1
    payload = json.loads(out)
    assert not all(r["pass"] for r in payload["reports"])


@pytest.mark.parametrize("s", ["0", "0.01"])
def test_verify_on_insert_thinner_than_the_stencil(s, capsys):
    # s/2 < h = ell/256: the five-point stencil would step outside the insert
    code, out = run(["verify", "--s", s], capsys)
    assert code == 0
    reports = {r["identity"]: r for r in json.loads(out)["reports"]}
    assert all(r["pass"] for r in reports.values())
    stencil = reports["interior_harmonicity_stencil"]
    assert stencil["notes"].startswith("not applicable:")
    assert f"s/2 = {float(s) / 2!r}" in stencil["notes"]
    assert "h = ell/256" in stencil["notes"]


@pytest.mark.parametrize("argv", ["verify --ell 1e-300", "verify --ell 1e-170 --modes 2"])
def test_verify_where_the_stencil_step_squares_to_0(argv, capsys):
    # h = ell/256 and h * h underflows to 0: the stencil would divide by 0,
    # so it is not applicable, like an insert thinner than 2h
    code = cli.main(argv.split())
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    reports = {r["identity"]: r for r in json.loads(captured.out)["reports"]}
    assert all(r["pass"] for r in reports.values())
    h = float(argv.split()[2]) / 256
    assert reports["interior_harmonicity_stencil"]["notes"] == (
        f"not applicable: the stencil step h = ell/256 = {h!r} squares to 0 in double precision"
    )


@pytest.mark.parametrize("argv", [
    # seam_dtn is -inf at n >= 1: the determinant takes its t -> -inf limit
    "sweep --param a --from 1e-310 --to 1 --steps 3 --ell 1",
    # ell^2 is 0 at the first row, where hyperbolic_neumann keeps zero modes 0
    "sweep --param ell --from 1e-300 --to 1 --steps 2",
    # ell^2 is 0 and subnormal, with s = 0 keeping every mode: the variation
    # maps scale it, so the boundary term's quadrature route stays finite
    "sweep --param ell --from 1e-170 --to 1e-160 --steps 2 --s 0 --modes 2",
])
def test_sweep_prints_finite_cells_at_subnormal_a_and_tiny_ell(argv, capsys):
    code = cli.main(argv.split())
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    rows = list(csv.DictReader(io.StringIO(captured.out)))
    assert all(math.isfinite(float(v)) for row in rows for k, v in row.items() if k != "param")


def test_verify_passes_where_the_hyperbolic_factor_passes_the_double_range(capsys):
    # 2 (4 pi^2 + ell^2) / ell^2 is 3.2e308 at ell = 5e-154, though ell^2 is
    # a normal double and mu = 2 pi / ell = 1.3e154 still squares to one
    code = cli.main("verify --s 0 --ell 5e-154 --modes 1".split())
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    assert all(r["pass"] for r in json.loads(captured.out)["reports"])


@pytest.mark.parametrize("ell", ["1e-155", "1e-160", "1e-170"])
def test_modes_prints_the_variation_where_ell_squared_is_subnormal(ell, capsys):
    # at s = 0, lambda_n = rho_n = ell d_n / (4 pi n), a normal double though
    # ell^2 is not: n = 1 within a few eps of its 50-digit value
    mp = pytest.importorskip("mpmath").mp
    code = cli.main(["modes", "--ell", ell, "--s", "0", "--modes", "2"])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    row = list(csv.DictReader(io.StringIO(captured.out)))[1]
    d1 = sampling.random_solution(np.random.default_rng(0), float(ell), 0.0, nmax=2).d[1]
    eps = np.finfo(float).eps
    with mp.workdps(50):
        for part, value in (("re", d1.real), ("im", d1.imag)):
            want = mp.mpf(float(ell)) * mp.mpf(value) / (4 * mp.pi)
            for name in ("lambda", "rho"):
                assert abs(float(row[f"{name}_{part}"]) - want) <= 4 * eps * abs(want), (name, part)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("ell", ["1e160", "1e300"])
def test_modes_prints_the_variation_where_ell_squared_overflows(ell, capsys):
    # lambda_1 = ell (d_1 cosh - c_1 sinh)(pi s / ell) / (4 pi) and rho_1
    # with + sinh, about 2.5e158 at ell = 1e160, though ell^2 is past the
    # double range: n = 1 within a few eps of its 50-digit value
    mp = pytest.importorskip("mpmath").mp
    code = cli.main(["modes", "--ell", ell, "--modes", "2"])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    rows = list(csv.DictReader(io.StringIO(captured.out)))
    assert all(math.isfinite(float(v)) for row in rows for v in row.values())
    sol = sampling.random_solution(np.random.default_rng(0), float(ell), 1.0, nmax=2)
    c1, d1 = sol.c[1], sol.d[1]
    eps = np.finfo(float).eps
    with mp.workdps(50):
        L = mp.mpf(float(ell))
        S, C = mp.sinh(mp.pi / L), mp.cosh(mp.pi / L)
        for part in ("real", "imag"):
            c, d = mp.mpf(getattr(c1, part)), mp.mpf(getattr(d1, part))
            for name, sign in (("lambda", -1), ("rho", 1)):
                want = L * (d * C + sign * c * S) / (4 * mp.pi)
                got = float(rows[1][f"{name}_{part[:2]}"])
                assert abs(got - want) <= 4 * eps * abs(want), (name, part)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("argv", [
    "modes --s 1e308 --modes 3",
    "sweep --param s --from 1 --to 1e308 --steps 3",
])
def test_commands_print_finite_cells_at_the_top_of_the_s_range(argv, capsys):
    # pi n s passes the largest double: the mode argument is inf, the
    # sampler drops the mode and the determinant takes its s -> inf value
    code = cli.main(argv.split())
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    rows = list(csv.DictReader(io.StringIO(captured.out)))
    assert len(rows) == (4 if argv.startswith("modes") else 3)
    assert all(math.isfinite(float(v)) for row in rows for k, v in row.items() if k != "param")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("argv, message", [
    ("sweep --param s --from 1 --to 1e308 --steps 3 --ell 0.5",
     "conformal_modulus at s = 1e+308 is inf, not a finite double (ell = 0.5, s = 1e+308, a = 1.0)"),
    ("sweep --param s --from 1 --to 1e307 --steps 3 --ell 1e5",
     "boundary_rel_err at s = 5e+306 is nan, not a finite double (ell = 100000.0, s = 5e+306, a = 1.0)"),
])
def test_sweep_exits_2_with_no_numpy_warning_where_its_numbers_overflow(argv, message, capsys):
    # the modulus divides an overflowing s by ell, and the closed boundary
    # term and its quadrature are both infinite: the family numbers run
    # under np.errstate, as verify's and chart's do, and the first
    # non-finite cell is named by one error line
    code = cli.main(argv.split())
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", f"error: {message}\n")


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_verify_and_sweep_print_finite_closed_terms_where_ell_squared_overflows(capsys):
    # ell^2 passes the double range above ell = 1.34e154: the closed series
    # and the per-mode rows scale ell by a power of two before squaring it,
    # so the closed terms and det_min are finite, with no numpy warning
    code = cli.main(["verify", "--ell", "1e160"])
    captured = capsys.readouterr()
    assert code in (0, 1) and captured.err == ""
    reports = {r["identity"]: r for r in json.loads(captured.out)["reports"]}
    for name in ("boundary_term_closed_vs_quadrature", "extended_boundary_closed_vs_quadrature", "master_identity"):
        report = reports[name]
        assert all(math.isfinite(x) for x in (report["lhs"], report["rhs"], report["abs_err"])), name
        assert all(math.isfinite(term["value"]) for term in report["terms"]), name
    assert 0.0 < reports["per_mode_determinant_floor"]["lhs"] < 1.0
    code = cli.main("sweep --param ell --from 1 --to 1e160 --steps 3".split())
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    rows = list(csv.DictReader(io.StringIO(captured.out)))
    assert len(rows) == 3
    assert all(math.isfinite(float(row[k])) for row in rows for k in ("det_min", "boundary_rel_err"))


def test_modes_exits_2_where_the_dtn_denominator_underflows(capsys):
    # 2 mu gd a underflows to 0 at a = 8.8e-320, and so does the n >= 1
    # denominator of seam_dtn: the -inf comes with no warning
    argv = "modes --ell 51306403436.29866 --s 953226.9454420945 --a 8.7776e-320 --outer-bc dirichlet --modes 64"
    code = cli.main(argv.split())
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == (
        "error: dtn at n = 0 is -inf, not a finite double (ell = 51306403436.29866, s = 953226.9454420945, a = 8.7776e-320)\n"
    )


def _reject_non_finite(token):
    raise AssertionError(f"non-finite number {token} in the output")


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_verify_stays_finite_where_cosh_overflows(capsys):
    # pi n s / ell reaches 2011 at n = 256; the samplers drop the modes above
    # 355, where cosh^2 overflows
    code, out = run(["verify", "--ell", "8", "--s", "20", "--a", "1", "--modes", "256"], capsys)
    assert code == 0
    reports = json.loads(out, parse_constant=_reject_non_finite)["reports"]
    assert all(r["pass"] for r in reports)
    for r in reports:
        values = [r["lhs"], r["rhs"], r["abs_err"], r["rel_err"], *(t["value"] for t in r["terms"])]
        assert all(math.isfinite(v) for v in values), r["identity"]


@pytest.mark.parametrize("outer", ["dirichlet", "neumann"])
def test_master_identities_fail_where_the_strip_quadrature_cancels(outer, capsys):
    # from a = 23 the unit profiles of the modes n >= 1 cancel on the
    # quadrature grid and the strip energy goes wrong while keeping its
    # sign; the equality with the closed boundary term catches it, at a = 21
    # every check holds (at a = 22 only the Green check fails)
    code, _ = run(["verify", "--a", "21", "--outer-bc", outer], capsys)
    assert code == 0
    for a in ("23", "30", "50"):
        code, out = run(["verify", "--a", a, "--outer-bc", outer], capsys)
        assert code == 1
        reports = {r["identity"]: r for r in json.loads(out, parse_constant=_reject_non_finite)["reports"]}
        master = reports["master_identity"]
        assert not master["pass"], a
        assert dict((t["label"], t["value"]) for t in master["terms"])["hyperbolic_energy"] < 0.0


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("outer", ["dirichlet", "neumann"])
@pytest.mark.parametrize("a", ["400", "700"])
def test_verify_past_cosh_squared_overflow_prints_finite_failing_reports(a, outer, capsys):
    # cosh(a)^2 overflows past a = 354.9: the unit solve takes its constants
    # from exp(-a), so the reports stay finite, no warning is printed, and
    # the checks that read the strip energy fail on its value
    code = cli.main(["verify", "--a", a, "--outer-bc", outer])
    captured = capsys.readouterr()
    assert code == 1 and captured.err == ""
    reports = {r["identity"]: r for r in json.loads(captured.out, parse_constant=_reject_non_finite)["reports"]}
    assert [name for name, r in reports.items() if not r["pass"]] == ["master_identity", "strip_greens_identity"]


def test_verify_reports_the_mode_counts_kept(capsys):
    # pi n s / ell <= 354.9 keeps n <= 45 of the 256 requested modes
    code, out = run(["verify", "--ell", "8", "--s", "20", "--a", "1", "--modes", "256"], capsys)
    assert code == 0
    counts = json.loads(out)["mode_counts"]
    assert counts == {"field": 45, "quadratic_differential": 45}


def test_verify_resolves_the_seam_layer_and_the_stencil_bound(capsys):
    # a = 10 at ell = 1 puts a seam layer of width 1/mu into a wide strip;
    # ell = 2 leaves a stencil residual of 5.6e-6, inside its truncation bound
    code, out = run(["verify", "--ell", "1", "--a", "10", "--modes", "64"], capsys)
    assert code == 0
    reports = {r["identity"]: r for r in json.loads(out)["reports"]}
    assert reports["strip_greens_identity"]["lhs"] <= 1e-12
    code, out = run(["verify", "--ell", "2"], capsys)
    assert code == 0
    stencil = {r["identity"]: r for r in json.loads(out)["reports"]}["interior_harmonicity_stencil"]
    assert 0.0 < stencil["lhs"] <= stencil["bound"] == stencil["tol"]
    assert "h = ell/256" in stencil["notes"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_modes_prints_zero_for_dropped_modes(capsys):
    # 2 pi n passes 355 at n = 57
    code, out = run(["modes", "--ell", "0.5", "--a", "10", "--modes", "256"], capsys)
    assert code == 0
    assert "nan" not in out.lower()
    rows = list(csv.DictReader(io.StringIO(out)))
    assert float(rows[56]["dirichlet_left_re"]) != 0.0
    assert all(float(v) == 0.0 for r in rows[57:] for k, v in r.items() if k not in ("n", "dtn"))


def test_bad_config_path_exits_2(capsys):
    assert cli.main(["verify", "--config", "/nonexistent/path.cfg"]) == 2


def test_malformed_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("ell 6.28\n")
    assert cli.main(["verify", "--config", str(bad)]) == 2
    unknown = tmp_path / "unknown.cfg"
    unknown.write_text("wavelength = 6.28\n")
    assert cli.main(["verify", "--config", str(unknown)]) == 2
    undecodable = tmp_path / "undecodable.cfg"
    undecodable.write_bytes(b"ell = 2\n\xff\n")
    capsys.readouterr()
    assert cli.main(["chart", "--config", str(undecodable)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read config {undecodable}: ") and err.count("\n") == 1
    # open() raises ValueError, not OSError, on a path with a NUL in it
    assert cli.main(["chart", "--config", "run\x00.cfg"]) == 2
    assert capsys.readouterr().err == "error: cannot read config run\x00.cfg: embedded null byte\n"


def test_invalid_values_exit_2(capsys):
    assert cli.main(["verify", "--ell", "-1"]) == 2
    assert cli.main(["verify", "--tol", "0"]) == 2
    assert cli.main(["sweep", "--param", "ell"]) == 2  # missing --from/--to


def test_unknown_command_exits_2(capsys):
    assert cli.main(["frobnicate"]) == 2


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("ell = 4.0\ns = 0.5  # comment\na = 1.5\n")
    code, out = run(["chart", "--config", str(cfg), "--s", "2.0"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["ell"] == 4.0
    assert payload["s"] == 2.0  # flag wins over the file
    assert payload["a"] == 1.5


def test_chart_json_fields(capsys):
    argv = ["chart", "--ell", "6.0", "--s", "1.5", "--a", "2.0", "--outer-bc", "neumann"]
    code, out = run(argv, capsys)
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"a", "conformal_modulus", "ell", "grafted_length", "outer_bc", "s", "total_area"}
    assert (payload["ell"], payload["s"], payload["a"], payload["outer_bc"]) == (6.0, 1.5, 2.0, "neumann")


def test_chart_exits_2_where_the_total_area_overflows(capsys):
    # 2 ell sinh a overflows a double from a = 710.5 on: no JSON number is
    # infinite, so chart names it in one line, with no numpy warning first
    code = cli.main(["chart", "--a", "720"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == (
        "error: total_area is inf, not a finite double (ell = 6.283185307179586, s = 1.0, a = 720.0)\n"
    )
    code = cli.main(["chart", "--a", "700"])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    assert captured.out == (
        '{\n  "a": 700.0,\n  "conformal_modulus": 0.6591549430918954,\n  "ell": 6.283185307179586,\n'
        '  "grafted_length": 6.283185307179586,\n  "outer_bc": "dirichlet",\n  "s": 1.0,\n'
        '  "total_area": 6.372607944381542e+304\n}\n'
    )


@pytest.mark.parametrize("outer", ["dirichlet", "neumann"])
@pytest.mark.parametrize("a", ["720", "1e4"])
def test_verify_exits_2_where_the_total_area_overflows(a, outer, capsys):
    # past the overflow of 2 ell sinh a the strip quadratures overflow too:
    # verify names the total area by the report field that prints it, with
    # no numpy warning
    code = cli.main(["verify", "--a", a, "--outer-bc", outer])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == (
        "error: total_area_closed_vs_quadrature lhs is inf, not a finite double"
        f" (ell = 6.283185307179586, s = 1.0, a = {float(a)!r})\n"
    )


@pytest.mark.parametrize("a", ["1e6", "1e300"])
def test_verify_exits_2_on_the_closed_area_before_any_strip_grid(a, monkeypatch, capsys):
    # the strip grids have a unit-width panel per unit of a, so the closed
    # total area is gated before any draw or quadrature builds one
    def no_grid(*args):
        raise AssertionError("a strip grid was built")

    monkeypatch.setattr(geometry, "_panel_edges", no_grid)
    code = cli.main(["verify", "--a", a])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == (
        "error: total_area_closed_vs_quadrature lhs is inf, not a finite double"
        f" (ell = 6.283185307179586, s = 1.0, a = {float(a)!r})\n"
    )


def test_verify_builds_the_chart_grid_and_the_strip_grid(monkeypatch, capsys):
    # the grid builder that the test above replaces: a plain verify builds
    # the chart's quadrature grid, at mu_max = 0, and the strip profiles'
    # grid, at the largest mu of the field's 8 modes, 2 pi 8 / ell = 8 on
    # the default chart
    grids = []
    panel_edges = geometry._panel_edges
    monkeypatch.setattr(geometry, "_panel_edges", lambda a, mu_max: grids.append((a, mu_max)) or panel_edges(a, mu_max))
    code, _ = run(["verify"], capsys)
    assert code == 0
    assert sorted(grids) == [(1.0, 0.0), (1.0, 8.0)]


@pytest.mark.parametrize("outer", ["dirichlet", "neumann"])
@pytest.mark.parametrize("ell, a", [(0.3, 706.0), (0.3, 708.0), (0.3, 709.9), (0.3, 710.4), (2.0, 708.0), (2.0, 709.0)])
def test_verify_exits_2_where_the_strip_quadrature_overflows(ell, a, outer, capsys):
    # below the total-area overflow, mu sinh xi overflows in the strip pass
    # (and from a = 709.9 at ell = 0.3 the area quadrature too): verify
    # stops with one message naming the strip energy, the first it prints,
    # and no numpy warning, which would fail here
    code = cli.main(["verify", "--ell", repr(ell), "--a", repr(a), "--outer-bc", outer])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == f"error: hyperbolic_energy is inf, not a finite double (ell = {ell!r}, s = 1.0, a = {a!r})\n"


def test_chart_exits_2_where_the_conformal_modulus_overflows(capsys):
    # (2 gd a + s) / ell passes the double range at a subnormal ell
    code = cli.main(["chart", "--ell", "1e-310", "--s", "1"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == "error: conformal_modulus is inf, not a finite double (ell = 1e-310, s = 1.0, a = 1.0)\n"


def test_modes_exits_2_naming_the_cell_past_the_double_range(capsys):
    # at a subnormal a the outer-Dirichlet DtN values, about -1/a, are -inf:
    # modes names the first by its column and row; the Neumann ones are finite
    code = cli.main(["modes", "--ell", "1", "--a", "1e-310", "--modes", "2"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == "error: dtn at n = 0 is -inf, not a finite double (ell = 1.0, s = 1.0, a = 1e-310)\n"
    code = cli.main(["modes", "--ell", "1", "--a", "1e-310", "--modes", "2", "--outer-bc", "neumann"])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    assert captured.out.splitlines()[1].startswith("0,-2e-310,")


def test_sweep_exits_2_naming_the_swept_value_and_chart_of_the_row(monkeypatch, capsys):
    # every sweep cell the package computes is finite where a stays a
    # positive double, so the non-finite det_min of the first row is planted
    floor = identities.determinant_floor
    monkeypatch.setattr(identities, "determinant_floor", lambda *args: floor(*args) * [math.nan, 1.0, 1.0])
    code = cli.main(["sweep", "--param", "a", "--from", "1e-310", "--to", "1", "--steps", "3", "--ell", "1"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == "error: det_min at a = 1e-310 is nan, not a finite double (ell = 1.0, s = 1.0, a = 1e-310)\n"


def _sweep_rows(args, capsys):
    code, out = run(args, capsys)
    assert code == 0
    return list(csv.DictReader(io.StringIO(out)))


def test_sweep_modulus_monotone_in_ell(capsys):
    rows = _sweep_rows(
        ["sweep", "--param", "ell", "--from", "2", "--to", "8", "--steps", "4"], capsys
    )
    assert len(rows) == 4
    mods = [float(r["conformal_modulus"]) for r in rows]
    # wider circumference means a relatively thinner collar
    assert all(b < a for a, b in zip(mods, mods[1:]))
    assert all(float(r["boundary_rel_err"]) < 1e-8 for r in rows)


def test_sweep_modulus_monotone_in_s(capsys):
    rows = _sweep_rows(
        ["sweep", "--param", "s", "--from", "0.5", "--to", "3", "--steps", "4"], capsys
    )
    mods = [float(r["conformal_modulus"]) for r in rows]
    assert all(b > a for a, b in zip(mods, mods[1:]))


def test_sweep_single_step(capsys):
    rows = _sweep_rows(
        ["sweep", "--param", "a", "--from", "1", "--to", "1", "--steps", "1"], capsys
    )
    assert len(rows) == 1
    assert rows[0]["param"] == "a"


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("param, lo, hi", [("a", "1e-300", "1"), ("ell", "1e-160", "1e-150")])
def test_sweep_det_min_stays_finite_on_thin_strips_and_short_circles(param, lo, hi, capsys):
    # the per-mode rows pass 1e154 at the first point of each sweep
    code = cli.main(["sweep", "--param", param, "--from", lo, "--to", hi, "--steps", "3"])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    assert all(0.0 < float(r["det_min"]) <= 1.0 for r in csv.DictReader(io.StringIO(out)))


#: verify's checks whose numbers read a seam pair (ROADMAP item 13)
_SEAM_CHECKS = ("boundary_term_closed_vs_quadrature", "extended_boundary_closed_vs_quadrature", "area_derivative")


@pytest.mark.parametrize("outer", ["dirichlet", "neumann"])
@pytest.mark.parametrize("s", ["1e-6", "1e-3"])
@pytest.mark.parametrize("ell", ["1e5", "1e8", "1e10"])
def test_seam_checks_pass_where_s_is_small_beside_ell(ell, s, outer, capsys):
    # the seam pairs are held as even and odd parts, so no seam quantity is
    # a difference of the two seams; the exit code is not asserted, as the
    # determinant floor fails from ell 1e8 (ROADMAP item 6)
    _, out = run(["verify", "--ell", ell, "--s", s, "--outer-bc", outer], capsys)
    reports = {r["identity"]: r for r in json.loads(out)["reports"]}
    failing = {name: reports[name]["abs_err"] for name in _SEAM_CHECKS if not reports[name]["pass"]}
    assert failing == {}


def test_sweep_boundary_error_stays_at_rounding_level_where_s_is_small_beside_ell(capsys):
    code, out = run("sweep --param ell --from 1e5 --to 1e8 --steps 4 --s 1e-6".split(), capsys)
    assert code == 0
    errors = [float(row["boundary_rel_err"]) for row in csv.DictReader(io.StringIO(out))]
    assert len(errors) == 4 and max(errors) <= 1e-12


def test_modes_csv_shape(capsys):
    code, out = run(["modes", "--modes", "3"], capsys)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [int(r["n"]) for r in rows] == [0, 1, 2, 3]
    assert all(float(r["dtn"]) < 0 for r in rows)


def _one_point_row(param, value, ell, s, a, outer_bc, modes, seed):
    """A sweep row from one-point calls of the functions the sweep batches."""
    rng = np.random.default_rng(seed)
    sol = sampling.random_solution(rng, ell, s, nmax=modes)
    means = sampling.slice_compatible_means(rng, s, sol.d0)
    v = variation.solve_flat_variation(sol.neumann_trace_flat(identities.PARTS), np.asarray(means))
    closed = identities.boundary_term_closed(sol, v)
    quad = identities.boundary_term_quadrature(sol.dirichlet_trace(identities.PARTS), variation.hyperbolic_neumann(v))
    values = [
        value,
        ell,
        s,
        a,
        geometry.conformal_modulus(geometry.GraftedCollar(ell=ell, s=s, a=a, outer_bc=outer_bc)),
        identities.determinant_floor(modes, ell, s, a, outer_bc),
        abs(closed - quad) / max(abs(closed), abs(quad), 1e-300),
        identities.slice_residual(sol, v),
    ]
    return [param, *(repr(float(v)) for v in values)]


@pytest.mark.parametrize(
    "point, param, lo, hi, steps",
    [
        # s = 0 and, at ell = 0.25, modes dropped where cosh would overflow
        (dict(ell=0.25, s=1.0, a=1.0, outer_bc="dirichlet", modes=8, seed=0), "s", 0.0, 20.0, 10),
        (dict(ell=3.0, s=2.0, a=1.0, outer_bc="neumann", modes=4, seed=5), "a", 0.1, 10.0, 7),
        # from ell = 1 to past spectral.LARGE_ELL, where ell^2 overflows: the
        # family scales ell by a power of two at those points only
        (dict(ell=1.0, s=1.0, a=1.0, outer_bc="dirichlet", modes=8, seed=0), "ell", 1.0, 1e160, 3),
        # 64 modes: the field and det_min take every one of them
        (dict(ell=2 * np.pi, s=1.0, a=1.0, outer_bc="dirichlet", modes=64, seed=0), "ell", 0.5, 2.0, 3),
    ],
)
def test_sweep_rows_equal_the_one_point_calls(point, param, lo, hi, steps, capsys):
    argv = ["sweep", "--param", param, "--from", repr(lo), "--to", repr(hi), "--steps", str(steps)]
    argv += [f"--{k.replace('_', '-')}={v}" for k, v in point.items() if k != param]
    code, out = run(argv, capsys)
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert len(rows) == steps
    for row, value in zip(rows, np.linspace(lo, hi, steps)):
        expected = _one_point_row(param, float(value), **{**point, param: float(value)})
        assert row == expected
    if param == "s":
        # the premise: s = 0 is a point, and the last point drops modes
        assert rows[0][3] == "0.0"
        assert sampling.random_solution(np.random.default_rng(0), 0.25, 20.0).c.shape[-1] < 9


#: the parameter box of the property tests; a reaches far past sinh's overflow
_BOX = {"ell": (0.25, 16.0), "s": (0.0, 20.0), "a": (0.1, 1e4)}
_box = dict(**{k: st.floats(*v) for k, v in _BOX.items()}, outer_bc=st.sampled_from(["dirichlet", "neumann"]))


def _csv_cells(command, ell, s, a, outer_bc, *argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):  # an escaping exception fails the test
        code = cli.main([command, "--ell", repr(ell), "--s", repr(s), "--a", repr(a), "--outer-bc", outer_bc, *argv])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out.getvalue())))
    return {k: np.array([r[k] for r in rows], dtype=float) for k in rows[0] if k != "param"}


@settings(max_examples=40, deadline=None, derandomize=True)
@given(**_box, modes=st.integers(1, 512))
def test_modes_prints_finite_cells_and_negative_dtn_across_the_box(ell, s, a, outer_bc, modes):
    cells = _csv_cells("modes", ell, s, a, outer_bc, "--modes", str(modes))
    assert all(np.isfinite(col).all() and len(col) == modes + 1 for col in cells.values())
    assert np.all(cells["dtn"] < 0)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(**_box, modes=st.sampled_from([2, 4, 8]), param=st.sampled_from(sorted(_BOX)),
       ends=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)), steps=st.integers(1, 20))
def test_sweep_prints_finite_cells_and_a_unit_det_min_across_the_box(ell, s, a, outer_bc, modes, param, ends, steps):
    lo, hi = _BOX[param]
    span = [repr(lo + (hi - lo) * u) for u in ends]
    cells = _csv_cells("sweep", ell, s, a, outer_bc, "--modes", str(modes), "--param", param,
                       "--from", span[0], "--to", span[1], "--steps", str(steps))
    assert all(np.isfinite(col).all() and len(col) == steps for col in cells.values())
    assert np.all((cells["det_min"] > 0) & (cells["det_min"] <= 1))


#: ROADMAP item 14's quadrant, as exponents of 10: log-uniform ell, s and a,
#: with s = 0 and a subnormal a (exponents -320 to -300) a fifth of the time
_QUADRANT = {"ell": (-12.0, 12.0), "s": (-6.0, 6.0), "a": (-12.0, 3.0)}


@st.composite
def _quadrant_value(draw, param):
    if param == "s" and draw(st.integers(0, 4)) == 0:
        return 0.0
    lo, hi = (-320.0, -300.0) if param == "a" and draw(st.integers(0, 4)) == 0 else _QUADRANT[param]
    return 10.0 ** draw(st.floats(lo, hi))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data(), command=st.sampled_from(["chart", "modes", "sweep"]),
       outer_bc=st.sampled_from(["dirichlet", "neumann"]))
def test_commands_print_finite_numbers_or_exit_2_across_the_quadrant(data, command, outer_bc):
    # chart, modes and sweep either print only finite numbers with an empty
    # stderr, or exit 2 with one error: line and nothing printed; verify
    # joins once the strip profiles (item 1) and seam pairs (item 13) hold
    # across the quadrant, and geodesic after item 4
    argv = [command, "--outer-bc", outer_bc]
    for key in _QUADRANT:
        argv += [f"--{key}", repr(data.draw(_quadrant_value(key), label=key))]
    if command == "sweep":
        param = data.draw(st.sampled_from(sorted(_QUADRANT)), label="param")
        ends = [repr(data.draw(_quadrant_value(param), label=end)) for end in ("from", "to")]
        argv += ["--param", param, "--from", ends[0], "--to", ends[1], "--steps", str(data.draw(st.integers(1, 5)))]
        argv += ["--modes", str(data.draw(st.sampled_from([2, 4, 8]), label="modes"))]
    elif command == "modes":  # chart reads no mode count
        argv += ["--modes", str(data.draw(st.sampled_from([1, 8, 64]), label="modes"))]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(argv)
    if code == 2:
        assert out.getvalue() == ""
        assert len(err.getvalue().splitlines()) == 1 and err.getvalue().startswith("error: ")
        return
    assert (code, err.getvalue()) == (0, "")
    if command == "chart":
        numbers = [v for v in json.loads(out.getvalue(), parse_constant=_reject_non_finite).values()
                   if not isinstance(v, str)]
    else:
        rows = list(csv.DictReader(io.StringIO(out.getvalue())))
        numbers = [float(v) for row in rows for k, v in row.items() if k != "param"]
    assert all(math.isfinite(v) for v in numbers)


def test_sweep_over_an_invalid_value_exits_2(capsys):
    code = cli.main(["sweep", "--param", "a", "--from", "-1", "--to", "1", "--steps", "5"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: need ell > 0, a > 0, s >= 0\n"


@pytest.mark.parametrize(
    "argv, key",
    [
        ("modes --a nan", "a"),
        ("verify --ell nan", "ell"),
        ("verify --tol inf", "tol"),
        ("sweep --param s --from 0 --to nan", "to"),
        ("sweep --param a --from=-inf --to 1", "from"),
        ("chart --ell inf", "ell"),
        ("chart --s nan", "s"),
        ("geodesic --t nan", "t"),
    ],
)
def test_non_finite_values_exit_2(argv, key, capsys):
    # NaN fails every comparison, so the sign checks alone would let it through
    code = cli.main(argv.split())
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"error: {key} must be finite, got ")


def test_non_finite_config_file_value_exits_2(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text("s = -inf\n")
    assert cli.main(["verify", "--config", str(path)]) == 2
    assert capsys.readouterr().err == "error: s must be finite, got -inf\n"


def test_fd_step_is_not_an_option(tmp_path, capsys):
    assert cli.main(["geodesic", "--fd-step", "1e-6"]) == 2
    path = tmp_path / "run.cfg"
    path.write_text("fd_step = 1e-6\n")
    assert cli.main(["geodesic", "--config", str(path)]) == 2
    assert "unknown key 'fd_step'" in capsys.readouterr().err


#: sha256 of stdout, taken from the thread-pool sweep and the dict-based
#: modes table that the array passes replaced; the first sweep's hash was
#: taken again when the seam grid went from 4096 points to 64, which moved
#: five of its boundary_rel_err cells by at most 6e-16.  The other three were
#: taken again when seam_dtn moved to its overflow-free closed form, which
#: moved only DtN cells: det_min in rows a = 3.4, 5.05, 6.7, 8.35 of the
#: second sweep (at most 2.3e-16), 114 dtn cells of the first modes table
#: (at most 4.4e-16) and 179 of the second (at most 6.5e-16).  The two
#: sweeps' hashes were taken again when the seam pairs became even and odd
#: parts: only boundary_rel_err and slice_residual cells moved, 15 in the
#: first sweep and 14 in the second; slice_residual is now exactly 0 (the
#: sampler's odd mean part is the slice datum), and the modes tables are
#: byte-identical
_PINNED_CSV = {
    "sweep --param s --from 0 --to 20 --ell 0.25 --modes 8 --steps 20":
        "08bf42dd64069d1bc0dd87231d7cbf6ed784937a959d6ac1885699f7c742caf8",
    "sweep --param a --from 0.1 --to 10 --outer-bc neumann --modes 4 --steps 7 --seed 5":
        "b6b009245c5dd609af76358d6b6df515eed285ef048ca48f60baee6b2228548d",
    "modes --ell 0.5 --a 10 --modes 256":
        "070eeb7dec803dd5a9b0e807afbc7675ea5d04f76f5d6852be40f877be616774",
    "modes --ell 16 --s 0 --a 0.1 --outer-bc neumann --modes 256":
        "68be249ab21caae1e8c4c02431ff51240f801c17b54cba1f03989718019fad4a",
}


@pytest.mark.parametrize("argv", sorted(_PINNED_CSV))
def test_sweep_and_modes_csv_are_byte_reproducible(argv, capsys):
    code, out = run(argv.split(), capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _PINNED_CSV[argv]


def _canonical(out: str, drop=('"generated_at"',)) -> str:
    return "".join(ln for ln in out.splitlines(True) if not ln.lstrip().startswith(drop))


#: sha256 of stdout without its generated_at and bound lines, taken before
#: the verify suite moved from the command into identities.suite (and so
#: before any report had a bound): both outer conditions, s = 0 (the
#: stencil's "not applicable" branch), and 1, 8, 64 and 256 modes.  Taken
#: again when the slice condition and the extended master identity dropped
#: their literal ds/dt terms and the extended master's notes dropped the
#: linear-bound ratio and the lamination rewrite: only those two reports'
#: terms and notes moved, and every verdict field stayed bit-identical.
#: Taken again when area_derivative dropped its strip_integral_route and
#: outer_flux_correction terms and its note kept only the slice residual:
#: every other byte stayed.  Taken again when the seam pairs became even
#: and odd parts, and the strip sums read the parts: the last bits of the
#: strip energy, outer Green form and strip Green residual, of the boundary
#: quadratures and of the arc length moved (and the master identities'
#: totals and bounds with them), the slice residual in two notes at s = 0
#: became -0.000e+00, and every pass flag stayed.  Taken again when the
#: extended master identity and the zero-q reduction left the suite: only
#: their two report blocks went, and every other byte stayed.  Taken again
#: when config came to echo only the settings verify reads and mode_counts
#: dropped requested: only lines of those two blocks went
_PINNED_VERIFY = {
    "verify --modes 1": "7ba752140afccb493254f0c5b67e94dd5e9870204e28435f5afb188350860f95",
    "verify --s 0 --outer-bc neumann --seed 4": "684578de8f3a5e004a7ec7e059957a7ca8c00043ddd1794ff3235012be0559ad",
    "verify --ell 2 --a 3 --modes 64 --seed 7": "710ca73585da71858086639ebb8278d1d691c594938c655cf93a56e810483797",
    "verify --ell 8 --s 20 --a 1 --outer-bc neumann --modes 256 --seed 2":
        "6abe75fb755e5bbaf8da6bb8b9c3c71ca8b2fc7a9d8f8f8771e0d4b7c581ed19",
    "verify --ell 0.5 --s 3 --a 0.3 --modes 256 --seed 11":
        "74eba5b83db115795cc73946f4c7af33dff3d4edaff520466e53b01bb246e6c7",
}


@pytest.mark.parametrize("argv", sorted(_PINNED_VERIFY))
def test_verify_report_is_byte_reproducible(argv, capsys):
    code, out = run(argv.split(), capsys)
    assert code == 0
    canonical = _canonical(out, drop=('"generated_at"', '"bound"'))
    assert hashlib.sha256(canonical.encode()).hexdigest() == _PINNED_VERIFY[argv]


def test_verify_report_with_its_bounds_is_byte_reproducible(capsys):
    # sha256 of stdout without its generated_at line, taken when every
    # report gained its bound, and again each time the _PINNED_VERIFY
    # hashes were
    code, out = run(["verify", "--modes", "1"], capsys)
    assert code == 0
    assert hashlib.sha256(_canonical(out).encode()).hexdigest() == (
        "1e1ab32c90d034210677fbbaa0eb724fd06d3011a8cef8384bc89e17d0da4f71"
    )



def test_geodesic_report_is_byte_reproducible(capsys):
    # sha256 of stdout without its generated_at line, taken when the Newton
    # solve moved from scipy's hybr onto numpy (the half step's error moved
    # in its eighth digit), and again when config came to echo only the
    # settings geodesic reads (only lines of config went)
    code, out = run("geodesic --ell 1 --s 0.5 --a 0.5 --modes 1 --seed 0".split(), capsys)
    assert code == 0
    assert hashlib.sha256(_canonical(out).encode()).hexdigest() == (
        "87afb6f02a323cd97c8a30c6128f0d484031a883602b0b72aff6c87347601e2d"
    )


def test_geodesic_at_a_tiny_ell_prints_finite_errors_with_no_warning(capsys):
    # at ell 1e-170 the squares of the seam speeds overflowed, with numpy
    # warnings; np.hypot forms the speeds.  The half step's error is at the
    # rounding level there, so the first-order test fails and the line exits 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run("geodesic --ell 1e-170 --modes 1".split(), capsys)
    report = json.loads(out)
    assert code == 1 and report["pass"] is False
    assert math.isfinite(report["max_rel_err"]) and math.isfinite(report["max_rel_err_half_step"])


def test_geodesic_newton_failure_exits_1_with_its_message(capsys):
    # the quickest exit-1 line among the first 16 seed-1 geodesic benchmark
    # ops: its message names the residual and the accepted Newton steps
    argv = "geodesic --ell 0.283689 --s 17.0575 --a 6.96854 --outer-bc neumann --modes 2 --seed 15"
    code = cli.main(argv.split())
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "check failed: geodesic Newton failed (residual 2.62e-09 after 2 steps)\n"


@pytest.mark.parametrize("s", ["1e17", "1e300", "1e308"])
def test_geodesic_exits_2_where_s_over_2_plus_a_rounds_to_s_over_2(s, capsys):
    # the strips vanish against the insert in double precision, so a curve
    # near a seam has nowhere to move: one error line, before any numpy work
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["geodesic", "--s", s, "--a", "1", "--modes", "1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == (
        f"error: geodesic needs s/2 + a > s/2 in double precision, but s = {float(s)!r}, a = 1.0\n"
    )


def test_verify_computes_each_seam_trace_once(monkeypatch, capsys):
    calls = []
    for name in ("dirichlet_trace", "neumann_trace_flat"):
        original = getattr(spectral.FourierSolution, name)

        def counted(self, side, original=original, name=name):
            calls.append((name, side))
            return original(self, side)

        monkeypatch.setattr(spectral.FourierSolution, name, counted)
    code, _ = run(["verify", "--modes", "16"], capsys)
    assert code == 0
    # the main field's Dirichlet and Neumann data, each built once with its
    # even and odd parts on a leading axis, plus the stencil field's none
    assert sorted(calls) == [("dirichlet_trace", identities.PARTS), ("neumann_trace_flat", identities.PARTS)]


def test_sweep_synthesizes_each_seam_trace_once_on_64_points(monkeypatch, capsys):
    grids = []
    original = spectral.TraceModes.on_grid

    def counted(self, npts):
        grids.append(npts)
        return original(self, npts)

    monkeypatch.setattr(spectral.TraceModes, "on_grid", counted)
    argv = "sweep --param s --from 0.5 --to 20 --ell 8 --modes 8 --steps 20"
    code, _ = run(argv.split(), capsys)
    assert code == 0
    # the Dirichlet and Neumann data, each over both parts and all 20
    # points at once
    assert grids == [64] * 2


def test_parser_is_built_once():
    assert cli.make_parser() is cli.make_parser()


def test_verify_output_is_unchanged_by_commands_run_in_between(capsys):
    # kept seam grids and seam arrays belong to one field: a second run in
    # the same process, after other commands, prints the same report
    code, first = run(["verify", "--modes", "64"], capsys)
    assert code == 0
    assert run(["verify", "--modes", "64", "--seed", "9", "--s", "3"], capsys)[0] == 0
    assert run("sweep --param s --from 0.5 --to 20 --ell 8 --modes 8 --steps 20".split(), capsys)[0] == 0
    code, again = run(["verify", "--modes", "64"], capsys)
    assert code == 0
    assert _canonical(again) == _canonical(first)


def test_verify_synthesizes_three_seam_grids_and_evaluates_the_stencil_field_once(monkeypatch, capsys):
    synthesized, evaluated = [], []
    synthesize = spectral._synthesize
    evaluate = spectral.FourierSolution.evaluate

    def counted_synthesize(mean, coef, npts):
        synthesized.append(npts)
        return synthesize(mean, coef, npts)

    def counted_evaluate(self, x, y):
        evaluated.append((np.shape(x), np.shape(y)))
        return evaluate(self, x, y)

    monkeypatch.setattr(spectral, "_synthesize", counted_synthesize)
    monkeypatch.setattr(spectral.FourierSolution, "evaluate", counted_evaluate)
    code, _ = run(["verify", "--modes", "64"], capsys)
    assert code == 0
    # the Dirichlet data, the hyperbolic Neumann data and the amended one,
    # each over both parts on the one 256-point grid; the arc length reads
    # the left grid as the even grid minus the odd one, and the extended
    # quadrature reuses the Dirichlet grids
    assert synthesized == [256] * 3
    # the stencil field, once, on the open tensor grid of 3 x 16 by 3 x 32 points
    assert evaluated == [((48, 1), (96,))]


def test_verify_computes_each_shared_quantity_once(monkeypatch, capsys):
    calls = []

    def spy(owner, name):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    spy(hypersolve, "strip_sums")
    spy(hypersolve, "solve_modes")
    spy(identities, "boundary_term_closed")
    spy(identities, "extended_boundary_term")
    spy(variation, "solve_flat_variation")
    terms = spectral.FourierSolution.__dict__["cylinder_terms"].func

    def counted_terms(self):
        calls.append("cylinder_terms")
        return terms(self)

    prop = functools.cached_property(counted_terms)
    prop.__set_name__(spectral.FourierSolution, "cylinder_terms")
    monkeypatch.setattr(spectral.FourierSolution, "cylinder_terms", prop)
    code, _ = run(["verify", "--modes", "64"], capsys)
    assert code == 0
    # the strip modes and sums once per configuration, the series terms
    # once per field, the closed and the amended boundary terms once each,
    # and one flat variation for both seam parts
    assert collections.Counter(calls) == {
        "strip_sums": 1,
        "solve_modes": 1,
        "boundary_term_closed": 1,
        "extended_boundary_term": 1,
        "solve_flat_variation": 1,
        "cylinder_terms": 1,
    }


def _raise_domain_error(*args, **kwargs):
    raise DomainError("injected failure")


def test_verify_keeps_every_report_when_one_identity_raises(monkeypatch, capsys):
    code, out = run(["verify", "--modes", "16"], capsys)
    assert code == 0
    names = [r["identity"] for r in json.loads(out)["reports"]]
    monkeypatch.setattr(identities, "master_identity", _raise_domain_error)
    code, out = run(["verify", "--modes", "16"], capsys)
    assert code == 1
    reports = json.loads(out)["reports"]
    assert len(names) == 11
    assert [r["identity"] for r in reports] == names
    failing = [r for r in reports if not r["pass"]]
    assert [r["identity"] for r in failing] == ["master_identity"]
    assert failing[0]["notes"] == "error: DomainError: injected failure"


def test_green_check_is_unchanged_when_the_master_identity_raises(monkeypatch, capsys):
    # the Green check scales by the strip energy itself, not by a term of
    # the master report, so it reads the same whether that report exists
    code, out = run(["verify"], capsys)
    assert code == 0
    before = {r["identity"]: r for r in json.loads(out)["reports"]}
    monkeypatch.setattr(identities, "master_identity", _raise_domain_error)
    code, out = run(["verify"], capsys)
    assert code == 1
    after = {r["identity"]: r for r in json.loads(out)["reports"]}
    assert [name for name, r in after.items() if not r["pass"]] == ["master_identity"]
    assert json.dumps(after["strip_greens_identity"]) == json.dumps(before["strip_greens_identity"])


#: a function that verify's checks read, by its module and name, and the
#: check that catches its output scaled by 1 + 1e-9 on the default chart.
#: mean_gap's catcher is area_derivative alone: slice_condition, which
#: area_derivative is ell times, misses it, as its bound does not scale
#: with ell
_CATCHERS = {
    (identities, "_mixed_series"): "extended_boundary_closed_vs_quadrature",
    (identities, "extended_boundary_term"): "extended_boundary_closed_vs_quadrature",
    (variation, "amend_variation"): "extended_boundary_closed_vs_quadrature",
    (identities, "boundary_term_closed"): "boundary_term_closed_vs_quadrature",
    (variation, "hyperbolic_neumann"): "boundary_term_closed_vs_quadrature",
    (variation, "solve_flat_variation"): "boundary_term_closed_vs_quadrature",
    (identities, "mean_gap"): "area_derivative",
    (geometry, "total_area"): "total_area_closed_vs_quadrature",
    (geometry, "total_area_quadrature"): "total_area_closed_vs_quadrature",
    (geometry, "conformal_modulus"): "conformal_modulus_closed_vs_quadrature",
    (geometry, "conformal_modulus_quadrature"): "conformal_modulus_closed_vs_quadrature",
}


@pytest.mark.parametrize(
    "owner, name", [pytest.param(*key, id=key[1]) for key in sorted(_CATCHERS, key=lambda key: key[1])]
)
def test_verify_catches_a_relative_defect_of_1e_9(owner, name, monkeypatch, capsys):
    original = getattr(owner, name)

    def scaled(*args, **kwargs):
        out = original(*args, **kwargs)
        if isinstance(out, spectral.TraceModes):
            return dataclasses.replace(out, mean=out.mean * (1.0 + 1e-9), coef=out.coef * (1.0 + 1e-9))
        return out * (1.0 + 1e-9)

    # patched in its own module, where every caller looks it up
    monkeypatch.setattr(owner, name, scaled)
    code, out = run(["verify"], capsys)
    failing = [r["identity"] for r in json.loads(out)["reports"] if not r["pass"]]
    assert code == 1 and _CATCHERS[owner, name] in failing, failing


def test_verify_error_before_any_report_exits_1_with_no_report(monkeypatch, capsys):
    monkeypatch.setattr(identities, "solve_configuration", _raise_domain_error)
    code = cli.main(["verify"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "check failed: injected failure\n"
