import csv
import io
import json

import pytest

from graftlab import cli


def run(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr().out
    return code, out


def test_verify_passes_and_reports(capsys):
    code, out = run(["verify", "--seed", "3"], capsys)
    assert code == 0
    payload = json.loads(out)
    reports = payload["reports"]
    assert len(reports) >= 12
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


def test_bad_config_path_exits_2(capsys):
    assert cli.main(["verify", "--config", "/nonexistent/path.cfg"]) == 2


def test_malformed_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("ell 6.28\n")
    assert cli.main(["verify", "--config", str(bad)]) == 2
    unknown = tmp_path / "unknown.cfg"
    unknown.write_text("wavelength = 6.28\n")
    assert cli.main(["verify", "--config", str(unknown)]) == 2


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
    code, out = run(["chart", "--ell", "6.0", "--s", "1.0", "--a", "1.0"], capsys)
    assert code == 0
    payload = json.loads(out)
    for key in ("conformal_modulus", "total_area", "grafted_length"):
        assert key in payload


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


def test_modes_csv_shape(capsys):
    code, out = run(["modes", "--modes", "3"], capsys)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [int(r["n"]) for r in rows] == [0, 1, 2, 3]
    assert all(float(r["dtn"]) < 0 for r in rows)
