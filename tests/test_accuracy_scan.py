"""scripts/accuracy_scan.py: the quadrant scan of verify and its per-draw
ratchet against the committed BENCH_accuracy.json."""
import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("accuracy_scan", ROOT / "scripts" / "accuracy_scan.py")
scan = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(scan)


@pytest.fixture(scope="module")
def short():
    return scan.scan(12, 11)


def test_a_short_scan_scores_every_draw(short):
    assert len(short["draws"]) == 12 and sum(short["exit_codes"].values()) == 12 and short["warned"] == 0
    assert sum(short["families"].values()) == short["exit_codes"].get("1", 0)
    assert json.loads(scan.dumps(short)) == short
    assert scan.worsened(short, short) == []


def _result(*draws):
    return {"draws": [{"command": f"verify {k}", "exit_code": code, "failing": failing, "warned": warned}
                      for k, (code, failing, warned) in enumerate(draws)]}


def test_the_ratchet_flags_each_draw_that_gets_worse_and_none_that_gets_better():
    floor, strip = "per_mode_determinant_floor", "strip_greens_identity"
    committed = _result((0, [], False), (1, [floor, strip], False), (2, [], False), (1, [strip], False))
    # the second draw moves from "floor + strip" to "floor", the third from
    # exit 2 to exit 1 with a failing check: each is better
    better = _result((0, [], False), (1, [floor], False), (1, [strip], False), (0, [], False))
    assert scan.worsened(better, committed) == []
    worse = _result((0, [], True), (1, [floor, strip, "area_derivative"], False), (2, [], False), (2, [], False))
    assert scan.worsened(worse, committed) == [
        "verify 0: exit 0 -> 0, warned False -> True, newly failing []",
        "verify 1: exit 1 -> 1, warned False -> False, newly failing ['area_derivative']",
        "verify 3: exit 1 -> 2, warned False -> False, newly failing []",
    ]
    assert scan.worsened(_result((0, [], False)), _result()) == ["verify 0: not in the committed scan"]


def test_check_compares_without_writing_over_the_committed_file(short, tmp_path, monkeypatch):
    monkeypatch.setattr(scan, "DRAWS", 12)
    committed = tmp_path / "committed.json"
    # not dumps's layout, so that a rewrite would show
    committed.write_text(json.dumps(short))
    assert scan.main(["--check", str(committed)]) == 0
    assert committed.read_text() == json.dumps(short)
    # a committed draw that passed every check where the scan fails some
    better = json.loads(json.dumps(short))
    k = next(k for k, r in enumerate(short["draws"]) if r["exit_code"] == 1)
    better["draws"][k].update(exit_code=0, failing=[])
    committed.write_text(json.dumps(better))
    assert scan.main(["--check", str(committed), "--out", str(tmp_path / "out.json")]) == 1
    assert committed.read_text() == json.dumps(better)
    assert json.loads((tmp_path / "out.json").read_text())["draws"] == short["draws"]


def test_check_fails_where_the_committed_checks_are_not_the_rows(short, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(scan, "DRAWS", 12)
    # the same draws, scored by a check table with one row renamed
    stale = json.loads(json.dumps(short))
    stale["checks"]["extended_master_identity"] = stale["checks"].pop("master_identity")
    committed = tmp_path / "committed.json"
    committed.write_text(json.dumps(stale))
    assert scan.main(["--check", str(committed)]) == 1
    assert capsys.readouterr().err == (
        "checks: rows added since the committed scan: ['master_identity']\n"
        "checks: rows removed since the committed scan: ['extended_master_identity']\n"
    )


def test_every_family_names_a_row_of_the_check_table():
    # a name that is no row would sort nothing into its family
    assert set(scan.FAMILIES) <= set(scan.identities.CHECKS)


def test_the_committed_scan_has_no_seam_failure_and_no_warning():
    # ROADMAP item 13: the seam pairs as even and odd parts; the ratchet
    # holds every draw to the committed one in CI
    committed = json.loads((ROOT / "BENCH_accuracy.json").read_text())
    assert (len(committed["draws"]), committed["seed"]) == (scan.DRAWS, scan.SEED)
    assert all(committed["checks"][name]["failures"] == 0 for name, family in scan.FAMILIES.items() if family == "seam")
    assert not any("seam" in families for families in committed["families"])
    assert committed["warned"] == 0 and not any(r["warned"] for r in committed["draws"])
