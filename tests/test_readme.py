"""README.md is the user's contract: its install line, synopsis, flag table,
output schema, bound table and layout are checked here against the code and
the commands' own output."""
import ast
import contextlib
import io
import json
import math
import pkgutil
import re
from pathlib import Path

import pytest

import graftlab
from graftlab import cli, identities

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()

#: one command line per output the README describes; geodesic is CI's cheap line
_RUNS = {
    "verify": ["verify"],
    "verify_tight": ["verify", "--tol", "1e-14"],
    "sweep": ["sweep", "--param", "a", "--from", "0.5", "--to", "2", "--steps", "3"],
    "chart": ["chart"],
    "modes": ["modes", "--modes", "2"],
    "geodesic": ["geodesic", "--ell", "1", "--s", "0.5", "--a", "0.5", "--modes", "1"],
}


def _section(title: str) -> list[str]:
    """The lines of the README section under '## title', up to the next heading."""
    lines = README.splitlines()
    start = lines.index(f"## {title}") + 1
    end = next((i for i in range(start, len(lines)) if lines[i].startswith("## ")), len(lines))
    return lines[start:end]


def _table(title: str) -> list[list[str]]:
    """The body rows of the section's table, each a list of cells (escaped
    pipes kept inside their cell)."""
    rows = [line for line in _section(title) if line.startswith("|")]
    return [[cell.strip() for cell in re.split(r"(?<!\\)\|", row)[1:-1]] for row in rows[2:]]


def _code_block(title: str) -> list[str]:
    lines = _section(title)
    start = next(i for i, line in enumerate(lines) if line.startswith("```")) + 1
    end = next(i for i in range(start, len(lines)) if lines[i].startswith("```"))
    return lines[start:end]


def _ticked(cell: str) -> list[str]:
    return re.findall(r"`([^`]*)`", cell)


@pytest.fixture(scope="module")
def outputs() -> dict[str, str]:
    """The stdout of each line of _RUNS, each of which exits 0."""
    texts = {}
    for name, argv in _RUNS.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(argv) == 0, argv
        texts[name] = out.getvalue()
    return texts


def test_readme_is_at_most_120_lines_with_known_limits_of_at_most_4():
    assert len(README.splitlines()) <= 120
    assert len([line for line in _section("Known limits") if line.strip()]) <= 4


def test_install_line_is_the_ci_install_step():
    install = _code_block("Install and test")[0]
    assert install == 'pip install -e ".[test]"'
    assert f"run: {install}\n" in (ROOT / ".github" / "workflows" / "tier1.yml").read_text()


def test_flag_table_is_the_settings_table():
    rows = _table("Command line")
    flags = ["--config"] + ["--" + key.replace("_", "-") for key in cli._SETTINGS]
    assert [_ticked(row[0]) for row in rows] == [[flag] for flag in flags]
    defaults = cli.RunConfig()
    config = rows[0]
    assert (config[1], _ticked(config[2]), ast.literal_eval(_ticked(config[3])[0])) == ("all", ["str"], None)
    for row, (attr, kind, choices, _, readers) in zip(rows[1:], cli._SETTINGS.values()):
        assert row[1] == ("all" if readers == tuple(cli._COMMANDS) else ", ".join(readers)), row
        assert _ticked(row[2]) == (list(choices) if choices else [kind.__name__]), row
        assert ast.literal_eval(_ticked(row[3])[0]) == getattr(defaults, attr), row


def test_each_commands_help_lists_the_flags_whose_row_names_it(capsys):
    takes = {command: [] for command in cli._COMMANDS}
    for row in _table("Command line"):
        for command in cli._COMMANDS if row[1] == "all" else row[1].split(", "):
            takes[command] += _ticked(row[0])
    for command, flags in takes.items():
        assert cli.main([command, "--help"]) == 0
        assert re.findall(r"^  (--[\w-]+)", capsys.readouterr().out, re.MULTILINE) == flags, command
    assert sum(map(len, takes.values())) == 44


def test_every_synopsis_line_parses():
    lines = _code_block("Command line")
    assert sorted(line.split()[1] for line in lines) == sorted(cli._COMMANDS)
    for line in lines:
        argv = line.replace("[", " ").replace("]", " ").split()
        assert argv[0] == "graftlab"
        cli.make_parser()[0].parse_args(argv[1:])


#: each kind's bound and abs_err columns, then each as a function of one
#: report's fields; the decomposition's read sums that the report does not print
_KINDS = {
    "equality": (
        r"tol · max(1, \|lhs\|, \|rhs\|)", r"\|lhs − rhs\|",
        lambda r: r["tol"] * max(1.0, abs(r["lhs"]), abs(r["rhs"])), lambda r: abs(r["lhs"] - r["rhs"]),
    ),
    "decomposition": (
        r"tol · (Σ\|terms\| + \|closed\| + \|Green form\|)", r"max(\|lhs − rhs\|, that sum × sign violation)",
        None, None,
    ),
    "residual": ("tol", r"\|lhs\|", lambda r: r["tol"], lambda r: abs(r["lhs"])),
    "lower bound": (
        "tol", "max(0, next double above rhs − lhs)",
        lambda r: r["tol"], lambda r: max(0.0, math.nextafter(r["rhs"], math.inf) - r["lhs"]),
    ),
}
#: the tol column of the check judged at its own bound, the sum of its terms
_OWN_TOL = "truncation bound + rounding allowance"


def test_bound_table_is_the_check_table():
    rows = _table("Bounds of the verify checks")
    checks = list(identities.CHECKS.values())
    assert [_ticked(row[0]) for row in rows] == [[check.identity] for check in checks]
    for row, check in zip(rows, checks):
        kind = check.kind.__name__.strip("_").replace("_", " ")
        assert row[1] == kind and tuple(row[3:]) == _KINDS[kind][:2], row
        assert (row[2] == _OWN_TOL) == (check.tol(1.0) is None), row


@pytest.mark.parametrize("run, tol", [("verify", 1e-10), ("verify_tight", 1e-14)])
def test_bound_table_is_the_suite(outputs, run, tol):
    rows = _table("Bounds of the verify checks")
    reports = json.loads(outputs[run])["reports"]
    assert [_ticked(row[0]) for row in rows] == [[r["identity"]] for r in reports]
    for row, report in zip(rows, reports):
        if row[2] == _OWN_TOL:
            assert report["tol"] == sum(term["value"] for term in report["terms"]), row
        else:
            names = {"__builtins__": {}, "max": max, "tol": tol}
            assert report["tol"] == eval(_ticked(row[2])[0].replace("·", "*"), names), row
        bound, abs_err = _KINDS[row[1]][2:]
        if bound is not None:
            assert (report["bound"], report["abs_err"]) == (bound(report), abs_err(report)), row


def test_output_schema_is_what_the_commands_print(outputs):
    schema = {row[0]: _ticked(row[1]) for row in _table("Output schema")}
    verify = json.loads(outputs["verify"])
    assert schema["`verify`"] == list(verify)
    assert schema["`verify` config"] == list(verify["config"])
    assert schema["`verify` mode_counts"] == list(verify["mode_counts"])
    assert all(schema["`verify` report"] == list(report) for report in verify["reports"])
    assert schema["`sweep`"] == cli._SWEEP_FIELDS == outputs["sweep"].splitlines()[0].split(",")
    assert schema["`chart`"] == list(json.loads(outputs["chart"]))
    assert schema["`modes`"] == outputs["modes"].splitlines()[0].split(",")
    assert schema["`geodesic`"] == list(json.loads(outputs["geodesic"]))
    assert schema["`geodesic` config"] == list(json.loads(outputs["geodesic"])["config"])
    assert len(schema) == 9


def test_layout_has_one_line_per_module():
    lines = [line for line in _section("Layout") if line.strip()]
    names = [re.match(r"- `graftlab\.(\w+)`: \S", line).group(1) for line in lines]
    assert names == [module.name for module in pkgutil.iter_modules(graftlab.__path__)]
