"""The command-line plumbing around the numbers: the report writer, the CSV
writer, the parser dispatch and the config checks."""
import contextlib
import csv
import io
import json
import math
import sys
from dataclasses import asdict
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graftlab import ConfigError, DomainError, cli, geometry, hypersolve, identities
from oracles import report_dict


def run(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _round_trips(out: str) -> bool:
    return out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


# --- the report writer ------------------------------------------------------

@pytest.mark.parametrize("argv", [[], ["--modes", "256", "--ell", "8", "--s", "20"], ["--s", "0", "--modes", "1"]])
def test_verify_report_is_json_dumps_layout(argv, capsys):
    code, out, _ = run(["verify", *argv], capsys)
    assert code == 0
    assert _round_trips(out)


def test_verify_report_written_to_a_non_ascii_path_is_json_dumps_layout(tmp_path, capsys):
    path = tmp_path / "bericht-ö-λ.json"
    assert cli.main(["verify", "--modes", "16", "--out", str(path)]) == 0
    assert capsys.readouterr().out == ""
    out = path.read_text()
    assert _round_trips(out)
    assert json.loads(out)["config"]["out"] == str(path)
    assert "\\u00f6" in out and "\\u03bb" in out


def _raise_domain_error(*args, **kwargs):
    raise DomainError("injected failure: ö")


def test_verify_error_report_is_json_dumps_layout_with_nan_tokens(monkeypatch, capsys):
    monkeypatch.setattr(identities, "master_identity", _raise_domain_error)
    code, out, _ = run(["verify"], capsys)
    assert code == 1
    assert _round_trips(out)
    report = next(r for r in json.loads(out)["reports"] if r["identity"] == "master_identity")
    assert report["terms"] == [] and math.isnan(report["lhs"])
    assert '"lhs": NaN,' in out and '"terms": [],' in out


#: the settings that verify reads, and so echoes in its config block
_VERIFY_SETTINGS = ("a", "ell", "modes", "out", "outer_bc", "s", "seed", "tol")


def _payload_json(cfg, generated_at, counts, reports) -> str:
    payload = {
        "generated_at": generated_at,
        "config": {name: value for name, value in asdict(cfg).items() if name in _VERIFY_SETTINGS},
        "mode_counts": counts,
        "reports": [report_dict(r) for r in reports],
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def test_report_writer_equals_json_dumps_of_the_payload():
    # the values as well as the layout: every field of every report, the
    # config fields that verify reads (int, float, str; sweep's settings,
    # set here, are not among them) and the mode counts
    cfg = cli.RunConfig(ell=3.0, modes=32, seed=4, out="ü.json", param="s", sweep_from=-0.0).validate()
    reports, counts = cli._verify_reports(cfg)
    stamp = "2026-01-01T00:00:00+00:00"
    assert cli._report_json(cfg, stamp, counts, reports) == _payload_json(cfg, stamp, counts, reports)


@pytest.mark.parametrize("value", [0.0, -0.0, 1e-300, -1.5e300, 0.1, math.nan, math.inf, -math.inf, np.float64(2.5), 3])
def test_report_writer_writes_each_value_as_json_does(value):
    report = identities.IdentityReport(
        identity="x\ty\"z", terms=(("é", value), ("b", 1.0)), lhs=value, rhs=value, abs_err=value,
        rel_err=value, tol=value, bound=value, notes="snow ☃ \x00",
    )
    cfg = cli.RunConfig()
    counts = {"field": 0, "quadratic_differential": 1}
    for reports in ([report], [], [identities.error_report("e", DomainError("x"))]):
        assert cli._report_json(cfg, "t", counts, reports) == _payload_json(cfg, "t", counts, reports)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    ell=st.floats(0.25, 16.0),
    s=st.floats(0.0, 20.0),
    a=st.floats(0.1, 10.0),
    outer_bc=st.sampled_from(["dirichlet", "neumann"]),
    modes=st.integers(1, 256),
)
def test_verify_report_is_json_dumps_layout_across_the_box(ell, s, a, outer_bc, modes):
    argv = ["verify", "--ell", repr(ell), "--s", repr(s), "--a", repr(a), "--outer-bc", outer_bc,
            "--modes", str(modes)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)  # an escaping exception fails the test
    assert code == 0
    assert _round_trips(out.getvalue())


# --- the CSV writer ---------------------------------------------------------

def test_csv_writer_matches_csv_module(capsys):
    header = ["param", "n", "x", "y"]
    columns = (["s"] * 5, np.arange(5), np.array([0.0, -0.0, 1e-300, 5e-324, 0.1]),
               np.array([1.7976931348623157e308, -1e-310, 2.5, -1e22, 7.0]))
    cli._emit_csv(header, columns, None, geometry.GraftedCollar(ell=1.0, s=1.0, a=1.0), "n")
    expected = io.StringIO()
    writer = csv.writer(expected)
    writer.writerow(header)
    writer.writerows(zip(*(np.asarray(col).tolist() for col in columns)))
    assert capsys.readouterr().out == expected.getvalue()


def test_csv_writer_names_the_first_non_finite_cell_and_its_chart(capsys):
    # cells go out row by row, so y's -inf in row 1 is named before x's nan
    # in row 3, though x comes first in the header; the chart is that row's
    # entry of each field, and nothing is printed
    header = ["param", "a", "x", "y"]
    a = np.array([0.5, 1.0, 2.0, 3.0])
    columns = (["a"] * 4, a, np.array([0.0, 1.0, 2.0, math.nan]), np.array([7.0, -math.inf, 2.5, math.inf]))
    chart = geometry.GraftedCollar(ell=np.full(4, 2.0), s=1.0, a=a)
    with pytest.raises(ConfigError) as info:
        cli._emit_csv(header, columns, None, chart, "a")
    assert str(info.value) == "y at a = 1.0 is -inf, not a finite double (ell = 2.0, s = 1.0, a = 1.0)"
    assert capsys.readouterr().out == ""


# --- parser dispatch --------------------------------------------------------

_USAGE = "usage: graftlab [-h] {verify,sweep,geodesic,chart,modes} ...\n"


@pytest.mark.parametrize("argv, leftover", [
    (["verify", "--modes", "2", "--bogus", "1"], "--bogus 1"),
    (["verify", "extra"], "extra"),
    (["chart", "--", "x"], "-- x"),
])
def test_leftover_arguments_exit_2_in_the_main_parsers_words(argv, leftover, capsys):
    code, out, err = run(argv, capsys)
    assert (code, out) == (2, "")
    assert err == f"{_USAGE}graftlab: error: unrecognized arguments: {leftover}\n"


def test_missing_and_unknown_commands_exit_2(capsys):
    code, _, err = run([], capsys)
    assert code == 2
    assert err == f"{_USAGE}graftlab: error: the following arguments are required: command\n"
    code, _, err = run(["frobnicate", "--modes", "3"], capsys)
    assert code == 2
    assert "argument command: invalid choice: 'frobnicate'" in err


def test_help_exits_0(capsys):
    code, out, _ = run(["-h"], capsys)
    assert code == 0 and out.startswith(_USAGE)
    code, out, _ = run(["verify", "-h"], capsys)
    assert code == 0 and out.startswith("usage: graftlab verify [-h]")


def test_bad_option_value_exits_2_in_the_subparsers_words(capsys):
    code, _, err = run(["verify", "--modes", "x"], capsys)
    assert code == 2
    assert err.endswith("graftlab verify: error: argument --modes: invalid int value: 'x'\n")


def test_abbreviated_flags_exit_2(capsys):
    # every flag is taken whole: a prefix of one is an unrecognized argument,
    # also where it abbreviates one flag alone (--mod) or names a setting
    # that the command does not read (--t beside verify's --tol and sweep's --to)
    sweep = ["sweep", "--param", "a", "--from", "0.5", "--to", "2", "--steps", "3"]
    for argv in (["verify", "--mod", "2"], ["verify", "--t", "1e-3"], sweep + ["--t", "3"]):
        code, out, err = run(argv, capsys)
        assert (code, out) == (2, ""), argv
        assert err.endswith(f"graftlab: error: unrecognized arguments: {' '.join(argv[-2:])}\n")


def test_main_without_argv_reads_sys_argv(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["graftlab", "chart", "--ell", "3"])
    code, out, _ = run(None, capsys)
    assert code == 0
    assert json.loads(out)["ell"] == 3.0


# --- the parser -------------------------------------------------------------

def _value(kind, choices):
    """Literal values of a flag's type (and within its choices) that do not
    start with "-"."""
    if choices is not None:
        return st.sampled_from(choices)
    if kind is int:
        return st.integers(0, 10**6).map(str) | st.sampled_from([" 3", "1_000", "0007"])
    if kind is float:
        floats = st.floats(min_value=0.0, allow_nan=False).map(repr)
        return floats | st.sampled_from(["nan", "inf", "1e400", "1_0.5", ".5", "2.", " 1e-3 "])
    return st.text(max_size=8).filter(lambda text: not text.startswith("-"))


@st.composite
def _pair_lines(draw):
    """A command and any number of exact --flag value pairs of its table, in
    any order, repeats allowed."""
    command = draw(st.sampled_from(sorted(cli._FLAGS)))
    flags = cli._FLAGS[command][1]
    argv = [command]
    for option in draw(st.lists(st.sampled_from(sorted(flags)), max_size=10)):
        _, kind, choices, _ = flags[option]
        argv += [option, draw(_value(kind, choices))]
    return argv


def _echo(cfg) -> int:
    print(repr(cfg))
    return 0


def _argparse_main(argv: list[str]) -> int:
    """cli.main with the whole parser's parse_args for every command line:
    the reference for main's parse route."""
    try:
        args = cli.make_parser()[0].parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        cfg = cli.build_config(vars(args))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return _echo(cfg)


def _outcome(main, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@st.composite
def _argparse_lines(draw):
    """A line of flag-value pairs changed into one of argparse's other
    cases: a help flag, an abbreviated or unknown flag, --flag=value, a
    value that starts with "-", an odd token count, an unknown command, or a
    value that fails its flag's type or choices."""
    argv = draw(_pair_lines())
    command, flags = argv[0], cli._FLAGS[argv[0]][1]
    pairs = [argv[k:k + 2] for k in range(1, len(argv), 2)]
    at = draw(st.integers(0, len(pairs)))
    option = draw(st.sampled_from(sorted(flags)))
    dest, kind, choices, _ = flags[option]
    kind_of_change = draw(st.sampled_from(
        ["help", "abbreviation", "equals", "dash", "odd", "command", "flag", "type"]
    ))
    if kind_of_change == "help":
        new = [draw(st.sampled_from(["-h", "--help"]))]
    elif kind_of_change == "abbreviation":
        prefix = option[:draw(st.integers(3, len(option)))]
        prefix = prefix if prefix not in flags else option[:2] + "x"
        new = [prefix, draw(_value(kind, choices))]
    elif kind_of_change == "equals":
        new = [f"{option}={draw(_value(kind, choices))}"]
    elif kind_of_change == "dash":
        new = [option, draw(st.sampled_from(["-1", "-0.5", "-inf", "-", "--", "-h", "--ell", "-x"]))]
    elif kind_of_change == "odd":
        new = [option]
    elif kind_of_change == "command":
        command, new = draw(st.sampled_from(["frobnicate", "Verify", "", "--ell", "-h"])), []
    elif kind_of_change == "flag":
        new = [draw(st.sampled_from(["--bogus", "--outer_bc", "ell", "--"])), "1"]
    else:
        new = [option, "x" if choices is None else "robin"]
        if kind is str and choices is None:  # every text is a str
            new = ["--modes", "1.5"]
    pairs.insert(at, new)
    return [command, *(token for pair in pairs for token in pair)]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(argv=_pair_lines() | _argparse_lines())
@example(argv=[])
@example(argv=["-h"])
@example(argv=["verify", "-h"])
@example(argv=["verify", "--he"])
@example(argv=["verify", "--", "--ell", "1"])
@example(argv=["verify", "--ell=1"])
@example(argv=["verify", "--mod", "2"])
@example(argv=["verify", "--ell", "-1", "--s", "-0.5"])
@example(argv=["chart", "--ell", "1", "--ell", "2"])
@example(argv=["chart", "1", "2"])
def test_every_command_line_prints_as_the_whole_parser_gives_it(argv):
    with mock.patch.dict(cli._COMMANDS, dict.fromkeys(cli._COMMANDS, _echo)):
        assert _outcome(cli.main, argv) == _outcome(_argparse_main, argv)


# --- config checks ----------------------------------------------------------

@pytest.mark.parametrize("command", ["verify", "sweep", "geodesic", "chart", "modes"])
def test_negative_seed_exits_2(command, tmp_path, capsys):
    # chart reads no seed: its flag is argparse's error, and its config key unknown to it
    extra = ["--param", "s", "--from", "0", "--to", "1"] if command == "sweep" else []
    code, out, err = run([command, *extra, "--seed", "-1"], capsys)
    if command == "chart":
        assert (code, out) == (2, "") and err.endswith("error: unrecognized arguments: --seed -1\n")
    else:
        assert (code, out, err) == (2, "", "error: seed must be >= 0, got -1\n")
    path = tmp_path / "run.cfg"
    path.write_text("seed = -3\n")
    code, out, err = run([command, *extra, "--config", str(path)], capsys)
    expected = f"{path}:1: unknown key 'seed' for chart" if command == "chart" else "seed must be >= 0, got -3"
    assert (code, out, err) == (2, "", f"error: {expected}\n")


#: (command, config key) of each setting that the command does not read
_UNREAD = [(command, key) for key, (*_, readers) in cli._SETTINGS.items() for command in cli._COMMANDS
           if command not in readers]


@pytest.mark.parametrize("command, key", _UNREAD)
def test_a_setting_the_command_does_not_read_exits_2(command, key, tmp_path, capsys):
    # as its flag, with argparse's error; as a config key, with one error
    # line that names the file, the line and the key
    option = "--" + key.replace("_", "-")
    code, out, err = run([command, option, "1"], capsys)
    assert (code, out) == (2, "") and err.endswith(f"graftlab: error: unrecognized arguments: {option} 1\n")
    path = tmp_path / "run.cfg"
    path.write_text(f"ell = 2\n{key} = 1\n")
    code, out, err = run([command, "--config", str(path)], capsys)
    assert (code, out, err) == (2, "", f"error: {path}:2: unknown key {key!r} for {command}\n")


#: a line of each command that exits 0, and a value of each setting that
#: differs from its value there; sweep's line sweeps ell, and s where the
#: setting is ell, since the swept value replaces its fixed one
_BASE_LINES = {
    "verify": ["verify"],
    "sweep": ["sweep", "--param", "ell", "--from", "0.5", "--to", "2", "--steps", "3"],
    "geodesic": ["geodesic", "--ell", "1", "--s", "0.5", "--a", "0.5", "--modes", "1"],
    "chart": ["chart"],
    "modes": ["modes", "--modes", "2"],
}
_OTHER_VALUES = {"ell": "3", "s": "0.75", "a": "0.75", "outer_bc": "neumann", "modes": "3", "tol": "1e-9",
                 "seed": "3", "t": "2e-3", "param": "a", "from": "0.25", "to": "3", "steps": "4"}


@pytest.mark.parametrize("command", sorted(_BASE_LINES))
def test_a_nul_byte_in_out_exits_2(command, tmp_path, capsys):
    # open() raises ValueError, not OSError, on a path with a NUL in it;
    # the command computes its output and then exits 2 with one error line
    expected = (2, "", "error: cannot write '\\x00': embedded null byte\n")
    assert run([*_BASE_LINES[command], "--out", "\x00"], capsys) == expected
    if command == "chart":
        path = tmp_path / "run.cfg"
        path.write_text("out = \x00\n")
        assert run(["chart", "--config", str(path)], capsys) == expected


def _printed_numbers(argv):
    """The stdout of a command line, its stamp and its echo of the settings
    dropped; the line must print."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) in (0, 1), argv
    assert out.getvalue(), argv
    if argv[0] in ("sweep", "modes"):
        return out.getvalue()
    payload = json.loads(out.getvalue())
    return {key: value for key, value in payload.items() if key not in ("generated_at", "config")}


@pytest.mark.parametrize("command, key", [(command, key) for key, (*_, readers) in cli._SETTINGS.items()
                                          if key != "out" for command in readers])
def test_every_setting_a_command_takes_changes_what_it_prints(command, key):
    # a setting that a command takes is one that it reads: another value
    # moves a number that it prints, not only the echo of its settings; a
    # mode count of 64 also, so that no cap at the default of 8 or below
    # can hide it
    base = _BASE_LINES[command] + (["--param", "s"] if (command, key) == ("sweep", "ell") else [])
    base_numbers = _printed_numbers(base)
    for value in [_OTHER_VALUES[key]] + (["64"] if key == "modes" else []):
        assert _printed_numbers(base + ["--" + key.replace("_", "-"), value]) != base_numbers, value


# --- the chart oracles ------------------------------------------------------

def test_chart_oracles_share_one_evaluation_of_the_chart(monkeypatch):
    chart = geometry.GraftedCollar(ell=3.0, s=1.5, a=2.5)
    xi, w = geometry._gauss_legendre(np.array([0.0, 1.0, 2.0, 2.5]))
    x = chart.s / 2 + xi
    expected = (
        chart.ell * chart.s + chart.ell * float(w @ (chart.G(x) + chart.G(-x))),
        (chart.s + float(w @ (1.0 / chart.G(x) + 1.0 / chart.G(-x)))) / chart.ell,
    )
    calls = []
    G = geometry.GraftedCollar.G
    monkeypatch.setattr(geometry.GraftedCollar, "G", lambda self, x: calls.append(1) or G(self, x))
    got = (geometry.total_area_quadrature(chart), geometry.conformal_modulus_quadrature(chart))
    assert got == expected
    assert len(calls) == 2  # one evaluation per strip, for both oracles


def test_real_profiles_square_as_their_absolute_values():
    # b * b for real profiles is np.abs(b) ** 2 bit for bit; the rows go in
    # count // 32 blocks of 32 to 63 rows each
    for count, edges in ((40, (0, 40)), (97, (0, 32, 64, 97))):
        units = hypersolve.solve_modes(np.arange(count), 2.0, 1.7, "neumann")
        xi, trig, w_cosh, w_sech = units.grid
        b, bp = units.values(slice(None), xi, trig)
        energy = units.quadrature
        mu = units.mu
        blocks = [slice(lo, hi) for lo, hi in zip(edges, edges[1:])]
        by_blocks = [
            (np.abs(bp[k]) ** 2 + 2.0 * np.abs(b[k]) ** 2) @ w_cosh + mu[k] ** 2 * (np.abs(b[k]) ** 2 @ w_sech)
            for k in blocks
        ]
        assert np.array_equal(energy, np.concatenate(by_blocks)), count
