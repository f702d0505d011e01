"""Command-line experiment runner.

Commands: verify (full identity suite, JSON report), sweep (parameter sweep,
CSV), geodesic (numeric geodesic vs closed-form variation), chart (dump the
chart as JSON), modes (per-mode solver data as CSV).

Config files are flat ``key = value`` text; every key can be overridden by
the command-line flag of the same name.  A single seed fixes all generated
fields, so reports are reproducible byte for byte apart from the
``generated_at`` stamp.
"""
from __future__ import annotations

import functools
import json
import math
import sys
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from json.encoder import encode_basestring_ascii as _json_str
from typing import TYPE_CHECKING

import numpy as np

from . import geometry, hypersolve, identities, sampling, variation
from .errors import ConfigError, GraftLabError

if TYPE_CHECKING:
    import argparse

#: The commands, in the order of the help text
_ALL = ("verify", "sweep", "geodesic", "chart", "modes")
#: The commands that draw a seeded field
_SEEDED = ("verify", "sweep", "geodesic", "modes")
#: Every setting, keyed by its config key: (RunConfig field, type, choices,
#: help, the commands that read it).  Its flag is --key with "-" for "_", and
#: a command takes the flags and config keys of the settings it reads; the
#: flags of a command keep this order in its help, and RunConfig.validate
#: checks the float settings for finiteness in it.
_SETTINGS = {
    "ell": ("ell", float, None, None, _ALL),
    "s": ("s", float, None, None, _ALL),
    "a": ("a", float, None, None, _ALL),
    "outer_bc": ("outer_bc", str, geometry.OUTER_BCS, None, _ALL),
    "modes": ("modes", int, None, None, _SEEDED),
    "tol": ("tol", float, None, None, ("verify",)),
    "seed": ("seed", int, None, None, _SEEDED),
    "out": ("out", str, None, "output path (default: stdout)", _ALL),
    "t": ("t", float, None, None, ("geodesic",)),
    "param": ("param", str, ("ell", "s", "a"), None, ("sweep",)),
    "from": ("sweep_from", float, None, None, ("sweep",)),
    "to": ("sweep_to", float, None, None, ("sweep",)),
    "steps": ("steps", int, None, None, ("sweep",)),
}
#: (config key, RunConfig field) of each float setting
_FLOAT_SETTINGS = tuple((key, attr) for key, (attr, kind, *_) in _SETTINGS.items() if kind is float)
#: The RunConfig fields that each command reads, in the order that sort_keys
#: gives them: verify and geodesic echo these settings in their reports
_READS = {command: sorted(attr for attr, *_, readers in _SETTINGS.values() if command in readers) for command in _ALL}


@dataclass(frozen=True)
class RunConfig:
    ell: float = 2 * np.pi
    s: float = 1.0
    a: float = 1.0
    outer_bc: str = "dirichlet"
    modes: int = 8
    tol: float = 1e-10
    seed: int = 0
    out: str | None = None
    param: str | None = None
    sweep_from: float | None = None
    sweep_to: float | None = None
    steps: int = 10
    t: float = 1e-3

    def validate(self) -> "RunConfig":
        # NaN fails every comparison below, so non-finite values go first
        for key, attr in _FLOAT_SETTINGS:
            value = getattr(self, attr)
            if value is not None and not math.isfinite(value):
                raise ConfigError(f"{key} must be finite, got {value!r}")
        if self.ell <= 0 or self.a <= 0 or self.s < 0:
            raise ConfigError("need ell > 0, a > 0, s >= 0")
        if self.outer_bc not in geometry.OUTER_BCS:
            raise ConfigError(f"unknown outer_bc {self.outer_bc!r}")
        if self.modes < 1 or self.steps < 1:
            raise ConfigError("modes and steps must be >= 1")
        if self.tol <= 0:
            raise ConfigError("tol must be positive")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        return self

    def chart(self) -> geometry.GraftedCollar:
        return geometry.GraftedCollar(ell=self.ell, s=self.s, a=self.a, outer_bc=self.outer_bc)


def load_config(path: str, command: str) -> dict:
    """The settings of a flat key = value config file, keyed by RunConfig
    field; a key that the command does not read is an error."""
    values = {}
    try:
        with open(path) as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key = value")
                key, _, val = line.partition("=")
                key = key.strip()
                if key not in _SETTINGS or command not in _SETTINGS[key][-1]:
                    raise ConfigError(f"{path}:{lineno}: unknown key {key!r} for {command}")
                attr, kind, *_ = _SETTINGS[key]
                try:
                    values[attr] = kind(val.strip())
                except ValueError as exc:
                    raise ConfigError(f"{path}:{lineno}: {exc}") from exc
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path, or bytes that are not UTF-8
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return values


def build_config(args: dict) -> RunConfig:
    """The config file's values, each overridden by its flag when given;
    args maps the command and each flag's dest to its value, None when it
    is not given."""
    command = args["command"]
    values = load_config(args["config"], command) if args.get("config") else {}
    flags = {attr: val for attr in _READS[command] if (val := args.get(attr)) is not None}
    return RunConfig(**(values | flags)).validate()


def _emit(text: str, out: str | None) -> None:
    if not out:
        sys.stdout.write(text)
        return
    try:
        fh = open(out, "w")
    except ValueError as exc:  # a NUL in the path; main reports an OSError itself
        raise ConfigError(f"cannot write {out!r}: {exc}") from exc
    with fh:
        fh.write(text)


def _require_finite(numbers: dict, chart, key: str | None = None) -> None:
    """The commands' one exit-2 rule, run before a command prints: a
    ConfigError naming the first of the numbers it would print, by name, that
    is not a finite double, and its chart (ell, s, a).  CSV numbers are
    columns with one entry per row, and each row is named by its entry in
    the column key; chart's fields are scalars or one entry per row."""
    values = np.asarray(list(numbers.values()), dtype=float)
    finite = np.isfinite(values)
    if finite.all():
        return
    # the first as printed: row by row, along each row
    *row, k = np.argwhere(~finite.T)[0]
    name = list(numbers)[k] + (f" at {key} = {numbers[key][row[0]].item()!r}" if row else "")
    ell, s, a = (float(np.broadcast_to(x, values.shape[1:])[tuple(row)]) for x in (chart.ell, chart.s, chart.a))
    value = float(values[(k, *row)])
    raise ConfigError(f"{name} is {value!r}, not a finite double (ell = {ell!r}, s = {s!r}, a = {a!r})")


def _emit_csv(header, columns, out: str | None, chart, key: str) -> None:
    """CSV with one row per entry of the columns, as csv.writer writes it:
    no field needs quoting, and each float goes through repr.  Every column
    but a column of names passes _require_finite first, on chart and key."""
    columns = [np.asarray(col) for col in columns]
    _require_finite({name: col for name, col in zip(header, columns) if col.dtype.kind != "U"}, chart, key)
    rows = zip(*(col.tolist() for col in columns))
    _emit("".join([",".join(header) + "\r\n", *(",".join(map(str, row)) + "\r\n" for row in rows)]), out)


# --- verify -----------------------------------------------------------------

def _verify_reports(cfg: RunConfig) -> tuple[list[identities.IdentityReport], dict]:
    """The identity reports (identities.suite) of the seeded draws, and the
    mode counts that the samplers kept for the field and the quadratic
    differential.  A GraftLabError raised before any report exists
    (samplers, solve_configuration, _require_finite) propagates."""
    chart = cfg.chart()
    # each gated number is named by the report field, term or note that
    # prints it, in printed order; the closed forms go first, before the
    # strip grids, which grow with a
    modulus, area = "conformal_modulus_closed_vs_quadrature", "total_area_closed_vs_quadrature"
    with np.errstate(over="ignore", invalid="ignore"):
        closed = {f"{modulus} lhs": geometry.conformal_modulus(chart), f"{area} lhs": geometry.total_area(chart)}
    _require_finite(closed, chart)
    rng = np.random.default_rng(cfg.seed)
    sol = sampling.random_solution(rng, cfg.ell, cfg.s, nmax=cfg.modes)
    # Im(phi) of the quadratic differential: a field drawn as sol is, whose
    # linear coefficient the sampler sets to 0
    q = sampling.random_solution(rng, cfg.ell, cfg.s, nmax=cfg.modes, amplitude=0.5)
    means = sampling.slice_compatible_means(rng, cfg.s, sol.d0)
    small = sampling.random_solution(rng, cfg.ell, cfg.s, nmax=3, amplitude=1e-4)
    config = identities.solve_configuration(chart, sol, means, quad=q)
    # the strip sums are computed here, once, for every check that reads them
    with np.errstate(over="ignore", invalid="ignore"):
        energy, seam_form, outer = config.strip_sums
        numbers = {"hyperbolic_energy": energy, "outer_greens": outer, "strip Green form": seam_form}
        numbers[f"{modulus} rhs"] = geometry.conformal_modulus_quadrature(chart)
        numbers[f"{area} rhs"] = geometry.total_area_quadrature(chart)
    _require_finite(numbers, chart)
    reports = identities.suite(config, small, cfg.modes, cfg.tol)
    kept = (len(sol.nonzero_modes()), len(q.nonzero_modes()))
    return reports, {"field": kept[0], "quadratic_differential": kept[1]}


#: json's token for each non-finite float, by its repr
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_float(value) -> str:
    """A float as json writes it: its repr, or NaN, Infinity or -Infinity."""
    text = repr(float(value))
    return _NON_FINITE.get(text, text)


def _json_scalar(value) -> str:
    """A config value (str, None, int or float) as json writes it."""
    if isinstance(value, str):
        return _json_str(value)
    if isinstance(value, float):
        return _json_float(value)
    return "null" if value is None else repr(value)


def _report_block(r: identities.IdentityReport) -> str:
    """Report r as one item of the report list, in json's indent=2 layout."""
    terms = ",\n".join(
        f'        {{\n          "label": {_json_str(label)},\n'
        f'          "value": {_json_float(value)}\n        }}'
        for label, value in r.terms
    )
    terms = f"[\n{terms}\n      ]" if r.terms else "[]"
    passed = "true" if r.passed else "false"
    return (
        f'    {{\n      "abs_err": {_json_float(r.abs_err)},\n      "bound": {_json_float(r.bound)},\n'
        f'      "identity": {_json_str(r.identity)},\n      "lhs": {_json_float(r.lhs)},\n'
        f'      "notes": {_json_str(r.notes)},\n      "pass": {passed},\n'
        f'      "rel_err": {_json_float(r.rel_err)},\n      "rhs": {_json_float(r.rhs)},\n'
        f'      "terms": {terms},\n      "tol": {_json_float(r.tol)}\n    }}'
    )


def _report_json(cfg: RunConfig, generated_at: str, counts: dict, reports: list) -> str:
    """The verify report by its schema, byte for byte as json.dumps(indent=2,
    sort_keys=True) writes {generated_at, config: the settings verify reads,
    mode_counts: counts, reports: one dict per report}, NaN and infinite
    values included, at a third of that encoder's cost (the pure-Python
    encoder, which json.dumps runs for any indent); the tests pin the two
    together, with their own dict of a report as the oracle."""
    config = ",\n".join(f'    "{name}": {_json_scalar(getattr(cfg, name))}' for name in _READS["verify"])
    mode_counts = ",\n".join(f'    "{key}": {_json_scalar(counts[key])}' for key in sorted(counts))
    blocks = ",\n".join(map(_report_block, reports))
    blocks = f"[\n{blocks}\n  ]" if reports else "[]"
    return (
        f'{{\n  "config": {{\n{config}\n  }},\n  "generated_at": {_json_str(generated_at)},\n'
        f'  "mode_counts": {{\n{mode_counts}\n  }},\n  "reports": {blocks}\n}}'
    )


def cmd_verify(cfg: RunConfig) -> int:
    reports, counts = _verify_reports(cfg)
    generated_at = datetime.now(timezone.utc).isoformat()
    _emit(_report_json(cfg, generated_at, counts, reports) + "\n", cfg.out)
    return 0 if all(r.passed for r in reports) else 1


# --- sweep ------------------------------------------------------------------

_SWEEP_FIELDS = "param value ell s a conformal_modulus det_min boundary_rel_err slice_residual".split()


def cmd_sweep(cfg: RunConfig) -> int:
    """All points of the sweep together, in one array pass with a leading
    points axis, from one draw of the seed and one family-wide
    solve_configuration: the samplers, the traces, solve_flat_variation,
    boundary_term_closed and _quadrature, determinant_floor,
    conformal_modulus and slice_residual take the axis and return one value
    per point, so each row equals the one-point calls at its value."""
    if cfg.param not in ("ell", "s", "a"):
        raise ConfigError("sweep needs --param one of ell, s, a")
    if cfg.sweep_from is None or cfg.sweep_to is None:
        raise ConfigError("sweep needs --from and --to")
    values = np.linspace(cfg.sweep_from, cfg.sweep_to, cfg.steps)
    # every bound is a lower bound, so the smallest value is the one to check
    replace(cfg, **{cfg.param: float(values.min())}).validate()
    ell, s, a = (values if k == cfg.param else np.full(cfg.steps, getattr(cfg, k)) for k in ("ell", "s", "a"))

    # every point draws from the same seed, so one draw serves them all
    rng = np.random.default_rng(cfg.seed)
    sol = sampling.random_solution(rng, ell, s, nmax=cfg.modes)
    means = sampling.slice_compatible_means(rng, s, sol.d0)
    chart = geometry.GraftedCollar(ell=ell, s=s, a=a, outer_bc=cfg.outer_bc)
    # a number that overflows is named by _emit_csv's exit 2, not by a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        config = identities.solve_configuration(chart, sol, means)
        denom = np.maximum(np.maximum(np.abs(config.closed), np.abs(config.quadrature)), 1e-300)
        columns = ([cfg.param] * cfg.steps, values, ell, s, a, geometry.conformal_modulus(chart),
                   identities.determinant_floor(cfg.modes, ell, s, a, cfg.outer_bc),
                   np.abs(config.closed - config.quadrature) / denom, identities.slice_residual(sol, config.variation))
    _emit_csv(_SWEEP_FIELDS, columns, cfg.out, chart, cfg.param)
    return 0


# --- geodesic ---------------------------------------------------------------

def cmd_geodesic(cfg: RunConfig) -> int:
    """The field is drawn, its configuration solved and its matched field
    built once; each seam's geodesic is then solved at t and at t/2 on it.
    Passes when the rate's relative error is below 1e-2 at t and smaller at
    t/2 (first order in t).  A chart on which s/2 + a rounds to s/2 has no
    strip for the curves to move into, and is a ConfigError."""
    if cfg.t <= 0:
        raise ConfigError("--t must be positive")
    if cfg.s / 2 + cfg.a == cfg.s / 2:
        raise ConfigError(f"geodesic needs s/2 + a > s/2 in double precision, but s = {cfg.s!r}, a = {cfg.a!r}")
    rng = np.random.default_rng(cfg.seed)
    chart = cfg.chart()
    # at most 4 modes: at 16 the Newton solve fails on the default chart (ROADMAP item 4)
    sol = sampling.random_solution(rng, cfg.ell, cfg.s, nmax=min(cfg.modes, 4), amplitude=0.3)
    config = identities.solve_configuration(chart, sol)
    field = variation.matched_global_field(config)
    # each variation on the oracle's y grid: its initial rate and its target
    y = variation.geodesic_grid(cfg.ell)
    targets = [(side, config.seam(side)[1].reconstruct(y)) for side in ("left", "right")]

    def max_rel_err(t: float) -> float:
        errs = []
        for side, expected in targets:
            rate = variation.geodesic_oracle(chart, field, side, t, expected)[1]
            errs.append(float(np.max(np.abs(rate - expected))) / max(float(np.max(np.abs(expected))), 1e-300))
        return max(errs)

    err, err_half = max_rel_err(cfg.t), max_rel_err(cfg.t / 2)
    ok = err < 1e-2 and err_half < err
    payload = {
        "generated_at": datetime.now(timezone.utc).isoformat(),
        "config": {name: getattr(cfg, name) for name in _READS["geodesic"]},
        "max_rel_err": err,
        "max_rel_err_half_step": err_half,
        "first_order_convergence": err_half < err,
        "pass": ok,
    }
    _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", cfg.out)
    return 0 if ok else 1


# --- chart / modes ----------------------------------------------------------

def cmd_chart(cfg: RunConfig) -> int:
    chart = cfg.chart()
    with np.errstate(over="ignore", invalid="ignore"):
        numbers = {
            "conformal_modulus": geometry.conformal_modulus(chart),
            "total_area": geometry.total_area(chart),
            "grafted_length": geometry.grafted_length(cfg.ell, cfg.s),
        }
    _require_finite(numbers, chart)
    payload = {"ell": cfg.ell, "s": cfg.s, "a": cfg.a, "outer_bc": cfg.outer_bc, **numbers}
    _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", cfg.out)
    return 0


def cmd_modes(cfg: RunConfig) -> int:
    rng = np.random.default_rng(cfg.seed)
    sol = sampling.random_solution(rng, cfg.ell, cfg.s, nmax=cfg.modes)
    # the seams' Dirichlet traces, then their variations with mean 0
    sides = ("left", "right")
    traces = (sol.dirichlet_trace(sides), variation.solve_flat_variation(sol.neumann_trace_flat(sides), 0.0))
    n = np.arange(cfg.modes + 1)
    columns = [n, hypersolve.seam_dtn(n, cfg.ell, cfg.a, cfg.outer_bc)]
    for data in traces:
        # row 0 holds the mean; a mode the sampler dropped (its cosh would
        # overflow) has no coefficient and prints as 0.0
        c = np.zeros((len(sides), len(n)), dtype=complex)
        c[:, 1 : data.coef.shape[-1]] = data.coef[:, 1:]
        c[:, 0] = data.mean
        columns += [part for seam in c for part in (seam.real, seam.imag)]
    names = ("dirichlet_left", "dirichlet_right", "lambda", "rho")
    header = ["n", "dtn", *(f"{name}_{part}" for name in names for part in ("re", "im"))]
    _emit_csv(header, columns, cfg.out, cfg.chart(), "n")
    return 0


# --- entry point ------------------------------------------------------------

#: Each command's help line and flag table, option string -> (dest, type,
#: choices, help), in the order of the help text: --config, then the
#: command's settings.  The one declaration of the command line: make_parser
#: builds every parser from it.
_FLAGS = {
    command: (help_line, {"--config": ("config", str, None, "flat key = value config file")} | {
        "--" + key.replace("_", "-"): (attr, kind, choices, help_text)
        for key, (attr, kind, choices, help_text, readers) in _SETTINGS.items()
        if command in readers
    })
    for command, help_line in zip(_ALL, (
        "run the identity suite, emit JSON",
        "parameter sweep, emit CSV",
        "numeric geodesic vs closed-form variation",
        "dump the chart as JSON",
        "dump per-mode solver data as CSV",
    ))
}


@functools.cache
def make_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The argument parser and each command's subparser, by command name,
    built from _FLAGS on first use and kept; every flag is taken whole, so
    an abbreviation is an unrecognized argument.  argparse is imported here,
    so import graftlab.cli does not load it."""
    import argparse

    parser = argparse.ArgumentParser(prog="graftlab", description=__doc__, allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}
    for command, (help_line, flags) in _FLAGS.items():
        commands[command] = p = sub.add_parser(command, help=help_line, allow_abbrev=False)
        for option, (dest, kind, choices, help_text) in flags.items():
            p.add_argument(option, dest=dest, type=kind, choices=choices, help=help_text)
    return parser, commands


def _parse_args(argv: list[str]) -> dict:
    """The dest -> value map of a command line, as vars(parse_args(argv)) of
    the whole parser gives it; argparse exits on help and on errors.  A line
    that starts with a command goes straight to that command's subparser,
    as the whole parser would hand it on, and leftover tokens are the whole
    parser's error; this skips the whole parser's own pass over the line."""
    parser, commands = make_parser()
    if not argv or argv[0] not in commands:
        return vars(parser.parse_args(argv))
    args, extra = commands[argv[0]].parse_known_args(argv[1:])
    if extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    return {"command": argv[0], **vars(args)}


_COMMANDS = {
    "verify": cmd_verify,
    "sweep": cmd_sweep,
    "geodesic": cmd_geodesic,
    "chart": cmd_chart,
    "modes": cmd_modes,
}


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        cfg = build_config(args)
        return _COMMANDS[args["command"]](cfg)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GraftLabError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
