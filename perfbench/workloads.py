"""Workload generators and per-op output checks.

Every workload is a list of `graftlab` command lines drawn from its box
(BOXES): ell and a log-uniform, s uniform, a share of the ops at s = 0
exactly, and both outer conditions.

The draws are stratified: op i sits at the i-th point of a Halton sequence
with one dimension per choice (ell, s, a, whether s = 0, the outer
condition, a sweep's mode count and swept parameter), each with its own
prime base and a fixed permutation of its digits.  No choice is taken from
i modulo a small number, because that residue also fixes the leading digits
of the continuous coordinates and would tie, say, the outer condition to a
band of ell.  The mode count of `verify`, `geodesic` and `modes` ops goes by
rounds instead: each round takes every mode count once, in an order drawn
per round, so a run that ends on a round boundary holds each mode count
equally often.  In dtn-scan the `modes` and `sweep` ops alternate and each
command walks the sequence by its own index, i // 2.  Any prefix of the
list covers the box jointly, and every run walks the same strata in the
same order, so a closed loop that completes a different number of ops per
run still measures the same mix.  The seed moves each continuous coordinate
by up to JITTER in unit box coordinates.  The move is small because which
draws fail, and how long a geodesic Newton solve takes, change abruptly
with the point: moves of 0.02 made the passing-op rate and the geodesic
latencies differ by 15-30% from seed to seed.
"""
from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import re
from dataclasses import dataclass

import numpy as np

import reference

WORKLOADS = ("identity-suite", "geodesic-oracle", "dtn-scan")

#: largest move of a stratified point, in unit box coordinates
JITTER = 0.002
#: ops generated per workload; a run stops long before the end of the list
LIST_LEN = {"identity-suite": 2000, "geodesic-oracle": 400, "dtn-scan": 2000}
#: the command of each op (in dtn-scan, of every other op, with a sweep between)
_COMMAND = {"identity-suite": "verify", "geodesic-oracle": "geodesic", "dtn-scan": "modes"}
#: mode counts of `verify`, `geodesic` and `modes` ops
_MODES = {"identity-suite": (8, 32, 64, 128, 256), "geodesic-oracle": (1, 2, 3, 4),
          "dtn-scan": (8, 32, 64, 128, 256)}
#: ops per round: every mode count once (in dtn-scan, with a sweep after
#: each `modes` op).  A run ends on a round boundary, so every run holds
#: each mode count equally often, whatever number of ops it completes.
ROUND_LEN = {w: len(m) * (2 if w == "dtn-scan" else 1) for w, m in _MODES.items()}


@dataclass(frozen=True)
class Box:
    """Where a workload draws its charts: ell and a log-uniform, s uniform,
    and a share of the ops at s = 0 exactly.  A sweep spans its parameter's
    whole range in the box."""

    ell: tuple[float, float]
    s: tuple[float, float]
    a: tuple[float, float]
    s_zero_share: float


#: the ROADMAP parameter box
FULL_BOX = Box(ell=(0.25, 16.0), s=(0.0, 20.0), a=(0.1, 10.0), s_zero_share=0.2)
#: the part of it on which every op of the workload passes on the current
#: program (see README.md, "Workloads"): the benchmark counts a failed op as
#: a fault, so a gated workload stays off the known failing regions
BOXES = {
    "identity-suite": Box(ell=(8.0, 16.0), s=(0.5, 20.0), a=(0.1, 3.0), s_zero_share=0.0),
    "dtn-scan": Box(ell=(8.0, 16.0), s=(0.5, 20.0), a=(0.1, 1.0), s_zero_share=0.0),
    "geodesic-oracle": FULL_BOX,
}


@dataclass(frozen=True)
class Op:
    """One command invocation: argv for `graftlab.cli.main`."""

    argv: tuple[str, ...]

    @property
    def command(self) -> str:
        return self.argv[0]

    def param(self, flag: str, kind=float):
        return kind(self.argv[self.argv.index(flag) + 1])


#: Halton base of each coordinate of an op's point
_BASES = {"ell": 2, "s": 3, "a": 5, "s_zero": 7, "bc": 11, "modes": 13, "param": 17}


def _digit_perm(base: int) -> list[int]:
    """A fixed permutation of the digits 1..base-1 (0 stays 0), which breaks
    the linear patterns between dimensions of large base."""
    return [0, *(1 + np.random.default_rng(base).permutation(base - 1)).tolist()]


_PERMS = {base: _digit_perm(base) for base in _BASES.values()}


def _halton(k: int, base: int) -> float:
    perm, out, f = _PERMS[base], 0.0, 1.0 / base
    while k:
        k, digit = divmod(k, base)
        out += perm[digit] * f
        f /= base
    return out


def _jitter(u: float, rng: np.random.Generator) -> float:
    v = u + JITTER * (2.0 * rng.random() - 1.0)
    return -v if v < 0.0 else (2.0 - v if v > 1.0 else v)


def _num(x: float) -> str:
    return format(x, ".6g")


def _pick(k: int, dim: str, choices):
    return choices[int(_halton(k, _BASES[dim]) * len(choices))]


def _round_pick(j: int, choices):
    """Choice j of a sequence in which every len(choices) consecutive
    entries, from 0 on, take each choice once, in an order fixed per round
    and independent of the Halton digits."""
    r, pos = divmod(j, len(choices))
    return choices[np.random.default_rng([r, len(choices)]).permutation(len(choices))[pos]]


def _log_scale(u: float, lo: float, hi: float) -> float:
    return lo * (hi / lo) ** u


def _box_point(box: Box, k: int, rng: np.random.Generator) -> list[str]:
    ell = _log_scale(_jitter(_halton(k, _BASES["ell"]), rng), *box.ell)
    s = box.s[0] + (box.s[1] - box.s[0]) * _jitter(_halton(k, _BASES["s"]), rng)
    a = _log_scale(_jitter(_halton(k, _BASES["a"]), rng), *box.a)
    if _halton(k, _BASES["s_zero"]) < box.s_zero_share:
        s = 0.0
    bc = _pick(k, "bc", ("dirichlet", "neumann"))
    return ["--ell", _num(ell), "--s", _num(s), "--a", _num(a), "--outer-bc", bc]


def make_ops(workload: str, seed: int) -> list[Op]:
    """The workload's op list; the same seed gives the same list."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    ops = []
    for i in range(LIST_LEN[workload]):
        # Halton index 0 is the corner of the box; dtn-scan's two commands
        # each take their own index
        k = 1 + (i // 2 if workload == "dtn-scan" else i)
        box = _box_point(BOXES[workload], k, rng)
        field_seed = str(i)
        if workload != "dtn-scan" or i % 2 == 0:
            modes = _round_pick(k - 1, _MODES[workload])
            argv = [_COMMAND[workload], *box, "--modes", str(modes), "--seed", field_seed]
        else:
            param = _pick(k, "param", ("ell", "s", "a"))
            lo, hi = getattr(BOXES[workload], param)
            modes = _pick(k, "modes", (2, 4, 8))
            argv = [
                "sweep", *box, "--modes", str(modes), "--seed", field_seed,
                "--param", param, "--from", _num(lo), "--to", _num(hi), "--steps", "20",
            ]
        ops.append(Op(tuple(argv)))
    return ops


def warmup_op(workload: str) -> Op:
    """The untimed first op.  It is the same for every seed, at a chart where
    the command passes, so set-up time does not depend on the seed."""
    if workload == "identity-suite":
        return Op(("verify", "--modes", "8", "--seed", "0"))
    if workload == "geodesic-oracle":
        return Op(("geodesic", "--ell", "1", "--s", "0.5", "--a", "0.5", "--modes", "1", "--seed", "0"))
    return Op(("sweep", "--param", "a", "--from", "0.5", "--to", "2", "--steps", "2",
               "--modes", "2", "--seed", "0"))


def digest(ops: list[Op]) -> str:
    """sha256 of the op list, to show that two commits ran identical inputs."""
    return hashlib.sha256(json.dumps([op.argv for op in ops]).encode()).hexdigest()


# --- checks -----------------------------------------------------------------

_NUMBER = re.compile(r"[-+]?(\d+\.?\d*|\.\d+)(e[-+]?\d+)?", re.IGNORECASE)


def _message_class(text: str) -> str:
    """A failure message with its numbers blanked, so that equal causes group."""
    lines = [ln for ln in text.splitlines() if ln.startswith(("check failed:", "error:"))]
    return _NUMBER.sub("#", lines[-1])[:120] if lines else "no message"


def check(op: Op, rc: int, stdout: str, stderr: str, per_mode_determinant) -> str | None:
    """None if the op's output is right, else its failure reason class."""
    if rc != 0 and op.command not in ("verify", "geodesic"):
        return f"exit {rc}: {_message_class(stderr)}"
    if op.command in ("verify", "geodesic"):
        try:
            payload = json.loads(stdout)
        except ValueError:
            return f"exit {rc}: {_message_class(stderr)}"
        if op.command == "verify":
            failed = sorted({r["identity"] for r in payload["reports"] if not r["pass"]})
            if failed or rc != 0:
                return "check failed: " + (",".join(failed) or f"exit {rc}")
            return None
        if not payload["pass"] or rc != 0:
            return "check failed: geodesic first-order match"
        return None
    if op.command == "modes":
        return _check_modes(op, stdout)
    return _check_sweep(op, stdout, per_mode_determinant)


def _check_modes(op: Op, stdout: str) -> str | None:
    ell, a, bc = op.param("--ell"), op.param("--a"), op.param("--outer-bc", str)
    rows = list(csv.DictReader(io.StringIO(stdout)))
    if [int(r["n"]) for r in rows] != list(range(op.param("--modes", int) + 1)):
        return "malformed output: modes rows"
    for r in rows:
        value = float(r["dtn"])
        if not math.isfinite(value):
            return "non-finite: dtn"
        if reference.rel_gap(value, reference.dtn(int(r["n"]), ell, a, bc)) > reference.DTN_RTOL:
            return "reference mismatch: dtn"
    return None


def _check_sweep(op: Op, stdout: str, per_mode_determinant) -> str | None:
    bc = op.param("--outer-bc", str)
    nmax = min(op.param("--modes", int), 8)
    rows = list(csv.DictReader(io.StringIO(stdout)))
    if len(rows) != op.param("--steps", int):
        return "malformed output: sweep rows"
    for r in rows:
        ell, s, a = float(r["ell"]), float(r["s"]), float(r["a"])
        err = float(r["boundary_rel_err"])
        if not math.isfinite(err) or not math.isfinite(float(r["det_min"])):
            return "non-finite: " + ("boundary_rel_err" if not math.isfinite(err) else "det_min")
        expected = min(
            abs(per_mode_determinant(n, ell, s, a, bc, dtn_value=reference.dtn(n, ell, a, bc)))
            for n in range(1, nmax + 1)
        )
        if abs(float(r["det_min"]) - expected) > reference.DET_ATOL:
            return "reference mismatch: det_min"
        if err > reference.BOUNDARY_RTOL:
            return "tolerance: boundary_rel_err"
    return None


def canonical(stdout: str) -> str:
    """Output with the `generated_at` stamp dropped, for byte comparison."""
    return "".join(
        ln for ln in stdout.splitlines(keepends=True) if not ln.lstrip().startswith('"generated_at"')
    )
