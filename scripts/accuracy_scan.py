"""Accuracy scan of `graftlab verify` over the parameter quadrant.

Draws DRAWS points (600) with numpy seed SEED (11): ell = 10^U(-12, 12),
a = 10^U(-12, 3), s = 0 for a fifth of the draws and 10^U(-6, 6)
otherwise, 8 modes, the outer condition alternating between Dirichlet and
Neumann.  Each draw runs `verify` in process and is scored by its exit
code, its failing checks and whether it raised a warning.  The result,
written to `--out` (default BENCH_accuracy.json at the repository root),
has:

- each draw's command line, exit code, failing checks and warning flag;
- the exit-code counts and the count of draws that warned;
- the families of failing checks per exit-1 draw: "strip" (the strip Green
  check or the master identity), "seam" (either boundary check or
  area_derivative), "floor" (the determinant floor) and "other";
- per check, the count of failures and the largest abs_err / bound among
  the draws that pass it;
- the seed and the git commit.

With `--check FILE` it compares the scan with FILE, a committed result,
draw by draw, and exits 1 if any draw got worse: its exit code rose, it
raised a warning that it did not, or at the same exit code it fails a
check that it passed.  It exits 1 as well if FILE's checks are not the
rows of `identities.CHECKS`, and names the rows added or removed.  A draw
that gets better can move from one family to another, so the counts are
reported, not compared.  With `--check` the result is written only where
`--out` is given.

    python scripts/accuracy_scan.py                       # write BENCH_accuracy.json
    python scripts/accuracy_scan.py --check BENCH_accuracy.json
"""
from __future__ import annotations

import argparse
import collections
import contextlib
import io
import json
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from graftlab import cli, identities  # noqa: E402

DRAWS, SEED = 600, 11

#: each check's family, for the family table; any other failing check is "other"
FAMILIES = {
    "strip_greens_identity": "strip",
    "master_identity": "strip",
    "boundary_term_closed_vs_quadrature": "seam",
    "extended_boundary_closed_vs_quadrature": "seam",
    "area_derivative": "seam",
    "per_mode_determinant_floor": "floor",
}


def draws(count: int, seed: int) -> list[list[str]]:
    """The verify command lines of the scan, in draw order."""
    rng = np.random.default_rng(seed)
    lines = []
    for k in range(count):
        ell, a = 10.0 ** rng.uniform(-12.0, 12.0), 10.0 ** rng.uniform(-12.0, 3.0)
        s = 0.0 if rng.random() < 0.2 else 10.0 ** rng.uniform(-6.0, 6.0)
        outer_bc = ("dirichlet", "neumann")[k % 2]
        lines.append(["verify", "--ell", repr(ell), "--s", repr(s), "--a", repr(a), "--outer-bc", outer_bc,
                      "--modes", "8"])
    return lines


def run(argv: list[str]) -> tuple[int, list[dict], int]:
    """(exit code, reports, warnings raised) of one verify line."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(argv)
    reports = json.loads(out.getvalue())["reports"] if out.getvalue() else []
    return code, reports, len(caught)


def git_commit() -> str | None:
    """The checkout's commit, with "-dirty" when its tracked files differ
    from it; None outside a git checkout."""
    try:
        proc = subprocess.run(["git", "describe", "--always", "--dirty", "--abbrev=40"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() or None


def scan(count: int, seed: int) -> dict:
    """The scan of count draws from seed: DRAWS and SEED but in a test."""
    exits, families, failures = collections.Counter(), collections.Counter(), collections.Counter()
    worst: dict[str, float] = {}
    records = []
    for argv in draws(count, seed):
        code, reports, caught = run(argv)
        failing = [r["identity"] for r in reports if not r["pass"]]
        records.append({"command": " ".join(argv), "exit_code": code, "failing": failing, "warned": caught > 0})
        exits[str(code)] += 1
        failures.update(failing)
        if code == 1:
            families[" + ".join(sorted({FAMILIES.get(name, "other") for name in failing}))] += 1
        for r in reports:
            if r["pass"]:
                # a bound of 0 passes an abs_err of 0 alone
                ratio = r["abs_err"] / r["bound"] if r["bound"] > 0 else 0.0
                worst[r["identity"]] = max(worst.get(r["identity"], 0.0), ratio)
    checks = {
        name: {"failures": failures[name], "max_passing_abs_err_over_bound": worst.get(name)}
        for name in identities.CHECKS
    }
    return {
        "command": "verify",
        "seed": seed,
        "git_commit": git_commit(),
        "exit_codes": dict(sorted(exits.items())),
        "warned": sum(r["warned"] for r in records),
        "families": dict(sorted(families.items())),
        "checks": checks,
        "draws": records,
    }


def dumps(result: dict) -> str:
    """result as indented JSON with each draw on one line, so that a
    re-taken scan's diff shows the draws that changed."""
    head = json.dumps({k: v for k, v in result.items() if k != "draws"}, indent=2)
    records = ",\n".join(f"    {json.dumps(r)}" for r in result["draws"])
    return f'{head[:-2]},\n  "draws": [\n{records}\n  ]\n}}\n'


def worsened(result: dict, committed: dict) -> list[str]:
    """Each draw of result that is worse than the same draw of committed:
    a higher exit code, a warning it did not raise, or at the same exit
    code a failing check it passed."""
    before = {r["command"]: r for r in committed["draws"]}
    lines = []
    for r in result["draws"]:
        old = before.get(r["command"])
        if old is None:
            lines.append(f"{r['command']}: not in the committed scan")
            continue
        gained = sorted(set(r["failing"]) - set(old["failing"])) if r["exit_code"] == old["exit_code"] else []
        if r["exit_code"] > old["exit_code"] or r["warned"] > old["warned"] or gained:
            lines.append(f"{r['command']}: exit {old['exit_code']} -> {r['exit_code']}, "
                         f"warned {old['warned']} -> {r['warned']}, newly failing {gained}")
    return lines


def changed_rows(committed: dict) -> list[str]:
    """The rows of identities.CHECKS that committed has no check for, and
    committed's checks that are no longer rows: a scan of other rows is not
    the one to hold the draws to."""
    added = [name for name in identities.CHECKS if name not in committed["checks"]]
    removed = [name for name in committed["checks"] if name not in identities.CHECKS]
    return [f"rows {how} since the committed scan: {names}"
            for how, names in (("added", added), ("removed", removed)) if names]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="where to write the result: BENCH_accuracy.json unless --check is given")
    parser.add_argument("--check", help="a committed result that no draw may get worse than")
    args = parser.parse_args(argv)
    # read before anything is written, as --out may name the same file
    committed = None if args.check is None else json.loads(Path(args.check).read_text())
    result = scan(DRAWS, SEED)
    out = args.out or (ROOT / "BENCH_accuracy.json" if committed is None else None)
    if out is not None:
        Path(out).write_text(dumps(result))
    print(json.dumps({k: result[k] for k in ("exit_codes", "warned", "families")}))
    if committed is None:
        return 0
    worse = worsened(result, committed)
    for line in worse:
        print(f"worse: {line}", file=sys.stderr)
    changed = changed_rows(committed)
    for line in changed:
        print(f"checks: {line}", file=sys.stderr)
    return 1 if worse or changed else 0


if __name__ == "__main__":
    sys.exit(main())
