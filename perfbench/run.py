"""graftlab benchmark: closed-loop workloads of real `graftlab` commands.

Usage (from the repository root):

    python3 perfbench/run.py --workload identity-suite --seed 1 --seconds 20 --trace 0

One client in one process calls `graftlab.cli.main(argv)` in a loop, each
op one command, until --seconds have passed; one untimed warm-up op runs
first.  Every output is checked (see workloads.check).  The last stdout line
is one JSON object {"correct", "attempted", "failed", "metrics"}: with
--trace 0 the end-to-end metrics, with --trace 1 the per-layer metrics of a
run in which every op executes twice, untraced and traced, in alternating
order.  The lines before it print every metric by name with its unit, and a
record of the run (metadata, per-op outcomes, spans) is written under
perfbench/out/.  See perfbench/README.md for the metric definitions.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import reference
import workloads
from tracer import Tracer, layer_metrics
from workloads import Op

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"
#: cold starts per run; set-up time is their median
SETUP_REPEATS = 5
#: metrics of the final line with --trace 0 (BENCHMARK.json end_to_end)
END_TO_END = ("setup_s", "op_p50_s", "peak_rss_mb")
#: metrics of the final line with --trace 1 (BENCHMARK.json per_layer): the
#: ones that both gated workloads reach.  A layer metric that one of them
#: never reaches would read 0 on every run of it, and so would the error
#: counts, since no op fails on the gated boxes; those are printed above the
#: final line instead, with the geodesic-only metrics.
PER_LAYER = (
    "setup.import_s", "setup.warmup_s", "cli.self_s", "hypersolve.self_s",
    "hypersolve.mode_solve.calls", "hypersolve.mode_solve.time_s", "hypersolve.dtn.calls",
    "hypersolve.dtn.time_s", "hypersolve.distinct_share", "variation.self_s",
    "identities.self_s", "identities.boundary_term_quadrature.time_s",
    "identities.per_mode_determinant.calls", "identities.per_mode_determinant.time_s",
    "spectral.self_s", "spectral.TraceModes.reconstruct.calls",
    "spectral.TraceModes.reconstruct.time_s", "geometry.self_s", "sampling.self_s", "trace.ops",
    "trace.overhead_ratio",
)
_UNITS = {"ok_ops_per_s": "ops/s", "peak_rss_mb": "MB"}
_BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "GRAFTLAB_THREADS")


def cold_start(op: Op) -> dict:
    """Set-up sample: a fresh interpreter imports graftlab.cli and runs `op`."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("coldstart.py")), str(ROOT), json.dumps(op.argv)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    wall = time.perf_counter() - t0
    sample = json.loads(proc.stdout.strip().splitlines()[-1])
    sample["setup_s"] = wall
    return sample


def run_op(main, op: Op) -> tuple[float, int | None, str, str]:
    """(latency, exit code or None if an exception escaped, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = main(list(op.argv))
        except Exception as exc:  # an escaping exception is a failed op, not a crash
            rc = None
            print(f"exception {type(exc).__name__}: {exc}", file=err)
        latency = time.perf_counter() - t0
    return latency, rc, out.getvalue(), err.getvalue()


def outcome(op: Op, rc, stdout: str, stderr: str, per_mode_determinant) -> str | None:
    if rc is None:
        return stderr.split(":", 1)[0]
    try:
        return workloads.check(op, rc, stdout, stderr, per_mode_determinant)
    except (KeyError, ValueError, IndexError, TypeError) as exc:
        return f"malformed output: {type(exc).__name__}"


def self_test(hypersolve, per_mode_determinant) -> list[str]:
    """Check the reference and the checker itself; returns the problems found."""
    problems = []
    for bc in ("dirichlet", "neumann"):
        for n in (0, 1, 2):
            auto = hypersolve.dtn(n, 2 * math.pi, 1.0, bc, method="auto")
            if reference.rel_gap(auto, reference.dtn(n, 2 * math.pi, 1.0, bc)) > 1e-10:
                problems.append(f"reference differs from dtn(auto) at n={n}, {bc}")
    modes = Op(("modes", "--ell", "6.28319", "--s", "1", "--a", "1", "--outer-bc", "neumann",
                "--modes", "3", "--seed", "0"))
    cells = [reference.dtn(n, 6.28319, 1.0, "neumann") for n in range(4)]

    def modes_csv(values):
        return "n,dtn\n" + "".join(f"{n},{v!r}\n" for n, v in enumerate(values))

    if workloads.check(modes, 0, modes_csv(cells), "", per_mode_determinant) is not None:
        problems.append("checker rejects reference DtN values")
    cells[2] *= 1 + 1e-6
    if workloads.check(modes, 0, modes_csv(cells), "", per_mode_determinant) != "reference mismatch: dtn":
        problems.append("checker misses a DtN perturbed by 1e-6")
    sweep = Op(("sweep", "--outer-bc", "dirichlet", "--modes", "2", "--steps", "1"))
    det = min(abs(per_mode_determinant(n, 2.0, 1.0, 1.0, "dirichlet",
                                       dtn_value=reference.dtn(n, 2.0, 1.0, "dirichlet"))) for n in (1, 2))
    for det_min, err, want in ((det, 0.0, None), (det + 1e-6, 0.0, "reference mismatch: det_min"),
                               (det, math.nan, "non-finite: boundary_rel_err")):
        text = f"ell,s,a,det_min,boundary_rel_err\n2.0,1.0,1.0,{det_min!r},{err!r}\n"
        if workloads.check(sweep, 0, text, "", per_mode_determinant) != want:
            problems.append(f"sweep checker gives the wrong verdict for {want or 'a good row'}")
    return problems


def git_commit() -> str | None:
    """The checkout's commit, or None when it is not a git repository."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def metadata(args, ops: list[Op]) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "os_cpu_count": os.cpu_count(),
        "sweep_pool": max(int(os.environ.get("GRAFTLAB_THREADS", os.cpu_count() or 1)), 1),
        "thread_env": {var: os.environ.get(var) for var in _BLAS_VARS},
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "op_list_sha256": workloads.digest(ops),
        "op_list_len": len(ops),
    }


def tail(latencies: list[float]) -> tuple[float, float] | None:
    """(value, percentile) of the highest percentile with >= 10 ops beyond it."""
    k = len(latencies) - 10
    if k < 1:
        return None
    return sorted(latencies)[k - 1], 100.0 * k / len(latencies)


def unit(name: str) -> str:
    if name in _UNITS:
        return _UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith(("calls", "errors", "field_evals", "ops")):
        return "count"
    return "1"


def timed_loop(main, ops: list[Op], round_len: int, seconds: float, tracer, pmd
               ) -> tuple[list[dict], float, dict]:
    """Run ops in order, round by round, until `seconds` have passed.
    Returns one record per op, the wall time of the loop, and the cheapest
    passing op (else the cheapest op) with its output; no other output is
    kept."""
    records, cheapest = [], None
    start = time.perf_counter()
    while len(records) < len(ops) and (len(records) % round_len
                                       or time.perf_counter() - start < seconds):
        i = len(records)
        op = ops[i]
        if tracer is None:
            lat, rc, out, err = run_op(main, op)
            rec = {"latency_s": lat, "reason": outcome(op, rc, out, err, pmd)}
        else:
            runs = {}
            for traced in ((False, True) if i % 2 == 0 else (True, False)):
                with tracer.op(i) if traced else contextlib.nullcontext():
                    runs[traced] = run_op(main, op)
            lat, rc, out, err = runs[False]
            reasons = [outcome(op, *runs[t][1:], pmd) for t in (False, True)]
            if workloads.canonical(runs[True][2]) != workloads.canonical(out) or runs[True][1] != rc:
                reasons.append("not reproducible")
            rec = {"latency_s": lat, "traced_latency_s": runs[True][0],
                   "reason": next((r for r in reasons if r), None)}
        records.append({"op": i, "argv": op.argv, "rc": rc, **rec})
        rank = (rec["reason"] is not None, lat)
        if cheapest is None or rank < cheapest["rank"]:
            cheapest = {"rank": rank, "record": records[-1], "stdout": out}
    return records, time.perf_counter() - start, cheapest


def rerun_cheapest(main, ops: list[Op], cheapest: dict) -> bool:
    """Run the cheapest op again; its output must match byte for byte once
    `generated_at` is dropped."""
    rec = cheapest["record"]
    _, rc, out, _ = run_op(main, ops[rec["op"]])
    same = rc == rec["rc"] and workloads.canonical(out) == workloads.canonical(cheapest["stdout"])
    if not same:
        rec["reason"] = rec["reason"] or "not reproducible"
    return same


def end_to_end(setup: list[dict], records: list[dict], wall: float) -> dict[str, tuple]:
    """name -> (value, note); a value of None is omitted from the final line."""
    lat = [r["latency_s"] for r in records]
    n = len(lat)
    failed = sum(r["reason"] is not None for r in records)
    t = tail(lat)
    return {
        "setup_s": (statistics.median(s["setup_s"] for s in setup), f"median of {len(setup)} cold starts"),
        "op_p50_s": (statistics.median(lat), f"{n} ops"),
        "op_tail_s": (t[0], f"p{t[1]:.1f}, 10 of {n} ops beyond") if t else
                     (None, f"omitted: {n} ops, fewer than 11"),
        "ok_ops_per_s": ((n - failed) / wall, f"{n - failed} ok in {wall:.3f} s of timed wall time"),
        "fail_ratio": (failed / n, f"{failed} of {n} ops"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "benchmark process"),
    }


def per_layer(setup: list[dict], records: list[dict], spans: list[tuple]) -> dict[str, tuple]:
    layers = layer_metrics(spans, len(records))
    layers["setup.import_s"] = statistics.median(s["import_s"] for s in setup)
    layers["setup.warmup_s"] = statistics.median(s["warmup_s"] for s in setup)
    layers["trace.overhead_ratio"] = (
        statistics.median(r["traced_latency_s"] for r in records)
        / statistics.median(r["latency_s"] for r in records)
    )
    return {name: (value, "") for name, value in sorted(layers.items())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "graftlab" / "cli.py").is_file():
        print(f"error: no graftlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    ops = workloads.make_ops(args.workload, args.seed)
    warm = workloads.warmup_op(args.workload)
    meta = metadata(args, ops)
    setup = [cold_start(warm) for _ in range(SETUP_REPEATS)]

    sys.path.insert(0, str(ROOT / "src"))
    from graftlab import cli, hypersolve, identities

    pmd = identities.per_mode_determinant
    problems = self_test(hypersolve, pmd)
    _, warm_rc, _, _ = run_op(cli.main, warm)
    tracer = Tracer() if args.trace else None
    records, wall, cheapest = timed_loop(cli.main, ops, workloads.ROUND_LEN[args.workload],
                                         args.seconds, tracer, pmd)
    repro_ok = rerun_cheapest(cli.main, ops, cheapest)

    report = end_to_end(setup, records, wall)
    if tracer is not None:
        report.update(per_layer(setup, records, tracer.spans))
    reasons: dict[str, int] = {}
    for r in records:
        if r["reason"]:
            reasons[r["reason"]] = reasons.get(r["reason"], 0) + 1

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    for name, (value, note) in report.items():
        shown = "-" if value is None else f"{value:.6g}"
        print(f"  {name:44s} {shown:>12s} {unit(name):6s} {note}")
    print(f"  fail reasons: {json.dumps(reasons, sort_keys=True)}")
    print(f"  reproducibility re-run: {'match' if repro_ok else 'MISMATCH'}")
    for p in problems:
        print(f"  self-test: {p}")
    print("  meta " + json.dumps(meta, sort_keys=True))

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT_DIR / f"run-{stem}.json", "w") as fh:
        json.dump({"meta": meta, "self_test": problems, "warmup_rc": warm_rc, "setup": setup,
                   "metrics": {k: [v[0], unit(k)] for k, v in report.items()},
                   "fail_reasons": reasons, "ops": records}, fh, indent=1)
    if tracer is not None:
        tracer.write(OUT_DIR / f"spans-{stem}.json.gz", meta)

    wanted = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": not problems,
        "attempted": len(records),
        "failed": sum(r["reason"] is not None for r in records),
        "metrics": {name: {"value": report[name][0], "unit": unit(name)}
                    for name in wanted if report[name][0] is not None},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
