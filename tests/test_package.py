import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import graftlab

ROOT = Path(__file__).resolve().parents[1]


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        assert graftlab.__version__ == tomllib.load(fh)["project"]["version"]


def _run_python(code: str, **env_vars: str) -> str:
    src = str(Path(graftlab.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=pythonpath, **env_vars)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return out.stdout.strip().splitlines()[-1]


@pytest.fixture(scope="module")
def modules_after_cli_import() -> list[str]:
    # one interpreter launch serves every import test below: the scipy,
    # numpy.polynomial and argparse modules loaded by `import graftlab.cli`
    code = (
        "import sys, graftlab.cli; "
        "print(sorted(m for m in sys.modules "
        "if m.split('.')[0] in ('scipy', 'argparse') or m.startswith('numpy.polynomial')))"
    )
    return ast.literal_eval(_run_python(code))


def test_cli_import_leaves_argparse_unloaded(modules_after_cli_import):
    # the parser is built, and argparse imported, on the first command line
    assert "argparse" not in modules_after_cli_import


def test_cli_import_leaves_ode_and_spline_modules_unloaded(modules_after_cli_import):
    assert [m for m in ("scipy.integrate", "scipy.interpolate") if m in modules_after_cli_import] == []


def test_cli_import_leaves_polynomial_and_quadrature_modules_unloaded(modules_after_cli_import):
    # the Gauss-Legendre rule is a literal table: no numpy.polynomial, no LAPACK
    assert [m for m in ("numpy.polynomial", "scipy.integrate") if m in modules_after_cli_import] == []


def test_cli_import_leaves_scipy_and_numpy_polynomial_unloaded(modules_after_cli_import):
    # no scipy module at all: the Gauss-Legendre rule is a literal table, so
    # no numpy.polynomial and no LAPACK either
    assert modules_after_cli_import == []


def test_public_surface_is_pinned():
    # the names the commands, the acceptance gate and the benchmark use;
    # an export added or removed is a change to this list
    assert graftlab.__all__ == [
        "ConfigError",
        "ConvergenceError",
        "DomainError",
        "FourierSolution",
        "GraftLabError",
        "GraftedCollar",
        "IdentityReport",
        "SolvabilityError",
        "SolvedConfiguration",
        "TraceModes",
        "amend_variation",
        "arc_length_derivative",
        "area_derivative_analytic",
        "area_derivative_geometric",
        "area_derivative_report",
        "boundary_term_closed",
        "boundary_term_quadrature",
        "conformal_modulus",
        "conformal_modulus_quadrature",
        "determinant_floor",
        "extended_boundary_term",
        "geodesic_oracle",
        "grafted_length",
        "gudermannian",
        "harmonicity_bound",
        "harmonicity_residual",
        "hyperbolic_neumann",
        "master_identity",
        "matched_global_field",
        "per_mode_determinant",
        "pinned_means",
        "slice_condition",
        "slice_residual",
        "solve_configuration",
        "solve_flat_variation",
        "total_area",
        "total_area_quadrature",
    ]


def test_no_module_binds_a_sibling_function_by_name():
    # a module reaches a sibling's functions through the module
    # (geometry.total_area), so replacing module.f replaces f for every
    # caller; a class, constant or exception is one object and may be
    # imported by name.  The package's __init__ re-exports by name
    package = Path(graftlab.__file__).parent
    bindings = []
    for path in sorted(package.glob("*.py")):
        if path.stem == "__init__":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                owner = importlib.import_module(f"graftlab.{node.module}")
                bindings += [
                    f"{path.stem}: from .{node.module} import {alias.name}"
                    for alias in node.names
                    if inspect.isfunction(getattr(owner, alias.name))
                ]
    assert not bindings, "functions bound by name:\n" + "\n".join(bindings)


def test_verify_output_does_not_depend_on_blas_threads():
    code = (
        "import io, json, contextlib, graftlab.cli; buf = io.StringIO()\n"
        "with contextlib.redirect_stdout(buf):\n"
        "    rc = graftlab.cli.main(['verify', '--modes', '256'])\n"
        "data = json.loads(buf.getvalue()); data.pop('generated_at')\n"
        "print(rc, json.dumps(data, sort_keys=True))"
    )
    outs = {
        threads: _run_python(code, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        for threads in ("1", "2")
    }
    assert outs["1"].startswith("0 ")
    assert outs["1"] == outs["2"]


def test_verify_runs_without_scipy_integrate():
    code = (
        "import sys, graftlab.cli; "
        "code = graftlab.cli.main(['verify']); "
        "print(code, 'scipy.integrate' in sys.modules)"
    )
    assert _run_python(code) == "0 False"


def test_geodesic_runs_without_scipy():
    # the Newton solve is numpy alone: no command loads scipy
    code = (
        "import sys, graftlab.cli; "
        "code = graftlab.cli.main(['geodesic', '--ell', '1', '--s', '0.5', '--a', '0.5', '--modes', '1']); "
        "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    assert _run_python(code) == "0 []"
