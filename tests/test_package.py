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


def _run_python(code: str) -> str:
    src = str(Path(graftlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return out.stdout.strip().splitlines()[-1]


def test_cli_import_leaves_ode_and_spline_modules_unloaded():
    code = (
        "import sys, graftlab.cli; "
        "print(sorted(m for m in ('scipy.integrate', 'scipy.interpolate') if m in sys.modules))"
    )
    assert _run_python(code) == "[]"


def test_verify_runs_without_scipy_integrate():
    code = (
        "import sys, graftlab.cli; "
        "code = graftlab.cli.main(['verify']); "
        "print(code, 'scipy.integrate' in sys.modules)"
    )
    assert _run_python(code) == "0 False"
