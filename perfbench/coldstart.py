"""One cold start: import graftlab.cli in a fresh interpreter, run one op.

Usage: python3 perfbench/coldstart.py <repo root> <argv as JSON>
Prints {"import_s": ..., "warmup_s": ..., "rc": ...} as one JSON line.
"""
import contextlib
import io
import json
import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1] + "/src")
from graftlab import cli  # noqa: E402

t1 = time.perf_counter()
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    rc = cli.main(json.loads(sys.argv[2]))
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "warmup_s": t2 - t1, "rc": rc}))
