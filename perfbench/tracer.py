"""Spans around the calls into each graftlab module, recorded from outside.

Every public function and public method defined in a graftlab module is
wrapped at each place callers look it up: the module attribute, every name
bound to it by `from .x import y` in another module or the package, dict
values at module level (cli's command table) and, for methods, the class.
Wrappers are installed only while a traced op runs, so untraced ops and the
benchmark's own checks call the original code.

A span is (id, parent id, op id, name, layer, start, end, error, key).  The
layer is the module name.  Threads started inside an op (sweep's pool) have
no span of their own to hang under; their spans hang under the innermost
span open in the op's thread when they start (`cli.cmd_sweep` for the pool).
"""
from __future__ import annotations

import functools
import gzip
import inspect
import itertools
import json
import sys
import threading
import time
from contextlib import contextmanager

#: the traced package
_PACKAGE = "graftlab"
#: modules that are not layers: the package itself and its error classes
_SKIP = {"errors"}
#: functions whose spans carry the strip unit problem (n, ell, a, outer_bc)
_KEYED = {"hypersolve.mode_solve", "hypersolve.dtn"}
_FIELDS = ("id", "parent", "op", "name", "layer", "start", "end", "error", "key")


class Tracer:
    def __init__(self):
        mods = {n: m for n, m in sys.modules.items() if n == _PACKAGE or n.startswith(_PACKAGE + ".")}
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root: int | None = None
        self._op_stack: list[int] = []
        self._op: int | None = None
        self._sites = self._find_sites(mods)

    # --- wrapping -----------------------------------------------------------

    def _find_sites(self, mods: dict) -> list[tuple]:
        wrapped: dict[int, object] = {}  # id(original function) -> wrapper
        sites = []
        for modname, mod in mods.items():
            layer = modname.rpartition(".")[2]
            if modname == _PACKAGE or layer in _SKIP:
                continue
            for name, obj in vars(mod).items():
                if name.startswith("_") or getattr(obj, "__module__", None) != modname:
                    continue
                if inspect.isfunction(obj) and not (layer == "cli" and name == "main"):
                    wrapped[id(obj)] = self._wrap(obj, f"{layer}.{name}", layer)
                elif inspect.isclass(obj):
                    for attr, val in vars(obj).items():
                        if attr.startswith("_"):
                            continue
                        qual = f"{layer}.{name}.{attr}"
                        if inspect.isfunction(val):
                            sites.append((obj, attr, val, self._wrap(val, qual, layer)))
                        elif isinstance(val, (classmethod, staticmethod)):
                            new = type(val)(self._wrap(val.__func__, qual, layer))
                            sites.append((obj, attr, val, new))
        for mod in mods.values():
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    sites.append((mod, name, obj, wrapped[id(obj)]))
                elif isinstance(obj, dict):
                    for key, val in obj.items():
                        if id(val) in wrapped:
                            sites.append((obj, key, val, wrapped[id(val)]))
        return sites

    def _wrap(self, fn, name: str, layer: str):
        spans, ids, local = self.spans, self._ids, self._local
        sig = inspect.signature(fn) if name in _KEYED else None
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            # a slice, not [-1]: the op's thread may pop its last span meanwhile
            top = stack[-1:] or tracer._op_stack[-1:]
            parent = top[0] if top else tracer._root
            sid = next(ids)
            key = None
            if sig is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                b = bound.arguments
                key = (b["n"], b["ell"], b["a"], b["outer_bc"])
            stack.append(sid)
            err = None
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                err = type(exc).__name__
                raise
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans.append((sid, parent, tracer._op, name, layer, t0, t1, err, key))

        return wrapper

    @staticmethod
    def _set(site, value) -> None:
        target, attr = site[0], site[1]
        if isinstance(target, dict):
            target[attr] = value
        else:
            setattr(target, attr, value)

    @contextmanager
    def op(self, op_id: int):
        """Trace one op: install the wrappers and record a root span `cli.main`."""
        for site in self._sites:
            self._set(site, site[3])
        self._op, self._root = op_id, next(self._ids)
        self._op_stack = self._local.__dict__.setdefault("stack", [])
        err = None
        t0 = time.perf_counter()
        try:
            yield
        except BaseException as exc:
            err = type(exc).__name__
            raise
        finally:
            t1 = time.perf_counter()
            for site in self._sites:
                self._set(site, site[2])
            self.spans.append((self._root, None, op_id, "cli.main", "cli", t0, t1, err, None))
            self._op = self._root = None

    def write(self, path, meta: dict) -> None:
        with gzip.open(path, "wt") as fh:
            json.dump({"meta": meta, "fields": list(_FIELDS), "spans": self.spans}, fh)


# --- per-layer metrics ------------------------------------------------------

def _covered(intervals: list[tuple[float, float]]) -> float:
    total, end = 0.0, -float("inf")
    for a, b in sorted(intervals):
        if b > end:
            total += b - max(a, end)
            end = b
    return total


def layer_metrics(spans: list[tuple], n_ops: int) -> dict[str, float]:
    """Per-layer totals over the traced ops (see the README for each name)."""
    by_id = {sp[0]: sp for sp in spans}
    children: dict[int, list[tuple[float, float]]] = {}
    for sp in spans:
        if sp[1] is not None:
            children.setdefault(sp[1], []).append((sp[5], sp[6]))

    out: dict[str, float] = {}
    for layer in ("cli", "hypersolve", "variation", "identities", "spectral", "geometry", "sampling"):
        out[f"{layer}.self_s"] = 0.0
        out[f"{layer}.errors"] = 0
    calls: dict[str, int] = {}
    time_s: dict[str, float] = {}
    errors: dict[str, int] = {}
    for sp in spans:
        sid, parent, _, name, layer, t0, t1, err = sp[:8]
        kids = [(max(a, t0), min(b, t1)) for a, b in children.get(sid, ())]
        out[f"{layer}.self_s"] += (t1 - t0) - _covered([k for k in kids if k[1] > k[0]])
        calls[name] = calls.get(name, 0) + 1
        time_s[name] = time_s.get(name, 0.0) + (t1 - t0)
        if err is not None:
            errors[name] = errors.get(name, 0) + 1
            if parent is None or by_id[parent][4] != layer:
                out[f"{layer}.errors"] += 1

    def under(sp, name: str) -> bool:
        while sp[1] is not None:
            sp = by_id[sp[1]]
            if sp[3] == name:
                return True
        return False

    oracle_calls = calls.get("variation.geodesic_oracle", 0)
    field_evals = sum(
        1 for sp in spans if sp[3] == "geometry.GlobalField.value" and under(sp, "variation.geodesic_oracle")
    )
    solves = 0
    per_op: dict[int, set] = {}
    for sp in spans:
        if sp[3] == "hypersolve.dtn" or (
            sp[3] == "hypersolve.mode_solve" and by_id[sp[1]][3] != "hypersolve.dtn"
        ):
            solves += 1
            per_op.setdefault(sp[2], set()).add(sp[8])
    distinct = sum(len(keys) for keys in per_op.values())

    out["hypersolve.distinct_share"] = distinct / solves if solves else 0.0
    out["variation.geodesic_oracle.field_evals"] = field_evals / oracle_calls if oracle_calls else 0.0
    for name in (
        "hypersolve.mode_solve", "hypersolve.dtn", "hypersolve.mode_extend",
        "variation.geodesic_oracle", "identities.per_mode_determinant",
        "spectral.TraceModes.reconstruct", "spectral.FourierSolution.evaluate",
        "geometry.GlobalField.value",
    ):
        out[f"{name}.calls"] = calls.get(name, 0)
    for name in (
        "hypersolve.mode_solve", "hypersolve.interior_integral", "hypersolve.greens_residual",
        "hypersolve.dtn", "hypersolve.mode_extend", "variation.geodesic_oracle",
        "variation.matched_global_field", "identities.solve_configuration",
        "identities.master_identity", "identities.extended_master_identity",
        "identities.area_derivative_report", "identities.boundary_term_quadrature",
        "identities.per_mode_determinant", "spectral.TraceModes.reconstruct",
        "spectral.FourierSolution.evaluate", "geometry.GlobalField.value",
    ):
        out[f"{name}.time_s"] = time_s.get(name, 0.0)
    out["variation.geodesic_oracle.errors"] = errors.get("variation.geodesic_oracle", 0)
    out["spectral.harmonicity_residual.errors"] = errors.get("spectral.harmonicity_residual", 0)
    out["trace.ops"] = n_ops
    return out
