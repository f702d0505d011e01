"""Independent correctness reference for the benchmark.

The strip mode ODE b'' + tanh(xi) b' - (mu^2 / cosh^2 xi + 2) b = 0 with
mu = 2 pi n / ell becomes a Poschl-Teller equation in theta = gd(xi) and has
elementary solutions, so the seam Dirichlet-to-Neumann value b'(0)/b(0) has
a closed form.  It is written with E = exp(-2 mu gd a) <= 1 so that it never
overflows at large mu * a, where the program's fixed-resolution collocation
is known to drift.
"""
from __future__ import annotations

import math

#: relative tolerance for a DtN cell against the reference
DTN_RTOL = 1e-8
#: absolute tolerance for a sweep row's det_min against the reference
DET_ATOL = 1e-8
#: verify's own boundary-term tolerance, applied to sweep rows
BOUNDARY_RTOL = 1e-10


def dtn(n: int, ell: float, a: float, outer_bc: str) -> float:
    """Closed-form seam DtN value of strip mode n (Dirichlet or Neumann at xi = a)."""
    S, C = math.sinh(a), math.cosh(a)
    gd = math.atan(S)
    if outer_bc == "dirichlet":
        if n == 0:
            return -(1.0 / S + gd)
        mu = 2.0 * math.pi * n / ell
        E = math.exp(-2.0 * mu * gd)
        return (1.0 + mu * mu) / mu * ((S - mu) * E - (S + mu)) / ((S - mu) * E + (S + mu))
    if outer_bc == "neumann":
        if n == 0:
            return -(gd + S / (C * C))
        mu = 2.0 * math.pi * n / ell
        E = math.exp(-2.0 * mu * gd)
        p_plus = C * C + mu * mu + mu * S
        p_minus = C * C + mu * mu - mu * S
        return -(1.0 + mu * mu) / mu * (p_plus - E * p_minus) / (p_plus + E * p_minus)
    raise ValueError(f"unknown outer_bc {outer_bc!r}")


def rel_gap(value: float, ref: float) -> float:
    """|value - ref| / |ref|; inf for a non-finite value."""
    if not math.isfinite(value):
        return math.inf
    return abs(value - ref) / max(abs(ref), 1e-300)
