"""Normal variation of the seam geodesics and its amended version.

The normal displacement V of the seam circles solves, in the circumferential
coordinate,

    V_yy           = -1/2 (dH/dx from the flat side)        (flat regime)
    V_yy - V       = -1/2 (dH/dx from the hyperbolic side)  (hyperbolic regime)

V is measured positively in the +x direction on both seams.  The amended
field W picks up an extra forcing +d/dy Im(phi) from the off-conformal
tensor; the sign is relative to (x, y) coordinates, in which the
along-normal conformal frame carrying phi is negatively oriented.  Each map
here is linear, so it takes the trace of one seam or either part of a seam
pair alike (spectral.seam_part).
"""
from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Callable

import numpy as np

from . import hypersolve
from .errors import ConvergenceError, SolvabilityError
from .geometry import GraftedCollar
from .spectral import MEAN_TOL, QuadDiffModes, TraceModes, seam_part

if TYPE_CHECKING:
    from .identities import SolvedConfiguration


_TINY = float(np.finfo(float).tiny)  # the smallest normal double


def _ell_squared(ell, nmax: int) -> tuple[np.ndarray, np.ndarray | None]:
    """(q, e) with ell^2 = q 4^e, for ell as a column against the modes
    1..nmax: q = ell^2 and e = None where ell^2 / (8 pi^2 n^2) is a normal
    double at every n.  Below that (ell under about 4.2e-154 n) the quotient
    loses bits and its reciprocal overflows, so there e < 0 scales ell
    exactly into [1/2, 1) before it is squared; e is 0 at the other points."""
    ell = np.asarray(ell)[..., None]
    ell_sq = ell**2
    small = ell_sq < 8.0 * np.pi**2 * nmax**2 * _TINY
    if not small.any():
        return ell_sq, None
    e = np.where(small, np.frexp(ell)[1], 0)
    return np.ldexp(ell, -e) ** 2, e


def _times_4_to_the(z: np.ndarray, e: np.ndarray | None) -> np.ndarray:
    """z 4^e, each real and imaginary part scaled by ldexp: exact, signed
    zeros too, bar one rounding where the result is subnormal; z if e is None."""
    return z if e is None else np.ldexp(z.view(float), 2 * e).view(z.dtype)


def solve_flat_variation(flat_neumann: TraceModes, mean_value: float) -> TraceModes:
    """Solve V_yy = -1/2 * (flat Neumann data) on the periodic seam circle.

    Returns the "variation" trace of V.  Per mode:
    lambda_n = (ell^2 / (8 pi^2 n^2)) N_n, with ell^2 scaled by a power of
    four where the quotient is not a normal double (_ell_squared), so
    lambda_n stays within a few eps wherever it is one, as at ell = 1e-170.
    The mean of V is a free constant supplied by the caller; a nonzero mean
    of the forcing (i.e. a nonzero linear-in-x coefficient) admits no
    periodic solution.
    """
    if flat_neumann.kind != "neumann_flat":
        raise ValueError("expected a flat-side Neumann trace")
    if (np.abs(flat_neumann.mean) > MEAN_TOL).any():
        raise SolvabilityError(
            f"no periodic solution: mean forcing c0 = {flat_neumann.mean} != 0"
        )
    ell = flat_neumann.ell
    n = np.arange(1, flat_neumann.coef.shape[-1])
    coef = np.zeros(flat_neumann.coef.shape, dtype=flat_neumann.coef.dtype)
    ell_sq, e = _ell_squared(ell, len(n))
    coef[..., 1:] = _times_4_to_the((ell_sq / (8.0 * np.pi**2 * n**2)) * flat_neumann.coef[..., 1:], e)
    return TraceModes(side=flat_neumann.side, kind="variation", ell=ell, mean=mean_value, coef=coef)


def hyperbolic_neumann(v: TraceModes) -> TraceModes:
    """Hyperbolic-side d/dx data implied by a variation V or an amended
    variation W: -2 (V_yy - V), spectrally.

    Mode n maps to 2 (4 pi^2 n^2 + ell^2) / ell^2 times lambda_n; the mean
    maps to twice the free constant.  Where that factor would overflow the
    quotient takes ell^2 scaled by a power of four (_ell_squared), and the
    product is scaled back: 4 pi^2 n^2 + ell^2 is 4 pi^2 n^2 there, so the
    value stays within a few eps, as at ell = 1e-170.  On W this is
    identical to the explicit cosh/sinh expansion in the (c, d, u, v) data
    (checked in the test suite).  Any other trace kind is a ValueError.
    """
    if v.kind not in ("variation", "amended_variation"):
        raise ValueError(f"expected a variation field, got a {v.kind!r} trace")
    n = np.arange(1, v.coef.shape[-1])
    ell_sq, e = _ell_squared(v.ell, len(n))
    coef = np.zeros(v.coef.shape, dtype=np.result_type(v.coef, 1.0))
    # where ell is scaled (e < 0), ell^2 adds nothing to 4 pi^2 n^2
    kept, e = (ell_sq, e) if e is None else (np.where(e < 0, 0.0, ell_sq), -e)
    coef[..., 1:] = _times_4_to_the(2.0 * (4.0 * np.pi**2 * n**2 + kept) / ell_sq * v.coef[..., 1:], e)
    return TraceModes(side=v.side, kind="neumann_hyperbolic", ell=v.ell, mean=2.0 * v.mean, coef=coef)


def amend_variation(v: TraceModes, q: QuadDiffModes) -> TraceModes:
    """The amended field W of a solved flat variation v: W_yy gains the
    forcing d/dy Im(phi), so per mode lambda_n shifts by ell / (2 pi i n)
    times q's seam values on v's side, u_n cosh -/+ v_n sinh on a seam and
    u_n cosh or v_n sinh on a part; the mean is kept."""
    if v.kind != "variation":
        raise ValueError(f"expected an unamended variation field, got a {v.kind!r} trace")
    width = len(q.u)
    coef = np.zeros(max(len(v.coef), width), dtype=complex)
    coef[: len(v.coef)] = v.coef
    n = np.arange(1, width)
    coef[1:width] += -1j * (v.ell / (2.0 * np.pi * n)) * q.seam_values(v.side)[1:]
    return replace(v, kind="amended_variation", coef=coef)


def pinned_means(dtn0: float, even_mean: float, odd_mean: float) -> tuple[float, float]:
    """Free constants pinned by the hyperbolic mean-mode balance, as parts.

    Matching the mean of -2(V_yy - V) with the strip Dirichlet-to-Neumann
    data gives lambda_0 = -dtn0 * (left seam mean) / 2 and
    rho_0 = +dtn0 * (right seam mean) / 2, so the even and odd parts of
    (lambda_0, rho_0) are dtn0 times the odd and even parts of the seam
    Dirichlet means, over 2.
    """
    return dtn0 * odd_mean / 2.0, dtn0 * even_mean / 2.0


# --- globally matched fields and the geodesic oracle ------------------------

def matched_global_field(config: SolvedConfiguration) -> Callable:
    """Field on the whole collar, field(x, y) -> (H, dH/dx): the cylinder
    series extended into both strips by Cauchy integration of the mode ODE.

    The strip extensions are continuous with the configuration's Dirichlet
    traces on each seam (SolvedConfiguration.seam) and carry the
    hyperbolic-side Neumann traces of its variations there as their normal
    derivative, so the geodesic variation of the (1 + t * H)-conformal
    family solves both regimes of the variation equation simultaneously.
    On the strips dH/dx is the strip-side (one-sided) derivative; each strip
    takes b and b' from one call of its mode_extend profiles, summed over
    all its modes in one array expression.
    """
    chart, sol = config.chart, config.sol
    if abs(sol.c0) > MEAN_TOL:
        raise SolvabilityError("matched fields require a vanishing linear coefficient")
    ell, s, a = chart.ell, chart.s, chart.a

    # one row per mode, n = 0 first; strip-side slope d/dxi: the left strip
    # has xi = -x - s/2, so its slope is -d/dx
    ns = sol.nonzero_modes()
    rows = np.r_[0, ns]

    def extend(side: str, sgn: float) -> hypersolve.StripProfiles:
        dt, v = config.seam(side)
        nt = hyperbolic_neumann(v)
        return hypersolve.mode_extend(rows, ell, a, np.r_[dt.mean, dt.coef[ns]], sgn * np.r_[nt.mean, nt.coef[ns]])

    ext_left, ext_right = extend("left", -1.0), extend("right", 1.0)
    # pair weight 1 for n = 0, 2 for a mode and its conjugate
    weights = np.where(rows == 0, 1.0, 2.0)[:, None]
    kn = 2.0 * np.pi / ell * rows[:, None]

    def field(x, y) -> tuple[np.ndarray, np.ndarray]:
        x, y = np.broadcast_arrays(np.asarray(x, float), np.asarray(y, float))
        value, dx = np.empty(x.shape), np.empty(x.shape)
        flat = np.abs(x) <= s / 2
        if np.any(flat):
            value[flat] = sol.evaluate(x[flat], y[flat])
            dx[flat] = sol.evaluate_dx(x[flat], y[flat])
        for side, ext, sgn in ((x < -s / 2, ext_left, -1.0), (x > s / 2, ext_right, 1.0)):
            if np.any(side):
                b, bp = ext(sgn * x[side] - s / 2)
                phase = np.exp(1j * kn * y[side])
                value[side] = (weights * np.real(b * phase)).sum(axis=0)
                dx[side] = sgn * (weights * np.real(bp * phase)).sum(axis=0)
        return value, dx

    return field


def geodesic_oracle(
    chart: GraftedCollar,
    field: Callable,
    side: str,
    t: float,
    m: int = 256,
    initial_rate: np.ndarray | None = None,
):
    """Normal displacement rate of the perturbed closed seam geodesic.

    Solves for the closed curve x = X(y) that is a geodesic of the metric
    (dx^2 + G^2 dy^2) / (1 + t * H), with field(x, y) -> (H, dH/dx) as
    matched_global_field returns it, by Newton (Powell hybrid) on the
    Euler-Lagrange equations collocated on m uniform y points, and takes the
    forward difference (X_t - X_0) / t, which is first order in t.  Each
    residual evaluates the field once, on the grid points and the midpoints
    together.  Returns (y grid, displacement / t samples); at t = 0 the rate
    is zero and nothing is solved.

    Pass initial_rate (samples of the anticipated normal variation on the
    uniform y grid) to select the perturbed geodesic continuously connected
    to the seam circle; from a cold start the solver can land on a distant
    geodesic of the same metric.  The Euler-Lagrange residual is checked at
    the solution either way.

    scipy is imported here only, on first use, so geodesic is the one
    command that loads it.
    """
    ell, s = chart.ell, chart.s
    base = seam_part(side, 0.0, s / 2)
    h = ell / m
    y = np.arange(m) * h
    if t == 0:
        return y, np.zeros(m)
    from scipy.optimize import root

    # the y of the grid points, then of the midpoints (xm, y + h / 2)
    points_y = np.concatenate((y, y + h / 2))

    def residual(X):
        Xr = np.roll(X, -1)
        xm = 0.5 * (X + Xr)
        value, dx = field(np.concatenate((X, xm)), points_y)
        xp = (Xr - X) / h
        speed_m = np.hypot(xp, chart.G(xm))
        P = xp / (speed_m * np.sqrt(1.0 + t * value[m:]))
        dP = (P - np.roll(P, 1)) / h
        xc = (Xr - np.roll(X, 1)) / (2 * h)
        G = chart.G(X)
        speed = np.hypot(xc, G)
        H = 1.0 + t * value[:m]
        Hx = t * dx[:m]
        Q = G * chart.Gp(X) / (speed * np.sqrt(H)) - 0.5 * speed * Hx * H ** (-1.5)
        return dP - Q

    x0 = np.full(m, base) if initial_rate is None else base + t * np.asarray(initial_rate, float)
    result = root(residual, x0, method="hybr", tol=1e-12)
    # hybr can report "not making good progress" after full convergence when
    # the flat-region directions are nearly degenerate; judge by the residual
    res_norm = float(np.max(np.abs(residual(result.x))))
    if res_norm > 1e-9:
        raise ConvergenceError(
            f"geodesic Newton failed (residual {res_norm:.2e}): {result.message}"
        )
    return y, (result.x - base) / t
