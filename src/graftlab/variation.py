"""Normal variation of the seam geodesics and its amended version.

The normal displacement V of the seam circles solves, in the circumferential
coordinate,

    V_yy           = -1/2 (dH/dx from the flat side)        (flat regime)
    V_yy - V       = -1/2 (dH/dx from the hyperbolic side)  (hyperbolic regime)

V is measured positively in the +x direction on both seams.  The amended
field W picks up an extra forcing +d/dy Im(phi) from the off-conformal
tensor; the sign is relative to (x, y) coordinates, in which the
along-normal conformal frame carrying phi is negatively oriented.  Each map
here is linear and elementwise in the modes, so it takes the trace of one
seam, of either part of a seam pair, or of several sides on a leading axis
alike (spectral.seam_part).
"""
from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Callable

import numpy as np

from . import geometry, hypersolve, spectral
from .errors import ConvergenceError, SolvabilityError
from .spectral import LARGE_ELL, MEAN_TOL, FourierSolution, TraceModes

if TYPE_CHECKING:
    from .identities import SolvedConfiguration


_TINY = float(np.finfo(float).tiny)  # the smallest normal double


def _ell_squared(ell, nmax: int) -> tuple[np.ndarray, np.ndarray | None]:
    """(q, e) with ell^2 = q 4^e, for ell as a column against the modes
    1..nmax: q = ell^2 and e = None where ell^2 / (8 pi^2 n^2) is a normal
    double at every n and ell <= LARGE_ELL (about 3.4e153).  Below that
    (ell under about 4.2e-154 n) the quotient loses bits and its reciprocal
    overflows, and above it ell^2 overflows, so there e scales ell exactly
    into [1/2, 1) before it is squared, e < 0 below and e > 0 above; e is 0
    at the other points.  In range the large test is one comparison of the
    largest ell, read as a Python number off the few points."""
    ell = np.asarray(ell)[..., None]
    large = max(ell.flat) > LARGE_ELL
    ell_sq = (np.minimum(ell, LARGE_ELL) if large else ell) ** 2
    small = ell_sq < 8.0 * np.pi**2 * nmax**2 * _TINY
    if not (large or small.any()):
        return ell_sq, None
    e = np.where(small | (ell > LARGE_ELL), np.frexp(ell)[1], 0)
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
    lambda_n stays within a few eps wherever it is one, as at ell = 1e-170
    and at ell = 1e300.  Past ell of about 1e306 the scaled product is below
    the smallest normal double, as N_n nearly is, and keeps fewer bits.
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
    value stays within a few eps, as at ell = 1e-170.  Where ell^2 would
    overflow, 4 pi^2 n^2 is scaled down with it and nothing is scaled back,
    as at ell = 1e160.  On W this is
    identical to the explicit cosh/sinh expansion in the (c, d, u, v) data
    (checked in the test suite).  Any other trace kind is a ValueError.
    """
    if v.kind not in ("variation", "amended_variation"):
        raise ValueError(f"expected a variation field, got a {v.kind!r} trace")
    n = np.arange(1, v.coef.shape[-1])
    ell_sq, e = _ell_squared(v.ell, len(n))
    coef = np.zeros(v.coef.shape, dtype=np.result_type(v.coef, 1.0))
    kept, k_sq = ell_sq, 4.0 * np.pi**2 * n**2
    if e is not None:
        # where small ell is scaled up (e < 0), ell^2 adds nothing to
        # 4 pi^2 n^2 and the quotient is scaled back; where large ell is
        # scaled down (e > 0), 4 pi^2 n^2 is scaled with it
        kept, k_sq, e = np.where(e < 0, 0.0, ell_sq), np.ldexp(k_sq, -2 * np.maximum(e, 0)), -np.minimum(e, 0)
    coef[..., 1:] = _times_4_to_the(2.0 * (k_sq + kept) / ell_sq * v.coef[..., 1:], e)
    return TraceModes(side=v.side, kind="neumann_hyperbolic", ell=v.ell, mean=2.0 * v.mean, coef=coef)


def amend_variation(v: TraceModes, q: FourierSolution) -> TraceModes:
    """The amended field W of a solved flat variation v: W_yy gains the
    forcing d/dy Im(phi) of Im(phi) = q, whose modes are
    (u_n, v_n) = (q.c, q.d) and whose linear coefficient q.c0 is 0, so its
    mean part has no y-derivative.  Per mode lambda_n shifts by
    ell / (2 pi i n) times q's seam values on v's sides, u_n cosh -/+ v_n
    sinh on a seam and u_n cosh or v_n sinh on a part; the mean is kept.
    The modes are v's last axis, and its sides and points lead it."""
    if v.kind != "variation":
        raise ValueError(f"expected an unamended variation field, got a {v.kind!r} trace")
    width = q.c.shape[-1]
    coef = np.zeros(v.coef.shape[:-1] + (max(v.coef.shape[-1], width),), dtype=complex)
    coef[..., : v.coef.shape[-1]] = v.coef
    n = np.arange(1, width)
    coef[..., 1:width] += -1j * (np.asarray(v.ell)[..., None] / (2.0 * np.pi * n)) * q.seam_values(v.side)[..., 1:]
    return replace(v, kind="amended_variation", coef=coef)


def pinned_means(dtn0: float, means: np.ndarray) -> np.ndarray:
    """Free constants pinned by the hyperbolic mean-mode balance, as parts,
    from the (even, odd) parts of the seam Dirichlet means on a leading axis.

    Matching the mean of -2(V_yy - V) with the strip Dirichlet-to-Neumann
    data gives lambda_0 = -dtn0 * (left seam mean) / 2 and
    rho_0 = +dtn0 * (right seam mean) / 2, so the even and odd parts of
    (lambda_0, rho_0) are dtn0 times the odd and even parts of the seam
    Dirichlet means, over 2.
    """
    return dtn0 * np.asarray(means)[::-1] / 2.0


# --- globally matched fields and the geodesic oracle ------------------------

def matched_global_field(config: SolvedConfiguration) -> Callable:
    """Field on the whole collar, field(x, y) -> (H, dH/dx): the cylinder
    series extended into both strips by Cauchy integration of the mode ODE.

    The strip extensions are continuous with the configuration's Dirichlet
    traces on the two seams (SolvedConfiguration.seam) and carry the
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
    # the seam values and the slopes, each with a row per seam: left, then right
    dt, v = config.seam(("left", "right"))
    values, slopes = (np.column_stack((t.mean, t.coef[:, ns])) for t in (dt, hyperbolic_neumann(v)))
    exts = [hypersolve.mode_extend(rows, ell, a, b, sgn * p) for b, p, sgn in zip(values, slopes, (-1.0, 1.0))]
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
        for side, ext, sgn in zip((x < -s / 2, x > s / 2), exts, (-1.0, 1.0)):
            if np.any(side):
                b, bp = ext(sgn * x[side] - s / 2)
                phase = np.exp(1j * kn * y[side])
                value[side] = (weights * np.real(b * phase)).sum(axis=0)
                dx[side] = sgn * (weights * np.real(bp * phase)).sum(axis=0)
        return value, dx

    return field


#: Points of geodesic_oracle's uniform y grid
GEODESIC_POINTS = 256


def geodesic_grid(ell: float, m: int = GEODESIC_POINTS) -> np.ndarray:
    """The m uniform points y_j = j ell / m on which geodesic_oracle
    collocates, and at which it takes and returns its rates."""
    return np.arange(m) * (ell / m)


def geodesic_oracle(
    chart: geometry.GraftedCollar,
    field: Callable,
    side: str,
    t: float,
    initial_rate: np.ndarray,
    m: int = GEODESIC_POINTS,
):
    """Normal displacement rate of the perturbed closed seam geodesic.

    Solves for the closed curve x = X(y) that is a geodesic of the metric
    (dx^2 + G^2 dy^2) / (1 + t * H), with field(x, y) -> (H, dH/dx) as
    matched_global_field returns it, by damped Newton (_newton) on the
    Euler-Lagrange equations collocated on the m points of geodesic_grid,
    and takes the forward difference (X_t - X_0) / t, which is first order
    in t.  Each residual evaluates the field once, on the grid points and
    the midpoints together.  Returns (y grid, displacement / t samples); at
    t = 0 the rate is zero and nothing is solved.

    initial_rate (samples of the anticipated normal variation on that grid;
    zeros start from the seam circle itself) selects the perturbed
    geodesic continuously connected to the seam circle: from a distant
    start the solver can land on another geodesic of the same metric.  The
    solve is a ConvergenceError unless the Euler-Lagrange residual is at
    most 1e-9 at its solution (a NaN residual is not).
    """
    base, h = spectral.seam_part(side, 0.0, chart.s / 2), chart.ell / m
    y = geodesic_grid(chart.ell, m)
    if t == 0:
        return y, np.zeros(m)

    # the y of the grid points, then of the midpoints (xm, y + h / 2)
    points_y = np.concatenate((y, y + h / 2))

    def residual(X):
        Xr = np.roll(X, -1)
        xm = 0.5 * (X + Xr)
        value, dx = field(np.concatenate((X, xm)), points_y)
        xp = (Xr - X) / h
        P = xp / (np.hypot(xp, chart.G(xm)) * np.sqrt(1.0 + t * value[m:]))
        G = chart.G(X)
        speed = np.hypot((Xr - np.roll(X, 1)) / (2 * h), G)
        H, Hx = 1.0 + t * value[:m], t * dx[:m]
        Q = G * chart.Gp(X) / (speed * np.sqrt(H)) - 0.5 * speed * Hx * H ** (-1.5)
        return (P - np.roll(P, 1)) / h - Q

    X, r, steps = _newton(residual, base + t * np.asarray(initial_rate, float))
    res_norm = float(np.max(np.abs(r)))
    if not res_norm <= 1e-9:
        raise ConvergenceError(f"geodesic Newton failed (residual {res_norm:.2e} after {steps} steps)")
    return y, (X - base) / t


#: The Newton solve's constants: the central-difference step of the
#: Jacobian, relative to max(1, |X_j|); the step, relative to X, below which
#: the solve ends; the most steps
_FD_STEP, _STEP_TOL, _MAX_STEPS = 6e-6, 1e-12, 30


def _newton(residual: Callable, X: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Damped Newton on a periodic three-point residual (_jacobian_bands):
    (X, the residual at X, the accepted steps).  A step is halved until the
    2-norm of the residual drops.  The solve ends after an accepted step of
    at most _STEP_TOL relative to X, when halving reaches that size with no
    decrease (or a NaN step), or after _MAX_STEPS steps."""
    r = residual(X)
    for steps in range(_MAX_STEPS):
        dX = _periodic_tridiagonal_solve(*_jacobian_bands(residual, X), -r)
        # negated comparisons: a NaN trial residual is no decrease, and a NaN step ends the solve
        while not np.linalg.norm(r_trial := residual(X + dX)) < np.linalg.norm(r):
            dX = dX / 2
            if not np.linalg.norm(dX) > _STEP_TOL * np.linalg.norm(X):
                return X, r, steps
        X, r = X + dX, r_trial
        if np.linalg.norm(dX) <= _STEP_TOL * np.linalg.norm(X):
            return X, r, steps + 1
    return X, r, _MAX_STEPS


def _jacobian_bands(residual: Callable, X: np.ndarray) -> np.ndarray:
    """Rows (J[j, j-1], J[j, j], J[j, j+1]), indices mod m, of the Jacobian
    of a residual whose node j reads X_{j-1}, X_j and X_{j+1} alone, by
    central differences.  No row reads two columns three apart, so one pair
    of residual calls perturbs a whole colour of columns (Curtis, Powell and
    Reid 1974): column j < m - m % 3 takes colour j % 3, and each of the
    last m % 3, which the wrap puts beside column 0, a colour of its own.
    For m >= 3."""
    m = len(X)
    step = _FD_STEP * np.maximum(1.0, np.abs(X))
    colour = np.r_[np.arange(m - m % 3) % 3, 3 + np.arange(m % 3)]
    bands = np.zeros((3, m))
    for c in range(colour[-1] + 1):
        e = np.where(colour == c, step, 0.0)
        # row j reads column j - 1 in the lower band, j in the diagonal, j + 1 in the upper
        bands = np.where(np.stack((np.roll(e, 1), e, np.roll(e, -1))) > 0, residual(X + e) - residual(X - e), bands)
    return bands / (2.0 * np.stack((np.roll(step, 1), step, np.roll(step, -1))))


def _periodic_tridiagonal_solve(lower, diag, upper, rhs) -> np.ndarray:
    """x with lower_j x_{j-1} + diag_j x_j + upper_j x_{j+1} = rhs_j, indices
    mod m >= 3, with no LAPACK.  The matrix is a band T plus u v^T, with
    u = (g, 0, ..., 0, upper_{m-1}), v = (1, 0, ..., 0, lower_0 / g) and
    g = -diag_0, so that T's first diagonal entry is 2 diag_0 and its last
    diag_{m-1} - upper_{m-1} lower_0 / g.  One Thomas sweep without
    pivoting, on the Python complex numbers rhs + i u, gives T y = rhs and
    T z = u together, and Sherman-Morrison x = y - (v.y / (1 + v.z)) z."""
    corner = -lower[0] / diag[0]
    a, b, c = lower.tolist(), diag.tolist(), upper.tolist()
    b[0], b[-1] = 2.0 * b[0], b[-1] - corner * c[-1]
    d = (rhs + 1j * np.r_[-diag[0], np.zeros(len(b) - 2), c[-1]]).tolist()
    cp, dp = [c[0] / b[0]], [d[0] / b[0]]
    for j in range(1, len(b)):
        w = b[j] - a[j] * cp[-1]
        cp.append(c[j] / w)
        dp.append((d[j] - a[j] * dp[-1]) / w)
    for j in range(len(b) - 2, -1, -1):
        dp[j] -= cp[j] * dp[j + 1]
    y, z = np.array(dp).real, np.array(dp).imag
    return y - (y[0] + corner * y[-1]) / (1.0 + z[0] + corner * z[-1]) * z
