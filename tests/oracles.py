"""Independent numeric routes that the tests check the program against.

Each quantity has one production route in graftlab; the routes here are
separate computations of the same numbers (periodic collocation, Parseval,
manufactured strip profiles, the strip profiles from their four pair arrays,
the strip Green identity, the interior field
rebuilt from its seam traces, the geodesic solved by MINPACK's hybrid
method), identities that graftlab does not print (the strip integral of H),
or helpers that only the tests use.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from typing import Callable, Iterable
from unittest import mock

import numpy as np
from scipy.linalg import toeplitz
from scipy.optimize import root

from graftlab import hypersolve, variation
from graftlab.errors import GraftLabError
from graftlab.hypersolve import StripProfiles
from graftlab.spectral import MEAN_TOL, FourierSolution, TraceModes


class SingularSystemError(GraftLabError):
    """A per-mode linear system is singular (degenerate geometry)."""


def collocation_variation_modes(forcing: np.ndarray, ell: float, mean_value: float) -> dict[int, complex]:
    """Solve V_yy = forcing on a uniform periodic grid of even size m and
    read off the modes up to index m // 4.

    Least-squares solve of the dense second-derivative matrix (a
    physical-space Toeplitz construction, no FFT, exact for trigonometric
    polynomials below the Nyquist mode) stacked with the mean row.
    """
    m = len(forcing)
    if m % 2:
        raise ValueError("m must be even")
    h, j = 2.0 * np.pi / m, np.arange(1, m)
    column = np.r_[-np.pi**2 / (3 * h**2) - 1.0 / 6.0, -((-1.0) ** j) / (2.0 * np.sin(j * h / 2.0) ** 2)]
    A = np.vstack([toeplitz(column) * (2.0 * np.pi / ell) ** 2, np.full((1, m), 1.0 / m)])
    sol, *_ = np.linalg.lstsq(A, np.r_[forcing, mean_value], rcond=None)
    coefs = np.fft.fft(sol) / m
    return {n: complex(coefs[n]) for n in range(1, m // 4 + 1)}


def parseval_norm_sq(trace: TraceModes):
    """ell * (mean^2 + 2 * sum |coef_n|^2) = integral of trace^2 over y,
    one value per point of a trace with a points axis."""
    return trace.ell * (trace.mean**2 + 2.0 * np.sum(np.abs(trace.coef) ** 2, axis=-1))


def rotated(v: TraceModes, y0: float) -> TraceModes:
    """The trace shifted by y0 along the seam circle."""
    k = 2.0 * np.pi / v.ell
    n = np.arange(len(v.coef))
    return replace(v, coef=v.coef * np.exp(-1j * k * n * y0))


def im_phi_dy(q: FourierSolution, x, y) -> np.ndarray:
    """d/dy of Im(phi) = q at the points (x, y), mode by mode: the linear
    part q.c0 x + q.d0 has none, and mode n gives
    2 Re[i k (u_n cosh(k x) + v_n sinh(k x)) exp(i k y)], k = 2 pi n / ell,
    with (u_n, v_n) = (q.c[n], q.d[n]).  It is the amended variation's extra
    forcing (variation.amend_variation), taken from the field's values
    rather than from its seam modes."""
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    out = np.zeros(x.shape)
    for n in range(1, len(q.c)):
        k = 2.0 * np.pi * n / q.ell
        out += 2.0 * np.real(1j * k * (q.c[n] * np.cosh(k * x) + q.d[n] * np.sinh(k * x)) * np.exp(1j * k * y))
    return out


def b_fn(units: StripProfiles, xi, seam_dirichlet: complex = 1.0):
    """b at the points xi of a one-mode profile scaled to a seam Dirichlet
    value (as from solve_modes([n], ...))."""
    return _one_mode(units, 0, xi, seam_dirichlet)


def bp_fn(units: StripProfiles, xi, seam_dirichlet: complex = 1.0):
    """b' at the points xi of a one-mode profile scaled to a seam Dirichlet value."""
    return _one_mode(units, 1, xi, seam_dirichlet)


def _one_mode(units: StripProfiles, which: int, xi, seam_dirichlet: complex):
    if len(units.ns) != 1:
        raise ValueError(f"b_fn and bp_fn need one-mode profiles, not {len(units.ns)} modes")
    return seam_dirichlet * units(xi)[which][0]


def pair_profiles(units: StripProfiles, rows, xi, trig) -> tuple[np.ndarray, np.ndarray]:
    """(b, b') of the profiles units.ns[rows] as StripProfiles.values forms
    them, from the four (rows x points) arrays (u, u', w, w') of the pair,
    each built over every row and then merged with the n = 0 pair by
    np.where: the oracle that values must equal bit for bit."""
    sh, ch, theta = trig
    col = (rows,) + (None,) * xi.ndim
    mu, edge = units.mu[col], units.edge
    shift = 0.0 if edge is None else 2.0 * edge[1]
    grow = np.exp(mu * (theta - shift))
    decay = np.exp(-mu * theta)
    mu_sh, mu_sq = mu * sh, mu * mu
    pair = (
        (sh + mu) * grow,
        (ch + (mu_sh + mu_sq) / ch) * grow,
        (sh - mu) * decay,
        (ch + (mu_sq - mu_sh) / ch) * decay,
    )
    zero = np.equal(mu, 0.0)
    if zero.any():
        offset = theta if edge is None else hypersolve._gd_offset(sh, edge)
        pair0 = (1.0 + offset * sh, sh / ch + offset * ch, sh, ch)
        pair = tuple(np.where(zero, p0, p) for p0, p in zip(pair0, pair))
    u, up, w, wp = pair
    cu, cw = units.cu[col], units.cw[col]
    return cu * u + cw * w, cu * up + cw * wp


def two_pass_strip_values(units: StripProfiles) -> tuple[np.ndarray, tuple]:
    """(energy, ends) of the profiles by two separate evaluations: the
    energy in the blocks of _BLOCK to 2 _BLOCK - 1 rows on the nodes of
    grid alone, and the ends from one call of the profiles at xi = 0 and a."""
    xi, trig, w_cosh, w_sech = units.grid
    count = len(units.ns)
    blocks = max(1, count // hypersolve._BLOCK)
    energy = []
    for k in range(blocks):
        rows = slice(count * k // blocks, count * (k + 1) // blocks)
        b, bp = units.values(rows, xi, trig)
        bsq, bpsq = (np.abs(b) ** 2, np.abs(bp) ** 2) if np.iscomplexobj(b) else (b * b, bp * bp)
        energy.append((bpsq + 2.0 * bsq) @ w_cosh + units.mu[rows] ** 2 * (bsq @ w_sech))
    b, bp = units(np.array([0.0, units.a]))
    return np.concatenate(energy), (b[:, 0], bp[:, 0], b[:, 1], bp[:, 1])


def strip_integral_of_h(units: StripProfiles, seams: Iterable) -> tuple[float, float]:
    """(integral of H, outer flux ell cosh(a) dH/dxi at xi = a) over the
    strips, each strip the profiles units scaled to one array of seam
    Dirichlet values.  A mode n >= 1 integrates to 0 over y, so both take
    the n = 0 rows alone: ell times the integral of b0 cosh by the
    profiles' Gauss-Legendre grid, and ell cosh(a) b0'(a).  The n = 0 mode
    equation (cosh b0')' = 2 cosh b0 makes the integral half the net flux
    (b0'(a) cosh a - b0'(0)) / 2, and with the means pinned by the seam
    balance (variation.pinned_means), minus the integral plus half the
    outer flux is -ell (lam0 - rho0)."""
    xi, trig, w_cosh, _ = units.grid
    mean = np.flatnonzero(units.ns == 0)
    b, _ = units.values(mean, xi, trig)
    bpa = units.ends[3][mean]
    scales = [np.asarray(values, dtype=complex)[mean] for values in seams]
    integral = sum(units.ell * float((scale * (b @ w_cosh)).real.sum()) for scale in scales)
    flux = sum(units.ell * np.cosh(units.a) * float((scale * bpa).real.sum()) for scale in scales)
    return integral, flux


@dataclass(eq=False)
class ManufacturedProfile(StripProfiles):
    """One-mode profiles whose b and b' are the functions b and bp of xi, in
    place of a combination of the Poschl-Teller pair (edge, cu and cw are
    unused)."""

    b: Callable
    bp: Callable

    def values(self, rows, xi, trig):
        return tuple(np.broadcast_to(fn(xi), xi.shape)[None] for fn in (self.b, self.bp))


def manufactured_mode(n: int, ell: float, a: float, b_fn: Callable, bp_fn: Callable, bpp_fn: Callable):
    """Package an arbitrary smooth profile as one-mode profiles plus its
    forcing f(xi) = b'' + tanh b' - (mu^2/cosh^2+2) b, for
    method-of-manufactured-solutions checks of the Green identity."""
    musq = (2.0 * np.pi * n / ell) ** 2

    def forcing(xi):
        return bpp_fn(xi) + np.tanh(xi) * bp_fn(xi) - (musq / np.cosh(xi) ** 2 + 2.0) * b_fn(xi)

    return ManufacturedProfile(np.array([n]), ell, a, None, None, None, b_fn, bp_fn), forcing


def greens_residual(units: StripProfiles, seams: Iterable, forcing: Callable | None = None) -> float:
    """Residual of the Green identity on the strips, each strip the profiles
    units scaled to one array of seam Dirichlet values:
    integral(H * (Lap_h - 2) H) = -energy + seam + outer boundary terms, the
    right side from hypersolve.strip_sums.  The left side vanishes for exact
    homogeneous mode solutions; for manufactured profiles it takes their
    forcing f(xi), one row per mode (manufactured_mode).
    """
    seams = [np.asarray(v, dtype=complex) for v in seams]
    lhs = 0.0
    if forcing is not None:
        xi, _, w_cosh, _ = units.grid
        b, f = units(xi)[0], forcing(xi)
        weights = np.where(units.ns == 0, 1.0, 2.0) * units.ell
        for scale in seams:
            lhs += float(weights @ (np.real(scale[:, None] * b * np.conj(scale[:, None] * f)) @ w_cosh))
    energy, seam, outer = hypersolve.strip_sums(units, seams)
    return float(abs(lhs - (-energy + seam + outer)))


def from_boundary_data(
    left: TraceModes, right: TraceModes, ell: float, s: float
) -> FourierSolution:
    """Reconstruct the interior solution from a pair of Dirichlet traces.

    Inverts the per-mode 2x2 system of seam values.  For s = 0 the sinh
    column vanishes and the system is singular whenever mode data is present.
    """
    if left.kind != "dirichlet" or right.kind != "dirichlet":
        raise ValueError("both traces must be Dirichlet kind")
    if left.side != "left" or right.side != "right":
        raise ValueError("traces must be a (left, right) pair")

    width = max(left.coef.shape[-1], right.coef.shape[-1])
    ln, rn = (np.pad(t.coef, (0, width - t.coef.shape[-1]))[1:] for t in (left, right))
    d0 = (left.mean + right.mean) / 2
    if s == 0:
        if np.any(np.abs(ln) > MEAN_TOL) or np.any(np.abs(rn) > MEAN_TOL):
            raise SingularSystemError("s = 0: sinh column vanishes, mode system singular")
        if abs(right.mean - left.mean) > MEAN_TOL * max(1.0, abs(left.mean)):
            raise SingularSystemError("s = 0: mean system singular for unequal means")
        return FourierSolution(ell=ell, s=s, c0=0.0, d0=d0)
    arg = np.pi * np.arange(1, width) * s / ell
    c = np.r_[0.0, (ln + rn) / (2 * np.cosh(arg))]
    d = np.r_[0.0, (rn - ln) / (2 * np.sinh(arg))]
    return FourierSolution(ell=ell, s=s, c0=(right.mean - left.mean) / s, d0=d0, c=c, d=d)


def unit_profile_reference(n: int, ell: float, a: float, outer_bc: str, digits: int = 50) -> tuple[float, ...]:
    """(energy integral, integral of b cosh, b(a), b'(a)) of the unit seam
    solve of mode n, at `digits` significant digits with mpmath: the
    Poschl-Teller pair of hypersolve, its 2x2 seam/outer system solved in
    mpmath (not from hypersolve's closed-form constants), and Gauss-Legendre
    quadrature split at the seam layer 1/mu and at xi = 1 and 3."""
    mp = __import__("mpmath").mp
    with mp.workdps(digits):
        mu, a = 2 * mp.pi * n / mp.mpf(ell), mp.mpf(a)

        def pair(x):
            sh, ch = mp.sinh(x), mp.cosh(x)
            th = mp.atan(sh)
            if n == 0:
                return 1 + th * sh, sh / ch + th * ch, sh, ch
            grow, decay = mp.exp(mu * th), mp.exp(-mu * th)
            return (
                (sh + mu) * grow,
                (ch * ch + mu * sh + mu * mu) / ch * grow,
                (sh - mu) * decay,
                (ch * ch - mu * sh + mu * mu) / ch * decay,
            )

        u0, _, w0, _ = pair(mp.zero)
        ua, upa, wa, wpa = pair(a)
        outer_u, outer_w = (ua, wa) if outer_bc == "dirichlet" else (upa, wpa)
        det = u0 * outer_w - w0 * outer_u
        cu, cw = outer_w / det, -outer_u / det

        @functools.cache
        def profile(x):  # both quadratures take the same nodes
            u, up, w, wp = pair(x)
            return cu * u + cw * w, cu * up + cw * wp, mp.cosh(x)

        def energy(x):
            b, bp, ch = profile(x)
            return (bp * bp + (mu * mu / (ch * ch) + 2) * b * b) * ch

        layer = 1 / mu if n else mp.one
        cuts = sorted({mp.zero, a, *(x for x in (layer / 4, layer, mp.one, mp.mpf(3)) if x < a)})
        ib = mp.quad(lambda x: profile(x)[0] * profile(x)[2], cuts, method="gauss-legendre")
        ba, bpa, _ = profile(a)
        return tuple(float(v) for v in (mp.quad(energy, cuts, method="gauss-legendre"), ib, ba, bpa))


def n0_balance_coefficient(ell: float, s: float, a: float, outer_bc: str = "dirichlet") -> float:
    """Coefficient multiplying d0 in the combined n = 0 seam balance and
    slice condition: 2 * dtn(0) - s.  Strictly negative (the seam ratio is
    negative and s >= 0), so the balance forces d0 = 0."""
    return 2.0 * hypersolve.dtn(0, ell, a, outer_bc) - s


def two_row_determinant(n, ell: float, s: float, t):
    """The row-normalized determinant of the per-mode seam system from its
    two rows (-k S + t C, k C - t S) and (k S - t C, k C - t S), with S and
    C scaled by exp(-pi n s / ell), clipped to [-1, 1]."""
    k = (4.0 * np.pi**2 * n**2 + ell**2) / (2.0 * np.pi * n * ell)
    arg = np.pi * n * s / ell
    S = -np.expm1(-2.0 * arg) / 2.0
    C = (1.0 + np.exp(-2.0 * arg)) / 2.0
    row1 = (-k * S + t * C, k * C - t * S)
    row2 = (k * S - t * C, k * C - t * S)
    det = row1[0] * row2[1] - row1[1] * row2[0]
    return np.clip(det / (np.hypot(*row1) * np.hypot(*row2)), -1.0, 1.0)


def hybr_geodesic_rate(chart, field: Callable, side: str, t: float, initial_rate: np.ndarray, m: int) -> np.ndarray:
    """variation.geodesic_oracle's rate with its Newton solve replaced by
    scipy's Powell hybrid method (MINPACK hybrd, tol 1e-12) on the same
    collocated residual and the same start: a separate solver of the same
    equations, under the same gate, max|residual| <= 1e-9 at the solution."""

    def hybr(residual, X):
        result = root(residual, X, method="hybr", tol=1e-12)
        return result.x, residual(result.x), result.nfev

    with mock.patch.object(variation, "_newton", hybr):
        return variation.geodesic_oracle(chart, field, side, t, initial_rate, m=m)[1]


def report_dict(report) -> dict:
    """An identities.IdentityReport as the dict that one item of verify's
    report list holds, each number a float: with json.dumps(indent=2,
    sort_keys=True), the oracle for the writer cli._report_json."""
    return {
        "identity": report.identity,
        "terms": [{"label": label, "value": float(value)} for label, value in report.terms],
        "lhs": float(report.lhs),
        "rhs": float(report.rhs),
        "abs_err": float(report.abs_err),
        "bound": float(report.bound),
        "rel_err": float(report.rel_err),
        "tol": float(report.tol),
        "pass": report.passed,
        "notes": report.notes,
    }
