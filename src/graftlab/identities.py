"""The named integral identities of the grafted-collar model.

Boundary-term closed form vs seam quadrature, the master nonpositivity
identity, the slice condition, both area-derivative routes, the arc-length
derivative, the boundary term's quadratic-differential extension, and the
suite of verify.

Boundary orientation: the seam normal points out of the hyperbolic strips,
+d/dx at the left seam x = -s/2 and -d/dx at the right seam x = +s/2.
Every seam pair is held as its even and odd parts, (right + left)/2 and
(right - left)/2 (spectral.seam_part), in one trace of sides PARTS: its
coef and mean carry the parts on a leading axis, so each seam datum is
built, solved and synthesized once.  No seam quantity is a difference of the
two seams: in parts the seam integral of D N, int(D_l N_l) - int(D_r N_r),
is -2 int(D_e N_o + D_o N_e), and lam0 - rho0 is -2 times the odd part of
the variation means.
"""
from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import geometry, hypersolve, spectral, variation
from .errors import GraftLabError, SolvabilityError
from .spectral import MEAN_TOL, FourierSolution, TraceModes

#: The mixed-term series sums over n >= 1 with conjugate modes already
#: paired, like the cylinder series (spectral.PAIRING_FACTOR); its factor
#: 4/(pi n) was frozen against the seam quadrature.
CROSS_FACTOR = 4.0


@dataclass(frozen=True)
class IdentityReport:
    """Outcome of one identity check, with its term-by-term breakdown.  Its
    check's kind sets abs_err, rel_err and bound from its tol (Check.report);
    one rule, passed, decides them all."""

    identity: str
    terms: tuple[tuple[str, float], ...]
    lhs: float
    rhs: float
    abs_err: float
    rel_err: float
    tol: float
    bound: float
    notes: str = ""

    @property
    def passed(self) -> bool:
        """lhs, rhs and every term are finite, and abs_err <= bound: a NaN or
        infinite operand fails, whatever the comparisons with it say."""
        values = (self.lhs, self.rhs, *(v for _, v in self.terms))
        return all(map(math.isfinite, values)) and bool(self.abs_err <= self.bound)


def error_report(identity: str, exc: Exception) -> IdentityReport:
    """The failing report of an identity that raised exc: NaN values, the error in its notes."""
    nan = float("nan")
    return IdentityReport(identity, (), nan, nan, nan, nan, nan, nan, f"error: {type(exc).__name__}: {exc}")


def _out(x):
    """A float for one point, the array for a family of points."""
    return float(x) if getattr(x, "ndim", 0) == 0 else x


#: The sides of a seam pair's trace: its parts, in the order of its leading axis
PARTS = ("even", "odd")


def mean_gap(v: TraceModes) -> float:
    """lam0 - rho0 of the variation parts v: -2 times the odd mean, formed
    with no difference of the two seams."""
    return -2.0 * v.mean[1]


def boundary_term_closed(sol: FourierSolution, v: TraceModes) -> float:
    """Closed form of the seam integral of H times its hyperbolic-side
    normal derivative, for the (even, odd) parts v of the variation:

        2 ell d0 (lam0 - rho0)
        - sum_{n>=1} (2/(pi n)) (4 pi^2 n^2 + ell^2) (|c_n|^2 + |d_n|^2) S C

    with S, C = sinh, cosh(pi n s / ell) and lam0 - rho0 from mean_gap; one
    value per point of a family.
    """
    if (np.abs(sol.c0) > MEAN_TOL).any():
        raise SolvabilityError("closed form requires a vanishing linear coefficient")
    return _cylinder_series(sol, 2.0 * sol.ell * sol.d0 * mean_gap(v))


def seam_points(nmax: int) -> int:
    """The smallest power of two above 2 nmax, and at least 64: the
    trapezoid rule on N equispaced points is exact for trigonometric
    polynomials of degree < N (Trefethen & Weideman, SIAM Review 56, 2014),
    and a product of two seam traces of degree <= nmax has degree <= 2 nmax.
    A family's traces are as wide as its widest point; with the floor every
    field of up to 31 modes, and so every point of a sweep, gets the grid
    of its one-point call."""
    return max(64, 1 << (2 * nmax).bit_length())


def seam_grid_note(*traces: TraceModes) -> str:
    """The seam_points grid of the traces, and the bound that makes it exact."""
    nmax = max(t.max_mode() for t in traces)
    return f"trapezoid on {seam_points(nmax)} seam points, exact above 2*nmax = {2 * nmax}"


def boundary_term_quadrature(dirichlet: TraceModes, neumann: TraceModes, npts: int | None = None) -> float:
    """Trapezoid quadrature of the seam integral of (value) * (d/dn value),
    from the (even, odd) parts of the Dirichlet and d/dx Neumann data.

    The normal points out of the strips: +d/dx on the left seam, -d/dx on
    the right, so the integral is int(D_l N_l) - int(D_r N_r), which in
    parts is -2 int(D_e N_o + D_o N_e): no two seam sums cancel.  It is
    summed on seam_points(nmax) points unless npts is given, independently
    of the closed series.  Traces with a points axis give one value per
    point; each datum is synthesized by one inverse FFT over its parts and
    points.  A grid of npts <= 2 nmax points, on which the sum is not exact,
    raises ValueError (TraceModes.on_grid).
    """
    if neumann.ell is not dirichlet.ell and not np.array_equal(neumann.ell, dirichlet.ell):
        raise ValueError("traces come from different circumferences")
    npts = seam_points(max(dirichlet.max_mode(), neumann.max_mode())) if npts is None else npts
    d, n = dirichlet.on_grid(npts), neumann.on_grid(npts)
    # the sum over the grid divided by npts is np.mean's value bit for bit
    return _out(-2.0 * dirichlet.ell * ((d[0] * n[1] + d[1] * n[0]).sum(axis=-1) / npts))


# --- solved configurations --------------------------------------------------

@dataclass
class SolvedConfiguration:
    """A chart, an interior field, its variation, its quadratic
    differential and the field's Dirichlet seam data, each seam datum one
    trace of its (even, odd) parts (PARTS).  quad is Im(phi), a harmonic
    field on the same cylinder: its modes (u_n, v_n) are (quad.c, quad.d),
    and its linear coefficient quad.c0 is 0, which keeps the harmonic
    conjugate Re(phi) single-valued.  The family holds the height s fixed,
    so it carries no height rate ds/dt.  The strip modes carry the seam
    Dirichlet data outward.  They, the closed boundary terms and the seam
    quadrature are computed on first use and kept: no field is assigned
    after construction."""

    chart: geometry.GraftedCollar
    sol: FourierSolution
    variation: TraceModes
    quad: FourierSolution
    dirichlet: TraceModes

    def seam(self, side) -> tuple[TraceModes, TraceModes]:
        """The (Dirichlet, variation) traces of a seam, "left" or "right",
        or of a tuple of seams in one trace each, for the consumers of the
        seams themselves: solved from the field's traces on those seams,
        with the variation means formed from the parts."""
        mean = spectral.seam_part(side, self.variation.mean[0], self.variation.mean[1])
        return self.sol.dirichlet_trace(side), variation.solve_flat_variation(self.sol.neumann_trace_flat(side), mean)

    @cached_property
    def units(self) -> hypersolve.StripProfiles:
        """The unit profiles of the strip modes: n = 0 and the field's
        nonzero modes, solved once for both strips."""
        ns = np.concatenate(([0], self.sol.nonzero_modes()))
        return hypersolve.solve_modes(ns, self.chart.ell, self.chart.a, self.chart.outer_bc)

    @cached_property
    def strip_sums(self) -> tuple[float, float, float]:
        """hypersolve.strip_sums of the unit profiles scaled to the parts of
        the seam Dirichlet values, one row each, doubled: (energy, seam
        Green form, outer Green form), computed once, on first use, for
        every identity.  Each sum is quadratic in the seam values, per mode
        |l|^2 + |r|^2 = 2 (|e|^2 + |o|^2), so the parts give it whole."""
        parts = np.column_stack((self.dirichlet.mean, self.dirichlet.coef[:, self.units.ns[1:]]))
        return tuple(2.0 * total for total in hypersolve.strip_sums(self.units, parts))

    @cached_property
    def closed(self) -> float:
        """boundary_term_closed of the field and its variations."""
        return boundary_term_closed(self.sol, self.variation)

    @cached_property
    def neumann(self) -> TraceModes:
        """The parts of the hyperbolic-side Neumann data of the variations."""
        return variation.hyperbolic_neumann(self.variation)

    @cached_property
    def quadrature(self) -> float:
        """The seam route to the closed term: boundary_term_quadrature of dirichlet and neumann."""
        return boundary_term_quadrature(self.dirichlet, self.neumann)

    @cached_property
    def amended(self) -> TraceModes:
        """The parts of the variations amended for the quadratic differential."""
        return variation.amend_variation(self.variation, self.quad)

    @cached_property
    def extended_closed(self) -> float:
        """extended_boundary_term of the field on the amended variations."""
        return extended_boundary_term(self.sol, self.quad, self.amended)


def solve_configuration(
    chart: geometry.GraftedCollar,
    sol: FourierSolution,
    means: tuple[float, float] | None = None,
    quad: FourierSolution | None = None,
) -> SolvedConfiguration:
    """Solve everything a configuration needs for the identity suite, on
    the (even, odd) parts of the seam pairs.

    means are the parts of the free constants (lam0, rho0): (rho0 + lam0)/2
    and (rho0 - lam0)/2.  They default to the values pinned by the n = 0
    seam balance (the closed-form strip Dirichlet-to-Neumann value of the
    mean mode, seam_dtn, applied to the seam means), and quad to the zero
    quadratic differential.  The strip modes are solved only when the strip
    sums are read, so geodesic, which reads none, solves no strip mode.
    """
    dirichlet = sol.dirichlet_trace(PARTS)
    if means is None:
        means = variation.pinned_means(hypersolve.seam_dtn([0], chart.ell, chart.a, chart.outer_bc)[0], dirichlet.mean)
    v = variation.solve_flat_variation(sol.neumann_trace_flat(PARTS), np.asarray(means))
    quad = FourierSolution(ell=sol.ell, s=sol.s) if quad is None else quad
    return SolvedConfiguration(chart, sol, v, quad, dirichlet)


# --- slice condition --------------------------------------------------------

def slice_residual(sol: FourierSolution, v: TraceModes) -> float:
    """lam0 - rho0 + s d0 / 2 + ds/dt with ds/dt = 0, as the family holds s
    fixed, from the parts v of the variation (mean_gap); zero exactly on the
    constant-height slice of the family (one value per point of a family)."""
    return mean_gap(v) + sol.s * sol.d0 / 2.0


def slice_condition(sol: FourierSolution, v: TraceModes, tol: float) -> IdentityReport:
    """lam0 - rho0 (mean_gap of the variation parts v) against
    -s d0/2 - ds/dt, where ds/dt = 0: the family holds s fixed, so the right
    side is the height term -s d0/2 alone.  Judged as its CHECKS row, within
    tol."""
    lhs = mean_gap(v)
    rhs = -sol.s * sol.d0 / 2.0
    notes = "lam0 - rho0 must equal -s d0/2 - ds/dt, and ds/dt = 0 as the family holds s fixed"
    return CHECKS["slice_condition"].report(tol, lhs, rhs, (("mean_gap", lhs), ("height_term", rhs)), notes)


# --- master identity --------------------------------------------------------

def _cylinder_series(sol: FourierSolution, total: float = 0.0) -> float:
    """total - sum_{n>=1} (2/(pi n)) (4 pi^2 n^2 + ell^2) (|c_n|^2 + |d_n|^2) S C,
    from the field's terms (FourierSolution.cylinder_terms), computed once
    per field."""
    return _subtract_in_order(total, sol.cylinder_terms)


def _subtract_in_order(total: float, terms: np.ndarray) -> float:
    """total minus each term (column) in turn, in mode order: the mixed
    series can cancel, so its rounding follows one fixed order, at every
    point of a family alike."""
    stacked = np.empty(terms.shape[:-1] + (terms.shape[-1] + 1,), dtype=terms.dtype)
    stacked[..., 0], stacked[..., 1:] = total, terms
    return _out(np.subtract.accumulate(stacked, axis=-1)[..., -1])


def _mixed_series(sol: FourierSolution, q: FourierSolution, total: float = 0.0) -> float:
    """total - sum_{n>=1} (4/(pi n)) (4 pi^2 n^2 + ell^2)
    Im(v_n conj(c_n) + u_n conj(d_n)) S C, in the multiply order of
    _cylinder_series (FourierSolution.series_terms), for Im(phi) = q with
    (u_n, v_n) = (q.c, q.d); its linear coefficient q.c0 is 0, and q's
    mean part enters no term."""
    c, d = sol.c[..., 1:], sol.d[..., 1:]
    # q's modes n >= 1, cut or zero-padded to those of sol
    u, v = np.zeros((2, c.shape[-1]), dtype=complex)
    m = min(c.shape[-1], len(q.c) - 1)
    u[:m], v[:m] = q.c[1 : m + 1], q.d[1 : m + 1]
    im = (v.imag * c.real - v.real * c.imag) + (u.imag * d.real - u.real * d.imag)
    return _subtract_in_order(total, sol.series_terms(CROSS_FACTOR, im))


def master_identity(config: SolvedConfiguration, tol: float) -> IdentityReport:
    """Nonpositive decomposition of the seam boundary term.

    Terms: minus the strip energy integral of |grad H|^2 + 2 H^2, minus the
    cylinder mode series, minus ell s d0^2, plus the outer-boundary Green
    term (zero for either homogeneous outer condition).  On the slice the
    total equals the closed boundary term minus the strip seam Green form
    (_decomposition, within tol): on this bounded model, the mismatch between the
    variation Neumann data and the strip Dirichlet-to-Neumann data at the
    seams, which vanishes only for the zero field.
    """
    sol = config.sol
    energy, seam_form, t_outer = config.strip_sums
    t_energy = -energy
    t_series = _cylinder_series(sol)
    t_mean = -sol.ell * sol.s * sol.d0**2
    terms = (
        ("hyperbolic_energy", t_energy),
        ("cylinder_series", t_series),
        ("mean_term", t_mean),
        ("outer_greens", t_outer),
    )
    sres = slice_residual(sol, config.variation)
    notes = f"total is the seam data mismatch on this bounded model; slice residual {sres:.3e}"
    return CHECKS["master_identity"].report(tol, terms, config.closed, seam_form, notes)


# --- area derivatives -------------------------------------------------------

def area_derivative_geometric(sol: FourierSolution, s_rate: float = 0.0) -> float:
    """Derivative of ell(t) s(t): -d0 ell s / 2 + ell ds/dt, using the
    length derivative -d0 ell / 2 of the core circle.  The commands hold s
    fixed; the acceptance gate's slice bookkeeping passes a height rate."""
    if abs(sol.c0) > MEAN_TOL:
        raise SolvabilityError("geometric route requires a vanishing linear coefficient")
    return -0.5 * sol.d0 * sol.ell * sol.s + sol.ell * s_rate


def area_derivative_analytic(sol: FourierSolution, v: TraceModes) -> float:
    """Derivative of the flat-insert area through the interior integral of
    -H: -ell (lam0 - rho0) - d0 ell s, lam0 - rho0 from the parts v of the
    variation (mean_gap)."""
    return -sol.ell * mean_gap(v) - sol.d0 * sol.ell * sol.s


def area_derivative_report(config: SolvedConfiguration, tol: float) -> IdentityReport:
    """Compare the geometric and analytic area-derivative routes, within tol."""
    sol = config.sol
    geo = area_derivative_geometric(sol)
    ana = area_derivative_analytic(sol, config.variation)
    sres = slice_residual(sol, config.variation)
    terms = (("geometric", geo), ("analytic", ana))
    return CHECKS["area_derivative"].report(tol, geo, ana, terms, f"slice residual {sres:.3e}")


# --- arc length -------------------------------------------------------------

def arc_length_derivative(sol: FourierSolution, npts: int | None = None, dirichlet: TraceModes | None = None) -> float:
    """First variation of the left seam circle's length without
    quadratic-differential data: -1/2 times the seam integral of the H
    variation, summed on seam_points(nmax) points of the trace unless npts
    is given.  The trapezoid sum is exact only on a grid of more than
    2 nmax points: any other npts raises ValueError (TraceModes.on_grid).
    Reduces to -d0 ell / 2.  The left grid is the even grid minus the odd
    one, from dirichlet, the (even, odd) Dirichlet parts of sol, when the
    caller has them already."""
    dirichlet = sol.dirichlet_trace(PARTS) if dirichlet is None else dirichlet
    npts = seam_points(dirichlet.max_mode()) if npts is None else npts
    grid = dirichlet.on_grid(npts)
    return float(-0.5 * (sol.ell / npts) * np.sum(spectral.seam_part("left", grid[0], grid[1])))


# --- quadratic-differential extension ---------------------------------------

def extended_boundary_term(sol: FourierSolution, q: FourierSolution, amended: TraceModes) -> float:
    """Closed form of the seam boundary term for the (even, odd) parts of
    the amended fields: the unamended expression plus the mixed series

        - sum_{n>=1} (4/(pi n)) (4 pi^2 n^2 + ell^2) Im(v_n conj(c_n)
          + u_n conj(d_n)) S C

    of Im(phi) = q, with (u_n, v_n) = (q.c, q.d) and linear coefficient
    q.c0 = 0 (_mixed_series).
    """
    if amended.kind != "amended_variation":
        raise ValueError("expected amended variation fields")
    if abs(sol.c0) > MEAN_TOL:
        raise SolvabilityError("closed form requires a vanishing linear coefficient")
    total = 2.0 * sol.ell * sol.d0 * mean_gap(amended) + _cylinder_series(sol)
    return float(_mixed_series(sol, q, total))


# --- per-mode injectivity system --------------------------------------------

def per_mode_determinant(
    n: int,
    ell: float,
    s: float,
    a: float,
    outer_bc: str = "dirichlet",
    dtn_value: float | None = None,
) -> float:
    """Row-normalized determinant of the 2x2 system matching the variation
    Neumann data with the strip Dirichlet-to-Neumann data on both seams.

    The raw determinant grows like cosh^2(pi n s / ell); normalizing each
    row keeps the value in [-1, 0): the seam DtN value is negative, so the
    row entries satisfy a < 0 < b (_normalized_determinant) and the value
    never vanishes, which is the per-mode vanishing mechanism: only
    c_n = d_n = 0 solves the system.  A DtN value of -inf takes the limit,
    which is 0 at s = 0.
    """
    if n < 1:
        raise ValueError("mode index must be >= 1")
    t = dtn_value if dtn_value is not None else hypersolve.dtn(n, ell, a, outer_bc)
    return float(_normalized_determinant(n, ell, s, t))


def _normalized_determinant(n, ell: float, s: float, t):
    """per_mode_determinant for mode indices n >= 1 with DtN values t
    (scalars or matching arrays).  Where t is -inf (seam_dtn on an outer
    Dirichlet strip of subnormal a), the value is the t -> -inf limit
    -2CS/(C^2 + S^2) = -(1 - damp^2)/(1 + damp^2) = -tanh(2 pi n s / ell),
    0 where S = 0; every finite t takes the rows below.  Past LARGE_ELL, k
    is formed from its numerator and denominator both scaled by 2^-e
    (sum_of_squares), so it stays finite where ell^2 overflows."""
    p, e = spectral.sum_of_squares(n, ell)
    k = p / (2.0 * np.pi * n * np.ldexp(ell, -e))
    # sinh and cosh scaled by exp(-arg): the normalized determinant is
    # invariant under the common row factor, and this never overflows
    arg = spectral.mode_arg(n, s, ell)
    damp = np.exp(-2.0 * arg)
    lost = np.isneginf(t)
    if lost.any():
        limit = -(1.0 - damp * damp) / (1.0 + damp * damp)
        return np.where(lost, limit, _normalized_determinant(n, ell, s, np.where(lost, -1.0, t)))
    S = -np.expm1(-2.0 * arg) / 2.0
    C = (1.0 + damp) / 2.0
    # the rows (a, b) and (-a, b) have determinant 2ab and norms h each;
    # |2ab| <= h^2, and the clip keeps the rounding of a quotient near 1
    # (s = 0, where |t| nears k) inside [-1, 1]
    a, b = -k * S + t * C, k * C - t * S
    h = np.hypot(a, b)
    # a, b and h scaled by the power of two that brings h into [1/2, 1): an
    # exact scaling, so 2ab and h^2 cannot overflow where |t| ~ 1/a or
    # k ~ 1/ell passes about 1e154
    e = -np.frexp(h)[1]
    a, b, h = np.ldexp(a, e), np.ldexp(b, e), np.ldexp(h, e)
    return np.minimum(np.maximum(2.0 * a * b / (h * h), -1.0), 1.0)


def determinant_floor(
    nmax: int, ell: float, s: float, a: float, outer_bc: str = "dirichlet"
) -> float:
    """min over n = 1..nmax of |per_mode_determinant|, from the seam DtN
    values of all nmax modes (seam_dtn) in one array pass; ell, s and a may
    carry a points axis, for one floor per point."""
    ns = np.arange(1, nmax + 1)
    ell, s, a = (np.asarray(x)[..., None] for x in (ell, s, a))
    t = hypersolve.seam_dtn(ns, ell, a, outer_bc)
    return _out(np.min(np.abs(_normalized_determinant(ns, ell, s, t)), axis=-1))


# --- the verify suite -------------------------------------------------------
#
# A kind turns a check's numbers, at its tol, into the fields of its report
# that follow the identity: (terms, lhs, rhs, abs_err, rel_err, tol, bound,
# notes).  README's bound table states each kind's bound and abs_err.

def _equality(tol: float, lhs: float, rhs: float, terms: tuple, notes: str) -> tuple:
    """lhs against rhs, within tol * max(1, |lhs|, |rhs|): an absolute tol
    below unit scale and a relative one above it."""
    abs_err = abs(lhs - rhs)
    scale = max(abs(lhs), abs(rhs))
    rel_err = abs_err / scale if scale > 0 else 0.0
    return terms, lhs, rhs, abs_err, rel_err, tol, tol * max(1.0, scale), notes


#: The terms of the master identity that are nonpositive by construction
_NONPOSITIVE = ("hyperbolic_energy", "cylinder_series", "mean_term")


def _decomposition(tol: float, terms: tuple, closed: float, green: float, notes: str) -> tuple:
    """The master identity, whose total (the sum of terms) equals the closed
    boundary term minus the strip seam Green form on the slice.  The bound
    is tol (sum |terms| + |closed| + |green|).  abs_err is the larger of the
    equality gap and that sum times the sign violation (the largest
    _NONPOSITIVE term, relative to max(1, their sizes)), so a positive
    energy fails even where the equality holds, and a wrong strip energy of
    the right sign, as at large a (README, Known limits), fails the equality."""
    total, rhs = sum(v for _, v in terms), closed - green
    size = sum(abs(v) for _, v in terms) + abs(closed) + abs(green)
    signed = [v for label, v in terms if label in _NONPOSITIVE]
    violation = max(0.0, *signed) / max(1.0, *map(abs, signed))
    abs_err = max(abs(total - rhs), size * violation)
    notes += f"; closed boundary term {closed:.6e} vs strip Green form {green:.6e}; sign violation {violation:.3e}"
    rel_err = abs_err / size if size > 0 else 0.0
    return terms, total, rhs, abs_err, rel_err, tol, tol * size, notes


def _residual(tol: float, residual: float, terms: tuple, notes: str) -> tuple:
    """A residual whose exact value is 0, within tol itself: the bound is
    absolute at every scale, so no relative branch passes a residual above
    it."""
    terms, lhs, rhs, abs_err, rel_err, *_ = _equality(tol, residual, 0.0, terms, notes)
    return terms, lhs, rhs, abs_err, rel_err, tol, tol, notes


def _lower_bound(tol: float, value: float, floor: float, terms: tuple, notes: str) -> tuple:
    """value above floor: its gap is measured from the next double above
    floor, so a value equal to floor fails, within tol."""
    gap = max(0.0, math.nextafter(floor, math.inf) - value)
    return terms, value, floor, gap, gap / floor, tol, tol, notes


class Check(NamedTuple):
    """One check of verify, a row of README's bound table: its identity, its
    kind (_equality, _decomposition, _residual or _lower_bound), its tol as
    a function of verify's tol (the stencil's is None: its route judges it
    at its own bound) and its route.  The route takes (check, that tol,
    config, stencil field, modes) and returns the check's report.  Every
    module reaches a sibling's functions through the module, as
    geometry.total_area, so replacing module.f replaces f for every caller,
    route and command gate alike."""

    identity: str
    kind: Callable[..., tuple]
    tol: Callable[[float], float | None]
    route: Callable[..., IdentityReport]

    def report(self, tol: float, *numbers) -> IdentityReport:
        """The report of numbers, judged by the check's kind at tol."""
        return IdentityReport(self.identity, *self.kind(tol, *numbers))


def _boundary_term(check: Check, tol: float, config: SolvedConfiguration, field, modes) -> IdentityReport:
    """The closed boundary term against its seam quadrature."""
    notes = seam_grid_note(config.dirichlet, config.neumann)
    return check.report(tol, config.closed, config.quadrature, (), notes)


def _arc_length(check: Check, tol: float, config: SolvedConfiguration, field, modes) -> IdentityReport:
    """The left seam's arc-length derivative by quadrature against -d0 ell / 2."""
    sol, dirichlet = config.sol, config.dirichlet
    notes = f"seam quadrature vs -d0 ell / 2; {seam_grid_note(dirichlet)}"
    value = arc_length_derivative(sol, dirichlet=dirichlet)
    return check.report(tol, value, -0.5 * sol.d0 * sol.ell, (), notes)


def _extended_boundary(check: Check, tol: float, config: SolvedConfiguration, field, modes) -> IdentityReport:
    """The amended boundary term against its seam quadrature."""
    neumann = variation.hyperbolic_neumann(config.amended)
    quad = boundary_term_quadrature(config.dirichlet, neumann)
    notes = seam_grid_note(config.dirichlet, neumann)
    return check.report(tol, config.extended_closed, quad, (), notes)


def _modulus(check: Check, tol: float, config: SolvedConfiguration, field, modes) -> IdentityReport:
    """The conformal modulus against its quadrature."""
    closed, quad = geometry.conformal_modulus(config.chart), geometry.conformal_modulus_quadrature(config.chart)
    return check.report(tol, closed, quad, (), "")


def _area(check: Check, tol: float, config: SolvedConfiguration, field, modes) -> IdentityReport:
    """The total area against its quadrature."""
    return check.report(tol, geometry.total_area(config.chart), geometry.total_area_quadrature(config.chart), (), "")


def _stencil(check: Check, tol: None, config: SolvedConfiguration, field: FourierSolution, modes) -> IdentityReport:
    """The five-point stencil on the stencil field at its step h
    (spectral.stencil_step), within its own bound, the truncation bound plus
    rounding allowance (spectral.harmonicity_bound), which is also its tol.
    Not applicable, and passing on zeros, where the insert is thinner than
    2h, since the stencil's x +/- h steps would leave it, and where h * h
    underflows to 0 (ell below about 4e-160), since the stencil and its
    rounding allowance divide by h^2.  The notes name h and the reason."""
    h, cells = spectral.stencil_step(field.ell), spectral.STENCIL_CELLS
    residual = truncation = rounding = 0.0
    if field.s / 2 < h:
        notes = f"not applicable: s/2 = {field.s / 2!r} is below the stencil step h = ell/{cells} = {h!r}"
    elif h * h == 0.0:
        notes = f"not applicable: the stencil step h = ell/{cells} = {h!r} squares to 0 in double precision"
    else:
        residual = spectral.harmonicity_residual(field)
        truncation, rounding = spectral.harmonicity_bound(field)
        notes = (
            f"five-point Laplacian on the series partial sum, h = ell/{cells} = {h!r}:"
            f" residual {residual:.3e} against the bound {truncation + rounding:.3e}"
            f" (truncation bound {truncation:.3e}, rounding allowance {rounding:.3e})"
        )
    terms = (("truncation_bound", truncation), ("rounding_allowance", rounding))
    return check.report(truncation + rounding, residual, terms, notes)


def _strip_greens(check: Check, tol: float, config: SolvedConfiguration, field, modes) -> IdentityReport:
    """The Green identity on the strips, -energy + seam + outer forms = 0,
    relative to max(1, energy).  It reads the strip sums only, so it does
    not depend on the master report."""
    energy, seam, outer = config.strip_sums
    notes = "energy vs boundary forms on the solved strip modes"
    residual = abs(-energy + seam + outer) / max(1.0, energy)
    return check.report(tol, residual, (), notes)


def _determinant_floor(check: Check, tol: float, config: SolvedConfiguration, field, modes: int) -> IdentityReport:
    """determinant_floor over the modes 1..modes, which passes above 1e-6."""
    chart = config.chart
    floor = determinant_floor(modes, chart.ell, chart.s, chart.a, chart.outer_bc)
    notes = "row-normalized determinant of the per-mode seam system"
    return check.report(tol, floor, 1e-6, (("min_abs_normalized_det", floor),), notes)


#: verify's checks by identity, in report order.  A public report function
#: judges by its own row, and its row's route calls it by name, so a
#: replaced one is the one run.
CHECKS = {check.identity: check for check in (
    Check("boundary_term_closed_vs_quadrature", _equality, lambda tol: tol, _boundary_term),
    Check("slice_condition", _equality, lambda tol: max(tol, 1e-12),
          lambda check, tol, config, field, modes: slice_condition(config.sol, config.variation, tol)),
    Check("master_identity", _decomposition, lambda tol: 1e3 * tol,
          lambda check, tol, config, field, modes: master_identity(config, tol)),
    Check("area_derivative", _equality, lambda tol: tol,
          lambda check, tol, config, field, modes: area_derivative_report(config, tol)),
    Check("arc_length_derivative", _equality, lambda tol: tol, _arc_length),
    Check("extended_boundary_closed_vs_quadrature", _equality, lambda tol: tol, _extended_boundary),
    Check("conformal_modulus_closed_vs_quadrature", _equality, lambda tol: tol, _modulus),
    Check("total_area_closed_vs_quadrature", _equality, lambda tol: tol, _area),
    Check("interior_harmonicity_stencil", _residual, lambda tol: None, _stencil),
    Check("strip_greens_identity", _residual, lambda tol: 1e3 * tol, _strip_greens),
    Check("per_mode_determinant_floor", _lower_bound, lambda tol: 0.0, _determinant_floor),
)}


def suite(config: SolvedConfiguration, stencil_field: FourierSolution, modes: int, tol: float) -> list[IdentityReport]:
    """The verify report: the report of every row of CHECKS, in order, at
    its tol rule applied to tol, with the stencil check of stencil_field and
    the determinant floor over modes 1..modes.  A GraftLabError raised by
    one check becomes its failing report (error_report), and the others
    still run."""
    reports = []
    for check in CHECKS.values():
        try:
            reports.append(check.route(check, check.tol(tol), config, stencil_field, modes))
        except GraftLabError as exc:
            reports.append(error_report(check.identity, exc))
    return reports
