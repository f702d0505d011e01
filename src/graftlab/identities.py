"""The named integral identities of the grafted-collar model.

Boundary-term closed form vs seam quadrature, the master nonpositivity
identity, the slice condition, both area-derivative routes, the arc-length
derivative, their quadratic-differential extensions, and the suite of verify.

Boundary orientation: the seam normal points out of the hyperbolic strips,
+d/dx at the left seam x = -s/2 and -d/dx at the right seam x = +s/2.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import hypersolve
from .errors import GraftLabError, SolvabilityError
from .geometry import GraftedCollar, conformal_modulus, conformal_modulus_quadrature, total_area, total_area_quadrature
from .spectral import MEAN_TOL, FourierSolution, QuadDiffModes, TraceModes, harmonicity_bound, harmonicity_residual
from .variation import amend_variation, hyperbolic_neumann, pinned_means, solve_flat_variation

#: The mixed-term series sums over n >= 1 with conjugate modes already
#: paired, like the cylinder series (spectral.PAIRING_FACTOR); its factor
#: 4/(pi n) was frozen against the seam quadrature.
CROSS_FACTOR = 4.0


@dataclass(frozen=True)
class IdentityReport:
    """Outcome of one identity check, with its term-by-term breakdown.  Every
    check chooses its bound (and tol, the tolerance it was given); one rule,
    passed, decides them all."""

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

    def to_dict(self) -> dict:
        return {
            "identity": self.identity,
            "terms": [{"label": l, "value": float(v)} for l, v in self.terms],
            "lhs": float(self.lhs),
            "rhs": float(self.rhs),
            "abs_err": float(self.abs_err),
            "bound": float(self.bound),
            "rel_err": float(self.rel_err),
            "tol": float(self.tol),
            "pass": self.passed,
            "notes": self.notes,
        }


def _compare(
    identity: str,
    lhs: float,
    rhs: float,
    tol: float,
    terms: tuple[tuple[str, float], ...] = (),
    notes: str = "",
    bound: float | None = None,
) -> IdentityReport:
    """lhs against rhs, within bound: by default tol * max(1, |lhs|, |rhs|),
    an absolute tol below unit scale and a relative one above it."""
    abs_err = abs(lhs - rhs)
    scale = max(abs(lhs), abs(rhs))
    rel_err = abs_err / scale if scale > 0 else 0.0
    bound = tol * max(1.0, scale) if bound is None else bound
    return IdentityReport(identity, terms, lhs, rhs, abs_err, rel_err, tol, bound, notes)


def error_report(identity: str, exc: Exception) -> IdentityReport:
    """The failing report of an identity that raised exc: NaN values, the error in its notes."""
    nan = float("nan")
    return IdentityReport(identity, (), nan, nan, nan, nan, nan, nan, f"error: {type(exc).__name__}: {exc}")


def harmonicity_report(
    residual: float, truncation: float, rounding: float, notes: str = ""
) -> IdentityReport:
    """The five-point stencil check: the residual against its truncation
    bound plus rounding allowance (spectral.harmonicity_bound), which it
    also reports as its tol.  The exact value is 0, so the bound is absolute
    at every scale."""
    bound = truncation + rounding
    terms = (("truncation_bound", truncation), ("rounding_allowance", rounding))
    return _compare("interior_harmonicity_stencil", residual, 0.0, bound, terms, notes, bound=bound)


def _out(x):
    """A float for one point, the array for a family of points."""
    return float(x) if getattr(x, "ndim", 0) == 0 else x


def boundary_term_closed(sol: FourierSolution, v_left: TraceModes, v_right: TraceModes) -> float:
    """Closed form of the seam integral of H times its hyperbolic-side
    normal derivative:

        2 ell d0 (lam0 - rho0)
        - sum_{n>=1} (2/(pi n)) (4 pi^2 n^2 + ell^2) (|c_n|^2 + |d_n|^2) S C

    with S, C = sinh, cosh(pi n s / ell); one value per point of a family.
    """
    if (np.abs(sol.c0) > MEAN_TOL).any():
        raise SolvabilityError("closed form requires a vanishing linear coefficient")
    return _cylinder_series(sol, 2.0 * sol.ell * sol.d0 * (v_left.mean - v_right.mean))


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


def boundary_term_quadrature(
    dirichlet: tuple[TraceModes, TraceModes],
    neumann: tuple[TraceModes, TraceModes],
    npts: int | None = None,
) -> float:
    """Trapezoid quadrature of the seam integral of (value) * (d/dn value).

    The normal points out of the strips: +d/dx on the left seam, -d/dx on
    the right, so the integral is int(D_l N_l) - int(D_r N_r) with N the
    d/dx trace data, summed on seam_points(nmax) points unless npts is given.
    Traces with a points axis give one value per point, from one inverse
    FFT per trace.  A grid of npts <= 2 nmax points, on which the sum is not
    exact, raises ValueError (TraceModes.on_grid).
    """
    traces = (*dirichlet, *neumann)
    ell = traces[0].ell
    if any(t.ell is not ell and not np.array_equal(t.ell, ell) for t in traces):
        raise ValueError("traces come from different circumferences")
    npts = seam_points(max(t.max_mode() for t in traces)) if npts is None else npts
    # the sum over the grid divided by npts is np.mean's value bit for bit
    left, right = ((d.on_grid(npts) * n.on_grid(npts)).sum(axis=-1) / npts for d, n in zip(dirichlet, neumann))
    return _out(ell * (left - right))


# --- solved configurations --------------------------------------------------

@dataclass
class SolvedConfiguration:
    """A chart, an interior field, its two variation fields, its quadratic
    differential and the field's (left, right) Dirichlet seam traces.  The
    family holds the height s fixed, so it carries no height rate ds/dt.
    The strip modes carry the seam Dirichlet data outward.  They, the closed
    boundary terms and the seam quadrature are computed on first use and
    kept: no field is assigned after construction."""

    chart: GraftedCollar
    sol: FourierSolution
    v_left: TraceModes
    v_right: TraceModes
    quad: QuadDiffModes
    dirichlet: tuple[TraceModes, TraceModes]

    @cached_property
    def units(self) -> hypersolve.StripProfiles:
        """The unit profiles of the strip modes: n = 0 and the field's
        nonzero modes, solved once for both strips."""
        ns = np.concatenate(([0], self.sol.nonzero_modes()))
        return hypersolve.solve_modes(ns, self.chart.ell, self.chart.a, self.chart.outer_bc)

    @cached_property
    def strip_sums(self) -> tuple[float, float, float]:
        """hypersolve.strip_sums of the unit profiles scaled to each seam's
        Dirichlet values: (energy, seam Green form, outer Green form),
        computed once, on first use, for every identity."""
        ns = self.units.ns[1:]
        seams = (np.concatenate(([trace.mean], trace.coef[ns])) for trace in self.dirichlet)
        return hypersolve.strip_sums(self.units, seams)

    @cached_property
    def closed(self) -> float:
        """boundary_term_closed of the field and its variations."""
        return boundary_term_closed(self.sol, self.v_left, self.v_right)

    @cached_property
    def neumann(self) -> tuple[TraceModes, TraceModes]:
        """The hyperbolic-side Neumann data of the (left, right) variations."""
        return hyperbolic_neumann(self.v_left), hyperbolic_neumann(self.v_right)

    @cached_property
    def quadrature(self) -> float:
        """The seam route to the closed term: boundary_term_quadrature of dirichlet and neumann."""
        return boundary_term_quadrature(self.dirichlet, self.neumann)

    @cached_property
    def amended(self) -> tuple[TraceModes, TraceModes]:
        """The (left, right) variations amended for the quadratic differential."""
        return amend_variation(self.v_left, self.quad), amend_variation(self.v_right, self.quad)

    @cached_property
    def extended_closed(self) -> float:
        """extended_boundary_term of the field on the amended variations."""
        return extended_boundary_term(self.sol, self.quad, *self.amended)


def solve_configuration(
    chart: GraftedCollar,
    sol: FourierSolution,
    mean_left: float | None = None,
    mean_right: float | None = None,
    quad: QuadDiffModes | None = None,
) -> SolvedConfiguration:
    """Solve everything a configuration needs for the identity suite.

    Free constants default to the values pinned by the n = 0 seam balance
    (the closed-form strip Dirichlet-to-Neumann value of the mean mode,
    seam_dtn, applied to the seam means), and quad to the zero quadratic
    differential.  The strip modes are solved only when the strip sums are
    read, so geodesic, which reads none, solves no strip mode.
    """
    sides = ("left", "right")
    dirichlet = tuple(sol.dirichlet_trace(side) for side in sides)
    neumann = tuple(sol.neumann_trace_flat(side) for side in sides)
    if mean_left is None or mean_right is None:
        dtn0 = hypersolve.seam_dtn([0], chart.ell, chart.a, chart.outer_bc)[0]
        lam0, rho0 = pinned_means(dtn0, dirichlet[0].mean, dirichlet[1].mean)
        mean_left = lam0 if mean_left is None else mean_left
        mean_right = rho0 if mean_right is None else mean_right
    v_left = solve_flat_variation(neumann[0], mean_left)
    v_right = solve_flat_variation(neumann[1], mean_right)
    quad = QuadDiffModes(ell=sol.ell, s=sol.s) if quad is None else quad
    return SolvedConfiguration(chart, sol, v_left, v_right, quad, dirichlet)


# --- slice condition --------------------------------------------------------

def slice_residual(sol: FourierSolution, v_left: TraceModes, v_right: TraceModes) -> float:
    """lam0 - rho0 + s d0 / 2 + ds/dt with ds/dt = 0, as the family holds s
    fixed; zero exactly on the constant-height slice of the family (one
    value per point of a family)."""
    return v_left.mean - v_right.mean + sol.s * sol.d0 / 2.0


def slice_condition(
    sol: FourierSolution,
    v_left: TraceModes,
    v_right: TraceModes,
    tol: float = 1e-12,
) -> IdentityReport:
    """lam0 - rho0 against -s d0/2 - ds/dt, where ds/dt = 0: the family
    holds s fixed, so the right side is the height term -s d0/2 alone."""
    lhs = v_left.mean - v_right.mean
    rhs = -sol.s * sol.d0 / 2.0
    notes = "lam0 - rho0 must equal -s d0/2 - ds/dt, and ds/dt = 0 as the family holds s fixed"
    return _compare("slice_condition", lhs, rhs, tol, terms=(("mean_gap", lhs), ("height_term", rhs)), notes=notes)


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


def _mixed_series(sol: FourierSolution, q: QuadDiffModes, total: float = 0.0) -> float:
    """total - sum_{n>=1} (4/(pi n)) (4 pi^2 n^2 + ell^2)
    Im(v_n conj(c_n) + u_n conj(d_n)) S C, in the multiply order of
    _cylinder_series (FourierSolution.series_terms)."""
    c, d = sol.c[..., 1:], sol.d[..., 1:]
    # q's modes n >= 1, cut or zero-padded to those of sol
    u, v = np.zeros((2, c.shape[-1]), dtype=complex)
    m = min(c.shape[-1], len(q.u) - 1)
    u[:m], v[:m] = q.u[1 : m + 1], q.v[1 : m + 1]
    im = (v.imag * c.real - v.real * c.imag) + (u.imag * d.real - u.real * d.imag)
    return _subtract_in_order(total, sol.series_terms(CROSS_FACTOR, im))


#: The terms of a master identity that are nonpositive by construction
_NONPOSITIVE = ("hyperbolic_energy", "cylinder_series", "mean_term")


def _master_report(identity: str, terms: tuple, closed: float, green: float, tol: float, notes: str) -> IdentityReport:
    """Verdict on a master identity, whose total (the sum of terms) equals
    the closed boundary term minus the strip seam Green form on the slice.
    The bound is tol (sum |terms| + |closed| + |green|).  abs_err is the
    larger of the equality gap and that sum times the sign violation (the
    largest _NONPOSITIVE term, relative to max(1, their sizes)), so a
    positive energy fails even where the equality holds, and a wrong strip
    energy of the right sign, as from a = 22 on, fails the equality."""
    total, rhs = sum(v for _, v in terms), closed - green
    size = sum(abs(v) for _, v in terms) + abs(closed) + abs(green)
    signed = [v for label, v in terms if label in _NONPOSITIVE]
    violation = max(0.0, *signed) / max(1.0, *map(abs, signed))
    abs_err = max(abs(total - rhs), size * violation)
    notes += f"; closed boundary term {closed:.6e} vs strip Green form {green:.6e}; sign violation {violation:.3e}"
    rel_err = abs_err / size if size > 0 else 0.0
    return IdentityReport(identity, terms, total, rhs, abs_err, rel_err, tol, tol * size, notes)


def master_identity(config: SolvedConfiguration, tol: float = 1e-9) -> IdentityReport:
    """Nonpositive decomposition of the seam boundary term.

    Terms: minus the strip energy integral of |grad H|^2 + 2 H^2, minus the
    cylinder mode series, minus ell s d0^2, plus the outer-boundary Green
    term (zero for either homogeneous outer condition).  On the slice the
    total equals the closed boundary term minus the strip seam Green form
    (_master_report): on this bounded model, the mismatch between the
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
    sres = slice_residual(sol, config.v_left, config.v_right)
    notes = f"total is the seam data mismatch on this bounded model; slice residual {sres:.3e}"
    return _master_report("master_identity", terms, config.closed, seam_form, tol, notes)


# --- area derivatives -------------------------------------------------------

def area_derivative_geometric(sol: FourierSolution, s_rate: float = 0.0) -> float:
    """Derivative of ell(t) s(t): -d0 ell s / 2 + ell ds/dt, using the
    length derivative -d0 ell / 2 of the core circle.  The commands hold s
    fixed; the acceptance gate's slice bookkeeping passes a height rate."""
    if abs(sol.c0) > MEAN_TOL:
        raise SolvabilityError("geometric route requires a vanishing linear coefficient")
    return -0.5 * sol.d0 * sol.ell * sol.s + sol.ell * s_rate


def area_derivative_analytic(
    sol: FourierSolution,
    v_left: TraceModes,
    v_right: TraceModes,
) -> float:
    """Derivative of the flat-insert area through the interior integral of
    -H: -ell (lam0 - rho0) - d0 ell s."""
    return -sol.ell * (v_left.mean - v_right.mean) - sol.d0 * sol.ell * sol.s


def area_derivative_report(
    config: SolvedConfiguration, tol: float = 1e-9
) -> IdentityReport:
    """Compare the geometric and analytic area-derivative routes."""
    sol = config.sol
    geo = area_derivative_geometric(sol)
    ana = area_derivative_analytic(sol, config.v_left, config.v_right)
    sres = slice_residual(sol, config.v_left, config.v_right)
    terms = (("geometric", geo), ("analytic", ana))
    return _compare("area_derivative", geo, ana, tol, terms=terms, notes=f"slice residual {sres:.3e}")


# --- arc length -------------------------------------------------------------

def arc_length_derivative(
    sol: FourierSolution,
    npts: int | None = None,
    dirichlet: TraceModes | None = None,
) -> float:
    """First variation of the left seam circle's length without
    quadratic-differential data: -1/2 times the seam integral of the H
    variation, summed on seam_points(nmax) points of the trace unless npts
    is given.  The trapezoid sum is exact only on a grid of more than
    2 nmax points: any other npts raises ValueError (TraceModes.on_grid).
    Reduces to -d0 ell / 2.  dirichlet is the left Dirichlet trace of sol,
    when the caller has it already."""
    dirichlet = sol.dirichlet_trace("left") if dirichlet is None else dirichlet
    npts = seam_points(dirichlet.max_mode()) if npts is None else npts
    return float(-0.5 * (sol.ell / npts) * np.sum(dirichlet.on_grid(npts)))


# --- quadratic-differential extensions --------------------------------------

def extended_boundary_term(
    sol: FourierSolution,
    q: QuadDiffModes,
    w_left: TraceModes,
    w_right: TraceModes,
) -> float:
    """Closed form of the seam boundary term for the amended fields: the
    unamended expression plus the mixed series

        - sum_{n>=1} (4/(pi n)) (4 pi^2 n^2 + ell^2) Im(v_n conj(c_n)
          + u_n conj(d_n)) S C.
    """
    if not w_left.kind == w_right.kind == "amended_variation":
        raise ValueError("expected amended variation fields")
    if abs(sol.c0) > MEAN_TOL:
        raise SolvabilityError("closed form requires a vanishing linear coefficient")
    total = 2.0 * sol.ell * sol.d0 * (w_left.mean - w_right.mean) + _cylinder_series(sol)
    return float(_mixed_series(sol, q, total))


def extended_master_identity(
    config: SolvedConfiguration, tol: float = 1e-9
) -> IdentityReport:
    """Nonpositive decomposition of the amended boundary term.

    Adds to the unamended terms the mixed Im-series (_mixed_series), which
    is not sign-definite, and the height-rate term -2 ell s d0 (ds/dt / s),
    which vanishes as the family holds s fixed.  The closed term of the
    equality is extended_boundary_term's.
    """
    sol = config.sol
    energy, seam_form, t_outer = config.strip_sums
    terms = (
        ("hyperbolic_energy", -energy),
        ("cylinder_series", _cylinder_series(sol)),
        ("mixed_series", _mixed_series(sol, config.quad)),
        ("mean_term", -sol.ell * sol.s * sol.d0**2),
        ("outer_greens", t_outer),
    )
    notes = "total is the seam data mismatch of the amended fields on this bounded model"
    return _master_report("extended_master_identity", terms, config.extended_closed, seam_form, tol, notes)


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
    0 where S = 0; every finite t takes the rows below."""
    k = (4.0 * np.pi**2 * n**2 + ell**2) / (2.0 * np.pi * n * ell)
    # sinh and cosh scaled by exp(-arg): the normalized determinant is
    # invariant under the common row factor, and this never overflows
    arg = np.pi * n * s / ell
    damp = np.exp(-2.0 * arg)
    lost = np.isneginf(t)
    if lost.any():
        limit = -(1.0 - damp * damp) / (1.0 + damp * damp)
        return np.where(lost, limit, _normalized_determinant(n, ell, s, np.where(lost, -1.0, t)))
    S = (1.0 - damp) / 2.0
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


def n0_balance_coefficient(
    ell: float, s: float, a: float, outer_bc: str = "dirichlet"
) -> float:
    """Coefficient multiplying d0 in the combined n = 0 seam balance and
    slice condition: 2 * dtn(0) - s.  Strictly negative (the seam ratio is
    negative and s >= 0), so the balance forces d0 = 0."""
    return 2.0 * hypersolve.dtn(0, ell, a, outer_bc) - s


# --- the verify suite -------------------------------------------------------

def boundary_term_report(config: SolvedConfiguration, tol: float) -> IdentityReport:
    """The closed boundary term against its seam quadrature."""
    notes = seam_grid_note(*config.dirichlet, *config.neumann)
    return _compare("boundary_term_closed_vs_quadrature", config.closed, config.quadrature, tol, notes=notes)


def arc_length_report(config: SolvedConfiguration, tol: float) -> IdentityReport:
    """The left seam's arc-length derivative by quadrature against -d0 ell / 2."""
    sol, dirichlet = config.sol, config.dirichlet[0]
    notes = f"seam quadrature vs -d0 ell / 2; {seam_grid_note(dirichlet)}"
    value = arc_length_derivative(sol, dirichlet=dirichlet)
    return _compare("arc_length_derivative", value, -0.5 * sol.d0 * sol.ell, tol, notes=notes)


def extended_boundary_report(config: SolvedConfiguration, tol: float) -> IdentityReport:
    """The amended boundary term against its seam quadrature."""
    neumann = tuple(map(hyperbolic_neumann, config.amended))
    quad = boundary_term_quadrature(config.dirichlet, neumann)
    notes = seam_grid_note(*config.dirichlet, *neumann)
    return _compare("extended_boundary_closed_vs_quadrature", config.extended_closed, quad, tol, notes=notes)


def extended_reduction_report(config: SolvedConfiguration, tol: float) -> IdentityReport:
    """The amended boundary term at the zero quadratic differential against the unamended one."""
    sol = config.sol
    q0 = QuadDiffModes(ell=sol.ell, s=sol.s)
    zero_q = extended_boundary_term(sol, q0, amend_variation(config.v_left, q0), amend_variation(config.v_right, q0))
    return _compare("extended_reduction_at_zero_quad", zero_q, config.closed, tol)


def modulus_report(chart: GraftedCollar, tol: float) -> IdentityReport:
    """The conformal modulus against its quadrature."""
    closed, quad = conformal_modulus(chart), conformal_modulus_quadrature(chart)
    return _compare("conformal_modulus_closed_vs_quadrature", closed, quad, tol)


def area_report(chart: GraftedCollar, tol: float) -> IdentityReport:
    """The total area against its quadrature."""
    return _compare("total_area_closed_vs_quadrature", total_area(chart), total_area_quadrature(chart), tol)


def stencil_report(fld: FourierSolution) -> IdentityReport:
    """harmonicity_report of the five-point stencil on fld at h = ell/256;
    not applicable, and passing on zeros, where the insert is thinner than
    2h, since the stencil's x +/- h steps would leave it, and where h * h
    underflows to 0 (ell below about 4e-160), since the stencil and its
    rounding allowance divide by h^2.  The notes name h and the reason."""
    h = fld.ell / 256
    if fld.s / 2 < h:
        reason = f"s/2 = {fld.s / 2!r} is below the stencil step h = ell/256 = {h!r}"
    elif h * h == 0.0:
        reason = f"the stencil step h = ell/256 = {h!r} squares to 0 in double precision"
    else:
        residual = harmonicity_residual(fld)
        truncation, rounding = harmonicity_bound(fld)
        notes = (
            f"five-point Laplacian on the series partial sum, h = ell/256 = {h!r}:"
            f" residual {residual:.3e} against the bound {truncation + rounding:.3e}"
            f" (truncation bound {truncation:.3e}, rounding allowance {rounding:.3e})"
        )
        return harmonicity_report(residual, truncation, rounding, notes=notes)
    return harmonicity_report(0.0, 0.0, 0.0, notes=f"not applicable: {reason}")


def strip_greens_report(config: SolvedConfiguration, tol: float) -> IdentityReport:
    """The Green identity on the strips, -energy + seam + outer forms = 0,
    relative to max(1, energy), within tol.  It reads the strip sums only,
    so it does not depend on the master report."""
    energy, seam, outer = config.strip_sums
    notes = "energy vs boundary forms on the solved strip modes"
    residual = abs(-energy + seam + outer) / max(1.0, energy)
    return _compare("strip_greens_identity", residual, 0.0, tol, notes=notes, bound=tol)


#: the smallest floor that passes: the first double above 1e-6
_ABOVE_FLOOR = math.nextafter(1e-6, 1.0)


def determinant_floor_report(chart: GraftedCollar, nmax: int) -> IdentityReport:
    """determinant_floor over the modes 1..nmax, which passes above 1e-6:
    its gap is measured from the next double up, against a bound of 0."""
    floor = determinant_floor(nmax, chart.ell, chart.s, chart.a, chart.outer_bc)
    gap, terms = max(0.0, _ABOVE_FLOOR - floor), (("min_abs_normalized_det", floor),)
    notes = "row-normalized determinant of the per-mode seam system"
    return IdentityReport("per_mode_determinant_floor", terms, floor, 1e-6, gap, gap / 1e-6, 0.0, 0.0, notes)


def suite(config: SolvedConfiguration, stencil_field: FourierSolution, modes: int, tol: float) -> list[IdentityReport]:
    """The verify report: every identity of the configuration, in a fixed
    order, with the stencil check of stencil_field and the determinant floor
    over modes 1..modes.  The algebraic and quadrature checks take tol, the
    slice condition max(tol, 1e-12), the checks on the strip sums 1e3 tol,
    the stencil its own bound and the determinant floor 0.  A GraftLabError
    raised by one check becomes its failing report (error_report), and the
    others still run."""
    tol_bvp = tol * 1e3
    sol, chart = config.sol, config.chart
    # each check is looked up when it runs, so a replaced one is the one run
    checks = (
        ("boundary_term_closed_vs_quadrature", lambda: boundary_term_report(config, tol)),
        ("slice_condition", lambda: slice_condition(sol, config.v_left, config.v_right, tol=max(tol, 1e-12))),
        ("master_identity", lambda: master_identity(config, tol=tol_bvp)),
        ("area_derivative", lambda: area_derivative_report(config, tol=tol)),
        ("arc_length_derivative", lambda: arc_length_report(config, tol)),
        ("extended_boundary_closed_vs_quadrature", lambda: extended_boundary_report(config, tol)),
        ("extended_reduction_at_zero_quad", lambda: extended_reduction_report(config, tol)),
        ("extended_master_identity", lambda: extended_master_identity(config, tol=tol_bvp)),
        ("conformal_modulus_closed_vs_quadrature", lambda: modulus_report(chart, tol)),
        ("total_area_closed_vs_quadrature", lambda: area_report(chart, tol)),
        ("interior_harmonicity_stencil", lambda: stencil_report(stencil_field)),
        ("strip_greens_identity", lambda: strip_greens_report(config, tol_bvp)),
        ("per_mode_determinant_floor", lambda: determinant_floor_report(chart, modes)),
    )
    reports = []
    for name, check in checks:
        try:
            reports.append(check())
        except GraftLabError as exc:
            reports.append(error_report(name, exc))
    return reports
