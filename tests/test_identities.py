import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graftlab import hypersolve, identities, sampling, variation
from graftlab.errors import DomainError, SolvabilityError
from graftlab.geometry import GraftedCollar
from graftlab.spectral import SIDES, FourierSolution, TraceModes
from oracles import n0_balance_coefficient, report_dict, strip_integral_of_h, two_row_determinant

ELL = 2.0 * np.pi
PARTS = identities.PARTS


def _parts(lam0, rho0):
    """The (even, odd) parts of seam means lam0 (left) and rho0 (right)."""
    return np.array([(rho0 + lam0) / 2, (rho0 - lam0) / 2])


def _trace(kind, mean, coef=((0.0,), (0.0,)), ell=ELL):
    """One trace of the parts: mean and coef hold the (even, odd) parts on their leading axis."""
    return TraceModes(side=PARTS, kind=kind, ell=ell, mean=np.asarray(mean, float), coef=np.asarray(coef, complex))


def _vf(lam0, rho0):
    """The variation parts of seam means lam0 and rho0, with no modes."""
    return _trace("variation", _parts(lam0, rho0))


def _variation(sol, lam0, rho0):
    """The variation parts of sol's flat Neumann data, with seam means lam0 and rho0."""
    return variation.solve_flat_variation(sol.neumann_trace_flat(PARTS), _parts(lam0, rho0))


def _amended(sol, q, lam0, rho0):
    """The variation parts of sol's flat Neumann data, amended by q."""
    return variation.amend_variation(_variation(sol, lam0, rho0), q)


def _quadrature(sol, v):
    """boundary_term_quadrature of sol's Dirichlet parts against the hyperbolic Neumann data of v."""
    return identities.boundary_term_quadrature(sol.dirichlet_trace(PARTS), variation.hyperbolic_neumann(v))


# --- closed boundary term ---------------------------------------------------

def test_boundary_closed_mean_only():
    # 2 ell d0 (lam0 - rho0) with no oscillating modes
    sol = FourierSolution(ell=ELL, s=1.0, d0=0.5)
    val = identities.boundary_term_closed(sol, _vf(0.2, -0.1))
    assert val == pytest.approx(2.0 * ELL * 0.5 * 0.3)


def test_boundary_closed_single_mode():
    """c1 = 1 at ell = 2 pi, s = 2: the series term is
    -(2/pi)(8 pi^2) sinh(1) cosh(1) = -16 pi sinh(1) cosh(1)."""
    sol = FourierSolution(ell=ELL, s=2.0, modes={1: (1.0, 0.0)})
    val = identities.boundary_term_closed(sol, _vf(0.0, 0.0))
    assert val == pytest.approx(-16.0 * np.pi * np.sinh(1.0) * np.cosh(1.0))


def test_boundary_closed_zero_field():
    sol = FourierSolution(ell=ELL, s=1.0)
    assert identities.boundary_term_closed(sol, _vf(0.0, 0.0)) == 0.0


def test_boundary_closed_rejects_linear_term():
    sol = FourierSolution(ell=ELL, s=1.0, c0=1.0)
    with pytest.raises(SolvabilityError):
        identities.boundary_term_closed(sol, _vf(0.0, 0.0))


# --- seam quadrature --------------------------------------------------------

def test_quadrature_orthogonal_modes():
    # distinct Fourier modes integrate to zero against each other
    # the even Dirichlet part holds mode 1 and the odd Neumann part mode 2
    d = _trace("dirichlet", (0.0, 0.0), ((0.0, 1.0, 0.0), (0.0, 0.0, 0.0)))
    n = _trace("neumann_hyperbolic", (0.0, 0.0), ((0.0, 0.0, 0.0), (0.0, 0.0, 1.0)))
    val = identities.boundary_term_quadrature(d, n)
    assert abs(val) < 1e-12


def test_quadrature_constant_traces():
    # D = d0 and N = g on the left seam, 0 on the right: each part is half
    # the left value, with the odd part's sign flipped
    d0, g = 0.7, -0.4
    dirichlet, neumann = (
        _trace(kind, _parts(left, 0.0)) for kind, left in (("dirichlet", d0), ("neumann_hyperbolic", g))
    )
    val = identities.boundary_term_quadrature(dirichlet, neumann)
    assert val == pytest.approx(ELL * d0 * g)


def test_quadrature_input_validation():
    d = _trace("dirichlet", (0.0, 0.0), ((0.0, 0.0, 0.0, 1.0), (0.0, 0.0, 0.0, 0.0)))
    other = _trace("neumann_hyperbolic", (0.0, 0.0), ell=1.0)
    n = _trace("neumann_hyperbolic", (0.0, 0.0))
    with pytest.raises(ValueError):
        identities.boundary_term_quadrature(d, other)
    with pytest.raises(ValueError):
        identities.boundary_term_quadrature(d, n, npts=6)


def test_closed_matches_quadrature_random():
    rng = np.random.default_rng(7)
    sol = sampling.random_solution(rng, ELL, 1.5, nmax=6)
    v = _variation(sol, 0.3, -0.2)
    assert identities.boundary_term_closed(sol, v) == pytest.approx(_quadrature(sol, v), rel=1e-10)


#: ROADMAP item 14's quadrant, as exponents of 10: log-uniform ell and s,
#: with s = 0 a fifth of the time
_QUADRANT = {"ell": (-12.0, 12.0), "s": (-6.0, 6.0)}


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    log_ell=st.floats(*_QUADRANT["ell"]),
    log_s=st.floats(*_QUADRANT["s"]),
    s_zero=st.integers(0, 4),
    modes=st.sampled_from([1, 8, 64]),
    seed=st.integers(0, 2**32 - 1),
)
def test_seam_quadratures_match_their_closed_forms_across_the_quadrant(log_ell, log_s, s_zero, modes, seed):
    # verify's draws: both seam quadratures against their closed forms,
    # judged by their check's bound at verify's tol; in parts no two seam
    # sums cancel, so the gap stays at rounding level where s is small
    # beside ell (ROADMAP item 13)
    ell, s = 10.0**log_ell, 0.0 if s_zero == 0 else 10.0**log_s
    rng = np.random.default_rng(seed)
    sol = sampling.random_solution(rng, ell, s, nmax=modes)
    q = sampling.random_solution(rng, ell, s, nmax=modes, amplitude=0.5)
    means = sampling.slice_compatible_means(rng, s, sol.d0)
    config = identities.solve_configuration(GraftedCollar(ell=ell, s=s, a=1.0), sol, means, quad=q)
    assert _EQUALITY.report(1e-10, config.closed, config.quadrature, (), "").passed
    w = variation.hyperbolic_neumann(config.amended)
    extended = identities.boundary_term_quadrature(config.dirichlet, w)
    assert _EQUALITY.report(1e-10, config.extended_closed, extended, (), "").passed


def _closed_term_50_digits(ell, s):
    """(config, its closed boundary term evaluated with 50 digits from the
    same double coefficients, the sum of its terms' sizes, its term count)
    for a seed-0 field and slice means at ell and s."""
    mp = pytest.importorskip("mpmath").mp
    rng = np.random.default_rng(0)
    sol = sampling.random_solution(rng, ell, s, nmax=8)
    means = sampling.slice_compatible_means(rng, s, sol.d0)
    config = identities.solve_configuration(GraftedCollar(ell=ell, s=s, a=1.0), sol, means)
    with mp.workdps(50):
        L, H = mp.mpf(ell), mp.mpf(s)
        mean = 2 * L * mp.mpf(sol.d0) * (-2 * mp.mpf(config.variation.mean[1]))
        series = []
        for n in range(1, sol.c.shape[-1]):
            arg = mp.pi * n * H / L
            weight = abs(mp.mpc(sol.c[n])) ** 2 + abs(mp.mpc(sol.d[n])) ** 2
            series.append(2 / (mp.pi * n) * (4 * mp.pi**2 * n**2 + L**2) * weight * mp.sinh(arg) * mp.cosh(arg))
        return config, mean - mp.fsum(series), abs(mean) + mp.fsum(series), len(series)


@pytest.mark.parametrize("ell, s", [(ELL, 1.0), (1e7, 1e-6), (1e10, 1e-3), (1e160, 1.0), (1e300, 1.0)])
def test_closed_term_matches_a_50_digit_evaluation(ell, s):
    # the closed form rounds within a few eps of the sum of its terms'
    # sizes, also past spectral.LARGE_ELL, where the series scales ell by a
    # power of two before squaring it and scales each term back
    config, exact, size, count = _closed_term_50_digits(ell, s)
    assert abs(config.closed - exact) <= 4 * (count + 2) * np.finfo(float).eps * size


@pytest.mark.parametrize("ell, s", [(ELL, 1.0), (1e7, 1e-6), (1e10, 1e-3)])
def test_closed_term_and_quadrature_match_a_50_digit_evaluation(ell, s):
    # the quadrature of the same coefficients within its check's bound of
    # the 50-digit closed term
    config, exact, _, _ = _closed_term_50_digits(ell, s)
    assert _EQUALITY.report(1e-10, float(exact), config.quadrature, (), "").passed


def test_seam_gives_the_traces_of_one_seam():
    # the single-seam consumers read each seam solved directly, with its
    # variation mean formed from the parts
    chart = GraftedCollar(ell=ELL, s=1.5, a=1.0)
    sol = sampling.random_solution(np.random.default_rng(3), ELL, 1.5, nmax=6)
    config = identities.solve_configuration(chart, sol, _parts(0.25, -0.5))
    for side, mean in (("left", 0.25), ("right", -0.5)):
        dirichlet, v = config.seam(side)
        assert (dirichlet.side, v.side, v.kind) == (side, side, "variation")
        direct = sol.dirichlet_trace(side)
        assert np.array_equal(dirichlet.coef, direct.coef) and dirichlet.mean == direct.mean
        assert v.mean == mean
        assert np.array_equal(v.coef, variation.solve_flat_variation(sol.neumann_trace_flat(side), mean).coef)


def test_seam_points_is_the_smallest_power_of_two_above_2_nmax():
    assert [identities.seam_points(n) for n in (0, 1, 8, 31, 32, 63, 64, 256)] == [
        64, 64, 64, 64, 128, 128, 256, 1024,
    ]
    d = TraceModes(side="left", kind="dirichlet", ell=ELL, mean=0.0, modes={40: 1.0})
    n = TraceModes(side="left", kind="neumann_hyperbolic", ell=ELL, mean=0.0, modes={3: 1.0})
    assert identities.seam_grid_note(d, n) == "trapezoid on 128 seam points, exact above 2*nmax = 80"


def _random_trace(rng, kind, ell, nmax):
    """A trace of the parts, drawn part by part: its mean, then its modes."""
    means, coefs = [], []
    for _ in PARTS:
        means.append(rng.standard_normal())
        coefs.append(np.r_[0.0, rng.standard_normal(nmax) + 1j * rng.standard_normal(nmax)])
    return _trace(kind, means, coefs, ell)


@pytest.mark.parametrize("nmax", [1, 8, 31, 32, 256])
def test_derived_seam_grid_matches_4096_points(nmax):
    # the trapezoid sum is exact on both grids, so they differ by rounding:
    # at most 64 eps times the trapezoid sum of |D N| on the 4096 points
    rng = np.random.default_rng(nmax)
    ell = 3.0
    dirichlet = _random_trace(rng, "dirichlet", ell, nmax)
    neumann = _random_trace(rng, "neumann_hyperbolic", ell, nmax)
    got = identities.boundary_term_quadrature(dirichlet, neumann)
    ref = identities.boundary_term_quadrature(dirichlet, neumann, npts=4096)
    # the integrand is -2 (D_e N_o + D_o N_e)
    terms = 2 * np.sum(np.abs(dirichlet.on_grid(4096) * neumann.on_grid(4096)[::-1]), axis=0)
    assert abs(got - ref) <= 64 * np.finfo(float).eps * ell * np.mean(terms)


# --- slice condition --------------------------------------------------------

def test_slice_residual_examples():
    sol = FourierSolution(ell=ELL, s=2.0, d0=0.3)
    # lam0 - rho0 = -s d0 / 2 zeroes the residual
    assert identities.slice_residual(sol, _vf(-0.3, 0.0)) == pytest.approx(0.0)
    assert identities.slice_residual(sol, _vf(-0.1, 0.0)) == pytest.approx(0.2)


def test_slice_condition_report():
    sol = FourierSolution(ell=ELL, s=2.0, d0=0.3)
    rep = identities.slice_condition(sol, _vf(-0.3, 0.0), 1e-12)
    assert rep.passed
    bad = identities.slice_condition(sol, _vf(0.5, 0.0), 1e-12)
    assert not bad.passed


# --- master identity --------------------------------------------------------

def _pinned_config(sol, chart, **kw):
    return identities.solve_configuration(chart, sol, **kw)


def _slice_config(rng, sol, chart, **kw):
    # means on the slice lam0 - rho0 = -s d0 / 2, where the master
    # identities hold as equalities
    return identities.solve_configuration(chart, sol, sampling.slice_compatible_means(rng, chart.s, sol.d0), **kw)


@pytest.mark.parametrize(
    "chart",
    [GraftedCollar(ell=ELL, s=1.0, a=400.0, outer_bc="neumann"), GraftedCollar(ell=ELL, s=1.0, a=720.0)],
)
def test_free_means_solve_no_strip_mode_at_large_a(chart, monkeypatch):
    # geodesic pins the free means and never reads the strip sums: at a = 720
    # the unit profiles overflow (and at a = 400, Neumann, they did while
    # their constants took cosh(a)^2), so solving them there printed numpy
    # warnings for strips nothing used
    solves = []
    solve_modes = hypersolve.solve_modes
    monkeypatch.setattr(hypersolve, "solve_modes", lambda *args: solves.append(args) or solve_modes(*args))
    sol = sampling.random_solution(np.random.default_rng(0), chart.ell, chart.s, nmax=4, amplitude=0.3)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        config = identities.solve_configuration(chart, sol)
    assert solves == []
    dtn0 = hypersolve.seam_dtn([0], chart.ell, chart.a, chart.outer_bc)[0]
    means = variation.pinned_means(dtn0, sol.dirichlet_trace(PARTS).mean)
    assert np.array_equal(config.variation.mean, means)
    # the even and odd parts of (lam0, rho0) from the odd and even Dirichlet means
    assert np.array_equal(means, [dtn0 * sol.dirichlet_trace(part).mean / 2 for part in ("odd", "even")])
    with np.errstate(all="ignore"):
        config.strip_sums
    assert len(solves) == 1


def test_master_identity_zero_field():
    chart = GraftedCollar(ell=ELL, s=1.0, a=1.0)
    sol = FourierSolution(ell=ELL, s=1.0)
    rep = identities.master_identity(_pinned_config(sol, chart), 1e-9)
    assert rep.passed
    assert rep.lhs == pytest.approx(0.0, abs=1e-12)
    assert all(abs(v) < 1e-12 for _, v in rep.terms)


def test_master_identity_single_mode():
    chart = GraftedCollar(ell=ELL, s=2.0, a=1.0)
    sol = FourierSolution(ell=ELL, s=2.0, modes={1: (0.3, 0.0)})
    rep = identities.master_identity(_pinned_config(sol, chart), 1e-9)
    assert rep.passed
    terms = dict(rep.terms)
    assert terms["hyperbolic_energy"] < 0
    assert terms["cylinder_series"] < 0
    assert terms["mean_term"] == 0.0
    assert rep.lhs < 0


def test_master_identities_fail_non_finite_terms():
    # a mode of amplitude 1e-300 at pi n s / ell = 750: its cosh overflows
    # and |c|^2 underflows, so 0 * inf makes the cylinder series NaN (a zero
    # mode there is exactly 0: see test_zero_mode_past_cosh_overflow_is_zero)
    chart = GraftedCollar(ell=ELL, s=1.0, a=1.0)
    sol = FourierSolution(ell=ELL, s=1.0, modes={1: (0.3, 0.0), 1500: (1e-300, 0.0)})
    with np.errstate(over="ignore", invalid="ignore"):
        rep = identities.master_identity(_pinned_config(sol, chart), 1e-9)
    assert np.isnan(dict(rep.terms)["cylinder_series"])
    assert not rep.passed


#: a check of the equality kind, to judge numbers with
_EQUALITY = identities.CHECKS["boundary_term_closed_vs_quadrature"]


def test_zero_mode_past_cosh_overflow_is_zero():
    # pi n s / ell = 750 at n = 300, past where cosh overflows; a zero mode
    # there has exactly zero seam values, where 0 * inf would make NaN
    sol = FourierSolution(ell=ELL, s=5.0, modes={1: (0.3, 0.1j), 300: (0.0, 0.0)})
    for trace in (sol.dirichlet_trace(side) for side in SIDES):
        assert np.all(np.isfinite(trace.coef)) and trace.coef[300] == 0.0
    for trace in (sol.neumann_trace_flat(side) for side in SIDES):
        assert np.all(np.isfinite(trace.coef)) and trace.coef[300] == 0.0
    v = _variation(sol, 0.2, -0.1)
    closed = identities.boundary_term_closed(sol, v)
    quad = _quadrature(sol, v)
    assert np.isfinite(closed) and closed != 0.0
    assert _EQUALITY.report(1e-10, closed, quad, (), "").passed


def test_compare_fails_non_finite_operands():
    for lhs, rhs in ((np.nan, 0.0), (0.0, np.nan), (np.nan, np.nan), (np.inf, 1.0)):
        assert not _EQUALITY.report(1e-9, lhs, rhs, (), "").passed
    assert not _EQUALITY.report(1e-9, 1.0, 1.0, (("t", np.nan),), "").passed
    assert _EQUALITY.report(1e-9, 1.0, 1.0, (("t", 1.0),), "").passed


def test_master_identity_random_nonpositive():
    rng = np.random.default_rng(11)
    for s in (0.5, 2.0):
        chart = GraftedCollar(ell=ELL, s=s, a=1.0)
        sol = sampling.random_solution(rng, ELL, s, nmax=4)
        rep = identities.master_identity(_slice_config(rng, sol, chart), 1e-9)
        assert rep.passed
        for label, v in rep.terms:
            if label != "outer_greens":
                assert v <= 1e-12


def test_master_identities_are_equalities_on_the_slice_only():
    # total = closed boundary term - strip seam Green form
    # - 2 ell d0 (slice residual), so the gap shows off the slice: the
    # seam-balance means with d0 != 0 miss it
    chart = GraftedCollar(ell=ELL, s=1.5, a=1.0)
    rng = np.random.default_rng(29)
    sol = sampling.random_solution(rng, ELL, 1.5, nmax=6)
    q = sampling.random_solution(rng, ELL, 1.5, nmax=6)
    on, off = _slice_config(rng, sol, chart, quad=q), _pinned_config(sol, chart, quad=q)
    on_rep, off_rep = (identities.master_identity(cfg, 1e-9) for cfg in (on, off))
    for cfg, rep in ((on, on_rep), (off, off_rep)):
        assert rep.rhs == cfg.closed - cfg.strip_sums[1]
        assert rep.abs_err == abs(rep.lhs - rep.rhs)
    assert on_rep.passed and on_rep.rel_err <= 1e-15
    sres = identities.slice_residual(sol, off.variation)
    assert abs(2.0 * ELL * sol.d0 * sres) > 0.5
    assert not off_rep.passed
    assert off_rep.lhs - off_rep.rhs == pytest.approx(-2.0 * ELL * sol.d0 * sres, rel=1e-12)


@pytest.mark.parametrize("outer", ["dirichlet", "neumann"])
def test_master_identities_fail_a_relative_energy_defect_of_1e_9(outer):
    chart = GraftedCollar(ell=ELL, s=1.0, a=1.0, outer_bc=outer)
    rng = np.random.default_rng(31)
    sol = sampling.random_solution(rng, ELL, 1.0, nmax=8)
    q = sampling.random_solution(rng, ELL, 1.0, nmax=8, amplitude=0.5)
    cfg = _slice_config(rng, sol, chart, quad=q)
    # tol 1e-12: above the rounding of the equality, below the defect
    assert identities.master_identity(cfg, tol=1e-12).passed
    energy, *rest = cfg.strip_sums
    cfg.strip_sums = (energy * (1.0 + 1e-9), *rest)
    rep = identities.master_identity(cfg, tol=1e-12)
    assert not rep.passed and np.isfinite(rep.abs_err)
    assert dict(rep.terms)["hyperbolic_energy"] < 0.0  # the signs alone would pass it


def _subtract_in_a_loop(total, terms):
    for k in range(terms.shape[-1]):
        total = total - terms[..., k]
    return total


@pytest.mark.parametrize("shape", [(257,), (20, 9), (3, 129), (4, 0)])
def test_subtract_in_order_matches_the_loop(shape):
    # same operations in the same order: bit-identical, at one point and
    # along a points axis alike; with no modes a scalar total is given back
    # once per point
    rng = np.random.default_rng(sum(shape))
    terms = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8, shape)
    for total in (0.0, 1.5, rng.standard_normal(shape[:-1])):
        got = identities._subtract_in_order(total, terms)
        assert np.shape(got) == shape[:-1]
        assert np.array_equal(got, np.broadcast_to(_subtract_in_a_loop(total, terms), shape[:-1]))


# --- area derivatives -------------------------------------------------------

def test_area_geometric_examples():
    sol = FourierSolution(ell=ELL, s=2.0, d0=1.0)
    assert identities.area_derivative_geometric(sol) == pytest.approx(-2.0 * np.pi)
    flat = FourierSolution(ell=ELL, s=2.0)
    assert identities.area_derivative_geometric(flat, s_rate=0.5) == pytest.approx(ELL / 2.0)


def test_area_analytic_example():
    sol = FourierSolution(ell=ELL, s=2.0, d0=0.3)
    val = identities.area_derivative_analytic(sol, _vf(-0.3, 0.0))
    assert val == pytest.approx(-0.6 * np.pi)


def test_area_routes_agree_on_slice():
    rng = np.random.default_rng(3)
    sol = sampling.random_solution(rng, ELL, 1.0, nmax=4)
    means = sampling.slice_compatible_means(rng, 1.0, sol.d0)
    v = variation.solve_flat_variation(sol.neumann_trace_flat(PARTS), np.asarray(means))
    geo = identities.area_derivative_geometric(sol)
    ana = identities.area_derivative_analytic(sol, v)
    assert geo == pytest.approx(ana, abs=1e-12)


@pytest.mark.parametrize("outer", ["dirichlet", "neumann"])
def test_strip_integral_route_matches_the_pinned_means(outer):
    # minus the strip integral of H plus half the outer flux (oracles) is
    # ell dtn0 (D0_l + D0_r) / 2, which is -ell (lam0 - rho0) when the means
    # come from the seam balance; the outer flux is 0 for a Neumann strip
    chart = GraftedCollar(ell=ELL, s=1.0, a=1.0, outer_bc=outer)
    rng = np.random.default_rng(5)
    sol = sampling.random_solution(rng, ELL, 1.0, nmax=4)
    cfg = _pinned_config(sol, chart)
    ns = cfg.units.ns[1:]
    seams = [np.concatenate(([t.mean], t.coef[ns])) for t in (cfg.seam(side)[0] for side in ("left", "right"))]
    int_h, flux = strip_integral_of_h(cfg.units, seams)
    assert (abs(flux) < 1e-12) == (outer == "neumann")
    target = -sol.ell * identities.mean_gap(cfg.variation)
    assert -int_h + 0.5 * flux == pytest.approx(target, rel=1e-8)


# --- arc length -------------------------------------------------------------

def test_arc_length_examples():
    sol = FourierSolution(ell=ELL, s=2.0, d0=1.0, modes={1: (0.4, 0.2)})
    # oscillating modes average out: -d0 ell / 2
    assert identities.arc_length_derivative(sol) == pytest.approx(-np.pi, rel=1e-12)
    flat = FourierSolution(ell=ELL, s=2.0)
    assert identities.arc_length_derivative(flat) == pytest.approx(0.0, abs=1e-14)


@pytest.mark.parametrize("nmax", [0, 8, 40])
def test_arc_length_default_grid_matches_4096_points(nmax):
    # the default grid, exact for the trace, against a 4096-point sum, for
    # a mean-only trace and two widths of modes; each mode is damped by
    # cosh(pi n s / ell), as in the samplers, so the trace's coefficients
    # decay slowly, like exp(-0.05 n)
    rng = np.random.default_rng(nmax)
    n = np.arange(nmax + 1)
    z = rng.standard_normal((4, nmax + 1))
    damp = np.where(n > 0, np.exp(-0.05 * n) / np.cosh(np.pi * n * 1.5 / ELL), 0.0)
    c, d = damp * (z[0] + 1j * z[1]), damp * (z[2] + 1j * z[3])
    sol = FourierSolution(ell=ELL, s=1.5, d0=rng.standard_normal(), c=c, d=d)
    got = identities.arc_length_derivative(sol)
    ref = identities.arc_length_derivative(sol, npts=4096)
    terms = np.abs(sol.dirichlet_trace("left").on_grid(4096))
    assert abs(got - ref) <= 64 * np.finfo(float).eps * ELL * np.mean(terms)


def test_arc_length_raises_on_a_grid_that_is_not_exact():
    # the trapezoid sum of the trace on npts <= 2 nmax points would alias
    sol = FourierSolution(ell=ELL, s=2.0, d0=1.0, modes={5: (0.4, 0.2)})
    assert identities.arc_length_derivative(sol, npts=11) == pytest.approx(-np.pi, rel=1e-12)
    for npts in (10, 6, 1):
        with pytest.raises(ValueError, match="cannot resolve mode 5"):
            identities.arc_length_derivative(sol, npts=npts)


# --- quadratic-differential extensions --------------------------------------

def test_extended_reduces_at_zero_quad():
    rng = np.random.default_rng(13)
    sol = sampling.random_solution(rng, ELL, 1.5, nmax=5)
    q0 = FourierSolution(ell=ELL, s=1.5)
    ext = identities.extended_boundary_term(sol, q0, _amended(sol, q0, 0.2, -0.1))
    assert ext == pytest.approx(identities.boundary_term_closed(sol, _variation(sol, 0.2, -0.1)), rel=1e-14)


def test_extended_cross_term_example():
    """c1 = 1, v1 = i at ell = 2 pi, s = 2 adds
    -(4/pi)(8 pi^2) sinh(1) cosh(1) = -32 pi sinh(1) cosh(1)."""
    sol = FourierSolution(ell=ELL, s=2.0, modes={1: (1.0, 0.0)})
    q = FourierSolution(ell=ELL, s=2.0, modes={1: (0.0, 1j)})
    ext = identities.extended_boundary_term(sol, q, _amended(sol, q, 0.0, 0.0))
    plain = identities.boundary_term_closed(sol, _variation(sol, 0.0, 0.0))
    cross = ext - plain
    assert cross == pytest.approx(-32.0 * np.pi * np.sinh(1.0) * np.cosh(1.0))


def test_extended_real_products_vanish():
    # Im(v conj(c) + u conj(d)) = 0 when everything is real
    sol = FourierSolution(ell=ELL, s=1.0, modes={1: (0.5, 0.25), 2: (0.1, 0.0)})
    q = FourierSolution(ell=ELL, s=1.0, modes={1: (0.2, 0.4), 2: (0.3, 0.1)})
    ext = identities.extended_boundary_term(sol, q, _amended(sol, q, 0.0, 0.0))
    plain = identities.boundary_term_closed(sol, _variation(sol, 0.0, 0.0))
    assert ext == pytest.approx(plain, rel=1e-14)


def test_extended_requires_amended_fields():
    sol = FourierSolution(ell=ELL, s=1.0)
    q = FourierSolution(ell=ELL, s=1.0)
    with pytest.raises(ValueError):
        identities.extended_boundary_term(sol, q, _vf(0.0, 0.0))


def test_extended_closed_matches_quadrature():
    rng = np.random.default_rng(17)
    sol = sampling.random_solution(rng, ELL, 1.0, nmax=5)
    q = sampling.random_solution(rng, ELL, 1.0, nmax=5)
    w = _amended(sol, q, 0.1, -0.2)
    ext = identities.extended_boundary_term(sol, q, w)
    assert ext == pytest.approx(_quadrature(sol, w), rel=1e-10)


# --- per-mode system --------------------------------------------------------

def test_per_mode_determinant_validation_and_magnitude():
    with pytest.raises(ValueError):
        identities.per_mode_determinant(0, ELL, 1.0, 1.0)
    for n in (1, 4, 32, 200):
        det = identities.per_mode_determinant(n, ELL, 1.0, 1.0)
        assert np.isfinite(det)
        assert abs(det) > 1e-6


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("outer_bc", ["dirichlet", "neumann"])
def test_determinant_on_thin_strips_and_short_circles(outer_bc):
    # the rows' entries pass 1e154 where |t| ~ 1/a or k ~ 1/ell does; the
    # exact power-of-two scaling keeps 2ab and h^2 finite, so the thin-strip
    # limit holds below a = 1e-154 and every value stays finite
    ns = (1, 2, 7)
    ref = [identities.per_mode_determinant(n, ELL, 1.0, 1e-150, outer_bc) for n in ns]
    for a in (1e-154, 1e-200, 1e-300):
        dets = [identities.per_mode_determinant(n, ELL, 1.0, a, outer_bc) for n in ns]
        assert dets == pytest.approx(ref, rel=1e-14)
    dets = [identities.per_mode_determinant(n, 1e-160, 1.0, 1.0, outer_bc) for n in ns]
    assert np.all(np.isfinite(dets)) and all(-1.0 <= det < 0.0 for det in dets)
    assert np.isfinite(identities.determinant_floor(8, 1e-160, 1.0, 1.0, outer_bc))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    ell=st.floats(0.25, 16.0),
    s=st.floats(0.0, 20.0),
    a=st.floats(0.1, 1e4),
    outer_bc=st.sampled_from(["dirichlet", "neumann"]),
    nmax=st.integers(1, 256),
)
def test_determinant_equals_the_two_row_form_bit_for_bit(ell, s, a, outer_bc, nmax):
    ns = np.arange(1, nmax + 1)
    t = hypersolve.seam_dtn(ns, ell, a, outer_bc)
    ref = two_row_determinant(ns, ell, s, t)
    assert identities.determinant_floor(nmax, ell, s, a, outer_bc) == np.min(np.abs(ref))
    for n in ns:
        assert identities.per_mode_determinant(n, ell, s, a, outer_bc) == ref[n - 1]


@pytest.mark.parametrize("ell", [1e5, 1e10, 1e160])
def test_determinant_keeps_its_digits_where_s_over_ell_is_small(ell):
    # S = sinh(arg) exp(-arg) at arg = pi n s / ell of 3e-10 and 3e-160,
    # where 1 - exp(-2 arg) cancels (at ell = 1e160 to 23%), against the
    # normalized determinant of the same rows in 50 digits, at the same DtN
    # value
    mp = pytest.importorskip("mpmath").mp
    t = hypersolve.dtn(1, ell, 1.0)
    with mp.workdps(50):
        L, arg = mp.mpf(ell), mp.pi / mp.mpf(ell)
        k = (4 * mp.pi**2 + L**2) / (2 * mp.pi * L)
        a, b = -k * mp.sinh(arg) + t * mp.cosh(arg), k * mp.cosh(arg) - t * mp.sinh(arg)
        reference = float(2 * a * b / (a * a + b * b))
    assert identities.per_mode_determinant(1, ell, 1.0, 1.0) == pytest.approx(reference, rel=1e-14, abs=0.0)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    ell=st.floats(0.25, 16.0),
    s=st.floats(0.0, 20.0),
    log10_a=st.floats(-1.0, 1.0),
    outer_bc=st.sampled_from(["dirichlet", "neumann"]),
)
def test_normalized_determinant_is_negative(ell, s, log10_a, outer_bc):
    # seam_dtn < 0 gives the row entries a < 0 < b, so 2ab / h^2 lies in [-1, 0)
    ns = np.arange(1, 257)
    t = hypersolve.seam_dtn(ns, ell, 10.0**log10_a, outer_bc)
    assert np.all(t < 0.0)
    det = identities._normalized_determinant(ns, ell, s, t)
    assert np.all(det < 0.0) and np.all(det >= -1.0)


def test_normalized_determinant_takes_its_limit_where_the_dtn_value_is_minus_inf():
    # seam_dtn is -inf on an outer Dirichlet strip of subnormal a; there the
    # determinant is the t -> -inf limit -tanh(2 pi n s / ell), 0 at s = 0
    ns = np.arange(1, 9)
    t = hypersolve.seam_dtn(ns, 1.0, 1e-310)
    assert np.all(np.isneginf(t))
    det = identities._normalized_determinant(ns, 1.0, 1.0, t)
    assert det == pytest.approx(-np.tanh(2.0 * np.pi * ns), rel=1e-15)
    assert det == pytest.approx(identities._normalized_determinant(ns, 1.0, 1.0, np.full(8, -1e300)), rel=1e-15)
    assert np.all(identities._normalized_determinant(ns, 1.0, 0.0, t) == 0.0)
    assert identities.per_mode_determinant(3, 1.0, 1.0, 1.0, dtn_value=-np.inf) == det[2]
    # a finite t keeps its value bit for bit beside an infinite one
    mixed = t.copy()
    mixed[::2] = hypersolve.seam_dtn(ns[::2], 1.0, 1.0)
    finite = identities._normalized_determinant(ns[::2], 1.0, 1.0, mixed[::2])
    assert np.array_equal(identities._normalized_determinant(ns, 1.0, 1.0, mixed)[::2], finite)


def test_n0_balance_strictly_negative():
    for outer in ("dirichlet", "neumann"):
        for s in (0.0, 0.5, 3.0):
            assert n0_balance_coefficient(ELL, s, 1.0, outer) < 0.0


# --- reporting --------------------------------------------------------------

def test_report_serializes_to_json():
    sol = FourierSolution(ell=ELL, s=2.0, d0=0.3)
    rep = identities.slice_condition(sol, _vf(-0.3, 0.0), 1e-12)
    text = json.dumps(report_dict(rep))
    data = json.loads(text)
    assert data["pass"] is True
    assert data["identity"] == "slice_condition"


def test_harmonicity_report_has_no_relative_branch():
    # the stencil's kind, the residual, judged within its tol at every scale
    stencil = identities.CHECKS["interior_harmonicity_stencil"]
    within = stencil.report(1e-9 + 1e-12, 0.7e-9, (), "")
    assert within.passed and within.tol == within.bound == 1e-9 + 1e-12
    # a residual above its bound fails even when the bound exceeds 1, where
    # a relative-error test (rel_err = 1 <= tol) would pass it
    assert not stencil.report(2.0, 3.0, (), "").passed
    assert not stencil.report(1.0, float("nan"), (), "").passed
    assert stencil.report(0.0, 0.0, (), "").passed


# --- the verdict rule -------------------------------------------------------

def test_compare_passes_an_error_equal_to_its_bound():
    # bound = tol * max(1, |lhs|, |rhs|): absolute below unit scale, relative
    # above it; every value here is exact in binary
    tol = 0.25
    for lhs, rhs in ((0.25, 0.5), (3.0, 4.0)):
        assert abs(lhs - rhs) == tol * max(1.0, abs(lhs), abs(rhs))
        assert _EQUALITY.report(tol, lhs, rhs, (), "").passed
        assert not _EQUALITY.report(np.nextafter(tol, 0.0), lhs, rhs, (), "").passed


def test_determinant_floor_of_exactly_1e_6_fails(monkeypatch):
    config = identities.solve_configuration(GraftedCollar(ell=ELL, s=1.0, a=1.0), FourierSolution(ell=ELL, s=1.0))
    floor = identities.CHECKS["per_mode_determinant_floor"]
    monkeypatch.setattr(identities, "determinant_floor", lambda *args: 1e-6)
    assert not floor.route(floor, 0.0, config, None, 4).passed
    monkeypatch.setattr(identities, "determinant_floor", lambda *args: np.nextafter(1e-6, 1.0))
    assert floor.route(floor, 0.0, config, None, 4).passed


def test_master_identity_fails_a_positive_energy_whose_equality_holds():
    # flip the strip energy's sign and move the difference into the seam
    # Green form: total and closed - green still agree, the sign does not
    chart = GraftedCollar(ell=ELL, s=1.0, a=1.0)
    rng = np.random.default_rng(31)
    sol = sampling.random_solution(rng, ELL, 1.0, nmax=8)
    cfg = _slice_config(rng, sol, chart)
    assert identities.master_identity(cfg, 1e-9).passed
    energy, seam_form, outer = cfg.strip_sums
    cfg.strip_sums = (-energy, seam_form - 2.0 * energy, outer)
    rep = identities.master_identity(cfg, 1e-9)
    assert dict(rep.terms)["hyperbolic_energy"] > 0.0
    assert abs(rep.lhs - rep.rhs) <= 1e-14 * sum(abs(v) for _, v in rep.terms)
    assert not rep.passed


def _verdict_holds(report) -> bool:
    d = report_dict(report)
    values = [d["lhs"], d["rhs"], *(t["value"] for t in d["terms"])]
    return d["pass"] == (all(map(np.isfinite, values)) and d["abs_err"] <= d["bound"])


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    ell=st.floats(0.25, 16.0),
    s=st.one_of(st.just(0.0), st.floats(0.0, 20.0)),
    a=st.floats(0.1, 30.0),
    outer_bc=st.sampled_from(["dirichlet", "neumann"]),
    modes=st.integers(1, 64),
)
def test_every_suite_report_passes_by_its_bound(ell, s, a, outer_bc, modes):
    # from a = 22 the strip checks fail (the strip quadrature cancels): the
    # rule must hold on failing reports as well as on passing ones
    rng = np.random.default_rng(0)
    sol = sampling.random_solution(rng, ell, s, nmax=modes)
    q = sampling.random_solution(rng, ell, s, nmax=modes, amplitude=0.5)
    means = sampling.slice_compatible_means(rng, s, sol.d0)
    small = sampling.random_solution(rng, ell, s, nmax=3, amplitude=1e-4)
    chart = GraftedCollar(ell=ell, s=s, a=a, outer_bc=outer_bc)
    config = identities.solve_configuration(chart, sol, means, quad=q)
    reports = identities.suite(config, small, modes, 1e-10)
    assert len(reports) == 11
    for report in reports:
        assert not np.isnan(report.bound), report.identity
        assert _verdict_holds(report), report.identity


def test_error_report_fails_on_its_nan_bound():
    report = identities.error_report("x", DomainError("y"))
    assert np.isnan(report.bound) and not report.passed and _verdict_holds(report)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    ell=st.floats(0.25, 16.0),
    s=st.floats(0.0, 20.0),
    s_zero=st.integers(0, 4),
    modes=st.integers(1, 256),
    seed=st.integers(0, 2**32 - 1),
)
def test_mixed_series_is_bounded_by_cauchy_schwarz(ell, s, s_zero, modes, seed):
    # mode by mode |Im(v_n conj(c_n) + u_n conj(d_n))| is at most
    # (|u_n|^2 + |v_n|^2)^(1/2) (|c_n|^2 + |d_n|^2)^(1/2), and CROSS_FACTOR is
    # twice PAIRING_FACTOR on the same weights, so Cauchy-Schwarz over the
    # modes gives |mixed| <= 2 (cyl(sol) cyl(q))^(1/2), cyl = minus the
    # cylinder series; the draws are verify's: its box and seeded samplers
    s = 0.0 if s_zero == 0 else s
    rng = np.random.default_rng(seed)
    sol = sampling.random_solution(rng, ell, s, nmax=modes)
    q = sampling.random_solution(rng, ell, s, nmax=modes, amplitude=0.5)
    mixed = identities._mixed_series(sol, q)
    bound = 2.0 * np.sqrt(-identities._cylinder_series(sol)) * np.sqrt(-identities._cylinder_series(q))
    # the sum of |mixed terms| is itself at most the bound, so each series
    # rounds by at most a few (modes + 1) eps times it
    slack = 4.0 * (modes + 8) * np.finfo(float).eps
    assert abs(mixed) <= bound * (1.0 + slack)
    # (u_n, v_n) = (q.c, q.d) = i (d_n, c_n) attains it: each Im term is
    # |c_n|^2 + |d_n|^2
    tight = FourierSolution(ell, s, c=1j * sol.d, d=1j * sol.c)
    assert identities._mixed_series(sol, tight) == pytest.approx(2.0 * identities._cylinder_series(sol), rel=slack)
