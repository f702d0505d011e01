"""Acceptance suite: one criterion per test, one printed pass/fail line each.

Every check runs at desk scale with pinned tolerances; failures print the
measured number next to the bound it violated.
"""
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graftlab import geometry, hypersolve, identities, sampling, variation
from graftlab.errors import SolvabilityError
from graftlab.geometry import GraftedCollar
from graftlab.spectral import MEAN_TOL, FourierSolution, TraceModes
from oracles import collocation_variation_modes, im_phi_dy, n0_balance_coefficient


def _line(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_01_boundary_term_oracle():
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        ell = rng.uniform(1.0, 8.0)
        s = rng.uniform(0.1, 4.0)
        sol = sampling.random_solution(rng, ell, s, nmax=32)
        lam0, rho0 = float(rng.standard_normal()), float(rng.standard_normal())
        means = np.array([(rho0 + lam0) / 2, (rho0 - lam0) / 2])
        v = variation.solve_flat_variation(sol.neumann_trace_flat(identities.PARTS), means)
        closed = identities.boundary_term_closed(sol, v)
        quad = identities.boundary_term_quadrature(
            sol.dirichlet_trace(identities.PARTS), variation.hyperbolic_neumann(v)
        )
        worst = max(worst, abs(closed - quad) / max(abs(closed), abs(quad)))
    dt = time.perf_counter() - t0
    ok = worst < 1e-10 and dt < 10.0
    _line(1, "boundary_term_oracle", ok, f"max rel err {worst:.2e}, {dt:.2f} s")
    assert worst < 1e-10
    assert dt < 10.0


def test_02_variation_coefficients_vs_collocation():
    rng = np.random.default_rng(7)
    t0 = time.perf_counter()
    m = 64
    worst = 0.0
    for _ in range(50):
        ell = rng.uniform(2.0, 8.0)
        s = rng.uniform(0.2, 3.0)
        sol = sampling.random_solution(rng, ell, s, nmax=8)
        q = sampling.random_solution(rng, ell, s, nmax=8)
        y = np.arange(m) * (ell / m)
        for side, x_seam in (("left", -s / 2), ("right", s / 2)):
            N = sol.neumann_trace_flat(side)
            mean = float(rng.standard_normal())
            v = variation.solve_flat_variation(N, mean)
            coll = collocation_variation_modes(-0.5 * N.reconstruct(y), ell, mean)
            worst = max(worst, max(abs(coll[n] - v.modes[n]) for n in v.modes))
            w = variation.amend_variation(v, q)
            forcing = -0.5 * N.reconstruct(y) + im_phi_dy(q, np.full(m, x_seam), y)
            coll_w = collocation_variation_modes(forcing, ell, mean)
            worst = max(worst, max(abs(coll_w[n] - w.modes[n]) for n in w.modes))
    dt = time.perf_counter() - t0
    ok = worst < 1e-8 and dt < 30.0
    _line(2, "variation_coefficients", ok, f"max mode err {worst:.2e}, {dt:.2f} s")
    assert worst < 1e-8
    assert dt < 30.0


@given(st.floats(min_value=-100.0, max_value=100.0, allow_nan=False))
@settings(max_examples=80, deadline=None)
def test_03_solvability_constraint(c0):
    trace = TraceModes(
        side="left", kind="neumann_flat", ell=2 * np.pi, mean=c0, modes={1: 0.5 + 0.5j}
    )
    if abs(c0) > MEAN_TOL:
        with pytest.raises(SolvabilityError):
            variation.solve_flat_variation(trace, 0.0)
    else:
        variation.solve_flat_variation(trace, 0.0)


def test_03_solvability_line():
    _line(3, "solvability_constraint", True, "property test over c0, 80 examples")


def test_04_slice_bookkeeping():
    rng = np.random.default_rng(42)
    worst_gap, worst_res = 0.0, 0.0
    for s_rate in (0.0, 0.25):
        for _ in range(25):
            ell = rng.uniform(2.0, 8.0)
            s = rng.uniform(0.2, 3.0)
            sol = sampling.random_solution(rng, ell, s, nmax=6)
            means = sampling.slice_compatible_means(rng, s, sol.d0, s_rate=s_rate)
            v = variation.solve_flat_variation(sol.neumann_trace_flat(identities.PARTS), np.asarray(means))
            geo = identities.area_derivative_geometric(sol, s_rate=s_rate)
            ana = identities.area_derivative_analytic(sol, v)
            worst_gap = max(worst_gap, abs(geo - ana))
            if s_rate == 0.0:
                worst_res = max(worst_res, abs(identities.slice_residual(sol, v)))
    ok = worst_gap < 1e-9 and worst_res < 1e-12
    _line(4, "slice_bookkeeping", ok, f"area gap {worst_gap:.2e}, residual {worst_res:.2e}")
    assert worst_gap < 1e-9
    assert worst_res < 1e-12


def test_05_arclength_derivative():
    rng = np.random.default_rng(9)
    sol = sampling.random_solution(rng, 2 * np.pi, 1.0, nmax=6)
    npts = 4096
    y = np.arange(npts) * (sol.ell / npts)
    hdot = sol.evaluate(np.zeros(npts), y)

    def length(t):
        # core-circle length of the scaled metric gr / (1 + t Hdot)
        return float((sol.ell / npts) * np.sum(1.0 / np.sqrt(1.0 + t * hdot)))

    t = 1e-5
    fd = (length(t) - length(-t)) / (2.0 * t)
    target = -0.5 * sol.d0 * sol.ell
    rel = abs(fd - target) / abs(target)
    ok = rel < 1e-4
    _line(5, "arclength_derivative", ok, f"rel err {rel:.2e} at t = {t:g}")
    assert rel < 1e-4


def test_06_vanishing_mechanism():
    det_min = np.inf
    bal_max = -np.inf
    for ell in np.linspace(1.0, 8.0, 5):
        for s in np.linspace(0.1, 4.0, 5):
            for a in (0.5, 1.0, 2.0):
                dets = [
                    abs(identities.per_mode_determinant(n, ell, s, a))
                    for n in range(1, 33)
                ]
                det_min = min(det_min, min(dets))
                bal_max = max(
                    bal_max,
                    n0_balance_coefficient(ell, s, a),
                )
    chart = GraftedCollar(ell=2 * np.pi, s=1.0, a=1.0)
    zero = identities.master_identity(
        identities.solve_configuration(chart, FourierSolution(ell=2 * np.pi, s=1.0)), 1e-9
    )
    nonzero = identities.master_identity(
        identities.solve_configuration(
            chart, FourierSolution(ell=2 * np.pi, s=1.0, modes={1: (0.3, 0.0)})
        ),
        1e-9,
    )
    ok = det_min > 1e-6 and bal_max < 0 and abs(zero.lhs) < 1e-12 and nonzero.lhs < -1e-6
    _line(6, "vanishing_mechanism", ok, f"min |det| {det_min:.3f}, max balance {bal_max:.3f}")
    assert det_min > 1e-6
    assert bal_max < 0
    assert abs(zero.lhs) < 1e-12
    assert nonzero.lhs < -1e-6


def test_07_master_identity_nonpositivity():
    rng = np.random.default_rng(77)
    worst = -np.inf
    for _ in range(100):
        ell = rng.uniform(2.0, 8.0)
        s = rng.uniform(0.2, 3.0)
        chart = GraftedCollar(ell=ell, s=s, a=1.0)
        sol = sampling.random_solution(rng, ell, s, nmax=4)
        means = sampling.slice_compatible_means(rng, s, sol.d0)
        cfg = identities.solve_configuration(chart, sol, means)
        rep = identities.master_identity(cfg, 1e-9)
        assert rep.passed
        worst = max(worst, *(v for label, v in rep.terms if label != "outer_greens"))
    ok = worst <= 1e-12
    _line(7, "master_nonpositivity", ok, f"max term {worst:.2e} over 100 configs")
    assert worst <= 1e-12


def test_08_extended_reduction_and_scaling():
    rng = np.random.default_rng(15)
    ell, s = 2 * np.pi, 1.5
    chart = GraftedCollar(ell=ell, s=s, a=1.0)
    sol = sampling.random_solution(rng, ell, s, nmax=4)
    q = sampling.random_solution(rng, ell, s, nmax=4)

    # at q = 0 the mixed series is a sum of zeros and amending keeps the
    # means, so the amended closed term is the unamended one: exactly but
    # for the order in which the two add the cylinder series to the mean
    # term, which can move their last bits
    cfg0 = identities.solve_configuration(chart, sol)
    q0 = FourierSolution(ell=ell, s=s)
    amended0 = variation.amend_variation(cfg0.variation, q0)
    ext0 = identities.extended_boundary_term(sol, q0, amended0)
    closed0 = identities.boundary_term_closed(sol, cfg0.variation)
    ulps = abs(ext0 - closed0) / np.spacing(abs(closed0))
    reduces = identities._mixed_series(sol, q0) == 0.0 and ulps <= 2

    eps = np.array([1e-2, 1e-3, 1e-4])
    mixed = []
    for e in eps.tolist():
        scaled = FourierSolution(q.ell, q.s, e * q.c0, e * q.d0, c=e * q.c, d=e * q.d)
        mixed.append(abs(identities._mixed_series(sol, scaled)))
    slope = np.polyfit(np.log(eps), np.log(mixed), 1)[0]
    ok = reduces and abs(slope - 1.0) < 0.05
    detail = f"q=0 reduces {reduces} ({ulps:.0f} ulp apart), fitted exponent {slope:.4f}"
    _line(8, "extended_reduction_scaling", ok, detail)
    assert reduces
    assert abs(slope - 1.0) < 0.05


def test_09_geodesic_oracle():
    rng = np.random.default_rng(0)
    ell, s = 2 * np.pi, 1.0
    chart = GraftedCollar(ell=ell, s=s, a=1.0)
    sol = sampling.random_solution(rng, ell, s, nmax=4, amplitude=0.3)
    cfg = identities.solve_configuration(chart, sol)
    field = variation.matched_global_field(cfg)
    y0 = np.arange(256) * (ell / 256)
    worst, worst_half = 0.0, 0.0
    for side in ("left", "right"):
        v = cfg.seam(side)[1]
        errs = []
        for t in (1e-3, 5e-4):
            y, rate = variation.geodesic_oracle(chart, field, side, t, m=256, initial_rate=v.reconstruct(y0))
            expected = v.reconstruct(y)
            scale = float(np.max(np.abs(expected)))
            errs.append(float(np.max(np.abs(rate - expected))) / scale)
        worst = max(worst, errs[0])
        worst_half = max(worst_half, errs[1])
        assert errs[1] < errs[0]
    ok = worst < 1e-2
    _line(9, "geodesic_oracle", ok, f"rel err {worst:.2e} at t=1e-3, {worst_half:.2e} at t/2")
    assert worst < 1e-2


def test_10_modulus_injectivity_witness():
    worst = 0.0
    mods = []
    for ell in np.linspace(1.0, 8.0, 15):
        chart = GraftedCollar(ell=ell, s=1.3, a=0.9)
        closed = geometry.conformal_modulus(chart)
        quad = geometry.conformal_modulus_quadrature(chart)
        worst = max(worst, abs(closed - quad) / abs(closed))
        mods.append(closed)
    monotone = all(b < a for a, b in zip(mods, mods[1:]))
    ok = worst < 1e-10 and monotone
    _line(10, "modulus_injectivity", ok, f"max rel err {worst:.2e}, strictly decreasing {monotone}")
    assert worst < 1e-10
    assert monotone
