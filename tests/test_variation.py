import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graftlab import (
    ConvergenceError,
    FourierSolution,
    GraftedCollar,
    SolvabilityError,
    TraceModes,
    amend_variation,
    geodesic_oracle,
    hyperbolic_neumann,
    matched_global_field,
    pinned_means,
    solve_flat_variation,
)
from graftlab import hypersolve, identities, sampling, variation
from graftlab.spectral import MEAN_TOL
from oracles import collocation_variation_modes, hybr_geodesic_rate, rotated

ELL, S = 2 * np.pi, 2.0


def _sol(**kw):
    return FourierSolution(ell=ELL, s=S, **kw)


def test_rejects_linear_coefficient():
    trace = _sol(c0=0.1).neumann_trace_flat("left")
    with pytest.raises(SolvabilityError):
        solve_flat_variation(trace, 0.0)


@given(st.floats(min_value=-10, max_value=10, allow_nan=False))
@settings(max_examples=60, deadline=None)
def test_solvability_boundary_property(c0):
    trace = TraceModes(side="left", kind="neumann_flat", ell=ELL, mean=c0)
    if abs(c0) > MEAN_TOL:
        with pytest.raises(SolvabilityError):
            solve_flat_variation(trace, 0.0)
    else:
        assert solve_flat_variation(trace, 0.3).mean == 0.3


def test_variation_solve_rejects_what_the_closed_form_rejects():
    # the variation solve rejects every linear coefficient that the closed
    # boundary term rejects, so a solved configuration always has one
    sol = _sol(c0=5e-13)
    with pytest.raises(SolvabilityError):
        solve_flat_variation(sol.neumann_trace_flat("left"), 0.0)
    v = TraceModes(side=identities.PARTS, kind="variation", ell=ELL, mean=np.zeros(2), coef=np.zeros((2, 1)))
    with pytest.raises(SolvabilityError):
        identities.boundary_term_closed(sol, v)


def test_single_mode_coefficient():
    v = solve_flat_variation(_sol(modes={1: (1.0, 0.0)}).neumann_trace_flat("left"), 0.0)
    assert v.modes[1] == pytest.approx(-np.sinh(1.0) / 2)


def test_constant_field_when_no_modes():
    v = solve_flat_variation(_sol().neumann_trace_flat("right"), 0.7)
    y = np.linspace(0, ELL, 11)
    assert np.allclose(v.reconstruct(y), 0.7)


def test_hyperbolic_neumann_values():
    sol = _sol(modes={1: (1.0, 0.0)})
    v = solve_flat_variation(sol.neumann_trace_flat("left"), 0.0)
    trace = hyperbolic_neumann(v)
    assert trace.modes[1] == pytest.approx(-2 * np.sinh(1.0))
    assert hyperbolic_neumann(
        solve_flat_variation(_sol().neumann_trace_flat("left"), 0.5)
    ).mean == pytest.approx(1.0)


def test_hyperbolic_neumann_scales_no_slot_0_where_ell_squared_underflows():
    # below ell = 2.2e-162 ell^2 is 0, and slot 0's factor 2 ell^2 / ell^2
    # would be 0/0: only the modes n >= 1 are scaled, so slot 0 stays empty
    # (mode 1, 8 pi^2 / ell^2 times 0.1, is past the double range)
    v = TraceModes(side="left", kind="variation", ell=1e-170, mean=0.25, modes={1: 0.1})
    with np.errstate(over="ignore"):
        trace = hyperbolic_neumann(v)
    assert trace.mean == 0.5 and trace.coef[0] == 0


def test_hyperbolic_neumann_keeps_a_zero_mode_zero_where_ell_squared_underflows():
    # where ell^2 is 0 the factor 2 (4 pi^2 n^2 + ell^2) / ell^2 is taken
    # on a scaled ell^2: a zero mode stays 0 there, with no warning, and the
    # family's other point keeps its one-point value bit for bit
    coef = np.array([[0, 0, 0], [0, 0.1 + 0.2j, -0.3j]])
    v = TraceModes(side="left", kind="variation", ell=np.array([1e-170, 2.0]), mean=np.array([0.25, 0.5]), coef=coef)
    trace = hyperbolic_neumann(v)
    assert np.all(trace.coef[0] == 0)
    one = hyperbolic_neumann(TraceModes(side="left", kind="variation", ell=2.0, mean=0.5, coef=coef[1]))
    assert np.array_equal(trace.coef[1], one.coef)


@pytest.mark.parametrize("ell", [5e-154, 1e-155, 1e-160, 1e-170])
def test_variation_maps_match_50_digit_values_where_ell_squared_is_subnormal(ell):
    # ell^2 / (8 pi^2 n^2) is below the smallest normal double (at 5e-154
    # ell^2 itself is not), yet lambda_n, about ell d_n / (4 pi n) at s = 0,
    # and its hyperbolic Neumann value are normal doubles: each map is
    # within a few eps of its exact value on the same input
    _check_variation_maps_against_50_digits(ell)


@pytest.mark.parametrize("ell", [3e153, 4e153, 1e160, 1e300])
def test_variation_maps_match_50_digit_values_where_ell_squared_overflows(ell):
    # above 2^510 (3.4e153) ell^2 is scaled down by a power of four, and
    # past 1.3e154 it is no double at all, yet lambda_n and its hyperbolic
    # Neumann value, about 2 lambda_n, are: each within a few eps
    _check_variation_maps_against_50_digits(ell)


def test_variation_maps_keep_the_one_point_bits_beside_an_overflowing_ell():
    # a family's in-range point gets its one-point values bit for bit, and
    # at ell = 1e160 4 pi^2 n^2 / ell^2 underflows: h_n = 2 lambda_n exactly
    coef = np.array([0, 0.1 + 0.2j, -0.3j])
    family = TraceModes("left", "neumann_flat", np.array([2.0, 1e160]), np.zeros(2), coef=np.array([coef, 1e-160 * coef]))
    v = solve_flat_variation(family, 0.5)
    h = hyperbolic_neumann(v)
    one = solve_flat_variation(TraceModes("left", "neumann_flat", 2.0, 0.0, coef=coef), 0.5)
    assert np.array_equal(v.coef[0], one.coef)
    assert np.array_equal(h.coef[0], hyperbolic_neumann(one).coef)
    assert np.array_equal(h.coef[1], 2.0 * v.coef[1])


def _check_variation_maps_against_50_digits(ell):
    """Both variation maps at ell, on two modes at s = 0, within 4 eps of
    their 50-digit values on the same input, and 0 exactly where those are."""
    mp = pytest.importorskip("mpmath").mp
    eps = np.finfo(float).eps
    sol = FourierSolution(ell=ell, s=0.0, modes={1: (0.3, 0.8 - 0.1j), 2: (0.0, -0.5j)})
    for side in ("left", "right"):
        forcing = sol.neumann_trace_flat(side)
        v = solve_flat_variation(forcing, 0.0)
        h = hyperbolic_neumann(v)
        with mp.workdps(50):
            L = mp.mpf(ell)
            for n in (1, 2):
                pairs = (
                    (v.coef[n], forcing.coef[n], L**2 / (8 * mp.pi**2 * n**2)),
                    (h.coef[n], v.coef[n], 2 * (4 * mp.pi**2 * n**2 + L**2) / L**2),
                )
                for got, given, factor in pairs:
                    for part in ("real", "imag"):
                        want = factor * mp.mpf(getattr(given, part))
                        assert abs(getattr(got, part) - want) <= 4 * eps * abs(want), (side, n, part)
                        assert (getattr(got, part) == 0) == (want == 0), (side, n, part)


def test_hyperbolic_neumann_is_spectral_second_order_form():
    # trace equals -2 (V_yy - V), checked with trigonometric differentiation
    rng = np.random.default_rng(0)
    sol = _sol(
        d0=0.2,
        modes={n: (rng.standard_normal() + 1j * rng.standard_normal(),
                   rng.standard_normal() + 1j * rng.standard_normal()) for n in (1, 2, 3)},
    )
    v = solve_flat_variation(sol.neumann_trace_flat("left"), 0.4)
    m = 64
    y = np.arange(m) * (ELL / m)
    vals = v.reconstruct(y)
    coefs = np.fft.fft(vals) / m
    k = 2 * np.pi / ELL
    vyy = np.real(np.fft.ifft(coefs * (1j * k * np.fft.fftfreq(m, 1 / m)) ** 2) * m)
    expected = -2 * (vyy - vals)
    assert np.max(np.abs(hyperbolic_neumann(v).reconstruct(y) - expected)) < 1e-9


def test_amended_reduces_at_zero_quad():
    sol = _sol(modes={1: (0.3 + 1j, -0.2j), 2: (0.1, 0.4)})
    q0 = FourierSolution(ell=ELL, s=S)
    trace = sol.neumann_trace_flat("left")
    v = solve_flat_variation(trace, 0.9)
    w = amend_variation(v, q0)
    assert (v.kind, w.kind) == ("variation", "amended_variation")
    assert w.mean == v.mean and w.modes == v.modes


def test_amend_builds_on_the_solved_flat_variation():
    sol = _sol(modes={1: (0.3 + 1j, -0.2j), 2: (0.1, 0.4)})
    q = FourierSolution(ell=ELL, s=S, modes={1: (0.5, -0.25j), 3: (0.2j, 1.0)})
    base = solve_flat_variation(sol.neumann_trace_flat("right"), -0.4)
    w = amend_variation(base, q)
    assert w.kind == "amended_variation" and w.side == "right" and w.mean == -0.4 and len(w.coef) == 4
    # lambda_n shifts by (ell / (2 pi i n)) (u_n cosh + v_n sinh) on the right seam
    n = np.arange(1, 4)
    arg = np.pi * n * S / ELL
    shift = -1j * ELL / (2 * np.pi * n) * (q.c[1:] * np.cosh(arg) + q.d[1:] * np.sinh(arg))
    assert np.allclose(w.coef[1:], np.r_[base.coef[1:], 0.0] + shift, rtol=1e-14, atol=0)
    with pytest.raises(ValueError, match="unamended"):
        amend_variation(w, q)


@pytest.mark.parametrize("kind", ["dirichlet", "neumann_flat", "neumann_hyperbolic"])
def test_variation_maps_reject_other_traces(kind):
    trace = TraceModes(side="left", kind=kind, ell=ELL, mean=0.0, modes={1: 0.5j})
    with pytest.raises(ValueError, match="expected a variation field"):
        hyperbolic_neumann(trace)
    with pytest.raises(ValueError, match="unamended"):
        amend_variation(trace, FourierSolution(ell=ELL, s=S))


@pytest.mark.parametrize("sides", [identities.PARTS, ("left", "right")])
@pytest.mark.parametrize("points", [False, True])
def test_a_stacked_trace_equals_its_per_side_traces_bit_for_bit(sides, points):
    # a trace of several sides, built, solved, amended and synthesized once,
    # holds on its leading axis exactly the trace of each side: on one point,
    # and on a points axis from a subnormal ell^2 to an overflowing one
    ell, s = (np.array([1e-170, 0.5, ELL, 1e160]), np.array([0.0, 1.0, 0.3, 2.0])) if points else (ELL, S)
    rng = np.random.default_rng(8)
    sol = sampling.random_solution(rng, ell, s, nmax=6)
    # q wider than sol, so that amending pads the modes
    q = sampling.random_solution(rng, ell, s, nmax=9, amplitude=0.5)
    means = rng.standard_normal((len(sides),) + np.shape(ell))
    v = solve_flat_variation(sol.neumann_trace_flat(sides), means)
    each_v = [solve_flat_variation(sol.neumann_trace_flat(side), mean) for side, mean in zip(sides, means)]
    for stacked, each in (
        (sol.dirichlet_trace(sides), [sol.dirichlet_trace(side) for side in sides]),
        (sol.neumann_trace_flat(sides), [sol.neumann_trace_flat(side) for side in sides]),
        (v, each_v),
        (hyperbolic_neumann(v), [hyperbolic_neumann(w) for w in each_v]),
        (amend_variation(v, q), [amend_variation(w, q) for w in each_v]),
    ):
        assert stacked.side == sides and stacked.kind == each[0].kind
        for k, trace in enumerate(each):
            assert trace.side == sides[k]
            assert np.array_equal(stacked.coef[k], trace.coef)
            # a part without a points axis is broadcast against the other
            assert np.array_equal(stacked.mean[k], np.broadcast_to(trace.mean, np.shape(stacked.mean[k])))
            assert np.array_equal(stacked.on_grid(64)[k], trace.on_grid(64))
    for k, side in enumerate(sides):
        assert np.array_equal(sol.seam_values(sides)[k], sol.seam_values(side))


def test_amended_shift_examples():
    zero = _sol()
    q = FourierSolution(ell=ELL, s=S, modes={1: (1.0, 0.0)})
    w = amend_variation(solve_flat_variation(zero.neumann_trace_flat("left"), 0.0), q)
    assert w.modes[1] == pytest.approx(-1j * np.cosh(1.0))

    q = FourierSolution(ell=ELL, s=S, modes={1: (0.0, 1.0)})
    wl = amend_variation(solve_flat_variation(zero.neumann_trace_flat("left"), 0.0), q)
    wr = amend_variation(solve_flat_variation(zero.neumann_trace_flat("right"), 0.0), q)
    assert wl.modes[1] == pytest.approx(1j * np.sinh(1.0))
    assert wr.modes[1] == pytest.approx(-1j * np.sinh(1.0))


def test_extended_neumann_example_and_reality():
    zero = _sol()
    q = FourierSolution(ell=ELL, s=S, modes={1: (1.0, 0.0)})
    w = amend_variation(solve_flat_variation(zero.neumann_trace_flat("left"), 0.0), q)
    trace = hyperbolic_neumann(w)
    assert trace.modes[1] == pytest.approx(-4j * np.cosh(1.0))
    y = np.linspace(0, ELL, 33)
    vals = trace.reconstruct(y)
    assert np.all(np.isreal(vals))

    q0 = FourierSolution(ell=ELL, s=S)
    sol = _sol(modes={2: (1.0, 0.5j)})
    v = solve_flat_variation(sol.neumann_trace_flat("right"), 0.1)
    w0 = amend_variation(v, q0)
    assert hyperbolic_neumann(w0).modes == hyperbolic_neumann(v).modes


def test_defining_ode_residual_per_mode():
    rng = np.random.default_rng(1)
    sol = _sol(modes={n: (rng.standard_normal() + 1j * rng.standard_normal(),) * 2 for n in (1, 4)})
    N = sol.neumann_trace_flat("left")
    v = solve_flat_variation(N, 0.0)
    hy = hyperbolic_neumann(v)
    for n in v.modes:
        k = 2 * np.pi * n / ELL
        # flat regime: V_yy = -1/2 (d/dx H)_0
        assert abs(-(k**2) * v.modes[n] + 0.5 * N.modes[n]) < 1e-10
        # hyperbolic regime: -2 (V_yy - V) reproduces the Neumann trace
        assert abs(-2 * (-(k**2) - 1) * v.modes[n] - hy.modes[n]) < 1e-10


def test_rotation_equivariance():
    sol = _sol(modes={1: (0.4 + 0.1j, -0.3j), 3: (0.2, 0.1 + 0.7j)})
    y0 = 1.234
    k = 2 * np.pi / ELL
    shifted = FourierSolution(
        ell=ELL,
        s=S,
        modes={n: (c * np.exp(-1j * k * n * y0), d * np.exp(-1j * k * n * y0))
               for n, (c, d) in sol.modes.items()},
    )
    v = solve_flat_variation(sol.neumann_trace_flat("left"), 0.2)
    vs = solve_flat_variation(shifted.neumann_trace_flat("left"), 0.2)
    y = np.linspace(0, ELL, 13)
    assert np.allclose(vs.reconstruct(y), v.reconstruct(y - y0), atol=1e-12)
    assert np.allclose(vs.reconstruct(y), rotated(v, y0).reconstruct(y), atol=1e-12)


def test_closed_form_vs_collocation_small():
    rng = np.random.default_rng(2)
    sol = _sol(modes={n: (rng.standard_normal() + 1j * rng.standard_normal(),
                          rng.standard_normal() + 1j * rng.standard_normal()) for n in range(1, 6)})
    N = sol.neumann_trace_flat("right")
    v = solve_flat_variation(N, 0.05)
    m = 64
    y = np.arange(m) * (ELL / m)
    coll = collocation_variation_modes(-0.5 * N.reconstruct(y), ELL, 0.05)
    for n in v.modes:
        assert abs(coll[n] - v.modes[n]) < 1e-8


def test_vanishing_mechanism_for_pure_means():
    # with no oscillating modes the mean-mode seam balance pins both free
    # constants to dtn-proportional values; the slice condition then kills d0
    dtn0 = hypersolve.dtn(0, ELL, 1.0)
    even, odd = pinned_means(dtn0, [0.0, 0.0])
    assert even == odd == 0.0
    d0 = 0.37
    # equal seam means d0: the even part is d0 and the odd part 0
    even, odd = pinned_means(dtn0, [d0, 0.0])
    # slice condition lam0 - rho0 = -s d0 / 2 forces (2 dtn0 - s) d0 = 0
    coeff = 2 * dtn0 - S
    assert coeff < 0
    assert even == 0.0 and -2.0 * odd == pytest.approx(-dtn0 * d0)


def test_matched_field_continuity():
    rng = np.random.default_rng(3)
    chart = GraftedCollar(ell=ELL, s=S, a=1.0)
    y = rng.uniform(0, ELL, 16)
    fields = (
        ({1: (0.2 + 0.1j, -0.05j), 2: (0.1, 0.07)}, (0.21, -0.13)),
        # gaps: row k of the strip extensions is not mode k
        ({1: (0.15, 0.02j), 4: (-0.01 + 0.005j, 0.008), 9: (2e-4j, -1e-4)}, (-0.08, 0.17)),
    )
    for modes, (mean_left, mean_right) in fields:
        sol = _sol(d0=0.3, modes=modes)
        means = ((mean_right + mean_left) / 2, (mean_right - mean_left) / 2)
        config = identities.solve_configuration(chart, sol, means)
        field = matched_global_field(config)
        for x0, sgn in ((-S / 2, -1.0), (S / 2, 1.0)):
            inner = field(np.full(16, x0), y)[0]
            outer = field(np.full(16, x0 + sgn * 1e-9), y)[0]
            assert np.max(np.abs(inner - outer)) < 1e-7, list(modes)
        # strip-side slope carries the variation-mediated Neumann data
        h = 1e-6
        nl = hyperbolic_neumann(config.seam("left")[1])
        fd = (field(-S / 2 - 0.0, y)[0] - field(-S / 2 - h, y)[0]) / h
        assert np.max(np.abs(fd - nl.reconstruct(y))) < 1e-4, list(modes)
        slope = field(np.full(16, -S / 2 - 1e-12), y)[1]
        assert np.max(np.abs(slope - nl.reconstruct(y))) < 1e-8, list(modes)


def test_geodesic_zero_parameter_and_conformal_scaling():
    chart = GraftedCollar(ell=ELL, s=S, a=1.0)

    def one(x, y):
        return np.ones(np.shape(x)), np.zeros(np.shape(x))

    y, rate = geodesic_oracle(chart, one, "left", 0.0, np.zeros(64), m=64)
    assert np.all(rate == 0.0)
    # constant conformal scaling moves no geodesic
    y, rate = geodesic_oracle(chart, one, "left", 1e-3, np.zeros(64), m=64)
    assert np.max(np.abs(rate)) < 1e-6


def test_geodesic_oracle_fails_on_a_nan_residual():
    # a NaN residual fails the 1e-9 gate instead of passing it as a NaN rate
    chart = GraftedCollar(ell=ELL, s=S, a=1.0)

    def nan_field(x, y):
        return np.full(np.shape(x), np.nan), np.zeros(np.shape(x))

    with pytest.raises(ConvergenceError, match="residual nan"):
        geodesic_oracle(chart, nan_field, "left", 1e-3, np.zeros(64), m=64)


def test_geodesic_oracle_evaluates_its_field_once_per_residual(monkeypatch):
    chart = GraftedCollar(ell=ELL, s=S, a=1.0)
    config = identities.solve_configuration(chart, _sol(modes={1: (0.02, 0.01j), 2: (-0.01, 0.005)}))
    field = matched_global_field(config)
    residuals, shapes = [], []
    newton = variation._newton

    def counted_newton(residual, X):
        def counted(X):
            residuals.append(len(shapes))
            return residual(X)

        return newton(counted, X)

    def spy(x, y):
        shapes.append((np.shape(x), np.shape(y)))
        return field(x, y)

    monkeypatch.setattr(variation, "_newton", counted_newton)
    m = 32
    y = np.arange(m) * (ELL / m)
    geodesic_oracle(chart, spy, "right", 1e-3, config.seam("right")[1].reconstruct(y), m=m)
    # every residual of the solve, the Jacobian's among them, makes one call
    # on the m grid points and the m midpoints together, and the solve's
    # last residual is the one its gate reads
    assert residuals == list(range(len(residuals)))
    assert len(shapes) == len(residuals) > 1
    assert set(shapes) == {((2 * m,), (2 * m,))}


@pytest.mark.parametrize(
    "ell, s, a, outer_bc, seed",
    [(ELL, S, 1.0, "dirichlet", 0), (0.8, 4.0, 2.0, "neumann", 5)],
)
def test_geodesic_rate_matches_the_hybrid_method(ell, s, a, outer_bc, seed):
    # the same collocated equations solved by MINPACK's hybrid method
    chart = GraftedCollar(ell=ell, s=s, a=a, outer_bc=outer_bc)
    sol = sampling.random_solution(np.random.default_rng(seed), ell, s, nmax=4, amplitude=0.3)
    config = identities.solve_configuration(chart, sol)
    field = matched_global_field(config)
    m = 64
    y = np.arange(m) * (ell / m)
    for side in ("left", "right"):
        start = config.seam(side)[1].reconstruct(y)
        rate = geodesic_oracle(chart, field, side, 1e-3, start, m=m)[1]
        reference = hybr_geodesic_rate(chart, field, side, 1e-3, start, m)
        assert np.max(np.abs(rate - reference)) <= 1e-8 * np.max(np.abs(reference)), side


def _periodic(lower, diag, upper):
    """The dense m x m matrix of the periodic bands."""
    m = len(diag)
    J = np.diag(diag)
    J[np.arange(m), np.arange(-1, m - 1) % m] += lower
    J[np.arange(m), np.arange(1, m + 1) % m] += upper
    return J


@pytest.mark.parametrize("m", [3, 4, 5, 7, 64])
def test_jacobian_bands_and_periodic_solve_match_their_dense_forms(m):
    # a periodic three-point residual with known bands: the colouring, the
    # wrap columns of an m that is not a multiple of 3 among them, gives
    # them to rounding, and the sweep solves them as the dense matrix does
    rng = np.random.default_rng(m)
    lower, upper = rng.uniform(0.5, 1.0, (2, m))
    diag = -3.0 + rng.uniform(-0.5, 0.5, m)

    def residual(X):
        return lower * np.roll(X, 1) + diag * X + upper * np.roll(X, -1) + 0.1 * np.sin(X)

    X = rng.standard_normal(m)
    bands = variation._jacobian_bands(residual, X)
    assert np.allclose(bands, [lower, diag + 0.1 * np.cos(X), upper], rtol=1e-9, atol=0.0)
    rhs = rng.standard_normal(m)
    x = variation._periodic_tridiagonal_solve(*bands, rhs)
    assert np.allclose(x, np.linalg.solve(_periodic(*bands), rhs), rtol=1e-12, atol=1e-12)
