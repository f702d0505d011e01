import dataclasses
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import simpson

from graftlab import cli, geometry, hypersolve, identities, sampling
from graftlab.geometry import GraftedCollar
from oracles import (
    b_fn,
    bp_fn,
    greens_residual,
    manufactured_mode,
    pair_profiles,
    strip_integral_of_h,
    two_pass_strip_values,
    unit_profile_reference,
)

ELL = 2 * np.pi


def test_zero_seam_data_gives_zero_solution():
    units = hypersolve.solve_modes([1], ELL, 1.0)
    xi = np.linspace(0, 1.0, 50)
    assert np.max(np.abs(b_fn(units, xi, 0.0))) < 1e-12
    assert hypersolve.strip_sums(units, [[0.0]]) == (0.0,) * 3


def test_mean_mode_profile_decreasing():
    units = hypersolve.solve_modes([0], ELL, 1.0)
    xi = np.linspace(0, 1.0, 200)
    b = np.real(b_fn(units, xi))
    assert b[0] == pytest.approx(1.0)
    assert abs(b[-1]) < 1e-10
    assert np.all(np.diff(b) < 0)
    assert units.ends[1][0] < 0


def test_linearity_in_seam_value():
    # doubling the seam values quadruples the energy and the Green forms
    units = hypersolve.solve_modes([0, 2], ELL, 1.0)
    once = hypersolve.strip_sums(units, [[0.7, 0.7 - 0.2j]])
    twice = hypersolve.strip_sums(units, [[1.4, 1.4 - 0.4j]])
    assert twice == pytest.approx([4.0 * v for v in once], rel=1e-14, abs=1e-14)


def test_ode_residual_of_solution():
    sol = hypersolve.solve_modes([3], ELL, 1.0)
    h = 1e-4
    xi = np.linspace(0.1, 0.9, 40)
    bpp = (b_fn(sol, xi + h) - 2 * b_fn(sol, xi) + b_fn(sol, xi - h)) / h**2
    musq = (2 * np.pi * 3 / ELL) ** 2
    resid = bpp + np.tanh(xi) * bp_fn(sol, xi) - (musq / np.cosh(xi) ** 2 + 2) * b_fn(sol, xi)
    assert np.max(np.abs(resid)) < 1e-5


def test_dtn_monotone_in_mode():
    d0 = hypersolve.dtn(0, ELL, 1.0)
    d5 = hypersolve.dtn(5, ELL, 1.0)
    assert d5 < d0 < 0


def test_dtn_wide_strip_limit():
    assert abs(hypersolve.dtn(1, ELL, 5.0) - hypersolve.dtn(1, ELL, 10.0)) < 1e-6


def test_dtn_neumann_outer_still_negative():
    assert hypersolve.dtn(0, ELL, 1.0, outer_bc="neumann") < 0


def test_coercivity_over_sample_grid():
    for outer in ("dirichlet", "neumann"):
        for n in (0, 1, 4, 16):
            for ell in (1.0, 2 * np.pi):
                for a in (0.3, 1.0, 2.5):
                    assert hypersolve.dtn(n, ell, a, outer) <= 0


def _collocation_dtn(n, ell, a, outer_bc, ncheb):
    """Chebyshev collocation solve of the unit strip BVP; returns b'(0)."""
    k = np.arange(ncheb + 1)
    t = np.cos(np.pi * k / ncheb)
    c = np.ones(ncheb + 1)
    c[0] = c[-1] = 2.0
    c *= (-1.0) ** k
    D1 = np.outer(c, 1.0 / c) / (t[:, None] - t[None, :] + np.eye(ncheb + 1))
    D1 -= np.diag(D1.sum(axis=1))
    # map [-1, 1] -> [a, 0] so that index 0 is the seam
    xi = a * (1.0 - t) / 2.0
    D1 *= -2.0 / a
    musq = (2.0 * np.pi * n / ell) ** 2
    A = D1 @ D1
    A += np.tanh(xi)[:, None] * D1
    A[np.diag_indices_from(A)] -= musq / np.cosh(xi) ** 2 + 2.0
    rhs = np.zeros(ncheb + 1)
    A[0, :] = 0.0
    A[0, 0] = 1.0
    rhs[0] = 1.0
    if outer_bc == "dirichlet":
        A[-1, :] = 0.0
        A[-1, -1] = 1.0
    else:
        A[-1, :] = D1[-1, :]
    b = np.linalg.solve(A, rhs)
    return float(D1[0] @ b)


def _oracle_dtn(n, ell, a, outer_bc):
    """Collocation DtN, doubling the node count until two successive values
    agree to 1e-11 relative.  The seam layer of width 1/mu needs 2048 nodes
    at ell = 0.5, a = 10, n = 256, where 512 and 1024 nodes still differ by
    1e-4 relative."""
    prev = _collocation_dtn(n, ell, a, outer_bc, 32)
    ncheb = 64
    while ncheb <= 2048:
        cur = _collocation_dtn(n, ell, a, outer_bc, ncheb)
        if abs(cur - prev) <= 1e-11 * max(1.0, abs(cur)):
            return cur
        prev, ncheb = cur, 2 * ncheb
    raise AssertionError(f"collocation oracle unresolved at n={n}, ell={ell}, a={a}, {outer_bc}")


def test_seam_dtn_is_finite_where_sinh_cosh_and_mu_squared_overflow():
    # past a = 354.9 cosh(a)^2 overflows, past 710.5 sinh and cosh do, and
    # past mu = 1.3e154 mu^2 does; the DtN values there are their limits
    ns = np.arange(65)
    for outer in ("dirichlet", "neumann"):
        for ell in (0.25, ELL, 16.0):
            wide = hypersolve.seam_dtn(ns, ell, 50.0, outer)
            for a in (356.0, 710.0, 711.0, 1e4):
                t = hypersolve.seam_dtn(ns, ell, a, outer)
                assert np.all(np.isfinite(t)) and np.all(t < 0), (outer, ell, a)
                assert np.all(np.abs(t - wide) <= 1e-14 * np.abs(wide)), (outer, ell, a)
        for ell in (1e-152, 1e-300):
            mu = 2 * np.pi * ns[1:9] / ell
            t = hypersolve.seam_dtn(ns[1:9], ell, 1.0, outer)
            assert np.all(np.abs(t + (mu + 1 / mu)) <= 1e-15 * (mu + 1 / mu)), (outer, ell)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_outer_dirichlet_dtn_is_finite_where_mu_csch_overflows():
    # at ell = 1e-10 and a = 1e-300, p = mu csch a passes 1e308; the DtN
    # value there is its thin-strip limit -1/a, and the determinant floor of
    # the seam system is finite
    a = 1e-300
    t = hypersolve.seam_dtn([1, 2], 1e-10, a)
    assert np.all(np.abs(t + 1.0 / a) <= 1e-12 / a), t
    for s in (0.0, 0.5):
        assert np.isfinite(identities.determinant_floor(2, 1e-10, s, a))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_outer_dirichlet_dtn_is_minus_inf_past_the_double_range():
    # at a subnormal a the outer-Dirichlet DtN value, about -1/a, passes the
    # double range and is -inf, with no warning; the Neumann value reads no
    # csch a and is finite there
    ns = [0, 1, 2]
    assert np.all(hypersolve.seam_dtn(ns, 1.0, 1e-310) == -np.inf)
    t = hypersolve.seam_dtn(ns, 1.0, 1e-310, "neumann")
    assert np.all(np.isfinite(t)) and np.all(t < 0)


def test_strip_profiles_are_data():
    # a profile is its mode, strip and pair coefficients; no field is a
    # stored function
    units = hypersolve.solve_modes([0, 1, 4], ELL, 1.0, "neumann")
    ext = hypersolve.mode_extend([0, 2], ELL, 1.0, [0.5, 0.1j], [0.2, -0.3])
    for profiles in (units, ext):
        assert not any(callable(getattr(profiles, f.name)) for f in dataclasses.fields(profiles))
    assert ext.edge is None and units.edge == (np.sinh(1.0), geometry.gudermannian(1.0))
    assert not hasattr(hypersolve, "_profiles")
    assert not hasattr(hypersolve, "_pair")


@pytest.mark.parametrize("outer", ["dirichlet", "neumann"])
@pytest.mark.parametrize("a", [1e-3, 1.0, 30.0])
def test_values_equal_the_pair_form_bit_for_bit(outer, a):
    # values writes the n = 0 rows alone over the n >= 1 form; the oracle
    # merges four full pair arrays by np.where, and the two agree bit for
    # bit, for unit and mode_extend profiles, with and without n = 0 rows,
    # on a points axis, a grid of points and one point
    ns = [0, 1, 4, 0, 33]
    units = hypersolve.solve_modes(ns, ELL, a, outer)
    ext = hypersolve.mode_extend(ns, ELL, a, [0.5, 0.1j, -1.0, 2.0 - 1j, 0.25], [0.2, -0.3, 1j, 0.0, 4.0])
    for profiles in (units, ext):
        for xi in (np.linspace(0.0, a, 9), np.linspace(0.0, a, 6).reshape(2, 3), np.float64(a / 3)):
            xi = np.asarray(xi)
            trig = hypersolve._trig(xi)
            for rows in (slice(None), slice(1, 3), np.array([0, 3]), np.array([4, 0, 2])):
                got = profiles.values(rows, xi, trig)
                expected = pair_profiles(profiles, rows, xi, trig)
                for g, e in zip(got, expected):
                    assert g.shape == e.shape and g.dtype == e.dtype
                    assert g.tobytes() == e.tobytes(), (outer, a, rows, xi.shape)


def test_unit_seam_slopes_equal_seam_dtn_at_every_a():
    # solve_modes and seam_dtn read one set of strip constants, so the unit
    # profiles' seam slopes are the DtN values up to the rounding of the
    # profile sum, and nothing overflows: past a = 354.9 cosh(a)^2 does
    ns = np.arange(257)
    eps = np.finfo(float).eps
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for outer in ("dirichlet", "neumann"):
            for ell in (0.25, 1.0, ELL, 16.0):
                for a in (0.1, 1.0, 10.0, 100.0, 354.0, 400.0, 700.0):
                    slopes = hypersolve.solve_modes(ns, ell, a, outer).ends[1]
                    dtn = hypersolve.seam_dtn(ns, ell, a, outer)
                    assert np.all(np.abs(slopes - dtn) <= 8 * eps * np.abs(dtn)), (outer, ell, a)


@pytest.mark.parametrize("a", [0.1, 1.0, 3.0, 5.0, 10.0])
def test_unit_profiles_match_50_digit_references(a):
    # the profile c_u u + c_w w cancels toward xi = a: its terms grow like
    # e^xi, so b(a) and b'(a) carry eps e^a of rounding; the energy stays
    # within rounding of its value
    pytest.importorskip("mpmath")
    eps = np.finfo(float).eps
    ns = [0, 1, 16]
    for outer in ("dirichlet", "neumann"):
        units = hypersolve.solve_modes(ns, ELL, a, outer)
        energy, (_, _, ba, bpa) = units.quadrature, units.ends
        for k, n in enumerate(ns):
            ref = unit_profile_reference(n, ELL, a, outer)
            assert abs(energy[k] - ref[0]) <= 16 * eps * abs(ref[0]), (outer, n)
            for got, want in ((ba[k], ref[2]), (bpa[k], ref[3])):
                assert abs(got - want) <= 16 * eps * (abs(want) + np.exp(a)), (outer, n)


@pytest.mark.parametrize("a", [1.0, 3.0, 10.0])
def test_mean_unit_profile_outer_slope_is_within_rounding_at_every_a(a):
    # b'(a) = tanh a + (gd a + k) cosh a of the n = 0 unit solve: gd xi + k
    # is formed as (gd xi - gd a) + c, with c = gd a + k in closed form, so
    # at xi = a nothing cancels before the factor cosh a, which multiplies
    # any rounding of the sum
    pytest.importorskip("mpmath")
    eps = np.finfo(float).eps
    for outer in ("dirichlet", "neumann"):
        want = unit_profile_reference(0, ELL, a, outer)[3]
        got = hypersolve.solve_modes([0], ELL, a, outer).ends[3][0]
        assert abs(got - want) <= 16 * eps, (outer, got, want)


def test_dtn_matches_collocation_oracle():
    cases = [
        (ell, a, n) for ell in (1.0, ELL, 8.0) for a in (0.5, 1.0, 2.0) for n in (0, 1, 4, 16, 32)
    ]
    cases += [(1.0, 1.0, 64), (8.0, 10.0, 256), (0.5, 10.0, 256)]
    for ell, a, n in cases:
        for outer in ("dirichlet", "neumann"):
            closed = hypersolve.dtn(n, ell, a, outer)
            oracle = _oracle_dtn(n, ell, a, outer)
            assert abs(closed - oracle) <= 1e-10 * max(1.0, abs(closed)), (ell, a, n, outer)


def test_interior_integral_orthogonality():
    # distinct modes are orthogonal over y, so the energy of a sum of modes
    # is the sum of their energies
    both = hypersolve.solve_modes([0, 1], ELL, 1.0)
    energy, *_ = hypersolve.strip_sums(both, [[0.5, 1.0 + 1j]])
    mean, *_ = hypersolve.strip_sums(hypersolve.solve_modes([0], ELL, 1.0), [[0.5]])
    one, *_ = hypersolve.strip_sums(hypersolve.solve_modes([1], ELL, 1.0), [[1.0 + 1j]])
    assert 0 < mean < energy
    assert energy == pytest.approx(mean + one, rel=1e-14)


@pytest.mark.parametrize("a", [0.1, 1.0, 3.0, 10.0])
def test_mean_mode_integral_is_half_its_net_flux(a):
    # integrating the n = 0 mode equation (cosh b0')' = 2 cosh b0 gives
    # int_0^a b0 cosh = (b0'(a) cosh a - b0'(0)) / 2: the 50-digit integral
    # against the program's end slopes, whose rounding eps e^a grows by cosh a
    pytest.importorskip("mpmath")
    eps = np.finfo(float).eps
    for outer in ("dirichlet", "neumann"):
        units = hypersolve.solve_modes([0], ELL, a, outer)
        _, bp0, _, bpa = units.ends
        flux_form = (bpa[0] * np.cosh(a) - bp0[0]) / 2.0
        ref = unit_profile_reference(0, ELL, a, outer)[1]
        assert abs(flux_form - ref) <= 16 * eps * (abs(ref) + np.exp(2 * a)), outer
        # the oracle's quadrature of the same integral, on the profiles' grid
        int_h, _ = strip_integral_of_h(units, [[1.0]])
        assert abs(int_h / ELL - ref) <= 16 * eps * (abs(ref) + np.exp(2 * a)), outer
    # a direct quadrature of the mean profile, one strip
    mean = hypersolve.solve_modes([0], ELL, 1.0)
    xi = np.linspace(0, 1.0, 4001)
    direct = simpson(np.real(b_fn(mean, xi, 0.5)) * np.cosh(xi), x=xi) * ELL
    assert strip_integral_of_h(mean, [[0.5]])[0] == pytest.approx(direct, rel=1e-8)


@pytest.mark.parametrize("outer", ["dirichlet", "neumann"])
@pytest.mark.parametrize("a", [0.1, 1.0, 3.0, 10.0])
def test_unit_energy_matches_dtn_by_greens_identity(a, outer):
    # a unit profile solves the mode ODE with b(0) = 1 and b(a) b'(a) = 0, so
    # Green's identity makes its energy integral exactly -b'(0) = -dtn: an
    # oracle for the quadrature that is independent of it
    ns = np.arange(257)
    for ell in (0.25, 1.0, ELL, 16.0):
        units = hypersolve.solve_modes(ns, ell, a, outer)
        batch_energy = units.quadrature
        dtn = np.array([hypersolve.dtn(n, ell, a, outer) for n in ns])
        assert np.all(np.abs(batch_energy + dtn) <= 1e-13 * np.abs(dtn)), (ell, a, outer)
        # the one-mode solve is the same path, one row of it
        for n in (0, 1, 17, 256):
            en = hypersolve.solve_modes([n], ell, a, outer).quadrature
            assert abs(en[0] - batch_energy[n]) <= 1e-15 * batch_energy[n], (ell, a, outer, n)


def test_interior_quadrature_runs_once_per_mode(monkeypatch):
    # the identity passes of verify that read the strip sums share one
    # quadrature per mode
    grid_calls = {}

    def counted(n, a):
        def b(xi):
            if np.size(xi) > 2:  # the quadrature grid, not the two endpoints
                grid_calls[n] = grid_calls.get(n, 0) + 1
            return np.cos(xi) + 0.5 * n * xi**2

        def bp(xi):
            return -np.sin(xi) + n * xi

        def bpp(xi):
            return -np.cos(xi) + n

        units, _ = manufactured_mode(n, ELL, a, b, bp, bpp)
        return units

    sols = [counted(0, 1.3), counted(2, 1.3), counted(5, 0.7)]
    seams = [[1.0], [0.5 - 0.5j]]
    first = [hypersolve.strip_sums(units, seams) for units in sols]
    second = [hypersolve.strip_sums(units, seams) for units in sols]
    resid = [greens_residual(units, seams) for units in sols]
    assert grid_calls == {0: 1, 2: 1, 5: 1}
    assert first == second
    assert resid == [abs(-f[0] + f[1] + f[2]) for f in first]

    # ... and one solve_configuration makes one batched grid pass over all
    # its modes, shared by both seams and by every identity
    grid_rows = []
    values = hypersolve.StripProfiles.values

    def counted_values(self, rows, xi, trig):
        if np.size(xi) > 2:
            grid_rows.append(self.mu[rows].tolist())
        return values(self, rows, xi, trig)

    monkeypatch.setattr(hypersolve.StripProfiles, "values", counted_values)
    rng = np.random.default_rng(4)
    sol = sampling.random_solution(rng, ELL, 1.0, nmax=6)
    quad = sampling.random_solution(rng, ELL, 1.0, nmax=6, amplitude=0.5)
    config = identities.solve_configuration(GraftedCollar(ell=ELL, s=1.0, a=1.3), sol, quad=quad)
    identities.master_identity(config, 1e-9)
    ns = sol.nonzero_modes()
    greens_residual(config.units, np.column_stack((config.dirichlet.mean, config.dirichlet.coef[:, ns])))
    assert grid_rows == [[float(hypersolve._mu(n, ELL)) for n in range(7)]]


@settings(max_examples=10, deadline=None)
@given(
    ell=st.floats(0.25, 16.0),
    log_a=st.floats(np.log(0.1), np.log(700.0)),
    outer=st.sampled_from(["dirichlet", "neumann"]),
    modes=st.integers(1, 256),
)
def test_one_pass_equals_the_two_pass_evaluation_bit_for_bit(ell, log_a, outer, modes):
    # the nodes and both ends of each block come from one values call; the
    # numbers are those of the blocked quadrature and a separate call at
    # xi = 0 and a, bit for bit, with several blocks from 64 modes on
    units = hypersolve.solve_modes(np.arange(modes + 1), ell, float(np.exp(log_a)), outer)
    energy, ends = two_pass_strip_values(units)
    got = (units.quadrature, *units.ends)
    assert [x.tobytes() for x in got] == [x.tobytes() for x in (energy, *ends)]


def test_verify_evaluates_each_strip_block_once(monkeypatch, capsys):
    # one verify op calls values once per block of strip rows, on the nodes
    # and both ends together, and never on the two ends alone
    calls = []
    values = hypersolve.StripProfiles.values

    def spy(self, rows, xi, trig):
        calls.append((len(self.ns[rows]), np.size(xi)))
        return values(self, rows, xi, trig)

    monkeypatch.setattr(hypersolve.StripProfiles, "values", spy)
    assert cli.main(["verify", "--modes", "100"]) == 0
    count = 1 + json.loads(capsys.readouterr().out)["mode_counts"]["field"]
    blocks = count // hypersolve._BLOCK
    assert blocks == 3
    assert sum(rows for rows, _ in calls) == count and len(calls) == blocks
    assert all(points > 2 for _, points in calls)


def test_profile_functions_need_a_one_mode_solution():
    many = hypersolve.solve_modes([0, 1, 2], ELL, 1.0)
    with pytest.raises(ValueError):
        b_fn(many, 0.5)
    with pytest.raises(ValueError):
        bp_fn(many, 0.5)
    one = hypersolve.solve_modes([1], ELL, 1.0)
    assert b_fn(one, 0.0, 2.0) == pytest.approx(2.0)


def test_greens_identity_on_solved_modes():
    units = hypersolve.solve_modes([0, 2], ELL, 1.0)
    assert greens_residual(units, [[0.8, 1.0 - 0.5j]]) < 1e-8


def test_outer_boundary_form_vanishes_for_homogeneous_conditions():
    for outer in ("dirichlet", "neumann"):
        units = hypersolve.solve_modes([1], ELL, 1.0, outer_bc=outer)
        assert abs(hypersolve.strip_sums(units, [[1.0]])[2]) < 1e-12


def test_greens_identity_manufactured_solution():
    sympy = pytest.importorskip("sympy")
    xi = sympy.symbols("xi", real=True)
    a = 1.3
    n = 2
    expr = sympy.cos(2 * xi) + xi**3 / 10 - sympy.Rational(1, 2)
    b = sympy.lambdify(xi, expr)
    bp = sympy.lambdify(xi, sympy.diff(expr, xi))
    bpp = sympy.lambdify(xi, sympy.diff(expr, xi, 2))
    units, forcing = manufactured_mode(n, ELL, a, b, bp, bpp)
    assert greens_residual(units, [[1.0]], forcing) < 1e-8


def test_mode_extend_matches_bvp_solution():
    # extending with each BVP's own Cauchy data reproduces that BVP solution,
    # row by row, for modes with gaps and the n = 0 branch
    ns = [0, 1, 5, 17]
    values = [0.9, 0.4 - 0.3j, -1.1, 0.2j]
    xi = np.linspace(0, 1.0, 60)
    for outer_bc in ("dirichlet", "neumann"):
        sols = [hypersolve.solve_modes([n], ELL, 1.0, outer_bc) for n in ns]
        ext = hypersolve.mode_extend(ns, ELL, 1.0, values, [bp_fn(sol, 0.0, v) for sol, v in zip(sols, values)])
        b, bp = ext(xi)
        assert list(ext.ns) == ns and b.shape == bp.shape == (4, 60)
        for k, (sol, v) in enumerate(zip(sols, values)):
            assert np.allclose(b[k], b_fn(sol, xi, v), atol=1e-9), (outer_bc, ns[k])
            assert np.allclose(bp[k], bp_fn(sol, xi, v), atol=1e-9), (outer_bc, ns[k])


def test_dtn_accepts_only_the_closed_form():
    with pytest.raises(ValueError):
        hypersolve.dtn(1, ELL, 1.0, method="collocation")
