import numpy as np
import pytest
from scipy.integrate import simpson

from graftlab import hypersolve, identities, sampling
from graftlab.geometry import GraftedCollar

ELL = 2 * np.pi


def test_zero_seam_data_gives_zero_solution():
    sol = hypersolve.mode_solve(1, ELL, 1.0, seam_dirichlet=0.0)
    xi = np.linspace(0, 1.0, 50)
    assert np.max(np.abs(sol.b_fn(xi))) < 1e-12


def test_mean_mode_profile_decreasing():
    sol = hypersolve.mode_solve(0, ELL, 1.0, seam_dirichlet=1.0)
    xi = np.linspace(0, 1.0, 200)
    b = np.real(sol.b_fn(xi))
    assert b[0] == pytest.approx(1.0)
    assert abs(b[-1]) < 1e-10
    assert np.all(np.diff(b) < 0)
    assert sol.dtn < 0


def test_linearity_in_seam_value():
    a = hypersolve.mode_solve(2, ELL, 1.0, seam_dirichlet=0.7)
    b = hypersolve.mode_solve(2, ELL, 1.0, seam_dirichlet=1.4)
    xi = np.linspace(0, 1.0, 30)
    assert np.allclose(2.0 * a.b_fn(xi), b.b_fn(xi), atol=1e-12)


def test_ode_residual_of_solution():
    sol = hypersolve.mode_solve(3, ELL, 1.0)
    h = 1e-4
    xi = np.linspace(0.1, 0.9, 40)
    bpp = (sol.b_fn(xi + h) - 2 * sol.b_fn(xi) + sol.b_fn(xi - h)) / h**2
    musq = (2 * np.pi * 3 / ELL) ** 2
    resid = bpp + np.tanh(xi) * sol.bp_fn(xi) - (musq / np.cosh(xi) ** 2 + 2) * sol.b_fn(xi)
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
    mean = hypersolve.mode_solve(0, ELL, 1.0, seam_dirichlet=0.5)
    osc = hypersolve.mode_solve(1, ELL, 1.0, seam_dirichlet=1.0 + 1j)
    int_h, energy = hypersolve.interior_integral([mean, osc])
    # only the n = 0 mode contributes to the plain integral
    int_mean_only, _ = hypersolve.interior_integral([mean])
    assert int_h == pytest.approx(int_mean_only)
    assert energy > 0
    # direct quadrature of the mean profile, one strip
    xi = np.linspace(0, 1.0, 4001)
    direct = simpson(np.real(mean.b_fn(xi)) * np.cosh(xi), x=xi) * ELL
    assert int_mean_only == pytest.approx(direct, rel=1e-8)


@pytest.mark.parametrize("outer", ["dirichlet", "neumann"])
@pytest.mark.parametrize("a", [0.1, 1.0, 3.0, 10.0])
def test_unit_energy_matches_dtn_by_greens_identity(a, outer):
    # a unit profile solves the mode ODE with b(0) = 1 and b(a) b'(a) = 0, so
    # Green's identity makes its energy integral exactly -b'(0) = -dtn: an
    # oracle for the quadrature that is independent of it
    ns = np.arange(257)
    for ell in (0.25, 1.0, ELL, 16.0):
        units = hypersolve.solve_modes(ns, ell, a, outer)
        _, energy = units.profiles.quadrature
        dtn = np.array([hypersolve.dtn(n, ell, a, outer) for n in ns])
        assert np.all(np.abs(energy + dtn) <= 1e-13 * np.abs(dtn)), (ell, a, outer)
        # the one-mode solve is the same path, one row of it
        seam = 0.6 - 0.8j
        batch_ib, batch_energy = units.at_seam_values(seam).interior_quadrature
        for n in (0, 1, 17, 256):
            ib, en = hypersolve.mode_solve(n, ell, a, outer, seam_dirichlet=seam).interior_quadrature
            assert abs(ib[0] - batch_ib[n]) <= 1e-15 * abs(batch_ib[n]), (ell, a, outer, n)
            assert abs(en[0] - batch_energy[n]) <= 1e-15 * batch_energy[n], (ell, a, outer, n)


def test_interior_quadrature_runs_once_per_mode(monkeypatch):
    # the four identity passes of verify share one quadrature per mode
    grid_calls = {}

    def counted(n, a):
        def b(xi):
            if np.size(xi) > 2:  # the quadrature grid, not the two endpoints
                grid_calls[n] = grid_calls.get(n, 0) + 1
            return np.cos(xi) + 0.5j * n * xi**2

        def bp(xi):
            return -np.sin(xi) + 1j * n * xi

        def bpp(xi):
            return -np.cos(xi) + 1j * n

        sol, _ = hypersolve.manufactured_mode(n, ELL, a, b, bp, bpp)
        return sol

    sols = [counted(0, 1.3), counted(2, 1.3), counted(5, 0.7)]
    first = hypersolve.interior_integral(sols)
    second = hypersolve.interior_integral(sols)
    resid = hypersolve.greens_residual(sols)
    assert grid_calls == {0: 1, 2: 1, 5: 1}
    assert first == second
    rhs = -first[1] + hypersolve.seam_boundary_form(sols) + hypersolve.outer_boundary_form(sols)
    assert resid == abs(rhs)

    # ... and one solve_configuration makes one batched grid pass over all
    # its modes, shared by both seams and by every identity
    grid_rows = []
    pair = hypersolve._pair

    def counted_pair(mu, trig, shift=0.0):
        if np.size(trig[0]) > 2:
            grid_rows.append(np.ravel(mu).tolist())
        return pair(mu, trig, shift)

    monkeypatch.setattr(hypersolve, "_pair", counted_pair)
    rng = np.random.default_rng(4)
    sol = sampling.random_solution(rng, ELL, 1.0, nmax=6)
    quad = sampling.random_quad(rng, ELL, 1.0, nmax=6, amplitude=0.5)
    config = identities.solve_configuration(GraftedCollar(ell=ELL, s=1.0, a=1.3), sol, quad=quad)
    identities.master_identity(config)
    identities.area_derivative_report(config)
    identities.extended_master_identity(config)
    hypersolve.greens_residual(config.all_strip_modes())
    assert grid_rows == [[float(hypersolve._mu(n, ELL)) for n in range(7)]]


def test_profile_functions_need_a_one_mode_solution():
    many = hypersolve.solve_modes([0, 1, 2], ELL, 1.0)
    with pytest.raises(ValueError):
        many.b_fn(0.5)
    with pytest.raises(ValueError):
        many.bp_fn(0.5)
    one = hypersolve.mode_solve(1, ELL, 1.0, seam_dirichlet=2.0)
    assert one.b_fn(0.0) == pytest.approx(2.0)


def test_greens_identity_on_solved_modes():
    sols = [hypersolve.mode_solve(n, ELL, 1.0, seam_dirichlet=v) for n, v in ((0, 0.8), (2, 1.0 - 0.5j))]
    assert hypersolve.greens_residual(sols) < 1e-8


def test_outer_boundary_form_vanishes_for_homogeneous_conditions():
    for outer in ("dirichlet", "neumann"):
        sols = [hypersolve.mode_solve(1, ELL, 1.0, outer_bc=outer)]
        assert abs(hypersolve.outer_boundary_form(sols)) < 1e-12


def test_greens_identity_manufactured_solution():
    sympy = pytest.importorskip("sympy")
    xi = sympy.symbols("xi", real=True)
    a = 1.3
    n = 2
    expr = sympy.cos(2 * xi) + xi**3 / 10 - sympy.Rational(1, 2)
    b = sympy.lambdify(xi, expr)
    bp = sympy.lambdify(xi, sympy.diff(expr, xi))
    bpp = sympy.lambdify(xi, sympy.diff(expr, xi, 2))
    sol, forcing = hypersolve.manufactured_mode(n, ELL, a, b, bp, bpp)
    assert hypersolve.greens_residual([sol], forcings=[forcing]) < 1e-8


def test_mode_extend_matches_bvp_solution():
    # extending with each BVP's own Cauchy data reproduces that BVP solution,
    # row by row, for modes with gaps and the n = 0 branch
    ns = [0, 1, 5, 17]
    values = [0.9, 0.4 - 0.3j, -1.1, 0.2j]
    xi = np.linspace(0, 1.0, 60)
    for outer_bc in ("dirichlet", "neumann"):
        sols = [hypersolve.mode_solve(n, ELL, 1.0, outer_bc, v) for n, v in zip(ns, values)]
        ext = hypersolve.mode_extend(ns, ELL, 1.0, values, [sol.bp_fn(0.0) for sol in sols])
        b, bp = ext(xi)
        assert list(ext.ns) == ns and b.shape == bp.shape == (4, 60)
        for k, sol in enumerate(sols):
            assert np.allclose(b[k], sol.b_fn(xi), atol=1e-9), (outer_bc, ns[k])
            assert np.allclose(bp[k], sol.bp_fn(xi), atol=1e-9), (outer_bc, ns[k])


def test_dtn_accepts_only_the_closed_form():
    with pytest.raises(ValueError):
        hypersolve.dtn(1, ELL, 1.0, method="collocation")
