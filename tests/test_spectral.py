import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graftlab import (
    DomainError,
    FourierSolution,
    TraceModes,
    harmonicity_bound,
    harmonicity_residual,
    sampling,
)
from graftlab import spectral
from graftlab.identities import seam_points
from oracles import SingularSystemError, from_boundary_data, im_phi_dy, parseval_norm_sq

ELL, S = 2 * np.pi, 2.0


class _PlusSquare(FourierSolution):
    """The field plus x^2, whose five-point Laplacian is 2: a non-harmonic
    term injected through evaluate, which keeps the shapes (x, y) of each
    grid it is called on in grids."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.grids = []

    def evaluate(self, x, y):
        self.grids.append((np.shape(x), np.shape(y)))
        return super().evaluate(x, y) + np.asarray(x) ** 2


def _random_sol(seed, nmax=5, amplitude=1.0):
    rng = np.random.default_rng(seed)
    modes = {
        n: (
            amplitude * (rng.standard_normal() + 1j * rng.standard_normal()),
            amplitude * (rng.standard_normal() + 1j * rng.standard_normal()),
        )
        for n in range(1, nmax + 1)
    }
    return FourierSolution(ell=ELL, s=S, c0=0.3, d0=-0.7, modes=modes)


def test_constant_field():
    sol = FourierSolution(ell=ELL, s=S, d0=3.0)
    assert sol.evaluate(0.2, 1.0) == pytest.approx(3.0)


def test_single_mode_value_at_origin():
    sol = FourierSolution(ell=ELL, s=S, modes={1: (1.0, 0.0)})
    # n = 1 and n = -1 each contribute cosh(0) = 1
    assert sol.evaluate(0.0, 0.0) == pytest.approx(2.0)


def test_periodicity():
    sol = _random_sol(0)
    y = np.linspace(0, ELL, 17)
    assert np.allclose(sol.evaluate(0.3, y), sol.evaluate(0.3, y + ELL), atol=1e-12)


def test_domain_error():
    sol = _random_sol(0)
    with pytest.raises(DomainError):
        sol.evaluate(S / 2 + 0.1, 0.0)


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_reality_matches_explicit_conjugate_sum(seed):
    sol = _random_sol(seed, nmax=3)
    rng = np.random.default_rng(seed + 1)
    x = rng.uniform(-S / 2, S / 2, 8)
    y = rng.uniform(0, ELL, 8)
    k = 2 * np.pi / ELL
    direct = sol.c0 * x + sol.d0 + 0j
    for n, (cn, dn) in sol.modes.items():
        for m, (cm, dm) in ((n, (cn, dn)), (-n, (np.conj(cn), -np.conj(dn)))):
            direct += (cm * np.cosh(k * m * x) + dm * np.sinh(k * m * x)) * np.exp(
                1j * k * m * y
            )
    assert np.max(np.abs(direct.imag)) < 1e-10
    assert np.allclose(sol.evaluate(x, y), direct.real, atol=1e-10)


def test_dirichlet_trace_values():
    sol = FourierSolution(ell=ELL, s=S, d0=1.0)
    assert sol.dirichlet_trace("left").mean == pytest.approx(1.0)
    assert sol.dirichlet_trace("right").mean == pytest.approx(1.0)

    sol = FourierSolution(ell=ELL, s=S, modes={1: (1.0, 0.0)})
    assert sol.dirichlet_trace("left").modes[1] == pytest.approx(np.cosh(1.0))

    sol = FourierSolution(ell=ELL, s=S, c0=2.0)
    assert sol.dirichlet_trace("left").mean == pytest.approx(-2.0)
    assert sol.dirichlet_trace("right").mean == pytest.approx(2.0)


def test_neumann_trace_values():
    sol = FourierSolution(ell=ELL, s=S, d0=5.0)
    trace = sol.neumann_trace_flat("left")
    assert trace.mean == 0.0 and not trace.modes

    sol = FourierSolution(ell=ELL, s=S, modes={1: (1.0, 0.0)})
    assert sol.neumann_trace_flat("left").modes[1] == pytest.approx(-np.sinh(1.0))
    assert FourierSolution(ell=ELL, s=S, c0=0.4).neumann_trace_flat("right").mean == 0.4


def test_seam_part_gives_each_side_of_a_pair():
    assert [spectral.seam_part(side, 3.0, 0.5) for side in spectral.SIDES] == [2.5, 3.5, 3.0, 0.5]
    # a tuple of sides: one entry per side on a leading axis, in its order,
    # with a part that has no points axis broadcast against the other
    assert spectral.seam_part(("right", "even"), 3.0, np.array([0.5, 1.0])).tolist() == [[3.5, 4.0], [3.0, 3.0]]
    with pytest.raises(ValueError, match="side must be one of"):
        spectral.seam_part("middle", 3.0, 0.5)
    for side in ("middle", ("even", "middle")):
        with pytest.raises(ValueError, match="side must be one of"):
            TraceModes(side=side, kind="dirichlet", ell=ELL, mean=0.0)


def test_trace_parts_come_from_the_coefficients_and_combine_to_the_seams():
    # the parts are (right + left)/2 and (right - left)/2, each formed from
    # the coefficients with no difference: Dirichlet means d0 and c0 s/2,
    # modes c_n cosh and d_n sinh; flat Neumann means c0 and 0, modes
    # k_n d_n cosh and k_n c_n sinh
    sol = FourierSolution(ell=ELL, s=S, c0=0.3, d0=-0.7, modes={1: (0.4 - 0.2j, 0.1j), 3: (0.0, -0.5)})
    n = np.arange(4)
    k, arg = 2 * np.pi * n / ELL, np.pi * n * S / ELL
    C, Sh = np.cosh(arg), np.sinh(arg)
    even, odd = sol.dirichlet_trace("even"), sol.dirichlet_trace("odd")
    assert (even.mean, odd.mean) == (-0.7, 0.3 * S / 2)
    assert np.array_equal(even.coef, sol.c * C) and np.array_equal(odd.coef, sol.d * Sh)
    flat_even, flat_odd = sol.neumann_trace_flat("even"), sol.neumann_trace_flat("odd")
    assert (flat_even.mean, flat_odd.mean) == (0.3, 0.0)
    assert np.array_equal(flat_even.coef, k * (sol.d * C)) and np.array_equal(flat_odd.coef, k * (sol.c * Sh))
    for trace, parts in ((sol.dirichlet_trace, (even, odd)), (sol.neumann_trace_flat, (flat_even, flat_odd))):
        for side in ("left", "right"):
            seam = trace(side)
            assert seam.side == side
            assert seam.mean == pytest.approx(spectral.seam_part(side, *(t.mean for t in parts)), rel=1e-15)
            assert np.allclose(seam.coef, spectral.seam_part(side, *(t.coef for t in parts)), rtol=1e-15, atol=0)


def test_neumann_trace_against_one_sided_difference():
    sol = _random_sol(2, nmax=3, amplitude=0.01)
    h = 1e-6
    y = np.linspace(0, ELL, 9, endpoint=False)
    for side, x0, sgn in (("left", -S / 2, 1.0), ("right", S / 2, -1.0)):
        fd = sgn * (sol.evaluate(x0 + sgn * h, y) - sol.evaluate(x0, y)) / h
        exact = sol.neumann_trace_flat(side).reconstruct(y)
        assert np.max(np.abs(fd - exact)) < 1e-4


def test_boundary_data_round_trip():
    sol = _random_sol(3)
    again = from_boundary_data(
        sol.dirichlet_trace("left"), sol.dirichlet_trace("right"), ELL, S
    )
    assert again.c0 == pytest.approx(sol.c0, abs=1e-12)
    assert again.d0 == pytest.approx(sol.d0, abs=1e-12)
    for n in sol.modes:
        assert again.modes[n][0] == pytest.approx(sol.modes[n][0], abs=1e-12)
        assert again.modes[n][1] == pytest.approx(sol.modes[n][1], abs=1e-12)


def test_equal_means_give_no_linear_part():
    left = TraceModes(side="left", kind="dirichlet", ell=ELL, mean=0.8)
    right = TraceModes(side="right", kind="dirichlet", ell=ELL, mean=0.8)
    sol = from_boundary_data(left, right, ELL, S)
    assert sol.c0 == 0.0 and sol.d0 == pytest.approx(0.8)


def test_degenerate_insert_mode_data_is_singular():
    left = TraceModes(side="left", kind="dirichlet", ell=ELL, mean=0.0, modes={1: 1.0})
    right = TraceModes(side="right", kind="dirichlet", ell=ELL, mean=0.0, modes={1: 2.0})
    with pytest.raises(SingularSystemError):
        from_boundary_data(left, right, ELL, 0.0)


def test_harmonicity_residuals():
    assert harmonicity_residual(FourierSolution(ell=ELL, s=S, d0=1.0)) < 1e-12
    # small amplitudes keep the O(h^2) stencil error under the bound
    small = FourierSolution(ell=2 * np.pi, s=0.2, modes={3: (1e-5, 1e-5)})
    assert harmonicity_residual(small) < 1e-6


def test_harmonicity_detects_injected_term():
    assert harmonicity_residual(_PlusSquare(ell=ELL, s=S, d0=1.0)) == pytest.approx(2.0, rel=1e-6)


def test_parseval():
    sol = _random_sol(4)
    trace = sol.dirichlet_trace("right")
    y = np.arange(8192) * (ELL / 8192)
    quad = ELL * np.mean(trace.reconstruct(y) ** 2)
    assert abs(quad - parseval_norm_sq(trace)) / quad < 1e-10


def test_parseval_gives_one_value_per_point():
    ell = np.array([1.0, 2.0, 3.0])
    family = sampling.random_solution(np.random.default_rng(4), ell, S).dirichlet_trace("left")
    got = parseval_norm_sq(family)
    assert got.shape == (3,)
    for i, e in enumerate(ell):
        one = sampling.random_solution(np.random.default_rng(4), float(e), S).dirichlet_trace("left")
        assert got[i] == pytest.approx(parseval_norm_sq(one), rel=1e-14)


def test_reconstruct_matches_direct_mode_sum():
    # the one-expression series sum against a loop over modes, one complex
    # exponential per (mode, point)
    rng = np.random.default_rng(11)
    idx = sorted(rng.choice(np.arange(1, 300), size=256, replace=False))
    modes = {int(n): complex(rng.standard_normal(), rng.standard_normal()) for n in idx}
    trace = TraceModes(side="left", kind="dirichlet", ell=ELL, mean=0.3, modes=modes)
    bound = 1e-12 * sum(abs(c) for c in modes.values())

    def direct(y):
        y = np.asarray(y, dtype=float)
        total = np.full(y.shape, 0.3)
        for n, c in modes.items():
            total = total + 2.0 * np.real(c * np.exp(2j * np.pi * n * y / ELL))
        return total

    y = np.linspace(-ELL, 2 * ELL, 1536).reshape(3, -1)
    got = trace.reconstruct(y)
    assert got.shape == y.shape
    assert np.max(np.abs(got - direct(y))) <= bound
    for y0 in (0.0, 1.234, -7.5):
        assert np.ndim(trace.reconstruct(y0)) == 0
        assert abs(trace.reconstruct(y0) - direct(y0)) <= bound


def test_reconstruct_empty_and_constant_modes():
    trace = TraceModes(side="right", kind="dirichlet", ell=ELL, mean=0.0)
    assert np.array_equal(trace.reconstruct(np.ones((2, 5))), np.zeros((2, 5)))
    assert trace.reconstruct(0.7) == 0.0
    # a constant is the mean alone
    const = TraceModes(side="right", kind="dirichlet", ell=ELL, mean=0.5)
    assert np.allclose(const.reconstruct(np.linspace(0.0, ELL, 7)), 0.5)


def test_on_grid_matches_reconstruct():
    # one inverse FFT against the scattered-y series at y_j = j ell / npts,
    # modes with gaps
    rng = np.random.default_rng(12)
    idx = sorted(rng.choice(np.arange(1, 300), size=200, replace=False))
    modes = {int(n): complex(rng.standard_normal(), rng.standard_normal()) for n in idx}
    trace = TraceModes(side="left", kind="dirichlet", ell=ELL, mean=-0.4, modes=modes)
    bound = 1e-12 * sum(abs(c) for c in modes.values())
    assert trace.max_mode() == 299
    for npts in (4096, 599, 600):
        y = np.arange(npts) * (ELL / npts)
        got = trace.on_grid(npts)
        assert got.shape == (npts,)
        assert np.max(np.abs(got - trace.reconstruct(y))) <= bound, npts
    # npts <= 2 nmax: the trapezoid rule is not exact there, and no grid is made
    for npts in (598, 256, 97, 2, 1):
        with pytest.raises(ValueError, match="cannot resolve mode 299"):
            trace.on_grid(npts)
        assert npts not in trace._grids
    # no modes: the mean alone
    empty = TraceModes(side="right", kind="dirichlet", ell=ELL, mean=0.75)
    assert np.array_equal(empty.on_grid(16), np.full(16, 0.75))
    const = TraceModes(side="right", kind="dirichlet", ell=ELL, mean=0.5)
    assert np.allclose(const.on_grid(7), 0.5)


def test_harmonicity_bound_covers_the_stencil_residual():
    # the exact truncation factor bounds the residual closely; a field without
    # modes has no truncation error, so an injected x^2 (residual 2) shows
    for ell in (0.25, 1.0, 2 * np.pi, 16.0):
        rng = np.random.default_rng(3)
        modes = {n: tuple(1e-4 * complex(*rng.standard_normal(2)) for _ in "cd") for n in (1, 2, 3)}
        sol = FourierSolution(ell=ell, s=ell / 4, d0=0.2, modes=modes)
        truncation, rounding = harmonicity_bound(sol)
        residual = harmonicity_residual(sol)
        assert 0.5 * truncation <= residual <= truncation + rounding, ell
        assert rounding < 1e-6 * truncation
    bare = FourierSolution(ell=ELL, s=S, d0=1.0)
    truncation, rounding = harmonicity_bound(bare)
    assert truncation == 0.0
    assert rounding < 1e-10


def test_mode_arg_is_inf_past_the_double_range_with_no_warning():
    # in range pi n s / ell bit for bit, at every point of a family; past
    # the double range inf, where doubling it stays silent too
    n = np.arange(9)
    s, ell = np.array([[1.0], [3.5], [1e308], [1e300]]), np.array([[2 * np.pi], [0.1], [1.0], [1e-10]])
    arg = spectral.mode_arg(n, s, ell)
    assert np.array_equal(arg[:2], np.pi * n * s[:2] / ell[:2])
    assert np.array_equal(arg[2:, 0], [0.0, 0.0]) and np.all(np.isinf(arg[2:, 1:]))
    assert np.array_equal(spectral.mode_arg(n, s[:2], ell[:2]), arg[:2])
    assert np.all(np.exp(-2.0 * arg[2:, 1:]) == 0.0)
    assert spectral.mode_arg(3, 2.0, 0.5) == np.pi * 3 * 2.0 / 0.5


def test_quad_modes_imaginary_part_is_harmonic():
    # Im(phi) is a FourierSolution with (u_n, v_n) = (c_n, d_n), and it
    # passes the stencil
    q = FourierSolution(
        ell=2 * np.pi,
        s=0.2,
        d0=0.5,
        modes={2: (1e-4 * (1 + 1j), 1e-4 * (1 - 2j))},
    )
    assert harmonicity_residual(q) < 1e-6


@pytest.mark.parametrize("nmax", [1, 3, 16])
def test_tensor_grid_series_matches_pointwise_evaluate(nmax):
    # the open grid (xs[:, None], ys), on which each x profile and each y
    # exponential is computed once per line, against the meshgrid and the
    # mode loop, within 8 eps times the sum of |term| at each point
    sol = _random_sol(20 + nmax, nmax=nmax, amplitude=0.1)
    xs = np.linspace(-S / 2, S / 2, 7)
    ys = np.linspace(-0.5, ELL + 0.5, 11)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    k = 2 * np.pi / ELL
    loop = sol.c0 * X + sol.d0
    scale = np.abs(loop)
    for n, (cn, dn) in sol.modes.items():
        term = (cn * np.cosh(k * n * X) + dn * np.sinh(k * n * X)) * np.exp(1j * k * n * Y)
        loop = loop + 2 * term.real
        scale = scale + 2 * np.abs(term)
    got = sol.evaluate(xs[:, None], ys)
    assert got.shape == (7, 11)
    bound = 8 * np.finfo(float).eps * scale
    assert np.all(np.abs(got - sol.evaluate(X, Y)) <= bound)
    assert np.all(np.abs(got - loop) <= bound)


def test_harmonicity_residual_evaluates_the_field_once_on_one_grid():
    quadratic = _PlusSquare(ell=ELL, s=S)
    assert harmonicity_residual(quadratic) == pytest.approx(2.0, rel=1e-6)
    # the open grid (xs - h, xs, xs + h) x (ys - h, ys, ys + h) with nx = 16, ny = 32
    assert quadratic.grids == [((48, 1), (96,))]


def test_on_grid_is_kept_and_read_only():
    trace = TraceModes(side="left", kind="dirichlet", ell=ELL, mean=0.1, modes={1: 0.5j, 3: 0.2})
    grid = trace.on_grid(64)
    assert trace.on_grid(64) is grid
    assert trace.on_grid(32) is not grid
    with pytest.raises(ValueError):
        grid[0] = 1.0


def test_complex_mean_part_is_rejected():
    with pytest.raises(ValueError, match="must be real"):
        FourierSolution(ell=ELL, s=S, c0=0.3 + 1e-3j)
    with pytest.raises(ValueError, match="must be real"):
        FourierSolution(ell=ELL, s=S, d0=np.array([0.1, 0.2 - 1j]))
    # a complex type with no imaginary part is kept as its real part
    sol = FourierSolution(ell=ELL, s=S, c0=0.3 + 0j, d0=-0.7 + 0j, modes={1: (0.5, 0.2j)})
    value = sol.evaluate(0.4, 1.0)
    assert isinstance(value, float)
    assert value == FourierSolution(ell=ELL, s=S, c0=0.3, d0=-0.7, modes={1: (0.5, 0.2j)}).evaluate(0.4, 1.0)


def test_quad_modes_from_mapping_equal_those_from_arrays():
    # the quadratic differential's Im(phi) as a FourierSolution, with
    # (u0, v0) = (c0, d0) and (u_n, v_n) = (c_n, d_n)
    modes = {1: (0.4 - 0.2j, 0.1 + 0.5j), 3: (0.0, -0.3j), 4: (0.2, 0.0)}
    mapped = FourierSolution(ell=ELL, s=S, c0=0.2, d0=0.3, modes=modes)
    u = np.array([0, 0.4 - 0.2j, 0, 0, 0.2])
    v = np.array([0, 0.1 + 0.5j, 0, -0.3j, 0])
    dense = FourierSolution(ell=ELL, s=S, c0=0.2, d0=0.3, c=u, d=v)
    assert mapped.modes == dense.modes == modes
    x = np.array([0.0, 0.4, -1.0, 1.0])
    y = np.array([0.3, 2.0, 5.0, 6.0])
    for side in ("left", "right"):
        assert np.array_equal(mapped.seam_values(side), dense.seam_values(side))
        # amend_variation's seam values are the Dirichlet trace's modes
        assert np.array_equal(mapped.seam_values(side), mapped.dirichlet_trace(side).coef)
    assert mapped.norm() == dense.norm()
    assert np.array_equal(mapped.evaluate(x, y), dense.evaluate(x, y))
    assert np.array_equal(im_phi_dy(mapped, x, y), im_phi_dy(dense, x, y))
    # the seam values and the d/dy Im(phi) oracle against one mode written out
    k = 2 * np.pi / ELL
    un, vn = modes[1]
    a1 = un * np.cosh(k * x) + vn * np.sinh(k * x)
    expected_dy = 2 * np.real(1j * k * a1 * np.exp(1j * k * y))
    single = FourierSolution(ell=ELL, s=S, modes={1: modes[1]})
    assert np.allclose(im_phi_dy(single, x, y), expected_dy, rtol=0, atol=1e-14)
    assert single.seam_values("left")[1] == un * np.cosh(1.0) - vn * np.sinh(1.0)


def _folded_synthesis(mean, coef, npts):
    """The folding path of spectral._synthesize, written out with np.add.at:
    the modes n >= 1 folded into their bins, and the mean added to bin 0."""
    r = np.arange(1, coef.shape[-1]) % npts
    folded = 2 * r > npts
    r = np.where(folded, npts - r, r)
    c = np.where(folded, np.conj(coef[..., 1:]), coef[..., 1:])
    c = np.where((r == 0) | (2 * r == npts), 2.0 * c.real, c)
    spectrum = np.zeros(c.shape[:-1] + (npts // 2 + 1,), dtype=complex)
    np.add.at(spectrum, (..., 0), mean)
    np.add.at(spectrum, (..., r), c)
    return np.fft.irfft(spectrum, npts, norm="forward")


@pytest.mark.parametrize("width", [1, 9, 65, 257])
def test_scatter_free_synthesis_equals_the_folding_path_bit_for_bit(width):
    # every seam_points grid resolves its modes (npts > 2 nmax): there the
    # coefficients go into the spectrum by slice, with no scatter; a zero
    # field whose zeros are all negative pins the signs of the zeros too
    rng = np.random.default_rng(width)
    grids = [npts for npts in (64, 128, 256, 512, 1024) if npts > 2 * (width - 1)]
    assert seam_points(width - 1) in grids
    for shape in ((), (5,)):
        coef = rng.standard_normal(shape + (width,)) + 1j * rng.standard_normal(shape + (width,))
        coef[..., 3::7] = 0.0  # dropped modes
        coef[..., 5::11] = complex(-0.0, -0.0)
        coef[..., 0] = 0.0  # index 0 holds no mode
        negative_zero = np.full(shape + (width,), complex(-0.0, -0.0))
        for c, mean in ((coef, rng.standard_normal(shape)), (negative_zero, np.full(shape, -0.0))):
            for npts in grids:
                got = spectral._synthesize(mean, c, npts)
                assert got.tobytes() == _folded_synthesis(mean, c, npts).tobytes(), (shape, npts)


def test_index_0_holds_no_mode_in_any_coefficient_array():
    # a trace's constant is its mean and a field's its mean part: a mode at
    # n = 0, by mapping or in slot 0 of an array, is refused by every class
    with pytest.raises(ValueError, match="mode indices must be >= 1"):
        TraceModes(side="left", kind="dirichlet", ell=ELL, mean=0.0, modes={0: 0.25, 1: 0.1})
    with pytest.raises(ValueError, match="index 0 holds no mode"):
        TraceModes(side="left", kind="neumann_flat", ell=ELL, mean=0.0, coef=np.array([0.5, 0.2]))
    with pytest.raises(ValueError, match="index 0 holds no mode"):
        TraceModes(side="left", kind="dirichlet", ell=np.ones(2), mean=np.zeros(2), coef=np.array([[0, 1], [1e-300, 1]]))
    with pytest.raises(ValueError, match="mode indices must be >= 1"):
        FourierSolution(ELL, S, 0.0, 0.0, {0: (0.3, 0.0), 1: (0.1, 0.0)})
    with pytest.raises(ValueError, match="index 0 holds no mode"):
        FourierSolution(ELL, S, 0.0, 0.0, None, np.array([0.0, 0.1]), np.array([0.2j, 0.0]))
    # a signed zero is no mode
    trace = TraceModes(side="left", kind="dirichlet", ell=ELL, mean=0.5, coef=np.array([-0.0, 0.1]))
    assert trace.modes == {1: 0.1}


def test_a_constant_array_slot_is_no_second_mean_mode():
    # a nonzero slot 0 of c would be a second n = 0 strip row beside the mean's
    with pytest.raises(ValueError, match="index 0 holds no mode"):
        FourierSolution(2 * np.pi, 1.0, c=[0.3, 0.1], d=[0, 0])
    sol = FourierSolution(2 * np.pi, 1.0, d0=0.3, c=np.array([0, 0.1]), d=np.zeros(2))
    assert sol.nonzero_modes().tolist() == [1]


def test_coefficient_lists_are_arrays():
    # a list is read as the array it spells: its entries, not the list
    # object, say which modes are nonzero and how wide the trace is
    assert FourierSolution(2 * np.pi, 1.0, 0.0, 0.0, None, [0, 0.1], [0, 0]).nonzero_modes().tolist() == [1]
    listed, array = (TraceModes("left", "dirichlet", ELL, 0.5, coef=coef) for coef in ([0, 0.1], np.array([0, 0.1])))
    assert listed.max_mode() == 1
    assert listed.on_grid(4).tolist() == array.on_grid(4).tolist()
