import numpy as np
import pytest

from graftlab import (
    DomainError,
    GraftedCollar,
    conformal_modulus,
    conformal_modulus_quadrature,
    grafted_length,
    gudermannian,
    total_area,
    total_area_quadrature,
)


CHART = GraftedCollar(ell=2 * np.pi, s=1.0, a=1.0)


def gaussian_curvature_fd(E_fn, G_fn, x, y, h: float = 1e-3):
    """Finite-difference Gaussian curvature of a diagonal metric
    E dx^2 + Gm dy^2 (Brioschi form), second-order accurate in h."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)

    def root(xx, yy):
        return np.sqrt(E_fn(xx, yy) * G_fn(xx, yy))

    def gm_x_over_root(xx, yy):
        return (G_fn(xx + h, yy) - G_fn(xx - h, yy)) / (2 * h) / root(xx, yy)

    def e_y_over_root(xx, yy):
        return (E_fn(xx, yy + h) - E_fn(xx, yy - h)) / (2 * h) / root(xx, yy)

    term_x = (gm_x_over_root(x + h, y) - gm_x_over_root(x - h, y)) / (2 * h)
    term_y = (e_y_over_root(x, y + h) - e_y_over_root(x, y - h)) / (2 * h)
    return -(term_x + term_y) / (2.0 * root(x, y))


def _one_sided_second_derivatives(chart: GraftedCollar, x: float, h: float = 1e-6):
    """(left, right) one-sided differences of G' at x: the limits of G''
    from each side, to O(h)."""
    Gp = chart.Gp(x)
    return (Gp - chart.Gp(x - h)) / h, (chart.Gp(x + h) - Gp) / h


def _chart_curvature(chart: GraftedCollar, x):
    """Finite-difference curvature of dx^2 + G^2 dy^2, E = 1 and Gm = G^2."""
    y = np.zeros_like(x)
    return gaussian_curvature_fd(lambda xx, yy: np.ones_like(xx), lambda xx, yy: chart.G(xx) ** 2, x, y, h=1e-4)


def test_metric_is_c11_across_seams():
    # G and G' continuous across both seams on a dense straddling grid
    for seam in (-CHART.s / 2, CHART.s / 2):
        eps = np.geomspace(1e-10, 1e-4, 40)
        gap_G = np.abs(CHART.G(seam + eps) - CHART.G(seam - eps))
        gap_Gp = np.abs(CHART.Gp(seam + eps) - CHART.Gp(seam - eps))
        assert np.all(gap_G < 1e-7)
        assert np.all(gap_Gp < 1e-3)
        # the gaps vanish linearly (quadratically for G), not to a constant
        assert gap_G[0] < 1e-14 and gap_Gp[0] < 1e-9


def test_second_derivative_jumps_by_one_at_seams():
    # G'' jumps by exactly 1 at each seam: 0 on the insert side, cosh 0 = 1
    # on the strip side
    left, right = _one_sided_second_derivatives(CHART, CHART.s / 2)
    assert left == 0.0 and right == pytest.approx(1.0, abs=1e-5)
    left, right = _one_sided_second_derivatives(CHART, -CHART.s / 2)
    assert left == pytest.approx(1.0, abs=1e-5) and right == 0.0
    # no jump inside the insert (G'' = 0) or inside a strip (G'' = cosh)
    assert _one_sided_second_derivatives(CHART, 0.0) == (0.0, 0.0)
    left, right = _one_sided_second_derivatives(CHART, CHART.s / 2 + 0.3)
    assert left == pytest.approx(np.cosh(0.3), abs=1e-5) and right == pytest.approx(np.cosh(0.3), abs=1e-5)


def test_degenerate_insert_has_no_jump():
    # with s = 0 the seams meet at x = 0, where G'' = cosh 0 = 1 on both sides
    thin = GraftedCollar(ell=1.0, s=0.0, a=1.0)
    left, right = _one_sided_second_derivatives(thin, 0.0)
    assert left == pytest.approx(1.0, abs=1e-5) and right == pytest.approx(1.0, abs=1e-5)


def test_fd_curvature_vanishes_on_the_flat_insert():
    K = _chart_curvature(CHART, np.array([-0.3, 0.0, 0.2]))
    assert np.all(K == 0.0)


def test_fd_curvature_recovers_hyperbolic_stratum():
    # K = -G''/G = -1 on both strips, away from the seams
    K = _chart_curvature(CHART, np.array([-1.3, -0.7, 0.7, 1.1, 1.4]))
    assert np.max(np.abs(K + 1.0)) < 1e-6


def test_domain_check():
    with pytest.raises(DomainError):
        CHART.G(CHART.x_max + 0.1)


def test_area_closed_vs_quadrature():
    closed = total_area(CHART)
    assert closed == pytest.approx(2 * 2 * np.pi * np.sinh(1.0) + 2 * np.pi)
    assert abs(closed - total_area_quadrature(CHART)) / closed < 1e-10


def test_modulus_closed_vs_quadrature_and_gudermannian():
    assert gudermannian(0.0) == 0.0
    assert gudermannian(1.0) == pytest.approx(np.arctan(np.sinh(1.0)))
    closed = conformal_modulus(CHART)
    assert closed == pytest.approx((2 * gudermannian(1.0) + 1.0) / (2 * np.pi))
    assert abs(closed - conformal_modulus_quadrature(CHART)) < 1e-10


@pytest.mark.parametrize("a", [0.01, 0.1, 0.5, 1.0, 2.0, 2.5, 7.3, 10.0, 20.0])
def test_chart_oracles_reach_rounding(a):
    # 16-point Gauss-Legendre on unit-width panels of [0, a], a whole number
    # of panels or not: the cosh and sech integrals come out at rounding
    eps = np.finfo(float).eps
    for s in (0.0, 1.5):
        chart = GraftedCollar(ell=3.0, s=s, a=a)
        area = total_area(chart)
        assert abs(total_area_quadrature(chart) - area) <= 8 * eps * area
        modulus = conformal_modulus(chart)
        assert abs(conformal_modulus_quadrature(chart) - modulus) <= 8 * eps * modulus


def test_chart_oracles_evaluate_the_chart_on_both_strips(monkeypatch):
    # a defect of the metric on one strip alone must move both oracles off
    # their closed forms
    chart = GraftedCollar(ell=3.0, s=1.5, a=2.0)
    G = GraftedCollar.G
    monkeypatch.setattr(GraftedCollar, "G", lambda self, x: G(self, x) * (1 + 1e-6 * (np.asarray(x) < 0)))
    assert abs(total_area_quadrature(chart) / total_area(chart) - 1) > 1e-8
    assert abs(conformal_modulus_quadrature(chart) / conformal_modulus(chart) - 1) > 1e-8


def test_modulus_monotone():
    ells = np.linspace(1.0, 8.0, 25)
    mods = [conformal_modulus(GraftedCollar(ell=l, s=1.0, a=1.0)) for l in ells]
    assert np.all(np.diff(mods) < 0)
    ss = np.linspace(0.0, 4.0, 25)
    mods = [conformal_modulus(GraftedCollar(ell=2 * np.pi, s=s, a=1.0)) for s in ss]
    assert np.all(np.diff(mods) > 0)


def test_grafted_length():
    assert grafted_length(2 * np.pi, 2.0) == pytest.approx(4 * np.pi)
    with pytest.raises(ValueError):
        grafted_length(-1.0, 1.0)
