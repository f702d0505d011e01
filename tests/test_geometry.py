import json

import numpy as np
import pytest

from graftlab import (
    DomainError,
    GraftedCollar,
    ConformalFamily,
    SeamPointError,
    conformal_modulus,
    conformal_modulus_quadrature,
    gauss_curvature,
    grafted_length,
    gudermannian,
    metric_coefficient,
    total_area,
    total_area_quadrature,
)
from graftlab.geometry import family_metric


CHART = GraftedCollar(ell=2 * np.pi, s=1.0, a=1.0)


def _constant(v: float):
    """The field function (value, d/dx) of the constant v."""
    return lambda x, y: (np.full(np.broadcast(x, y).shape, v), np.zeros(np.broadcast(x, y).shape))


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
    _, _, pair_r = metric_coefficient(CHART, CHART.s / 2)
    assert pair_r == (0.0, 1.0)
    _, _, pair_l = metric_coefficient(CHART, -CHART.s / 2)
    assert pair_l == (1.0, 0.0)
    _, _, interior = metric_coefficient(CHART, 0.0)
    assert interior == (0.0, 0.0)
    _, _, strip = metric_coefficient(CHART, CHART.s / 2 + 0.3)
    assert strip[0] == strip[1] == pytest.approx(np.cosh(0.3))


def test_degenerate_insert_has_no_jump():
    thin = GraftedCollar(ell=1.0, s=0.0, a=1.0)
    _, _, pair = metric_coefficient(thin, 0.0)
    assert pair == (1.0, 1.0)


def test_gauss_curvature_values_and_seam_refusal():
    assert gauss_curvature(CHART, 0.0) == 0.0
    assert gauss_curvature(CHART, 1.2) == -1.0
    with pytest.raises(SeamPointError):
        gauss_curvature(CHART, CHART.s / 2)


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


def test_chart_json_round_trip():
    text = CHART.to_json()
    again = GraftedCollar.from_json(text)
    assert again == CHART
    assert json.loads(text)["ell"] == CHART.ell


def test_family_metric_positivity_guard():
    fam = ConformalFamily(base=CHART, hdot=_constant(-3.0))
    with pytest.raises(DomainError):
        family_metric(fam, 0.5, 0.0, 0.0)


def test_conformal_curvature_identity_flat_stratum():
    # K of g0 / H equals H * (K0 + (1/2) Lap0 log H); on the flat stratum
    # K0 = 0 and Lap0 is the Euclidean Laplacian
    k = 2.0

    def hdot(x, y):
        return 0.3 * np.sin(k * y) * np.cos(2.0 * x)

    t = 0.7
    fam = ConformalFamily(base=CHART, hdot=lambda x, y: (hdot(x, y), 0 * x))
    h = 1e-3

    def E_fn(x, y):
        return family_metric(fam, t, x, y)[0]

    def G_fn(x, y):
        return family_metric(fam, t, x, y)[1]

    xs = np.array([0.0, 0.1, -0.2])
    ys = np.array([0.3, 1.0, 2.0])
    K_fd = gaussian_curvature_fd(E_fn, G_fn, xs, ys, h=h)

    def H(x, y):
        return 1.0 + t * hdot(x, y)

    lap = (
        H(xs + h, ys) + H(xs - h, ys) + H(xs, ys + h) + H(xs, ys - h) - 4 * H(xs, ys)
    ) / h**2
    # Lap log H = Lap H / H - |grad H|^2 / H^2
    gx = (H(xs + h, ys) - H(xs - h, ys)) / (2 * h)
    gy = (H(xs, ys + h) - H(xs, ys - h)) / (2 * h)
    expected = H(xs, ys) * 0.5 * (lap / H(xs, ys) - (gx**2 + gy**2) / H(xs, ys) ** 2)
    assert np.max(np.abs(K_fd - expected)) < 1e-4


def test_fd_curvature_recovers_hyperbolic_stratum():
    fam = ConformalFamily(base=CHART, hdot=_constant(0.0))

    def E_fn(x, y):
        return family_metric(fam, 0.0, x, y)[0]

    def G_fn(x, y):
        return family_metric(fam, 0.0, x, y)[1]

    K = gaussian_curvature_fd(E_fn, G_fn, np.array([1.1]), np.array([0.5]), h=1e-4)
    assert K[0] == pytest.approx(-1.0, abs=1e-6)
