"""The model grafted surface: a flat cylinder glued to two hyperbolic strips.

Coordinates: x longitudinal with the flat insert on |x| <= s/2 and strips of
half-width a outside it; y circumferential with period ell.  The metric is
dx^2 + G(x)^2 dy^2 with G = 1 on the insert and G = cosh(|x| - s/2) on the
strips, so G is C^{1,1}: G and G' are continuous at the seams x = +/- s/2
while G'' jumps by exactly 1 there.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, SeamPointError
from .spectral import QuadDiffModes

_SEAM_TOL = 1e-12


def gudermannian(a: float) -> float:
    """gd(a) = integral of sech from 0 to a = arctan(sinh(a)), elementwise."""
    return np.arctan(np.sinh(a))


@dataclass(frozen=True)
class GraftedCollar:
    """Model collar: flat cylinder of height s and circumference ell glued to
    hyperbolic strips of half-width a, with a self-adjoint outer condition.
    ell, s and a may hold one value per point of a family of collars."""

    ell: float
    s: float
    a: float
    outer_bc: str = "dirichlet"

    def __post_init__(self):
        if np.any(np.less_equal(self.ell, 0)):
            raise ValueError("ell must be positive")
        if np.any(np.less(self.s, 0)):
            raise ValueError("s must be nonnegative")
        if np.any(np.less_equal(self.a, 0)):
            raise ValueError("a must be positive")
        if self.outer_bc not in ("dirichlet", "neumann"):
            raise ValueError(f"outer_bc must be 'dirichlet' or 'neumann', got {self.outer_bc!r}")

    @property
    def x_max(self) -> float:
        return self.s / 2 + self.a

    def _check_domain(self, x):
        if np.any(np.abs(x) > self.x_max + _SEAM_TOL):
            raise DomainError(f"|x| exceeds s/2 + a = {self.x_max}")

    # vectorized metric data -------------------------------------------------
    def G(self, x):
        x = np.asarray(x, dtype=float)
        self._check_domain(x)
        out = np.where(np.abs(x) <= self.s / 2, 1.0, np.cosh(np.abs(x) - self.s / 2))
        return float(out) if out.ndim == 0 else out

    def Gp(self, x):
        x = np.asarray(x, dtype=float)
        self._check_domain(x)
        out = np.where(
            np.abs(x) <= self.s / 2,
            0.0,
            np.sign(x) * np.sinh(np.abs(x) - self.s / 2),
        )
        return float(out) if out.ndim == 0 else out

    def Gpp(self, x):
        """G'' away from the seams (flat side value exactly on a seam)."""
        x = np.asarray(x, dtype=float)
        self._check_domain(x)
        out = np.where(np.abs(x) <= self.s / 2, 0.0, np.cosh(np.abs(x) - self.s / 2))
        return float(out) if out.ndim == 0 else out

    def to_json(self) -> str:
        return json.dumps(
            {"ell": self.ell, "s": self.s, "a": self.a, "outer_bc": self.outer_bc},
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "GraftedCollar":
        data = json.loads(text)
        return cls(
            ell=data["ell"], s=data["s"], a=data["a"], outer_bc=data.get("outer_bc", "dirichlet")
        )


def metric_coefficient(chart: GraftedCollar, x: float):
    """(G, G', (G'' left limit, G'' right limit)) at a single point.

    On a seam the two one-sided G'' values differ by 1; elsewhere they agree.
    """
    chart._check_domain(x)
    s2 = chart.s / 2
    G = chart.G(x)
    Gp = chart.Gp(x)
    if abs(abs(x) - s2) <= _SEAM_TOL:
        flat, hyp = 0.0, 1.0
        pair = (flat, hyp) if x > 0 else (hyp, flat)
        # the seam x = +s/2 has the flat stratum on its left; x = -s/2 on its right
        if chart.s == 0.0:
            pair = (1.0, 1.0)
    elif abs(x) < s2:
        pair = (0.0, 0.0)
    else:
        v = float(np.cosh(abs(x) - s2))
        pair = (v, v)
    return G, Gp, pair


def gauss_curvature(chart: GraftedCollar, x: float) -> float:
    """K = -G''/G: 0 on the open flat stratum, -1 on the open strips.

    Raises on a seam, where the curvature jumps (the support of the
    distributional curvature variation)."""
    chart._check_domain(x)
    if abs(abs(x) - chart.s / 2) <= _SEAM_TOL:
        raise SeamPointError("seam: curvature discontinuous")
    return 0.0 if abs(x) < chart.s / 2 else -1.0


def total_area(chart: GraftedCollar) -> float:
    """Closed-form area 2 ell sinh(a) + ell s."""
    return 2.0 * chart.ell * np.sinh(chart.a) + chart.ell * chart.s


def simpson_weights(x) -> np.ndarray:
    """Composite Simpson weights w on a uniform grid: integral of f ~ w @ f(x).

    w = h/3 * (1, 4, 2, 4, ..., 2, 4, 1).  x must be one-dimensional,
    uniformly spaced and have an odd number of at least 3 points.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size < 3 or x.size % 2 == 0:
        raise ValueError(f"Simpson weights need an odd number >= 3 of points, got shape {x.shape}")
    h = (x[-1] - x[0]) / (x.size - 1)
    if np.max(np.abs(np.diff(x) - h)) > 1e-8 * abs(h):
        raise ValueError("Simpson weights need a uniformly spaced grid")
    w = np.full(x.size, 2.0 * h / 3.0)
    w[1::2] = 4.0 * h / 3.0
    w[0] = w[-1] = h / 3.0
    return w


def total_area_quadrature(chart: GraftedCollar, panels: int = 10_000) -> float:
    """Area by composite Simpson quadrature of ell * integral of G.

    Integrates each stratum separately so the seam kink does not degrade the
    quadrature order."""
    total = chart.ell * chart.s  # flat stratum, G = 1, exactly
    n = max(panels // 2, 8) | 1
    for lo, hi in ((chart.s / 2, chart.x_max), (-chart.x_max, -chart.s / 2)):
        xs = np.linspace(lo, hi, n)
        total += chart.ell * (simpson_weights(xs) @ chart.G(xs))
    return float(total)


def conformal_modulus(chart: GraftedCollar) -> float:
    """(2 gd(a) + s) / ell: height-over-circumference of the conformally
    equivalent flat cylinder.  Strictly decreasing in ell, increasing in s."""
    return (2.0 * gudermannian(chart.a) + chart.s) / chart.ell


def conformal_modulus_quadrature(chart: GraftedCollar, panels: int = 10_000) -> float:
    """Modulus by composite Simpson quadrature of (1/ell) integral dx / G(x)."""
    total = chart.s
    n = max(panels // 2, 8) | 1
    xs = np.linspace(chart.s / 2, chart.x_max, n)
    total += 2.0 * (simpson_weights(xs) @ (1.0 / chart.G(xs)))
    return float(total / chart.ell)


def grafted_length(ell: float, s: float) -> float:
    """Length of the weighted curve in lamination space: L = ell * s."""
    if ell <= 0:
        raise ValueError("ell must be positive")
    if s < 0:
        raise ValueError("s must be nonnegative")
    return ell * s


class GlobalField:
    """A scalar field on the whole collar with a (possibly one-sided)
    x-derivative.  Built either from a constant, explicit callables, or the
    matched construction in the variation module."""

    def __init__(self, value_fn: Callable, dx_fn: Callable):
        self._value = value_fn
        self._dx = dx_fn

    def value(self, x, y):
        return self._value(np.asarray(x, dtype=float), np.asarray(y, dtype=float))

    def dx(self, x, y):
        return self._dx(np.asarray(x, dtype=float), np.asarray(y, dtype=float))

    @classmethod
    def constant(cls, v: float) -> "GlobalField":
        def val(x, y):
            return np.broadcast_to(float(v), np.broadcast(x, y).shape).copy()

        def der(x, y):
            return np.zeros(np.broadcast(x, y).shape)

        return cls(val, der)


@dataclass(frozen=True)
class ConformalFamily:
    """Family of metrics gr/H_t with H_t = 1 + t * hdot to first order.

    When quad is absent the family is conformal; otherwise the first-order
    off-conformal tensor built from the quadratic-differential modes is added
    on the flat stratum."""

    base: GraftedCollar
    hdot: GlobalField
    quad: QuadDiffModes | None = None
    s_rate: float = 0.0


def family_metric(fam: ConformalFamily, t: float, x, y):
    """Metric components (g_xx, g_yy, g_xy) of the family at parameter t.

    The off-conformal part uses the frame w = y + i x (along + i * normal),
    in which the perturbation -2 Re(t phi dw^2) has components
    (+2 t Re phi, -2 t Re phi, 2 t Im phi); it is defined on the flat
    stratum only, where the quadratic-differential modes live.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    H = 1.0 + t * fam.hdot.value(x, y)
    if np.any(H <= 0):
        raise DomainError("1 + t * hdot is not positive on the evaluation points")
    G = fam.base.G(x)
    gxx = 1.0 / H + np.zeros(np.broadcast(x, y).shape)
    gyy = G**2 / H + np.zeros(np.broadcast(x, y).shape)
    gxy = np.zeros(np.broadcast(x, y).shape)
    if fam.quad is not None and not fam.quad.is_zero():
        if np.any(np.abs(x) > fam.base.s / 2 + _SEAM_TOL):
            raise DomainError("quadratic-differential data lives on the flat stratum only")
        re = fam.quad.re_phi(x, y)
        im = fam.quad.im_phi(x, y)
        gxx = gxx + 2.0 * t * re
        gyy = gyy - 2.0 * t * re
        gxy = gxy + 2.0 * t * im
    return gxx, gyy, gxy


def gaussian_curvature_fd(E_fn: Callable, G_fn: Callable, x, y, h: float = 1e-3):
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
