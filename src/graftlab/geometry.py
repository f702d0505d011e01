"""The model grafted surface: a flat cylinder glued to two hyperbolic strips.

Coordinates: x longitudinal with the flat insert on |x| <= s/2 and strips of
half-width a outside it; y circumferential with period ell.  The metric is
dx^2 + G(x)^2 dy^2 with G = 1 on the insert and G = cosh(|x| - s/2) on the
strips, so G is C^{1,1}: G and G' are continuous at the seams x = +/- s/2
while G'' jumps by exactly 1 there.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError

_SEAM_TOL = 1e-12

#: The self-adjoint outer conditions of a strip, by the names that every
#: command, chart and strip solve accepts
OUTER_BCS = ("dirichlet", "neumann")

#: The 16-point Gauss-Legendre rule on [-1, 1]: its positive nodes and their
#: weights (the rule is symmetric), rounded to double from 50-digit values.
_GAUSS16 = (
    (0.09501250983763744, 0.1894506104550685),
    (0.2816035507792589, 0.18260341504492358),
    (0.45801677765722737, 0.16915651939500254),
    (0.6178762444026438, 0.14959598881657674),
    (0.755404408355003, 0.12462897125553388),
    (0.8656312023878318, 0.09515851168249279),
    (0.9445750230732326, 0.062253523938647894),
    (0.9894009349916499, 0.027152459411754096),
)
_GL_NODES = np.array([-x for x, _ in reversed(_GAUSS16)] + [x for x, _ in _GAUSS16])
_GL_WEIGHTS = np.array([w for _, w in reversed(_GAUSS16)] + [w for _, w in _GAUSS16])


def _gauss_legendre(edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(nodes, weights) of the 16-point Gauss-Legendre rule on each panel
    between consecutive edges, flattened panel by panel."""
    half = np.diff(edges)[:, None] / 2.0
    x = ((edges[:-1, None] + edges[1:, None]) / 2.0 + half * _GL_NODES).ravel()
    return x, (half * _GL_WEIGHTS).ravel()


def _panel_edges(a: float, mu_max: float) -> np.ndarray:
    """Panel edges on [0, a]: 1/mu_max, 2/mu_max, 4/mu_max, ... below
    min(a, 1), which resolves the seam layer of width 1/mu of every mode up
    to mu_max, then unit-width panels up to a; at mu_max = 0, unit-width
    panels alone, the last one ending at a (GraftedCollar.strip_nodes)."""
    inner = min(a, 1.0)
    edges = [0.0]
    step = 1.0 / mu_max if mu_max > 0.0 else inner
    while step < inner:
        edges.append(step)
        step *= 2.0
    edges.append(inner)
    while edges[-1] + 1.0 < a:
        edges.append(edges[-1] + 1.0)
    if a > inner:
        edges.append(a)
    return np.array(edges)


def gudermannian(a: float) -> float:
    """gd(a) = integral of sech from 0 to a = arctan(sinh(a)), elementwise.
    It rounds to pi/2 from a = 38 on, so a is capped at 40, where sinh is
    still finite."""
    return np.arctan(np.sinh(np.minimum(a, 40.0)))


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
        if np.less_equal(self.ell, 0).any():
            raise ValueError("ell must be positive")
        if np.less(self.s, 0).any():
            raise ValueError("s must be nonnegative")
        if np.less_equal(self.a, 0).any():
            raise ValueError("a must be positive")
        if self.outer_bc not in OUTER_BCS:
            raise ValueError(f"outer_bc must be 'dirichlet' or 'neumann', got {self.outer_bc!r}")

    @property
    def x_max(self) -> float:
        return self.s / 2 + self.a

    def _check_domain(self, x):
        if (np.abs(x) > self.x_max + _SEAM_TOL).any():
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

    @cached_property
    def strip_nodes(self) -> tuple[np.ndarray, np.ndarray]:
        """(w, g) at the nodes x = s/2 + xi of _strip_integral, once per chart:
        g is the mean of G(x) and G(-x), the two strips' G at a node.  G is
        even, so g is either of them bit for bit, and a defect of G on one
        strip alone still moves it."""
        xi, w = _gauss_legendre(_panel_edges(self.a, 0.0))
        x = self.s / 2 + xi
        return w, 0.5 * self.G(x) + 0.5 * self.G(-x)


def total_area(chart: GraftedCollar) -> float:
    """Closed-form area 2 ell sinh(a) + ell s."""
    return 2.0 * chart.ell * np.sinh(chart.a) + chart.ell * chart.s


def _strip_integral(chart: GraftedCollar, f) -> float:
    """Integral of f(G(x)) over both hyperbolic strips, s/2 <= |x| <= x_max,
    by the 16-point Gauss-Legendre rule on unit-width panels of |x| - s/2,
    which reaches rounding for G = cosh(|x| - s/2) and 1 / G.  The strips
    are mirror images, so it is twice the integral of f over the G that
    strip_nodes keeps for both."""
    w, g = chart.strip_nodes
    return 2.0 * float(w @ f(g))


def total_area_quadrature(chart: GraftedCollar) -> float:
    """Area by quadrature of ell * integral of G: ell s on the flat stratum
    plus each strip separately (_strip_integral), so the seam kink does not
    degrade the quadrature order."""
    return chart.ell * chart.s + chart.ell * _strip_integral(chart, np.positive)


def conformal_modulus(chart: GraftedCollar) -> float:
    """(2 gd(a) + s) / ell: height-over-circumference of the conformally
    equivalent flat cylinder.  Strictly decreasing in ell, increasing in s."""
    return (2.0 * gudermannian(chart.a) + chart.s) / chart.ell


def conformal_modulus_quadrature(chart: GraftedCollar) -> float:
    """Modulus by quadrature of (1/ell) integral dx / G(x): the flat
    stratum gives s, the strips their integral of 1 / G (_strip_integral)."""
    return (chart.s + _strip_integral(chart, np.reciprocal)) / chart.ell


def grafted_length(ell: float, s: float) -> float:
    """Length of the weighted curve in lamination space: L = ell * s."""
    if ell <= 0:
        raise ValueError("ell must be positive")
    if s < 0:
        raise ValueError("s must be nonnegative")
    return ell * s
