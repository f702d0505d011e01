"""Strip mode boundary-value solutions on the hyperbolic strips.

Each strip carries the metric d(xi)^2 + cosh(xi)^2 dy^2 with xi in [0, a]
measured from the seam.  Separating (Laplace-Beltrami - 2) u = 0 with
u = b(xi) exp(2 pi i n y / ell) gives the mode ODE

    b'' + tanh(xi) b' - (mu^2 / cosh(xi)^2 + 2) b = 0,    mu = 2 pi n / ell.

In theta = gd(xi) it is the l = 1 Poschl-Teller equation
b_theta_theta = (mu^2 + 2 sec^2 theta) b, whose solutions are elementary
(Cooper, Khare, Sukhatme, "Supersymmetry and quantum mechanics",
Phys. Rep. 251, 1995):

    n >= 1:  (sinh xi + mu) exp(mu theta)  and  (sinh xi - mu) exp(-mu theta),
    n = 0:   1 + theta sinh xi             and  sinh xi.

Every profile, Dirichlet-to-Neumann value and Cauchy extension is built from
this pair in closed form, for all modes of a strip at once: one
(modes x points) array pass.  The strip energy keeps an independent
quadrature, a 16-point Gauss-Legendre rule on panels graded toward the seam
layer of width 1/mu, so the Green identity check on strip_sums, the one
pass that sums every strip quantity, is not circular.  A solved mode is its
seam Dirichlet value times a real unit profile (solve_modes), so strip_sums
scales one quadrature and one set of endpoint values to every seam that
shares (ell, a, outer_bc).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

from . import geometry

#: Profiles evaluated together on the quadrature grid: R rows split into
#: R // _BLOCK equal blocks of _BLOCK to 2 _BLOCK - 1 rows (one block below
#: 2 _BLOCK rows) keep each (rows x points) array small, whatever the mode
#: count, and no block is a short remainder that costs a full block's numpy
#: calls.
_BLOCK = 32


def _mu(n, ell: float):
    return 2.0 * np.pi * np.abs(n) / ell


def _trig(xi):
    """(sinh xi, cosh xi, gd xi): all that StripProfiles.values needs of the
    points xi."""
    sh = np.sinh(xi)
    return sh, np.cosh(xi), np.arctan(sh)


def _gd_offset(sh, edge: tuple):
    """gd xi - gd a at the points whose sinh is sh, edge = (sinh a, gd a),
    as atan((sinh xi - sinh a) / (1 + sinh xi sinh a)): no cancellation of
    gd xi against gd a near xi = a, where b' multiplies it by cosh xi.  Both
    terms of the quotient are scaled by the power of two that brings a
    sinh a above 1 into [1/2, 1): an exact scaling that keeps sinh xi sinh a
    finite up to a = 710.  At xi = 0 the quotient is -sinh a, so the offset
    is -gd a bit for bit."""
    scale = math.ldexp(1.0, -max(math.frexp(edge[0])[1], 0))
    s_a = edge[0] * scale
    return np.arctan((sh * scale - s_a) / (scale + sh * s_a))


def _strip_constants(mu, a, outer_bc: str):
    """(m, gd a, d, E - 1, c) of the modes mu on strips of half-width a (a
    scalar, or an array that broadcasts against mu); m is mu with 1 at n = 0.

    n >= 1: d = 1 - alpha / beta and E - 1 = expm1(-2 mu gd a), with
    (alpha, beta) = (S - mu, S + mu) for an outer Dirichlet condition and
    (C^2 - mu S + mu^2, C^2 + mu S + mu^2) for an outer Neumann one, S and C
    the sinh and cosh of a.  n = 0: the unit solve is 1 + (gd xi + k) sinh xi
    with gd a + k = c = -1/S or -S / C^2, so its DtN value is k = c - gd a.
    sech and csch come from exp(-a), and the outer-Dirichlet d = 2p / (1 + p),
    p = mu csch a, is 2 above p = 1e300, where 1 + p rounds to p and 2p or p
    itself may overflow.  Nothing overflows at any a > 0 or mu but csch a,
    which only an outer Dirichlet condition reads: below a = 5.6e-309 it
    passes the double range, and c is -inf there, with no warning.  A width
    a <= 0, or an outer condition not in geometry.OUTER_BCS, is a ValueError.
    """
    if np.less_equal(a, 0).any():
        raise ValueError("strip half-width a must be positive")
    if outer_bc not in geometry.OUTER_BCS:
        raise ValueError(f"unknown outer boundary condition {outer_bc!r}")
    ea = np.exp(-np.asarray(a, dtype=float))
    G = geometry.gudermannian(a)
    m = np.where(mu == 0.0, 1.0, mu)
    if outer_bc == "dirichlet":
        with np.errstate(over="ignore", invalid="ignore"):
            csch = 2.0 * ea / -np.expm1(-2.0 * a)
            p = m * csch
            d = np.where(p > 1e300, 2.0, 2.0 * p / (1.0 + p))
        c = -csch
    else:
        sech, th = 2.0 * ea / (1.0 + ea * ea), np.tanh(a)
        t, q = th * sech, 1.0 / m + m * sech * sech
        d, c = 2.0 * t / (q + t), -t
    return m, G, d, np.expm1(-2.0 * m * G), c


def _unit_solution(mu: np.ndarray, a, outer_bc: str):
    """(edge, c_u, c_w): the unit seam solve of each mode is c_u u + c_w w,
    on the pair of StripProfiles.values shifted to the outer edge =
    (sinh a, gd a).
    n >= 1: c_u = (1 - d) / (mu den) and c_w = -1 / (mu den),
    den = 2 - d + (1 - d)(E - 1) = (alpha E + beta) / beta; n = 0: c_u = 1
    and c_w = c (_strip_constants), so b = 1 + ((gd xi - gd a) + c) sinh xi
    and b'(a) = tanh a + c cosh a keep their rounding off the cancellation
    of gd xi + k at xi = a: b'(a) is within a few eps of its 50-digit value
    (tested at a = 1, 3 and 10), and b'(0) is the DtN value k bit for bit.
    The unit solve does not overflow below a = 710.5, where the sinh of the
    quadrature points does."""
    m, G, d, em, c = _strip_constants(mu, a, outer_bc)
    mden = m * (2.0 - d + (1.0 - d) * em)
    zero = mu == 0.0
    return (np.sinh(a), G), np.where(zero, 1.0, (1.0 - d) / mden), np.where(zero, c, -1.0 / mden)


@dataclass(eq=False)
class StripProfiles:
    """Profiles b_k = cu[k] u + cw[k] w of the modes ns[k] on the strip
    [0, a], with slopes b_k', on the pair (u, w) of values for edge.

    On first use each block of _BLOCK to 2 _BLOCK - 1 rows is evaluated
    once, on the grid's nodes and both ends, for its quadratures and
    endpoint values (_one_pass), which strip_sums scales to each seam's
    Dirichlet values; calling the profiles evaluates them at any other
    points.
    """

    ns: np.ndarray
    ell: float
    a: float
    edge: tuple | None
    cu: np.ndarray
    cw: np.ndarray

    def values(self, rows, xi, trig):
        """(b, b') of the profiles ns[rows] at the points xi, as (rows,
        points) arrays; trig = _trig(xi) is passed in so that the quadrature
        grid's sinh, cosh and gd come once per grid.

        The pair: mu > 0: u = (sinh xi + mu) exp(mu theta) and w = (sinh xi
        - mu) exp(-mu theta), with u' and w' equal to (cosh^2 xi +/- mu sinh
        xi + mu^2) sech xi times the same exponential.  mu = 0: u = 1 +
        theta sinh xi and w = sinh xi.  An outer edge = (sinh a, gd a)
        shifts u to the same solution times exp(-2 mu gd a), which keeps
        every exponent <= 0 on [0, a] so that nothing overflows, and at
        mu = 0 to u - (gd a) w = 1 + (theta - gd a) sinh xi, with
        theta - gd a from _gd_offset.  The n = 0 rows are written over the
        mu > 0 form, which is finite there.
        """
        sh, ch, theta = trig
        col = (rows,) + (None,) * xi.ndim
        mu, cu, cw = self.mu[col], self.cu[col], self.cw[col]
        shift = 0.0 if self.edge is None else 2.0 * self.edge[1]
        grow, decay = np.exp(mu * (theta - shift)), np.exp(-mu * theta)
        mu_sh, mu_sq = mu * sh, mu * mu
        b = cu * ((sh + mu) * grow) + cw * ((sh - mu) * decay)
        bp = cu * ((ch + (mu_sh + mu_sq) / ch) * grow) + cw * ((ch + (mu_sq - mu_sh) / ch) * decay)
        zero = np.flatnonzero(self.mu[rows] == 0.0)
        if zero.size:
            offset = theta if self.edge is None else _gd_offset(sh, self.edge)
            b[zero] = cu[zero] * (1.0 + offset * sh) + cw[zero] * sh
            bp[zero] = cu[zero] * (sh / ch + offset * ch) + cw[zero] * ch
        return b, bp

    def __call__(self, xi):
        xi = np.asarray(xi, dtype=float)
        return self.values(slice(None), xi, _trig(xi))

    @cached_property
    def mu(self) -> np.ndarray:
        return _mu(self.ns, self.ell)

    @cached_property
    def grid(self) -> tuple:
        """(xi, _trig(xi), w cosh xi, w / cosh xi): the Gauss-Legendre rule on
        the panels of geometry._panel_edges for the strip width and the
        largest mu of the profiles, shared by every profile."""
        xi, w = geometry._gauss_legendre(geometry._panel_edges(self.a, float(self.mu.max(initial=0.0))))
        trig = _trig(xi)
        return xi, trig, w * trig[1], w / trig[1]

    @cached_property
    def _one_pass(self) -> tuple[np.ndarray, tuple]:
        """(energy integral, (b(0), b'(0), b(a), b'(a))) of each profile,
        from one values call per block of _BLOCK to 2 _BLOCK - 1 rows, on
        the nodes of grid followed by xi = 0 and a.

        Energy integrand: (b'^2 + (mu^2/cosh^2 + 2) b^2) cosh(xi), by the
        Gauss-Legendre rule of grid that every profile of the strip shares;
        no scipy.integrate.  Only the real unit profiles of solve_modes come
        here: mode_extend's complex profiles are only ever called.  For
        n >= 1 the unit profile c_u u + c_w w cancels at large a, and the
        energy loses accuracy there: the strip Green check fails from a
        strip width that falls as ell grows (README, Known limits, gives the
        onset per ell).  Only reading the strip sums runs this pass, so
        geodesic, which reads none, is not affected.
        """
        xi, trig, w_cosh, w_sech = self.grid
        xi_ends = np.array([0.0, self.a])
        points, trig = np.concatenate((xi, xi_ends)), tuple(map(np.concatenate, zip(trig, _trig(xi_ends))))
        count, n = len(self.ns), len(xi)
        blocks = max(1, count // _BLOCK)
        energy, ends = np.empty(count), np.empty((4, count))
        for k in range(blocks):
            rows = slice(count * k // blocks, count * (k + 1) // blocks)
            b_all, bp_all = self.values(rows, points, trig)
            b, bp = b_all[:, :n], bp_all[:, :n]
            bsq, bpsq = b * b, bp * bp
            energy[rows] = (bpsq + 2.0 * bsq) @ w_cosh + self.mu[rows] ** 2 * (bsq @ w_sech)
            ends[:, rows] = b_all[:, n], bp_all[:, n], b_all[:, -1], bp_all[:, -1]
        return energy, tuple(ends)

    quadrature = property(lambda self: self._one_pass[0], doc="The energy integral of each profile.")
    ends = property(lambda self: self._one_pass[1], doc="(b(0), b'(0), b(a), b'(a)), one entry per profile.")


def solve_modes(ns, ell: float, a: float, outer_bc: str = "dirichlet") -> StripProfiles:
    """Unit seam solves (b(0) = 1) of the strip mode BVP for every mode in ns
    at once, so ends[1] is each mode's seam Dirichlet-to-Neumann value.

    Closed form: the unit solve c_u u + c_w w of _unit_solution on the
    scaled Poschl-Teller pair of StripProfiles.values; strip_sums scales
    them to seam Dirichlet values.  A one-mode solve is solve_modes([n], ...).
    """
    ns = np.asarray(ns, dtype=int).ravel()
    return StripProfiles(ns, ell, a, *_unit_solution(_mu(ns, ell), a, outer_bc))


def seam_dtn(ns, ell, a, outer_bc: str = "dirichlet") -> np.ndarray:
    """Seam Neumann value per unit seam Dirichlet value, b'(0)/b(0), of each
    mode in ns; ell and a may be arrays that broadcast against ns, for a
    (points x modes) array.  n >= 1: (mu + 1/mu) (r E - 1) / (r E + 1),
    r = alpha / beta = 1 - d, formed from d and E - 1 without cancellation;
    n = 0: k = c - gd a (_strip_constants).  Finite and negative for every
    a > 0 and mode, but -inf, with no warning, for an outer Dirichlet
    condition where a is below about 5.6e-309: there the value, about -1/a,
    passes the double range, and the n >= 1 quotient overflows, or divides
    by a denominator that underflows to 0 where 2 mu gd a does (as at
    a = 8.8e-320, ell = 5e10)."""
    mu = _mu(np.asarray(ns, dtype=int), ell)
    m, G, d, em, c = _strip_constants(mu, a, outer_bc)
    with np.errstate(over="ignore", divide="ignore"):
        return np.where(mu == 0.0, c - G, (m + 1.0 / m) * ((1.0 - d) * em - d) / (2.0 - d + (1.0 - d) * em))


def dtn(n: int, ell: float, a: float, outer_bc: str = "dirichlet", method: str = "auto") -> float:
    """seam_dtn of the one mode n."""
    # The only value is "auto": perfbench/run.py's self-test still passes
    # method="auto", so the keyword stays until the benchmark drops it.
    if method != "auto":
        raise ValueError(f"unknown dtn method {method!r}")
    return float(seam_dtn([n], ell, a, outer_bc)[0])


def mode_extend(ns, ell: float, a: float, seam_values, seam_slopes) -> StripProfiles:
    """Extend each mode ns[k] from the seam with prescribed Cauchy data
    (v, p) = (seam_values[k], seam_slopes[k]), as one row of profiles.

    Closed form on the unscaled pair of StripProfiles.values: for n >= 1,
    b = A u + B w with A = (v/mu + p/(1+mu^2))/2 and B = (p/(1+mu^2) - v/mu)/2;
    for n = 0, b = v u + p w.  The growing solution is kept, so the profile
    grows exactly as the Cauchy problem does.

    Used to build globally matched fields: the strip-side profile that is
    continuous with the cylinder trace and carries a prescribed strip-side
    normal derivative.
    """
    ns = np.asarray(ns, dtype=int).ravel()
    mu = _mu(ns, ell)
    v, p = (np.full(ns.shape, x, dtype=complex) for x in (seam_values, seam_slopes))
    zero = mu == 0.0
    # mu = 0 rows take (v, p); the placeholder 1 keeps their quotient finite
    v_mu, p_mu = v / np.where(zero, 1.0, mu), p / (1.0 + mu * mu)
    cu = np.where(zero, v, (v_mu + p_mu) / 2.0)
    cw = np.where(zero, p, (p_mu - v_mu) / 2.0)
    return StripProfiles(ns, ell, a, None, cu, cw)


def strip_sums(units: StripProfiles, seams: Iterable) -> tuple[float, float, float]:
    """(energy |grad H|^2 + 2 H^2, seam Green form, outer Green form) over
    the strips, in one pass: area element cosh(xi) dxi dy, pair weights,
    seam normal -d/dxi, outer line element cosh(a) dy.  Each strip is the
    unit profiles times one array of seam Dirichlet values, one per mode of
    units; b enters every sum as scale * b, so each takes |scale|^2 times
    the profiles' cached quadrature or scale times their endpoint values.
    The outer form vanishes for either homogeneous outer condition; it is
    kept so the gap from a closed surface shows."""
    en, cosh_a = units.quadrature, np.cosh(units.a)
    # a stored mode n >= 1 stands for itself and its conjugate, which
    # doubles its share of every y-integral
    weights = np.where(units.ns == 0, 1.0, 2.0) * units.ell
    energy = seam = outer = 0.0
    for values in seams:
        scale = np.asarray(values, dtype=complex)
        b0, bp0, ba, bpa = (scale * v for v in units.ends)
        energy += float(weights @ (np.abs(scale) ** 2 * en))
        seam -= float(weights @ (b0 * np.conj(bp0)).real)
        outer += float(weights @ (ba * np.conj(bpa)).real) * cosh_a
    return energy, seam, outer
