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
layer of width 1/mu, so the Green identity checks below are not circular.
A solved mode is its seam Dirichlet value times a real unit profile, so
seams that share (ell, a, outer_bc) share one quadrature and one set of
endpoint values.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, Iterable, Sequence

import numpy as np

from .geometry import _gauss_legendre, gudermannian

#: Profiles evaluated together on the quadrature grid: a block of this many
#: rows keeps each (rows x points) array small, whatever the mode count.
_BLOCK = 32


def _mu(n, ell: float):
    return 2.0 * np.pi * np.abs(n) / ell


def _trig(xi):
    """(sinh xi, cosh xi, gd xi): all that _pair needs of the points xi."""
    sh = np.sinh(xi)
    return sh, np.cosh(xi), np.arctan(sh)


def _panel_edges(a: float, mu_max: float) -> np.ndarray:
    """Panel edges on [0, a]: 1/mu_max, 2/mu_max, 4/mu_max, ... below
    min(a, 1), which resolves the seam layer of width 1/mu of every mode up
    to mu_max, then unit-width panels up to a."""
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


def _pair(mu, trig, shift: float = 0.0):
    """Fundamental solutions (u, u', w, w') of the mode ODE at the points
    whose sinh, cosh and gd are trig (see _trig).  mu is a scalar, or an
    array that broadcasts against the points (a column of modes: one row
    each).

    mu > 0: u = (sinh xi + mu) exp(mu (theta - shift)) and
    w = (sinh xi - mu) exp(-mu theta), with u' and w' equal to
    (cosh^2 xi +/- mu sinh xi + mu^2) sech xi times the same exponential.
    A shift of 2 gd(a) keeps every exponent <= 0 on [0, a], so nothing
    overflows.  mu = 0: u = 1 + theta sinh xi and w = sinh xi.
    """
    sh, ch, theta = trig
    grow = np.exp(mu * (theta - shift))
    decay = np.exp(-mu * theta)
    mu_sh, mu_sq = mu * sh, mu * mu
    pair = (
        (sh + mu) * grow,
        (ch + (mu_sh + mu_sq) / ch) * grow,
        (sh - mu) * decay,
        (ch + (mu_sq - mu_sh) / ch) * decay,
    )
    zero = np.equal(mu, 0.0)
    if zero.any():
        pair0 = (1.0 + theta * sh, sh / ch + theta * ch, sh, ch)
        pair = tuple(np.where(zero, p0, p) for p0, p in zip(pair0, pair))
    return pair


def _unit_solution(mu: np.ndarray, a, outer_bc: str):
    """(shift, c_u, c_w): the unit seam solve of each mode is c_u u + c_w w.
    a is a scalar or an array that broadcasts against mu (one per point).

    n >= 1, with S = sinh a, E = exp(-2 mu gd a), p+-(a) = cosh^2 a +- mu S + mu^2:
    c_u = alpha / (mu (alpha E + beta)), c_w = -beta / (mu (alpha E + beta)),
    (alpha, beta) = (S - mu, S + mu) for an outer Dirichlet condition and
    (p-(a), p+(a)) for an outer Neumann condition.
    n = 0: c_u = 1 and c_w = k, k = -(1/S + gd a) or -(gd a + S / cosh^2 a).
    """
    if np.less_equal(a, 0).any():
        raise ValueError("strip half-width a must be positive")
    if outer_bc not in ("dirichlet", "neumann"):
        raise ValueError(f"unknown outer boundary condition {outer_bc!r}")
    G = gudermannian(a)
    S, C = np.sinh(a), np.cosh(a)
    if outer_bc == "dirichlet":
        alpha, beta = S - mu, S + mu
        k = -(1.0 / S + G)
    else:
        alpha, beta = C**2 - mu * S + mu**2, C**2 + mu * S + mu**2
        k = -(G + S / C**2)
    zero = mu == 0.0
    # mu = 0 rows take (1, k); the placeholder 1 keeps their quotient finite
    denom = np.where(zero, 1.0, mu) * (alpha * np.exp(-2.0 * mu * G) + beta)
    return 2.0 * G, np.where(zero, 1.0, alpha / denom), np.where(zero, k, -beta / denom)


@dataclass(eq=False)
class StripProfiles:
    """Profiles b_k of the modes ns[k] on the strip [0, a], with slopes b_k'.

    values(rows, xi, trig) returns (b, b') of the profiles ns[rows] as
    (rows, points) arrays; trig = _trig(xi) is passed in so that the
    quadrature grid's sinh, cosh and gd come once per grid.  The grid, the
    quadratures (in blocks of _BLOCK rows) and the endpoint values are
    computed once, on first use, and shared by every scaled copy
    (HyperbolicModeSolution).
    """

    ns: np.ndarray
    ell: float
    a: float
    values: Callable = field(repr=False)

    def __call__(self, xi):
        xi = np.asarray(xi, dtype=float)
        return self.values(slice(None), xi, _trig(xi))

    @cached_property
    def mu(self) -> np.ndarray:
        return _mu(self.ns, self.ell)

    @cached_property
    def grid(self) -> tuple:
        """(xi, _trig(xi), w cosh xi, w / cosh xi): the Gauss-Legendre rule on
        the panels of _panel_edges for the strip width and the largest mu of
        the profiles, shared by every profile."""
        xi, w = _gauss_legendre(_panel_edges(self.a, float(self.mu.max(initial=0.0))))
        trig = _trig(xi)
        return xi, trig, w * trig[1], w / trig[1]

    @cached_property
    def quadrature(self) -> tuple[np.ndarray, np.ndarray]:
        """(integral of b cosh, energy integrand integral) of each profile.

        Energy integrand: (|b'|^2 + (mu^2/cosh^2 + 2)|b|^2) cosh(xi).  One
        Gauss-Legendre quadrature on the grid that every profile of the
        strip shares (grid); no scipy.integrate.
        """
        mu = self.mu
        xi, trig, w_cosh, w_sech = self.grid
        ib, energy = [], []
        for start in range(0, len(self.ns), _BLOCK):
            rows = slice(start, start + _BLOCK)
            b, bp = self.values(rows, xi, trig)
            # b * b is np.abs(b) ** 2 bit for bit for real profiles
            bsq, bpsq = (np.abs(b) ** 2, np.abs(bp) ** 2) if np.iscomplexobj(b) else (b * b, bp * bp)
            ib.append(b @ w_cosh)
            energy.append((bpsq + 2.0 * bsq) @ w_cosh + mu[rows] ** 2 * (bsq @ w_sech))
        return np.concatenate(ib), np.concatenate(energy)

    @cached_property
    def ends(self) -> tuple[np.ndarray, ...]:
        """(b(0), b'(0), b(a), b'(a)), one entry per profile."""
        b, bp = self([0.0, self.a])
        return b[:, 0], bp[:, 0], b[:, 1], bp[:, 1]


@dataclass(eq=False)
class HyperbolicModeSolution:
    """Strip modes: scale[k] times the profile of mode ns[k].

    The quadratures and boundary values scale with the profiles: b enters
    them as scale * b, so each reports scale or |scale|^2 times the
    profiles' cached values.
    """

    outer_bc: str
    profiles: StripProfiles = field(repr=False)
    scale: np.ndarray

    @property
    def ns(self) -> np.ndarray:
        return self.profiles.ns

    @property
    def ell(self) -> float:
        return self.profiles.ell

    @property
    def a(self) -> float:
        return self.profiles.a

    @property
    def dtn(self) -> np.ndarray:
        """b'(0) of each profile, unscaled.  For the unit profiles of
        solve_modes (b(0) = 1) it is the seam Dirichlet-to-Neumann value; for
        a manufactured_mode profile it is that profile's b'(0), not
        b'(0)/b(0)."""
        return self.profiles.ends[1]

    @property
    def pair_weights(self) -> np.ndarray:
        """ell for n = 0 and 2 ell for n >= 1: a stored mode stands for itself
        and its conjugate, which doubles its share of every y-integral."""
        return np.where(self.ns == 0, 1.0, 2.0) * self.ell

    def b_fn(self, xi):
        """b at the points xi, for a one-mode solution (as from mode_solve)."""
        return self._one_mode(0, xi)

    def bp_fn(self, xi):
        """b' at the points xi, for a one-mode solution."""
        return self._one_mode(1, xi)

    def _one_mode(self, which: int, xi):
        if len(self.ns) != 1:
            raise ValueError(f"b_fn and bp_fn need a one-mode solution, not {len(self.ns)} modes")
        return self.scale[0] * self.profiles(xi)[which][0]

    def at_seam_values(self, seam_dirichlet) -> "HyperbolicModeSolution":
        """The same profiles scaled to other seam Dirichlet values (one per
        mode, or one for all); they share this solution's quadrature and
        endpoint values."""
        return replace(self, scale=_scales(seam_dirichlet, self.ns))

    @property
    def interior_quadrature(self) -> tuple[np.ndarray, np.ndarray]:
        """(integral of b cosh, energy integrand integral) per mode: the
        profiles' StripProfiles.quadrature, scaled."""
        ib, energy = self.profiles.quadrature
        return self.scale * ib, np.abs(self.scale) ** 2 * energy

    @cached_property
    def ends(self) -> tuple[np.ndarray, ...]:
        """(b(0), b'(0), b(a), b'(a)) per mode: the profiles' cached values,
        scaled."""
        return tuple(self.scale * v for v in self.profiles.ends)


def _scales(seam_dirichlet, ns: np.ndarray) -> np.ndarray:
    return np.full(ns.shape, seam_dirichlet, dtype=complex)


def _profiles(ns: np.ndarray, ell: float, a: float, shift: float, cu, cw) -> StripProfiles:
    """The profiles c_u u + c_w w of the modes ns, one row each, on the pair
    of _pair with the given shift, evaluated as one (rows x points) array."""
    mu = _mu(ns, ell)

    def values(rows, xi, trig):
        col = (rows,) + (None,) * np.ndim(xi)
        u, up, w, wp = _pair(mu[col], trig, shift)
        return cu[col] * u + cw[col] * w, cu[col] * up + cw[col] * wp

    return StripProfiles(ns=ns, ell=ell, a=a, values=values)


def solve_modes(ns, ell: float, a: float, outer_bc: str = "dirichlet") -> HyperbolicModeSolution:
    """Unit seam solves of the strip mode BVP for every mode in ns at once.

    Closed form: the unit solve c_u u + c_w w of _unit_solution on the
    scaled Poschl-Teller pair of _pair (_profiles); seam Dirichlet values
    come from at_seam_values.
    """
    ns = np.asarray(ns, dtype=int).ravel()
    profiles = _profiles(ns, ell, a, *_unit_solution(_mu(ns, ell), a, outer_bc))
    return HyperbolicModeSolution(outer_bc=outer_bc, profiles=profiles, scale=_scales(1.0, ns))


def mode_solve(
    n: int,
    ell: float,
    a: float,
    outer_bc: str = "dirichlet",
    seam_dirichlet: complex = 1.0,
) -> HyperbolicModeSolution:
    """Solve one strip mode BVP with the given seam Dirichlet value: the
    one-mode case of solve_modes."""
    return solve_modes([n], ell, a, outer_bc).at_seam_values(seam_dirichlet)


def seam_dtn(ns, ell, a, outer_bc: str = "dirichlet") -> np.ndarray:
    """Seam Neumann value per unit seam Dirichlet value, b'(0)/b(0), of each
    mode in ns (_unit_solution on _pair at xi = 0); ell and a may be arrays
    that broadcast against ns, for a (points x modes) array.

    n >= 1: ((1 + mu^2) / mu) (alpha E - beta) / (alpha E + beta), with the
    (alpha, beta, E) of _unit_solution; n = 0: the k of _unit_solution.
    """
    mu = _mu(np.asarray(ns, dtype=int), ell)
    shift, cu, cw = _unit_solution(mu, a, outer_bc)
    _, up, _, wp = _pair(mu, _trig(0.0), shift)
    return cu * up + cw * wp


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

    Closed form on the unscaled pair of _pair: for n >= 1,
    b = A u + B w with A = (v/mu + p/(1+mu^2))/2 and B = (p/(1+mu^2) - v/mu)/2;
    for n = 0, b = v u + p w.  The growing solution is kept, so the profile
    grows exactly as the Cauchy problem does.

    Used to build globally matched fields: the strip-side profile that is
    continuous with the cylinder trace and carries a prescribed strip-side
    normal derivative.
    """
    ns = np.asarray(ns, dtype=int).ravel()
    mu = _mu(ns, ell)
    v, p = _scales(seam_values, ns), _scales(seam_slopes, ns)
    zero = mu == 0.0
    # mu = 0 rows take (v, p); the placeholder 1 keeps their quotient finite
    v_mu, p_mu = v / np.where(zero, 1.0, mu), p / (1.0 + mu * mu)
    cu = np.where(zero, v, (v_mu + p_mu) / 2.0)
    cw = np.where(zero, p, (p_mu - v_mu) / 2.0)
    return _profiles(ns, ell, a, 0.0, cu, cw)


def interior_integral(
    solutions: Iterable[HyperbolicModeSolution],
) -> tuple[float, float]:
    """(integral of H over the strips, integral of |grad H|^2 + 2 H^2).

    Area element is cosh(xi) dxi dy.  Only n = 0 modes contribute to the
    first integral; every mode contributes its pair weight (ell for n = 0,
    2 ell for the conjugate pair of n >= 1) times its energy integrand.
    """
    int_h = 0.0
    energy = 0.0
    for sol in solutions:
        ib, en = sol.interior_quadrature
        int_h += sol.ell * float(np.real(ib[sol.ns == 0]).sum())
        energy += float(sol.pair_weights @ en)
    return int_h, energy


def seam_boundary_form(solutions: Iterable[HyperbolicModeSolution]) -> float:
    """Sum over modes of the seam Green's boundary term of H d_n H.

    The outward normal of the strip at the seam is -d/dxi, so each mode
    contributes minus its pair weight times Re(b(0) conj(b'(0))).
    """
    total = 0.0
    for sol in solutions:
        b0, bp0, _, _ = sol.ends
        total -= float(sol.pair_weights @ np.real(b0 * np.conj(bp0)))
    return total


def outer_boundary_form(solutions: Iterable[HyperbolicModeSolution]) -> float:
    """Green's boundary term at xi = a (outward normal +d/dxi, line element
    cosh(a) dy).

    Identically zero for either homogeneous outer condition; computed anyway
    so the model's gap from a closed surface stays visible.
    """
    total = 0.0
    for sol in solutions:
        _, _, ba, bpa = sol.ends
        total += float(sol.pair_weights @ np.real(ba * np.conj(bpa))) * np.cosh(sol.a)
    return total


def greens_residual(
    solutions: Sequence[HyperbolicModeSolution],
    forcings: Sequence[Callable] | None = None,
) -> float:
    """Residual of the Green identity on the strips.

    integral(H * (Lap_h - 2) H) = -energy + seam + outer boundary terms.
    The left side vanishes for exact homogeneous mode solutions; one forcing
    callable f(xi) per solution (the value of the operator applied to a
    manufactured profile, broadcasting over its modes) may be supplied for
    non-solutions.
    """
    lhs = 0.0
    if forcings is not None:
        for sol, f in zip(solutions, forcings):
            if f is None:
                continue
            xi, _, w_cosh, _ = sol.profiles.grid
            b = sol.scale[:, None] * sol.profiles(xi)[0]
            lhs += float(sol.pair_weights @ (np.real(b * np.conj(f(xi))) @ w_cosh))

    _, energy = interior_integral(solutions)
    rhs = -energy + seam_boundary_form(solutions) + outer_boundary_form(solutions)
    return float(abs(lhs - rhs))


def manufactured_mode(
    n: int,
    ell: float,
    a: float,
    b_fn: Callable,
    bp_fn: Callable,
    bpp_fn: Callable,
) -> tuple[HyperbolicModeSolution, Callable]:
    """Package an arbitrary smooth profile as a one-mode solution (unit
    scale) plus its forcing.

    Returns the pseudo-solution and f(xi) = b'' + tanh b' - (mu^2/cosh^2+2) b,
    for method-of-manufactured-solutions checks of the Green identity.
    """
    musq = _mu(n, ell) ** 2

    def forcing(xi):
        return (
            bpp_fn(xi)
            + np.tanh(xi) * bp_fn(xi)
            - (musq / np.cosh(xi) ** 2 + 2.0) * b_fn(xi)
        )

    def values(rows, xi, trig):
        return tuple(np.broadcast_to(fn(xi), xi.shape)[None] for fn in (b_fn, bp_fn))

    ns = np.array([n])
    profiles = StripProfiles(ns=ns, ell=ell, a=a, values=values)
    sol = HyperbolicModeSolution(outer_bc="manufactured", profiles=profiles, scale=_scales(1.0, ns))
    return sol, forcing
