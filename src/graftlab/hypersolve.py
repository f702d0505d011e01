"""Per-mode boundary-value solutions on the hyperbolic strips.

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
this pair in closed form.  The strip energy keeps an independent Simpson
quadrature, so the Green identity checks below are not circular.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable, Iterable, Sequence

import numpy as np

from .geometry import gudermannian, simpson_weights


def _mu(n: int, ell: float) -> float:
    return 2.0 * np.pi * abs(n) / ell


@lru_cache(maxsize=8)
def _strip_grid(a: float):
    """(xi, w cosh xi, w / cosh xi) for the 2001-point Simpson grid on [0, a].

    Built once per strip width and shared by every mode on it; read-only,
    because every caller gets the same arrays.
    """
    xi = np.linspace(0.0, a, 2001)
    ch = np.cosh(xi)
    w = simpson_weights(xi)
    grid = (xi, w * ch, w / ch)
    for arr in grid:
        arr.setflags(write=False)
    return grid


def _pair(mu: float, xi, shift: float = 0.0):
    """Fundamental solutions (u, u', w, w') of the mode ODE at xi.

    mu > 0: u = (sinh xi + mu) exp(mu (theta - shift)) and
    w = (sinh xi - mu) exp(-mu theta), with u' and w' equal to
    (cosh^2 xi +/- mu sinh xi + mu^2) sech xi times the same exponential.
    A shift of 2 gd(a) keeps every exponent <= 0 on [0, a], so nothing
    overflows.  mu = 0: u = 1 + theta sinh xi and w = sinh xi.
    """
    sh = np.sinh(xi)
    ch = np.cosh(xi)
    theta = np.arctan(sh)
    if mu == 0.0:
        return 1.0 + theta * sh, sh / ch + theta * ch, sh, ch
    grow = np.exp(mu * (theta - shift))
    decay = np.exp(-mu * theta)
    return (
        (sh + mu) * grow,
        (ch + (mu * sh + mu * mu) / ch) * grow,
        (sh - mu) * decay,
        (ch + (mu * mu - mu * sh) / ch) * decay,
    )


def _unit_solution(n: int, ell: float, a: float, outer_bc: str):
    """(mu, shift, c_u, c_w): the unit seam solve is c_u u + c_w w.

    n >= 1, with S = sinh a, E = exp(-2 mu gd a), p+-(a) = cosh^2 a +- mu S + mu^2:
    c_u = alpha / (mu (alpha E + beta)), c_w = -beta / (mu (alpha E + beta)),
    (alpha, beta) = (S - mu, S + mu) for an outer Dirichlet condition and
    (p-(a), p+(a)) for an outer Neumann condition.
    n = 0: c_u = 1 and c_w = k, k = -(1/S + gd a) or -(gd a + S / cosh^2 a).
    """
    if a <= 0:
        raise ValueError("strip half-width a must be positive")
    if outer_bc not in ("dirichlet", "neumann"):
        raise ValueError(f"unknown outer boundary condition {outer_bc!r}")
    mu = _mu(n, ell)
    G = gudermannian(a)
    S, C = np.sinh(a), np.cosh(a)
    if mu == 0.0:
        k = -(1.0 / S + G) if outer_bc == "dirichlet" else -(G + S / C**2)
        return mu, 0.0, 1.0, k
    if outer_bc == "dirichlet":
        alpha, beta = S - mu, S + mu
    else:
        alpha, beta = C**2 - mu * S + mu**2, C**2 + mu * S + mu**2
    denom = mu * (alpha * np.exp(-2.0 * mu * G) + beta)
    return mu, 2.0 * G, alpha / denom, -beta / denom


@dataclass
class HyperbolicModeSolution:
    """One solved strip mode: its profile and seam DtN ratio."""

    n: int
    ell: float
    a: float
    outer_bc: str
    seam_dirichlet: complex
    dtn: float
    b_fn: Callable = field(repr=False)
    bp_fn: Callable = field(repr=False)

    @cached_property
    def interior_quadrature(self) -> tuple[complex, float]:
        """(integral of b cosh, energy integrand integral) on this strip.

        Energy integrand: (|b'|^2 + (mu^2/cosh^2 + 2)|b|^2) cosh(xi).  One
        composite Simpson quadrature per solved mode, cached, on the grid and
        weights that every mode of the strip width shares (_strip_grid); no
        scipy.integrate.
        """
        xi, w_cosh, w_sech = _strip_grid(self.a)
        b = self.b_fn(xi)
        bsq = np.abs(b) ** 2
        energy = w_cosh @ (np.abs(self.bp_fn(xi)) ** 2 + 2.0 * bsq)
        energy += _mu(self.n, self.ell) ** 2 * (w_sech @ bsq)
        return complex(w_cosh @ b), float(energy)


def mode_solve(
    n: int,
    ell: float,
    a: float,
    outer_bc: str = "dirichlet",
    seam_dirichlet: complex = 1.0,
) -> HyperbolicModeSolution:
    """Solve the strip mode BVP with the given seam Dirichlet value.

    Closed form: seam_dirichlet times the unit solve c_u u + c_w w of
    _unit_solution, on the scaled Poschl-Teller pair of _pair.
    """
    mu, shift, cu, cw = _unit_solution(n, ell, a, outer_bc)

    def b_fn(xi, sd=seam_dirichlet):
        u, _, w, _ = _pair(mu, xi, shift)
        return sd * (cu * u + cw * w)

    def bp_fn(xi, sd=seam_dirichlet):
        _, up, _, wp = _pair(mu, xi, shift)
        return sd * (cu * up + cw * wp)

    return HyperbolicModeSolution(
        n=n,
        ell=ell,
        a=a,
        outer_bc=outer_bc,
        seam_dirichlet=seam_dirichlet,
        dtn=float(bp_fn(0.0, sd=1.0)),
        b_fn=b_fn,
        bp_fn=bp_fn,
    )


def dtn(n: int, ell: float, a: float, outer_bc: str = "dirichlet", method: str = "auto") -> float:
    """Seam Neumann value per unit seam Dirichlet value, b'(0)/b(0).

    n >= 1: ((1 + mu^2) / mu) (alpha E - beta) / (alpha E + beta), with the
    (alpha, beta, E) of _unit_solution; n = 0: the k of _unit_solution.
    """
    # The only value is "auto": perfbench/run.py's self-test still passes
    # method="auto", so the keyword stays until the benchmark drops it.
    if method != "auto":
        raise ValueError(f"unknown dtn method {method!r}")
    mu, shift, cu, cw = _unit_solution(n, ell, a, outer_bc)
    _, up, _, wp = _pair(mu, 0.0, shift)
    return float(cu * up + cw * wp)


@dataclass
class StripModeExtension:
    """Cauchy extension of one mode into a strip from seam data (value, slope)."""

    n: int
    ell: float
    a: float
    seam_value: complex
    seam_slope: complex
    b_fn: Callable = field(repr=False)
    bp_fn: Callable = field(repr=False)


def mode_extend(
    n: int, ell: float, a: float, seam_value: complex, seam_slope: complex
) -> StripModeExtension:
    """Extend the mode from the seam with prescribed Cauchy data (v, p).

    Closed form on the unscaled pair of _pair: for n >= 1,
    b = A u + B w with A = (v/mu + p/(1+mu^2))/2 and B = (p/(1+mu^2) - v/mu)/2;
    for n = 0, b = v u + p w.  The growing solution is kept, so the profile
    grows exactly as the Cauchy problem does.

    Used to build globally matched fields: the strip-side profile that is
    continuous with the cylinder trace and carries a prescribed strip-side
    normal derivative.
    """
    mu = _mu(n, ell)
    v, p = seam_value, seam_slope
    if mu == 0.0:
        cu, cw = v, p
    else:
        cu = (v / mu + p / (1.0 + mu * mu)) / 2.0
        cw = (p / (1.0 + mu * mu) - v / mu) / 2.0

    def b_fn(xi):
        u, _, w, _ = _pair(mu, xi)
        return cu * u + cw * w

    def bp_fn(xi):
        _, up, _, wp = _pair(mu, xi)
        return cu * up + cw * wp

    return StripModeExtension(
        n=n, ell=ell, a=a, seam_value=seam_value, seam_slope=seam_slope, b_fn=b_fn, bp_fn=bp_fn
    )


def interior_integral(
    solutions: Iterable[HyperbolicModeSolution],
) -> tuple[float, float]:
    """(integral of H over the strips, integral of |grad H|^2 + 2 H^2).

    Area element is cosh(xi) dxi dy.  Only n = 0 modes contribute to the
    first integral; every mode contributes 2*ell times its energy integrand
    (the conjugate-pair doubling), n = 0 contributing ell times.
    """
    int_h = 0.0
    energy = 0.0
    for sol in solutions:
        ib, en = sol.interior_quadrature
        if sol.n == 0:
            int_h += sol.ell * float(np.real(ib))
            energy += sol.ell * en
        else:
            energy += 2.0 * sol.ell * en
    return int_h, energy


def seam_boundary_form(solutions: Iterable[HyperbolicModeSolution]) -> float:
    """Sum over modes of the seam Green's boundary term of H d_n H.

    The outward normal of the strip at the seam is -d/dxi, so each n = 0
    mode contributes -ell * b(0) b'(0) and each n >= 1 mode contributes
    -2 ell Re(b(0) conj(b'(0))).
    """
    total = 0.0
    for sol in solutions:
        bb = np.real(sol.b_fn(0.0) * np.conj(sol.bp_fn(0.0)))
        total -= (1.0 if sol.n == 0 else 2.0) * sol.ell * float(bb)
    return total


def outer_boundary_form(solutions: Iterable[HyperbolicModeSolution]) -> float:
    """Green's boundary term at xi = a (outward normal +d/dxi, line element
    cosh(a) dy).

    Identically zero for either homogeneous outer condition; computed anyway
    so the model's gap from a closed surface stays visible.
    """
    total = 0.0
    for sol in solutions:
        bb = np.real(sol.b_fn(sol.a) * np.conj(sol.bp_fn(sol.a))) * np.cosh(sol.a)
        total += (1.0 if sol.n == 0 else 2.0) * sol.ell * float(bb)
    return total


def greens_residual(
    solutions: Sequence[HyperbolicModeSolution],
    forcings: Sequence[Callable] | None = None,
) -> float:
    """Residual of the Green identity on the strips.

    integral(H * (Lap_h - 2) H) = -energy + seam + outer boundary terms.
    The left side vanishes for exact homogeneous mode solutions; a list of
    per-mode forcing callables f(xi) (the value of the operator applied to
    the manufactured profile) may be supplied for non-solutions.
    """
    lhs = 0.0
    if forcings is not None:
        for sol, f in zip(solutions, forcings):
            if f is None:
                continue
            xi, w_cosh, _ = _strip_grid(sol.a)
            integrand = np.real(sol.b_fn(xi) * np.conj(f(xi)))
            factor = 1.0 if sol.n == 0 else 2.0
            lhs += factor * sol.ell * (w_cosh @ integrand)

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
    """Package an arbitrary smooth profile as a mode plus its forcing.

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

    sol = HyperbolicModeSolution(
        n=n,
        ell=ell,
        a=a,
        outer_bc="manufactured",
        seam_dirichlet=complex(b_fn(0.0)),
        dtn=float(np.real(bp_fn(0.0) / b_fn(0.0))) if abs(b_fn(0.0)) > 0 else 0.0,
        b_fn=b_fn,
        bp_fn=bp_fn,
    )
    return sol, forcing
