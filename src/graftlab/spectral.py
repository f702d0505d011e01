"""Fourier-series fields on the flat cylinder.

The cylinder is {(x, y) : |x| <= s/2, y in [0, ell)} with the flat metric
dx^2 + dy^2.  A real harmonic field splits into a linear-in-x mean part and
cosh/sinh modes in x times exp(2*pi*i*n*y/ell) in y.  We store only n >= 1;
the n < 0 coefficients are implied by reality: c_{-n} = conj(c_n),
d_{-n} = -conj(d_n), so each stored mode contributes twice its real part.

Coefficients are dense arrays indexed by n, and 0 at n = 0: a trace's
constant is its mean.  A field or trace may carry a leading points axis,
one field per point of a parameter sweep (ell, s and the means too), and a
trace the sides of a seam datum on a leading axis ahead of it (seam_part).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

import numpy as np

from .errors import DomainError

# Threshold below which a mean (constant) coefficient counts as zero when
# deciding solvability / singularity questions.
MEAN_TOL = 1e-13

#: The cylinder mode series sums over n >= 1 with conjugate modes paired,
#: doubling each weight; its factor 2/(pi n) was frozen against the seam quadrature.
PAIRING_FACTOR = 2.0

#: The sides of a seam datum: the seams x = -s/2 and x = +s/2, and the even
#: and odd parts of the pair, (right + left)/2 and (right - left)/2
SIDES = ("left", "right", "even", "odd")


def seam_part(side, even, odd):
    """The side of a seam pair given as its even and odd parts: even, odd,
    even - odd on the left seam or even + odd on the right.  The one place
    that the seams' sign convention is written.  A tuple of sides gives one
    entry per side on a leading axis, in the order given, the parts
    broadcast against each other."""
    if isinstance(side, tuple):
        if getattr(even, "shape", ()) != getattr(odd, "shape", ()):
            even, odd = np.broadcast_arrays(even, odd)
        return np.array([seam_part(one, even, odd) for one in side])
    if side == "even":
        return even
    if side == "odd":
        return odd
    if side == "left":
        return even - odd
    if side == "right":
        return even + odd
    raise ValueError(f"side must be one of {SIDES}, got {side!r}")


#: The largest ell squared as it is: 2 (4 pi^2 n^2 + ell^2) stays a finite double
LARGE_ELL = 2.0**510


def sum_of_squares(n, ell):
    """(p, e) with 4 pi^2 n^2 + ell^2 = p 2^e, for mode indices n against
    circumferences ell, broadcast as given.  e is 0 and p the sum as it is
    unless an ell passes LARGE_ELL, one comparison of the largest ell read
    as a Python number off the few points; then e scales each such ell
    exactly into [1/2, 1) before it is squared, where ell^2 would overflow,
    so that p is about ell there, and e is 0 at the other points."""
    if max(np.ravel(ell).tolist()) <= LARGE_ELL:
        return 4.0 * np.pi**2 * n**2 + ell**2, 0
    e = np.where(np.greater(ell, LARGE_ELL), np.frexp(ell)[1], 0)
    return np.ldexp(np.ldexp(4.0 * np.pi**2 * n**2, -2 * e) + np.ldexp(ell, -e) ** 2, e), e


#: The largest mode argument kept finite: twice it is a finite double
_MAX_ARG = float(np.finfo(float).max) / 4.0


def mode_arg(n, s, ell) -> np.ndarray:
    """pi n s / ell, in that order of operations, for ascending mode indices
    n >= 0 against heights s and circumferences ell, broadcast as given:
    mode n's cosh and sinh argument on the seam x = s/2.  It is at most
    _MAX_ARG wherever pi max(n) max(s) <= _MAX_ARG min(1, min(ell)), the
    one test made in range.  Past that, at the top of the s range or at an
    s / ell above about 1e307 / n, an argument above _MAX_ARG is inf, with
    no overflow warning from it or from 2 arg."""
    n, s, ell = np.asarray(n), np.asarray(s), np.asarray(ell)
    # on Python numbers, as the points are few: their product overflows to
    # inf with no warning
    top = np.pi * max(1, n.flat[-1].item()) * max(s.ravel().tolist())
    if top <= _MAX_ARG * min(1.0, *ell.ravel().tolist()):
        return np.pi * n * s / ell
    with np.errstate(over="ignore"):
        arg = np.pi * n * s / ell
    return np.where(arg > _MAX_ARG, np.inf, arg)


def _as_pair(x, y):
    return np.asarray(x, dtype=float), np.asarray(y, dtype=float)


def _dense(modes: Mapping[int, complex]) -> np.ndarray:
    """The values of a {n: c} mapping as a complex array holding c at index n
    and 0 at every index without an entry; ValueError for an index n < 1."""
    if min(modes, default=1) < 1:
        raise ValueError("mode indices must be >= 1: a constant is the mean")
    out = np.zeros(max(modes, default=0) + 1, dtype=complex)
    out[list(modes)] = list(modes.values())
    return out


def _no_mode_at_0(*coefs) -> None:
    if any(np.count_nonzero(np.asarray(coef)[..., 0]) for coef in coefs):
        raise ValueError("index 0 holds no mode: a constant is the mean")


def _synthesize(mean, coef: np.ndarray, npts: int) -> np.ndarray:
    """mean + sum_n 2 Re(coef_n w^(n j)), w = exp(2 pi i / npts), at
    j = 0..npts-1, from one inverse real FFT over every side and point of
    the leading axes.  The mean's axes are coef's leading ones: a mean
    without a points axis holds at every point.  Only on a grid of
    npts > 2 nmax points, as every seam_points grid is: there a product of
    two traces is integrated exactly by the trapezoid rule, mode n is bin n
    and bin 0 holds the mean alone.  ValueError on a smaller grid.
    """
    nmax = coef.shape[-1] - 1
    if npts <= 2 * nmax:
        raise ValueError(f"{npts} seam points cannot resolve mode {nmax}: the trapezoid rule is exact above {2 * nmax}")
    spectrum = np.zeros(coef.shape[:-1] + (npts // 2 + 1,), dtype=complex)
    # added to 0, as the modes are: -0.0 enters as 0.0
    spectrum[..., 0] += np.reshape(mean, np.shape(mean) + (1,) * (coef.ndim - 1 - np.ndim(mean)))
    spectrum[..., 1 : nmax + 1] += coef[..., 1:]
    return np.fft.irfft(spectrum, npts, norm="forward")


def _series(x, y, ell: float, c: np.ndarray, d: np.ndarray) -> np.ndarray:
    """sum_n 2 Re[(c_n cosh(k n x) + d_n sinh(k n x)) exp(i k n y)],
    k = 2 pi / ell, at each point of the broadcast (x, y) of a one-point
    series, over a trailing axis of its nonzero modes (so a zero mode never
    multiplies 0 by an overflowing cosh).  Each mode's x profile is computed
    on the shape of x and its exponential on the shape of y; on an open
    tensor grid (xs[:, None], ys) the sum is one matrix product."""
    n = np.flatnonzero((c != 0) | (d != 0))
    kn = 2.0 * np.pi / ell * n
    x, y = _as_pair(x, y)
    grid = x.ndim == 2 and x.shape[1] == 1 and y.ndim == 1
    x, y = (x if grid else x[..., None]), y[..., None]
    profile = c[n] * np.cosh(kn * x) + d[n] * np.sinh(kn * x)
    if grid:
        return 2.0 * (profile @ np.exp(1j * kn * y).T).real
    return 2.0 * np.einsum("...n,...n->...", profile, np.exp(1j * kn * y)).real


@dataclass(init=False, eq=False)
class TraceModes:
    """Fourier data of a real function of y on one seam circle or one part
    of a seam pair (side "even" or "odd", seam_part), or on several: side a
    tuple of sides, with one entry of coef and mean per side on a leading
    axis, in the order given (a seam pair is one trace, side ("even",
    "odd")).

    kind is one of "dirichlet", "neumann_flat" (d/dx from the cylinder side),
    "neumann_hyperbolic" (d/dx from the strip side), "variation" (the normal
    variation V of the seam geodesic) or "amended_variation" (V amended for
    the quadratic differential, W; see the variation module).  Its constant
    is mean and coef[..., n] its mode n >= 1 (coef[..., 0] is 0), which
    carries the implied conjugate-symmetric extension; a {n: c} mapping may
    be passed as modes instead.  No field is reassigned: seam grids are kept.
    """

    side: str | tuple[str, ...]
    kind: str
    ell: float
    mean: float | np.ndarray
    coef: np.ndarray

    def __init__(self, side, kind, ell, mean, modes=None, coef=None):
        if not set(side if isinstance(side, tuple) else (side,)) <= set(SIDES):
            raise ValueError(f"side must be one of {SIDES} or a tuple of them, got {side!r}")
        if kind not in ("dirichlet", "neumann_flat", "neumann_hyperbolic", "variation", "amended_variation"):
            raise ValueError(f"unknown trace kind {kind!r}")
        self.side, self.kind, self.ell, self.mean = side, kind, ell, mean
        self.coef = _dense(modes or {}) if coef is None else np.asarray(coef)
        _no_mode_at_0(self.coef)
        self._grids: dict[int, np.ndarray] = {}

    @property
    def modes(self) -> dict[int, complex]:
        """{n: c_n} of the nonzero modes of a one-point trace."""
        return {n: c for n, c in enumerate(self.coef.tolist()) if c}

    def reconstruct(self, y) -> np.ndarray:
        """Real values of a one-point trace at circumferential positions y:
        the series of _series at x = 0, where cosh is 1 and sinh is 0."""
        return self.mean + _series(0.0, y, self.ell, self.coef, np.zeros_like(self.coef))

    def on_grid(self, npts: int) -> np.ndarray:
        """Values of the trace at y_j = j ell / npts, j = 0..npts-1, from one
        inverse real FFT over every point of a trace with a points axis
        (_synthesize), for npts > 2 max_mode only, where the trapezoid rule
        on the grid is exact for a product of two traces: ValueError
        otherwise.  The grid is synthesized once per npts and kept; the
        array returned is read-only."""
        grid = self._grids.get(npts)
        if grid is None:
            grid = self._grids[npts] = _synthesize(self.mean, self.coef, npts)
            grid.flags.writeable = False
        return grid

    def max_mode(self) -> int:
        return self.coef.shape[-1] - 1


@dataclass(init=False, eq=False)
class FourierSolution:
    """General real solution of Laplace's equation on the flat cylinder.

    value(x, y) = c0*x + d0
                + sum_{n>=1} 2*Re[(c_n cosh(2 pi n x/ell) + d_n sinh(2 pi n x/ell))
                                  * exp(2 pi i n y/ell)]

    c[..., n] and d[..., n] hold c_n and d_n, n >= 1 (index 0 holds no mode
    and is 0); a {n: (c_n, d_n)} mapping may be passed as modes instead.
    """

    ell: float
    s: float
    c0: float
    d0: float
    c: np.ndarray
    d: np.ndarray

    def __init__(self, ell, s, c0=0.0, d0=0.0, modes=None, c=None, d=None):
        if np.less_equal(ell, 0).any():
            raise ValueError("ell must be positive")
        if np.less(s, 0).any():
            raise ValueError("s must be nonnegative")
        if c is None:
            c, d = (_dense({n: cd[k] for n, cd in (modes or {}).items()}) for k in (0, 1))
        c, d = np.asarray(c), np.asarray(d)
        _no_mode_at_0(c, d)
        if np.count_nonzero(c0.imag) or np.count_nonzero(d0.imag):
            raise ValueError(f"c0 and d0 must be real, got {c0!r} and {d0!r}")
        c0, d0 = c0.real, d0.real
        self.ell, self.s, self.c0, self.d0, self.c, self.d = ell, s, c0, d0, c, d

    @property
    def modes(self) -> dict[int, tuple[complex, complex]]:
        """{n: (c_n, d_n)} of the nonzero modes of a one-point field."""
        pairs = enumerate(zip(self.c.tolist(), self.d.tolist()))
        return {n: (c, d) for n, (c, d) in pairs if c or d}

    def nonzero_modes(self) -> np.ndarray:
        """The indices n of the nonzero modes of a one-point field, ascending."""
        return np.flatnonzero((self.c != 0) | (self.d != 0))

    @cached_property
    def seam(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(n, sinh arg, cosh arg) per mode index, arg = pi n s / ell,
        computed once per field (no field is assigned after construction).
        The argument is set to 0 at the zero modes: their seam values are
        then exactly 0, where cosh would overflow and make 0 * inf."""
        n = np.arange(self.c.shape[-1])
        arg = mode_arg(n, np.asarray(self.s)[..., None], np.asarray(self.ell)[..., None])
        arg = np.where((self.c == 0) & (self.d == 0), 0.0, arg)
        return n, np.sinh(arg), np.cosh(arg)

    def series_terms(self, factor: float, weights: np.ndarray) -> np.ndarray:
        """The terms (factor/(pi n)) (4 pi^2 n^2 + ell^2) weights_n S C of a
        seam mode series, n >= 1, one weight per mode n >= 1.  The weight
        comes first, then S, then C: S C alone overflows where the damped
        coefficients still keep each term finite.  Past LARGE_ELL the sum
        4 pi^2 n^2 + ell^2 enters scaled by 2^-e, to about ell, and the term
        is scaled back last (sum_of_squares), so a term stays finite
        wherever it is."""
        n, S, C = (v[..., 1:] for v in self.seam)
        p, e = sum_of_squares(n, np.asarray(self.ell)[..., None])
        return np.ldexp((factor / (np.pi * n)) * p * weights * S * C, e)

    @cached_property
    def cylinder_terms(self) -> np.ndarray:
        """The terms (2/(pi n)) (4 pi^2 n^2 + ell^2) (|c_n|^2 + |d_n|^2) S C of
        the cylinder mode series, n >= 1 (series_terms), computed once per
        field."""
        c, d = self.c[..., 1:], self.d[..., 1:]
        return self.series_terms(PAIRING_FACTOR, np.hypot(c.real, c.imag) ** 2 + np.hypot(d.real, d.imag) ** 2)

    def norm(self) -> float:
        """Sup-norm bound of the field over the closed cylinder:
        |c0| s/2 + |d0| + sum_n 2 (|c_n| cosh + |d_n| sinh)(pi n s / ell)."""
        _, S, C = self.seam
        total = abs(self.c0) * self.s / 2 + abs(self.d0)
        return float(total + np.sum(2.0 * (np.abs(self.c) * C + np.abs(self.d) * S)))

    def _check_x(self, x):
        if (np.abs(x) > self.s / 2 + 1e-12).any():
            raise DomainError(f"|x| exceeds s/2 = {self.s / 2}")

    def evaluate(self, x, y):
        """Partial sum of the series at each point of the broadcast (x, y);
        y is treated periodically with period ell."""
        x, y = _as_pair(x, y)
        self._check_x(x)
        out = self.c0 * x + self.d0 + _series(x, y, self.ell, self.c, self.d)
        return float(out) if out.ndim == 0 else out

    def evaluate_dx(self, x, y):
        """x-derivative of the series (from the cylinder side)."""
        x, y = _as_pair(x, y)
        self._check_x(x)
        kn = 2.0 * np.pi / self.ell * np.arange(self.c.shape[-1])
        out = self.c0 + _series(x, y, self.ell, kn * self.d, kn * self.c)
        return float(out) if out.ndim == 0 else out

    def seam_values(self, side) -> np.ndarray:
        """Mode values on a side of the seams, or on a tuple of sides on a
        leading axis (seam_part): c_n cosh and d_n sinh are the even and
        odd parts, so c_n cosh -/+ d_n sinh on the seam x = -s/2 (left) or
        x = +s/2 (right), indexed by n, exactly 0 at the zero modes; a
        field's Dirichlet trace and amend_variation's
        quadratic-differential shift both read them."""
        _, S, C = self.seam
        return seam_part(side, self.c * C, self.d * S)

    def dirichlet_trace(self, side) -> TraceModes:
        """Boundary values on a side of the seams, or on a tuple of sides in
        one trace: the parts have means d0 and c0 s/2, and modes c_n cosh
        and d_n sinh."""
        mean = seam_part(side, self.d0, self.c0 * self.s / 2)
        return TraceModes(side=side, kind="dirichlet", ell=self.ell, mean=mean, coef=self.seam_values(side))

    def neumann_trace_flat(self, side) -> TraceModes:
        """d/dx values on a side of the seams, or on a tuple of sides in one
        trace, taken from the cylinder side: the parts have means c0 and 0,
        and modes k_n d_n cosh and k_n c_n sinh, k_n = 2 pi n / ell."""
        n, S, C = self.seam
        coef = (2 * np.pi * n / np.asarray(self.ell)[..., None]) * seam_part(side, self.d * C, self.c * S)
        return TraceModes(side=side, kind="neumann_flat", ell=self.ell, mean=seam_part(side, self.c0, 0.0), coef=coef)


#: The five-point stencil's steps per circumference (stencil_step)
STENCIL_CELLS = 256


def stencil_step(ell: float) -> float:
    """The step h = ell/STENCIL_CELLS of the five-point stencil."""
    return ell / STENCIL_CELLS


def harmonicity_residual(fld: FourierSolution) -> float:
    """Max 5-point-stencil Laplacian over an interior grid of 16 x 32 points,
    with step h = stencil_step(ell).

    O(h^2) for resolved harmonic fields.  The field is evaluated once, on
    the open tensor grid (xs - h, xs, xs + h) x (ys - h, ys, ys + h), which
    its series sums separably, and the five stencil values are blocks of it.
    """
    h = stencil_step(fld.ell)
    xs = _stencil_xs(fld.s, h)
    ys = np.arange(32) * (fld.ell / 32)
    u = fld.evaluate(np.concatenate((xs - h, xs, xs + h))[:, None], np.concatenate((ys - h, ys, ys + h)))
    u = u.reshape(3, len(xs), 3, len(ys))
    lap = (u[2, :, 1] + u[0, :, 1] + u[1, :, 2] + u[1, :, 0] - 4.0 * u[1, :, 1]) / h**2
    return float(np.max(np.abs(lap)))


def _stencil_xs(s: float, h: float) -> np.ndarray:
    """The x positions of harmonicity_residual's grid: 16 points on
    [-(s/2 - h), s/2 - h], or the centre alone when that is empty."""
    if s / 2 - h <= -(s / 2 - h):
        return np.array([0.0])
    return np.linspace(-(s / 2 - h), s / 2 - h, 16)


#: Rounding allowance of the stencil, in units of eps max|u| / h^2: its
#: coefficients (1, 1, 1, 1, -4) sum to 8 in absolute value, and each value
#: of u carries about 2 eps max|u| of rounding.
STENCIL_ROUNDING = 16.0


def harmonicity_bound(fld: FourierSolution) -> tuple[float, float]:
    """(truncation bound, rounding allowance) for harmonicity_residual(fld),
    at its step h = stencil_step(ell).

    The five-point Laplacian of a harmonic mode (c cosh kx + d sinh kx)
    exp(iky), k = 2 pi n / ell, is exactly its value times
    (2 cosh kh + 2 cos kh - 4) / h^2, and that of the linear mean part is 0;
    so the residual is at most the maximum over the grid's x of
    sum_n 2 (|c_n| cosh kx + |d_n| |sinh kx|) (2 cosh kh + 2 cos kh - 4) / h^2,
    plus STENCIL_ROUNDING eps max|u| / h^2 with max|u| the sup-norm bound
    FourierSolution.norm.
    """
    h = stencil_step(fld.ell)
    k = 2.0 * np.pi * np.arange(1, fld.c.shape[-1]) / fld.ell
    c, d = np.abs(fld.c[1:]), np.abs(fld.d[1:])
    factor = (2.0 * np.cosh(k * h) + 2.0 * np.cos(k * h) - 4.0) / h**2
    kx = np.outer(np.abs(_stencil_xs(fld.s, h)), k)
    truncation = float(np.max(2.0 * (c * np.cosh(kx) + d * np.sinh(kx)) @ factor, initial=0.0))
    return truncation, STENCIL_ROUNDING * np.finfo(float).eps * fld.norm() / h**2

