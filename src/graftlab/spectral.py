"""Fourier-series fields on the flat cylinder.

The cylinder is {(x, y) : |x| <= s/2, y in [0, ell)} with the flat metric
dx^2 + dy^2.  A real harmonic field splits into a linear-in-x mean part and
cosh/sinh modes in x times exp(2*pi*i*n*y/ell) in y.  We store only n >= 1;
the n < 0 coefficients are implied by reality: c_{-n} = conj(c_n),
d_{-n} = -conj(d_n), so each stored mode contributes twice its real part.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .errors import DomainError, SingularSystemError

# Threshold below which a mean (constant) coefficient counts as zero when
# deciding solvability / singularity questions.
MEAN_TOL = 1e-13


def _as_pair(x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return x, y


def _mode_sum(y, ell: float, modes: Mapping[int, complex]) -> np.ndarray:
    """Sum 2*Re(coef_n * z^n), z = exp(2*pi*i*y/ell), of y-only mode data.

    Horner's rule in z over the dense coefficients c_0..c_N (gaps are zero):
    one complex exponential per point, then one multiply-add per index.
    """
    y = np.asarray(y, dtype=float)
    if not modes:
        return np.zeros(y.shape)
    if min(modes) < 0:
        raise ValueError("mode indices must be >= 0")
    top = max(modes)
    coef = np.zeros(top + 1, dtype=complex)
    for n, c in modes.items():
        coef[n] = c
    z = np.exp(2j * np.pi / ell * y)
    acc = np.full(y.shape, coef[top])
    for c in coef[:top][::-1]:
        acc *= z
        acc += c
    return 2.0 * acc.real


@dataclass(frozen=True)
class TraceModes:
    """Fourier data of a real function of y on one seam circle.

    kind is one of "dirichlet", "neumann_flat" (d/dx from the cylinder side)
    or "neumann_hyperbolic" (d/dx from the strip side).  Mode n >= 1 entries
    carry the implied conjugate-symmetric extension.
    """

    side: str
    kind: str
    ell: float
    mean: float
    modes: dict[int, complex] = field(default_factory=dict)

    def __post_init__(self):
        if self.side not in ("left", "right"):
            raise ValueError(f"side must be 'left' or 'right', got {self.side!r}")
        if self.kind not in ("dirichlet", "neumann_flat", "neumann_hyperbolic"):
            raise ValueError(f"unknown trace kind {self.kind!r}")

    def reconstruct(self, y) -> np.ndarray:
        """Real values of the trace at circumferential positions y."""
        return self.mean + _mode_sum(y, self.ell, self.modes)

    def on_grid(self, npts: int) -> np.ndarray:
        """Values of the trace at y_j = j ell / npts, j = 0..npts-1, from one
        inverse real FFT.

        A mode n contributes 2 Re(c_n w^(n j)), w = exp(2 pi i / npts), which
        is the bin r = n mod npts or, conjugated, npts - r, whichever is at
        most npts/2; the bins 0 and npts/2 keep only a real part, so they
        take 2 Re(c_n).  Modes past npts/2 thus alias onto the grid exactly
        as their values there do.
        """
        n = np.fromiter(self.modes, dtype=int, count=len(self.modes))
        c = np.fromiter(self.modes.values(), dtype=complex, count=len(self.modes))
        r = n % npts
        folded = 2 * r > npts
        r = np.where(folded, npts - r, r)
        c = np.where(folded, np.conj(c), c)
        c = np.where((r == 0) | (2 * r == npts), 2.0 * c.real, c)
        spectrum = np.zeros(npts // 2 + 1, dtype=complex)
        spectrum[0] = self.mean
        np.add.at(spectrum, r, c)
        return np.fft.irfft(spectrum, npts, norm="forward")

    def parseval_norm_sq(self) -> float:
        """ell * (mean^2 + 2 * sum |coef_n|^2) = integral of trace^2 over y."""
        return self.ell * (self.mean**2 + 2.0 * sum(abs(c) ** 2 for c in self.modes.values()))

    def max_mode(self) -> int:
        return max(self.modes, default=0)


@dataclass(frozen=True)
class FourierSolution:
    """General real solution of Laplace's equation on the flat cylinder.

    value(x, y) = c0*x + d0
                + sum_{n>=1} 2*Re[(c_n cosh(2 pi n x/ell) + d_n sinh(2 pi n x/ell))
                                  * exp(2 pi i n y/ell)]
    """

    ell: float
    s: float
    c0: float = 0.0
    d0: float = 0.0
    modes: dict[int, tuple[complex, complex]] = field(default_factory=dict)

    def __post_init__(self):
        if self.ell <= 0:
            raise ValueError("ell must be positive")
        if self.s < 0:
            raise ValueError("s must be nonnegative")
        for n in self.modes:
            if n < 1:
                raise ValueError("stored mode indices must be >= 1")

    @property
    def truncation(self) -> int:
        return max(self.modes, default=0)

    def _check_x(self, x):
        if np.any(np.abs(x) > self.s / 2 + 1e-12):
            raise DomainError(f"|x| exceeds s/2 = {self.s / 2}")

    def evaluate(self, x, y):
        """Partial sum of the series; real by the conjugate-pair convention.

        y is treated periodically with period ell.
        """
        x, y = _as_pair(x, y)
        self._check_x(x)
        k = 2.0 * np.pi / self.ell
        total = np.asarray(self.c0 * x + self.d0, dtype=complex) + np.zeros(
            np.broadcast(x, y).shape, dtype=complex
        )
        for n, (cn, dn) in self.modes.items():
            an = cn * np.cosh(k * n * x) + dn * np.sinh(k * n * x)
            term = an * np.exp(1j * k * n * y)
            total = total + term + np.conj(term)
        imag = float(np.max(np.abs(total.imag), initial=0.0))
        if imag > 1e-12 * max(1.0, float(np.max(np.abs(total.real), initial=0.0))):
            raise ValueError(f"evaluation produced imaginary part {imag}")
        out = total.real
        return float(out) if out.ndim == 0 else out

    def evaluate_dx(self, x, y):
        """x-derivative of the series (from the cylinder side)."""
        x, y = _as_pair(x, y)
        self._check_x(x)
        k = 2.0 * np.pi / self.ell
        total = np.full(np.broadcast(x, y).shape, float(self.c0))
        for n, (cn, dn) in self.modes.items():
            an = k * n * (cn * np.sinh(k * n * x) + dn * np.cosh(k * n * x))
            total = total + 2.0 * np.real(an * np.exp(1j * k * n * y))
        return float(total) if total.ndim == 0 else total

    def dirichlet_trace(self, side: str) -> TraceModes:
        """Boundary values on the seam x = -s/2 (left) or x = +s/2 (right)."""
        sgn = -1.0 if side == "left" else 1.0
        coeffs = {}
        for n, (cn, dn) in self.modes.items():
            arg = np.pi * n * self.s / self.ell
            coeffs[n] = cn * np.cosh(arg) + sgn * dn * np.sinh(arg)
        return TraceModes(
            side=side,
            kind="dirichlet",
            ell=self.ell,
            mean=sgn * self.c0 * self.s / 2 + self.d0,
            modes=coeffs,
        )

    def neumann_trace_flat(self, side: str) -> TraceModes:
        """d/dx values on a seam, taken from the cylinder side."""
        sgn = -1.0 if side == "left" else 1.0
        coeffs = {}
        for n, (cn, dn) in self.modes.items():
            arg = np.pi * n * self.s / self.ell
            coeffs[n] = (2 * np.pi * n / self.ell) * (
                sgn * cn * np.sinh(arg) + dn * np.cosh(arg)
            )
        return TraceModes(
            side=side, kind="neumann_flat", ell=self.ell, mean=self.c0, modes=coeffs
        )

    def to_json(self) -> str:
        payload = {
            "ell": self.ell,
            "s": self.s,
            "c0": self.c0,
            "d0": self.d0,
            "modes": [
                {
                    "n": n,
                    "c_re": c.real,
                    "c_im": c.imag,
                    "d_re": d.real,
                    "d_im": d.imag,
                }
                for n, (c, d) in sorted(self.modes.items())
            ],
        }
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FourierSolution":
        data = json.loads(text)
        modes = {
            int(m["n"]): (complex(m["c_re"], m["c_im"]), complex(m["d_re"], m["d_im"]))
            for m in data["modes"]
        }
        return cls(ell=data["ell"], s=data["s"], c0=data["c0"], d0=data["d0"], modes=modes)


def from_boundary_data(
    left: TraceModes, right: TraceModes, ell: float, s: float
) -> FourierSolution:
    """Reconstruct the interior solution from a pair of Dirichlet traces.

    Inverts the per-mode 2x2 system of seam values.  For s = 0 the sinh
    column vanishes and the system is singular whenever mode data is present.
    """
    if left.kind != "dirichlet" or right.kind != "dirichlet":
        raise ValueError("both traces must be Dirichlet kind")
    if left.side != "left" or right.side != "right":
        raise ValueError("traces must be a (left, right) pair")

    all_modes = set(left.modes) | set(right.modes)
    if s == 0:
        if any(
            abs(left.modes.get(n, 0.0)) > MEAN_TOL or abs(right.modes.get(n, 0.0)) > MEAN_TOL
            for n in all_modes
        ):
            raise SingularSystemError("s = 0: sinh column vanishes, mode system singular")
        if abs(right.mean - left.mean) > MEAN_TOL * max(1.0, abs(left.mean)):
            raise SingularSystemError("s = 0: mean system singular for unequal means")
        return FourierSolution(ell=ell, s=s, c0=0.0, d0=(left.mean + right.mean) / 2)

    d0 = (left.mean + right.mean) / 2
    c0 = (right.mean - left.mean) / s
    modes = {}
    for n in sorted(all_modes):
        arg = np.pi * n * s / ell
        ln = left.modes.get(n, 0.0)
        rn = right.modes.get(n, 0.0)
        cn = (ln + rn) / (2 * np.cosh(arg))
        dn = (rn - ln) / (2 * np.sinh(arg))
        modes[n] = (cn, dn)
    return FourierSolution(ell=ell, s=s, c0=c0, d0=d0, modes=modes)


def harmonicity_residual(
    fld: FourierSolution | Callable,
    ell: float | None = None,
    s: float | None = None,
    h: float | None = None,
    nx: int = 16,
    ny: int = 32,
) -> float:
    """Max 5-point-stencil Laplacian over an interior grid.

    O(h^2) for resolved harmonic fields; a callable may be passed in place of
    a FourierSolution (used to inject non-harmonic terms in tests).
    """
    if isinstance(fld, FourierSolution):
        ell = fld.ell if ell is None else ell
        s = fld.s if s is None else s
        f = fld.evaluate
    else:
        if ell is None or s is None:
            raise ValueError("ell and s required for a bare callable")
        f = fld
    if h is None:
        h = ell / 256
    ys = np.linspace(0.0, ell, ny, endpoint=False)
    X, Y = np.meshgrid(_stencil_xs(s, h, nx), ys, indexing="ij")
    lap = (
        f(X + h, Y) + f(X - h, Y) + f(X, Y + h) + f(X, Y - h) - 4.0 * f(X, Y)
    ) / h**2
    return float(np.max(np.abs(lap)))


def _stencil_xs(s: float, h: float, nx: int) -> np.ndarray:
    """The x positions of harmonicity_residual's grid: nx points on
    [-(s/2 - h), s/2 - h], or the centre alone when that is empty."""
    if s / 2 - h <= -(s / 2 - h):
        return np.array([0.0])
    return np.linspace(-(s / 2 - h), s / 2 - h, nx)


#: Rounding allowance of the stencil, in units of eps max|u| / h^2: its
#: coefficients (1, 1, 1, 1, -4) sum to 8 in absolute value, and each value
#: of u carries about 2 eps max|u| of rounding.
STENCIL_ROUNDING = 16.0


def harmonicity_bound(
    fld: FourierSolution, h: float | None = None, nx: int = 16
) -> tuple[float, float]:
    """(truncation bound, rounding allowance) for harmonicity_residual(fld, h=h, nx=nx).

    The five-point Laplacian of a harmonic mode (c cosh kx + d sinh kx)
    exp(iky), k = 2 pi n / ell, is exactly its value times
    (2 cosh kh + 2 cos kh - 4) / h^2, and that of the linear mean part is 0;
    so the residual is at most the maximum over the grid's x of
    sum_n 2 (|c_n| cosh kx + |d_n| |sinh kx|) (2 cosh kh + 2 cos kh - 4) / h^2,
    plus STENCIL_ROUNDING eps max|u| / h^2 with max|u| the sup-norm bound
    |c0| s/2 + |d0| + sum_n 2 (|c_n| cosh(k s/2) + |d_n| sinh(k s/2)).
    """
    h = fld.ell / 256 if h is None else h
    n = np.fromiter(fld.modes, dtype=int, count=len(fld.modes))
    cd = np.abs(np.array(list(fld.modes.values()), dtype=complex).reshape(-1, 2))
    k = 2.0 * np.pi * n / fld.ell
    factor = (2.0 * np.cosh(k * h) + 2.0 * np.cos(k * h) - 4.0) / h**2
    kx = np.outer(np.abs(_stencil_xs(fld.s, h, nx)), k)
    amp = 2.0 * (cd[:, 0] * np.cosh(kx) + cd[:, 1] * np.sinh(kx))
    truncation = float(np.max(amp @ factor, initial=0.0))
    ks = k * fld.s / 2
    umax = abs(fld.c0) * fld.s / 2 + abs(fld.d0)
    umax += float(np.sum(2.0 * (cd[:, 0] * np.cosh(ks) + cd[:, 1] * np.sinh(ks))))
    return truncation, STENCIL_ROUNDING * np.finfo(float).eps * umax / h**2


@dataclass(frozen=True)
class QuadDiffModes:
    """Fourier data (u_n, v_n) of the harmonic function Im(phi) on the cylinder.

    Im(phi) has the same series shape as a FourierSolution, with mean part
    u0*x + v0.  Re(phi) is the harmonic conjugate with respect to the
    negatively-oriented conformal frame (y + i*x), with its free additive
    constant fixed to 0.
    """

    ell: float
    s: float
    u0: float = 0.0
    v0: float = 0.0
    modes: dict[int, tuple[complex, complex]] = field(default_factory=dict)

    def _as_solution(self) -> FourierSolution:
        return FourierSolution(
            ell=self.ell, s=self.s, c0=self.u0, d0=self.v0, modes=dict(self.modes)
        )

    def im_phi(self, x, y):
        return self._as_solution().evaluate(x, y)

    def im_phi_dy(self, x, y):
        """y-derivative of Im(phi)."""
        x, y = _as_pair(x, y)
        k = 2.0 * np.pi / self.ell
        total = np.zeros(np.broadcast(x, y).shape, dtype=float)
        for n, (un, vn) in self.modes.items():
            an = un * np.cosh(k * n * x) + vn * np.sinh(k * n * x)
            total = total + 2.0 * np.real(1j * k * n * an * np.exp(1j * k * n * y))
        return float(total) if total.ndim == 0 else total

    def re_phi(self, x, y):
        """Harmonic conjugate of Im(phi) in the frame w = y + i x.

        Cauchy-Riemann there reads d(Re)/dy = d(Im)/dx, d(Re)/dx = -d(Im)/dy,
        which integrates to u0*y - i*sum'(u_n sinh + v_n cosh) e^{2 pi i n y/ell}.
        The u0*y branch is single-valued only for u0 = 0.
        """
        x, y = _as_pair(x, y)
        k = 2.0 * np.pi / self.ell
        total = np.asarray(self.u0 * y, dtype=float) + np.zeros(
            np.broadcast(x, y).shape
        )
        for n, (un, vn) in self.modes.items():
            an = -1j * (un * np.sinh(k * n * x) + vn * np.cosh(k * n * x))
            total = total + 2.0 * np.real(an * np.exp(1j * k * n * y))
        return float(total) if total.ndim == 0 else total

    def seam_value(self, side: str, n: int) -> complex:
        """Mode-n value of Im(phi) on a seam: u_n cosh -/+ v_n sinh."""
        sgn = -1.0 if side == "left" else 1.0
        un, vn = self.modes.get(n, (0.0, 0.0))
        arg = np.pi * n * self.s / self.ell
        return un * np.cosh(arg) + sgn * vn * np.sinh(arg)

    def norm(self) -> float:
        """Sup-norm estimate of Im(phi) over the closed cylinder."""
        total = abs(self.u0) * self.s / 2 + abs(self.v0)
        for n, (un, vn) in self.modes.items():
            arg = np.pi * n * self.s / self.ell
            total += 2.0 * (abs(un) * np.cosh(arg) + abs(vn) * np.sinh(arg))
        return float(total)

    def scaled(self, eps: float) -> "QuadDiffModes":
        return QuadDiffModes(
            ell=self.ell,
            s=self.s,
            u0=eps * self.u0,
            v0=eps * self.v0,
            modes={n: (eps * u, eps * v) for n, (u, v) in self.modes.items()},
        )

    def is_zero(self) -> bool:
        return (
            self.u0 == 0.0
            and self.v0 == 0.0
            and all(u == 0.0 and v == 0.0 for u, v in self.modes.values())
        )
