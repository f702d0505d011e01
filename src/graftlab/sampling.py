"""Seeded random inputs for the verification suites.

Everything is driven by numpy Generators so a single seed fixes a whole
run.  Mode amplitudes decay exponentially, by exp(-DECAY n), so truncated
series stay well inside quadrature resolution.
"""
from __future__ import annotations

import numpy as np

from . import spectral

#: Largest pi n s / ell at which cosh^2 is a finite double, about 354.9.
#: Both samplers drop the modes above it: their 1/cosh damping underflows
#: to 0, and the seam traces and S C series then multiply 0 by an infinite
#: cosh.
MAX_DAMPED_ARG = float(np.log(np.finfo(float).max)) / 2.0

#: Decay rate of the sampled mode amplitudes in n
DECAY = 0.7


def _complex_modes(rng: np.random.Generator, nmax: int):
    """(n, c_n, d_n) for n = 1..nmax: exp(-DECAY n) times complex normals,
    drawn as Re c_n, Im c_n, Re d_n, Im d_n for each n in turn."""
    n = np.arange(1, nmax + 1)
    z = rng.standard_normal(4 * nmax).reshape(nmax, 4)
    scale = np.exp(-DECAY * n)
    return n, scale * (z[:, 0] + 1j * z[:, 1]), scale * (z[:, 2] + 1j * z[:, 3])


def _damped_modes(rng, ell, s, nmax, amplitude) -> tuple[np.ndarray, np.ndarray]:
    """(c, d) indexed by n: _complex_modes times amplitude / cosh(pi n s / ell),
    and 0 at n = 0 and where pi n s / ell > MAX_DAMPED_ARG, up to the last
    mode kept.  ell and s may hold one value per point: one draw serves all."""
    n, c, d = _complex_modes(rng, nmax)
    arg = spectral.mode_arg(n, np.asarray(s)[..., None], np.asarray(ell)[..., None])
    keep = arg <= MAX_DAMPED_ARG
    damp = np.where(keep, amplitude / np.cosh(np.where(keep, arg, 0.0)), 0.0)
    width = 1 + int(keep.sum(axis=-1).max())
    zero = np.zeros(keep.shape[:-1] + (1,))
    return tuple(np.concatenate([zero, damp * x], axis=-1)[..., :width] for x in (c, d))


def random_solution(
    rng: np.random.Generator,
    ell: float,
    s: float,
    nmax: int = 8,
    amplitude: float = 1.0,
) -> spectral.FourierSolution:
    """Random interior field with decaying mode amplitudes.

    c0 is 0 so the periodic variation problem is solvable.
    Amplitudes are additionally damped by cosh(pi n s / ell) so seam traces
    stay O(amplitude) regardless of the aspect ratio; modes with
    pi n s / ell > MAX_DAMPED_ARG are left out (zero).  Arrays of ell and s
    give one field per point, all from the same draws.
    """
    c, d = _damped_modes(rng, ell, s, nmax, amplitude)
    return spectral.FourierSolution(
        ell=ell,
        s=s,
        c0=0.0,
        d0=amplitude * float(rng.standard_normal()),
        c=c,
        d=d,
    )


def slice_compatible_means(
    rng: np.random.Generator, s: float, d0: float, s_rate: float = 0.0
) -> tuple[float, float]:
    """The (even, odd) parts, (rho0 + lam0)/2 and (rho0 - lam0)/2, of random
    means (lam0, rho0) on the slice lam0 - rho0 = -s d0/2 - ds/dt.  The odd
    part (s d0/2 + ds/dt)/2 is the datum, so -2 times it is the slice's
    right side bit for bit; rho0 is one standard normal draw.  The commands
    hold s fixed; the acceptance gate passes a height rate."""
    rho0 = float(rng.standard_normal())
    odd = (s * d0 / 2.0 + s_rate) / 2.0
    return rho0 - odd, odd
