"""Decoherence-free interaction (DFI) checks and phase scans.

A phase shift supports DFI when every decay channel closes while the
coherent exchange survives:

    |G_a|, |G_b|, |Gc| < tol_decay   and   |g| > tol_exchange.

At such points the single-excitation dynamics is unitary: excitation swaps
back and forth between the atoms without leaking into the waveguide.

``scan_dfi`` locates these points for a canonical configuration by
minimizing a scalar max-of-absolute-values objective on a theta grid and
refining each bracketed minimum with a derivative-free golden-section
search (the objective is piecewise smooth but has kinks where the max
switches branches, so gradient steps are unreliable).  The objective is
max_j |v_j| over the per-atom emission amplitudes rather than the decay
rates themselves: the rank-one structure G_jk = 2 v_j v_k makes the two
maxima interchangeable (max|G| = 2 max|v|**2), but the rates vanish
quadratically at DFI points while the amplitudes cross zero linearly, and
only the linear crossing lets double precision pin the minimizer to better
than ~1e-8.  Candidates passing the DFI check are deduplicated and
reported in ascending theta order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coefficients import (
    ZERO_DECAY_TOL,
    MasterEqCoefficients,
    canonical_coefficients,
    canonical_decay_amplitudes,
)
from .model import Configuration

_INV_PHI = (5 ** 0.5 - 1) / 2  # 0.618...

#: Coefficients below tol_decay * gamma count as a closed decay channel.
DEFAULT_TOL_DECAY = ZERO_DECAY_TOL
#: Exchange must exceed tol_exchange * gamma to count as an interaction.
DEFAULT_TOL_EXCHANGE = 1e-3

#: Candidate minima closer than this are treated as the same point.
DEDUP_SEPARATION = 1e-9

#: Fewest scan grid points accepted.
MIN_GRID = 100


@dataclass(frozen=True)
class DfiReport:
    """Located DFI points for one configuration over a scan range."""

    configuration: Configuration
    theta_points: tuple[float, ...]
    residual_decay: tuple[float, ...]
    exchange_at_point: tuple[float, ...]

    def __len__(self) -> int:
        return len(self.theta_points)


def check_dfi(
    coeffs: MasterEqCoefficients,
    tol_decay: float = DEFAULT_TOL_DECAY,
    tol_exchange: float = DEFAULT_TOL_EXCHANGE,
) -> bool:
    """True when all decays are closed and some exchange coupling survives."""
    if not (tol_decay > 0 and tol_exchange > 0):  # also rejects NaN
        raise ValueError("tolerances must be positive")
    return coeffs.max_abs_decay() < tol_decay and coeffs.max_abs_exchange() > tol_exchange


def _golden_section(objective, lo: float, hi: float, tol: float = 1e-12) -> float:
    """Minimize a unimodal scalar function on [lo, hi] to width tol."""
    x1 = hi - _INV_PHI * (hi - lo)
    x2 = lo + _INV_PHI * (hi - lo)
    f1 = objective(x1)
    f2 = objective(x2)
    while hi - lo > tol:
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _INV_PHI * (hi - lo)
            f1 = objective(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _INV_PHI * (hi - lo)
            f2 = objective(x2)
    return 0.5 * (lo + hi)


def scan_dfi(
    kind,
    gamma: float = 1.0,
    theta_min: float = 0.0,
    theta_max: float = 2.0 * math.pi,
    grid: int = 10_000,
    tol_decay: float | None = None,
    tol_exchange: float | None = None,
) -> DfiReport:
    """Locate all DFI phase shifts of a canonical configuration in a range.

    The coefficient functions are 2*pi periodic, so the default range
    [0, 2*pi] already covers every distinct point; wider ranges simply
    repeat them.  Tolerances default to ``DEFAULT_TOL_*`` scaled by gamma.

    Parameters
    ----------
    kind : Configuration or str
        braided / separate / nested.
    gamma : float
        Uniform decay rate (> 0).
    theta_min, theta_max : float
        Scan range, theta_max > theta_min.
    grid : int
        Number of grid points (>= 100); minima are bracketed on the grid
        and refined by golden section to 1e-12 in theta.

    Returns
    -------
    DfiReport
        Located points sorted ascending, with the residual decay and the
        exchange coupling at each.
    """
    kind = Configuration(kind)
    if not (math.isfinite(gamma) and gamma > 0):
        raise ValueError("gamma must be finite and > 0")
    if grid < MIN_GRID:
        raise ValueError(f"grid must be at least {MIN_GRID} points")
    if not (math.isfinite(theta_min) and math.isfinite(theta_max) and theta_max > theta_min):
        raise ValueError("theta_max must exceed theta_min, both finite")
    tol_decay = DEFAULT_TOL_DECAY * gamma if tol_decay is None else tol_decay
    tol_exchange = DEFAULT_TOL_EXCHANGE * gamma if tol_exchange is None else tol_exchange

    def objective(theta):
        v = np.abs(canonical_decay_amplitudes(kind, gamma, theta))
        return np.maximum(v[..., 0], v[..., 1])

    step = (theta_max - theta_min) / (grid - 1)
    thetas = theta_min + np.arange(grid) * step
    values = objective(thetas)
    # grid-local minima (ties included); the ends compare against one side
    left = np.concatenate(([np.inf], values[:-1]))
    right = np.concatenate((values[1:], [np.inf]))
    minima = np.flatnonzero((values <= left) & (values <= right))

    points = []
    for i in minima:
        lo, hi = float(thetas[max(i - 1, 0)]), float(thetas[min(i + 1, grid - 1)])
        theta_star = _golden_section(objective, lo, hi)
        coeffs = canonical_coefficients(kind, gamma, theta_star)
        if check_dfi(coeffs, tol_decay, tol_exchange):
            points.append(
                (theta_star, coeffs.max_abs_decay(), float(coeffs.exchange[0, 1]))
            )

    points.sort(key=lambda p: p[0])
    deduped = []
    for p in points:
        if not deduped or p[0] - deduped[-1][0] > DEDUP_SEPARATION:
            deduped.append(p)
    return DfiReport(
        configuration=kind,
        theta_points=tuple(p[0] for p in deduped),
        residual_decay=tuple(p[1] for p in deduped),
        exchange_at_point=tuple(p[2] for p in deduped),
    )
