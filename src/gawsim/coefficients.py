"""Master-equation coefficients for giant atoms near a mirror.

In the interaction picture the reduced atomic dynamics is governed by four
families of coefficients, all evaluated at the resonant wavevector:

    dw_j    Lamb shift of atom j
    g_jk    coherent exchange coupling between atoms j and k
    G_j     individual decay rate of atom j
    Gc_jk   collective (two-atom) decay rate

Each is a double sum over connection-point pairs with two phase arguments
per pair: the direct separation |phi_n - phi_m| and the mirror round trip
phi_n + phi_m.  Shift and exchange terms carry sin, decay terms carry cos,
and the sums include the n = m diagonal.

One numpy kernel, ``coefficient_sums``, evaluates them for raw phase
arrays of shape (..., P), so a whole theta grid is one call.  The mirror
factors the cos sums, cos|a - b| + cos(a + b) = 2 cos(a) cos(b), so the
decay matrix is 2 v v^T (symmetric, rank one) with per-atom amplitudes v.
All arithmetic is real; rates are in units of the reference rate, so
results scale linearly with gamma.  The wrappers cover validated layouts
and the three canonical two-atom setups, which stay defined at theta = 0;
the hand-expanded polynomials for those setups remain only as test oracles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import LayoutError
from .model import CanonicalConfig, Configuration, WaveguideLayout, canonical_atom_order

#: Below this (times gamma), a decay coefficient is treated as exactly zero
#: by downstream consumers; trig polynomials evaluated in double precision
#: do not land closer to their roots than this.
ZERO_DECAY_TOL = 1e-9


@dataclass(frozen=True)
class MasterEqCoefficients:
    """Interaction-picture coefficient set for an M-atom layout.

    Attributes
    ----------
    lamb_shifts : (M,) ndarray
        Frequency shifts dw_j.
    exchange : (M, M) ndarray
        Symmetric exchange couplings g_jk, zero diagonal.
    individual_decay : (M,) ndarray
        Individual decay rates G_j.
    collective_decay : (M, M) ndarray
        Symmetric collective decay rates Gc_jk, zero diagonal.
    """

    lamb_shifts: np.ndarray
    exchange: np.ndarray
    individual_decay: np.ndarray
    collective_decay: np.ndarray

    def __post_init__(self):
        m = len(self.lamb_shifts)
        for name in ("exchange", "collective_decay"):
            mat = getattr(self, name)
            if mat.shape != (m, m):
                raise ValueError(f"{name} must be {m}x{m}, got {mat.shape}")
            if not (np.abs(mat - mat.T) <= 1e-12).all():
                raise ValueError(f"{name} matrix must be symmetric")
        for arr in (self.lamb_shifts, self.exchange, self.individual_decay, self.collective_decay):
            arr.setflags(write=False)

    @property
    def n_atoms(self) -> int:
        return len(self.lamb_shifts)

    def max_abs_decay(self) -> float:
        """Largest |decay| over individual and collective entries."""
        off = self.collective_decay[~np.eye(self.n_atoms, dtype=bool)]
        ind = np.abs(self.individual_decay).max()
        return float(max(ind, np.abs(off).max())) if off.size else float(ind)

    def max_abs_exchange(self) -> float:
        off = self.exchange[~np.eye(self.n_atoms, dtype=bool)]
        return float(np.abs(off).max()) if off.size else 0.0

    def decay_matrix(self) -> np.ndarray:
        """The M x M decay matrix (G_j on the diagonal, Gc_jk off it).

        A physical Lindblad generator requires this matrix to be positive
        semidefinite; for mirror-terminated layouts it is rank one by
        construction.
        """
        mat = self.collective_decay.copy()
        np.fill_diagonal(mat, self.individual_decay)
        return mat


def _point_weights(rates, owners, n_atoms: int) -> np.ndarray:
    """(P, M) matrix with sqrt(gamma_n) in the column of the atom owning point n."""
    return np.sqrt(np.asarray(rates, dtype=float))[:, None] * np.eye(n_atoms)[np.asarray(owners)]


def coefficient_sums(phases, weights) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate the coefficient double sums from raw connection-point phases.

    ``phases`` (..., P) lists the points nearest the mirror first; leading
    axes batch independent evaluations.  The sign of each separation
    phi_n - phi_m is taken from that order, so coincident points (theta = 0)
    are fine and negative theta continues the sums analytically, as the
    trigonometric polynomials do.  ``weights`` (P, M) holds sqrt(gamma_n),
    the root of the decay rate of point n, in the column of the atom that
    owns it and 0 elsewhere (``_point_weights``).

    Returns ``shift`` (..., M, M), symmetric, with the Lamb shifts dw_j on
    the diagonal and the exchange g_jk off it, and the amplitudes
    v_j = sum_n sqrt(gamma_jn) cos(phi_jn) (..., M); decay is 2 v v^T.
    Raises ``LayoutError`` naming gamma when a shift, an amplitude or an
    entry of 2 v v^T is not finite (rates near the float maximum overflow).
    """
    phases = np.asarray(phases, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        sin, cos = np.sin(phases), np.cos(phases)
        v = cos @ weights
        # signed[n, k] = sum over points m of atom k of sign(n - m) sqrt(gamma_m) cos(phi_m)
        cos_w = cos[..., None] * weights
        signed = 2.0 * np.cumsum(cos_w, axis=-2) - cos_w - v[..., None, :]
        # sin|phi_n - phi_m| = sign(n - m) (sin phi_n cos phi_m - cos phi_n sin phi_m) and
        # sin(phi_n + phi_m) = sin phi_n cos phi_m + cos phi_n sin phi_m: both double
        # sums are y + y^T, where y collects the sin phi_n cos phi_m halves
        sin_w = np.swapaxes(sin[..., None] * weights, -1, -2)
        y = sin_w @ signed + (sin @ weights)[..., :, None] * v[..., None, :]
        shift = 0.5 * (y + np.swapaxes(y, -1, -2))
        # the largest entry of the decay matrix 2 v v^T that callers form
        peak_decay = 2.0 * np.abs(v).max(initial=0.0) ** 2
    if not (np.isfinite(shift).all() and np.isfinite(peak_decay)):
        raise LayoutError(f"coefficients are not finite for decay rates gamma up to "
                          f"{float(np.max(weights)) ** 2:g} (phases up to {float(np.abs(phases).max()):g})")
    return shift, v


def _coefficients_from_sums(shift: np.ndarray, v: np.ndarray) -> MasterEqCoefficients:
    decay = 2.0 * np.outer(v, v)
    off = ~np.eye(len(v), dtype=bool)
    return MasterEqCoefficients(
        lamb_shifts=np.diagonal(shift).copy(),
        exchange=np.where(off, shift, 0.0),
        individual_decay=np.diagonal(decay).copy(),
        collective_decay=np.where(off, decay, 0.0),
    )


def _layout_points(layout: WaveguideLayout) -> tuple:
    """Kernel arguments (phases, weights) of a layout, nearest the mirror first."""
    pts = layout.all_points
    return [p.phase for p in pts], _point_weights([p.gamma for p in pts], [p.atom_id for p in pts],
                                                  layout.n_atoms)


def decay_amplitudes(layout: WaveguideLayout) -> np.ndarray:
    """Per-atom emission amplitudes v_j = sum_n sqrt(gamma_jn) cos(phi_jn).

    The mirror makes the decay matrix rank one: G_j = 2 v_j**2 and
    Gc_jk = 2 v_j v_k, so every decay channel closes exactly where all v_j
    vanish.  Unlike the rates, the amplitudes cross zero linearly, which is
    what the DFI scanner exploits.
    """
    phases, weights = _layout_points(layout)
    return np.cos(phases) @ weights


def general_coefficients(layout: WaveguideLayout) -> MasterEqCoefficients:
    """Evaluate the coefficient sums for an arbitrary validated layout."""
    return _coefficients_from_sums(*coefficient_sums(*_layout_points(layout)))


#: (2i + 1) / 2 for the four points; theta * 3.5 is (theta * 7) / 2 exactly,
#: but overflows only where the phase itself does.
_HALF_ODD = np.array([0.5, 1.5, 2.5, 3.5])

#: Largest |theta| whose phases, up to 3.5 theta, are finite (the next
#: double up overflows).
_THETA_LIMIT = np.nextafter(np.finfo(float).max / 3.5, 0.0)

#: (4, 2) point weights of each canonical configuration at unit rate, built
#: once: a canonical call scales them by sqrt(gamma).
_CANONICAL_OWNERS = {kind: _point_weights(np.ones(4), canonical_atom_order(kind), 2)
                     for kind in Configuration}


def _canonical_phases(theta) -> np.ndarray:
    """Phases (2i + 1) * theta / 2 of the four canonical points, theta.shape + (4,).

    Raises ``LayoutError`` naming theta when a phase would not be finite.
    """
    theta = np.asarray(theta, dtype=float)
    if not (abs(theta) <= _THETA_LIMIT).all():
        raise LayoutError(f"theta must keep the connection-point phases (2i + 1) theta / 2 finite, "
                          f"got theta up to {float(np.abs(theta).max()):g}")
    return theta[..., None] * _HALF_ODD


def _canonical_points(kind, gamma: float, theta) -> tuple:
    """Kernel arguments (phases, weights) of a canonical configuration."""
    return _canonical_phases(theta), np.sqrt(gamma) * _CANONICAL_OWNERS[Configuration(kind)]


def canonical_sums(kind, gamma: float, theta) -> tuple[np.ndarray, np.ndarray]:
    """``coefficient_sums`` of a canonical configuration at one theta or a theta array.

    Results carry theta's shape as leading axes.
    """
    return coefficient_sums(*_canonical_points(kind, gamma, theta))


def canonical_decay_amplitudes(kind, gamma: float, theta) -> np.ndarray:
    """Decay amplitudes of a canonical configuration, defined for all theta.

    Shape (2,) for a scalar theta, theta.shape + (2,) for an array.  Each
    is sqrt(gamma) times the sum of the cosines of its atom's two points:
    with unit weights of 0 and 1 that sum is one rounded addition however
    the product is blocked, so an array gives exactly the values of its
    elements alone.
    """
    return np.sqrt(gamma) * (np.cos(_canonical_phases(theta)) @ _CANONICAL_OWNERS[Configuration(kind)])


def canonical_coefficients(kind, gamma: float, theta: float) -> MasterEqCoefficients:
    """Coefficients of a canonical configuration at one theta, defined for all theta."""
    return _coefficients_from_sums(*canonical_sums(kind, gamma, theta))


def coefficients_for(config: CanonicalConfig) -> MasterEqCoefficients:
    return canonical_coefficients(config.kind, config.gamma, config.theta)
