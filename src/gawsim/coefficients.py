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
The kernel returns the (shift, decay) matrix pair, the one representation
that ``MasterEqCoefficients`` holds and every consumer takes.
All arithmetic is real.  The wrappers cover validated layouts and the three
canonical two-atom setups, which stay defined at theta = 0; the hand-expanded
polynomials for those setups remain only as test oracles.  A canonical setup
is summed at unit rate (point weights 0 and 1), and gamma scales the sums:
every product is then exact or rounded alike at any batch size, so results do
not depend on the batch and every consumer sees the same bits for a theta.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import LayoutError
from .model import ATOM_ORDER, Configuration, WaveguideLayout, canonical_phases

#: Below this (times gamma), a decay coefficient is treated as exactly zero
#: by downstream consumers; trig polynomials evaluated in double precision
#: do not land closer to their roots than this.
ZERO_DECAY_TOL = 1e-9


@dataclass(frozen=True)
class MasterEqCoefficients:
    """Interaction-picture coefficient set for an M-atom layout.

    Attributes
    ----------
    shift : (M, M) ndarray
        Lamb shifts dw_j on the diagonal, exchange couplings g_jk off it.
    decay : (M, M) ndarray
        Individual decay rates G_j on the diagonal, collective rates Gc_jk
        off it.  A physical Lindblad generator requires it to be positive
        semidefinite; for mirror-terminated layouts it is 2 v v^T, rank one.

    Both are symmetric off the diagonal, to 1e-12, and held as read-only
    copies of the arrays given.  The four families are views of them:
    ``lamb_shifts``, ``exchange``, ``individual_decay`` and
    ``collective_decay``.
    """

    shift: np.ndarray
    decay: np.ndarray

    def __post_init__(self):
        if not (self.shift.ndim == 2 and self.shift.shape == self.shift.shape[::-1] == self.decay.shape):
            raise ValueError(f"shift and decay must be square matrices of one shape, "
                             f"got {self.shift.shape} and {self.decay.shape}")
        for name in ("shift", "decay"):
            # a read-only copy: the caller's array stays writable and cannot change the set
            mat = np.array(getattr(self, name))
            if not (np.abs(np.triu(mat, 1) - np.tril(mat, -1).T) <= 1e-12).all():
                raise ValueError(f"{name} matrix must be symmetric")
            mat.setflags(write=False)
            object.__setattr__(self, name, mat)

    @property
    def n_atoms(self) -> int:
        return len(self.shift)

    @property
    def lamb_shifts(self) -> np.ndarray:
        """Frequency shifts dw_j (M,), the diagonal of ``shift``."""
        return np.diagonal(self.shift)

    @property
    def exchange(self) -> np.ndarray:
        """Exchange couplings g_jk (M, M): ``shift`` with a zero diagonal."""
        return _off_diagonal(self.shift)

    @property
    def individual_decay(self) -> np.ndarray:
        """Individual decay rates G_j (M,), the diagonal of ``decay``."""
        return np.diagonal(self.decay)

    @property
    def collective_decay(self) -> np.ndarray:
        """Collective decay rates Gc_jk (M, M): ``decay`` with a zero diagonal."""
        return _off_diagonal(self.decay)

    def max_abs_decay(self) -> float:
        """Largest |decay| over individual and collective entries."""
        return float(np.abs(self.decay).max())


def _off_diagonal(mat: np.ndarray) -> np.ndarray:
    return np.where(np.eye(len(mat), dtype=bool), 0.0, mat)


def _point_weights(rates, owners, n_atoms: int) -> np.ndarray:
    """(P, M) matrix with sqrt(gamma_n) in the column of the atom owning point n."""
    return np.sqrt(np.asarray(rates, dtype=float))[:, None] * np.eye(n_atoms)[np.asarray(owners)]


def coefficient_sums(phases, weights, gamma: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate the coefficient double sums from raw connection-point phases.

    ``phases`` (..., P) lists the points nearest the mirror first; leading
    axes batch independent evaluations.  The sign of each separation
    phi_n - phi_m is taken from that order, so coincident points (theta = 0)
    are fine and negative theta continues the sums analytically, as the
    trigonometric polynomials do.  ``weights`` (P, M) holds sqrt(gamma_n),
    the root of the decay rate of point n, in the column of the atom that
    owns it and 0 elsewhere (``_point_weights``).  ``gamma`` then scales
    the sums: the shifts by gamma, the amplitudes by sqrt(gamma).

    Returns the matrix pair ``(shift, decay)``, each (..., M, M) and
    symmetric: ``shift`` has the Lamb shifts dw_j on the diagonal and the
    exchange g_jk off it, and ``decay`` = 2 v v^T, with the amplitudes
    v_j = sum_n sqrt(gamma gamma_jn) cos(phi_jn), has the individual rates
    G_j on the diagonal and the collective Gc_jk off it.  Raises
    ``LayoutError`` naming gamma when an entry of either is not finite
    (rates near the float maximum overflow).
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
        shift = gamma * (0.5 * (y + np.swapaxes(y, -1, -2)))
        v = np.sqrt(gamma) * v
        decay = 2.0 * v[..., :, None] * v[..., None, :]
    if not (np.isfinite(shift).all() and np.isfinite(decay).all()):
        raise LayoutError(f"coefficients are not finite for decay rates gamma up to "
                          f"{gamma * float(np.max(weights)) ** 2:g} (phases up to {np.abs(phases).max():g})")
    return shift, decay


def _layout_points(layout: WaveguideLayout) -> tuple:
    """Kernel arguments (phases, weights) of a layout, nearest the mirror first."""
    pts = layout.all_points
    return [p.phase for p in pts], _point_weights([p.gamma for p in pts], [p.atom_id for p in pts],
                                                  layout.n_atoms)


def general_coefficients(layout: WaveguideLayout) -> MasterEqCoefficients:
    """Evaluate the coefficient sums for an arbitrary validated layout."""
    return MasterEqCoefficients(*coefficient_sums(*_layout_points(layout)))


#: (4, 2) 0/1 owner matrix of each canonical configuration, its point weights
#: at unit rate, built once: ``coefficient_sums`` scales the sums by gamma.
_CANONICAL_OWNERS = {kind: np.eye(2)[list(order)] for kind, order in ATOM_ORDER.items()}


def canonical_sums(kind, gamma: float, theta) -> tuple[np.ndarray, np.ndarray]:
    """``coefficient_sums`` of a canonical configuration at one theta or a theta array.

    Results carry theta's shape as leading axes.  The sums are taken at
    unit rate and scaled by gamma, so each theta of an array gets exactly
    the values it gets alone.
    """
    return coefficient_sums(canonical_phases(theta), _CANONICAL_OWNERS[Configuration(kind)], gamma)


def canonical_decay_amplitudes(kind, gamma: float, theta) -> np.ndarray:
    """Decay amplitudes of a canonical configuration, defined for all theta.

    Shape (2,) for a scalar theta, theta.shape + (2,) for an array: the
    amplitudes v of ``canonical_sums``, bit for bit, whose decay matrix is
    2 v v^T.  Each is sqrt(gamma) times the sum of the cosines of its atom's
    two points, one rounded addition however the product is blocked.
    """
    return np.sqrt(gamma) * (np.cos(canonical_phases(theta)) @ _CANONICAL_OWNERS[Configuration(kind)])


def canonical_coefficients(kind, gamma: float, theta: float) -> MasterEqCoefficients:
    """Coefficients of a canonical configuration at one theta, defined for all theta."""
    return MasterEqCoefficients(*canonical_sums(kind, gamma, theta))
