"""Input-output (S, L, H) network composition for the mirrored waveguide.

An independent derivation of the master-equation coefficients.  Each
connection point is a single-port component with unit scattering, collapse
operator sqrt(gamma/2) * sigma_minus, and no Hamiltonian: the interaction
picture drops the bare atomic frequencies.  Propagation between
neighbouring points is a pure phase component (e^{i*dphi}, 0, 0);
``build_network`` folds each one into the scattering of the pass after it,
since point << (e^{i*dphi}, 0, 0) << G equals (e^{i*dphi}, L, H) << G.

The vacuum input enters from the open end travelling toward the mirror, so
the cascade visits the left-moving copies of the points in descending
order, picks up the mirror round-trip phase e^{i*2*phi_min}, and then the
right-moving copies in ascending order.  Components are combined with the
series product

    G2 << G1 = (S2 S1, S2 L1 + L2, H1 + H2 + (1/2i)[L2^dag S2 L1 - h.c.])

Operators are dense complex matrices on the full 2**M tensor-product space
(M <= 6), so checks reduce to numeric equality instead of symbolic
manipulation.  ``extract_coefficients`` expands the single dissipator
D[L_tot] over the per-atom lowering operators and projects H_tot onto
number and exchange operators by Hilbert-Schmidt inner products
tr(A^dag B), each computed as one ``np.vdot(A, B)`` (no matrix product is
formed to take a trace), returning the same coefficient container the
direct formulas produce.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .coefficients import MasterEqCoefficients
from .errors import LayoutError, NumericalFailure
from .model import MAX_ATOMS_DENSE, ConnectionPoint, WaveguideLayout

_SIGMA_MINUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)  # |g><e|

#: Residues above this in a composed network signal a composition bug.
COMPOSITION_TOL = 1e-10


def _kron_at(op: np.ndarray, slot: int, n_atoms: int) -> np.ndarray:
    out = np.array([[1.0 + 0.0j]])
    eye = np.eye(2, dtype=complex)
    for k in range(n_atoms):
        out = np.kron(out, op if k == slot else eye)
    return out


@lru_cache(maxsize=None)
def sigma_minus(atom: int, n_atoms: int) -> np.ndarray:
    """Lowering operator of ``atom`` embedded in the 2**n_atoms space."""
    m = _kron_at(_SIGMA_MINUS, atom, n_atoms)
    m.setflags(write=False)
    return m


@lru_cache(maxsize=None)
def sigma_plus(atom: int, n_atoms: int) -> np.ndarray:
    m = sigma_minus(atom, n_atoms).conj().T.copy()
    m.setflags(write=False)
    return m


@lru_cache(maxsize=None)
def number_op(atom: int, n_atoms: int) -> np.ndarray:
    """Excited-state projector sigma_plus @ sigma_minus of ``atom``."""
    m = sigma_plus(atom, n_atoms) @ sigma_minus(atom, n_atoms)
    m.setflags(write=False)
    return m


@dataclass(frozen=True)
class SLHTriplet:
    """A single-port input-output component over the atomic Hilbert space.

    ``scattering`` is a unimodular complex scalar for every network built
    here; ``hamiltonian`` must be Hermitian.
    """

    scattering: complex
    collapse: np.ndarray
    hamiltonian: np.ndarray

    @property
    def dim(self) -> int:
        return self.collapse.shape[0]


def point_triplet(point: ConnectionPoint, n_atoms: int) -> SLHTriplet:
    """Component for one directional pass through a connection point."""
    collapse = np.sqrt(point.gamma / 2.0) * sigma_minus(point.atom_id, n_atoms)
    return SLHTriplet(1.0 + 0.0j, collapse, np.zeros_like(collapse))


def series_product(g2: SLHTriplet, g1: SLHTriplet) -> SLHTriplet:
    """Feed the output of ``g1`` into ``g2`` and return the combined triplet."""
    if g2.dim != g1.dim:
        raise ValueError(f"dimension mismatch: {g2.dim} vs {g1.dim}")
    s = g2.scattering * g1.scattering
    collapse = g2.scattering * g1.collapse + g2.collapse
    cross = g2.scattering * (g2.collapse.conj().T @ g1.collapse)
    ham = g1.hamiltonian + g2.hamiltonian - 0.5j * (cross - cross.conj().T)
    return SLHTriplet(s, collapse, ham)


def build_network(layout: WaveguideLayout) -> SLHTriplet:
    """Compose the full mirrored-waveguide network for a layout.

    The chain runs: left-moving point components in descending phase with
    propagation phases between neighbours, the mirror round trip
    e^{i*2*phi_min}, then the right-moving components in ascending phase.
    Each phase is folded into the scattering of the pass that follows it
    (the composed S, L and H are those of the chain with separate pure
    phase components (e^{i*dphi}, 0, 0), up to rounding).
    """
    m = layout.n_atoms
    if m > MAX_ATOMS_DENSE:
        raise LayoutError(f"dense network paths accept at most {MAX_ATOMS_DENSE} atoms, got {m}")
    pts = layout.all_points

    phis = [p.phase for p in pts]
    # (pass, propagation phase since the previous pass): a phase only rotates
    # what reaches the next component, (e^{i dphi}, L, H) << G equals
    # point << (e^{i dphi}, 0, 0) << G, so each pass carries the phase before
    # it as its scattering and the chain holds no phase elements
    passes = [(pts[i], phis[i + 1] - phis[i] if i + 1 < len(pts) else 0.0)
              for i in range(len(pts) - 1, -1, -1)]
    passes += [(p, phis[i] - phis[i - 1] if i else 2.0 * phis[0]) for i, p in enumerate(pts)]

    total = None
    for p, dphi in passes:
        component = replace(point_triplet(p, m), scattering=np.exp(1j * dphi))
        total = component if total is None else series_product(component, total)
    return total


def extract_coefficients(triplet: SLHTriplet, layout: WaveguideLayout) -> MasterEqCoefficients:
    """Read the master-equation coefficients back out of a composed network.

    The collapse operator is resolved as L = sum_j alpha_j sigma_minus^j;
    after normalizing away the irrelevant global phase the amplitudes are
    real, and the decay matrix is their outer product: G_j = alpha_j**2 and
    Gc_jk = alpha_j * alpha_k.  The Hamiltonian is projected onto
    {identity, number ops, exchange ops} by Hilbert-Schmidt inner products
    (the diagonal family is not orthogonal, so its Gram system is solved
    explicitly); the Lamb shifts fill the diagonal of the exchange matrix to
    give the shift matrix.
    """
    m = layout.n_atoms
    dim = 2 ** m
    if triplet.dim != dim:
        raise ValueError(f"triplet dimension {triplet.dim} does not match layout ({dim})")
    scale = max(1.0, float(np.abs(triplet.hamiltonian).max()), float(np.abs(triplet.collapse).max()))

    if abs(abs(triplet.scattering) - 1.0) > COMPOSITION_TOL:
        raise NumericalFailure(f"|S| = {abs(triplet.scattering)} is not unimodular")
    herm_residue = float(np.abs(triplet.hamiltonian - triplet.hamiltonian.conj().T).max())
    if herm_residue > COMPOSITION_TOL * scale:
        raise NumericalFailure(f"non-Hermitian H residue {herm_residue:.3e}")

    # collapse amplitudes; Tr[sigma_plus^j sigma_minus^j] = 2**(m-1)
    alpha = np.array([np.vdot(sigma_minus(j, m), triplet.collapse) for j in range(m)]) / 2 ** (m - 1)
    recon = sum(a * sigma_minus(j, m) for j, a in enumerate(alpha))
    if float(np.abs(recon - triplet.collapse).max()) > COMPOSITION_TOL * scale:
        raise NumericalFailure("collapse operator is not a combination of lowering operators")
    if np.abs(alpha).max() > 0:
        ref = alpha[np.argmax(np.abs(alpha))]
        alpha = alpha * np.conj(ref / abs(ref))
    if float(np.abs(alpha.imag).max()) > COMPOSITION_TOL * scale:
        raise NumericalFailure("collapse amplitudes are not collinear in phase")

    # diagonal block: solve the Gram system for {I, n_0..n_{m-1}}
    basis = [np.eye(dim, dtype=complex)] + [number_op(j, m) for j in range(m)]
    gram = np.array([[np.vdot(a, b).real for b in basis] for a in basis])
    rhs = np.array([np.vdot(b, triplet.hamiltonian).real for b in basis])
    diag_coef = np.linalg.solve(gram, rhs)

    exch = np.zeros((m, m))
    pairs = {}
    for j in range(m):
        for k in range(j + 1, m):
            x = sigma_plus(k, m) @ sigma_minus(j, m)
            x = x + x.T  # sp_j sm_k is the transpose of the real sp_k sm_j
            pairs[j, k] = x
            exch[j, k] = exch[k, j] = (np.vdot(x, triplet.hamiltonian) / np.vdot(x, x)).real

    # everything extracted must reconstruct H_tot exactly (up to roundoff)
    h_rec = sum(diag_coef[1 + j] * number_op(j, m) for j in range(m))
    h_rec = h_rec + diag_coef[0] * np.eye(dim)
    for (j, k), x in pairs.items():
        h_rec = h_rec + exch[j, k] * x
    if float(np.abs(h_rec - triplet.hamiltonian).max()) > COMPOSITION_TOL * scale:
        raise NumericalFailure("H_tot contains terms outside the number/exchange span")
    np.fill_diagonal(exch, diag_coef[1:])
    return MasterEqCoefficients(exch, np.outer(alpha.real, alpha.real))
