"""Time evolution and entanglement measures.

Two routes from coefficients to dynamics:

1.  Full Lindblad master equation on the density matrix,

        drho/dt = -i[H, rho] + sum_jk G_jk (sm_j rho sp_k - {sp_k sm_j, rho}/2)

    with G the real symmetric decay matrix.  Its eigendecomposition
    G = sum_r lam_r u_r u_r^T turns the M**2 pairwise jump terms into a few
    collective jump operators L_r = sum_j u_jr sm_j (Lehmberg, PRA 2, 883
    (1970)):

        drho/dt = K rho + rho K^dag + sum_r lam_r L_r rho L_r^dag,
        K = -iH - (1/2) sum_r lam_r L_r^dag L_r.

    The mirror makes G rank one (G = 2 v v^T), so mirror layouts have one
    jump term.  ``_operators`` is the one place that builds K and the jump
    terms, from (B, M, M) stacks of shift and decay matrices; the
    superoperators and the operator form ``_apply_generator`` (behind the
    Taylor substeps) take them from there.

    The generator does not depend on time.  K keeps the excitation number
    and every L_r lowers it, so rho never leaves the D basis states with at
    most n excitations, n the largest excitation number in the support of
    rho0 (Lehmberg's reduction).  The lowering operators are restricted to
    them before any product is formed, and each stored interval Delta t is
    propagated exactly on the D x D block.  Both routes below sum one
    truncated Taylor series, ``_taylor_sum``, which stops after the first
    term below roundoff relative to the matrix it starts from.  Up to D = 8
    (at most one excitation up to M = 6, anything up to M = 3) the dense
    D**2 x D**2 superoperator L is exponentiated once per distinct interval
    by scaling and squaring of that series from the identity (Higham, SIAM
    J. Matrix Anal. Appl. 26, 1179 (2005)).  Above, exp(Delta t * L) acts
    on rho in operator form as the same series from rho on substeps h with
    h * |L|_1 <= 1 (Al-Mohy and Higham, SIAM J. Sci. Comput. 33, 488
    (2011)).  ``dt`` only sets the row times.  rho0 and the stored blocks
    pass one check of trace, Hermiticity and spectrum, ``_check_states``.
    Both terms keep the coherence order n_ket - n_bra of every entry (a
    weak U(1) symmetry: Buca and Prosen, New J. Phys. 14, 073007 (2012)),
    so the blocks of a rho0 that is block-diagonal in excitation number,
    as every CLI run's is, stay exactly 0.0 between different excitation
    numbers, and their spectrum is taken per excitation sector: 1x1 and
    2x2 sectors in closed form, larger ones by ``eigvalsh``.  The blocks
    are then placed into 2**M x 2**M states whose other entries are
    exactly zero.  ``evolve_lindblad_many``
    advances a stack of (shift, decay) matrix pairs from one rho0 together,
    so a Lindblad sweep propagates a block of theta values at once.

2.  The single-excitation sector of two atoms, where removing the jump
    terms leaves a non-Hermitian 2x2 effective Hamiltonian acting on the
    amplitude pair (c_eg, c_ge).  ``evolve_amplitudes`` solves it exactly
    in closed form, one formula in expm1 that stays bounded at every time
    and passes through exceptional points, where the two complex
    eigenvalues coincide, without a separate branch.  The formula takes a
    stack of Hamiltonians: ``amplitude_trajectory`` is the one-set case,
    and ``amplitude_concurrences`` evaluates a block of theta x t cells of
    a sweep from one ``coefficient_sums`` stack.

For a state with no double-excitation weight the two routes agree: the
Wootters concurrence of the mixed state reduces to
2 min(|rho_eg,ge|, sqrt(p_eg p_ge)), which for the pure single-excitation
block the amplitudes describe is exactly 2 |c_eg c_ge*|.  Density-matrix
stacks without |ee> weight take that closed form instead of an
eigenvalue problem.

Basis ordering for two atoms is {|ee>, |eg>, |ge>, |gg>}; times and rates
are dimensionless: the CLI runs unit-rate coefficients on gamma * t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import slh
from .coefficients import MasterEqCoefficients
from .errors import NumericalFailure
from .model import MAX_ATOMS_DENSE

TRACE_TOL = 1e-9
HERM_TOL = 1e-10
EIG_FLOOR = -1e-8
NORM_TOL = 1e-9

#: Largest dimension of the excitation-truncated space that holds rho0 for
#: which the generator is built as a dense superoperator (D**2 x D**2
#: matrix) and exponentiated; above it the generator acts in operator form.
_SUPEROP_DIM_CAP = 8

#: Width of the band above ``EIG_FLOOR`` in which a sector-wise smallest
#: eigenvalue (``_min_eigenvalues``) is not trusted and ``eigvalsh`` of the
#: whole state decides; the sector values differ from it at roundoff,
#: about 1e-16 for a state near the floor, whose entries are at most about 1.
_SECTOR_MARGIN = 1e-12

#: Double-precision unit roundoff scale, the Taylor and channel cut-offs.
_EPS = np.finfo(float).eps

#: Largest number of grid steps of ``dt``, and of Taylor substeps, that
#: ``evolve_lindblad`` spans.
MAX_GRID_STEPS = 10_000_000

#: Last order of ``_taylor_sum``.  Its j-th term is at most |x|_1 / j! on a
#: Taylor substep (h * bound <= 1) and |x|_1 / (2**j j!) in ``_expm``, below
#: the stopping rule by j = 18 and j = 15; the cap only ends a non-finite sum.
_MAX_TAYLOR_ORDER = 30


@dataclass(frozen=True)
class AmplitudeState:
    """Single-excitation amplitudes (c_eg, c_ge) of a two-atom system."""

    c_eg: complex
    c_ge: complex

    def norm(self) -> float:
        """sqrt(|c_eg|**2 + |c_ge|**2), without overflow: inf only where it exceeds the float range."""
        return math.hypot(self.c_eg.real, self.c_eg.imag, self.c_ge.real, self.c_ge.imag)


@dataclass(frozen=True)
class TrajectoryRecord:
    """Stored time series of states and concurrence.

    ``states`` is (T, 2) complex for amplitude evolution or (T, d, d) for
    density-matrix evolution.  ``concurrence`` is None when the system is
    not a two-atom one.
    """

    times: np.ndarray
    states: np.ndarray
    concurrence: np.ndarray | None

    def __post_init__(self):
        if len(self.times) != len(self.states):
            raise ValueError("times and states must have equal length")
        if self.concurrence is not None and len(self.concurrence) != len(self.times):
            raise ValueError("concurrence must match times in length")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing")


def density_from_amplitudes(state: AmplitudeState) -> np.ndarray:
    """Pure two-atom density matrix for a single-excitation state."""
    psi = np.array([0.0, state.c_eg, state.c_ge, 0.0], dtype=complex)
    return np.outer(psi, psi.conj())


def validate_density_matrix(rho: np.ndarray) -> None:
    """Check finiteness, then ``_check_states``' trace, Hermiticity and spectrum; raise on violation."""
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"density matrix must be square, got {rho.shape}")
    bad = np.argwhere(~np.isfinite(rho))
    if len(bad):
        raise NumericalFailure(f"density matrix has {len(bad)} non-finite entries, the first "
                               f"at ({bad[0][0]}, {bad[0][1]})")
    _check_states(rho[None], 0)


def _decay_channels(decay: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rates lam (B, R) and eigenvectors U (B, M, R) of each matrix of a
    (B, M, M) decay-matrix stack.

    Raises at the first matrix with lam_0 < -1e-9 * max(1, max|G|), the one
    check of every dynamics path.  Eigenvalues at decomposition
    round-off, |lam_r| <= M * eps * max|lam|, are dropped; the rest keep
    their sign, so a tolerated small negative one stays exact.  The R
    channels are those some matrix keeps, in ``eigh`` order; one that drops
    one of them has rate 0 there, which adds nothing to its generator.
    """
    lam, vecs = np.linalg.eigh(decay)
    unphysical = lam[:, 0] < -1e-9 * np.maximum(1.0, np.abs(decay).max(axis=(1, 2)))
    if unphysical.any():
        raise NumericalFailure(f"decay matrix eigenvalue {lam[unphysical][0, 0]:.3e} "
                               "is negative (unphysical)")
    keep = np.abs(lam) > decay.shape[1] * _EPS * np.abs(lam).max(axis=1, keepdims=True)
    used = keep.any(axis=0)
    return np.where(keep, lam, 0.0)[:, used], vecs[:, :, used]


def _operators(shift: np.ndarray, decay: np.ndarray, keep=None, channels=None):
    """Drift K (B, D, D), rates lam (B, R) and jump operators L (B, R, D, D)
    of B generators, from (B, M, M) stacks of shift and decay matrices.

    drho/dt = K rho + rho K^dag + sum_r lam_r L_r rho L_r^dag with
    L_r = sum_j U_jr sm_j and K = -iH - (1/2) sum_r lam_r L_r^dag L_r, from
    the eigendecomposition decay = U diag(lam) U^T.  Raises on an
    unphysical decay matrix; ``channels`` passes ``_decay_channels(decay)``
    when the caller already has it.

    ``keep`` (basis-state indices, all by default) restricts the lowering
    operators, which every generator shares, before any product is formed.
    That is exact when sm_j maps the kept states into themselves, as it
    does for the states with at most n excitations.
    H = sum_k sp_k (sum_j C_jk sm_j), with C the shift matrix (Lamb shifts
    on its diagonal, exchange off it), takes M products.
    """
    n, m = shift.shape[:2]
    lam, vecs = _decay_channels(decay) if channels is None else channels
    lowering = np.array([slh.sigma_minus(j, m) for j in range(m)])
    if keep is not None:
        lowering = lowering[:, keep][:, :, keep]
    dim = lowering.shape[1]
    flat = lowering.reshape(m, dim * dim)
    # mixed[:, k] = sum_j C_jk sm_j; the sum over k is one (D, M D) @ (M D, D) product per generator
    mixed = (shift.swapaxes(1, 2) @ flat).reshape(n, m * dim, dim)
    raising = lowering.conj().swapaxes(1, 2)
    k_op = -1j * (raising.swapaxes(0, 1).reshape(dim, m * dim) @ mixed)
    jumps = (vecs.swapaxes(1, 2) @ flat).reshape(n, -1, dim, dim)
    for r in range(jumps.shape[1]):
        l_op = jumps[:, r]
        k_op -= 0.5 * lam[:, r, None, None] * (l_op.conj().swapaxes(1, 2) @ l_op)
    return k_op, lam, jumps


def _apply_generator(rho: np.ndarray, k_op: np.ndarray, lam: np.ndarray, jumps: np.ndarray) -> np.ndarray:
    """drho/dt of each matrix of a (B, D, D) stack under ``_operators``' B generators."""
    out = k_op @ rho
    out += rho @ k_op.conj().swapaxes(1, 2)
    for r in range(jumps.shape[1]):
        l_op = jumps[:, r]
        out += lam[:, r, None, None] * (l_op @ rho @ l_op.conj().swapaxes(1, 2))
    return out


def _excitation_numbers(n_atoms: int) -> np.ndarray:
    """Number of excited atoms in each basis state of the 2**n_atoms space."""
    diag = sum(np.diagonal(slh.number_op(j, n_atoms)).real for j in range(n_atoms))
    return np.rint(diag).astype(int)


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.kron`` of each pair of D x D matrices of two broadcast stacks."""
    prod = a[..., :, None, :, None] * b[..., None, :, None, :]
    dim = prod.shape[-1] * prod.shape[-2]
    return prod.reshape(prod.shape[:-4] + (dim, dim))


def _superoperators(k_op: np.ndarray, lam: np.ndarray, jumps: np.ndarray) -> np.ndarray:
    """Matrices (B, D**2, D**2) on row-major vec(rho) of ``_operators``' generators."""
    eye = np.eye(k_op.shape[-1], dtype=complex)
    sup = _kron(k_op, eye) + _kron(eye, k_op.conj())
    for r in range(jumps.shape[1]):
        sup += lam[:, r, None, None] * _kron(jumps[:, r], jumps[:, r].conj())
    return sup


def _expm(a: np.ndarray) -> np.ndarray:
    """exp of each matrix of a (B, n, n) stack by scaling and squaring.

    Higham, SIAM J. Matrix Anal. Appl. 26, 1179 (2005).  Each a_b / 2**s_b
    has 1-norm <= 1/2; ``_taylor_sum`` from the identity, whose 1-norm is 1,
    sums its Taylor terms until they fall below roundoff (by the 15th), and
    s_b squarings undo the scaling.  Every matrix keeps its own s_b and its
    own last term, so its result does not depend on the rest of the stack.
    Non-finite in, or a squaring that overflows, gives non-finite out.
    """
    norm = _norm1(a)
    # s_b = ceil(log2(norm)) + 1 above 1/2, exactly: norm = mant * 2**expo, 1/2 <= mant < 1
    mant, expo = np.frexp(norm)
    squarings = np.where(np.isfinite(norm) & (norm > 0.5), expo - (mant == 0.5) + 1, 0)
    scaled = a / (2.0 ** squarings)[:, None, None]
    eye = np.broadcast_to(np.eye(a.shape[-1], dtype=complex), a.shape)
    out = _taylor_sum(lambda term: term @ scaled, eye)
    with np.errstate(over="ignore", invalid="ignore"):
        for done in range(squarings.max()):
            np.copyto(out, out @ out, where=(squarings > done)[:, None, None])
    return out


def _taylor_sum(apply, x: np.ndarray) -> np.ndarray:
    """sum_j apply^j(x_b) / j! for each matrix x_b of a (B, n, n) stack.

    ``apply`` maps a (B, n, n) stack to a new one, matrix by matrix and
    linearly.  Each sum stops after its first term of 1-norm at most
    eps * |x_b|_1, or at order ``_MAX_TAYLOR_ORDER``; a NaN term stops it
    at once.
    """
    out = x.copy()
    term = x
    tol = _EPS * _norm1(x)
    active = np.ones((len(x), 1, 1), dtype=bool)
    for order in range(1, _MAX_TAYLOR_ORDER + 1):
        term = apply(term)
        term /= order
        np.add(out, term, out=out, where=active)
        active &= (_norm1(term) > tol)[:, None, None]
        if not active.any():
            break
    return out


def _norm1(a: np.ndarray) -> np.ndarray:
    """Induced 1-norm (largest column sum) of each matrix of a (..., n, n) stack."""
    return np.abs(a).sum(axis=-2).max(axis=-1)


def _generator_rates(k_op: np.ndarray, lam: np.ndarray, jumps: np.ndarray) -> np.ndarray:
    """Bound (B,) on the 1-norm of each of ``_operators``' generators acting on rho.

    |K rho + rho K^dag|_1 <= (|K|_1 + |K|_inf) |rho|_1 and
    |L rho L^dag|_1 <= |L|_1 |L|_inf |rho|_1, with |A|_inf = |A^T|_1.
    """
    rate = _norm1(k_op) + _norm1(k_op.swapaxes(1, 2))
    return rate + (np.abs(lam) * _norm1(jumps) * _norm1(jumps.swapaxes(2, 3))).sum(axis=1)


def _check_states(states: np.ndarray, steps, excitations: np.ndarray | None = None) -> None:
    """Invariants of the (..., D, D) states after the given steps (rho0 at step 0).

    ``steps`` broadcasts to the leading shape.  Trace, Hermiticity and
    spectrum of every state.  Raises at the first failing state in
    row-major order of the leading axes, with the checks of one state in
    the order trace, Hermiticity, spectrum; a NaN residue fails its check.
    ``excitations`` (D,), the excitation number of each basis state, lets
    ``_min_eigenvalues`` take the spectrum sector by sector.
    """
    tr_err = np.abs(np.trace(states, axis1=-2, axis2=-1) - 1.0)
    herm_err = np.abs(states - states.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
    tr_ok = tr_err <= TRACE_TOL
    herm_ok = herm_err <= HERM_TOL
    lo = np.full(tr_err.shape, np.inf)
    due = tr_ok & herm_ok
    if due.any():
        lo[due] = _min_eigenvalues(states[due], excitations)
    ok = tr_ok & herm_ok & (lo >= EIG_FLOOR)
    if ok.all():
        return
    n = np.unravel_index(np.argmin(ok), ok.shape)
    i = int(np.broadcast_to(steps, ok.shape)[n])
    if not tr_ok[n]:
        raise NumericalFailure(f"trace drifted by {tr_err[n]:.3e} at step {i}")
    if not herm_ok[n]:
        raise NumericalFailure(f"Hermiticity residue {herm_err[n]:.3e} at step {i}")
    raise NumericalFailure(f"eigenvalue {lo[n]:.3e} below floor at step {i}")


def _min_eigenvalues(stack: np.ndarray, excitations: np.ndarray | None) -> np.ndarray:
    """Smallest eigenvalue (N,) of each Hermitian matrix of an (N, D, D) stack.

    ``eigvalsh`` of the whole matrices, unless ``excitations`` labels the D
    basis states and every entry of the stack between states of different
    labels is exactly 0.0.  Then each matrix is block-diagonal, and its
    smallest eigenvalue is the least over its excitation sectors: the entry
    of a 1x1 sector, 1/2 (a + d) - sqrt(1/4 (a - d)**2 + |b|**2) of a 2x2
    sector, ``eigvalsh`` of a larger one.  A matrix whose sector minimum
    lies below ``EIG_FLOOR`` + ``_SECTOR_MARGIN`` takes ``eigvalsh`` of the
    whole matrix, so pass or fail and the value reported are the
    whole-matrix ones.  Like ``eigvalsh``, this reads the lower triangle.
    """
    if excitations is None or stack[:, excitations[:, None] != excitations].any():
        return np.linalg.eigvalsh(stack).min(axis=-1)
    lo = np.full(len(stack), np.inf)
    # an overflowing 2x2 radicand gives -inf, which takes the whole-matrix eigvalsh
    with np.errstate(over="ignore"):
        for n in set(excitations.tolist()):
            idx = np.flatnonzero(excitations == n)
            if len(idx) == 1:
                sector = stack[:, idx[0], idx[0]].real
            elif len(idx) == 2:
                i, j = idx
                a, d, b = stack[:, i, i].real, stack[:, j, j].real, stack[:, j, i]
                half = 0.5 * (a - d)
                sector = 0.5 * (a + d) - np.sqrt(half * half + (b.real * b.real + b.imag * b.imag))
            else:
                sector = np.linalg.eigvalsh(stack[:, idx[:, None], idx]).min(axis=-1)
            np.minimum(lo, sector, out=lo)
    near = lo < EIG_FLOOR + _SECTOR_MARGIN
    if near.any():
        lo[near] = np.linalg.eigvalsh(stack[near]).min(axis=-1)
    return lo


def recommended_timestep(coeffs: MasterEqCoefficients) -> float:
    """An ``evolve_lindblad`` step, not the CLI's: 1e-3 over the largest rate present or the unit rate 1."""
    rates = np.abs(coeffs.individual_decay).sum(), np.abs(coeffs.shift).max(), 1.0
    return 1e-3 / float(max(rates))


def evolve_lindblad(
    rho0: np.ndarray,
    coeffs: MasterEqCoefficients,
    t_max: float,
    dt: float,
    store_every: int | None = None,
) -> TrajectoryRecord:
    """Evolve a density matrix under the master equation on the grid t = k * dt.

    rho stays on the D basis states with at most n excitations, n the
    largest excitation number of a state in rho0's support (a row or column
    with a non-zero entry).  The operators are built on those states alone
    and every stored interval is propagated exactly, by a dense exponential
    of the generator when D <= ``_SUPEROP_DIM_CAP`` = 8, by its Taylor
    action on rho above, so ``dt`` only spaces the rows.  The 2**M x 2**M
    states are exactly zero outside the D states.  This is
    ``evolve_lindblad_many`` with the matrix pair of ``coeffs``.

    Parameters
    ----------
    rho0 : (d, d) ndarray
        Initial density matrix (validated).
    coeffs : MasterEqCoefficients
        Interaction-picture coefficients; decay matrix must be physical.
    t_max, dt : float
        Horizon and grid step, in units of 1/gamma.  floor(t_max / dt) may
        not exceed ``MAX_GRID_STEPS``, and neither may the Taylor
        substeps, about t_max times the generator's rate.
    store_every : int, optional
        Keep every n-th step (plus t = 0 and the final step).  Default
        keeps at most ~2000 interior snapshots.  Every stored state is
        checked for trace, Hermiticity and spectrum, the spectrum per
        excitation sector when every stored state is exactly 0.0 between
        different excitation numbers.

    Returns
    -------
    TrajectoryRecord
        Stored density matrices and (for two atoms) Wootters concurrence.
    """
    return evolve_lindblad_many(rho0, coeffs.shift[None], coeffs.decay[None], t_max, dt, store_every)[0]


def evolve_lindblad_many(rho0: np.ndarray, shift: np.ndarray, decay: np.ndarray, t_max: float, dt: float,
                         store_every: int | None = None) -> list[TrajectoryRecord]:
    """``evolve_lindblad`` from one rho0 under each of B generators.

    Takes the arguments of ``evolve_lindblad``, with (B, M, M) stacks of
    the shift and decay matrices of ``coefficient_sums`` in place of one
    coefficient set, and returns one record per generator; the validation,
    the checks and the first failure raised are those of calling
    ``evolve_lindblad`` on each pair in turn.  The B generators advance
    together on the kept blocks: up to D = 8 by one ``_expm`` of the
    (B, D**2, D**2) superoperator stack per distinct stored gap and one
    matrix product per interval, above by ``_taylor_steps``.  One check and
    one concurrence pass run over the generator-major stack of stored
    states, and the records' states are views into one (B, T, d, d) array.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if t_max < 0:
        raise ValueError("t_max must be nonnegative")
    if not (math.isfinite(t_max) and math.isfinite(dt)):
        raise ValueError(f"t_max and dt must be finite, got t_max={t_max}, dt={dt}")
    if not (shift.ndim == 3 and len(shift) and shift.shape[1] == shift.shape[2]
            and shift.shape == decay.shape):
        raise ValueError(f"shift and decay must be (B, M, M) stacks of one shape with B >= 1, "
                         f"got {shift.shape} and {decay.shape}")
    m = shift.shape[1]
    channels = _decay_channels(decay)
    validate_density_matrix(rho0)
    if m > MAX_ATOMS_DENSE:
        raise ValueError(f"density-matrix evolution accepts at most {MAX_ATOMS_DENSE} atoms, got {m}")
    dim = 2 ** m
    if rho0.shape != (dim, dim):
        raise ValueError(f"rho0 shape {rho0.shape} does not match {m} atoms")

    # K keeps the excitation number and every L_r lowers it
    excitations = _excitation_numbers(m)
    support = (rho0 != 0).any(axis=0) | (rho0 != 0).any(axis=1)
    keep = np.flatnonzero(excitations <= excitations[support].max())

    # fixed-step grid; never steps past t_max (final time may fall short of
    # t_max when it is not a multiple of dt)
    steps_needed = t_max / dt + 1e-9
    if steps_needed >= MAX_GRID_STEPS + 1:
        raise ValueError(f"t_max={t_max:g} and dt={dt:g} need {steps_needed:.4g} grid steps, "
                         f"more than MAX_GRID_STEPS={MAX_GRID_STEPS}")
    n_steps = int(math.floor(steps_needed))
    if store_every is None:
        store_every = max(1, n_steps // 2000)
    if store_every < 1:
        raise ValueError("store_every must be >= 1")

    steps = np.arange(0, n_steps + 1, store_every)
    if steps[-1] != n_steps:
        steps = np.append(steps, n_steps)
    n_sets, d = len(shift), len(keep)
    ops = _operators(shift, decay, keep, channels)
    gaps = np.diff(steps).tolist()
    vecs = np.empty((len(steps), n_sets, d * d, 1), dtype=complex)
    vecs[0] = rho0[np.ix_(keep, keep)].reshape(-1, 1)
    if d <= _SUPEROP_DIM_CAP:
        sup = _superoperators(*ops)
        propagators = {gap: _expm(gap * dt * sup) for gap in set(gaps)}
        rows = list(vecs)  # views, cheaper to index in the loop than vecs[i]
        for i, gap in enumerate(gaps):
            np.matmul(propagators[gap], rows[i], out=rows[i + 1])
    else:
        _taylor_steps(vecs.reshape(len(steps), n_sets, d, d), ops, dt, gaps, t_max)
    blocks = vecs.reshape(len(steps), n_sets, d, d).swapaxes(0, 1)
    # generator-major, so the first failure is the one calls pair by pair raise;
    # the entries outside the block are exactly 0: they add nothing to
    # the trace or the Hermiticity residue, and 0 >= EIG_FLOOR
    _check_states(blocks[:, 1:], steps[1:], excitations[keep])
    states = np.zeros((n_sets, len(steps), dim, dim), dtype=complex)
    states[:, :, keep[:, None], keep] = blocks

    times = steps * dt
    conc = _wootters_concurrences(states.reshape(-1, dim, dim)).reshape(n_sets, -1) if m == 2 else None
    return [TrajectoryRecord(times, states[b], None if conc is None else conc[b])
            for b in range(n_sets)]


def _taylor_steps(rows: np.ndarray, ops, dt: float, gaps, t_max: float) -> None:
    """Fill rows[1:] of a (T, B, D, D) stack from rows[0] by Taylor substeps.

    Interval i spans gaps[i] * dt.  Set b crosses it in s_b substeps of
    h_b * rate_b <= 1; a set with a non-finite rate takes one, so its NaN
    reaches the stored-state checks.  Raises before any substep when the
    intervals need more than ``MAX_GRID_STEPS`` substeps in all.
    """
    rate = _generator_rates(*ops)
    with np.errstate(over="ignore"):
        counts = {gap: np.where(np.isfinite(rate), np.maximum(np.ceil(gap * dt * rate), 1.0), 1.0)
                  for gap in set(gaps)}
    total = sum(counts[gap].max() for gap in gaps)
    if total > MAX_GRID_STEPS:
        raise ValueError(f"t_max={t_max:g} at generator rate {rate[np.isfinite(rate)].max():.4g} "
                         f"needs {total:.4g} Taylor substeps, more than MAX_GRID_STEPS={MAX_GRID_STEPS}")
    for i, gap in enumerate(gaps):
        count = counts[gap]
        rho = rows[i]
        # a set that has crossed the interval takes substeps of h = 0
        for sub in range(int(count.max())):
            h = np.where(sub < count, gap * dt / count, 0.0)
            scaled = (ops[0] * h[:, None, None], ops[1] * h[:, None], ops[2])
            rho = _taylor_sum(lambda term: _apply_generator(term, *scaled), rho)
        rows[i + 1] = rho


def _effective_hamiltonians(shift: np.ndarray, decay: np.ndarray) -> np.ndarray:
    """H_eff = shift - (i/2) decay for stacks (..., 2, 2) of the shift matrix
    (Lamb shifts on the diagonal, exchange off it) and the decay matrix: the
    non-Hermitian generator on the {|eg>, |ge>} block.  Dropping the jump
    terms is exact for concurrence as long as the |ee> population stays zero."""
    return shift - 0.5j * decay


def _amplitude_solution(initial: AmplitudeState, h: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Exact amplitudes (K, T, 2) under each of the K effective Hamiltonians
    h (K, 2, 2) at the times (T,).

    The 2x2 generator splits as mbar * I + N with N traceless; with
    s = sqrt(-det N) (so N @ N = s**2 * I), taken from N scaled by a power
    of two near 1 / max|N_ij| so that no square overflows, the propagator is
        exp(-i H t) = e^{-i mbar t} (cos(s t) I - i sin(s t)/s * N).
    cos and sin/s are even in s, so the root with Im s >= 0 may be taken.
    Factoring out e^{-i s t}, with z = 2i s t and phi(z) = expm1(z) / z,
        exp(-i H t) = e^{-i (mbar + s) t} ((1 + expm1(z)/2) I - i t phi(z) N).
    Re z <= 0 and both eigenvalues mbar +- s of a dissipative H have
    Im <= 0, so every factor stays bounded at any t: nothing grows and
    then cancels (Moler and Van Loan, SIAM Rev. 45, 3 (2003)).  At an
    exceptional point (s = 0, N nilpotent) phi = 1 gives the first-order
    form I - i t N; phi = 1 is also taken below the smallest normal |z|,
    where the division would overflow.  A non-finite amplitude raises
    ``NumericalFailure`` at the first time it occurs under the first
    Hamiltonian that has one.
    """
    mbar = 0.5 * (h[:, 0, 0] + h[:, 1, 1])[:, None]
    d = 0.5 * (h[:, 0, 0] - h[:, 1, 1])[:, None]
    o = h[:, 0, 1][:, None]
    # scaled by the power of two 2**k <= max(|d|, |o|): the squares stay finite
    # for any finite h, and where they were finite before, s keeps its bits
    top = np.maximum(np.abs(d), np.abs(o))
    scale = (top.view(np.int64) // 2 ** 52 * 2 ** 52).view(np.float64)
    scale[scale == 0] = 1.0
    d_s, o_s = d / scale, o / scale
    s = scale * np.sqrt(d_s * d_s + o_s * o_s)
    s = np.where(s.imag < 0, -s, s)
    c0 = np.array([initial.c_eg, initial.c_ge], dtype=complex)
    n_c0 = np.stack([d * c0[0] + o * c0[1], o * c0[0] - d * c0[1]], axis=-1)

    z = 2j * s * times
    em1 = np.expm1(z)
    phi = np.divide(em1, z, out=np.ones_like(z), where=np.abs(z) >= np.finfo(float).tiny)
    phase = np.exp(-1j * (mbar + s) * times)
    out = phase[..., None] * ((1.0 + 0.5 * em1)[..., None] * c0 - 1j * (times * phi)[..., None] * n_c0)
    bad = ~np.isfinite(out).all(axis=-1)
    if bad.any():
        raise NumericalFailure(f"amplitudes are not finite at t = {times[np.argwhere(bad)[0, 1]]:.6g}")
    return out


def _pair_concurrence(states: np.ndarray) -> np.ndarray:
    """2 |c_eg c_ge*| of amplitude pairs (..., 2)."""
    return 2.0 * np.abs(states[..., 0] * states[..., 1].conj())


def _checked_amplitude_inputs(initial: AmplitudeState, times) -> np.ndarray:
    """``times`` as a float array once it is 1-D, non-empty, finite and starts
    at t >= 0, and the norm of ``initial`` is at most 1."""
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or not len(times):
        raise ValueError(f"times must be a non-empty 1-D sequence, got shape {times.shape}")
    if not np.isfinite(times).all():
        raise ValueError("times must be finite")
    if times[0] < 0:
        raise ValueError("times must be nonnegative")
    if not initial.norm() <= 1.0 + NORM_TOL:
        raise ValueError(f"initial amplitude norm {initial.norm()} exceeds 1 or is not finite")
    return times


def evolve_amplitudes(
    initial: AmplitudeState, coeffs: MasterEqCoefficients, t: float
) -> AmplitudeState:
    """Propagate the single-excitation amplitudes to time t (exact)."""
    c = amplitude_trajectory(initial, coeffs, [t]).states[0]
    return AmplitudeState(complex(c[0]), complex(c[1]))


def amplitude_trajectory(
    initial: AmplitudeState, coeffs: MasterEqCoefficients, times
) -> TrajectoryRecord:
    """Exact amplitude time series with concurrence at each time.

    ``times`` is a non-empty 1-D finite increasing sequence starting at t >= 0.
    """
    times = _checked_amplitude_inputs(initial, times)
    decay = coeffs.decay[None]
    _decay_channels(decay)  # the decay-matrix check of the Lindblad path
    if coeffs.n_atoms != 2:
        raise ValueError("effective Hamiltonian is defined for exactly two atoms")
    h = _effective_hamiltonians(coeffs.shift[None], decay)
    states = _amplitude_solution(initial, h, times)[0]
    return TrajectoryRecord(times, states, _pair_concurrence(states))


def amplitude_concurrences(initial: AmplitudeState, shift: np.ndarray, decay: np.ndarray, times) -> np.ndarray:
    """Concurrence (K, T) of the exact amplitudes from ``initial`` under K
    two-atom coefficient sets, at the times (T,).

    The sets are ``coefficient_sums`` output, (K, 2, 2) stacks of shift and
    decay matrices; each decay matrix is 2 v v^T, positive semidefinite by
    construction.  Row k is the concurrence that ``amplitude_trajectory``
    gives under set k; ``times`` as there.
    """
    times = _checked_amplitude_inputs(initial, times)
    h = _effective_hamiltonians(shift, decay)
    return _pair_concurrence(_amplitude_solution(initial, h, times))


def concurrence_from_amplitudes(state: AmplitudeState) -> float:
    """C = 2 |c_eg c_ge*| for a single-excitation two-atom state."""
    return float(_pair_concurrence(np.array([state.c_eg, state.c_ge])))


_SY_SY = np.kron(
    np.array([[0.0, -1.0j], [1.0j, 0.0]]), np.array([[0.0, -1.0j], [1.0j, 0.0]])
)


def wootters_concurrence(rho: np.ndarray) -> float:
    """Concurrence of an arbitrary two-qubit density matrix.

    C = max(0, l1 - l2 - l3 - l4) where l_i are the decreasingly sorted
    square roots of the eigenvalues of rho (sy x sy) rho* (sy x sy); the
    one-state case of ``_wootters_concurrences``; non-finite entries raise.
    """
    rho = np.asarray(rho)
    if rho.shape != (4, 4):
        raise ValueError(f"need a 4x4 two-qubit density matrix, got {rho.shape}")
    if not np.isfinite(rho).all():
        raise ValueError("rho has non-finite entries")
    return float(_wootters_concurrences(rho[None])[0])


def _wootters_concurrences(states: np.ndarray) -> np.ndarray:
    """Wootters concurrence of each (4, 4) matrix in a (T, 4, 4) stack.

    When no state has weight in the |ee> row or column, rho (sy x sy) rho*
    (sy x sy) has the eigenvalues (sqrt(p_eg p_ge) +- |rho_eg,ge|)**2, 0, 0,
    so C = 2 min(|rho_eg,ge|, sqrt(p_eg p_ge)) exactly; other stacks take
    the eigenvalues numerically.
    """
    if not states[:, 0].any() and not states[:, :, 0].any():
        p_eg_p_ge = np.maximum(states[:, 1, 1].real * states[:, 2, 2].real, 0.0)
        return 2.0 * np.minimum(np.abs(states[:, 1, 2]), np.sqrt(p_eg_p_ge))
    rho_tilde = states @ _SY_SY @ states.conj() @ _SY_SY
    evals = np.clip(np.linalg.eigvals(rho_tilde).real, 0.0, None)
    evals[evals < 1e-12 * evals.max(axis=1, keepdims=True)] = 0.0
    lam = np.sort(np.sqrt(evals), axis=1)
    return np.maximum(0.0, lam[:, 3] - lam[:, 2] - lam[:, 1] - lam[:, 0])
