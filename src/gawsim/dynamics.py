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
    jump term.  ``_generator`` is the one place that builds K and the jump
    terms; the right-hand side, the superoperator and the RK4 stepper all
    take them from there.

    The generator does not depend on time.  K keeps the excitation number
    and every L_r lowers it, so rho never leaves the basis states with at
    most n excitations, n the largest excitation number in the support of
    rho0 (Lehmberg's reduction).  When that truncated space has dimension
    D <= 8 (every state with at most one excitation up to M = 6 atoms,
    D = M + 1, and any state up to M = 3), the M lowering operators are
    restricted to it before any product is formed, so K, the L_r and the
    dense D**2 x D**2 superoperator L on vec(rho) are built from D x D
    blocks, and each stored interval is advanced exactly by
    P = exp(Delta t * L), computed by scaling and squaring of a Taylor sum
    (Higham, SIAM J. Matrix Anal. Appl. 26, 1179 (2005)).  ``dt`` only sets
    the grid of row times there; the stored D x D blocks are checked and
    then placed into the returned 2**M x 2**M states, whose other entries
    are exactly zero.  Above D = 8 (two or more excitations from M = 4 on) the
    equation is integrated with fixed-step classical fourth-order
    Runge-Kutta applied to rho in operator form; ``dt`` is its step, and a
    step outside the scheme's stability disk is rejected up front.  Every
    stored state is checked for trace, Hermiticity and spectrum; the RK4
    path also checks trace and Hermiticity on every step and the spectrum
    every ``positivity_every`` steps (eigendecompositions dominate the cost
    otherwise; drift between samples is bounded by the per-step checks).

2.  The single-excitation sector of two atoms, where removing the jump
    terms leaves a non-Hermitian 2x2 effective Hamiltonian acting on the
    amplitude pair (c_eg, c_ge).  ``evolve_amplitudes`` solves it exactly
    by eigendecomposition, with a first-order degenerate branch at
    exceptional points where the two complex eigenvalues coincide.

For a state with no double-excitation weight the two routes agree: the
Wootters concurrence of the mixed state reduces to
2 min(|rho_eg,ge|, sqrt(p_eg p_ge)), which for the pure single-excitation
block the amplitudes describe is exactly 2 |c_eg c_ge*|.  Density-matrix
stacks without |ee> weight take that closed form instead of an
eigenvalue problem.

Basis ordering for two atoms is {|ee>, |eg>, |ge>, |gg>}; times and rates
are dimensionless (units of the reference rate).
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
#: matrix) and propagated exactly; above it each RK4 step is applied in
#: operator form.
_SUPEROP_DIM_CAP = 8

#: RK4's stability polynomial stays within the unit disk on the whole left
#: half-disk |z| <= 2.6 (and reaches 1.11 at 2.7).
_RK4_STABLE_RADIUS = 2.6

#: Largest number of fixed RK4 steps ``evolve_lindblad`` takes.
MAX_RK4_STEPS = 10_000_000


@dataclass(frozen=True)
class AmplitudeState:
    """Single-excitation amplitudes (c_eg, c_ge) of a two-atom system."""

    c_eg: complex
    c_ge: complex

    def norm(self) -> float:
        return math.sqrt(abs(self.c_eg) ** 2 + abs(self.c_ge) ** 2)


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
    kind: str = "amplitudes"

    def __post_init__(self):
        if len(self.times) != len(self.states):
            raise ValueError("times and states must have equal length")
        if self.concurrence is not None and len(self.concurrence) != len(self.times):
            raise ValueError("concurrence must match times in length")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing")


def ground_state_density(n_atoms: int = 2) -> np.ndarray:
    dim = 2 ** n_atoms
    rho = np.zeros((dim, dim), dtype=complex)
    rho[-1, -1] = 1.0
    return rho


def density_from_amplitudes(state: AmplitudeState) -> np.ndarray:
    """Pure two-atom density matrix for a single-excitation state."""
    psi = np.array([0.0, state.c_eg, state.c_ge, 0.0], dtype=complex)
    return np.outer(psi, psi.conj())


def validate_density_matrix(rho: np.ndarray) -> None:
    """Check finiteness, trace, Hermiticity and spectral floor; raise on violation."""
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"density matrix must be square, got {rho.shape}")
    bad = np.argwhere(~np.isfinite(rho))
    if len(bad):
        raise NumericalFailure(f"density matrix has {len(bad)} non-finite entries, the first "
                               f"at ({bad[0][0]}, {bad[0][1]})")
    tr_err = abs(np.trace(rho) - 1.0)
    if not tr_err <= TRACE_TOL:
        raise NumericalFailure(f"trace deviates from 1 by {tr_err:.3e}")
    if not np.abs(rho - rho.conj().T).max() <= HERM_TOL:
        raise NumericalFailure("density matrix is not Hermitian")
    lo = float(np.linalg.eigvalsh(rho).min())
    if lo < EIG_FLOOR:
        raise NumericalFailure(f"density matrix eigenvalue {lo:.3e} below floor")


def _decay_channels(coeffs: MasterEqCoefficients) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues lam_r and eigenvectors U[:, r] of the decay matrix.

    Raises on an eigenvalue below -1e-9 * max(1, max|G|).  Eigenvalues at
    decomposition round-off, |lam_r| <= M * eps * max|lam|, are dropped; the
    rest keep their sign, so a tolerated small negative one stays exact.
    """
    mat = coeffs.decay_matrix()
    lam, vecs = np.linalg.eigh(mat)
    scale = max(1.0, float(np.abs(mat).max()))
    if lam[0] < -1e-9 * scale:
        raise NumericalFailure(f"decay matrix eigenvalue {lam[0]:.3e} is negative (unphysical)")
    keep = np.abs(lam) > coeffs.n_atoms * np.finfo(float).eps * np.abs(lam).max()
    return lam[keep], vecs[:, keep]


def _check_decay_physical(coeffs: MasterEqCoefficients) -> None:
    _decay_channels(coeffs)


def hamiltonian_matrix(coeffs: MasterEqCoefficients) -> np.ndarray:
    """Coherent (Lamb shift + exchange) Hamiltonian on the 2**M space."""
    m = coeffs.n_atoms
    dim = 2 ** m
    h = np.zeros((dim, dim), dtype=complex)
    for j in range(m):
        h += coeffs.lamb_shifts[j] * slh.number_op(j, m)
        for k in range(j + 1, m):
            if coeffs.exchange[j, k] != 0.0:
                h += coeffs.exchange[j, k] * (
                    slh.sigma_plus(k, m) @ slh.sigma_minus(j, m)
                    + slh.sigma_plus(j, m) @ slh.sigma_minus(k, m)
                )
    return h


def _generator(coeffs: MasterEqCoefficients, keep=None, channels=None):
    """Drift K and jump terms [(lam_r, L_r, L_r^dag)] of the master equation.

    drho/dt = K rho + rho K^dag + sum_r lam_r L_r rho L_r^dag with
    L_r = sum_j U_jr sm_j and K = -iH - (1/2) sum_r lam_r L_r^dag L_r, from
    the eigendecomposition decay_matrix = U diag(lam) U^T.  Raises on an
    unphysical decay matrix; ``channels`` passes ``_decay_channels(coeffs)``
    when the caller already has it.

    ``keep`` (basis-state indices, all by default) restricts the lowering
    operators before any product is formed.  That is exact when sm_j maps
    the kept states into themselves, as it does for the states with at
    most n excitations.  H = sum_k sp_k (sum_j C_jk sm_j), with C the
    exchange matrix carrying the Lamb shifts on its diagonal, takes M
    products, where ``hamiltonian_matrix`` takes M(M - 1).
    """
    m = coeffs.n_atoms
    lam, vecs = _decay_channels(coeffs) if channels is None else channels
    lowering = np.array([slh.sigma_minus(j, m) for j in range(m)])
    if keep is not None:
        lowering = lowering[:, keep][:, :, keep]
    dim = lowering.shape[1]
    raising = lowering.conj().swapaxes(1, 2)
    couplings = coeffs.exchange.copy()
    np.fill_diagonal(couplings, coeffs.lamb_shifts)
    # mixed[k] = sum_j C_jk sm_j; the sum over k is one (D, M D) @ (M D, D) product
    mixed = np.tensordot(couplings.T, lowering, axes=1)
    h = raising.swapaxes(0, 1).reshape(dim, m * dim) @ mixed.reshape(m * dim, dim)
    k_op = -1j * h
    jumps = []
    for r in range(len(lam)):
        l_op = np.tensordot(vecs[:, r], lowering, axes=1)
        l_dag = l_op.conj().T
        k_op -= 0.5 * lam[r] * (l_dag @ l_op)
        jumps.append((float(lam[r]), l_op, l_dag))
    return k_op, jumps


def _apply_generator(rho: np.ndarray, k_op: np.ndarray, k_dag: np.ndarray, jumps) -> np.ndarray:
    """drho/dt from the output of ``_generator`` (k_dag = K^dag)."""
    out = k_op @ rho + rho @ k_dag
    for lam, l_op, l_dag in jumps:
        out += lam * (l_op @ rho @ l_dag)
    return out


def lindblad_rhs(rho: np.ndarray, coeffs: MasterEqCoefficients) -> np.ndarray:
    """Right-hand side drho/dt of the master equation.

    Trace of the result is zero up to roundoff.  Raises on an unphysical
    decay matrix (negative eigenvalue beyond tolerance).
    """
    k_op, jumps = _generator(coeffs)
    m = coeffs.n_atoms
    if rho.shape != (2 ** m, 2 ** m):
        raise ValueError(f"rho shape {rho.shape} does not match {m} atoms")
    return _apply_generator(rho, k_op, k_op.conj().T, jumps)


def _excitation_numbers(n_atoms: int) -> np.ndarray:
    """Number of excited atoms in each basis state of the 2**n_atoms space."""
    diag = sum(np.diagonal(slh.number_op(j, n_atoms)).real for j in range(n_atoms))
    return np.rint(diag).astype(int)


def _superoperator(coeffs: MasterEqCoefficients, keep=None, channels=None) -> np.ndarray:
    """Matrix of the generator acting on row-major vec(rho), on the ``keep`` states.

    ``keep`` and ``channels`` are passed to ``_generator``; the result is
    D**2 x D**2 for D kept states.
    """
    k_op, jumps = _generator(coeffs, keep, channels)
    eye = np.eye(len(k_op), dtype=complex)
    sup = np.kron(k_op, eye) + np.kron(eye, k_op.conj())
    for lam, l_op, _ in jumps:
        sup += lam * np.kron(l_op, l_op.conj())
    return sup


def _expm(a: np.ndarray) -> np.ndarray:
    """exp(a) by scaling and squaring (Higham, SIAM J. Matrix Anal. Appl. 26, 1179 (2005)).

    a / 2**s has 1-norm <= 1/2, so its Taylor terms fall below roundoff by
    the 18th; s squarings undo the scaling.  Non-finite in, non-finite out.
    """
    norm = float(np.abs(a).sum(axis=0).max())
    squarings = max(0, math.ceil(math.log2(norm)) + 1) if math.isfinite(norm) and norm > 0.5 else 0
    scaled = a / 2.0 ** squarings
    out = np.eye(len(a), dtype=complex) + scaled
    term = scaled
    for order in range(2, 19):
        if not np.abs(term).sum(axis=0).max() > np.finfo(float).eps:
            break
        term = term @ scaled / order
        out += term
    for _ in range(squarings):
        out = out @ out
    return out


def _check_states(states: np.ndarray, steps: np.ndarray, spectrum) -> None:
    """Invariants of the states after the given steps.

    Trace and Hermiticity on every state, the spectrum where ``spectrum``
    (a bool, or one per state) is True.  Raises at the earliest failing
    state, with the checks of one state in the order trace, Hermiticity,
    spectrum; a NaN residue fails its check.
    """
    tr_err = np.abs(np.trace(states, axis1=1, axis2=2) - 1.0)
    herm_err = np.abs(states - states.conj().swapaxes(1, 2)).max(axis=(1, 2))
    tr_ok = tr_err <= TRACE_TOL
    herm_ok = herm_err <= HERM_TOL
    lo = np.full(len(states), np.inf)
    due = np.broadcast_to(spectrum, len(states)) & tr_ok & herm_ok
    if due.any():
        lo[due] = np.linalg.eigvalsh(states[due]).min(axis=1)
    ok = tr_ok & herm_ok & (lo >= EIG_FLOOR)
    if ok.all():
        return
    n = int(np.argmin(ok))
    i = int(steps[n])
    if not tr_ok[n]:
        raise NumericalFailure(f"trace drifted by {tr_err[n]:.3e} at step {i}")
    if not herm_ok[n]:
        raise NumericalFailure(f"Hermiticity residue {herm_err[n]:.3e} at step {i}")
    raise NumericalFailure(f"eigenvalue {lo[n]:.3e} below floor at step {i}")


def recommended_timestep(coeffs: MasterEqCoefficients, gamma: float = 1.0) -> float:
    """Default ``evolve_lindblad`` grid step: 1e-3 over the largest rate present."""
    fastest = max(
        float(np.sum(np.abs(coeffs.individual_decay))),
        coeffs.max_abs_exchange(),
        float(np.abs(coeffs.lamb_shifts).max()),
        gamma,
    )
    return 1e-3 / fastest


def evolve_lindblad(
    rho0: np.ndarray,
    coeffs: MasterEqCoefficients,
    t_max: float,
    dt: float,
    store_every: int | None = None,
    positivity_every: int = 100,
) -> TrajectoryRecord:
    """Evolve a density matrix under the master equation on the grid t = k * dt.

    rho stays on the basis states with at most n excitations, n the largest
    excitation number of a state in rho0's support (a row or column with a
    non-zero entry).  When there are at most ``_SUPEROP_DIM_CAP`` = 8 of
    them (at most one excitation up to six atoms, anything up to three)
    the operators are built on them alone and each stored interval is
    propagated exactly, so ``dt`` only spaces the rows; the states are
    still returned on the 2**M space, with every other entry exactly zero.  Otherwise
    ``dt`` is the fixed RK4 step, and one with dt * (2 |K| + sum_r |lam_r|
    |L_r|^2) > 2.6 (spectral norms) is rejected before any step.

    Parameters
    ----------
    rho0 : (d, d) ndarray
        Initial density matrix (validated).
    coeffs : MasterEqCoefficients
        Interaction-picture coefficients; decay matrix must be physical.
    t_max, dt : float
        Horizon and grid step, in units of 1/gamma.  floor(t_max / dt) may
        not exceed ``MAX_RK4_STEPS`` on either path.
    store_every : int, optional
        Keep every n-th step (plus t = 0 and the final step).  Default
        keeps at most ~2000 interior snapshots.
    positivity_every : int
        Spectrum check cadence in RK4 steps (0 disables it).  Every stored
        state is checked for trace, Hermiticity and spectrum on both paths.

    Returns
    -------
    TrajectoryRecord
        Stored density matrices and (for two atoms) Wootters concurrence.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if t_max < 0:
        raise ValueError("t_max must be nonnegative")
    if not (math.isfinite(t_max) and math.isfinite(dt)):
        raise ValueError(f"t_max and dt must be finite, got t_max={t_max}, dt={dt}")
    # fixed-step grid; never steps past t_max (final time may fall short of
    # t_max when it is not a multiple of dt)
    steps_needed = t_max / dt + 1e-9
    if steps_needed >= MAX_RK4_STEPS + 1:
        raise ValueError(
            f"t_max={t_max:g} and dt={dt:g} need {steps_needed:.4g} RK4 steps, "
            f"more than MAX_RK4_STEPS={MAX_RK4_STEPS}"
        )
    n_steps = int(math.floor(steps_needed))
    if store_every is None:
        store_every = max(1, n_steps // 2000)
    if store_every < 1:
        raise ValueError("store_every must be >= 1")
    channels = _decay_channels(coeffs)
    validate_density_matrix(rho0)
    m = coeffs.n_atoms
    if m > MAX_ATOMS_DENSE:
        raise ValueError(f"density-matrix evolution accepts at most {MAX_ATOMS_DENSE} atoms, got {m}")
    dim = 2 ** m
    if rho0.shape != (dim, dim):
        raise ValueError(f"rho0 shape {rho0.shape} does not match {m} atoms")

    # K keeps the excitation number and every L_r lowers it
    excitations = _excitation_numbers(m)
    support = (rho0 != 0).any(axis=0) | (rho0 != 0).any(axis=1)
    keep = np.flatnonzero(excitations <= excitations[support].max())

    steps = np.unique(np.append(np.arange(0, n_steps + 1, store_every), n_steps))
    states = np.zeros((len(steps), dim, dim), dtype=complex)
    if len(keep) <= _SUPEROP_DIM_CAP:
        d = len(keep)
        sup = _superoperator(coeffs, keep, channels)
        gaps = np.diff(steps).tolist()
        propagators = {gap: _expm(gap * dt * sup) for gap in set(gaps)}
        vecs = np.empty((len(steps), d * d), dtype=complex)
        vecs[0] = rho0[np.ix_(keep, keep)].reshape(-1)
        rows = list(vecs)  # views, cheaper to index in the loop than vecs[i]
        for i, gap in enumerate(gaps):
            np.matmul(propagators[gap], rows[i], out=rows[i + 1])
        blocks = vecs.reshape(len(steps), d, d)
        # the entries outside the block are exactly 0: they add nothing to
        # the trace or the Hermiticity residue, and 0 >= EIG_FLOOR
        _check_states(blocks[1:], steps[1:], True)
        states[:, keep[:, None], keep] = blocks
    else:
        states[0] = rho0
        k_op, jumps = _generator(coeffs, channels=channels)
        k_dag = k_op.conj().T
        # rate bounds the generator's spectral radius; a non-finite generator
        # has no norm and fails the first step's checks instead
        if np.isfinite(k_op).all():
            rate = 2 * np.linalg.norm(k_op, 2) + sum(abs(lam) * np.linalg.norm(l_op, 2) ** 2
                                                     for lam, l_op, _ in jumps)
            if dt * rate > _RK4_STABLE_RADIUS:
                raise ValueError(f"dt={dt:g} is outside the RK4 stability bound dt <= "
                                 f"{_RK4_STABLE_RADIUS / rate:.6g} for these coefficients")

        def rhs(r):
            return _apply_generator(r, k_op, k_dag, jumps)

        for i in range(1, len(steps)):
            rho = states[i - 1]
            for step in range(steps[i - 1] + 1, steps[i] + 1):
                k1 = rhs(rho)
                k2 = rhs(rho + 0.5 * dt * k1)
                k3 = rhs(rho + 0.5 * dt * k2)
                k4 = rhs(rho + dt * k3)
                rho = rho + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
                due = step == steps[i] or bool(positivity_every and step % positivity_every == 0)
                _check_states(rho[None], [step], due)
            states[i] = rho

    conc = _wootters_concurrences(states) if m == 2 else None
    return TrajectoryRecord(steps * dt, states, conc, kind="density")


def effective_hamiltonian(coeffs: MasterEqCoefficients) -> np.ndarray:
    """Non-Hermitian 2x2 generator on the {|eg>, |ge>} block.

    Diagonal dw_j - i G_j / 2, off-diagonal g - i Gc / 2.  Dropping the
    jump terms is exact for concurrence as long as the |ee> population
    stays zero.
    """
    if coeffs.n_atoms != 2:
        raise ValueError("effective Hamiltonian is defined for exactly two atoms")
    dwa, dwb = coeffs.lamb_shifts
    ga, gb = coeffs.individual_decay
    g = coeffs.exchange[0, 1]
    gc = coeffs.collective_decay[0, 1]
    return np.array(
        [[dwa - 0.5j * ga, g - 0.5j * gc], [g - 0.5j * gc, dwb - 0.5j * gb]], dtype=complex
    )


def _amplitude_solution(
    initial: AmplitudeState, coeffs: MasterEqCoefficients, times: np.ndarray
) -> np.ndarray:
    """Exact amplitudes at the given times, shape (T, 2).

    The 2x2 generator splits as mbar * I + N with N traceless; with
    s = sqrt(-det N) (so N @ N = s**2 * I) the propagator is
        exp(-i H t) = e^{-i mbar t} (cos(s t) I - i sin(s t)/s * N).
    cos and sin/s are even in s, so the square-root branch is irrelevant.
    At an exceptional point (s = 0, N nilpotent) sin(s t)/s -> t, the
    first-order form in the defective direction.
    """
    h = effective_hamiltonian(coeffs)
    mbar = 0.5 * (h[0, 0] + h[1, 1])
    d = 0.5 * (h[0, 0] - h[1, 1])
    o = h[0, 1]
    s = np.sqrt(d * d + o * o)
    times = np.asarray(times, dtype=float)
    c0 = np.array([initial.c_eg, initial.c_ge], dtype=complex)
    n_c0 = np.array([d * c0[0] + o * c0[1], o * c0[0] - d * c0[1]])
    out = np.empty((len(times), 2), dtype=complex)

    # cos/sinc form: exact through the exceptional point, but its two pieces
    # grow like e^{|Im s| t} before cancelling, so keep it to moderate |s t|
    near = np.abs(s) * times < 50.0
    t_near = times[near]
    st = s * t_near
    sinc = t_near.astype(complex) if s == 0 else np.sin(st) / s
    phase = np.exp(-1j * mbar * t_near)
    out[near, 0] = phase * (np.cos(st) * c0[0] - 1j * sinc * n_c0[0])
    out[near, 1] = phase * (np.cos(st) * c0[1] - 1j * sinc * n_c0[1])

    # eigen form: each mode factor is bounded by 1 for a dissipative
    # generator; |s| is large enough here for N/s to be well conditioned
    far = ~near
    if far.any():
        t_far = times[far]
        e_minus = np.exp(-1j * (mbar - s) * t_far)
        e_plus = np.exp(-1j * (mbar + s) * t_far)
        for idx in (0, 1):
            out[far, idx] = 0.5 * (
                e_minus * (c0[idx] - n_c0[idx] / s) + e_plus * (c0[idx] + n_c0[idx] / s)
            )
    bad = ~np.isfinite(out).all(axis=1)
    if bad.any():
        raise NumericalFailure(f"amplitudes are not finite at t = {times[bad][0]:.6g}")
    return out


def evolve_amplitudes(
    initial: AmplitudeState, coeffs: MasterEqCoefficients, t: float
) -> AmplitudeState:
    """Propagate the single-excitation amplitudes to time t (exact)."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    if not initial.norm() <= 1.0 + NORM_TOL:
        raise ValueError(f"initial amplitude norm {initial.norm()} exceeds 1 or is not finite")
    _check_decay_physical(coeffs)
    c = _amplitude_solution(initial, coeffs, np.array([t]))[0]
    return AmplitudeState(complex(c[0]), complex(c[1]))


def amplitude_trajectory(
    initial: AmplitudeState, coeffs: MasterEqCoefficients, times
) -> TrajectoryRecord:
    """Exact amplitude time series with concurrence at each time."""
    times = np.asarray(times, dtype=float)
    if times[0] < 0:
        raise ValueError("times must be nonnegative")
    if not initial.norm() <= 1.0 + NORM_TOL:
        raise ValueError(f"initial amplitude norm {initial.norm()} exceeds 1 or is not finite")
    _check_decay_physical(coeffs)
    states = _amplitude_solution(initial, coeffs, times)
    conc = 2.0 * np.abs(states[:, 0] * states[:, 1].conj())
    return TrajectoryRecord(times, states, conc, kind="amplitudes")


def concurrence_from_amplitudes(state: AmplitudeState) -> float:
    """C = 2 |c_eg c_ge*| for a single-excitation two-atom state."""
    return 2.0 * abs(state.c_eg * state.c_ge.conjugate())


_SY_SY = np.kron(
    np.array([[0.0, -1.0j], [1.0j, 0.0]]), np.array([[0.0, -1.0j], [1.0j, 0.0]])
)


def wootters_concurrence(rho: np.ndarray) -> float:
    """Concurrence of an arbitrary two-qubit density matrix.

    C = max(0, l1 - l2 - l3 - l4) where l_i are the decreasingly sorted
    square roots of the eigenvalues of rho (sy x sy) rho* (sy x sy).
    """
    rho = np.asarray(rho)
    if rho.shape != (4, 4):
        raise ValueError(f"need a 4x4 two-qubit density matrix, got {rho.shape}")
    rho_tilde = rho @ _SY_SY @ rho.conj() @ _SY_SY
    evals = np.linalg.eigvals(rho_tilde).real
    # eigenvalues are nonnegative up to roundoff; rank-deficient inputs leave
    # eps-size debris that the square root would blow up to sqrt(eps)
    evals = np.clip(evals, 0.0, None)
    evals[evals < 1e-12 * evals.max(initial=0.0)] = 0.0
    lam = np.sqrt(evals)
    lam.sort()
    return float(max(0.0, lam[3] - lam[2] - lam[1] - lam[0]))


def _wootters_concurrences(states: np.ndarray) -> np.ndarray:
    """``wootters_concurrence`` of each (4, 4) matrix in a (T, 4, 4) stack.

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
