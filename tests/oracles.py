"""Independent expected-value helpers shared by the test modules.

The general braided expansion below was derived by hand from the cascade
composition (two passes through four points with arbitrary per-point rates
g1..g4, inter-point phases t1..t3, and mirror round trip th) and is kept
separate from the library code it checks.

``lindblad_rhs`` is the library's generator applied to one state (its
``_operators`` plus ``_apply_generator``), the function the pairwise
oracles check.  ``pairwise_lindblad_rhs`` is the master-equation
right-hand side written term by term over atom pairs (j, k) of the decay
matrix (its Hamiltonian from ``hamiltonian_matrix``),
``pairwise_superoperator`` the same generator
as a matrix on vec(rho), ``eigen_states`` the exact solution
V e^{Lambda t} V^-1 vec(rho0) under a diagonalisable generator,
``single_excitation_states`` the exact master-equation solution for a state
with at most one excitation, from the eigendecomposition of the M x M
effective Hamiltonian alone, and ``first_check_failure`` the state-by-state
trace / Hermiticity / spectrum check loop; the library builds the generator
from the eigendecomposition of the decay matrix, restricts it to the
excitation numbers rho0 reaches, sums one truncated Taylor series for both
its dense exponential (scaling and squaring) and its action on rho
(substeps), checks rho0 and stacks of stored states in one function, and
propagates two-atom amplitudes by one closed form in expm1.

``eigen_concurrence`` is the Wootters concurrence of one state from the
eigenvalues of rho (sy x sy) rho* (sy x sy); the library computes it for a
stack of states, in closed form when no state has |ee> weight.
``identity_triplet`` and ``phase_element`` are the unit and the pure-phase
SLH components; ``build_network`` folds the phases into the scattering of
the next pass instead.

The ``closed_form_*`` polynomials are the hand-expanded coefficients of the
three canonical two-atom setups, valid for any real theta, and
``pair_sums`` / ``pair_sum_coefficients`` is the scalar double loop over
connection-point pairs.  The library evaluates both through one vectorised
kernel; these stay here as derivations independent of it.

``per_value_csv`` is the CLI's CSV text built one value at a time with
``format(float(v), ".17g")``; the library computes the 17 digits of a block
of values exactly in numpy (Dekker's product with tabulated powers of ten)
and lays their texts out with one boolean mask, leaving only nan,
infinities, subnormals and near-ties it cannot settle to ``%``, and writes
a sweep grid by formatting each theta and each time once and filling a
theta's value texts into its rows.
"""

import math

import numpy as np

from gawsim import dynamics, slh
from gawsim.coefficients import MasterEqCoefficients
from gawsim.model import Configuration, ConnectionPoint, GiantAtomSpec, build_custom


def general_braided_layout(g1, g2, g3, g4, t1, t2, t3, theta):
    """Layout with points a1, b1, a2, b2 at cumulative phases from theta/2."""
    p1 = theta / 2
    p2, p3, p4 = p1 + t1, p1 + t1 + t2, p1 + t1 + t2 + t3
    return build_custom(
        [
            GiantAtomSpec(0, (ConnectionPoint(0, p1, g1), ConnectionPoint(0, p3, g3))),
            GiantAtomSpec(1, (ConnectionPoint(1, p2, g2), ConnectionPoint(1, p4, g4))),
        ]
    )


def general_braided_expected(g1, g2, g3, g4, t1, t2, t3, th):
    """Hand-expanded coefficients (dwa, dwb, g_ab, G_a, G_b, G_coll)."""
    s, c = math.sin, math.cos
    ga = g1 + g3 + g1 * c(th) + g3 * c(2 * t1 + 2 * t2 + th) + 2 * math.sqrt(g1 * g3) * (
        c(t1 + t2) + c(t1 + t2 + th)
    )
    gb = g2 + g4 + g2 * c(2 * t1 + th) + g4 * c(2 * t1 + 2 * t2 + 2 * t3 + th) + 2 * math.sqrt(
        g2 * g4
    ) * (c(t2 + t3) + c(2 * t1 + t2 + t3 + th))
    gcol = (
        math.sqrt(g1 * g2) * (c(t1) + c(t1 + th))
        + math.sqrt(g2 * g3) * (c(t2) + c(2 * t1 + t2 + th))
        + math.sqrt(g3 * g4) * (c(t3) + c(2 * t1 + 2 * t2 + t3 + th))
        + math.sqrt(g1 * g4) * (c(t1 + t2 + t3) + c(t1 + t2 + t3 + th))
    )
    dwa = (
        math.sqrt(g1 * g3) * (s(t1 + t2) + s(t1 + t2 + th))
        + 0.5 * g1 * s(th)
        + 0.5 * g3 * s(2 * t1 + 2 * t2 + th)
    )
    dwb = (
        math.sqrt(g2 * g4) * (s(t2 + t3) + s(2 * t1 + t2 + t3 + th))
        + 0.5 * g2 * s(2 * t1 + th)
        + 0.5 * g4 * s(2 * t1 + 2 * t2 + 2 * t3 + th)
    )
    gx = 0.5 * (
        math.sqrt(g1 * g2) * (s(t1) + s(t1 + th))
        + math.sqrt(g2 * g3) * (s(t2) + s(2 * t1 + t2 + th))
        + math.sqrt(g3 * g4) * (s(t3) + s(2 * t1 + 2 * t2 + t3 + th))
        + math.sqrt(g1 * g4) * (s(t1 + t2 + t3) + s(t1 + t2 + t3 + th))
    )
    return dwa, dwb, gx, ga, gb, gcol


def pair_sums(points_a, points_b, half: bool) -> tuple[float, float]:
    """Accumulate the sin (shift/exchange) and cos (decay) double sums.

    ``half`` applies the 1/2 prefactor carried by the shift and exchange
    formulas; decay sums come without it.
    """
    sin_sum = 0.0
    cos_sum = 0.0
    for pn in points_a:
        for pm in points_b:
            w = math.sqrt(pn.gamma * pm.gamma)
            diff = abs(pn.phase - pm.phase)
            summ = pn.phase + pm.phase
            sin_sum += w * (math.sin(diff) + math.sin(summ))
            cos_sum += w * (math.cos(diff) + math.cos(summ))
    if half:
        sin_sum *= 0.5
    return sin_sum, cos_sum


def pair_sum_coefficients(layout) -> MasterEqCoefficients:
    """Coefficients of a layout from the scalar pair loop, atom block by block."""
    m = layout.n_atoms
    shift = np.zeros((m, m))
    decay = np.zeros((m, m))
    for j, atom_j in enumerate(layout.atoms):
        shift[j, j], decay[j, j] = pair_sums(atom_j.points, atom_j.points, half=True)
        for k in range(j + 1, m):
            s, c = pair_sums(atom_j.points, layout.atoms[k].points, half=True)
            shift[j, k] = shift[k, j] = s
            decay[j, k] = decay[k, j] = c
    return MasterEqCoefficients(shift, decay)


def coefficient_set(lamb, exch, decay, coll) -> MasterEqCoefficients:
    """A coefficient set from the four families: Lamb shifts (M,), exchange
    (M, M), individual decay rates (M,) and collective rates (M, M), whose
    diagonals are ignored."""
    shift = np.array(exch, dtype=float)
    dec = np.array(coll, dtype=float)
    np.fill_diagonal(shift, lamb)
    np.fill_diagonal(dec, decay)
    return MasterEqCoefficients(shift, dec)


def _two_atom(gamma, dwa, dwb, gab, ga, gb, gc) -> MasterEqCoefficients:
    return MasterEqCoefficients(gamma * np.array([[dwa, gab], [gab, dwb]]),
                                gamma * np.array([[ga, gc], [gc, gb]]))


def closed_form_braided(gamma: float, theta: float) -> MasterEqCoefficients:
    """Coefficients for the braided ordering (a, b, a, b), any real theta."""
    s, c = math.sin, math.cos
    t = theta
    dwa = s(2 * t) + s(3 * t) + 0.5 * s(t) + 0.5 * s(5 * t)
    dwb = s(2 * t) + s(5 * t) + 0.5 * s(3 * t) + 0.5 * s(7 * t)
    gab = 0.5 * (3 * s(t) + s(3 * t) + s(2 * t) + 2 * s(4 * t) + s(6 * t))
    ga = 2 + 2 * c(2 * t) + 2 * c(3 * t) + c(t) + c(5 * t)
    gb = 2 + 2 * c(2 * t) + 2 * c(5 * t) + c(3 * t) + c(7 * t)
    gc = 3 * c(t) + c(3 * t) + c(2 * t) + 2 * c(4 * t) + c(6 * t)
    return _two_atom(gamma, dwa, dwb, gab, ga, gb, gc)


def closed_form_separate(gamma: float, theta: float) -> MasterEqCoefficients:
    """Coefficients for the separate ordering (a, a, b, b), any real theta."""
    s, c = math.sin, math.cos
    t = theta
    dwa = s(t) + s(2 * t) + 0.5 * s(t) + 0.5 * s(3 * t)
    dwb = s(t) + s(6 * t) + 0.5 * s(5 * t) + 0.5 * s(7 * t)
    gab = 0.5 * (s(t) + 2 * s(2 * t) + 2 * s(3 * t) + 2 * s(4 * t) + s(5 * t))
    ga = 2 + 2 * c(t) + c(t) + c(3 * t) + 2 * c(2 * t)
    gb = 2 + 2 * c(t) + c(5 * t) + c(7 * t) + 2 * c(6 * t)
    gc = c(t) + 2 * c(2 * t) + 2 * c(3 * t) + 2 * c(4 * t) + c(5 * t)
    return _two_atom(gamma, dwa, dwb, gab, ga, gb, gc)


def closed_form_nested(gamma: float, theta: float) -> MasterEqCoefficients:
    """Coefficients for the nested ordering (a, b, b, a), any real theta."""
    s, c = math.sin, math.cos
    t = theta
    dwa = s(3 * t) + s(4 * t) + 0.5 * s(t) + 0.5 * s(7 * t)
    dwb = s(t) + s(4 * t) + 0.5 * s(3 * t) + 0.5 * s(5 * t)
    gab = 0.5 * (2 * s(t) + 3 * s(2 * t) + s(3 * t) + s(5 * t) + s(6 * t))
    ga = 2 + 2 * c(3 * t) + 2 * c(4 * t) + c(t) + c(7 * t)
    gb = 2 + 2 * c(t) + 2 * c(4 * t) + c(3 * t) + c(5 * t)
    gc = 2 * c(t) + 3 * c(2 * t) + c(3 * t) + c(5 * t) + c(6 * t)
    return _two_atom(gamma, dwa, dwb, gab, ga, gb, gc)


_CLOSED_FORMS = {
    Configuration.BRAIDED: closed_form_braided,
    Configuration.SEPARATE: closed_form_separate,
    Configuration.NESTED: closed_form_nested,
}


def closed_form_coefficients(kind, gamma: float, theta: float) -> MasterEqCoefficients:
    """Hand-expanded coefficients of a canonical configuration kind."""
    return _CLOSED_FORMS[Configuration(kind)](gamma, theta)


def hamiltonian_matrix(coeffs: MasterEqCoefficients) -> np.ndarray:
    """Coherent (Lamb shift + exchange) Hamiltonian on the 2**M space, pair by pair."""
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


def pairwise_drift_operator(coeffs: MasterEqCoefficients) -> np.ndarray:
    """K = -iH - (1/2) sum_jk decay_jk sp_k sm_j; rhs = K rho + rho K^dag + jumps."""
    m = coeffs.n_atoms
    k_op = -1j * hamiltonian_matrix(coeffs)
    dec = coeffs.decay
    for j in range(m):
        for k in range(m):
            if dec[j, k] != 0.0:
                k_op -= 0.5 * dec[j, k] * (slh.sigma_plus(k, m) @ slh.sigma_minus(j, m))
    return k_op


def lindblad_rhs(rho: np.ndarray, coeffs: MasterEqCoefficients) -> np.ndarray:
    """The library's drho/dt of one state under one coefficient set:
    ``_operators`` on one-set stacks, then ``_apply_generator``.  Raises on
    an unphysical decay matrix."""
    ops = dynamics._operators(coeffs.shift[None], coeffs.decay[None])
    return dynamics._apply_generator(rho[None], *ops)[0]


def pairwise_lindblad_rhs(rho: np.ndarray, coeffs: MasterEqCoefficients) -> np.ndarray:
    """Right-hand side drho/dt of the master equation.

    Trace of the result is zero up to roundoff.  Raises on an unphysical
    decay matrix (negative eigenvalue beyond tolerance).
    """
    dynamics._decay_channels(coeffs.decay[None])
    m = coeffs.n_atoms
    if rho.shape != (2 ** m, 2 ** m):
        raise ValueError(f"rho shape {rho.shape} does not match {m} atoms")
    k_op = pairwise_drift_operator(coeffs)
    out = k_op @ rho + rho @ k_op.conj().T
    dec = coeffs.decay
    for j in range(m):
        for k in range(m):
            if dec[j, k] != 0.0:
                out += dec[j, k] * (slh.sigma_minus(j, m) @ rho @ slh.sigma_plus(k, m))
    return out


def pairwise_superoperator(coeffs: MasterEqCoefficients) -> np.ndarray:
    """The generator as a 4**M x 4**M matrix on row-major vec(rho), pair by pair.

    vec(A rho B) = kron(A, B^T) vec(rho): K rho + rho K^dag gives
    kron(K, I) + kron(I, K*), and each jump term decay_jk sm_j rho sp_k
    gives decay_jk kron(sm_j, sm_k) (sm_k is real, sp_k^T = sm_k).
    """
    m = coeffs.n_atoms
    k_op = pairwise_drift_operator(coeffs)
    eye = np.eye(2 ** m)
    sup = np.kron(k_op, eye) + np.kron(eye, k_op.conj())
    dec = coeffs.decay
    for j in range(m):
        for k in range(m):
            if dec[j, k] != 0.0:
                sup += dec[j, k] * np.kron(slh.sigma_minus(j, m), slh.sigma_minus(k, m))
    return sup


def eigen_states(generator: np.ndarray, rho0: np.ndarray, times) -> np.ndarray:
    """States (T, d, d) exp(t * generator) vec(rho0) = V diag(e^{lambda t}) V^-1 vec(rho0).

    One eigendecomposition of the generator serves every time.
    """
    lam, vecs = np.linalg.eig(generator)
    coef = np.linalg.solve(vecs, rho0.reshape(-1))
    return ((vecs * np.exp(np.outer(times, lam))[:, None, :]) @ coef).reshape(-1, *rho0.shape)


def single_excitation_propagators(coeffs: MasterEqCoefficients, times) -> np.ndarray:
    """exp(-i H_eff t) at each time, shape (T, M, M), atom j excited in row j.

    H_eff = shift - (i/2) decay, exponentiated through its eigendecomposition.
    A 2x2 H_eff at an exceptional point, mbar I + N with N @ N = 0, has no
    eigenbasis; there the series ends after the linear term,
    exp(-i H_eff t) = e^{-i mbar t} (I - i t N).
    """
    h_eff = coeffs.shift - 0.5j * coeffs.decay
    times = np.asarray(times, dtype=float)
    m = len(h_eff)
    mbar = np.trace(h_eff) / m
    nil = h_eff - mbar * np.eye(m)
    if m == 2 and np.abs(nil @ nil).max() <= 1e-12 * np.abs(nil).max() ** 2:
        t = times[:, None, None]
        return np.exp(-1j * mbar * t) * (np.eye(m) - 1j * t * nil)
    lam, vecs = np.linalg.eig(h_eff)
    return np.einsum("ij,tj,jk->tik", vecs, np.exp(-1j * np.outer(times, lam)), np.linalg.inv(vecs))


def single_excitation_states(rho0: np.ndarray, coeffs: MasterEqCoefficients, times) -> np.ndarray:
    """Exact density matrices (T, 2**M, 2**M) from rho0 with at most one excitation.

    With U = exp(-i H_eff t) on the one-excitation states (atom j excited:
    every qubit in state 1 but qubit j, index 2**M - 1 - 2**(M-1-j)) and the
    ground state |g...g> (index 2**M - 1): rho_11 -> U rho_11 U^dag,
    rho_1g -> U rho_1g, rho_gg = 1 - tr rho_11, every other entry 0.
    """
    m = coeffs.n_atoms
    dim = 2 ** m
    one = dim - 1 - 2 ** (m - 1 - np.arange(m))
    g = dim - 1
    rest = np.ones(dim, dtype=bool)
    rest[one] = rest[g] = False
    assert not rho0[rest].any() and not rho0[:, rest].any(), "rho0 has more than one excitation"
    u = single_excitation_propagators(coeffs, times)
    r11 = u @ rho0[np.ix_(one, one)] @ u.conj().swapaxes(1, 2)
    r1g = u @ rho0[one, g]
    out = np.zeros((len(u), dim, dim), dtype=complex)
    out[:, one[:, None], one] = r11
    out[:, one, g] = r1g
    out[:, g, one] = r1g.conj()
    out[:, g, g] = 1.0 - np.trace(r11, axis1=1, axis2=2)
    return out


def first_check_failure(states, steps):
    """Message of the first failing check on states[n] = state after step steps[n].

    Trace, Hermiticity and spectrum of every state, in that order.  The
    tolerances are read from ``gawsim.dynamics`` at call time; None if
    every check passes.
    """
    for i, rho in zip(steps, states):
        tr_err = abs(np.trace(rho) - 1.0)
        if tr_err > dynamics.TRACE_TOL:
            return f"trace drifted by {tr_err:.3e} at step {i}"
        herm_err = float(np.abs(rho - rho.conj().T).max())
        if herm_err > dynamics.HERM_TOL:
            return f"Hermiticity residue {herm_err:.3e} at step {i}"
        lo = float(np.linalg.eigvalsh(rho).min())
        if lo < dynamics.EIG_FLOOR:
            return f"eigenvalue {lo:.3e} below floor at step {i}"
    return None


_SY_SY = np.kron(np.array([[0.0, -1.0j], [1.0j, 0.0]]), np.array([[0.0, -1.0j], [1.0j, 0.0]]))


def eigen_concurrence(rho: np.ndarray) -> float:
    """Wootters concurrence of one two-qubit density matrix from its eigenvalues.

    C = max(0, l1 - l2 - l3 - l4) where l_i are the decreasingly sorted
    square roots of the eigenvalues of rho (sy x sy) rho* (sy x sy).
    """
    rho_tilde = rho @ _SY_SY @ rho.conj() @ _SY_SY
    evals = np.linalg.eigvals(rho_tilde).real
    # eigenvalues are nonnegative up to roundoff; rank-deficient inputs leave
    # eps-size debris that the square root would blow up to sqrt(eps)
    evals = np.clip(evals, 0.0, None)
    evals[evals < 1e-12 * evals.max(initial=0.0)] = 0.0
    lam = np.sqrt(evals)
    lam.sort()
    return float(max(0.0, lam[3] - lam[2] - lam[1] - lam[0]))


def phase_element(phi: float, dim: int) -> slh.SLHTriplet:
    """Pure propagation phase (e^{i*phi}, 0, 0)."""
    zero = np.zeros((dim, dim), dtype=complex)
    return slh.SLHTriplet(np.exp(1j * phi), zero, zero.copy())


def identity_triplet(dim: int) -> slh.SLHTriplet:
    """The identity component (1, 0, 0) of the series product."""
    return phase_element(0.0, dim)


def per_value_csv(header_lines, columns, rows) -> str:
    """CSV text: header lines, column names, then each value of each tuple row."""
    lines = list(header_lines) + [",".join(columns)]
    for row in rows:
        lines.append(",".join(format(float(v), ".17g") for v in row))
    return "\n".join(lines) + "\n"
