"""References the benchmark owns, and the checks that compare artifacts to them.

The references do not call gawsim: coefficients come from a vectorised
pair sum over explicit connection points, single-excitation dynamics from
propagating the M x M effective Hamiltonian with a scaling-and-squaring
matrix exponential (no eigendecomposition, so exceptional points need no
special case).  Tolerances are fixed here and are not tuned per run.

Every check raises ``CheckFailed`` with a message naming what differed.
"""

from __future__ import annotations

import json
import math

import numpy as np

TWO_PI = 2.0 * math.pi

COEFF_TOL = 1e-10
SLH_TOL = 1e-9
DFI_TOL = 1e-9
DYNAMICS_TOL = 1e-6

COEFF_COLUMNS = ["theta", "domega_a", "domega_b", "g_ab", "Gamma_a", "Gamma_b", "Gamma_coll"]
EFFECTIVE_COLUMNS = ["t", "re_ceg", "im_ceg", "re_cge", "im_cge", "concurrence"]
LINDBLAD_COLUMNS = ["t", "p_ee", "p_eg", "p_ge", "p_gg", "concurrence"]
SWEEP_COLUMNS = ["theta", "t", "concurrence"]

#: The paper's DFI points in [0, 2*pi).
DFI_POINTS = {
    "braided": (math.pi / 2, 3 * math.pi / 2),
    "nested": (math.pi / 4, 3 * math.pi / 4, 5 * math.pi / 4, 7 * math.pi / 4),
    "separate": (),
}

#: Atom of each canonical connection point, nearest the mirror first.
CANONICAL_ORDER = {
    "braided": (0, 1, 0, 1),
    "separate": (0, 0, 1, 1),
    "nested": (0, 1, 1, 0),
}


class CheckFailed(Exception):
    """An artifact disagrees with the benchmark's reference."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def require_close(actual, expected, tol: float, what: str) -> None:
    actual = np.asarray(actual)
    expected = np.asarray(expected)
    require(actual.shape == expected.shape, f"{what}: shape {actual.shape} != {expected.shape}")
    err = float(np.max(np.abs(actual - expected), initial=0.0))
    require(np.isfinite(err) and err <= tol, f"{what}: max error {err:.3e} > {tol:.0e}")


# --- references -----------------------------------------------------------

def canonical_points(kind: str, gamma: float, theta: float):
    """(owner, phase, gamma) arrays of a canonical two-atom layout."""
    owner = np.array(CANONICAL_ORDER[kind])
    phases = np.array([(2 * i + 1) * theta / 2 for i in range(4)])
    return owner, phases, np.full(4, gamma)


def reference_coefficients(owner, phases, gammas, n_atoms: int):
    """(lamb, exchange, decay, collective) from the mirror pair sums.

    Sum over point pairs of sqrt(g_n g_m) * (f(|phi_n - phi_m|) + f(phi_n + phi_m)),
    f = sin (halved) for shifts and exchange, f = cos for decay rates.
    """
    w = np.sqrt(np.outer(gammas, gammas))
    diff = np.abs(phases[:, None] - phases[None, :])
    summ = phases[:, None] + phases[None, :]
    onehot = np.zeros((len(owner), n_atoms))
    onehot[np.arange(len(owner)), owner] = 1.0
    sin_m = 0.5 * onehot.T @ (w * (np.sin(diff) + np.sin(summ))) @ onehot
    cos_m = onehot.T @ (w * (np.cos(diff) + np.cos(summ))) @ onehot
    off = ~np.eye(n_atoms, dtype=bool)
    return np.diag(sin_m).copy(), sin_m * off, np.diag(cos_m).copy(), cos_m * off


def layout_arrays(atoms):
    """Flatten seeded atoms [[(phase, gamma), ...], ...] to point arrays."""
    owner = np.array([j for j, pts in enumerate(atoms) for _ in pts])
    phases = np.array([p for pts in atoms for p, _ in pts])
    gammas = np.array([g for pts in atoms for _, g in pts])
    return owner, phases, gammas


def effective_generator(coeffs) -> np.ndarray:
    """A = -i H_eff with H_eff = diag(dw) + g - (i/2) * decay matrix."""
    lamb, exch, decay, coll = coeffs
    decay_matrix = coll + np.diag(decay)
    return -1j * (np.diag(lamb) + exch) - 0.5 * decay_matrix


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring of a degree-18 Taylor sum."""
    norm = float(np.abs(a).sum(axis=0).max())
    squarings = max(0, int(math.ceil(math.log2(norm))) + 1) if norm > 0.5 else 0
    b = a / 2.0 ** squarings
    out = np.eye(len(a), dtype=complex)
    term = np.eye(len(a), dtype=complex)
    for k in range(1, 19):
        term = term @ b / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


def propagate(coeffs, c0, times) -> np.ndarray:
    """Single-excitation amplitudes at each time, shape (T, M)."""
    a = effective_generator(coeffs)
    c0 = np.asarray(c0, dtype=complex)
    return np.array([expm(a * t) @ c0 for t in times])


def propagate_grid(coeffs, c0, times) -> np.ndarray:
    """Amplitudes on an evenly spaced grid starting at 0, by repeated steps."""
    step = expm(effective_generator(coeffs) * (times[1] - times[0]))
    out = np.empty((len(times), len(c0)), dtype=complex)
    out[0] = c0
    for i in range(1, len(times)):
        out[i] = step @ out[i - 1]
    return out


def pair_concurrence(amps) -> np.ndarray:
    return 2.0 * np.abs(amps[:, 0] * amps[:, 1].conj())


# --- artifact readers -----------------------------------------------------

def read_csv(path, columns):
    """Data rows of a CLI CSV as a float array, after checking the header."""
    with open(path) as fh:
        lines = [line for line in fh.read().splitlines() if not line.startswith("#")]
    require(len(lines) >= 1, f"{path}: no column header")
    require(lines[0].split(",") == columns, f"{path}: columns {lines[0]!r}")
    data = np.loadtxt(lines[1:], delimiter=",", ndmin=2)
    require(data.shape[1] == len(columns), f"{path}: {data.shape[1]} fields per row")
    return data


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


# --- checks per job kind --------------------------------------------------

def check_coeffs(path, kind, gamma, theta_min, theta_max, steps, sample_rows):
    data = read_csv(path, COEFF_COLUMNS)
    require(len(data) == steps, f"coeffs: {len(data)} rows, expected {steps}")
    require_close(data[:, 0], np.linspace(theta_min, theta_max, steps), 1e-12, "coeffs theta")
    for i in sample_rows:
        lamb, exch, decay, coll = reference_coefficients(*canonical_points(kind, gamma, data[i, 0]), 2)
        expected = [lamb[0], lamb[1], exch[0, 1], decay[0], decay[1], coll[0, 1]]
        require_close(data[i, 1:], expected, COEFF_TOL, f"coeffs row {i}")


def expected_dfi_points(kind, theta_min):
    """The paper's DFI set, mapped into [theta_min, theta_min + 2*pi)."""
    return sorted(p + TWO_PI * math.ceil((theta_min - p) / TWO_PI) for p in DFI_POINTS[kind])


def check_dfi(path, kind, theta_min):
    points = [p["theta"] for p in read_json(path)["points"]]
    expected = expected_dfi_points(kind, theta_min)
    require(len(points) == len(expected), f"dfi {kind}: found {len(points)}, expected {len(expected)}")
    require_close(points, expected, DFI_TOL, f"dfi {kind} points")


def check_sweep(path, kind, gamma, thetas, times, sample_columns, braided_pi_half=None):
    """Grid shape and axes, sampled columns against the reference dynamics,
    and for the braided closed form the column at theta = pi/2 against
    |sin(2 gamma t)|."""
    data = read_csv(path, SWEEP_COLUMNS)
    n_t = len(times)
    require(len(data) == len(thetas) * n_t, f"sweep: {len(data)} rows")
    grid = data[:, 2].reshape(len(thetas), n_t)
    require_close(data[::n_t, 0], thetas, 1e-12, "sweep theta axis")
    require_close(data[:n_t, 1], times, 1e-12, "sweep time axis")
    for i in sample_columns:
        coeffs = reference_coefficients(*canonical_points(kind, gamma, thetas[i]), 2)
        expected = pair_concurrence(propagate_grid(coeffs, [1.0, 0.0], times))
        require_close(grid[i], expected, DYNAMICS_TOL, f"sweep column {i}")
    if braided_pi_half is not None:
        require(abs(thetas[braided_pi_half] - math.pi / 2) < 1e-12, "sweep grid misses pi/2")
        expected = np.abs(np.sin(2 * gamma * np.asarray(times)))
        require_close(grid[braided_pi_half], expected, DYNAMICS_TOL, "braided theta=pi/2 column")


def check_sweeps_agree(path, reference_path):
    """Every cell of one sweep against the same cell of another on the same grid."""
    data = read_csv(path, SWEEP_COLUMNS)
    reference = read_csv(reference_path, SWEEP_COLUMNS)
    require_close(data[:, :2], reference[:, :2], 0.0, "sweep grids")
    require_close(data[:, 2], reference[:, 2], DYNAMICS_TOL, "lindblad vs effective sweep")


def check_evolve_effective(path, kind, gamma, theta, c0, times, sample_rows):
    data = read_csv(path, EFFECTIVE_COLUMNS)
    require(len(data) == len(times), f"evolve: {len(data)} rows")
    require_close(data[:, 0], times, 1e-12, "evolve time axis")
    coeffs = reference_coefficients(*canonical_points(kind, gamma, theta), 2)
    amps = propagate(coeffs, c0, times[sample_rows])
    rows = data[sample_rows]
    require_close(rows[:, 1] + 1j * rows[:, 2], amps[:, 0], DYNAMICS_TOL, "evolve c_eg")
    require_close(rows[:, 3] + 1j * rows[:, 4], amps[:, 1], DYNAMICS_TOL, "evolve c_ge")
    require_close(rows[:, 5], pair_concurrence(amps), DYNAMICS_TOL, "evolve concurrence")


def check_evolve_analytic(path, gamma, theta, times, sample_rows):
    data = read_csv(path, ["t", "concurrence"])
    require(len(data) == len(times), f"evolve analytic: {len(data)} rows")
    coeffs = reference_coefficients(*canonical_points("braided", gamma, theta), 2)
    expected = pair_concurrence(propagate(coeffs, [1.0, 0.0], times[sample_rows]))
    require_close(data[sample_rows, 1], expected, DYNAMICS_TOL, "analytic concurrence")


def check_evolve_lindblad(path, kind, gamma, theta, c0):
    data = read_csv(path, LINDBLAD_COLUMNS)
    require(len(data) > 1, "evolve lindblad: no steps stored")
    coeffs = reference_coefficients(*canonical_points(kind, gamma, theta), 2)
    amps = propagate(coeffs, c0, data[:, 0])
    pops = np.abs(amps) ** 2
    require_close(data[:, 1], np.zeros(len(data)), DYNAMICS_TOL, "lindblad p_ee")
    require_close(data[:, 2:4], pops, DYNAMICS_TOL, "lindblad single-excitation populations")
    require_close(data[:, 4], 1.0 - pops.sum(axis=1), DYNAMICS_TOL, "lindblad p_gg")
    require_close(data[:, 5], pair_concurrence(amps), DYNAMICS_TOL, "lindblad concurrence")


def single_excitation_index(atom: int, n_atoms: int) -> int:
    """Basis index of 'atom excited, rest ground' (|e> = 0, atom 0 most significant)."""
    return (2 ** n_atoms - 1) - 2 ** (n_atoms - 1 - atom)


def check_lindblad_populations(record, atoms, c0):
    """Dense-Lindblad populations against M x M effective propagation."""
    m = len(atoms)
    coeffs = reference_coefficients(*layout_arrays(atoms), m)
    pops = np.abs(propagate(coeffs, c0, record.times)) ** 2
    idx = [single_excitation_index(j, m) for j in range(m)]
    got = np.real(record.states[:, idx, idx])
    require_close(got, pops, DYNAMICS_TOL, f"M={m} populations")


def check_coefficients(result, atoms, tol, what):
    m = len(atoms)
    lamb, exch, decay, coll = reference_coefficients(*layout_arrays(atoms), m)
    require_close(result.lamb_shifts, lamb, tol, f"{what} lamb shifts")
    require_close(result.exchange, exch, tol, f"{what} exchange")
    require_close(result.individual_decay, decay, tol, f"{what} individual decay")
    require_close(result.collective_decay, coll, tol, f"{what} collective decay")
