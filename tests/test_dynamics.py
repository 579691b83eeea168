import math
import warnings

import numpy as np
import pytest
from oracles import (
    closed_form_braided,
    coefficient_set,
    eigen_concurrence,
    eigen_states,
    first_check_failure,
    lindblad_rhs,
    pairwise_lindblad_rhs,
    pairwise_superoperator,
    single_excitation_propagators,
    single_excitation_states,
)

import gawsim.dynamics as dyn
from gawsim.coefficients import MasterEqCoefficients, canonical_coefficients, canonical_sums
from gawsim.dynamics import (
    AmplitudeState,
    amplitude_trajectory,
    concurrence_from_amplitudes,
    density_from_amplitudes,
    evolve_amplitudes,
    evolve_lindblad,
    recommended_timestep,
    wootters_concurrence,
)
from gawsim.errors import NumericalFailure
from gawsim.model import Configuration

EG = AmplitudeState(1.0, 0.0)


def rho_eg():
    return density_from_amplitudes(EG)


def zero_coeffs():
    return MasterEqCoefficients(np.zeros((2, 2)), np.zeros((2, 2)))


def effective_hamiltonian(coeffs):
    """H_eff of one coefficient set."""
    return dyn._effective_hamiltonians(coeffs.shift, coeffs.decay)


def _stacks(sets):
    """(B, M, M) shift and decay stacks of B coefficient sets."""
    return np.array([c.shift for c in sets]), np.array([c.decay for c in sets])


# ---------------------------------------------------------------- effective


def test_effective_hamiltonian_pure_exchange():
    h = effective_hamiltonian(closed_form_braided(1.0, math.pi / 2))
    np.testing.assert_allclose(h, [[0, 1], [1, 0]], atol=1e-12)


def test_effective_hamiltonian_theta_zero():
    h = effective_hamiltonian(closed_form_braided(1.0, 0.0))
    np.testing.assert_allclose(h, [[-4j, -4j], [-4j, -4j]], atol=1e-12)


def test_effective_hamiltonian_zero_coeffs():
    np.testing.assert_allclose(effective_hamiltonian(zero_coeffs()), np.zeros((2, 2)))


def test_amplitudes_pure_exchange_rotation():
    coeffs = closed_form_braided(1.0, math.pi / 2)
    for t in (0.3, 1.0, 2.7):
        state = evolve_amplitudes(EG, coeffs, t)
        assert state.c_eg == pytest.approx(math.cos(t), abs=1e-12)
        assert state.c_ge == pytest.approx(-1j * math.sin(t), abs=1e-12)


def test_amplitudes_theta_zero_mode_split():
    # symmetric mode decays at 16, antisymmetric is dark
    coeffs = closed_form_braided(1.0, 0.0)
    for t in (0.05, 0.2, 1.0):
        state = evolve_amplitudes(EG, coeffs, t)
        assert state.c_eg == pytest.approx((1 + math.exp(-8 * t)) / 2, abs=1e-12)
        assert state.c_ge == pytest.approx((math.exp(-8 * t) - 1) / 2, abs=1e-12)


def test_amplitudes_frozen_at_decoupling():
    coeffs = closed_form_braided(1.0, math.pi)
    for t in (0.5, 5.0, 50.0):
        state = evolve_amplitudes(EG, coeffs, t)
        assert state.c_eg == pytest.approx(1.0, abs=1e-9)
        assert abs(state.c_ge) < 1e-9


def test_amplitudes_dissipative_dark_mode():
    # purely dissipative symmetric coupling, H = -i [[1, 1], [1, 1]]: a dark mode
    # and a bright one decaying at 2 (diagonalisable, so not an exceptional point)
    coeffs = MasterEqCoefficients(np.zeros((2, 2)), np.full((2, 2), 2.0))
    # exact: c = exp(-t * [[1, 1], [1, 1]]) @ (1, 0)
    for t in (0.1, 0.7, 2.0):
        state = evolve_amplitudes(EG, coeffs, t)
        c_eg = (1 + math.exp(-2 * t)) / 2
        c_ge = (math.exp(-2 * t) - 1) / 2
        assert state.c_eg == pytest.approx(c_eg, abs=1e-10)
        assert state.c_ge == pytest.approx(c_ge, abs=1e-10)


def test_amplitude_norm_never_grows():
    rng = np.random.default_rng(0)
    kinds = list(Configuration)
    for _ in range(40):
        kind = kinds[rng.integers(3)]
        coeffs = canonical_coefficients(kind, 1.0, float(rng.uniform(0, 2 * math.pi)))
        times = np.sort(rng.uniform(0.01, 6.0, size=8))
        norms = [evolve_amplitudes(EG, coeffs, float(t)).norm() for t in times]
        assert all(n <= 1.0 + 1e-9 for n in norms)
        assert all(b <= a + 1e-9 for a, b in zip(norms, norms[1:]))


def test_amplitude_norm_conserved_at_dfi():
    for kind, theta in [("braided", math.pi / 2), ("nested", math.pi / 4)]:
        coeffs = canonical_coefficients(kind, 1.0, theta)
        for t in np.linspace(0.5, 10.0, 20):
            assert abs(evolve_amplitudes(EG, coeffs, float(t)).norm() - 1.0) < 1e-12


def test_amplitude_trajectory_matches_pointwise():
    coeffs = closed_form_braided(1.0, 1.1)
    times = np.linspace(0.0, 3.0, 25)
    record = amplitude_trajectory(EG, coeffs, times)
    for t, s, c in zip(record.times, record.states, record.concurrence):
        single = evolve_amplitudes(EG, coeffs, float(t))
        assert single.c_eg == pytest.approx(s[0], abs=1e-13)
        assert single.c_ge == pytest.approx(s[1], abs=1e-13)
        assert c == pytest.approx(concurrence_from_amplitudes(single), abs=1e-13)


def _random_amplitudes(rng):
    raw = rng.normal(size=2) + 1j * rng.normal(size=2)
    raw /= np.linalg.norm(raw)
    return AmplitudeState(complex(raw[0]), complex(raw[1]))


@pytest.mark.parametrize("config", list(Configuration))
def test_amplitudes_match_eigen_propagator_at_long_times(config):
    # up to t = 400, |s t| reaches the hundreds: the closed form stays bounded there
    rng = np.random.default_rng(140 + list(Configuration).index(config))
    times = np.linspace(0.0, 400.0, 4001)
    for theta in rng.uniform(0.0, 2 * math.pi, 8):
        coeffs = canonical_coefficients(config, 1.0, float(theta))
        initial = _random_amplitudes(rng)
        record = amplitude_trajectory(initial, coeffs, times)
        expected = single_excitation_propagators(coeffs, times) @ [initial.c_eg, initial.c_ge]
        np.testing.assert_allclose(record.states, expected, atol=1e-12, rtol=0)


@pytest.mark.parametrize("offset", [0.0, 1e-12, 1e-8, 1e-1])
def test_amplitudes_match_lindblad_near_exceptional_point(offset):
    # H_eff = [[offset - 2i, 1], [1, 0]]: s**2 = offset**2 / 4 - i offset, an
    # exceptional point at offset 0.  The eigen propagator is ill-conditioned
    # there; the master equation's {eg, ge} block is the reference
    coeffs = MasterEqCoefficients(np.array([[offset, 1.0], [1.0, 0.0]]), np.diag([4.0, 0.0]))
    rng = np.random.default_rng(150)
    for initial in (EG, AmplitudeState(0.0, 1.0), _random_amplitudes(rng)):
        lind = evolve_lindblad(density_from_amplitudes(initial), coeffs, t_max=6.0, dt=0.05, store_every=3)
        amps = amplitude_trajectory(initial, coeffs, lind.times).states
        block = amps[:, :, None] * amps[:, None, :].conj()
        np.testing.assert_allclose(block, lind.states[:, 1:3, 1:3], atol=1e-12, rtol=0)


def test_rejects_negative_time_and_large_norm():
    coeffs = closed_form_braided(1.0, 1.0)
    with pytest.raises(ValueError):
        evolve_amplitudes(EG, coeffs, -0.1)
    with pytest.raises(ValueError):
        evolve_amplitudes(AmplitudeState(1.0, 1.0), coeffs, 0.1)


# -------------------------------------------------------------- concurrence


def test_concurrence_from_amplitudes_examples():
    assert concurrence_from_amplitudes(AmplitudeState(1.0, 0.0)) == 0.0
    bell = AmplitudeState(1 / math.sqrt(2), -1j / math.sqrt(2))
    assert concurrence_from_amplitudes(bell) == pytest.approx(1.0, abs=1e-15)
    tilted = AmplitudeState(math.cos(math.pi / 8), -1j * math.sin(math.pi / 8))
    assert concurrence_from_amplitudes(tilted) == pytest.approx(math.sqrt(2) / 2, abs=1e-15)


def test_wootters_bell_state():
    psi = np.array([0, 1, 1, 0]) / math.sqrt(2)
    rho = np.outer(psi, psi.conj())
    assert wootters_concurrence(rho) == pytest.approx(1.0, abs=1e-12)


def test_wootters_product_state():
    assert wootters_concurrence(rho_eg()) == pytest.approx(0.0, abs=1e-12)


def test_wootters_werner_mixture():
    psi = np.array([0, 1, -1, 0]) / math.sqrt(2)
    p = 0.5
    rho = p * np.outer(psi, psi.conj()) + (1 - p) * np.eye(4) / 4
    assert wootters_concurrence(rho) == pytest.approx(0.25, abs=1e-12)
    # below the entanglement threshold p = 1/3 the mixture is separable
    rho = (1 / 3) * np.outer(psi, psi.conj()) + (2 / 3) * np.eye(4) / 4
    assert wootters_concurrence(rho) == pytest.approx(0.0, abs=1e-9)


def test_wootters_rejects_wrong_shape():
    with pytest.raises(ValueError):
        wootters_concurrence(np.eye(8) / 8)


@pytest.mark.parametrize("ee_weight", [0.0, 0.1], ids=["closed-form", "eigenvalues"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, math.nan)])
def test_wootters_rejects_non_finite_entry(ee_weight, bad):
    # without |ee> weight the closed form would return nan, with it eigvals would raise
    rho = np.diag([ee_weight, 0.5 - ee_weight, 0.5, 0.0]).astype(complex)
    rho[1, 2] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="rho has non-finite entries"):
            wootters_concurrence(rho)


def test_wootters_agrees_with_amplitude_formula_on_pure_states():
    rng = np.random.default_rng(4)
    for _ in range(30):
        raw = rng.normal(size=2) + 1j * rng.normal(size=2)
        raw /= np.linalg.norm(raw)
        state = AmplitudeState(complex(raw[0]), complex(raw[1]))
        assert wootters_concurrence(density_from_amplitudes(state)) == pytest.approx(
            concurrence_from_amplitudes(state), abs=1e-10
        )


# ------------------------------------------------------------------ lindblad


def test_rhs_ground_state_stationary():
    ground = np.zeros((4, 4), dtype=complex)
    ground[3, 3] = 1.0  # |gg>
    for theta in (0.0, 0.7, 2.0):
        out = lindblad_rhs(ground, closed_form_braided(1.0, theta))
        assert np.abs(out).max() < 1e-14


def test_rhs_zero_for_decoupled_coeffs():
    rng = np.random.default_rng(8)
    raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = raw @ raw.conj().T
    rho /= np.trace(rho)
    out = lindblad_rhs(rho, closed_form_braided(1.0, math.pi))
    assert np.abs(out).max() < 1e-13


def test_rhs_no_upward_pumping():
    out = lindblad_rhs(rho_eg(), closed_form_braided(1.0, 0.0))
    assert out[0, 0] == pytest.approx(0.0, abs=1e-15)


def test_rhs_traceless():
    rng = np.random.default_rng(9)
    raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = raw @ raw.conj().T
    rho /= np.trace(rho)
    for theta in (0.3, 1.9):
        out = lindblad_rhs(rho, closed_form_braided(1.0, theta))
        assert abs(np.trace(out)) < 1e-12


def test_rhs_rejects_unphysical_decay_matrix():
    bad = MasterEqCoefficients(np.zeros((2, 2)), np.array([[0.1, 1.0], [1.0, 0.1]]))
    with pytest.raises(NumericalFailure):
        lindblad_rhs(rho_eg(), bad)


def test_amplitude_path_shares_the_decay_matrix_check():
    def with_rate(value):
        return MasterEqCoefficients(np.zeros((2, 2)), np.diag([value, 1.0]))

    with pytest.raises(NumericalFailure) as amplitudes:
        amplitude_trajectory(AmplitudeState(1.0, 0.0), with_rate(-1.0), [0.0, 1.0])
    with pytest.raises(NumericalFailure) as lindblad:
        evolve_lindblad(rho_eg(), with_rate(-1.0), t_max=0.1, dt=0.01)
    assert str(amplitudes.value) == str(lindblad.value) == (
        "decay matrix eigenvalue -1.000e+00 is negative (unphysical)")
    # within the tolerance of -1e-9 * max(1, max|G|)
    record = amplitude_trajectory(AmplitudeState(1.0, 0.0), with_rate(-0.5e-9), [0.0, 1.0])
    assert np.isfinite(record.states).all()


def test_lindblad_theta_zero_concurrence():
    coeffs = closed_form_braided(1.0, 0.0)
    record = evolve_lindblad(rho_eg(), coeffs, t_max=0.5, dt=6.25e-5)
    expected = 0.5 * (1 - np.exp(-16 * record.times))
    assert np.abs(record.concurrence - expected).max() < 1e-6
    for gt in (0.05, 0.1, 0.5):
        idx = np.argmin(np.abs(record.times - gt))
        assert record.concurrence[idx] == pytest.approx(0.5 * (1 - math.exp(-16 * gt)), abs=1e-6)


def test_lindblad_dfi_oscillation():
    coeffs = closed_form_braided(1.0, math.pi / 2)
    record = evolve_lindblad(rho_eg(), coeffs, t_max=2.0, dt=5e-4)
    expected = np.abs(np.sin(2 * record.times))
    assert np.abs(record.concurrence - expected).max() < 1e-6


def test_lindblad_frozen_at_decoupling():
    coeffs = closed_form_braided(1.0, math.pi)
    record = evolve_lindblad(rho_eg(), coeffs, t_max=1.0, dt=1e-3)
    assert np.abs(record.states - rho_eg()).max() < 1e-12


def test_lindblad_trace_and_positivity_drift():
    coeffs = closed_form_braided(1.0, 0.7)
    record = evolve_lindblad(rho_eg(), coeffs, t_max=2.0, dt=recommended_timestep(coeffs))
    for rho in record.states:
        assert abs(np.trace(rho) - 1.0) < 1e-9 * max(1.0, record.times[-1])
        assert np.linalg.eigvalsh(rho).min() >= -1e-8


def test_lindblad_superop_and_direct_paths_agree():
    import gawsim.dynamics as dyn

    coeffs = closed_form_braided(1.0, 1.3)
    fast = evolve_lindblad(rho_eg(), coeffs, t_max=0.5, dt=1e-3)
    cap = dyn._SUPEROP_DIM_CAP
    dyn._SUPEROP_DIM_CAP = 1
    try:
        slow = evolve_lindblad(rho_eg(), coeffs, t_max=0.5, dt=1e-3)
    finally:
        dyn._SUPEROP_DIM_CAP = cap
    np.testing.assert_allclose(fast.states, slow.states, atol=1e-12, rtol=0)


def test_consistency_lindblad_vs_amplitudes_small_grid():
    for kind in Configuration:
        for theta in (0.4, 1.8, 4.4):
            coeffs = canonical_coefficients(kind, 1.0, theta)
            record = evolve_lindblad(rho_eg(), coeffs, t_max=1.0, dt=2.5e-4, store_every=1000)
            for t, c in zip(record.times[1:], record.concurrence[1:]):
                amp = evolve_amplitudes(EG, coeffs, float(t))
                assert c == pytest.approx(concurrence_from_amplitudes(amp), abs=1e-6)


def test_braided_concurrence_reflection_symmetry():
    times = np.linspace(0.0, 3.0, 40)
    for theta in (0.3, 1.0, 2.4):
        a = amplitude_trajectory(EG, closed_form_braided(1.0, theta), times).concurrence
        b = amplitude_trajectory(EG, closed_form_braided(1.0, 2 * math.pi - theta), times).concurrence
        np.testing.assert_allclose(a, b, atol=1e-9, rtol=0)


def test_invalid_rho0_rejected():
    coeffs = closed_form_braided(1.0, 1.0)
    bad = np.eye(4, dtype=complex)  # trace 4
    with pytest.raises(NumericalFailure):
        evolve_lindblad(bad, coeffs, 0.1, 1e-3)


@pytest.mark.parametrize("value", [np.nan, np.inf, complex(0.0, np.nan)])
def test_non_finite_rho0_rejected_by_name(value):
    # a NaN residue compares False against every tolerance; it must still fail
    bad = rho_eg()
    bad[2, 2] = value
    with pytest.raises(NumericalFailure, match=r"1 non-finite entries, the first at \(2, 2\)"):
        evolve_lindblad(bad, closed_form_braided(1.0, 1.0), 0.1, 1e-3)


def _rho0_with_residue():
    rho = rho_eg()
    rho[1, 2] = 1e-6  # rho[2, 1] stays 0
    return rho


def _rho0_below_floor():
    return np.diag([0.0, 0.6, 0.4 + 1e-6, -1e-6]).astype(complex)


# rho0 passes the check the stored states pass, at step 0
@pytest.mark.parametrize("make,message", [
    (_rho0_with_residue, r"^Hermiticity residue 1\.000e-06 at step 0$"),
    (_rho0_below_floor, r"^eigenvalue -1\.000e-06 below floor at step 0$"),
], ids=["hermiticity", "spectrum"])
def test_rho0_invariants_rejected_by_name(make, message):
    rho0 = make()
    assert abs(np.trace(rho0) - 1.0) <= dyn.TRACE_TOL
    sets = [closed_form_braided(1.0, 1.0), closed_form_braided(1.0, 0.4)]
    with pytest.raises(NumericalFailure, match=message):
        evolve_lindblad(rho0, sets[0], 0.1, 1e-3)
    with pytest.raises(NumericalFailure, match=message):
        dyn.evolve_lindblad_many(rho0, *_stacks(sets), 0.1, 1e-3)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_amplitude_trajectory_rejects_non_finite_times(value):
    with pytest.raises(ValueError, match="^times must be finite$"):
        amplitude_trajectory(EG, closed_form_braided(1.0, 0.7), [0.0, 1.0, value])


def test_three_atom_lindblad_evolution():
    from gawsim.coefficients import general_coefficients
    from gawsim.model import ConnectionPoint, GiantAtomSpec, build_custom

    layout = build_custom(
        [
            GiantAtomSpec(0, (ConnectionPoint(0, 0.4, 1.0),)),
            GiantAtomSpec(1, (ConnectionPoint(1, 1.3, 0.5),)),
            GiantAtomSpec(2, (ConnectionPoint(2, 2.9, 1.5),)),
        ]
    )
    coeffs = general_coefficients(layout)
    rho0 = np.zeros((8, 8), dtype=complex)
    rho0[3, 3] = 1.0  # |egg...> style single-excitation basis state
    record = evolve_lindblad(rho0, coeffs, t_max=0.5, dt=5e-4)
    assert record.concurrence is None
    assert record.states.shape[1:] == (8, 8)
    for rho in record.states:
        assert abs(np.trace(rho) - 1.0) < 1e-9
        assert np.linalg.eigvalsh(rho).min() >= -1e-8
    # excitation can only flow downhill: ground population grows monotonically
    ground = record.states[:, -1, -1].real
    assert np.all(np.diff(ground) >= -1e-12)


def test_lindblad_dense_cap_rejected():
    from gawsim.coefficients import general_coefficients
    from gawsim.model import ConnectionPoint, GiantAtomSpec, build_custom

    atoms = [GiantAtomSpec(i, (ConnectionPoint(i, 0.1 + 0.2 * i, 1.0),)) for i in range(7)]
    coeffs = general_coefficients(build_custom(atoms))
    dim = 2 ** 7
    rho0 = np.zeros((dim, dim), dtype=complex)
    rho0[-1, -1] = 1.0
    with pytest.raises(ValueError):
        evolve_lindblad(rho0, coeffs, 0.1, 1e-3)


def test_recommended_timestep_scales_with_rates():
    coeffs = closed_form_braided(1.0, 0.0)  # total decay 16
    assert recommended_timestep(coeffs) == pytest.approx(1e-3 / 16.0)


# ------------------------------------------- generator and integration paths


def _mirror_coeffs(rng, m):
    from gawsim.coefficients import general_coefficients
    from gawsim.model import ConnectionPoint, GiantAtomSpec, build_custom

    n = 2 * m
    phases = 0.2 + np.cumsum(rng.uniform(0.2, 1.0, n))
    owner = rng.permutation(np.repeat(np.arange(m), 2))
    rates = rng.uniform(0.3, 1.0, n)
    atoms = [
        GiantAtomSpec(j, tuple(ConnectionPoint(j, float(phases[i]), float(rates[i]))
                               for i in range(n) if owner[i] == j))
        for j in range(m)
    ]
    return general_coefficients(build_custom(atoms))


def _mixed_state(rng, dim):
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = raw @ raw.conj().T
    return rho / np.trace(rho)


def _coeffs_with_decay(rng, decay):
    m = len(decay)
    exch = rng.normal(size=(m, m))
    exch = exch + exch.T
    np.fill_diagonal(exch, 0.0)
    coll = decay.copy()
    np.fill_diagonal(coll, 0.0)
    return coefficient_set(rng.normal(size=m), exch, np.diag(decay).copy(), coll)


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_rhs_matches_pairwise_oracle_on_mirror_layouts(m):
    rng = np.random.default_rng(100 + m)
    for _ in range(3):
        coeffs = _mirror_coeffs(rng, m)
        assert dyn._operators(*_stacks([coeffs]))[2].shape[1] == 1  # rank-one decay: one jump term
        rho = _mixed_state(rng, 2 ** m)
        np.testing.assert_allclose(
            lindblad_rhs(rho, coeffs), pairwise_lindblad_rhs(rho, coeffs), atol=1e-12, rtol=0
        )


def test_rhs_matches_pairwise_oracle_full_rank_decay():
    rng = np.random.default_rng(21)
    b = rng.normal(size=(3, 3))
    coeffs = _coeffs_with_decay(rng, b @ b.T)
    assert dyn._operators(*_stacks([coeffs]))[2].shape[1] == 3
    for _ in range(3):
        rho = _mixed_state(rng, 8)
        np.testing.assert_allclose(
            lindblad_rhs(rho, coeffs), pairwise_lindblad_rhs(rho, coeffs), atol=1e-12, rtol=0
        )


def test_rhs_keeps_tolerated_negative_decay_eigenvalue():
    rng = np.random.default_rng(22)
    u, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    decay = u @ np.diag([2.0, 1.0, -5e-10]) @ u.T
    coeffs = _coeffs_with_decay(rng, 0.5 * (decay + decay.T))
    lams = sorted(dyn._operators(*_stacks([coeffs]))[1][0])
    assert lams[0] == pytest.approx(-5e-10, rel=1e-5)
    rho = _mixed_state(rng, 8)
    np.testing.assert_allclose(
        lindblad_rhs(rho, coeffs), pairwise_lindblad_rhs(rho, coeffs), atol=1e-12, rtol=0
    )


def _check_dense_and_taylor_against_eigen_oracle(monkeypatch, m, n_steps):
    # cap 2**M forces the dense exponential, cap 1 the Taylor action
    rng = np.random.default_rng(30 + m)
    coeffs = _mirror_coeffs(rng, m)
    rho0 = _mixed_state(rng, 2 ** m)
    dt = 2e-3
    monkeypatch.setattr(dyn, "_SUPEROP_DIM_CAP", 2 ** m)
    dense = evolve_lindblad(rho0, coeffs, t_max=n_steps * dt, dt=dt, store_every=1)
    monkeypatch.setattr(dyn, "_SUPEROP_DIM_CAP", 1)
    taylor = evolve_lindblad(rho0, coeffs, t_max=n_steps * dt, dt=dt, store_every=1)
    oracle = eigen_states(pairwise_superoperator(coeffs), rho0, dense.times)
    assert len(dense.states) == n_steps + 1
    np.testing.assert_array_equal(dense.times, np.arange(n_steps + 1) * dt)
    np.testing.assert_array_equal(dense.times, taylor.times)
    np.testing.assert_allclose(dense.states, oracle, atol=1e-12, rtol=0)
    np.testing.assert_allclose(taylor.states, oracle, atol=1e-12, rtol=0)


@pytest.mark.parametrize("m,n_steps", [(2, 600), (3, 50)])
def test_dense_and_taylor_paths_match_eigen_oracle(monkeypatch, m, n_steps):
    _check_dense_and_taylor_against_eigen_oracle(monkeypatch, m, n_steps)


# M = 4 takes the Taylor action by default; the dense exponential is forced on
@pytest.mark.parametrize("m,n_steps", [(4, 20)])
def test_dense_and_taylor_paths_match_eigen_oracle_at_four_atoms(monkeypatch, m, n_steps):
    _check_dense_and_taylor_against_eigen_oracle(monkeypatch, m, n_steps)


def test_taylor_action_matches_forced_dense_exponential_at_five_atoms(monkeypatch):
    # the default Taylor action against the forced dense exponential
    rng = np.random.default_rng(35)
    coeffs = _mirror_coeffs(rng, 5)
    rho0 = _mixed_state(rng, 32)
    direct = evolve_lindblad(rho0, coeffs, t_max=0.02, dt=2e-3, store_every=1)
    monkeypatch.setattr(dyn, "_SUPEROP_DIM_CAP", 32)
    forced = evolve_lindblad(rho0, coeffs, t_max=0.02, dt=2e-3, store_every=1)
    assert len(direct.states) == 11
    np.testing.assert_allclose(direct.states, forced.states, atol=1e-12, rtol=0)


# cap 16 takes M = 2, 3 through the dense exponential, cap 1 through the
# Taylor action; ``step`` is the stride of stored rows, and every stored
# state is checked, so the checks trip at the first stored step
@pytest.mark.parametrize("cap", [16, 1])
@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("tolerances,step", [
    ({"TRACE_TOL": -1.0}, 1),
    ({"HERM_TOL": -1.0}, 1),
    ({"EIG_FLOOR": 1.0}, 7),
    ({"TRACE_TOL": -1.0, "HERM_TOL": -1.0, "EIG_FLOOR": 1.0}, 1),
    ({"HERM_TOL": -1.0, "EIG_FLOOR": 1.0}, 1),
])
def test_checks_trip_like_the_per_step_loop(monkeypatch, cap, m, tolerances, step):
    rng = np.random.default_rng(40 + m)
    coeffs = _mirror_coeffs(rng, m)
    rho0 = _mixed_state(rng, 2 ** m)
    monkeypatch.setattr(dyn, "_SUPEROP_DIM_CAP", cap)

    def run():
        return evolve_lindblad(rho0, coeffs, t_max=0.1, dt=2e-3, store_every=step)

    reference = run()
    steps = np.rint(reference.times[1:] / 2e-3).astype(int)
    for name, value in tolerances.items():
        monkeypatch.setattr(dyn, name, value)
    # the tolerances are meant to trip during propagation, not on rho0
    monkeypatch.setattr(dyn, "validate_density_matrix", lambda rho: None)
    expected = first_check_failure(reference.states[1:], steps)
    assert expected.endswith(f"at step {step}")
    with pytest.raises(NumericalFailure) as exc:
        run()
    assert str(exc.value) == expected


# -------------------------------------------- sector-wise spectrum check


def _sector_stack(rng, labels, n_states, low=None):
    """n_states trace-one states, block-diagonal in ``labels``, with positive
    spectra; with ``low`` = (label, value) one eigenvalue of every state's
    sector of that label is ``value``, below the others."""
    dim = len(labels)
    stack = np.zeros((n_states, dim, dim), dtype=complex)
    for rho in stack:
        spectrum = rng.uniform(0.05, 1.0, dim)
        if low is None:
            spectrum /= spectrum.sum()
        else:
            j = np.flatnonzero(labels == low[0])[0]
            spectrum[j] = 0.0
            spectrum *= (1.0 - low[1]) / spectrum.sum()
            spectrum[j] = low[1]
        for n in set(labels.tolist()):
            idx = np.flatnonzero(labels == n)
            raw = rng.normal(size=(len(idx),) * 2) + 1j * rng.normal(size=(len(idx),) * 2)
            unitary, _ = np.linalg.qr(raw)
            rho[np.ix_(idx, idx)] = (unitary * spectrum[idx]) @ unitary.conj().T
    return stack


def _eigvalsh_shapes(monkeypatch):
    """The list of the shapes that later ``np.linalg.eigvalsh`` calls take."""
    shapes = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: shapes.append(a.shape) or eigvalsh(a))
    return shapes


def _sector_check_message(stack, steps, labels):
    try:
        dyn._check_states(stack, steps, labels)
    except NumericalFailure as exc:
        return str(exc)
    return None


# two atoms with at most one excitation (sectors 2x2 and 1x1), and all
# states of three atoms (sectors 1x1, 3x3, 3x3, 1x1)
_SECTOR_LABELS = {"two-atom": np.array([1, 1, 0]), "three-atom": dyn._excitation_numbers(3)}


@pytest.mark.parametrize("labels", _SECTOR_LABELS.values(), ids=_SECTOR_LABELS.keys())
@pytest.mark.parametrize("fault", ["none", "trace", "hermiticity"])
def test_sector_check_raises_the_oracle_message(labels, fault):
    rng = np.random.default_rng(71)
    stack = _sector_stack(rng, labels, 6)
    if fault == "trace":
        stack[3] *= 1.0 + 1e-8
    elif fault == "hermiticity":
        i, j = np.flatnonzero(labels == 1)[:2]
        stack[2, i, j] += 1e-9  # inside a sector: the stack stays block-diagonal
    steps = np.arange(1, 7)
    expected = first_check_failure(stack, steps)
    assert (expected is None) == (fault == "none")
    assert _sector_check_message(stack, steps, labels) == expected


@pytest.mark.parametrize("labels,sector", [(_SECTOR_LABELS["two-atom"], 1), (_SECTOR_LABELS["three-atom"], 2)],
                         ids=["2x2-sector", "3x3-sector"])
@pytest.mark.parametrize("offset", [1e-13, -1e-13])
def test_sector_check_at_the_eigenvalue_floor(monkeypatch, labels, sector, offset):
    stack = _sector_stack(np.random.default_rng(72), labels, 4, low=(sector, dyn.EIG_FLOOR + offset))
    steps = np.arange(5, 9)
    np.testing.assert_allclose(np.linalg.eigvalsh(stack).min(axis=1), dyn.EIG_FLOOR + offset, rtol=0, atol=1e-15)
    expected = first_check_failure(stack, steps)
    assert (expected is None) == (offset > 0)
    assert _sector_check_message(stack, steps, labels) == expected
    # the sector minimum of a state this near the floor is left to eigvalsh of the whole state
    shapes = _eigvalsh_shapes(monkeypatch)
    _sector_check_message(stack, steps, labels)
    assert shapes[-1] == stack.shape


def test_sector_check_takes_whole_states_with_one_coherence_between_sectors(monkeypatch):
    labels = _SECTOR_LABELS["two-atom"]
    stack = _sector_stack(np.random.default_rng(73), labels, 5)
    # one q != 0 entry (|ge><gg|, with its Hermitian partner) pushes an
    # eigenvalue below zero that no single sector shows
    stack[3, 1, 2] = stack[3, 2, 1] = 2.0
    steps = np.arange(1, 6)
    expected = first_check_failure(stack, steps)
    assert expected.startswith("eigenvalue ") and expected.endswith("at step 4")
    shapes = _eigvalsh_shapes(monkeypatch)
    assert _sector_check_message(stack, steps, labels) == expected
    assert shapes == [stack.shape]


@pytest.mark.parametrize("labels", _SECTOR_LABELS.values(), ids=_SECTOR_LABELS.keys())
def test_sector_check_of_passing_states_needs_eigvalsh_only_above_2x2(monkeypatch, labels):
    stack = _sector_stack(np.random.default_rng(74), labels, 8)
    shapes = _eigvalsh_shapes(monkeypatch)
    dyn._check_states(stack, np.arange(1, 9), labels)
    assert shapes == [(8, 3, 3)] * (2 if len(labels) == 8 else 0)


# M = 2, 3 take the dense exponential, two excitations at M = 4 the Taylor action
@pytest.mark.parametrize("m,n", [(2, 2), (3, 3), (4, 2)])
def test_coherences_between_excitation_numbers_stay_exactly_zero(monkeypatch, m, n):
    rng = np.random.default_rng(75 + m)
    coeffs = _mirror_coeffs(rng, m)
    labels = dyn._excitation_numbers(m)
    keep = np.flatnonzero(labels <= n)
    rho0 = np.zeros((2 ** m, 2 ** m), dtype=complex)
    rho0[np.ix_(keep, keep)] = _sector_stack(rng, labels[keep], 1)[0]
    checked = []
    check = dyn._check_states
    monkeypatch.setattr(dyn, "_check_states", lambda *args: checked.append(args[2:]) or check(*args))
    record = evolve_lindblad(rho0, coeffs, t_max=0.5, dt=0.01)
    coherences = record.states[:, labels[:, None] != labels]
    assert coherences.size and not coherences.any()
    # the stored blocks were checked with the labels of their kept states
    np.testing.assert_array_equal(checked[-1][0], labels[keep])
    np.testing.assert_allclose(record.states, eigen_states(pairwise_superoperator(coeffs), rho0, record.times),
                               atol=1e-12, rtol=0)


def _spectrum_test_input():
    coeffs = _mirror_coeffs(np.random.default_rng(62), 4)
    rho0 = np.zeros((16, 16), dtype=complex)
    rho0[7, 7] = 1.0  # atom 0 excited
    return rho0, coeffs


# ``step`` is the first stored step after t = 0
@pytest.mark.parametrize("store_every,step", [(1, 1), (1000, 40)])
def test_taylor_action_exact_at_coarse_stored_steps(monkeypatch, store_every, step):
    # dt = 0.1 is coarse for these rates: a fixed-step explicit scheme leaves
    # the positive cone within 40 steps.  The Taylor action, forced on the
    # single excitation and taken by a two-excitation state, is exact at any dt
    rho0, coeffs = _spectrum_test_input()
    with monkeypatch.context() as patch:
        patch.setattr(dyn, "_SUPEROP_DIM_CAP", 1)
        record = evolve_lindblad(rho0, coeffs, t_max=4.0, dt=0.1, store_every=store_every)
    np.testing.assert_allclose(record.times[1], step * 0.1, rtol=1e-15)
    np.testing.assert_allclose(record.states, single_excitation_states(rho0, coeffs, record.times),
                               atol=1e-12, rtol=0)
    rho0[7, 7] = 0.5
    rho0[3, 3] = 0.5  # |eegg>: D = 11 states with at most two excitations
    record = evolve_lindblad(rho0, coeffs, t_max=4.0, dt=0.1, store_every=store_every)
    np.testing.assert_allclose(record.states, eigen_states(pairwise_superoperator(coeffs), rho0, record.times),
                               atol=1e-12, rtol=0)


@pytest.mark.parametrize("store_every", [1, 1000])
def test_single_excitation_at_large_dt_takes_exact_path(store_every):
    rho0, coeffs = _spectrum_test_input()
    record = evolve_lindblad(rho0, coeffs, t_max=4.0, dt=0.1, store_every=store_every)
    assert len(record.times) == (41 if store_every == 1 else 2)
    np.testing.assert_allclose(record.states, single_excitation_states(rho0, coeffs, record.times),
                               atol=1e-12, rtol=0)


# ----------------------------------------- excitation-truncated exact path


def _one_excitation_indices(m):
    return [2 ** m - 1 - 2 ** (m - 1 - j) for j in range(m)] + [2 ** m - 1]


def _in_sector_states(rng, m):
    """A pure state with a ground coherence and a mixed state, both with at most one excitation."""
    dim, idx = 2 ** m, _one_excitation_indices(m)
    psi = np.zeros(dim, dtype=complex)
    psi[idx] = rng.normal(size=m + 1) + 1j * rng.normal(size=m + 1)
    psi /= np.linalg.norm(psi)
    mixed = np.zeros((dim, dim), dtype=complex)
    mixed[np.ix_(idx, idx)] = _mixed_state(rng, m + 1)
    return np.outer(psi, psi.conj()), mixed


def _random_psd(rng, m):
    b = rng.normal(size=(m, m))
    return b @ b.T


def _assert_matches_sector_oracle(rho0, coeffs, t_max, dt, store_every):
    record = evolve_lindblad(rho0, coeffs, t_max=t_max, dt=dt, store_every=store_every)
    oracle = single_excitation_states(rho0, coeffs, record.times)
    np.testing.assert_allclose(record.states, oracle, atol=1e-12, rtol=0)
    outside = np.ones(len(rho0), dtype=bool)
    outside[_one_excitation_indices(coeffs.n_atoms)] = False
    assert not record.states[:, outside].any() and not record.states[:, :, outside].any()


def _no_taylor(*args):
    raise AssertionError("an input with at most 8 reachable basis states took the Taylor action")


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_single_excitation_states_match_sector_oracle(monkeypatch, m):
    rng = np.random.default_rng(70 + m)
    monkeypatch.setattr(dyn, "_apply_generator", _no_taylor)
    for coeffs in (_mirror_coeffs(rng, m), _coeffs_with_decay(rng, _random_psd(rng, m))):
        for rho0 in _in_sector_states(rng, m):
            _assert_matches_sector_oracle(rho0, coeffs, t_max=1.5, dt=0.01, store_every=7)


def test_single_excitation_exact_at_exceptional_point():
    # H_eff = [[-2i, 1], [1, 0]] = -i I + N with N @ N = 0: one eigenvector
    coeffs = MasterEqCoefficients(np.array([[0.0, 1.0], [1.0, 0.0]]), np.diag([4.0, 0.0]))
    h_eff = effective_hamiltonian(coeffs)
    nil = h_eff + 1j * np.eye(2)
    assert not (nil @ nil).any() and nil.any()
    for rho0 in _in_sector_states(np.random.default_rng(80), 2):
        _assert_matches_sector_oracle(rho0, coeffs, t_max=6.0, dt=0.05, store_every=3)


def test_two_excitations_at_three_atoms_match_eigen_oracle(monkeypatch):
    # |eee> (index 0) is empty, so D = 7 states with at most two excitations
    rng = np.random.default_rng(81)
    coeffs = _mirror_coeffs(rng, 3)
    rho0 = np.zeros((8, 8), dtype=complex)
    rho0[1:, 1:] = _mixed_state(rng, 7)
    generator = pairwise_superoperator(coeffs)
    monkeypatch.setattr(dyn, "_apply_generator", _no_taylor)
    record = evolve_lindblad(rho0, coeffs, t_max=1.0, dt=0.01, store_every=10)
    oracle = eigen_states(generator, rho0, record.times)
    np.testing.assert_allclose(record.states, oracle, atol=1e-12, rtol=0)
    assert not record.states[:, 0].any() and not record.states[:, :, 0].any()


def test_one_double_excitation_entry_takes_taylor_action_at_four_atoms(monkeypatch):
    # one |eegg> population lifts D to 11 > 8: the Taylor action, exact at dt = 1
    rng = np.random.default_rng(82)
    coeffs = _mirror_coeffs(rng, 4)
    rho0 = np.zeros((16, 16), dtype=complex)
    rho0[15, 15] = 0.9
    rho0[7, 7] = 0.1 - 1e-6
    rho0[3, 3] = 1e-6  # |eegg> is basis state 3 (qubits 0, 1 excited)
    assert dyn._excitation_numbers(4)[3] == 2

    def no_dense(*args):
        raise AssertionError("an input with 11 reachable basis states took the dense exponential")

    monkeypatch.setattr(dyn, "_expm", no_dense)
    record = evolve_lindblad(rho0, coeffs, t_max=40.0, dt=1.0)
    assert len(record.times) == 41
    np.testing.assert_allclose(record.states, eigen_states(pairwise_superoperator(coeffs), rho0, record.times),
                               atol=1e-12, rtol=0)


def _states_up_to(rng, m, n, pure):
    """A pure or mixed state on the basis states with at most n of m atoms excited."""
    kept = np.flatnonzero(dyn._excitation_numbers(m) <= n)
    rho = np.zeros((2 ** m, 2 ** m), dtype=complex)
    if pure:
        psi = rng.normal(size=len(kept)) + 1j * rng.normal(size=len(kept))
        rho[np.ix_(kept, kept)] = np.outer(psi, psi.conj()) / np.vdot(psi, psi).real
    else:
        rho[np.ix_(kept, kept)] = _mixed_state(rng, len(kept))
    return rho


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("pure", [True, False])
def test_taylor_action_matches_eigen_oracle_at_four_atoms(n, pure):
    rng = np.random.default_rng(120 + n + 2 * pure)
    for coeffs in (_mirror_coeffs(rng, 4), _coeffs_with_decay(rng, _random_psd(rng, 4))):
        rho0 = _states_up_to(rng, 4, n, pure)
        record = evolve_lindblad(rho0, coeffs, t_max=2.0, dt=0.01, store_every=20)
        oracle = eigen_states(pairwise_superoperator(coeffs), rho0, record.times)
        np.testing.assert_allclose(record.states, oracle, atol=1e-12, rtol=0)


def test_taylor_action_exact_at_exceptional_point():
    # atoms 0, 1 at the exceptional point of test_single_excitation_exact_at_exceptional_point,
    # uncoupled from atoms 2, 3: a product of one-excitation pair states carries
    # two excitations and evolves as the product of the pairs' exact solutions
    ep = MasterEqCoefficients(np.array([[0.0, 1.0], [1.0, 0.0]]), np.diag([4.0, 0.0]))
    pair = closed_form_braided(1.0, 0.7)

    def blocks(a, b):
        out = np.zeros((4, 4))
        out[:2, :2], out[2:, 2:] = a, b
        return out

    coeffs = MasterEqCoefficients(blocks(ep.shift, pair.shift), blocks(ep.decay, pair.decay))
    rng = np.random.default_rng(125)
    for rho_a, rho_b in zip(_in_sector_states(rng, 2), _in_sector_states(rng, 2)[::-1]):
        rho0 = np.kron(rho_a, rho_b)
        record = evolve_lindblad(rho0, coeffs, t_max=6.0, dt=0.05, store_every=3)
        oracle = [np.kron(a, b) for a, b in zip(single_excitation_states(rho_a, ep, record.times),
                                                single_excitation_states(rho_b, pair, record.times))]
        np.testing.assert_allclose(record.states, oracle, atol=1e-12, rtol=0)


def test_taylor_substep_budget_raises_before_any_substep(monkeypatch):
    # at rates of order 1e8, t_max = 40 needs billions of substeps
    c = _mirror_coeffs(np.random.default_rng(126), 4)
    fast = MasterEqCoefficients(1e8 * c.shift, 1e8 * c.decay)
    rho0 = _states_up_to(np.random.default_rng(127), 4, 2, pure=False)

    def never(*args):
        raise AssertionError("a substep was taken before the substep budget was checked")

    monkeypatch.setattr(dyn, "_taylor_sum", never)
    with pytest.raises(ValueError, match=r"t_max=40 at generator rate \S+e\+0[89] needs \S+e\+\d+ "
                                         r"Taylor substeps, more than MAX_GRID_STEPS=10000000"):
        evolve_lindblad(rho0, fast, t_max=40.0, dt=1.0)


def test_taylor_action_nan_generator_fails_at_first_step():
    rho0 = _states_up_to(np.random.default_rng(128), 4, 2, pure=True)
    coeffs = MasterEqCoefficients(np.diag([np.nan, 0.0, 0.0, 0.0]), np.eye(4))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalFailure, match="trace drifted by nan at step 1$"):
            evolve_lindblad(rho0, coeffs, t_max=0.1, dt=0.01)


def test_batched_concurrence_matches_scalar(monkeypatch):
    rng = np.random.default_rng(50)
    states = []
    for rank in (4, 4, 4, 1, 1, 2, 3):
        for _ in range(20):
            raw = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
            rho = raw @ raw.conj().T
            states.append(rho / np.trace(rho))
    states.append(rho_eg())
    states = np.array(states)
    scalar = np.array([eigen_concurrence(rho) for rho in states])
    assert scalar.max() > 0.5 and (scalar == 0).any()
    assert states[:, 0].any()  # |ee> weight: the eigenvalues are taken numerically
    np.testing.assert_allclose(dyn._wootters_concurrences(states), scalar, atol=1e-14, rtol=0)

    # no |ee> weight anywhere in the stack: the closed form, no eigenvalues
    no_ee = []
    for rank in (1, 2, 3):
        for _ in range(40):
            raw = np.zeros((4, rank), dtype=complex)
            raw[1:] = rng.normal(size=(3, rank)) + 1j * rng.normal(size=(3, rank))
            rho = raw @ raw.conj().T
            no_ee.append(rho / np.trace(rho))
    no_ee = np.array(no_ee + [rho_eg()])
    scalar = np.array([eigen_concurrence(rho) for rho in no_ee])
    assert scalar.max() > 0.5 and (scalar == 0).any()

    def no_eigvals(*args):
        raise AssertionError("a stack without |ee> weight took the eigenvalue path")

    monkeypatch.setattr(np.linalg, "eigvals", no_eigvals)
    np.testing.assert_allclose(dyn._wootters_concurrences(no_ee), scalar, atol=1e-12, rtol=0)


def test_lindblad_step_budget(monkeypatch):
    coeffs = closed_form_braided(1.0, 0.0)

    def never(*args):
        raise AssertionError("operators built before the step budget was checked")

    with monkeypatch.context() as patch:
        for name in ("_operators", "_superoperators"):
            patch.setattr(dyn, name, never)
        with pytest.raises(ValueError, match=r"t_max=1e\+09 and dt=1 .*MAX_GRID_STEPS"):
            evolve_lindblad(rho_eg(), coeffs, t_max=1e9, dt=1.0)
    monkeypatch.setattr(dyn, "MAX_GRID_STEPS", 100)
    assert len(evolve_lindblad(rho_eg(), coeffs, t_max=0.1, dt=1e-3, store_every=1).times) == 101
    with pytest.raises(ValueError, match="MAX_GRID_STEPS"):
        evolve_lindblad(rho_eg(), coeffs, t_max=0.101, dt=1e-3)


@pytest.mark.parametrize("t_max,dt", [(math.inf, 1e-3), (math.nan, 1e-3), (1.0, math.nan),
                                      (1e300, 1e-300)])
def test_lindblad_rejects_non_finite_or_huge_horizon(t_max, dt):
    with pytest.raises(ValueError, match="t_max"):
        evolve_lindblad(rho_eg(), closed_form_braided(1.0, 0.5), t_max=t_max, dt=dt)


@pytest.mark.parametrize("cap", [16, 1])
def test_lindblad_stores_every_nth_and_final_step(monkeypatch, cap):
    monkeypatch.setattr(dyn, "_SUPEROP_DIM_CAP", cap)
    coeffs = closed_form_braided(1.0, 0.7)
    record = evolve_lindblad(rho_eg(), coeffs, t_max=0.6005, dt=1e-3, store_every=250)
    np.testing.assert_array_equal(record.times, np.array([0, 250, 500, 600]) * 1e-3)
    every = evolve_lindblad(rho_eg(), coeffs, t_max=0.6005, dt=1e-3, store_every=1)
    # one propagator or one Taylor action per stored interval, not per step
    np.testing.assert_allclose(record.states, every.states[[0, 250, 500, 600]], atol=1e-13, rtol=0)


def test_lindblad_rejects_store_every_below_one():
    with pytest.raises(ValueError, match="store_every"):
        evolve_lindblad(rho_eg(), closed_form_braided(1.0, 0.5), t_max=0.1, dt=1e-3, store_every=0)


@pytest.mark.parametrize("cap", [16, 1])
def test_lindblad_nan_state_fails_at_first_step(monkeypatch, cap):
    # a NaN residue compares False against every tolerance; it must still fail
    monkeypatch.setattr(dyn, "_SUPEROP_DIM_CAP", cap)
    coeffs = MasterEqCoefficients(np.diag([np.nan, 0.0]), np.zeros((2, 2)))
    with pytest.raises(NumericalFailure, match="trace drifted by nan at step 1$"):
        evolve_lindblad(rho_eg(), coeffs, t_max=0.01, dt=1e-3)


@pytest.mark.parametrize("lamb,decay", [([np.nan, 0.0], [0.0, 0.0]), ([0.0, 0.0], [np.inf, 1.0])])
def test_amplitude_paths_reject_non_finite_result(lamb, decay):
    coeffs = MasterEqCoefficients(np.diag(lamb), np.diag(decay))
    # an infinite rate warns in the products; a NaN shift gives a NaN z, whose
    # phi is taken as 1 without a division, and warns nowhere
    silent = bool(np.isnan(lamb).any())
    for run, t in [(lambda: amplitude_trajectory(EG, coeffs, np.linspace(0.0, 1.0, 5)), "0"),
                   (lambda: evolve_amplitudes(EG, coeffs, 0.5), "0.5")]:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(NumericalFailure, match=f"not finite at t = {t}$"):
                run()
        assert {w.category for w in caught} == (set() if silent else {RuntimeWarning})


@pytest.mark.parametrize("times", [[], [[0.0, 0.5]], 0.5])
def test_amplitude_trajectory_rejects_empty_or_non_1d_times(times):
    with pytest.raises(ValueError, match="times must be a non-empty 1-D sequence"):
        amplitude_trajectory(AmplitudeState(1.0, 0.0), closed_form_braided(1.0, 0.5), times)


@pytest.mark.parametrize("c_eg", [complex(np.nan, 0.0), complex(np.inf, 0.0), complex(np.nan, 1.0)])
def test_amplitude_paths_reject_non_finite_initial_norm(c_eg):
    coeffs = canonical_coefficients(Configuration.BRAIDED, 1.0, 0.5)
    initial = AmplitudeState(c_eg, 0.0)
    with pytest.raises(ValueError, match="initial amplitude norm"):
        amplitude_trajectory(initial, coeffs, np.linspace(0.0, 1.0, 5))
    with pytest.raises(ValueError, match="initial amplitude norm"):
        evolve_amplitudes(initial, coeffs, 0.5)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("config", list(Configuration))
@pytest.mark.parametrize("theta", [0.0, 0.3, math.pi / 2])
def test_amplitudes_at_huge_rates_are_the_time_scaled_amplitudes(config, theta):
    # H * 2**600 over times * 2**-600 is the same propagation; the squares of
    # entries of H near 1e180 overflow unless they are scaled first
    h = effective_hamiltonian(canonical_coefficients(config, 1.0, theta))[None]
    times = np.linspace(0.0, 4.0, 50)
    initial = AmplitudeState(0.6, 0.8j)
    base = dyn._amplitude_solution(initial, h, times)
    np.testing.assert_array_equal(dyn._amplitude_solution(initial, h * 2.0 ** 600, times * 2.0 ** -600), base)


# ------------------------------------------------ several coefficient sets


# theta = 0, multiples of pi/4 (DFI points of the braided and nested
# configurations, where the decay rates fall to round-off) and negative theta
_BATCH_THETAS = [0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 4, math.pi, -math.pi / 4, -0.3, 0.7, 2.1]


@pytest.mark.parametrize("config", list(Configuration))
def test_many_sets_match_one_call_per_set(config):
    sets = [canonical_coefficients(config, 1.0, theta) for theta in _BATCH_THETAS]
    rho0 = np.zeros((4, 4), dtype=complex)
    rho0[1:, 1:] = _mixed_state(np.random.default_rng(90), 3)
    for start in (rho_eg(), rho0):
        batch = dyn.evolve_lindblad_many(start, *_stacks(sets), t_max=2.0, dt=0.01, store_every=3)
        assert len(batch) == len(sets)
        for coeffs, record in zip(sets, batch):
            single = evolve_lindblad(start, coeffs, t_max=2.0, dt=0.01, store_every=3)
            np.testing.assert_array_equal(record.times, single.times)
            np.testing.assert_allclose(record.states, single.states, atol=1e-12, rtol=0)
            np.testing.assert_allclose(record.concurrence, single.concurrence, atol=1e-12, rtol=0)


@pytest.mark.parametrize("cap", [16, 1])
def test_many_sets_match_one_call_per_set_at_three_atoms(monkeypatch, cap):
    # cap 16 exponentiates the B superoperators, cap 1 takes the Taylor action
    monkeypatch.setattr(dyn, "_SUPEROP_DIM_CAP", cap)
    rng = np.random.default_rng(92)
    sets = [_mirror_coeffs(rng, 3), _coeffs_with_decay(rng, _random_psd(rng, 3)), _mirror_coeffs(rng, 3)]
    # the rank-one sets have rate 0 in two of the full-rank set's three channels
    rates = dyn._decay_channels(_stacks(sets)[1])[0]
    assert rates.shape == (3, 3) and (rates[[0, 2]] == 0).sum() == 4 and rates[1].all()
    # over a stored gap of 0.05 the Taylor action takes two substeps for the
    # full-rank set and one for the others, which then take substeps of 0
    assert np.ceil(0.05 * dyn._generator_rates(*dyn._operators(*_stacks(sets)))).tolist() == [1, 2, 1]
    rho0 = _mixed_state(rng, 8)
    batch = dyn.evolve_lindblad_many(rho0, *_stacks(sets), t_max=0.2, dt=2e-3, store_every=25)
    for coeffs, record in zip(sets, batch):
        single = evolve_lindblad(rho0, coeffs, t_max=0.2, dt=2e-3, store_every=25)
        assert record.concurrence is None
        np.testing.assert_allclose(record.states, single.states, atol=1e-12, rtol=0)


def test_many_sets_raise_the_failure_of_the_first_failing_set(monkeypatch):
    # with the floor at 0.075 the first set trips at step 9, the second at
    # step 1: the batch raises what calling set by set raises first
    rho0 = np.zeros((4, 4), dtype=complex)
    rho0[1:, 1:] = _mixed_state(np.random.default_rng(91), 3)
    sets = [canonical_coefficients("braided", 1.0, 1.2), canonical_coefficients("separate", 1.0, 1.1)]
    monkeypatch.setattr(dyn, "validate_density_matrix", lambda rho: None)
    monkeypatch.setattr(dyn, "EIG_FLOOR", 0.075)
    messages = []
    for coeffs in sets:
        with pytest.raises(NumericalFailure) as exc:
            evolve_lindblad(rho0, coeffs, t_max=1.0, dt=0.05, store_every=1)
        messages.append(str(exc.value))
    assert messages[0].endswith("at step 9") and messages[1].endswith("at step 1")
    with pytest.raises(NumericalFailure) as exc:
        dyn.evolve_lindblad_many(rho0, *_stacks(sets), t_max=1.0, dt=0.05, store_every=1)
    assert str(exc.value) == messages[0]


def test_many_sets_report_the_first_unphysical_decay_matrix():
    def with_negative_eigenvalue(value):
        return MasterEqCoefficients(np.zeros((2, 2)), np.diag([value, 1.0]))

    sets = [closed_form_braided(1.0, 0.5), with_negative_eigenvalue(-1.0), with_negative_eigenvalue(-2.0)]
    with pytest.raises(NumericalFailure, match=r"eigenvalue -1\.000e\+00 is negative"):
        dyn.evolve_lindblad_many(rho_eg(), *_stacks(sets), t_max=0.1, dt=0.01)


def test_many_sets_need_sets_of_one_atom_count():
    two = _stacks([closed_form_braided(1.0, 0.5)])
    three = _stacks([_mirror_coeffs(np.random.default_rng(93), 3)])
    message = r"shift and decay must be \(B, M, M\) stacks of one shape with B >= 1, got "
    for shift, decay, shapes in [(two[0][:0], two[1][:0], r"\(0, 2, 2\) and \(0, 2, 2\)"),
                                 (two[0], three[1], r"\(1, 2, 2\) and \(1, 3, 3\)"),
                                 (two[0][0], two[1][0], r"\(2, 2\) and \(2, 2\)"),
                                 (two[0][:, :1], two[1][:, :1], r"\(1, 1, 2\) and \(1, 1, 2\)")]:
        with pytest.raises(ValueError, match=message + shapes + "$"):
            dyn.evolve_lindblad_many(rho_eg(), shift, decay, t_max=0.1, dt=0.01)


@pytest.mark.parametrize("cap", [16, 1])
def test_step_budget_message_names_the_steps_taken(monkeypatch, cap):
    monkeypatch.setattr(dyn, "_SUPEROP_DIM_CAP", cap)
    with pytest.raises(ValueError, match=r"need 1e\+09 grid steps, more than MAX_GRID_STEPS"):
        evolve_lindblad(rho_eg(), closed_form_braided(1.0, 0.0), t_max=1e9, dt=1.0)


# ------------------------------------------------------- batched amplitudes


def _sets_from_sums(shift, decay):
    """MasterEqCoefficients of each (shift, decay) pair of a coefficient_sums stack."""
    return [MasterEqCoefficients(s, d) for s, d in zip(shift, decay)]


@pytest.mark.parametrize("kind", list(Configuration))
def test_amplitude_concurrences_match_trajectories_through_an_exceptional_point(kind):
    # canonical sums over a theta grid, then H_eff = [[-i, 1/2], [1/2, 0]] (exchange
    # 1/2, decay 2 v v^T with v = (1, 0)), an exceptional point, and two sets next to it
    shift, decay = canonical_sums(kind, 1.3, np.linspace(0.0, 2 * math.pi, 41))
    for offset in (0.0, 1e-12, 1e-6):
        shift = np.concatenate([shift, [[[offset, 0.5], [0.5, 0.0]]]])
        decay = np.concatenate([decay, [[[2.0, 0.0], [0.0, 0.0]]]])
    times = np.linspace(0.0, 6.0, 301)
    initial = AmplitudeState(0.6, 0.8j)
    grid = dyn.amplitude_concurrences(initial, shift, decay, times)
    assert grid.shape == (len(shift), len(times))
    for row, coeffs in zip(grid, _sets_from_sums(shift, decay)):
        np.testing.assert_allclose(row, amplitude_trajectory(initial, coeffs, times).concurrence,
                                   atol=1e-14, rtol=0)
    nil = effective_hamiltonian(_sets_from_sums(shift, decay)[-3]) + 0.5j * np.eye(2)
    assert not (nil @ nil).any() and nil.any()


def test_amplitude_concurrences_raise_at_the_first_failing_set():
    # set 1 overflows at the last time only, set 2 already at the third: the
    # batch raises set 1's time, as the set-by-set loop does
    shift = np.array([np.diag([0.5, -0.5]), np.diag([1e150, -1e150]), np.diag([1e152, -1e152])])
    decay = np.zeros((3, 2, 2))
    times = np.array([0.0, 1e155, 1e157, 1e159])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalFailure) as batch:
            dyn.amplitude_concurrences(EG, shift, decay, times)
        for coeffs in _sets_from_sums(shift, decay):
            try:
                amplitude_trajectory(EG, coeffs, times)
            except NumericalFailure as single:
                assert str(batch.value) == str(single) == "amplitudes are not finite at t = 1e+159"
                break
        else:
            pytest.fail("no set failed")
