import math
import warnings

import numpy as np
import pytest
from oracles import (
    closed_form_braided,
    closed_form_coefficients,
    closed_form_nested,
    closed_form_separate,
    pair_sum_coefficients,
)

from gawsim.cli import main as cli_main
from gawsim.coefficients import (
    _THETA_LIMIT,
    MasterEqCoefficients,
    _canonical_points,
    canonical_coefficients,
    canonical_decay_amplitudes,
    canonical_sums,
    decay_amplitudes,
    general_coefficients,
)
from gawsim.errors import LayoutError
from gawsim.model import (
    CanonicalConfig,
    Configuration,
    ConnectionPoint,
    GiantAtomSpec,
    build_canonical,
    build_custom,
)

CONFIGS = list(Configuration)


def coeff_arrays(c):
    return [c.lamb_shifts, c.exchange, c.individual_decay, c.collective_decay]


def assert_coeffs_close(c1, c2, tol):
    for a, b in zip(coeff_arrays(c1), coeff_arrays(c2)):
        np.testing.assert_allclose(a, b, atol=tol, rtol=0)


def test_single_point_atom_decay():
    # one point at phi = theta/2 sees its own mirror image: G = gamma * (1 + cos theta)
    for theta in (0.3, 1.1, 2.5, math.pi):
        layout = build_custom([GiantAtomSpec(0, (ConnectionPoint(0, theta / 2, 1.0),))])
        c = general_coefficients(layout)
        assert c.individual_decay[0] == pytest.approx(1.0 + math.cos(theta), abs=1e-12)
    layout = build_custom([GiantAtomSpec(0, (ConnectionPoint(0, math.pi / 2, 1.0),))])
    assert general_coefficients(layout).individual_decay[0] == pytest.approx(0.0, abs=1e-12)


def test_general_matches_closed_form_braided():
    c1 = general_coefficients(build_canonical(CanonicalConfig("braided", 1.0, 0.7)))
    c2 = closed_form_braided(1.0, 0.7)
    assert_coeffs_close(c1, c2, 1e-12)


@pytest.mark.parametrize("kind", CONFIGS)
def test_general_matches_closed_form_random(kind):
    rng = np.random.default_rng(hash(kind.value) % 2 ** 32)
    for _ in range(200):
        theta = float(rng.uniform(1e-3, 2 * math.pi))
        gamma = float(rng.uniform(0.1, 3.0))
        layout = build_canonical(CanonicalConfig(kind, gamma, theta))
        assert_coeffs_close(general_coefficients(layout), canonical_coefficients(kind, gamma, theta), 1e-12)


def test_braided_dfi_point_values():
    c = closed_form_braided(1.0, math.pi / 2)
    assert c.individual_decay == pytest.approx([0.0, 0.0], abs=1e-12)
    assert c.collective_decay[0, 1] == pytest.approx(0.0, abs=1e-12)
    assert c.exchange[0, 1] == pytest.approx(1.0, abs=1e-12)
    assert c.lamb_shifts == pytest.approx([0.0, 0.0], abs=1e-12)


def test_braided_theta_zero_values():
    c = closed_form_braided(1.0, 0.0)
    assert c.individual_decay == pytest.approx([8.0, 8.0])
    assert c.collective_decay[0, 1] == pytest.approx(8.0)
    assert c.exchange[0, 1] == pytest.approx(0.0, abs=1e-12)
    assert c.lamb_shifts == pytest.approx([0.0, 0.0], abs=1e-12)


def test_braided_theta_pi_decouples():
    c = closed_form_braided(1.0, math.pi)
    for arr in coeff_arrays(c):
        np.testing.assert_allclose(arr, 0.0, atol=1e-12)


def test_separate_full_decoupling_at_half_pi():
    c = closed_form_separate(1.0, math.pi / 2)
    assert c.individual_decay == pytest.approx([0.0, 0.0], abs=1e-12)
    assert c.collective_decay[0, 1] == pytest.approx(0.0, abs=1e-12)
    assert c.exchange[0, 1] == pytest.approx(0.0, abs=1e-12)


def test_separate_theta_zero_and_pi():
    c = closed_form_separate(1.0, 0.0)
    assert c.individual_decay == pytest.approx([8.0, 8.0])
    assert c.collective_decay[0, 1] == pytest.approx(8.0)
    assert c.exchange[0, 1] == pytest.approx(0.0, abs=1e-12)
    c = closed_form_separate(1.0, math.pi)
    for arr in coeff_arrays(c):
        np.testing.assert_allclose(arr, 0.0, atol=1e-12)


def test_nested_dfi_points():
    c = closed_form_nested(1.0, math.pi / 4)
    assert c.individual_decay == pytest.approx([0.0, 0.0], abs=1e-12)
    assert c.collective_decay[0, 1] == pytest.approx(0.0, abs=1e-12)
    assert c.exchange[0, 1] == pytest.approx((2.0 + math.sqrt(2.0)) / 2.0, abs=1e-12)
    c = closed_form_nested(1.0, 3 * math.pi / 4)
    assert c.individual_decay == pytest.approx([0.0, 0.0], abs=1e-12)
    assert abs(c.exchange[0, 1]) > 1e-3


def test_nested_theta_pi_decouples():
    c = closed_form_nested(1.0, math.pi)
    for arr in coeff_arrays(c):
        np.testing.assert_allclose(arr, 0.0, atol=1e-12)


@pytest.mark.parametrize("kind", CONFIGS)
def test_periodicity_two_pi(kind):
    rng = np.random.default_rng(7)
    for theta in rng.uniform(0.0, 2 * math.pi, size=1000):
        c1 = canonical_coefficients(kind, 1.0, float(theta))
        c2 = canonical_coefficients(kind, 1.0, float(theta) + 2 * math.pi)
        assert_coeffs_close(c1, c2, 1e-12)


@pytest.mark.parametrize("kind", CONFIGS)
def test_reflection_identities(kind):
    # cos terms are even around theta -> 2*pi - theta, sin terms are odd
    for theta in np.linspace(0.05, 2 * math.pi - 0.05, 101):
        c = canonical_coefficients(kind, 1.0, float(theta))
        r = canonical_coefficients(kind, 1.0, 2 * math.pi - float(theta))
        np.testing.assert_allclose(r.individual_decay, c.individual_decay, atol=1e-12, rtol=0)
        np.testing.assert_allclose(r.collective_decay, c.collective_decay, atol=1e-12, rtol=0)
        np.testing.assert_allclose(r.exchange, -c.exchange, atol=1e-12, rtol=0)
        np.testing.assert_allclose(r.lamb_shifts, -c.lamb_shifts, atol=1e-12, rtol=0)


@pytest.mark.parametrize("kind", CONFIGS)
def test_decay_matrix_positive_semidefinite(kind):
    for theta in np.linspace(0.0, 2 * math.pi, 400):
        c = canonical_coefficients(kind, 1.0, float(theta))
        lo = np.linalg.eigvalsh(c.decay_matrix()).min()
        assert lo >= -1e-9


@pytest.mark.parametrize("kind", CONFIGS)
def test_decay_matrix_is_rank_one_in_amplitudes(kind):
    rng = np.random.default_rng(11)
    for theta in rng.uniform(0.0, 2 * math.pi, size=50):
        gamma = float(rng.uniform(0.2, 2.0))
        c = canonical_coefficients(kind, gamma, float(theta))
        v = canonical_decay_amplitudes(kind, gamma, float(theta))
        np.testing.assert_allclose(c.decay_matrix(), 2.0 * np.outer(v, v), atol=1e-12, rtol=0)


def test_layout_decay_amplitudes_match_rates():
    rng = np.random.default_rng(3)
    points0 = tuple(ConnectionPoint(0, float(p), float(g)) for p, g in zip(rng.uniform(0, 5, 3), rng.uniform(0.1, 2, 3)))
    points1 = tuple(ConnectionPoint(1, float(p), float(g)) for p, g in zip(rng.uniform(5.1, 9, 2), rng.uniform(0.1, 2, 2)))
    layout = build_custom([GiantAtomSpec(0, points0), GiantAtomSpec(1, points1)])
    c = general_coefficients(layout)
    v = decay_amplitudes(layout)
    np.testing.assert_allclose(c.decay_matrix(), 2.0 * np.outer(v, v), atol=1e-12, rtol=0)


def test_gamma_scales_linearly():
    c1 = closed_form_braided(1.0, 0.9)
    c2 = closed_form_braided(2.5, 0.9)
    for a, b in zip(coeff_arrays(c1), coeff_arrays(c2)):
        np.testing.assert_allclose(2.5 * a, b, atol=1e-12, rtol=0)


def test_three_atom_general_path():
    # three small atoms, one point each: exchange/collective blocks stay symmetric
    pts = [ConnectionPoint(0, 0.4, 1.0), ConnectionPoint(1, 1.3, 0.5), ConnectionPoint(2, 2.9, 1.5)]
    layout = build_custom([GiantAtomSpec(i, (pts[i],)) for i in range(3)])
    c = general_coefficients(layout)
    assert c.n_atoms == 3
    np.testing.assert_allclose(c.exchange, c.exchange.T, atol=1e-15)
    np.testing.assert_allclose(c.collective_decay, c.collective_decay.T, atol=1e-15)
    assert np.linalg.eigvalsh(c.decay_matrix()).min() >= -1e-12


def _table(shift, v):
    """Kernel output as (N, 6) rows: dw_a, dw_b, g_ab, G_a, G_b, G_coll."""
    return np.column_stack([
        shift[:, 0, 0], shift[:, 1, 1], shift[:, 0, 1],
        2.0 * v[:, 0] ** 2, 2.0 * v[:, 1] ** 2, 2.0 * v[:, 0] * v[:, 1],
    ])


def _oracle_row(c):
    return [c.lamb_shifts[0], c.lamb_shifts[1], c.exchange[0, 1],
            c.individual_decay[0], c.individual_decay[1], c.collective_decay[0, 1]]


@pytest.mark.parametrize("kind", CONFIGS)
def test_kernel_matches_closed_form_oracles(kind):
    rng = np.random.default_rng(2718)
    dfi = [k * math.pi / 4 for k in range(9)]
    thetas = np.concatenate(([0.0], dfi, rng.uniform(0.0, 40.0, size=1000)))
    for gamma in (1.0, 0.37):
        got = _table(*canonical_sums(kind, gamma, thetas))
        want = np.array([_oracle_row(closed_form_coefficients(kind, gamma, float(t))) for t in thetas])
        np.testing.assert_allclose(got, want, atol=1e-12, rtol=0)


def _random_layout(rng, n_atoms):
    counts = rng.integers(1, 4, size=n_atoms)
    owners = rng.permutation(np.repeat(np.arange(n_atoms), counts))
    phases = float(rng.uniform(0.0, 0.5)) + np.cumsum(rng.uniform(0.05, 2.0, size=len(owners)))
    rates = rng.uniform(0.05, 3.0, size=len(owners))
    return build_custom([
        GiantAtomSpec(j, tuple(ConnectionPoint(j, float(phases[i]), float(rates[i]))
                               for i in np.flatnonzero(owners == j)))
        for j in range(n_atoms)
    ])


def test_kernel_matches_scalar_pair_sums():
    rng = np.random.default_rng(4242)
    for _ in range(60):
        layout = _random_layout(rng, int(rng.integers(1, 9)))
        assert_coeffs_close(general_coefficients(layout), pair_sum_coefficients(layout), 1e-12)


def test_coeffs_table_rows_match_scalar_coefficients(tmp_path):
    out = tmp_path / "coeffs.csv"
    for kind in CONFIGS:
        assert cli_main(["coeffs", "--config", kind.value, "--gamma", "1.3", "--theta-min", "0",
                         "--theta-max", "25", "--theta-steps", "301", "--out", str(out)]) == 0
        data = np.loadtxt(out, delimiter=",", comments="#", skiprows=4)
        want = [[t, *_oracle_row(canonical_coefficients(kind, 1.3, t))] for t in data[:, 0]]
        np.testing.assert_allclose(data, want, atol=1e-12, rtol=0)


@pytest.mark.parametrize("kind", CONFIGS)
def test_canonical_decay_amplitudes_on_an_array(kind):
    # exactly: the DFI grid and its golden-section refinement see the same values
    thetas = np.linspace(-1.0, 13.0, 97)
    batch = canonical_decay_amplitudes(kind, 0.8, thetas)
    assert batch.shape == (97, 2)
    for theta, row in zip(thetas, batch):
        assert np.array_equal(row, canonical_decay_amplitudes(kind, 0.8, float(theta)))
    with pytest.raises(LayoutError, match="theta must keep the connection-point phases"):
        canonical_decay_amplitudes(kind, 0.8, np.array([0.5, np.nextafter(_THETA_LIMIT, np.inf)]))


@pytest.mark.parametrize("bad", [
    np.array([[0.0, 1.0], [1.0 + 1e-9, 0.0]]),
    np.array([[0.0, np.nan], [np.nan, 0.0]]),
])
@pytest.mark.parametrize("field", ["exchange", "collective_decay"])
def test_symmetry_check_rejects_asymmetric_and_nan(bad, field):
    args = {"lamb_shifts": np.zeros(2), "exchange": np.zeros((2, 2)),
            "individual_decay": np.zeros(2), "collective_decay": np.zeros((2, 2))}
    args[field] = bad
    with pytest.raises(ValueError, match="symmetric"):
        MasterEqCoefficients(**args)
    # an asymmetry within the 1e-12 tolerance is still accepted
    args[field] = np.array([[0.0, 1.0], [1.0 + 5e-13, 0.0]])
    MasterEqCoefficients(**args)


def test_kernel_rejects_overflowing_rates():
    # sqrt(gamma) weights stay finite, but the shifts and 2 v v^T overflow
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(LayoutError, match=r"gamma up to 1e\+308"):
            canonical_sums(Configuration.BRAIDED, 1e308, np.array([0.3, 1.2]))
        with pytest.raises(LayoutError, match=r"gamma up to 1e\+308"):
            general_coefficients(build_custom([
                GiantAtomSpec(0, (ConnectionPoint(0, 0.5, 1e308), ConnectionPoint(0, 1.1, 1e308))),
            ]))
        shift, v = canonical_sums(Configuration.BRAIDED, 1e300, 0.3)
    assert np.isfinite(shift).all() and np.isfinite(2 * v * v).all()


def test_canonical_theta_limit_is_where_phases_overflow():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        phases = _canonical_points("braided", 1.0, _THETA_LIMIT)[0]
        assert np.isfinite(phases).all()
        for theta in (np.nextafter(_THETA_LIMIT, np.inf), -np.inf, np.nan):
            with pytest.raises(LayoutError, match="theta must keep the connection-point phases"):
                canonical_coefficients("nested", 1.0, np.array([0.5, theta]))
