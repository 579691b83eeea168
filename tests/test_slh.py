import math

import numpy as np
import pytest
from oracles import general_braided_expected, general_braided_layout, identity_triplet, phase_element

from gawsim.coefficients import canonical_coefficients, general_coefficients
from gawsim.errors import LayoutError, NumericalFailure
from gawsim.model import (
    CanonicalConfig,
    Configuration,
    ConnectionPoint,
    GiantAtomSpec,
    build_canonical,
    build_custom,
)
from gawsim.slh import (
    SLHTriplet,
    build_network,
    extract_coefficients,
    number_op,
    point_triplet,
    series_product,
    sigma_minus,
    sigma_plus,
)


def random_triplet(rng, dim):
    l_op = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = 0.5 * (h + h.conj().T)
    s = np.exp(1j * rng.uniform(0, 2 * math.pi))
    return SLHTriplet(s, l_op, h)


def triplets_close(g1, g2, tol=1e-12):
    return (
        abs(g1.scattering - g2.scattering) < tol
        and np.abs(g1.collapse - g2.collapse).max() < tol
        and np.abs(g1.hamiltonian - g2.hamiltonian).max() < tol
    )


def test_operator_constructors_place_blocks():
    sm = sigma_minus(0, 2)
    # |ge><ee| and |gg><eg| transitions in the {ee, eg, ge, gg} ordering
    assert sm[2, 0] == 1.0 and sm[3, 1] == 1.0
    assert np.count_nonzero(sm) == 2
    sm1 = sigma_minus(1, 2)
    assert sm1[1, 0] == 1.0 and sm1[3, 2] == 1.0
    np.testing.assert_allclose(sigma_plus(0, 2), sm.conj().T)


def test_series_identity_element():
    rng = np.random.default_rng(0)
    g = random_triplet(rng, 4)
    assert triplets_close(series_product(identity_triplet(4), g), g)
    assert triplets_close(series_product(g, identity_triplet(4)), g)


def test_series_phases_compose_additively():
    g = series_product(phase_element(0.4, 4), phase_element(1.1, 4))
    assert g.scattering == pytest.approx(np.exp(1j * 1.5))
    assert np.abs(g.collapse).max() == 0.0
    assert np.abs(g.hamiltonian).max() == 0.0


def test_series_associativity():
    rng = np.random.default_rng(1)
    for _ in range(20):
        g1, g2, g3 = (random_triplet(rng, 4) for _ in range(3))
        left = series_product(series_product(g3, g2), g1)
        right = series_product(g3, series_product(g2, g1))
        assert triplets_close(left, right, tol=1e-11)


def test_series_dimension_mismatch():
    with pytest.raises(ValueError):
        series_product(identity_triplet(2), identity_triplet(4))


def test_single_point_collapse_amplitude():
    # one pass toward the mirror and one back: L = (1 + e^{2 i phi}) sqrt(gamma/2) sm
    for phi, gamma in [(0.35, 1.3), (1.0, 0.5), (2.2, 2.0)]:
        layout = build_custom([GiantAtomSpec(0, (ConnectionPoint(0, phi, gamma),))])
        trip = build_network(layout)
        alpha = np.trace(sigma_plus(0, 1) @ trip.collapse)
        assert abs(alpha) ** 2 == pytest.approx(gamma * (1 + math.cos(2 * phi)), abs=1e-12)


def test_network_scattering_unimodular_and_h_hermitian():
    rng = np.random.default_rng(2)
    kinds = list(Configuration)
    for _ in range(20):
        theta = float(rng.uniform(0.05, 2 * math.pi))
        kind = kinds[rng.integers(len(kinds))]
        layout = build_canonical(CanonicalConfig(kind, float(rng.uniform(0.2, 2.0)), theta))
        trip = build_network(layout)
        assert abs(abs(trip.scattering) - 1.0) < 1e-12
        assert np.abs(trip.hamiltonian - trip.hamiltonian.conj().T).max() < 1e-12


def test_general_braided_chain_matches_expansion():
    rng = np.random.default_rng(42)
    for _ in range(50):
        g1, g2, g3, g4 = rng.uniform(0.05, 2.0, size=4)
        t1, t2, t3 = rng.uniform(0.05, 2.5, size=3)
        th = float(rng.uniform(0.05, 2 * math.pi))
        layout = general_braided_layout(g1, g2, g3, g4, t1, t2, t3, th)
        trip = build_network(layout)
        # total scattering phase: both passes plus the mirror leg
        assert trip.scattering == pytest.approx(np.exp(1j * (2 * t1 + 2 * t2 + 2 * t3 + th)), abs=1e-10)
        got = extract_coefficients(trip, layout)
        dwa, dwb, gx, ga, gb, gcol = general_braided_expected(g1, g2, g3, g4, t1, t2, t3, th)
        assert got.lamb_shifts == pytest.approx([dwa, dwb], abs=1e-12)
        assert got.exchange[0, 1] == pytest.approx(gx, abs=1e-12)
        assert got.individual_decay == pytest.approx([ga, gb], abs=1e-12)
        assert got.collective_decay[0, 1] == pytest.approx(gcol, abs=1e-12)


@pytest.mark.parametrize("kind", list(Configuration))
def test_extraction_matches_formulas_canonical(kind):
    rng = np.random.default_rng(5)
    for _ in range(50):
        theta = float(rng.uniform(0.02, 2 * math.pi))
        gamma = float(rng.uniform(0.1, 3.0))
        layout = build_canonical(CanonicalConfig(kind, gamma, theta))
        got = extract_coefficients(build_network(layout), layout)
        for ref in (canonical_coefficients(kind, gamma, theta), general_coefficients(layout)):
            np.testing.assert_allclose(got.lamb_shifts, ref.lamb_shifts, atol=1e-10, rtol=0)
            np.testing.assert_allclose(got.exchange, ref.exchange, atol=1e-10, rtol=0)
            np.testing.assert_allclose(got.individual_decay, ref.individual_decay, atol=1e-10, rtol=0)
            np.testing.assert_allclose(got.collective_decay, ref.collective_decay, atol=1e-10, rtol=0)


def test_nested_dfi_point_through_network():
    layout = build_canonical(CanonicalConfig("nested", 1.0, math.pi / 4))
    got = extract_coefficients(build_network(layout), layout)
    np.testing.assert_allclose(got.individual_decay, 0.0, atol=1e-12)
    assert got.exchange[0, 1] == pytest.approx((2 + math.sqrt(2)) / 2, abs=1e-12)


def test_three_atom_network_matches_general_formula():
    pts = [
        GiantAtomSpec(0, (ConnectionPoint(0, 0.4, 1.0), ConnectionPoint(0, 2.0, 0.8))),
        GiantAtomSpec(1, (ConnectionPoint(1, 0.9, 0.5),)),
        GiantAtomSpec(2, (ConnectionPoint(2, 1.5, 1.2), ConnectionPoint(2, 3.1, 0.7))),
    ]
    layout = build_custom(pts)
    got = extract_coefficients(build_network(layout), layout)
    ref = general_coefficients(layout)
    np.testing.assert_allclose(got.lamb_shifts, ref.lamb_shifts, atol=1e-10, rtol=0)
    np.testing.assert_allclose(got.exchange, ref.exchange, atol=1e-10, rtol=0)
    np.testing.assert_allclose(got.individual_decay, ref.individual_decay, atol=1e-10, rtol=0)
    np.testing.assert_allclose(got.collective_decay, ref.collective_decay, atol=1e-10, rtol=0)


def test_atom_cap_enforced():
    atoms = [GiantAtomSpec(i, (ConnectionPoint(i, 0.1 + 0.2 * i, 1.0),)) for i in range(7)]
    with pytest.raises(LayoutError):
        build_network(build_custom(atoms))


def _layout_of(m):
    return build_custom([GiantAtomSpec(j, (ConnectionPoint(j, 0.3 + 0.4 * j, 1.0),)) for j in range(m)])


def _hand_triplet(m, fault=None):
    """L = 0.7 sm_0 + 0.4 sm_1, H = n_0 + 0.3 (sp_1 sm_0 + h.c.), with one ``fault``."""
    hop = sigma_plus(1, m) @ sigma_minus(0, m)
    scattering = 1.1 if fault == "scattering" else 1.0
    collapse = 0.7 * sigma_minus(0, m) + (0.4j if fault == "phase" else 0.4) * sigma_minus(1, m)
    if fault == "raising":
        collapse = collapse + 0.2 * sigma_plus(0, m)
    ham = number_op(0, m) + 0.3 * (hop + hop.T)
    if fault == "hermitian":
        ham = ham + 1j * hop
    if fault == "span":
        ham = ham + number_op(0, m) @ number_op(1, m)
    return SLHTriplet(scattering, collapse, ham)


@pytest.mark.parametrize("m", [2, 3])
def test_hand_built_triplet_extracts(m):
    got = extract_coefficients(_hand_triplet(m), _layout_of(m))
    np.testing.assert_allclose(got.individual_decay[:2], [0.49, 0.16], atol=1e-15, rtol=0)
    assert got.collective_decay[0, 1] == pytest.approx(0.28, abs=1e-15)
    assert got.exchange[0, 1] == pytest.approx(0.3, abs=1e-15)
    np.testing.assert_allclose(got.lamb_shifts[:2], [1.0, 0.0], atol=1e-15, rtol=0)


#: The message of each ``extract_coefficients`` guard, by the fault that trips it.
_GUARD_MESSAGES = {
    "scattering": r"\|S\| = 1\.1 is not unimodular",
    "hermitian": r"non-Hermitian H residue 1\.000e\+00",
    "raising": "collapse operator is not a combination of lowering operators",
    "phase": "collapse amplitudes are not collinear in phase",
    "span": "H_tot contains terms outside the number/exchange span",
}


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("fault", list(_GUARD_MESSAGES))
def test_extract_guards_reject_hand_built_triplets(m, fault):
    with pytest.raises(NumericalFailure, match=_GUARD_MESSAGES[fault]):
        extract_coefficients(_hand_triplet(m, fault), _layout_of(m))


def _unfolded_network(layout):
    """``build_network``'s chain with every propagation phase as its own component."""
    m, dim, pts = layout.n_atoms, 2 ** layout.n_atoms, layout.all_points
    chain = []
    for i in range(len(pts) - 1, -1, -1):
        chain.append(point_triplet(pts[i], m))
        if i > 0:
            chain.append(phase_element(pts[i].phase - pts[i - 1].phase, dim))
    chain.append(phase_element(2.0 * pts[0].phase, dim))
    for i, p in enumerate(pts):
        chain.append(point_triplet(p, m))
        if i < len(pts) - 1:
            chain.append(phase_element(pts[i + 1].phase - p.phase, dim))
    total = chain[0]
    for component in chain[1:]:
        total = series_product(component, total)
    return total


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_folded_phases_match_unfolded_chain(m):
    rng = np.random.default_rng(100 + m)
    n = 2 * m
    phases = np.cumsum(rng.uniform(0.1, 1.0, n))
    owner = rng.permutation(np.repeat(np.arange(m), 2))
    layout = build_custom([
        GiantAtomSpec(j, tuple(ConnectionPoint(j, float(phases[i]), float(rng.uniform(0.3, 1.5)))
                               for i in range(n) if owner[i] == j))
        for j in range(m)
    ])
    assert triplets_close(build_network(layout), _unfolded_network(layout))
