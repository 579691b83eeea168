import dataclasses
import math

import numpy as np
import pytest
from oracles import closed_form_braided

from gawsim import analytic
from gawsim.analytic import closed_form_concurrence_braided, concurrence_terms
from gawsim.dynamics import AmplitudeState, amplitude_trajectory


def test_terms_at_theta_zero():
    terms = concurrence_terms(0.0)
    assert terms.a_term == pytest.approx(8.0, abs=1e-12)
    assert terms.d_term == pytest.approx(16.0, abs=1e-12)
    assert terms.e_term == pytest.approx(-4.0, abs=1e-12)
    assert terms.f_term == pytest.approx(0.0, abs=1e-12)


def test_f_term_vanishes_at_multiples_of_two_pi():
    for n in range(4):
        assert abs(concurrence_terms(2 * math.pi * n).f_term) < 1e-12


def test_a_term_squares_to_its_radicand():
    for theta in np.linspace(0.0, 2 * math.pi, 101):
        terms = concurrence_terms(float(theta))
        z = np.exp(1j * theta)
        poly = (
            37 - 50 * z + 93 * z ** 2 - 80 * z ** 3 + 86 * z ** 4 - 52 * z ** 5
            + 38 * z ** 6 - 16 * z ** 7 + 9 * z ** 8 - 2 * z ** 9 + z ** 10
        )
        assert terms.a_term ** 2 == pytest.approx(z ** 3 * poly, abs=1e-10)


def test_d_term_is_the_trace_polynomial():
    for theta in np.linspace(0.0, 2 * math.pi, 101):
        z = np.exp(1j * theta)
        trace = 4 + z + 4 * z ** 2 + 3 * z ** 3 + 3 * z ** 5 + z ** 7
        assert concurrence_terms(float(theta)).d_term == pytest.approx(trace, abs=1e-12)


def test_invariant_under_radical_sign_flip(monkeypatch):
    # x = a c t: a -> -a takes e^{-Re x} out of both factors and the envelope
    # gives both back, so either root of the radical gives the same C
    thetas = np.linspace(0.0, 2 * math.pi, 401)
    times = np.linspace(0.0, 10.0, 41)
    principal = closed_form_concurrence_braided(thetas, times)
    terms = concurrence_terms
    monkeypatch.setattr(analytic, "concurrence_terms",
                        lambda theta: dataclasses.replace(terms(theta), a_term=-terms(theta).a_term))
    flipped = closed_form_concurrence_braided(thetas, times)
    assert np.abs(flipped - principal).max() < 1e-14


def test_radical_never_vanishes_on_real_axis():
    magnitudes = [abs(concurrence_terms(float(t)).a_term) for t in np.linspace(0, 2 * math.pi, 4001)]
    assert min(magnitudes) > 1.8
    # |a_term|^2 = |poly(z)| on |z| = 1.  Between two of n grid points the
    # arc is at most pi / n, and |poly'| <= sum_k k |c_k| = 1520 there, so
    # the grid minimum minus 1520 * pi / n bounds |poly| on the whole circle
    coeffs = [37, -50, 93, -80, 86, -52, 38, -16, 9, -2, 1]
    lipschitz = sum(k * abs(c) for k, c in enumerate(coeffs))
    assert lipschitz == 1520
    n = 10 ** 6
    grid_min = np.abs(np.polynomial.polynomial.polyval(np.exp(2j * np.pi * np.arange(n) / n), coeffs)).min()
    assert grid_min > 3.4
    assert grid_min - lipschitz * math.pi / n > 3.4


def test_reduces_to_steady_state_form_at_theta_zero():
    for gt in (0.05, 0.1, 0.5, 1.0, 2.0):
        value = closed_form_concurrence_braided(0.0, gt)
        assert value == pytest.approx(0.5 * (1 - math.exp(-16 * gt)), abs=1e-10)
    assert closed_form_concurrence_braided(0.0, 0.1) == pytest.approx(0.39905, abs=2e-5)


def test_reduces_to_oscillation_at_half_pi():
    for gt in (0.1, math.pi / 4, 0.9, 2.0):
        value = closed_form_concurrence_braided(math.pi / 2, gt)
        assert value == pytest.approx(abs(math.sin(2 * gt)), abs=1e-10)
    assert closed_form_concurrence_braided(math.pi / 2, math.pi / 4) == pytest.approx(1.0, abs=1e-12)


def test_zero_at_time_zero():
    for theta in np.linspace(0.0, 2 * math.pi, 25):
        assert closed_form_concurrence_braided(float(theta), 0.0) == pytest.approx(0.0, abs=1e-12)


def test_matches_amplitude_path_on_grid():
    times = np.linspace(0.05, 5.0, 40)
    worst = 0.0
    for theta in np.linspace(0.02, 2 * math.pi - 0.02, 60):
        coeffs = closed_form_braided(1.0, float(theta))
        ode = amplitude_trajectory(AmplitudeState(1.0, 0.0), coeffs, times).concurrence
        closed = closed_form_concurrence_braided(float(theta), times)
        worst = max(worst, float(np.abs(ode - closed).max()))
    assert worst < 1e-6


def test_vectorized_over_time():
    times = np.linspace(0.0, 2.0, 17)
    values = closed_form_concurrence_braided(1.1, times)
    assert values.shape == times.shape
    assert values[0] == pytest.approx(0.0, abs=1e-12)
    singles = [closed_form_concurrence_braided(1.1, float(t)) for t in times]
    np.testing.assert_allclose(values, singles, atol=1e-14)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("theta,t,name", [
    (math.nan, 1.0, "theta"),
    (math.inf, 1.0, "theta"),
    (1.0, math.nan, "t"),
    (1.0, [0.0, math.inf], "t"),
])
def test_non_finite_arguments_rejected_by_name(theta, t, name):
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        closed_form_concurrence_braided(theta, t)


def test_bad_arguments_rejected():
    with pytest.raises(ValueError, match="^t must be nonnegative"):
        closed_form_concurrence_braided(1.0, -0.5)
    with pytest.raises(ValueError, match="^t must be nonnegative"):
        closed_form_concurrence_braided(1.0, [0.0, -0.5])


def test_theta_array_gives_rows_equal_to_single_theta_calls():
    thetas = np.concatenate([np.linspace(-3.0, 9.0, 23), [0.0, math.pi / 2, 2 * math.pi]])
    times = np.linspace(0.0, 5.0, 31)
    grid = closed_form_concurrence_braided(thetas, times)
    assert grid.shape == (len(thetas), len(times))
    for theta, row in zip(thetas, grid):
        assert np.array_equal(row, closed_form_concurrence_braided(float(theta), times))
    # a float t gives one value per theta, each equal to its scalar call
    column = closed_form_concurrence_braided(thetas, 0.9)
    assert column.shape == thetas.shape
    assert column.tolist() == [closed_form_concurrence_braided(float(t), 0.9) for t in thetas]
    # splitting the times changes no value
    halves = [closed_form_concurrence_braided(thetas, part) for part in (times[:13], times[13:])]
    assert np.array_equal(np.concatenate(halves, axis=1), grid)


@pytest.mark.filterwarnings("error")
def test_envelope_stays_finite_at_huge_gamma_t():
    # the envelope exponent is one rate per theta, <= 0, times gamma t: nothing
    # of order gamma t is left to cancel
    thetas = np.linspace(0.0, 2 * math.pi, 41)
    values = closed_form_concurrence_braided(thetas, [0.0, 1e-3, 1.0, 4.0, 1e300, 1e302, 1e305, 4e305, 7e305])
    assert np.isfinite(values).all() and (values >= 0.0).all() and (values <= 1.0).all()
    # lossless at theta = pi/2: |sin(2 gamma t)|
    assert closed_form_concurrence_braided(math.pi / 2, 1.0) == pytest.approx(abs(math.sin(2.0)), abs=1e-12)


def test_terms_of_a_theta_array_are_the_terms_of_each_theta():
    thetas = np.linspace(0.0, 2 * math.pi, 9)
    terms = concurrence_terms(thetas)
    for i, theta in enumerate(thetas):
        single = concurrence_terms(float(theta))
        for name in ("a_term", "d_term", "e_term", "f_term"):
            assert getattr(terms, name).shape == thetas.shape
            assert getattr(terms, name)[i] == pytest.approx(getattr(single, name), abs=1e-13)


@pytest.mark.filterwarnings("error")
def test_theta_array_rejects_a_non_finite_entry_and_more_axes():
    with pytest.raises(ValueError, match="^theta must be finite, got inf"):
        closed_form_concurrence_braided(np.array([0.3, math.inf]), [0.0, 1.0])
    with pytest.raises(ValueError, match="^theta must be a float or a 1-D array"):
        closed_form_concurrence_braided(np.zeros((2, 2)), [0.0, 1.0])
