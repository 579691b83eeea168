import math

import numpy as np
import pytest
from oracles import closed_form_braided, closed_form_separate

from gawsim.coefficients import canonical_coefficients
from gawsim.dfi import _golden_section, check_dfi, scan_dfi
from gawsim.dynamics import AmplitudeState, evolve_amplitudes
from gawsim.model import Configuration

PI = math.pi


def test_check_dfi_braided_half_pi():
    assert check_dfi(closed_form_braided(1.0, PI / 2)) is True


def test_check_dfi_decoupled_is_not_dfi():
    # everything vanishes at theta = pi, including the exchange
    assert check_dfi(closed_form_braided(1.0, PI)) is False


def test_check_dfi_separate_half_pi():
    assert check_dfi(closed_form_separate(1.0, PI / 2)) is False


def test_check_dfi_rejects_bad_tolerances():
    with pytest.raises(ValueError):
        check_dfi(closed_form_braided(1.0, PI / 2), tol_decay=0.0)


@pytest.mark.parametrize("bad", [{"gamma": math.nan}, {"gamma": math.inf}, {"theta_max": math.nan},
                                 {"tol_decay": math.nan}, {"tol_exchange": math.nan}])
def test_scan_rejects_non_finite_arguments(bad):
    with pytest.raises(ValueError):
        scan_dfi("nested", grid=200, **bad)


def test_scan_braided_finds_half_and_three_half_pi():
    report = scan_dfi("braided", gamma=1.0, grid=10_000)
    assert len(report) == 2
    assert report.theta_points[0] == pytest.approx(PI / 2, abs=1e-9)
    assert report.theta_points[1] == pytest.approx(3 * PI / 2, abs=1e-9)
    for residual, g in zip(report.residual_decay, report.exchange_at_point):
        assert residual < 1e-9
        assert abs(abs(g) - 1.0) < 1e-9


def test_scan_nested_finds_four_points():
    report = scan_dfi("nested", gamma=1.0, grid=10_000)
    targets = [PI / 4, 3 * PI / 4, 5 * PI / 4, 7 * PI / 4]
    assert len(report) == 4
    for got, want in zip(report.theta_points, targets):
        assert got == pytest.approx(want, abs=1e-9)
    assert report.exchange_at_point[0] == pytest.approx((2 + math.sqrt(2)) / 2, abs=1e-9)


def test_scan_separate_finds_nothing():
    assert len(scan_dfi("separate", gamma=1.0, grid=10_000)) == 0


def test_scan_gamma_scaling():
    report = scan_dfi("braided", gamma=2.5, grid=2_000)
    assert len(report) == 2
    assert abs(report.exchange_at_point[0]) == pytest.approx(2.5, abs=1e-9)


def test_braided_points_over_six_periods():
    report = scan_dfi("braided", theta_min=0.0, theta_max=6 * PI, grid=30_000)
    assert len(report) == 6
    for n, got in enumerate(report.theta_points):
        assert got == pytest.approx((n + 0.5) * PI, abs=1e-9)


def test_nested_points_over_six_periods():
    report = scan_dfi("nested", theta_min=0.0, theta_max=6 * PI, grid=30_000)
    assert len(report) == 12
    targets = sorted((n + (2 * k + 1) / 4) * PI for n in range(6) for k in (0, 1))
    for got, want in zip(report.theta_points, targets):
        assert got == pytest.approx(want, abs=1e-9)


@pytest.mark.parametrize("start,tol", [(2e4, 5e-11), (1e8, 5e-7)])
def test_scan_ends_where_one_ulp_of_theta_exceeds_the_refinement_width(start, tol):
    # above |theta| = 8192 one ulp of theta is wider than the 1e-12 at which the
    # golden section stops: it stops at adjacent doubles instead of cycling there
    report = scan_dfi("nested", theta_min=start, theta_max=start + 10.0, grid=100)
    first = math.ceil((start - PI / 4) / (PI / 2))
    targets = [PI / 4 + k * PI / 2 for k in range(first, first + 7)]
    assert start <= targets[0] and targets[-1] + PI / 2 > start + 10.0
    assert len(report) == 7
    for got, want in zip(report.theta_points, targets):
        assert got == pytest.approx(want, abs=tol)


@pytest.mark.parametrize("lo", [2e4, 1e8, 1e300, -1e300])
@pytest.mark.parametrize("ulps", [1, 2, 5, 1000])
def test_golden_section_ends_on_every_bracket(lo, ulps):
    # an objective falling toward hi used to cycle once lo and hi were adjacent
    hi = lo
    for _ in range(ulps):
        hi = math.nextafter(hi, math.inf)
    for objective in (lambda x: -x, lambda x: x, lambda x: 1.0):
        assert lo <= _golden_section(objective, lo, hi) <= hi


def test_norm_conserved_at_every_reported_point():
    for kind in ("braided", "nested"):
        report = scan_dfi(kind, gamma=1.0, grid=5_000)
        for theta in report.theta_points:
            coeffs = canonical_coefficients(kind, 1.0, theta)
            for t in np.linspace(0.5, 10.0, 20):
                state = evolve_amplitudes(AmplitudeState(1.0, 0.0), coeffs, float(t))
                assert abs(state.norm() - 1.0) < 1e-12


def test_partial_range_with_edge_minimum():
    # the minimum sits exactly at the range edge
    report = scan_dfi("braided", theta_min=0.3, theta_max=PI / 2, grid=500)
    assert len(report) == 1
    assert report.theta_points[0] == pytest.approx(PI / 2, abs=1e-6)


def test_scan_argument_validation():
    with pytest.raises(ValueError):
        scan_dfi("braided", grid=50)
    with pytest.raises(ValueError):
        scan_dfi("braided", theta_min=2.0, theta_max=1.0)
    with pytest.raises(ValueError):
        scan_dfi("braided", gamma=-1.0)
    with pytest.raises(ValueError):
        scan_dfi("weird")


def test_report_is_value_like():
    report = scan_dfi(Configuration.BRAIDED, grid=1_000)
    assert report.configuration is Configuration.BRAIDED
    assert len(report.theta_points) == len(report.residual_decay) == len(report.exchange_at_point)
