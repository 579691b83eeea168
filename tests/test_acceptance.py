"""End-to-end acceptance checks, one per shipped guarantee.

Every test prints a single `ACCEPTANCE <n> <label>: PASS|FAIL` line (visible
with `pytest -s`, or in the captured output on failure) and enforces its
tolerances exactly as stated; nothing here is calibrated after the fact.
"""

import math
import time

import numpy as np
from oracles import closed_form_coefficients, general_braided_expected, general_braided_layout

from gawsim.analytic import closed_form_concurrence_braided, concurrence_terms
from gawsim.cli import main as cli_main
from gawsim.coefficients import canonical_coefficients, general_coefficients
from gawsim.dfi import scan_dfi
from gawsim.dynamics import (
    AmplitudeState,
    amplitude_trajectory,
    concurrence_from_amplitudes,
    density_from_amplitudes,
    evolve_amplitudes,
    evolve_lindblad,
    recommended_timestep,
)
from gawsim.model import CanonicalConfig, Configuration, build_canonical
from gawsim.slh import build_network, extract_coefficients

PI = math.pi
EG = AmplitudeState(1.0, 0.0)
COEFF_FIELDS = ("lamb_shifts", "exchange", "individual_decay", "collective_decay")


def _criterion(number, label, body):
    try:
        detail = body() or ""
        print(f"ACCEPTANCE {number} {label}: PASS {detail}".rstrip())
    except AssertionError as exc:
        print(f"ACCEPTANCE {number} {label}: FAIL {exc}")
        raise


def _coeff_diff(c1, c2):
    return max(float(np.abs(getattr(c1, f) - getattr(c2, f)).max()) for f in COEFF_FIELDS)


def _fit_rate(times, conc, t_lo=0.01, t_hi=0.4):
    mask = (times >= t_lo) & (times <= t_hi)
    decay = 1.0 - 2.0 * np.asarray(conc)[mask]
    slope = np.polyfit(times[mask], np.log(decay), 1)[0]
    return -slope


def test_criterion_1_braided_dfi():
    def body():
        t0 = time.perf_counter()
        report = scan_dfi("braided", gamma=1.0, theta_min=0.0, theta_max=2 * PI, grid=10_000)
        elapsed = time.perf_counter() - t0
        assert len(report) == 2, f"expected 2 points, got {len(report)}"
        for got, want in zip(report.theta_points, (PI / 2, 3 * PI / 2)):
            assert abs(got - want) < 1e-9, f"theta {got} vs {want}"
        for residual, g in zip(report.residual_decay, report.exchange_at_point):
            assert residual < 1e-9, f"residual decay {residual}"
            assert abs(abs(g) - 1.0) < 1e-9, f"|g| deviates by {abs(abs(g) - 1.0)}"
        assert elapsed < 5.0, f"scan took {elapsed:.2f} s"
        return f"(points at pi/2, 3pi/2; {elapsed:.2f} s)"

    _criterion(1, "braided DFI points", body)


def test_criterion_2_nested_and_separate_dfi():
    def body():
        report = scan_dfi("nested", gamma=1.0, theta_min=0.0, theta_max=2 * PI, grid=10_000)
        targets = (PI / 4, 3 * PI / 4, 5 * PI / 4, 7 * PI / 4)
        assert len(report) == 4, f"expected 4 points, got {len(report)}"
        for got, want in zip(report.theta_points, targets):
            assert abs(got - want) < 1e-9, f"theta {got} vs {want}"
        g_expected = (2.0 + math.sqrt(2.0)) / 2.0
        assert abs(report.exchange_at_point[0] - g_expected) < 1e-9, (
            f"g(pi/4) off by {abs(report.exchange_at_point[0] - g_expected)}"
        )
        empty = scan_dfi("separate", gamma=1.0, theta_min=0.0, theta_max=2 * PI, grid=10_000)
        assert len(empty) == 0, f"separate scan returned {len(empty)} points"
        return "(nested 4 points incl. g(pi/4); separate empty)"

    _criterion(2, "nested/separate DFI", body)


def test_criterion_3_steady_state_braided_theta0():
    def body():
        coeffs = canonical_coefficients("braided", 1.0, 0.0)

        times = np.linspace(0.0, 2.0, 801)
        eff = amplitude_trajectory(EG, coeffs, times).concurrence
        target = 0.5 * (1.0 - np.exp(-16.0 * times))
        eff_err = float(np.abs(eff - target).max())
        assert eff_err < 1e-6, f"effective path error {eff_err:.2e}"

        dt = recommended_timestep(coeffs)
        record = evolve_lindblad(density_from_amplitudes(EG), coeffs, t_max=2.0, dt=dt)
        lind_target = 0.5 * (1.0 - np.exp(-16.0 * record.times))
        lind_err = float(np.abs(record.concurrence - lind_target).max())
        assert lind_err < 1e-6, f"Lindblad path error {lind_err:.2e}"

        for label, ts, cs in (("lindblad", record.times, record.concurrence), ("effective", times, eff)):
            rate = _fit_rate(ts, cs)
            assert abs(rate - 16.0) / 16.0 < 1e-3, f"{label} fitted rate {rate}"
        return f"(max errors eff {eff_err:.1e}, lindblad {lind_err:.1e}; rate within 0.1%)"

    _criterion(3, "steady-state concurrence at theta=0", body)


def test_criterion_4_maximal_entanglement():
    def body():
        coeffs = canonical_coefficients("braided", 1.0, PI / 2)
        times = np.linspace(0.0, 5.0, 2001)
        conc = amplitude_trajectory(EG, coeffs, times).concurrence
        err = float(np.abs(conc - np.abs(np.sin(2.0 * times))).max())
        assert err < 1e-6, f"braided oscillation error {err:.2e}"
        peak = concurrence_from_amplitudes(evolve_amplitudes(EG, coeffs, PI / 4))
        assert abs(peak - 1.0) < 1e-6, f"C(pi/4) = {peak}"

        nested = canonical_coefficients("nested", 1.0, PI / 4)
        nested_conc = amplitude_trajectory(EG, nested, np.linspace(0.0, 5.0, 5001)).concurrence
        nested_max = float(nested_conc.max())
        assert abs(nested_max - 1.0) < 1e-4, f"nested max C = {nested_max}"
        return f"(braided err {err:.1e}; nested max {nested_max:.6f})"

    _criterion(4, "maximal entanglement at DFI", body)


def test_criterion_5_separate_exceeds_half(tmp_path):
    def body():
        out = tmp_path / "separate_sweep.csv"
        rc = cli_main([
            "sweep", "--config", "separate",
            "--theta-min", str(0.45 * PI), "--theta-max", str(0.499 * PI),
            "--theta-steps", "400", "--t-max", "4", "--t-steps", "400",
            "--out", str(out),
        ])
        assert rc == 0, f"sweep exit code {rc}"
        values = [float(line.rsplit(",", 1)[1]) for line in out.read_text().splitlines()
                  if line and not line.startswith("#") and not line.startswith("theta")]
        best = max(values)
        assert best > 0.5, f"max concurrence {best} does not exceed 0.5"
        return f"(max concurrence {best:.4f})"

    _criterion(5, "separate configuration exceeds 0.5", body)


def test_criterion_6_dual_derivation_equivalence():
    def body():
        rng = np.random.default_rng(20240817)
        kinds = list(Configuration)
        worst = 0.0
        for i in range(200):
            kind = kinds[i % 3]
            theta = float(rng.uniform(0.02, 2 * PI))
            gamma = float(rng.uniform(0.05, 3.0))
            layout = build_canonical(CanonicalConfig(kind, gamma, theta))
            extracted = extract_coefficients(build_network(layout), layout)
            closed = closed_form_coefficients(kind, gamma, theta)
            direct = general_coefficients(layout)
            worst = max(worst, _coeff_diff(extracted, closed), _coeff_diff(extracted, direct),
                        _coeff_diff(closed, direct))
            assert worst < 1e-10, f"triple {i} ({kind.value}, {theta:.3f}, {gamma:.3f}): {worst:.2e}"

        worst_general = 0.0
        for i in range(60):
            g1, g2, g3, g4 = rng.uniform(0.05, 2.0, size=4)
            t1, t2, t3 = rng.uniform(0.05, 2.5, size=3)
            th = float(rng.uniform(0.05, 2 * PI))
            layout = general_braided_layout(g1, g2, g3, g4, t1, t2, t3, th)
            got = extract_coefficients(build_network(layout), layout)
            dwa, dwb, gx, ga, gb, gcol = general_braided_expected(g1, g2, g3, g4, t1, t2, t3, th)
            diffs = [
                abs(got.lamb_shifts[0] - dwa), abs(got.lamb_shifts[1] - dwb),
                abs(got.exchange[0, 1] - gx), abs(got.individual_decay[0] - ga),
                abs(got.individual_decay[1] - gb), abs(got.collective_decay[0, 1] - gcol),
            ]
            worst_general = max(worst_general, max(diffs))
            assert worst_general < 1e-10, f"general braided case {i}: {worst_general:.2e}"
        return f"(worst canonical {worst:.1e}, worst general {worst_general:.1e})"

    _criterion(6, "network composition matches formulas", body)


def test_criterion_7_closed_form_vs_ode():
    def body():
        thetas = np.linspace(0.02, 2 * PI - 0.02, 50)
        min_radical = min(abs(concurrence_terms(float(t)).a_term) for t in thetas)
        assert min_radical > 1e-3, "grid unexpectedly touches a radical zero"
        times = np.linspace(0.1, 5.0, 50)
        worst = 0.0
        for theta in thetas:
            coeffs = canonical_coefficients("braided", 1.0, float(theta))
            ode = amplitude_trajectory(EG, coeffs, times).concurrence
            closed = closed_form_concurrence_braided(float(theta), times)
            worst = max(worst, float(np.abs(ode - closed).max()))
        assert worst < 1e-6, f"closed form vs ODE worst error {worst:.2e}"

        red0 = float(np.abs(
            closed_form_concurrence_braided(0.0, times) - 0.5 * (1 - np.exp(-16 * times))
        ).max())
        red_half = float(np.abs(
            closed_form_concurrence_braided(PI / 2, times) - np.abs(np.sin(2 * times))
        ).max())
        assert red0 < 1e-10, f"theta=0 reduction error {red0:.2e}"
        assert red_half < 1e-10, f"theta=pi/2 reduction error {red_half:.2e}"
        return f"(grid worst {worst:.1e}; reductions {red0:.1e}, {red_half:.1e})"

    _criterion(7, "closed form matches ODE", body)


def test_criterion_8_property_suites():
    def body():
        rng = np.random.default_rng(99)

        # 2*pi periodicity at 1e-12
        for kind in Configuration:
            for theta in rng.uniform(0.0, 2 * PI, size=1000):
                c1 = canonical_coefficients(kind, 1.0, float(theta))
                c2 = canonical_coefficients(kind, 1.0, float(theta) + 2 * PI)
                assert _coeff_diff(c1, c2) < 1e-12, f"periodicity broken at {theta}"

        # reflection identities
        for kind in Configuration:
            for theta in np.linspace(0.01, 2 * PI - 0.01, 200):
                c = canonical_coefficients(kind, 1.0, float(theta))
                r = canonical_coefficients(kind, 1.0, 2 * PI - float(theta))
                assert np.abs(r.individual_decay - c.individual_decay).max() < 1e-12
                assert np.abs(r.collective_decay - c.collective_decay).max() < 1e-12
                assert np.abs(r.exchange + c.exchange).max() < 1e-12
                assert np.abs(r.lamb_shifts + c.lamb_shifts).max() < 1e-12

        # trace drift and positivity floor along a Lindblad trajectory
        coeffs = canonical_coefficients("braided", 1.0, 0.7)
        record = evolve_lindblad(
            density_from_amplitudes(EG), coeffs, t_max=2.0, dt=recommended_timestep(coeffs)
        )
        drift = max(
            abs(np.trace(rho) - 1.0) / max(t, 1.0) for t, rho in zip(record.times, record.states)
        )
        assert drift < 1e-9, f"trace drift {drift:.2e} per unit time"
        floor = min(float(np.linalg.eigvalsh(rho).min()) for rho in record.states)
        assert floor >= -1e-8, f"eigenvalue floor {floor:.2e}"

        # Wootters concurrence of the full evolution vs the amplitude path
        worst = 0.0
        for kind in Configuration:
            for theta in np.linspace(0.15, 2 * PI - 0.15, 20):
                c = canonical_coefficients(kind, 1.0, float(theta))
                rec = evolve_lindblad(
                    density_from_amplitudes(EG), c, t_max=2.0, dt=2.5e-4, store_every=400
                )
                amp = amplitude_trajectory(EG, c, rec.times[1:]).concurrence
                worst = max(worst, float(np.abs(rec.concurrence[1:] - amp).max()))
                assert worst < 1e-6, f"consistency broken at ({kind.value}, {theta:.3f}): {worst:.2e}"

        # norm conservation at DFI points over t in [0, 10]
        for kind in ("braided", "nested"):
            for theta in scan_dfi(kind, grid=2_000).theta_points:
                c = canonical_coefficients(kind, 1.0, theta)
                for t in np.linspace(0.5, 10.0, 20):
                    norm = evolve_amplitudes(EG, c, float(t)).norm()
                    assert abs(norm - 1.0) < 1e-12, f"norm {norm} at ({kind}, {theta})"
        return f"(lindblad-vs-amplitude worst {worst:.1e}; drift {drift:.1e})"

    _criterion(8, "property suites", body)
