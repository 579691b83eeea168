#!/usr/bin/env python3
"""Closed-form braided concurrence against the exact amplitude evolution.

The closed form packs the whole time dependence into one phase-dependent
radical, two polynomials and a few exponentials; the amplitude path solves the
2x2 non-Hermitian generator exactly.  They agree to near machine precision
over the full (theta, t) plane, including the two textbook reductions

    theta = 0     ->  (1 - exp(-16*gamma*t)) / 2
    theta = pi/2  ->  |sin(2*gamma*t)|

Run:  python3 demos/05_closed_form_vs_amplitudes.py
"""

import numpy as np

from gawsim import (
    AmplitudeState,
    amplitude_trajectory,
    canonical_coefficients,
    closed_form_concurrence_braided,
)
from gawsim.analytic import concurrence_terms

EG = AmplitudeState(1.0, 0.0)


def main():
    times = np.linspace(0.05, 5.0, 120)
    thetas = np.linspace(0.02, 2 * np.pi - 0.02, 160)
    worst, worst_theta = 0.0, 0.0
    for theta in thetas:
        coeffs = canonical_coefficients("braided", 1.0, float(theta))
        amplitudes = amplitude_trajectory(EG, coeffs, times).concurrence
        closed = closed_form_concurrence_braided(float(theta), times)
        err = float(np.abs(amplitudes - closed).max())
        if err > worst:
            worst, worst_theta = err, float(theta)
    print(f"worst disagreement over a {len(thetas)}x{len(times)} grid: "
          f"{worst:.2e} at theta = {worst_theta / np.pi:.3f} pi")

    radical = [abs(concurrence_terms(float(t)).a_term) for t in thetas]
    print(f"denominator radical stays well away from zero: min |a| = {min(radical):.3f}")

    print("\nreduction checks")
    for gt in (0.1, 0.25, 1.0):
        c0 = closed_form_concurrence_braided(0.0, gt)
        print(f"  theta=0,    gamma*t={gt:<5} closed={c0:.10f}  target={(1 - np.exp(-16 * gt)) / 2:.10f}")
    for gt in (0.3, np.pi / 4, 1.2):
        c1 = closed_form_concurrence_braided(np.pi / 2, gt)
        print(f"  theta=pi/2, gamma*t={gt:<17} closed={c1:.10f}  target={abs(np.sin(2 * gt)):.10f}")


if __name__ == "__main__":
    main()
