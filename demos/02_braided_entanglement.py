#!/usr/bin/env python3
"""Concurrence of two braided atoms started in |e>_a |g>_b.

Three regimes of the phase shift theta:

  theta = 0     both decay channels are wide open; the dark (antisymmetric)
                half of the excitation survives and the concurrence relaxes
                to 0.5 at rate 16*gamma
  theta = pi/2  decoherence-free point: the excitation swaps losslessly and
                C(t) = |sin(2*gamma*t)| touches 1
  theta = pi    the atoms decouple from the waveguide entirely; nothing
                happens and no entanglement ever forms

The same numbers come out of three independent routes: the full master
equation, the single-excitation effective Hamiltonian, and the closed-form
expression.

Run:  python3 demos/02_braided_entanglement.py
"""

import numpy as np

from gawsim import (
    AmplitudeState,
    amplitude_trajectory,
    canonical_coefficients,
    closed_form_concurrence_braided,
    evolve_lindblad,
)
from gawsim.dynamics import density_from_amplitudes, recommended_timestep

EG = AmplitudeState(1.0, 0.0)


def run_theta(theta, label, marks):
    coeffs = canonical_coefficients("braided", 1.0, theta)
    record = evolve_lindblad(
        density_from_amplitudes(EG), coeffs, t_max=float(marks[-1]),
        dt=recommended_timestep(coeffs),
    )
    times = record.times[1:]
    lind = record.concurrence[1:]
    amp = amplitude_trajectory(EG, coeffs, times).concurrence
    closed = closed_form_concurrence_braided(theta, times)
    print(f"\ntheta = {label}")
    print(f"{'gamma*t':>8} {'C (master eq)':>14} {'C (amplitudes)':>15} {'C (closed)':>11}")
    for mark in marks:
        i = int(np.argmin(np.abs(times - mark)))
        print(f"{times[i]:>8.2f} {lind[i]:>14.6f} {amp[i]:>15.6f} {closed[i]:>11.6f}")
    print(f"  route disagreement: {max(abs(lind - amp).max(), abs(amp - closed).max()):.2e}")


def main():
    times = np.array([0.1, 0.25, 0.5, np.pi / 4, 1.0, 2.0])
    run_theta(0.0, "0 (steady state, rate 16*gamma)", times)
    run_theta(np.pi / 2, "pi/2 (decoherence-free oscillation)", times)
    run_theta(np.pi, "pi (decoupled)", times)
    print("\nsteady value at theta=0 is 0.5; the pi/2 peak at gamma*t = pi/4 is exactly 1")


if __name__ == "__main__":
    main()
