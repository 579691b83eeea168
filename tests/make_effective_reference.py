#!/usr/bin/env python3
"""Write tests/data/effective_reference.csv: 40-digit effective concurrences.

The table holds, for each canonical configuration at gamma = 1 and
gamma = 1000, 250 seeded cells of the sweep grid theta = linspace(0, 2 pi,
400) (the README sweeps' theta grid), t = linspace(0, 4, 40), each with the
concurrence 2 |c_eg c_ge*| of the exact single-excitation amplitudes
from |eg>, computed with mpmath at 50 digits and written to 40.

Every step is taken from the definitions, not from gawsim: the phases
(2i + 1) theta / 2 of the four points (theta and t are the grid's doubles,
taken as exact), the unit-rate double sums with their n = m terms, the
decay matrix 2 v v^T, H = shift - (i/2) decay scaled by gamma, and
exp(-i H t) of the 2 x 2 generator in closed form,
e^{-i mbar t} (cos(s t) I - i sin(s t) / s N) with N = H - mbar I and
s^2 = -det N.

mpmath is needed here only; the tier-1 test reads the table.

Run:  python3 tests/make_effective_reference.py
"""

from pathlib import Path

import mpmath as mp
import numpy as np

OWNERS = {"braided": (0, 1, 0, 1), "separate": (0, 0, 1, 1), "nested": (0, 1, 1, 0)}
GAMMAS = (1, 1000)
CELLS = 250
THETAS = np.linspace(0.0, 2.0 * np.pi, 400)
TIMES = np.linspace(0.0, 4.0, 40)
TABLE = Path(__file__).with_name("data") / "effective_reference.csv"


def unit_coefficients(kind: str, theta: float):
    """(shift, decay) 2 x 2 mp matrices at unit point rates."""
    phases = [(2 * i + 1) * mp.mpf(theta) / 2 for i in range(4)]
    owners = OWNERS[kind]
    shift = mp.matrix(2, 2)
    v = [mp.mpf(0), mp.mpf(0)]
    for n, phi_n in enumerate(phases):
        v[owners[n]] += mp.cos(phi_n)
        for m, phi_m in enumerate(phases):
            # the separation's sign follows the point order, nearest the mirror first
            separation = phi_n - phi_m if n >= m else phi_m - phi_n
            shift[owners[n], owners[m]] += (mp.sin(separation) + mp.sin(phi_n + phi_m)) / 2
    decay = mp.matrix([[2 * v[j] * v[k] for k in range(2)] for j in range(2)])
    return shift, decay


def concurrence(kind: str, gamma: int, theta: float, t: float):
    shift, decay = unit_coefficients(kind, theta)
    h = (shift - 0.5j * decay) * gamma
    mbar = (h[0, 0] + h[1, 1]) / 2
    d, o = (h[0, 0] - h[1, 1]) / 2, h[0, 1]
    s = mp.sqrt(d * d + o * o)
    t = mp.mpf(t)
    sinc = mp.sin(s * t) / s if s != 0 else t
    phase = mp.exp(-1j * mbar * t)
    c_eg = phase * (mp.cos(s * t) - 1j * sinc * d)
    c_ge = phase * (-1j * sinc * o)
    return 2 * abs(c_eg * mp.conj(c_ge))


def main():
    mp.mp.dps = 50
    rng = np.random.default_rng(20261019)
    lines = ["config,gamma,theta_index,t_index,theta,t,concurrence"]
    for kind in OWNERS:
        for gamma in GAMMAS:
            cells = np.sort(rng.choice(len(THETAS) * len(TIMES), size=CELLS, replace=False))
            for i, j in zip(*np.divmod(cells, len(TIMES))):
                value = concurrence(kind, gamma, float(THETAS[i]), float(TIMES[j]))
                lines.append(f"{kind},{gamma},{i},{j},{float(THETAS[i])!r},{float(TIMES[j])!r},{mp.nstr(value, 40)}")
    TABLE.parent.mkdir(exist_ok=True)
    TABLE.write_text("\n".join(lines) + "\n")
    print(f"wrote {len(lines) - 1} cells to {TABLE}")


if __name__ == "__main__":
    main()
