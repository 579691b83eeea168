"""CLI sweeps against a 40-digit reference table (tests/data/effective_reference.csv).

``make_effective_reference.py`` writes the table with mpmath; this test only
reads it.  Each bound is about twice the largest error over the three
configurations that an earlier version gave on the table, rounded up,
measured on a 2-vCPU x86-64 VM with numpy 2.4.6: the parent commit of the
unit-rate change (a6530c3) for the effective sweep, the parent of the
coefficient-stack change (994dfd6) for the Lindblad one, and the closed
form with one radical and Horner polynomials (its first version with them)
for the analytic one.  A Lindblad run from |eg> never leaves the
one-excitation sector, where dropping the jump terms is exact, so the
table's effective concurrence is exact for it too.  At gamma = 1000 the
time reaches gamma t = 4000, where the problem's conditioning, not a path,
sets errors of about 1e-12.
"""

import csv
from pathlib import Path

import numpy as np
import pytest

from gawsim.cli import main

TABLE = Path(__file__).with_name("data") / "effective_reference.csv"
THETA_STEPS, T_STEPS = 400, 40

#: (method, gamma): bound; the measured largest error in the comment
BOUNDS = {
    ("effective", "1"): 7e-15,  # 3.386e-15 (nested)
    ("effective", "1000"): 2.2e-12,  # 1.056e-12 (nested)
    ("analytic", "1"): 1e-14,  # 4.607e-15
    ("analytic", "1000"): 4e-12,  # 1.947e-12
    ("lindblad", "1"): 6e-14,  # 2.597e-14 (braided)
    ("lindblad", "1000"): 3e-11,  # 1.355e-11 (braided)
}


def _reference(kind, gamma):
    with TABLE.open() as fh:
        rows = [row for row in csv.DictReader(fh) if row["config"] == kind and row["gamma"] == gamma]
    assert len(rows) == 250
    cells = np.array([(int(r["theta_index"]), int(r["t_index"])) for r in rows]).T
    return cells, np.array([[float(r[name]) for name in ("theta", "t", "concurrence")] for r in rows])


@pytest.mark.parametrize("gamma", ["1", "1000"])
@pytest.mark.parametrize("kind,method", [("braided", "effective"), ("separate", "effective"),
                                         ("nested", "effective"), ("braided", "analytic"),
                                         ("braided", "lindblad"), ("separate", "lindblad"),
                                         ("nested", "lindblad")])
def test_sweep_within_bound_of_reference(tmp_path, kind, method, gamma):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", kind, "--method", method, "--gamma", gamma,
                 "--theta-steps", str(THETA_STEPS), "--t-steps", str(T_STEPS), "--out", str(out)]) == 0
    body = [line.split(",") for line in out.read_text().splitlines() if line[0] != "#"][1:]
    grid = np.array(body, dtype=float).reshape(THETA_STEPS, T_STEPS, 3)
    (i, j), reference = _reference(kind, gamma)
    # the table's cells are the grid's doubles
    assert np.array_equal(grid[i, j, :2], reference[:, :2])
    error = float(np.abs(grid[i, j, 2] - reference[:, 2]).max())
    assert error <= BOUNDS[method, gamma], f"{kind} {method} gamma {gamma}: {error:.3e}"
