"""Seeded inputs and the fixed job list of each workload.

``make_inputs(workload, seed)`` returns plain data (floats, ints, lists):
the same seed gives the same inputs.  The seed moves values only -- theta
windows, rates, initial amplitudes, random layouts -- never a row count,
grid size or step count, so counts such as ``dynamics.rk4_steps`` and
``cli.rows_written`` repeat exactly across seeds.  Jobs that integrate
the Lindblad equation at a program-chosen dt keep gamma and theta fixed,
because dt (and with it the step count) depends on them.

``build_jobs`` turns the inputs into operations.  CLI jobs call
``gawsim.cli.main(argv)``; library jobs call the exported functions for
paths the CLI does not expose.  Every call goes through the module
attribute (``gawsim.slh.build_network``, not an imported name), so the
tracer's wrappers see it.
"""

from __future__ import annotations

import contextlib
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import gawsim.cli
import gawsim.coefficients
import gawsim.dynamics
import gawsim.model
import gawsim.slh
import numpy as np

from . import checks

TWO_PI = 2.0 * math.pi
KINDS = ("braided", "separate", "nested")

# coeff-scan
COEFF_STEPS = 6000
DFI_GRID = 30_000
# coeff-scan, two-atom dynamics
SWEEP_THETA_STEPS = 150
SWEEP_T_STEPS = 150
SWEEP_T_MAX = 4.0
EVOLVE_POINTS = 20_000
EVOLVE_T_MAX = 4.0
# dense-layouts
LINDBLAD_EVOLVE_T_MAX = 1.0
LINDBLAD_SWEEP = {"theta_min": 0.4, "theta_max": 5.9, "theta_steps": 10, "t_max": 2.0, "t_steps": 50}
VERIFY_LAYOUT_ATOMS = 4
LINDBLAD_DT = 0.002
LINDBLAD_STEPS = {3: 300, 4: 200, 5: 30, 6: 30}
SLH_ATOMS = (2, 3, 4, 5, 6)
LARGE_M = 64
LARGE_M_LAYOUTS = 4
POINTS_PER_ATOM = 2

SAMPLES = 32
SWEEP_SAMPLE_COLUMNS = 4

WORKLOADS = ("coeff-scan", "dense-layouts")


def _amplitudes(rng, n: int) -> list[list[float]]:
    z = rng.normal(size=n) + 1j * rng.normal(size=n)
    z /= np.linalg.norm(z)
    return [[float(v.real), float(v.imag)] for v in z]


def _layout(rng, n_atoms: int) -> list[list[list[float]]]:
    """Atoms as [[phase, gamma], ...]: distinct phases, interleaved owners."""
    n = n_atoms * POINTS_PER_ATOM
    phases = float(rng.uniform(0.1, 0.5)) + np.cumsum(rng.uniform(0.2, 1.0, n))
    owner = rng.permutation(np.repeat(np.arange(n_atoms), POINTS_PER_ATOM))
    gammas = rng.uniform(0.3, 1.0, n)
    return [
        [[float(phases[i]), float(gammas[i])] for i in range(n) if owner[i] == j]
        for j in range(n_atoms)
    ]


def _sorted_sample(rng, high: int, size: int) -> list[int]:
    return sorted(int(i) for i in rng.choice(high, size=size, replace=False))


def make_inputs(workload: str, seed: int) -> dict:
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "coeff-scan":
        coeffs = [
            {"kind": k, "gamma": float(rng.uniform(0.5, 2.0)),
             "theta_min": float(rng.uniform(0.01, 1.0)),
             "rows": _sorted_sample(rng, COEFF_STEPS, SAMPLES)}
            for k in KINDS
        ]
        # window start between two multiples of pi/4 (where every DFI point
        # lies), so no point sits on a window edge
        dfi = [
            {"kind": k, "gamma": float(rng.uniform(0.5, 2.0)),
             "theta_min": math.pi / 4 * int(rng.integers(0, 8)) + float(rng.uniform(0.05, math.pi / 4 - 0.05))}
            for k in KINDS
        ]
        # the braided closed form puts theta = pi/2 on grid column k
        step = TWO_PI / (SWEEP_THETA_STEPS - 1)
        k = int(rng.integers(1, int(math.pi / 2 / step)))
        sweep = {"gamma": float(rng.uniform(0.5, 2.0)), "pi_half_column": k,
                 "theta_min": math.pi / 2 - k * step,
                 "columns": _sorted_sample(rng, SWEEP_THETA_STEPS, SWEEP_SAMPLE_COLUMNS)}
        evolve = {"kind": "nested", "gamma": float(rng.uniform(0.5, 2.0)),
                  "theta": float(rng.uniform(0.2, 3.0)), "c0": _amplitudes(rng, 2),
                  "rows": _sorted_sample(rng, EVOLVE_POINTS, SAMPLES)}
        analytic = {"gamma": float(rng.uniform(0.5, 2.0)), "theta": float(rng.uniform(0.2, 3.0)),
                    "rows": _sorted_sample(rng, EVOLVE_POINTS, SAMPLES)}
        return {"coeffs": coeffs, "dfi": dfi, "sweep": sweep, "evolve": evolve, "analytic": analytic}
    if workload == "dense-layouts":
        return {
            "lindblad_c0": _amplitudes(rng, 2),
            "verify": {"kind": KINDS[int(rng.integers(0, 3))], "theta": float(rng.uniform(0.2, 3.0)),
                       "layout": _layout(rng, VERIFY_LAYOUT_ATOMS)},
            "lindblad": [{"atoms": _layout(rng, m), "c0": _amplitudes(rng, m)} for m in LINDBLAD_STEPS],
            "slh": [_layout(rng, m) for m in SLH_ATOMS],
            "large": [_layout(rng, LARGE_M) for _ in range(LARGE_M_LAYOUTS)],
        }
    raise ValueError(f"unknown workload {workload!r}")


@dataclass
class Job:
    """One operation: ``run`` is timed, ``check`` raises CheckFailed on a bad result."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], None]
    out: Path | None = None


def _complex_arg(pair) -> str:
    return repr(complex(pair[0], pair[1]))


def _cli_job(name: str, argv: list[str], out: Path | None, check: Callable[[], None]) -> Job:
    if out is not None:
        argv = argv + ["--out", str(out)]

    def run():
        # verify-slh and dfi-scan print to stdout, which carries our result
        with contextlib.redirect_stdout(io.StringIO()):
            return gawsim.cli.main(argv)

    def check_exit(rc):
        checks.require(rc == 0, f"exit code {rc}")
        check()

    return Job(name, run, check_exit, out)


def _build_layout(atoms):
    model = gawsim.model
    return model.build_custom(
        model.GiantAtomSpec(j, tuple(model.ConnectionPoint(j, p, g) for p, g in pts))
        for j, pts in enumerate(atoms)
    )


def _single_excitation_density(c0) -> np.ndarray:
    m = len(c0)
    psi = np.zeros(2 ** m, dtype=complex)
    for j, (re, im) in enumerate(c0):
        psi[checks.single_excitation_index(j, m)] = complex(re, im)
    return np.outer(psi, psi.conj())


def _coeff_scan_jobs(inputs, work: Path) -> list[Job]:
    jobs = []
    for spec in inputs["coeffs"]:
        out = work / f"coeffs-{spec['kind']}.csv"
        hi = spec["theta_min"] + TWO_PI
        argv = ["coeffs", "--config", spec["kind"], "--gamma", repr(spec["gamma"]),
                "--theta-min", repr(spec["theta_min"]), "--theta-max", repr(hi),
                "--theta-steps", str(COEFF_STEPS)]
        jobs.append(_cli_job(f"coeffs {spec['kind']}", argv, out, lambda s=spec, o=out, hi=hi: checks.check_coeffs(
            o, s["kind"], s["gamma"], s["theta_min"], hi, COEFF_STEPS, s["rows"])))
    for spec in inputs["dfi"]:
        out = work / f"dfi-{spec['kind']}.json"
        argv = ["dfi-scan", "--config", spec["kind"], "--gamma", repr(spec["gamma"]),
                "--theta-min", repr(spec["theta_min"]), "--theta-max", repr(spec["theta_min"] + TWO_PI),
                "--grid", str(DFI_GRID)]
        jobs.append(_cli_job(f"dfi-scan {spec['kind']}", argv, out,
                             lambda s=spec, o=out: checks.check_dfi(o, s["kind"], s["theta_min"])))

    sw = inputs["sweep"]
    out = work / "sweep-braided-analytic.csv"
    hi = sw["theta_min"] + TWO_PI
    thetas = np.linspace(sw["theta_min"], hi, SWEEP_THETA_STEPS)
    times = np.linspace(0.0, SWEEP_T_MAX, SWEEP_T_STEPS)
    argv = ["sweep", "--config", "braided", "--method", "analytic", "--gamma", repr(sw["gamma"]),
            "--theta-min", repr(sw["theta_min"]), "--theta-max", repr(hi),
            "--theta-steps", str(SWEEP_THETA_STEPS), "--t-max", repr(SWEEP_T_MAX),
            "--t-steps", str(SWEEP_T_STEPS)]
    jobs.append(_cli_job("sweep braided analytic", argv, out, lambda o=out: checks.check_sweep(
        o, "braided", sw["gamma"], thetas, times, sw["columns"], sw["pi_half_column"])))

    ev = inputs["evolve"]
    ev_times = np.linspace(0.0, EVOLVE_T_MAX, EVOLVE_POINTS)
    out = work / "evolve-effective.csv"
    argv = ["evolve", "--config", ev["kind"], "--method", "effective", "--gamma", repr(ev["gamma"]),
            "--theta", repr(ev["theta"]), "--c-eg", _complex_arg(ev["c0"][0]),
            "--c-ge", _complex_arg(ev["c0"][1]), "--t-max", repr(EVOLVE_T_MAX),
            "--t-steps", str(EVOLVE_POINTS)]
    c0 = [complex(*p) for p in ev["c0"]]
    jobs.append(_cli_job("evolve effective", argv, out, lambda o=out: checks.check_evolve_effective(
        o, ev["kind"], ev["gamma"], ev["theta"], c0, ev_times, ev["rows"])))

    an = inputs["analytic"]
    out = work / "evolve-analytic.csv"
    argv = ["evolve", "--config", "braided", "--method", "analytic", "--gamma", repr(an["gamma"]),
            "--theta", repr(an["theta"]), "--t-max", repr(EVOLVE_T_MAX), "--t-steps", str(EVOLVE_POINTS)]
    jobs.append(_cli_job("evolve analytic", argv, out, lambda o=out: checks.check_evolve_analytic(
        o, an["gamma"], an["theta"], ev_times, an["rows"])))
    return jobs


def _lindblad_job(spec) -> Job:
    m = len(spec["atoms"])
    t_max = LINDBLAD_STEPS[m] * LINDBLAD_DT
    c0 = [complex(*p) for p in spec["c0"]]

    def run():
        layout = _build_layout(spec["atoms"])
        coeffs = gawsim.coefficients.general_coefficients(layout)
        return gawsim.dynamics.evolve_lindblad(
            _single_excitation_density(spec["c0"]), coeffs, t_max=t_max, dt=LINDBLAD_DT, store_every=10)

    return Job(f"evolve_lindblad M={m}", run,
               lambda record: checks.check_lindblad_populations(record, spec["atoms"], c0))


def _slh_job(atoms) -> Job:
    def run():
        layout = _build_layout(atoms)
        return gawsim.slh.extract_coefficients(gawsim.slh.build_network(layout), layout)

    return Job(f"build_network+extract M={len(atoms)}", run,
               lambda result: checks.check_coefficients(result, atoms, checks.SLH_TOL, "slh"))


def _large_job(atoms) -> Job:
    def run():
        return gawsim.coefficients.general_coefficients(_build_layout(atoms))

    return Job(f"general_coefficients M={len(atoms)}", run,
               lambda result: checks.check_coefficients(result, atoms, checks.COEFF_TOL, "general"))


def _dense_layouts_jobs(inputs, work: Path) -> list[Job]:
    jobs = []
    c0 = [complex(*p) for p in inputs["lindblad_c0"]]
    out = work / "evolve-lindblad.csv"
    argv = ["evolve", "--config", "braided", "--method", "lindblad", "--theta", "0",
            "--c-eg", _complex_arg(inputs["lindblad_c0"][0]), "--c-ge", _complex_arg(inputs["lindblad_c0"][1]),
            "--t-max", repr(LINDBLAD_EVOLVE_T_MAX)]
    jobs.append(_cli_job("evolve lindblad", argv, out,
                         lambda o=out: checks.check_evolve_lindblad(o, "braided", 1.0, 0.0, c0)))

    ls = LINDBLAD_SWEEP
    grid = ["--config", "nested", "--theta-min", repr(ls["theta_min"]), "--theta-max", repr(ls["theta_max"]),
            "--theta-steps", str(ls["theta_steps"]), "--t-max", repr(ls["t_max"]), "--t-steps", str(ls["t_steps"])]
    thetas = np.linspace(ls["theta_min"], ls["theta_max"], ls["theta_steps"])
    times = np.linspace(0.0, ls["t_max"], ls["t_steps"])
    effective = work / "sweep-effective.csv"
    jobs.append(_cli_job("sweep nested effective (lindblad grid)", ["sweep", "--method", "effective", *grid],
                         effective, lambda: checks.check_sweep(
                             effective, "nested", 1.0, thetas, times, range(ls["theta_steps"]))))
    lindblad = work / "sweep-lindblad.csv"
    jobs.append(_cli_job("sweep nested lindblad", ["sweep", "--method", "lindblad", *grid], lindblad,
                         lambda: checks.check_sweeps_agree(lindblad, effective)))

    verify = inputs["verify"]
    jobs.append(_cli_job("verify-slh config",
                         ["verify-slh", "--config", verify["kind"], "--theta", repr(verify["theta"])],
                         work / "verify-config.json", lambda: None))
    layout_path = work / "verify-layout.json"
    layout_path.write_text(gawsim.model.layout_to_json(_build_layout(verify["layout"])))
    jobs.append(_cli_job("verify-slh layout", ["verify-slh", "--layout", str(layout_path)],
                         work / "verify-layout-out.json", lambda: None))

    jobs.extend(_lindblad_job(spec) for spec in inputs["lindblad"])
    jobs.extend(_slh_job(atoms) for atoms in inputs["slh"])
    jobs.extend(_large_job(atoms) for atoms in inputs["large"])
    return jobs


_BUILDERS = {
    "coeff-scan": _coeff_scan_jobs,
    "dense-layouts": _dense_layouts_jobs,
}


def build_jobs(workload: str, inputs: dict, work: Path) -> list[Job]:
    """The workload's operations, in the fixed order they run in every pass."""
    return _BUILDERS[workload](inputs, work)
