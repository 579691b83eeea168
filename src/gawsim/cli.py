"""Command-line front end.

Subcommands
-----------
coeffs      coefficient tables over a phase-shift range (CSV)
evolve      single trajectory at fixed theta (CSV)
sweep       concurrence on a theta x time grid (CSV)
dfi-scan    locate decoherence-free-interaction points (JSON)
verify-slh  cross-check network-composed coefficients against the formulas

All angles are radians unless ``--theta-over-pi`` is given; rates and times
are in units of the reference rate gamma.  Exit codes: 0 success, 1 invalid
specification, 2 numerical failure (including a verify-slh mismatch).

Output files start with '#' comment lines recording the package version,
the resolved run specification, and the tolerances in force, so a table
can always be traced back to the exact invocation.  Identical
specifications produce byte-identical files.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import sys
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__, analytic, dfi, dynamics, slh
from .coefficients import ZERO_DECAY_TOL, canonical_coefficients, canonical_sums, general_coefficients
from .errors import NumericalFailure
from .model import (
    CanonicalConfig,
    Configuration,
    WaveguideLayout,
    build_canonical,
    layout_from_json,
)

TWO_PI = 2.0 * math.pi

#: Largest theta grid, time grid, DFI scan grid or sweep cell count
#: (theta x t) accepted; a larger one is rejected before it is built.
MAX_GRID_POINTS = 10_000_000

#: Rows of a CSV table (times of a sweep grid) per ``%`` and write.  Speed
#: is flat from 2**8 to 2**16 rows; above 2**9 the benchmark's peak RSS rises.
_CSV_BLOCK_ROWS = 1 << 9

#: Stored rows (theta x t) that ``sweep --method lindblad`` propagates
#: together, in whole theta columns (at least one).  A 400 x 400 sweep
#: peaks at 68.6 MB RSS with it, 66.0 MB with one theta at a time, 103 MB
#: at 2**16 rows and 131 MB with the grid in one block (2-vCPU VM).
_LINDBLAD_BLOCK_ROWS = 1 << 14


class SpecError(ValueError):
    """The run specification is inconsistent or incomplete."""


@dataclass
class RunSpec:
    """Resolved parameters of one CLI invocation."""

    command: str
    configuration: str | None = None
    layout_path: str | None = None
    gamma: float = 1.0
    theta: float | None = None
    theta_min: float | None = None
    theta_max: float | None = None
    theta_steps: int | None = None
    t_max: float | None = None
    dt: float | None = None
    t_steps: int | None = None
    method: str | None = None
    grid: int | None = None
    tol_decay: float | None = None
    tol_exchange: float | None = None
    tol: float | None = None
    c_eg: str | None = None
    c_ge: str | None = None
    out: str | None = None

    def meta_json(self) -> str:
        # the destination path is not part of the computation: identical
        # specifications must produce byte-identical files wherever written
        fields = {k: v for k, v in asdict(self).items() if v is not None and k != "out"}
        return json.dumps(fields, sort_keys=True)


def _header_lines(spec: RunSpec) -> list[str]:
    tolerances = {
        "coeff_zero_tol": ZERO_DECAY_TOL,
        "trace_tol": dynamics.TRACE_TOL,
        "herm_tol": dynamics.HERM_TOL,
        "eig_floor": dynamics.EIG_FLOOR,
        "slh_composition_tol": slh.COMPOSITION_TOL,
    }
    return [
        f"# gawsim {__version__}",
        f"# spec: {spec.meta_json()}",
        f"# tolerances: {json.dumps(tolerances, sort_keys=True)}",
    ]


def _write_csv(path: str, spec: RunSpec, columns: list[str], *cols, grid=None) -> None:
    """Write equal-length float columns, or a sweep ``grid``, as one CSV table.

    Byte contract: the ``#`` header lines, the comma-joined column names,
    then one line per row of comma-joined ``"%.17g" % value`` texts, the
    same text as ``format(value, ".17g")`` (``nan``, ``inf``, ``-0``
    included).  Columns take one ``%`` per ``_CSV_BLOCK_ROWS`` rows, on the
    row template repeated.  A ``grid`` (thetas, times, values[i] over times
    at thetas[i]) gives the rows ``theta,t,value`` theta-major: each t text
    is formatted once into a row tail ``",<t>,%.17g\\n"`` (the tails of a
    block of times are kept joined by NUL, about 30 bytes a time), each
    theta text p once, and one ``%`` on the block's tails joined by p fills
    that block of a theta's values.
    """
    with open(path, "w") as fh:
        fh.write("\n".join(_header_lines(spec) + [",".join(columns)]) + "\n")
        if grid is None:
            table = np.column_stack(cols)
            row = ",".join(["%.17g"] * table.shape[1]) + "\n"
            for start in range(0, len(table), _CSV_BLOCK_ROWS):
                block = table[start:start + _CSV_BLOCK_ROWS]
                fh.write((row * len(block)) % tuple(block.ravel().tolist()))
            return
        thetas, times, values = grid
        starts = range(0, len(times), _CSV_BLOCK_ROWS)
        tails = ["\0".join([",%.17g,%%.17g\n" % t for t in times[s:s + _CSV_BLOCK_ROWS].tolist()])
                 for s in starts]
        for theta, column in zip(thetas.tolist(), values):
            p = "%.17g" % theta
            for start, text in zip(starts, tails):
                rows = p + text.replace("\0", p)
                fh.write(rows % tuple(column[start:start + _CSV_BLOCK_ROWS].tolist()))


def _write_json(path: str, spec: RunSpec, payload: dict) -> None:
    tolerances = {
        "coeff_zero_tol": ZERO_DECAY_TOL,
        "tol_decay": spec.tol_decay,
        "tol_exchange": spec.tol_exchange,
    }
    doc = {"meta": {"gawsim": __version__, "spec": json.loads(spec.meta_json()),
                    "tolerances": tolerances}}
    doc.update(payload)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=False)
        fh.write("\n")


def _load_layout(spec: RunSpec) -> WaveguideLayout:
    if spec.layout_path is None:
        raise SpecError("this command requires --layout or --config")
    try:
        with open(spec.layout_path) as fh:
            return layout_from_json(fh.read())
    except OSError as exc:
        raise SpecError(f"cannot read layout file: {exc}") from exc


def _resolve_source(spec: RunSpec):
    """Return ('config', Configuration) or ('layout', WaveguideLayout)."""
    if spec.configuration is not None and spec.layout_path is not None:
        raise SpecError("give either --config or --layout, not both")
    if spec.configuration is not None:
        return "config", Configuration(spec.configuration)
    # the layout file fixes every phase; a theta flag would be recorded, not used
    for name in ("theta", "theta_min", "theta_max", "theta_steps"):
        if getattr(spec, name) is not None:
            raise SpecError(f"--{name.replace('_', '-')} does not apply with --layout, "
                            "whose file fixes the phases")
    return "layout", _load_layout(spec)


def _check_size(n: int, flags: str) -> None:
    if n > MAX_GRID_POINTS:
        raise SpecError(f"{flags} gives {n} grid points, above the limit of {MAX_GRID_POINTS}")


def _theta_grid(spec: RunSpec) -> np.ndarray:
    lo = 0.0 if spec.theta_min is None else spec.theta_min
    hi = TWO_PI if spec.theta_max is None else spec.theta_max
    steps = 400 if spec.theta_steps is None else spec.theta_steps
    if steps < 2:
        raise SpecError("theta range needs at least 2 steps")
    _check_size(steps, "--theta-steps")
    if hi <= lo:
        raise SpecError("theta-max must exceed theta-min")
    return np.linspace(lo, hi, steps)


def _horizon(spec: RunSpec) -> float:
    t_max = 4.0 if spec.t_max is None else spec.t_max
    if t_max <= 0:
        raise SpecError("t-max must be positive")
    return t_max


def _step_count(t_max: float, dt: float, given: bool) -> int:
    """Whole steps of ``dt`` up to ``t_max`` (evolve_lindblad's rule), at least one.

    Too few names --dt when it was ``given``, otherwise --t-max, since the
    step is then the recommended one.
    """
    if dt <= 0:
        raise SpecError("dt must be positive")
    n = int(math.floor(t_max / dt + 1e-9))
    if n < 1:
        if given:
            raise SpecError(f"--dt {dt} leaves fewer than 2 time points up to t-max {t_max}")
        raise SpecError(f"--t-max {t_max} leaves fewer than 2 time points at the recommended "
                        f"step dt = {dt:g}")
    return n


def _time_grid(spec: RunSpec) -> np.ndarray:
    t_max = _horizon(spec)
    if spec.dt is not None:
        n = _step_count(t_max, spec.dt, given=True)
        _check_size(n + 1, "--dt")
        return np.arange(n + 1) * spec.dt
    steps = 400 if spec.t_steps is None else spec.t_steps
    if steps < 2:
        raise SpecError("time grid needs at least 2 steps")
    _check_size(steps, "--t-steps")
    return np.linspace(0.0, t_max, steps)


def _initial_amplitudes(spec: RunSpec) -> dynamics.AmplitudeState:
    amplitudes = []
    for flag, text, default in (("--c-eg", spec.c_eg, 1.0 + 0.0j), ("--c-ge", spec.c_ge, 0.0j)):
        try:
            value = default if text is None else complex(text)
        except ValueError as exc:
            raise SpecError(f"cannot parse initial amplitude {flag}: {exc}") from exc
        if not cmath.isfinite(value):
            raise SpecError(f"{flag} must be finite, got {text}")
        amplitudes.append(value)
    return dynamics.AmplitudeState(*amplitudes)


_COEFF_NAMES = ["domega_a", "domega_b", "g_ab", "Gamma_a", "Gamma_b", "Gamma_coll"]


def _coeff_vector(coeffs) -> np.ndarray:
    """The two-atom coefficients in ``_COEFF_NAMES`` order."""
    return np.array([
        coeffs.lamb_shifts[0], coeffs.lamb_shifts[1], coeffs.exchange[0, 1],
        coeffs.individual_decay[0], coeffs.individual_decay[1], coeffs.collective_decay[0, 1],
    ])


def run_coeffs(spec: RunSpec) -> int:
    """Write the coefficient table (one row per theta, or one row per layout)."""
    kind, source = _resolve_source(spec)
    if spec.out is None:
        raise SpecError("coeffs requires --out")
    if kind == "config":
        thetas = _theta_grid(spec)
        shift, v = canonical_sums(source, spec.gamma, thetas)
        cols = (thetas, shift[:, 0, 0], shift[:, 1, 1], shift[:, 0, 1],
                2.0 * v[:, 0] ** 2, 2.0 * v[:, 1] ** 2, 2.0 * v[:, 0] * v[:, 1])
    else:
        if source.n_atoms != 2:
            raise SpecError("the coefficient table schema covers exactly two atoms")
        cols = (math.nan, *_coeff_vector(general_coefficients(source)))
    _write_csv(spec.out, spec, ["theta", *_COEFF_NAMES], *cols)
    return 0


def _coeffs_at(spec: RunSpec):
    kind, source = _resolve_source(spec)
    if kind == "config":
        if spec.theta is None:
            raise SpecError("this command requires --theta with --config")
        return canonical_coefficients(source, spec.gamma, spec.theta), source
    if source.n_atoms != 2:
        raise SpecError("trajectories are defined for two-atom systems")
    return general_coefficients(source), None


def _method(spec: RunSpec, config: Configuration | None) -> str:
    """The evolution method of ``spec``, checked against the configuration."""
    method = spec.method or "effective"
    if method not in ("effective", "analytic", "lindblad"):
        raise SpecError(f"unknown method {method!r}")
    if method == "analytic" and config != Configuration.BRAIDED:
        raise SpecError("--method analytic is only defined for --config braided")
    return method


def run_evolve(spec: RunSpec) -> int:
    """Write one trajectory: amplitudes, populations, or closed-form values."""
    if spec.out is None:
        raise SpecError("evolve requires --out")
    coeffs, kind = _coeffs_at(spec)
    method = _method(spec, kind)
    initial = _initial_amplitudes(spec)

    if method == "effective":
        record = dynamics.amplitude_trajectory(initial, coeffs, _time_grid(spec))
        c_eg, c_ge = record.states.T
        _write_csv(spec.out, spec, ["t", "re_ceg", "im_ceg", "re_cge", "im_cge", "concurrence"],
                   record.times, c_eg.real, c_eg.imag, c_ge.real, c_ge.imag, record.concurrence)
    elif method == "analytic":
        for flag, text in (("--c-eg", spec.c_eg), ("--c-ge", spec.c_ge)):
            if text is not None:
                raise SpecError(f"{flag} does not apply to evolve --method analytic, "
                                "whose closed form starts from |eg>")
        times = _time_grid(spec)
        values = analytic.closed_form_concurrence_braided(spec.theta, spec.gamma, times)
        _write_csv(spec.out, spec, ["t", "concurrence"], times, values)
    else:
        if spec.t_steps is not None:
            raise SpecError("--t-steps does not apply to evolve --method lindblad; "
                            "give --dt or leave both out for the recommended step")
        # a density matrix has unit trace; the amplitude paths accept any norm up to 1
        norm_err = abs(abs(initial.c_eg) ** 2 + abs(initial.c_ge) ** 2 - 1.0)
        if norm_err > dynamics.TRACE_TOL:
            raise SpecError(f"--c-eg and --c-ge must have |c_eg|^2 + |c_ge|^2 = 1 for --method "
                            f"lindblad, off by {norm_err:.3e}")
        t_max = _horizon(spec)
        dt = spec.dt if spec.dt is not None else dynamics.recommended_timestep(coeffs, spec.gamma)
        _step_count(t_max, dt, given=spec.dt is not None)
        rho0 = dynamics.density_from_amplitudes(initial)
        record = dynamics.evolve_lindblad(rho0, coeffs, t_max, dt)
        populations = np.diagonal(record.states, axis1=1, axis2=2).real
        _write_csv(spec.out, spec, ["t", "p_ee", "p_eg", "p_ge", "p_gg", "concurrence"],
                   record.times, *populations.T, record.concurrence)
    return 0


def _sweep_columns(config: Configuration, gamma: float, thetas: np.ndarray, times: np.ndarray,
                   method: str) -> list[np.ndarray]:
    """Concurrence over ``times`` at each theta, one array per theta."""
    if method == "analytic":
        return [analytic.closed_form_concurrence_braided(float(theta), gamma, times)
                for theta in thetas]
    initial = dynamics.AmplitudeState(1.0, 0.0)
    if method == "effective":
        return [dynamics.amplitude_trajectory(
                    initial, canonical_coefficients(config, gamma, float(theta)), times).concurrence
                for theta in thetas]
    rho0 = dynamics.density_from_amplitudes(initial)
    per_block = max(1, _LINDBLAD_BLOCK_ROWS // len(times))
    columns = []
    for start in range(0, len(thetas), per_block):
        coeff_sets = [canonical_coefficients(config, gamma, float(theta))
                      for theta in thetas[start:start + per_block]]
        # no name holds the records, so a block's states are freed before the next one
        columns.extend(record.concurrence for record in dynamics.evolve_lindblad_many(
            rho0, coeff_sets, t_max=float(times[-1]), dt=times[1] - times[0], store_every=1))
    return columns


def run_sweep(spec: RunSpec) -> int:
    """Write concurrence over a theta x time grid, one row per cell."""
    if spec.out is None:
        raise SpecError("sweep requires --out")
    kind, source = _resolve_source(spec)
    if kind != "config":
        raise SpecError("sweep ranges over theta and needs a canonical --config")
    method = _method(spec, source)
    thetas = _theta_grid(spec)
    times = _time_grid(spec)
    _check_size(len(thetas) * len(times), "--theta-steps x --t-steps (or --dt)")
    columns = _sweep_columns(source, spec.gamma, thetas, times, method)
    _write_csv(spec.out, spec, ["theta", "t", "concurrence"], grid=(thetas, times, columns))
    return 0


def run_dfi_scan(spec: RunSpec) -> int:
    """Scan a canonical configuration for DFI points and write a JSON report."""
    kind, source = _resolve_source(spec)
    if kind != "config":
        raise SpecError("dfi-scan supports the canonical configurations only")
    grid = 10_000 if spec.grid is None else spec.grid
    _check_size(grid, "--grid")
    report = dfi.scan_dfi(
        source,
        gamma=spec.gamma,
        theta_min=0.0 if spec.theta_min is None else spec.theta_min,
        theta_max=TWO_PI if spec.theta_max is None else spec.theta_max,
        grid=grid,
        tol_decay=spec.tol_decay,
        tol_exchange=spec.tol_exchange,
    )
    payload = {
        "config": source.value,
        "points": [
            {"theta": t, "residual": r, "g": g}
            for t, r, g in zip(report.theta_points, report.residual_decay, report.exchange_at_point)
        ],
    }
    if spec.out is None:
        json.dump(payload, sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        _write_json(spec.out, spec, payload)
    return 0


def run_verify_slh(spec: RunSpec) -> int:
    """Compare network-composed coefficients against the direct formulas."""
    kind, source = _resolve_source(spec)
    if kind == "config":
        if spec.theta is None:
            raise SpecError("verify-slh requires --theta with --config")
        layout = build_canonical(CanonicalConfig(source, spec.gamma, spec.theta))
        reference = {
            "closed_form": canonical_coefficients(source, spec.gamma, spec.theta),
            "general": general_coefficients(layout),
        }
    else:
        layout = source
        reference = {"general": general_coefficients(layout)}
    extracted = slh.extract_coefficients(slh.build_network(layout), layout)

    tol = 1e-10 if spec.tol is None else spec.tol
    max_diff = 0.0
    for ref in reference.values():
        for attr in ("lamb_shifts", "exchange", "individual_decay", "collective_decay"):
            max_diff = max(max_diff, float(np.abs(getattr(ref, attr) - getattr(extracted, attr)).max()))
    if layout.n_atoms == 2:
        for label, c in [*((f"{name}: ", ref) for name, ref in reference.items()),
                         ("slh:         ", extracted)]:
            print(label + "  ".join(f"{n}={v:.17g}" for n, v in zip(_COEFF_NAMES, _coeff_vector(c))))
    print(f"max_abs_diff={max_diff:.17g} tol={tol:.17g}")
    if spec.out is not None:
        _write_json(spec.out, spec, {"max_abs_diff": max_diff, "tol": tol,
                                     "within_tol": bool(max_diff <= tol)})
    return 0 if max_diff <= tol else 2


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; the exit-code contract reserves
    # 2 for numerical failures, so route usage errors through SpecError
    def error(self, message):
        raise SpecError(message)


def _add_common(p: argparse.ArgumentParser, theta_single=False, theta_range=False,
                times=False, method=False) -> None:
    p.add_argument("--config", choices=[c.value for c in Configuration],
                   help="canonical two-atom configuration")
    p.add_argument("--layout", dest="layout_path", metavar="JSON",
                   help="path to a custom layout file")
    p.add_argument("--gamma", type=float, default=1.0, help="reference decay rate (default 1)")
    p.add_argument("--theta-over-pi", action="store_true",
                   help="interpret all theta values as multiples of pi")
    if theta_single:
        p.add_argument("--theta", type=float, help="phase shift between adjacent points")
    if theta_range:
        p.add_argument("--theta-min", type=float, help="range start (default 0)")
        p.add_argument("--theta-max", type=float, help="range end (default 2*pi)")
        p.add_argument("--theta-steps", type=int, help="grid points (default 400)")
    if times:
        p.add_argument("--t-max", type=float, help="time horizon in 1/gamma (default 4)")
        p.add_argument("--dt", type=float, help="time step (default: method-dependent)")
        p.add_argument("--t-steps", type=int,
                       help="time grid points when --dt absent (default 400; not for evolve lindblad)")
    if method:
        p.add_argument("--method", choices=["lindblad", "effective", "analytic"],
                       default="effective", help="evolution method (default effective)")
    p.add_argument("--out", help="output file path")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gawsim", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"gawsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coeffs", help="coefficient table over theta (CSV)")
    _add_common(p, theta_range=True)

    p = sub.add_parser("evolve", help="single trajectory at fixed theta (CSV)")
    _add_common(p, theta_single=True, times=True, method=True)
    p.add_argument("--c-eg", help="initial c_eg amplitude (complex, default 1)")
    p.add_argument("--c-ge", help="initial c_ge amplitude (complex, default 0)")

    p = sub.add_parser("sweep", help="concurrence over a theta x time grid (CSV)")
    _add_common(p, theta_range=True, times=True, method=True)

    p = sub.add_parser("dfi-scan", help="locate DFI phase shifts (JSON)")
    _add_common(p, theta_range=True)
    p.add_argument("--grid", type=int, help="scan grid points (default 10000)")
    p.add_argument("--tol-decay", type=float, help="decay tolerance (default 1e-9 * gamma)")
    p.add_argument("--tol-exchange", type=float, help="exchange tolerance (default 1e-3 * gamma)")

    p = sub.add_parser("verify-slh", help="cross-check the network composition")
    _add_common(p, theta_single=True)
    p.add_argument("--tol", type=float, help="max allowed coefficient difference (default 1e-10)")

    return parser


_FINITE_FLAGS = ("gamma", "theta", "theta_min", "theta_max", "t_max", "dt",
                 "tol_decay", "tol_exchange", "tol")


def _spec_from_args(args: argparse.Namespace) -> RunSpec:
    scale = math.pi if getattr(args, "theta_over_pi", False) else 1.0
    spec = RunSpec(command=args.command, configuration=getattr(args, "config", None),
                   layout_path=getattr(args, "layout_path", None), gamma=args.gamma)
    for name in ("theta", "theta_min", "theta_max"):
        value = getattr(args, name, None)
        if value is not None:
            setattr(spec, name, value * scale)
    for name in ("theta_steps", "t_max", "dt", "t_steps", "method", "grid",
                 "tol_decay", "tol_exchange", "tol", "c_eg", "c_ge", "out"):
        value = getattr(args, name, None)
        if value is not None:
            setattr(spec, name, value)
    # checked after --theta-over-pi scaling, which can overflow a finite value
    for name in _FINITE_FLAGS:
        value = getattr(spec, name)
        if value is not None and not math.isfinite(value):
            raise SpecError(f"--{name.replace('_', '-')} must be finite, got {value}")
    if spec.gamma <= 0:
        raise SpecError("gamma must be > 0")
    return spec


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        spec = _spec_from_args(args)
        run = {"coeffs": run_coeffs, "evolve": run_evolve, "sweep": run_sweep,
               "dfi-scan": run_dfi_scan, "verify-slh": run_verify_slh}.get(spec.command)
        if run is None:
            raise SpecError(f"unknown command {spec.command!r}")
        return run(spec)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
