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
from functools import cache

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

#: Largest --gamma accepted: coefficients are gamma times unit-rate sums of at
#: most 8 in magnitude, so they stay finite, with a factor of 2 to spare.
MAX_GAMMA = np.finfo(float).max / 16
#: Largest gamma * t-max of evolve and sweep, which run unit rates of at most 8
#: (superoperator 1-norms below 64) on gamma * t: every product stays finite.
MAX_GAMMA_T = np.finfo(float).max / 256

#: Values per call of the CSV formatting kernel ``_format_cells``.  A call
#: costs about 150 us plus 230 ns a value and holds about 150 bytes a value
#: at its peak: 2**12 is the fastest block (2**11 and 2**13 take 15-30 %
#: longer a value), and it adds 0.5 MB over 2**10 to the peak RSS of the
#: README 400 x 400 sweep (2-vCPU VM).
_CSV_BLOCK_CELLS = 1 << 12

#: Grid cells (theta x t) a sweep computes together: ``--method lindblad``
#: propagates whole theta columns of at most this many cells (at least one
#: column); ``--method analytic`` and ``effective`` evaluate blocks of at
#: most this many cells, whole theta columns or one column's times split
#: (``_sweep_blocks``).  A 400 x 400 Lindblad sweep peaks at 68.6 MB RSS
#: with it, 66.0 MB with one theta at a time, 103 MB at 2**16 cells and
#: 131 MB with the grid in one block (2-vCPU VM).
_SWEEP_BLOCK_ROWS = 1 << 14


class SpecError(ValueError):
    """The run specification is inconsistent or incomplete."""


_ALL = ("coeffs", "evolve", "sweep", "dfi-scan", "verify-slh")
_RANGE = ("coeffs", "sweep", "dfi-scan")
_TIMES = ("evolve", "sweep")

#: Every CLI flag once: option, dest, the subcommands that read it (and so
#: accept it) and its other argparse keywords.  The dest is the ``RunSpec``
#: attribute and ``# spec:`` key of the flag, except theta_over_pi, which
#: scales the theta flags and is not recorded.  Every ``type=float`` flag
#: must be finite.
_FLAGS = (
    ("--config", "configuration", _ALL,
     dict(choices=[c.value for c in Configuration], help="canonical two-atom configuration")),
    ("--layout", "layout_path", _ALL, dict(metavar="JSON", help="path to a custom layout file")),
    ("--gamma", "gamma", _ALL,
     dict(type=float, help="reference decay rate (default 1)")),
    ("--theta-over-pi", "theta_over_pi", _ALL,
     dict(action="store_true", help="interpret all theta values as multiples of pi")),
    ("--theta", "theta", ("evolve", "verify-slh"),
     dict(type=float, help="phase shift between adjacent points")),
    ("--theta-min", "theta_min", _RANGE, dict(type=float, help="range start (default 0)")),
    ("--theta-max", "theta_max", _RANGE, dict(type=float, help="range end (default 2*pi)")),
    ("--theta-steps", "theta_steps", ("coeffs", "sweep"),
     dict(type=int, help="grid points (default 400)")),
    ("--t-max", "t_max", _TIMES, dict(type=float, help="time horizon in 1/gamma (default 4)")),
    ("--dt", "dt", _TIMES, dict(type=float, help="time step (default: method-dependent)")),
    ("--t-steps", "t_steps", _TIMES,
     dict(type=int, help="time grid points (default 400; not with --dt or for evolve lindblad)")),
    ("--method", "method", _TIMES,
     dict(choices=["lindblad", "effective", "analytic"], default="effective",
          help="evolution method (default effective)")),
    ("--c-eg", "c_eg", ("evolve",), dict(help="initial c_eg amplitude (complex, default 1)")),
    ("--c-ge", "c_ge", ("evolve",), dict(help="initial c_ge amplitude (complex, default 0)")),
    ("--grid", "grid", ("dfi-scan",), dict(type=int, help="scan grid points (default 10000)")),
    ("--tol-decay", "tol_decay", ("dfi-scan",),
     dict(type=float, help="decay tolerance (default 1e-9 * gamma)")),
    ("--tol-exchange", "tol_exchange", ("dfi-scan",),
     dict(type=float, help="exchange tolerance (default 1e-3 * gamma)")),
    ("--tol", "tol", ("verify-slh",),
     dict(type=float, help="max coefficient difference over the largest point rate (default 1e-10)")),
    ("--out", "out", _ALL, dict(help="output file path")),
)
_SPEC_FIELDS = frozenset(dest for _, dest, _, _ in _FLAGS) - {"theta_over_pi"}
_FLOAT_FLAGS = [(option, dest) for option, dest, _, keywords in _FLAGS
                if keywords.get("type") is float]


class RunSpec(argparse.Namespace):
    """Resolved parameters of one CLI invocation: ``command`` plus one
    attribute per dest of ``_FLAGS`` (theta_over_pi aside).  Built by
    keyword, like ``RunSpec(command="coeffs", configuration="braided")``;
    a dest left out is None, except ``gamma``, which is 1.0."""

    def __init__(self, command: str, **fields):
        unknown = fields.keys() - _SPEC_FIELDS
        if unknown:
            raise TypeError(f"unknown RunSpec fields: {', '.join(sorted(unknown))}")
        super().__init__(command=command, **{**dict.fromkeys(_SPEC_FIELDS), "gamma": 1.0, **fields})

    def meta_json(self) -> str:
        # the destination path is not part of the computation: identical
        # specifications must produce byte-identical files wherever written
        fields = {k: v for k, v in vars(self).items() if v is not None and k != "out"}
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


# The formatting kernel lays each value's text out in fixed slots and keeps
# a subset of them: sign, "0.000" (fixed point below 1), 17 integer digits,
# point, the 17 digits again as fraction digits, "e+ddd", separator.  It
# keeps to float64, int64 and bool arithmetic, table lookups and one mask:
# each further dtype loop numpy runs maps more of its code into memory.
_SIGN, _LEAD, _INT, _POINT, _FRAC, _EXP, _SEP = 0, 1, 6, 23, 24, 41, 46
_SLOTS = np.frombuffer(b"-0.000" + b"0" * 17 + b"." + b"0" * 17 + b"e+000,", np.uint8)
_DIGITS = np.frombuffer(b"0123456789", np.uint8)
# Which slots a value keeps depends on its sign, its last nonzero digit and
# its kind: 0..20 fixed point with decimal exponent k = kind - 4, 21 and 22
# an exponent of two and of three digits, 23 a value left to "%.17g".
_KINDS = 24
_MIN_NORMAL = 2.2250738585072014e-308
_Q_MIN, _Q_MAX = -308, 324  # the powers 10^q the kernel uses


@cache
def _power_tables():
    """hi, lo, s with 10^q = (hi + lo) 2^s for q in [_Q_MIN, _Q_MAX] (index
    q - _Q_MIN): hi in [1, 2) is the first 53 bits, 0 <= lo < 2^-52 the rest;
    hh, hl: Dekker's split of hi; two1 * two2 = 2^s, each factor a double;
    ceil: the least double >= 10^q (inf above 10^308).  Built from exact
    integers on first use (about 2 ms)."""
    rows = []
    for q in range(_Q_MIN, _Q_MAX + 1):
        num, den = (10 ** q, 1) if q >= 0 else (1, 10 ** -q)
        shift = 121 - num.bit_length() + den.bit_length()
        r = (num << shift) // den if shift >= 0 else (num >> -shift)
        b = r.bit_length()
        top = r >> (b - 53)
        hi, lo, s = top / 2.0 ** 52, math.ldexp(r - (top << (b - 53)), 1 - b), b - 1 - shift
        ceil = math.ldexp(hi + 2.0 ** -52 * (lo > 0), s) if q <= 308 else math.inf
        rows.append((hi, lo, 2.0 ** (s // 2), 2.0 ** (s - s // 2), ceil))
    hi, lo, two1, two2, ceil = np.array(rows).T.copy()
    split = hi * 134217729.0
    hh = split - (split - hi)
    return hi, lo, hh, hi - hh, two1, two2, ceil


@cache
def _text_tables():
    """digits4[i]: the four digit characters of i < 10^4; tz4[i]: their
    trailing zeros; exp4[k + 400]: "+ddd" or "-ddd"; keep[(neg * _KINDS +
    kind) * 17 + last]: the slots of a value of that sign and kind whose
    last nonzero digit is digit ``last``.  Built on first use (about 2 ms)."""
    # broadcast copies of ``_DIGITS``: int64 arithmetic on 10^4 x 4 arrays lets
    # numpy elide temporaries of 256 KB and more, which walks the C stack and
    # faults in about 0.7 MB of unwind tables
    digits4 = np.empty((10, 10, 10, 10, 4), np.uint8)
    for place in range(4):
        digits4[..., place] = _DIGITS.reshape((10,) + (1,) * (3 - place))
    digits4 = digits4.reshape(10000, 4)
    tz4 = np.zeros(10000, np.int64)
    for step in (10, 100, 1000, 10000):
        tz4[::step] += 1
    exp4 = np.frombuffer(b"".join(b"%+04d" % k for k in range(-400, 400)), np.uint8).reshape(-1, 4)
    kind = np.arange(_KINDS)[:, None, None]
    last = np.arange(17)[None, :, None]
    j = np.arange(_SLOTS.size)
    fallback, sci = kind == 23, (kind == 21) | (kind == 22)
    nint = np.where(kind < 4, 0, np.where(kind < 21, kind - 3, 1))  # integer digits
    keep = np.zeros((_KINDS, 17, j.size), bool)
    keep |= (j == _SEP) | ((_INT <= j) & (j < _INT + np.where(fallback, 5, nint)))
    keep |= ~fallback & (_FRAC + nint <= j) & (j <= _FRAC + last)
    keep |= (kind >= 4) & ~fallback & (last >= nint) & (j == _POINT)
    keep |= (kind < 4) & (_LEAD <= j) & (j < _LEAD + 5 - kind)
    keep |= sci & (_EXP <= j) & (j < _SEP) & ((kind == 22) | (j != _EXP + 2))
    keep = np.stack([keep, keep | ~fallback & (j == _SIGN)]).reshape(-1, j.size)
    return digits4, tz4, exp4, keep


def _decimal_digits(x: np.ndarray):
    """(N, k, fallback): |x| rounded half to even to 17 significant digits
    is N 10^(k - 16), N in [10^16, 10^17) (N = 0 and k = 0 at zero).

    N = round(|x| 10^q), q = 16 - k, is computed exactly in binary64: k is
    floor(e log10 2) from the binary exponent e, moved up by one where |x|
    reaches the least double >= 10^(k+1); the product is Dekker's
    error-free |x| 2^s hi plus |x| 2^s lo; and N carrying to 10^17 moves k
    up by one.  ``fallback`` marks nan, infinities, subnormals, and values
    whose product's fraction lies within 1e-12 of 1/2 where lo is not 0,
    so the rounding is not certain (exact ties exist, such as 3 2^-24).
    """
    hi, lo, hh, hl, two1, two2, ceil = _power_tables()
    with np.errstate(all="raise"):
        ax = np.abs(x)
        fallback = ~np.isfinite(ax)
        ax[fallback] = 1.0
        zero = ax == 0
        fallback |= (ax < _MIN_NORMAL) & ~zero
        ax[fallback | zero] = 1.0
        # floor(e log10 2) as in Ryu, exact for every binary exponent e of a double
        k = (ax.view(np.int64) // 2 ** 52 - 1023) * 78913 // 2 ** 18
        k = np.where(ax >= ceil.take(k + 1 - _Q_MIN), k + 1, k)
        row = 16 - k - _Q_MIN  # the table row of 10^q
        a = ax * two1.take(row) * two2.take(row)  # exact: powers of two, no overflow
        hh, hl, lo = hh.take(row), hl.take(row), lo.take(row)
        p = a * hi.take(row)
        ah = a * 134217729.0  # Dekker's split: a = ah + al, 26 bits each
        ah -= ah - a
        al = a - ah
        r = ((ah * hh - p) + ah * hl + al * hh) + al * hl + a * lo
        # |r| < 2^51: adding and taking away 1.5 * 2^52 rounds half to even
        rounded = r + 6755399441055744.0
        rounded -= 6755399441055744.0
        fallback |= (lo != 0) & (np.abs(np.abs(r - rounded) - 0.5) < 1e-12)
        # p >= 2^53 is an even integer, so N = p + rounded is rounded half to even
        N = p.astype(np.int64) + rounded.astype(np.int64)
    carry = N == 10 ** 17
    N[carry] = 10 ** 16
    k[carry] += 1
    N[zero] = 0
    k[zero | fallback] = 0
    return N, k, fallback


def _put_digits(text: np.ndarray, N: np.ndarray) -> np.ndarray:
    """Write the 17 digits of each N into both digit zones of ``text``;
    return the number of trailing zeros of each N (16 at N = 0)."""
    digits4, tz4 = _text_tables()[:2]
    chunks = np.empty((len(N), 4), np.int64)  # four-digit chunks below the leading digit d0
    high = N // 10 ** 8
    low = N - high * 10 ** 8
    chunks[:, 0] = high // 10000
    chunks[:, 1] = high - chunks[:, 0] * 10000
    chunks[:, 2] = low // 10000
    chunks[:, 3] = low - chunks[:, 2] * 10000
    d0 = chunks[:, 0] // 10000
    chunks[:, 0] -= d0 * 10000
    text[:, _INT] = text[:, _FRAC] = _DIGITS.take(d0)
    digits = digits4.take(chunks, axis=0).reshape(-1, 16)
    text[:, _INT + 1:_INT + 17] = text[:, _FRAC + 1:_FRAC + 17] = digits
    zeros = tz4.take(chunks[:, 3])
    for i in (2, 1, 0):
        zeros = np.where(zeros == 4 * (3 - i), zeros + tz4.take(chunks[:, i]), zeros)
    return zeros


def _format_cells(block: np.ndarray) -> np.ndarray:
    """The text ``format(v, ".17g")`` of each value of a 2-D float block,
    comma-joined within a row, each row ended by a newline, as uint8.

    Each value's text is laid out in the slots of ``_SLOTS``, digits from
    ``_decimal_digits``, and one boolean mask keeps the slots of its class;
    the values ``_decimal_digits`` leaves to fall back take one ``%`` per
    block.
    """
    exp4, keep = _text_tables()[2:]
    x = np.ascontiguousarray(block, dtype=np.float64).ravel()
    N, k, fallback = _decimal_digits(x)
    text = np.empty((len(x), _SLOTS.size), np.uint8)
    text[:] = _SLOTS
    last = 16 - _put_digits(text, N)  # the last nonzero digit
    text[block.shape[1] - 1::block.shape[1], _SEP] = ord("\n")
    kind = k + 4
    sci = (kind < 0) | (kind > 20)
    if sci.any():
        exponent = k[sci]
        kind[sci] = np.where((exponent >= 100) | (exponent <= -100), 22, 21)
        text[sci, _EXP + 1:_SEP] = exp4.take(exponent + 400, axis=0)
    kind[fallback] = 23
    kind += np.where(x.view(np.int64) < 0, _KINDS, 0)  # the sign bit, -0.0 included
    mask = keep.take(kind * 17 + last, axis=0)
    if not fallback.any():
        return text[mask]
    text[fallback, _INT:_INT + 5] = np.frombuffer(b"%.17g", np.uint8)
    return np.frombuffer(text[mask].tobytes() % tuple(x[fallback].tolist()), np.uint8)


def _cell_texts(values: np.ndarray) -> list[bytes]:
    """``format(v, ".17g")`` of each value, as bytes."""
    return _format_cells(values.reshape(-1, 1)).tobytes().split(b"\n")[:-1]


def _write_csv(path: str, spec: RunSpec, columns: list[str], *cols, grid=None) -> None:
    """Write equal-length float columns, or a sweep ``grid``, as one CSV table.

    Byte contract: the ``#`` header lines, the comma-joined column names,
    then one line per row of comma-joined ``format(value, ".17g")`` texts
    (``nan``, ``inf``, ``-0`` included).  The texts come from
    ``_format_cells``, ``_CSV_BLOCK_CELLS`` values a call: numpy computes
    each value's 17 correctly rounded digits exactly and lays out its text.
    Only nan, infinities, subnormals and values whose scaled fraction lies
    within 1e-12 of a rounding tie that the exact product cannot settle
    are left to ``"%.17g" %``, one ``%`` a block.  A ``grid`` (thetas,
    times, values[i] over times at thetas[i]) gives the rows
    ``theta,t,value`` theta-major: each t text is formatted once into a
    row tail ``",<t>,%s\n"`` (the tails of a block of times are kept
    joined by NUL, about 30 bytes a time), each theta text p once, and one
    ``%`` on the tails joined by p fills a theta's value texts into its
    rows; one kernel call formats the values of a block of theta columns.
    """
    with open(path, "wb") as fh:
        fh.write(("\n".join(_header_lines(spec) + [",".join(columns)]) + "\n").encode())
        if grid is None:
            table = np.column_stack(cols)
            rows = max(1, _CSV_BLOCK_CELLS // table.shape[1])
            for start in range(0, len(table), rows):
                fh.write(_format_cells(table[start:start + rows]))
            return
        thetas, times, values = grid
        step = min(len(times), _CSV_BLOCK_CELLS)
        starts = range(0, len(times), step)
        tails = [b"\0".join([b",%s,%%s\n" % t for t in _cell_texts(times[s:s + step])])
                 for s in starts]
        per_block = max(1, _CSV_BLOCK_CELLS // step)  # theta columns per kernel call
        for first in range(0, len(thetas), per_block):
            heads = _cell_texts(thetas[first:first + per_block])
            for start, tail in zip(starts, tails):
                texts = _cell_texts(np.concatenate(
                    [column[start:start + step] for column in values[first:first + per_block]]))
                size = len(texts) // len(heads)
                for i, p in enumerate(heads):
                    fh.write((p + tail.replace(b"\0", p)) % tuple(texts[i * size:(i + 1) * size]))


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


def _check_positive(flag: str, value: float | None) -> None:
    if value is not None and not value > 0:
        raise SpecError(f"{flag} must be positive, got {value}")


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
    if spec.gamma * t_max > MAX_GAMMA_T:
        raise SpecError(f"--gamma x --t-max must be at most {MAX_GAMMA_T:.4g}, got {spec.gamma * t_max:g}")
    return t_max


def _step_count(t_max: float, dt: float, given: bool) -> int:
    """Whole steps of ``dt`` up to ``t_max`` (evolve_lindblad's rule), at least
    one and fewer than ``MAX_GRID_POINTS``.

    Too few or too many name --dt when it was ``given``, otherwise --t-max,
    and too many also --gamma, which scales the recommended step.
    """
    if dt <= 0:
        raise SpecError("dt must be positive")
    steps = t_max / dt + 1e-9
    if steps < 1:
        if given:
            raise SpecError(f"--dt {dt} leaves fewer than 2 time points up to t-max {t_max}")
        raise SpecError(f"--t-max {t_max} leaves fewer than 2 time points at the recommended "
                        f"step dt = {dt:g}")
    # compared before int(): t_max / dt overflows to inf for extreme flags
    if steps >= MAX_GRID_POINTS:
        raise SpecError(f"{'--dt gives' if given else '--gamma and --t-max give'} {steps + 1:.4g} "
                        f"time points (t-max {t_max:g}, dt {dt:g}), above the limit of {MAX_GRID_POINTS}")
    return int(steps)


def _time_grid(spec: RunSpec) -> np.ndarray:
    t_max = _horizon(spec)
    if spec.dt is not None:
        if spec.t_steps is not None:
            raise SpecError("--t-steps does not apply with --dt, which sets the time grid; give one of them")
        return np.arange(_step_count(t_max, spec.dt, given=True) + 1) * spec.dt
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
        return canonical_coefficients(source, 1.0, spec.theta), source
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
        times = _time_grid(spec)
        record = dynamics.amplitude_trajectory(initial, coeffs, spec.gamma * times)
        c_eg, c_ge = record.states.T
        _write_csv(spec.out, spec, ["t", "re_ceg", "im_ceg", "re_cge", "im_cge", "concurrence"],
                   times, c_eg.real, c_eg.imag, c_ge.real, c_ge.imag, record.concurrence)
    elif method == "analytic":
        for flag, text in (("--c-eg", spec.c_eg), ("--c-ge", spec.c_ge)):
            if text is not None:
                raise SpecError(f"{flag} does not apply to evolve --method analytic, "
                                "whose closed form starts from |eg>")
        times = _time_grid(spec)
        values = analytic.closed_form_concurrence_braided(spec.theta, 1.0, spec.gamma * times)
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
        step = spec.gamma * spec.dt if spec.dt is not None else dynamics.recommended_timestep(coeffs)
        _step_count(t_max, step / spec.gamma, given=spec.dt is not None)
        rho0 = dynamics.density_from_amplitudes(initial)
        record = dynamics.evolve_lindblad(rho0, coeffs, spec.gamma * t_max, step)
        populations = np.diagonal(record.states, axis1=1, axis2=2).real
        _write_csv(spec.out, spec, ["t", "p_ee", "p_eg", "p_ge", "p_gg", "concurrence"],
                   record.times / spec.gamma, *populations.T, record.concurrence)
    return 0


def _sweep_blocks(n_thetas: int, n_times: int):
    """(theta slice, time slice) blocks that cover a theta x time grid
    theta-major, each of at most ``_SWEEP_BLOCK_ROWS`` cells: whole theta
    columns together, or one column split over t where it is longer."""
    step = min(n_times, _SWEEP_BLOCK_ROWS)
    per_block = _SWEEP_BLOCK_ROWS // step
    for first in range(0, n_thetas, per_block):
        for start in range(0, n_times, step):
            yield slice(first, first + per_block), slice(start, start + step)


def _sweep_columns(config: Configuration, thetas: np.ndarray, times: np.ndarray, method: str) -> np.ndarray:
    """Concurrence over the theta x time grid, one row per theta, at unit
    rate: ``times`` are gamma * t."""
    values = np.empty((len(thetas), len(times)))
    initial = dynamics.AmplitudeState(1.0, 0.0)
    if method == "lindblad":
        rho0 = dynamics.density_from_amplitudes(initial)
        per_block = max(1, _SWEEP_BLOCK_ROWS // len(times))
        for start in range(0, len(thetas), per_block):
            coeff_sets = [canonical_coefficients(config, 1.0, float(theta))
                          for theta in thetas[start:start + per_block]]
            # no name holds the records, so a block's states are freed before the next one
            values[start:start + per_block] = [
                record.concurrence for record in dynamics.evolve_lindblad_many(
                    rho0, coeff_sets, t_max=float(times[-1]), dt=times[1] - times[0], store_every=1)]
        return values
    for rows, cols in _sweep_blocks(len(thetas), len(times)):
        if method == "analytic":
            values[rows, cols] = analytic.closed_form_concurrence_braided(thetas[rows], 1.0, times[cols])
        else:
            values[rows, cols] = dynamics.amplitude_concurrences(
                initial, *canonical_sums(config, 1.0, thetas[rows]), times[cols])
    return values


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
    columns = _sweep_columns(source, thetas, spec.gamma * times, method)
    _write_csv(spec.out, spec, ["theta", "t", "concurrence"], grid=(thetas, times, columns))
    return 0


def run_dfi_scan(spec: RunSpec) -> int:
    """Scan a canonical configuration for DFI points and write a JSON report."""
    kind, source = _resolve_source(spec)
    if kind != "config":
        raise SpecError("dfi-scan supports the canonical configurations only")
    grid = 10_000 if spec.grid is None else spec.grid
    if grid < dfi.MIN_GRID:
        raise SpecError(f"--grid must be at least {dfi.MIN_GRID} points, got {grid}")
    _check_size(grid, "--grid")
    _check_positive("--tol-decay", spec.tol_decay)
    _check_positive("--tol-exchange", spec.tol_exchange)
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
    """Compare network-composed coefficients against the formulas, to --tol x the largest point rate."""
    tol = 1e-10 if spec.tol is None else spec.tol
    _check_positive("--tol", tol)
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

    max_diff = 0.0
    for ref in reference.values():
        for attr in ("lamb_shifts", "exchange", "individual_decay", "collective_decay"):
            max_diff = max(max_diff, float(np.abs(getattr(ref, attr) - getattr(extracted, attr)).max()))
    if layout.n_atoms == 2:
        for label, c in [*((f"{name}: ", ref) for name, ref in reference.items()),
                         ("slh:         ", extracted)]:
            print(label + "  ".join(f"{n}={v:.17g}" for n, v in zip(_COEFF_NAMES, _coeff_vector(c))))
    print(f"max_abs_diff={max_diff:.17g} tol={tol:.17g}")
    within_tol = bool(max_diff <= tol * max(p.gamma for p in layout.all_points))
    if spec.out is not None:
        _write_json(spec.out, spec, {"max_abs_diff": max_diff, "tol": tol, "within_tol": within_tol})
    return 0 if within_tol else 2


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; the exit-code contract reserves
    # 2 for numerical failures, so route usage errors through SpecError
    def error(self, message):
        raise SpecError(message)


#: Each subcommand: its help line, its run function and its flags from ``_FLAGS``.
_COMMANDS = {
    name: (summary, run, [(option, dest, keywords) for option, dest, commands, keywords in _FLAGS
                          if name in commands])
    for name, summary, run in (
        ("coeffs", "coefficient table over theta (CSV)", run_coeffs),
        ("evolve", "single trajectory at fixed theta (CSV)", run_evolve),
        ("sweep", "concurrence over a theta x time grid (CSV)", run_sweep),
        ("dfi-scan", "locate DFI phase shifts (JSON)", run_dfi_scan),
        ("verify-slh", "cross-check the network composition", run_verify_slh),
    )
}


@cache
def build_parser() -> argparse.ArgumentParser:
    """The ``gawsim`` parser: one subparser per entry of ``_COMMANDS``, each
    taking exactly its flags from ``_FLAGS``, unabbreviated.

    Built once per process and shared: ``main`` reuses it, so a process
    that calls ``main`` repeatedly pays for the build (1-2 ms) once.
    Parsing keeps no state in the parser, and callers must not modify it."""
    parser = _Parser(prog="gawsim", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"gawsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, _, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=summary, allow_abbrev=False)
        for option, dest, keywords in flags:
            p.add_argument(option, dest=dest, **keywords)
    return parser


def _spec_from_args(args: argparse.Namespace) -> RunSpec:
    fields = vars(args)
    scale = math.pi if fields.pop("theta_over_pi") else 1.0
    # a flag left out takes the RunSpec default, so gamma 1.0 is recorded either way
    spec = RunSpec(**{dest: value for dest, value in fields.items() if value is not None})
    for name in ("theta", "theta_min", "theta_max"):
        value = getattr(spec, name)
        if value is not None:
            setattr(spec, name, value * scale)
    # checked after --theta-over-pi scaling, which can overflow a finite value
    for option, name in _FLOAT_FLAGS:
        value = getattr(spec, name)
        if value is not None and not math.isfinite(value):
            raise SpecError(f"{option} must be finite, got {value}")
    _check_positive("--gamma", spec.gamma)
    if spec.gamma > MAX_GAMMA:
        raise SpecError(f"--gamma must be at most {MAX_GAMMA:.4g}, where rates of 8 gamma stay finite, "
                        f"got {spec.gamma:g}")
    if fields["gamma"] is not None and spec.layout_path is not None:
        raise SpecError("--gamma does not apply with --layout, whose file fixes the decay rates")
    return spec


def main(argv=None) -> int:
    parser = build_parser()
    try:
        spec = _spec_from_args(parser.parse_args(argv))
        return _COMMANDS[spec.command][1](spec)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
