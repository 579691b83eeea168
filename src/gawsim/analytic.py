"""Closed-form concurrence for the braided configuration.

For two braided giant atoms started in |e>_a |g>_b the concurrence admits a
closed form built from seven phase-dependent ingredients.  With
z = e^{i*theta}:

    a_term  sqrt of a degree-13 polynomial in z (the eigenvalue-splitting
            radical; its real part controls the slow envelope)
    d_term  trace polynomial 4 + z + 4 z^2 + 3 z^3 + 3 z^5 + z^7
    e_term, f_term  coupling weights of the two oscillating factors
    b1, b2  cos / sin series whose combination under the radical gives
    b_term  = sqrt((b1 + b2) z^8), satisfying a_term = sqrt(2) * b_term

and, with c = cos(theta/2), x(t) = sqrt(2) * b_term * gamma * t * c:

    C(t) = (1/2) exp(-Re[gamma t (d_term + 2 a_term c)] / 2)
           * | e_term (e^{x*} - 1) * (2 a_term (e^x + 1) + f_term (e^x - 1)) |
           / |a_term|^2

Both radicals use the principal branch (argument in (-pi, pi]); the
observable is invariant under the joint sign flip of (a_term, b_term), and
the principal branches preserve the a = sqrt(2) b pairing for every real
theta, so no branch tracking is needed.  |a_term| never drops below 1.86
on the real axis (a grid bound in the tests), so the division by
|a_term|^2 is safe for every real theta.

Closed forms for the separate and nested orderings are intentionally not
provided; those configurations go through ``dynamics``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ConcurrenceTerms:
    """The seven phase-dependent ingredients of the braided closed form."""

    a_term: complex
    b_term: complex
    b1: complex
    b2: complex
    d_term: complex
    e_term: complex
    f_term: complex


def concurrence_terms(theta: float) -> ConcurrenceTerms:
    """Evaluate all seven ingredients at a phase shift theta."""
    z = np.exp(1j * theta)
    poly = (
        37
        - 50 * z
        + 93 * z ** 2
        - 80 * z ** 3
        + 86 * z ** 4
        - 52 * z ** 5
        + 38 * z ** 6
        - 16 * z ** 7
        + 9 * z ** 8
        - 2 * z ** 9
        + z ** 10
    )
    a = np.sqrt(z ** 3 * poly)
    d = 4 + z + 4 * z ** 2 + 3 * z ** 3 + 3 * z ** 5 + z ** 7
    e = -3 + math.cos(theta) * (3 - 4j * math.sin(theta)) + 1j * math.sin(theta) - 4 * math.cos(
        2 * theta
    )
    f = 16j * z ** 4 * math.cos(theta) ** 2 * math.sin(theta / 2)
    b1 = complex(
        -26
        + 62 * math.cos(theta)
        - 48 * math.cos(2 * theta)
        + 51 * math.cos(3 * theta)
        - 26 * math.cos(4 * theta)
        + 19 * math.cos(5 * theta)
    )
    b2 = 1j * (
        -24 * math.sin(theta)
        + 32 * math.sin(2 * theta)
        - 42 * math.sin(3 * theta)
        + 24 * math.sin(4 * theta)
        - 18 * math.sin(5 * theta)
    )
    b = np.sqrt((b1 + b2) * z ** 8)
    return ConcurrenceTerms(complex(a), complex(b), b1, b2, complex(d), complex(e), complex(f))


def closed_form_concurrence_braided(theta: float, gamma: float, t) -> float | np.ndarray:
    """Concurrence of two braided atoms started in |eg>, evaluated in closed form.

    Parameters
    ----------
    theta : float
        Phase shift between adjacent connection points.
    gamma : float
        Uniform per-point decay rate (finite, > 0).
    t : float or array
        Time(s), finite and >= 0, in units of 1/gamma.

    Returns
    -------
    float or ndarray
        Concurrence value(s) in [0, 1].
    """
    for name, value in (("theta", theta), ("gamma", gamma)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if gamma <= 0:
        raise ValueError("gamma must be > 0")
    times = np.atleast_1d(np.asarray(t, dtype=float))
    if not np.isfinite(times).all():
        raise ValueError("t must be finite")
    if np.any(times < 0):
        raise ValueError("t must be nonnegative")
    terms = concurrence_terms(theta)
    c_half = math.cos(theta / 2.0)
    gt = gamma * times
    x = math.sqrt(2.0) * terms.b_term * gt * c_half
    # pull e^{max(Re x, 0)} out of both oscillating factors and fold it
    # into the envelope: the raw e^{x} overflows for large gamma*t even
    # though the product is bounded by 1
    s = np.maximum(np.real(x), 0.0)
    envelope = np.exp(-0.5 * np.real(gt * (terms.d_term + 2.0 * terms.a_term * c_half)) + 2.0 * s)
    osc = terms.e_term * (np.exp(np.conj(x) - s) - np.exp(-s))
    mix = 2.0 * terms.a_term * (np.exp(x - s) + np.exp(-s)) + terms.f_term * (
        np.exp(x - s) - np.exp(-s)
    )
    values = 0.5 * envelope * np.abs(osc * mix) / abs(terms.a_term) ** 2
    if np.isscalar(t) or np.asarray(t).ndim == 0:
        return float(values[0])
    return values

