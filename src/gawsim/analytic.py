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

Both functions take theta as a float or as a 1-D array of them.  An array
is evaluated at once, elementwise: ``closed_form_concurrence_braided``
then returns theta.shape + t.shape values, and row i equals the call with
theta[i] alone bit for bit, whatever the array's length or the times'
split.  A sweep evaluates any block of its theta x t grid in one call.

Closed forms for the separate and nested orderings are intentionally not
provided; those configurations go through ``dynamics``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ConcurrenceTerms:
    """The seven phase-dependent ingredients of the braided closed form:
    complex numbers (numpy's) for a float theta, arrays of theta's shape for
    an array."""

    a_term: complex | np.ndarray
    b_term: complex | np.ndarray
    b1: complex | np.ndarray
    b2: complex | np.ndarray
    d_term: complex | np.ndarray
    e_term: complex | np.ndarray
    f_term: complex | np.ndarray


def concurrence_terms(theta) -> ConcurrenceTerms:
    """Evaluate all seven ingredients at a phase shift theta: a float, or a
    1-D array whose elements are evaluated at once, elementwise."""
    theta = np.asarray(theta, dtype=float)
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
    cos, sin = np.cos(theta), np.sin(theta)
    e = -3 + cos * (3 - 4j * sin) + 1j * sin - 4 * np.cos(2 * theta)
    f = 16j * z ** 4 * cos ** 2 * np.sin(theta / 2)
    b1 = (
        -26
        + 62 * cos
        - 48 * np.cos(2 * theta)
        + 51 * np.cos(3 * theta)
        - 26 * np.cos(4 * theta)
        + 19 * np.cos(5 * theta)
    ) + 0j
    b2 = 1j * (
        -24 * sin
        + 32 * np.sin(2 * theta)
        - 42 * np.sin(3 * theta)
        + 24 * np.sin(4 * theta)
        - 18 * np.sin(5 * theta)
    )
    b = np.sqrt((b1 + b2) * z ** 8)
    return ConcurrenceTerms(a, b, b1, b2, d, e, f)


def closed_form_concurrence_braided(theta, gamma: float, t) -> float | np.ndarray:
    """Concurrence of two braided atoms started in |eg>, evaluated in closed form.

    Parameters
    ----------
    theta : float or 1-D array
        Phase shift(s) between adjacent connection points, finite.
    gamma : float
        Uniform per-point decay rate (finite, > 0).
    t : float or array
        Time(s), finite and >= 0, in units of 1/gamma.

    Returns
    -------
    float or ndarray
        Concurrence value(s) in [0, 1], of shape theta.shape + t.shape:
        row i of a theta array is the value at theta[i], equal to the call
        with that theta alone; a float for a float theta and a float t.
    """
    theta = np.asarray(theta, dtype=float)
    if theta.ndim > 1:
        raise ValueError(f"theta must be a float or a 1-D array, got shape {theta.shape}")
    if not np.isfinite(theta).all():
        raise ValueError(f"theta must be finite, got {theta[~np.isfinite(theta)].flat[0]}")
    if not math.isfinite(gamma):
        raise ValueError(f"gamma must be finite, got {gamma}")
    if gamma <= 0:
        raise ValueError("gamma must be > 0")
    times = np.asarray(t, dtype=float)
    if not np.isfinite(times).all():
        raise ValueError("t must be finite")
    if np.any(times < 0):
        raise ValueError("t must be nonnegative")
    # one (theta, t) grid of arrays: a float theta or t is a grid of one row
    # or column, so every value takes the same elementwise path
    thetas = np.atleast_1d(theta)
    terms = concurrence_terms(thetas)
    a, b, d, e, f = (x[:, None] for x in
                     (terms.a_term, terms.b_term, terms.d_term, terms.e_term, terms.f_term))
    c_half = np.cos(thetas / 2.0)[:, None]
    gt = gamma * times.ravel()
    # x = k gamma t; e^{s}, s = max(Re k, 0) gamma t, is pulled out of both oscillating
    # factors (e^{x} overflows at large gamma t) into the envelope, whose exponent is one
    # rate per theta times gamma t: <= 0 since C <= 1, clipped so rounding cannot grow it
    k = math.sqrt(2.0) * b * c_half
    growth = np.maximum(k.real, 0.0)
    rate = np.minimum(-0.5 * np.real(d + 2.0 * a * c_half) + 2.0 * growth, 0.0)
    x, s = k * gt, growth * gt
    envelope = np.exp(rate * gt)
    grow, shrink = np.exp(x - s), np.exp(-s)
    # s is real, so e^{x* - s} is the conjugate of e^{x - s}
    osc = e * (np.conj(grow) - shrink)
    mix = 2.0 * a * (grow + shrink) + f * (grow - shrink)
    values = (0.5 * envelope * np.abs(osc * mix) / np.abs(a) ** 2).reshape(theta.shape + times.shape)
    return float(values) if values.ndim == 0 else values
