"""Closed-form concurrence for the braided configuration.

For two braided giant atoms started in |e>_a |g>_b the concurrence admits a
closed form built from four phase-dependent ingredients.  With
z = e^{i*theta}:

    a_term  sqrt(z^3 p(z)), p = z^10 - 2 z^9 + 9 z^8 - 16 z^7 + 38 z^6
            - 52 z^5 + 86 z^4 - 80 z^3 + 93 z^2 - 50 z + 37 (the
            eigenvalue-splitting radical; its real part controls the slow
            envelope)
    d_term  trace polynomial z^7 + 3 z^5 + 3 z^3 + 4 z^2 + z + 4
    e_term, f_term  coupling weights of the two oscillating factors

and, with c = cos(theta/2), t in units of 1/gamma and x = a_term c t:

    C(t) = (1/2) exp(-Re[t (d_term + 2 a_term c)] / 2)
           * | e_term (e^{x*} - 1) * (2 a_term (e^x + 1) + f_term (e^x - 1)) |
           / |a_term|^2

C is invariant under a_term -> -a_term: x -> -x takes e^{-Re x} out of
each factor, and the envelope gives both back.  So either root serves, and
the principal branch needs no tracking.  Both polynomials are evaluated by
Horner's rule (``np.polyval``).  |a_term| never drops below 1.86 on the
real axis (a grid bound in the tests), so the division by |a_term|^2 is
safe for every real theta.

Both functions take theta as a float or as a 1-D array of them.  An array
is evaluated at once, elementwise: ``closed_form_concurrence_braided``
then returns theta.shape + t.shape values, and row i equals the call with
theta[i] alone bit for bit, whatever the array's length or the times'
split.  A sweep evaluates any block of its theta x t grid in one call.

Closed forms for the separate and nested orderings are intentionally not
provided; those configurations go through ``dynamics``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ConcurrenceTerms:
    """The four phase-dependent ingredients of the braided closed form:
    complex numbers (numpy's) for a float theta, arrays of theta's shape for
    an array."""

    a_term: complex | np.ndarray
    d_term: complex | np.ndarray
    e_term: complex | np.ndarray
    f_term: complex | np.ndarray


def concurrence_terms(theta) -> ConcurrenceTerms:
    """Evaluate the four ingredients at a phase shift theta: a float, or a
    1-D array whose elements are evaluated at once, elementwise."""
    theta = np.asarray(theta, dtype=float)
    z = np.exp(1j * theta)
    a = np.sqrt(z ** 3 * np.polyval([1, -2, 9, -16, 38, -52, 86, -80, 93, -50, 37], z))
    d = np.polyval([1, 0, 3, 0, 3, 4, 1, 4], z)
    cos, sin = np.cos(theta), np.sin(theta)
    e = -3 + cos * (3 - 4j * sin) + 1j * sin - 4 * np.cos(2 * theta)
    f = 16j * z ** 4 * cos ** 2 * np.sin(theta / 2)
    return ConcurrenceTerms(a, d, e, f)


def closed_form_concurrence_braided(theta, t) -> float | np.ndarray:
    """Concurrence of two braided atoms started in |eg>, evaluated in closed form.

    Parameters
    ----------
    theta : float or 1-D array
        Phase shift(s) between adjacent connection points, finite.
    t : float or array
        Time(s) gamma * t, finite and >= 0: in units of 1/gamma, gamma the
        uniform per-point decay rate.

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
    times = np.asarray(t, dtype=float)
    if not np.isfinite(times).all():
        raise ValueError("t must be finite")
    if np.any(times < 0):
        raise ValueError("t must be nonnegative")
    # one (theta, t) grid of arrays: a float theta or t is a grid of one row
    # or column, so every value takes the same elementwise path
    thetas = np.atleast_1d(theta)
    terms = concurrence_terms(thetas)
    a, d, e, f = (x[:, None] for x in (terms.a_term, terms.d_term, terms.e_term, terms.f_term))
    k = a * np.cos(thetas / 2.0)[:, None]
    gt = times.ravel()
    # x = k t; e^{s}, s = max(Re k, 0) t, is pulled out of both oscillating factors
    # (e^{x} overflows at large t) into the envelope, whose exponent is one rate per
    # theta times t, -Re(d)/2 - Re k + 2 max(Re k, 0) = |Re k| - Re(d)/2: <= 0 since
    # C <= 1, clipped so rounding cannot grow it
    growth = np.maximum(k.real, 0.0)
    rate = np.minimum(np.abs(k.real) - 0.5 * d.real, 0.0)
    x, s = k * gt, growth * gt
    envelope = np.exp(rate * gt)
    grow, shrink = np.exp(x - s), np.exp(-s)
    # s is real, so e^{x* - s} is the conjugate of e^{x - s}
    osc = e * (np.conj(grow) - shrink)
    mix = 2.0 * a * (grow + shrink) + f * (grow - shrink)
    values = (0.5 * envelope * np.abs(osc * mix) / np.abs(a) ** 2).reshape(theta.shape + times.shape)
    return float(values) if values.ndim == 0 else values
