"""Polynomial helpers and complex root finding.

Coefficients are ascending (c[k] multiplies x**k) everywhere in this
package.  Roots are the eigenvalues of the companion matrix (np.roots),
which is backward stable (Edelman & Murakami, Math. Comp. 64, 1995);
every result is verified by reconstructing the polynomial from its roots.
"""

import numpy as np

from .errors import RootFindingError

RESIDUAL_TOL = 1e-8


def trim(coeffs):
    """Drop exactly-zero trailing coefficients; keeps at least one entry,
    so an empty list reads as the zero polynomial [0]."""
    c = list(coeffs) or [0]
    while len(c) > 1 and c[-1] == 0:
        c.pop()
    return np.asarray(c, dtype=np.complex128)


def polyval(coeffs, x):
    c = np.asarray(coeffs, dtype=np.complex128)
    out = np.zeros_like(np.asarray(x, dtype=np.complex128))
    for ck in c[::-1]:
        out = out * x + ck
    return out


def polyder(coeffs):
    c = np.asarray(coeffs, dtype=np.complex128)
    if len(c) <= 1:
        return np.zeros(1, dtype=np.complex128)
    return c[1:] * np.arange(1, len(c))


def from_roots(roots, lead=1.0):
    """Expand lead * prod (x - r) into ascending coefficients."""
    c = np.array([1.0], dtype=np.complex128)
    for r in roots:
        nxt = np.zeros(len(c) + 1, dtype=np.complex128)
        nxt[1:] += c          # x * p(x)
        nxt[:-1] += -r * c    # -r * p(x)
        c = nxt
    return c * complex(lead)


def shift(coeffs, offset):
    """Coefficients of p(x + offset) given those of p(x)."""
    c = np.asarray(coeffs, dtype=np.complex128)
    out = np.zeros_like(c)
    # Horner in the shifted variable
    for ck in c[::-1]:
        carry = np.zeros_like(out)
        carry[1:] = out[:-1]
        carry = carry + offset * out
        out = carry
        out[0] += ck
    return out


def _sorted(roots):
    r = np.asarray(roots, dtype=np.complex128)
    order = np.lexsort((r.imag, r.real))
    return r[order]


def _reconstruction_residual(coeffs, roots):
    rebuilt = from_roots(roots, coeffs[-1])
    scale = np.max(np.abs(coeffs))
    return float(np.max(np.abs(rebuilt - coeffs)) / scale)


def roots(coeffs):
    """All roots of the polynomial, sorted by (Re, Im).

    Raises RootFindingError when the companion-matrix eigenvalues do not
    reproduce the coefficients within RESIDUAL_TOL.
    """
    c = trim(coeffs)
    n = len(c) - 1
    if n == 0:
        return np.zeros(0, dtype=np.complex128)
    if n == 1:
        return np.array([-c[0] / c[1]], dtype=np.complex128)
    z = np.roots(c[::-1])
    res = _reconstruction_residual(c, z)
    if not res <= RESIDUAL_TOL:  # a NaN residual fails too
        raise RootFindingError("root finding failed to reproduce "
                               "coefficients", residual=res, degree=n)
    return _sorted(z)
