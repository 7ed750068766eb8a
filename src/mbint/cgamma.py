"""Complex log-gamma kernel, Pochhammer symbol and pole bookkeeping.

``log_gamma`` returns the standard analytic continuation (real on the
positive real axis, conjugate symmetric, cut along the negative real axis
approached consistently with the recurrence), so sums of log-gamma values
can be exponentiated once at the end of a kernel composition without
overflow surprises in between.

Two evaluation paths share the same Lanczos coefficients:

- a cmath scalar path, hot in residue sums (once per gamma factor per
  term) and ratio checks.  Its 14 partial fractions are spelled out, and
  a point below the real axis is conjugated in place rather than by
  recursion.  It computes in plain Python ``complex`` throughout (its
  constants are Python floats), so ``log_gamma``, ``pochhammer`` and the
  residue terms built on them never pass through numpy scalars, whose
  arithmetic costs about twice as much per operation.
- a vectorized numpy path for contour grids, one call per quadrature
  level.

``on_pole`` is detect_pole's decision without the report, for the
residue terms; both read the nearest pole from ``_nearest_pole``.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PoleError

POLE_TOLERANCE = 1e-9

# Lanczos approximation, g = 607/128 with 15 coefficients.  Valid on
# Re z >= 0.5 to roughly full double precision; the reflection formula
# covers the left half plane.
_LANCZOS_G = 607.0 / 128.0
_LANCZOS_COEF = (
    0.99999999999999709182,
    57.156235665862923517, -59.597960355475491248, 14.136097974741747174,
    -0.49191381609762019978, 0.33994649984811888699e-4,
    0.46523628927048575665e-4, -0.98374475304879564677e-4,
    0.15808870322491248884e-3, -0.21026444172410488319e-3,
    0.21743961811521264320e-3, -0.16431810653676389022e-3,
    0.84418223983852743293e-4, -0.26190838401581408670e-4,
    0.36899182659531622704e-5,
)
# unpacked once for the scalar path, which spells its partial fractions out
(_C0, _C1, _C2, _C3, _C4, _C5, _C6, _C7, _C8, _C9, _C10, _C11, _C12, _C13,
 _C14) = _LANCZOS_COEF
_T_SHIFT = _LANCZOS_G - 0.5  # t = z + g - 1/2
# Python floats, not numpy scalars: the scalar path stays in Python complex
LOG_2PI = float(np.log(2.0 * np.pi))
_HALF_LOG_2PI = 0.5 * LOG_2PI
_REFLECT_SHIFT = LOG_2PI - 0.5j * cmath.pi  # log pi - log(i/2)
_I_PI = 1j * cmath.pi


@dataclass(frozen=True)
class PoleReport:
    """Nearest non-positive integer to a point and whether it is hit."""

    is_pole: bool
    pole_index: int
    distance: float


def _nearest_pole(z):
    """(k, |z - k|) for the gamma pole k = 0, -1, -2, ... nearest complex z."""
    k = round(z.real) if z.real < 0 else 0
    return k, abs(z - k)


def on_pole(z):
    """detect_pole(z).is_pole for a finite complex ``z``, without the report
    or the argument checks: the residue terms ask it once per gamma
    factor."""
    return _nearest_pole(z)[1] <= POLE_TOLERANCE


def detect_pole(z):
    """Locate the nearest gamma pole (0, -1, -2, ...) to ``z``, hit within
    POLE_TOLERANCE.  A non-finite ``z`` is a DomainError."""
    z = complex(z)
    if not cmath.isfinite(z):
        raise DomainError("pole detection needs a finite argument", z=z)
    k, dist = _nearest_pole(z)
    return PoleReport(dist <= POLE_TOLERANCE, -k, dist)


def _principal_log(x):
    """Principal log of a complex array as 0.5 log(x^2 + y^2) + i atan2(y, x).

    Real log and arctan2 are SIMD loops in numpy, its complex log is not:
    on 3000 points, about 10 against 40 ns per element (numpy 2.4, Xeon).
    arctan2 reads the sign of a zero imaginary part as the complex log
    does; x^2 + y^2 overflows only for |x| beyond 1e154.
    """
    re, im = x.real, x.imag
    out = np.empty_like(x)
    out.real = 0.5 * np.log(re * re + im * im)
    out.imag = np.arctan2(im, re)
    return out


def _lanczos(z):
    # assumes Re z >= 0.5; the partial fractions accumulate in place, in
    # coefficient order, so a grid needs two scratch arrays of its own size
    zm1 = z - 1.0
    series = np.full(z.shape, _LANCZOS_COEF[0], dtype=np.complex128)
    term = np.empty_like(series)
    for k in range(1, len(_LANCZOS_COEF)):
        np.add(zm1, k, out=term)
        np.divide(_LANCZOS_COEF[k], term, out=term)
        series += term
    t = z + (_LANCZOS_G - 0.5)
    out = z - 0.5
    out *= _principal_log(t)  # operand order as in (z - 0.5) * log t
    out += _HALF_LOG_2PI
    out -= t
    out += _principal_log(series)
    return out


def _lanczos_scalar(z):
    zm1 = z - 1.0
    series = (_C0 + _C1 / (zm1 + 1) + _C2 / (zm1 + 2) + _C3 / (zm1 + 3)
              + _C4 / (zm1 + 4) + _C5 / (zm1 + 5) + _C6 / (zm1 + 6)
              + _C7 / (zm1 + 7) + _C8 / (zm1 + 8) + _C9 / (zm1 + 9)
              + _C10 / (zm1 + 10) + _C11 / (zm1 + 11) + _C12 / (zm1 + 12)
              + _C13 / (zm1 + 13) + _C14 / (zm1 + 14))
    t = z + _T_SHIFT
    return _HALF_LOG_2PI + (z - 0.5) * cmath.log(t) - t + cmath.log(series)


def log_gamma_unchecked(z):
    """Scalar log-gamma on the standard branch, without pole detection; a
    pole gives +inf."""
    z = complex(z)
    lower = z.imag < 0.0
    if lower:
        z = z.conjugate()
    if z.real < 0.5:
        # 1 - e^{2 i pi z} as log_gamma_grid forms it, without cancellation
        a = -2.0 * math.pi * z.imag
        b = 2.0 * math.pi * (z.real - round(z.real))
        factor = complex(2.0 * math.sin(0.5 * b) ** 2
                         - math.expm1(a) * math.cos(b),
                         -math.exp(a) * math.sin(b))
        if not factor:
            out = complex(math.inf, 0.0)
        else:
            out = (_REFLECT_SHIFT + _I_PI * z - cmath.log(factor)
                   - _lanczos_scalar(1.0 - z))
    else:
        out = _lanczos_scalar(z)
    return out.conjugate() if lower else out


def log_gamma_grid(z):
    """Vectorized log-gamma without pole checks.

    A point on a pole gives +inf (real part), with no warning, and points
    with |z| beyond about 1e154 give non-finite values (see
    _principal_log), where log_gamma_unchecked stays finite.  Reflected
    and direct points share one Lanczos pass, on 1 - z and z respectively.
    """
    z = np.atleast_1d(np.asarray(z, dtype=np.complex128))
    neg = z.imag < 0.0
    zz = np.where(neg, z.conj(), z)
    refl = zz.real < 0.5
    out = _lanczos(np.where(refl, 1.0 - zz, zz))
    if refl.any():
        zr = zz[refl]
        # continuous branch of log sin(pi z) on the closed upper half plane:
        #   log sin(pi z) = log(i/2) - i pi z + Log(1 - e^{2 i pi z}),
        # 1 - e^{2 i pi z} = 2 sin^2(b/2) - expm1(a) cos b - i e^a sin b for
        # a = -2 pi Im z, b = 2 pi (Re z - round(Re z)), without cancellation
        a = -2.0 * np.pi * zr.imag
        b = 2.0 * np.pi * (zr.real - np.round(zr.real))
        factor = np.empty_like(zr)
        factor.real = 2.0 * np.sin(0.5 * b) ** 2 - np.expm1(a) * np.cos(b)
        factor.imag = -np.exp(a) * np.sin(b)
        with np.errstate(divide="ignore"):  # log 0 = -inf on a pole
            log_factor = _principal_log(factor)
        out[refl] = (LOG_2PI - 0.5j * np.pi + 1j * np.pi * zr
                     - log_factor - out[refl])
    return np.where(neg, out.conj(), out)


def log_gamma(z):
    """Principal-branch log-gamma of a complex scalar.

    Raises PoleError when ``z`` is within POLE_TOLERANCE of a non-positive
    integer, and DomainError when ``z`` is not finite.  Satisfies
    log_gamma(z + 1) = log_gamma(z) + log(z) and exact conjugate symmetry.
    """
    z = complex(z)
    report = detect_pole(z)
    if report.is_pole:
        raise PoleError("log_gamma evaluated at a pole",
                        z=z, pole_index=report.pole_index)
    return log_gamma_unchecked(z)


def check_index(n):
    """Refuse, with DomainError, an ``n`` that is not a nonnegative integer
    (Python or numpy)."""
    if not isinstance(n, (int, np.integer)) or n < 0:
        raise DomainError("pochhammer index must be a nonnegative integer", n=n)


def pochhammer(alpha, n):
    """Rising factorial (alpha)_n with (alpha)_0 = 1.

    Direct product for n <= 64 (exact termination when a factor vanishes),
    log-domain gamma ratio above that whenever neither endpoint sits on a
    pole ladder.  An ``n`` that is not a nonnegative integer (Python or
    numpy), or a non-finite ``alpha``, is a DomainError for every n.
    """
    check_index(n)
    alpha = complex(alpha)
    if not cmath.isfinite(alpha):
        raise DomainError("pochhammer needs a finite alpha", alpha=alpha)
    if n <= 64 or detect_pole(alpha).is_pole or detect_pole(alpha + n).is_pole:
        out = 1.0 + 0.0j
        for k in range(n):
            out *= alpha + k
        return out
    try:
        return cmath.exp(log_gamma_unchecked(alpha + n)
                         - log_gamma_unchecked(alpha))
    except OverflowError:
        return complex(float("inf"), 0.0)


def asymptotic_log_abs_gamma(a, eta):
    """Leading-order estimate of log |Gamma(a + i eta)| for large |eta|,
    elementwise over arrays that broadcast together.

    Meaningful only away from the real axis; |eta| < 1 is rejected.
    """
    a = np.asarray(a, dtype=float)
    eta = np.abs(np.asarray(eta, dtype=float))
    if (eta < 1.0).any():
        raise DomainError("asymptotic estimate requires |eta| >= 1",
                          eta=float(eta.min()))
    return (a - 0.5) * np.log(eta) - 0.5 * np.pi * eta + _HALF_LOG_2PI
