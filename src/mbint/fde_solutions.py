"""Closed-form gamma-quotient solutions of the first-order FDE

    P(x) f(x) + Q(x+1) f(x+1) = 0,

where P has degree p and the shifted coefficient, rewritten as a polynomial
Qt(x) in x, has degree q.  With rho the roots of P and sigma the roots of
Qt, every solution of interest is

    f(x) = c^x  *  prod gamma factors in (x - rho_j), (x - sigma_k)

in one of three equivalent arrangements selected by split indices (m, n):
all rho factors rising in the numerator (n = p, m = 0), all reflected into
the denominator (n = 0, m = q), or any mixture.  The arrangements differ
only by the constant c = (-1)^(m+n-p+1) lead_p / lead_q, and each one
satisfies the exact ratio identity

    f(x+1) / f(x) = c_0 * prod (x - rho_j) / prod (x - sigma_k),

with c_0 the (n = p, m = 0) constant, which is what fde_ratio_residual
measures.
"""

from dataclasses import dataclass

import numpy as np

from . import polyroots
from .cgamma import POLE_TOLERANCE
from .errors import ContourError, OrderError, ParameterError
from .mellin_barnes import _T_MIN, Contour, check_split, contour_window, \
    g_kernel, kernel_eval, kernel_log_eval


@dataclass(frozen=True)
class FirstOrderFDE:
    """The two coefficient polynomials, both expressed in x."""

    p_poly: tuple  # P(x), ascending
    q_poly: tuple  # Qt(x) = Q(x+1) expanded in x, ascending

    def __post_init__(self):
        p = tuple(complex(v) for v in polyroots.trim(self.p_poly))
        q = tuple(complex(v) for v in polyroots.trim(self.q_poly))
        object.__setattr__(self, "p_poly", p)
        object.__setattr__(self, "q_poly", q)
        if self.lead_p == 0 or self.lead_q == 0:
            raise ParameterError("leading coefficients must be nonzero")

    @property
    def lead_p(self):
        return self.p_poly[-1]

    @property
    def lead_q(self):
        return self.q_poly[-1]

    @classmethod
    def from_coefficient_columns(cls, col0, col1):
        """Build from the matrix columns a[h][0] and a[h][1].

        col1 holds the coefficients of powers of (x+1); the stored q_poly is
        that polynomial rewritten in x.
        """
        return cls(tuple(polyroots.trim(col0)),
                   tuple(polyroots.shift(polyroots.trim(col1), 1.0)))

    @classmethod
    def from_matrix(cls, matrix):
        if matrix.fde_order != 1:
            raise ParameterError("matrix must encode a first-order FDE "
                                 "(two columns)", cols=matrix.fde_order + 1)
        return cls.from_coefficient_columns(matrix.column(0), matrix.column(1))


@dataclass(frozen=True)
class RootData:
    """Roots of the two coefficient polynomials plus the base constant.

    ``c`` is the constant of the all-rising arrangement (n = p, m = 0),
    i.e. -lead_p / lead_q.
    """

    rho: tuple
    sigma: tuple
    c: complex


def coefficient_roots(fde):
    rho = polyroots.roots(np.asarray(fde.p_poly))
    sigma = polyroots.roots(np.asarray(fde.q_poly))
    c = -fde.lead_p / fde.lead_q
    return RootData(tuple(rho), tuple(sigma), complex(c))


def split_parameters(roots, m, n):
    """(m, n, a, b): the G parameters a = 1 + rho, b = 1 + sigma with split
    indices (m, n), n None meaning p; OrderError unless they are integers
    in 0 <= m <= q, 0 <= n <= p."""
    p = len(roots.rho)
    n = p if n is None else n
    check_split(m, n, p, len(roots.sigma), OrderError)
    return (m, n, tuple(1.0 + r for r in roots.rho),
            tuple(1.0 + s for s in roots.sigma))


def gamma_quotient(roots, m=0, n=None):
    """Kernel for the solution with split indices (m, n): the G kernel
    (g_kernel) of a = 1 + rho, b = 1 + sigma with base c = (-1)^(m+n-p) c_0.

    n of the rho roots appear as rising numerator factors and the rest as
    reflected denominator ones; m of the sigma roots appear reflected in the
    numerator, the rest rising in the denominator.  Coincident rho/sigma
    pairs (within 1e-12, MellinKernel.simplify) cancel exactly.  Split
    indices that are not integers in range raise OrderError.
    """
    m, n, a, b = split_parameters(roots, m, n)
    c = (-1.0) ** ((m + n - len(a)) % 2) * roots.c
    return g_kernel(m, n, a, b, base=c).simplify()


def solution_value(kernel, x):
    """f(x) = exp(log kernel) evaluated at the difference-equation variable."""
    return kernel_eval(kernel, x)


def fde_ratio_residual(kernel, roots, x):
    """Relative defect of f(x+1)/f(x) against the rational ratio it must equal.

    Mathematically zero for every split arrangement of the same root data.
    """
    x = complex(x)
    ratio = np.exp(kernel_log_eval(kernel, x + 1.0) - kernel_log_eval(kernel, x))
    expected = complex(roots.c)
    for r in roots.rho:
        expected *= x - r
    for s in roots.sigma:
        expected /= x - s
    if expected == 0:
        return float(abs(ratio - expected))
    return float(abs(ratio - expected) / abs(expected))


def inverse_transform_solution(rho, sigma, anchor):
    """Kernel and vertical contour for the dual-variable solution by the
    inverse transform.

    For root lists of lengths p and p - 1 the solution of the dual ODE is
    (1 / 2 pi i) * integral of  prod Gamma(x - rho_j) / prod Gamma(x - sigma_k)
    * e^{x t} dx along Re x = anchor, which integrate() evaluates with
    z = e^t.  The line must pass right of every rho-ladder head.
    """
    rho = tuple(complex(r) for r in rho)
    sigma = tuple(complex(s) for s in sigma)
    if len(sigma) != len(rho) - 1:
        raise ParameterError("expected one fewer sigma than rho",
                             p=len(rho), q=len(sigma))
    anchor = float(anchor)
    kernel = g_kernel(0, len(rho), [1.0 + r for r in rho],
                      [1.0 + s for s in sigma])
    head, _ = contour_window(kernel)
    if anchor <= head + POLE_TOLERANCE:
        raise ContourError("anchor must lie right of every numerator pole",
                           anchor=anchor, max_re_rho=head)
    contour = Contour("vertical", anchor, _T_MIN)
    return kernel, contour
