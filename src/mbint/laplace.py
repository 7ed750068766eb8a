"""First-order ODE closed forms and the forward integral transform.

The ODE  A0(u) psi + A1(u) psi' = 0  with u = exp(-t) integrates in closed
form when A1 has simple roots: partial fractions of -A0/A1 in u turn into
an exponential factor e^{lambda t} and power factors (1 - e^{-t}/z_i)^{mu_i},
one per root of A1.  The transform

    f(x) = integral_0^inf  e^{-x t} psi(t) dt

then produces a solution of the dual difference equation, which
fde_numeric_residual verifies directly against the coefficient matrix.
"""

import cmath
from dataclasses import dataclass, replace

import numpy as np

from . import polyroots
from .errors import (DegreeError, DivergenceError, ParameterError,
                     QuadratureError, RepeatedRootError)
from .quadrature import MAX_NODES, check_tolerance, integrate_adaptive

_NEAR_ONE = 1e-9
_NEAR_INTEGER = 1e-9


@dataclass(frozen=True)
class ClosedFormPsi:
    """psi(t) = normalization * e^{lambda t} * prod (1 - e^{-t}/z_i)^{mu_i}.

    A root within _NEAR_ONE of 1 is stored as exactly 1: its factor
    vanishes at t = 0, so singular_exponent counts its power and psi is
    evaluated as (1 - e^{-t})^{mu}, not as (t + eps)^{mu} for the root's
    rounding error eps, which would move the transform by about
    eps^{1 + mu}.
    """

    exponent_lambda: complex
    factors: tuple  # of (root z_i, power mu_i), all z_i distinct
    normalization: complex = 1.0

    def __post_init__(self):
        object.__setattr__(self, "exponent_lambda",
                           complex(self.exponent_lambda))
        object.__setattr__(self, "factors",
                           tuple((1.0 + 0.0j if abs(z - 1.0) < _NEAR_ONE
                                  else complex(z), complex(mu))
                                 for z, mu in self.factors))
        object.__setattr__(self, "normalization",
                           complex(self.normalization))

    def __call__(self, t):
        arr = np.asarray(t, dtype=np.float64)
        out = np.full(arr.shape, complex(self.normalization),
                      dtype=np.complex128)
        u = np.exp(-arr)
        for z_i, mu_i in self.factors:
            if abs(z_i - 1.0) < 1e-6:
                # stable near t = 0: 1 - e^{-t}/z = -expm1(-t) + u (z-1)/z
                base = -np.expm1(-arr) + u * (z_i - 1.0) / z_i
            else:
                base = 1.0 - u / z_i
            out = out * np.exp(mu_i * np.log(base))
        out = out * np.exp(self.exponent_lambda * arr)
        return complex(out[()]) if np.ndim(t) == 0 else out

    def damped(self):
        """The same closed form multiplied by e^{-t} (lambda drops by one)."""
        return replace(self, exponent_lambda=self.exponent_lambda - 1.0)

    def singular_exponent(self):
        """Sum of powers over factors vanishing at t = 0 (roots at 1)."""
        return sum((mu for z, mu in self.factors if z == 1.0), 0.0 + 0.0j)

    def to_json(self):
        return {"lambda": [self.exponent_lambda.real, self.exponent_lambda.imag],
                "normalization": [self.normalization.real,
                                  self.normalization.imag],
                "factors": [[z.real, z.imag, mu.real, mu.imag]
                            for z, mu in self.factors]}


def solve_first_order_ode(a0, a1):
    """Closed-form psi with psi'/psi = -A0(e^{-t}) / A1(e^{-t}).

    Requires A1 to have simple roots; a root at u = 0 must be shared with A0
    (the common factor cancels).  deg A0 may not exceed deg A1, otherwise
    the logarithmic derivative picks up terms the closed form cannot carry.
    """
    a0 = polyroots.trim(a0)
    a1 = polyroots.trim(a1)
    if len(a1) == 1 and a1[0] == 0:
        raise ParameterError("A1 is identically zero; not a first-order ODE")
    if len(a0) == 1 and a0[0] == 0:
        return ClosedFormPsi(0.0, ())
    while a1[0] == 0:
        if a0[0] != 0:
            raise DegreeError("A1 vanishes at u = 0 without a shared factor; "
                              "the quotient is not integrable in this form")
        a0 = polyroots.trim(a0[1:])
        a1 = polyroots.trim(a1[1:])
        if len(a0) == 1 and a0[0] == 0:
            return ClosedFormPsi(0.0, ())
    if len(a0) > len(a1):
        raise DegreeError("deg A0 exceeds deg A1; quotient has a polynomial "
                          "part the closed form cannot represent",
                          deg_a0=len(a0) - 1, deg_a1=len(a1) - 1)
    roots = polyroots.roots(a1)
    scale = max(1.0, float(np.max(np.abs(roots))) if len(roots) else 1.0)
    # numerically doubled roots split by about sqrt(eps); gate well above that
    for i in range(len(roots)):
        for j in range(i + 1, len(roots)):
            if abs(roots[i] - roots[j]) < 1e-6 * scale:
                raise RepeatedRootError("A1 must have simple roots",
                                        root=complex(roots[i]))
    # -A0/A1 = quotient + sum residue_i / (u - z_i); with the closed form,
    # mu_i = -residue_i / z_i and lambda = quotient + sum mu_i
    da1 = polyroots.polyder(a1)
    quotient = -a0[-1] / a1[-1] if len(a0) == len(a1) else 0.0
    factors = []
    mu_sum = 0.0 + 0.0j
    for z_i in roots:
        r_i = -polyroots.polyval(a0, z_i) / polyroots.polyval(da1, z_i)
        mu_i = -r_i / z_i
        mu_sum += mu_i
        factors.append((complex(z_i), complex(mu_i)))
    lam = complex(quotient) + mu_sum
    return ClosedFormPsi(lam, tuple(factors))


def _graded_edges(alpha, tol):
    """Panel edges [0, 2^-J, ..., 1/2, 1] for a head integrand ~ s^alpha.

    The innermost panel holds about 2^{-J (1 + alpha)} <= tol of the head,
    so one round resolves the endpoint that bisection from equal panels
    would reach one halving per round.
    """
    levels = int(np.ceil(np.log(tol) / ((1.0 + alpha) * np.log(0.5))))
    levels = min(max(levels, 3), 60)
    return np.concatenate(([0.0], 0.5 ** np.arange(levels, -1, -1)))


def laplace_transform(psi, x, tol=1e-10):
    """Adaptive quadrature of integral_0^T e^{-x t} psi(t) dt.

    T is sized so the exponential tail falls below ``tol`` relative to the
    running value (Re x > Re lambda is required for the tail to close).
    The head [0, 1] and the body [1, T] are integrated separately.  An
    integrable endpoint singularity psi ~ t^mu with -1 < Re mu < 0 is
    flattened by the substitution t = s^k, which leaves the head integrand
    ~ s^alpha with alpha = k (1 + Re mu) - 1 >= 1 (otherwise alpha = Re mu);
    a singular head then opens on panels graded geometrically toward 0
    (_graded_edges).  A head analytic at 0 (mu a nonnegative integer, to
    _NEAR_INTEGER) opens on 8 equal panels, as the body does.
    """
    x = complex(x)
    if not cmath.isfinite(x):
        raise ParameterError("transform argument must be finite", x=x)
    check_tolerance(tol)
    lam = complex(psi.exponent_lambda)
    rate = x.real - lam.real
    if rate <= 0:
        raise DivergenceError("transform requires Re x > Re lambda",
                              x=x, exponent_lambda=lam)
    mu_star = complex(psi.singular_exponent())
    if mu_star.real <= -1.0:
        raise DivergenceError("psi is not integrable at t = 0",
                              singular_exponent=mu_star)

    def integrand(t):
        return np.exp(-x * np.asarray(t, dtype=np.float64)) * psi(t)

    # truncation height from the decaying envelope
    T = 8.0
    envelope = abs(psi.normalization) + abs(psi(T)) * np.exp(-lam.real * T)
    while T < 2000.0:
        tail = (envelope + 1.0) * np.exp(-rate * T) / rate
        if tail < 0.25 * tol:
            break
        T *= 1.4
    tail = (envelope + 1.0) * np.exp(-rate * T) / rate

    total = 0.0 + 0.0j
    err = float(tail)
    nodes_left = MAX_NODES
    # head [0, 1] and body [1, T]; t = s^k maps [0, 1] onto itself
    head_integrand, alpha = integrand, mu_star.real
    if mu_star.real < 0.0:
        k = int(np.ceil(2.0 / (1.0 + mu_star.real))) + 1
        alpha = k * (1.0 + mu_star.real) - 1.0

        def head_integrand(s):
            s = np.asarray(s, dtype=np.float64)
            t = s ** k
            return integrand(t) * k * s ** (k - 1)

    # psi ~ t^mu* is analytic at t = 0 when mu* is a nonnegative integer
    n = round(mu_star.real)
    analytic = n >= 0 and abs(mu_star - n) < _NEAR_INTEGER
    edges = np.linspace(0.0, 1.0, 9) if analytic \
        else _graded_edges(alpha, tol)
    head = integrate_adaptive(head_integrand, edges, tol_rel=0.25 * tol,
                              max_nodes=nodes_left // 2)
    total += head.value
    err += head.error
    nodes_left -= head.nodes
    body = integrate_adaptive(integrand, np.linspace(1.0, T, 9),
                              tol_rel=0.25 * tol, max_nodes=nodes_left)
    total += body.value
    err += body.error
    if err > 25.0 * tol * max(abs(total), 1e-300):
        raise QuadratureError("transform quadrature missed the tolerance",
                              err=err, nodes=head.nodes + body.nodes)
    return complex(total)


def fde_numeric_residual(matrix, f, x):
    """Normalized residual of the difference equation at x.

    Assembles sum_k [sum_h a[h][k] (x+k)^h] f(x+k) and divides by the
    largest term magnitude, so an exact solution scores near machine zero
    regardless of scale.
    """
    x = complex(x)
    terms = []
    for k in range(matrix.fde_order + 1):
        coeff = complex(polyroots.polyval(np.asarray(matrix.column(k)), x + k))
        terms.append(coeff * complex(f(x + k)))
    top = max(abs(t) for t in terms)
    if top == 0.0:
        return 0.0
    return float(abs(sum(terms)) / top)
