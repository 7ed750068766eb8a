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
import math
from dataclasses import dataclass, replace

import numpy as np

from . import polyroots
from .errors import (DegreeError, DivergenceError, ParameterError,
                     QuadratureError, RepeatedRootError)
from .quadrature import MAX_NODES, check_tolerance, integrate_adaptive, modulus

_NEAR_ONE = 1e-9
_HALF_PI = 0.5 * math.pi
_LOG_TAIL = math.log(0.25e-300)  # far tail target / tol: the floor 1e-300 / 4


@dataclass(frozen=True)
class ClosedFormPsi:
    """psi(t) = normalization * e^{lambda t} * prod (1 - e^{-t}/z_i)^{mu_i}.

    log composes log psi as one sum, which calling psi exponentiates once;
    the normalization must be finite and nonzero (ParameterError).
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
        if self.normalization == 0 or not cmath.isfinite(self.normalization):
            raise ParameterError("normalization must be finite and nonzero",
                                 normalization=self.normalization)
        object.__setattr__(self, "exponent_lambda",
                           complex(self.exponent_lambda))
        object.__setattr__(self, "factors",
                           tuple((1.0 + 0.0j if abs(z - 1.0) < _NEAR_ONE
                                  else complex(z), complex(mu))
                                 for z, mu in self.factors))
        object.__setattr__(self, "normalization",
                           complex(self.normalization))

    def log(self, t):
        """log psi(t) = log N + lambda t + sum mu_i log(1 - e^{-t}/z_i),
        composed once, with the principal log of each factor."""
        arr = np.asarray(t, dtype=np.float64)
        out = cmath.log(self.normalization) + self.exponent_lambda * arr
        u = np.exp(-arr)
        for z_i, mu_i in self.factors:
            if abs(z_i - 1.0) < 1e-6:
                # stable near t = 0: 1 - e^{-t}/z = -expm1(-t) + u (z-1)/z
                base = -np.expm1(-arr) + u * (z_i - 1.0) / z_i
            else:
                base = 1.0 - u / z_i
            out = out + mu_i * np.log(base)
        return complex(out) if np.ndim(t) == 0 else out

    def __call__(self, t):
        out = np.exp(self.log(t))
        return complex(out) if np.ndim(t) == 0 else out

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


def laplace_transform(psi, x, tol=1e-10):
    """integral_0^inf e^{-x t} psi(t) dt by one nested trapezoidal rule
    in v (integrate_adaptive).

    t = exp(pi/2 sinh v) maps all of (0, inf) (Takahasi & Mori 1974),
    flattening psi ~ t^mu* for every Re mu* > -1, and the rule runs over
    the window from the head cut v_lo to the far cut v_hi (which the rule
    widens outward to its lattice).  Each node's integrand is one log sum,
    exponentiated once:
    (1 + mu*) log t + log(pi/2 cosh v) + mu* log((1 - e^{-t}) / t)
    - (x - lambda) t + log rest(t), with log t = pi/2 sinh v exact and rest
    the closed form without its root at 1 and its e^{lambda t}; a node's
    rounding bound is |value| times the summands' magnitudes, plus one.
    The cut t_lo shrinks with tol, 1 + Re mu* and 1 / |x|; v_hi maps
    t_hi, where the tail bound
    env e^{-(Re x - Re lambda) t} / (Re x - Re lambda) meets tol / 4 times
    1e-300, the acceptance check's floor on |value|.
    The head mass below t_lo, about |rest(0)| t_lo^{1 + Re mu*} /
    (1 + Re mu*), and the tail bound join the error estimate.
    Re x > Re lambda is required for the tail to close.
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

    mu = mu_star.real
    s = x - lam  # e^{-x t} psi = e^{-s t} (1 - e^{-t})^{mu*} rest(t)
    rest = replace(psi, exponent_lambda=0.0, factors=tuple(
        f for f in psi.factors if f[0] != 1.0))
    # the omitted head: about tol e^-12 / (1 + mu) of the scale |x|^-(1 + mu)
    log_t_lo = min((math.log(tol) - 12.0) / (1.0 + mu)
                   - math.log(max(1.0, abs(x))), 0.0)
    cut = math.exp(rest.log(0.0).real - math.log(1.0 + mu)
                   + (1.0 + mu) * log_t_lo)
    # env = 1 + |N| + |rest(8)| bounds |e^{-lambda t} psi| past t = 8
    log_env = np.logaddexp.reduce(
        [0.0, math.log(abs(psi.normalization)), rest.log(8.0).real])
    # env e^{-rate t} / rate meets tol at t_tol; if e^{-i Im(s) t} turns
    # more often before it than the node budget has nodes, no quadrature
    # resolves the tail
    rate_t_tol = log_env - math.log(rate) - math.log(tol)
    turns = abs(s.imag) * rate_t_tol / rate / (2.0 * math.pi)
    if turns > MAX_NODES:
        raise QuadratureError("the tail oscillates past the node budget",
                              x=x, exponent_lambda=lam, turns=turns)
    # t_hi >= 1 where env e^{-rate t} / rate meets tol e^{_LOG_TAIL}
    rate_t_hi = rate_t_tol - _LOG_TAIL
    log_t_hi = math.log(max(rate_t_hi, rate)) - math.log(rate)
    if log_t_hi > -_LOG_TAIL:
        raise QuadratureError("the tail closes only past t = 1e300",
                              x=x, exponent_lambda=lam)
    tail = math.exp(log_env - rate * math.exp(log_t_hi) - math.log(rate))

    def integrand(v):
        log_t = _HALF_PI * np.sinh(v)
        t = np.exp(log_t)
        r = np.maximum(t, 1e-300)  # ((1 - e^{-t}) / t)^{mu*} -> 1 at t = 0
        terms = ((1.0 + mu_star) * log_t, np.log(_HALF_PI * np.cosh(v)),
                 mu_star * np.log(-np.expm1(-r) / r), -s * t, rest.log(t))
        out = np.exp(sum(terms))
        return out, np.abs(out) * sum(map(np.abs, terms), 1.0)

    res = integrate_adaptive(integrand, math.asinh(log_t_lo / _HALF_PI),
                             math.asinh(log_t_hi / _HALF_PI),
                             tol_rel=0.25 * tol)
    mag, err = modulus(res.value), res.error + tail + cut
    if not (mag < math.inf and err <= 25.0 * tol * max(mag, 1e-300)):
        raise QuadratureError("transform quadrature missed the tolerance",
                              err=err, nodes=res.nodes)
    return res.value


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
