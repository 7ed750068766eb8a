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
from .quadrature import check_tolerance, integrate_adaptive

_NEAR_ONE = 1e-9
_HALF_PI = 0.5 * math.pi
_HEAD_PANEL = 0.5  # width in v of the head's equal panels


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


def laplace_transform(psi, x, tol=1e-10):
    """integral_0^T e^{-x t} psi(t) dt by adaptive quadrature.

    T is the first of 8 * 1.4^k where the bound on the exponential tail
    falls below tol / 4 (Re x > Re lambda is required for the tail to
    close).  When that bound exceeds tol / 4 |value| (a |value| below 1),
    T grows on the same ladder to that relative target (_tail_height) and
    a second quadrature call takes the body's extension, 2 equal panels
    of [T - 1, T' - 1] in v, so the first call's mesh stays as it is.
    The integrand is taken in v, with t = exp(pi/2 sinh v) on the head
    v <= 0 (Takahasi & Mori 1974) and t = 1 + v on the body: equal panels
    of width _HEAD_PANEL on [v_lo, 0], then 8 equal panels of [0, T - 1].
    The double-exponential map flattens psi ~ t^mu* for every Re mu* > -1,
    and t^{1 + mu*} is carried as exp((1 + mu*) log t) with log t exact, so
    nothing underflows as t -> 0.  The cut t_lo at v_lo shrinks with tol,
    1 + Re mu* and 1 / |x|; the head mass below it, about
    |rest(0)| t_lo^{1 + Re mu*} / (1 + Re mu*), joins the error estimate
    as the tail beyond T does.
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

    # truncation height from the decaying envelope
    envelope = abs(psi.normalization) + abs(psi(8.0)) * np.exp(-lam.real * 8.0)
    T, tail = _tail_height(envelope + 1.0, rate, 0.25 * tol, 8.0)

    mu = mu_star.real
    # psi = (1 - e^{-t})^{mu*} rest(t), with rest free of the root at 1
    rest = replace(psi, factors=tuple(f for f in psi.factors if f[0] != 1.0))
    # the omitted head: about tol e^-12 / (1 + mu) of the scale |x|^-(1 + mu)
    log_t_lo = (math.log(tol) - 12.0) / (1.0 + mu) \
        - math.log(max(1.0, abs(x)))
    panels = math.ceil(-math.asinh(log_t_lo / _HALF_PI) / _HEAD_PANEL)
    head_edges = -_HEAD_PANEL * np.arange(max(panels, 1), 0, -1)
    cut = abs(rest(0.0)) / (1.0 + mu) \
        * math.exp((1.0 + mu) * _HALF_PI * math.sinh(head_edges[0]))

    def integrand(v):
        head = v < 0.0
        vh = v[head]
        log_t = np.log1p(np.maximum(v, 0.0))  # body: t = 1 + v, dt/dv = 1
        log_t[head] = _HALF_PI * np.sinh(vh)
        # t^{mu*} dt/dv, where dt/dv = t pi/2 cosh v on the head
        log_w = mu_star * log_t
        log_w[head] = (1.0 + mu_star) * log_t[head] \
            + np.log(_HALF_PI * np.cosh(vh))
        t = np.exp(log_t)
        r = np.maximum(t, 1e-300)  # ((1 - e^{-t}) / t)^{mu*} -> 1 at t = 0
        log_w += mu_star * np.log(-np.expm1(-r) / r) - x * t
        return np.exp(log_w) * rest(t)

    res = integrate_adaptive(
        integrand, np.concatenate([head_edges, np.linspace(0.0, T - 1.0, 9)]),
        tol_rel=0.25 * tol)
    value, err, nodes = res.value, res.error, res.nodes
    target = 0.25 * tol * abs(value)
    if tail > target:
        # a small |value|: the tail must be small relative to it, so the
        # body extends from T to the height meeting that target
        T_ext, tail = _tail_height(envelope + 1.0, rate, target, T)
        if T_ext > T:
            ext = integrate_adaptive(integrand,
                                     np.linspace(T - 1.0, T_ext - 1.0, 3),
                                     tol_rel=0.25 * tol)
            value, err = value + ext.value, err + ext.error
            nodes += ext.nodes
    err += tail + cut
    if not (cmath.isfinite(value)
            and err <= 25.0 * tol * max(abs(value), 1e-300)):
        raise QuadratureError("transform quadrature missed the tolerance",
                              err=err, nodes=nodes)
    return value


def _tail_height(scale, rate, target, T):
    """(T, tail): the first height T * 1.4^k, stopping past 2000, where the
    bound scale e^{-rate T} / rate on the transform beyond it is below
    ``target``, and that bound."""
    while True:
        tail = scale * np.exp(-rate * T) / rate
        if tail < target or T >= 2000.0:
            return T, tail
        T *= 1.4


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
