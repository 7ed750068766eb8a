"""User-facing evaluators: pFq series, Meijer G, Fox H and their bridges.

The generalized hypergeometric series converges for all finite z when
p <= q, on the unit disk when p = q + 1, and nowhere (except z = 0, or when
it terminates) for p > q + 1.  Its Mellin-Barnes counterpart is the G
function of orders (1, p; p, q+1) at argument -z, which extends the series
beyond the disk; both routes are implemented and cross-checked.
"""

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from . import mellin_barnes as mb
from . import polyroots
from .cgamma import check_index, detect_pole, log_gamma, pochhammer
from .errors import (ConvergenceError, DivergentSeriesError,
                     InvalidDenominatorError, MBIntError, ParameterError,
                     QuadratureError)
from .fde_solutions import coefficient_roots, split_parameters
from .quadrature import check_tolerance

PFQ_MAX_TERMS = 100000  # pfq's term budget
_EPS = np.finfo(float).eps
G_ODE_EVAL_TOL = 1e-12  # the tol of g_ode_residual's meijer_g evaluations
G_ODE_STEP = 1e-2  # the radius in log z of g_ode_residual's Cauchy circle


def _complex_tuple(values):
    return tuple(complex(v) for v in values)


def _check_finite_parameters(a, b):
    """ParameterError for a non-finite a_j or b_k: the series and its
    gamma prefactor are undefined there."""
    for name, values in (("a", a), ("b", b)):
        for v in values:
            if not cmath.isfinite(v):
                raise ParameterError("parameters must be finite",
                                     **{name: v})


@dataclass(frozen=True)
class _Orders:
    """The orders and parameters GParams and HParams share, and the one
    validation and kernel construction (mellin_barnes.g_kernel) both use."""
    m: int
    n: int
    p: int
    q: int
    a: tuple = ()
    b: tuple = ()

    def __post_init__(self, alpha=None, beta=None):
        object.__setattr__(self, "a", _complex_tuple(self.a))
        object.__setattr__(self, "b", _complex_tuple(self.b))
        mb.check_split(self.m, self.n, self.p, self.q, ParameterError)
        if len(self.a) != self.p or len(self.b) != self.q:
            raise ParameterError("parameter vector lengths must match p, q",
                                 len_a=len(self.a), len_b=len(self.b))
        kernel = mb.g_kernel(self.m, self.n, self.a, self.b, alpha, beta)
        hit = mb.find_pole_collision(kernel)
        if hit is not None:
            raise ParameterError("pole families collide", location=hit)
        object.__setattr__(self, "_kernel", kernel)

    def to_kernel(self):
        return self._kernel


@dataclass(frozen=True)
class GParams(_Orders):
    _kernel: mb.MellinKernel = field(init=False, repr=False, compare=False)


@dataclass(frozen=True)
class HParams(_Orders):
    alpha: tuple = ()
    beta: tuple = ()
    _kernel: mb.MellinKernel = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "alpha", tuple(float(v) for v in self.alpha))
        object.__setattr__(self, "beta", tuple(float(v) for v in self.beta))
        super().__post_init__(self.alpha, self.beta)


class PFQClass:
    CONVERGES_EVERYWHERE = "converges_everywhere"
    CONVERGES_UNIT_DISK = "converges_unit_disk"
    DIVERGES_NONZERO = "diverges_nonzero"


def classify_pfq(p, q, z):
    """Convergence regime of the series by its order pair alone."""
    if p <= q:
        return PFQClass.CONVERGES_EVERYWHERE
    if p == q + 1:
        return PFQClass.CONVERGES_UNIT_DISK
    return PFQClass.DIVERGES_NONZERO


def _termination_index(a):
    """Smallest series-terminating index from non-positive-integer upper
    parameters, or None."""
    best = None
    for a_j in a:
        rep = detect_pole(a_j)
        if rep.is_pole:
            if best is None or rep.pole_index < best:
                best = rep.pole_index
    return best


def pfq(a, b, z, tol=1e-14):
    """Partial sums of the generalized hypergeometric series.

    Terminating upper parameters take precedence over denominator
    validation, so a polynomial case evaluates even when some b_k is a
    non-positive integer further down the ladder.  A non-finite a_j, b_k
    or z, or a ``tol`` that is not a positive finite number, is a
    ParameterError; a term or partial sum past the double range is a
    ConvergenceError at once (pfq_via_g sums a large |z| by residues).
    A sum whose terms cancel past ``tol``, eps * sum |t_n| > tol * |sum|,
    returns pfq_via_g's value instead, and raises ConvergenceError when
    pfq_via_g refuses the input (a terminating series, z on the positive
    real axis).
    """
    a = _complex_tuple(a)
    b = _complex_tuple(b)
    _check_finite_parameters(a, b)
    z = complex(z)
    if not cmath.isfinite(z):
        raise ParameterError("argument must be finite", z=z)
    check_tolerance(tol)
    n_stop = _termination_index(a)
    for b_k in b:
        rep = detect_pole(b_k)
        if rep.is_pole and (n_stop is None or rep.pole_index < n_stop):
            raise InvalidDenominatorError(
                "denominator parameter is a non-positive integer", b=b_k)
    if n_stop is None and z != 0:
        regime = classify_pfq(len(a), len(b), z)
        if regime == PFQClass.DIVERGES_NONZERO:
            raise DivergentSeriesError("series diverges for all nonzero z",
                                       p=len(a), q=len(b))
        if regime == PFQClass.CONVERGES_UNIT_DISK and abs(z) >= 1.0:
            raise DivergentSeriesError("series converges only on |z| < 1",
                                       z=z)
    term = 1.0 + 0.0j
    total = term
    size = 1.0  # sum |t_n|: eps times it bounds the sum's rounding
    ok = 0
    for n in range(PFQ_MAX_TERMS):
        if n_stop is not None and n >= n_stop:
            break
        factor = z / (n + 1.0)
        for a_j in a:
            factor *= a_j + n
        for b_k in b:
            factor /= b_k + n
        term = term * factor
        total += term
        size += abs(term)
        if not cmath.isfinite(total):  # a non-finite term makes it so too
            raise ConvergenceError("series terms overflow", terms=n + 1)
        if abs(term) < tol * max(abs(total), 1e-300):
            ok += 1
            if ok >= 3:
                break
        else:
            ok = 0
    else:
        raise ConvergenceError("series did not settle within the term "
                               "budget", terms=PFQ_MAX_TERMS)
    if _EPS * size <= tol * abs(total):
        return total
    try:
        return pfq_via_g(a, b, z, tol).value
    except MBIntError as exc:
        raise ConvergenceError("series terms cancel past tol, and the "
                               "contour integral refuses the input",
                               sum_abs_terms=size, value=total) from exc


def series_recurrence_residual(a, b, n):
    """Defect of the term ratio c_{n+1}/c_n against its closed form.

    Both terms are built independently from rising-factorial products, so a
    nonzero residual measures arithmetic noise, not modelling.  ``n`` is
    pochhammer's index, refused up front unless a nonnegative integer
    (check_index): with ``a`` and ``b`` empty, pochhammer is never called.
    """
    check_index(n)
    a = _complex_tuple(a)
    b = _complex_tuple(b)

    def coeff(k):
        num = 1.0 + 0.0j
        for a_j in a:
            num *= pochhammer(a_j, k)
        den = 1.0 + 0.0j
        for b_k in b:
            den *= pochhammer(b_k, k)
        return num / (den * math.factorial(k))

    c_n = coeff(n)
    c_n1 = coeff(n + 1)
    expected = 1.0 / (n + 1.0)
    for a_j in a:
        expected *= a_j + n
    for b_k in b:
        expected /= b_k + n
    if c_n == 0:
        return float(abs(expected)) if c_n1 != 0 else 0.0
    return float(abs(c_n1 / c_n - expected))


def _residue_side(kernel, z):
    """Which residue family sums to a convergent series, if any.

    By Delta = -sum sign * slope over kernel.terms = sum beta - sum alpha:
    the right side for Delta > 0, the left for Delta < 0, and for Delta = 0
    the right side inside the radius prod beta^beta prod alpha^-alpha of
    |z base|, the left outside it (Kilbas & Saigo, H-Transforms, 2004,
    section 1.1).  That radius is 1 for every G kernel.
    """
    betas, alphas = [], []  # by sign * slope < 0 and > 0, in term order
    for _, slope, sign, _ in kernel.terms:
        (betas if sign * slope < 0 else alphas).append(abs(slope))
    slack = sum(betas) - sum(alphas)
    if slack > 1e-12:
        return "right"
    if slack < -1e-12:
        return "left"
    radius = math.exp(sum(m * math.log(m) for m in betas)
                      - sum(m * math.log(m) for m in alphas))
    z_eff = abs(complex(z)) * abs(complex(kernel.base))
    if z_eff < radius:
        return "right"
    if z_eff > radius:
        return "left"
    return None


def _evaluate_kernel(kernel, z, tol, method=None, branch_k=0):
    """The one route rule of meijer_g, fox_h and pfq_via_g.

    Exactly 0 when the convergent residue side's loop encloses no pole
    (DLMF 16.17(ii), (iii)); the line for method="quad", and by default
    when it converges absolutely, no residue side converges or the kernel
    has no numerator gamma (integrate refuses a divergent line); else the
    convergent residue side, also after a quadrature that misses ``tol``.
    """
    if method not in (None, "quad", "residues"):
        raise ParameterError("method must be 'quad' or 'residues'",
                             method=method)
    z = mb.check_argument(z, tol)
    side = _residue_side(kernel, z)
    # where the numerator gammas' poles open: True for rightward
    opening = {slope < 0 for _, slope, sign, _ in kernel.terms if sign > 0}
    if method == "quad" or method is None and (side is None
                                               or not opening):
        return mb.integrate(kernel, z, tol=tol, branch_k=branch_k)
    if side is None:
        raise ConvergenceError("no residue side converges for this "
                               "argument", z=z)
    if opening and (side == "right") not in opening:
        return mb.EvalResult(value=0j, err_estimate=0.0, nodes_used=0,
                             method=mb._RESIDUE_METHOD[side],
                             arg_branch=branch_k)
    if method is None and mb.convergence_class(kernel, z, branch_k) \
            is mb.ConvergenceClass.ABSOLUTE:
        try:
            return mb.integrate(kernel, z, tol=tol, branch_k=branch_k)
        except QuadratureError:
            pass  # the residue side below
    return mb.residue_series(kernel, z, side, n_max=800, tol=tol,
                             branch_k=branch_k)


def meijer_g(params, z, tol=1e-10, method=None, branch_k=0):
    """G function of the given orders by contour integration.

    ``method`` forces "quad" or "residues".  By default (_evaluate_kernel)
    quadrature runs when the line integral converges absolutely, or when
    no residue series converges; every other input, a divergent line
    included, is summed on the side whose residue series converges, as is
    a line whose quadrature misses ``tol``.  z^0.3 e^-z = G^{1,0}_{0,1}(z |
    0.3) at z = -2, where the line diverges, is such a residue sum.

    For p = q the two residue series converge on opposite sides of
    |z| = 1, and when m + n - p <= 0 no vertical line joins them.  The
    residue route then sums the loop around the poles of Gamma(b_j - s)
    for |z| < 1 (DLMF 16.17(ii)) and the L- loop around the poles of
    Gamma(1 - a_j + s) for |z| > 1 (DLMF 16.17(iii)).  For |z| > 1 this
    equals mpmath.meijerg of the swapped parameters at 1/z (DLMF 16.19.1);
    mpmath.meijerg at z continues the |z| < 1 series instead, and can
    differ.
    """
    if not isinstance(params, GParams):
        raise ParameterError("expected GParams")
    return _evaluate_kernel(params.to_kernel(), z, tol, method, branch_k)


def fox_h(params, z, tol=1e-10, method=None, branch_k=0):
    """H function: the G machinery with scaled gamma arguments.

    The route is meijer_g's.  With Delta = sum beta - sum alpha = 0 the
    residue side is picked against the radius prod beta^beta
    prod alpha^-alpha of |z|, not against 1 (_residue_side).
    """
    if not isinstance(params, HParams):
        raise ParameterError("expected HParams")
    return _evaluate_kernel(params.to_kernel(), z, tol, method, branch_k)


def pfq_via_g(a, b, z, tol=1e-10):
    """The series rebuilt from its contour-integral representation.

    Evaluates the (1, p; p, q+1)-order G function at -z with parameters
    (1 - a_j; 0, 1 - b_k) by meijer_g's route rule, and restores the gamma
    prefactor.  Upper parameters on the pole ladder are a ParameterError
    (the poles of Gamma(-s) and Gamma(a_j + s) collide), as are non-finite
    parameters, z = 0 and z on the positive real axis, where arg(-z) hits
    the branch cut.  A prefactor or value past the double range raises
    ConvergenceError.
    """
    a = _complex_tuple(a)
    b = _complex_tuple(b)
    _check_finite_parameters(a, b)
    z = complex(z)
    p, q = len(a), len(b)
    params = GParams(m=1, n=p, p=p, q=q + 1,
                     a=tuple(1.0 - a_j for a_j in a),
                     b=(0.0,) + tuple(1.0 - b_k for b_k in b))
    for b_k in b:
        if detect_pole(b_k).is_pole:
            raise InvalidDenominatorError(
                "denominator parameter is a non-positive integer", b=b_k)
    w = -z
    if w.imag == 0.0 and w.real < 0.0:
        raise ParameterError("z on the positive real axis sits on the "
                             "arg(-z) branch cut", z=z)
    inner = _evaluate_kernel(params.to_kernel(), w, tol)
    pref_log = sum(log_gamma(b_k) for b_k in b) \
        - sum(log_gamma(a_j) for a_j in a)
    # Gamma(b) / Gamma(a) past the double range times an inner G that
    # underflowed to 0 is a nan, refused below
    with np.errstate(over="ignore"):
        pref = complex(np.exp(pref_log))
    value = pref * inner.value
    if not cmath.isfinite(value):
        raise ConvergenceError("prefactor or value past the double range",
                               log_prefactor=complex(pref_log))
    return mb.EvalResult(value=value,
                         err_estimate=abs(pref) * inner.err_estimate,
                         nodes_used=inner.nodes_used,
                         contour=inner.contour, method=inner.method,
                         arg_branch=inner.arg_branch)


# --------------------------------------------------------------------------
# the factored theta-operator equation


@dataclass(frozen=True)
class ThetaOperatorForm:
    """[sign * z * prod (theta - shift) - prod (theta - shift')] u = 0.

    left_factors holds the shifts a_j - 1 of the z-multiplied product,
    right_factors the shifts b_k of the other one; theta = z d/dz.
    """

    sign: int
    left_factors: tuple
    right_factors: tuple


def _theta_form(m, n, a, b):
    """The factored operator annihilating G^{m,n}_{p,q}(a; b)."""
    return ThetaOperatorForm(sign=(-1) ** ((len(a) - m - n) % 2),
                             left_factors=tuple(a_j - 1.0 for a_j in a),
                             right_factors=tuple(b))


def theta_form_from_g(params):
    """The factored operator annihilating the G function of these orders."""
    return _theta_form(params.m, params.n, params.a, params.b)


def derive_g_ode(fde, m=0, n=None):
    """Factored operator reached from a first-order FDE through its roots:
    theta_form_from_g's for a = 1 + rho, b = 1 + sigma (split_parameters,
    as for gamma_quotient's kernel).  Split indices that are not integers
    in 0 <= m <= q, 0 <= n <= p raise OrderError."""
    return _theta_form(*split_parameters(coefficient_roots(fde), m, n))


def _theta_derivatives(u_of, z, radius, max_order):
    """theta^k u at z for k = 0..max_order by Cauchy's integral formula.

    theta = d/dw with w = log z, so theta^k u = k! c_k for the Taylor
    coefficients c_k of w -> u(z e^w) at w = 0.  The trapezoidal rule on
    |w| = radius at n equally spaced points, one FFT, gives every c_k with
    an aliasing error of relative order radius^n (Lyness & Moler 1967;
    Trefethen & Weideman 2014); n = max(16, 2 (max_order + 1)).
    """
    n = max(16, 2 * (max_order + 1))
    w = radius * np.exp(2j * np.pi * np.arange(n) / n)
    values = np.array([complex(u_of(z * cmath.exp(w_j))) for w_j in w])
    c = np.fft.fft(values)[:max_order + 1] / n
    return [math.factorial(k) * c[k] / radius ** k
            for k in range(max_order + 1)]


def g_ode_residual(params, z, u=None):
    """Normalized defect of the factored operator applied to the function.

    ``u`` overrides the evaluator (default: meijer_g at G_ODE_EVAL_TOL),
    which lets callers check the operator against closed forms or a zero
    function.  theta^k u comes from u on the circle |log(z'/z)| =
    G_ODE_STEP (_theta_derivatives), which must stay on the principal
    branch: z finite and nonzero with |arg z| + G_ODE_STEP < pi; any other
    z is a ParameterError.
    """
    z = complex(z)
    if not (cmath.isfinite(z) and z != 0
            and abs(cmath.phase(z)) + G_ODE_STEP < math.pi):
        raise ParameterError("z must be finite and nonzero, with the circle "
                             "|log(z'/z)| = G_ODE_STEP clear of the negative "
                             "real axis", z=z)
    form = theta_form_from_g(params)
    if u is None:
        def u(zz):
            return meijer_g(params, zz, tol=G_ODE_EVAL_TOL).value
    thetas = _theta_derivatives(u, z, G_ODE_STEP, max(params.p, params.q))
    left_poly = polyroots.from_roots(form.left_factors)
    right_poly = polyroots.from_roots(form.right_factors)
    left = sum(left_poly[k] * thetas[k] for k in range(len(left_poly)))
    right = sum(right_poly[k] * thetas[k] for k in range(len(right_poly)))
    op = form.sign * z * left - right
    scale = max(abs(z * left), abs(right), abs(thetas[0]), 1e-300)
    return float(abs(op) / scale)
