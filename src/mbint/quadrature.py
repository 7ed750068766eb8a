"""The nested trapezoidal rule for complex-valued integrands that decay
double-exponentially at both ends of their window.

Both integrals of the package reach this rule through a map that makes
them so: the Mellin-Barnes line by y = sinh u, the Laplace transform by
t = exp(pi/2 sinh v).  On such integrands the trapezoidal rule converges
geometrically in 1/h (Trefethen & Weideman, SIAM Rev. 56 (2014); Takahasi
& Mori 1974), and halving h keeps every node: each halving evaluates only
the new odd nodes, in one call of the integrand.  The nodes are the points
of the lattice h Z in the window, so they do not depend on anything but
the window and the level.  The first call takes the first levels at once,
up to FIRST_NODES nodes: a call of the line's integrand costs about as
much as a few hundred of its nodes.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

MAX_NODES = 200000  # default integrand evaluations per integral
STEP = 0.125  # the coarsest level's step, shared by every caller
FIRST_NODES = 128  # the first call takes each level of at most this many nodes
_EPS = float(np.finfo(float).eps)


def modulus(value):
    """|complex(value)| in double: inf past the double range, where abs()
    of a complex with finite parts raises OverflowError."""
    value = complex(value)
    return math.hypot(value.real, value.imag)


def check_tolerance(tol):
    """Refuse (ParameterError) a ``tol`` that is not a positive finite
    number."""
    if not (isinstance(tol, numbers.Real) and tol > 0
            and math.isfinite(tol)):
        raise ParameterError("tolerance must be a positive finite number",
                             tol=tol)


@dataclass
class QuadResult:
    value: complex
    error: float
    nodes: int
    converged: bool


kronrod_panel = None  # perfbench/tracing.py counts it by name (ROADMAP 0)


def integrate_adaptive(f, lo, hi, tol_rel=1e-10, max_nodes=MAX_NODES):
    """Integrate f over the window [lo, hi], widened outward to the lattice
    2 STEP Z, by the trapezoidal rule with nested halving of the step.

    ``f`` takes a real array of abscissae and returns (values, rounding):
    the complex integrand and, per node, a bound on its rounding in units
    of eps.  The first call evaluates the level of step STEP, whose even
    nodes are the level 2 STEP, and every halving after it whose level has
    at most min(FIRST_NODES, max_nodes) nodes; the levels are read from it
    as strided slices, so the first comparisons of two levels cost one
    call.  Each halving past it adds the odd nodes, in one call.  Every
    level is summed on its own, coarsest first, and the abscissae are the
    same lattice points however the calls split them, so the result does
    not depend on FIRST_NODES.  Refinement stops once the last two levels
    differ by at most tol_rel times the value, or by no more than the
    rounding floor: eps times the rule applied to the rounding bounds, from
    the same sweep, below which the difference says nothing.  The error
    reported is that difference plus the floor, and ``nodes`` counts the
    last level's nodes, not the nodes evaluated.  A level the node budget
    cannot take, a non-finite value and a sum past the double range end
    the refinement, unconverged.
    """
    h = 2.0 * STEP
    start = h * math.floor(lo / h)
    n = max(math.ceil(hi / h) - math.floor(lo / h), 1)  # intervals of h
    stride = 2  # intervals of the first call's finest level per one of h
    while 2 * stride * n + 1 <= min(FIRST_NODES, max_nodes):
        stride *= 2
    first_fx, first_rx = f(start + (h / stride) * np.arange(stride * n + 1))
    nodes = 2 * n + 1
    # each sum scales its values before adding them, so that a value in
    # the double range does not overflow on the way; the level 2 STEP's
    # endpoints carry half weight
    fx, rx = first_fx[::stride], first_rx[::stride]
    value = complex((h * fx).sum() - 0.5 * h * (fx[0] + fx[-1]))
    rounding = float((h * rx).sum() - 0.5 * h * (rx[0] + rx[-1]))
    while True:
        h *= 0.5
        n *= 2
        if stride > 1:  # the odd nodes of level h, from the first call
            stride //= 2
            odd = slice(stride, None, 2 * stride)
            fx, rx = first_fx[odd], first_rx[odd]
        previous = value
        value = 0.5 * value + complex((h * fx).sum())
        rounding = 0.5 * rounding + float((h * rx).sum())
        diff = modulus(value - previous)
        if diff <= tol_rel * modulus(value) or diff <= _EPS * rounding \
                or not math.isfinite(modulus(value)) or nodes + n > max_nodes:
            break
        if stride == 1:
            fx, rx = f(start + h * (np.arange(n) + 0.5))
        nodes += n
    error = diff + _EPS * rounding
    # a sum whose modulus passes the double range has no relative target
    converged = error <= tol_rel * modulus(value) < math.inf
    return QuadResult(value, error, nodes, converged)
