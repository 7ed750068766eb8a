"""The nested trapezoidal rule for complex-valued integrands that decay
double-exponentially at both ends of their window.

Both integrals of the package reach this rule through a map that makes
them so: the Mellin-Barnes line by y = sinh u, the Laplace transform by
t = exp(pi/2 sinh v).  On such integrands the trapezoidal rule converges
geometrically in 1/h, its error falling like e^{-2 pi d / h} for a strip
of half-width d (Trefethen & Weideman, SIAM Rev. 56 (2014), Thm 5.1;
Takahasi & Mori 1974), so each halving of h about squares it.  Halving h
keeps every node, and the nodes are the points of the lattice h Z in the
window, so they depend on nothing but the window and the level.  A call
of the line's integrand costs about as much as a few hundred of its
nodes, so the rule takes its levels in blocks, one call each: the first
call every level of up to FIRST_NODES nodes, and each later call the new
odd nodes of as many halvings as the squaring of the last two level
differences predicts the stop needs (one, where it does not show yet).
The blocks only group the levels into calls; a prediction that falls
short costs a call, one that overshoots costs nodes, and neither changes
a bit of the result.
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
_TINY = float(np.finfo(float).tiny)  # the least normal double


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
    nodes: int  # the last level's nodes
    calls: int  # integrand calls
    evaluated: int  # abscissae evaluated, over all calls
    converged: bool


kronrod_panel = None  # perfbench/tracing.py counts it by name (ROADMAP 0)


def integrate_adaptive(f, lo, hi, tol_rel=1e-10, max_nodes=MAX_NODES):
    """Integrate f over the window [lo, hi], widened outward to the lattice
    2 STEP Z, by the trapezoidal rule with nested halving of the step.

    ``f`` takes a real array of abscissae and returns (values, rounding):
    the complex integrand and, per node, a bound on its rounding in units
    of eps.  Every level is summed on its own, coarsest first.  Refinement
    stops once the last two levels differ by at most tol_rel times the
    value, or by no more than the rounding floor: eps times the rule
    applied to the rounding bounds, from the same sweep, below which the
    difference says nothing.  The error reported is that difference plus
    the floor, and ``nodes`` counts the last level's nodes.  A level the
    node budget cannot take, a non-finite value and a sum past the double
    range end the refinement, unconverged.

    The levels are evaluated in blocks, one call of ``f`` each, and each
    level's new nodes are read back as a slice of their block.  The first
    call evaluates the level of step STEP, whose even nodes are the level
    2 STEP, and every halving after it whose level has at most
    min(FIRST_NODES, max_nodes) nodes: the lattice of its finest level,
    ascending, of which each level's odd nodes are a strided slice.  Each
    later call evaluates the odd nodes of the levels down to the one that
    the last two level differences predict to meet the stop target
    (_reach), as far as max_nodes allows, or of the next level alone where
    they predict nothing: level by level, coarsest first, each ascending,
    so that each level is a contiguous slice.  The abscissae are the same
    lattice points however the calls split them, so the value, the error,
    ``nodes`` and the verdict are the rule's one level per call, bit for
    bit: a block only decides how many calls (``calls``) and nodes
    (``evaluated``) the rule pays.  A block short of the stop costs one
    more call, and one past it the nodes of its levels past the stop.
    """
    h = 2.0 * STEP
    start = h * math.floor(lo / h)
    n = max(math.ceil(hi / h) - math.floor(lo / h), 1)  # intervals of h
    stride = _stride(n, min(FIRST_NODES, max_nodes))
    block_fx, block_rx = f(start + (h / stride) * np.arange(stride * n + 1))
    calls, evaluated = 1, stride * n + 1
    base = None  # a later block's n when it was evaluated
    # each sum scales its values before adding them, so that a value in
    # the double range does not overflow on the way; the level 2 STEP's
    # endpoints carry half weight
    fx, rx = block_fx[::stride], block_rx[::stride]
    value = complex((h * fx).sum() - 0.5 * h * (fx[0] + fx[-1]))
    rounding = float((h * rx).sum() - 0.5 * h * (rx[0] + rx[-1]))
    diff = math.nan  # no two levels compared yet
    while True:
        if stride == 1:  # a call for the odd nodes of the next levels
            stride = _stride(n, _reach(n, before, diff, scale, target,
                                       max_nodes))
            # level by level, coarsest first: the level of step h / 2^m
            # has n 2^(m - 1) odd nodes, the odd multiples of its step
            x = np.concatenate([start + (h / 2 ** m) * np.arange(1, n << m, 2)
                                for m in range(1, stride.bit_length())])
            block_fx, block_rx = f(x)
            calls += 1
            evaluated += x.size
            base = n
        h *= 0.5
        n *= 2
        stride //= 2
        # the odd nodes of level h
        odd = slice(stride, None, 2 * stride) if base is None \
            else slice(n // 2 - base, n - base)
        fx, rx = block_fx[odd], block_rx[odd]
        previous = value
        value = 0.5 * value + complex((h * fx).sum())
        rounding = 0.5 * rounding + float((h * rx).sum())
        before, diff = diff, modulus(value - previous)
        scale = modulus(value)
        target = max(tol_rel * scale, _EPS * rounding)
        if diff <= target or not math.isfinite(scale) \
                or 2 * n + 1 > max_nodes:
            break
    error = diff + _EPS * rounding
    # a sum whose modulus passes the double range has no relative target
    converged = error <= tol_rel * scale < math.inf
    return QuadResult(value, error, n + 1, calls, evaluated, converged)


def _stride(n, reach):
    """2^k for the most halvings k >= 1 of a level of n intervals whose
    finest level has at most ``reach`` nodes; 2 if none has."""
    stride = 2
    while 2 * stride * n + 1 <= reach:
        stride *= 2
    return stride


def _reach(n, before, diff, scale, target, max_nodes):
    """The nodes of the level past the one of n intervals where the rule is
    predicted to stop, at most max_nodes; the next level's, 2 n + 1,
    where there is no prediction.

    The error e^{-2 pi d / h} about squares with each halving, so once the
    last two differences relative to the value's modulus ``scale``,
    a = ``before`` then b = ``diff``, show it (b < a < 1 and
    b <= a^1.5), each next difference is predicted as d^2 / C with
    C = a^2 / b, down to the first that meets the stop ``target``.
    Differences that rise, stall, fall slower, are subnormal or are not
    finite predict nothing.  The model runs on logarithms, so nothing in
    it can overflow or divide by 0.
    """
    if not (_TINY <= diff < before < scale < math.inf and 0.0 < target):
        return 2 * n + 1
    log_scale = math.log(scale)
    log_a = math.log(before) - log_scale
    log_b = math.log(diff) - log_scale
    if log_b > 1.5 * log_a:
        return 2 * n + 1
    log_target = math.log(target) - log_scale
    log_c = 2.0 * log_a - log_b
    log_d = 2.0 * log_b - log_c  # the next level's difference
    while log_d > log_target and 4 * n + 1 <= max_nodes:
        n *= 2
        log_d = 2.0 * log_d - log_c
    return 2 * n + 1
