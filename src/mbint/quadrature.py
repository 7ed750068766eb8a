"""Adaptive Gauss-Kronrod panels for complex-valued integrands.

The integrand must accept a real numpy array of abscissae and return complex
values of the same shape, elementwise.  Refinement runs in rounds, and each
round makes a single call of the integrand on the nodes of all its panels:
the first round evaluates the caller's opening panels, and each later round
bisects every panel whose estimate |K15 - G7| exceeds an equal share of the
target (target / number of panels), the worst panels first when the node
budget cannot take them all.  The final sum runs in interval order, so
results are deterministic and independent of the refinement history.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

MAX_NODES = 200000  # default integrand evaluations per integral

# QUADPACK dqk15 abscissae/weights on [-1, 1]
_XGK = np.array([
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144838258730, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245, 0.0,
])
_WGK = np.array([
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714,
])
_WG = np.array([
    0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
    0.381830050505118944950369775488975, 0.417959183673469387755102040816327,
])

NODES = np.concatenate([-_XGK[:7], _XGK[::-1]])
KRONROD_W = np.concatenate([_WGK[:7], _WGK[::-1]])
GAUSS_W = np.zeros(15)
GAUSS_W[1:14:2] = np.concatenate([_WG[:3], _WG[::-1]])


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


def panel_nodes(a, b):
    """The 15 Kronrod abscissae of every panel [a[i], b[i]], panel by panel."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    return (mid[:, None] + half[:, None] * NODES).ravel()


def kronrod_panels(f, a, b, fx=None):
    """K15 values and |K15 - G7| estimates on the panels [a[i], b[i]].

    Evaluates f once, on the 15 nodes of every panel (panel_nodes), unless
    the caller passes those values as ``fx``.
    """
    if fx is None:
        fx = f(panel_nodes(a, b))
    fx = fx.reshape(-1, 15)
    half = 0.5 * (b - a)
    # elementwise products, not BLAS `@`: the sums keep one fixed order, and
    # the first BLAS call would add to the resident memory
    vk = half * (fx * KRONROD_W).sum(axis=1)
    vg = half * (fx * GAUSS_W).sum(axis=1)
    return vk, np.abs(vk - vg)


# no caller in the package: kept because perfbench/tracing.py wraps it by name
def kronrod_panel(f, a, b):
    """K15 value and |K15 - G7| estimate of one panel [a, b]."""
    vk, err = kronrod_panels(f, np.array([a], dtype=float),
                             np.array([b], dtype=float))
    return complex(vk[0]), float(err[0])


def integrate_adaptive(f, edges, tol_rel=1e-10, max_nodes=MAX_NODES,
                       opening=None):
    """Integrate f over [edges[0], edges[-1]] to the requested relative
    target.

    ``edges`` (increasing) are the opening panels' endpoints: the first
    round evaluates every panel [edges[i], edges[i + 1]].  A mesh graded
    toward a singular endpoint resolves it there at once, where bisection
    from equal panels would take one round per halving.  ``opening`` is f
    on the opening nodes, panel_nodes(edges[:-1], edges[1:]), when the
    caller has it already; f is then called by refinement rounds only.
    """
    edges = np.asarray(edges, dtype=float)
    left, right = edges[:-1], edges[1:]
    vals, errs = kronrod_panels(f, left, right, opening)
    nodes = 15 * left.size
    while True:
        target = tol_rel * modulus(vals.sum())
        room = (max_nodes - nodes) // 30
        toterr = errs.sum()
        if toterr <= target or room <= 0 or not np.isfinite(toterr):
            break
        split = errs > target / errs.size
        # the worst panel always splits: a rounding-level excess of the sum
        # must not stall the round
        split[np.argmax(errs)] = True
        idx = np.flatnonzero(split)
        if idx.size > room:
            idx = idx[np.argsort(-errs[idx], kind="stable")[:room]]
        mid = 0.5 * (left[idx] + right[idx])
        new_vals, new_errs = kronrod_panels(
            f, np.concatenate([left[idx], mid]),
            np.concatenate([mid, right[idx]]))
        nodes += 30 * idx.size
        keep = np.ones(errs.size, dtype=bool)
        keep[idx] = False
        left = np.concatenate([left[keep], left[idx], mid])
        right = np.concatenate([right[keep], mid, right[idx]])
        vals = np.concatenate([vals[keep], new_vals])
        errs = np.concatenate([errs[keep], new_errs])
    order = np.argsort(left, kind="stable")
    value = complex(vals[order].sum())
    error = float(errs[order].sum())
    # a sum whose modulus passes the double range has no relative target
    converged = error <= tol_rel * modulus(value) < math.inf
    return QuadResult(value, error, nodes, converged)
