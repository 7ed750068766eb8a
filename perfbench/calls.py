"""Turn a bank case into a zero-argument call into mbint's public API.

Every call looks its functions up on the mbint modules when it runs, so
the traced run sees them through the wrappers that tracing.py installs.
Building the library's input objects (GParams, CoefficientMatrix, ...)
is part of the call, as it is for a user holding only the raw inputs.
"""

from mbint import duality, laplace
from mbint import fde_solutions as fde
from mbint import special_functions as sf


def _g(case):
    m, n, p, q = case["m"], case["n"], case["p"], case["q"]
    a, b, z = case["a"], case["b"], case["z"]
    tol, method = case["tol"], case["method"]

    def call():
        return sf.meijer_g(sf.GParams(m, n, p, q, a, b), z, tol=tol,
                           method=method)
    return call


def _h(case):
    m, n, p, q = case["m"], case["n"], case["p"], case["q"]
    a, b, alpha, beta = case["a"], case["b"], case["alpha"], case["beta"]
    z, tol, method = case["z"], case["tol"], case["method"]

    def call():
        return sf.fox_h(sf.HParams(m, n, p, q, a, b, alpha, beta), z,
                        tol=tol, method=method)
    return call


def _pfq_via_g(case):
    a, b, z, tol = case["a"], case["b"], case["z"], case["tol"]

    def call():
        return sf.pfq_via_g(a, b, z, tol=tol)
    return call


def _pfq(case):
    a, b, z, tol = case["a"], case["b"], case["z"], case["tol"]

    def call():
        return sf.pfq(a, b, z, tol=tol)
    return call


def _pipeline(case):
    """The pochhammer-check pipeline: duality views, the closed-form ODE
    solution, and its transform inside the difference-equation residual.
    Returns (transform values at x, x+1, ..., x+d; residual)."""
    rows, x, tol = case["rows"], case["x"], case["tol"]

    def call():
        matrix = duality.CoefficientMatrix(rows)
        ode = duality.as_ode(matrix)
        duality.as_fde(matrix)
        duality.orders(matrix)
        psi = laplace.solve_first_order_ode(ode.coefficient(0),
                                            ode.coefficient(1))
        values = []

        def f(xx):
            v = laplace.laplace_transform(psi, xx, tol=tol)
            values.append(v)
            return v

        residual = laplace.fde_numeric_residual(matrix, f, x)
        return tuple(values), residual
    return call


def _fde(case):
    """Closed-form FDE solution in one split arrangement.
    Returns (f(x), ratio-identity residual at x)."""
    p_poly, q_poly = case["p_poly"], case["q_poly"]
    m, n, x = case["m"], case["n"], case["x"]

    def call():
        roots = fde.coefficient_roots(fde.FirstOrderFDE(p_poly, q_poly))
        kernel = fde.gamma_quotient(roots, m, n)
        return (fde.solution_value(kernel, x),
                fde.fde_ratio_residual(kernel, roots, x))
    return call


_MAKERS = {"g": _g, "h": _h, "pfq_via_g": _pfq_via_g, "pfq": _pfq,
           "pipeline": _pipeline, "fde": _fde}


def make_call(case):
    return _MAKERS[case["kind"]](case)
