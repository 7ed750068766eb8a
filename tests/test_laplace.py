import math

import mpmath
import numpy as np
import pytest

from mbint import cgamma, fde_solutions as fde, laplace, polyroots
from mbint.duality import CoefficientMatrix, ode_singular_polynomial
from mbint.errors import (DegreeError, DivergenceError, ParameterError,
                          QuadratureError, RepeatedRootError)
from mbint.quadrature import QuadResult

BETA_MATRIX = CoefficientMatrix(((0.0, -1.0), (1.0, -1.0)))


def beta_gamma_ratio(x, beta):
    """Oracle: Gamma(x) Gamma(beta) / Gamma(x + beta) via the log kernel."""
    return complex(np.exp(cgamma.log_gamma(x) + cgamma.log_gamma(beta)
                          - cgamma.log_gamma(x + beta)))


def ode_residual(psi, a0, a1, t):
    h = 1e-5
    dpsi = (psi(t + h) - psi(t - h)) / (2 * h)
    u = math.exp(-t)
    return abs(polyroots.polyval(np.asarray(a0, complex), u) * psi(t)
               + polyroots.polyval(np.asarray(a1, complex), u) * dpsi)


def test_solve_beta_closed_form():
    psi = laplace.solve_first_order_ode((0.0, -1.0), (1.0, -1.0))
    assert abs(psi.exponent_lambda) < 1e-14
    assert len(psi.factors) == 1
    z, mu = psi.factors[0]
    assert abs(z - 1.0) < 1e-13 and abs(mu - 1.0) < 1e-13
    for t in (0.3, 1.0, 2.7):
        assert abs(psi(t) - (1.0 - math.exp(-t))) < 1e-12
        assert ode_residual(psi, (0.0, -1.0), (1.0, -1.0), t) < 1e-9


def test_solve_zero_a0_gives_constant():
    psi = laplace.solve_first_order_ode((0.0,), (1.0, -0.5))
    assert psi.exponent_lambda == 0.0 and psi.factors == ()
    assert psi(1.23) == 1.0


def test_solve_two_factor_case():
    a0 = (0.0, 1.0)            # u
    a1 = (1.0, 0.0, -1.0)      # (1 - u)(1 + u)
    psi = laplace.solve_first_order_ode(a0, a1)
    assert len(psi.factors) == 2
    for t in (0.4, 1.5):
        assert ode_residual(psi, a0, a1, t) < 1e-9


def test_solve_repeated_root_rejected():
    with pytest.raises(RepeatedRootError):
        laplace.solve_first_order_ode((0.0, 1.0), (1.0, -2.0, 1.0))


def test_solve_degree_excess_rejected():
    with pytest.raises(DegreeError):
        laplace.solve_first_order_ode((0.0, 0.0, 1.0), (1.0, -1.0))


def test_solve_shared_factor_at_zero_cancels():
    # u * psi + u(1 - u) psi' = 0 reduces to the beta-type equation
    psi = laplace.solve_first_order_ode((0.0, 1.0), (0.0, 1.0, -1.0))
    assert len(psi.factors) == 1


def test_solve_unshared_zero_root_rejected():
    with pytest.raises(DegreeError):
        laplace.solve_first_order_ode((1.0,), (0.0, 1.0))


def test_transform_of_constant():
    psi = laplace.solve_first_order_ode((0.0,), (1.0, -0.5))
    got = laplace.laplace_transform(psi, 2.0, tol=1e-11)
    assert abs(got - 0.5) < 1e-10


@pytest.mark.parametrize("beta,x", [(2.0, 2.5), (3.5, 1.5), (2.0, 1.5),
                                    (3.5, 2.5)])
def test_transform_matches_gamma_ratio_oracle(beta, x):
    psi = laplace.solve_first_order_ode((0.0, -(beta - 1.0)), (1.0, -1.0))
    got = laplace.laplace_transform(psi, x, tol=1e-9)
    oracle = beta_gamma_ratio(x, beta)
    assert abs(got - oracle) / abs(oracle) < 1e-6


def test_transform_endpoint_singularity_substitution():
    # beta = 0.5 gives psi ~ t^(-1/2) at the origin
    beta = 0.5
    psi = laplace.solve_first_order_ode((0.0, -(beta - 1.0)), (1.0, -1.0))
    assert psi.singular_exponent().real == pytest.approx(-0.5, abs=1e-12)
    got = laplace.laplace_transform(psi, 1.5, tol=1e-9)
    oracle = beta_gamma_ratio(1.5, beta)
    assert abs(got - oracle) / abs(oracle) < 1e-6


@pytest.mark.parametrize("beta", [0.01, 0.03, 0.05, 0.5, 1.17, 1.5, 2.3])
@pytest.mark.parametrize("x", [1.5, 0.7 + 2.0j])
def test_transform_matches_mpmath_beta(beta, x):
    # B(x, beta) = int_0^inf e^{-xt} (1 - e^{-t})^{beta - 1} dt, with
    # mu* = beta - 1 from -0.99 (t = exp(pi/2 sinh v) underflows to t = 0
    # on the innermost head nodes) to 1.3, held to the requested tolerance
    psi = laplace.solve_first_order_ode((0.0, -(beta - 1.0)), (1.0, -1.0))
    got = laplace.laplace_transform(psi, x, tol=1e-9)
    with mpmath.workdps(30):
        oracle = complex(mpmath.beta(x, beta))
    assert abs(got - oracle) <= 1e-9 * abs(oracle)


def recorded_runs(monkeypatch):
    """Patch laplace.integrate_adaptive to record, per call, its edges, its
    QuadResult and the v nodes of each round."""
    runs = []
    integrate_adaptive = laplace.integrate_adaptive

    def recorded(f, edges, **kwargs):
        rounds = []

        def g(v):
            rounds.append(np.array(v))
            return f(v)
        res = integrate_adaptive(g, edges, **kwargs)
        runs.append((np.asarray(edges), res, rounds))
        return res
    monkeypatch.setattr(laplace, "integrate_adaptive", recorded)
    return runs


def the_one_run(runs):
    """The transform's only integrate_adaptive call."""
    assert len(runs) == 1
    return runs[0]


def test_singular_head_converges_in_its_opening_round(monkeypatch):
    # psi ~ t^0.17: under the map the head is resolved by its opening
    # panels, so no refinement round places a node at v < 0 (t < 1)
    runs = recorded_runs(monkeypatch)
    psi = laplace.solve_first_order_ode((0.0, -0.17), (1.0, -1.0))
    laplace.laplace_transform(psi, 1.5, tol=1e-9)
    _, res, rounds = the_one_run(runs)
    assert res.converged
    assert all(np.all(nodes > 0.0) for nodes in rounds[1:])


@pytest.mark.parametrize("beta", [2.0, 3.0])
def test_analytic_head_opens_on_equal_panels(monkeypatch, beta):
    # mu* = beta - 1 a positive integer: psi = (1 - e^{-t})^{beta - 1} is
    # analytic at t = 0; the map opens equal panels of width 1/2 in v from
    # the head cut through v = 0 (t = 1) to the far cut, and the head is
    # resolved in the opening round
    runs = recorded_runs(monkeypatch)
    psi = laplace.solve_first_order_ode((0.0, -(beta - 1.0)), (1.0, -1.0))
    assert psi.singular_exponent() == beta - 1.0
    got = laplace.laplace_transform(psi, 1.5, tol=1e-9)
    edges, res, rounds = the_one_run(runs)
    assert np.array_equal(edges, 0.5 * np.arange(2 * edges[0],
                                                 2 * edges[-1] + 1))
    assert edges[0] < 0.0 < edges[-1]
    assert res.converged
    assert all(np.all(nodes > 0.0) for nodes in rounds[1:])
    with mpmath.workdps(30):
        oracle = complex(mpmath.beta(1.5, beta))
    assert abs(got - oracle) <= 1e-9 * abs(oracle)


@pytest.mark.parametrize("beta", [0.01, 0.5, 1.17, 2.0, 50.0])
def test_one_quadrature_call_per_transform(monkeypatch, beta):
    # singular, analytic and small-valued (beta = 2, 50) transforms share
    # the one map: the head in v < 0, the rest from v = 0 (t = 1)
    runs = recorded_runs(monkeypatch)
    psi = laplace.solve_first_order_ode((0.0, -(beta - 1.0)), (1.0, -1.0))
    laplace.laplace_transform(psi, 1.5, tol=1e-9)
    edges, _, _ = the_one_run(runs)
    assert edges[0] < 0.0 and 0.0 in edges


@pytest.mark.parametrize("x,beta,tol", [(2.0, 5.0, 1e-6), (1.5, 50.0, 1e-9),
                                        (20.0, 200.0, 1e-9)])
def test_tail_is_sized_relative_to_a_small_value(x, beta, tol):
    # |B(x, beta)| = 1/30, 0.0025 and 4.6e-30: a tail bound below tol / 4 in
    # absolute terms left B(2, 5) 1.69e-6 off and refused B(1.5, 50)
    # outright; a far cut at that bound refuses B(20, 200)
    psi = laplace.solve_first_order_ode((0.0, -(beta - 1.0)), (1.0, -1.0))
    got = laplace.laplace_transform(psi, x, tol=tol)
    with mpmath.workdps(30):
        oracle = complex(mpmath.beta(x, beta))
    assert abs(got - oracle) <= tol * abs(oracle)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_flattened_head_on_a_tall_mesh_stays_finite():
    # beta = 0.01 cuts the head at log t_lo = -3270, so t underflows to 0
    # on its innermost nodes, and x = 0.05 puts the far cut past t = 1e4
    psi = laplace.solve_first_order_ode((0.0, 0.99), (1.0, -1.0))
    got = laplace.laplace_transform(psi, 0.05, tol=1e-9)
    with mpmath.workdps(30):
        oracle = complex(mpmath.beta(0.05, 0.01))
    assert abs(got - oracle) <= 1e-9 * abs(oracle)


def test_non_finite_quadrature_is_refused(monkeypatch):
    monkeypatch.setattr(laplace, "integrate_adaptive",
                        lambda f, edges, **kwargs: QuadResult(
                            complex(math.nan, math.nan), math.nan, 0, False))
    psi = laplace.solve_first_order_ode((0.0, -1.0), (1.0, -1.0))
    with pytest.raises(QuadratureError):
        laplace.laplace_transform(psi, 1.5)


def test_tail_oscillating_past_the_node_budget_is_refused_first(monkeypatch):
    # rate 1e-10: the tail stays above tol for about 5e11 units of t, where
    # e^{-i t} turns about 7e10 times, far more than the budget has nodes
    def no_quadrature(*args, **kwargs):
        raise AssertionError("quadrature ran before the tail was refused")

    monkeypatch.setattr(laplace, "integrate_adaptive", no_quadrature)
    psi = laplace.ClosedFormPsi(0.0, ((1.0, -0.5),))
    with pytest.raises(QuadratureError, match="node budget"):
        laplace.laplace_transform(psi, 1e-10 + 1j)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("beta", [1e-6, 1e-4, 2e-4])
@pytest.mark.parametrize("x", [1.5, 2.0])
def test_near_divergent_head_matches_mpmath_beta(beta, x):
    # mu* = beta - 1 just above -1: the head holds nearly all of
    # B(x, beta) ~ 1 / beta; the t = s^k flattening with a graded mesh
    # returned these 8e-7 to 2.2e-4 off, with no error raised
    psi = laplace.solve_first_order_ode((0.0, -(beta - 1.0)), (1.0, -1.0))
    got = laplace.laplace_transform(psi, x, tol=1e-9)
    with mpmath.workdps(30):
        oracle = complex(mpmath.beta(x, beta))
    assert abs(got - oracle) <= 1e-9 * abs(oracle)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("tol", [1e-6, 1e-9, 1e-12])
def test_head_cut_scales_with_x(tol):
    # e^{-200 t} puts B(200, 5) ~ 24 / 200^5 on t < 0.1: a head cut from
    # tol alone, not from |x|, missed it by 6.7e-3
    psi = laplace.solve_first_order_ode((0.0, -4.0), (1.0, -1.0))
    got = laplace.laplace_transform(psi, 200.0, tol=tol)
    with mpmath.workdps(30):
        oracle = complex(mpmath.beta(200.0, 5.0))
    assert abs(got - oracle) <= tol * abs(oracle)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("lam", [-1.0, 0.5, 2.0, 5.0, 30.0, 100.0])
@pytest.mark.parametrize("beta", [0.4, 1.0, 2.5])
@pytest.mark.parametrize("shift", [0.02, 0.1, 1.0, 3.0])
@pytest.mark.parametrize("im", [0.0, 0.5, 4.0])
def test_shifted_beta_matches_mpmath_beta(lam, beta, shift, im):
    # psi = e^{lam t} (1 - e^{-t})^{beta - 1} has the transform
    # B(x - lam, beta); e^{lam t} and e^{-x t} taken apart overflowed
    # (an untyped OverflowError for half of these) before the log sum
    psi = laplace.ClosedFormPsi(lam, ((1.0, beta - 1.0),))
    x = complex(lam + shift, im)
    got = laplace.laplace_transform(psi, x, tol=1e-9)
    with mpmath.workdps(30):
        oracle = complex(mpmath.beta(mpmath.mpc(x) - lam, beta))
    assert abs(got - oracle) <= 1e-9 * abs(oracle)


def test_psi_is_its_log_exponentiated_once():
    # e^{lambda t} alone overflows at t = 8 for lambda = 100; psi does not
    psi = laplace.ClosedFormPsi(100.0, ((1.0, -0.6), (3.0j, 0.7)), 1e-300)
    t = np.array([0.5, 8.0])
    log_psi = (math.log(1e-300) + 100.0 * t - 0.6 * np.log(-np.expm1(-t))
               + 0.7 * np.log(1.0 - np.exp(-t) / 3.0j))
    assert np.allclose(psi.log(t), log_psi, rtol=1e-15)
    assert np.allclose(psi(t), np.exp(log_psi), rtol=1e-13)
    assert isinstance(psi(8.0), complex)


@pytest.mark.parametrize("normalization", [0.0, math.inf, math.nan])
def test_psi_normalization_must_be_finite_and_nonzero(normalization):
    with pytest.raises(ParameterError):
        laplace.ClosedFormPsi(0.0, (), normalization)


def test_root_near_one_is_the_endpoint():
    # a rounded root 1 + 2e-16 is the endpoint: psi ~ t^mu, not (t + 2e-16)^mu
    near = laplace.ClosedFormPsi(0.3, ((1.0 + 2e-16, -0.5), (3.0j, 0.7)))
    exact = laplace.ClosedFormPsi(0.3, ((1.0, -0.5), (3.0j, 0.7)))
    assert near.factors == exact.factors
    assert near.singular_exponent() == exact.singular_exponent() == -0.5
    for t in (1e-15, 1e-12, 1e-8, 0.5):
        assert near(t) == exact(t)


def test_transform_with_rounded_endpoint_root():
    # A1 = (u - 1)(u - r): the computed root at u = 1 is off by about 1e-16,
    # which moved the transform by 3e-8 when psi was evaluated at it
    r = 0.9502149828372805 + 3.7270979601380425j
    mu1 = -0.5266690493233277
    mu2 = -0.37735582080602614 + 0.1898081820264611j
    lam = -0.3277971123652784
    x = 2.6895520721973813 - 0.007123370713692956j
    a1 = polyroots.from_roots([1.0, r])
    a0 = (-lam * a1 + mu1 * polyroots.from_roots([0.0, r])
          + mu2 * polyroots.from_roots([0.0, 1.0]))
    psi = laplace.solve_first_order_ode(a0, a1)
    got = laplace.laplace_transform(psi, x, tol=1e-9)
    # u = e^{-t}: the transform is a beta-type integral over [0, 1]
    with mpmath.workdps(30):
        oracle = complex(mpmath.quad(
            lambda u: u ** (x - lam - 1) * (1 - u) ** mu1
            * (1 - u / r) ** mu2, [0, 1]))
    assert abs(got - oracle) < 1e-9 * abs(oracle)


def test_transform_divergence_guards():
    psi = laplace.solve_first_order_ode((0.0,), (1.0, -0.5))  # lambda = 0
    with pytest.raises(DivergenceError):
        laplace.laplace_transform(psi, 0.0)
    bad = laplace.ClosedFormPsi(0.0, ((1.0 + 0.0j, -1.2 + 0.0j),))
    with pytest.raises(DivergenceError):
        laplace.laplace_transform(bad, 2.0)


def test_fde_numeric_residual_trivial_pair():
    A = CoefficientMatrix(((0.0, 0.0), (1.0, -1.0)))
    assert laplace.fde_numeric_residual(A, lambda x: 1.0 / x, 1.7) < 1e-15


def test_fde_numeric_residual_beta_pipeline():
    psi = laplace.solve_first_order_ode(BETA_MATRIX.row(0),
                                        BETA_MATRIX.row(1))

    def f(x):
        return laplace.laplace_transform(psi, x, tol=1e-9)

    assert laplace.fde_numeric_residual(BETA_MATRIX, f, 1.5) < 1e-6


def test_fde_numeric_residual_gamma_quotient_evaluator():
    inst = fde.FirstOrderFDE.from_matrix(BETA_MATRIX)
    roots = fde.coefficient_roots(inst)
    kernel = fde.gamma_quotient(roots)

    def f(x):
        return fde.solution_value(kernel, x)

    assert laplace.fde_numeric_residual(BETA_MATRIX, f, 2.3) < 1e-11
    assert laplace.fde_numeric_residual(BETA_MATRIX, f, 0.8 + 1.1j) < 1e-11


def test_transform_and_gamma_quotient_agree_up_to_constant():
    # the two solution routes may differ by an x-independent factor only
    psi = laplace.solve_first_order_ode(BETA_MATRIX.row(0),
                                        BETA_MATRIX.row(1))
    inst = fde.FirstOrderFDE.from_matrix(BETA_MATRIX)
    kernel = fde.gamma_quotient(fde.coefficient_roots(inst))
    ratios = []
    for x in (1.5, 2.5, 3.5):
        lhs = laplace.laplace_transform(psi, x, tol=1e-9)
        rhs = fde.solution_value(kernel, x)
        ratios.append(lhs / rhs)
    for r in ratios[1:]:
        assert abs(r / ratios[0] - 1.0) < 1e-6


def test_singular_points_match_ode_polynomial_roots():
    a1 = (1.0, 0.3, -0.8)
    psi = laplace.solve_first_order_ode((0.0, 0.7), a1)
    matrix_rows = ((0.0, 0.7, 0.0), a1)
    A = CoefficientMatrix(matrix_rows)
    sing = sorted(polyroots.roots(ode_singular_polynomial(A)),
                  key=lambda z: z.real)
    mine = sorted((z for z, _ in psi.factors), key=lambda z: z.real)
    assert np.allclose(sing, mine, atol=1e-10)


def test_shift_identity():
    psi = laplace.solve_first_order_ode((0.0, -1.5), (1.0, -1.0))
    x = 2.2
    lhs = laplace.laplace_transform(psi, x + 1.0, tol=1e-10)
    rhs = laplace.laplace_transform(psi.damped(), x, tol=1e-10)
    assert abs(lhs - rhs) / abs(rhs) < 1e-8


def test_a1_identically_zero_rejected():
    with pytest.raises(ParameterError):
        laplace.solve_first_order_ode((1.0,), (0.0,))


@pytest.mark.parametrize("x", [math.nan, math.inf, complex(2.0, math.inf)])
def test_transform_refuses_non_finite_argument(x):
    psi = laplace.solve_first_order_ode((0.0, -1.0), (1.0, -1.0))
    with pytest.raises(ParameterError):
        laplace.laplace_transform(psi, x)


@pytest.mark.parametrize("tol", [0.0, -1e-10, math.nan, math.inf, None])
def test_transform_tolerance_must_be_positive_and_finite(tol):
    psi = laplace.solve_first_order_ode((0.0, -1.0), (1.0, -1.0))
    with pytest.raises(ParameterError):
        laplace.laplace_transform(psi, 2.0, tol=tol)
