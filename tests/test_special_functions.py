import cmath
import math

import mpmath
import numpy as np
import pytest

from mbint import mellin_barnes as mb
from mbint import special_functions as sf
from mbint import verification
from mbint.errors import (ConvergenceError, DivergentSeriesError,
                          InvalidDenominatorError, NonConvergentSeriesError,
                          OrderError, ParameterError, QuadratureError)
from mbint.fde_solutions import FirstOrderFDE

TWO_LOG_TWO = 1.3862943611198906        # 2F1(1,1;2;1/2) = -log(1-z)/z
ONE_MINUS_E_INV = 0.6321205588285577    # (e^z - 1)/z at z = -1


def test_pfq_exponential():
    assert abs(sf.pfq((), (), 1.0) - math.e) < 1e-12 * math.e


def test_pfq_binomial_closed_form():
    # 1F0(a;;z) = (1-z)^(-a)
    for a, z in ((2.0, 0.5), (1.3, -0.4), (0.7, 0.25)):
        exact = (1.0 - z) ** (-a)
        assert abs(sf.pfq((a,), (), z) - exact) < 1e-12 * abs(exact)


def test_pfq_gauss_log_value():
    got = sf.pfq((1.0, 1.0), (2.0,), 0.5)
    assert abs(got - TWO_LOG_TWO) < 1e-12 * TWO_LOG_TWO


def test_pfq_terminating_polynomial():
    # upper parameter -2 terminates the series after three monomials
    a, b, z = -2.0, 1.5, 3.0
    exact = 1.0 + a * z / b + a * (a + 1) * z * z / (b * (b + 1) * 2.0)
    assert abs(sf.pfq((a,), (b,), z) - exact) < 1e-13 * abs(exact)


def test_pfq_termination_precedes_denominator_validation():
    # terminates at degree 2 before the (b)_n = (-5)_n factor can vanish
    got = sf.pfq((-2.0,), (-5.0,), 2.0)
    exact = 1.0 + (-2.0) * 2.0 / -5.0 + ((-2) * (-1)) * 4.0 / ((-5) * (-4) * 2)
    assert abs(got - exact) < 1e-13 * abs(exact)


def test_pfq_invalid_denominator():
    with pytest.raises(InvalidDenominatorError):
        sf.pfq((1.0,), (-2.0,), 0.5)


def test_pfq_divergence_guards():
    with pytest.raises(DivergentSeriesError):
        sf.pfq((1.0, 1.0, 1.0), (2.0,), 0.1)      # p > q + 1
    with pytest.raises(DivergentSeriesError):
        sf.pfq((1.0, 1.0), (2.0,), 1.0)           # p = q + 1 on the circle
    assert sf.pfq((1.0, 1.0, 1.0), (2.0,), 0.0) == 1.0


def test_classify_pfq_trichotomy():
    assert sf.classify_pfq(1, 2, 100.0) == sf.PFQClass.CONVERGES_EVERYWHERE
    assert sf.classify_pfq(2, 1, 0.5) == sf.PFQClass.CONVERGES_UNIT_DISK
    assert sf.classify_pfq(3, 1, 0.1) == sf.PFQClass.DIVERGES_NONZERO


def test_series_recurrence_residual_examples():
    assert sf.series_recurrence_residual((1.0, 1.0), (2.0,), 3) < 1e-15
    rng = np.random.default_rng(41)
    a = tuple(rng.uniform(0.3, 2.5, 2))
    b = tuple(rng.uniform(0.5, 2.5, 2))
    assert sf.series_recurrence_residual(a, b, 0) < 1e-15
    assert sf.series_recurrence_residual((-2.0, 1.1), (0.7,), 2) == 0.0


def test_meijer_g_exponential_both_methods():
    params = sf.GParams(1, 0, 0, 1, (), (0.5,))
    exact = 2.0 ** 0.5 * math.exp(-2.0)
    quad = sf.meijer_g(params, 2.0, tol=1e-11, method="quad")
    res = sf.meijer_g(params, 2.0, tol=1e-11, method="residues")
    assert abs(quad.value - exact) < 1e-10 * exact
    assert abs(res.value - exact) < 1e-10 * exact
    assert quad.method == "quadrature" and res.method == "residues_right"


def test_meijer_g_empty_numerator_rejected():
    params = sf.GParams(0, 0, 1, 1, (0.3,), (0.1,))
    with pytest.raises(ConvergenceError):
        sf.meijer_g(params, 0.5)


def test_meijer_g_confluent_embedding():
    # order-(1,1;1,2) G at argument 1 embeds the z = -1 confluent series
    params = sf.GParams(1, 1, 1, 2, (0.0,), (0.0, -1.0))
    got = sf.meijer_g(params, 1.0, tol=1e-11)
    oracle = complex(sf.pfq((1.0,), (2.0,), -1.0))  # prefactor is Gamma(1)/Gamma(2) = 1
    assert abs(got.value - oracle) < 1e-9 * abs(oracle)


def test_meijer_g_zero_argument_rejected():
    with pytest.raises(ParameterError):
        sf.meijer_g(sf.GParams(1, 0, 0, 1, (), (0.0,)), 0.0)


def test_gparams_invariants():
    with pytest.raises(ParameterError):
        sf.GParams(2, 0, 0, 1, (), (0.0,))          # m > q
    with pytest.raises(ParameterError):
        sf.GParams(1, 1, 1, 1, (2.0,), (0.0,))      # a - b positive integer
    with pytest.raises(ParameterError):
        sf.GParams(1, 0, 0, 2, (), (0.0,))          # wrong vector length
    with pytest.raises(ParameterError):
        sf.GParams(0.5, 0, 0, 1, (), (0.0,))        # non-integer order
    # numpy integers are orders too
    assert sf.GParams(np.int64(1), np.int32(0), 0, 1, (), (0.0,)) \
        == sf.GParams(1, 0, 0, 1, (), (0.0,))


@pytest.mark.parametrize("args", [
    (1, 0.5, 1, 1, (0.3,), (0.0,), (1.0,), (1.0,)),  # non-integer order
    (1, 0, 0, 1, (), (0.5,), (), ()),                # empty beta, q = 1
    (1, 1, 1, 1, (0.3,), (0.0,), (), (1.0,)),        # empty alpha, p = 1
    (1, 0, 0, 1, (), (0.5,), (), (0.5, 1.0)),        # beta too long
    (1, 0, 0, 1, (), (0.5,), (), (0.0,)),            # zero multiplier
    (1, 1, 1, 1, (0.3,), (0.0,), (-1.0,), (1.0,)),   # negative multiplier
])
def test_hparams_invariants(args):
    with pytest.raises(ParameterError):
        sf.HParams(*args)


def test_meijer_g_node_budget_exhausted(monkeypatch):
    # too few nodes for the first round: "quad" refuses, default routing
    # falls back to the residue series
    monkeypatch.setattr(mb, "MAX_NODES", 60)
    params = sf.GParams(1, 0, 0, 1, (), (0.5,))
    exact = math.sqrt(2.0) * math.exp(-2.0)
    with pytest.raises(QuadratureError):
        sf.meijer_g(params, 2.0, method="quad")
    res = sf.meijer_g(params, 2.0)
    assert res.method == "residues_right"
    assert abs(res.value - exact) < 1e-10 * exact


def test_unbounded_tail_estimate_falls_back_to_residues():
    # kappa - |arg z| = 1e-3: the line converges absolutely, but the tail
    # decays too slowly to bound within tol, so quadrature refuses and the
    # default route answers by residues
    import mpmath
    params = sf.GParams(1, 1, 1, 1, (0.5,), (0.2,))
    z = 0.5 * cmath.exp(1j * (math.pi - 1e-3))
    res = sf.meijer_g(params, z)
    assert res.method == "residues_right"
    ref = complex(mpmath.meijerg([[0.5], []], [[0.2], []], z))
    assert abs(res.value - ref) <= 1e-9 * abs(ref)
    with pytest.raises(QuadratureError):
        sf.meijer_g(params, z, method="quad")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("method", [None, "residues"])
def test_residue_overflow_is_typed_without_warning(method):
    # z^0.3 e^-z by residues at z = 2000: terms near e^2000 overflow
    with pytest.raises(NonConvergentSeriesError, match="overflow"):
        sf.meijer_g(sf.GParams(1, 0, 0, 1, (), (0.3,)), 2000.0,
                    method=method)


@pytest.mark.parametrize("params,z", [
    (sf.GParams(1, 0, 1, 1, (0.7,), (0.2,)), 2.5),
    (sf.GParams(0, 1, 1, 2, (0.3,), (0.1, 0.6)), 1.7),
])
@pytest.mark.parametrize("method", [None, "residues"])
def test_empty_convergent_loop_is_zero(params, z, method):
    # the convergent side has no numerator gamma, so its loop encloses no
    # pole: G^{1,0}_{1,1}(z | a; b) = 0 for |z| > 1 (mpmath.meijerg agrees)
    res = sf.meijer_g(params, z, method=method)
    assert res.value == 0 and res.err_estimate == 0.0


def test_empty_convergent_loop_keeps_quad_refusal():
    params = sf.GParams(0, 1, 1, 2, (0.3,), (0.1, 0.6))
    with pytest.raises(ConvergenceError):
        sf.meijer_g(params, 1.7, method="quad")


def test_pfq_via_g_matches_closed_forms():
    for z in (-0.5, -0.25):
        exact = -math.log(1.0 - z) / z
        got = sf.pfq_via_g((1.0, 1.0), (2.0,), z, tol=1e-10)
        assert abs(got.value - exact) < 1e-8 * abs(exact)
    got = sf.pfq_via_g((1.0,), (2.0,), -1.0, tol=1e-10)
    assert abs(got.value - ONE_MINUS_E_INV) < 1e-8 * ONE_MINUS_E_INV


def test_pfq_via_g_extends_beyond_unit_disk():
    # the contour route continues the p = q+1 series past |z| = 1
    z = -3.0
    exact = -math.log(1.0 - z) / z
    got = sf.pfq_via_g((1.0, 1.0), (2.0,), z, tol=1e-10)
    assert abs(got.value - exact) < 1e-8 * abs(exact)


def test_pfq_via_g_parameter_ladder_rejected():
    with pytest.raises(ParameterError):
        sf.pfq_via_g((-1.0, 1.0), (2.0,), -0.5)


def test_pfq_via_g_positive_axis_rejected():
    with pytest.raises(ParameterError):
        sf.pfq_via_g((1.0, 1.0), (2.0,), 0.5)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("a,b,z", [((1.0,), (200.0,), -1.0),
                                   ((0.5,), (180.0,), -2.0)])
def test_pfq_via_g_prefactor_past_the_double_range_is_refused(a, b, z):
    # Gamma(b) / Gamma(a) ~ e^857 overflows and the inner G underflows to
    # 0: the product was a silent nan (mpmath.hyper gives 0.99502, 0.99449)
    with pytest.raises(ConvergenceError):
        sf.pfq_via_g(a, b, z)


def test_pfq_via_g_large_prefactor_within_range():
    # Gamma(150) ~ e^600 still fits a double, and the value with it
    a, b, z = (1.0,), (150.0,), -1.0 + 1.0j
    got = sf.pfq_via_g(a, b, z)
    with mpmath.workdps(30):
        oracle = complex(mpmath.hyper(a, b, z))
    assert abs(got.value - oracle) <= got.err_estimate


def test_pfq_via_g_agrees_with_series():
    rng = np.random.default_rng(42)
    params = (0.3, 1.2, 2.5)
    for z in (-0.5, -0.25, -0.25 + 0.25j):
        a = (params[0], params[1])
        b = (params[2],)
        series = sf.pfq(a, b, z, tol=1e-14)
        bridge = sf.pfq_via_g(a, b, z, tol=1e-10)
        assert abs(bridge.value - series) / abs(series) < 1e-8


def test_fox_h_unit_multipliers_reduce_to_g():
    params = sf.GParams(1, 1, 1, 2, (0.5,), (0.0, -0.5))
    hparams = sf.HParams(1, 1, 1, 2, (0.5,), (0.0, -0.5), (1.0,), (1.0, 1.0))
    z = 2.5
    g = sf.meijer_g(params, z, tol=1e-11)
    h = sf.fox_h(hparams, z, tol=1e-11)
    assert abs(g.value - h.value) < 1e-12 * abs(g.value)
    s = 0.1 + 0.9j
    assert mb.kernel_log_eval(params.to_kernel(), s) \
        == mb.kernel_log_eval(hparams.to_kernel(), s)


def test_fox_h_scaled_multiplier_closed_form():
    # H^{1,0}_{0,1}[z | (0, 2)] = exp(-sqrt(z)) / 2
    hparams = sf.HParams(1, 0, 0, 1, (), (0.0,), (), (2.0,))
    for z in (1.0, 2.0):
        exact = 0.5 * math.exp(-math.sqrt(z))
        quad = sf.fox_h(hparams, z, tol=1e-10, method="quad")
        res = sf.fox_h(hparams, z, tol=1e-10, method="residues")
        assert abs(quad.value - exact) < 1e-9 * exact
        assert abs(res.value - quad.value) < 1e-9 * abs(quad.value)
    _, right = mb.pole_families(hparams.to_kernel(), 3)
    assert np.allclose([p.location for p in right], [0.0, 0.5, 1.0])


def test_fox_h_zero_argument_rejected():
    hparams = sf.HParams(1, 0, 0, 1, (), (0.0,), (), (2.0,))
    with pytest.raises(ParameterError):
        sf.fox_h(hparams, 0.0)


def test_g_ode_residual_exponential():
    params = sf.GParams(1, 0, 0, 1, (), (0.0,))
    assert sf.g_ode_residual(params, 1.0, step=1e-2) < 1e-5


def test_g_ode_residual_gauss_embedding():
    params = sf.GParams(1, 2, 2, 2, (0.0, 0.0), (0.0, -1.0))
    assert sf.g_ode_residual(params, 0.25, step=1e-2) < 1e-4


def test_g_ode_residual_zero_function():
    params = sf.GParams(1, 0, 0, 1, (), (0.0,))
    assert sf.g_ode_residual(params, 1.0, step=1e-2, u=lambda z: 0.0) == 0.0


@pytest.mark.parametrize("z", [1 + 1j, 2 + 0j, 0.0, -1.0, math.nan,
                               math.inf])
def test_g_ode_residual_needs_real_positive_finite_z(z):
    params = sf.GParams(1, 0, 0, 1, (), (0.0,))
    with pytest.raises(ParameterError):
        sf.g_ode_residual(params, z, u=lambda zz: 0.0)


def test_theta_form_from_g_shape():
    params = sf.GParams(1, 0, 0, 1, (), (0.0,))
    form = sf.theta_form_from_g(params)
    assert form.sign == -1                       # (-1)^(p - m - n) = (-1)^(-1)
    assert form.left_factors == ()
    assert form.right_factors == (0.0,)


def test_derive_g_ode_beta_instance():
    inst = FirstOrderFDE((0.0, 1.0), (-2.0, -1.0))
    form = sf.derive_g_ode(inst, m=1, n=0)
    assert form.sign == 1
    assert form.left_factors == (0.0,)           # a1 = 1 + rho = 1, shift 0
    assert form.right_factors == (-1.0,)         # b1 = 1 + sigma = -1
    assert form.z_multiplies_left


def test_derive_g_ode_structural_equality():
    rng = np.random.default_rng(43)
    from mbint import polyroots
    from mbint.fde_solutions import coefficient_roots
    for _ in range(100):
        p = int(rng.integers(1, 4))
        q = int(rng.integers(1, 4))
        rho = rng.uniform(-3, 3, p) + 1j * rng.uniform(-3, 3, p)
        sigma = rng.uniform(-3, 3, q) + 1j * rng.uniform(-3, 3, q)
        inst = FirstOrderFDE(tuple(polyroots.from_roots(rho, 1.0)),
                             tuple(polyroots.from_roots(sigma, 2.0)))
        roots = coefficient_roots(inst)
        m = int(rng.integers(0, q + 1))
        n = int(rng.integers(0, p + 1))
        derived = sf.derive_g_ode(inst, m=m, n=n)
        params = sf.GParams(m, n, p, q,
                            tuple(1.0 + r for r in roots.rho),
                            tuple(1.0 + s for s in roots.sigma))
        assert derived == sf.theta_form_from_g(params)


def test_derive_g_ode_split_range():
    inst = FirstOrderFDE((0.0, 1.0), (-2.0, -1.0))
    with pytest.raises(OrderError):
        sf.derive_g_ode(inst, m=5, n=0)
    with pytest.raises(OrderError):
        sf.derive_g_ode(inst, m=0.5, n=0)  # not a complex sign
    assert sf.derive_g_ode(inst, m=np.int64(1), n=np.int64(0)) \
        == sf.derive_g_ode(inst, m=1, n=0)


def test_special_suite_invariants():
    for check in verification.suite_special(seed=9):
        assert check.passed, check


def test_non_finite_parameters_are_refused():
    nan = math.nan
    with pytest.raises(ParameterError):
        sf.GParams(1, 0, 0, 1, (), (nan,))
    with pytest.raises(ParameterError):
        sf.GParams(1, 1, 1, 1, (math.inf,), (0.5,))
    with pytest.raises(ParameterError):
        sf.HParams(1, 0, 0, 1, (), (0.5,), (), (nan,))
    with pytest.raises(ParameterError):
        sf.HParams(1, 1, 1, 1, (0.2,), (0.5,), (math.inf,), (1.0,))


@pytest.mark.parametrize("z", [math.inf, math.nan, complex(-math.inf, 1.0)])
def test_non_finite_argument_is_refused(z):
    g = sf.GParams(1, 0, 0, 1, (), (0.5,))
    h = sf.HParams(1, 0, 0, 1, (), (0.5,), (), (2.0,))
    for method in (None, "quad", "residues"):
        with pytest.raises(ParameterError):
            sf.meijer_g(g, z, method=method)
        with pytest.raises(ParameterError):
            sf.fox_h(h, z, method=method)
    with pytest.raises(ParameterError):
        sf.pfq_via_g((0.5,), (1.5,), z)
    # the series used to spend its whole term budget on a non-finite z and
    # end in ConvergenceError
    with pytest.raises(ParameterError):
        sf.pfq((0.5,), (1.5,), z)


@pytest.mark.parametrize("tol", [0.0, -1e-10, math.nan, math.inf, None])
def test_tolerance_must_be_positive_and_finite(tol):
    g = sf.GParams(1, 0, 0, 1, (), (0.5,))
    for method in (None, "quad", "residues"):
        with pytest.raises(ParameterError):
            sf.meijer_g(g, 2.0, tol=tol, method=method)
    with pytest.raises(ParameterError):
        sf.pfq_via_g((0.5,), (1.5,), -2.0, tol=tol)
    with pytest.raises(ParameterError):
        sf.pfq((0.5,), (1.5,), -2.0, tol=tol)


@pytest.mark.parametrize("z", [2j, -3j])
def test_conditional_boundary_sums_residues(z):
    # 1F1(0.6; 1.7; z) as G^{1,1}_{1,2}(-z): kappa = pi/2 = |arg(-z)|,
    # where the integral converges only conditionally
    import mpmath
    g = sf.GParams(1, 1, 1, 2, (1.0 - 0.6,), (0.0, 1.0 - 1.7))
    assert mb.convergence_class(g.to_kernel(), -z) \
        is mb.ConvergenceClass.CONDITIONAL
    res = sf.pfq_via_g((0.6,), (1.7,), z)
    assert res.method == "residues_right"
    ref = complex(mpmath.hyp1f1(0.6, 1.7, z))
    assert abs(res.value - ref) <= res.err_estimate
    with pytest.raises(QuadratureError):
        sf.meijer_g(g, -z, method="quad")
