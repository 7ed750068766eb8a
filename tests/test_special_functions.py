import cmath
import math
import random

import mpmath
import numpy as np
import pytest

from mbint import mellin_barnes as mb
from mbint import special_functions as sf
from mbint import verification
from mbint.errors import (ConvergenceError, DivergentSeriesError,
                          DomainError, InvalidDenominatorError, MBIntError,
                          NonConvergentSeriesError, OrderError,
                          ParameterError, QuadratureError)
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


@pytest.mark.parametrize("a, b, z, terms", [
    ((1.0,), (1.0,), 720.0, 616),    # e^720: the sum used to return inf
    ((1.0,), (2.0,), -800.0, 470),   # (1 - e^-800) / 800: terms overflow
])
def test_pfq_refuses_an_overflowing_series_at_once(a, b, z, terms):
    # the second used to run all 100,000 terms before its ConvergenceError;
    # pfq_via_g sums it by residues
    with pytest.raises(ConvergenceError) as info:
        sf.pfq(a, b, z)
    assert info.value.context["terms"] == terms
    if z < 0:
        assert sf.pfq_via_g(a, b, z).value == pytest.approx(1 / 800, 1e-12)


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


@pytest.mark.parametrize("n", [2.5, math.inf, math.nan, "3", -1])
def test_series_recurrence_residual_index_is_pochhammers(n):
    # refused up front, also with a and b empty, where pochhammer never
    # runs and math.factorial raised an untyped TypeError or ValueError
    for a, b in (((1.0, 1.0), (2.0,)), ((), ())):
        with pytest.raises(DomainError):
            sf.series_recurrence_residual(a, b, n)
        assert sf.series_recurrence_residual(a, b, np.int64(3)) < 1e-15


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
    with pytest.raises(ParameterError):
        sf.GParams(1.0, 0, 0, 1, (), (0.0,))        # a whole float
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


@pytest.mark.parametrize("a, b", [((-math.inf,), (1.0,)),
                                  ((math.inf, 1.0), (2.0,)),
                                  ((1.0,), (math.nan,)),
                                  ((1.0,), (complex(2.0, math.inf),))])
def test_non_finite_parameters_rejected_before_any_term(monkeypatch, a, b):
    # pfq used to spend its term budget (ConvergenceError) or raise an
    # untyped OverflowError; pfq_via_g must not reach its G function
    def no_kernel(*args, **kwargs):
        raise AssertionError("the G function was evaluated")

    monkeypatch.setattr(sf, "_evaluate_kernel", no_kernel)
    with pytest.raises(ParameterError):
        sf.pfq(a, b, 0.5)
    with pytest.raises(ParameterError):
        sf.pfq_via_g(a, b, -0.5)


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
    assert sf.g_ode_residual(params, 1.0) < 1e-5


def test_g_ode_residual_gauss_embedding():
    params = sf.GParams(1, 2, 2, 2, (0.0, 0.0), (0.0, -1.0))
    assert sf.g_ode_residual(params, 0.25) < 1e-4


def test_g_ode_residual_zero_function():
    params = sf.GParams(1, 0, 0, 1, (), (0.0,))
    assert sf.g_ode_residual(params, 1.0, u=lambda z: 0.0) == 0.0


@pytest.mark.parametrize("z", [0.0, -1.0, math.nan, math.inf,
                               -1.0 + 1e-3j])
def test_g_ode_residual_refuses_z_whose_circle_meets_the_cut(z):
    # -1 + 1e-3i is off the cut, but the circle of radius 1e-2 in log z
    # around it crosses the negative real axis
    params = sf.GParams(1, 0, 0, 1, (), (0.0,))
    with pytest.raises(ParameterError):
        sf.g_ode_residual(params, z, u=lambda zz: 0.0)


@pytest.mark.parametrize("z", [1 + 1j, 2 + 0j])
def test_g_ode_residual_off_the_real_axis(z):
    # G^{1,0}_{0,1}(z | b) = z^b e^{-z}
    params = sf.GParams(1, 0, 0, 1, (), (0.3,))
    residual = sf.g_ode_residual(params, z,
                                 u=lambda zz: zz ** 0.3 * cmath.exp(-zz))
    assert residual < 1e-12


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


def _route_probe():
    """300 G inputs: random.Random(3); q in 1..3, p in 0..q, m in 0..q,
    n in 0..p with m + n >= 1; parameters round(U(-1, 2), 4); z uniform in
    [-2, 2]^2; draws GParams refuses are skipped."""
    rng = random.Random(3)
    cases = []
    while len(cases) < 300:
        q = rng.randint(1, 3)
        p = rng.randint(0, q)
        m, n = rng.randint(0, q), rng.randint(0, p)
        if m + n < 1:
            continue
        a = tuple(round(rng.uniform(-1, 2), 4) for _ in range(p))
        b = tuple(round(rng.uniform(-1, 2), 4) for _ in range(q))
        try:
            params = sf.GParams(m, n, p, q, a, b)
        except ParameterError:
            continue
        cases.append((params, complex(rng.uniform(-2, 2), rng.uniform(-2, 2))))
    return cases


def _meijerg(params, z):
    """mpmath.meijerg at 30 digits; for p = q and |z| > 1 the L- loop's
    value, mpmath.meijerg of the swapped parameters at 1/z (DLMF 16.19.1)."""
    m, n, a, b = params.m, params.n, list(params.a), list(params.b)
    with mpmath.workdps(30):
        if params.p == params.q and abs(z) > 1:
            a, b = [1 - v for v in b], [1 - v for v in a]
            m, n, z = n, m, 1 / mpmath.mpc(z)
        return complex(mpmath.meijerg([a[:n], a[n:]], [b[:m], b[m:]],
                                      mpmath.mpc(z)))


def test_default_route_answers_what_the_residue_side_answers():
    # the default route used to refuse every divergent line: 124 of these
    answered = 0
    for params, z in _route_probe():
        try:
            got = sf.meijer_g(params, z)
        except MBIntError:
            with pytest.raises(MBIntError):
                sf.meijer_g(params, z, method="residues")
            continue
        answered += 1
        assert abs(got.value - _meijerg(params, z)) <= got.err_estimate, \
            (params, z)
    assert answered >= 299


@pytest.mark.parametrize("z", [-2.0, -2.0 + 0.5j, 3j])
def test_divergent_line_sums_the_residue_side(z):
    # z^0.3 e^-z: kappa = pi/2 < |arg z|, so the line diverges
    params = sf.GParams(1, 0, 0, 1, (), (0.3,))
    assert mb.convergence_class(params.to_kernel(), z) \
        is mb.ConvergenceClass.DIVERGENT
    got = sf.meijer_g(params, z)
    assert got.method == "residues_right"
    assert abs(got.value - z ** 0.3 * cmath.exp(-z)) <= got.err_estimate


@pytest.mark.parametrize("x", [0.5, 1.0, 3.0, 6.0, 10.0])
def test_mittag_leffler_half_on_its_divergent_line(x):
    # E_{1/2}(x) = H^{1,1}_{1,2}(-x | (0, 1); (0, 1), (0, 1/2))
    # = e^{x^2} erfc(-x); kappa = 3 pi / 4 < pi = |arg(-x)|
    params = sf.HParams(1, 1, 1, 2, (0.0,), (0.0, 0.0), (1.0,), (1.0, 0.5))
    got = sf.fox_h(params, -x)
    with mpmath.workdps(30):
        exact = complex(mpmath.exp(mpmath.mpf(x) ** 2) * mpmath.erfc(-x))
    assert abs(got.value - exact) <= got.err_estimate


@pytest.mark.parametrize("params, side, zs", [
    # Delta = 0, radius prod beta^beta prod alpha^-alpha = 1/4 and 4
    (sf.HParams(1, 1, 1, 2, (0.3,), (0.2, 0.6), (2.0,), (1.0, 1.0)),
     "left", (0.3, 0.5, 0.9)),
    (sf.HParams(1, 1, 2, 1, (0.3, 0.7), (0.2,), (1.0, 1.0), (2.0,)),
     "right", (2.0, 3.0)),
])
def test_balanced_fox_h_sums_the_side_its_radius_picks(params, side, zs):
    # the side used to be picked against |z| = 1, where the series diverges
    for z in zs:
        line = sf.fox_h(params, z)
        got = sf.fox_h(params, z, method="residues")
        assert line.method == "quadrature"
        assert got.method == "residues_" + side
        assert abs(got.value - line.value) <= 1e-10 * abs(line.value)


@pytest.mark.parametrize("a, b, z", [((0.5,), (1.5,), -40.0),
                                     ((1.3,), (2.1,), -30.0 + 5.0j)])
def test_pfq_cancellation_goes_to_the_contour_integral(a, b, z):
    # the terms reach 1e14 against a value near 0.1: the series alone was
    # 0.158 and 1.6e-3 off
    with mpmath.workdps(30):
        exact = complex(mpmath.hyper(a, b, z))
    assert abs(sf.pfq(a, b, z, tol=1e-10) - exact) <= 1e-10 * abs(exact)


def test_pfq_cancellation_the_contour_integral_refuses_is_loud():
    # the Laguerre polynomial L_40(30) terminates, so pfq_via_g refuses it;
    # the series returned -3.7e6 for -2.4e5
    with pytest.raises(ConvergenceError):
        sf.pfq((-40.0,), (1.0,), 30.0, tol=1e-10)


def _family_residue_side(kernel, z):
    """_residue_side read off the four families, as it was before the
    kernel's term list: Delta = sum beta - sum alpha, then the radius."""
    betas = [f.mult for f in kernel.up_left + kernel.down_left]
    alphas = [f.mult for f in kernel.up_right + kernel.down_right]
    slack = sum(betas) - sum(alphas)
    if slack > 1e-12:
        return "right"
    if slack < -1e-12:
        return "left"
    radius = math.exp(sum(m * math.log(m) for m in betas)
                      - sum(m * math.log(m) for m in alphas))
    z_eff = abs(complex(z)) * abs(complex(kernel.base))
    return "right" if z_eff < radius else "left" if z_eff > radius else None


def test_residue_side_matches_the_family_reading():
    rng = random.Random(15)
    sides = set()
    for _ in range(2000):
        m, n = rng.randint(0, 3), rng.randint(0, 3)
        p, q = n + rng.randint(0, 2), m + rng.randint(0, 2)
        if rng.random() < 0.5:  # G: Delta = q - p, radius 1
            alpha, beta = (1.0,) * p, (1.0,) * q
        else:  # H, some balanced: Delta = 0 on a radius other than 1
            mults = (0.5, 1.0, 1.5, 2.0) if rng.random() < 0.5 \
                else (rng.uniform(0.3, 2.5),)
            alpha = tuple(rng.choice(mults) for _ in range(p))
            beta = tuple(rng.choice(mults) for _ in range(q))
        kernel = mb.g_kernel(m, n, (0.25,) * p, (0.5,) * q, alpha, beta,
                             base=rng.choice((1.0, 2.0, -0.5j)))
        radius = math.exp(sum(b * math.log(b) for b in beta)
                          - sum(a * math.log(a) for a in alpha))
        z = rng.choice((radius, radius / abs(kernel.base),
                        rng.uniform(0.1, 4.0))) \
            * cmath.exp(1j * rng.uniform(-3.0, 3.0))
        side = sf._residue_side(kernel, z)
        assert side == _family_residue_side(kernel, z), (kernel, z)
        sides.add(side)
    assert sides == {"left", "right", None}
