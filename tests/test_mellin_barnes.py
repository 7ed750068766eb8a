import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest
from scipy import special as sp

from mbint import mellin_barnes as mb
from mbint import verification
from mbint.errors import (ContourError, ConvergenceError,
                          HigherOrderPoleError, NonConvergentSeriesError,
                          ParameterError, PoleError)
from mbint.special_functions import GParams, meijer_g, pfq

E_INV = 0.36787944117144233          # e^{-1}
SQRT2_E2 = 0.19139299302082185       # sqrt(2) e^{-2}


def k_exp(b=0.0):
    """Kernel of the z^b e^{-z} closed form: a single Gamma(b - s)."""
    return mb.MellinKernel(up_left=((b, 1.0),))


def k_2f1():
    """Gamma(-s) Gamma(1+s)^2 / Gamma(2+s)."""
    return GParams(1, 2, 2, 2, (0.0, 0.0), (0.0, -1.0)).to_kernel()


def test_kernel_log_eval_empty_kernel_is_zero():
    kernel = mb.MellinKernel()
    for s in (0.3, -1.2 + 0.7j, 5.0):
        assert mb.kernel_log_eval(kernel, s) == 0.0


def test_kernel_log_eval_single_factor_at_unit_argument():
    kernel = k_exp(b=1.7)
    assert abs(mb.kernel_log_eval(kernel, 0.7)) < 1e-13  # Gamma(1) = 1


def test_kernel_log_eval_matches_naive_gamma_product():
    kernel = k_2f1()
    for s in (-0.5 + 0.7j, -0.3 - 1.2j, -0.5):
        naive = sp.gamma(-s) * sp.gamma(1 + s) ** 2 / sp.gamma(2 + s)
        got = mb.kernel_eval(kernel, s)
        assert abs(got - naive) < 1e-12 * abs(naive)


def test_kernel_log_eval_numerator_pole_raises():
    with pytest.raises(PoleError):
        mb.kernel_log_eval(k_exp(0.0), 3.0)


def test_kernel_log_eval_denominator_pole_is_zero():
    kernel = mb.MellinKernel(up_left=((0.5, 1.0),), down_left=((0.0, 1.0),))
    # down_left factor Gamma(1 - 0 + s) has poles at s = -1, -2, ...
    assert mb.kernel_eval(kernel, -2.0) == 0.0


def test_kernel_simplify_cancels_matching_pairs():
    kernel = mb.MellinKernel(up_right=((1.3, 1.0), (0.2, 1.0)),
                             down_left=((1.3, 1.0),))
    out = kernel.simplify()
    assert len(out.up_right) == 1 and out.up_right[0].coeff == 0.2
    assert not out.down_left


def test_pole_families_single_ladders():
    left, right = mb.pole_families(k_exp(0.0), 4)
    assert [p.location for p in right] == [0.0, 1.0, 2.0, 3.0]
    assert not left

    kernel = mb.MellinKernel(up_right=((0.0, 1.0),))  # Gamma(1 + s)
    left, right = mb.pole_families(kernel, 3)
    assert [p.location for p in left] == [-1.0, -2.0, -3.0]
    assert not right


def test_pole_families_collision_order():
    kernel = mb.MellinKernel(up_left=((0.0, 1.0), (1.0, 1.0)))
    _, right = mb.pole_families(kernel, 3)
    orders = {p.location: p.order for p in right}
    assert orders[1.0] == 2 and orders[0.0] == 1


def test_pole_families_scaled_multiplier():
    kernel = mb.MellinKernel(up_left=((0.0, 2.0),))
    _, right = mb.pole_families(kernel, 4)
    assert np.allclose([p.location for p in right], [0.0, 0.5, 1.0, 1.5])


def test_choose_contour_half_infinite_window():
    contour = mb.choose_contour(k_exp(0.0))
    assert contour.kind == "vertical" and contour.anchor == -0.5


def test_choose_contour_bounded_window_midpoint():
    contour = mb.choose_contour(k_2f1())
    assert contour.kind == "vertical"
    assert contour.anchor == pytest.approx(-0.5)


def test_choose_contour_empty_window_indents():
    kernel = mb.MellinKernel(up_left=((0.0, 1.0),),
                             up_right=((1.5, 1.0),))
    contour = mb.choose_contour(kernel)
    assert contour.kind == "indented"
    assert len(contour.detours) >= 1
    assert contour.anchor > 0.5


def test_choose_contour_collision_raises():
    kernel = mb.MellinKernel(up_left=((0.0, 1.0),), up_right=((1.0, 1.0),))
    with pytest.raises(ContourError):
        mb.choose_contour(kernel)


def test_integrate_exponential_closed_form():
    res = mb.integrate(k_exp(0.0), 1.0, tol=1e-11)
    assert abs(res.value - E_INV) < 1e-10 * E_INV
    res = mb.integrate(k_exp(0.5), 2.0, tol=1e-11)
    assert abs(res.value - SQRT2_E2) < 1e-10 * SQRT2_E2


def test_integrate_indented_contour_equals_residue_route():
    # Gamma(-s) Gamma(s - 0.5) needs an indentation; closed form
    # Gamma(-0.5) (1+z)^{1/2} for |z| < 1
    kernel = mb.MellinKernel(up_left=((0.0, 1.0),), up_right=((1.5, 1.0),))
    z = 0.3
    exact = sp.gamma(-0.5) * (1 + z) ** 0.5
    quad = mb.integrate(kernel, z, tol=1e-10)
    assert quad.contour.kind == "indented"
    assert abs(quad.value - exact) < 1e-9 * abs(exact)
    res = mb.residue_series(kernel, z, "right", n_max=300, tol=1e-12)
    assert abs(res.value - exact) < 1e-10 * abs(exact)


def test_integrate_rejects_flat_kernel():
    with pytest.raises(ConvergenceError):
        mb.integrate(mb.MellinKernel(), 0.5, tol=1e-8)


def test_integrate_rejects_zero_argument():
    with pytest.raises(ConvergenceError):
        mb.integrate(k_exp(0.0), 0.0)


def test_residue_series_exponential():
    res = mb.residue_series(k_exp(0.0), 1.0, "right", tol=1e-13)
    assert abs(res.value - E_INV) < 1e-12
    assert res.method == "residues_right"
    res = mb.residue_series(k_exp(0.5), 2.0, "right", tol=1e-13)
    assert abs(res.value - SQRT2_E2) < 1e-12


def test_residue_series_high_cancellation_recovers():
    res = mb.residue_series(k_exp(0.0), 10.0, "right", n_max=400, tol=1e-12)
    exact = math.exp(-10.0)
    assert abs(res.value - exact) < 1e-11 * exact


def test_residue_series_reproduces_series_expansion():
    # closing right over the Gamma(-s) ladder rebuilds the power series
    kernel = k_2f1()
    z = 0.4
    res = mb.residue_series(kernel, z, "right", n_max=300, tol=1e-13)
    oracle = sp.gamma(1.0) ** 2 / sp.gamma(2.0) * pfq((1.0, 1.0), (2.0,), -z)
    assert abs(res.value - oracle) < 1e-11 * abs(oracle)


def test_residue_series_zero_budget():
    with pytest.raises(NonConvergentSeriesError):
        mb.residue_series(k_exp(0.0), 1.0, "right", n_max=0)


def test_residue_series_no_poles_on_side():
    with pytest.raises(NonConvergentSeriesError):
        mb.residue_series(k_exp(0.0), 1.0, "left")


def test_residue_series_higher_order_pole_rejected():
    kernel = mb.MellinKernel(up_left=((0.0, 1.0), (1.0, 1.0)))
    with pytest.raises(HigherOrderPoleError):
        mb.residue_series(kernel, 0.5, "right")


def test_residue_series_cross_family_collision_rejected():
    # the families share s = 0, so the residue there is not simple
    kernel = mb.MellinKernel(up_left=((0.0, 1.0),), up_right=((1.0, 1.0),))
    with pytest.raises(HigherOrderPoleError):
        mb.residue_series(kernel, 0.5, "right")


def test_residue_series_structural_zero_prefix_is_not_convergence():
    # 1/Gamma(l - 2) vanishes for l = 0, 1, 2; those terms must not stop
    # the sum before its first nonzero term
    res = meijer_g(GParams(1, 0, 0, 2, (), (0.0, 3.0)), 0.5,
                   method="residues")
    mpmath_value = -0.018355821889397755  # mpmath.meijerg, 30 digits
    assert res.nodes_used > 3
    assert abs(res.value - mpmath_value) <= res.err_estimate


def test_residue_series_vanishing_ladder_is_exact_zero():
    # 1/Gamma(-1 - s) has a pole at every pole s = 1 + l of Gamma(1 - s)
    res = meijer_g(GParams(1, 0, 1, 3, (-1.0,), (1.0, 0.755, 0.5)),
                   0.0643 + 0.0446j, method="residues")
    assert res.value == 0.0 and res.err_estimate == 0.0


def test_residue_series_skips_vanishing_ladder_beside_live_one():
    # 1/Gamma(-s) vanishes at every pole s = 2 + l of Gamma(2 - s); its zero
    # terms, interleaved with the live s = 0.5 + l ladder, must not stop the
    # sum or stand as its last term
    z = -0.6 + 0.3j
    res = meijer_g(GParams(2, 0, 1, 2, (0.0,), (2.0, 0.5)), z,
                   method="residues")
    mpmath_value = 1.318144319020035 + 0.29799548457459324j  # 30 digits
    assert abs(res.value - mpmath_value) <= res.err_estimate


def test_residue_series_underflowing_terms_are_exact_zero():
    # every term z^(2 + l) / l! lies below the double range
    res = meijer_g(GParams(1, 0, 0, 1, (), (2.0,)), 1e-200,
                   method="residues")
    assert res.value == 0.0 and res.err_estimate == 0.0


def test_pole_families_count_validation():
    with pytest.raises(ParameterError):
        mb.pole_families(k_exp(0.0), 0)


def test_residue_series_divergent_growth():
    # Gamma(-s) Gamma(1+s): right-side terms grow like z^l for |z| > 1
    kernel = mb.MellinKernel(up_left=((0.0, 1.0),), up_right=((0.0, 1.0),))
    with pytest.raises(NonConvergentSeriesError):
        mb.residue_series(kernel, 3.0, "right", n_max=120, tol=1e-12)


def test_convergence_class_examples():
    assert mb.convergence_class(k_exp(0.0), 1.0) \
        is mb.ConvergenceClass.ABSOLUTE
    assert mb.convergence_class(k_2f1(), 0.5) is mb.ConvergenceClass.ABSOLUTE
    balanced = mb.MellinKernel(up_left=((0.5, 1.0),),
                               down_right=((0.0, 1.0),))
    assert mb.convergence_class(balanced, complex(math.cos(0.3),
                                                  math.sin(0.3))) \
        is mb.ConvergenceClass.DIVERGENT


def test_decay_rate_bookkeeping():
    assert mb.decay_rate(k_exp(0.0)) == pytest.approx(math.pi / 2)
    assert mb.decay_rate(k_2f1()) == pytest.approx(math.pi)


def test_invariants_suite():
    report = {c["name"]: c for c in
              (chk.to_json() for chk in verification.suite_mb(seed=5))}
    for name, check in report.items():
        assert check["passed"], (name, check)


def test_choose_contour_memoized_and_reused_by_integrate():
    contour = mb.choose_contour(k_exp(0.5))
    assert mb.choose_contour(k_exp(0.5)) is contour
    res = mb.integrate(k_exp(0.5), 2.0)
    assert res.contour is contour


def test_result_and_contour_copy_pickle_replace():
    contour = mb.Contour("indented", 0.25, 30.0,
                         (mb.Detour(0.0, 0.2, "left"),))
    result = mb.EvalResult(1.5 - 2.0j, 1e-12, 120, contour, "quadrature", 1)
    for obj in (contour, result):
        assert copy.copy(obj) == obj
        assert copy.deepcopy(obj) == obj
        assert pickle.loads(pickle.dumps(obj)) == obj
    assert dataclasses.replace(contour, truncation=60.0).truncation == 60.0
    assert dataclasses.replace(contour, truncation=60.0).detours \
        == contour.detours
    moved = dataclasses.replace(result, value=3.0 + 0j)
    assert moved.value == 3.0 and moved.contour is contour
    with pytest.raises(ParameterError):
        dataclasses.replace(contour, truncation=-1.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        result.value = 0.0


def test_contour_detour_disks_must_be_disjoint():
    with pytest.raises(ParameterError):
        mb.Contour("indented", 0.0, 10.0,
                   (mb.Detour(0.0, 0.3, "left"), mb.Detour(0.1, 0.3, "left")))


def test_conjugate_symmetry_real_kernel():
    res = mb.integrate(k_exp(0.5), 2.0, tol=1e-11)
    assert res.value.imag == 0.0
