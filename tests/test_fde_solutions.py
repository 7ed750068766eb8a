import math

import numpy as np
import pytest

from mbint import fde_solutions as fde
from mbint import mellin_barnes as mb
from mbint import polyroots
from mbint.duality import CoefficientMatrix
from mbint.errors import ContourError, OrderError, ParameterError

BETA_MATRIX = CoefficientMatrix(((0.0, -1.0), (1.0, -1.0)))


def beta_instance():
    return fde.FirstOrderFDE.from_matrix(BETA_MATRIX)


def test_from_matrix_shifts_second_column():
    inst = beta_instance()
    assert np.allclose(inst.p_poly, (0.0, 1.0))      # P(x) = x
    assert np.allclose(inst.q_poly, (-2.0, -1.0))    # Qt(x) = -(x + 2)
    assert inst.lead_p == 1.0 and inst.lead_q == -1.0


def test_coefficient_roots_beta():
    roots = fde.coefficient_roots(beta_instance())
    assert np.allclose(roots.rho, [0.0])
    assert np.allclose(roots.sigma, [-2.0])
    assert roots.c == 1.0


def test_coefficient_roots_factored_and_conjugate():
    inst = fde.FirstOrderFDE((2.0, -3.0, 1.0), (1.0,))  # P = (x-1)(x-2)
    roots = fde.coefficient_roots(inst)
    assert np.allclose(sorted(r.real for r in roots.rho), [1.0, 2.0])
    inst = fde.FirstOrderFDE((1.0, 0.0, 1.0), (1.0,))   # P = x^2 + 1
    roots = fde.coefficient_roots(inst)
    assert np.allclose(sorted(r.imag for r in roots.rho), [-1.0, 1.0])


def test_gamma_quotient_constants_per_arrangement():
    roots = fde.coefficient_roots(beta_instance())
    assert fde.gamma_quotient(roots, m=0, n=1).base == roots.c
    # p = q = 1: the reflected constant (-1)^(p-q+1) lp/lq equals -lp/lq too
    assert fde.gamma_quotient(roots, m=1, n=0).base == roots.c

    # p = 2, q = 1: rising and reflected constants differ by a sign
    inst = fde.FirstOrderFDE(tuple(polyroots.from_roots([0.5, -1.2], 2.0)),
                             (1.0, 3.0))
    r2 = fde.coefficient_roots(inst)
    assert r2.c == -2.0 / 3.0
    assert fde.gamma_quotient(r2, m=0, n=2).base == r2.c
    assert fde.gamma_quotient(r2, m=1, n=0).base == -r2.c


def test_gamma_quotient_rising_structure():
    roots = fde.coefficient_roots(beta_instance())
    k = fde.gamma_quotient(roots, m=0, n=1)
    assert len(k.up_right) == 1 and k.up_right[0].coeff == 1.0
    assert len(k.down_left) == 1 and k.down_left[0].coeff == -1.0
    assert not k.up_left and not k.down_right


def test_gamma_quotient_split_range_checks():
    roots = fde.coefficient_roots(beta_instance())
    with pytest.raises(OrderError):
        fde.gamma_quotient(roots, m=2, n=0)
    with pytest.raises(OrderError):
        fde.gamma_quotient(roots, m=0, n=5)
    with pytest.raises(OrderError):
        fde.gamma_quotient(roots, m=0.5, n=1)
    assert fde.gamma_quotient(roots, m=np.int64(1), n=np.int64(0)) \
        == fde.gamma_quotient(roots, m=1, n=0)


def test_split_with_full_rising_equals_default_exactly():
    rng = np.random.default_rng(31)
    rho = rng.uniform(-2, 2, 3) + 1j * rng.uniform(-1, 1, 3)
    sigma = rng.uniform(-2, 2, 2) + 1j * rng.uniform(-1, 1, 2)
    inst = fde.FirstOrderFDE(tuple(polyroots.from_roots(rho, 1.3)),
                             tuple(polyroots.from_roots(sigma, -0.7)))
    roots = fde.coefficient_roots(inst)
    assert fde.gamma_quotient(roots, m=0, n=3) == fde.gamma_quotient(roots)


def test_coincident_roots_cancel():
    shared = 0.4 + 0.2j
    roots = fde.RootData((shared, 1.5), (shared,), complex(2.0))
    k = fde.gamma_quotient(roots, m=0, n=2)
    # Gamma(x - shared) over Gamma(x - shared) cancels away
    assert len(k.up_right) == 1 and k.up_right[0].coeff == 1.0 + 1.5
    assert not k.down_left


def test_fde_ratio_residual_beta():
    roots = fde.coefficient_roots(beta_instance())
    kernel = fde.gamma_quotient(roots, m=0, n=1)
    assert fde.fde_ratio_residual(kernel, roots, 2.5) < 1e-13


def test_fde_ratio_residual_random_instance_complex_point():
    rng = np.random.default_rng(32)
    rho = rng.uniform(-3, 3, 4) + 1j * rng.uniform(-3, 3, 4)
    sigma = rng.uniform(-3, 3, 3) + 1j * rng.uniform(-3, 3, 3)
    inst = fde.FirstOrderFDE(tuple(polyroots.from_roots(rho, 0.9)),
                             tuple(polyroots.from_roots(sigma, 1.7)))
    roots = fde.coefficient_roots(inst)
    for m, n in ((0, 4), (3, 0), (2, 2)):
        kernel = fde.gamma_quotient(roots, m=m, n=n)
        assert fde.fde_ratio_residual(kernel, roots, 10.0 + 3.0j) < 1e-12


def test_fde_ratio_residual_pure_exponential():
    roots = fde.RootData((), (), complex(2.0))
    kernel = fde.gamma_quotient(roots, m=0, n=0)
    x = 1.234 + 0.77j
    ratio = fde.solution_value(kernel, x + 1) / fde.solution_value(kernel, x)
    assert abs(ratio - 2.0) < 1e-14
    assert fde.fde_ratio_residual(kernel, roots, x) < 1e-14


def test_arrangement_ratio_constant_on_unit_spaced_points():
    rng = np.random.default_rng(33)
    for _ in range(30):
        p = int(rng.integers(1, 4))
        q = int(rng.integers(1, 4))
        rho = rng.uniform(-3, 3, p) + 1j * rng.uniform(-3, 3, p)
        sigma = rng.uniform(-3, 3, q) + 1j * rng.uniform(-3, 3, q)
        inst = fde.FirstOrderFDE(tuple(polyroots.from_roots(rho, 1.1)),
                                 tuple(polyroots.from_roots(sigma, -0.6)))
        roots = fde.coefficient_roots(inst)
        forms = [fde.gamma_quotient(roots, m=0, n=p),
                 fde.gamma_quotient(roots, m=q, n=0),
                 fde.gamma_quotient(roots, m=q // 2, n=p // 2)]
        x0 = complex(4.6 + rng.uniform(0, 1), rng.uniform(-0.5, 0.5))
        for other in forms[1:]:
            ratios = [fde.solution_value(forms[0], x0 + j)
                      / fde.solution_value(other, x0 + j) for j in range(3)]
            for r in ratios[1:]:
                assert abs(r / ratios[0] - 1.0) < 1e-10


def test_inverse_transform_solution_matches_double_exponential():
    # oracle: residue sum over the Gamma(x) ladder gives
    # sum (-1)^l e^{-l t} / l! = exp(-e^{-t})
    kernel, contour = fde.inverse_transform_solution([0.0], [], anchor=0.5)
    for t in (0.4, 1.1):
        z = math.exp(t)
        exact = math.exp(-math.exp(-t))
        quad = mb.integrate(kernel, z, contour, tol=1e-11)
        assert abs(quad.value - exact) < 1e-9 * exact
        res = mb.residue_series(kernel, z, "left", n_max=200, tol=1e-13)
        assert abs(res.value - exact) < 1e-11 * exact


def test_inverse_transform_solution_anchor_precondition():
    with pytest.raises(ContourError):
        fde.inverse_transform_solution([0.0, 0.5], [1.0], anchor=0.3)
    # an anchor on the head pole is refused, also where the kernel's pole
    # (1 + rho) - 1 rounds below rho
    for rho in (0.0, 0.553, 1.978, -0.431, 0.1):
        with pytest.raises(ContourError):
            fde.inverse_transform_solution([rho], [], anchor=rho)


def test_inverse_transform_solution_structure():
    kernel, contour = fde.inverse_transform_solution([0.0, 0.5], [1.0],
                                                     anchor=1.0)
    assert len(kernel.up_right) == 2 and len(kernel.down_left) == 1
    assert contour == mb.Contour(1.0, mb._T_MIN)


def test_inverse_transform_solution_length_mismatch():
    with pytest.raises(ParameterError):
        fde.inverse_transform_solution([0.0, 1.0], [], anchor=2.0)


def test_lead_zero_rejected():
    with pytest.raises(ParameterError):
        fde.FirstOrderFDE((0.0,), (1.0, 2.0))


@pytest.mark.parametrize("p,q", [((), (1.0,)), ((1.0,), ()), ((), ())])
def test_empty_polynomial_rejected(p, q):
    # an empty coefficient list is the zero polynomial, refused as (0,) is;
    # it used to raise IndexError from lead_p
    with pytest.raises(ParameterError):
        fde.FirstOrderFDE(p, q)
    with pytest.raises(ParameterError):
        fde.FirstOrderFDE.from_coefficient_columns(p, q)


def test_gamma_quotient_refuses_non_finite_roots():
    for roots in (fde.RootData((math.nan, 1.5), (0.5,), complex(2.0)),
                  fde.RootData((1.5,), (complex(0.5, math.inf),),
                               complex(2.0)),
                  fde.RootData((1.5,), (0.5,), complex(math.nan))):
        with pytest.raises(ParameterError):
            fde.gamma_quotient(roots)
