import math

import mpmath
import numpy as np
import pytest
from scipy import integrate as sp_integrate
from scipy import special as sp

from mbint import cgamma
from mbint.errors import DomainError, PoleError

# frozen from the quadrature oracle in test_log_gamma_half_quadrature_oracle
LN_SQRT_PI = 0.5723649429247001
LN_24 = 3.1780538303479458


def test_log_gamma_one_is_zero():
    assert abs(cgamma.log_gamma(1.0)) < 1e-14


def test_log_gamma_five_is_ln_24():
    assert abs(cgamma.log_gamma(5.0) - LN_24) < 1e-13


def test_log_gamma_half_quadrature_oracle():
    # independent oracle: Gamma(1/2) = integral_0^inf t^(-1/2) e^(-t) dt,
    # flattened by t = s^2 so the quadrature sees a smooth integrand
    val, err = sp_integrate.quad(lambda s: 2.0 * math.exp(-s * s),
                                 0.0, 9.0, limit=200)
    assert err < 1e-11
    assert abs(math.log(val) - LN_SQRT_PI) < 1e-12
    assert abs(cgamma.log_gamma(0.5) - LN_SQRT_PI) < 1e-12


def test_log_gamma_recurrence_property():
    rng = np.random.default_rng(11)
    z = rng.uniform(0.5, 10, 500) + 1j * rng.uniform(-10, 10, 500)
    for zz in z:
        zz = complex(zz)
        lg0 = cgamma.log_gamma(zz)
        res = abs(cgamma.log_gamma(zz + 1) - lg0 - np.log(zz))
        assert res < 1e-13 * (1.0 + abs(lg0))


def test_log_gamma_conjugate_symmetry_exact():
    rng = np.random.default_rng(12)
    pts = rng.uniform(-6, 8, 200) + 1j * rng.uniform(0.05, 8, 200)
    for zz in pts:
        zz = complex(zz)
        assert cgamma.log_gamma(np.conj(zz)) == np.conj(cgamma.log_gamma(zz))


def test_log_gamma_against_scipy():
    rng = np.random.default_rng(13)
    pts = np.concatenate([
        rng.uniform(0.5, 12, 300) + 1j * rng.uniform(-15, 15, 300),
        rng.uniform(-8, 0.49, 300) + 1j * rng.uniform(-6, 6, 300),
    ])
    for zz in pts:
        zz = complex(zz)
        if cgamma.detect_pole(zz, 1e-3).is_pole:
            continue
        ref = sp.loggamma(zz)
        assert abs(cgamma.log_gamma(zz) - ref) < 1e-12 * (1 + abs(ref))


def test_log_gamma_negative_real_axis_branch():
    # cut convention matches the standard continuation
    assert abs(cgamma.log_gamma(-0.5) - sp.loggamma(complex(-0.5))) < 1e-13
    assert abs(cgamma.log_gamma(-2.5) - sp.loggamma(complex(-2.5))) < 1e-13


@pytest.mark.parametrize("z", [0.0, -1.0, -7.0, complex(-2.0, 1e-12)])
def test_log_gamma_pole_error(z):
    with pytest.raises(PoleError):
        cgamma.log_gamma(z)


def test_pochhammer_examples():
    assert cgamma.pochhammer(0.7, 0) == 1.0
    assert cgamma.pochhammer(1.0, 4) == 24.0
    assert cgamma.pochhammer(-2.0, 4) == 0.0


def test_pochhammer_recurrence_exact():
    rng = np.random.default_rng(14)
    for _ in range(100):
        alpha = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        for n in (0, 1, 3, 10, 40):
            lhs = cgamma.pochhammer(alpha, n + 1)
            rhs = cgamma.pochhammer(alpha, n) * (alpha + n)
            assert lhs == rhs


def test_pochhammer_large_n_gamma_ratio():
    # above the direct-product cutoff; oracle is scipy's loggamma
    for alpha in (0.5, complex(1.2, 0.8), 3.0):
        got = cgamma.pochhammer(alpha, 100)
        ref = np.exp(sp.loggamma(complex(alpha) + 100) - sp.loggamma(alpha))
        assert abs(got - ref) < 1e-10 * abs(ref)


def test_pochhammer_large_n_near_pole_falls_back_to_product():
    got = cgamma.pochhammer(-70.0, 100)  # hits zero at k = 70
    assert got == 0.0


def test_detect_pole_examples():
    rep = cgamma.detect_pole(complex(-3.0, 0.0), 1e-9)
    assert rep.is_pole and rep.pole_index == 3 and rep.distance == 0.0
    rep = cgamma.detect_pole(0.5, 1e-9)
    assert not rep.is_pole and rep.distance == 0.5
    rep = cgamma.detect_pole(complex(-2.0, 1e-12), 1e-9)
    assert rep.is_pole and rep.pole_index == 2


def test_asymptotic_exact_when_power_term_vanishes():
    for eta in (1.0, 7.5, 50.0):
        expected = 0.5 * math.log(2 * math.pi) - 0.5 * math.pi * eta
        assert cgamma.asymptotic_log_abs_gamma(0.5, eta) == expected


def test_asymptotic_error_small_and_decreasing():
    def err(a, eta):
        exact = cgamma.log_gamma(complex(a, eta)).real
        return abs(cgamma.asymptotic_log_abs_gamma(a, eta) - exact)

    for a in (0.5, 1.0, 2.0):
        assert err(a, 50.0) < 0.02
    # the error profile over the test set decays with height; at a = 2 the
    # leading defect a(2a-1)(a-1)/(12 eta^2) is well above rounding and
    # strictly decreasing, while at a in {0.5, 1} the estimate is already
    # exponentially exact
    prof = [max(err(a, eta) for a in (0.5, 1.0, 2.0))
            for eta in (50.0, 100.0, 200.0)]
    assert prof[1] < prof[0] and prof[2] < prof[1]
    assert err(2.0, 100.0) < err(2.0, 50.0)
    assert err(2.0, 200.0) < err(2.0, 100.0)


def test_asymptotic_domain_error():
    with pytest.raises(DomainError):
        cgamma.asymptotic_log_abs_gamma(1.0, 0.5)


def _adversarial_grid():
    """Seeded points where the grid path can go wrong.

    Reflected points (Re z < 0.5), the lower half plane, heights up to
    3000, the negative real axis with both signs of a zero imaginary part,
    and |z| in the thousands, where the Lanczos sum is within 1% of 1 and
    the real part of its log is a small difference.
    """
    rng = np.random.default_rng(21)
    pts = np.concatenate([
        rng.uniform(-60.0, 0.5, 300) + 1j * rng.uniform(-3000, 3000, 300),
        rng.uniform(-12.0, 0.5, 300) + 1j * rng.uniform(-4.0, 4.0, 300),
        rng.uniform(0.5, 40.0, 200) - 1j * rng.uniform(0.0, 60.0, 200),
        rng.uniform(300.0, 3000.0, 200)
        * np.exp(1j * rng.uniform(-np.pi, np.pi, 200)),
    ])
    upper = rng.uniform(-40.0, 30.0, 200) + 0.0j
    lower = upper.copy()
    lower.imag = -0.0
    pts = np.concatenate([pts, upper, lower])
    keep = np.abs(pts - np.round(pts.real)) > 1e-3  # clear of the poles
    return pts[keep]


def test_log_gamma_grid_against_mpmath():
    pts = _adversarial_grid()
    got = cgamma.log_gamma_grid(pts)
    with mpmath.workdps(30):
        for z, g in zip(pts, got):
            ref = complex(mpmath.loggamma(mpmath.mpc(z.real, z.imag)))
            assert abs(g - ref) <= 1e-13 * max(1.0, abs(ref)), z


def _near_poles():
    """The poles 0, -1, ..., -40 at distances 1e-2 ... 1e-8 in five
    directions, and 300 points with Re in [-30, 0.5] and |Im| <= 20."""
    rng = np.random.default_rng(17)
    dist = 10.0 ** -np.arange(2, 9)
    turns = np.exp(2j * np.pi * np.arange(5) / 5)
    near = (-np.arange(41.0)[:, None, None] + dist[:, None] * turns).ravel()
    return np.concatenate([near, rng.uniform(-30.0, 0.5, 300)
                           + 1j * rng.uniform(-20.0, 20.0, 300)])


def test_log_gamma_near_poles_against_mpmath():
    # the reflection's 1 - e^{2 pi i z} is formed from the offset to the
    # nearest integer: taken directly it cancelled near a pole, leaving
    # about eps / dist relative error (3e-9 at these points)
    pts = _near_poles()
    grid = cgamma.log_gamma_grid(pts)
    with mpmath.workdps(30):
        for z, g in zip(pts, grid):
            ref = complex(mpmath.loggamma(mpmath.mpc(z.real, z.imag)))
            bound = 2e-15 * max(1.0, abs(ref))
            assert abs(g - ref) <= bound, z
            assert abs(cgamma.log_gamma_unchecked(z) - ref) <= bound, z


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_log_gamma_on_a_pole_is_infinite():
    poles = np.array([0.0, -1.0, -7.0]) + 0j
    assert (cgamma.log_gamma_grid(poles).real == math.inf).all()
    for z in poles:
        assert cgamma.log_gamma_unchecked(z).real == math.inf


def test_log_gamma_grid_matches_scalar_branch():
    # the same branch of the imaginary part, not merely equal mod 2 pi
    pts = _adversarial_grid()
    got = cgamma.log_gamma_grid(pts)
    for z, g in zip(pts, got):
        ref = cgamma.log_gamma_unchecked(z)
        assert abs(g.imag - ref.imag) <= 1e-12 * max(1.0, abs(ref)), z


def test_log_gamma_grid_conjugate_symmetry_bitwise():
    pts = _adversarial_grid()
    pts = pts[pts.imag != 0.0]
    lhs = cgamma.log_gamma_grid(pts.conj())
    rhs = cgamma.log_gamma_grid(pts).conj()
    assert np.array_equal(lhs.view(np.uint64), rhs.view(np.uint64))


def test_log_gamma_grid_shapes():
    pts = _adversarial_grid()[:120]
    flat = cgamma.log_gamma_grid(pts)
    assert flat.shape == pts.shape
    grid = cgamma.log_gamma_grid(pts.reshape(8, 15))
    assert grid.shape == (8, 15)
    assert np.array_equal(grid.ravel().view(np.uint64), flat.view(np.uint64))
    # a 0-d input comes back as one value (atleast_1d), equal to the 1-d one
    one = cgamma.log_gamma_grid(pts[7])
    assert one.shape == (1,) and one[0] == flat[7]
