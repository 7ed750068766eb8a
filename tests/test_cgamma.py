import cmath
import math

import mpmath
import numpy as np
import pytest
from scipy import integrate as sp_integrate
from scipy import special as sp

from mbint import cgamma
from mbint import mellin_barnes as mb
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
        if cgamma.detect_pole(zz).distance <= 1e-3:
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


@pytest.mark.parametrize("n", [2.5, math.inf, math.nan, "3", -1])
def test_pochhammer_index_must_be_a_nonnegative_integer(n):
    # int(n) used to read 2.5 as 2 and "3" as 3, and raise an untyped
    # OverflowError or ValueError on inf or nan
    with pytest.raises(DomainError):
        cgamma.pochhammer(1.0, n)


def test_pochhammer_accepts_numpy_integers():
    for n in (4, 100):
        assert cgamma.pochhammer(0.3 + 0.2j, np.int64(n)) \
            == cgamma.pochhammer(0.3 + 0.2j, n)


def test_pochhammer_large_n_near_pole_falls_back_to_product():
    got = cgamma.pochhammer(-70.0, 100)  # hits zero at k = 70
    assert got == 0.0


def test_detect_pole_examples():
    rep = cgamma.detect_pole(complex(-3.0, 0.0))
    assert rep.is_pole and rep.pole_index == 3 and rep.distance == 0.0
    rep = cgamma.detect_pole(0.5)
    assert not rep.is_pole and rep.distance == 0.5
    rep = cgamma.detect_pole(complex(-2.0, 1e-12))
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


@pytest.mark.parametrize("z", [math.inf, -math.inf, math.nan,
                               complex(1.0, math.inf),
                               complex(-math.inf, 1.0)])
def test_non_finite_argument_is_domain_error(z):
    # detect_pole(-inf) and log_gamma(-inf) used to raise OverflowError,
    # log_gamma(inf) and log_gamma(nan) to return nan with a warning
    with pytest.raises(DomainError):
        cgamma.detect_pole(z)
    with pytest.raises(DomainError):
        cgamma.log_gamma(z)
    # on either side of pochhammer's switch from the product to log Gamma
    for n in (3, 100):
        with pytest.raises(DomainError):
            cgamma.pochhammer(z, n)


# --------------------------------------------------------------------------
# Reference kernel: the plain loop over the Lanczos coefficients, with numpy
# scalar constants.  The unrolled scalar path must give its values bit for
# bit.

_LANCZOS_COEF = cgamma._LANCZOS_COEF
_LANCZOS_G = cgamma._LANCZOS_G
LOG_2PI = np.log(2.0 * np.pi)
_HALF_LOG_2PI = 0.5 * LOG_2PI


def _reference_lanczos_scalar(z):
    series = _LANCZOS_COEF[0]
    for k in range(1, len(_LANCZOS_COEF)):
        series += _LANCZOS_COEF[k] / (z - 1.0 + k)
    t = z + (_LANCZOS_G - 0.5)
    return _HALF_LOG_2PI + (z - 0.5) * cmath.log(t) - t + cmath.log(series)


def _reference_log_gamma_unchecked(z):
    z = complex(z)
    if z.imag < 0.0:
        return _reference_log_gamma_unchecked(z.conjugate()).conjugate()
    if z.real < 0.5:
        # 1 - e^{2 i pi z} as log_gamma_grid forms it, without cancellation
        a = -2.0 * math.pi * z.imag
        b = 2.0 * math.pi * (z.real - round(z.real))
        factor = complex(2.0 * math.sin(0.5 * b) ** 2
                         - math.expm1(a) * math.cos(b),
                         -math.exp(a) * math.sin(b))
        if not factor:
            return complex(math.inf, 0.0)
        return (LOG_2PI - 0.5j * cmath.pi + 1j * cmath.pi * z
                - cmath.log(factor) - _reference_lanczos_scalar(1.0 - z))
    return _reference_lanczos_scalar(z)


def _bits(values):
    values = np.atleast_1d(np.asarray(values, dtype=np.complex128))
    return np.ascontiguousarray(values).view(np.uint64)


def _same_bits(got, ref):
    return np.array_equal(_bits(got), _bits(ref))


def _both_halves():
    pts = _adversarial_grid()
    return [pts, pts.conj()]


def test_log_gamma_unchecked_equals_reference_bitwise():
    for pts in _both_halves():
        for z in pts:
            got = cgamma.log_gamma_unchecked(z)
            ref = _reference_log_gamma_unchecked(z)
            # the reference computes in numpy scalars, the kernel in Python
            # complex: the same bits, a different type
            assert type(got) is complex
            assert _same_bits(got, ref), z
            if z.real >= 0.5:
                assert _same_bits(cgamma._lanczos_scalar(complex(z)),
                                  _reference_lanczos_scalar(complex(z))), z


def test_scalar_path_returns_python_complex():
    # both half-planes, the real axis, and reflected points (Re z < 0.5)
    for z in (2.5 + 1.0j, 2.5 - 1.0j, 3.0, 0.3, -0.5, -3.7 + 0.2j,
              -3.7 - 0.2j, 0.2 - 40.0j):
        assert type(cgamma.log_gamma(z)) is complex, z
        assert type(cgamma.log_gamma_unchecked(z)) is complex, z
    # the direct product (n <= 64) and the log-gamma ratio above it
    for n in (0, 5, 100):
        assert type(cgamma.pochhammer(0.3 + 0.2j, n)) is complex, n
    kernel = mb.MellinKernel(up_left=((0.2, 1.0),), up_right=((0.7, 0.5),),
                             down_left=((1.3, 1.5),), base=2.0)
    assert type(mb.kernel_log_eval(kernel, 0.4 - 0.3j)) is complex
    ladder = mb._pole_ladders(kernel, "right", 30)[0]
    ladder, terms, _ = mb._ladder_model(kernel, ladder, exact=False)
    for l in range(30):
        assert type(mb._log_residue(ladder, terms, l, 0.3 + 1.0j)) is complex


def test_term_exponentiation_matches_np_exp_bitwise():
    # the double residue pass exponentiates with cmath.exp, a fifth of
    # np.exp's cost on one scalar; below Re 708.3 they agree to the bit,
    # and above it cmath.exp stays finite up to _LOG_MAX, past which
    # _log_residue returns inf
    rng = np.random.default_rng(29)
    n = 20000
    low = np.concatenate([
        rng.uniform(-760.0, 708.3, n) + 1j * rng.uniform(-60.0, 60.0, n),
        [0j, complex(0.0, -0.0), complex(-0.0, 0.0), 1.5j, -2.5, 708.3]])
    for w in low:
        assert _same_bits(cmath.exp(complex(w)), np.exp(w)), w
    high = np.linspace(708.3, mb._LOG_MAX, 2001) \
        + 1j * rng.uniform(-60.0, 60.0, 2001)
    for w in np.append(high, mb._LOG_MAX):
        assert cmath.isfinite(cmath.exp(complex(w))), w
    # _log_residue's terms, against the same log sum exponentiated by np.exp
    kernel = mb.MellinKernel(up_left=((0.2, 1.0), (0.45, 0.5)),
                             up_right=((0.7, 0.5),), down_left=((1.3, 1.5),))
    for side in ("left", "right"):
        for ladder in mb._pole_ladders(kernel, side, 200):
            ladder, terms, _ = mb._ladder_model(kernel, ladder, exact=False)
            for l in range(ladder.length):
                s = ladder.location(l)
                got = mb._log_residue(ladder, terms, l, 0.4 - 2.0j)
                total = mb._log_gammas(terms, s)
                if total is None:  # a denominator gamma on a pole
                    assert got == 0, (side, l)
                    continue
                total += s * (0.4 - 2.0j)
                total -= math.lgamma(l + 1) + math.log(ladder.mult)
                if total.real > mb._LOG_MAX:
                    assert got == math.inf, (side, l)
                    continue
                parity = -ladder.step if l % 2 == 0 else ladder.step
                ref = parity * complex(np.exp(total))
                assert _same_bits(got, ref), (side, l)


def test_term_loop_pole_decision_matches_detect_pole():
    # just inside and just outside POLE_TOLERANCE of the poles 0 .. -40,
    # in eight directions, and points that are nowhere near a pole
    rng = np.random.default_rng(23)
    turns = np.exp(2j * np.pi * np.arange(8) / 8)
    radii = cgamma.POLE_TOLERANCE * np.array([1.0 - 1e-3, 1.0 + 1e-3])
    near = (-np.arange(41.0)[:, None, None]
            + radii[:, None] * turns).ravel()
    far = np.concatenate([
        rng.uniform(-40.0, 3.0, 200) + 1j * rng.uniform(-2.0, 2.0, 200),
        -np.arange(41.0) + 0.5, -np.arange(41.0) + 1e-7j])
    decided = 0
    for w in np.concatenate([near, far]):
        w = complex(w)
        expected = cgamma.detect_pole(w).is_pole
        assert cgamma.on_pole(w) is expected, w
        # the double residue pass's term loop: a denominator gamma on a pole
        # zeroes the term, a numerator one raises
        assert (mb._log_gammas([(w, 0.0, -1, w)], 0j) is None) is expected, w
        if expected:
            with pytest.raises(PoleError):
                mb._log_gammas([(w, 0.0, 1, w)], 0j)
        decided += expected
    assert decided == 41 * 8  # every point just inside, none outside
