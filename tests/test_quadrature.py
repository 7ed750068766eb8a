import cmath
import math

import mpmath
import numpy as np
import pytest

from mbint import mellin_barnes as mb
from mbint import quadrature
from mbint.cgamma import log_gamma_grid
from mbint.errors import QuadratureError
from mbint.special_functions import GParams, HParams, meijer_g


def plain(g):
    """g as an integrand of the rule, each value charged |value| as its
    rounding."""
    def f(x):
        values = g(x)
        return values, np.abs(values)
    return f


def counting(f):
    """f plus a record of the abscissae of every call."""
    calls = []

    def wrapped(x):
        calls.append(np.array(x))
        return f(x)
    return wrapped, calls


def peaked(u, eps=1e-2):
    # (1 + 2i) / (x^2 + eps^2) under x = sinh(pi/2 sinh u): double-
    # exponential decay in u, a peak of width about eps at u = 0
    x = np.sinh(0.5 * np.pi * np.sinh(u))
    dx = 0.5 * np.pi * np.cosh(u) * np.cosh(0.5 * np.pi * np.sinh(u))
    return (1.0 + 2.0j) * dx / (x * x + eps * eps)


PEAKED_EXACT = (1.0 + 2.0j) * np.pi / 1e-2  # over the whole real line


def oscillatory(v, w=-1.0 + 20.0j):
    # e^{w t} under t = exp(pi/2 sinh v): 20 / (2 pi) turns per unit of t
    log_t = 0.5 * np.pi * np.sinh(v)
    t = np.exp(log_t)
    return np.exp(w * t + log_t) * 0.5 * np.pi * np.cosh(v)


OSCILLATORY_EXACT = 1.0 / (1.0 - 20.0j)  # -1 / w over t in (0, inf)


def test_peaked_integrand_closed_form():
    res = quadrature.integrate_adaptive(plain(peaked), -4.0, 4.0,
                                        tol_rel=1e-12)
    assert res.converged
    assert abs(res.value - PEAKED_EXACT) < 1e-12 * abs(PEAKED_EXACT)
    assert res.error <= 1e-12 * abs(res.value)


def test_oscillatory_integrand_closed_form():
    res = quadrature.integrate_adaptive(plain(oscillatory), -4.0, 3.0,
                                        tol_rel=1e-12)
    assert res.converged
    assert abs(res.value - OSCILLATORY_EXACT) < 1e-12 * abs(OSCILLATORY_EXACT)


def test_rounding_floor_ends_refinement():
    # a target below rounding: the levels settle on the floor, the rule
    # stops there, unconverged, with the floor in its error
    f, calls = counting(plain(oscillatory))
    res = quadrature.integrate_adaptive(f, -4.0, 3.0, tol_rel=1e-18)
    assert not res.converged
    assert res.nodes < quadrature.MAX_NODES // 10
    assert res.error >= np.finfo(float).eps * abs(OSCILLATORY_EXACT)
    assert abs(res.value - OSCILLATORY_EXACT) <= res.error


def test_node_budget_is_respected():
    # the window [-4, 4] opens on 65 nodes, and each halving adds 64, 128,
    # ...: a budget of 200 takes the first halving only
    f, calls = counting(plain(peaked))
    res = quadrature.integrate_adaptive(f, -4.0, 4.0, tol_rel=1e-12,
                                        max_nodes=200)
    assert not res.converged
    assert res.nodes <= 200
    assert [x.size for x in calls] == [65, 64]
    assert sum(x.size for x in calls) == res.nodes


def test_budget_below_first_round_stops_after_it():
    f, calls = counting(plain(peaked))
    res = quadrature.integrate_adaptive(f, -4.0, 4.0, tol_rel=1e-12,
                                        max_nodes=50)
    assert not res.converged
    assert res.nodes == 65
    assert [x.size for x in calls] == [65]


def test_nan_estimate_stops_at_once():
    # the window [0, 1] opens on 9 nodes; the first call also takes the
    # levels of 17, 33 and 65 nodes (129 is past FIRST_NODES), and the NaN
    # ends the rule at the first comparison, on the level of 9
    f, calls = counting(plain(lambda x: np.full(np.shape(x), np.nan + 0j)))
    res = quadrature.integrate_adaptive(f, 0.0, 1.0)
    assert not res.converged
    assert res.nodes == 9
    assert [x.size for x in calls] == [65]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_sum_past_the_double_range_ends_unconverged():
    # finite parts, modulus 2.1e308: abs() of the sum raised OverflowError;
    # the weights scale the values before the sum, which does not overflow
    def f(x):
        return np.full(np.shape(x), 0.75e308 * (1.0 + 1.0j)), np.zeros(x.size)
    res = quadrature.integrate_adaptive(f, 0.0, 2.0)
    assert res.value.real == res.value.imag
    assert abs(res.value.real - 1.5e308) <= 1e-14 * 1.5e308
    assert not res.converged
    assert res.nodes == 17


def test_integrand_called_once_per_round():
    # the window opens on 65 nodes, so the first call takes the level STEP
    # alone (the next has 129 > FIRST_NODES nodes): one call per level, the
    # lattice STEP Z on the window widened outward, then the odd nodes of
    # each halving, so every level's nodes are nested
    f, calls = counting(plain(peaked))
    res = quadrature.integrate_adaptive(f, -3.9, 4.0, tol_rel=1e-12)
    step = quadrature.STEP
    assert np.array_equal(calls[0], step * np.arange(-32, 33))
    assert [x.size for x in calls[1:]] == [64 * 2 ** k
                                           for k in range(len(calls) - 1)]
    assert sum(x.size for x in calls) == res.nodes
    nodes = np.sort(np.concatenate(calls))
    finest = step / 2 ** (len(calls) - 1)
    assert np.array_equal(nodes, -4.0 + finest * np.arange(nodes.size))


def reference_integrate(f, lo, hi, tol_rel=1e-10,
                        max_nodes=quadrature.MAX_NODES):
    """The rule one level per call: the level STEP (and in it 2 STEP),
    then the odd nodes of each halving, each level summed on its own."""
    h = 2.0 * quadrature.STEP
    start = h * math.floor(lo / h)
    n = max(math.ceil(hi / h) - math.floor(lo / h), 1)
    fx, rx = f(start + quadrature.STEP * np.arange(2 * n + 1))
    nodes = 2 * n + 1
    value = complex((h * fx[::2]).sum() - 0.5 * h * (fx[0] + fx[-1]))
    rounding = float((h * rx[::2]).sum() - 0.5 * h * (rx[0] + rx[-1]))
    fx, rx = fx[1::2], rx[1::2]
    while True:
        h *= 0.5
        n *= 2
        previous = value
        value = 0.5 * value + complex((h * fx).sum())
        rounding = 0.5 * rounding + float((h * rx).sum())
        diff = quadrature.modulus(value - previous)
        if diff <= tol_rel * quadrature.modulus(value) \
                or diff <= np.finfo(float).eps * rounding \
                or not math.isfinite(quadrature.modulus(value)) \
                or nodes + n > max_nodes:
            break
        fx, rx = f(start + h * (np.arange(n) + 0.5))
        nodes += n
    error = diff + np.finfo(float).eps * rounding
    converged = error <= tol_rel * quadrature.modulus(value) < math.inf
    return quadrature.QuadResult(value, error, nodes, converged)


def bits(res):
    """A QuadResult as bytes and counts: equal when bit for bit equal, NaN
    included."""
    return (np.complex128(res.value).tobytes(),
            np.float64(res.error).tobytes(), res.nodes, res.converged)


def assert_matches_reference(f, lo, hi, **kwargs):
    """integrate_adaptive and reference_integrate give the same result bit
    for bit; the first call holds the reference's first calls (at most
    max(opening, min(FIRST_NODES, max_nodes)) nodes), and the later calls
    are the reference's last ones."""
    got_f, got_calls = counting(f)
    want_f, want_calls = counting(f)
    got = quadrature.integrate_adaptive(got_f, lo, hi, **kwargs)
    want = reference_integrate(want_f, lo, hi, **kwargs)
    assert bits(got) == bits(want)
    budget = kwargs.get("max_nodes", quadrature.MAX_NODES)
    assert got_calls[0].size <= max(want_calls[0].size,
                                    min(quadrature.FIRST_NODES, budget))
    later = len(got_calls) - 1
    assert later < len(want_calls)
    assert np.isin(np.concatenate(want_calls[:len(want_calls) - later]),
                   got_calls[0]).all()
    for one, two in zip(got_calls[1:], want_calls[len(want_calls) - later:]):
        assert np.array_equal(one, two)
    return got, got_calls


def nan_integrand(x):
    return np.full(np.shape(x), np.nan + 0j)


def gaussian(x):
    return (1.0 - 0.5j) * np.exp(-x * x)


def huge_integrand(x):
    return np.full(np.shape(x), 0.75e308 * (1.0 + 1.0j)), np.zeros(x.size)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("f, lo, hi, kwargs", [
    (plain(peaked), -4.0, 4.0, {"tol_rel": 1e-12}),
    (plain(peaked), -2.0, 2.0, {"tol_rel": 1e-12}),
    (plain(peaked), -1.0, 0.5, {"tol_rel": 1e-6}),
    (plain(oscillatory), -4.0, 3.0, {"tol_rel": 1e-12}),
    (plain(oscillatory), -4.0, 3.0, {"tol_rel": 1e-18}),
    # the opening, 161 nodes, is already past FIRST_NODES
    (plain(gaussian), -10.0, 10.0, {"tol_rel": 1e-12}),
    # budgets below the look-ahead, and below the opening
    (plain(peaked), -2.0, 2.0, {"tol_rel": 1e-12, "max_nodes": 100}),
    (plain(peaked), -2.0, 2.0, {"tol_rel": 1e-12, "max_nodes": 40}),
    (plain(peaked), -2.0, 2.0, {"tol_rel": 1e-12, "max_nodes": 20}),
    (plain(nan_integrand), 0.0, 1.0, {}),
    (huge_integrand, 0.0, 2.0, {}),
], ids=["peaked", "peaked-short", "peaked-coarse", "oscillatory",
        "rounding-floor", "opening-past-look-ahead", "budget-100",
        "budget-40", "budget-below-opening", "nan", "past-double-range"])
def test_look_ahead_matches_level_by_level_rule(f, lo, hi, kwargs):
    assert_matches_reference(f, lo, hi, **kwargs)


def test_look_ahead_takes_the_levels_up_to_first_nodes():
    # [-2, 2] opens on 33 nodes: the first call takes the levels of 33 and
    # 65 nodes, the lattice (STEP / 2) Z, and a level of 129 costs one call
    res, calls = assert_matches_reference(plain(peaked), -2.0, 2.0,
                                          tol_rel=1e-12)
    step = quadrature.STEP
    assert np.array_equal(calls[0], -2.0 + 0.5 * step * np.arange(65))
    assert [x.size for x in calls[1:]] == [64 * 2 ** k
                                           for k in range(len(calls) - 1)]
    assert len(calls) > 1 and sum(x.size for x in calls) == res.nodes


def test_look_ahead_matches_level_by_level_rule_on_a_line(monkeypatch):
    # a line that goes past the look-ahead, and one that stops within it
    results = []

    def both(f, lo, hi, **kwargs):
        res, calls = assert_matches_reference(f, lo, hi, **kwargs)
        results.append((res, calls))
        return res
    monkeypatch.setattr(mb, "integrate_adaptive", both)
    kernel = GParams(1, 1, 1, 2, (0.3,), (0.1, 0.6)).to_kernel()
    mb.integrate(kernel, 2.0 * cmath.exp(1.3j))
    mb.integrate(kernel, 1.5)
    (far, far_calls), (near, near_calls) = results
    assert len(far_calls) > 2 and len(near_calls) == 1
    assert near.nodes <= near_calls[0].size


def test_results_are_bit_reproducible():
    first = quadrature.integrate_adaptive(plain(peaked), -4.0, 4.0,
                                          tol_rel=1e-12)
    again = quadrature.integrate_adaptive(plain(peaked), -4.0, 4.0,
                                          tol_rel=1e-12)
    assert first == again
    kernel = GParams(2, 2, 2, 2, (0.3, -0.2), (0.1, 0.6)).to_kernel()
    one = mb.integrate(kernel, 0.7 + 0.2j)
    two = mb.integrate(kernel, 0.7 + 0.2j)
    assert (one.value, one.err_estimate, one.nodes_used) \
        == (two.value, two.err_estimate, two.nodes_used)


def test_rounding_bound_refuses_a_cancelling_line_early():
    # z^0.3 e^{-z} at z = 20 is 5.2e-9, against a line integral of |K z^s|
    # near 1: the rounding floor passes the target within a few levels, so
    # the line is refused after a few hundred nodes, where the budget used
    # to be spent first (99,990 nodes), and the residues answer
    params = GParams(1, 0, 0, 1, (), (0.3,))
    with pytest.raises(QuadratureError) as info:
        meijer_g(params, 20.0, method="quad")
    assert info.value.context["nodes"] < 500
    res = meijer_g(params, 20.0)
    exact = float(mpmath.mpf(20) ** mpmath.mpf(0.3) * mpmath.exp(-20))
    assert res.method == "residues_right"
    assert abs(res.value - exact) <= res.err_estimate


def _per_factor_log_grid(kernel, s):
    out = np.zeros(s.shape, dtype=np.complex128)
    for f in kernel.up_left:
        out = out + log_gamma_grid(f.coeff - f.mult * s)
    for f in kernel.up_right:
        out = out + log_gamma_grid(1.0 - f.coeff + f.mult * s)
    for f in kernel.down_left:
        out = out - log_gamma_grid(1.0 - f.coeff + f.mult * s)
    for f in kernel.down_right:
        out = out - log_gamma_grid(f.coeff - f.mult * s)
    return out + s * kernel.base_log


def test_stacked_kernel_log_grid_matches_per_factor_sum():
    g = GParams(2, 1, 2, 3, (0.3, -0.4), (0.1, 0.6, 1.2)).to_kernel()
    h = HParams(2, 1, 1, 3, (0.25,), (0.4, 0.9, -0.3),
                (0.5,), (1.5, 0.75, 2.0)).to_kernel()
    s = 0.2 + 1j * np.linspace(-40.0, 40.0, 301)
    for kernel in (g, h):
        stacked, size = mb.kernel_log_grid(kernel, s)
        np.testing.assert_allclose(stacked, _per_factor_log_grid(kernel, s),
                                   rtol=1e-15, atol=0.0)
        # the size bounds the sum it was taken from
        assert (size >= np.abs(stacked) - np.abs(s * kernel.base_log)).all()


def test_integrate_makes_one_log_gamma_call_per_round(monkeypatch):
    grids, gamma_sizes = [], []
    kernel_log_grid = mb.kernel_log_grid

    def counted_grid(kernel, s):
        grids.append(np.array(s))
        return kernel_log_grid(kernel, s)

    def counted_gamma(z):
        gamma_sizes.append(np.size(z))
        return log_gamma_grid(z)
    monkeypatch.setattr(mb, "kernel_log_grid", counted_grid)
    monkeypatch.setattr(mb, "log_gamma_grid", counted_gamma)
    kernel = GParams(1, 1, 1, 2, (0.3,), (0.1, 0.6)).to_kernel()
    res = mb.integrate(kernel, 2.0 * cmath.exp(1.3j))
    # one kernel grid for the first levels (the folded line opens on 45
    # nodes, and takes the level of 89 with it), then one per level, its
    # three gamma factors stacked in one call
    assert [s.size for s in grids[:2]] == [89, 88]
    assert len(grids) > 2
    assert sum(s.size for s in grids) == res.nodes_used
    assert gamma_sizes == [3 * s.size for s in grids]
    # the nodes depend on the line and its height, not on z: another z on
    # the same line evaluates the kernel on the same levels
    first = grids[:]
    del grids[:], gamma_sizes[:]
    again = mb.integrate(kernel, 2.0 * cmath.exp(-1.3j))
    assert again.contour == res.contour
    assert len(grids) == len(first)
    for one, two in zip(first, grids):
        assert np.array_equal(one, two)
